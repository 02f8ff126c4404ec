//! One cast rule on every path. A value converted between element types
//! must come out bit for bit the same whether the VM reads it from a
//! register (`BH_IDENTITY y x` with `x` of another dtype), binds it as an
//! immediate (`BH_IDENTITY y c`), or the host converts it with
//! `Scalar::cast` or `Tensor::cast`, on every leg of the test matrix. The
//! values are the boundaries where conversions differ: zero, ±1, every
//! integer width's edges, 2⁵³ ± 1, `u64::MAX`, ±0.5, ±300.5, ±inf and NaN.

use bohrium_repro::ir::{parse_program, Instruction, Opcode, Program, ViewRef};
use bohrium_repro::tensor::{DType, Scalar, Shape, Slice, Tensor, ALL_DTYPES};
use bohrium_repro::testing::{legs, Compare, Leg};

/// The boundary values, each in the type it is written in.
fn boundaries() -> Vec<Scalar> {
    let mut values = vec![Scalar::I64(0), Scalar::I64(1), Scalar::I64(-1)];
    let edges = [
        i8::MIN as i64,
        i8::MAX as i64,
        u8::MAX as i64,
        i16::MIN as i64,
        i16::MAX as i64,
        u16::MAX as i64,
        i32::MIN as i64,
        i32::MAX as i64,
        u32::MAX as i64,
        3_000_000_000,
        (1 << 53) - 1,
        (1 << 53) + 1,
        i64::MIN,
        i64::MAX,
    ];
    values.extend(edges.map(Scalar::I64));
    values.push(Scalar::U64(u64::MAX));
    let floats = [
        0.5,
        -0.5,
        300.0,
        300.5,
        -300.5,
        9_223_372_036_854_775_808.0, // 2⁶³
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    values.extend(floats.map(Scalar::F64));
    values
}

/// A tensor holding `values` (each already of `dtype`).
fn tensor_of(dtype: DType, values: &[Scalar]) -> Tensor {
    let mut t = Tensor::zeros(dtype, Shape::vector(values.len()));
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(v.dtype(), dtype);
        t.set(&[i], v).expect("index in range");
    }
    t
}

/// Run `program` on `leg`, binding `x` when given, and read `y`.
fn run(program: &Program, leg: Leg, x: Option<&Tensor>) -> Tensor {
    let mut vm = leg.vm();
    if let Some(x) = x {
        vm.bind_by_name(program, "x", x).expect("x binds");
    }
    vm.run(program)
        .unwrap_or_else(|e| panic!("{leg}: {e}\n{program}"));
    vm.read_by_name(program, "y").expect("y is synced")
}

/// `BH_IDENTITY y x`: the register path.
fn register_cast(from: DType, to: DType, n: usize) -> Program {
    let mut p = Program::new();
    let x = p.declare_input("x", from, Shape::vector(n));
    let y = p.declare("y", to, Shape::vector(n));
    p.push(Instruction::unary(
        Opcode::Identity,
        ViewRef::full(y),
        ViewRef::full(x),
    ));
    p.push(Instruction::sync(ViewRef::full(y)));
    p
}

/// `BH_IDENTITY y[i:i+1] c_i` for every value: the constant path.
fn constant_casts(values: &[Scalar], to: DType) -> Program {
    let mut p = Program::new();
    let y = p.declare("y", to, Shape::vector(values.len()));
    for (i, &c) in values.iter().enumerate() {
        let one = ViewRef::sliced(y, vec![Slice::range(i as i64, i as i64 + 1)]);
        p.push(Instruction::unary(Opcode::Identity, one, c));
    }
    p.push(Instruction::sync(ViewRef::full(y)));
    p
}

#[test]
fn register_constant_scalar_and_tensor_casts_agree() {
    for from in ALL_DTYPES {
        let values: Vec<Scalar> = boundaries().iter().map(|v| v.cast(from)).collect();
        let source = tensor_of(from, &values);
        for to in ALL_DTYPES {
            let scalar: Vec<Scalar> = values.iter().map(|v| v.cast(to)).collect();
            let paths = [
                ("Scalar::cast", tensor_of(to, &scalar)),
                ("Tensor::cast", source.cast(to)),
            ];
            let register = register_cast(from, to, values.len());
            let constant = constant_casts(&values, to);
            for &leg in legs() {
                let vm = [
                    ("register", run(&register, leg, Some(&source))),
                    ("constant", run(&constant, leg, None)),
                ];
                let (want_path, want) = &paths[0];
                for (path, got) in vm.iter().chain(&paths[1..]) {
                    if Compare::Bits.matches(want, got) {
                        continue;
                    }
                    let i = (0..values.len())
                        .find(|&i| {
                            let at = |t: &Tensor| tensor_of(to, &[t.get(&[i]).unwrap()]);
                            !Compare::Bits.matches(&at(want), &at(got))
                        })
                        .expect("a differing element");
                    panic!(
                        "{leg}: {from} {:?} -> {to}: {path} gives {:?}, {want_path} {:?}",
                        values[i],
                        got.get(&[i]).unwrap(),
                        want.get(&[i]).unwrap(),
                    );
                }
            }
        }
    }
}

#[test]
fn the_cast_rule_on_its_boundary_rows() {
    // Integer → integer wraps; float → integer truncates to an i64, then
    // wraps; a u64 target takes 2⁶³ and up straight.
    let rows = [
        (Scalar::I64(3_000_000_000), Scalar::I32(-1_294_967_296)),
        (Scalar::I64(-1), Scalar::U8(255)),
        (Scalar::U64(u64::MAX), Scalar::I64(-1)),
        (Scalar::I64((1 << 53) + 1), Scalar::U64((1 << 53) + 1)),
        (Scalar::F64(300.0), Scalar::U8(44)),
        (Scalar::F64(300.5), Scalar::U8(44)),
        (Scalar::F64(-0.5), Scalar::I16(0)),
        (Scalar::F64(f64::NAN), Scalar::I32(0)),
        (Scalar::F64(f64::INFINITY), Scalar::I64(i64::MAX)),
        (
            Scalar::F64(9_223_372_036_854_775_808.0),
            Scalar::U64(1 << 63),
        ),
        (Scalar::F64(-0.5), Scalar::Bool(true)),
        (Scalar::I64((1 << 24) + 1), Scalar::F32(16_777_216.0)),
    ];
    for (value, want) in rows {
        let (from, to) = (value.dtype(), want.dtype());
        assert_eq!(value.cast(to), want, "Scalar::cast {value:?} -> {to}");
        let register = register_cast(from, to, 1);
        let source = tensor_of(from, &[value]);
        for &leg in legs() {
            let got = run(&register, leg, Some(&source)).get(&[0]).unwrap();
            assert_eq!(got, want, "{leg}: register {value:?} -> {to}");
        }
    }
}

#[test]
fn range_values_follow_the_cast_rule() {
    // `BH_RANGE` writes its counter cast by the one rule: past a narrow
    // type's edge it wraps, so element 299 of a `u8` range is 43 and
    // element 128 of an `i8` range is -128.
    for (dtype, n) in [(DType::UInt8, 300), (DType::Int8, 200)] {
        let range = parse_program(&format!(".base y {dtype}[{n}]\nBH_RANGE y\nBH_SYNC y\n"))
            .expect("the range program parses");
        let counters: Vec<Scalar> = (0..n as u64).map(|k| Scalar::U64(k).cast(dtype)).collect();
        let want = tensor_of(dtype, &counters);
        for &leg in legs() {
            let got = run(&range, leg, None);
            assert!(
                Compare::Bits.matches(&want, &got),
                "{leg}: BH_RANGE over {dtype}[{n}] gives {got:?}"
            );
        }
    }
}
