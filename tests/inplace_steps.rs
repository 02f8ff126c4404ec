//! In-place element-wise steps: an input that is the output's own run
//! (same base, same offset) compiles to a loop that reads and writes
//! through one pointer. Random programs of such steps — `a = a op c`,
//! `a = c op a`, `a = a op b`, `a = b op a`, `a = a op a`, in place on a
//! whole base and on an offset run `a[1:n-1]` — run on the fusing engine
//! at the `BH_VM_TEST_THREADS` thread count and on the naive engine,
//! whose strided interpreter shares no loop with the compiled steps. The
//! results must agree bit for bit; any NaN matches any NaN. A second test
//! runs every same-dtype unary op-code in place on every dtype its type
//! rule admits.

use bohrium_repro::ir::{parse_program, OpKind, Opcode, ALL_OPCODES};
use bohrium_repro::tensor::{DType, Tensor};
use bohrium_repro::testing::{run_synced, run_synced_threads, test_threads};
use bohrium_repro::vm::Engine;
use proptest::prelude::*;

/// Bit patterns of a tensor's elements, every NaN mapped to one pattern.
fn bits(t: &Tensor) -> Vec<u64> {
    match t.dtype() {
        DType::Float32 => t
            .as_slice::<f32>()
            .unwrap()
            .iter()
            .map(|v| {
                if v.is_nan() {
                    u64::MAX
                } else {
                    v.to_bits() as u64
                }
            })
            .collect(),
        DType::Float64 => t
            .as_slice::<f64>()
            .unwrap()
            .iter()
            .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() })
            .collect(),
        _ => t.to_f64_vec().iter().map(|v| v.to_bits()).collect(),
    }
}

/// Naive ≡ Fusing at the test thread count, at an engine block that
/// splits the runs and at one that does not.
fn check_engines_agree(text: &str) {
    let p = parse_program(text).expect("generated text parses");
    let threads = test_threads();
    let naive = run_synced(&p, 41, Engine::Naive).expect("runs");
    for block in [3, 4096] {
        let fused = run_synced_threads(&p, 41, Engine::Fusing { block }, threads).expect("runs");
        assert_eq!(naive.len(), fused.len());
        for (name, want) in &naive {
            assert_eq!(
                bits(want),
                bits(&fused[name]),
                "{name}: Fusing{{{block}}}×{threads} diverged\n{text}"
            );
        }
    }
}

const DTYPES: [DType; 11] = [
    DType::Bool,
    DType::UInt8,
    DType::UInt16,
    DType::UInt32,
    DType::UInt64,
    DType::Int8,
    DType::Int16,
    DType::Int32,
    DType::Int64,
    DType::Float32,
    DType::Float64,
];

/// Element-wise op-codes of `kind` whose type rule maps `dtype` to
/// itself: the op-codes a step can run in place on a `dtype` base.
fn same_dtype_ops(kind: OpKind, dtype: DType) -> Vec<Opcode> {
    ALL_OPCODES
        .iter()
        .copied()
        .filter(|op| op.kind() == kind && op.result_dtype(dtype) == Ok(dtype))
        .collect()
}

/// Constants a step binds: negative ones only for signed and float
/// dtypes, so every constant is exact in the operating dtype.
fn constants(dtype: DType) -> &'static [&'static str] {
    if dtype == DType::Bool {
        &["0", "1"]
    } else if dtype.is_float() {
        &["-0.75", "0.5", "2", "3"]
    } else if dtype.is_signed_integer() {
        &["-3", "0", "1", "2", "7"]
    } else {
        &["0", "1", "2", "7"]
    }
}

/// One step: op-code index, form, constant index, and a draw that puts
/// it on the offset run `[1:n-1]` instead of the whole base when below 3.
type StepSpec = (usize, u8, usize, u8);

/// A program over two `dtype` bases `a` and `b` of `n` elements whose
/// every step writes `a` (or `b`, for every third step) in place.
fn inplace_program(dtype: DType, n: usize, steps: &[StepSpec]) -> String {
    let ops = same_dtype_ops(OpKind::ElementwiseBinary, dtype);
    let consts = constants(dtype);
    let mut text = format!(".base a {dtype}[{n}] input\n.base b {dtype}[{n}] input\n");
    for (i, &(op, form, c, run_draw)) in steps.iter().enumerate() {
        let op = ops[op % ops.len()];
        let c = consts[c % consts.len()];
        let (out, other) = if i % 3 == 2 { ("b", "a") } else { ("a", "b") };
        let run = |reg: &str| {
            if run_draw < 3 {
                format!("{reg}[1:{}:1]", n - 1)
            } else {
                reg.to_owned()
            }
        };
        let (o, x) = (run(out), run(other));
        let (lhs, rhs) = match form % 5 {
            0 => (o.clone(), c.to_owned()),
            1 => (c.to_owned(), o.clone()),
            2 => (o.clone(), x),
            3 => (x, o.clone()),
            _ => (o.clone(), o.clone()),
        };
        text.push_str(&format!("{op} {o} {lhs} {rhs}\n"));
    }
    text.push_str("BH_SYNC a\nBH_SYNC b\n");
    text
}

fn arb_inplace_program(dtype: DType) -> impl Strategy<Value = String> {
    let step = (0usize..64, 0u8..5, 0usize..8, 0u8..10);
    (3usize..40, proptest::collection::vec(step, 1..10))
        .prop_map(move |(n, steps): (usize, Vec<StepSpec>)| inplace_program(dtype, n, &steps))
}

proptest! {
    #[test]
    fn inplace_steps_equal_naive_on_f64(text in arb_inplace_program(DType::Float64)) {
        check_engines_agree(&text);
    }

    #[test]
    fn inplace_steps_equal_naive_on_f32(text in arb_inplace_program(DType::Float32)) {
        check_engines_agree(&text);
    }

    #[test]
    fn inplace_steps_equal_naive_on_i32(text in arb_inplace_program(DType::Int32)) {
        check_engines_agree(&text);
    }

    #[test]
    fn inplace_steps_equal_naive_on_u8(text in arb_inplace_program(DType::UInt8)) {
        check_engines_agree(&text);
    }

    #[test]
    fn inplace_steps_equal_naive_on_bool(text in arb_inplace_program(DType::Bool)) {
        check_engines_agree(&text);
    }
}

/// `v[1:n-1] = v[1:n-1]·c` alone, and after a whole-base step: the
/// offset single, and the offset step that splits a group.
#[test]
fn offset_run_scaled_in_place() {
    for n in [3, 17, 4099] {
        let m = n - 1;
        check_engines_agree(&format!(
            ".base v f64[{n}] input\nBH_MULTIPLY v[1:{m}:1] v[1:{m}:1] 0.5\nBH_SYNC v\n"
        ));
        check_engines_agree(&format!(
            ".base v f64[{n}] input\nBH_ADD v v 1\n\
             BH_MULTIPLY v[1:{m}:1] v[1:{m}:1] 0.5\nBH_MULTIPLY v[1:{m}:1] v[1:{m}:1] v[1:{m}:1]\n\
             BH_SYNC v\n"
        ));
    }
}

/// Every same-dtype unary op-code, in place on every dtype its type rule
/// admits: alone on a whole base, twice in a fused group, and on an
/// offset run.
#[test]
fn every_same_dtype_unary_op_runs_in_place() {
    let n = 37;
    let m = n - 1;
    let mut ran = 0;
    for dtype in DTYPES {
        for op in same_dtype_ops(OpKind::ElementwiseUnary, dtype) {
            check_engines_agree(&format!(
                ".base a {dtype}[{n}] input\n.base b {dtype}[{n}] input\n.base c {dtype}[{n}] input\n\
                 {op} a a\nBH_SYNC a\n\
                 {op} b b\n{op} b b\nBH_SYNC b\n\
                 {op} c[1:{m}:1] c[1:{m}:1]\nBH_SYNC c\n"
            ));
            ran += 1;
        }
    }
    // Identity, absolute and sign on all 11 dtypes, 24 float-only op-codes
    // on two, invert on the 8 integers and bool, and on bool logical not
    // and the two predicates, whose bool output is their input's dtype.
    assert_eq!(ran, 3 * 11 + 24 * 2 + 9 + 3);
}
