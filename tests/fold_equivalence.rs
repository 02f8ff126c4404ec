//! Property tests pinning transformation-time arithmetic to execution-time
//! arithmetic: for every foldable op-code × dtype, the constant folder
//! (`bh_ir::const_eval`) must produce exactly the value the VM computes
//! for the same operands. This is the "folder ≡ VM" leg of the DESIGN.md
//! §6 soundness invariant — a folder that disagrees with the machine turns
//! constant merging into silent miscompilation (cf. the u8 `255 / 2` and
//! floored-mod regressions this suite was built around). Both now apply
//! the op-code's one element function from `bh_ir::semantics`, so the
//! suite guards that sharing.

use bohrium_repro::ir::{
    const_eval, parse_program, Instruction, OpKind, Opcode, Program, ViewRef, ALL_OPCODES,
};
use bohrium_repro::tensor::{DType, Scalar, Shape};
use bohrium_repro::testing::{check, Compare};
use proptest::prelude::*;

/// Every op-code the integer branch of `const_eval` handles.
const INT_FOLDABLE: &[Opcode] = &[
    Opcode::Add,
    Opcode::Subtract,
    Opcode::Multiply,
    Opcode::Divide,
    Opcode::Mod,
    Opcode::Power,
    Opcode::Maximum,
    Opcode::Minimum,
    Opcode::BitwiseAnd,
    Opcode::BitwiseOr,
    Opcode::BitwiseXor,
    Opcode::LeftShift,
    Opcode::RightShift,
];

const INT_DTYPES: &[DType] = &[
    DType::UInt8,
    DType::UInt16,
    DType::UInt32,
    DType::UInt64,
    DType::Int8,
    DType::Int16,
    DType::Int32,
    DType::Int64,
];

/// Boundary operands: type-width edges where truncation bugs live.
const SPECIAL: &[i64] = &[
    i64::MIN,
    i64::MAX,
    i32::MAX as i64,
    u32::MAX as i64,
    (u32::MAX as i64) + 1,
    127,
    128,
    255,
    256,
    -128,
    -129,
    65535,
];

fn arb_op() -> impl Strategy<Value = Opcode> {
    (0usize..INT_FOLDABLE.len()).prop_map(|i| INT_FOLDABLE[i])
}

fn arb_dtype() -> impl Strategy<Value = DType> {
    (0usize..INT_DTYPES.len()).prop_map(|i| INT_DTYPES[i])
}

/// Operand values: small magnitudes (where div/mod/pow corner cases live),
/// values near type-width boundaries, and arbitrary bit patterns.
fn arb_operand() -> impl Strategy<Value = i64> {
    prop_oneof![
        -9i64..10,
        (0usize..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
        i64::MIN..i64::MAX,
    ]
}

/// Execute `a ⊕ b` on the actual byte-code VM in `dtype` arithmetic, on
/// every leg of the test matrix, and return the resulting element. Both
/// element-wise paths run: the naive engine runs every byte-code on the
/// strided interpreter, while on the fusing engine `BH_IDENTITY x a` and
/// the op fuse into one compiled group.
fn vm_eval(op: Opcode, a: i64, b: i64, dtype: DType) -> Scalar {
    // `BH_IDENTITY x a` materialises the left operand in-dtype; the op
    // then runs with the right operand as an immediate constant — the
    // exact shape constant merging rewrites.
    let text = format!(
        ".base x {dtype}[4]\nBH_IDENTITY x {a}\n{} x x {b}\nBH_SYNC x\n",
        op.name()
    );
    let program = parse_program(&text).expect("generated program parses");
    let x = &check(&program, 0, Compare::Bits)["x"];
    let first = x.get(&[0]).expect("element 0");
    // All four lanes saw the same operands; sanity-check broadcast.
    assert_eq!(first, x.get(&[3]).expect("element 3"));
    first
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // `const_eval(op, a, b, dtype)` must equal the VM-executed op on every
    // leg for every foldable opcode × integer dtype (exact, bit-for-bit).
    #[test]
    fn const_eval_matches_vm(
        op in arb_op(),
        dtype in arb_dtype(),
        a in arb_operand(),
        b in arb_operand(),
    ) {
        let folded = const_eval(op, Scalar::I64(a), Scalar::I64(b), dtype)
            .expect("integer branch handles every op in INT_FOLDABLE");
        let executed = vm_eval(op, a, b, dtype);
        prop_assert_eq!(
            folded,
            executed,
            "{} {} {} in {}: folder {:?} != VM {:?}",
            a, op.name(), b, dtype, folded, executed
        );
    }
}

#[test]
fn const_eval_matches_vm_on_known_regressions() {
    // (op, a, b, dtype) corner cases that diverged before this suite.
    let cases = [
        (Opcode::Divide, 255, 2, DType::UInt8),     // folder said 0
        (Opcode::Mod, -7, -3, DType::Int32),        // rem_euclid said 2
        (Opcode::Mod, 7, -3, DType::Int32),         // floored: -2
        (Opcode::Maximum, -1, 1, DType::UInt8),     // unsigned compare
        (Opcode::Minimum, -1, 1, DType::UInt16),    // unsigned compare
        (Opcode::RightShift, 254, 1, DType::UInt8), // logical shift
        (Opcode::RightShift, -2, 1, DType::Int8),   // arithmetic shift
        (Opcode::Power, 2, (u32::MAX as i64) + 1, DType::UInt64), // saturate
        (Opcode::Divide, i64::MIN, -1, DType::Int64), // wrapping div
        (Opcode::Mod, i64::MIN, -1, DType::Int64),  // wrapping rem
    ];
    for (op, a, b, dtype) in cases {
        let folded = const_eval(op, Scalar::I64(a), Scalar::I64(b), dtype).unwrap();
        let executed = vm_eval(op, a, b, dtype);
        assert_eq!(
            folded,
            executed,
            "{a} {} {b} in {dtype}: folder {folded:?} != VM {executed:?}",
            op.name()
        );
    }
}

/// The binary op-codes the shared table folds in `dtype`: those whose
/// type rule keeps the dtype.
fn foldable(dtype: DType) -> Vec<Opcode> {
    ALL_OPCODES
        .iter()
        .copied()
        .filter(|op| op.kind() == OpKind::ElementwiseBinary)
        .filter(|op| op.result_dtype(dtype).ok() == Some(dtype))
        .collect()
}

/// `vm_eval` for constants of any dtype: `BH_IDENTITY x a` then
/// `op x x b`, built directly so every float (NaN, ±inf) stays exact.
fn vm_eval_scalar(op: Opcode, a: Scalar, b: Scalar, dtype: DType) -> Scalar {
    let mut program = Program::new();
    let x = program.declare("x", dtype, Shape::vector(4));
    let x = ViewRef::full(x);
    program.push(Instruction::unary(Opcode::Identity, x.clone(), a));
    program.push(Instruction::binary(op, x.clone(), x.clone(), b));
    program.push(Instruction::sync(x));
    let x = &check(&program, 0, Compare::Bits)["x"];
    let first = x.get(&[0]).expect("element 0");
    assert_eq!(first.to_bits(), x.get(&[3]).expect("element 3").to_bits());
    first
}

/// Bit-identical, with any NaN matching any NaN (`Compare::Bits`).
fn same_bits(a: Scalar, b: Scalar) -> bool {
    let nan = |s: Scalar| s.dtype().is_float() && s.as_f64().is_nan();
    a.dtype() == b.dtype() && (a.to_bits() == b.to_bits() || (nan(a) && nan(b)))
}

/// Float operands: signed zeros, infinities, NaN, rounding ties, values
/// beyond f32, and arbitrary finite values.
fn arb_float() -> impl Strategy<Value = f64> {
    const SPECIAL: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -300.5,
        3.0,
        1e-45,
        1e39,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    prop_oneof![
        (0usize..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
        -1e3f64..1e3,
        // 1 + 2⁻²⁴ + 2⁻⁵⁰ rounds one way in f32 and another via f64.
        Just(1.0 + 2f64.powi(-24) + 2f64.powi(-50)),
        Just(2f64.powi(-24) + 2f64.powi(-50)),
    ]
}

fn assert_folds_like_the_vm(op: Opcode, a: Scalar, b: Scalar, dtype: DType) {
    let folded = const_eval(op, a, b, dtype).expect("the table folds this op-code");
    let executed = vm_eval_scalar(op, a, b, dtype);
    assert!(
        same_bits(folded, executed),
        "{a:?} {} {b:?} in {dtype}: folder {folded:?} != VM {executed:?}",
        op.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Float folds bind both constants in the dtype and apply its element
    // function, so f32 constants round as the VM binds them.
    #[test]
    fn const_eval_matches_vm_on_floats(
        op in (0usize..9).prop_map(|i| foldable(DType::Float64)[i]),
        f32_dtype in (0usize..2).prop_map(|i| i == 1),
        a in arb_float(),
        b in arb_float(),
    ) {
        let dtype = if f32_dtype { DType::Float32 } else { DType::Float64 };
        assert_folds_like_the_vm(op, Scalar::F64(a), Scalar::F64(b), dtype);
    }
}

#[test]
fn float_folds_cover_the_arithmetic_op_codes() {
    for dtype in [DType::Float32, DType::Float64] {
        let ops = foldable(dtype);
        assert_eq!(ops.len(), 9, "{dtype}: {ops:?}");
        for op in ops {
            for (a, b) in [(1.0, 3.0), (-7.5, 2.0), (0.1, 0.2), (2.0, f64::NAN)] {
                assert_folds_like_the_vm(op, Scalar::F64(a), Scalar::F64(b), dtype);
            }
        }
    }
}

#[test]
fn const_eval_matches_vm_on_bool() {
    let ops = foldable(DType::Bool);
    // Arithmetic, bitwise, comparisons and logicals all keep bool.
    assert!(ops.contains(&Opcode::Mod) && ops.contains(&Opcode::Greater));
    assert!(ops.contains(&Opcode::LogicalXor) && ops.contains(&Opcode::LeftShift));
    for op in ops {
        for a in [false, true] {
            for b in [false, true] {
                assert_folds_like_the_vm(op, Scalar::Bool(a), Scalar::Bool(b), DType::Bool);
            }
        }
    }
}
