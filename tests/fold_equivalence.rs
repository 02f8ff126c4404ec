//! Property tests pinning transformation-time arithmetic to execution-time
//! arithmetic: for every foldable op-code × integer dtype, the constant
//! folder (`bh_opt::const_eval`) must produce exactly the value the VM
//! computes for the same operands. This is the "folder ≡ VM" leg of the
//! DESIGN.md §6 soundness invariant — a folder that disagrees with the
//! machine turns constant merging into silent miscompilation (cf. the
//! u8 `255 / 2` and floored-mod regressions this suite was built around).

use bohrium_repro::ir::{parse_program, Opcode};
use bohrium_repro::opt::const_eval;
use bohrium_repro::tensor::{DType, Scalar};
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
