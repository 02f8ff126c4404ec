//! Compile-time scalar evaluation for constant folding.
//!
//! The constant-merging rule of Listing 3 needs `1 + 1 + 1 = 3` evaluated
//! at transformation time exactly as the VM would evaluate it, in the
//! *target dtype's* arithmetic (wrapping u8 addition must wrap here as it
//! does in the VM). [`const_eval`] is one more loop over the op-code's
//! element function from [`crate::semantics`], so it agrees with the VM
//! by construction.

use crate::semantics::{elementwise, Kernel};
use crate::{OpKind, Opcode};
use bh_tensor::{DType, Element, Scalar};

/// Evaluate `a ⊕ b` in `dtype` arithmetic: both constants are bound into
/// `dtype` as the VM binds an immediate ([`Scalar::cast`]), and `op`'s
/// element function applies to them.
///
/// Total: `None` unless `op` is a binary element-wise op-code whose type
/// rule maps `dtype` to itself (the auditor reads unverified programs),
/// and `None` for a constant into an integer dtype that is not an
/// integral `i64` value. The caller must then leave the byte-code
/// untouched.
pub fn const_eval(op: Opcode, a: Scalar, b: Scalar, dtype: DType) -> Option<Scalar> {
    let typed =
        op.kind() == OpKind::ElementwiseBinary && op.result_dtype(dtype).ok() == Some(dtype);
    let integral = !dtype.is_integer() || (a.as_integral().is_some() && b.as_integral().is_some());
    (typed && integral).then(|| elementwise(op, dtype, dtype, Consts(a.cast(dtype), b.cast(dtype))))
}

/// Two constants of the operating dtype: the loop [`const_eval`] runs.
struct Consts(Scalar, Scalar);

impl Kernel for Consts {
    type Out = Scalar;

    fn map1<I: Element, O: Element>(self, f: impl Fn(I) -> O) -> Scalar {
        Scalar::from(f(self.0.get::<I>()))
    }

    fn map2<I: Element, O: Element>(self, f: impl Fn(I, I) -> O) -> Scalar {
        Scalar::from(f(self.0.get::<I>(), self.1.get::<I>()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ALL_OPCODES;
    use bh_tensor::ALL_DTYPES;

    #[test]
    fn const_eval_is_total_and_keeps_the_dtype() {
        // The auditor folds constants of unverified programs: no op-code
        // and dtype may reach an unreachable arm, and a fold keeps the
        // dtype, or it is refused.
        let operands = [Scalar::I64(3), Scalar::F64(-2.5), Scalar::Bool(true)];
        for &op in ALL_OPCODES {
            for dtype in ALL_DTYPES {
                let folds = op.kind() == OpKind::ElementwiseBinary
                    && op.result_dtype(dtype).ok() == Some(dtype);
                for a in operands {
                    for b in operands {
                        let got = const_eval(op, a, b, dtype);
                        if !folds {
                            assert_eq!(got, None, "{op} on {dtype}");
                        } else if let Some(v) = got {
                            assert_eq!(v.dtype(), dtype, "{op} on {dtype}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn f32_folds_bind_each_constant_in_f32() {
        // The VM binds 2⁻²⁴ + 2⁻⁵⁰ as the f32 2⁻²⁴, and 1 + 2⁻²⁴ is a tie
        // that rounds to even: 1. Summing in f64 and rounding once would
        // land above the tie, on 1 + 2⁻²³.
        let b = Scalar::F64(2f64.powi(-24) + 2f64.powi(-50));
        let got = const_eval(Opcode::Add, Scalar::F64(1.0), b, DType::Float32);
        assert_eq!(got, Some(Scalar::F32(1.0)));
        assert_eq!((1.0 + b.as_f64()) as f32, 1.0 + 2f32.powi(-23));
    }

    #[test]
    fn merges_the_paper_constants() {
        // 1 + 1 + 1 -> 3, the Listing 2 -> Listing 3 fold.
        let one = Scalar::F64(1.0);
        let two = const_eval(Opcode::Add, one, one, DType::Float64).unwrap();
        let three = const_eval(Opcode::Add, two, one, DType::Float64).unwrap();
        assert_eq!(three, Scalar::F64(3.0));
    }

    #[test]
    fn integer_folding_wraps_like_the_vm() {
        let a = Scalar::I64(200);
        let b = Scalar::I64(100);
        assert_eq!(
            const_eval(Opcode::Add, a, b, DType::UInt8).unwrap(),
            Scalar::U8(44) // (200 + 100) mod 256
        );
    }

    #[test]
    fn division_by_zero_folds_to_zero_for_ints() {
        assert_eq!(
            const_eval(Opcode::Divide, Scalar::I32(7), Scalar::I32(0), DType::Int32).unwrap(),
            Scalar::I32(0)
        );
    }

    #[test]
    fn unsigned_folds_run_in_domain() {
        // Regression: u8 255 / 2 must be 127 (in-domain), not 0 (the i64
        // -1 / 2 the old raw fold computed when 255 arrived as I8(-1)).
        assert_eq!(
            const_eval(Opcode::Divide, Scalar::I8(-1), Scalar::I8(2), DType::UInt8).unwrap(),
            Scalar::U8(127)
        );
        assert_eq!(
            const_eval(
                Opcode::Divide,
                Scalar::I64(255),
                Scalar::I64(2),
                DType::UInt8
            )
            .unwrap(),
            Scalar::U8(127)
        );
        // Maximum/Minimum compare unsigned values, not sign-extended ones.
        assert_eq!(
            const_eval(Opcode::Maximum, Scalar::I8(-1), Scalar::I8(1), DType::UInt8).unwrap(),
            Scalar::U8(255)
        );
        assert_eq!(
            const_eval(Opcode::Minimum, Scalar::I8(-1), Scalar::I8(1), DType::UInt8).unwrap(),
            Scalar::U8(1)
        );
        // Unsigned right shift is logical, not arithmetic.
        assert_eq!(
            const_eval(
                Opcode::RightShift,
                Scalar::I64(254),
                Scalar::I64(1),
                DType::UInt8
            )
            .unwrap(),
            Scalar::U8(127)
        );
        // Signed dtypes still see sign-extended domain values.
        assert_eq!(
            const_eval(
                Opcode::RightShift,
                Scalar::I64(254),
                Scalar::I64(1),
                DType::Int8
            )
            .unwrap(),
            Scalar::I8(-1)
        );
    }

    #[test]
    fn integer_mod_folds_floored() {
        let cases = [
            (-7, 3, 2i64),
            (7, -3, -2),
            (-7, -3, -1),
            (7, 3, 1),
            (7, 0, 0),
        ];
        for (a, b, want) in cases {
            assert_eq!(
                const_eval(Opcode::Mod, Scalar::I64(a), Scalar::I64(b), DType::Int32).unwrap(),
                Scalar::I32(want as i32),
                "{a} mod {b}"
            );
        }
    }

    #[test]
    fn integer_power_folds_like_the_vm() {
        assert_eq!(
            const_eval(Opcode::Power, Scalar::I64(2), Scalar::I64(10), DType::Int64).unwrap(),
            Scalar::I64(1024)
        );
        // Negative exponents truncate; oversized exponents saturate.
        assert_eq!(
            const_eval(Opcode::Power, Scalar::I32(2), Scalar::I32(-1), DType::Int32).unwrap(),
            Scalar::I32(0)
        );
        assert_eq!(
            const_eval(Opcode::Power, Scalar::I32(1), Scalar::I32(-5), DType::Int32).unwrap(),
            Scalar::I32(1)
        );
        let huge = Scalar::I64((u32::MAX as i64) + 1);
        assert_eq!(
            const_eval(Opcode::Power, Scalar::I64(2), huge, DType::UInt64).unwrap(),
            const_eval(
                Opcode::Power,
                Scalar::I64(2),
                Scalar::I64(u32::MAX as i64),
                DType::UInt64
            )
            .unwrap()
        );
    }

    #[test]
    fn bool_lattice() {
        let t = Scalar::Bool(true);
        let f = Scalar::Bool(false);
        assert_eq!(const_eval(Opcode::Add, t, f, DType::Bool).unwrap(), t);
        assert_eq!(const_eval(Opcode::Multiply, t, f, DType::Bool).unwrap(), f);
        assert_eq!(const_eval(Opcode::Subtract, t, t, DType::Bool).unwrap(), f);
    }

    #[test]
    fn float_min_max_power() {
        assert_eq!(
            const_eval(
                Opcode::Maximum,
                Scalar::F64(1.0),
                Scalar::F64(2.0),
                DType::Float64
            ),
            Some(Scalar::F64(2.0))
        );
        assert_eq!(
            const_eval(
                Opcode::Power,
                Scalar::F64(2.0),
                Scalar::F64(10.0),
                DType::Float64
            ),
            Some(Scalar::F64(1024.0))
        );
    }

    #[test]
    fn shifts_mask_to_width() {
        assert_eq!(
            const_eval(
                Opcode::LeftShift,
                Scalar::I64(1),
                Scalar::I64(9),
                DType::UInt8
            )
            .unwrap(),
            Scalar::U8(2)
        );
    }

    #[test]
    fn unhandled_ops_return_none() {
        assert_eq!(
            const_eval(
                Opcode::Arctan2,
                Scalar::I32(1),
                Scalar::I32(1),
                DType::Int32
            ),
            None
        );
        // A comparison changes the dtype; a logical op admits bool only.
        assert_eq!(
            const_eval(Opcode::Less, Scalar::I32(1), Scalar::I32(2), DType::Int32),
            None
        );
        assert_eq!(
            const_eval(
                Opcode::LogicalAnd,
                Scalar::I32(1),
                Scalar::I32(1),
                DType::Int32
            ),
            None
        );
        // Bool mod is defined, as the VM computes it: always false.
        assert_eq!(
            const_eval(
                Opcode::Mod,
                Scalar::Bool(true),
                Scalar::Bool(true),
                DType::Bool
            ),
            Some(Scalar::Bool(false))
        );
    }

    #[test]
    fn non_integral_into_int_dtype_returns_none() {
        assert_eq!(
            const_eval(Opcode::Add, Scalar::F64(0.5), Scalar::I64(1), DType::Int32),
            None
        );
    }
}
