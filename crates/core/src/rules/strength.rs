//! Strength reduction: replace expensive op-codes with cheaper equivalents.
//!
//! * `x · 2 → x + x` (exact for every dtype, IEEE included),
//! * float `x / 2ᵏ → x · 2⁻ᵏ` (exact: the reciprocal of a power of two is
//!   representable),
//! * unsigned `x / 2ᵏ → x ≫ k`,
//! * `x − x → 0` and `x ⊻ x → 0` (integer exact; float `x−x` gated on
//!   `fast_math` because `∞ − ∞ = NaN`).

use crate::rule::{reassoc_allowed, RewriteCtx, RewriteRule};
use bh_ir::{Instruction, Opcode, Operand, Program};
use bh_tensor::Scalar;

/// See the module documentation.
#[derive(Debug, Default, Clone, Copy)]
pub struct StrengthReduction;

impl RewriteRule for StrengthReduction {
    fn name(&self) -> &'static str {
        "strength-reduction"
    }

    fn apply(&self, program: &mut Program, ctx: &RewriteCtx) -> usize {
        let mut applied = 0;
        for idx in 0..program.instrs().len() {
            if let Some(replacement) = reduce(program, idx, ctx) {
                program.instrs_mut()[idx] = replacement;
                applied += 1;
            }
        }
        applied
    }
}

fn reduce(program: &Program, idx: usize, ctx: &RewriteCtx) -> Option<Instruction> {
    let instr = &program.instrs()[idx];
    if !instr.op.is_elementwise() || instr.op.arity() != 2 {
        return None;
    }
    let out = instr.out_view()?.clone();
    let dtype = program.base(out.reg).dtype;

    // x ⊖ x patterns.
    if let (Some(a), Some(b)) = (instr.inputs()[0].as_view(), instr.inputs()[1].as_view()) {
        if program.same_elements(a, b) {
            match instr.op {
                Opcode::Subtract if reassoc_allowed(ctx, dtype) => {
                    return Some(Instruction::unary(
                        Opcode::Identity,
                        out,
                        Operand::Const(Scalar::zero(dtype)),
                    ));
                }
                Opcode::BitwiseXor if !dtype.is_float() => {
                    return Some(Instruction::unary(
                        Opcode::Identity,
                        out,
                        Operand::Const(Scalar::zero(dtype)),
                    ));
                }
                _ => {}
            }
        }
    }

    let (const_pos, c) = instr.sole_const_input()?;
    let other = instr.inputs()[1 - const_pos].clone();
    let c_typed = c.cast(dtype);

    match instr.op {
        // x · 2 → x + x (constant on either side).
        Opcode::Multiply if c_typed.as_integral() == Some(2) => {
            Some(Instruction::binary(Opcode::Add, out, other.clone(), other))
        }
        // Divisions by powers of two, constant on the right only.
        Opcode::Divide if const_pos == 1 => {
            if dtype.is_float() {
                let v = c_typed.as_f64();
                if v != 0.0 && v.abs().log2().fract() == 0.0 {
                    return Some(Instruction::binary(
                        Opcode::Multiply,
                        out,
                        other,
                        Operand::Const(Scalar::from_f64(1.0 / v, dtype)),
                    ));
                }
                None
            } else if dtype.is_unsigned_integer() {
                let v = c_typed.as_integral()?;
                if v > 0 && (v as u64).is_power_of_two() {
                    let k = (v as u64).trailing_zeros() as i64;
                    return Some(Instruction::binary(
                        Opcode::RightShift,
                        out,
                        other,
                        Operand::Const(Scalar::from_i64(k, dtype)),
                    ));
                }
                None
            } else {
                // Signed division rounds toward zero; shifting rounds
                // toward −∞. Not equivalent for negatives — leave it.
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::{parse_program, PrintStyle};

    fn run(text: &str) -> (Program, usize) {
        let mut p = parse_program(text).unwrap();
        let n = StrengthReduction.apply(&mut p, &RewriteCtx::default());
        (p, n)
    }

    #[test]
    fn multiply_by_two_becomes_add() {
        let (p, n) = run("BH_IDENTITY a [0:4:1] 3\nBH_MULTIPLY a a 2\nBH_SYNC a\n");
        assert_eq!(n, 1);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_ADD a a a"), "{text}");
    }

    #[test]
    fn float_divide_by_power_of_two_becomes_multiply() {
        let (p, n) = run("BH_IDENTITY a [0:4:1] 3\nBH_DIVIDE a a 8\nBH_SYNC a\n");
        assert_eq!(n, 1);
        assert!(p
            .to_text(PrintStyle::COMPACT)
            .contains("BH_MULTIPLY a a 0.125"));
    }

    #[test]
    fn float_divide_by_three_is_kept() {
        let (_, n) = run("BH_IDENTITY a [0:4:1] 3\nBH_DIVIDE a a 3\nBH_SYNC a\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn unsigned_divide_becomes_shift() {
        let (p, n) = run(".base a u32[4]\nBH_IDENTITY a 64\nBH_DIVIDE a a 16\nBH_SYNC a\n");
        assert_eq!(n, 1);
        assert!(p
            .to_text(PrintStyle::COMPACT)
            .contains("BH_RIGHT_SHIFT a a 4"));
    }

    #[test]
    fn signed_divide_is_kept() {
        let (_, n) = run(".base a i32[4]\nBH_IDENTITY a -7\nBH_DIVIDE a a 4\nBH_SYNC a\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn constant_on_the_left_of_divide_is_kept() {
        let (_, n) = run("BH_IDENTITY a [0:4:1] 3\nBH_DIVIDE a 8 a\nBH_SYNC a\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn self_subtract_and_xor_fold_to_zero() {
        let (p, n) = run(".base a i64[4]\n.base z i64[4]\n.base w i64[4]\n\
             BH_IDENTITY a 9\n\
             BH_SUBTRACT z a a\n\
             BH_BITWISE_XOR w a a\n\
             BH_SYNC z\nBH_SYNC w\n");
        assert_eq!(n, 2);
        assert_eq!(p.count_op(Opcode::Subtract), 0);
        assert_eq!(p.count_op(Opcode::BitwiseXor), 0);
    }

    #[test]
    fn float_self_subtract_gated_by_fast_math() {
        let mut p =
            parse_program("BH_IDENTITY a [0:4:1] 9\nBH_SUBTRACT z [0:4:1] a a\nBH_SYNC z\n")
                .unwrap();
        let strict = RewriteCtx {
            fast_math: false,
            ..RewriteCtx::default()
        };
        assert_eq!(StrengthReduction.apply(&mut p, &strict), 0);
        assert_eq!(StrengthReduction.apply(&mut p, &RewriteCtx::default()), 1);
    }

    #[test]
    fn multiply_by_other_constants_kept() {
        let (_, n) = run("BH_IDENTITY a [0:4:1] 3\nBH_MULTIPLY a a 3\nBH_SYNC a\n");
        assert_eq!(n, 0);
    }
}
