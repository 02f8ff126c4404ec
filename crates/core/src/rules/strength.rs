//! Strength reduction: replace expensive op-codes with cheaper equivalents.
//!
//! Inside the fixpoint ([`RewriteRule::apply`]):
//!
//! * float `x / 2ᵏ → x · 2⁻ᵏ` (exact: the reciprocal of a power of two is
//!   representable),
//! * `x − x → 0` and `x ⊻ x → 0` (integer exact; float `x−x` gated on
//!   `fast_math` because `∞ − ∞ = NaN`).
//!
//! Once, after the fixpoint ([`RewriteRule::lower`]), because each hides a
//! constant that `constant-merge` would otherwise fold (`x·2·¼` is `x·½`,
//! `(x + x)·¼` is not a chain):
//!
//! * `x · 2 → x + x` (exact for every dtype, IEEE included),
//! * unsigned `x / 2ᵏ → x ≫ k`.

use crate::rule::{reassoc_allowed, RewriteCtx, RewriteRule};
use bh_ir::affine::dyadic_reciprocal;
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
        rewrite_each(program, |program, idx| reduce(program, idx, ctx))
    }

    fn lower(&self, program: &mut Program, _ctx: &RewriteCtx) -> usize {
        rewrite_each(program, lower)
    }
}

/// Replace every instruction `rewrite` has a replacement for.
fn rewrite_each(
    program: &mut Program,
    rewrite: impl Fn(&Program, usize) -> Option<Instruction>,
) -> usize {
    let mut applied = 0;
    for idx in 0..program.instrs().len() {
        if let Some(replacement) = rewrite(program, idx) {
            program.instrs_mut()[idx] = replacement;
            applied += 1;
        }
    }
    applied
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

    // Float divisions by powers of two, constant on the right only.
    let (const_pos, c) = instr.sole_const_input()?;
    if instr.op != Opcode::Divide || const_pos != 1 {
        return None;
    }
    let r = dyadic_reciprocal(c, dtype)?;
    Some(Instruction::binary(
        Opcode::Multiply,
        out,
        instr.inputs()[0].clone(),
        Operand::Const(r),
    ))
}

fn lower(program: &Program, idx: usize) -> Option<Instruction> {
    let instr = &program.instrs()[idx];
    if !instr.op.is_elementwise() || instr.op.arity() != 2 {
        return None;
    }
    let out = instr.out_view()?.clone();
    let dtype = program.base(out.reg).dtype;
    let (const_pos, c) = instr.sole_const_input()?;
    let other = instr.inputs()[1 - const_pos].clone();
    let c_typed = c.cast(dtype);

    match instr.op {
        // x · 2 → x + x (constant on either side).
        Opcode::Multiply if c_typed.as_integral() == Some(2) => {
            Some(Instruction::binary(Opcode::Add, out, other.clone(), other))
        }
        // Unsigned x / 2ᵏ → x ≫ k, constant on the right only. Signed
        // division rounds toward zero and shifting toward −∞: not
        // equivalent for negatives.
        Opcode::Divide if const_pos == 1 && dtype.is_unsigned_integer() => {
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
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::{parse_program, PrintStyle};

    /// Both phases, as the pass manager runs them.
    fn run(text: &str) -> (Program, usize) {
        let mut p = parse_program(text).unwrap();
        let ctx = RewriteCtx::default();
        let n = StrengthReduction.apply(&mut p, &ctx) + StrengthReduction.lower(&mut p, &ctx);
        (p, n)
    }

    #[test]
    fn lowering_waits_for_the_fixpoint() {
        let mut p = parse_program(
            ".base a f64[4]\n.base u u32[4]\nBH_IDENTITY a 3\nBH_MULTIPLY a a 2\n\
             BH_IDENTITY u 64\nBH_DIVIDE u u 16\nBH_SYNC a\nBH_SYNC u\n",
        )
        .unwrap();
        let ctx = RewriteCtx::default();
        assert_eq!(StrengthReduction.apply(&mut p, &ctx), 0);
        assert_eq!(StrengthReduction.lower(&mut p, &ctx), 2);
        assert_eq!(p.count_op(Opcode::Multiply) + p.count_op(Opcode::Divide), 0);
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
