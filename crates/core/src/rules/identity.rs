//! Algebraic identity and annihilator simplification.
//!
//! `x + 0`, `x · 1`, `x¹`, `x ≫ 0`, `x ∨ false` … collapse to a plain copy
//! (`BH_IDENTITY`), and a self-copy collapses to nothing. `x · 0`,
//! `x ∧ false`, `x ∨ true` collapse to a constant fill. These are the
//! smallest of the paper's "loop-fusion-like contractions of byte-codes".

use crate::rule::{reassoc_allowed, RewriteCtx, RewriteRule};
use bh_ir::{Instruction, Opcode, Operand, Program};
use bh_tensor::Scalar;

/// See the module documentation.
#[derive(Debug, Default, Clone, Copy)]
pub struct AlgebraicSimplify;

impl RewriteRule for AlgebraicSimplify {
    fn name(&self) -> &'static str {
        "algebraic-simplify"
    }

    fn apply(&self, program: &mut Program, ctx: &RewriteCtx) -> usize {
        let mut applied = 0;
        for idx in 0..program.instrs().len() {
            let instr = &program.instrs()[idx];
            if instr.op == Opcode::Identity && is_self_copy(program, instr) {
                program.instrs_mut()[idx] = Instruction::noop();
                applied += 1;
                continue;
            }
            if !instr.op.is_elementwise() || instr.op.arity() != 2 {
                continue;
            }
            let Some((const_pos, c)) = instr.sole_const_input() else {
                continue;
            };
            let x = &instr.inputs()[1 - const_pos];
            if let Some(replacement) = contract(program, instr, x, const_pos, c, ctx) {
                program.instrs_mut()[idx] = replacement;
                applied += 1;
            }
        }
        applied
    }
}

/// True when the copy `instr` writes back the very elements it reads.
fn is_self_copy(program: &Program, instr: &Instruction) -> bool {
    let input = instr.inputs().first().and_then(Operand::as_view);
    matches!((instr.out_view(), input), (Some(out), Some(input)) if program.same_elements(input, out))
}

/// What the binary element-wise `instr`, read as `x ⊕ c` with `c` its
/// input `const_pos`, contracts to under the context's exactness policy:
/// a copy of `x` (nothing, when `x` is the output's own view) where `c`
/// is the op-code's identity, a fill with `c` where it is its annihilator.
pub(crate) fn contract(
    program: &Program,
    instr: &Instruction,
    x: &Operand,
    const_pos: usize,
    c: Scalar,
    ctx: &RewriteCtx,
) -> Option<Instruction> {
    let op = instr.op;
    let out = instr.out_view()?.clone();
    let dtype = program.base(out.reg).dtype;
    let c = c.cast(dtype);
    if !op.is_commutative() && const_pos != 1 {
        return None;
    }
    // Identity element: x ⊕ e == x. Right-position only for
    // non-commutative ops. `x + 0.0` flips the sign of -0.0; gate float
    // add/sub-zero behind fast_math. `x · 1`, `x / 1`, `x ^ 1` are
    // IEEE-exact.
    let identity_exact =
        !matches!(op, Opcode::Add | Opcode::Subtract) || reassoc_allowed(ctx, dtype);
    if op.identity_scalar(dtype) == Some(c) && identity_exact {
        return Some(
            if x.as_view().is_some_and(|v| program.same_elements(v, &out)) {
                Instruction::noop()
            } else {
                Instruction::unary(Opcode::Identity, out, x.clone())
            },
        );
    }
    // Annihilator: x ⊕ z == z. Exact for integers/bools; floats violate
    // it on NaN/Inf (0 · NaN = NaN), so gate on fast_math.
    (op.annihilator_scalar(dtype) == Some(c) && reassoc_allowed(ctx, dtype))
        .then(|| Instruction::unary(Opcode::Identity, out, Operand::Const(c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::{parse_program, PrintStyle};

    fn apply(text: &str, ctx: &RewriteCtx) -> (Program, usize) {
        let mut p = parse_program(text).unwrap();
        let n = AlgebraicSimplify.apply(&mut p, ctx);
        p.compact();
        (p, n)
    }

    #[test]
    fn add_zero_same_view_vanishes() {
        let (p, n) = apply(
            "BH_IDENTITY a0 [0:4:1] 5\nBH_ADD a0 a0 0\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        assert_eq!(p.count_op(Opcode::Add), 0);
        assert_eq!(p.instrs().len(), 2);
    }

    #[test]
    fn add_zero_cross_register_becomes_copy() {
        let (p, n) = apply(
            "BH_IDENTITY a0 [0:4:1] 5\nBH_ADD b0 [0:4:1] a0 0\nBH_SYNC b0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        assert_eq!(p.count_op(Opcode::Add), 0);
        assert_eq!(p.count_op(Opcode::Identity), 2);
    }

    #[test]
    fn multiply_one_and_power_one() {
        let (p, n) = apply(
            "BH_IDENTITY a0 [0:4:1] 5\n\
             BH_MULTIPLY a0 a0 1\n\
             BH_POWER a0 a0 1\n\
             BH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 2);
        assert_eq!(p.instrs().len(), 2);
    }

    #[test]
    fn strict_ieee_keeps_add_zero_on_floats() {
        let strict = RewriteCtx {
            fast_math: false,
            ..RewriteCtx::default()
        };
        let (_, n) = apply(
            "BH_IDENTITY a0 [0:4:1] 5\nBH_ADD a0 a0 0\nBH_SYNC a0\n",
            &strict,
        );
        assert_eq!(n, 0);
        // multiply-by-one is IEEE-exact and still fires
        let (_, n) = apply(
            "BH_IDENTITY a0 [0:4:1] 5\nBH_MULTIPLY a0 a0 1\nBH_SYNC a0\n",
            &strict,
        );
        assert_eq!(n, 1);
    }

    #[test]
    fn annihilator_multiply_zero() {
        let (p, n) = apply(
            ".base a0 i32[4]\n\
             BH_IDENTITY a0 5\nBH_MULTIPLY a0 a0 0\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        assert_eq!(p.count_op(Opcode::Multiply), 0);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_IDENTITY a0 0"), "{text}");
    }

    #[test]
    fn subtract_zero_right_only() {
        // x - 0 simplifies; 0 - x does not.
        let (_, n) = apply(
            "BH_IDENTITY a0 [0:4:1] 5\nBH_SUBTRACT a0 a0 0\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        let (_, n) = apply(
            "BH_IDENTITY a0 [0:4:1] 5\nBH_SUBTRACT a0 0 a0\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn logical_lattice_identities() {
        let (p, n) = apply(
            ".base m bool[4]\n\
             BH_IDENTITY m true\n\
             BH_LOGICAL_AND m m true\n\
             BH_LOGICAL_OR m m true\n\
             BH_SYNC m\n",
            &RewriteCtx::default(),
        );
        // AND true is an identity (removed); OR true annihilates (fill).
        assert_eq!(n, 2);
        assert_eq!(p.count_op(Opcode::LogicalAnd), 0);
        assert_eq!(p.count_op(Opcode::LogicalOr), 0);
    }

    #[test]
    fn shift_by_zero() {
        let (p, n) = apply(
            ".base a0 u32[4]\n\
             BH_IDENTITY a0 5\nBH_LEFT_SHIFT a0 a0 0\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        assert_eq!(p.count_op(Opcode::LeftShift), 0);
    }

    #[test]
    fn nonidentity_constants_untouched() {
        let (_, n) = apply(
            "BH_IDENTITY a0 [0:4:1] 5\nBH_ADD a0 a0 2\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn trivial_copy_elision() {
        let (p, n) = apply(
            "BH_IDENTITY a0 [0:4:1] 1\nBH_IDENTITY a0 a0\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        assert_eq!(p.count_op(Opcode::Identity), 1);
        // Over a partial view too; a copy of other elements stays.
        let (p, n) = apply(
            "BH_IDENTITY a0 [0:8:1] 1\nBH_IDENTITY a0 [0:4:1] a0 [0:4:1]\n\
             BH_IDENTITY a0 [4:8:1] a0 [0:4:1]\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        assert_eq!(p.count_op(Opcode::Identity), 2);
    }
}
