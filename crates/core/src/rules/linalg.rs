//! The context-aware Eq. 2 rewrite: inverse-then-multiply becomes solve.
//!
//! ```text
//! BH_INVERSE t A          BH_NONE
//! BH_MATMUL  x t B   ⇒    BH_SOLVE x A B
//! ```
//!
//! "Instead one could do a LU-factorization of the same problem, which
//! would usually be faster to compute. Note that this is of course only
//! faster, if we do not use the A⁻¹ tensor for anything else in our
//! computations." (§2). That side condition is exactly what
//! [`DefUse::read_after`] checks.

use crate::rule::{LiveAtExit, RewriteCtx, RewriteRule};
use bh_ir::{DefUse, Instruction, Opcode, Program};

/// See the module documentation.
#[derive(Debug, Default, Clone, Copy)]
pub struct InverseSolveRewrite;

impl RewriteRule for InverseSolveRewrite {
    fn name(&self) -> &'static str {
        "inverse-solve"
    }

    fn apply(&self, program: &mut Program, ctx: &RewriteCtx) -> usize {
        // Dropping the BH_INVERSE destroys t's final value. Under the
        // all-registers-live policy t is host-observable, which is exactly
        // the paper's "use A⁻¹ for anything else" disqualifier — and
        // keeping the inverse alongside a solve would be slower than the
        // original, so the rewrite simply does not fire.
        if !matches!(ctx.live_at_exit, LiveAtExit::SyncedOnly) {
            return 0;
        }
        // No BH_INVERSE, no pattern: skip the def-use index altogether.
        if !program.instrs().iter().any(|i| i.op == Opcode::Inverse) {
            return 0;
        }
        // One index, built before the first rewrite, serves the whole
        // scan. A rewrite removes t's only definition and moves the read
        // of A from the inverse to the solve; neither can create or
        // destroy another pattern: a pattern's t has exactly one
        // definition and one non-free reader, so two patterns never share
        // a t, and a register that gains or loses a read (A) had — and
        // keeps — a reader besides any matmul that might consume it.
        let du = DefUse::compute(program);
        let mut applied = 0;
        for mm_idx in 0..program.instrs().len() {
            let Some(inv_idx) = match_pattern(program, &du, mm_idx) else {
                continue;
            };
            let a = program.instrs()[inv_idx].inputs()[0].clone();
            let mm = &mut program.instrs_mut()[mm_idx];
            mm.op = Opcode::Solve;
            mm.operands[1] = a;
            program.instrs_mut()[inv_idx] = Instruction::noop();
            applied += 1;
        }
        applied
    }
}

/// If the instruction at `mm_idx` is `x = t @ B` and `t` is an inverse
/// nothing else observes, the index of the defining `BH_INVERSE`.
fn match_pattern(program: &Program, du: &DefUse, mm_idx: usize) -> Option<usize> {
    let instrs = program.instrs();
    let mm = &instrs[mm_idx];
    if mm.op != Opcode::MatMul {
        return None;
    }
    // x = t @ B with t the *left* operand (A⁻¹B solves Ax = B; B·A⁻¹
    // would be the transposed system and is out of scope).
    let t = mm.inputs()[0].as_view()?;
    let b = mm.inputs()[1].as_view()?;
    if !program.is_full_view(t) {
        return None;
    }
    // Find the defining BH_INVERSE of t.
    let inv_idx = *du.defs(t.reg).iter().rfind(|&&d| d < mm_idx)?;
    let inv = &instrs[inv_idx];
    if inv.op != Opcode::Inverse {
        return None;
    }
    let inv_out = inv.out_view()?;
    if !program.is_full_view(inv_out) {
        return None;
    }
    let a = inv.inputs()[0].as_view()?;
    // Side condition 1: the inverse is used *only* by this matmul
    // (later BH_FREEs of t are fine — the value itself is not read).
    let extra_use = du
        .uses(t.reg)
        .iter()
        .any(|&u| u != mm_idx && !matches!(instrs[u].op, Opcode::Free));
    if extra_use {
        return None;
    }
    // Side condition 2: t is defined exactly once (no partial updates
    // blending other data into the "inverse").
    if du.defs(t.reg).len() != 1 {
        return None;
    }
    // Side condition 3: A and B unchanged between the two sites.
    if du.written_between(a.reg, inv_idx, mm_idx) || du.written_between(b.reg, inv_idx, mm_idx) {
        return None;
    }
    Some(inv_idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::{parse_program, PrintStyle};

    fn run(text: &str) -> (Program, usize) {
        let mut p = parse_program(text).unwrap();
        let n = InverseSolveRewrite.apply(&mut p, &RewriteCtx::default());
        p.compact();
        (p, n)
    }

    const EQ2: &str = "\
.base a f64[8,8] input
.base b f64[8] input
.base t f64[8,8]
.base x f64[8]
BH_INVERSE t a
BH_MATMUL x t b
BH_SYNC x
";

    #[test]
    fn eq2_rewrites_to_solve() {
        let (p, n) = run(EQ2);
        assert_eq!(n, 1);
        assert_eq!(p.count_op(Opcode::Inverse), 0);
        assert_eq!(p.count_op(Opcode::MatMul), 0);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_SOLVE x a b"), "{text}");
    }

    #[test]
    fn all_registers_live_keeps_the_inverse() {
        // Under observe-all, t's final value is host-observable: dropping
        // the BH_INVERSE would hand the host a zero-filled t.
        let mut p = parse_program(EQ2).unwrap();
        let ctx = RewriteCtx {
            live_at_exit: LiveAtExit::AllRegisters,
            ..RewriteCtx::default()
        };
        assert_eq!(InverseSolveRewrite.apply(&mut p, &ctx), 0);
        assert_eq!(p.count_op(Opcode::Inverse), 1);
        assert_eq!(p.count_op(Opcode::MatMul), 1);
    }

    #[test]
    fn inverse_with_another_use_is_kept() {
        // The paper's side condition: A⁻¹ is used for something else.
        let (p, n) = run(".base a f64[8,8] input
.base b f64[8] input
.base t f64[8,8]
.base x f64[8]
.base y f64[8,8]
BH_INVERSE t a
BH_MATMUL x t b
BH_ADD y t t
BH_SYNC x
BH_SYNC y
");
        assert_eq!(n, 0);
        assert_eq!(p.count_op(Opcode::Inverse), 1);
    }

    #[test]
    fn freeing_the_inverse_afterwards_is_fine() {
        let (p, n) = run(".base a f64[8,8] input
.base b f64[8] input
.base t f64[8,8]
.base x f64[8]
BH_INVERSE t a
BH_MATMUL x t b
BH_FREE t
BH_SYNC x
");
        assert_eq!(n, 1);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_SOLVE"));
    }

    #[test]
    fn right_multiplication_is_out_of_scope() {
        // x = B @ A⁻¹ solves a transposed system; must not rewrite.
        let (_, n) = run(".base a f64[8,8] input
.base b f64[8,8] input
.base t f64[8,8]
.base x f64[8,8]
BH_INVERSE t a
BH_MATMUL x b t
BH_SYNC x
");
        assert_eq!(n, 0);
    }

    #[test]
    fn modified_coefficient_matrix_blocks_rewrite() {
        let (_, n) = run(".base a f64[8,8] input
.base b f64[8] input
.base t f64[8,8]
.base x f64[8]
BH_INVERSE t a
BH_ADD a a 1
BH_MATMUL x t b
BH_SYNC x
");
        assert_eq!(n, 0);
    }

    #[test]
    fn matrix_rhs_also_rewrites() {
        let (p, n) = run(".base a f64[8,8] input
.base b f64[8,3] input
.base t f64[8,8]
.base x f64[8,3]
BH_INVERSE t a
BH_MATMUL x t b
BH_SYNC x
");
        assert_eq!(n, 1);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_SOLVE x a b"));
    }

    #[test]
    fn inverse_of_an_inverse_rewrites_only_the_unshared_one() {
        // a = z⁻¹ feeds both a matmul and a second inverse, so it stays;
        // t = a⁻¹ has one reader and becomes a solve — whichever matmul
        // comes first in the program.
        for order in [
            "BH_MATMUL w a b\nBH_INVERSE t a\nBH_MATMUL x t b\n",
            "BH_INVERSE t a\nBH_MATMUL x t b\nBH_MATMUL w a b\n",
        ] {
            let (p, n) = run(&format!(
                ".base z f64[4,4] input\n.base b f64[4] input\n.base a f64[4,4]\n\
                 .base t f64[4,4]\n.base x f64[4]\n.base w f64[4]\n\
                 BH_INVERSE a z\n{order}BH_SYNC x\nBH_SYNC w\n"
            ));
            assert_eq!(n, 1);
            let text = p.to_text(PrintStyle::COMPACT);
            assert!(text.contains("BH_SOLVE x a b"), "{text}");
            assert!(text.contains("BH_MATMUL w a b"), "{text}");
        }
    }

    #[test]
    fn repeated_patterns_all_rewrite() {
        let (p, n) = run(".base a f64[4,4] input
.base b f64[4] input
.base c f64[4,4] input
.base d f64[4] input
.base t1 f64[4,4]
.base t2 f64[4,4]
.base x f64[4]
.base y f64[4]
BH_INVERSE t1 a
BH_MATMUL x t1 b
BH_INVERSE t2 c
BH_MATMUL y t2 d
BH_SYNC x
BH_SYNC y
");
        assert_eq!(n, 2);
        assert_eq!(p.count_op(Opcode::Solve), 2);
    }
}
