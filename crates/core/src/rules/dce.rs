//! Dead-code elimination.
//!
//! Removes pure byte-codes whose written value is never observed — e.g.
//! the two `BH_ADD`s left as `BH_NONE` by constant merging, or copies made
//! redundant by copy propagation. Observability follows the context's
//! [`LiveAtExit`] policy.
//!
//! One backward walk with a [`Liveness`] cursor: a pure store to a
//! register that is not live just after it is dropped *without* stepping
//! the cursor across it, so its inputs never become live on its account
//! and the stores that fed only it are found dead in the same walk.
//!
//! [`LiveAtExit`]: crate::rule::LiveAtExit
//! [`Liveness`]: bh_ir::Liveness

use crate::rule::{RewriteCtx, RewriteRule};
use bh_ir::{Instruction, OpKind, Program};

/// See the module documentation.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeadCodeElimination;

impl RewriteRule for DeadCodeElimination {
    fn name(&self) -> &'static str {
        "dead-code-elimination"
    }

    fn apply(&self, program: &mut Program, ctx: &RewriteCtx) -> usize {
        let mut live = ctx.exit_liveness(program);
        let mut applied = 0;
        for idx in (0..program.instrs().len()).rev() {
            let instr = &program.instrs()[idx];
            if is_pure(instr) && !live.write_is_live(instr) {
                program.instrs_mut()[idx] = Instruction::noop();
                applied += 1;
            } else {
                live.step_back(program, instr);
            }
        }
        applied
    }
}

/// True for byte-codes with no effect beyond their output write.
fn is_pure(instr: &Instruction) -> bool {
    !matches!(instr.op.kind(), OpKind::System)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::LiveAtExit;
    use bh_ir::{parse_program, Opcode};

    fn run(text: &str, ctx: &RewriteCtx) -> (Program, usize) {
        let mut p = parse_program(text).unwrap();
        let n = DeadCodeElimination.apply(&mut p, ctx);
        p.compact();
        (p, n)
    }

    #[test]
    fn unsynced_results_are_dead_under_synced_only() {
        let (p, n) = run(
            "BH_IDENTITY a [0:4:1] 1\n\
             BH_IDENTITY b [0:4:1] 2\n\
             BH_SYNC a\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        assert_eq!(p.instrs().len(), 2);
        assert_eq!(
            p.reg_by_name("b").map(|r| p.base(r).name.clone()).unwrap(),
            "b"
        );
    }

    #[test]
    fn all_registers_policy_keeps_results() {
        let ctx = RewriteCtx {
            live_at_exit: LiveAtExit::AllRegisters,
            ..RewriteCtx::default()
        };
        let (_, n) = run(
            "BH_IDENTITY a [0:4:1] 1\n\
             BH_IDENTITY b [0:4:1] 2\n\
             BH_SYNC a\n",
            &ctx,
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn overwritten_store_removed_under_both_policies() {
        for ctx in [
            RewriteCtx::default(),
            RewriteCtx {
                live_at_exit: LiveAtExit::AllRegisters,
                ..RewriteCtx::default()
            },
        ] {
            let (p, n) = run(
                "BH_IDENTITY a [0:4:1] 1\n\
                 BH_IDENTITY a [0:4:1] 2\n\
                 BH_SYNC a\n",
                &ctx,
            );
            assert_eq!(n, 1);
            assert_eq!(p.count_op(Opcode::Identity), 1);
        }
    }

    #[test]
    fn dead_chains_collapse_transitively() {
        // b feeds c, c feeds nothing observable: both die.
        let (p, n) = run(
            "BH_IDENTITY a [0:4:1] 1\n\
             BH_ADD b [0:4:1] a 1\n\
             BH_ADD c [0:4:1] b 1\n\
             BH_SYNC a\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 2);
        assert_eq!(p.count_op(Opcode::Add), 0);
    }

    #[test]
    fn partial_writes_survive() {
        let (_, n) = run(
            "BH_IDENTITY a [0:8:1] 1\n\
             BH_IDENTITY a [0:4:1] 2\n\
             BH_SYNC a\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0); // the full write is still partially visible
    }

    #[test]
    fn system_ops_never_removed() {
        let (p, n) = run(
            "BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\nBH_FREE a\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0);
        assert_eq!(p.instrs().len(), 3);
    }
}
