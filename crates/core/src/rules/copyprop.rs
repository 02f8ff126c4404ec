//! Copy propagation: route reads around `BH_IDENTITY` copies.
//!
//! After `BH_IDENTITY b a`, reads of `b` can read `a` directly (until
//! either register is rewritten). The copy itself then becomes dead and
//! falls to [`crate::rules::DeadCodeElimination`].

use crate::rule::{RewriteCtx, RewriteRule};
use bh_ir::{Opcode, Operand, Program, Reg, ViewRef};

/// See the module documentation.
#[derive(Debug, Default, Clone, Copy)]
pub struct CopyPropagation;

/// The still-valid full copies at the scan position. Invariant:
/// `source_of[b] = Some(a)` iff a `BH_IDENTITY b a` (full views, same
/// dtype and shape) was seen and neither `a` nor `b` has been written or
/// freed since.
struct Copies {
    /// target reg -> source reg
    source_of: Vec<Option<Reg>>,
    /// source reg -> targets recorded against it; may name targets whose
    /// copy has since been dropped or re-pointed, so readers re-check
    /// `source_of`.
    targets_of: Vec<Vec<Reg>>,
}

impl Copies {
    fn record(&mut self, target: Reg, source: Reg) {
        self.source_of[target.index()] = Some(source);
        self.targets_of[source.index()].push(target);
    }

    /// Drop every copy that involves `reg`, as target or as source.
    fn invalidate(&mut self, reg: Reg) {
        self.source_of[reg.index()] = None;
        for target in self.targets_of[reg.index()].drain(..) {
            if self.source_of[target.index()] == Some(reg) {
                self.source_of[target.index()] = None;
            }
        }
    }
}

impl RewriteRule for CopyPropagation {
    fn name(&self) -> &'static str {
        "copy-propagation"
    }

    fn apply(&self, program: &mut Program, _ctx: &RewriteCtx) -> usize {
        let mut applied = 0;
        let n_regs = program.bases().len();
        let mut copies = Copies {
            source_of: vec![None; n_regs],
            targets_of: vec![Vec::new(); n_regs],
        };
        let mut replacements: Vec<(usize, Reg)> = Vec::new();
        for idx in 0..program.instrs().len() {
            // 1. Rewrite this instruction's *input* full views through the
            //    copy map (output operands must keep their register).
            {
                let instr = &program.instrs()[idx];
                // System ops (BH_SYNC/BH_FREE) *name* a register rather than
                // reading its value; rewriting them would change which
                // register is observable. Every other op's operand 0 is the
                // output, which must also keep its register.
                let first_input = if matches!(instr.op.kind(), bh_ir::OpKind::System) {
                    instr.operands.len()
                } else {
                    1
                };
                for (k, o) in instr.operands.iter().enumerate().skip(first_input) {
                    if let Operand::View(v) = o {
                        if let Some(src) = copies.source_of[v.reg.index()] {
                            if v.is_syntactically_full() || program.is_full_view(v) {
                                replacements.push((k, src));
                            }
                        }
                    }
                }
            }
            if !replacements.is_empty() {
                applied += replacements.len();
                let instr = &mut program.instrs_mut()[idx];
                for (k, src) in replacements.drain(..) {
                    instr.operands[k] = Operand::View(ViewRef::full(src));
                }
            }

            // 2. Update the copy map with this instruction's effect.
            let instr = &program.instrs()[idx];
            // Any write invalidates copies involving the written register.
            if let Some(w) = instr.out_reg() {
                copies.invalidate(w);
            }
            // BH_FREE invalidates too: the source data is gone.
            if instr.op == Opcode::Free {
                if let Some(v) = instr.operands.first().and_then(|o| o.as_view()) {
                    copies.invalidate(v.reg);
                }
            }
            // Record fresh full-view same-dtype copies.
            if instr.op == Opcode::Identity {
                if let (Some(out), Some(input)) = (instr.out_view(), instr.inputs()[0].as_view()) {
                    let same_dtype = program.base(out.reg).dtype == program.base(input.reg).dtype;
                    let same_shape = program.base(out.reg).shape == program.base(input.reg).shape;
                    if out.reg != input.reg
                        && same_dtype
                        && same_shape
                        && program.is_full_view(out)
                        && program.is_full_view(input)
                    {
                        copies.record(out.reg, input.reg);
                    }
                }
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::{parse_program, PrintStyle};

    fn run(text: &str) -> (Program, usize) {
        let mut p = parse_program(text).unwrap();
        let n = CopyPropagation.apply(&mut p, &RewriteCtx::default());
        (p, n)
    }

    #[test]
    fn reads_route_around_the_copy() {
        let (p, n) = run("BH_IDENTITY a [0:4:1] 5\n\
             BH_IDENTITY b [0:4:1] a\n\
             BH_ADD c [0:4:1] b b\n\
             BH_SYNC c\n");
        assert_eq!(n, 2);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_ADD c a a"), "{text}");
    }

    #[test]
    fn write_to_source_invalidates() {
        let (p, n) = run("BH_IDENTITY a [0:4:1] 5\n\
             BH_IDENTITY b [0:4:1] a\n\
             BH_IDENTITY a [0:4:1] 9\n\
             BH_ADD c [0:4:1] b b\n\
             BH_SYNC c\n");
        assert_eq!(n, 0);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_ADD c b b"));
    }

    #[test]
    fn write_to_target_invalidates() {
        let (_, n) = run("BH_IDENTITY a [0:4:1] 5\n\
             BH_IDENTITY b [0:4:1] a\n\
             BH_ADD b [0:4:1] b 1\n\
             BH_ADD c [0:4:1] b b\n\
             BH_SYNC c\n");
        // The read inside `b = b + 1` is rewritten to `a` (valid: it reads
        // the copied value), but after that write, b's uses stay.
        assert_eq!(n, 1);
    }

    #[test]
    fn sliced_reads_not_propagated() {
        let (p, n) = run("BH_IDENTITY a [0:8:1] 5\n\
             BH_IDENTITY b [0:8:1] a\n\
             BH_ADD c [0:4:1] b [0:4:1] b [4:8:1]\n\
             BH_SYNC c\n");
        assert_eq!(n, 0);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_ADD c b"));
    }

    #[test]
    fn cast_copies_not_propagated() {
        let (_, n) = run(".base a f64[4]\n.base b i32[4]\n.base c i32[4]\n\
             BH_IDENTITY a 5\n\
             BH_IDENTITY b a\n\
             BH_ADD c b b\n\
             BH_SYNC c\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn free_invalidates_source() {
        let (p, n) = run("BH_IDENTITY a [0:4:1] 5\n\
             BH_IDENTITY b [0:4:1] a\n\
             BH_FREE a\n\
             BH_ADD c [0:4:1] b b\n\
             BH_SYNC c\n");
        assert_eq!(n, 0);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_ADD c b b"));
    }

    #[test]
    fn chains_of_copies_propagate_transitively() {
        let (p, _) = run("BH_IDENTITY a [0:4:1] 5\n\
             BH_IDENTITY b [0:4:1] a\n\
             BH_IDENTITY c [0:4:1] b\n\
             BH_ADD d [0:4:1] c c\n\
             BH_SYNC d\n");
        // c's copy source is rewritten to a, then d's reads chase to a.
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_IDENTITY c a"), "{text}");
        assert!(text.contains("BH_ADD d a a"), "{text}");
    }
}
