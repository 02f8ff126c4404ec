//! Copy propagation: route reads around `BH_IDENTITY` copies and fills.
//!
//! After `BH_IDENTITY b a`, reads of `b` can read `a` directly (until
//! either register is rewritten). After a full-view `BH_IDENTITY u c`,
//! every element of `u` is `c`: an element-wise binary op reading `u`
//! becomes what `c` contracts it to, a copy or a fill, exactly as
//! [`crate::rules::AlgebraicSimplify`] would contract it with `c` written
//! in (`a + t` after `t = a − a` became `t = 0` is `a + 0`: nothing).
//! The copy or fill itself then becomes dead and falls to
//! [`crate::rules::DeadCodeElimination`].

use crate::rule::{RewriteCtx, RewriteRule};
use crate::rules::identity::contract;
use bh_ir::{Instruction, OpKind, Opcode, Operand, Program, Reg, ViewRef};
use bh_tensor::Scalar;

/// See the module documentation.
#[derive(Debug, Default, Clone, Copy)]
pub struct CopyPropagation;

/// The still-valid full copies and fills at the scan position.
/// Invariants: `source_of[b] = Some(a)` iff a `BH_IDENTITY b a` (full
/// views, same dtype and shape) was seen and neither `a` nor `b` has been
/// written or freed since; `fill_of[u] = Some(c)` iff a full-view
/// `BH_IDENTITY u c` was seen and `u` has not been written or freed
/// since (`c` already cast to `u`'s dtype).
struct Copies {
    /// target reg -> source reg
    source_of: Vec<Option<Reg>>,
    /// source reg -> targets recorded against it; may name targets whose
    /// copy has since been dropped or re-pointed, so readers re-check
    /// `source_of`.
    targets_of: Vec<Vec<Reg>>,
    /// reg -> the constant every element holds
    fill_of: Vec<Option<Scalar>>,
}

impl Copies {
    fn record(&mut self, target: Reg, source: Reg) {
        self.source_of[target.index()] = Some(source);
        self.targets_of[source.index()].push(target);
    }

    /// Drop every copy that involves `reg`, as target or as source, and
    /// its fill.
    fn invalidate(&mut self, reg: Reg) {
        self.source_of[reg.index()] = None;
        self.fill_of[reg.index()] = None;
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

    fn apply(&self, program: &mut Program, ctx: &RewriteCtx) -> usize {
        let mut applied = 0;
        let n_regs = program.bases().len();
        let mut copies = Copies {
            source_of: vec![None; n_regs],
            targets_of: vec![Vec::new(); n_regs],
            fill_of: vec![None; n_regs],
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
            if let Some(contracted) =
                contract_uniform(program, &copies, &program.instrs()[idx], ctx)
            {
                applied += 1;
                program.instrs_mut()[idx] = contracted;
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
            // Record fresh full-view fills and same-dtype copies.
            if instr.op == Opcode::Identity {
                if let (Some(out), Some(c)) = (instr.out_view(), instr.inputs()[0].as_const()) {
                    if program.is_full_view(out) {
                        copies.fill_of[out.reg.index()] = Some(c.cast(program.base(out.reg).dtype));
                    }
                }
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

/// What an element-wise binary `instr` contracts to when one input reads
/// a filled register and the other a view of an unfilled one of the same
/// dtype. Anywhere the fill's constant contracts nothing it would only
/// replace a view, so the instruction is left alone. The dtype check
/// keeps the constant bound in the dtype it was filled in.
fn contract_uniform(
    program: &Program,
    copies: &Copies,
    instr: &Instruction,
    ctx: &RewriteCtx,
) -> Option<Instruction> {
    if instr.op.kind() != OpKind::ElementwiseBinary {
        return None;
    }
    let inputs = instr.inputs();
    let (a, b) = (inputs.first()?.as_view()?, inputs.get(1)?.as_view()?);
    let fill = |v: &ViewRef| copies.fill_of[v.reg.index()];
    let (k, c, other) = match (fill(a), fill(b)) {
        (Some(c), None) => (0, c, b),
        (None, Some(c)) => (1, c, a),
        _ => return None,
    };
    if program.base(other.reg).dtype != c.dtype() {
        return None;
    }
    contract(program, instr, &inputs[1 - k], k, c, ctx)
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
    fn fills_propagate_where_they_contract_the_read() {
        let (p, n) = run(".base x f64[4] input\n.base t f64[4]\n.base a f64[4]\n\
             BH_IDENTITY t 0\nBH_ADD a x t\nBH_MULTIPLY a a t\nBH_SYNC a\n");
        // Two contractions, and the multiply's read of `a` routed to `x`.
        assert_eq!(n, 3);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(
            text.contains("BH_IDENTITY a x\nBH_IDENTITY a 0.0\n"),
            "{text}"
        );
        // 4 contracts nothing, and `t − x` is no copy of x.
        let (_, n) = run(".base x f64[4] input\n.base t f64[4]\n.base a f64[4]\n\
             BH_IDENTITY t 4\nBH_ADD a x t\nBH_IDENTITY t 0\nBH_SUBTRACT a t x\nBH_SYNC a\n");
        assert_eq!(n, 0);
        // Under strict math `x + 0.0` is no copy of x (−0.0 + 0.0 is +0.0).
        let mut p = parse_program(
            ".base x f64[4] input\n.base t f64[4]\n.base a f64[4]\n\
             BH_IDENTITY t 0\nBH_ADD a x t\nBH_SYNC a\n",
        )
        .unwrap();
        let strict = RewriteCtx {
            fast_math: false,
            ..RewriteCtx::default()
        };
        assert_eq!(CopyPropagation.apply(&mut p, &strict), 0);
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
