//! Constant merging: the paper's Listing 2 → Listing 3 transformation.
//!
//! ```text
//! BH_ADD a0 a0 1        BH_ADD a0 a0 3
//! BH_ADD a0 a0 1   ⇒    (the two other adds removed)
//! BH_ADD a0 a0 1
//! ```
//!
//! "the constants of the three byte-codes can be merged into one by simply
//! adding them together" (§3.1). Generalised here to every associative
//! op-code with a constant operand (`x·c₁·c₂ → x·(c₁c₂)`, min/max chains,
//! bitwise chains), plus the `Subtract`/`Divide` right-constant chains
//! (`(x−c₁)−c₂ → x−(c₁+c₂)`).

use crate::fold::const_eval;
use crate::rule::{reassoc_allowed, RewriteCtx, RewriteRule};
use bh_ir::{Instruction, Opcode, Operand, Program, Reg};
use bh_tensor::Scalar;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// See the module documentation.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConstantMerge;

/// What the pass knows about the program as it stands after the merges
/// made so far. The per-register entries describe the scanned prefix;
/// the per-instruction entries are filled when the scan reaches an
/// instruction and kept current by [`Chains::merged`], so a position
/// behind the scan can be judged again with the same facts the scan had.
///
/// For `j: r = r ⊕ c₂` the one candidate is `i = prev_def[j]`, the
/// nearest live write of `r` before it. That definition is *open* to `j`
/// exactly while
///
/// * nothing reads `r` strictly between them (`read_since_def[j]`) — a
///   read in between observes the intermediate value. No merge moves a
///   read into or out of such an interval, so this is decided once;
/// * nothing writes `r` between them, which holds by construction: the
///   live writes of a register form a chain and `i` is `j`'s predecessor;
/// * no live write of `i`'s source register lies between them — the
///   merged instruction reads the source at `j`, later than `i` did. The
///   first live write of the source after `i` is the successor of the
///   write that reached `i` (`src_reach[i]`), so this is one lookup. It
///   is the only condition a later merge can lift, by absorbing that
///   write forward past `j`.
struct Chains {
    regs: Vec<RegTrail>,
    instrs: Vec<Link>,
}

/// Per register, over the scanned prefix.
#[derive(Clone, Default)]
struct RegTrail {
    /// Latest scanned instruction that writes / reads the register
    /// (system ops read their target).
    last_def: Option<usize>,
    last_read: Option<usize>,
    /// The register's first live write.
    first_def: Option<usize>,
}

/// Per instruction.
#[derive(Clone, Copy, Default)]
struct Link {
    /// Its neighbours in the chain of live writes of its output register.
    prev_def: Option<usize>,
    next_def: Option<usize>,
    /// Is its output register read strictly between `prev_def` and it?
    read_since_def: bool,
    /// The live write of its first view input's register that reaches it
    /// (`None`: the register's initial value does).
    src_reach: Option<usize>,
}

impl Chains {
    fn new(n_regs: usize, n_instrs: usize) -> Chains {
        Chains {
            regs: vec![RegTrail::default(); n_regs],
            instrs: vec![Link::default(); n_instrs],
        }
    }

    /// Advance the scan over the instruction at `idx`.
    fn scan(&mut self, idx: usize, instr: &Instruction) {
        let out = instr.out_reg();
        if let Some(r) = out {
            let trail = &self.regs[r.index()];
            let prev = trail.last_def;
            self.instrs[idx].prev_def = prev;
            self.instrs[idx].read_since_def = prev.is_some() && trail.last_read > prev;
            self.link(r, prev, idx);
        }
        if let Some(s) = instr.input_regs().next() {
            self.instrs[idx].src_reach = self.regs[s.index()].last_def;
        }
        for r in instr.input_regs() {
            self.regs[r.index()].last_read = Some(idx);
        }
        if let Some(r) = out {
            self.regs[r.index()].last_def = Some(idx);
        }
    }

    /// Make `next` the live write of `r` that follows `prev`.
    fn link(&mut self, r: Reg, prev: Option<usize>, next: usize) {
        match prev {
            Some(p) => self.instrs[p].next_def = Some(next),
            None => self.regs[r.index()].first_def = Some(next),
        }
    }

    /// First live write of `reg` after `i`, which reads it.
    fn next_write_of_source(&self, reg: Reg, i: usize) -> Option<usize> {
        match self.instrs[i].src_reach {
            Some(d) => self.instrs[d].next_def,
            None => self.regs[reg.index()].first_def,
        }
    }

    /// `j` absorbed `i`, the write of `r` before it: `i` leaves the chain
    /// and `j` takes over what was known of it — what lies before it, and
    /// its read of `src`, which no write separates from `j`.
    fn merged(&mut self, r: Reg, src: Reg, i: usize, j: usize) {
        self.instrs[j] = Link {
            next_def: self.instrs[j].next_def,
            ..self.instrs[i]
        };
        self.link(r, self.instrs[j].prev_def, j);
        let read = &mut self.regs[src.index()].last_read;
        *read = (*read).max(Some(j));
    }
}

/// What judging a position found, when the instruction and the
/// definition before it match at all.
enum Attempt {
    /// Fold into the definition at this index, with this constant.
    Merge(usize, Scalar),
    /// This live write of the definition's source register lies in
    /// between.
    Blocked(usize),
}

impl RewriteRule for ConstantMerge {
    fn name(&self) -> &'static str {
        "constant-merge"
    }

    fn apply(&self, program: &mut Program, ctx: &RewriteCtx) -> usize {
        let n = program.instrs().len();
        let mut chains = Chains::new(program.bases().len(), n);
        // Positions behind the scan to judge again, and the blocked ones
        // keyed by the write that blocks them. The merge performed is
        // always the one at the smallest position that has one — the order
        // in which constants fold along a chain, which floats can tell.
        let mut retry = BinaryHeap::new();
        let mut blocked_by: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut scanned = 0;
        let mut applied = 0;
        loop {
            let j = match retry.pop() {
                Some(Reverse(j)) => j,
                None if scanned < n => {
                    chains.scan(scanned, &program.instrs()[scanned]);
                    scanned += 1;
                    scanned - 1
                }
                None => break,
            };
            let (i, merged) = match try_merge_at(program, &chains, ctx, j) {
                Some(Attempt::Merge(i, merged)) => (i, merged),
                Some(Attempt::Blocked(write)) => {
                    blocked_by.entry(write).or_default().push(j);
                    continue;
                }
                None => continue,
            };
            // i: r = src ⊕ c1   (dropped)
            // j: r = r ⊕ c2     (becomes r = src ⊕ merged)
            let src = program.instrs()[i].inputs()[src_index(&program.instrs()[i])].clone();
            let instr_j = &mut program.instrs_mut()[j];
            let r = instr_j.out_reg().expect("binary ops have outputs");
            chains.merged(r, src.reg().expect("the other input is a view"), i, j);
            let const_pos = 1 + instr_j
                .sole_const_input()
                .expect("matched pattern has a constant")
                .0;
            let view_pos = if const_pos == 1 { 2 } else { 1 };
            instr_j.operands[view_pos] = src;
            instr_j.operands[const_pos] = Operand::Const(merged);
            program.instrs_mut()[i] = Instruction::noop();
            applied += 1;
            // The write at `i` is gone: whatever it blocked is open again
            // or blocked by a later write, and `j` now faces the
            // definition before `i`.
            if !blocked_by.is_empty() {
                retry.extend(blocked_by.remove(&i).into_iter().flatten().map(Reverse));
            }
            retry.push(Reverse(j));
        }
        applied
    }
}

/// Index (within `inputs()`) of the non-constant operand of a matched
/// first instruction.
fn src_index(instr: &Instruction) -> usize {
    let (const_pos, _) = instr.sole_const_input().expect("matched pattern");
    1 - const_pos
}

/// Judge whether the instruction at `j` can absorb the constant of the
/// live definition of its register before it. `None` is final: no other
/// merge can change it.
fn try_merge_at(program: &Program, chains: &Chains, ctx: &RewriteCtx, j: usize) -> Option<Attempt> {
    let instrs = program.instrs();
    let b = &instrs[j];
    if !mergeable_shape(b) {
        return None;
    }
    let out_b = b.out_view().expect("binary ops have outputs");
    let (cb_pos, cb) = b.sole_const_input().expect("mergeable_shape checked");
    // The non-const input must read the same view the instruction writes
    // (r = r ⊕ c), anchoring the chain on register r.
    let vb = b.inputs()[1 - cb_pos].as_view()?;
    if !program.same_elements(out_b, vb) || !const_position_ok(b.op, cb_pos) {
        return None;
    }
    let dtype = program.base(out_b.reg).dtype;
    if !reassoc_allowed(ctx, dtype) {
        return None;
    }
    // Nearest earlier definition of r.
    let i = chains.instrs[j].prev_def?;
    let a = &instrs[i];
    if a.op != b.op || !mergeable_shape(a) {
        return None;
    }
    let out_a = a.out_view().expect("binary ops have outputs");
    if !program.same_elements(out_a, out_b) {
        return None;
    }
    let (ca_pos, ca) = a.sole_const_input().expect("mergeable_shape checked");
    if !const_position_ok(a.op, ca_pos) {
        return None;
    }
    // Nothing may observe r strictly between i and j.
    if chains.instrs[j].read_since_def {
        return None;
    }
    // Fold: for Add/Mul chains the constants combine with the same op; for
    // Subtract/Divide right-chains they combine with Add/Mul. Bool
    // subtract is XOR — its own inverse — so the chain folds with XOR
    // itself, never with Add (which is OR on bool).
    let fold_op = match a.op {
        Opcode::Subtract if dtype == bh_tensor::DType::Bool => Opcode::Subtract,
        Opcode::Subtract => Opcode::Add,
        Opcode::Divide => Opcode::Multiply,
        op => op,
    };
    let merged = const_eval(fold_op, ca, cb, dtype)?;
    // The source operand of i must not be redefined in between. (When it
    // is r itself, i and j are neighbours in r's chain.)
    let src = a.inputs()[1 - ca_pos].as_view()?;
    if src.reg != out_b.reg {
        if let Some(write) = chains.next_write_of_source(src.reg, i) {
            if write < j {
                return Some(Attempt::Blocked(write));
            }
        }
    }
    Some(Attempt::Merge(i, merged))
}

/// Binary element-wise with exactly one constant input and an associative
/// (or right-chainable) op.
fn mergeable_shape(instr: &Instruction) -> bool {
    let op_ok = instr.op.is_associative() || matches!(instr.op, Opcode::Subtract | Opcode::Divide);
    op_ok
        && instr.op.is_elementwise()
        && instr.op.arity() == 2
        && instr.sole_const_input().is_some()
}

/// For non-commutative chain ops the constant must be the right operand.
fn const_position_ok(op: Opcode, const_input_index: usize) -> bool {
    if matches!(op, Opcode::Subtract | Opcode::Divide) {
        const_input_index == 1
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::{parse_program, PrintStyle};

    fn optimize_text(text: &str, ctx: &RewriteCtx) -> (Program, usize) {
        let mut p = parse_program(text).unwrap();
        let n = ConstantMerge.apply(&mut p, ctx);
        p.compact();
        (p, n)
    }

    const LISTING2: &str = "\
BH_IDENTITY a0 [0:10:1] 0
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_SYNC a0 [0:10:1]
";

    #[test]
    fn listing2_becomes_listing3() {
        let (p, n) = optimize_text(LISTING2, &RewriteCtx::default());
        assert_eq!(n, 2);
        assert_eq!(p.count_op(Opcode::Add), 1);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_ADD a0 a0 3"), "{text}");
    }

    #[test]
    fn strict_ieee_blocks_float_merge_but_not_int() {
        let strict = RewriteCtx {
            fast_math: false,
            ..RewriteCtx::default()
        };
        let (_, n) = optimize_text(LISTING2, &strict); // f64 adds
        assert_eq!(n, 0);
        let (p, n) = optimize_text(
            ".base a0 i64[10]\n\
             BH_IDENTITY a0 0\nBH_ADD a0 a0 1\nBH_ADD a0 a0 1\nBH_SYNC a0\n",
            &strict,
        );
        assert_eq!(n, 1);
        assert_eq!(p.count_op(Opcode::Add), 1);
    }

    #[test]
    fn multiply_chain_merges() {
        let (p, n) = optimize_text(
            "BH_IDENTITY a0 [0:4:1] 1\n\
             BH_MULTIPLY a0 a0 2\nBH_MULTIPLY a0 a0 3\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        assert!(p
            .to_text(PrintStyle::COMPACT)
            .contains("BH_MULTIPLY a0 a0 6"));
    }

    #[test]
    fn subtract_chain_adds_constants() {
        let (p, _) = optimize_text(
            "BH_IDENTITY a0 [0:4:1] 10\n\
             BH_SUBTRACT a0 a0 2\nBH_SUBTRACT a0 a0 3\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert!(p
            .to_text(PrintStyle::COMPACT)
            .contains("BH_SUBTRACT a0 a0 5"));
    }

    #[test]
    fn left_constant_subtract_is_not_merged() {
        // c - (c - x) is not (c1+c2) - x; the rule must skip it.
        let (p, n) = optimize_text(
            "BH_IDENTITY a0 [0:4:1] 1\n\
             BH_SUBTRACT a0 10 a0\nBH_SUBTRACT a0 20 a0\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0);
        assert_eq!(p.count_op(Opcode::Subtract), 2);
    }

    #[test]
    fn intervening_read_blocks_merge() {
        let (p, n) = optimize_text(
            "BH_IDENTITY a0 [0:4:1] 0\n\
             BH_IDENTITY b0 [0:4:1] 0\n\
             BH_ADD a0 a0 1\n\
             BH_ADD b0 b0 a0\n\
             BH_ADD a0 a0 1\n\
             BH_SYNC a0\nBH_SYNC b0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0);
        assert_eq!(p.count_op(Opcode::Add), 3);
    }

    #[test]
    fn rewritten_source_closes_the_definition() {
        // a0 = b0 + 1 may not absorb a later a0 += 2 across a write to b0:
        // the merged add would read the *new* b0.
        let (p, n) = optimize_text(
            "BH_IDENTITY b0 [0:4:1] 7\n\
             BH_ADD a0 [0:4:1] b0 1\n\
             BH_IDENTITY b0 9\n\
             BH_ADD a0 a0 2\n\
             BH_SYNC a0\nBH_SYNC b0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0);
        assert_eq!(p.count_op(Opcode::Add), 2);
    }

    #[test]
    fn cross_register_source_is_carried_along_the_chain() {
        let (p, n) = optimize_text(
            "BH_IDENTITY b0 [0:4:1] 7\n\
             BH_ADD a0 [0:4:1] b0 1\nBH_ADD a0 a0 2\nBH_ADD a0 a0 3\n\
             BH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 2);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_ADD a0 b0 6"));
    }

    #[test]
    fn a_source_write_absorbed_later_reopens_the_definition() {
        // When the scan reaches `a0 += 2`, `b0 = max(b0, 3)` stands
        // between it and `a0 = b0 + 1`. Once the later `max(b0, 1)`
        // absorbs that write, nothing does, and the adds merge in the same
        // application — as if the scan had started over.
        let (p, n) = optimize_text(
            "BH_IDENTITY b0 [0:4:1] 7\n\
             BH_ADD a0 [0:4:1] b0 1\n\
             BH_MAXIMUM b0 b0 3\n\
             BH_ADD a0 a0 2\n\
             BH_MAXIMUM b0 b0 1\n\
             BH_SYNC a0\nBH_SYNC b0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 2);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_ADD a0 b0 3"), "{text}");
        assert!(text.contains("BH_MAXIMUM b0 b0 3"), "{text}");
    }

    #[test]
    fn a_reopened_position_merges_before_the_scan_moves_on() {
        // `a0 += 2` (position 3) is re-opened when position 4 absorbs the
        // write of b0, and merges into `a0 = b0 + 1` there and then. The
        // last add therefore meets `a0 = b0 + 3` with the new write of b0
        // in between and stays; had it been judged first it would have
        // folded into `a0 += 2` instead.
        let (p, n) = optimize_text(
            "BH_IDENTITY b0 [0:4:1] 7\n\
             BH_ADD a0 [0:4:1] b0 1\n\
             BH_MAXIMUM b0 b0 3\n\
             BH_ADD a0 a0 2\n\
             BH_MAXIMUM b0 b0 1\n\
             BH_ADD a0 a0 4\n\
             BH_SYNC a0\nBH_SYNC b0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 2);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_ADD a0 b0 3.0\n"), "{text}");
        assert!(text.contains("BH_ADD a0 a0 4\n"), "{text}");
    }

    #[test]
    fn mixed_ops_do_not_merge() {
        let (p, n) = optimize_text(
            "BH_IDENTITY a0 [0:4:1] 1\n\
             BH_ADD a0 a0 1\nBH_MULTIPLY a0 a0 2\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0);
        assert_eq!(p.instrs().len(), 4);
    }

    #[test]
    fn different_views_do_not_merge() {
        let (_, n) = optimize_text(
            "BH_IDENTITY a0 [0:8:1] 0\n\
             BH_ADD a0 [0:4:1] a0 [0:4:1] 1\n\
             BH_ADD a0 [4:8:1] a0 [4:8:1] 1\n\
             BH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn long_chain_folds_completely() {
        let mut text = String::from("BH_IDENTITY a0 [0:4:1] 0\n");
        for _ in 0..8 {
            text.push_str("BH_ADD a0 a0 1\n");
        }
        text.push_str("BH_SYNC a0\n");
        let (p, n) = optimize_text(&text, &RewriteCtx::default());
        assert_eq!(n, 7);
        assert_eq!(p.count_op(Opcode::Add), 1);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_ADD a0 a0 8"));
    }

    #[test]
    fn commutative_constant_on_either_side() {
        let (p, n) = optimize_text(
            "BH_IDENTITY a0 [0:4:1] 0\n\
             BH_ADD a0 1 a0\nBH_ADD a0 a0 2\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        assert_eq!(p.count_op(Opcode::Add), 1);
        assert!(p.to_text(PrintStyle::COMPACT).contains('3'));
    }

    #[test]
    fn bool_subtract_chain_folds_with_xor() {
        // Bool subtract is XOR: (x ⊻ t) ⊻ t is x, so the merged constant
        // must be t ⊻ t = false — folding with Add (OR on bool) gave ¬x.
        let (p, n) = optimize_text(
            ".base a0 bool[4]\n\
             BH_IDENTITY a0 true\n\
             BH_SUBTRACT a0 a0 true\nBH_SUBTRACT a0 a0 true\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        assert!(
            p.to_text(PrintStyle::COMPACT)
                .contains("BH_SUBTRACT a0 a0 false"),
            "{}",
            p.to_text(PrintStyle::COMPACT)
        );
    }

    #[test]
    fn uint8_wraps_during_fold() {
        let (p, _) = optimize_text(
            ".base a0 u8[4]\n\
             BH_IDENTITY a0 0\nBH_ADD a0 a0 200\nBH_ADD a0 a0 100\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_ADD a0 a0 44"));
    }
}
