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
//! (`(x−c₁)−c₂ → x−(c₁+c₂)`), and to *affine runs*: adds, subtracts of a
//! constant, multiplies and float divides by ±2ᵏ on one register, in any
//! order, compute `α·x + β` and fold to at most `r = x·α; r = r + β`.
//!
//! ```text
//! BH_MULTIPLY a x 2
//! BH_ADD a a 3          BH_MULTIPLY a x 0.5
//! BH_DIVIDE a a 4   ⇒   BH_ADD a a 1.75
//! BH_ADD a a 1
//! ```

use crate::fold::const_eval;
use crate::rule::{reassoc_allowed, RewriteCtx, RewriteRule};
use bh_ir::{Instruction, OpKind, Opcode, Operand, Program, Reg, ViewRef};
use bh_tensor::{DType, Scalar};
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
/// For `j: r = r ⊕ c₂` the candidate is `i = prev_def[j]`, the nearest
/// live write of `r` before it (for a fold of three, also
/// `p = prev_def[i]`, see [`fold3`]). That definition is *open* to `j`
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

/// One step of an affine run, read as what it does to the value.
#[derive(Clone, Copy)]
enum Affine {
    /// `r = src·α`: a multiply, or a float divide by ±2ᵏ (whose reciprocal
    /// is exact).
    Scale(Scalar),
    /// `r = src + β`: an add, or a subtract of a constant (whose negation
    /// is exact).
    Shift(Scalar),
}

/// What judging a position found, when the instruction and the
/// definitions before it match at all.
enum Attempt {
    /// Fold the definition at this index, `r = src ⊕ …`, into the
    /// position, which becomes `r = src ⊕ c` with this op-code.
    Merge(usize, Opcode, Scalar, ViewRef),
    /// The definitions `p` and `q` before the position are, with it, a
    /// scale between two shifts or a shift between two scales: `p` becomes
    /// `r = src·alpha`, `q` is dropped and the position `r = r + beta`.
    Fold3 {
        p: usize,
        q: usize,
        alpha: Scalar,
        beta: Scalar,
    },
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
            let Some(attempt) = try_merge_at(program, &chains, ctx, j) else {
                continue;
            };
            let r = program.instrs()[j]
                .out_reg()
                .expect("binary ops have outputs");
            let dropped = match attempt {
                Attempt::Blocked(write) => {
                    blocked_by.entry(write).or_default().push(j);
                    continue;
                }
                // i: r = src ⊕ c1   (dropped)
                // j: r = r ⊕ c2     (becomes r = src ⊕ merged)
                Attempt::Merge(i, op, merged, src) => {
                    chains.merged(r, src.reg, i, j);
                    rewrite(&mut program.instrs_mut()[j], op, Some(src), merged);
                    i
                }
                // p: r = src ⊕ c1   (becomes r = src·alpha)
                // q: r = r ⊕ c2     (dropped)
                // j: r = r ⊕ c3     (becomes r = r + beta)
                Attempt::Fold3 { p, q, alpha, beta } => {
                    chains.merged(r, r, q, j);
                    rewrite(&mut program.instrs_mut()[p], Opcode::Multiply, None, alpha);
                    rewrite(&mut program.instrs_mut()[j], Opcode::Add, None, beta);
                    retry.push(Reverse(p));
                    q
                }
            };
            program.instrs_mut()[dropped] = Instruction::noop();
            applied += 1;
            // The write at `dropped` is gone: whatever it blocked is open
            // again or blocked by a later write, `j` now faces the
            // definition before it, and a scanned successor of `j` faces a
            // changed instruction.
            if !blocked_by.is_empty() {
                retry.extend(
                    blocked_by
                        .remove(&dropped)
                        .into_iter()
                        .flatten()
                        .map(Reverse),
                );
            }
            retry.push(Reverse(j));
            if let Some(next) = chains.instrs[j].next_def.filter(|&k| k < scanned) {
                retry.push(Reverse(next));
            }
        }
        applied
    }
}

/// Make a matched `r = v ⊕ c` compute `op` with the constant `c`, reading
/// `src` instead of `v` when one is given.
fn rewrite(instr: &mut Instruction, op: Opcode, src: Option<ViewRef>, c: Scalar) {
    let const_pos = 1 + instr
        .sole_const_input()
        .expect("matched pattern has a constant")
        .0;
    if let Some(src) = src {
        let view_pos = if const_pos == 1 { 2 } else { 1 };
        instr.operands[view_pos] = Operand::View(src);
    }
    instr.op = op;
    instr.operands[const_pos] = Operand::Const(c);
}

/// Judge whether the instruction at `j` can absorb the constant of the
/// live definition of its register before it, or of the two before it.
/// `None` is final unless one of those definitions changes.
fn try_merge_at(program: &Program, chains: &Chains, ctx: &RewriteCtx, j: usize) -> Option<Attempt> {
    let instrs = program.instrs();
    let b = &instrs[j];
    let out_b = b.out_view()?;
    let dtype = program.base(out_b.reg).dtype;
    // The instruction reads the view it writes (r = r ⊕ c), anchoring the
    // chain on register r.
    let cb = in_place_const(program, b)?;
    if !reassoc_allowed(ctx, dtype) {
        return None;
    }
    // Nearest earlier definition of r; nothing may observe r strictly
    // between it and j.
    let i = chains.instrs[j].prev_def?;
    if chains.instrs[j].read_since_def {
        return None;
    }
    let a = &instrs[i];
    let (ca, src) = chain_link(program, a, out_b)?;
    let (op, merged) = if a.op == b.op {
        // Same op-code: for Add/Mul chains the constants combine with the
        // same op; for Subtract/Divide right-chains they combine with
        // Add/Mul. Bool subtract is XOR — its own inverse — so the chain
        // folds with XOR itself, never with Add (which is OR on bool).
        let fold_op = match a.op {
            Opcode::Subtract if dtype == DType::Bool => Opcode::Subtract,
            Opcode::Subtract => Opcode::Add,
            Opcode::Divide => Opcode::Multiply,
            op => op,
        };
        (b.op, const_eval(fold_op, ca, cb, dtype)?)
    } else {
        match (affine(a.op, ca, dtype)?, affine(b.op, cb, dtype)?) {
            (Affine::Shift(x), Affine::Shift(y)) => {
                (Opcode::Add, const_eval(Opcode::Add, x, y, dtype)?)
            }
            (Affine::Scale(x), Affine::Scale(y)) => {
                (Opcode::Multiply, const_eval(Opcode::Multiply, x, y, dtype)?)
            }
            // A shift and a scale: `i` must read r in place too.
            (mid, last) if program.same_elements(src, out_b) => {
                return fold3(program, chains, i, out_b, mid, last, dtype)
            }
            _ => return None,
        }
    };
    // The source operand of i must not be redefined in between. (When it
    // is r itself, i and j are neighbours in r's chain.)
    if src.reg != out_b.reg {
        if let Some(write) = chains.next_write_of_source(src.reg, i) {
            if write < j {
                return Some(Attempt::Blocked(write));
            }
        }
    }
    Some(Attempt::Merge(i, op, merged, src.clone()))
}

/// `q`, the definition before the judged position, and that position are
/// a shift and a scale, in either order, both `out = out ⊕ c`. With the
/// definition `p` before `q` they fold to a scale and a shift when the
/// three alternate:
///
/// * `p: ·α, q: +β, ·γ` → `p: ·αγ, +βγ`,
/// * `p: +β, q: ·γ, +δ` → `p: ·γ, +(βγ + δ)`.
///
/// `p` keeps its source and its place, so no write of that source can
/// lie in between; `q` and the judged position only read r.
fn fold3(
    program: &Program,
    chains: &Chains,
    q: usize,
    out: &ViewRef,
    mid: Affine,
    last: Affine,
    dtype: DType,
) -> Option<Attempt> {
    if chains.instrs[q].read_since_def {
        return None;
    }
    let p = chains.instrs[q].prev_def?;
    let (p_const, _) = chain_link(program, &program.instrs()[p], out)?;
    let first = affine(program.instrs()[p].op, p_const, dtype)?;
    let mul = |x, y| const_eval(Opcode::Multiply, x, y, dtype);
    let (alpha, beta) = match (first, mid, last) {
        (Affine::Scale(a), Affine::Shift(b), Affine::Scale(c)) => (mul(a, c)?, mul(b, c)?),
        (Affine::Shift(b), Affine::Scale(c), Affine::Shift(d)) => {
            (c, const_eval(Opcode::Add, mul(b, c)?, d, dtype)?)
        }
        _ => return None,
    };
    yields_one_term(program, chains, p, first, dtype).then_some(Attempt::Fold3 {
        p,
        q,
        alpha,
        beta,
    })
}

/// The constant input of `instr` when it is `r = r ⊕ c` on one view, with
/// a chainable op-code.
fn in_place_const(program: &Program, instr: &Instruction) -> Option<Scalar> {
    let out = instr.out_view()?;
    let (c, src) = chain_link(program, instr, out)?;
    program.same_elements(src, out).then_some(c)
}

/// When `instr` writes exactly `out`'s elements as `src ⊕ c` — a binary
/// element-wise op-code that is associative, or a subtract or divide,
/// whose constant must then be on the right: the constant and `src`.
fn chain_link<'a>(
    program: &Program,
    instr: &'a Instruction,
    out: &ViewRef,
) -> Option<(Scalar, &'a ViewRef)> {
    let op = instr.op;
    let right_only = matches!(op, Opcode::Subtract | Opcode::Divide);
    if op.kind() != OpKind::ElementwiseBinary
        || !(op.is_associative() || right_only)
        || !program.same_elements(instr.out_view()?, out)
    {
        return None;
    }
    let (pos, c) = instr.sole_const_input()?;
    if right_only && pos != 1 {
        return None;
    }
    Some((c, instr.inputs().get(1 - pos)?.as_view()?))
}

/// The affine reading of a chainable `src ⊕ c` in `dtype` (never bool,
/// whose arithmetic is a lattice). [`chain_link`] has put the constant of
/// a subtract or divide on the right.
fn affine(op: Opcode, c: Scalar, dtype: DType) -> Option<Affine> {
    if dtype == DType::Bool {
        return None;
    }
    match op {
        Opcode::Add => Some(Affine::Shift(c)),
        Opcode::Subtract => {
            const_eval(Opcode::Subtract, Scalar::zero(dtype), c, dtype).map(Affine::Shift)
        }
        Opcode::Multiply => Some(Affine::Scale(c)),
        Opcode::Divide if dtype.is_float() => {
            let v = c.cast(dtype).as_f64();
            (v != 0.0 && v.abs().log2().fract() == 0.0)
                .then(|| Affine::Scale(Scalar::from_f64(1.0 / v, dtype)))
        }
        _ => None,
    }
}

/// Whether the value `p` writes is one term — never a sum of several —
/// in the auditor's normal form. `Lin1` (`bh_ir::equiv`) distributes a
/// scale over a sum only when the sum has one non-constant term, so a
/// fold that moves a scale in front of a shift is provable only then.
/// A scale by anything but 1 yields a product; otherwise it depends on
/// the write that reaches `p`'s source, judged by its op-code alone: a
/// fresh value, a fill, or an op-code that is not add or subtract and has
/// a constant it cannot be an identity for.
fn yields_one_term(
    program: &Program,
    chains: &Chains,
    p: usize,
    step: Affine,
    dtype: DType,
) -> bool {
    if let Affine::Scale(a) = step {
        if !a.cast(dtype).is_one() {
            return true;
        }
    }
    // No live write: an input's contents or a fresh zero fill.
    let Some(d) = chains.instrs[p].src_reach else {
        return true;
    };
    let def = &program.instrs()[d];
    match def.op.kind() {
        OpKind::Generator | OpKind::Reduction | OpKind::Scan | OpKind::LinAlg => true,
        OpKind::ElementwiseUnary => {
            def.op != Opcode::Identity || def.inputs().first().and_then(Operand::as_const).is_some()
        }
        OpKind::ElementwiseBinary => {
            let Some(out) = def.out_reg() else {
                return false;
            };
            let dtype = program.base(out).dtype;
            !matches!(def.op, Opcode::Add | Opcode::Subtract)
                && def
                    .sole_const_input()
                    .is_some_and(|(_, c)| def.op.identity_scalar(dtype) != Some(c.cast(dtype)))
        }
        OpKind::System => false,
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
    fn an_affine_run_folds_to_a_scale_and_a_shift() {
        // ((((x·2 + 3)/4 + 1) − 0.5)·2 = x + 2.5
        let (p, n) = optimize_text(
            ".base x f64[4] input\n.base a f64[4]\n\
             BH_MULTIPLY a x 2\nBH_ADD a a 3\nBH_DIVIDE a a 4\nBH_ADD a a 1\n\
             BH_SUBTRACT a a 0.5\nBH_MULTIPLY a a 2\nBH_SYNC a\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 4);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(
            text.contains("BH_MULTIPLY a x 1.0\nBH_ADD a a 2.5\n"),
            "{text}"
        );
    }

    #[test]
    fn shifts_and_scales_merge_across_op_codes() {
        let (p, n) = optimize_text(
            "BH_IDENTITY a0 [0:4:1] 1\n\
             BH_ADD a0 a0 1\nBH_SUBTRACT a0 a0 3\nBH_SYNC a0\n\
             BH_MULTIPLY a0 a0 3\nBH_DIVIDE a0 a0 4\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 2);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_ADD a0 a0 -2.0\n"), "{text}");
        assert!(text.contains("BH_MULTIPLY a0 a0 0.75\n"), "{text}");
    }

    #[test]
    fn integer_division_is_not_affine() {
        let (_, n) = optimize_text(
            ".base a0 i64[4]\nBH_IDENTITY a0 9\nBH_MULTIPLY a0 a0 2\nBH_DIVIDE a0 a0 4\n\
             BH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn a_sum_entering_a_run_keeps_its_shift_first() {
        // (x + y + 1)·2 + 3: the auditor does not distribute over a sum of
        // two terms, so the shift may not move behind the scale.
        let text = ".base x f64[4] input\n.base y f64[4] input\n.base a f64[4]\n\
             BH_ADD a x y\nBH_ADD a a 1\nBH_MULTIPLY a a 2\nBH_ADD a a 3\nBH_SYNC a\n";
        let (_, n) = optimize_text(text, &RewriteCtx::default());
        assert_eq!(n, 0);
        // Entered from a maximum instead, the same run folds.
        let (p, n) = optimize_text(
            &text.replace("BH_ADD a x y", "BH_MAXIMUM a x 1"),
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        assert!(p
            .to_text(PrintStyle::COMPACT)
            .contains("BH_MULTIPLY a a 2\nBH_ADD a a 5"));
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
