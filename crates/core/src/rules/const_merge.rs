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
//! op-code with a constant operand (min/max, bitwise and logical chains),
//! and to *affine runs*, read and composed by [`bh_ir::affine`] — the
//! algebra the auditor proves them in: adds, subtracts of or from a
//! constant, multiplies and float divides by ±2ᵏ, in any order, compute
//! `α·x + β` and fold to at most `r = x·α; r = r + β`. A float divide by
//! any other constant folds with divides and power-of-two scales only
//! (`x/4/3 → x/12`).
//!
//! ```text
//! BH_MULTIPLY a x 2
//! BH_ADD a a 3          BH_MULTIPLY a x 0.5
//! BH_DIVIDE a a 4   ⇒   BH_ADD a a 1.75
//! BH_ADD a a 1
//! ```
//!
//! A chain need not stay in one register. A link may read a *temporary*:
//! a full view of another register of the same dtype, not an input, whose
//! value the link alone reads and which is dead after it — freed, wholly
//! overwritten before any other read, or never synced. That is how a front
//! end records a nested expression, and the chain folds into its last
//! register; the temporaries are never written.
//!
//! ```text
//! BH_MULTIPLY a1 x 1.5
//! BH_ADD a2 a1 0.25          BH_MULTIPLY a4 x 0.75
//! BH_FREE a1                 BH_FREE a1
//! BH_MULTIPLY a3 a2 0.5  ⇒   BH_FREE a2
//! BH_FREE a2                 BH_ADD a4 a4 0.875
//! BH_ADD a4 a3 0.75          BH_FREE a3
//! BH_FREE a3
//! ```

use crate::rule::{reassoc_allowed, RewriteCtx, RewriteRule};
use bh_ir::affine::Affine;
use bh_ir::const_eval;
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
/// instruction and kept current as links merge, so a position behind the
/// scan can be judged again with the same facts the scan had.
///
/// A chain link `j: y = s ⊕ c` continues `i = src_reach[j]`, the live
/// write of `s` its read sees ([`Chains::pred`]). That value is *open* to
/// `j` exactly while
///
/// * nothing else observes it: in place (`s` is `y`) nothing reads `y`
///   strictly between `i` and `j` (`read_since_def[j]`); through a
///   temporary, `j` is its only reader and it is dead after `j`
///   (`sole_use[j]`). No merge moves a read into such an interval, so
///   this is decided once, and kept as links merge;
/// * no live write of `i`'s source register lies between them — the
///   merged instruction reads the source at `j`, later than `i` did. The
///   first live write of the source after `i` is the successor of the
///   write that reached `i` (`src_reach[i]`), so this is one lookup. It
///   is the only condition a later merge can lift, by absorbing that
///   write forward past `j`. A `BH_FREE` counts as a write: freed storage
///   reads back as zeros.
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
    /// Is it the only reader of the value `src_reach` wrote, which is dead
    /// after it? (Only an instruction that overwrites the whole register
    /// in place, or one whose source is no input and not live after it,
    /// can be.)
    sole_use: bool,
    /// Does nothing read what it writes? Dead-code elimination deletes
    /// such a write, so merging into it would be wasted.
    dead_store: bool,
}

impl Chains {
    /// Facts about `program` before the scan: which writes are dead, and
    /// `sole_use` as "the source register is dead after the instruction".
    fn new(program: &Program, ctx: &RewriteCtx) -> Chains {
        let mut instrs = vec![Link::default(); program.instrs().len()];
        let mut live = ctx.exit_liveness(program);
        for (link, instr) in instrs.iter_mut().zip(program.instrs()).rev() {
            link.dead_store = !live.write_is_live(instr);
            if let Some(s) = instr.input_regs().next() {
                link.sole_use = !live.is_live(s);
            }
            live.step_back(program, instr);
        }
        Chains {
            regs: vec![RegTrail::default(); program.bases().len()],
            instrs,
        }
    }

    /// Advance the scan over the instruction at `idx`.
    fn scan(&mut self, program: &Program, idx: usize) {
        let instr = &program.instrs()[idx];
        let out = def_reg(instr);
        if let Some(r) = out {
            let trail = &self.regs[r.index()];
            let prev = trail.last_def;
            self.instrs[idx].prev_def = prev;
            self.instrs[idx].read_since_def = prev.is_some() && trail.last_read > prev;
            self.link(r, prev, idx);
        }
        if let Some(s) = instr.input_regs().next() {
            let trail = &self.regs[s.index()];
            let link = &mut self.instrs[idx];
            link.src_reach = trail.last_def;
            link.sole_use = trail.last_def.is_some()
                && trail.last_read <= trail.last_def
                && !program.base(s).is_input
                && (link.sole_use
                    || out == Some(s) && instr.out_view().is_some_and(|v| program.is_full_view(v)));
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

    /// `k` no longer writes `s`: the live writes around it become
    /// neighbours, and whatever read `s` between them still counts.
    fn unlink(&mut self, s: Reg, k: usize, still_reads: bool) {
        let Link {
            prev_def,
            next_def,
            read_since_def,
            ..
        } = self.instrs[k];
        match next_def {
            Some(n) => {
                let next = &mut self.instrs[n];
                next.prev_def = prev_def;
                next.read_since_def |= read_since_def || still_reads;
            }
            None => self.regs[s.index()].last_def = prev_def,
        }
        match prev_def {
            Some(p) => self.instrs[p].next_def = next_def,
            None => self.regs[s.index()].first_def = next_def,
        }
    }

    /// First live write of `reg` after `i`, which reads it.
    fn next_write_of_source(&self, reg: Reg, i: usize) -> Option<usize> {
        match self.instrs[i].src_reach {
            Some(d) => self.instrs[d].next_def,
            None => self.regs[reg.index()].first_def,
        }
    }

    /// The write whose value the chain link `k: out = src ⊕ c` continues,
    /// when that value is open to it (see [`Chains`]): read in place, or
    /// through a temporary — a full view of a register of `out`'s dtype.
    fn pred(&self, program: &Program, k: usize, out: &ViewRef, src: &ViewRef) -> Option<usize> {
        let link = &self.instrs[k];
        let open = if program.same_elements(src, out) {
            !link.read_since_def
        } else {
            src.reg != out.reg
                && link.sole_use
                && !link.dead_store
                && program.is_full_view(src)
                && program.base(src.reg).dtype == program.base(out.reg).dtype
        };
        if open {
            link.src_reach
        } else {
            None
        }
    }

    /// `j`, writing `r`, absorbed `i`, the link before it that wrote `s`,
    /// and now reads `src`, what `i` read. In place (`s` is `r`) `j` takes
    /// over what was known of `i` — what lies before it, and its read of
    /// `src`, which no write separates from `j`. Through a temporary, `i`
    /// leaves `s`'s chain and `j` takes over its read of `src`: `i`'s
    /// source value now has `j` as its only reader if it had `i`, unless
    /// `i` itself was what made it dead.
    fn merged(&mut self, r: Reg, s: Reg, src: Reg, i: usize, j: usize) {
        let from = self.instrs[i];
        if s == r {
            self.instrs[j] = Link {
                next_def: self.instrs[j].next_def,
                dead_store: self.instrs[j].dead_store,
                ..from
            };
            self.link(r, from.prev_def, j);
        } else {
            self.unlink(s, i, false);
            let link = &mut self.instrs[j];
            link.sole_use = from.sole_use && (src != s || link.sole_use);
            link.src_reach = from.src_reach;
            if src == r {
                // `j` now updates `r` in place; `i` was the only reader
                // of the value it updates, if it was that value's only one.
                link.read_since_def &= !from.sole_use;
            }
        }
        self.read_at(src, j);
    }

    /// The link `p`, which wrote `s`, now writes `j`'s register `y`, and
    /// `j` updates `y` in place; nothing touched `y` between them.
    fn retargeted(&mut self, y: Reg, s: Reg, p: usize, j: usize, p_reads_s: bool) {
        self.unlink(s, p, p_reads_s);
        let before = self.instrs[j].prev_def;
        self.link(y, before, p);
        let link = &mut self.instrs[p];
        link.prev_def = before;
        link.next_def = Some(j);
        link.read_since_def = false;
        self.continues_in_place(y, p, j);
    }

    /// `j` now updates `y` in place, right after `p` wrote it.
    fn continues_in_place(&mut self, y: Reg, p: usize, j: usize) {
        let link = &mut self.instrs[j];
        link.prev_def = Some(p);
        link.read_since_def = false;
        link.src_reach = Some(p);
        link.sole_use = true;
        self.read_at(y, j);
    }

    fn read_at(&mut self, reg: Reg, j: usize) {
        let read = &mut self.regs[reg.index()].last_read;
        *read = (*read).max(Some(j));
    }

    /// Whether `p` may write `y` for the fold at `j`: no live write of `y`
    /// lies between them but `q`'s, and — unless `p` already writes `y` —
    /// nothing reads `y` there. (When `p` writes `y`, only `q`, which the
    /// fold drops, reads it: the links are open.)
    fn clear_for(&self, p_writes_y: bool, p: usize, q: usize, j: usize) -> bool {
        let (before, read) = match self.instrs[j].prev_def {
            Some(d) if d == q => (
                self.instrs[q].prev_def,
                self.instrs[q].read_since_def || self.instrs[j].read_since_def,
            ),
            d => (d, self.instrs[j].read_since_def),
        };
        if p_writes_y {
            before == Some(p)
        } else {
            before < Some(p) && !read
        }
    }
}

/// The register whose value the instruction replaces: its output, or the
/// target of a `BH_FREE`.
fn def_reg(instr: &Instruction) -> Option<Reg> {
    match instr.op {
        Opcode::Free => instr.input_regs().next(),
        _ => instr.out_reg(),
    }
}

/// What judging a position found, when the instruction and the
/// definitions before it match at all.
enum Attempt {
    /// Fold the link at this index, `s = src ⊕ …`, into the position,
    /// which becomes the link `(op-code, constant position, constant)`
    /// reading `src`.
    Merge(usize, (Opcode, usize, Scalar), ViewRef),
    /// The links `p` and `q` before the position compose with it to
    /// `v·alpha + beta`: `p` becomes `r = src·alpha`, `q` is dropped and
    /// the position `r = r + beta`.
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
        let mut chains = Chains::new(program, ctx);
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
                    chains.scan(program, scanned);
                    scanned += 1;
                    scanned - 1
                }
                None => break,
            };
            let Some(attempt) = try_merge_at(program, &chains, ctx, j) else {
                continue;
            };
            let out = program.instrs()[j]
                .out_view()
                .cloned()
                .expect("binary ops have outputs");
            let r = out.reg;
            let written = |program: &Program, k: usize| {
                program.instrs()[k].out_reg().expect("links have outputs")
            };
            // A write of a register that no longer happens: whatever it
            // blocked is open again or blocked by a later write.
            let mut reopen = |k: usize, retry: &mut BinaryHeap<_>| {
                if !blocked_by.is_empty() {
                    retry.extend(blocked_by.remove(&k).into_iter().flatten().map(Reverse));
                }
            };
            let dropped = match attempt {
                Attempt::Blocked(write) => {
                    blocked_by.entry(write).or_default().push(j);
                    continue;
                }
                // i: s = src ⊕ c1   (dropped)
                // j: r = s ⊕ c2     (becomes r = src ⊕ merged)
                Attempt::Merge(i, link, src) => {
                    let through = src.reg != r;
                    chains.merged(r, written(program, i), src.reg, i, j);
                    rewrite(&mut program.instrs_mut()[j], link, Some(src));
                    // p: t = x ⊕ c0     (becomes r = x ⊕ c0)
                    // j: r = t ⊕ c      (becomes r = r ⊕ c)
                    if let Some(p) = through.then(|| retarget_at(program, &chains, j)).flatten() {
                        let s = written(program, p);
                        let p_reads_s = program.instrs()[p].reads(s);
                        chains.retargeted(r, s, p, j, p_reads_s);
                        program.instrs_mut()[p].operands[0] = Operand::View(out.clone());
                        set_source(&mut program.instrs_mut()[j], out.clone());
                        reopen(p, &mut retry);
                    }
                    i
                }
                // p: s = src ⊕ c1   (becomes r = src·alpha)
                // q: t = s ⊕ c2     (dropped)
                // j: r = t ⊕ c3     (becomes r = r + beta)
                Attempt::Fold3 { p, q, alpha, beta } => {
                    let (s, t) = (written(program, p), written(program, q));
                    let p_reads_s = program.instrs()[p].reads(s);
                    let in_place = program.instrs()[j].reads(r);
                    chains.unlink(t, q, false);
                    if s == r {
                        chains.continues_in_place(r, p, j);
                    } else {
                        chains.retargeted(r, s, p, j, p_reads_s);
                        program.instrs_mut()[p].operands[0] = Operand::View(out.clone());
                        reopen(p, &mut retry);
                    }
                    rewrite(
                        &mut program.instrs_mut()[p],
                        (Opcode::Multiply, 1, alpha),
                        None,
                    );
                    let src = (!in_place).then(|| out.clone());
                    rewrite(&mut program.instrs_mut()[j], (Opcode::Add, 1, beta), src);
                    retry.push(Reverse(p));
                    q
                }
            };
            program.instrs_mut()[dropped] = Instruction::noop();
            applied += 1;
            // The write at `dropped` is gone, `j` now faces the link
            // before it, and a scanned successor of `j` faces a changed
            // instruction.
            reopen(dropped, &mut retry);
            retry.push(Reverse(j));
            if let Some(next) = chains.instrs[j].next_def.filter(|&k| k < scanned) {
                retry.push(Reverse(next));
            }
        }
        applied
    }
}

/// Make a matched `r = v ⊕ c` the link `(op, pos, c)`, reading `src`
/// instead of `v` when one is given.
fn rewrite(instr: &mut Instruction, (op, pos, c): (Opcode, usize, Scalar), src: Option<ViewRef>) {
    let was = instr.sole_const_input().expect("a link has a constant").0;
    let v = src.map_or_else(|| instr.operands[2 - was].clone(), Operand::View);
    instr.op = op;
    instr.operands[1 + pos] = Operand::Const(c);
    instr.operands[2 - pos] = v;
}

/// Make a matched `r = v ⊕ c` read `src` instead of `v`.
fn set_source(instr: &mut Instruction, src: ViewRef) {
    let const_pos = instr
        .sole_const_input()
        .expect("matched pattern has a constant")
        .0;
    instr.operands[if const_pos == 0 { 2 } else { 1 }] = Operand::View(src);
}

/// Judge whether the instruction at `j` can absorb the constant of the
/// link before it, or of the two before it. `None` is final unless one of
/// those links changes.
///
/// Affine links fold exactly as [`Affine::then`] composes them, into the
/// one link or the scale and shift it renders. Other links fold when they
/// share an associative op-code (min/max, bitwise and logical chains, and
/// bool arithmetic, where subtract is XOR).
fn try_merge_at(program: &Program, chains: &Chains, ctx: &RewriteCtx, j: usize) -> Option<Attempt> {
    let instrs = program.instrs();
    let b = &instrs[j];
    let out_b = b.out_view()?;
    let (pos_b, cb, src_b) = chain_link(program, b, out_b)?;
    let dtype = program.base(out_b.reg).dtype;
    if !reassoc_allowed(ctx, dtype) {
        return None;
    }
    // The link whose value j continues; nothing else may observe it.
    let i = chains.pred(program, j, out_b, src_b)?;
    let a = &instrs[i];
    let (pos_a, ca, src) = chain_link(program, a, src_b)?;
    let link = match (
        Affine::read(a.op, pos_a, ca, dtype),
        Affine::read(b.op, pos_b, cb, dtype),
    ) {
        (Some(first), Some(second)) => {
            let both = first.then(second, dtype)?;
            let spelled = (a.op == b.op && pos_a == 1 && pos_b == 1).then_some(a.op);
            match both.link(dtype, spelled) {
                Some(link) => link,
                // A scale and a shift: fold with the link before i.
                None => return fold3(program, chains, i, j, first, second, dtype),
            }
        }
        (None, None) if a.op == b.op => (b.op, pos_b, const_eval(a.op, ca, cb, dtype)?),
        _ => return None,
    };
    // The source operand of i must not be redefined in between. (When i
    // reads the register it writes, nothing but i wrote it since.)
    if src.reg != src_b.reg {
        if let Some(write) = chains.next_write_of_source(src.reg, i) {
            if write < j {
                return Some(Attempt::Blocked(write));
            }
        }
        // Through a temporary, j would read a view of the register it
        // writes that is not the one it writes.
        if src.reg == out_b.reg && !program.same_elements(src, out_b) {
            return None;
        }
    }
    Some(Attempt::Merge(i, link, src.clone()))
}

/// `q: t = src ⊕ c`, the link before the judged position `j`, and `j`
/// compose to a scale and a shift. With the link `p` before `q` they fold
/// to `p: ·α` and `j: +β` when `p`, `q` and `j` compose to `v·α + β`, e.g.
///
/// * `p: ·α, q: +β, ·γ` → `p: ·αγ, +βγ`,
/// * `p: +β, q: ·γ, +δ` → `p: ·γ, +(βγ + δ)`.
///
/// `p` keeps its source and its place, so no write of that source can
/// lie in between; it now writes `j`'s register, so nothing else may touch
/// that register between `p` and `j`.
fn fold3(
    program: &Program,
    chains: &Chains,
    q: usize,
    j: usize,
    mid: Affine,
    last: Affine,
    dtype: DType,
) -> Option<Attempt> {
    let instrs = program.instrs();
    let out_q = instrs[q].out_view()?;
    let (_, _, src) = chain_link(program, &instrs[q], out_q)?;
    let p = chains.pred(program, q, out_q, src)?;
    let (pos, p_const, _) = chain_link(program, &instrs[p], src)?;
    let first = Affine::read(instrs[p].op, pos, p_const, dtype)?;
    let Affine::Lin(Some(alpha), Some(beta)) = first.then(mid, dtype)?.then(last, dtype)? else {
        return None;
    };
    let p_writes_y = instrs[p].out_reg() == instrs[j].out_reg();
    chains
        .clear_for(p_writes_y, p, q, j)
        .then_some(Attempt::Fold3 { p, q, alpha, beta })
}

/// After a merge, `j: r = t ⊕ c` may read a temporary `t` that the link
/// `p` wrote, with nothing touching `r` between them: `p` can write `r`
/// itself and `j` update it in place, and `t` is never written. (In
/// place, `p` would be `r`'s previous write, which the last test fails.)
fn retarget_at(program: &Program, chains: &Chains, j: usize) -> Option<usize> {
    let b = &program.instrs()[j];
    let out = b.out_view()?;
    let (_, _, src) = chain_link(program, b, out)?;
    let p = chains.pred(program, j, out, src)?;
    chain_link(program, &program.instrs()[p], src)?;
    let link = &chains.instrs[j];
    (link.prev_def < Some(p) && !link.read_since_def).then_some(p)
}

/// When `instr` writes exactly `out`'s elements as a link `src ⊕ c` or
/// `c ⊕ src` — an element-wise op-code that is associative or affine in
/// `out`'s dtype, or bool subtract (XOR): the constant's input position,
/// the constant and `src`.
fn chain_link<'a>(
    program: &Program,
    instr: &'a Instruction,
    out: &ViewRef,
) -> Option<(usize, Scalar, &'a ViewRef)> {
    let op = instr.op;
    if op.kind() != OpKind::ElementwiseBinary || !program.same_elements(instr.out_view()?, out) {
        return None;
    }
    let (pos, c) = instr.sole_const_input()?;
    let dtype = program.base(out.reg).dtype;
    let xor = op == Opcode::Subtract && dtype == DType::Bool;
    if !(op.is_associative() || xor) && Affine::read(op, pos, c, dtype).is_none() {
        return None;
    }
    Some((pos, c, instr.inputs().get(1 - pos)?.as_view()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::LiveAtExit;
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
    fn left_constant_subtracts_fold_to_a_shift() {
        // 20 − (10 − x) is x + 10: the two sign flips cancel. It is not
        // (10 + 20) − x.
        let (p, n) = optimize_text(
            "BH_IDENTITY a0 [0:4:1] 1\n\
             BH_SUBTRACT a0 10 a0\nBH_SUBTRACT a0 20 a0\nBH_SYNC a0\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_ADD a0 a0 10.0\n"), "{text}");
        // Entered from a shift, c − x stays one link: 10 − (x + 1) = 9 − x.
        let (p, n) = optimize_text(
            ".base x f64[4] input\n.base a f64[4]\n\
             BH_ADD a x 1\nBH_SUBTRACT a 10 a\nBH_SYNC a\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_SUBTRACT a 9.0 x\n"), "{text}");
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
    fn a_sum_entering_a_run_folds_like_any_value() {
        // (x + y + 1)·2 + 3 is (x + y)·2 + 5: the sum is the `e` of
        // `k·e + b`, whatever its number of terms.
        let text = ".base x f64[4] input\n.base y f64[4] input\n.base a f64[4]\n\
             BH_ADD a x y\nBH_ADD a a 1\nBH_MULTIPLY a a 2\nBH_ADD a a 3\nBH_SYNC a\n";
        for entry in ["BH_ADD a x y", "BH_MAXIMUM a x 1"] {
            let (p, n) =
                optimize_text(&text.replace("BH_ADD a x y", entry), &RewriteCtx::default());
            assert_eq!(n, 1);
            let text = p.to_text(PrintStyle::COMPACT);
            assert!(
                text.contains(&format!("{entry}\nBH_MULTIPLY a a 2\nBH_ADD a a 5.0\n")),
                "{text}"
            );
        }
    }

    #[test]
    fn divides_fold_with_divides_and_power_of_two_scales() {
        // x/4/3 is x/12, in place and through a temporary.
        let (p, n) = optimize_text(
            ".base x f64[4] input\n.base a f64[4]\n\
             BH_DIVIDE a x 4\nBH_DIVIDE a a 3\nBH_SYNC a\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_DIVIDE a x 12.0\n"), "{text}");
        let (p, n) = optimize_text(
            ".base x f64[4] input\n.base t f64[4]\n.base y f64[4]\n\
             BH_DIVIDE t x 4\nBH_DIVIDE y t 3\nBH_FREE t\nBH_SYNC y\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 1);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_DIVIDE y x 12.0\n"), "{text}");
        // Never with a shift or another scale: (x/3 + 1), x/3·3.
        for tail in ["BH_ADD a a 1", "BH_MULTIPLY a a 3"] {
            let (_, n) = optimize_text(
                &format!(
                    ".base x f64[4] input\n.base a f64[4]\nBH_DIVIDE a x 3\n{tail}\nBH_SYNC a\n"
                ),
                &RewriteCtx::default(),
            );
            assert_eq!(n, 0, "{tail}");
        }
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

    /// `y = ((x·3) + 1)·0.5` through the temporaries `t` and `u`.
    const TEMPORARIES: &str = ".base x f64[4] input\n.base t f64[4]\n.base u f64[4]\n\
        .base y f64[4]\nBH_MULTIPLY t x 3\nBH_ADD u t 1\nBH_MULTIPLY y u 0.5\nBH_SYNC y\n";

    #[test]
    fn a_chain_through_temporaries_folds_into_its_last_register() {
        let (p, n) = optimize_text(TEMPORARIES, &RewriteCtx::default());
        assert_eq!(n, 1);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(
            text.contains("BH_MULTIPLY y x 1.5\nBH_ADD y y 0.5\nBH_SYNC y\n"),
            "{text}"
        );
        // As a front end records it: every step into a fresh register,
        // each freed once read; `t` and `u` are never written.
        let (p, n) = optimize_text(
            &TEMPORARIES
                .replace("BH_ADD u t 1\n", "BH_ADD u t 1\nBH_FREE t\n")
                .replace(
                    "BH_SYNC y\n",
                    "BH_FREE u\nBH_ADD z y 2\nBH_FREE y\nBH_SYNC z\n",
                )
                .replace(".base y f64[4]\n", ".base y f64[4]\n.base z f64[4]\n"),
            &RewriteCtx::default(),
        );
        assert_eq!(n, 2);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(
            text.contains(
                "BH_MULTIPLY z x 1.5\nBH_FREE t\nBH_FREE u\nBH_ADD z z 2.5\nBH_FREE y\nBH_SYNC z\n"
            ),
            "{text}"
        );
    }

    /// `y = (x + 1) + 2` through `t`, with `extra` spliced in after the
    /// first add: a single merge when `t` is a temporary.
    fn two_adds(decls: &str, extra: &str) -> (Program, usize) {
        optimize_text(
            &format!("{decls}BH_ADD t x 1\n{extra}BH_ADD y t 2\nBH_SYNC y\n"),
            &RewriteCtx::default(),
        )
    }

    const TWO_ADDS: &str = ".base x f64[4] input\n.base t f64[4]\n.base y f64[4]\n";

    #[test]
    fn temporaries_that_are_observed_stay_unmerged() {
        let (p, n) = two_adds(TWO_ADDS, "");
        assert_eq!(n, 1);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_ADD y x 3"));
        // Read twice: by the second add and by a multiply.
        let decls = format!("{TWO_ADDS}.base z f64[4]\n");
        let (_, n) = two_adds(&decls, "BH_MULTIPLY z t 2\nBH_SYNC z\n");
        assert_eq!(n, 0);
        // Synced, before or after its reader.
        let (_, n) = two_adds(TWO_ADDS, "BH_SYNC t\n");
        assert_eq!(n, 0);
        let (_, n) = optimize_text(
            &format!("{TWO_ADDS}BH_ADD t x 1\nBH_ADD y t 2\nBH_SYNC y\nBH_SYNC t\n"),
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0);
        // An input base, whose contents belong to the caller.
        let (_, n) = two_adds(&TWO_ADDS.replace("t f64[4]", "t f64[4] input"), "");
        assert_eq!(n, 0);
        // Observable at exit.
        let observe_all = RewriteCtx {
            live_at_exit: LiveAtExit::AllRegisters,
            ..RewriteCtx::default()
        };
        let (_, n) = optimize_text(
            &format!("{TWO_ADDS}BH_ADD t x 1\nBH_ADD y t 2\nBH_SYNC y\n"),
            &observe_all,
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn partial_view_temporaries_stay_unmerged() {
        // Written through a slice: the rest of `t` is another value.
        let (_, n) = optimize_text(
            ".base x f64[4] input\n.base t f64[8]\n.base y f64[4]\n\
             BH_ADD t [0:4:1] x 1\nBH_ADD y t [0:4:1] 2\nBH_SYNC y\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0);
        // Read through a slice of a full write.
        let (_, n) = optimize_text(
            ".base x f64[8] input\n.base t f64[8]\n.base y f64[4]\n\
             BH_ADD t x 1\nBH_ADD y t [0:4:1] 2\nBH_SYNC y\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn a_link_that_changes_dtype_stays_unmerged() {
        // t truncates x·0.5 to an integer; y = x·1.0 would not.
        let (_, n) = optimize_text(
            ".base x i64[4] input\n.base t i64[4]\n.base y f64[4]\n\
             BH_MULTIPLY t x 0.5\nBH_MULTIPLY y t 2\nBH_SYNC y\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn strict_math_leaves_float_temporaries_but_folds_integer_ones() {
        let strict = RewriteCtx {
            fast_math: false,
            ..RewriteCtx::default()
        };
        let (p, n) = optimize_text(TEMPORARIES, &strict);
        assert_eq!(n, 0);
        let source = parse_program(TEMPORARIES).unwrap();
        assert_eq!(p.instrs(), source.instrs());
        let (p, n) = optimize_text(
            &TEMPORARIES.replace("f64", "i64").replace("0.5", "2"),
            &strict,
        );
        assert_eq!(n, 1);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_MULTIPLY y x 6\nBH_ADD y y 2\n"), "{text}");
    }

    #[test]
    fn a_freed_source_blocks_the_merge() {
        // The merged add would read `x` after its storage was released.
        let (p, n) = optimize_text(
            ".base x f64[4]\n.base a f64[4]\n\
             BH_IDENTITY x 5\nBH_ADD a x 1\nBH_FREE x\nBH_ADD a a 2\nBH_SYNC a\n",
            &RewriteCtx::default(),
        );
        assert_eq!(n, 0);
        assert_eq!(p.count_op(Opcode::Add), 2);
    }
}
