//! Fusion grouping: the "loop-fusion-like contractions" of §2.
//!
//! A run of element-wise byte-codes whose operands are all contiguous
//! runs of one length, at any offsets of their bases, can be executed as
//! one fused kernel: instead of `k` passes over `n` elements (each
//! loading and storing the whole array), the fusing engine walks the
//! arrays once in cache-sized blocks, applying all `k` operations per
//! block. Kernel-launch count drops from `k` to 1 and intermediate
//! traffic stays cache-resident. The one condition on offsets is that
//! every base the run writes is read and written at one offset inside
//! it, so no block reads an element another block writes; a shifted read
//! after a write, or a shifted write after a read, ends the group.
//!
//! The same compiled form also carries a lone element-wise instruction
//! over contiguous, possibly offset views ([`classify_single`]): it runs
//! as a group of one, so the fusing engine has one element-wise fast path.
//! [`find_groups`] classifies every instruction once per run: full views
//! by a cheap check, where every offset is 0, the rest by
//! [`classify_single`].

use bh_ir::{Instruction, Opcode, Operand, Program, Reg};
use bh_tensor::{DType, Scalar};

/// One scheduling unit for the fusing engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Group {
    /// Not fusable (or a singleton run); execute stand-alone.
    Single(usize),
    /// Instructions `range` fused over a common element count.
    Fused {
        /// Instruction index range (half-open).
        range: std::ops::Range<usize>,
        /// Shared element count of every operand view.
        nelem: usize,
    },
    /// A fused element-wise `range` whose result feeds the single-lane
    /// reduction at instruction index `reduce`: the chain and the fold
    /// execute as **one** sharded kernel with per-block accumulators,
    /// never materialising the chain output for a second pass.
    FusedReduce {
        /// Element-wise instruction index range (half-open, excludes the
        /// reduction).
        range: std::ops::Range<usize>,
        /// Shared element count of every chain operand view.
        nelem: usize,
        /// Instruction index of the trailing reduction.
        reduce: usize,
    },
}

/// One input of a fused instruction, fully resolved: every view is a
/// contiguous run of its base, so a register and the run's first element
/// identify the operand completely — no geometry needed. A full view is
/// the run at offset 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FusedInput {
    /// Element `k` of the step reads element `offset + k` of `reg`.
    Reg {
        /// The base register.
        reg: Reg,
        /// First element of the contiguous run.
        offset: usize,
    },
    /// Immediate constant (not yet cast to the operating dtype).
    Const(Scalar),
}

/// One instruction of a fused group with its operands classified at
/// compile time, so per-shard execution touches no program structure.
#[derive(Debug, Clone)]
pub(crate) struct FusedInstr {
    /// The element-wise op-code.
    pub op: Opcode,
    /// Output register, written over a contiguous run.
    pub out: Reg,
    /// First element of the output run (0 for a full view).
    pub out_offset: usize,
    /// Declared dtype of the output base.
    pub out_dtype: DType,
    /// Operating dtype: the dtype of view inputs (validated to agree),
    /// else the output dtype.
    pub in_dtype: DType,
    /// The instruction's inputs, in operand order (`arity()` entries).
    pub inputs: Vec<FusedInput>,
}

/// The compiled-step form of the unfused instruction `idx` and its
/// element count, or `None` when it must run on the strided interpreter.
///
/// Accepted: an element-wise instruction whose output view is a
/// non-empty contiguous run (any offset, any rank) and whose every view
/// input, broadcast to the output's shape, is a contiguous run too. That
/// excludes stride-0 broadcasts and gives every view the output's
/// element count, so element `k` of the step is element `k` of each run.
/// An input on the output's base must start at the output's offset or
/// lie wholly outside the output run: then no element is read after
/// another index wrote it, whatever the sharding. (The verifier's V500
/// already rejects every other alias; the check keeps the compiled
/// step's soundness local.)
pub(crate) fn classify_single(program: &Program, idx: usize) -> Option<(FusedInstr, usize)> {
    let instr = &program.instrs()[idx];
    if !instr.op.is_elementwise() {
        return None;
    }
    let out = program.resolve_view(instr.out_view()?).ok()?;
    let nelem = out.nelem();
    if nelem == 0 || !out.is_contiguous() {
        return None;
    }
    let shape = out.shape();
    let mut fi = fused_instr(program, instr);
    fi.out_offset = out.offset();
    for (input, operand) in fi.inputs.iter_mut().zip(instr.inputs()) {
        if let (FusedInput::Reg { offset, .. }, Operand::View(v)) = (input, operand) {
            let geom = program.resolve_view(v).ok()?.broadcast_to(&shape).ok()?;
            if !geom.is_contiguous() {
                return None;
            }
            let shift = geom.offset().abs_diff(out.offset());
            if v.reg == fi.out && shift != 0 && shift < nelem {
                return None;
            }
            *offset = geom.offset();
        }
    }
    Some((fi, nelem))
}

/// One element-wise instruction with every offset 0: the compiled form
/// of an instruction over full views. The interpreter takes its dtypes
/// and its accounting from this form too.
pub(crate) fn fused_instr(program: &Program, instr: &Instruction) -> FusedInstr {
    debug_assert!(instr.op.is_elementwise(), "fused steps are element-wise");
    let out = instr.out_view().expect("element-wise ops have outputs").reg;
    let inputs: Vec<FusedInput> = instr
        .inputs()
        .iter()
        .map(|o| match o {
            Operand::View(v) => FusedInput::Reg {
                reg: v.reg,
                offset: 0,
            },
            Operand::Const(c) => FusedInput::Const(*c),
        })
        .collect();
    let out_dtype = program.base(out).dtype;
    let in_dtype = inputs
        .iter()
        .find_map(|i| match i {
            FusedInput::Reg { reg, .. } => Some(program.base(*reg).dtype),
            FusedInput::Const(_) => None,
        })
        .unwrap_or(out_dtype);
    FusedInstr {
        op: instr.op,
        out,
        out_offset: 0,
        out_dtype,
        in_dtype,
        inputs,
    }
}

/// Element count shared by all of an instruction's full contiguous views,
/// or `None` when the instruction is not fusable.
fn fusable_nelem(program: &Program, idx: usize) -> Option<usize> {
    let instr = &program.instrs()[idx];
    if !instr.op.is_elementwise() {
        return None;
    }
    let mut common: Option<usize> = None;
    for o in &instr.operands {
        match o {
            Operand::Const(_) => {}
            Operand::View(v) => {
                if !program.is_full_view(v) {
                    return None;
                }
                let base_n = program.base(v.reg).shape.nelem();
                match common {
                    None => common = Some(base_n),
                    Some(n) if n != base_n => return None,
                    _ => {}
                }
            }
        }
    }
    common
}

/// True when instruction `idx` is a reduction the fusing engine can fold
/// into a preceding fused group of `nelem`-element chains: a single-lane
/// (rank-1, axis-0) reduction over the full contiguous view of an
/// `nelem`-element base, producing a scalar of the same dtype in a
/// distinct one-element base. Bool inputs are excluded (they widen to
/// i64), as is `nelem <= 1` (no chain to amortise, and a 1-element chain
/// base could alias the scalar output).
fn fusable_reduce(program: &Program, idx: usize, nelem: usize) -> bool {
    if nelem <= 1 {
        return false;
    }
    let Some(instr) = program.instrs().get(idx) else {
        return false;
    };
    if instr.op.kind() != bh_ir::OpKind::Reduction || instr.op.fold_op().is_none() {
        return false;
    }
    let axis = instr
        .operands
        .get(2)
        .and_then(Operand::as_const)
        .and_then(Scalar::as_integral);
    if axis != Some(0) {
        return false;
    }
    let Some(in_ref) = instr.operands.get(1).and_then(Operand::as_view) else {
        return false;
    };
    let Ok(in_geom) = program.resolve_view(in_ref) else {
        return false;
    };
    let full = in_geom.rank() == 1
        && in_geom.offset() == 0
        && in_geom.is_contiguous()
        && in_geom.nelem() == nelem
        && in_geom.nelem() == program.base(in_ref.reg).shape.nelem();
    if !full {
        return false;
    }
    let Some(out_ref) = instr.out_view() else {
        return false;
    };
    let out_base = program.base(out_ref.reg);
    let Ok(out_geom) = program.resolve_view(out_ref) else {
        return false;
    };
    // Same dtype (no bool→i64 widening) and a dedicated scalar base, so
    // the output can never alias a chain operand.
    out_geom.nelem() == 1
        && out_base.shape.nelem() == 1
        && out_base.dtype == program.base(in_ref.reg).dtype
        && out_ref.reg != in_ref.reg
}

/// How the fusing engine runs a program: its groups, and the compiled
/// form of every element-wise instruction that runs on the compiled
/// step, each classified once.
#[derive(Debug)]
pub(crate) struct Schedule {
    /// The program's groups, in program order.
    pub groups: Vec<Group>,
    /// `compiled[i]`: instruction `i` as a compiled step and its element
    /// count, or `None` when it runs stand-alone on the interpreter or is
    /// not element-wise.
    compiled: Vec<Option<(FusedInstr, usize)>>,
}

impl Schedule {
    /// The compiled form of the single `i`, if it has one.
    pub fn take_single(&mut self, i: usize) -> Option<(FusedInstr, usize)> {
        self.compiled[i].take()
    }

    /// The compiled forms of a fused group's instructions, in order.
    pub fn take_group(&mut self, range: std::ops::Range<usize>) -> Vec<FusedInstr> {
        self.compiled[range]
            .iter_mut()
            .map(|c| c.take().expect("a fused group's instructions compile").0)
            .collect()
    }
}

/// The compiled form of instruction `idx`: the cheap full-view check
/// first, where every offset is 0, and [`classify_single`] only for the
/// rest.
fn classify(program: &Program, idx: usize) -> Option<(FusedInstr, usize)> {
    match fusable_nelem(program, idx) {
        Some(nelem) => Some((fused_instr(program, &program.instrs()[idx]), nelem)),
        None => classify_single(program, idx),
    }
}

/// The runs an instruction touches: its output first, then its view
/// inputs, as `(register, first element)`; `len` of the three are set.
fn runs(fi: &FusedInstr) -> ([(Reg, usize); 3], usize) {
    let mut runs = [(fi.out, fi.out_offset); 3];
    let mut len = 1;
    for input in &fi.inputs {
        if let FusedInput::Reg { reg, offset } = *input {
            runs[len] = (reg, offset);
            len += 1;
        }
    }
    (runs, len)
}

/// How the group being formed touches one base.
#[derive(Debug, Clone, Copy, Default)]
struct Touch {
    /// The group this entry belongs to; an entry of an earlier group is
    /// stale.
    group: usize,
    /// The first element of the first run touched.
    offset: usize,
    /// Every run touched starts at `offset`.
    one_offset: bool,
    /// The group writes the base.
    written: bool,
}

/// The hazard check of [`find_groups`]: every base a group writes is
/// read and written at one offset inside it, so no block reads an
/// element another block writes.
struct Touches {
    /// `by_reg[r]`: how the open group touches register `r`.
    by_reg: Vec<Touch>,
    /// The open group, counted from 1, so a default entry is stale.
    group: usize,
}

impl Touches {
    fn new(bases: usize) -> Self {
        Touches {
            by_reg: vec![Touch::default(); bases],
            group: 0,
        }
    }

    /// Start a new group.
    fn open(&mut self) {
        self.group += 1;
    }

    /// Add `fi` to the open group, unless that would touch a written
    /// base at a second offset: a shifted read after a write, or a
    /// shifted write after a read.
    fn admit(&mut self, fi: &FusedInstr) -> bool {
        let (runs, len) = runs(fi);
        let own = &runs[..len];
        let clash = own.iter().any(|&(reg, offset)| {
            let t = self.by_reg[reg.index()];
            let current = t.group == self.group;
            let written = current && t.written || reg == fi.out;
            let shifted = current && (!t.one_offset || t.offset != offset)
                || own.iter().any(|&(r, o)| r == reg && o != offset);
            written && shifted
        });
        if !clash {
            self.record(fi);
        }
        !clash
    }

    fn record(&mut self, fi: &FusedInstr) {
        let (runs, len) = runs(fi);
        for &(reg, offset) in &runs[..len] {
            let t = &mut self.by_reg[reg.index()];
            let written = reg == fi.out;
            if t.group == self.group {
                t.one_offset &= t.offset == offset;
                t.written |= written;
            } else {
                *t = Touch {
                    group: self.group,
                    offset,
                    one_offset: true,
                    written,
                };
            }
        }
    }
}

/// Partition the program into maximal fused groups and singletons,
/// classifying every instruction once.
///
/// A fused group is a run of at least two compiled element-wise
/// instructions over contiguous runs of one common length, at any
/// offsets, in which every base the group writes is read and written at
/// one offset. A single-lane reduction of the group's result may close
/// it ([`Group::FusedReduce`]).
pub(crate) fn find_groups(program: &Program) -> Schedule {
    let n = program.instrs().len();
    let compiled: Vec<Option<(FusedInstr, usize)>> = (0..n).map(|i| classify(program, i)).collect();
    let mut touches = Touches::new(program.bases().len());
    let mut groups = Vec::new();
    let mut i = 0usize;
    while i < n {
        let Some((first, nelem)) = &compiled[i] else {
            groups.push(Group::Single(i));
            i += 1;
            continue;
        };
        let nelem = *nelem;
        touches.open();
        let mut j = i + 1;
        if touches.admit(first) {
            while let Some((fi, m)) = compiled.get(j).and_then(Option::as_ref) {
                if *m != nelem || !touches.admit(fi) {
                    break;
                }
                j += 1;
            }
        }
        if j - i >= 2 {
            if fusable_reduce(program, j, nelem) {
                groups.push(Group::FusedReduce {
                    range: i..j,
                    nelem,
                    reduce: j,
                });
                i = j + 1;
                continue;
            }
            groups.push(Group::Fused { range: i..j, nelem });
        } else {
            groups.push(Group::Single(i));
        }
        i = j;
    }
    Schedule { groups, compiled }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::parse_program;

    #[test]
    fn listing2_adds_fuse() {
        let p = parse_program(
            "BH_IDENTITY a0 [0:10:1] 0\n\
             BH_ADD a0 [0:10:1] a0 [0:10:1] 1\n\
             BH_ADD a0 [0:10:1] a0 [0:10:1] 1\n\
             BH_ADD a0 [0:10:1] a0 [0:10:1] 1\n\
             BH_SYNC a0 [0:10:1]\n",
        )
        .unwrap();
        let groups = find_groups(&p).groups;
        assert_eq!(
            groups,
            vec![
                Group::Fused {
                    range: 0..4,
                    nelem: 10
                },
                Group::Single(4),
            ]
        );
    }

    #[test]
    fn sync_breaks_groups() {
        let p = parse_program(
            "BH_IDENTITY a0 [0:8:1] 1\n\
             BH_SYNC a0\n\
             BH_ADD a0 a0 1\n\
             BH_ADD a0 a0 1\n",
        )
        .unwrap();
        let groups = find_groups(&p).groups;
        assert_eq!(
            groups,
            vec![
                Group::Single(0),
                Group::Single(1),
                Group::Fused {
                    range: 2..4,
                    nelem: 8
                },
            ]
        );
    }

    #[test]
    fn sliced_views_do_not_fuse() {
        let p = parse_program(
            "BH_IDENTITY a0 [0:8:1] 1\n\
             BH_ADD a0 [1:5:1] a0 [1:5:1] 1\n\
             BH_ADD a0 [0:4:1] a0 [0:4:1] 1\n",
        )
        .unwrap();
        let groups = find_groups(&p).groups;
        // The adds write `a0` at offsets 1 and 0: element `k + 1` is
        // written at step `k` by the first and at step `k + 1` by the
        // second, so two blocks, or two shards, would write one element.
        // Equal-length runs of a written base at shifted offsets stay
        // singles.
        assert_eq!(
            groups,
            vec![Group::Single(0), Group::Single(1), Group::Single(2)]
        );
    }

    #[test]
    fn offset_runs_of_one_length_fuse() {
        // The heat stencil: a full copy, then four ops on `v[1:9]` that
        // read `u` at three offsets. `v`, the only written base, is read
        // and written at one offset, so the four ops are one group.
        let p = parse_program(
            ".base u f64[10] input\n.base v f64[10]\n\
             BH_IDENTITY v u\n\
             BH_ADD v[1:9:1] u[0:8:1] u[2:10:1]\n\
             BH_MULTIPLY v[1:9:1] v[1:9:1] 0.5\n\
             BH_ADD v[1:9:1] v[1:9:1] u[1:9:1]\n\
             BH_MULTIPLY v[1:9:1] v[1:9:1] 0.5\n\
             BH_SYNC v\n",
        )
        .unwrap();
        let mut schedule = find_groups(&p);
        assert_eq!(
            schedule.groups,
            vec![
                Group::Single(0),
                Group::Fused {
                    range: 1..5,
                    nelem: 8
                },
                Group::Single(5),
            ]
        );
        let offsets: Vec<(usize, Vec<Option<usize>>)> = schedule
            .take_group(1..5)
            .iter()
            .map(|fi| {
                let ins = fi.inputs.iter().map(|i| match i {
                    FusedInput::Reg { offset, .. } => Some(*offset),
                    FusedInput::Const(_) => None,
                });
                (fi.out_offset, ins.collect())
            })
            .collect();
        assert_eq!(
            offsets,
            vec![
                (1, vec![Some(0), Some(2)]),
                (1, vec![Some(1), None]),
                (1, vec![Some(1), Some(1)]),
                (1, vec![Some(1), None]),
            ]
        );
        assert!(schedule.take_single(0).is_some(), "the copy compiles");
        assert!(schedule.take_single(5).is_none(), "a sync does not");
    }

    #[test]
    fn a_shifted_read_of_a_written_base_splits_the_group() {
        // `v` is written at offset 1, then read at offset 0: in a block,
        // the second op would read an element the block before it wrote.
        let p = parse_program(
            ".base u f64[10] input\n.base v f64[10] input\n\
             BH_ADD v[1:9:1] u[0:8:1] 1\n\
             BH_ADD u[0:8:1] v[0:8:1] 2\n\
             BH_MULTIPLY u[0:8:1] u[0:8:1] 3\n",
        )
        .unwrap();
        assert_eq!(
            find_groups(&p).groups,
            vec![
                Group::Single(0),
                Group::Fused {
                    range: 1..3,
                    nelem: 8
                },
            ]
        );
    }

    #[test]
    fn a_shifted_write_of_a_read_base_splits_the_group() {
        // `u` is read at offsets 0 and 2, then written at offset 1: a
        // block would overwrite elements the next block still reads.
        let p = parse_program(
            ".base u f64[10] input\n.base v f64[10]\n\
             BH_ADD v[0:8:1] u[0:8:1] u[2:10:1]\n\
             BH_MULTIPLY u[1:9:1] v[0:8:1] 2\n\
             BH_ADD u[1:9:1] u[1:9:1] 1\n",
        )
        .unwrap();
        assert_eq!(
            find_groups(&p).groups,
            vec![
                Group::Single(0),
                Group::Fused {
                    range: 1..3,
                    nelem: 8
                },
            ]
        );
        // Nor does an op that reads a run of its own output's base beside
        // the output run open a group, though it runs compiled alone.
        let p = parse_program(
            ".base r f64[8] input\n\
             BH_ADD r[0:4:1] r[4:8:1] 1\n\
             BH_ADD r[0:4:1] r[0:4:1] 1\n",
        )
        .unwrap();
        let mut schedule = find_groups(&p);
        assert_eq!(schedule.groups, vec![Group::Single(0), Group::Single(1)]);
        assert!(schedule.take_single(0).is_some());
    }

    #[test]
    fn size_mismatch_splits_group() {
        let p = parse_program(
            "BH_IDENTITY a0 [0:8:1] 1\n\
             BH_IDENTITY b0 [0:4:1] 1\n\
             BH_ADD b0 b0 1\n",
        )
        .unwrap();
        let groups = find_groups(&p).groups;
        assert_eq!(
            groups,
            vec![
                Group::Single(0),
                Group::Fused {
                    range: 1..3,
                    nelem: 4
                },
            ]
        );
    }

    #[test]
    fn singleton_runs_stay_single() {
        let p = parse_program("BH_IDENTITY a0 [0:8:1] 1\nBH_SYNC a0\n").unwrap();
        assert_eq!(
            find_groups(&p).groups,
            vec![Group::Single(0), Group::Single(1)]
        );
    }

    #[test]
    fn single_classifier_accepts_contiguous_runs_only() {
        let p = parse_program(
            ".base g f64[8]\n.base r f64[8]\n.base m f64[2,8]\n.base k i32[8]\n\
             BH_ADD r[2:8:1] g[0:6:1] r[2:8:1]\n\
             BH_ADD r[0:4:1] r[4:8:1] 1\n\
             BH_IDENTITY r[0:4:1] k[4:8:1]\n\
             BH_MULTIPLY m[1:2:1,:] m[0:1:1,:] 2\n\
             BH_ADD r[1:8:1] r[0:7:1] 1\n\
             BH_ADD r[0:8:2] g[0:8:2] 1\n\
             BH_IDENTITY r g[::-1]\n\
             BH_ADD m m g\n\
             BH_ADD r[0:0:1] r[0:0:1] 1\n\
             BH_ADD_REDUCE g m 0\n",
        )
        .unwrap();
        let offsets = |idx: usize| {
            classify_single(&p, idx).map(|(fi, n)| {
                let ins: Vec<Option<usize>> = fi
                    .inputs
                    .iter()
                    .map(|i| match i {
                        FusedInput::Reg { offset, .. } => Some(*offset),
                        FusedInput::Const(_) => None,
                    })
                    .collect();
                (fi.out_offset, ins, n)
            })
        };
        // Offset runs of other bases, the output's own run, a disjoint
        // run of the output's base, a cast, a rank-2 row block.
        assert_eq!(offsets(0), Some((2, vec![Some(0), Some(2)], 6)));
        assert_eq!(offsets(1), Some((0, vec![Some(4), None], 4)));
        assert_eq!(offsets(2), Some((0, vec![Some(4)], 4)));
        assert_eq!(offsets(3), Some((8, vec![Some(0), None], 8)));
        // Shifted overlap of the output's base, strided, reversed,
        // broadcast, empty and non-element-wise stay on the interpreter.
        for idx in 4..10 {
            assert_eq!(offsets(idx), None, "instruction {idx}");
        }
    }

    #[test]
    fn trailing_full_reduction_joins_the_group() {
        let p = parse_program(
            ".base x f64[8]\n.base s f64[]\n\
             BH_IDENTITY x 1\n\
             BH_ADD x x 2\n\
             BH_ADD_REDUCE s x 0\n\
             BH_SYNC s\n",
        )
        .unwrap();
        assert_eq!(
            find_groups(&p).groups,
            vec![
                Group::FusedReduce {
                    range: 0..2,
                    nelem: 8,
                    reduce: 2
                },
                Group::Single(3),
            ]
        );
    }

    #[test]
    fn reduction_without_a_chain_stays_single() {
        let p = parse_program(
            ".base x f64[8] input\n.base s f64[]\n\
             BH_ADD_REDUCE s x 0\nBH_SYNC s\n",
        )
        .unwrap();
        assert_eq!(
            find_groups(&p).groups,
            vec![Group::Single(0), Group::Single(1)]
        );
    }

    #[test]
    fn multi_lane_and_widening_reductions_do_not_fuse() {
        // Rank-2 input: multi-lane, stays outside the group.
        let p = parse_program(
            ".base m f64[2,4]\n.base s f64[4]\n\
             BH_IDENTITY m 1\nBH_ADD m m 1\n\
             BH_ADD_REDUCE s m 0\nBH_SYNC s\n",
        )
        .unwrap();
        assert_eq!(
            find_groups(&p).groups,
            vec![
                Group::Fused {
                    range: 0..2,
                    nelem: 8
                },
                Group::Single(2),
                Group::Single(3),
            ]
        );
        // Bool input widens to i64: stays outside the group.
        let p = parse_program(
            ".base b bool[8]\n.base s i64[]\n\
             BH_IDENTITY b 1\nBH_BITWISE_AND b b 1\n\
             BH_ADD_REDUCE s b 0\nBH_SYNC s\n",
        )
        .unwrap();
        assert_eq!(
            find_groups(&p).groups,
            vec![
                Group::Fused {
                    range: 0..2,
                    nelem: 8
                },
                Group::Single(2),
                Group::Single(3),
            ]
        );
    }

    #[test]
    fn scan_after_chain_does_not_join() {
        let p = parse_program(
            ".base x f64[8]\n.base c f64[8]\n\
             BH_IDENTITY x 1\nBH_ADD x x 2\n\
             BH_ADD_ACCUMULATE c x 0\nBH_SYNC c\n",
        )
        .unwrap();
        assert_eq!(
            find_groups(&p).groups,
            vec![
                Group::Fused {
                    range: 0..2,
                    nelem: 8
                },
                Group::Single(2),
                Group::Single(3),
            ]
        );
    }
}
