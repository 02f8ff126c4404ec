//! Data-flow analyses over byte-code sequences.
//!
//! The transformation engine needs to answer questions like *"is the
//! inverse used for anything else?"* (the Eq. 2 context-aware rewrite)
//! and *"is this store ever observed?"* (dead-code elimination). This
//! module provides the def-use and liveness machinery behind those
//! answers, plus the first-touch analysis the VM uses to decide which
//! bases may start a run on recycled storage.

use crate::instr::Instruction;
use crate::operand::Reg;
use crate::program::Program;

/// Def-use index: for every register, the instruction indices that write or
/// read it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefUse {
    defs: Vec<Vec<usize>>,
    uses: Vec<Vec<usize>>,
}

impl DefUse {
    /// Build the index for `program`.
    pub fn compute(program: &Program) -> DefUse {
        let n = program.bases().len();
        let mut defs = vec![Vec::new(); n];
        let mut uses = vec![Vec::new(); n];
        for (i, instr) in program.instrs().iter().enumerate() {
            if let Some(r) = instr.out_reg() {
                defs[r.index()].push(i);
            }
            for r in instr.input_regs() {
                if uses[r.index()].last().is_none_or(|&last| last != i) {
                    uses[r.index()].push(i);
                }
            }
        }
        DefUse { defs, uses }
    }

    /// Instructions that write `reg`, ascending.
    pub fn defs(&self, reg: Reg) -> &[usize] {
        &self.defs[reg.index()]
    }

    /// Instructions that read `reg`, ascending (deduplicated per
    /// instruction).
    pub fn uses(&self, reg: Reg) -> &[usize] {
        &self.uses[reg.index()]
    }

    /// True when some instruction with index in `(after, before)` writes
    /// `reg`.
    pub fn written_between(&self, reg: Reg, after: usize, before: usize) -> bool {
        self.defs(reg).iter().any(|&i| i > after && i < before)
    }

    /// True when `reg` is read anywhere after instruction `idx`
    /// (exclusive). This is the paper's Eq. 2 side condition: the rewrite
    /// of `inverse ∘ matmul` into `solve` is only sound "if we do not use
    /// the A⁻¹ tensor for anything else in our computations".
    pub fn read_after(&self, reg: Reg, idx: usize) -> bool {
        self.uses(reg).iter().any(|&i| i > idx)
    }
}

/// Backward liveness as a cursor: the set of registers that may still be
/// read *after* the current program point, held as a register bitset and
/// moved one instruction towards the program start per
/// [`Liveness::step_back`].
///
/// A full-view write kills liveness (the old value is gone); a sliced write
/// does not, because untouched elements survive. One backward walk costs
/// O(instructions) time and O(registers) space, whatever the program
/// length.
///
/// # Examples
///
/// Find the dead stores of a program — writes whose register is not live
/// just after them:
///
/// ```
/// use bh_ir::{parse_program, Liveness};
///
/// let p = parse_program(
///     "BH_IDENTITY a [0:4:1] 1\nBH_IDENTITY a [0:4:1] 2\nBH_SYNC a\n")?;
/// let mut live = Liveness::at_exit(&p, &[]);
/// let mut dead = Vec::new();
/// for (idx, instr) in p.instrs().iter().enumerate().rev() {
///     if !live.write_is_live(instr) {
///         dead.push(idx);
///     }
///     live.step_back(&p, instr);
/// }
/// assert_eq!(dead, [0]); // overwritten before anything read it
/// # Ok::<(), bh_ir::ParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    /// Bit `r` of word `r / 64` = is register `r` live at the cursor?
    live: Vec<u64>,
}

impl Liveness {
    /// The cursor at program exit, with the given registers live there.
    /// An empty set means the only observable results are those a
    /// `BH_SYNC` reads before the program ends (matching Bohrium, where
    /// the bridge syncs before touching data); a host embedding that reads
    /// bases directly names them here.
    pub fn at_exit(program: &Program, live_at_exit: &[Reg]) -> Liveness {
        let mut live = Liveness {
            live: vec![0; program.bases().len().div_ceil(64)],
        };
        for &r in live_at_exit {
            live.set(r, true);
        }
        live
    }

    /// Is `reg` live at the cursor?
    pub fn is_live(&self, reg: Reg) -> bool {
        self.live[reg.index() / 64] >> (reg.index() % 64) & 1 == 1
    }

    fn set(&mut self, reg: Reg, live: bool) {
        let bit = 1u64 << (reg.index() % 64);
        if live {
            self.live[reg.index() / 64] |= bit;
        } else {
            self.live[reg.index() / 64] &= !bit;
        }
    }

    /// With the cursor just *after* `instr`: is the value it writes ever
    /// observed? (The dead-store test.) Instructions without an output
    /// are effects, never dead stores.
    pub fn write_is_live(&self, instr: &Instruction) -> bool {
        instr.out_reg().is_none_or(|r| self.is_live(r))
    }

    /// Move the cursor from just after `instr` to just before it.
    pub fn step_back(&mut self, program: &Program, instr: &Instruction) {
        // Kill: a full write makes the previous value dead.
        if let Some(out) = instr.out_view() {
            if program.is_full_view(out) {
                self.set(out.reg, false);
            }
        }
        // Gen: inputs become live. BH_FREE names its target but does not
        // read the *value*, so it generates no liveness — otherwise dead
        // computations kept alive only by their eventual free could never
        // be eliminated.
        if instr.op != crate::opcode::Opcode::Free {
            for r in instr.input_regs() {
                self.set(r, true);
            }
        }
    }
}

/// How a program first touches one base: what a run can observe of the
/// contents the base held before the run started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstTouch {
    /// No instruction names the base.
    Untouched,
    /// The first instruction naming the base writes a full view of it
    /// ([`Program::is_full_view`]) and reads nothing of it: the old
    /// contents are overwritten unseen.
    Overwrites,
    /// The first instruction naming the base reads it — `BH_SYNC` and
    /// `BH_FREE` included, as [`Instruction::inputs`] says — or writes
    /// only part of it, leaving the rest to be read as it was.
    Observes,
}

/// The [`FirstTouch`] of every base, indexed by register, in one forward
/// walk.
///
/// For a non-input base, [`FirstTouch::Observes`] means the run can see
/// the base's *initial zeros*: a VM may start such a base on recycled
/// storage only after zero-filling it, while a [`FirstTouch::Overwrites`]
/// base may start holding anything. (An input's initial contents are the
/// caller's binding, never recycled storage.) The walk assumes nothing the
/// verifier checks: a read of a never-written register and a partial
/// write both answer `Observes`. A base freed mid-run is only ever
/// re-created zero-filled by the VM, so a free cannot expose a reused
/// buffer's contents either.
pub fn first_touch(program: &Program) -> Vec<FirstTouch> {
    let mut touch = vec![FirstTouch::Untouched; program.bases().len()];
    for instr in program.instrs() {
        for r in instr.input_regs() {
            if touch[r.index()] == FirstTouch::Untouched {
                touch[r.index()] = FirstTouch::Observes;
            }
        }
        if let Some(out) = instr.out_view() {
            if touch[out.reg.index()] == FirstTouch::Untouched {
                touch[out.reg.index()] = if program.is_full_view(out) {
                    FirstTouch::Overwrites
                } else {
                    FirstTouch::Observes
                };
            }
        }
    }
    touch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Opcode;
    use crate::operand::ViewRef;
    use crate::program::ProgramBuilder;
    use bh_tensor::{DType, Scalar, Shape, Slice};

    /// Listing 2: identity, three adds, sync.
    fn listing2() -> Program {
        let mut b = ProgramBuilder::new(DType::Float64, Shape::vector(10));
        let a0 = b.reg("a0");
        b.identity_const(a0, Scalar::F64(0.0));
        for _ in 0..3 {
            b.binary(Opcode::Add, a0, ViewRef::full(a0), Scalar::F64(1.0));
        }
        b.sync(a0);
        b.build()
    }

    #[test]
    fn def_use_listing2() {
        let p = listing2();
        let du = DefUse::compute(&p);
        let a0 = p.reg_by_name("a0").unwrap();
        assert_eq!(du.defs(a0), &[0, 1, 2, 3]);
        assert_eq!(du.uses(a0), &[1, 2, 3, 4]);
    }

    #[test]
    fn written_between_and_read_after() {
        let p = listing2();
        let du = DefUse::compute(&p);
        let a0 = p.reg_by_name("a0").unwrap();
        assert!(du.written_between(a0, 0, 2)); // the add at 1 writes a0
        assert!(!du.written_between(a0, 2, 3)); // nothing strictly between
        assert!(du.read_after(a0, 3)); // sync reads it
        assert!(!du.read_after(a0, 4));
    }

    /// `write_is_live` for every instruction, by one backward walk.
    fn live_writes(p: &Program, live_at_exit: &[Reg]) -> Vec<bool> {
        let mut live = Liveness::at_exit(p, live_at_exit);
        let mut out = vec![true; p.instrs().len()];
        for (idx, instr) in p.instrs().iter().enumerate().rev() {
            out[idx] = live.write_is_live(instr);
            live.step_back(p, instr);
        }
        out
    }

    #[test]
    fn liveness_sync_keeps_value_alive() {
        let p = listing2();
        let a0 = p.reg_by_name("a0").unwrap();
        let mut live = Liveness::at_exit(&p, &[]);
        // Dead after the sync (nothing reads it later).
        assert!(!live.is_live(a0));
        // Live before the sync and between the adds.
        for idx in (1..=4).rev() {
            live.step_back(&p, &p.instrs()[idx]);
            assert!(live.is_live(a0), "before instruction {idx}");
        }
        // Dead before the identity (the full write kills upward liveness).
        live.step_back(&p, &p.instrs()[0]);
        assert!(!live.is_live(a0));
    }

    #[test]
    fn dead_store_detected_without_sync() {
        let mut b = ProgramBuilder::new(DType::Float64, Shape::vector(4));
        let a0 = b.reg("a0");
        b.identity_const(a0, Scalar::F64(1.0)); // dead: overwritten below
        b.identity_const(a0, Scalar::F64(2.0));
        b.sync(a0);
        let p = b.build();
        assert_eq!(live_writes(&p, &[]), [false, true, true]);
    }

    #[test]
    fn sliced_write_does_not_kill() {
        let mut p = Program::new();
        let a0 = p.declare("a0", DType::Float64, Shape::vector(10));
        p.push(Instruction::unary(
            Opcode::Identity,
            ViewRef::full(a0),
            Scalar::F64(1.0),
        ));
        // Partial write: only half the elements.
        p.push(Instruction::unary(
            Opcode::Identity,
            ViewRef::sliced(a0, vec![Slice::range(0, 5)]),
            Scalar::F64(2.0),
        ));
        p.push(Instruction::sync(ViewRef::full(a0)));
        // The first write is still (partially) observable.
        assert!(live_writes(&p, &[])[0]);
    }

    #[test]
    fn live_at_exit_override() {
        let mut b = ProgramBuilder::new(DType::Float64, Shape::vector(4));
        let a0 = b.reg("a0");
        b.identity_const(a0, Scalar::F64(1.0));
        let p = b.build();
        assert_eq!(live_writes(&p, &[]), [false]);
        assert_eq!(live_writes(&p, &[a0]), [true]);
    }

    #[test]
    fn free_names_its_target_without_reading_it() {
        let p = crate::parse_program("BH_IDENTITY a [0:4:1] 1\nBH_FREE a\n").unwrap();
        assert_eq!(live_writes(&p, &[]), [false, true]);
    }

    #[test]
    fn liveness_spans_more_than_one_bitset_word() {
        let mut p = Program::new();
        let regs: Vec<Reg> = (0..130)
            .map(|i| p.declare(&format!("r{i}"), DType::Float64, Shape::vector(2)))
            .collect();
        for &r in &regs {
            p.push(Instruction::unary(
                Opcode::Identity,
                ViewRef::full(r),
                Scalar::F64(1.0),
            ));
        }
        p.push(Instruction::sync(ViewRef::full(regs[129])));
        p.push(Instruction::sync(ViewRef::full(regs[64])));
        let live = live_writes(&p, &[regs[3]]);
        let kept: Vec<usize> = (0..130).filter(|&i| live[i]).collect();
        assert_eq!(kept, [3, 64, 129]);
    }

    #[test]
    fn uses_deduplicated_per_instruction() {
        // BH_MULTIPLY a1 a1 a1 reads a1 twice but should index it once.
        let mut b = ProgramBuilder::new(DType::Float64, Shape::vector(4));
        let a1 = b.reg("a1");
        b.identity_const(a1, Scalar::F64(2.0));
        b.binary(Opcode::Multiply, a1, ViewRef::full(a1), ViewRef::full(a1));
        let p = b.build();
        let du = DefUse::compute(&p);
        assert_eq!(du.uses(a1), &[1]);
    }

    #[test]
    fn rerun_safe_full_write_chains() {
        // Listing 2 fully initialises before every read.
        assert_eq!(first_touch(&listing2()), [FirstTouch::Overwrites]);
    }

    #[test]
    fn rerun_safe_rejects_partial_write_then_full_read() {
        // `y[0:2] = 5; y[0:4] += 1; sync y` validates (the partial write
        // marks y written) but the untouched tail of y is read as it was
        // before the run: recycled storage would leak its old contents.
        let p = crate::parse_program(
            ".base y f64[4]\n\
             BH_IDENTITY y [0:2:1] 5\n\
             BH_ADD y y 1\n\
             BH_SYNC y\n",
        )
        .unwrap();
        assert!(crate::verify(&p).is_ok());
        assert_eq!(first_touch(&p), [FirstTouch::Observes]);
    }

    #[test]
    fn rerun_safe_trusts_rebound_inputs() {
        // x observes its initial contents, but those are the caller's
        // binding; y is overwritten before anything reads it.
        let p =
            crate::parse_program(".base x f64[4] input\n.base y f64[4]\nBH_ADD y x 1\nBH_SYNC y\n")
                .unwrap();
        assert_eq!(
            first_touch(&p),
            [FirstTouch::Observes, FirstTouch::Overwrites]
        );
    }

    #[test]
    fn rerun_safe_rejects_sync_of_partially_written_register() {
        let p =
            crate::parse_program(".base y f64[4]\nBH_IDENTITY y [0:2:1] 5\nBH_SYNC y\n").unwrap();
        assert_eq!(first_touch(&p), [FirstTouch::Observes]);
    }

    #[test]
    fn rerun_safe_treats_free_as_reset() {
        // `a` is overwritten before the free; the VM re-creates a freed
        // base zero-filled, so `b`'s read of it sees no recycled contents.
        let p = crate::parse_program(
            "BH_IDENTITY a [0:4:1] 1\n\
             BH_FREE a\n\
             BH_ADD b [0:4:1] a [0:4:1] 1\n\
             BH_SYNC b\n",
        )
        .unwrap();
        assert_eq!(
            first_touch(&p),
            [FirstTouch::Overwrites, FirstTouch::Overwrites]
        );
    }

    #[test]
    fn first_touch_counts_free_and_untouched_bases() {
        let p = crate::parse_program(".base a f64[4]\n.base unused f64[4]\nBH_FREE a\n").unwrap();
        assert_eq!(
            first_touch(&p),
            [FirstTouch::Observes, FirstTouch::Untouched]
        );
    }
}
