//! The byte-code virtual machine.
//!
//! Stands in for the Bohrium runtime + backend: it owns the base-array
//! memory, executes instruction streams and counts the cost quantities
//! (kernel launches, traffic, flops) the transformation layer is supposed
//! to reduce. Two engines are provided:
//!
//! * **Naive** — one kernel launch and one full-array pass per byte-code,
//!   every element-wise byte-code on the serial strided interpreter
//!   (`exec::{map1, map2}`). This is the execution regime in which the
//!   paper's rewrites pay off, and the reference leg the equivalence
//!   suites hold the fusing engine to.
//! * **Fusing** — contracts runs of element-wise byte-codes over
//!   contiguous runs of one length (any offsets, one per written base)
//!   and executes them block-by-block, modelling Bohrium's JIT kernel
//!   fusion ("loop-fusion-like contractions of byte-codes", §2).
//!   A lone element-wise byte-code over contiguous views runs on the same
//!   compiled step as a group of one, and compiled steps shard across the
//!   worker pool; only strided, reversed and broadcast views take the
//!   serial interpreter.
//!
//! Both element-wise paths, the reductions and the scans take their op's
//! element function from `bh_ir::semantics`, the one map from an op-code
//! to what it computes (the constant folder reads the same map). The
//! interpreter receives it as a `Kernel` in `Interpret`, the compiled
//! path in `Compile`, which builds one generic step per arity: `step1` or
//! `step2`.

use crate::error::VmError;
use crate::exec::{self, Input};
use crate::fusion::{self, FusedInput, FusedInstr};
use crate::pool::WorkerPool;
use crate::stash::Stash;
use crate::stats::ExecStats;
use bh_ir::semantics::{self, Fold, Kernel};
use bh_ir::{
    BaseDecl, FirstTouch, Instruction, OpKind, Opcode, Operand, Program, Reg, TypeRule, ViewRef,
};
use bh_linalg as linalg;
use bh_tensor::kernels::{self, RangeExecutor, ShardRoot, ShardSlice};
use bh_tensor::{with_dtype, Buffer, DType, Element, Scalar, Shape, Tensor, ViewGeom};
use std::borrow::Cow;
use std::sync::Arc;

/// Default minimum element count before an operation shards across the
/// worker pool.
const PAR_THRESHOLD: usize = 1 << 16;

/// Execution engine selection.
///
/// The default is `Fusing { block: 4096 }`, the configuration a default
/// `bh_runtime::Runtime` evaluates with. [`Vm::new`] is a `Naive` VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One kernel per byte-code (Bohrium without fusion), every
    /// element-wise byte-code on the serial strided interpreter.
    Naive,
    /// Contract element-wise runs and execute them in cache-sized blocks.
    Fusing {
        /// Elements per block; must be non-zero. 4096 doubles ≈ 32 KiB,
        /// i.e. L1-resident.
        block: usize,
    },
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::Fusing { block: 4096 }
    }
}

/// The virtual machine.
///
/// # Examples
///
/// Run the paper's Listing 2 and read the result:
///
/// ```
/// use bh_ir::parse_program;
/// use bh_vm::Vm;
///
/// let program = parse_program(
///     "BH_IDENTITY a0 [0:10:1] 0\n\
///      BH_ADD a0 [0:10:1] a0 [0:10:1] 1\n\
///      BH_ADD a0 [0:10:1] a0 [0:10:1] 1\n\
///      BH_ADD a0 [0:10:1] a0 [0:10:1] 1\n\
///      BH_SYNC a0 [0:10:1]\n",
/// )?;
/// let mut vm = Vm::new();
/// vm.run(&program)?;
/// let a0 = vm.read_by_name(&program, "a0")?;
/// assert_eq!(a0.to_f64_vec(), vec![3.0; 10]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Vm {
    engine: Engine,
    workers: Option<Arc<WorkerPool>>,
    par_threshold: usize,
    bases: Vec<Option<Buffer>>,
    /// `allocated[r]`: slot `r` holds storage this VM allocated rather
    /// than a caller's binding. Only such storage is ever recycled.
    allocated: Vec<bool>,
    /// Storage of earlier runs awaiting reuse.
    stash: Stash,
    /// This run's share of the stash, per register: a buffer of the
    /// register's exact dtype and length, and whether the run can
    /// observe its zeros (so it must be zero-filled before use).
    reserved: Vec<Option<(Buffer, bool)>>,
    /// The largest footprint of any run so far — the bytes the register
    /// slots held, bound or allocated, when it ended: the stash's bound.
    peak_bytes: usize,
    stats: ExecStats,
}

impl Default for Vm {
    fn default() -> Vm {
        Vm::new()
    }
}

impl Vm {
    /// A naive-engine, single-threaded VM.
    pub fn new() -> Vm {
        Vm::with_engine(Engine::Naive)
    }

    /// A VM with the given engine.
    pub fn with_engine(engine: Engine) -> Vm {
        Vm {
            engine,
            workers: None,
            par_threshold: PAR_THRESHOLD,
            bases: Vec::new(),
            allocated: Vec::new(),
            stash: Stash::default(),
            reserved: Vec::new(),
            peak_bytes: 0,
            stats: ExecStats::new(),
        }
    }

    /// Set the worker-thread count for the fusing engine's compiled
    /// element-wise steps and for reductions and scans.
    ///
    /// `threads > 1` spawns a persistent [`WorkerPool`] owned by this VM
    /// (reused across runs — no per-operation thread start-up). A pool of
    /// the same size already installed (by an earlier call or by
    /// [`Vm::set_worker_pool`]) is kept. `threads <= 1` removes the pool.
    pub fn set_threads(&mut self, threads: usize) -> &mut Self {
        let threads = threads.max(1);
        if threads == 1 {
            self.workers = None;
        } else if self.workers.as_ref().map(|w| w.threads()) != Some(threads) {
            self.workers = Some(Arc::new(WorkerPool::new(threads)));
        }
        self
    }

    /// Install a shared worker pool (e.g. one owned by a [`crate::VmPool`]
    /// so concurrent VMs share a single set of worker threads).
    pub fn set_worker_pool(&mut self, pool: Arc<WorkerPool>) -> &mut Self {
        self.workers = if pool.threads() > 1 { Some(pool) } else { None };
        self
    }

    /// Worker threads used for large operations (1 = serial).
    pub fn threads(&self) -> usize {
        self.workers.as_ref().map_or(1, |w| w.threads())
    }

    /// Set the minimum output-element count before operations shard
    /// across the worker pool (default `65536`). Mostly a tuning/test
    /// knob: equivalence suites lower it to force the parallel paths on
    /// small fixtures.
    pub fn set_par_threshold(&mut self, threshold: usize) -> &mut Self {
        self.par_threshold = threshold.max(1);
        self
    }

    /// Current parallel-dispatch threshold in elements.
    pub fn par_threshold(&self) -> usize {
        self.par_threshold
    }

    /// The engine in use.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Clear memory and counters but keep the base-slot table and, within
    /// the largest footprint of any single run so far, the storage this
    /// VM allocated, so later runs of *any* program reuse it instead of
    /// allocating. Caller-bound buffers are released, never kept.
    /// Equivalent to [`Vm::reset`] observationally: a run zero-fills
    /// reused storage wherever it could observe the zeros, and never
    /// reuses a buffer someone else still holds (DESIGN.md §7).
    pub fn recycle(&mut self) {
        self.release_reservation();
        for (slot, allocated) in self.bases.iter_mut().zip(&mut self.allocated) {
            let allocated = std::mem::take(allocated);
            if let Some(buffer) = slot.take().filter(|_| allocated) {
                self.stash.put(buffer, self.peak_bytes);
            }
        }
        self.stats = ExecStats::new();
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Clear memory, recycled storage included, and counters.
    pub fn reset(&mut self) {
        self.bases.clear();
        self.allocated.clear();
        self.reserved.clear();
        self.stash.clear();
        self.peak_bytes = 0;
        self.stats = ExecStats::new();
    }

    /// Provide input data for a register declared `input`.
    ///
    /// # Errors
    ///
    /// [`VmError::Register`] when `program` does not declare `reg`, or
    /// when dtype or shape disagree with the declaration.
    pub fn bind(&mut self, program: &Program, reg: Reg, tensor: &Tensor) -> Result<(), VmError> {
        let decl = declared(program, reg)?;
        if decl.dtype != tensor.dtype() {
            return Err(VmError::Register {
                reason: format!(
                    "binding `{}`: dtype {} does not match declared {}",
                    decl.name,
                    tensor.dtype(),
                    decl.dtype
                ),
            });
        }
        if &decl.shape != tensor.shape() {
            return Err(VmError::Register {
                reason: format!(
                    "binding `{}`: shape {} does not match declared {}",
                    decl.name,
                    tensor.shape(),
                    decl.shape
                ),
            });
        }
        self.ensure_slot(reg);
        self.bases[reg.index()] = Some(tensor.buffer().clone());
        self.allocated[reg.index()] = false;
        Ok(())
    }

    /// [`Vm::bind`] by declared register name.
    ///
    /// # Errors
    ///
    /// [`VmError::Register`] for unknown names or mismatched data.
    pub fn bind_by_name(
        &mut self,
        program: &Program,
        name: &str,
        tensor: &Tensor,
    ) -> Result<(), VmError> {
        let reg = program.reg_by_name(name).ok_or_else(|| VmError::Register {
            reason: format!("no register named `{name}`"),
        })?;
        self.bind(program, reg, tensor)
    }

    /// Read a register's full base back as an owned tensor.
    ///
    /// # Errors
    ///
    /// [`VmError::Register`] when `program` does not declare `reg`, or
    /// when the register was never materialised (or was freed).
    pub fn read(&self, program: &Program, reg: Reg) -> Result<Tensor, VmError> {
        let decl = declared(program, reg)?;
        let buffer = self
            .bases
            .get(reg.index())
            .and_then(|b| b.as_ref())
            .ok_or_else(|| VmError::Register {
                reason: format!("register `{}` holds no data", decl.name),
            })?;
        Tensor::from_parts(buffer.clone(), decl.shape.clone()).map_err(VmError::from)
    }

    /// [`Vm::read`] by declared register name.
    ///
    /// # Errors
    ///
    /// [`VmError::Register`] for unknown names or unmaterialised registers.
    pub fn read_by_name(&self, program: &Program, name: &str) -> Result<Tensor, VmError> {
        let reg = program.reg_by_name(name).ok_or_else(|| VmError::Register {
            reason: format!("no register named `{name}`"),
        })?;
        self.read(program, reg)
    }

    /// Verify and execute a program.
    ///
    /// # Errors
    ///
    /// [`VmError::Invalid`] if verification fails, otherwise any runtime
    /// failure.
    pub fn run(&mut self, program: &Program) -> Result<(), VmError> {
        let witness = bh_ir::verify(program).map_err(VmError::Invalid)?;
        self.run_verified(witness)
    }

    /// Execute a program that already carries a verification witness.
    ///
    /// This is the checked-once, trusted-forever hot path: the witness
    /// proves `bh_ir::verify` accepted the program, so no per-eval
    /// verification happens here. Debug builds re-verify behind a
    /// `debug_assert!` to catch witness misuse early; release builds
    /// trust the proof.
    ///
    /// # Errors
    ///
    /// Runtime failures only (unbound registers, allocation failures);
    /// never [`VmError::Invalid`].
    pub fn run_verified(&mut self, program: bh_ir::VerifiedProgram<'_>) -> Result<(), VmError> {
        let program = program.program();
        debug_assert!(
            bh_ir::verify(program).is_ok(),
            "VerifiedProgram witness no longer verifies — the program was \
             mutated after verification"
        );
        self.reserve(program);
        let ran = match self.engine {
            Engine::Naive => program
                .instrs()
                .iter()
                .try_for_each(|instr| self.exec_instr(program, instr)),
            Engine::Fusing { block } => self.run_fused(program, block.max(1)),
        };
        self.peak_bytes = self.peak_bytes.max(self.held_bytes());
        ran
    }

    /// Hand this run its share of the stash, in one pass over the
    /// program and its bases. Every non-input base the program touches
    /// and that holds no data yet gets a stashed buffer of exactly its
    /// dtype and length that nobody else holds, if there is one. Stashed
    /// storage left unmatched is dropped now, smallest first and before
    /// the run allocates, as far as it does not fit beside the run's own
    /// footprint within the largest footprint of any earlier run.
    fn reserve(&mut self, program: &Program) {
        self.release_reservation();
        self.stash.drop_shared();
        let touches = bh_ir::first_touch(program);
        if self.reserved.len() < touches.len() {
            self.reserved.resize_with(touches.len(), || None);
        }
        let mut need = self.held_bytes();
        for (i, (decl, touch)) in program.bases().iter().zip(touches).enumerate() {
            let materialised = self.bases.get(i).is_some_and(Option::is_some);
            if touch == FirstTouch::Untouched || materialised {
                continue;
            }
            let len = decl.shape.nelem();
            need += len * decl.dtype.size_of();
            if !decl.is_input {
                if let Some(buffer) = self.stash.take(decl.dtype, len) {
                    self.reserved[i] = Some((buffer, touch == FirstTouch::Observes));
                }
            }
        }
        self.stash.trim(self.peak_bytes.saturating_sub(need));
    }

    /// Bytes the register slots hold, bound or allocated.
    fn held_bytes(&self) -> usize {
        self.bases.iter().flatten().map(Buffer::size_bytes).sum()
    }

    /// Return reserved storage a run did not use to the stash.
    fn release_reservation(&mut self) {
        for (buffer, _) in self.reserved.iter_mut().filter_map(Option::take) {
            self.stash.put(buffer, self.peak_bytes);
        }
    }

    fn run_fused(&mut self, program: &Program, block: usize) -> Result<(), VmError> {
        let mut schedule = fusion::find_groups(program);
        for group in std::mem::take(&mut schedule.groups) {
            match group {
                fusion::Group::Single(i) => match schedule.take_single(i) {
                    Some((fi, nelem)) => {
                        self.run_compiled(program, std::slice::from_ref(&fi), nelem, block);
                    }
                    None => self.exec_instr(program, &program.instrs()[i])?,
                },
                fusion::Group::Fused { range, nelem } => {
                    let instrs = schedule.take_group(range);
                    self.stats.fused_groups += 1;
                    self.run_compiled(program, &instrs, nelem, block);
                }
                fusion::Group::FusedReduce {
                    range,
                    nelem,
                    reduce,
                } => {
                    let instrs = schedule.take_group(range);
                    self.run_fused_reduce_group(program, &instrs, nelem, reduce, block)?;
                }
            }
        }
        Ok(())
    }

    /// Execute compiled element-wise instructions — a fused group, or an
    /// unfused contiguous instruction as a group of one — as a single
    /// kernel: compile every instruction into a range closure over the
    /// run's [`ShardRoot`]s, then walk `[0, nelem)` in cache-sized blocks
    /// applying the whole chain per block — sharded across the worker
    /// pool when the run is large enough. Shard boundaries are multiples
    /// of `block`, so the block-walk inside each shard is identical to
    /// the serial walk (DESIGN.md §10); results are bit-identical for
    /// every thread count.
    fn run_compiled(
        &mut self,
        program: &Program,
        instrs: &[FusedInstr],
        nelem: usize,
        block: usize,
    ) {
        // Accounting is analytic and shard-independent: each instruction
        // counts once, traffic/flops scale with the full `nelem`, and the
        // run is one kernel — identical counters for 1 or N threads.
        self.stats.kernels += 1;
        self.account_fused_chain(instrs, nelem);
        self.alloc_fused(program, instrs);
        let pool = self.pool_for(nelem);
        let roots = shard_roots(&mut self.bases, instrs, None);
        let steps = compile_steps(&roots, instrs);
        let run_chain = |lo: usize, hi: usize| {
            let mut b = lo;
            while b < hi {
                let e = (b + block).min(hi);
                for step in &steps {
                    step.run(b, e);
                }
                b = e;
            }
        };
        let shards = executor(&pool).run_ranges(nelem, block, &run_chain);
        if shards > 1 {
            self.stats.par_shards += shards as u64;
        }
    }

    /// Materialise every base a compiled run touches.
    fn alloc_fused(&mut self, program: &Program, instrs: &[FusedInstr]) {
        for fi in instrs {
            self.ensure_alloc(program, fi.out);
            for input in &fi.inputs {
                if let FusedInput::Reg { reg, .. } = input {
                    self.ensure_alloc(program, *reg);
                }
            }
        }
    }

    /// The worker pool a run of `nelem` elements shards over, if any.
    fn pool_for(&self, nelem: usize) -> Option<Arc<WorkerPool>> {
        self.workers
            .clone()
            .filter(|pool| pool.threads() > 1 && nelem >= self.par_threshold)
    }

    /// Analytic per-instruction accounting for a compiled chain or one
    /// interpreted byte-code: one `instructions` tick per byte-code,
    /// traffic/flops scaled by the full `nelem` — the totals a naive run
    /// reports, independent of sharding (DESIGN.md §10).
    fn account_fused_chain(&mut self, instrs: &[FusedInstr], nelem: usize) {
        let n = nelem as u64;
        for fi in instrs {
            self.stats.instructions += 1;
            self.stats.elements_written += n;
            self.stats.bytes_written += n * fi.out_dtype.size_of() as u64;
            for input in &fi.inputs {
                if matches!(input, FusedInput::Reg { .. }) {
                    self.stats.bytes_read += n * fi.in_dtype.size_of() as u64;
                }
            }
            self.stats.flops += fi.op.unit_cost() * n;
        }
    }

    /// Execute a fused element-wise chain *and* the single-lane reduction
    /// it feeds as one sharded kernel: each shard walks its canonical
    /// [`kernels::REDUCE_BLOCK`]-aligned range a run of blocks at a time,
    /// applying the whole chain to the run in engine-block-sized chunks
    /// and then folding the freshly written reduction input, still
    /// cache-resident, into one accumulator per block, the blocks in
    /// lockstep ([`kernels::fold_blocks`]). Block partials are combined
    /// left-to-right in block order (never arrival order), so the result
    /// is bit-identical to the unfused engines at every thread count — the
    /// same canonical combine tree as [`kernels::par_reduce_lane`]
    /// (DESIGN.md §11).
    fn run_fused_reduce_group(
        &mut self,
        program: &Program,
        instrs: &[FusedInstr],
        nelem: usize,
        reduce: usize,
        block: usize,
    ) -> Result<(), VmError> {
        let rinstr = &program.instrs()[reduce];
        let in_ref = trusted(rinstr.operands[1].as_view(), "reduce input is a view");
        let out_ref = rinstr.out_view().expect("reductions have outputs");
        let out_geom = program.resolve_view(out_ref)?;
        let dtype = program.base(in_ref.reg).dtype;

        self.ensure_alloc(program, in_ref.reg);
        self.ensure_alloc(program, out_ref.reg);
        self.alloc_fused(program, instrs);
        // Analytic accounting, shard-independent: chain instructions as in
        // `run_compiled`, plus the reduction's own traffic/flops — the
        // per-instruction totals a naive run would report, under a single
        // kernel launch.
        self.stats.kernels += 1;
        self.stats.fused_groups += 1;
        self.stats.fused_reductions += 1;
        self.account_fused_chain(instrs, nelem);
        let n = nelem as u64;
        self.stats.instructions += 1;
        self.stats.bytes_read += n * dtype.size_of() as u64;
        self.account_out(&out_geom, dtype);
        self.stats.flops += rinstr.op.unit_cost() * n;

        // The output is a scalar base of its own (`fusion::find_groups`),
        // outside the chain's roots.
        let mut out = self.take_buffer(out_ref.reg)?;
        let in_len = self.borrow_buffer(in_ref.reg)?.len();
        assert!(nelem <= in_len, "view escapes buffer");
        let pool = self.pool_for(nelem);
        let fold = rinstr.op.fold_op().expect("reductions fold");
        let total_shards = {
            let roots = shard_roots(&mut self.bases, instrs, Some(in_ref.reg));
            let steps = compile_steps(&roots, instrs);
            semantics::fold(
                fold,
                dtype,
                FusedReduce {
                    executor: executor(&pool),
                    steps: &steps,
                    input: trusted(roots[in_ref.reg.index()].as_ref(), "input allocated"),
                    out: &mut out,
                    out_offset: out_geom.offset(),
                    nelem,
                    block,
                },
            )
        };
        self.bases[out_ref.reg.index()] = Some(out);
        if total_shards > 1 {
            self.stats.par_shards += total_shards as u64;
            self.stats.reduce_shards += total_shards as u64;
        }
        Ok(())
    }

    fn ensure_slot(&mut self, reg: Reg) {
        if self.bases.len() <= reg.index() {
            self.bases.resize_with(reg.index() + 1, || None);
            self.allocated.resize(reg.index() + 1, false);
        }
    }

    /// Materialise `reg` if it holds no data: on its reserved buffer,
    /// zero-filled if the run can observe the zeros, else on a fresh
    /// zeroed allocation.
    fn ensure_alloc(&mut self, program: &Program, reg: Reg) {
        self.ensure_slot(reg);
        if self.bases[reg.index()].is_some() {
            return;
        }
        let buffer = match self.reserved.get_mut(reg.index()).and_then(Option::take) {
            Some((mut buffer, zeros_observable)) => {
                if zeros_observable {
                    with_dtype!(buffer.dtype(), T, {
                        buffer
                            .as_mut_slice::<T>()
                            .expect("dtype matches the buffer")
                            .fill(<T as Element>::zero());
                    });
                }
                buffer
            }
            None => {
                let decl = program.base(reg);
                Buffer::zeros(decl.dtype, decl.shape.nelem())
            }
        };
        self.bases[reg.index()] = Some(buffer);
        self.allocated[reg.index()] = true;
    }

    fn exec_instr(&mut self, program: &Program, instr: &Instruction) -> Result<(), VmError> {
        match instr.op.kind() {
            OpKind::System => self.exec_system(instr),
            OpKind::Generator => self.exec_generator(program, instr),
            OpKind::Reduction | OpKind::Scan => self.exec_reduce_scan(program, instr),
            OpKind::LinAlg => self.exec_linalg(program, instr),
            OpKind::ElementwiseUnary | OpKind::ElementwiseBinary => {
                self.exec_elementwise(program, instr)
            }
        }
    }

    fn exec_system(&mut self, instr: &Instruction) -> Result<(), VmError> {
        match instr.op {
            Opcode::Sync => {
                self.stats.instructions += 1;
                self.stats.syncs += 1;
                Ok(())
            }
            Opcode::Free => {
                self.stats.instructions += 1;
                if let Some(v) = instr.operands.first().and_then(|o| o.as_view()) {
                    if let Some(slot) = self.bases.get_mut(v.reg.index()) {
                        *slot = None;
                    }
                }
                Ok(())
            }
            Opcode::NoOp => Ok(()),
            other => unreachable!("{other} is not a system op"),
        }
    }

    fn exec_generator(&mut self, program: &Program, instr: &Instruction) -> Result<(), VmError> {
        let out_ref = instr.out_view().expect("generators have outputs");
        let reg = out_ref.reg;
        let geom = program.resolve_view(out_ref)?;
        let dtype = program.base(reg).dtype;
        self.ensure_alloc(program, reg);
        self.note_kernel(1);
        self.account_out(&geom, dtype);
        self.stats.flops += instr.op.unit_cost() * geom.nelem() as u64;
        let buffer = self.bases[reg.index()].as_mut().expect("just allocated");
        match instr.op {
            Opcode::Range => {
                with_dtype!(dtype, T, {
                    let slice = buffer.as_mut_slice::<T>().expect("dtype matches decl");
                    if geom.is_contiguous() {
                        let (lo, n) = (geom.offset(), geom.nelem());
                        for (k, x) in slice[lo..lo + n].iter_mut().enumerate() {
                            *x = (k as u64).cast::<T>();
                        }
                    } else {
                        // Write index values in logical order.
                        for (counter, off) in geom.offsets().enumerate() {
                            slice[off] = (counter as u64).cast::<T>();
                        }
                    }
                });
                Ok(())
            }
            Opcode::Random => {
                let seed = instr.operands[1]
                    .as_const()
                    .and_then(Scalar::as_integral)
                    .unwrap_or(0) as u64;
                let data = bh_tensor::random_tensor(
                    dtype,
                    geom.shape(),
                    seed,
                    bh_tensor::Distribution::Uniform,
                );
                write_tensor_into_view(buffer, &geom, &data);
                Ok(())
            }
            other => unreachable!("{other} is not a generator"),
        }
    }

    fn exec_reduce_scan(&mut self, program: &Program, instr: &Instruction) -> Result<(), VmError> {
        let out_ref = instr.out_view().expect("reductions have outputs");
        let in_ref = trusted(instr.operands[1].as_view(), "reduce input is a view");
        let axis = trusted(
            instr.operands[2].as_const().and_then(Scalar::as_integral),
            "reduce axis is an integral constant",
        ) as usize;
        let out_reg = out_ref.reg;
        let out_geom = program.resolve_view(out_ref)?;
        let in_geom = program.resolve_view(in_ref)?;
        let dtype = program.base(in_ref.reg).dtype;
        self.ensure_alloc(program, in_ref.reg);
        self.ensure_alloc(program, out_reg);
        self.note_kernel(1);
        self.account_in(&in_geom, dtype);
        self.account_out(&out_geom, program.base(out_reg).dtype);
        self.stats.flops += instr.op.unit_cost() * in_geom.nelem() as u64;

        let fold = instr.op.fold_op().expect("reductions fold");
        // Bool reductions widen to i64 (NumPy); run the fold in the widened
        // domain by materialising a cast input. Otherwise fold straight out
        // of the input base — the kernels walk strided/sliced views
        // directly, so no materialise copy sits on the hot path.
        let work_dtype = program.base(out_reg).dtype;
        let direct = work_dtype == dtype && in_ref.reg != out_reg;
        let (owned, in_view) = if direct {
            (None, in_geom)
        } else {
            let input_tensor = self.materialize_view(program, in_ref)?;
            let input_cast = if work_dtype != dtype {
                input_tensor.cast(work_dtype)
            } else {
                input_tensor
            };
            let view = ViewGeom::contiguous(input_cast.shape());
            (Some(input_cast), view)
        };
        let mut out_buf = self.take_buffer(out_reg)?;
        let input = match &owned {
            Some(t) => t.buffer(),
            None => self.borrow_buffer(in_ref.reg)?,
        };
        // Serial and sharded runs share one kernel family whose combine
        // order is executor-independent (DESIGN.md §11), so the executor
        // choice below can never change results.
        let pool = self.pool_for(in_view.nelem());
        let shards = semantics::fold(
            fold,
            work_dtype,
            ReduceScan {
                executor: executor(&pool),
                scan: instr.op.kind() == OpKind::Scan,
                out: &mut out_buf,
                ov: &out_geom,
                input,
                iv: &in_view,
                axis,
            },
        );
        if shards > 1 {
            self.stats.par_shards += shards as u64;
            self.stats.reduce_shards += shards as u64;
        }
        self.bases[out_reg.index()] = Some(out_buf);
        Ok(())
    }

    fn exec_linalg(&mut self, program: &Program, instr: &Instruction) -> Result<(), VmError> {
        let out_ref = instr.out_view().expect("linalg ops have outputs");
        let out_reg = out_ref.reg;
        let out_geom = program.resolve_view(out_ref)?;
        self.note_kernel(1);
        let result = match instr.op {
            Opcode::MatMul => {
                let a = self.materialize_view(program, view_of(&instr.operands[1]))?;
                let b = self.materialize_view(program, view_of(&instr.operands[2]))?;
                let (m, k, n) = matmul_dims(a.shape(), b.shape());
                self.stats.flops += linalg::matmul_flops(m, k, n);
                self.account_in_tensor(&a);
                self.account_in_tensor(&b);
                linalg::matmul(&a, &b)?
            }
            Opcode::Transpose => {
                let a = self.materialize_view(program, view_of(&instr.operands[1]))?;
                self.account_in_tensor(&a);
                linalg::transpose(&a)?
            }
            Opcode::Inverse => {
                let a = self.materialize_view(program, view_of(&instr.operands[1]))?;
                let n = a.shape().dim(0);
                // inverse = factorise + n pair-solves ≈ 2n³
                self.stats.flops += 2 * (n as u64).pow(3);
                self.account_in_tensor(&a);
                self.sharded_lu(|par| linalg::inverse_on(&a, par))?
            }
            Opcode::Solve => {
                let a = self.materialize_view(program, view_of(&instr.operands[1]))?;
                let b = self.materialize_view(program, view_of(&instr.operands[2]))?;
                let n = a.shape().dim(0);
                let k = if b.shape().rank() == 2 {
                    b.shape().dim(1)
                } else {
                    1
                };
                self.stats.flops += linalg::lu_solve_flops(n, k);
                self.account_in_tensor(&a);
                self.account_in_tensor(&b);
                self.sharded_lu(|par| linalg::solve_lu_on(&a, &b, par))?
            }
            other => unreachable!("{other} is not a linalg op"),
        };
        self.ensure_alloc(program, out_reg);
        self.account_out(&out_geom, program.base(out_reg).dtype);
        let result = if result.dtype() == program.base(out_reg).dtype {
            result
        } else {
            result.cast(program.base(out_reg).dtype)
        };
        let buffer = self.bases[out_reg.index()]
            .as_mut()
            .expect("just allocated");
        write_tensor_into_view(buffer, &out_geom, &result);
        Ok(())
    }

    /// Run an LU-based op with its trailing updates sharded over the
    /// worker pool from `par_threshold` multiply-adds on (DESIGN.md §10),
    /// and count the shards.
    fn sharded_lu(
        &mut self,
        op: impl FnOnce(&mut linalg::Sharding) -> Result<Tensor, linalg::LinalgError>,
    ) -> Result<Tensor, VmError> {
        let executor: &dyn RangeExecutor = match &self.workers {
            Some(p) if p.threads() > 1 => p.as_ref(),
            _ => &kernels::InlineExec,
        };
        let mut par = linalg::Sharding::new(executor, self.par_threshold);
        let result = op(&mut par)?;
        self.stats.par_shards += par.shards() as u64;
        Ok(result)
    }

    /// The serial strided interpreter for one element-wise byte-code:
    /// every view shape (strided, reversed, broadcast, aliased), one
    /// pass on the calling thread.
    fn exec_elementwise(&mut self, program: &Program, instr: &Instruction) -> Result<(), VmError> {
        let fi = fusion::fused_instr(program, instr);
        let out_reg = fi.out;
        self.ensure_alloc(program, out_reg);
        let out_geom =
            program.resolve_view(instr.out_view().expect("element-wise ops have outputs"))?;
        let out_shape = out_geom.shape();

        // Resolve + broadcast inputs; ensure any read base is materialised.
        let mut inputs: Vec<Resolved> = Vec::with_capacity(2);
        for o in instr.inputs() {
            match o {
                Operand::View(v) => {
                    self.ensure_alloc(program, v.reg);
                    let g = program.resolve_view(v)?.broadcast_to(&out_shape)?;
                    inputs.push(Resolved::View(v.reg, g));
                }
                Operand::Const(c) => inputs.push(Resolved::Const(*c)),
            }
        }
        // Every view input is broadcast to the output's element count, so
        // the interpreter counts what a compiled step of one counts.
        self.stats.kernels += 1;
        self.account_fused_chain(std::slice::from_ref(&fi), out_geom.nelem());

        let mut out = self.take_buffer(out_reg)?;
        let interpret = Interpret {
            bases: &self.bases,
            out: &mut out,
            ov: &out_geom,
            out_reg,
            inputs: &inputs,
            // A comparison's bool output may alias a bool input: read it
            // from a copy.
            copy_own: instr.op.type_rule() == TypeRule::CompareLike,
        };
        semantics::elementwise(fi.op, fi.in_dtype, fi.out_dtype, interpret);
        self.bases[out_reg.index()] = Some(out);
        Ok(())
    }

    fn take_buffer(&mut self, reg: Reg) -> Result<Buffer, VmError> {
        self.bases
            .get_mut(reg.index())
            .and_then(Option::take)
            .ok_or_else(|| VmError::Register {
                reason: format!("register r{} holds no data", reg.0),
            })
    }

    fn borrow_buffer(&self, reg: Reg) -> Result<&Buffer, VmError> {
        self.bases
            .get(reg.index())
            .and_then(|b| b.as_ref())
            .ok_or_else(|| VmError::Register {
                reason: format!("register r{} holds no data", reg.0),
            })
    }

    /// A view of a register as an owned contiguous tensor. A view of the
    /// whole base shares its storage (copy-on-write), another contiguous
    /// view is one slice copy, and only a strided one walks its offsets.
    fn materialize_view(&mut self, program: &Program, v: &ViewRef) -> Result<Tensor, VmError> {
        self.ensure_alloc(program, v.reg);
        let geom = program.resolve_view(v)?;
        let dtype = program.base(v.reg).dtype;
        let buf = self.borrow_buffer(v.reg)?;
        let (lo, n) = (geom.offset(), geom.nelem());
        let out = if !geom.is_contiguous() {
            with_dtype!(dtype, T, {
                let s = buf.as_slice::<T>().expect("dtype matches decl");
                Buffer::from_vec(bh_tensor::kernels::materialize(s, &geom))
            })
        } else if lo == 0 && n == buf.len() {
            buf.clone()
        } else {
            with_dtype!(dtype, T, {
                let s = buf.as_slice::<T>().expect("dtype matches decl");
                Buffer::from_vec(s.get(lo..lo + n).expect("view escapes buffer").to_vec())
            })
        };
        Tensor::from_parts(out, geom.shape()).map_err(VmError::from)
    }

    fn note_kernel(&mut self, instrs: u64) {
        self.stats.instructions += instrs;
        self.stats.kernels += instrs;
    }

    fn account_in(&mut self, g: &ViewGeom, dtype: DType) {
        self.stats.bytes_read += g.nelem() as u64 * dtype.size_of() as u64;
    }

    fn account_in_tensor(&mut self, t: &Tensor) {
        self.stats.bytes_read += t.nelem() as u64 * t.dtype().size_of() as u64;
    }

    fn account_out(&mut self, g: &ViewGeom, dtype: DType) {
        let n = g.nelem() as u64;
        self.stats.elements_written += n;
        self.stats.bytes_written += n * dtype.size_of() as u64;
    }
}

/// One compiled element-wise instruction: executes the op over the
/// element range `[lo, hi)` of every operand's contiguous run.
type FusedStep<'r> = Box<dyn Step + 'r>;

/// A range loop behind a one-method vtable. A `dyn Fn` vtable also
/// carries `call_mut` and a `call_once` shim, and LLVM copies each
/// step's loops into the shim as well as into `call`.
trait Step: Send + Sync {
    fn run(&self, lo: usize, hi: usize);
}

impl<F: Fn(usize, usize) + Send + Sync> Step for F {
    fn run(&self, lo: usize, hi: usize) {
        self(lo, hi)
    }
}

/// The executor a run shards over: `pool`, or the calling thread.
fn executor(pool: &Option<Arc<WorkerPool>>) -> &dyn RangeExecutor {
    match pool {
        Some(pool) => pool.as_ref(),
        None => &kernels::InlineExec,
    }
}

/// The one root per register of a compiled run: every base the chain
/// writes, un-shared now and borrowed mutably until the run ends, and
/// every base it only reads (the chain's inputs and `also_read`),
/// borrowed shared. Every pointer the run's steps and fold use into a
/// base is derived from its root.
fn shard_roots<'a>(
    bases: &'a mut [Option<Buffer>],
    instrs: &[FusedInstr],
    also_read: Option<Reg>,
) -> Vec<Option<ShardRoot<'a>>> {
    let mut written = vec![None; bases.len()];
    let inputs = instrs.iter().flat_map(|fi| &fi.inputs);
    let read = inputs.filter_map(|input| match input {
        FusedInput::Reg { reg, .. } => Some(*reg),
        FusedInput::Const(_) => None,
    });
    for reg in read.chain(also_read) {
        written[reg.index()] = Some(false);
    }
    for fi in instrs {
        written[fi.out.index()] = Some(true);
    }
    bases
        .iter_mut()
        .zip(written)
        .map(|(slot, written)| match (slot, written) {
            (Some(buffer), Some(true)) => Some(ShardRoot::new(buffer)),
            (Some(buffer), Some(false)) => Some(ShardRoot::read_only(buffer)),
            _ => None,
        })
        .collect()
}

/// Compile each instruction of a chain.
///
/// # Safety argument
///
/// A step reads and writes its operands' runs through the run's
/// [`ShardRoot`]s, inside `unsafe` calls to [`ShardSlice::with_claim`]
/// and [`ShardSlice::read_range`] whose contract is this: (a) the roots
/// borrow every base until the run ends, and every claim and range read
/// asserts its bounds; (b) every view is a contiguous run of `nelem`
/// elements, so step index `k` is element `offset + k` of each operand
/// and concurrent shards write pairwise-disjoint output ranges; (c) an
/// input sharing the output's base either reads the output's own element
/// at each `k` (same offset) or no element the output run covers
/// ([`fusion::classify_single`] checks it, and the verifier's V500
/// rejects any other alias), and inside a fused group every base the
/// group writes is read and written at one offset
/// ([`fusion::find_groups`] checks it), so no shard or block reads what
/// another writes; and (d) within one shard the chain runs in program
/// order, so a step's reads of an element happen before any later step's
/// write of it — exactly the serial interpreter's order per element.
///
/// An input that is the output's own run (same base, same offset) is
/// compiled to [`StepIn::Own`]: the loop reads element `k` from the
/// output's claimed `&mut` slice just before writing it, with no second
/// borrow of the same storage. That is exactly the alias (c) admits; the
/// single slice is what lets LLVM vectorise the loop (two pointers that
/// are equal fail its runtime overlap check).
fn compile_steps<'r>(
    roots: &'r [Option<ShardRoot<'r>>],
    instrs: &[FusedInstr],
) -> Vec<FusedStep<'r>> {
    instrs
        .iter()
        .map(|fi| {
            let compile = Compile { roots, fi };
            semantics::elementwise(fi.op, fi.in_dtype, fi.out_dtype, compile)
        })
        .collect()
}

/// Run `offset ..` of a base, through the run's root of it.
#[derive(Clone, Copy)]
struct Run<'r, T> {
    slice: &'r ShardSlice<'r, T>,
    offset: usize,
}

/// Input of a compiled fused step.
#[derive(Clone, Copy)]
enum StepIn<'r, T> {
    /// A run read at the same index as the output element.
    Run(Run<'r, T>),
    /// The output's own run (same base, same offset): read through the
    /// output's claimed slice, so the loop reads and writes through one
    /// slice.
    Own,
    /// Immediate constant, already cast to the operating dtype.
    Const(T),
}

/// Compiled `out[k] = f(a[k])`.
fn step1<'r, I: Element, O: Element>(
    out: Run<'r, O>,
    a: StepIn<'r, I>,
    f: impl Fn(I) -> O + Copy + Send + Sync + 'static,
) -> FusedStep<'r> {
    if let StepIn::Const(c) = a {
        return fill(out, f(c));
    }
    Box::new(move |lo, hi| {
        let Run { slice, offset } = out;
        // SAFETY: see `compile_steps`: this shard alone touches steps
        // `[lo, hi)` of the runs it writes, and nothing writes a run it
        // reads. An in-place input reads the output's own slice, and
        // then `I` is `O`, so `cast` is the identity.
        unsafe {
            slice.with_claim(offset + lo, offset + hi, |o| match a {
                StepIn::Run(a) => {
                    let a = a.slice.read_range(a.offset + lo, a.offset + hi);
                    for (o, &x) in o.iter_mut().zip(a) {
                        *o = f(x);
                    }
                }
                _ => o.iter_mut().for_each(|o| *o = f(o.cast())),
            })
        }
    })
}

/// Compiled `out[k] = v`.
fn fill<O: Element>(out: Run<'_, O>, v: O) -> FusedStep<'_> {
    Box::new(move |lo, hi| {
        let Run { slice, offset } = out;
        // SAFETY: as in `step1`.
        unsafe { slice.with_claim(offset + lo, offset + hi, |o| o.fill(v)) }
    })
}

/// Compiled `out[k] = f(a[k], b[k])`; a constant operand is bound into
/// the function of a [`step1`].
fn step2<'r, I: Element, O: Element>(
    out: Run<'r, O>,
    a: StepIn<'r, I>,
    b: StepIn<'r, I>,
    f: impl Fn(I, I) -> O + Copy + Send + Sync + 'static,
) -> FusedStep<'r> {
    match (a, b) {
        (StepIn::Const(x), b) => step1(out, b, move |y| f(x, y)),
        (a, StepIn::Const(y)) => step1(out, a, move |x| f(x, y)),
        (a, b) => Box::new(move |lo, hi| {
            let Run { slice, offset } = out;
            // SAFETY: as in `step1`.
            unsafe {
                slice.with_claim(offset + lo, offset + hi, |o| match (a, b) {
                    (StepIn::Run(a), StepIn::Run(b)) => {
                        let a = a.slice.read_range(a.offset + lo, a.offset + hi);
                        let b = b.slice.read_range(b.offset + lo, b.offset + hi);
                        for ((o, &x), &y) in o.iter_mut().zip(a).zip(b) {
                            *o = f(x, y);
                        }
                    }
                    (StepIn::Own, StepIn::Run(b)) => {
                        let b = b.slice.read_range(b.offset + lo, b.offset + hi);
                        for (o, &y) in o.iter_mut().zip(b) {
                            *o = f(o.cast(), y);
                        }
                    }
                    (StepIn::Run(a), StepIn::Own) => {
                        let a = a.slice.read_range(a.offset + lo, a.offset + hi);
                        for (o, &x) in o.iter_mut().zip(a) {
                            *o = f(x, o.cast());
                        }
                    }
                    _ => o.iter_mut().for_each(|o| {
                        let x = o.cast();
                        *o = f(x, x);
                    }),
                })
            }
        }),
    }
}

/// Compiles one element-wise instruction into a [`FusedStep`]
/// ([`compile_steps`]).
struct Compile<'r, 'f> {
    roots: &'r [Option<ShardRoot<'r>>],
    fi: &'f FusedInstr,
}

impl<'r> Compile<'r, '_> {
    /// The run at `offset` of `reg`, through the run's root of it.
    fn run<T: Element>(&self, reg: Reg, offset: usize) -> Run<'r, T> {
        let root = self.roots[reg.index()].as_ref();
        let slice = trusted(
            root.and_then(ShardRoot::get::<T>),
            "allocated and dtype matches decl",
        );
        Run { slice, offset }
    }

    /// Step input `i`: a constant, the output's own run, or another run.
    fn input<T: Element>(&self, i: usize) -> StepIn<'r, T> {
        let fi = self.fi;
        match fi.inputs[i] {
            FusedInput::Const(c) => StepIn::Const(c.cast(T::DTYPE).get::<T>()),
            FusedInput::Reg { reg, offset } if reg == fi.out && offset == fi.out_offset => {
                assert_eq!(
                    T::DTYPE,
                    fi.out_dtype,
                    "an in-place input has the output's dtype"
                );
                StepIn::Own
            }
            FusedInput::Reg { reg, offset } => StepIn::Run(self.run(reg, offset)),
        }
    }

    /// The output run.
    fn out<O: Element>(&self) -> Run<'r, O> {
        self.run(self.fi.out, self.fi.out_offset)
    }
}

impl<'r> Kernel for Compile<'r, '_> {
    type Out = FusedStep<'r>;

    fn map1<I: Element, O: Element>(
        self,
        f: impl Fn(I) -> O + Copy + Send + Sync + 'static,
    ) -> FusedStep<'r> {
        step1(self.out(), self.input(0), f)
    }

    fn map2<I: Element, O: Element>(
        self,
        f: impl Fn(I, I) -> O + Copy + Send + Sync + 'static,
    ) -> FusedStep<'r> {
        step2(self.out(), self.input(0), self.input(1), f)
    }
}

/// An interpreter operand, resolved and broadcast to the output's shape.
enum Resolved {
    View(Reg, ViewGeom),
    Const(Scalar),
}

/// Runs one element-wise byte-code on the strided interpreter
/// ([`Vm::exec_elementwise`]): classifies each operand as an
/// [`exec::Input`] of the operating dtype and calls the arity's kernel.
struct Interpret<'a> {
    /// The register slots; the output's own is empty while it runs.
    bases: &'a [Option<Buffer>],
    out: &'a mut Buffer,
    ov: &'a ViewGeom,
    out_reg: Reg,
    inputs: &'a [Resolved],
    /// Read every view of the output's own base from a copy.
    copy_own: bool,
}

impl<'a> Interpret<'a> {
    fn input<T: Element>(&self, operand: &Resolved) -> Input<'a, T> {
        match operand {
            Resolved::Const(c) => Input::Const(c.cast(T::DTYPE).get::<T>()),
            Resolved::View(reg, g) if *reg == self.out_reg => {
                let own = trusted(self.out.as_slice::<T>(), "buffer dtype matches decl");
                Input::own(own, g.clone(), self.ov, self.copy_own)
            }
            Resolved::View(reg, g) => {
                let base = self.bases[reg.index()]
                    .as_ref()
                    .and_then(Buffer::as_slice::<T>);
                let base = trusted(base, "input allocated and dtype matches decl");
                Input::Other(Cow::Borrowed(base), g.clone())
            }
        }
    }
}

impl Kernel for Interpret<'_> {
    type Out = ();

    fn map1<I: Element, O: Element>(self, f: impl Fn(I) -> O + Copy + Send + Sync + 'static) {
        let a = self.input::<I>(&self.inputs[0]);
        let out = self.out.as_mut_slice::<O>().expect("dtype matches decl");
        exec::map1(out, self.ov, a, f);
    }

    fn map2<I: Element, O: Element>(self, f: impl Fn(I, I) -> O + Copy + Send + Sync + 'static) {
        let a = self.input::<I>(&self.inputs[0]);
        let b = self.input::<I>(&self.inputs[1]);
        let out = self.out.as_mut_slice::<O>().expect("dtype matches decl");
        exec::map2(out, self.ov, a, b, f);
    }
}

/// A reduction or scan over strided views: the `bh_tensor` lane kernels,
/// sharded on `executor`. Returns the shard count.
struct ReduceScan<'a> {
    executor: &'a dyn RangeExecutor,
    scan: bool,
    out: &'a mut Buffer,
    ov: &'a ViewGeom,
    input: &'a Buffer,
    iv: &'a ViewGeom,
    axis: usize,
}

impl Fold for ReduceScan<'_> {
    type Out = usize;

    fn fold<T: Element>(self, init: T, f: impl Fn(T, T) -> T + Sync) -> usize {
        let out = self.out.as_mut_slice::<T>().expect("dtype matches decl");
        let input = trusted(self.input.as_slice::<T>(), "input is in the work dtype");
        let (executor, ov, iv, axis) = (self.executor, self.ov, self.iv, self.axis);
        if self.scan {
            kernels::par_scan_axis(executor, out, ov, input, iv, axis, f)
        } else {
            kernels::par_reduce_axis(executor, out, ov, input, iv, axis, init, f)
        }
    }
}

/// The chain and fold of a fused reduction group
/// ([`Vm::run_fused_reduce_group`]). Returns the shard count.
struct FusedReduce<'a> {
    executor: &'a dyn RangeExecutor,
    steps: &'a [FusedStep<'a>],
    /// The root of the reduction's input base, which the fold reads
    /// whole.
    input: &'a ShardRoot<'a>,
    out: &'a mut Buffer,
    out_offset: usize,
    nelem: usize,
    block: usize,
}

impl Fold for FusedReduce<'_> {
    type Out = usize;

    fn fold<T: Element>(self, init: T, f: impl Fn(T, T) -> T + Sync) -> usize {
        let (steps, nelem, block) = (self.steps, self.nelem, self.block);
        let src = trusted(self.input.get::<T>(), "dtype matches decl");
        let nblocks = nelem.div_ceil(kernels::REDUCE_BLOCK);
        let mut partials = vec![init; nblocks];
        let shared = ShardSlice::new(&mut partials);
        // The chain runs over each run of canonical blocks the fold is
        // about to read, in engine-block-sized chunks (element-wise, so
        // chunking cannot change values), and the fold reads it from cache.
        let chain = |lo: usize, hi: usize| {
            let mut b = lo;
            while b < hi {
                let e = (b + block).min(hi);
                for step in steps {
                    step.run(b, e);
                }
                b = e;
            }
        };
        // SAFETY: `k < nelem`, which the caller checked against the
        // input's length, and the chain finished writing element `k` in
        // this same shard (or never writes the input).
        let at = |k: usize| unsafe { src.read(k) };
        // SAFETY: partial slots are unique per canonical block, and blocks
        // are unique across disjoint shard ranges.
        let put = |b: usize, p: T| unsafe { shared.write(b, p) };
        // `lo` is a multiple of REDUCE_BLOCK (grain contract), so partial
        // boundaries are the canonical blocks regardless of sharding.
        let run = |lo: usize, hi: usize| kernels::fold_blocks(lo, hi, init, &f, chain, at, put);
        let shards = self.executor.run_ranges(nelem, kernels::REDUCE_BLOCK, &run);
        drop(shared);
        // Fixed-order combine: block order, never arrival order.
        let total = partials.into_iter().fold(init, f);
        let out = trusted(self.out.as_mut_slice::<T>(), "dtype matches decl");
        assert!(self.out_offset < out.len(), "view escapes buffer");
        out[self.out_offset] = total;
        shards
    }
}

/// Unwrap an `Option` the verifier proved is `Some`.
///
/// Programs only reach the execution hot path through a
/// [`bh_ir::VerifiedProgram`] witness (or after `Vm::run`'s own verify
/// call), so these invariants hold by construction. Debug builds assert
/// them loudly to catch verifier gaps; release builds fall through to a
/// cold panic naming the broken invariant — never undefined behaviour.
#[inline(always)]
#[track_caller]
fn trusted<T>(value: Option<T>, invariant: &'static str) -> T {
    debug_assert!(value.is_some(), "verifier invariant violated: {invariant}");
    match value {
        Some(v) => v,
        None => invariant_broken(invariant),
    }
}

#[cold]
#[inline(never)]
#[track_caller]
fn invariant_broken(invariant: &'static str) -> ! {
    panic!("verifier invariant violated: {invariant}")
}

/// The declaration of a caller-supplied register: `bind` and `read` take
/// a `Reg` no verifier has seen, so an undeclared one is an error, not a
/// panic.
fn declared(program: &Program, reg: Reg) -> Result<&BaseDecl, VmError> {
    program
        .bases()
        .get(reg.index())
        .ok_or_else(|| VmError::Register {
            reason: format!("register r{} is not declared by the program", reg.0),
        })
}

fn view_of(o: &Operand) -> &ViewRef {
    trusted(o.as_view(), "operand is a view")
}

/// `(m, k, n)` of `a @ b`. Orientation is positional, as in
/// `bh_linalg::matmul`: a rank-1 left operand is a `1 × k` row vector, a
/// rank-1 right operand a `k × 1` column vector.
fn matmul_dims(a: &Shape, b: &Shape) -> (usize, usize, usize) {
    let (m, k) = match a.rank() {
        1 => (1, a.dim(0)),
        _ => (a.dim(0), a.dim(1)),
    };
    let n = match b.rank() {
        1 => 1,
        _ => b.dim(1),
    };
    (m, k, n)
}

/// Write an owned tensor's elements into a view of a buffer.
fn write_tensor_into_view(buffer: &mut Buffer, geom: &ViewGeom, data: &Tensor) {
    debug_assert_eq!(geom.nelem(), data.nelem(), "view/tensor size mismatch");
    let dtype = buffer.dtype();
    let data = if data.dtype() == dtype {
        data.clone()
    } else {
        data.cast(dtype)
    };
    with_dtype!(dtype, T, {
        let src = data.as_slice::<T>().expect("cast above");
        let dst = buffer.as_mut_slice::<T>().expect("dtype of buffer");
        let mut i = 0usize;
        bh_tensor::kernels::zip_offsets([geom], |[o]| {
            assert!(o < dst.len(), "view escapes buffer");
            dst[o] = src[i];
            i += 1;
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VmPool;
    use bh_ir::parse_program;

    impl Vm {
        /// Bytes held in the stash.
        fn stash_bytes(&self) -> usize {
            self.stash.bytes()
        }
    }

    /// `y = x·x + 1` over 64 elements: `y` is VM-allocated, `x` bound.
    fn square_plus_one() -> Program {
        parse_program(
            ".base x f64[64] input\n.base y f64[64]\n\
             BH_MULTIPLY y x x\nBH_ADD y y 1\nBH_SYNC y\n",
        )
        .unwrap()
    }

    fn eval_y(vm: &mut Vm, p: &Program) -> Tensor {
        let x = Tensor::from_vec((0..64).map(f64::from).collect::<Vec<_>>());
        vm.bind_by_name(p, "x", &x).unwrap();
        vm.run(p).unwrap();
        vm.read_by_name(p, "y").unwrap()
    }

    fn storage(t: &Tensor) -> *const f64 {
        t.as_slice::<f64>().unwrap().as_ptr()
    }

    fn expected_y() -> Vec<f64> {
        (0..64).map(|i| f64::from(i * i + 1)).collect()
    }

    #[test]
    fn a_pooled_rerun_reuses_the_result_storage_the_caller_dropped() {
        let pool = VmPool::new(Engine::Fusing { block: 16 }, 1, 1);
        let p = square_plus_one();
        let first = eval_y(&mut pool.checkout(), &p);
        let storage_of_first = storage(&first);
        drop(first);
        let second = eval_y(&mut pool.checkout(), &p);
        assert_eq!(storage(&second), storage_of_first);
        assert_eq!(second.to_f64_vec(), expected_y());
    }

    #[test]
    fn a_result_the_caller_holds_is_never_reused() {
        let pool = VmPool::new(Engine::Fusing { block: 16 }, 1, 1);
        let p = square_plus_one();
        let held = eval_y(&mut pool.checkout(), &p);
        let second = eval_y(&mut pool.checkout(), &p);
        assert_ne!(storage(&second), storage(&held));
        assert_eq!(held.to_f64_vec(), expected_y());
        assert_eq!(second.to_f64_vec(), expected_y());
    }

    #[test]
    fn the_stash_never_exceeds_the_largest_single_run_footprint() {
        let program = |n: usize| {
            parse_program(&format!(
                ".base t f64[{n}]\n.base y f64[{n}]\n\
                 BH_IDENTITY t 1\nBH_ADD y t 2\nBH_SYNC y\n"
            ))
            .unwrap()
        };
        let small = program(1 << 20);
        let large = program(1 << 21);
        let footprint = |p: &Program| 2 * 8 * p.base(Reg(0)).shape.nelem();
        let mut vm = Vm::new();
        let mut peak_before = 0;
        for p in [&small, &small, &small, &large, &large, &large] {
            vm.run(p).unwrap();
            // While a run holds its bases the stash keeps only what fits
            // beside them: never more than max(earlier peak, this run).
            assert_eq!(vm.peak_bytes, peak_before.max(footprint(p)));
            assert!(vm.stash_bytes() + vm.held_bytes() <= vm.peak_bytes);
            if peak_before < footprint(p) && peak_before > 0 {
                // The small runs' storage matched nothing and did not fit
                // beside the first large run: dropped before it allocated.
                assert_eq!(vm.stash_bytes(), 0);
            }
            assert_eq!(vm.read(p, Reg(1)).unwrap().to_f64_vec()[..2], [3.0, 3.0]);
            vm.recycle();
            assert!(vm.stash_bytes() <= vm.peak_bytes);
            peak_before = vm.peak_bytes;
        }
        assert_eq!(vm.stash_bytes(), footprint(&large));
        vm.reset();
        assert_eq!(vm.stash_bytes(), 0);
    }

    #[test]
    fn exec_stats_are_identical_with_and_without_reuse() {
        let p = parse_program(
            ".base x f64[64] input\n.base y f64[64]\n.base s f64[]\n\
             BH_IDENTITY y [0:32:1] 5\nBH_ADD y y x\nBH_MULTIPLY y y 2\n\
             BH_ADD_REDUCE s y 0\nBH_SYNC y\nBH_SYNC s\n",
        )
        .unwrap();
        // A different program over same-shaped bases, leaving NaN behind.
        let mut poison = Program::new();
        for (name, len) in [("a", 64), ("b", 1)] {
            let reg = poison.declare(name, DType::Float64, Shape::vector(len));
            poison.push(Instruction::unary(
                Opcode::Identity,
                ViewRef::full(reg),
                Scalar::F64(f64::NAN),
            ));
        }
        for engine in [Engine::Naive, Engine::Fusing { block: 16 }] {
            let mut fresh = Vm::with_engine(engine);
            let fresh_y = eval_y(&mut fresh, &p);
            let mut reused = Vm::with_engine(engine);
            reused.run(&poison).unwrap();
            let poisoned = reused.read_by_name(&poison, "a").unwrap();
            let poisoned_storage = storage(&poisoned);
            drop(poisoned);
            reused.recycle();
            let reused_y = eval_y(&mut reused, &p);
            assert_eq!(storage(&reused_y), poisoned_storage, "{engine:?}");
            assert_eq!(reused_y, fresh_y, "{engine:?}");
            assert_eq!(
                reused.read_by_name(&p, "s").unwrap(),
                fresh.read_by_name(&p, "s").unwrap()
            );
            assert_eq!(reused.stats(), fresh.stats(), "{engine:?}");
        }
    }
}
