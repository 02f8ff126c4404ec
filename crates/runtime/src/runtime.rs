//! The unified runtime: optimise → plan → execute behind one handle.

use crate::cache::{EvalPlan, TransformCache};
use crate::stats::RuntimeStats;
use bh_ir::{Program, ProgramDigest, ProgramHandle};
use bh_observe::{DigestProfile, EvalSample, ProfileTable, TracePhase, TraceSink};
use bh_opt::{OptLevel, OptOptions, OptReport, Optimizer};
use bh_tensor::Tensor;
use bh_vm::{Engine, PooledVm, Vm, VmError, VmPool};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on pooled VMs kept for reuse across evaluations.
const VM_POOL_LIMIT: usize = 8;

/// Digests the per-digest profile table retains before evicting the
/// coldest.
const PROFILE_CAPACITY: usize = 1024;

/// What one evaluation did: the plan it ran (shared with the cache), the
/// VM counters it accumulated, and whether the rewrite fixpoint was
/// skipped. Returned alongside the tensor by [`Runtime::eval`] — this
/// replaces the old `last_report`/`last_stats` mutable-context API.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// The optimised plan that executed.
    pub plan: Arc<EvalPlan>,
    /// Execution counters for this evaluation only.
    pub exec: bh_vm::ExecStats,
    /// True when the plan came from the transformation cache.
    pub cache_hit: bool,
    /// Wall-clock time of this evaluation (bind → execute → read-back,
    /// excluding optimisation and queueing): the service time of this
    /// request. A serving layer's turnaround additionally includes queue
    /// wait, which says something about load, not about per-request cost.
    pub elapsed: Duration,
}

impl EvalOutcome {
    /// The optimisation report of the plan that ran (produced once, when
    /// the plan was first built — on a cache hit it describes the original
    /// transformation, not re-done work).
    pub fn report(&self) -> &bh_opt::OptReport {
        &self.plan.report
    }
}

/// The single entry point of the stack: owns the optimiser schedule, the
/// execution-engine configuration, the transformation cache and the
/// aggregated statistics. Thread-safe; share one behind an `Arc` across
/// as many recording contexts or request handlers as you like.
///
/// # Examples
///
/// ```
/// use bh_ir::parse_program;
/// use bh_runtime::Runtime;
///
/// let rt = Runtime::new();
/// let program = parse_program(
///     "BH_IDENTITY a0 [0:10:1] 0\n\
///      BH_ADD a0 a0 1\nBH_ADD a0 a0 1\nBH_ADD a0 a0 1\n\
///      BH_SYNC a0\n")?;
/// let reg = program.reg_by_name("a0").unwrap();
///
/// let (value, outcome) = rt.eval(&program, &[], reg)?;
/// assert_eq!(value.to_f64_vec(), vec![3.0; 10]);
/// assert!(!outcome.cache_hit);
///
/// // Same structure again: the rewrite fixpoint is skipped entirely.
/// let (_, outcome) = rt.eval(&program, &[], reg)?;
/// assert!(outcome.cache_hit);
/// assert_eq!(rt.stats().cache_hits, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Runtime {
    options: OptOptions,
    audit: bool,
    cache_capacity: usize,
    cache: Mutex<TransformCache>,
    stats: Mutex<RuntimeStats>,
    vm_pool: VmPool,
    profile: Option<Arc<ProfileTable>>,
    tracer: Option<Arc<dyn TraceSink>>,
}

impl Default for Runtime {
    fn default() -> Runtime {
        Runtime::builder().build()
    }
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("options", &self.options)
            .field("engine", &self.vm_pool.engine())
            .field("threads", &self.vm_pool.threads())
            .field("cached_plans", &self.cache.lock().len())
            .field("stats", &*self.stats.lock())
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// A runtime with the [`RuntimeBuilder`] defaults: O2 with fast-math,
    /// the fusing engine at a 4 096-element block, every plan compile
    /// audited.
    pub fn new() -> Runtime {
        Runtime::default()
    }

    /// Start configuring a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// The optimisation options applied to every plan.
    pub fn options(&self) -> &OptOptions {
        &self.options
    }

    /// The execution engine evaluations run on.
    pub fn engine(&self) -> Engine {
        self.vm_pool.engine()
    }

    /// Worker threads handed to each VM.
    pub fn threads(&self) -> usize {
        self.vm_pool.threads()
    }

    /// Configured capacity of the transformation cache (0 = disabled).
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// True when every plan compile is audited by the translation
    /// validator before entering the cache (see [`RuntimeBuilder::audit`]).
    pub fn audit(&self) -> bool {
        self.audit
    }

    /// The per-digest profile table, when profiling is enabled (the
    /// default). Serving layers use this to record queue-wait per digest
    /// and exporters render it via its `bh_observe::Collect` impl.
    pub fn profile_table(&self) -> Option<&Arc<ProfileTable>> {
        self.profile.as_ref()
    }

    /// The `k` hottest digests with their accumulated profiles — hit
    /// count, per-stage mean latencies, per-opcode execution totals.
    /// Empty when profiling was disabled at build time.
    ///
    /// # Examples
    ///
    /// ```
    /// use bh_ir::parse_program;
    /// use bh_observe::Stage;
    /// use bh_runtime::Runtime;
    ///
    /// let rt = Runtime::new();
    /// let program = parse_program(
    ///     "BH_IDENTITY a0 [0:10:1] 0\n\
    ///      BH_ADD a0 a0 1\nBH_ADD a0 a0 1\nBH_ADD a0 a0 1\n\
    ///      BH_SYNC a0\n")?;
    /// let reg = program.reg_by_name("a0").unwrap();
    /// for _ in 0..3 {
    ///     rt.eval(&program, &[], reg)?;
    /// }
    ///
    /// let top = rt.profile(10);
    /// assert_eq!(top.len(), 1);
    /// let hottest = &top[0];
    /// assert_eq!(hottest.hits, 3);
    /// assert_eq!(hottest.plan_builds, 1); // optimised + verified once
    /// assert!(hottest.mean_stage(Stage::Execute) > std::time::Duration::ZERO);
    /// // Per-opcode accounting: the optimised plan's census × hits.
    /// assert!(!hottest.opcode_totals().is_empty());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn profile(&self, k: usize) -> Vec<DigestProfile> {
        self.profile
            .as_ref()
            .map(|t| t.top_k(k))
            .unwrap_or_default()
    }

    /// The configured trace sink, if any.
    pub fn trace_sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.tracer.as_ref()
    }

    /// Emit a span event to the trace sink: one branch when tracing is
    /// disabled.
    #[inline]
    fn trace(&self, phase: TracePhase, stage: &'static str, fingerprint: u64) {
        if let Some(t) = &self.tracer {
            t.record(phase, stage, fingerprint, None);
        }
    }

    /// Run `f` inside a `stage` span. The `End` event is emitted before
    /// the caller sees `f`'s result, so a `?` on that result can never
    /// leave the span dangling in the flight recorder.
    #[inline]
    fn span<T>(&self, stage: &'static str, fingerprint: u64, f: impl FnOnce() -> T) -> T {
        self.trace(TracePhase::Begin, stage, fingerprint);
        let out = f();
        self.trace(TracePhase::End, stage, fingerprint);
        out
    }

    /// Snapshot of the aggregated counters.
    pub fn stats(&self) -> RuntimeStats {
        *self.stats.lock()
    }

    /// Zero the aggregated counters (the cache is untouched).
    pub fn reset_stats(&self) {
        *self.stats.lock() = RuntimeStats::new();
    }

    /// Number of optimised plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.lock().len()
    }

    /// Whether a plan for `digest` is resident in the cache. A probe, not
    /// a lookup: it counts neither a hit nor a miss and leaves the LRU
    /// order alone. A resident plan was verified when it was built, so a
    /// resident digest cannot fail [`Runtime::prepare`]; `bh-serve`
    /// admission skips its own verification on that basis.
    pub fn has_plan(&self, digest: &ProgramDigest) -> bool {
        self.cache.lock().contains(digest)
    }

    /// Drop every cached plan (counters are untouched).
    pub fn clear_cache(&self) {
        self.cache.lock().clear();
    }

    /// Optimise `program` into an executable plan — or fetch the plan the
    /// cache already holds for a structurally identical program. The
    /// returned flag is true on a cache hit.
    ///
    /// The plan is verified once here and the [`bh_ir::Verified`] witness
    /// is stored in the cache; execution takes the trusted
    /// [`bh_vm::Vm::run_verified`] path with zero re-verification, like a
    /// byte-code verifier running at load time rather than per run
    /// ([`RuntimeStats::verifications`] counts how often this actually
    /// happened).
    ///
    /// # Errors
    ///
    /// [`VmError::Invalid`] when an operand names an undeclared register
    /// or the optimised program fails verification.
    pub fn prepare(&self, program: &Program) -> Result<(Arc<EvalPlan>, bool), VmError> {
        self.prepare_keyed(program, &program.structural_digest())
    }

    /// [`Runtime::prepare`] for a caller that already holds the program's
    /// structural digest in a [`ProgramHandle`], so the program is not
    /// encoded again: a serving layer digests each request once, at
    /// submission, and prepares its batch with that handle. A hit costs
    /// one hash-keyed probe and, on a hash match, one compare of the
    /// encodings. The handle computed its digest from its own program, so
    /// the plan is always filed under that program's key.
    ///
    /// # Errors
    ///
    /// As [`Runtime::prepare`].
    pub fn prepare_digested(
        &self,
        handle: &ProgramHandle,
    ) -> Result<(Arc<EvalPlan>, bool), VmError> {
        self.prepare_keyed(handle.program(), handle.digest())
    }

    /// The body of [`Runtime::prepare`]; `digest` is `program`'s.
    fn prepare_keyed(
        &self,
        program: &Program,
        digest: &ProgramDigest,
    ) -> Result<(Arc<EvalPlan>, bool), VmError> {
        // Bind the lookup to a local so the cache guard drops *here*, not
        // at the end of the `if let` body.
        let cached = self.cache.lock().get(digest);
        if let Some(plan) = cached {
            self.stats.lock().cache_hits += 1;
            return Ok((plan, true));
        }
        // The rules index bases by register: an operand naming an
        // undeclared one is the verifier's V103 here, not a panic inside a
        // rule. The full verify runs once, on the optimised plan below.
        if let Err(errors) = bh_ir::verify_registers(program) {
            let mut stats = self.stats.lock();
            stats.cache_misses += 1;
            stats.verifications += 1;
            return Err(VmError::Invalid(errors));
        }
        // Optimise outside the cache lock: a concurrent miss on the same
        // digest duplicates work once, but never blocks other digests.
        let fingerprint = digest.fingerprint();
        let mut optimised = program.clone();
        let (mut report, opt_elapsed) = self.span("optimise", fingerprint, || {
            let begun = Instant::now();
            let report = Optimizer::new(self.options.clone()).run(&mut optimised);
            (report, begun.elapsed())
        });
        // Whole-plan translation validation: prove the optimised plan
        // observationally equivalent to its source before it can enter
        // the cache. One-sided — an unproven plan is not necessarily
        // wrong, so the runtime degrades gracefully by serving the
        // unoptimised source instead of failing the request.
        if self.audit {
            let equiv = self.options.equiv_options();
            let proved = self.span("audit", fingerprint, || {
                bh_ir::check_equiv(program, &optimised, &equiv).is_ok()
            });
            {
                let mut stats = self.stats.lock();
                if proved {
                    stats.audits.passed += 1;
                } else {
                    stats.audits.failed += 1;
                    stats.audits.rolled_back += 1;
                }
            }
            if !proved {
                optimised = program.clone();
                // An honest report for the plan that will actually run
                // (zero rewrites), instead of one describing discarded
                // work.
                report = OptReport::untransformed();
            }
        }
        {
            // Record the miss before verification can bail: the optimiser
            // *did* run, and an invalid program re-fed forever should show
            // up as misses on a dashboard, not as a free 100% hit rate.
            // `verifications` counts alongside — verification runs exactly
            // once per miss and never on a hit, which is what the
            // checked-once claim means operationally.
            let mut stats = self.stats.lock();
            stats.cache_misses += 1;
            stats.verifications += 1;
            stats.rules_fired += report.total_applications() as u64;
            stats.opt_iterations += report.iterations as u64;
        }
        let (verified, verify_elapsed) = self.span("verify", fingerprint, || {
            let begun = Instant::now();
            let verified = bh_ir::verify_owned(optimised).map_err(|(_, e)| VmError::Invalid(e))?;
            Ok::<_, VmError>((verified, begun.elapsed()))
        })?;
        let plan = Arc::new(EvalPlan::new(verified, report, fingerprint));
        if let Some(table) = &self.profile {
            table.record_plan_build(
                fingerprint,
                opt_elapsed,
                verify_elapsed,
                &plan.opcode_census,
            );
        }
        let plan = self.cache.lock().insert(digest.clone(), plan);
        Ok((plan, false))
    }

    /// Optimise (or fetch) and execute `program`, binding `bindings`
    /// (register → input tensor) first, and read back `result`.
    ///
    /// # Errors
    ///
    /// Validation failures of the optimised program, binding mismatches,
    /// or execution failures.
    pub fn eval(
        &self,
        program: &Program,
        bindings: &[(bh_ir::Reg, Tensor)],
        result: bh_ir::Reg,
    ) -> Result<(Tensor, EvalOutcome), VmError> {
        let (outcome, value) = self.run_plan(program, bindings, Some(result))?;
        Ok((value.expect("result register requested"), outcome))
    }

    /// Optimise (or fetch) and execute `program` without reading a result
    /// — the old `Context::flush` shape.
    ///
    /// # Errors
    ///
    /// As [`Runtime::eval`].
    pub fn execute(
        &self,
        program: &Program,
        bindings: &[(bh_ir::Reg, Tensor)],
    ) -> Result<EvalOutcome, VmError> {
        let (outcome, _) = self.run_plan(program, bindings, None)?;
        Ok(outcome)
    }

    fn run_plan(
        &self,
        program: &Program,
        bindings: &[(bh_ir::Reg, Tensor)],
        result: Option<bh_ir::Reg>,
    ) -> Result<(EvalOutcome, Option<Tensor>), VmError> {
        let (plan, cache_hit) = self.prepare(program)?;
        let mut vm = self.lease_vm();
        let (value, outcome) = self.eval_prepared(&plan, &mut vm, bindings, result, cache_hit)?;
        Ok((outcome, value))
    }

    /// Check a clean, correctly configured VM out of the runtime's pool.
    /// Dropping the guard recycles it back in. A serving layer pins one
    /// lease per micro-batch so the checkout amortises over the batch;
    /// the VM's recycled storage is reused across leases and plans alike
    /// (DESIGN.md §7).
    pub fn lease_vm(&self) -> PooledVm<'_> {
        self.vm_pool.checkout()
    }

    /// Execute an already-prepared plan on a caller-held VM: the
    /// batched-serving hot path. Skips the digest computation, the cache
    /// lookup *and* the per-eval VM checkout that [`Runtime::eval`] pays;
    /// the plan carries the [`bh_ir::Verified`] witness minted when it
    /// was built, so execution takes [`bh_vm::Vm::run_verified`]'s
    /// trusted path.
    ///
    /// The VM is **not** recycled by this call: a second call on the same
    /// VM starts from the registers the first left behind. Call
    /// [`Vm::recycle`] between requests, as the serve batcher does; the
    /// next run then reuses the VM's storage without observing any of it
    /// (DESIGN.md §7).
    ///
    /// `cache_hit` is recorded on the returned [`EvalOutcome`] (pass the
    /// flag [`Runtime::prepare`] returned, or `true` when re-running a
    /// held plan).
    ///
    /// # Errors
    ///
    /// Binding mismatches or execution failures. On error the VM may hold
    /// partial state; recycle it before reuse.
    pub fn eval_prepared(
        &self,
        plan: &Arc<EvalPlan>,
        vm: &mut Vm,
        bindings: &[(bh_ir::Reg, Tensor)],
        result: Option<bh_ir::Reg>,
        cache_hit: bool,
    ) -> Result<(Option<Tensor>, EvalOutcome), VmError> {
        let fingerprint = plan.source_fingerprint;
        // Stage splits cost two extra clock reads per eval and only when
        // profiling is on; the disabled path is the seed's, unchanged.
        let profiling = self.profile.is_some();
        let before = *vm.stats();
        let (begun, bound_at) = self.span("bind", fingerprint, || {
            let begun = Instant::now();
            for (reg, tensor) in bindings {
                vm.bind(&plan.program, *reg, tensor)?;
            }
            Ok::<_, VmError>((begun, profiling.then(Instant::now)))
        })?;
        // The plan carries its verification witness from build time, so
        // this is the trusted path: zero verify/validate calls per eval.
        let ran_at = self.span("execute", fingerprint, || {
            vm.run_verified(plan.program.as_verified())?;
            Ok::<_, VmError>(profiling.then(Instant::now))
        })?;
        let (value, elapsed) = self.span("read_back", fingerprint, || {
            let value = result.map(|reg| vm.read(&plan.program, reg)).transpose()?;
            Ok::<_, VmError>((value, begun.elapsed()))
        })?;
        let exec = vm.stats().since(&before);
        {
            let mut stats = self.stats.lock();
            stats.evals += 1;
            stats.exec += exec;
            stats.eval_nanos += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        }
        if let Some(table) = &self.profile {
            let total = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            let bind = bound_at
                .map(|t| t.duration_since(begun))
                .unwrap_or_default();
            let execute = match (bound_at, ran_at) {
                (Some(b), Some(r)) => r.duration_since(b),
                _ => Duration::ZERO,
            };
            let bind_nanos = u64::try_from(bind.as_nanos()).unwrap_or(u64::MAX);
            let execute_nanos = u64::try_from(execute.as_nanos()).unwrap_or(u64::MAX);
            table.record_eval(
                fingerprint,
                &EvalSample {
                    bind_nanos,
                    execute_nanos,
                    read_back_nanos: total.saturating_sub(bind_nanos.saturating_add(execute_nanos)),
                    exec,
                },
                &plan.opcode_census,
            );
        }
        let outcome = EvalOutcome {
            plan: Arc::clone(plan),
            exec,
            cache_hit,
            elapsed,
        };
        Ok((value, outcome))
    }
}

/// Configures and builds a [`Runtime`].
///
/// The defaults are the measured configuration: the fusing engine at a
/// 4 096-element block (`Engine::Fusing { block: 4096 }`), every plan
/// compile audited, the VM worker pool sized to the host, a 256-entry
/// plan cache and the profile table on.
///
/// # Examples
///
/// ```
/// use bh_opt::OptLevel;
/// use bh_runtime::Runtime;
/// use bh_vm::Engine;
///
/// let rt = Runtime::builder()
///     .opt_level(OptLevel::O2)
///     .engine(Engine::Fusing { block: 4096 })
///     .threads(4)
///     .cache_capacity(512)
///     .build_shared();
/// assert_eq!(rt.threads(), 4);
/// ```
pub struct RuntimeBuilder {
    options: OptOptions,
    engine: Engine,
    threads: usize,
    cache_capacity: usize,
    profiling: bool,
    tracer: Option<Arc<dyn TraceSink>>,
    audit: bool,
}

impl Default for RuntimeBuilder {
    fn default() -> RuntimeBuilder {
        RuntimeBuilder {
            options: OptOptions::default(),
            engine: Engine::default(),
            threads: default_threads(),
            cache_capacity: 256,
            profiling: true,
            tracer: None,
            audit: true,
        }
    }
}

/// Default VM worker-thread count: every core the host grants us
/// (`std::thread::available_parallelism`), so large element-wise
/// operations and fused groups stream on all cores out of the box.
/// Falls back to 1 when the parallelism query fails.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl fmt::Debug for RuntimeBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuntimeBuilder")
            .field("options", &self.options)
            .field("engine", &self.engine)
            .field("threads", &self.threads)
            .field("cache_capacity", &self.cache_capacity)
            .field("profiling", &self.profiling)
            .field("has_tracer", &self.tracer.is_some())
            .field("audit", &self.audit)
            .finish()
    }
}

impl RuntimeBuilder {
    /// Replace the full optimisation options.
    pub fn options(mut self, options: OptOptions) -> RuntimeBuilder {
        self.options = options;
        self
    }

    /// Set just the optimisation level.
    pub fn opt_level(mut self, level: OptLevel) -> RuntimeBuilder {
        self.options.level = level;
        self
    }

    /// Select the execution engine for every evaluation (default
    /// `Engine::Fusing { block: 4096 }`).
    pub fn engine(mut self, engine: Engine) -> RuntimeBuilder {
        self.engine = engine;
        self
    }

    /// Worker threads per VM for large element-wise operations and fused
    /// groups. Defaults to [`std::thread::available_parallelism`]; the
    /// runtime owns **one** persistent worker pool shared by every pooled
    /// VM, so concurrent evaluations never over-subscribe the host.
    /// Values are clamped to at least 1; `1` disables parallelism.
    pub fn threads(mut self, threads: usize) -> RuntimeBuilder {
        self.threads = threads.max(1);
        self
    }

    /// Plans kept in the transformation cache (0 disables caching).
    pub fn cache_capacity(mut self, capacity: usize) -> RuntimeBuilder {
        self.cache_capacity = capacity;
        self
    }

    /// Enable or disable the per-digest profile table (enabled by
    /// default). Disabling removes even the profiler's two extra clock
    /// reads from the eval path.
    pub fn profiling(mut self, enabled: bool) -> RuntimeBuilder {
        self.profiling = enabled;
        self
    }

    /// Install a request-lifecycle trace sink (e.g.
    /// [`bh_observe::RingTraceSink::shared`]). Tracing is off by default
    /// and costs one branch per span point when disabled.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> RuntimeBuilder {
        self.tracer = Some(sink);
        self
    }

    /// Audit every plan compile with the translation validator
    /// ([`bh_ir::check_equiv`]) before the plan can enter the cache (on
    /// by default).
    ///
    /// The audit proves the optimised plan observationally equivalent to
    /// the recorded source under the configured rewrite policy (strict
    /// math audits strictly; see DESIGN.md §15). It runs exactly once
    /// per cache miss and **never** on the eval path, so with auditing
    /// on the invariant `stats.audits.total() == cache_misses` holds.
    ///
    /// The check is one-sided: it may fail to prove a sound rewrite, but
    /// never blesses an unsound one. An unproven plan is not served —
    /// the runtime rolls back to the unoptimised source program
    /// ([`crate::AuditCounters::rolled_back`]) and the request succeeds
    /// at reduced optimisation strength.
    pub fn audit(mut self, enabled: bool) -> RuntimeBuilder {
        self.audit = enabled;
        self
    }

    /// Build the runtime.
    pub fn build(self) -> Runtime {
        Runtime {
            options: self.options,
            audit: self.audit,
            cache_capacity: self.cache_capacity,
            cache: Mutex::new(TransformCache::new(self.cache_capacity)),
            stats: Mutex::new(RuntimeStats::new()),
            vm_pool: VmPool::new(self.engine, self.threads, VM_POOL_LIMIT),
            profile: self
                .profiling
                .then(|| Arc::new(ProfileTable::new(PROFILE_CAPACITY))),
            tracer: self.tracer,
        }
    }

    /// Build the runtime already wrapped for sharing across contexts and
    /// threads.
    pub fn build_shared(self) -> Arc<Runtime> {
        Arc::new(self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::parse_program;
    use bh_tensor::{DType, Shape, Tensor};

    fn listing2() -> Program {
        parse_program(
            "BH_IDENTITY a0 [0:10:1] 0\n\
             BH_ADD a0 a0 1\nBH_ADD a0 a0 1\nBH_ADD a0 a0 1\n\
             BH_SYNC a0\n",
        )
        .unwrap()
    }

    #[test]
    fn second_eval_hits_the_cache_and_matches() {
        let rt = Runtime::new();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        let (v1, o1) = rt.eval(&p, &[], reg).unwrap();
        let (v2, o2) = rt.eval(&p, &[], reg).unwrap();
        assert_eq!(v1, v2);
        assert!(!o1.cache_hit);
        assert!(o2.cache_hit);
        assert!(Arc::ptr_eq(&o1.plan, &o2.plan));
        let stats = rt.stats();
        assert_eq!(stats.evals, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        // The fixpoint ran exactly once.
        assert_eq!(stats.rules_fired, o1.report().total_applications() as u64);
    }

    #[test]
    fn renamed_registers_share_a_plan() {
        let rt = Runtime::new();
        let p = listing2();
        let q = parse_program(
            "BH_IDENTITY z [0:10:1] 0\n\
             BH_ADD z z 1\nBH_ADD z z 1\nBH_ADD z z 1\n\
             BH_SYNC z\n",
        )
        .unwrap();
        rt.eval(&p, &[], p.reg_by_name("a0").unwrap()).unwrap();
        let (v, o) = rt.eval(&q, &[], q.reg_by_name("z").unwrap()).unwrap();
        assert!(o.cache_hit);
        assert_eq!(v.to_f64_vec(), vec![3.0; 10]);
    }

    #[test]
    fn a_handle_prepares_under_its_own_digest() {
        let rt = Runtime::new();
        let handle = ProgramHandle::new(listing2());
        let (built, hit) = rt.prepare_digested(&handle).unwrap();
        assert!(!hit);
        assert!(rt.has_plan(handle.digest()));
        let (plan, hit) = rt.prepare(&listing2()).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&built, &plan));
        assert!(rt.prepare_digested(&handle).unwrap().1);
    }

    #[test]
    fn each_runtime_optimises_under_its_own_level() {
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        let o2_rt = Runtime::new();
        let o0_rt = Runtime::builder().opt_level(OptLevel::O0).build();
        let (_, o2) = o2_rt.eval(&p, &[], reg).unwrap();
        let (_, o0) = o0_rt.eval(&p, &[], reg).unwrap();
        assert!(!o2.cache_hit);
        assert!(!o0.cache_hit);
        assert_eq!((o2_rt.cached_plans(), o0_rt.cached_plans()), (1, 1));
        // O0 kept all three adds; O2 merged them.
        assert!(o0.plan.program.instrs().len() > o2.plan.program.instrs().len());
    }

    #[test]
    fn the_residency_probe_counts_nothing_and_keeps_the_lru_order() {
        let rt = Runtime::builder().cache_capacity(2).build();
        let program =
            |n: usize| parse_program(&format!("BH_IDENTITY a [0:{n}:1] 1\nBH_SYNC a\n")).unwrap();
        let (a, b, c) = (program(1), program(2), program(3));
        rt.prepare(&a).unwrap();
        rt.prepare(&b).unwrap();
        let before = rt.stats();
        assert!(rt.has_plan(&a.structural_digest()));
        assert!(!rt.has_plan(&c.structural_digest()));
        assert_eq!(rt.stats(), before, "a probe is neither a hit nor a miss");
        // The probe did not refresh `a`: it is still the stalest entry,
        // so `c` evicts it rather than `b`.
        rt.prepare(&c).unwrap();
        assert!(!rt.has_plan(&a.structural_digest()));
        assert!(rt.has_plan(&b.structural_digest()));
        assert!(rt.has_plan(&c.structural_digest()));
    }

    #[test]
    fn bindings_feed_input_registers() {
        let rt = Runtime::new();
        let p = parse_program(".base x f64[4] input\n.base y f64[4]\nBH_ADD y x 1\nBH_SYNC y\n")
            .unwrap();
        let x = p.reg_by_name("x").unwrap();
        let y = p.reg_by_name("y").unwrap();
        let input = Tensor::from_vec(vec![1.0f64, 2.0, 3.0, 4.0]);
        let (v, _) = rt.eval(&p, &[(x, input)], y).unwrap();
        assert_eq!(v.to_f64_vec(), vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn outcomes_carry_service_time() {
        let rt = Runtime::new();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        let (_, o1) = rt.eval(&p, &[], reg).unwrap();
        let (_, o2) = rt.eval(&p, &[], reg).unwrap();
        assert!(o1.elapsed > Duration::ZERO);
        let stats = rt.stats();
        assert_eq!(
            stats.eval_nanos,
            (o1.elapsed.as_nanos() + o2.elapsed.as_nanos()) as u64
        );
        assert!(stats.mean_eval_time() > Duration::ZERO);
        assert!(stats.eval_time() >= stats.mean_eval_time());
    }

    #[test]
    fn execute_runs_without_reading() {
        let rt = Runtime::new();
        let outcome = rt.execute(&listing2(), &[]).unwrap();
        assert!(!outcome.cache_hit);
        assert!(outcome.exec.kernels > 0);
        assert_eq!(rt.stats().evals, 1);
    }

    /// Every stage the sink saw has as many `End` events as `Begin`s.
    fn assert_spans_balanced(sink: &bh_observe::RingTraceSink, expect_stages: &[&str]) {
        let events = sink.events();
        for stage in expect_stages {
            assert!(events.iter().any(|e| e.stage == *stage), "no {stage} span");
        }
        for e in &events {
            let count = |phase| {
                events
                    .iter()
                    .filter(|o| o.stage == e.stage && o.phase == phase)
                    .count()
            };
            assert_eq!(
                count(TracePhase::Begin),
                count(TracePhase::End),
                "dangling {} span",
                e.stage
            );
        }
    }

    #[test]
    fn invalid_program_is_rejected_at_prepare() {
        let sink = bh_observe::RingTraceSink::shared(64);
        let rt = Runtime::builder()
            .opt_level(OptLevel::O0)
            .trace_sink(sink.clone() as Arc<dyn TraceSink>)
            .build();
        // Reads a never-written register; at O0 nothing rewrites the read
        // away, so plan validation must reject it (at O2 dead-code
        // elimination would legitimately leave an empty, valid plan).
        let p = parse_program("BH_ADD a0 [0:4:1] a0 [0:4:1] 1\n").unwrap();
        assert!(matches!(rt.prepare(&p), Err(VmError::Invalid(_))));
        assert_eq!(rt.cached_plans(), 0);
        // The optimiser ran even though verification failed: that's a miss.
        assert_eq!(rt.stats().cache_misses, 1);
        assert_eq!(rt.stats().verifications, 1);
        // The failed verification closed its span before propagating.
        assert_spans_balanced(&sink, &["optimise", "verify"]);
    }

    #[test]
    fn an_undeclared_register_is_rejected_before_the_rules_run() {
        let mut p = listing2();
        // The second add reads a register no base declares; the rules
        // index bases by register.
        p.instrs_mut()[2].operands[1] = bh_ir::ViewRef::full(bh_ir::Reg(7)).into();
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let rt = Runtime::builder().opt_level(level).build();
            match rt.prepare(&p) {
                Err(VmError::Invalid(errors)) => assert!(
                    errors.iter().all(|e| e.code == bh_ir::VerifyCode::BadView),
                    "{errors:?}"
                ),
                other => panic!("{level:?}: expected V103, got {other:?}"),
            }
            assert_eq!(rt.cached_plans(), 0);
            let stats = rt.stats();
            assert_eq!((stats.cache_misses, stats.verifications), (1, 1));
        }
    }

    #[test]
    fn eval_errors_close_their_spans() {
        let sink = bh_observe::RingTraceSink::shared(64);
        let rt = Runtime::builder()
            .trace_sink(sink.clone() as Arc<dyn TraceSink>)
            .build();
        let p = parse_program(".base x f64[4] input\n.base y f64[4]\nBH_ADD y x 1\nBH_SYNC y\n")
            .unwrap();
        let x = p.reg_by_name("x").unwrap();
        let y = p.reg_by_name("y").unwrap();
        // Binding mismatch: five elements into a four-element base.
        let wrong = Tensor::from_vec(vec![0.0f64; 5]);
        assert!(rt.eval(&p, &[(x, wrong)], y).is_err());
        assert_spans_balanced(&sink, &["bind"]);
        // Execution failure: inverting an all-zero (unbound) matrix.
        let q =
            parse_program(".base a f64[2,2] input\n.base t f64[2,2]\nBH_INVERSE t a\nBH_SYNC t\n")
                .unwrap();
        let t = q.reg_by_name("t").unwrap();
        assert!(matches!(rt.eval(&q, &[], t), Err(VmError::Linalg(_))));
        assert_spans_balanced(&sink, &["bind", "execute"]);
    }

    #[test]
    fn verification_runs_once_then_never_on_the_eval_path() {
        let rt = Runtime::new();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        // Cold prepare: exactly one verification.
        let (plan, hit) = rt.prepare(&p).unwrap();
        assert!(!hit);
        assert_eq!(rt.stats().verifications, 1);
        // Cache-hit prepares and full evals: the counter must not move —
        // the eval path performs zero verify/validate calls after a hit.
        for _ in 0..5 {
            let (_, hit) = rt.prepare(&p).unwrap();
            assert!(hit);
            rt.eval(&p, &[], reg).unwrap();
        }
        // The pinned-VM hot path trusts the witness too.
        let mut vm = rt.lease_vm();
        for _ in 0..5 {
            rt.eval_prepared(&plan, &mut vm, &[], Some(reg), true)
                .unwrap();
        }
        let stats = rt.stats();
        assert_eq!(stats.verifications, 1);
        assert_eq!(stats.evals, 10);
    }

    #[test]
    fn fusing_engine_runtime_fuses() {
        let rt = Runtime::builder()
            .engine(Engine::Fusing { block: 128 })
            .build();
        let p = parse_program(
            "BH_IDENTITY a0 [0:1000:1] 1\nBH_ADD a0 a0 2\nBH_MULTIPLY a0 a0 a0\nBH_SYNC a0\n",
        )
        .unwrap();
        let (v, o) = rt.eval(&p, &[], p.reg_by_name("a0").unwrap()).unwrap();
        assert_eq!(v.to_f64_vec()[0], 9.0);
        assert!(o.exec.fused_groups >= 1);
    }

    #[test]
    fn vm_pool_recycles_without_leaking_state() {
        let rt = Runtime::new();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        for _ in 0..(VM_POOL_LIMIT + 3) {
            let (v, _) = rt.eval(&p, &[], reg).unwrap();
            assert_eq!(v.to_f64_vec(), vec![3.0; 10]);
        }
        assert!(rt.vm_pool.idle() <= VM_POOL_LIMIT);
        // A different program through the same pooled VMs still computes
        // correctly (no stale bindings).
        let q = parse_program("BH_IDENTITY b [0:4:1] 7\nBH_SYNC b\n").unwrap();
        let (v, _) = rt.eval(&q, &[], q.reg_by_name("b").unwrap()).unwrap();
        assert_eq!(v.to_f64_vec(), vec![7.0; 4]);
    }

    #[test]
    fn shared_runtime_is_thread_safe() {
        let rt = Runtime::builder().build_shared();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let rt = Arc::clone(&rt);
                let p = p.clone();
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let (v, _) = rt.eval(&p, &[], reg).unwrap();
                        assert_eq!(v.to_f64_vec(), vec![3.0; 10]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = rt.stats();
        assert_eq!(stats.evals, 80);
        // At most a couple of racing misses; everything else hit.
        assert!(stats.cache_hits >= 78 - stats.cache_misses, "{stats}");
        assert_eq!(rt.cached_plans(), 1);
    }

    #[test]
    fn builder_knobs_are_applied() {
        let rt = Runtime::builder()
            .options(OptOptions::level(OptLevel::O1).strict_math())
            .threads(3)
            .cache_capacity(7)
            .build();
        assert_eq!(rt.options().level, OptLevel::O1);
        assert!(!rt.options().ctx.fast_math);
        assert_eq!(rt.threads(), 3);
        let _ = Shape::vector(1);
        let _ = DType::Float64;
    }

    #[test]
    fn eval_prepared_on_a_pinned_vm_matches_eval() {
        let rt = Runtime::new();
        let p = parse_program(".base x f64[4] input\n.base y f64[4]\nBH_ADD y x 1\nBH_SYNC y\n")
            .unwrap();
        let x = p.reg_by_name("x").unwrap();
        let y = p.reg_by_name("y").unwrap();
        let (plan, hit) = rt.prepare(&p).unwrap();
        assert!(!hit);
        let mut vm = rt.lease_vm();
        // A whole batch back-to-back on one pinned VM, rebinding inputs.
        for i in 0..5 {
            let input = Tensor::from_vec(vec![i as f64; 4]);
            let (v, o) = rt
                .eval_prepared(&plan, &mut vm, &[(x, input)], Some(y), true)
                .unwrap();
            assert_eq!(v.unwrap().to_f64_vec(), vec![i as f64 + 1.0; 4]);
            assert!(o.cache_hit);
            // Per-run deltas, not accumulated totals.
            assert_eq!(o.exec.syncs, 1);
        }
        assert_eq!(rt.stats().evals, 5);
        // The prepared path never re-ran the optimiser.
        assert_eq!(rt.stats().cache_misses, 1);
    }

    #[test]
    fn eval_prepared_binds_cow_inputs_without_copying() {
        let rt = Runtime::new();
        let p = parse_program(".base x f64[8] input\nBH_SYNC x\n").unwrap();
        let x = p.reg_by_name("x").unwrap();
        let (plan, _) = rt.prepare(&p).unwrap();
        let input = Tensor::from_vec(vec![2.5f64; 8]);
        let mut vm = rt.lease_vm();
        let (v, _) = rt
            .eval_prepared(&plan, &mut vm, &[(x, input.clone())], Some(x), true)
            .unwrap();
        // Bind and read-back are O(1) Arc bumps: the result still shares
        // the caller's allocation.
        assert!(v.unwrap().shares_storage_with(&input));
    }

    #[test]
    fn profiling_records_stage_latencies_and_opcode_totals() {
        use bh_observe::Stage;
        let rt = Runtime::new();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        for _ in 0..4 {
            rt.eval(&p, &[], reg).unwrap();
        }
        let top = rt.profile(8);
        assert_eq!(top.len(), 1);
        let prof = &top[0];
        assert_eq!(prof.hits, 4);
        assert_eq!(prof.plan_builds, 1);
        // Optimise/verify sampled once (the miss); eval stages 4 times.
        assert_eq!(prof.stages.get(Stage::Optimise).count(), 1);
        assert_eq!(prof.stages.get(Stage::Verify).count(), 1);
        assert_eq!(prof.stages.get(Stage::Execute).count(), 4);
        assert_eq!(prof.stages.get(Stage::ReadBack).count(), 4);
        // Queue wait is the serving layer's to record, not the runtime's.
        assert_eq!(prof.stages.get(Stage::QueueWait).count(), 0);
        // The census matches the optimised plan, and totals scale by hits.
        let per_eval: u64 = prof.opcodes_per_eval.iter().map(|&(_, n)| n).sum();
        let (plan, _) = rt.prepare(&p).unwrap();
        assert_eq!(per_eval as usize, plan.program.instrs().len());
        assert_eq!(
            prof.opcode_totals().iter().map(|&(_, n)| n).sum::<u64>(),
            per_eval * 4
        );
        // Analytic exec counters aggregate exactly: 4 identical evals.
        assert_eq!(prof.exec.instructions % 4, 0);
    }

    #[test]
    fn disabling_profiling_empties_the_signal() {
        let rt = Runtime::builder().profiling(false).build();
        let p = listing2();
        rt.eval(&p, &[], p.reg_by_name("a0").unwrap()).unwrap();
        assert!(rt.profile_table().is_none());
        assert!(rt.profile(8).is_empty());
    }

    #[test]
    fn trace_sink_sees_span_pairs_for_every_stage() {
        use bh_observe::{RingTraceSink, TracePhase};
        let sink = RingTraceSink::shared(64);
        let rt = Runtime::builder()
            .trace_sink(sink.clone() as Arc<dyn bh_observe::TraceSink>)
            .build();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        rt.eval(&p, &[], reg).unwrap(); // miss: optimise + verify + eval
        rt.eval(&p, &[], reg).unwrap(); // hit: eval stages only
        let events = sink.events();
        let count = |stage: &str, phase: TracePhase| {
            events
                .iter()
                .filter(|e| e.stage == stage && e.phase == phase)
                .count()
        };
        for stage in ["optimise", "verify"] {
            assert_eq!(count(stage, TracePhase::Begin), 1, "{stage}");
            assert_eq!(count(stage, TracePhase::End), 1, "{stage}");
        }
        for stage in ["bind", "execute", "read_back"] {
            assert_eq!(count(stage, TracePhase::Begin), 2, "{stage}");
            assert_eq!(count(stage, TracePhase::End), 2, "{stage}");
        }
        // Every event carries the plan's fingerprint.
        let (plan, _) = rt.prepare(&p).unwrap();
        assert!(events
            .iter()
            .all(|e| e.fingerprint == plan.source_fingerprint));
        assert!(!sink.dump().is_empty());
    }

    #[test]
    fn audit_runs_once_per_compile_never_per_eval() {
        let rt = Runtime::builder().audit(true).build();
        assert!(rt.audit());
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        for _ in 0..6 {
            let (v, _) = rt.eval(&p, &[], reg).unwrap();
            assert_eq!(v.to_f64_vec(), vec![3.0; 10]);
        }
        let stats = rt.stats();
        assert_eq!(stats.cache_misses, 1);
        // The invariant: one audit per plan compile, zero per eval.
        assert_eq!(stats.audits.total(), stats.cache_misses);
        assert_eq!(stats.audits.passed, 1);
        assert_eq!(stats.audits.failed, 0);
        assert_eq!(stats.audits.rolled_back, 0);
    }

    #[test]
    fn audit_traces_a_span_per_compile() {
        use bh_observe::{RingTraceSink, TracePhase};
        let sink = RingTraceSink::shared(64);
        let rt = Runtime::builder()
            .audit(true)
            .trace_sink(sink.clone() as Arc<dyn bh_observe::TraceSink>)
            .build();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        rt.eval(&p, &[], reg).unwrap(); // miss: audited
        rt.eval(&p, &[], reg).unwrap(); // hit: no audit span
        let events = sink.events();
        let audits = |phase| {
            events
                .iter()
                .filter(|e| e.stage == "audit" && e.phase == phase)
                .count()
        };
        assert_eq!(audits(TracePhase::Begin), 1);
        assert_eq!(audits(TracePhase::End), 1);
    }

    #[test]
    fn disabled_audit_never_counts() {
        let rt = Runtime::builder().audit(false).build();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        rt.eval(&p, &[], reg).unwrap();
        assert!(!rt.audit());
        assert_eq!(rt.stats().audits, crate::AuditCounters::default());
    }

    #[test]
    fn clear_cache_forces_reoptimisation() {
        let rt = Runtime::new();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        rt.eval(&p, &[], reg).unwrap();
        assert_eq!(rt.cached_plans(), 1);
        rt.clear_cache();
        assert_eq!(rt.cached_plans(), 0);
        let (_, o) = rt.eval(&p, &[], reg).unwrap();
        assert!(!o.cache_hit);
        assert_eq!(rt.stats().cache_misses, 2);
    }
}
