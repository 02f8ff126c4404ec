//! The unified runtime: optimise → plan → execute behind one handle.

use crate::cache::{opcode_census, CacheKey, EvalPlan, TransformCache};
use crate::persist;
use crate::stats::RuntimeStats;
use bh_ir::Program;
use bh_observe::{DigestProfile, EvalSample, ProfileTable, Tier, TracePhase, TraceSink};
use bh_opt::{OptLevel, OptOptions, OptReport, Optimizer, RewriteCtx};
use bh_tensor::Tensor;
use bh_vm::{Engine, PooledVm, Vm, VmError, VmPool};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Observer invoked after every evaluation, for metrics export.
pub type StatsSink = Arc<dyn Fn(&EvalOutcome) + Send + Sync>;

/// Upper bound on pooled VMs kept for reuse across evaluations.
const VM_POOL_LIMIT: usize = 8;

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
    /// excluding optimisation and queueing). This is the service-time
    /// signal a latency-SLO control loop should consume — a serving
    /// layer's turnaround additionally includes queue wait, which says
    /// something about load, not about per-request cost.
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
    // Cache and stats sit behind `Arc` so a background promotion job can
    // outlive the borrow of `&self` that spawned it (the job holds its
    // own handles; the runtime handle may even be dropped mid-flight).
    cache: Arc<Mutex<TransformCache>>,
    stats: Arc<Mutex<RuntimeStats>>,
    vm_pool: VmPool,
    sink: Option<StatsSink>,
    profile: Option<Arc<ProfileTable>>,
    tracer: Option<Arc<dyn TraceSink>>,
    tiered: bool,
    promote_after: u64,
    background_promotion: bool,
    pending_promotions: Arc<AtomicU64>,
    persist_path: Option<std::path::PathBuf>,
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
    /// A runtime with Bohrium's defaults (O2, fast-math, naive engine).
    pub fn new() -> Runtime {
        Runtime::default()
    }

    /// Start configuring a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// The optimisation options applied to every plan (unless overridden
    /// per call with [`Runtime::eval_with`]).
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

    /// True when this runtime compiles cache misses through the cheap
    /// tier-0 pipeline and promotes hot digests (see
    /// [`RuntimeBuilder::tiered`]).
    pub fn tiered(&self) -> bool {
        self.tiered
    }

    /// Fresh per-entry hits after which a tier-0 plan is promoted
    /// (meaningful only when [`Runtime::tiered`] is true).
    pub fn promote_after(&self) -> u64 {
        self.promote_after
    }

    /// True when every plan compile is audited by the translation
    /// validator before entering the cache (see [`RuntimeBuilder::audit`]).
    pub fn audit(&self) -> bool {
        self.audit
    }

    /// Background promotions currently in flight (always 0 in synchronous
    /// mode). Tests and graceful-shutdown paths can spin on this reaching
    /// zero to quiesce the promotion thread(s).
    pub fn pending_promotions(&self) -> u64 {
        self.pending_promotions.load(Ordering::SeqCst)
    }

    /// The configured per-eval observer, if any (shareable; lets a
    /// rebuilt runtime keep reporting to the same sink).
    pub fn stats_sink(&self) -> Option<StatsSink> {
        self.sink.clone()
    }

    /// The per-digest profile table, when profiling is enabled (the
    /// default). Serving layers use this to record queue-wait per digest
    /// and exporters render it via its `bh_observe::Collect` impl.
    pub fn profile_table(&self) -> Option<&Arc<ProfileTable>> {
        self.profile.as_ref()
    }

    /// The `k` hottest digests with their accumulated profiles — hit
    /// count, per-stage mean latencies, per-opcode execution totals.
    /// Empty when profiling was disabled at build time. This is the
    /// hotness signal a tiered, profile-guided optimisation policy
    /// consumes.
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

    /// The snapshot path plans persist to, when configured (see
    /// [`RuntimeBuilder::persist_path`]).
    pub fn persist_path(&self) -> Option<&std::path::Path> {
        self.persist_path.as_deref()
    }

    /// Snapshot the transformation cache to the configured
    /// [`RuntimeBuilder::persist_path`] now, atomically (temp file +
    /// rename). Returns the number of plans written; `Ok(0)` without
    /// touching disk when no path is configured. Also runs automatically
    /// when the runtime is dropped, so an orderly shutdown needs no
    /// explicit call — use this for periodic checkpoints.
    ///
    /// Only entries built under the runtime's own options are written:
    /// ad-hoc [`Runtime::eval_with`] plans would re-load as rejects
    /// (their options fingerprint can never match), so they are not
    /// worth the bytes.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating, writing, syncing or renaming the
    /// snapshot file.
    pub fn persist(&self) -> std::io::Result<usize> {
        let Some(path) = &self.persist_path else {
            return Ok(0);
        };
        let entries: Vec<_> = self
            .cache
            .lock()
            .entries()
            .into_iter()
            .filter(|(key, _)| key.options == self.options)
            .collect();
        persist::write_snapshot(path, &entries)
    }

    /// Warm-start from the configured snapshot, if any. Every entry is
    /// re-validated from scratch — decoded fail-closed, source and plan
    /// re-verified, digest recomputed, equivalence re-proven — before
    /// insertion; failures count as [`RuntimeStats::warm_rejects`] and
    /// are dropped. Audit counters are deliberately untouched: the
    /// `audits.total() == cache_misses + promotions` invariant is about
    /// plans this process compiled, and warm loads are neither.
    fn load_persisted(&self) {
        let Some(path) = &self.persist_path else {
            return;
        };
        for blob in persist::read_containers(path) {
            match persist::revalidate(&blob, &self.options, self.tiered) {
                Some((key, plan)) => {
                    let fingerprint = key.digest.fingerprint();
                    let tier = {
                        let mut cache = self.cache.lock();
                        cache.insert(key, plan, 0).tier
                    };
                    if let Some(table) = &self.profile {
                        table.set_tier(fingerprint, tier);
                    }
                    self.stats.lock().warm_loads += 1;
                }
                None => self.stats.lock().warm_rejects += 1,
            }
        }
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
    /// [`VmError::Invalid`] when the optimised program fails verification.
    pub fn prepare(&self, program: &Program) -> Result<(Arc<EvalPlan>, bool), VmError> {
        self.prepare_with(program, &self.options)
    }

    /// [`Runtime::prepare`] under explicit options (cached separately per
    /// options value, so callers can mix levels on one runtime).
    ///
    /// On a tiered runtime ([`RuntimeBuilder::tiered`]) a miss compiles
    /// through the cheap tier-0 pipeline instead of `options` as given,
    /// and a hit on a tier-0 plan consults the promotion policy — which
    /// may re-optimise at full strength, re-verify, and swap the
    /// stronger plan into the cache before returning it.
    ///
    /// # Errors
    ///
    /// [`VmError::Invalid`] when the optimised program fails verification.
    pub fn prepare_with(
        &self,
        program: &Program,
        options: &OptOptions,
    ) -> Result<(Arc<EvalPlan>, bool), VmError> {
        let digest = program.structural_digest();
        let key = CacheKey {
            digest,
            options: options.clone(),
        };
        // Bind the lookup to a local so the cache guard drops *here*: the
        // promotion path below re-locks the cache, and `if let` on the
        // temporary would hold the guard across the whole body.
        let cached = self.cache.lock().get(&key);
        if let Some(plan) = cached {
            self.stats.lock().cache_hits += 1;
            if self.tiered && plan.tier == Tier::Tier0 {
                if let Some(promoted) = self.maybe_promote(&key, program) {
                    return Ok((promoted, true));
                }
            }
            return Ok((plan, true));
        }
        // Optimise outside the cache lock: a concurrent miss on the same
        // key duplicates work once, but never blocks other keys.
        let fingerprint = key.digest.fingerprint();
        let (build_options, tier) = if self.tiered {
            (tier0_options(options), Tier::Tier0)
        } else {
            (options.clone(), Tier::Tier2)
        };
        let equiv_options = self.audit.then(|| build_options.equiv_options());
        let cost_params = build_options.cost_params;
        let mut optimised = program.clone();
        self.trace(TracePhase::Begin, "optimise", fingerprint);
        let opt_begun = Instant::now();
        let mut report = Optimizer::new(build_options).run(&mut optimised);
        let opt_elapsed = opt_begun.elapsed();
        self.trace(TracePhase::End, "optimise", fingerprint);
        // Whole-plan translation validation: prove the optimised plan
        // observationally equivalent to its source before it can enter
        // the cache. One-sided — an unproven plan is not necessarily
        // wrong, so the runtime degrades gracefully by serving the
        // unoptimised source instead of failing the request.
        if let Some(equiv) = equiv_options {
            self.trace(TracePhase::Begin, "audit", fingerprint);
            let proved = bh_ir::check_equiv(program, &optimised, &equiv).is_ok();
            self.trace(TracePhase::End, "audit", fingerprint);
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
                report = OptReport::untransformed(&optimised, &cost_params);
            }
        }
        // The promotion baseline: hits the digest already has *before*
        // this entry goes live. Non-zero means an earlier incarnation was
        // evicted — its hotness must not count towards promoting this one.
        let baseline_hits = if self.tiered {
            self.profile.as_ref().map_or(0, |t| t.hits(fingerprint))
        } else {
            0
        };
        {
            // Record the miss before verification can bail: the optimiser
            // *did* run, and an invalid program re-fed forever should show
            // up as misses on a dashboard, not as a free 100% hit rate.
            // `verifications` counts alongside — verification runs exactly
            // once per tier compile and never on a hit, which is what the
            // checked-once claim means operationally.
            let mut stats = self.stats.lock();
            stats.cache_misses += 1;
            stats.verifications += 1;
            stats.rules_fired += report.total_applications() as u64;
            stats.opt_iterations += report.iterations as u64;
            if self.tiered {
                stats.tiers.tier0_builds += 1;
                if baseline_hits > 0 {
                    stats.tiers.rebaselines += 1;
                }
            }
        }
        let census = opcode_census(&optimised);
        self.trace(TracePhase::Begin, "verify", fingerprint);
        let verify_begun = Instant::now();
        let verified = bh_ir::verify_owned(optimised).map_err(|(_, e)| VmError::Invalid(e))?;
        let verify_elapsed = verify_begun.elapsed();
        self.trace(TracePhase::End, "verify", fingerprint);
        if let Some(table) = &self.profile {
            table.record_plan_build(fingerprint, opt_elapsed, verify_elapsed, &census);
        }
        let plan = Arc::new(EvalPlan {
            program: verified,
            report,
            source_fingerprint: fingerprint,
            opcode_census: census,
            tier,
            source: Arc::new(program.clone()),
        });
        let plan = {
            let mut cache = self.cache.lock();
            let plan = cache.insert(key, plan, baseline_hits);
            // The live-tier gauge is written under the cache lock, with
            // the *surviving* plan's tier: a build that lost the insert
            // race (or raced a completed promotion) reports the winner's
            // tier, never its own stale one. Lock order is always
            // cache → profile stripe; no path nests them the other way.
            if let Some(table) = &self.profile {
                table.set_tier(fingerprint, plan.tier);
            }
            plan
        };
        Ok((plan, false))
    }

    /// The promotion policy, consulted on every cache hit of a tier-0
    /// plan. Reads the digest's ProfileTable hotness and, when the entry
    /// has earned [`Runtime::promote_after`] hits since its own insertion,
    /// claims the (exactly-once) promotion and runs it — inline by
    /// default, or on a detached thread when
    /// [`RuntimeBuilder::background_promotion`] is on. Returns the
    /// promoted plan when it went live synchronously.
    fn maybe_promote(&self, key: &CacheKey, program: &Program) -> Option<Arc<EvalPlan>> {
        let profile = self.profile.as_ref()?;
        let hits = profile.hits(key.digest.fingerprint());
        if !self
            .cache
            .lock()
            .try_claim_promotion(key, hits, self.promote_after)
        {
            return None;
        }
        let options = tier2_options(&key.options);
        let job = PromotionJob {
            cache: Arc::clone(&self.cache),
            stats: Arc::clone(&self.stats),
            profile: Some(Arc::clone(profile)),
            tracer: self.tracer.clone(),
            key: key.clone(),
            program: program.clone(),
            audit: self.audit.then(|| options.equiv_options()),
            options,
        };
        if self.background_promotion {
            let pending = Arc::clone(&self.pending_promotions);
            pending.fetch_add(1, Ordering::SeqCst);
            std::thread::spawn(move || {
                job.run();
                pending.fetch_sub(1, Ordering::SeqCst);
            });
            None
        } else {
            job.run()
        }
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
        self.eval_with(program, bindings, result, &self.options)
    }

    /// [`Runtime::eval`] under explicit options.
    ///
    /// # Errors
    ///
    /// As [`Runtime::eval`].
    pub fn eval_with(
        &self,
        program: &Program,
        bindings: &[(bh_ir::Reg, Tensor)],
        result: bh_ir::Reg,
        options: &OptOptions,
    ) -> Result<(Tensor, EvalOutcome), VmError> {
        let (outcome, value) = self.run_plan(program, bindings, Some(result), options)?;
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
        let (outcome, _) = self.run_plan(program, bindings, None, &self.options)?;
        Ok(outcome)
    }

    fn run_plan(
        &self,
        program: &Program,
        bindings: &[(bh_ir::Reg, Tensor)],
        result: Option<bh_ir::Reg>,
        options: &OptOptions,
    ) -> Result<(EvalOutcome, Option<Tensor>), VmError> {
        let (plan, cache_hit) = self.prepare_with(program, options)?;
        let mut vm = self.lease_vm();
        let (value, outcome) = self.eval_prepared(&plan, &mut vm, bindings, result, cache_hit)?;
        Ok((outcome, value))
    }

    /// Check a clean, correctly configured VM out of the runtime's pool.
    /// Dropping the guard recycles it back in. A serving layer pins one
    /// lease per micro-batch so the VM's base-slot table — and, across
    /// same-plan runs, its base buffers — amortise over the batch.
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
    /// The VM is **not** recycled, so back-to-back calls with the *same*
    /// plan reuse its base buffers. That reuse is only observation-free
    /// when `bh_ir::analysis::rerun_safe(&plan.program)` holds **and**
    /// every base declared `input` appears in `bindings` (rebinding
    /// replaces the buffer wholesale); otherwise — and always when
    /// switching plans — call [`Vm::recycle`] between runs. The serve
    /// batcher checks exactly these two conditions per request (see
    /// DESIGN.md §7).
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
        self.trace(TracePhase::Begin, "bind", fingerprint);
        let begun = Instant::now();
        for (reg, tensor) in bindings {
            vm.bind(&plan.program, *reg, tensor)?;
        }
        let bound_at = if profiling {
            Some(Instant::now())
        } else {
            None
        };
        self.trace(TracePhase::End, "bind", fingerprint);
        self.trace(TracePhase::Begin, "execute", fingerprint);
        // The plan carries its verification witness from build time, so
        // this is the trusted path: zero verify/validate calls per eval.
        vm.run_verified(plan.program.as_verified())?;
        let ran_at = if profiling {
            Some(Instant::now())
        } else {
            None
        };
        self.trace(TracePhase::End, "execute", fingerprint);
        self.trace(TracePhase::Begin, "read_back", fingerprint);
        let value = match result {
            Some(reg) => Some(vm.read(&plan.program, reg)?),
            None => None,
        };
        let elapsed = begun.elapsed();
        self.trace(TracePhase::End, "read_back", fingerprint);
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
        if let Some(sink) = &self.sink {
            sink(&outcome);
        }
        Ok((value, outcome))
    }
}

impl Drop for Runtime {
    /// Snapshot-on-drain: an orderly shutdown writes the hot plans to
    /// the configured [`RuntimeBuilder::persist_path`] so the next
    /// process warm-starts instead of re-optimising the morning rush.
    /// Best-effort — a failing disk must not turn shutdown into a panic.
    fn drop(&mut self) {
        if self.persist_path.is_some() {
            let _ = self.persist();
        }
    }
}

/// The cheap first-compile pipeline of a tiered runtime: optimisation
/// level [`OptLevel::O0`] (empty rule schedule) and a single fixpoint
/// sweep — the time between a cache miss and the first execution is
/// essentially parse + verify.
fn tier0_options(base: &OptOptions) -> OptOptions {
    let mut options = base.clone();
    options.level = OptLevel::O0;
    options.max_iterations = 1;
    options
}

/// Full-strength promotion options: the *requested* level and rewrite
/// knobs (promotion must never change the semantics the caller chose,
/// e.g. strict-math), with the fixpoint budget raised so the hot digest
/// gets every rewrite the schedule can reach.
fn tier2_options(base: &OptOptions) -> OptOptions {
    let mut options = base.clone();
    options.max_iterations = options
        .max_iterations
        .max(2 * OptOptions::default().max_iterations);
    options
}

/// Emit a span event when tracing is configured (free-function twin of
/// [`Runtime::trace`] for code that runs detached from `&Runtime`).
#[inline]
fn trace_to(
    tracer: &Option<Arc<dyn TraceSink>>,
    phase: TracePhase,
    stage: &'static str,
    fingerprint: u64,
) {
    if let Some(t) = tracer {
        t.record(phase, stage, fingerprint, None);
    }
}

/// One claimed promotion: re-optimise the source program at full
/// strength, re-verify, and swap the result into the cache. Owns `Arc`
/// handles to everything it touches so it can run inline *or* on a
/// detached thread — even one that outlives the `Runtime` handle.
struct PromotionJob {
    cache: Arc<Mutex<TransformCache>>,
    stats: Arc<Mutex<RuntimeStats>>,
    profile: Option<Arc<ProfileTable>>,
    tracer: Option<Arc<dyn TraceSink>>,
    key: CacheKey,
    program: Program,
    /// Audit the re-optimised plan before the swap (`Some` mirrors the
    /// runtime's [`RuntimeBuilder::audit`] knob).
    audit: Option<bh_ir::EquivOptions>,
    /// Tier-2 build options (see [`tier2_options`]).
    options: OptOptions,
}

impl PromotionJob {
    /// Run the promotion to completion. Returns the promoted plan when it
    /// was swapped live; `None` when re-verification failed (the tier-0
    /// plan stays live and stays claimed — re-verifying the same
    /// deterministic optimiser output would fail again, so the digest is
    /// never retried) or when the entry was evicted before the swap
    /// landed (the stale result is dropped; a re-inserted entry starts a
    /// fresh lifecycle).
    fn run(self) -> Option<Arc<EvalPlan>> {
        let fingerprint = self.key.digest.fingerprint();
        trace_to(&self.tracer, TracePhase::Begin, "promote", fingerprint);
        // Kept whole so the promoted plan stays self-contained: the audit
        // (when on) and the plan's persistable `source` both need it.
        let source = Arc::new(self.program);
        let cost_params = self.options.cost_params;
        let mut optimised = (*source).clone();
        trace_to(&self.tracer, TracePhase::Begin, "optimise", fingerprint);
        let opt_begun = Instant::now();
        let mut report = Optimizer::new(self.options).run(&mut optimised);
        let opt_elapsed = opt_begun.elapsed();
        trace_to(&self.tracer, TracePhase::End, "optimise", fingerprint);
        // Same whole-plan audit as the miss path: the promoted plan gets
        // exactly one audit per tier compile. An unproven tier-2 plan is
        // rolled back to the source program — equivalent in content to
        // the tier-0 plan it replaces, and the digest is never retried
        // (the deterministic optimiser would produce the same plan).
        if let Some(equiv) = &self.audit {
            trace_to(&self.tracer, TracePhase::Begin, "audit", fingerprint);
            let proved = bh_ir::check_equiv(&source, &optimised, equiv).is_ok();
            trace_to(&self.tracer, TracePhase::End, "audit", fingerprint);
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
                optimised = (*source).clone();
                report = OptReport::untransformed(&optimised, &cost_params);
            }
        }
        {
            let mut stats = self.stats.lock();
            stats.verifications += 1;
            stats.rules_fired += report.total_applications() as u64;
            stats.opt_iterations += report.iterations as u64;
        }
        let census = opcode_census(&optimised);
        trace_to(&self.tracer, TracePhase::Begin, "verify", fingerprint);
        let verify_begun = Instant::now();
        let verified = match bh_ir::verify_owned(optimised) {
            Ok(v) => v,
            Err(_) => {
                // Soundness gate: a plan that fails re-verification never
                // reaches the unchecked hot path. Keep serving tier-0.
                trace_to(&self.tracer, TracePhase::End, "verify", fingerprint);
                trace_to(&self.tracer, TracePhase::End, "promote", fingerprint);
                self.stats.lock().tiers.failed_promotions += 1;
                return None;
            }
        };
        let verify_elapsed = verify_begun.elapsed();
        trace_to(&self.tracer, TracePhase::End, "verify", fingerprint);
        if let Some(table) = &self.profile {
            table.record_plan_build(fingerprint, opt_elapsed, verify_elapsed, &census);
        }
        let plan = Arc::new(EvalPlan {
            program: verified,
            report,
            source_fingerprint: fingerprint,
            opcode_census: census,
            tier: Tier::Tier2,
            source,
        });
        let installed = {
            let mut cache = self.cache.lock();
            let installed = cache.install_promoted(&self.key, Arc::clone(&plan));
            // Report tier-2 live only if the swap actually landed, and
            // under the cache lock so the gauge stays ordered with the
            // transition (a dropped stale swap must not claim tier-2).
            if installed {
                if let Some(table) = &self.profile {
                    table.set_tier(fingerprint, Tier::Tier2);
                }
            }
            installed
        };
        {
            let mut stats = self.stats.lock();
            if installed {
                stats.tiers.promotions += 1;
            } else {
                stats.tiers.failed_promotions += 1;
            }
        }
        trace_to(&self.tracer, TracePhase::End, "promote", fingerprint);
        installed.then_some(plan)
    }
}

/// Configures and builds a [`Runtime`].
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
    sink: Option<StatsSink>,
    profiling: bool,
    profile_capacity: usize,
    tracer: Option<Arc<dyn TraceSink>>,
    tiered: bool,
    promote_after: u64,
    background_promotion: bool,
    audit: bool,
    persist_path: Option<std::path::PathBuf>,
}

impl Default for RuntimeBuilder {
    fn default() -> RuntimeBuilder {
        RuntimeBuilder {
            options: OptOptions::default(),
            engine: Engine::Naive,
            threads: default_threads(),
            cache_capacity: 256,
            sink: None,
            profiling: true,
            profile_capacity: 1024,
            tracer: None,
            tiered: false,
            promote_after: DEFAULT_PROMOTE_AFTER,
            background_promotion: false,
            audit: false,
            persist_path: None,
        }
    }
}

/// Default promotion threshold: fresh per-entry hits before a tier-0
/// plan is re-optimised at full strength. 32 keeps one-shot and churn
/// digests on the cheap pipeline while a digest served every few seconds
/// still promotes within its first minutes of life.
pub const DEFAULT_PROMOTE_AFTER: u64 = 32;

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
            .field("has_sink", &self.sink.is_some())
            .field("profiling", &self.profiling)
            .field("profile_capacity", &self.profile_capacity)
            .field("has_tracer", &self.tracer.is_some())
            .field("tiered", &self.tiered)
            .field("promote_after", &self.promote_after)
            .field("background_promotion", &self.background_promotion)
            .field("audit", &self.audit)
            .field("persist_path", &self.persist_path)
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

    /// Replace the rewrite-context knobs (fast-math policy, expansion
    /// budget, observability).
    pub fn rewrite_ctx(mut self, ctx: RewriteCtx) -> RuntimeBuilder {
        self.options.ctx = ctx;
        self
    }

    /// Strict IEEE float semantics (no re-associating rewrites on floats).
    pub fn strict_math(mut self) -> RuntimeBuilder {
        self.options.ctx.fast_math = false;
        self
    }

    /// Select the execution engine for every evaluation.
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

    /// Observer called after every evaluation with its [`EvalOutcome`]
    /// (metrics export, logging).
    pub fn stats_sink(
        mut self,
        sink: impl Fn(&EvalOutcome) + Send + Sync + 'static,
    ) -> RuntimeBuilder {
        self.sink = Some(Arc::new(sink));
        self
    }

    /// Install an already-shared observer (e.g. one taken from another
    /// runtime via [`Runtime::stats_sink`]).
    pub fn stats_sink_shared(mut self, sink: StatsSink) -> RuntimeBuilder {
        self.sink = Some(sink);
        self
    }

    /// Enable or disable the per-digest profile table (enabled by
    /// default). Disabling removes even the profiler's two extra clock
    /// reads from the eval path.
    pub fn profiling(mut self, enabled: bool) -> RuntimeBuilder {
        self.profiling = enabled;
        self
    }

    /// Digests the profile table retains before evicting the coldest
    /// (default 1024; clamped to at least one per lock stripe).
    pub fn profile_capacity(mut self, capacity: usize) -> RuntimeBuilder {
        self.profile_capacity = capacity;
        self
    }

    /// Install a request-lifecycle trace sink (e.g.
    /// [`bh_observe::RingTraceSink::shared`]). Tracing is off by default
    /// and costs one branch per span point when disabled.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> RuntimeBuilder {
        self.tracer = Some(sink);
        self
    }

    /// Enable tiered, profile-guided optimisation (off by default).
    ///
    /// When on, cache misses compile through the cheap tier-0 pipeline
    /// (`O0`, one sweep) for low first-eval latency; digests that earn
    /// [`RuntimeBuilder::promote_after`] hits are re-optimised at full
    /// strength, re-verified, and atomically swapped into the cache
    /// (DESIGN.md §14). Implies profiling: the ProfileTable is the
    /// hotness signal, so `tiered(true)` overrides `profiling(false)`.
    pub fn tiered(mut self, enabled: bool) -> RuntimeBuilder {
        self.tiered = enabled;
        self
    }

    /// Fresh per-entry hits after which a tier-0 plan is promoted
    /// (default [`DEFAULT_PROMOTE_AFTER`]; clamped to at least 1 — a
    /// plan must prove *some* reuse before the fixpoint is worth paying).
    /// Hits recorded before the entry was inserted — e.g. by an earlier
    /// incarnation that the LRU evicted — never count.
    pub fn promote_after(mut self, hits: u64) -> RuntimeBuilder {
        self.promote_after = hits.max(1);
        self
    }

    /// Run promotions on a detached background thread instead of inline
    /// on the triggering `prepare` call (off by default). Inline
    /// promotion hands the promoted plan straight to the caller that
    /// crossed the threshold; background promotion keeps that caller on
    /// the tier-0 plan and swaps the stronger plan in for *later* evals —
    /// trading one eval of freshness for zero added latency on the
    /// serving path. [`Runtime::pending_promotions`] exposes in-flight
    /// jobs for quiescing.
    pub fn background_promotion(mut self, enabled: bool) -> RuntimeBuilder {
        self.background_promotion = enabled;
        self
    }

    /// Audit every plan compile with the translation validator
    /// ([`bh_ir::check_equiv`]) before the plan can enter the cache (off
    /// by default).
    ///
    /// The audit proves the optimised plan observationally equivalent to
    /// the recorded source under the configured rewrite policy (strict
    /// math audits strictly; see DESIGN.md §15). It runs exactly once
    /// per tier compile — once per cache miss, plus once more when a
    /// tiered runtime promotes a hot digest — and **never** on the eval
    /// path, so with auditing on the invariant
    /// `stats.audits.total() == cache_misses + tiers.promotions` holds.
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

    /// Persist the transformation cache across process lifetimes: load a
    /// snapshot from `path` at build time (warm start) and write one
    /// back on drop and on explicit [`Runtime::persist`] calls.
    ///
    /// A missing or unreadable snapshot is a silent cold start. Every
    /// loaded plan is re-verified and re-proven equivalent to its source
    /// before it can serve ([`RuntimeStats::warm_loads`] /
    /// [`RuntimeStats::warm_rejects`] count the outcomes) — the file is
    /// a cache, never a trust anchor.
    pub fn persist_path(mut self, path: impl Into<std::path::PathBuf>) -> RuntimeBuilder {
        self.persist_path = Some(path.into());
        self
    }

    /// Build the runtime.
    pub fn build(self) -> Runtime {
        // Tiering consumes the ProfileTable's hotness signal, so a tiered
        // runtime always profiles regardless of the `profiling` knob.
        let profiling = self.profiling || self.tiered;
        let runtime = Runtime {
            options: self.options,
            audit: self.audit,
            cache_capacity: self.cache_capacity,
            cache: Arc::new(Mutex::new(TransformCache::new(self.cache_capacity))),
            stats: Arc::new(Mutex::new(RuntimeStats::new())),
            vm_pool: VmPool::new(self.engine, self.threads, VM_POOL_LIMIT),
            sink: self.sink,
            profile: profiling.then(|| Arc::new(ProfileTable::new(self.profile_capacity))),
            tracer: self.tracer,
            tiered: self.tiered,
            promote_after: self.promote_after,
            background_promotion: self.background_promotion,
            pending_promotions: Arc::new(AtomicU64::new(0)),
            persist_path: self.persist_path,
        };
        runtime.load_persisted();
        runtime
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
    fn options_fingerprints_partition_the_cache() {
        let rt = Runtime::new();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        let (_, o2) = rt.eval(&p, &[], reg).unwrap();
        let (_, o0) = rt
            .eval_with(&p, &[], reg, &OptOptions::level(OptLevel::O0))
            .unwrap();
        assert!(!o2.cache_hit);
        assert!(!o0.cache_hit);
        assert_eq!(rt.cached_plans(), 2);
        // O0 kept all three adds; O2 merged them.
        assert!(o0.plan.program.instrs().len() > o2.plan.program.instrs().len());
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

    #[test]
    fn invalid_program_is_rejected_at_prepare() {
        let rt = Runtime::new();
        // Reads a never-written register; at O0 nothing rewrites the read
        // away, so plan validation must reject it (at O2 dead-code
        // elimination would legitimately leave an empty, valid plan).
        let p = parse_program("BH_ADD a0 [0:4:1] a0 [0:4:1] 1\n").unwrap();
        let o0 = OptOptions::level(OptLevel::O0);
        assert!(matches!(rt.prepare_with(&p, &o0), Err(VmError::Invalid(_))));
        assert_eq!(rt.cached_plans(), 0);
        // The optimiser ran even though verification failed: that's a miss.
        assert_eq!(rt.stats().cache_misses, 1);
        assert_eq!(rt.stats().verifications, 1);
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
    fn tiered_verification_is_once_per_tier_compile_never_per_eval() {
        // The tiered world's version of the checked-once property:
        // `verifications` moves exactly once per tier compile — the
        // tier-0 build and the promotion — so ≤ 2 per digest, and never
        // on the eval path however many evals run.
        let rt = Runtime::builder().tiered(true).promote_after(2).build();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        let mut tiers = Vec::new();
        for _ in 0..8 {
            let (_, o) = rt.eval(&p, &[], reg).unwrap();
            tiers.push(o.plan.tier);
        }
        let stats = rt.stats();
        assert_eq!(
            stats.verifications, 2,
            "tier-0 build + promotion, nothing else: {stats}"
        );
        assert_eq!(stats.tiers.tier0_builds, 1);
        assert_eq!(stats.tiers.promotions, 1);
        assert_eq!(stats.tiers.failed_promotions, 0);
        assert_eq!(stats.evals, 8);
        // The lifecycle is monotone: tier0 evals, then tier2 forever.
        assert_eq!(tiers[0], Tier::Tier0);
        assert_eq!(*tiers.last().unwrap(), Tier::Tier2);
        let flip = tiers.iter().position(|&t| t == Tier::Tier2).unwrap();
        assert!(tiers[flip..].iter().all(|&t| t == Tier::Tier2));
        // Hits 1 and 2 are recorded by evals 1–2; eval 3's prepare sees
        // hits == promote_after and promotes synchronously.
        assert_eq!(flip, 2);
    }

    #[test]
    fn promoted_plan_computes_the_same_value_with_fewer_instructions() {
        let rt = Runtime::builder().tiered(true).promote_after(1).build();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        let (v0, o0) = rt.eval(&p, &[], reg).unwrap();
        assert_eq!(o0.plan.tier, Tier::Tier0);
        let (v2, o2) = rt.eval(&p, &[], reg).unwrap();
        assert_eq!(o2.plan.tier, Tier::Tier2);
        assert_eq!(v0, v2);
        // O2 merges the three adds that O0 left untouched.
        assert!(o2.plan.program.instrs().len() < o0.plan.program.instrs().len());
        // The swap is visible to plain cache hits too.
        let (plan, hit) = rt.prepare(&p).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&plan, &o2.plan));
    }

    #[test]
    fn tiered_runtime_forces_profiling_on() {
        let rt = Runtime::builder().tiered(true).profiling(false).build();
        assert!(
            rt.profile_table().is_some(),
            "tiering needs the hotness signal"
        );
        assert!(rt.tiered());
        assert_eq!(
            Runtime::builder().build().promote_after(),
            DEFAULT_PROMOTE_AFTER
        );
    }

    #[test]
    fn untiered_runtime_never_tiers() {
        let rt = Runtime::new();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        for _ in 0..100 {
            let (_, o) = rt.eval(&p, &[], reg).unwrap();
            assert_eq!(o.plan.tier, Tier::Tier2);
        }
        let stats = rt.stats();
        assert_eq!(stats.tiers, crate::TierDecisions::default());
        assert_eq!(stats.verifications, 1);
    }

    #[test]
    fn background_promotion_lands_between_evals() {
        let rt = Runtime::builder()
            .tiered(true)
            .promote_after(1)
            .background_promotion(true)
            .build();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        let (v0, o0) = rt.eval(&p, &[], reg).unwrap();
        assert_eq!(o0.plan.tier, Tier::Tier0);
        // The second eval triggers the claim but must not block on the
        // promotion; it may still run tier-0.
        rt.eval(&p, &[], reg).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while rt.pending_promotions() > 0 {
            assert!(Instant::now() < deadline, "promotion never quiesced");
            std::thread::yield_now();
        }
        let (v, o) = rt.eval(&p, &[], reg).unwrap();
        assert_eq!(o.plan.tier, Tier::Tier2);
        assert_eq!(v, v0);
        assert_eq!(rt.stats().tiers.promotions, 1);
    }

    #[test]
    fn stats_sink_sees_every_outcome() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let rt = Runtime::builder()
            .stats_sink(move |_| {
                seen2.fetch_add(1, Ordering::SeqCst);
            })
            .build();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        rt.eval(&p, &[], reg).unwrap();
        rt.eval(&p, &[], reg).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 2);
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
            .opt_level(OptLevel::O1)
            .strict_math()
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
        assert_eq!(
            stats.audits.total(),
            stats.cache_misses + stats.tiers.promotions
        );
        assert_eq!(stats.audits.passed, 1);
        assert_eq!(stats.audits.failed, 0);
        assert_eq!(stats.audits.rolled_back, 0);
    }

    #[test]
    fn tiered_audit_covers_the_promotion_too() {
        let rt = Runtime::builder()
            .audit(true)
            .tiered(true)
            .promote_after(2)
            .build();
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        for _ in 0..8 {
            let (v, _) = rt.eval(&p, &[], reg).unwrap();
            assert_eq!(v.to_f64_vec(), vec![3.0; 10]);
        }
        let stats = rt.stats();
        assert_eq!(stats.tiers.promotions, 1);
        // Tier-0 build + promotion: exactly two audits, like verifications.
        assert_eq!(
            stats.audits.total(),
            stats.cache_misses + stats.tiers.promotions
        );
        assert_eq!(stats.audits.total(), 2);
        assert_eq!(stats.audits.failed, 0);
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
        let rt = Runtime::new();
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

    fn snapshot_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicUsize;
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("bh_runtime_{tag}_{}_{n}.bhss", std::process::id()))
    }

    #[test]
    fn warm_start_serves_persisted_plans_with_zero_reoptimisation() {
        let path = snapshot_path("warm");
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        let cold_value = {
            let rt = Runtime::builder().persist_path(&path).build();
            assert_eq!(rt.stats().warm_loads, 0); // nothing to load yet
            let (v, _) = rt.eval(&p, &[], reg).unwrap();
            assert!(rt.stats().rules_fired > 0);
            v
            // Drop writes the snapshot.
        };
        let rt = Runtime::builder().persist_path(&path).build();
        let stats = rt.stats();
        assert_eq!(stats.warm_loads, 1, "{stats}");
        assert_eq!(stats.warm_rejects, 0);
        assert_eq!(rt.cached_plans(), 1);
        let (v, o) = rt.eval(&p, &[], reg).unwrap();
        assert!(o.cache_hit, "warm-started digest must hit immediately");
        assert_eq!(v, cold_value);
        // Zero re-optimisation: no miss, no rule fired, no compile-side
        // verification (the load-time re-verify is bh-ir's, not a plan
        // compile). The loaded plan's report says the same.
        let stats = rt.stats();
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(stats.rules_fired, 0);
        assert_eq!(stats.verifications, 0);
        assert_eq!(o.plan.report.iterations, 0);
        assert_eq!(o.plan.report.audits, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn explicit_persist_checkpoints_without_dropping() {
        let path = snapshot_path("checkpoint");
        let rt = Runtime::builder().persist_path(&path).build();
        assert_eq!(rt.persist_path(), Some(path.as_path()));
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        rt.eval(&p, &[], reg).unwrap();
        assert_eq!(rt.persist().unwrap(), 1);
        // Plans built under ad-hoc options are not snapshotted: a loader
        // keyed on the runtime's own options could never accept them.
        rt.eval_with(&p, &[], reg, &OptOptions::level(OptLevel::O0))
            .unwrap();
        assert_eq!(rt.cached_plans(), 2);
        assert_eq!(rt.persist().unwrap(), 1);
        let warm = Runtime::builder().persist_path(&path).build();
        assert_eq!(warm.stats().warm_loads, 1);
        assert_eq!(warm.stats().warm_rejects, 0);
        let _ = std::fs::remove_file(&path);
        // No configured path: a silent no-op, not an error.
        assert_eq!(Runtime::new().persist().unwrap(), 0);
    }

    #[test]
    fn warm_start_under_different_options_rejects_instead_of_serving() {
        let path = snapshot_path("optskew");
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        {
            let rt = Runtime::builder().persist_path(&path).build();
            rt.eval(&p, &[], reg).unwrap();
        }
        // Strict-math runtime: the fast-math plan must not be served.
        let rt = Runtime::builder().strict_math().persist_path(&path).build();
        let stats = rt.stats();
        assert_eq!(stats.warm_loads, 0);
        assert_eq!(stats.warm_rejects, 1);
        assert_eq!(rt.cached_plans(), 0);
        // And the runtime still serves correctly, cold.
        let (v, o) = rt.eval(&p, &[], reg).unwrap();
        assert!(!o.cache_hit);
        assert_eq!(v.to_f64_vec(), vec![3.0; 10]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_snapshot_is_a_cold_start_never_a_panic() {
        let path = snapshot_path("corrupt");
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        {
            let rt = Runtime::builder().persist_path(&path).build();
            rt.eval(&p, &[], reg).unwrap();
        }
        // Flip every byte of the snapshot in turn; each mutant either
        // cold-starts or counts a reject — and always still serves.
        let pristine = std::fs::read(&path).unwrap();
        for idx in [4, 14, 22, pristine.len() / 2, pristine.len() - 1] {
            let mut bytes = pristine.clone();
            bytes[idx] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            let rt = Runtime::builder()
                .persist_path(&path)
                .cache_capacity(8)
                .build();
            let stats = rt.stats();
            assert!(stats.warm_loads + stats.warm_rejects <= 1, "{stats}");
            let (v, _) = rt.eval(&p, &[], reg).unwrap();
            assert_eq!(v.to_f64_vec(), vec![3.0; 10]);
            // Never persist the mutant back over itself mid-loop.
            std::fs::write(&path, &pristine).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn warm_loads_leave_the_audit_invariant_intact() {
        let path = snapshot_path("auditinv");
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        {
            let rt = Runtime::builder().audit(true).persist_path(&path).build();
            rt.eval(&p, &[], reg).unwrap();
        }
        let rt = Runtime::builder().audit(true).persist_path(&path).build();
        rt.eval(&p, &[], reg).unwrap();
        let stats = rt.stats();
        assert_eq!(stats.warm_loads, 1);
        // Warm loads are neither misses nor promotions, and they touch
        // no audit counters — the compile-side invariant still holds.
        assert_eq!(
            stats.audits.total(),
            stats.cache_misses + stats.tiers.promotions
        );
        assert_eq!(stats.audits.total(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tiered_warm_start_keeps_the_promotion_path() {
        let path = snapshot_path("tiered");
        let p = listing2();
        let reg = p.reg_by_name("a0").unwrap();
        {
            // High threshold: the plan stays tier-0 for the snapshot.
            let rt = Runtime::builder()
                .tiered(true)
                .promote_after(1000)
                .persist_path(&path)
                .build();
            let (_, o) = rt.eval(&p, &[], reg).unwrap();
            assert_eq!(o.plan.tier, Tier::Tier0);
        }
        // A non-tiered runtime rejects the tier-0 plan (it could never
        // promote it) and compiles at full strength instead.
        {
            let rt = Runtime::builder().persist_path(&path).build();
            assert_eq!(rt.stats().warm_rejects, 1);
            let (_, o) = rt.eval(&p, &[], reg).unwrap();
            assert_eq!(o.plan.tier, Tier::Tier2);
            let _ = std::fs::remove_file(&path);
            rt.persist().unwrap();
        }
        // A tiered runtime accepts the loaded tier-2 plan as-is.
        let rt = Runtime::builder()
            .tiered(true)
            .promote_after(1)
            .persist_path(&path)
            .build();
        assert_eq!(rt.stats().warm_loads, 1);
        let (v, o) = rt.eval(&p, &[], reg).unwrap();
        assert!(o.cache_hit);
        assert_eq!(o.plan.tier, Tier::Tier2);
        assert_eq!(v.to_f64_vec(), vec![3.0; 10]);
        assert_eq!(rt.stats().tiers.tier0_builds, 0);
        let _ = std::fs::remove_file(&path);
    }
}
