//! The multi-tenant batching server.
//!
//! ```text
//!  submit()/submit_many()──►[tenant lanes]──►(weighted round-robin leader pick)
//!                  │                    │
//!             backpressure      digest-keyed gather
//!            (QueueFull when    (same ProgramDigest,
//!             depth==capacity)   up to the batch limit)
//!                                       │
//!                                 ┌─────▼─────┐ prepare plan once,
//!                                 │ worker(s) │ pin one pooled VM,
//!                                 └─────┬─────┘ run batch back-to-back
//!                                       │
//!                          Ticket::wait / try_wait / on_done
//! ```

use crate::error::ServeError;
use crate::request::{Request, Response, Slot, Ticket};
use crate::stats::{LatencyHistogram, ServeReport, ServeStats, TenantQuotas};
use bh_ir::{ProgramHandle, Reg};
use bh_observe::{Collect, MetricSet, TracePhase, TraceSink};
use bh_runtime::Runtime;
use bh_tensor::Tensor;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A submission the server bounced instead of enqueueing; holds the
/// request so the caller can retry or shed it deliberately.
#[derive(Debug)]
pub struct Rejected {
    /// The request, returned unconsumed.
    pub request: Request,
    /// Why it was rejected ([`ServeError::QueueFull`],
    /// [`ServeError::Malformed`] or [`ServeError::Shutdown`]).
    pub reason: ServeError,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request rejected: {}", self.reason)
    }
}

impl std::error::Error for Rejected {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.reason)
    }
}

/// Dropping the bounced request recovers the plain [`ServeError`], so a
/// function returning `Result<_, ServeError>` can `?` a failed
/// [`Server::submit`] directly.
impl From<Rejected> for ServeError {
    fn from(rejected: Rejected) -> ServeError {
        rejected.reason
    }
}

/// Upper bound on a tenant's scheduling weight. Keeps the smooth-WRR
/// credit arithmetic far from `i64` overflow (the total active weight
/// would need `capacity > 2^43` backlogged tenants to overflow) while
/// leaving six orders of magnitude of prioritisation headroom.
const MAX_TENANT_WEIGHT: u64 = 1 << 20;

/// A request as it sits in a tenant lane.
struct Queued {
    handle: ProgramHandle,
    bindings: Vec<(Reg, Tensor)>,
    result: Option<Reg>,
    deadline: Option<Instant>,
    submitted: Instant,
    slot: Arc<Slot>,
    /// Tenant tag for trace events. Populated only when a trace sink is
    /// installed, so the untraced path never allocates for it.
    tenant: Option<Arc<str>>,
}

/// One backlogged tenant: its FIFO plus its smooth weighted round-robin
/// state.
struct TenantLane {
    queue: VecDeque<Queued>,
    /// Effective scheduling weight (≥ 1 — the starvation guard: zero
    /// weights are impossible, so every backlogged tenant is picked
    /// within one weight cycle).
    weight: u64,
    /// Smooth-WRR credit: raised by `weight` every pick round, lowered
    /// by the total active weight when this lane leads a batch.
    credit: i64,
}

/// Scheduler state behind one mutex: per-tenant FIFO lanes plus the
/// weighted service state. Lane state is dropped as soon as a tenant's
/// queue drains, so a long-lived server fed ephemeral tenant IDs does
/// not accumulate memory or scan cost (a returning tenant's round-robin
/// credit restarts at zero, which only ever *delays* its next turn by
/// less than one cycle).
struct Sched {
    /// Backlogged tenants, keyed by name. `BTreeMap` so leader election
    /// breaks credit ties deterministically (lexicographically first).
    lanes: BTreeMap<String, TenantLane>,
    queued: usize,
    /// Configured per-tenant weight overrides (from the builder).
    weights: HashMap<String, u64>,
    default_weight: u64,
    /// Requests dequeued per tenant (leader picks and digest-gathered
    /// followers alike) — the service side of the quota metrics.
    quotas: TenantQuotas,
}

impl Sched {
    fn enqueue(&mut self, tenant: &str, request: Queued) {
        match self.lanes.get_mut(tenant) {
            Some(lane) => lane.queue.push_back(request),
            None => {
                let weight = self
                    .weights
                    .get(tenant)
                    .copied()
                    .unwrap_or(self.default_weight);
                self.lanes.insert(
                    tenant.to_owned(),
                    TenantLane {
                        queue: VecDeque::from([request]),
                        weight,
                        credit: 0,
                    },
                );
            }
        }
        self.queued += 1;
    }

    /// Pop the next micro-batch, or `None` when nothing is queued.
    ///
    /// The *leader* comes from smooth weighted round-robin over the
    /// backlogged lanes: every lane's credit grows by its weight, the
    /// richest lane (ties broken by name order) is picked and pays the
    /// total active weight. Over any window where the backlogged set is
    /// stable, leader picks are proportional to weights within ±1 per
    /// tenant — that is the fairness guarantee, and weights ≥ 1 make
    /// starvation impossible. The rest of the batch is every queued
    /// request (any tenant) whose digest matches the leader's, up to
    /// `max_batch`; pulling a matching request forward never delays
    /// anyone else.
    fn next_batch(&mut self, max_batch: usize) -> Option<Vec<Queued>> {
        if self.lanes.is_empty() {
            return None;
        }
        let total: i64 = self.lanes.values().map(|lane| lane.weight as i64).sum();
        for lane in self.lanes.values_mut() {
            lane.credit += lane.weight as i64;
        }
        // Richest lane wins; credit ties break to the lexicographically
        // first name (max_by with the name order reversed), so
        // scheduling is deterministic. One name clone per batch.
        let tenant = self
            .lanes
            .iter()
            .max_by(|a, b| a.1.credit.cmp(&b.1.credit).then_with(|| b.0.cmp(a.0)))
            .map(|(name, _)| name.clone())
            .expect("lanes is non-empty");
        let lane = self.lanes.get_mut(&tenant).expect("leader lane exists");
        lane.credit -= total;
        let leader = lane.queue.pop_front().expect("empty lanes are removed");
        self.queued -= 1;
        self.quotas.note(&tenant, 1);

        let mut batch = vec![leader];
        if max_batch > 1 {
            for (name, lane) in self.lanes.iter_mut() {
                let mut from_lane = 0u64;
                while batch.len() < max_batch {
                    let Some(i) = lane
                        .queue
                        .iter()
                        .position(|r| r.handle.digest() == batch[0].handle.digest())
                    else {
                        break;
                    };
                    batch.push(lane.queue.remove(i).expect("index in range"));
                    self.queued -= 1;
                    from_lane += 1;
                }
                if from_lane > 0 {
                    self.quotas.note(name, from_lane);
                }
                if batch.len() >= max_batch {
                    break;
                }
            }
        }
        // Drop drained lanes entirely (memory bound for ephemeral IDs).
        self.lanes.retain(|_, lane| !lane.queue.is_empty());
        Some(batch)
    }
}

struct Shared {
    runtime: Arc<Runtime>,
    capacity: usize,
    max_batch: usize,
    default_deadline: Option<Duration>,
    sched: Mutex<Sched>,
    work: Condvar,
    stats: Mutex<ServeStats>,
    shutdown: AtomicBool,
    /// Optional request-lifecycle trace sink (`"queue"` and `"batch"`
    /// span events). `None` — the default — keeps the serving path free
    /// of tracing cost beyond one branch per would-be event.
    tracer: Option<Arc<dyn TraceSink>>,
}

impl Shared {
    /// Emit one trace event when a sink is installed. Callers that would
    /// pay to build the arguments (fingerprint hash, tenant clone) guard
    /// on [`Shared::tracing`] first.
    #[inline]
    fn trace(
        &self,
        phase: TracePhase,
        stage: &'static str,
        fingerprint: u64,
        tenant: Option<Arc<str>>,
    ) {
        if let Some(tracer) = &self.tracer {
            tracer.record(phase, stage, fingerprint, tenant);
        }
    }

    /// Whether a trace sink is installed (one branch).
    #[inline]
    fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Admission gate: verify the submitted byte-code before it can be
    /// enqueued, so malformed programs are bounced at the front door with
    /// a structured [`ServeError::Malformed`] instead of occupying queue
    /// space and failing later inside a batch. A digest whose plan is
    /// resident in the runtime's cache is admitted on that probe alone:
    /// the plan was verified when it was built, and a resident digest
    /// cannot fail `prepare`, which is all admission rules out. The probe
    /// admits only the structure that was prepared, not a look-alike the
    /// verifier would bounce: the verifier ignores register names, and a
    /// slice bound past its axis (V104) digests apart from the in-range
    /// spelling it clamps to.
    ///
    /// Called *outside* the sched lock — verification cost must never
    /// stall other submitters or the workers.
    #[allow(clippy::result_large_err)]
    fn admit(&self, request: Request) -> Result<Request, Rejected> {
        if self.runtime.has_plan(request.handle.digest()) {
            return Ok(request);
        }
        match bh_ir::verify(request.handle.program()) {
            Ok(_) => Ok(request),
            Err(errors) => Err(Rejected {
                reason: ServeError::Malformed(errors),
                request,
            }),
        }
    }

    /// Execute one micro-batch, resolving every request in it.
    fn process_batch(&self, batch: Vec<Queued>) {
        let started = Instant::now();
        let mut expired = 0u64;
        let mut live = Vec::with_capacity(batch.len());
        for r in batch {
            // Every dequeued request ends its queue span here — expired
            // ones too: they did wait, and a flight recorder that hides
            // that would point debugging away from the queue.
            if self.tracing() {
                self.trace(
                    TracePhase::End,
                    "queue",
                    r.handle.digest().fingerprint(),
                    r.tenant.clone(),
                );
            }
            match r.deadline {
                Some(d) if d < started => {
                    expired += 1;
                    r.slot.complete(Err(ServeError::DeadlineExceeded {
                        missed_by: started - d,
                    }));
                }
                _ => live.push(r),
            }
        }
        if live.is_empty() {
            if expired > 0 {
                self.stats.lock().expired += expired;
            }
            return;
        }

        let batch_size = live.len();
        let mut completed = 0u64;
        let mut failed = 0u64;
        // Turnarounds land in a stack-local histogram and merge into the
        // shared one under the single end-of-batch stats lock.
        let mut latency = LatencyHistogram::new();
        let traced = self.tracing();
        let leader_fp = if traced {
            live[0].handle.digest().fingerprint()
        } else {
            0
        };
        self.trace(TracePhase::Begin, "batch", leader_fp, None);

        // One plan lookup (or one optimiser run) for the whole batch …
        match self.runtime.prepare_digested(&live[0].handle) {
            Err(e) => {
                failed = live.len() as u64;
                for r in live {
                    r.slot.complete(Err(ServeError::Eval(e.clone())));
                }
            }
            Ok((plan, first_hit)) => {
                // Queue wait is a profiled stage like any other: charge
                // each request's wait to its digest. Recorded after
                // `prepare` so the profile entry exists even for the
                // first-ever batch of a digest ([`bh_observe::
                // ProfileTable::record_queue_wait`] drops samples for
                // digests it has never seen planned).
                if let Some(table) = self.runtime.profile_table() {
                    let fp = plan.source_fingerprint;
                    for r in &live {
                        table.record_queue_wait(fp, started.saturating_duration_since(r.submitted));
                    }
                }
                // … and one pinned VM, recycled after every request: the
                // next run reuses its storage only where no run can
                // observe what it held (DESIGN.md §7).
                let mut vm = self.runtime.lease_vm();
                let mut cache_hit = first_hit;
                for r in live {
                    let now = Instant::now();
                    if let Some(d) = r.deadline {
                        if d < now {
                            expired += 1;
                            r.slot
                                .complete(Err(ServeError::DeadlineExceeded { missed_by: now - d }));
                            continue;
                        }
                    }
                    match self.runtime.eval_prepared(
                        &plan,
                        &mut vm,
                        &r.bindings,
                        r.result,
                        cache_hit,
                    ) {
                        Ok((value, outcome)) => {
                            let done = Instant::now();
                            completed += 1;
                            latency.record(done - r.submitted);
                            r.slot.complete(Ok(Response {
                                value,
                                outcome,
                                batch_size,
                                queue_wait: started.saturating_duration_since(r.submitted),
                                turnaround: done - r.submitted,
                            }));
                        }
                        Err(e) => {
                            failed += 1;
                            r.slot.complete(Err(ServeError::Eval(e)));
                        }
                    }
                    vm.recycle();
                    cache_hit = true;
                }
            }
        }
        self.trace(TracePhase::End, "batch", leader_fp, None);

        let mut stats = self.stats.lock();
        stats.batches += 1;
        stats.batch_sizes.record(batch_size);
        stats.completed += completed;
        stats.failed += failed;
        stats.expired += expired;
        stats.latency.merge(&latency);
    }

    fn worker_loop(&self) {
        loop {
            let batch = {
                let mut sched = self.sched.lock();
                loop {
                    if let Some(batch) = sched.next_batch(self.max_batch) {
                        break batch;
                    }
                    // Drain before exit: shutdown only stops the loop once
                    // the queues are empty.
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    sched = self.work.wait(sched).unwrap_or_else(|e| e.into_inner());
                }
            };
            self.process_batch(batch);
        }
    }
}

/// Configures and builds a [`Server`].
///
/// # Examples
///
/// A two-worker server with a paying tenant and a default deadline:
///
/// ```
/// use bh_runtime::Runtime;
/// use bh_serve::Server;
/// use std::time::Duration;
///
/// let server = Server::builder(Runtime::builder().build_shared())
///     .workers(2)
///     .queue_capacity(1024)
///     .max_batch(64)                                // the batch limit
///     .tenant_weight("paying-tenant", 3)            // 3× the default share
///     .default_deadline(Duration::from_millis(50))
///     .build();
/// # drop(server);
/// ```
pub struct ServerBuilder {
    runtime: Arc<Runtime>,
    workers: usize,
    queue_capacity: usize,
    max_batch: usize,
    default_deadline: Option<Duration>,
    default_tenant_weight: u64,
    tenant_weights: HashMap<String, u64>,
    tracer: Option<Arc<dyn TraceSink>>,
}

impl fmt::Debug for ServerBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerBuilder")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("max_batch", &self.max_batch)
            .field("default_deadline", &self.default_deadline)
            .field("default_tenant_weight", &self.default_tenant_weight)
            .field("tenant_weights", &self.tenant_weights)
            .field("has_tracer", &self.tracer.is_some())
            .finish_non_exhaustive()
    }
}

impl ServerBuilder {
    /// Worker threads executing batches. `0` is allowed: no threads are
    /// spawned and batches run only when [`Server::service_once`] is
    /// called (deterministic embedding/testing mode). Default: 1.
    pub fn workers(mut self, workers: usize) -> ServerBuilder {
        self.workers = workers;
        self
    }

    /// Total queued requests across all tenants before submissions are
    /// rejected with [`ServeError::QueueFull`]. Minimum 1; default 1024.
    pub fn queue_capacity(mut self, capacity: usize) -> ServerBuilder {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Most requests grouped into one digest-keyed micro-batch.
    /// Minimum 1 (disables batching); default 16.
    pub fn max_batch(mut self, max_batch: usize) -> ServerBuilder {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Deadline applied to requests that do not carry their own.
    /// Default: none (requests wait indefinitely).
    pub fn default_deadline(mut self, deadline: Duration) -> ServerBuilder {
        self.default_deadline = Some(deadline);
        self
    }

    /// Scheduling weight for one tenant: under backlog it is picked as
    /// batch leader `weight` times per round-robin cycle, so two
    /// flooding tenants with weights 2 and 1 see a ~2:1 service ratio.
    /// Clamped to `1..=2^20` (a tenant can be deprioritised, never
    /// starved, and credit arithmetic stays far from overflow).
    /// Default: the [`ServerBuilder::default_tenant_weight`].
    pub fn tenant_weight(mut self, tenant: impl Into<String>, weight: u64) -> ServerBuilder {
        self.tenant_weights
            .insert(tenant.into(), weight.clamp(1, MAX_TENANT_WEIGHT));
        self
    }

    /// Weight for tenants without an explicit
    /// [`ServerBuilder::tenant_weight`]. Clamped to `1..=2^20`;
    /// default 1.
    pub fn default_tenant_weight(mut self, weight: u64) -> ServerBuilder {
        self.default_tenant_weight = weight.clamp(1, MAX_TENANT_WEIGHT);
        self
    }

    /// Install a request-lifecycle trace sink (e.g.
    /// [`bh_observe::RingTraceSink::shared`]). The server emits
    /// tenant-tagged `"queue"` spans (begin at enqueue, end when the
    /// request is pulled into a batch) and `"batch"` spans around each
    /// micro-batch's execution. Pass the *same* sink to
    /// [`bh_runtime::RuntimeBuilder::trace_sink`] to interleave the
    /// runtime's optimise/verify/bind/execute/read-back spans into one
    /// timeline. Default: no sink — tracing costs one branch per
    /// would-be event and nothing else.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> ServerBuilder {
        self.tracer = Some(sink);
        self
    }

    /// Build the server and spawn its workers.
    pub fn build(self) -> Server {
        let shared = Arc::new(Shared {
            runtime: self.runtime,
            capacity: self.queue_capacity,
            max_batch: self.max_batch,
            default_deadline: self.default_deadline,
            sched: Mutex::new(Sched {
                lanes: BTreeMap::new(),
                queued: 0,
                weights: self.tenant_weights,
                default_weight: self.default_tenant_weight,
                quotas: TenantQuotas::default(),
            }),
            work: Condvar::new(),
            stats: Mutex::new(ServeStats::default()),
            shutdown: AtomicBool::new(false),
            tracer: self.tracer,
        });
        let workers = (0..self.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bh-serve-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn serve worker")
            })
            .collect();
        Server {
            shared,
            workers: Mutex::new(workers),
        }
    }
}

/// Multi-tenant batching front door over an [`Arc<Runtime>`].
///
/// Concurrent requests whose programs share a structural digest are
/// grouped and executed back-to-back on one pinned, recycled VM, so plan
/// lookup and VM setup amortise across the batch; tenants are served by
/// smooth weighted round-robin; a bounded queue rejects (rather than
/// buffers) overload; and per-request deadlines fail fast (DESIGN.md §§
/// 8–9 specify the scheduling invariants).
///
/// # Examples
///
/// ```
/// use bh_ir::parse_program;
/// use bh_runtime::Runtime;
/// use bh_serve::{ProgramHandle, Request, Server};
///
/// let server = Server::builder(Runtime::builder().build_shared())
///     .workers(2)
///     .queue_capacity(256)
///     .max_batch(8)
///     .build();
///
/// let handle = ProgramHandle::new(parse_program(
///     "BH_IDENTITY a [0:16:1] 0\nBH_ADD a a 3\nBH_SYNC a\n",
/// )?);
/// let reg = handle.program().reg_by_name("a").unwrap();
///
/// let ticket = server
///     .submit(Request::with_handle("tenant-a", &handle).read(reg))
///     .map_err(|r| r.reason)?;
/// let response = ticket.wait()?;
/// assert_eq!(response.value.unwrap().to_f64_vec(), vec![3.0; 16]);
/// server.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Start configuring a server over `runtime`. Defaults: 1 worker,
    /// queue capacity 1024, batch limit 16, no default deadline,
    /// every tenant at weight 1.
    pub fn builder(runtime: Arc<Runtime>) -> ServerBuilder {
        ServerBuilder {
            runtime,
            workers: 1,
            queue_capacity: 1024,
            max_batch: 16,
            default_deadline: None,
            default_tenant_weight: 1,
            tenant_weights: HashMap::new(),
            tracer: None,
        }
    }

    /// The runtime requests execute on.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.shared.runtime
    }

    /// Shutdown/capacity checks plus the enqueue itself, under the
    /// caller-held sched lock. Stats accounting is left to the caller so
    /// batched submissions update them once.
    #[allow(clippy::result_large_err)]
    fn try_enqueue(
        &self,
        sched: &mut Sched,
        request: Request,
        now: Instant,
    ) -> Result<Arc<Slot>, Rejected> {
        // Checked *under the sched lock*: shutdown sets the flag under
        // the same lock, so a submission either sees it (rejected) or
        // its enqueue is visible to the draining workers — an accepted
        // ticket can never be left unresolved.
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(Rejected {
                request,
                reason: ServeError::Shutdown,
            });
        }
        if sched.queued >= self.shared.capacity {
            return Err(Rejected {
                request,
                reason: ServeError::QueueFull {
                    capacity: self.shared.capacity,
                },
            });
        }
        // A deadline too far out to represent (`Duration::MAX`, the
        // natural spelling of "none") never expires.
        let deadline = request
            .deadline
            .or(self.shared.default_deadline)
            .and_then(|d| now.checked_add(d));
        let slot = Slot::new();
        // Tenant tag + queue-span begin only when a sink is installed:
        // the untraced path pays one branch, no allocation, no hash.
        let tenant_tag: Option<Arc<str>> = if self.shared.tracing() {
            let tag: Arc<str> = Arc::from(request.tenant.as_str());
            self.shared.trace(
                TracePhase::Begin,
                "queue",
                request.handle.digest().fingerprint(),
                Some(Arc::clone(&tag)),
            );
            Some(tag)
        } else {
            None
        };
        sched.enqueue(
            &request.tenant,
            Queued {
                handle: request.handle,
                bindings: request.bindings,
                result: request.result,
                deadline,
                submitted: now,
                slot: Arc::clone(&slot),
                tenant: tenant_tag,
            },
        );
        Ok(slot)
    }

    /// Enqueue a request, returning a [`Ticket`] to wait on.
    ///
    /// The submitted byte-code is verified at admission unless the
    /// runtime already holds a plan for its digest: malformed programs
    /// are bounced here with the structured verification findings, never
    /// enqueued.
    ///
    /// # Errors
    ///
    /// [`Rejected`] with [`ServeError::Malformed`] when the program fails
    /// byte-code verification, [`ServeError::QueueFull`] when the bounded
    /// queue is at capacity (backpressure — the request is handed back,
    /// not buffered), or [`ServeError::Shutdown`] after shutdown began.
    // Handing the whole Request back by value is the point of the error
    // type (retry without rebuilding); the fat Err is deliberate.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, request: Request) -> Result<Ticket, Rejected> {
        let now = Instant::now();
        let mut outcome = None;
        self.enqueue_all([self.shared.admit(request)], now, |o| outcome = Some(o));
        outcome.expect("one request, one outcome")
    }

    /// Enqueue a pre-batched group of requests under one lock
    /// acquisition, returning a per-request outcome in submission order.
    ///
    /// Cheaper than N [`Server::submit`] calls for bulk producers (one
    /// sched-lock round trip, one stats update, one worker wake-up), and
    /// same-digest requests submitted together are adjacent in their
    /// lanes, so they gather into the same micro-batch. Each request is
    /// accepted or bounced individually — a full queue rejects the
    /// overflow, not the whole group, and a program failing admission
    /// verification bounces only its own request.
    ///
    /// # Examples
    ///
    /// ```
    /// use bh_ir::parse_program;
    /// use bh_runtime::Runtime;
    /// use bh_serve::{ProgramHandle, Request, Server};
    ///
    /// let server = Server::builder(Runtime::builder().build_shared()).build();
    /// let handle = ProgramHandle::new(parse_program(
    ///     "BH_IDENTITY a [0:8:1] 1\nBH_SYNC a\n",
    /// )?);
    /// let outcomes = server.submit_many(
    ///     (0..32).map(|i| Request::with_handle(format!("tenant-{}", i % 4), &handle)),
    /// );
    /// for ticket in outcomes.into_iter().collect::<Result<Vec<_>, _>>()? {
    ///     ticket.wait()?;
    /// }
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    // Each outcome is the deliberately fat Rejected (see `submit`);
    // boxing it would cost every accepted request too.
    #[allow(clippy::result_large_err)]
    pub fn submit_many(
        &self,
        requests: impl IntoIterator<Item = Request>,
    ) -> Vec<Result<Ticket, Rejected>> {
        let now = Instant::now();
        // Drained *before* taking the scheduler lock: a lazy iterator
        // must not stall workers and submitters for its whole duration,
        // and one calling back into this server (queue_depth, submit, …)
        // must not self-deadlock on the non-reentrant sched mutex.
        // Admission verification also happens out here, for the same
        // reason: verifying a cold digest must not stall the scheduler.
        let admissions: Vec<Result<Request, Rejected>> = requests
            .into_iter()
            .map(|request| self.shared.admit(request))
            .collect();
        let mut out = Vec::with_capacity(admissions.len());
        self.enqueue_all(admissions, now, |o| out.push(o));
        out
    }

    /// The one submission path after admission: enqueue every request
    /// that passed it under a single sched-lock acquisition, hand each
    /// outcome to `out` in order, update the stats once and wake the
    /// workers once.
    // Outcomes carry the deliberately fat Rejected (see `submit`).
    #[allow(clippy::result_large_err)]
    fn enqueue_all(
        &self,
        admissions: impl IntoIterator<Item = Result<Request, Rejected>>,
        now: Instant,
        mut out: impl FnMut(Result<Ticket, Rejected>),
    ) {
        let mut accepted = 0u64;
        let mut bounced = 0u64;
        {
            let mut sched = self.shared.sched.lock();
            for request in admissions {
                match request.and_then(|r| self.try_enqueue(&mut sched, r, now)) {
                    Ok(slot) => {
                        accepted += 1;
                        out(Ok(Ticket { slot }));
                    }
                    Err(rejected) => {
                        bounced += 1;
                        out(Err(rejected));
                    }
                }
            }
            // Counted before the enqueues become visible to workers (the
            // sched lock is still held), so a snapshot can never observe a
            // resolution that outruns its own submission count.
            let depth = sched.queued;
            let mut stats = self.shared.stats.lock();
            stats.submitted += accepted;
            stats.rejected += bounced;
            stats.peak_queue_depth = stats.peak_queue_depth.max(depth);
        }
        match accepted {
            0 => {}
            1 => self.shared.work.notify_one(),
            _ => self.shared.work.notify_all(),
        }
    }

    /// Submit and block for the outcome (per-call convenience).
    ///
    /// # Errors
    ///
    /// Rejection reasons or the request's resolution error.
    pub fn submit_wait(&self, request: Request) -> Result<Response, ServeError> {
        match self.submit(request) {
            Ok(ticket) => ticket.wait(),
            Err(rejected) => Err(rejected.reason),
        }
    }

    /// Execute at most one pending micro-batch on the calling thread.
    /// Returns false when nothing was queued. This is the entire
    /// scheduling path minus the worker threads — the deterministic mode
    /// for tests and for embedding the server in an external event loop
    /// (build with `.workers(0)`).
    pub fn service_once(&self) -> bool {
        // The sched lock is released before the batch runs, so completion
        // callbacks are free to call back into the server (submit,
        // service_once, stats) without self-deadlocking.
        let batch = self.shared.sched.lock().next_batch(self.shared.max_batch);
        match batch {
            Some(batch) => {
                self.shared.process_batch(batch);
                true
            }
            None => false,
        }
    }

    /// Requests queued right now (across all tenants).
    pub fn queue_depth(&self) -> usize {
        self.shared.sched.lock().queued
    }

    /// Tenants with queued work right now. Tenant state is dropped the
    /// moment a tenant's queue drains, so this — not the lifetime number
    /// of distinct tenant IDs — bounds scheduler memory and scan cost.
    pub fn active_tenants(&self) -> usize {
        self.shared.sched.lock().lanes.len()
    }

    /// Scheduler-level counters. Counters are updated after the requests
    /// of a batch resolve, so a snapshot racing an in-flight batch may
    /// momentarily trail the tickets it has already completed; snapshots
    /// taken after [`Server::shutdown`] (or between
    /// [`Server::service_once`] calls) are exact.
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.shared.stats.lock().clone();
        let sched = self.shared.sched.lock();
        stats.queue_depth = sched.queued;
        stats.tenants = sched.quotas.clone();
        stats
    }

    /// Combined scheduler + runtime snapshot.
    pub fn report(&self) -> ServeReport {
        ServeReport {
            serve: self.stats(),
            runtime: self.shared.runtime.stats(),
        }
    }

    /// One machine-readable snapshot of everything this server observes:
    /// the scheduler counters (`bh_serve_*`), the runtime and VM counters
    /// (`bh_runtime_*`, `bh_vm_*`) and — when runtime profiling is on —
    /// the per-digest profile families (`bh_profile_*`, hottest
    /// [`bh_observe::EXPORT_TOP_K`] digests). Render the result with
    /// [`MetricSet::to_prometheus`] for a scrape endpoint or
    /// [`MetricSet::to_json`] for logs and dashboards; the family names
    /// are a stable, golden-tested contract (DESIGN.md §13).
    pub fn metrics(&self) -> MetricSet {
        let mut set = MetricSet::new();
        self.stats().collect_into(&mut set);
        self.shared.runtime.stats().collect_into(&mut set);
        if let Some(table) = self.shared.runtime.profile_table() {
            table.collect_into(&mut set);
        }
        set
    }

    /// Stop accepting submissions, drain every queued request, and join
    /// the workers. Queued work is *completed*, not dropped; only
    /// subsequent submissions are rejected (with
    /// [`ServeError::Shutdown`]). Idempotent; also runs on drop.
    ///
    /// Must not be called from a worker-executed callback (it joins the
    /// worker threads).
    pub fn shutdown(&self) {
        {
            // Under the sched lock, to serialise against submit(): every
            // request accepted before this point is visible to the drain.
            let _sched = self.shared.sched.lock();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work.notify_all();
        let workers: Vec<_> = self.workers.lock().drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
        // With zero workers (or if callers raced a submit past the flag),
        // drain the remainder on this thread so every accepted request
        // still resolves exactly once.
        while self.service_once() {}
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers.lock().len())
            .field("capacity", &self.shared.capacity)
            .field("max_batch", &self.shared.max_batch)
            .field("queued", &self.queue_depth())
            .finish()
    }
}
