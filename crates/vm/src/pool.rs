//! A thread-safe pool of recycled virtual machines.
//!
//! Building a [`Vm`] is cheap, but a recycled one is cheaper still: its
//! base-slot table is already grown, and it keeps the storage it
//! allocated for later runs of any program ([`Vm::recycle`]). An idle
//! pooled VM holds at most the largest footprint of any single run it
//! executed, so a pool of `limit` VMs holds at most `limit` times that.
//! The pool is the checkout/return surface behind both the runtime's
//! per-eval path and a serving layer that pins one VM per micro-batch.

use crate::machine::{Engine, Vm};
use crate::stats::ExecStats;
use bh_tensor::kernels::{shard_ranges, RangeExecutor};
use parking_lot::Mutex;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, PoisonError};

/// A persistent pool of worker threads that executes contiguous element
/// ranges in parallel: the engine behind the VM's fused-group sharding and
/// the parallel kernel variants in [`bh_tensor::kernels`].
///
/// The pool spawns `threads - 1` OS threads once and keeps them parked
/// between jobs; the caller of [`WorkerPool::run_ranges`] participates as
/// the final worker, so a job never pays a context switch when the pool is
/// size 1 and never leaves the caller idle while shards remain. This
/// replaces the seed's per-operation `std::thread::scope` spawning, whose
/// thread start-up cost swamped medium-sized operations.
///
/// # Examples
///
/// ```
/// use bh_tensor::kernels::RangeExecutor;
/// use bh_vm::WorkerPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let sum = AtomicU64::new(0);
/// pool.run_ranges(1000, 1, &|lo, hi| {
///     sum.fetch_add((lo..hi).map(|v| v as u64).sum(), Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
/// ```
pub struct WorkerPool {
    threads: usize,
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Borrowed range task, lifetime-erased. Valid for the lifetime of the
/// job because `run_ranges` does not return until the job completes.
type TaskPtr = *const (dyn Fn(usize, usize) + Sync);

/// One published job: an element count pre-sharded into ranges, a borrowed
/// task, and grab/complete bookkeeping.
struct Job {
    task: TaskPtr,
    ranges: Vec<(usize, usize)>,
    next: usize,
    active: usize,
}

// SAFETY: `task` crosses threads only while the submitting `run_ranges`
// call is blocked waiting for the job, keeping the referent alive.
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    epoch: u64,
    done_epoch: u64,
    shutdown: bool,
}

impl PoolState {
    /// Claim the next unclaimed shard of the current job (if any),
    /// marking it active. Shared by the worker loop and the submitter's
    /// participation loop so the `next`/`active` bookkeeping has exactly
    /// one implementation.
    fn grab_shard(&mut self) -> Option<(TaskPtr, (usize, usize))> {
        let job = self.job.as_mut()?;
        if job.next >= job.ranges.len() {
            return None;
        }
        let range = job.ranges[job.next];
        job.next += 1;
        job.active += 1;
        Some((job.task, range))
    }
}

struct PoolShared {
    state: std::sync::Mutex<PoolState>,
    work: std::sync::Condvar,
    done: std::sync::Condvar,
}

impl WorkerPool {
    /// A pool with `threads` workers in total (clamped to at least 1). The
    /// calling thread counts as one worker, so `threads - 1` OS threads
    /// are spawned.
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: std::sync::Mutex::new(PoolState {
                job: None,
                epoch: 0,
                done_epoch: 0,
                shutdown: false,
            }),
            work: std::sync::Condvar::new(),
            done: std::sync::Condvar::new(),
        });
        let handles = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            threads,
            shared,
            handles,
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut g = shared.state.lock().unwrap();
    loop {
        if g.shutdown {
            return;
        }
        match g.grab_shard() {
            Some((task, (lo, hi))) => {
                drop(g);
                // SAFETY: the submitter keeps the closure alive until the
                // job completes (it blocks in `run_ranges`).
                unsafe { (*task)(lo, hi) };
                g = shared.state.lock().unwrap();
                finish_shard(shared, &mut g);
            }
            None => {
                g = shared.work.wait(g).unwrap();
            }
        }
    }
}

/// Decrement the active count after running a shard; when the job is fully
/// drained, retire it and wake the submitter.
fn finish_shard(shared: &PoolShared, g: &mut std::sync::MutexGuard<'_, PoolState>) {
    let job = g.job.as_mut().expect("job present while shards active");
    job.active -= 1;
    if job.next == job.ranges.len() && job.active == 0 {
        g.done_epoch = g.epoch;
        g.job = None;
        shared.done.notify_all();
    }
}

impl RangeExecutor for WorkerPool {
    fn threads(&self) -> usize {
        self.threads
    }

    fn run_ranges(&self, n: usize, grain: usize, task: &(dyn Fn(usize, usize) + Sync)) -> usize {
        if n == 0 {
            return 0;
        }
        let ranges = shard_ranges(n, self.threads, grain);
        if ranges.len() <= 1 {
            task(0, n);
            return 1;
        }
        let shards = ranges.len();
        // A shard that panics must neither end this call while other
        // shards still run `task` (and write storage the caller owns) nor
        // kill a worker the job waits for: every shard of the job runs
        // under `catch_unwind`, and the first panic resumes here once the
        // job has retired.
        let panicked = std::sync::Mutex::new(None);
        let guarded = |lo: usize, hi: usize| {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| task(lo, hi))) {
                let mut first = panicked.lock().unwrap_or_else(PoisonError::into_inner);
                first.get_or_insert(payload);
            }
        };
        let guarded: &(dyn Fn(usize, usize) + Sync) = &guarded;
        // SAFETY: the transmute only erases the borrow lifetime. Workers
        // dereference the pointer exclusively between job publication and
        // job retirement, and this call does not return or unwind until
        // retirement, so the borrow outlives every dereference.
        let task_ptr: TaskPtr =
            unsafe { std::mem::transmute::<&(dyn Fn(usize, usize) + Sync), TaskPtr>(guarded) };
        let my_epoch;
        {
            let mut g = self.shared.state.lock().unwrap();
            if g.job.is_some() {
                // Another VM sharing this pool is mid-job (pools are shared
                // across a `VmPool`). Degrade gracefully: run serially
                // rather than deadlock or queue behind foreign work.
                drop(g);
                task(0, n);
                return 1;
            }
            g.epoch += 1;
            my_epoch = g.epoch;
            g.job = Some(Job {
                task: task_ptr,
                ranges,
                next: 0,
                active: 0,
            });
        }
        self.shared.work.notify_all();
        // The caller participates as a worker until the job drains.
        //
        // Invariant: epochs only grow and at most one job is published at
        // a time, so `done_epoch >= my_epoch` holds exactly when *this*
        // job has retired. The test is monotonic (the pool is shared by
        // every VM of a `VmPool`: while this thread was descheduled a
        // later job may have been published, or already finished, and
        // `done_epoch` moved past `my_epoch`) and it comes before any
        // grab, so a submitter can never claim a shard of a job it did
        // not publish — that would run *its* closure over a foreign range.
        let mut g = self.shared.state.lock().unwrap();
        loop {
            if g.done_epoch >= my_epoch {
                drop(g);
                if let Some(payload) = panicked
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                {
                    panic::resume_unwind(payload);
                }
                return shards;
            }
            match g.grab_shard() {
                // The submitter runs its shard through its own `guarded`
                // reference; the returned pointer is for the workers.
                Some((_task, (lo, hi))) => {
                    drop(g);
                    guarded(lo, hi);
                    g = self.shared.state.lock().unwrap();
                    finish_shard(&self.shared, &mut g);
                }
                None => {
                    g = self.shared.done.wait(g).unwrap();
                }
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut g = self.shared.state.lock().unwrap();
            g.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// Bounded stash of idle [`Vm`]s, all configured with one engine and
/// thread count.
///
/// # Examples
///
/// ```
/// use bh_ir::parse_program;
/// use bh_vm::{Engine, VmPool};
///
/// let pool = VmPool::new(Engine::Naive, 1, 4);
/// let program = parse_program("BH_IDENTITY a [0:4:1] 7\nBH_SYNC a\n")?;
/// {
///     let mut vm = pool.checkout();
///     vm.run(&program)?;
///     assert_eq!(vm.read_by_name(&program, "a")?.to_f64_vec(), vec![7.0; 4]);
/// } // dropped → recycled back into the pool
/// assert_eq!(pool.idle(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct VmPool {
    engine: Engine,
    threads: usize,
    limit: usize,
    idle: Mutex<Vec<Vm>>,
    workers: Option<Arc<WorkerPool>>,
}

impl VmPool {
    /// A pool whose VMs run `engine` with `threads` workers, keeping at
    /// most `limit` idle VMs for reuse (checkouts beyond the limit build
    /// fresh VMs; returns beyond it drop them).
    ///
    /// With `threads > 1` the pool spawns **one** persistent
    /// [`WorkerPool`] and installs it on every checked-out VM, so
    /// concurrent VMs share a single set of worker threads instead of
    /// each spawning their own.
    pub fn new(engine: Engine, threads: usize, limit: usize) -> VmPool {
        let threads = threads.max(1);
        VmPool {
            engine,
            threads,
            limit,
            idle: Mutex::new(Vec::new()),
            workers: (threads > 1).then(|| Arc::new(WorkerPool::new(threads))),
        }
    }

    /// The shared worker pool handed to checked-out VMs (`None` when the
    /// pool is single-threaded).
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.workers.as_ref()
    }

    /// The engine every checked-out VM is configured with.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Worker threads every checked-out VM is configured with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Upper bound on idle VMs kept for reuse.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Idle VMs currently available without building a new one.
    pub fn idle(&self) -> usize {
        self.idle.lock().len()
    }

    /// Check a VM out: a recycled idle one when available, a fresh one
    /// otherwise. Either way it comes with clean memory and counters and
    /// the pool's engine/thread configuration. The guard returns it on
    /// drop.
    pub fn checkout(&self) -> PooledVm<'_> {
        let idle = self.idle.lock().pop();
        let mut vm = idle.unwrap_or_else(|| Vm::with_engine(self.engine));
        vm.recycle();
        match &self.workers {
            Some(pool) => vm.set_worker_pool(Arc::clone(pool)),
            None => vm.set_threads(1),
        };
        PooledVm {
            pool: self,
            vm: Some(vm),
        }
    }

    fn checkin(&self, mut vm: Vm) {
        // Recycle on the way *in*, not just out: an idle pooled VM pins
        // no caller's bindings, and keeps of its own storage only the
        // stash, within its largest single-run footprint.
        vm.recycle();
        let mut idle = self.idle.lock();
        if idle.len() < self.limit {
            idle.push(vm);
        }
    }
}

impl fmt::Debug for VmPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VmPool")
            .field("engine", &self.engine)
            .field("threads", &self.threads)
            .field("limit", &self.limit)
            .field("idle", &self.idle.lock().len())
            .finish()
    }
}

/// RAII checkout from a [`VmPool`]; derefs to the [`Vm`] and returns it
/// (recycled) to the pool on drop.
pub struct PooledVm<'p> {
    pool: &'p VmPool,
    vm: Option<Vm>,
}

impl PooledVm<'_> {
    /// Snapshot the VM's accumulated counters (convenience for computing
    /// per-run deltas with [`ExecStats::since`] when several runs share
    /// this checkout).
    pub fn stats_snapshot(&self) -> ExecStats {
        *self.vm.as_ref().expect("present until drop").stats()
    }

    /// Detach the VM from the pool: it will not be returned on drop.
    pub fn detach(mut self) -> Vm {
        self.vm.take().expect("present until drop")
    }
}

impl Deref for PooledVm<'_> {
    type Target = Vm;

    fn deref(&self) -> &Vm {
        self.vm.as_ref().expect("present until drop")
    }
}

impl DerefMut for PooledVm<'_> {
    fn deref_mut(&mut self) -> &mut Vm {
        self.vm.as_mut().expect("present until drop")
    }
}

impl Drop for PooledVm<'_> {
    fn drop(&mut self) {
        if let Some(vm) = self.vm.take() {
            self.pool.checkin(vm);
        }
    }
}

impl fmt::Debug for PooledVm<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledVm").field("vm", &self.vm).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::parse_program;

    fn program() -> bh_ir::Program {
        parse_program("BH_IDENTITY a [0:8:1] 1\nBH_ADD a a 2\nBH_SYNC a\n").unwrap()
    }

    #[test]
    fn checkout_runs_and_returns() {
        let pool = VmPool::new(Engine::Naive, 1, 2);
        assert_eq!(pool.idle(), 0);
        {
            let mut vm = pool.checkout();
            vm.run(&program()).unwrap();
        }
        assert_eq!(pool.idle(), 1);
        // The recycled VM comes back clean.
        let vm = pool.checkout();
        assert_eq!(vm.stats().instructions, 0);
    }

    #[test]
    fn limit_caps_idle_vms() {
        let pool = VmPool::new(Engine::Naive, 1, 1);
        let a = pool.checkout();
        let b = pool.checkout();
        drop(a);
        drop(b);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn checkout_applies_engine_and_threads() {
        let pool = VmPool::new(Engine::Fusing { block: 64 }, 3, 4);
        let vm = pool.checkout();
        assert_eq!(vm.engine(), Engine::Fusing { block: 64 });
        assert_eq!(vm.threads(), 3);
        drop(vm);
        // A recycled VM keeps the pool's engine.
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.checkout().engine(), Engine::Fusing { block: 64 });
    }

    #[test]
    fn detach_keeps_the_vm_out_of_the_pool() {
        let pool = VmPool::new(Engine::Naive, 1, 4);
        let vm = pool.checkout().detach();
        drop(vm);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn worker_pool_covers_ranges_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(4);
        for n in [0usize, 1, 7, 1000, 4096] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let shards = pool.run_ranges(n, 64, &|lo, hi| {
                for h in &hits[lo..hi] {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(shards <= 4);
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "n={n}: every element must be visited exactly once"
            );
        }
    }

    #[test]
    fn worker_pool_reusable_across_jobs() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let pool = WorkerPool::new(3);
        for _ in 0..50 {
            let sum = AtomicU64::new(0);
            pool.run_ranges(999, 10, &|lo, hi| {
                sum.fetch_add((hi - lo) as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 999);
        }
    }

    #[test]
    fn a_panicking_shard_panics_the_caller_once_the_job_drains() {
        // Shard 1 runs on the worker or on the caller, whichever grabs it
        // first: either way every shard finishes, the caller resumes the
        // panic, and the worker lives on for the next job.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(2);
        for _ in 0..4 {
            let ran = AtomicUsize::new(0);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_ranges(2, 1, &|lo, _| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    assert!(lo != 1, "shard 1 panics");
                })
            }));
            let payload = caught.expect_err("the shard's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"shard 1 panics"));
            assert_eq!(ran.load(Ordering::SeqCst), 2);
        }
        let ran = AtomicUsize::new(0);
        pool.run_ranges(2, 1, &|_, _| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn worker_pool_degrades_serially_when_busy() {
        // Two threads each driving jobs through one shared pool: one of
        // them finds the job slot occupied sometimes and must fall back
        // to inline execution without deadlock or data loss.
        use std::sync::atomic::{AtomicU64, Ordering};
        let pool = std::sync::Arc::new(WorkerPool::new(2));
        let total = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let pool = std::sync::Arc::clone(&pool);
                let total = std::sync::Arc::clone(&total);
                s.spawn(move || {
                    for _ in 0..200 {
                        pool.run_ranges(100, 1, &|lo, hi| {
                            total.fetch_add((hi - lo) as u64, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 2 * 200 * 100);
    }

    #[test]
    fn vm_pool_shares_one_worker_pool() {
        let pool = VmPool::new(Engine::Naive, 3, 2);
        let workers = Arc::clone(pool.worker_pool().expect("multi-threaded pool"));
        let a = pool.checkout();
        let b = pool.checkout();
        assert_eq!(a.threads(), 3);
        assert_eq!(b.threads(), 3);
        // Both VMs plus the pool hold the same WorkerPool.
        assert!(Arc::strong_count(&workers) >= 3);
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let pool = Arc::new(VmPool::new(Engine::Naive, 1, 4));
        let p = program();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let p = p.clone();
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        let mut vm = pool.checkout();
                        vm.run(&p).unwrap();
                        assert_eq!(vm.read_by_name(&p, "a").unwrap().to_f64_vec(), vec![3.0; 8]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(pool.idle() <= 4);
    }
}
