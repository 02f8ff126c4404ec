//! Stress test: many submitters sharing one small [`WorkerPool`].
//!
//! A `VmPool` hands the same `WorkerPool` to every VM it checks out, so
//! `run_ranges` is entered concurrently. Only one job is in flight at a
//! time (late arrivals run inline), which leaves one hazardous window: a
//! submitter that is descheduled after its own job retired can wake to
//! find a *later* job published — or already finished. It must then
//! neither wait for a completion that has already happened (a hang) nor
//! claim a shard of the job it did not publish (its closure run over a
//! foreign range: out-of-bounds writes in the VM's fused-step closures).
//!
//! Every submitter uses its own element count `n`, every closure asserts
//! its range stays inside `n`, every job checks its element sum, and a
//! watchdog turns a stall into a failure instead of a hung test binary.

use bh_tensor::kernels::RangeExecutor;
use bh_vm::WorkerPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

const SUBMITTERS: usize = 8;
const JOBS_PER_SUBMITTER: usize = 200_000;
/// No job finishing anywhere for this long is a hang, not a slow host.
const STALL: Duration = Duration::from_secs(20);

#[test]
fn submitters_sharing_a_pool_never_hang_or_run_a_foreign_range() {
    let pool = Arc::new(WorkerPool::new(2));
    let finished_jobs = Arc::new(AtomicU64::new(0));
    let (done_tx, done_rx) = mpsc::channel::<()>();
    // Detached on purpose: a submitter stuck inside `run_ranges` can
    // never be joined, and the watchdog below must still get to fail.
    for s in 0..SUBMITTERS {
        let pool = Arc::clone(&pool);
        let finished_jobs = Arc::clone(&finished_jobs);
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            let n = 64 + 32 * s;
            let want: u64 = (0..n as u64).sum();
            for _ in 0..JOBS_PER_SUBMITTER {
                let sum = AtomicU64::new(0);
                pool.run_ranges(n, 1, &|lo, hi| {
                    assert!(lo < hi && hi <= n, "foreign range {lo}..{hi} on n={n}");
                    sum.fetch_add((lo as u64..hi as u64).sum(), Ordering::Relaxed);
                });
                assert_eq!(sum.load(Ordering::Relaxed), want, "n={n}");
                finished_jobs.fetch_add(1, Ordering::Relaxed);
            }
            // A panicking submitter never gets here: its sender drops
            // unsent, which the watchdog tells apart from completion.
            let _ = done_tx.send(());
        });
    }
    drop(done_tx);

    let mut completed = 0;
    let mut seen = 0;
    while completed < SUBMITTERS {
        match done_rx.recv_timeout(STALL) {
            Ok(()) => completed += 1,
            Err(RecvTimeoutError::Timeout) => {
                let now = finished_jobs.load(Ordering::Relaxed);
                assert!(
                    now > seen,
                    "no job finished in {STALL:?}: stalled at {now} of {} jobs with \
                     {completed}/{SUBMITTERS} submitters done",
                    SUBMITTERS * JOBS_PER_SUBMITTER
                );
                seen = now;
            }
            Err(RecvTimeoutError::Disconnected) => panic!(
                "a submitter panicked: {completed}/{SUBMITTERS} completed, {} jobs finished",
                finished_jobs.load(Ordering::Relaxed)
            ),
        }
    }
    assert_eq!(
        finished_jobs.load(Ordering::Relaxed),
        (SUBMITTERS * JOBS_PER_SUBMITTER) as u64
    );
}
