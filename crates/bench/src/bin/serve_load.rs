//! Closed-loop multi-tenant load generator for `bh-serve`.
//!
//! Drives the same request trace through two configurations and
//! writes `BENCH_serve.json` (throughput + latency percentiles) so the
//! repo has a perf trajectory for the serving layer:
//!
//! * **naive** — the one-eval-per-request loop: every request pays its
//!   own digest computation, plan-cache lookup and VM checkout via
//!   `Runtime::eval`, in the round-robin tenant order an unbatched
//!   server would process them.
//! * **serve** — the batching [`Server`] with the default batch limit:
//!   per-tenant closed-loop clients submit bursts; same-digest requests
//!   group into micro-batches that share one plan lookup and one pinned
//!   VM.
//!
//! Two workloads are measured. `churn` is the serving regime the
//! scheduler exists for: the tenant-program population (one program per
//! tenant) exceeds the plan-cache capacity, so the naive loop re-runs
//! the optimiser per request while the batcher amortises it per batch.
//! `hot` is the all-cache-hit regime (a single shared program), where
//! batching only amortises per-eval bookkeeping.

use bh_runtime::Runtime;
use bh_serve::{ProgramHandle, Request, Server};
use bh_tensor::Tensor;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 16;
const ROUNDS: usize = 48; // requests per tenant
const BURST: usize = 16; // in-flight requests per closed-loop client
const CACHE_CAPACITY: usize = 8; // < TENANTS: the churn regime
const MAX_BATCH: usize = 16;
const WORKERS: usize = 2;

/// One tenant's program: `k` adds over its own vector length, so every
/// tenant has a distinct structural digest but comparable work.
fn tenant_program(tenant: usize) -> ProgramHandle {
    let n = 48 + tenant;
    let mut text = format!(".base x f64[{n}] input\n.base a f64[{n}]\nBH_IDENTITY a 0\n");
    for _ in 0..24 {
        text.push_str("BH_ADD a a 1\n");
    }
    text.push_str("BH_ADD a a x\nBH_SYNC a\n");
    ProgramHandle::new(bh_ir::parse_program(&text).expect("generated program parses"))
}

fn runtime() -> Arc<Runtime> {
    Runtime::builder()
        .cache_capacity(CACHE_CAPACITY)
        .build_shared()
}

struct Measured {
    requests: usize,
    elapsed: Duration,
    mean_batch: f64,
    p50: Duration,
    p95: Duration,
    p99: Duration,
}

impl Measured {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64()
    }
}

/// The highest-throughput pass of `PASSES` runs of `run`.
fn best_of(mut run: impl FnMut() -> Measured) -> Measured {
    const PASSES: usize = 3;
    (0..PASSES)
        .map(|_| run())
        .max_by(|x, y| x.rps().total_cmp(&y.rps()))
        .expect("at least one pass")
}

/// The one-eval-per-request loop over the interleaved tenant trace.
fn run_naive(handles: &[ProgramHandle], rounds: usize) -> Measured {
    let rt = runtime();
    let inputs: Vec<Tensor> = handles
        .iter()
        .map(|h| {
            let x = h.program().reg_by_name("x").expect("input register");
            Tensor::from_vec(vec![1.0f64; h.program().base(x).shape.nelem()])
        })
        .collect();
    let mut latencies = Vec::with_capacity(rounds * handles.len());
    let start = Instant::now();
    for _ in 0..rounds {
        for (t, h) in handles.iter().enumerate() {
            let x = h.program().reg_by_name("x").expect("input register");
            let a = h.program().reg_by_name("a").expect("result register");
            let begun = Instant::now();
            let (value, _) = rt
                .eval(h.program(), &[(x, inputs[t].clone())], a)
                .expect("bench program evaluates");
            assert_eq!(value.to_f64_vec()[0], 25.0);
            latencies.push(begun.elapsed());
        }
    }
    let elapsed = start.elapsed();
    latencies.sort();
    let pick =
        |q: f64| latencies[((q * (latencies.len() - 1) as f64) as usize).min(latencies.len() - 1)];
    Measured {
        requests: latencies.len(),
        elapsed,
        mean_batch: 1.0,
        p50: pick(0.50),
        p95: pick(0.95),
        p99: pick(0.99),
    }
}

/// The same trace through the batching server: one closed-loop client
/// thread per tenant, submitting `BURST` tickets then waiting for them.
fn run_serve(handles: &[ProgramHandle], rounds: usize) -> Measured {
    let server = Arc::new(
        Server::builder(runtime())
            .workers(WORKERS)
            .queue_capacity(TENANTS * BURST * 2)
            .max_batch(MAX_BATCH)
            .build(),
    );
    let start = Instant::now();
    let clients: Vec<_> = handles
        .iter()
        .enumerate()
        .map(|(t, h)| {
            let server = Arc::clone(&server);
            let h = h.clone();
            std::thread::spawn(move || {
                let x = h.program().reg_by_name("x").expect("input register");
                let a = h.program().reg_by_name("a").expect("result register");
                let n = h.program().base(x).shape.nelem();
                let input = Tensor::from_vec(vec![1.0f64; n]);
                let tenant = format!("tenant-{t}");
                let mut remaining = rounds;
                while remaining > 0 {
                    let burst = remaining.min(BURST);
                    let tickets = server.submit_many((0..burst).map(|_| {
                        Request::with_handle(&*tenant, &h)
                            .bind(x, input.clone())
                            .read(a)
                    }));
                    for ticket in tickets {
                        let r = ticket
                            .expect("queue sized for every in-flight request")
                            .wait()
                            .expect("bench program evaluates");
                        assert_eq!(r.value.expect("read requested").to_f64_vec()[0], 25.0);
                    }
                    remaining -= burst;
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let elapsed = start.elapsed();
    // Snapshot after shutdown: the drain has joined the workers, so the
    // final batch's stats are all in.
    server.shutdown();
    let stats = server.stats();
    Measured {
        requests: (rounds * handles.len()),
        elapsed,
        mean_batch: stats.mean_batch_size(),
        p50: stats.latency.p50(),
        p95: stats.latency.p95(),
        p99: stats.latency.p99(),
    }
}

/// What the admission-time verifier costs and what it buys (DESIGN.md
/// §12). One side measures the full abstract-interpretation pass
/// (`bh_ir::verify`) per call — the price a verify-per-eval design would
/// pay on every request. The other drives the checked-once hot path:
/// after one cache miss the plan cache holds a `Verified` witness, so
/// repeated evals of the same digest run zero verification passes
/// ([`bh_runtime::RuntimeStats::verifications`] stays at 1 while `evals`
/// climbs — asserted here, not just claimed).
struct VerifyAmortisation {
    verify_each: Duration,
    eval_each: Duration,
    evals: usize,
    verifications: u64,
}

impl VerifyAmortisation {
    /// Verify cost as a fraction of a cache-hit eval: the per-request
    /// overhead a verify-per-eval design would add to the hot path.
    fn unamortised_overhead(&self) -> f64 {
        self.verify_each.as_secs_f64() / self.eval_each.as_secs_f64()
    }
}

fn run_verify_amortisation() -> VerifyAmortisation {
    const EVALS: usize = 2048;
    let handle = tenant_program(0);
    let program = handle.program();

    // Per-call cost of the full verification pass on the bench program.
    let start = Instant::now();
    for _ in 0..EVALS {
        std::hint::black_box(bh_ir::verify(std::hint::black_box(program)))
            .expect("bench program verifies");
    }
    let verify_each = start.elapsed() / EVALS as u32;

    // The checked-once hot path: warm the plan cache (the one and only
    // verification), then time cache-hit evals that never re-verify.
    let rt = runtime();
    let x = program.reg_by_name("x").expect("input register");
    let a = program.reg_by_name("a").expect("result register");
    let input = Tensor::from_vec(vec![1.0f64; program.base(x).shape.nelem()]);
    rt.eval(program, &[(x, input.clone())], a)
        .expect("warm-up eval");
    let start = Instant::now();
    for _ in 0..EVALS {
        let (value, _) = rt
            .eval(program, &[(x, input.clone())], a)
            .expect("bench program evaluates");
        std::hint::black_box(value);
    }
    let eval_each = start.elapsed() / EVALS as u32;

    let stats = rt.stats();
    assert_eq!(
        stats.verifications, 1,
        "the hot path must verify once per digest, not per eval"
    );
    assert_eq!(stats.evals, EVALS as u64 + 1);
    VerifyAmortisation {
        verify_each,
        eval_each,
        evals: EVALS,
        verifications: stats.verifications,
    }
}

/// What the whole-plan translation-validation audit costs
/// ([`bh_runtime::RuntimeBuilder::audit`], DESIGN.md §15). One side
/// times the cache-miss `prepare` compile with the audit off, the other
/// with it on — the audit runs exactly once per compile, so the miss
/// path is the *only* place it can cost anything. The cached-eval hot
/// path is asserted free by counter, not by stopwatch:
/// `RuntimeStats::audits` stays at the miss count while `evals` climbs.
struct AuditOverhead {
    prepare_off_us: f64,
    prepare_on_us: f64,
    hot_evals: usize,
    hot_audits: u64,
}

impl AuditOverhead {
    /// Fractional compile-time slowdown the audit adds per cache miss.
    fn overhead(&self) -> f64 {
        self.prepare_on_us / self.prepare_off_us - 1.0
    }

    /// Microseconds the audit adds per cache miss.
    fn audit_us(&self) -> f64 {
        self.prepare_on_us - self.prepare_off_us
    }
}

/// Adds per program in the audit-overhead measurement, and what the audit
/// may add to one cache-miss `prepare` of such a program: ~10us measured
/// on a 2.1 GHz Xeon vCPU (25us on the slower host that first recorded
/// it), so the budget trips on a 2-4x regression, not on host noise.
const AUDIT_CHAIN: usize = 96;
const AUDIT_BUDGET_US: f64 = 40.0;

fn run_audit_overhead() -> AuditOverhead {
    const PROGRAMS: usize = 64;
    const REPS: usize = 5;
    const CHAIN: usize = AUDIT_CHAIN;
    // Long chains over small vectors (disjoint lengths from every other
    // workload here): the O2 fixpoint dominates `prepare`, the regime
    // where a whole-plan audit pass has the most to add.
    let programs: Vec<ProgramHandle> = (0..PROGRAMS)
        .map(|i| chain_program(4096 + i, CHAIN))
        .collect();
    let measure = |audit: bool| -> f64 {
        let mut best: Option<f64> = None;
        for _ in 0..REPS {
            let rt = Runtime::builder().threads(1).audit(audit).build();
            let start = Instant::now();
            for h in &programs {
                std::hint::black_box(rt.prepare(h.program()).expect("bench program prepares"));
            }
            let each = start.elapsed().as_secs_f64() * 1e6 / PROGRAMS as f64;
            if best.is_none_or(|b| each < b) {
                best = Some(each);
            }
        }
        best.expect("reps measured")
    };
    let prepare_off_us = measure(false);
    let prepare_on_us = measure(true);

    // The hot path: one miss (one audit), then cached evals that must
    // never re-prove the plan.
    const EVALS: usize = 2048;
    let handle = tenant_program(0);
    let program = handle.program();
    let x = program.reg_by_name("x").expect("input register");
    let a = program.reg_by_name("a").expect("result register");
    let input = Tensor::from_vec(vec![1.0f64; program.base(x).shape.nelem()]);
    let rt = Runtime::builder().audit(true).build();
    rt.eval(program, &[(x, input.clone())], a)
        .expect("warm-up eval");
    for _ in 0..EVALS {
        let (value, _) = rt
            .eval(program, &[(x, input.clone())], a)
            .expect("bench program evaluates");
        std::hint::black_box(value);
    }
    let stats = rt.stats();
    assert_eq!(
        stats.audits.total(),
        1,
        "the audit must run once per compile, never per cached eval"
    );
    assert_eq!(stats.audits.failed, 0, "the optimiser's plans must prove");
    assert_eq!(stats.evals, EVALS as u64 + 1);
    AuditOverhead {
        prepare_off_us,
        prepare_on_us,
        hot_evals: EVALS,
        hot_audits: stats.audits.total(),
    }
}

/// What per-digest profiling costs on the hot cached-eval path — the
/// price of leaving it on in production (it defaults to on). Each side
/// is the *best* of several timed repetitions, so allocator or scheduler
/// hiccups on one rep cannot manufacture phantom overhead; the profiled
/// side pays two extra clock reads plus one striped-mutex `record_eval`
/// per eval (DESIGN.md §13).
struct ObserveOverhead {
    off_each: Duration,
    on_each: Duration,
}

impl ObserveOverhead {
    /// Fractional slowdown of the profiled path (negative = in the noise).
    fn overhead(&self) -> f64 {
        self.on_each.as_secs_f64() / self.off_each.as_secs_f64() - 1.0
    }
}

fn run_observe_overhead() -> ObserveOverhead {
    const EVALS: usize = 4096;
    const REPS: usize = 5;
    let handle = tenant_program(0);
    let program = handle.program();
    let x = program.reg_by_name("x").expect("input register");
    let a = program.reg_by_name("a").expect("result register");
    let input = Tensor::from_vec(vec![1.0f64; program.base(x).shape.nelem()]);

    let measure = |profiling: bool| -> Duration {
        let mut best: Option<Duration> = None;
        for _ in 0..REPS {
            let rt = Runtime::builder().profiling(profiling).build();
            rt.eval(program, &[(x, input.clone())], a)
                .expect("warm-up eval");
            let start = Instant::now();
            for _ in 0..EVALS {
                let (value, _) = rt
                    .eval(program, &[(x, input.clone())], a)
                    .expect("bench program evaluates");
                std::hint::black_box(value);
            }
            let each = start.elapsed() / EVALS as u32;
            if best.is_none_or(|b| each < b) {
                best = Some(each);
            }
        }
        best.expect("reps measured")
    };

    ObserveOverhead {
        off_each: measure(false),
        on_each: measure(true),
    }
}

/// An `adds`-long constant chain over an `n`-vector. Distinct `n` ⇒
/// distinct structural digest. A long chain over a *small* vector is the
/// compile-dominated regime: `prepare` over ~100 instructions costs far
/// more than the eval of the merged plan.
fn chain_program(n: usize, adds: usize) -> ProgramHandle {
    let mut text = format!("BH_IDENTITY a [0:{n}:1] 0\n");
    for _ in 0..adds {
        text.push_str("BH_ADD a a 1\n");
    }
    text.push_str("BH_SYNC a\n");
    ProgramHandle::new(bh_ir::parse_program(&text).expect("generated program parses"))
}

/// A small served workload whose exporter snapshot is embedded verbatim
/// in `BENCH_serve.json`, so the perf artifact carries the same
/// machine-readable counters a live scrape endpoint would serve.
fn run_metrics_snapshot() -> String {
    let server = Server::builder(runtime()).workers(0).build();
    let handles: Vec<ProgramHandle> = (0..4).map(tenant_program).collect();
    for (t, h) in handles.iter().enumerate() {
        let x = h.program().reg_by_name("x").expect("input register");
        let a = h.program().reg_by_name("a").expect("result register");
        let input = Tensor::from_vec(vec![1.0f64; h.program().base(x).shape.nelem()]);
        let tickets = server.submit_many((0..8).map(|_| {
            Request::with_handle(format!("tenant-{t}"), h)
                .bind(x, input.clone())
                .read(a)
        }));
        while server.service_once() {}
        for ticket in tickets {
            ticket
                .expect("queue sized for the snapshot workload")
                .wait()
                .expect("snapshot program evaluates");
        }
    }
    server.metrics().to_json()
}

fn json_section(out: &mut String, name: &str, naive: &Measured, serve: &Measured) {
    let speedup = serve.rps() / naive.rps();
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let _ = write!(
        out,
        "  \"{name}\": {{\n    \"requests\": {},\n    \"naive_rps\": {:.1},\n    \
         \"serve_rps\": {:.1},\n    \"speedup\": {:.2},\n    \"mean_batch\": {:.2},\n    \
         \"naive_p50_us\": {:.1},\n    \"serve_p50_us\": {:.1},\n    \
         \"serve_p95_us\": {:.1},\n    \"serve_p99_us\": {:.1}\n  }}",
        serve.requests,
        naive.rps(),
        serve.rps(),
        speedup,
        serve.mean_batch,
        us(naive.p50),
        us(serve.p50),
        us(serve.p95),
        us(serve.p99),
    );
}

fn main() {
    // Distinct program per tenant (churn: population > cache capacity).
    let churn_handles: Vec<ProgramHandle> = (0..TENANTS).map(tenant_program).collect();
    // One shared program for every tenant (hot: pure cache hits).
    let hot_handles: Vec<ProgramHandle> = (0..TENANTS).map(|_| tenant_program(0)).collect();

    eprintln!(
        "serve_load: {TENANTS} tenants x {ROUNDS} requests, burst {BURST}, \
         max_batch {MAX_BATCH}, plan cache {CACHE_CAPACITY}"
    );

    // Warm-up pass so one-time costs (thread spawn paths, allocator)
    // don't skew whichever side runs first.
    run_naive(&churn_handles[..2], 4);
    run_serve(&churn_handles[..2], 4);

    // One pass is 768 requests — 5-20ms — so a single scheduler hiccup on
    // either side moves the ratio by tens of percent: keep the best of a
    // few passes per side, as the compile-cost sections below do.
    let churn_naive = best_of(|| run_naive(&churn_handles, ROUNDS));
    let churn_serve = best_of(|| run_serve(&churn_handles, ROUNDS));
    let hot_naive = best_of(|| run_naive(&hot_handles, ROUNDS));
    let hot_serve = best_of(|| run_serve(&hot_handles, ROUNDS));

    let churn_speedup = churn_serve.rps() / churn_naive.rps();
    let hot_speedup = hot_serve.rps() / hot_naive.rps();
    eprintln!(
        "churn: naive {:.0} req/s vs serve {:.0} req/s ({:.2}x, mean batch {:.1})",
        churn_naive.rps(),
        churn_serve.rps(),
        churn_speedup,
        churn_serve.mean_batch,
    );
    eprintln!(
        "hot:   naive {:.0} req/s vs serve {:.0} req/s ({:.2}x, mean batch {:.1})",
        hot_naive.rps(),
        hot_serve.rps(),
        hot_speedup,
        hot_serve.mean_batch,
    );

    let overhead = run_observe_overhead();
    eprintln!(
        "observe: {:.2}us per cached eval profiled vs {:.2}us unprofiled — {:+.1}% overhead",
        overhead.on_each.as_secs_f64() * 1e6,
        overhead.off_each.as_secs_f64() * 1e6,
        overhead.overhead() * 100.0,
    );

    let verify = run_verify_amortisation();
    eprintln!(
        "verify: {:.1}us per pass vs {:.1}us per cached eval — {:.1}% overhead \
         if paid per eval; paid {} time(s) across {} evals instead",
        verify.verify_each.as_secs_f64() * 1e6,
        verify.eval_each.as_secs_f64() * 1e6,
        verify.unamortised_overhead() * 100.0,
        verify.verifications,
        verify.evals,
    );

    let audit = run_audit_overhead();
    eprintln!(
        "audit: {:.1}us per audited prepare vs {:.1}us unaudited — {:+.1}us, {:+.1}% per cache \
         miss; {} audit(s) across {} cached evals",
        audit.prepare_on_us,
        audit.prepare_off_us,
        audit.audit_us(),
        audit.overhead() * 100.0,
        audit.hot_audits,
        audit.hot_evals,
    );

    let mut out = String::from("{\n");
    let _ = write!(
        out,
        "  \"config\": {{\n    \"tenants\": {TENANTS},\n    \"rounds\": {ROUNDS},\n    \
         \"burst\": {BURST},\n    \"max_batch\": {MAX_BATCH},\n    \
         \"workers\": {WORKERS},\n    \"plan_cache_capacity\": {CACHE_CAPACITY}\n  }},\n",
    );
    json_section(&mut out, "churn", &churn_naive, &churn_serve);
    out.push_str(",\n");
    json_section(&mut out, "hot", &hot_naive, &hot_serve);
    out.push_str(",\n");
    let _ = write!(
        out,
        "  \"verify_amortisation\": {{\n    \"verify_pass_us\": {:.2},\n    \
         \"cached_eval_us\": {:.2},\n    \
         \"unamortised_overhead_pct\": {:.1},\n    \"evals\": {},\n    \
         \"verifications\": {}\n  }},\n",
        verify.verify_each.as_secs_f64() * 1e6,
        verify.eval_each.as_secs_f64() * 1e6,
        verify.unamortised_overhead() * 100.0,
        verify.evals,
        verify.verifications,
    );
    let _ = write!(
        out,
        "  \"audit_overhead\": {{\n    \"unaudited_prepare_us\": {:.2},\n    \
         \"audited_prepare_us\": {:.2},\n    \"audit_us\": {:.2},\n    \
         \"overhead_pct\": {:.1},\n    \
         \"hot_evals\": {},\n    \"hot_audits\": {}\n  }},\n",
        audit.prepare_off_us,
        audit.prepare_on_us,
        audit.audit_us(),
        audit.overhead() * 100.0,
        audit.hot_evals,
        audit.hot_audits,
    );
    let _ = write!(
        out,
        "  \"observe_overhead\": {{\n    \"unprofiled_eval_us\": {:.3},\n    \
         \"profiled_eval_us\": {:.3},\n    \"overhead_pct\": {:.2}\n  }},\n",
        overhead.off_each.as_secs_f64() * 1e6,
        overhead.on_each.as_secs_f64() * 1e6,
        overhead.overhead() * 100.0,
    );
    // The exporter's own JSON rendering, embedded verbatim: the perf
    // artifact carries the same counters a live scrape would.
    let _ = write!(
        out,
        "  \"metrics_snapshot\": {}\n}}\n",
        run_metrics_snapshot()
    );
    std::fs::write("BENCH_serve.json", &out).expect("write BENCH_serve.json");
    eprintln!("wrote BENCH_serve.json");

    assert!(
        churn_speedup >= 2.0,
        "digest batching must be >= 2x the naive loop on the repeated-program \
         (churn) workload, measured {churn_speedup:.2}x"
    );
    // What the audit may cost is bounded in microseconds, not as a share
    // of the miss: a share bounds the optimiser's cost from below as much
    // as the audit's from above (the same ~10us is 5% of a 217us miss and
    // 18% of a 62us one). That the hot path never re-proves a plan is
    // asserted by counter where it is measured.
    assert!(
        audit.audit_us() <= AUDIT_BUDGET_US,
        "the whole-plan audit must add <= {AUDIT_BUDGET_US}us to a cache-miss prepare of the \
         {}-add chain, measured {:+.1}us ({:+.1}%)",
        AUDIT_CHAIN,
        audit.audit_us(),
        audit.overhead() * 100.0
    );
    assert!(
        overhead.overhead() <= 0.05,
        "per-digest profiling must cost <= 5% on the hot cached-eval path, \
         measured {:+.1}%",
        overhead.overhead() * 100.0
    );
}
