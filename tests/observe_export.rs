//! Exporter contract tests.
//!
//! Two properties pinned here:
//!
//! 1. **Golden rendering** — the Prometheus text exposition and the JSON
//!    rendering of a fixed, synthetic metric snapshot are compared
//!    byte-for-byte against `tests/golden/metrics.{prom,json}`. Metric
//!    *names* are a public contract (dashboards and alert rules key on
//!    them), so any rename or format drift must show up as a reviewed
//!    golden diff. Regenerate deliberately with
//!    `BLESS_GOLDEN=1 cargo test --test observe_export`.
//!
//! 2. **Thread-count determinism** — the per-digest [`ProfileTable`]'s
//!    deterministic counters (hits, plan builds, op-code totals and the
//!    analytic `ExecStats` subset) are bit-identical however many VM
//!    worker threads execute the programs. Wall-clock histograms and
//!    shard counts are observational and deliberately excluded from the
//!    compared key.

use bohrium_repro::ir::{parse_program, Opcode};
use bohrium_repro::observe::{EvalSample, MetricSet, ProfileTable};
use bohrium_repro::runtime::{AuditCounters, Runtime, RuntimeStats};
use bohrium_repro::serve::ServeStats;
use bohrium_repro::testing::legs;
use bohrium_repro::vm::ExecStats;
use std::path::PathBuf;
use std::time::Duration;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `rendered` against the golden file, or rewrite the golden
/// when `BLESS_GOLDEN` is set.
fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); run `BLESS_GOLDEN=1 cargo test --test observe_export` to create it")
    });
    assert_eq!(
        rendered, want,
        "rendered metrics drifted from {path:?}; if the change is intentional, regenerate with `BLESS_GOLDEN=1 cargo test --test observe_export` and review the diff"
    );
}

/// A fully synthetic, fully deterministic snapshot: fixed counters, fixed
/// durations — no wall clocks anywhere, so the rendering is stable across
/// machines and runs.
fn synthetic_metrics() -> MetricSet {
    let exec = ExecStats {
        instructions: 40,
        kernels: 12,
        fused_groups: 8,
        par_shards: 0,
        reduce_shards: 0,
        fused_reductions: 2,
        elements_written: 640,
        bytes_read: 5120,
        bytes_written: 5120,
        flops: 1280,
        syncs: 10,
    };
    let runtime = RuntimeStats {
        evals: 10,
        cache_hits: 8,
        cache_misses: 2,
        verifications: 3,
        rules_fired: 14,
        opt_iterations: 6,
        eval_nanos: 123_456,
        exec,
        audits: AuditCounters {
            passed: 2,
            failed: 1,
            rolled_back: 1,
        },
    };

    let mut serve = ServeStats {
        submitted: 12,
        rejected: 2,
        completed: 10,
        batches: 4,
        peak_queue_depth: 6,
        ..ServeStats::default()
    };
    serve.batch_sizes.record(2);
    serve.batch_sizes.record(3);
    serve.batch_sizes.record(2);
    serve.batch_sizes.record(3);
    for micros in [50u64, 80, 80, 120, 200] {
        serve.latency.record(Duration::from_micros(micros));
    }

    let table = ProfileTable::new(64);
    let opcodes = [(Opcode::Add, 3u64), (Opcode::Multiply, 1u64)];
    table.record_plan_build(
        0xfeed_f00d,
        Duration::from_micros(30),
        Duration::from_micros(5),
        &opcodes,
    );
    let per_eval = ExecStats {
        instructions: 4,
        kernels: 1,
        fused_groups: 1,
        elements_written: 64,
        bytes_read: 512,
        bytes_written: 512,
        flops: 128,
        syncs: 1,
        ..ExecStats::default()
    };
    for _ in 0..2 {
        table.record_eval(
            0xfeed_f00d,
            &EvalSample {
                bind_nanos: 1_000,
                execute_nanos: 8_000,
                read_back_nanos: 500,
                exec: per_eval,
            },
            &opcodes,
        );
        table.record_queue_wait(0xfeed_f00d, Duration::from_micros(4));
    }

    MetricSet::collect_from(&[&serve, &runtime, &table])
}

#[test]
fn prometheus_rendering_matches_the_golden_file() {
    check_golden("metrics.prom", &synthetic_metrics().to_prometheus());
}

#[test]
fn json_rendering_matches_the_golden_file() {
    check_golden("metrics.json", &synthetic_metrics().to_json());
}

/// The workload for the determinism check: big enough to shard across
/// worker threads on both the element-wise and the reduction paths.
fn workloads() -> Vec<bohrium_repro::ir::Program> {
    vec![
        parse_program(
            ".base x f64[4096] input\n.base y f64[4096]\n\
             BH_MULTIPLY y x x\nBH_ADD y y x\nBH_ADD y y 1\nBH_SYNC y\n",
        )
        .unwrap(),
        parse_program(".base x f64[4096] input\n.base s f64[]\nBH_ADD_REDUCE s x 0\nBH_SYNC s\n")
            .unwrap(),
    ]
}

#[test]
fn profile_counters_are_bit_identical_across_thread_counts() {
    // Every thread count of the test matrix.
    let mut counts: Vec<usize> = legs().iter().map(|leg| leg.threads).collect();
    counts.sort_unstable();
    counts.dedup();

    let keys_per_count: Vec<_> = counts
        .iter()
        .map(|&threads| {
            let runtime = Runtime::builder().threads(threads).build();
            for program in &workloads() {
                let inputs = bohrium_repro::testing::input_tensor(program, 0, 42);
                let reg = bohrium_repro::ir::Reg(0);
                let read = program
                    .reg_by_name("y")
                    .or(program.reg_by_name("s"))
                    .unwrap();
                for _ in 0..3 {
                    runtime
                        .eval(program, &[(reg, inputs.clone())], read)
                        .unwrap();
                }
            }
            runtime
                .profile(usize::MAX)
                .into_iter()
                .map(|p| p.deterministic_key())
                .collect::<Vec<_>>()
        })
        .collect();

    let (first, rest) = keys_per_count.split_first().unwrap();
    assert_eq!(first.len(), workloads().len(), "one profile per digest");
    for (i, other) in rest.iter().enumerate() {
        assert_eq!(
            first,
            other,
            "profile counters diverged between {} and {} VM threads",
            counts[0],
            counts[i + 1]
        );
    }
}
