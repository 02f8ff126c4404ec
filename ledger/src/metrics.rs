//! The metric registry: every name the benchmark prints, with its unit,
//! direction, layer and — written down before anything was measured —
//! the end-to-end metric and workload it should move. `BENCHMARK.json`
//! carries name, unit and direction; a unit test keeps it in step with
//! this table. The README prints the rest.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug)]
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    pub meaning: &'static str,
}

pub const END_TO_END: [EndToEndMetric; 6] = [
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "parse + verify of the byte-code, runtime/server/listener construction, handshakes and warm-up; fastest eighth of 12 set-ups. Work moved out of the request path lands here.",
    },
    EndToEndMetric {
        name: "req_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "requests completed with a correct result per wall second; median over the fastest eighth of the rounds",
    },
    EndToEndMetric {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        meaning: "caller-observed request latency, nearest-rank median over the samples of those rounds",
    },
    EndToEndMetric {
        name: "lat_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        meaning: "same, nearest-rank p99",
    },
    EndToEndMetric {
        name: "cpu_us_per_req",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        meaning: "process user+system CPU (/proc/self/stat) per completed request; mean over those rounds. Catches spinning, wake-up storms and extra threads that wall time on idle cores hides.",
    },
    EndToEndMetric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        meaning: "VmHWM of the run's process (includes the harness's fixed, pre-touched 4 MiB latency store)",
    },
];

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Measured on the traced workload's own requests and programs.
    Workload,
    /// Measured on a fixed probe population (`small` = the
    /// `wire_hot_small` programs, `kernels` = `kernel_stream`'s,
    /// `paper` = `paper_rewrites`'), whatever workload is traced.
    Probe,
}

#[derive(Debug)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    pub source: Source,
    /// A count that must repeat exactly for a given seed and host.
    pub exact: bool,
    pub measured_by: &'static str,
    /// "end-to-end metric → workload"; no change predicted elsewhere.
    pub moves: &'static str,
}

macro_rules! m {
    ($name:expr, $unit:expr, $better:expr, $layer:expr, $source:expr, $exact:expr, $by:expr, $moves:expr) => {
        LayerMetric {
            name: $name,
            unit: $unit,
            better: $better,
            layer: $layer,
            source: $source,
            exact: $exact,
            measured_by: $by,
            moves: $moves,
        }
    };
}

use Better::{Higher, Lower};
use Source::{Probe, Workload};

// One metric per line reads as the table it is.
#[rustfmt::skip]
pub const PER_LAYER: &[LayerMetric] = &[
    m!("ir.digest_us", "us", Lower, "ir", Workload, false, "Program::structural_digest per distinct program", "lat_p50_us -> wire_hot_small, compile_churn"),
    m!("ir.verify_us", "us", Lower, "ir", Workload, false, "bh_ir::verify on each optimised plan", "req_per_s -> compile_churn"),
    m!("ir.audit_us", "us", Lower, "ir", Workload, false, "bh_ir::check_equiv(source, optimised)", "req_per_s -> compile_churn"),
    m!("ir.instrs_in", "count", Lower, "ir", Workload, true, "mean program length before Optimizer::run", "req_per_s -> paper_rewrites"),
    m!("ir.instrs_out", "count", Lower, "ir", Workload, true, "mean program length after Optimizer::run", "req_per_s -> paper_rewrites"),
    m!("opt.run_us", "us", Lower, "opt", Workload, false, "Optimizer::new(options).run per distinct program", "req_per_s, lat_p50_us -> compile_churn"),
    m!("opt.rules_fired_per_prog", "count", Lower, "opt", Workload, true, "OptReport::total_applications, mean", "req_per_s -> compile_churn (cost), paper_rewrites (quality)"),
    m!("opt.sweeps_per_prog", "count", Lower, "opt", Workload, true, "OptReport::iterations, mean", "req_per_s -> compile_churn"),
    m!("opt.audit_rollbacks", "count", Lower, "opt", Workload, true, "RuntimeStats::audits.rolled_back over the traced sample", "req_per_s -> paper_rewrites"),
    m!("opt.speedup_vs_o0", "ratio", Higher, "opt", Probe, false, "geometric mean over the paper programs of O0-runtime time / configured-runtime time", "req_per_s -> paper_rewrites"),
    m!("opt.speedup_vs_o0.addchain32", "ratio", Higher, "opt", Probe, false, "Runtime::eval, O0 / configured", "req_per_s -> paper_rewrites"),
    m!("opt.speedup_vs_o0.mulchain32", "ratio", Higher, "opt", Probe, false, "Runtime::eval, O0 / configured", "req_per_s -> paper_rewrites"),
    m!("opt.speedup_vs_o0.pow10", "ratio", Higher, "opt", Probe, false, "Runtime::eval, O0 / configured", "req_per_s -> paper_rewrites"),
    m!("opt.speedup_vs_o0.pow16", "ratio", Higher, "opt", Probe, false, "Runtime::eval, O0 / configured", "req_per_s -> paper_rewrites"),
    m!("opt.speedup_vs_o0.solve256", "ratio", Higher, "opt", Probe, false, "Runtime::eval, O0 / configured", "req_per_s -> paper_rewrites"),
    m!("opt.speedup_vs_o0.identity_chain", "ratio", Higher, "opt", Probe, false, "Runtime::eval, O0 / configured", "req_per_s -> paper_rewrites"),
    m!("opt.speedup_vs_o0.strength_chain", "ratio", Higher, "opt", Probe, false, "Runtime::eval, O0 / configured", "req_per_s -> paper_rewrites"),
    m!("vm.run_verified_small_us", "us", Lower, "vm", Probe, false, "Vm::run_verified on a leased VM, small programs", "lat_p50_us, cpu_us_per_req -> wire_hot_small"),
    m!("vm.ns_per_elem.chain16", "ns/elem", Lower, "vm", Probe, false, "Vm::run_verified, fused 16-op chain at 2^20", "req_per_s -> kernel_stream"),
    m!("vm.ns_per_elem.chain_reduce16", "ns/elem", Lower, "vm", Probe, false, "Vm::run_verified, fused chain -> sum at 2^20", "req_per_s -> kernel_stream"),
    m!("vm.ns_per_elem.sum", "ns/elem", Lower, "vm", Probe, false, "Vm::run_verified, BH_ADD_REDUCE at 2^20", "req_per_s -> kernel_stream"),
    m!("vm.ns_per_elem.cumsum", "ns/elem", Lower, "vm", Probe, false, "Vm::run_verified, BH_ADD_ACCUMULATE at 2^20", "req_per_s -> kernel_stream"),
    m!("vm.ns_per_elem.heat", "ns/elem", Lower, "vm", Probe, false, "Vm::run_verified, 3-point stencil on sliced views at 2^21", "req_per_s -> kernel_stream"),
    m!("vm.ns_per_elem.axis0", "ns/elem", Lower, "vm", Probe, false, "Vm::run_verified, 1024x1024 sum along axis 0", "req_per_s -> kernel_stream"),
    m!("vm.ns_per_elem.axis1", "ns/elem", Lower, "vm", Probe, false, "Vm::run_verified, 1024x1024 sum along axis 1", "req_per_s -> kernel_stream"),
    m!("vm.ns_per_elem.cast_cmp", "ns/elem", Lower, "vm", Probe, false, "Vm::run_verified, i32->f64 cast + compare chain at 2^20", "req_per_s -> kernel_stream"),
    m!("vm.kernels_per_eval", "count", Lower, "vm", Workload, true, "ExecStats::kernels over the traced sample", "req_per_s -> kernel_stream, paper_rewrites"),
    m!("vm.fused_groups_per_eval", "count", Higher, "vm", Workload, true, "ExecStats::fused_groups over the traced sample", "req_per_s -> kernel_stream, paper_rewrites"),
    m!("vm.bytes_moved_per_eval", "B", Lower, "vm", Workload, true, "ExecStats::bytes_total over the traced sample (analytic: computed from view sizes, not measured traffic)", "req_per_s -> kernel_stream, paper_rewrites"),
    m!("vm.par_shards_per_eval", "count", Higher, "vm", Workload, true, "ExecStats::par_shards over the traced sample", "req_per_s -> kernel_stream"),
    m!("linalg.solve256_ms", "ms", Lower, "linalg", Probe, false, "the Eq. 2 program (m = 256) under the configured runtime", "req_per_s -> paper_rewrites"),
    m!("linalg.inverse_matmul256_ms", "ms", Lower, "linalg", Probe, false, "the same program under the O0 runtime", "req_per_s -> paper_rewrites"),
    m!("runtime.prepare_hit_us", "us", Lower, "runtime", Workload, false, "Runtime::prepare on a resident digest", "lat_p50_us -> wire_hot_small"),
    m!("runtime.prepare_miss_us", "us", Lower, "runtime", Workload, false, "Runtime::prepare after clear_cache", "lat_p50_us -> compile_churn"),
    m!("runtime.eval_prepared_us", "us", Lower, "runtime", Probe, false, "Runtime::eval_prepared on a leased VM (bind + execute + read-back), small programs", "lat_p50_us -> wire_hot_small"),
    m!("runtime.eval_hit_us", "us", Lower, "runtime", Probe, false, "Runtime::eval on a resident digest, small programs", "cpu_us_per_req -> wire_hot_small"),
    m!("runtime.glue_us", "us", Lower, "runtime", Probe, false, "eval_hit - prepare_hit - eval_prepared (lease, stats, profile): by subtraction", "cpu_us_per_req -> wire_hot_small"),
    m!("runtime.stage_bind_us", "us", Lower, "runtime", Workload, false, "mean Bind stage from Runtime::profile", "lat_p50_us -> wire_hot_small, kernel_stream"),
    m!("runtime.stage_execute_us", "us", Lower, "runtime", Workload, false, "mean Execute stage from Runtime::profile", "lat_p50_us -> wire_hot_small, kernel_stream"),
    m!("runtime.stage_readback_us", "us", Lower, "runtime", Workload, false, "mean ReadBack stage from Runtime::profile", "lat_p50_us -> wire_hot_small, kernel_stream"),
    m!("runtime.hit_rate", "ratio", Higher, "runtime", Workload, true, "RuntimeStats delta over the traced sample (1.0, or 0.0 on compile_churn)", "guard: a workload off its regime is invalid, not slow"),
    m!("runtime.verifications_per_miss", "ratio", Lower, "runtime", Workload, true, "RuntimeStats::verifications / cache_misses, warm-up included (1.0)", "guard: verification runs once per plan build"),
    m!("observe.profile_overhead_share", "ratio", Lower, "observe", Probe, false, "1 - eval_hit with profiling(false) / with profiling(true), small programs", "cpu_us_per_req -> wire_hot_small"),
    m!("observe.trace_overhead_share", "ratio", Lower, "observe", Workload, false, "1 - loaded req_per_s with a RingTraceSink installed / without", "tracing's own cost on the ledger"),
    m!("serve.submit_wait_us", "us", Lower, "serve", Probe, false, "Server::submit_wait, one request in flight, small programs", "lat_p50_us -> wire_hot_small"),
    m!("serve.overhead_us", "us", Lower, "serve", Probe, false, "submit_wait - runtime.eval_hit_us: by subtraction", "lat_p50_us -> wire_hot_small"),
    m!("serve.inproc_req_per_s", "1/s", Higher, "serve", Probe, false, "the wire_hot_small mix through Server::submit_many from the same client threads, no socket", "req_per_s -> wire_hot_small"),
    m!("serve.queue_wait_p50_us", "us", Lower, "serve", Probe, false, "queue_wait carried on every response, loaded wire round", "lat_p50_us, lat_p99_us -> wire_hot_small"),
    m!("serve.service_p50_us", "us", Lower, "serve", Probe, false, "turnaround - queue_wait, loaded wire round", "lat_p50_us, lat_p99_us -> wire_hot_small"),
    m!("serve.mean_batch", "count", Higher, "serve", Probe, false, "batch_size carried on every response, loaded wire round", "lat_p50_us -> wire_hot_small"),
    m!("serve.peak_queue_depth", "count", Lower, "serve", Probe, false, "ServeStats::peak_queue_depth, loaded wire round", "lat_p99_us -> wire_hot_small"),
    m!("serve.rejected", "count", Lower, "serve", Probe, true, "ServeStats::rejected, loaded wire round", "failed requests -> wire_hot_small"),
    m!("net.call_us", "us", Lower, "net", Probe, false, "NetClient::call, one request in flight, small programs", "lat_p50_us -> wire_hot_small"),
    m!("net.overhead_us", "us", Lower, "net", Probe, false, "call - serve.submit_wait_us (container encode/decode and admission verify included): by subtraction", "lat_p50_us -> wire_hot_small"),
    m!("net.frame_encode_us", "us", Lower, "net", Probe, false, "Frame::write_to, mean of one SUBMIT and one RESULT frame of the small programs", "cpu_us_per_req -> wire_hot_small"),
    m!("net.frame_decode_us", "us", Lower, "net", Probe, false, "Frame::read_from on the same frames", "cpu_us_per_req -> wire_hot_small"),
    m!("net.wire_p50_us", "us", Lower, "net", Probe, false, "client latency - server-reported turnaround, loaded wire round", "lat_p50_us -> wire_hot_small"),
    m!("net.frames_per_req", "ratio", Lower, "net", Probe, true, "NetStats::frames_received delta / requests, loaded wire round", "cpu_us_per_req -> wire_hot_small"),
    m!("ledger.top_us", "us", Lower, "ledger", Workload, false, "mean top span of the traced sample, one request in flight", "lat_p50_us -> the traced workload"),
    m!("ledger.self_us.net", "us", Lower, "ledger", Workload, false, "net.call - serve.submit_wait: by subtraction", "lat_p50_us -> wire_hot_small"),
    m!("ledger.self_us.serve", "us", Lower, "ledger", Workload, false, "serve.submit_wait - runtime.eval: by subtraction", "lat_p50_us -> wire_hot_small"),
    m!("ledger.self_us.runtime", "us", Lower, "ledger", Workload, false, "runtime spans minus their ir/opt/vm children: by subtraction", "lat_p50_us -> wire_hot_small"),
    m!("ledger.self_us.opt", "us", Lower, "ledger", Workload, false, "opt.run spans under missing prepares", "req_per_s -> compile_churn"),
    m!("ledger.self_us.ir", "us", Lower, "ledger", Workload, false, "digest + audit + verify spans", "req_per_s -> compile_churn"),
    m!("ledger.self_us.vm", "us", Lower, "ledger", Workload, false, "vm.run_verified spans", "req_per_s -> kernel_stream, paper_rewrites"),
    m!("ledger.queueing_share", "ratio", Lower, "ledger", Workload, false, "1 - unloaded top-span p50 / loaded lat_p50_us", "how much of loaded latency is waiting rather than work"),
    m!("ledger.failed_share", "ratio", Lower, "ledger", Workload, true, "(errors + rejections + wrong outputs) / attempted over the traced run", "must be 0; the run exits non-zero otherwise"),
];

/// `ledger metrics`: the registry as the Markdown tables the README
/// carries — every metric with its layer, how it is measured and the
/// end-to-end metric and workload it is predicted to move.
pub fn print_tables() {
    println!("| name | unit | better | regression bound | meaning |");
    println!("|---|---|---|---|---|");
    for e in &END_TO_END {
        println!(
            "| `{}` | {} | {} | {:.0} % | {} |",
            e.name,
            e.unit,
            e.better.name(),
            100.0 * e.bound,
            e.meaning
        );
    }
    println!();
    println!("| name | unit | better | layer | source | exact | measured by | moves |");
    println!("|---|---|---|---|---|---|---|---|");
    for p in PER_LAYER {
        let source = match p.source {
            Source::Workload => "workload",
            Source::Probe => "probe",
        };
        println!(
            "| `{}` | {} | {} | {} | {} | {} | {} | {} |",
            p.name,
            p.unit,
            p.better.name(),
            p.layer,
            source,
            if p.exact { "yes" } else { "" },
            p.measured_by,
            p.moves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::WORKLOADS;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        for e in &END_TO_END {
            assert!(e.bound <= 0.25);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    /// `BENCHMARK.json` is written by hand to the driver's contract;
    /// this keeps it from drifting away from what the binary prints.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(str::to_owned);
        let listed = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name").as_deref(), Some(w.name));
            assert_eq!(field(j, "why").as_deref(), Some(w.why));
        }
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, e) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name").as_deref(), Some(e.name));
            assert_eq!(field(j, "unit").as_deref(), Some(e.unit));
            assert_eq!(field(j, "better").as_deref(), Some(e.better.name()));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(e.bound));
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, p) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name").as_deref(), Some(p.name));
            assert_eq!(field(j, "unit").as_deref(), Some(p.unit));
            assert_eq!(field(j, "better").as_deref(), Some(p.better.name()));
        }
    }
}
