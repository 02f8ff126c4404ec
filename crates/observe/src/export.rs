//! The structured metrics exporter.
//!
//! Stats live in whichever crate owns them (`RuntimeStats` in
//! `bh-runtime`, `ServeStats` in `bh-serve`, [`ProfileTable`] here);
//! each implements [`Collect`], projecting itself into the neutral
//! [`MetricSet`] model. A `MetricSet` then renders as Prometheus text
//! exposition ([`MetricSet::to_prometheus`]) or as a serde-free JSON
//! string ([`MetricSet::to_json`]). Both formats are golden-file tested:
//! metric names, help strings and label keys are a **contract** —
//! renaming one must fail CI until the golden files are re-blessed.

use crate::profile::ProfileTable;
use std::fmt::Write as _;

/// How many of the hottest digests [`ProfileTable`]'s [`Collect`]
/// implementation exports per-digest series for (bounds exposition-page
/// cardinality however large the table is).
pub const EXPORT_TOP_K: usize = 16;

/// Prometheus metric kind (drives the `# TYPE` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing.
    Counter,
    /// Free-running value.
    Gauge,
}

impl MetricKind {
    const fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// A sample's value: integer counters stay integers (rendered exactly);
/// means and ratios are floats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Exact unsigned value.
    Uint(u64),
    /// Floating-point value (non-finite values render as `0` in JSON,
    /// which has no encoding for them).
    Float(f64),
}

impl From<u64> for MetricValue {
    fn from(v: u64) -> MetricValue {
        MetricValue::Uint(v)
    }
}

impl From<usize> for MetricValue {
    fn from(v: usize) -> MetricValue {
        MetricValue::Uint(v as u64)
    }
}

impl From<f64> for MetricValue {
    fn from(v: f64) -> MetricValue {
        MetricValue::Float(v)
    }
}

/// One labelled sample of a family.
#[derive(Debug, Clone)]
pub struct Sample {
    /// `(key, value)` label pairs, in insertion order.
    pub labels: Vec<(&'static str, String)>,
    /// The sample's value.
    pub value: MetricValue,
}

/// One metric family: a name, help text, kind, and its samples.
#[derive(Debug, Clone)]
pub struct MetricFamily {
    /// Metric name (`bh_runtime_evals_total`, …). Part of the contract.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The family's samples.
    pub samples: Vec<Sample>,
}

impl MetricFamily {
    /// Add an unlabelled sample.
    pub fn value(&mut self, v: impl Into<MetricValue>) -> &mut MetricFamily {
        self.labelled(&[], v)
    }

    /// Add a sample with labels.
    pub fn labelled(
        &mut self,
        labels: &[(&'static str, &str)],
        v: impl Into<MetricValue>,
    ) -> &mut MetricFamily {
        self.samples.push(Sample {
            labels: labels.iter().map(|&(k, val)| (k, val.to_owned())).collect(),
            value: v.into(),
        });
        self
    }
}

/// An ordered collection of metric families — the neutral model every
/// [`Collect`] source projects into and every renderer consumes.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    /// The families, in the order they were registered.
    pub families: Vec<MetricFamily>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// Register (or reopen) a counter family.
    pub fn counter(&mut self, name: &'static str, help: &'static str) -> &mut MetricFamily {
        self.family(name, help, MetricKind::Counter)
    }

    /// Register (or reopen) a gauge family.
    pub fn gauge(&mut self, name: &'static str, help: &'static str) -> &mut MetricFamily {
        self.family(name, help, MetricKind::Gauge)
    }

    fn family(
        &mut self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
    ) -> &mut MetricFamily {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            return &mut self.families[i];
        }
        self.families.push(MetricFamily {
            name,
            help,
            kind,
            samples: Vec::new(),
        });
        self.families.last_mut().expect("pushed above")
    }

    /// Gather several sources into one set, in order.
    pub fn collect_from(sources: &[&dyn Collect]) -> MetricSet {
        let mut set = MetricSet::new();
        for s in sources {
            s.collect_into(&mut set);
        }
        set
    }

    /// Render as Prometheus text exposition (version 0.0.4): `# HELP` /
    /// `# TYPE` per family, then one `name{labels} value` line per
    /// sample. Label values are escaped per the spec (`\\`, `\"`, `\n`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.as_str());
            for s in &f.samples {
                out.push_str(f.name);
                if !s.labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in s.labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{k}=\"");
                        for c in v.chars() {
                            match c {
                                '\\' => out.push_str("\\\\"),
                                '"' => out.push_str("\\\""),
                                '\n' => out.push_str("\\n"),
                                c => out.push(c),
                            }
                        }
                        out.push('"');
                    }
                    out.push('}');
                }
                match s.value {
                    MetricValue::Uint(v) => {
                        let _ = writeln!(out, " {v}");
                    }
                    MetricValue::Float(v) => {
                        let _ = writeln!(out, " {v}");
                    }
                }
            }
        }
        out
    }

    /// Render as a JSON object (`{"families": [...]}`) without serde:
    /// each family carries `name`, `kind`, `help` and `samples` (label
    /// object + numeric `value`). Non-finite floats render as `0`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"families\":[");
        for (fi, f) in self.families.iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(&mut out, f.name);
            out.push_str(",\"kind\":");
            json_string(&mut out, f.kind.as_str());
            out.push_str(",\"help\":");
            json_string(&mut out, f.help);
            out.push_str(",\"samples\":[");
            for (si, s) in f.samples.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (li, (k, v)) in s.labels.iter().enumerate() {
                    if li > 0 {
                        out.push(',');
                    }
                    json_string(&mut out, k);
                    out.push(':');
                    json_string(&mut out, v);
                }
                out.push_str("},\"value\":");
                match s.value {
                    MetricValue::Uint(v) => {
                        let _ = write!(out, "{v}");
                    }
                    MetricValue::Float(v) if v.is_finite() => {
                        let _ = write!(out, "{v}");
                    }
                    MetricValue::Float(_) => out.push('0'),
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A stats source that can project itself into a [`MetricSet`].
/// Implemented by `RuntimeStats` (`bh-runtime`), `ServeStats`
/// (`bh-serve`) and [`ProfileTable`] — the exporter composes them
/// without this crate depending on those layers.
pub trait Collect {
    /// Append this source's metric families to `set`.
    fn collect_into(&self, set: &mut MetricSet);
}

impl Collect for bh_vm::ExecStats {
    /// Exports the VM's execution counters as `bh_vm_*` counter
    /// families. Implemented here (not in `bh-vm`) because the exporter
    /// sits above the VM in the dependency graph.
    fn collect_into(&self, set: &mut MetricSet) {
        set.counter(
            "bh_vm_instructions_total",
            "Byte-code instructions executed (excluding BH_NONE).",
        )
        .value(self.instructions);
        set.counter("bh_vm_kernels_total", "Kernels launched.")
            .value(self.kernels);
        set.counter("bh_vm_fused_groups_total", "Fused groups executed.")
            .value(self.fused_groups);
        set.counter(
            "bh_vm_fused_reductions_total",
            "Reductions executed fused into a preceding element-wise group.",
        )
        .value(self.fused_reductions);
        set.counter(
            "bh_vm_par_shards_total",
            "Element shards dispatched to the worker pool (observational).",
        )
        .value(self.par_shards);
        set.counter(
            "bh_vm_reduce_shards_total",
            "Reduction/scan ranges dispatched to the worker pool (observational).",
        )
        .value(self.reduce_shards);
        set.counter(
            "bh_vm_elements_written_total",
            "Elements written to output views.",
        )
        .value(self.elements_written);
        set.counter("bh_vm_bytes_read_total", "Bytes read from base arrays.")
            .value(self.bytes_read);
        set.counter("bh_vm_bytes_written_total", "Bytes written to base arrays.")
            .value(self.bytes_written);
        set.counter("bh_vm_flops_total", "Abstract flops (op-code unit costs).")
            .value(self.flops);
        set.counter("bh_vm_syncs_total", "BH_SYNCs observed.")
            .value(self.syncs);
    }
}

impl Collect for ProfileTable {
    /// Exports table-level gauges plus per-digest series for the
    /// [`EXPORT_TOP_K`] hottest digests: hits, plan builds, per-stage
    /// total/mean nanoseconds, and per-opcode executed-instruction
    /// totals. The `digest` label is the 16-hex-digit fingerprint.
    fn collect_into(&self, set: &mut MetricSet) {
        set.gauge(
            "bh_profile_digests",
            "Digests currently resident in the profile table.",
        )
        .value(self.len());
        set.counter(
            "bh_profile_evictions_total",
            "Cold profile entries displaced by new digests.",
        )
        .value(self.evictions());
        let top = self.top_k(EXPORT_TOP_K);
        for p in &top {
            let digest = format!("{:016x}", p.fingerprint);
            set.counter(
                "bh_profile_digest_hits_total",
                "Evaluations recorded per digest (hottest digests only).",
            )
            .labelled(&[("digest", &digest)], p.hits);
            set.counter(
                "bh_profile_digest_plan_builds_total",
                "Plan builds (cache misses) recorded per digest.",
            )
            .labelled(&[("digest", &digest)], p.plan_builds);
            for (stage, hist) in p.stages.iter() {
                if hist.count() == 0 {
                    continue;
                }
                let labels: &[(&'static str, &str)] =
                    &[("digest", &digest), ("stage", stage.name())];
                set.counter(
                    "bh_profile_stage_nanos_total",
                    "Total nanoseconds spent per digest and pipeline stage.",
                )
                .labelled(
                    labels,
                    u64::try_from(hist.total_nanos()).unwrap_or(u64::MAX),
                );
                set.counter(
                    "bh_profile_stage_samples_total",
                    "Samples recorded per digest and pipeline stage.",
                )
                .labelled(labels, hist.count());
                set.gauge(
                    "bh_profile_stage_mean_nanos",
                    "Mean nanoseconds per sample, per digest and stage.",
                )
                .labelled(
                    labels,
                    u64::try_from(hist.mean().as_nanos()).unwrap_or(u64::MAX),
                );
            }
            for (op, total) in p.opcode_totals() {
                if total == 0 {
                    continue;
                }
                set.counter(
                    "bh_profile_opcode_instructions_total",
                    "Instructions executed per digest and op-code (per-eval census × hits).",
                )
                .labelled(&[("digest", &digest), ("opcode", op.name())], total);
            }
            set.counter(
                "bh_profile_digest_fused_groups_total",
                "Fused groups executed per digest.",
            )
            .labelled(&[("digest", &digest)], p.exec.fused_groups);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::EvalSample;
    use std::time::Duration;

    struct One;
    impl Collect for One {
        fn collect_into(&self, set: &mut MetricSet) {
            set.counter("bh_test_total", "A test counter.")
                .value(41u64)
                .labelled(&[("tenant", "a\"b\\c\nd")], 1u64);
            set.gauge("bh_test_ratio", "A test gauge.").value(0.25);
        }
    }

    #[test]
    fn prometheus_rendering_and_escaping() {
        let set = MetricSet::collect_from(&[&One]);
        let text = set.to_prometheus();
        assert!(text.contains("# HELP bh_test_total A test counter.\n"));
        assert!(text.contains("# TYPE bh_test_total counter\n"));
        assert!(text.contains("bh_test_total 41\n"));
        assert!(text.contains("bh_test_total{tenant=\"a\\\"b\\\\c\\nd\"} 1\n"));
        assert!(text.contains("# TYPE bh_test_ratio gauge\n"));
        assert!(text.contains("bh_test_ratio 0.25\n"));
    }

    #[test]
    fn json_rendering_and_escaping() {
        let set = MetricSet::collect_from(&[&One]);
        let json = set.to_json();
        assert!(json.starts_with("{\"families\":["));
        assert!(json.contains("\"name\":\"bh_test_total\""));
        assert!(json.contains("\"kind\":\"counter\""));
        assert!(json.contains("\"tenant\":\"a\\\"b\\\\c\\nd\""));
        assert!(json.contains("\"value\":41"));
        assert!(json.contains("\"value\":0.25"));
        // Balanced braces/brackets — cheap structural sanity.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn non_finite_floats_render_as_zero_in_json() {
        let mut set = MetricSet::new();
        set.gauge("bh_nan", "n").value(f64::NAN);
        assert!(set.to_json().contains("\"value\":0"));
    }

    #[test]
    fn reopening_a_family_appends_samples() {
        let mut set = MetricSet::new();
        set.counter("bh_x_total", "x").value(1u64);
        set.counter("bh_x_total", "x").value(2u64);
        assert_eq!(set.families.len(), 1);
        assert_eq!(set.families[0].samples.len(), 2);
        // Only one HELP/TYPE block in the rendered text.
        assert_eq!(set.to_prometheus().matches("# HELP").count(), 1);
    }

    #[test]
    fn profile_table_exports_top_k_series() {
        let table = ProfileTable::new(64);
        let census = [(bh_ir::Opcode::Add, 2u64)];
        table.record_plan_build(
            0xfeed,
            Duration::from_micros(10),
            Duration::from_micros(2),
            &census,
        );
        for _ in 0..3 {
            table.record_eval(
                0xfeed,
                &EvalSample {
                    bind_nanos: 100,
                    execute_nanos: 5_000,
                    read_back_nanos: 300,
                    exec: bh_vm::ExecStats {
                        fused_groups: 1,
                        ..Default::default()
                    },
                },
                &census,
            );
        }
        let text = MetricSet::collect_from(&[&table]).to_prometheus();
        assert!(text.contains("bh_profile_digests 1\n"));
        assert!(text.contains("bh_profile_digest_hits_total{digest=\"000000000000feed\"} 3\n"));
        assert!(text.contains(
            "bh_profile_stage_samples_total{digest=\"000000000000feed\",stage=\"execute\"} 3\n"
        ));
        assert!(text.contains(
            "bh_profile_opcode_instructions_total{digest=\"000000000000feed\",opcode=\"BH_ADD\"} 6\n"
        ));
        assert!(
            text.contains("bh_profile_digest_fused_groups_total{digest=\"000000000000feed\"} 3\n")
        );
        // Stages with no samples export nothing.
        assert!(!text.contains("stage=\"queue_wait\""));
    }
}
