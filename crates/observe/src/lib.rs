//! `bh-observe` — the workspace's observability layer.
//!
//! The paper's claim is that algebraic transformation of byte-code
//! sequences pays for itself at runtime; this crate provides the
//! instruments that *measure* that claim per program instead of
//! asserting it globally. Three pillars (DESIGN.md §13):
//!
//! 1. **Per-digest profiling** ([`ProfileTable`]) — a bounded,
//!    lock-striped table keyed by program-digest fingerprint recording
//!    hit counts, per-[`Stage`] latency histograms (queue-wait →
//!    optimise → verify → bind → execute → read-back), per-opcode
//!    execution accounting and fused-group composition, read back via
//!    `Runtime::profile()`.
//! 2. **Request-lifecycle tracing** ([`TraceSink`], [`RingTraceSink`])
//!    — a zero-dependency span-event flight recorder, off by default
//!    and costing one branch when disabled.
//! 3. **A structured exporter** ([`MetricSet`], [`Collect`]) — renders
//!    any stats snapshot as Prometheus text exposition or serde-free
//!    JSON; both formats are golden-file tested contracts.
//!
//! [`LatencyHistogram`] (previously private to `bh-serve`) lives here so
//! every layer shares one histogram type with one set of percentile
//! semantics.

#![deny(missing_docs)]

mod export;
mod hist;
mod profile;
mod trace;

pub use export::{Collect, MetricFamily, MetricKind, MetricSet, MetricValue, Sample, EXPORT_TOP_K};
pub use hist::{LatencyHistogram, LATENCY_BUCKETS};
pub use profile::{DigestProfile, EvalSample, ProfileTable, Stage, StageLatencies};
pub use trace::{RingTraceSink, TraceEvent, TracePhase, TraceSink};
