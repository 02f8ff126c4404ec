//! Serving statistics: throughput counters, queue depth, batch-size
//! distribution and latency percentiles.
//!
//! [`ServeStats`] is the scheduler-level layer; it composes with the
//! runtime's [`bh_runtime::RuntimeStats`] (optimiser/cache/VM counters)
//! into one [`ServeReport`] snapshot, so a serving process exports a
//! single object covering queue → batcher → runtime.

use bh_runtime::RuntimeStats;
use std::collections::BTreeMap;
use std::fmt;

// Lifted into `bh-observe` so every layer shares one histogram type with
// one set of percentile semantics; re-exported here for compatibility.
pub use bh_observe::LatencyHistogram;

/// Distinct tenants tracked exactly in the quota metrics; dequeues for
/// tenants beyond the cap are aggregated as "untracked" so ephemeral
/// tenant IDs cannot grow the snapshot without bound.
const TENANT_METRICS_CAP: usize = 64;

/// Largest batch size tracked exactly; bigger batches land in the last
/// bucket.
const BATCH_BUCKETS: usize = 64;

/// How many batches executed at each size (sizes above
/// [`BatchSizeDist::tracked`] share the overflow bucket).
#[derive(Clone)]
pub struct BatchSizeDist {
    counts: [u64; BATCH_BUCKETS],
    max_seen: usize,
    total_requests: u64,
}

impl Default for BatchSizeDist {
    fn default() -> BatchSizeDist {
        BatchSizeDist {
            counts: [0; BATCH_BUCKETS],
            max_seen: 0,
            total_requests: 0,
        }
    }
}

impl BatchSizeDist {
    /// Record one executed batch of `size` requests.
    pub fn record(&mut self, size: usize) {
        debug_assert!(size >= 1, "batches hold at least their leader");
        self.counts[size.min(BATCH_BUCKETS) - 1] += 1;
        self.max_seen = self.max_seen.max(size);
        self.total_requests += size as u64;
    }

    /// Batches executed at exactly `size` (for `size >=` [`Self::tracked`],
    /// all larger batches combined).
    pub fn batches_of(&self, size: usize) -> u64 {
        if size == 0 {
            return 0;
        }
        self.counts[size.min(BATCH_BUCKETS) - 1]
    }

    /// Largest batch observed.
    pub fn max_seen(&self) -> usize {
        self.max_seen
    }

    /// Largest exactly-tracked size.
    pub fn tracked(&self) -> usize {
        BATCH_BUCKETS
    }

    /// Total batches recorded.
    pub fn batches(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total requests across all recorded batches (exact, even for
    /// batches beyond the tracked bucket range).
    pub fn requests(&self) -> u64 {
        self.total_requests
    }

    /// Mean batch size (zero when empty).
    pub fn mean(&self) -> f64 {
        let batches = self.batches();
        if batches == 0 {
            return 0.0;
        }
        self.requests() as f64 / batches as f64
    }
}

impl fmt::Debug for BatchSizeDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchSizeDist")
            .field("batches", &self.batches())
            .field("mean", &self.mean())
            .field("max_seen", &self.max_seen)
            .finish()
    }
}

/// Requests dequeued per tenant (batch-leader picks and digest-gathered
/// followers alike) — the service side of weighted scheduling, for
/// verifying that observed shares track configured weights.
#[derive(Debug, Clone, Default)]
pub struct TenantQuotas {
    served: BTreeMap<String, u64>,
    untracked: u64,
}

impl TenantQuotas {
    pub(crate) fn note(&mut self, tenant: &str, n: u64) {
        if let Some(count) = self.served.get_mut(tenant) {
            *count += n;
        } else if self.served.len() < TENANT_METRICS_CAP {
            self.served.insert(tenant.to_owned(), n);
        } else {
            self.untracked += n;
        }
    }

    /// Requests dequeued for `tenant` (0 if untracked or never seen).
    pub fn served(&self, tenant: &str) -> u64 {
        self.served.get(tenant).copied().unwrap_or(0)
    }

    /// Per-tenant counts, in tenant-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.served.iter().map(|(name, &n)| (name.as_str(), n))
    }

    /// Distinct tenants tracked exactly (bounded; see
    /// [`TenantQuotas::untracked`]).
    pub fn tracked(&self) -> usize {
        self.served.len()
    }

    /// Dequeues for tenants beyond the tracking cap, in aggregate.
    pub fn untracked(&self) -> u64 {
        self.untracked
    }

    /// Total requests dequeued across all tenants.
    pub fn total(&self) -> u64 {
        self.served.values().sum::<u64>() + self.untracked
    }

    /// `tenant`'s fraction of all dequeued requests (0.0 when none yet).
    pub fn share(&self, tenant: &str) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.served(tenant) as f64 / total as f64
    }
}

/// Snapshot of everything the scheduler has done so far.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests rejected at submit time: backpressure, shutdown, or a
    /// program that fails admission verification (`bh-net` submissions
    /// included).
    pub rejected: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that failed during preparation or execution.
    pub failed: u64,
    /// Requests failed fast because their deadline passed while queued.
    pub expired: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Requests queued right now.
    pub queue_depth: usize,
    /// Deepest the queue has ever been.
    pub peak_queue_depth: usize,
    /// Distribution of executed batch sizes.
    pub batch_sizes: BatchSizeDist,
    /// Submission-to-completion latency of successful requests.
    pub latency: LatencyHistogram,
    /// Requests dequeued per tenant, for auditing weighted fairness.
    pub tenants: TenantQuotas,
}

impl ServeStats {
    /// Requests resolved one way or another.
    pub fn resolved(&self) -> u64 {
        self.completed + self.failed + self.expired
    }

    /// Mean executed batch size.
    pub fn mean_batch_size(&self) -> f64 {
        self.batch_sizes.mean()
    }
}

impl bh_observe::Collect for ServeStats {
    /// Exports the scheduler counter families (`bh_serve_*`): queue and
    /// throughput counters, batch-size distribution summary, turnaround
    /// latency quantiles, and per-tenant dequeue counts
    /// (tenant-labelled). Metric names are part of the golden-tested
    /// exporter contract.
    fn collect_into(&self, set: &mut bh_observe::MetricSet) {
        set.counter(
            "bh_serve_submitted_total",
            "Requests accepted into the queue.",
        )
        .value(self.submitted);
        set.counter(
            "bh_serve_rejected_total",
            "Requests rejected at submit time (backpressure or shutdown).",
        )
        .value(self.rejected);
        set.counter(
            "bh_serve_completed_total",
            "Requests completed successfully.",
        )
        .value(self.completed);
        set.counter(
            "bh_serve_failed_total",
            "Requests failed during preparation or execution.",
        )
        .value(self.failed);
        set.counter(
            "bh_serve_expired_total",
            "Requests failed fast because their deadline passed while queued.",
        )
        .value(self.expired);
        set.counter("bh_serve_batches_total", "Micro-batches executed.")
            .value(self.batches);
        set.gauge("bh_serve_queue_depth", "Requests queued right now.")
            .value(self.queue_depth);
        set.gauge(
            "bh_serve_peak_queue_depth",
            "Deepest the queue has ever been.",
        )
        .value(self.peak_queue_depth);
        set.gauge("bh_serve_batch_size_mean", "Mean executed batch size.")
            .value(self.mean_batch_size());
        set.counter(
            "bh_serve_batch_requests_total",
            "Requests across all executed batches.",
        )
        .value(self.batch_sizes.requests());
        set.counter(
            "bh_serve_latency_samples_total",
            "Completed requests with a recorded turnaround latency.",
        )
        .value(self.latency.count());
        set.counter(
            "bh_serve_latency_nanos_total",
            "Summed submission-to-completion nanoseconds.",
        )
        .value(u64::try_from(self.latency.total_nanos()).unwrap_or(u64::MAX));
        let quantiles = set.gauge(
            "bh_serve_latency_quantile_nanos",
            "Turnaround latency quantile estimates in nanoseconds.",
        );
        for (q, d) in [
            ("0.5", self.latency.p50()),
            ("0.95", self.latency.p95()),
            ("0.99", self.latency.p99()),
            ("1", self.latency.max()),
        ] {
            quantiles.labelled(
                &[("quantile", q)],
                u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
            );
        }
        let tenants = set.counter(
            "bh_serve_tenant_served_total",
            "Requests dequeued per tenant (bounded tracking).",
        );
        for (tenant, n) in self.tenants.iter() {
            tenants.labelled(&[("tenant", tenant)], n);
        }
        set.counter(
            "bh_serve_tenant_untracked_total",
            "Dequeues for tenants beyond the exact-tracking cap.",
        )
        .value(self.tenants.untracked());
    }
}

impl fmt::Display for ServeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "submitted={} rejected={} completed={} failed={} expired={} \
             batches={} mean-batch={:.2} depth={}/{} p50={:?} p95={:?} p99={:?}",
            self.submitted,
            self.rejected,
            self.completed,
            self.failed,
            self.expired,
            self.batches,
            self.mean_batch_size(),
            self.queue_depth,
            self.peak_queue_depth,
            self.latency.p50(),
            self.latency.p95(),
            self.latency.p99(),
        )
    }
}

/// One combined snapshot: the scheduler layer plus the runtime beneath
/// it (cache effectiveness, optimiser work, VM counters).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Scheduler-level counters.
    pub serve: ServeStats,
    /// Aggregated runtime counters for the same period.
    pub runtime: RuntimeStats,
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serve: {}\nruntime: {}", self.serve, self.runtime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // LatencyHistogram's own tests (percentile edge cases, merge
    // consistency) live with the type in `bh-observe`.

    #[test]
    fn reexported_histogram_is_the_observe_type() {
        let mut h: LatencyHistogram = bh_observe::LatencyHistogram::new();
        h.record(Duration::from_micros(100));
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn batch_dist_tracks_mean_and_overflow() {
        let mut d = BatchSizeDist::default();
        d.record(1);
        d.record(1);
        d.record(4);
        assert_eq!(d.batches(), 3);
        assert_eq!(d.batches_of(1), 2);
        assert_eq!(d.batches_of(4), 1);
        assert_eq!(d.requests(), 6);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        d.record(10_000);
        assert_eq!(d.max_seen(), 10_000);
        assert_eq!(d.batches_of(d.tracked()), 1);
        // Request totals stay exact even past the tracked bucket range.
        assert_eq!(d.requests(), 10_006);
        assert!((d.mean() - 10_006.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn tenant_quotas_track_shares_and_cap_distinct_tenants() {
        let mut q = TenantQuotas::default();
        q.note("a", 6);
        q.note("b", 3);
        q.note("a", 3);
        assert_eq!(q.served("a"), 9);
        assert_eq!(q.served("b"), 3);
        assert_eq!(q.total(), 12);
        assert!((q.share("a") - 0.75).abs() < 1e-12);
        assert_eq!(q.share("never-seen"), 0.0);
        for i in 0..(TENANT_METRICS_CAP + 5) {
            q.note(&format!("ephemeral-{i}"), 1);
        }
        assert_eq!(q.tracked(), TENANT_METRICS_CAP);
        // 2 slots were taken by a/b, so 7 of the ephemerals overflow.
        assert_eq!(q.untracked(), 7);
        assert_eq!(q.total(), 12 + TENANT_METRICS_CAP as u64 + 5);
    }

    #[test]
    fn stats_display_mentions_the_counters() {
        let s = ServeStats {
            submitted: 10,
            completed: 9,
            expired: 1,
            ..Default::default()
        };
        assert_eq!(s.resolved(), 10);
        let text = s.to_string();
        assert!(text.contains("submitted=10"), "{text}");
        assert!(text.contains("p99"), "{text}");
    }
}
