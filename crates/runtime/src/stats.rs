//! Aggregated runtime statistics.
//!
//! One `Runtime` serves many evaluations from many contexts/threads; the
//! counters here aggregate across all of them so a serving process can
//! export one snapshot (evals, cache effectiveness, rewrite activity and
//! the VM's execution counters) instead of the per-flush `last_*` state
//! the old three-object API kept on each context.

use bh_vm::ExecStats;
use std::fmt;
use std::ops::{Add, AddAssign};
use std::time::Duration;

/// Whole-plan translation-validation audits, counted. All zeros unless
/// [`crate::RuntimeBuilder::audit`] is on; with auditing enabled the
/// invariant `audits.total() == cache_misses` holds — exactly one audit
/// per plan *compile*, never one per eval (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditCounters {
    /// Plans proved observationally equivalent to their source by
    /// [`bh_ir::check_equiv`] before entering the cache.
    pub passed: u64,
    /// Plans the auditor could not prove equivalent (one-sided: a
    /// failure means "unproven", not necessarily "wrong").
    pub failed: u64,
    /// Failed audits that were served anyway — by rolling the plan back
    /// to the unoptimised source program. Always equal to `failed` in
    /// the current runtime: every unproven plan is discarded.
    pub rolled_back: u64,
}

impl AuditCounters {
    /// Audits run, passed or failed.
    pub fn total(&self) -> u64 {
        self.passed.saturating_add(self.failed)
    }
}

impl Add for AuditCounters {
    type Output = AuditCounters;

    fn add(self, rhs: AuditCounters) -> AuditCounters {
        AuditCounters {
            passed: self.passed.saturating_add(rhs.passed),
            failed: self.failed.saturating_add(rhs.failed),
            rolled_back: self.rolled_back.saturating_add(rhs.rolled_back),
        }
    }
}

impl AddAssign for AuditCounters {
    fn add_assign(&mut self, rhs: AuditCounters) {
        *self = *self + rhs;
    }
}

/// Snapshot of everything a [`crate::Runtime`] has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RuntimeStats {
    /// Evaluations served (`eval` + `execute` calls).
    pub evals: u64,
    /// Evaluations whose optimised plan came from the transformation
    /// cache (the rewrite fixpoint was skipped entirely).
    pub cache_hits: u64,
    /// Plan lookups that had to run the optimiser.
    pub cache_misses: u64,
    /// Byte-code verification passes run (`bh_ir::verify_owned` at plan
    /// build). Verification happens exactly once per cache miss and
    /// never on the eval path, so under steady-state traffic this
    /// counter stays flat while [`RuntimeStats::evals`] climbs — the
    /// "checked once, trusted forever" property, observable.
    pub verifications: u64,
    /// Total rewrite-rule applications across all cache misses.
    pub rules_fired: u64,
    /// Fixpoint sweeps performed across all cache misses.
    pub opt_iterations: u64,
    /// Total wall-clock nanoseconds spent inside evaluations (bind →
    /// execute → read-back; optimisation and queueing excluded). Divided
    /// by [`RuntimeStats::evals`] this is the mean service time.
    pub eval_nanos: u64,
    /// Aggregated VM execution counters (kernels launched, fused groups,
    /// memory traffic, flops, syncs) across all evaluations.
    pub exec: ExecStats,
    /// Whole-plan audit counters (all zero unless
    /// [`crate::RuntimeBuilder::audit`] is on).
    pub audits: AuditCounters,
}

impl RuntimeStats {
    /// Fresh zeroed counters.
    pub fn new() -> RuntimeStats {
        RuntimeStats::default()
    }

    /// Fraction of plan lookups served from the cache (0.0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// Total wall-clock time spent inside evaluations.
    pub fn eval_time(&self) -> Duration {
        Duration::from_nanos(self.eval_nanos)
    }

    /// Mean service time per evaluation, rounded to the nearest
    /// nanosecond (zero when none yet). Truncating would bias the mean low
    /// by up to 1 ns — harmless at millisecond scale but wrong for the
    /// sub-microsecond cached path.
    pub fn mean_eval_time(&self) -> Duration {
        if self.evals == 0 {
            return Duration::ZERO;
        }
        let half = self.evals / 2;
        Duration::from_nanos(
            self.eval_nanos
                .saturating_add(half)
                .checked_div(self.evals)
                .unwrap_or(0),
        )
    }
}

impl Add for RuntimeStats {
    type Output = RuntimeStats;

    // Saturating: merging snapshots from a long-running server must
    // never overflow-panic in debug builds.
    fn add(self, rhs: RuntimeStats) -> RuntimeStats {
        RuntimeStats {
            evals: self.evals.saturating_add(rhs.evals),
            cache_hits: self.cache_hits.saturating_add(rhs.cache_hits),
            cache_misses: self.cache_misses.saturating_add(rhs.cache_misses),
            verifications: self.verifications.saturating_add(rhs.verifications),
            rules_fired: self.rules_fired.saturating_add(rhs.rules_fired),
            opt_iterations: self.opt_iterations.saturating_add(rhs.opt_iterations),
            eval_nanos: self.eval_nanos.saturating_add(rhs.eval_nanos),
            exec: self.exec + rhs.exec,
            audits: self.audits + rhs.audits,
        }
    }
}

impl AddAssign for RuntimeStats {
    fn add_assign(&mut self, rhs: RuntimeStats) {
        *self = *self + rhs;
    }
}

impl bh_observe::Collect for RuntimeStats {
    /// Exports the runtime counter families (`bh_runtime_*`) and the
    /// aggregated VM counters (`bh_vm_*`, via [`ExecStats`]'s own
    /// `Collect`). Metric names are part of the golden-tested exporter
    /// contract.
    fn collect_into(&self, set: &mut bh_observe::MetricSet) {
        set.counter("bh_runtime_evals_total", "Evaluations served.")
            .value(self.evals);
        set.counter(
            "bh_runtime_cache_hits_total",
            "Evaluations whose plan came from the transformation cache.",
        )
        .value(self.cache_hits);
        set.counter(
            "bh_runtime_cache_misses_total",
            "Plan lookups that had to run the optimiser.",
        )
        .value(self.cache_misses);
        set.gauge(
            "bh_runtime_cache_hit_rate",
            "Fraction of plan lookups served from the cache.",
        )
        .value(self.hit_rate());
        set.counter(
            "bh_runtime_verifications_total",
            "Byte-code verification passes (once per cache miss, never per eval).",
        )
        .value(self.verifications);
        set.counter(
            "bh_runtime_audit_passed_total",
            "Optimised plans proved equivalent to their source before caching.",
        )
        .value(self.audits.passed);
        set.counter(
            "bh_runtime_audit_failed_total",
            "Optimised plans the translation validator could not prove equivalent.",
        )
        .value(self.audits.failed);
        set.counter(
            "bh_runtime_audit_rolled_back_total",
            "Unproven plans replaced by their unoptimised source program.",
        )
        .value(self.audits.rolled_back);
        set.counter(
            "bh_runtime_rules_fired_total",
            "Rewrite-rule applications across all cache misses.",
        )
        .value(self.rules_fired);
        set.counter(
            "bh_runtime_opt_iterations_total",
            "Fixpoint sweeps across all cache misses.",
        )
        .value(self.opt_iterations);
        set.counter(
            "bh_runtime_eval_nanos_total",
            "Wall-clock nanoseconds inside evaluations (bind to read-back).",
        )
        .value(self.eval_nanos);
        set.gauge(
            "bh_runtime_mean_eval_nanos",
            "Mean service time per evaluation in nanoseconds.",
        )
        .value(u64::try_from(self.mean_eval_time().as_nanos()).unwrap_or(u64::MAX));
        self.exec.collect_into(set);
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "evals={} hits={} misses={} hit-rate={:.0}% verifies={} audits={} rules={} mean-eval={:?} [{}]",
            self.evals,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate() * 100.0,
            self.verifications,
            self.audits.total(),
            self.rules_fired,
            self.mean_eval_time(),
            self.exec
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(RuntimeStats::new().hit_rate(), 0.0);
        let s = RuntimeStats {
            cache_hits: 3,
            cache_misses: 1,
            ..Default::default()
        };
        assert_eq!(s.hit_rate(), 0.75);
    }

    #[test]
    fn add_combines_fieldwise() {
        let a = RuntimeStats {
            evals: 1,
            cache_hits: 1,
            ..Default::default()
        };
        let b = RuntimeStats {
            evals: 2,
            rules_fired: 5,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.evals, 3);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.rules_fired, 5);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn eval_time_divides_by_evals() {
        assert_eq!(RuntimeStats::new().mean_eval_time(), Duration::ZERO);
        let s = RuntimeStats {
            evals: 4,
            eval_nanos: 4_000,
            ..Default::default()
        };
        assert_eq!(s.eval_time(), Duration::from_nanos(4_000));
        assert_eq!(s.mean_eval_time(), Duration::from_nanos(1_000));
        let doubled = s + s;
        assert_eq!(doubled.eval_nanos, 8_000);
        assert_eq!(doubled.mean_eval_time(), Duration::from_nanos(1_000));
    }

    #[test]
    fn audit_counters_add_fieldwise_and_saturate() {
        let a = AuditCounters {
            passed: 3,
            failed: 1,
            rolled_back: 1,
        };
        let b = AuditCounters {
            passed: u64::MAX,
            failed: 2,
            rolled_back: 2,
        };
        let c = a + b;
        assert_eq!(c.passed, u64::MAX);
        assert_eq!(c.failed, 3);
        assert_eq!(c.rolled_back, 3);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn display_mentions_hit_rate() {
        let s = RuntimeStats {
            cache_hits: 1,
            cache_misses: 1,
            ..Default::default()
        };
        assert!(s.to_string().contains("hit-rate=50%"), "{s}");
    }
}
