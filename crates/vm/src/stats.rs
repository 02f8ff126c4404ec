//! Execution statistics and the abstract cost counters.
//!
//! The paper's transformations pay off by *removing byte-codes* (fewer
//! kernel launches, less memory traffic) or *replacing expensive op-codes*
//! (fewer flops). The VM measures all three so benchmarks can report the
//! model quantities alongside wall-clock time, making the experiment shapes
//! reproducible on any host.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Counters accumulated while executing a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Instructions executed (excluding `BH_NONE`).
    pub instructions: u64,
    /// Kernels launched: one per byte-code on the naive engine, one per
    /// fused group on the fusing engine.
    pub kernels: u64,
    /// Fused groups executed (fusing engine only).
    pub fused_groups: u64,
    /// Shards dispatched to the worker pool: contiguous element shards
    /// of the fusing engine's compiled element-wise runs (fused groups
    /// and unfused contiguous instructions alike), the ranges of parallel
    /// folds (also counted in [`ExecStats::reduce_shards`]) and the row
    /// shards of the LU's trailing updates behind `BH_SOLVE` and
    /// `BH_INVERSE` (0 when everything ran serially). Purely observational:
    /// sharding never changes results or the other counters
    /// (DESIGN.md §10).
    pub par_shards: u64,
    /// Ranges dispatched to the worker pool by parallel folds: lane
    /// shards of reductions and scans, canonical-block shards of
    /// single-lane reductions (0 when every fold ran serially).
    /// Observational like [`ExecStats::par_shards`]: the deterministic
    /// combine tree keeps results and the analytic counters identical
    /// at every thread count (DESIGN.md §11).
    pub reduce_shards: u64,
    /// Reductions executed fused into a preceding element-wise group
    /// (fusing engine only): the chain and the fold ran as one sharded
    /// kernel with per-block accumulators.
    pub fused_reductions: u64,
    /// Elements written to output views.
    pub elements_written: u64,
    /// Bytes read from base arrays by input views.
    pub bytes_read: u64,
    /// Bytes written to base arrays by output views.
    pub bytes_written: u64,
    /// Abstract flops: per-element op-code unit costs plus linalg flop
    /// models (see `Opcode::unit_cost` and `bh-linalg`).
    pub flops: u64,
    /// `BH_SYNC`s observed (host-visible results).
    pub syncs: u64,
}

impl ExecStats {
    /// Fresh zeroed counters.
    pub fn new() -> ExecStats {
        ExecStats::default()
    }

    /// Total modelled memory traffic in bytes.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Field-wise difference against an earlier snapshot of the *same*
    /// accumulating counters — the per-run delta when several runs share
    /// one VM without recycling in between. Saturates at zero so a stale
    /// snapshot can never produce wrapped counters.
    pub fn since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            instructions: self.instructions.saturating_sub(earlier.instructions),
            kernels: self.kernels.saturating_sub(earlier.kernels),
            fused_groups: self.fused_groups.saturating_sub(earlier.fused_groups),
            par_shards: self.par_shards.saturating_sub(earlier.par_shards),
            reduce_shards: self.reduce_shards.saturating_sub(earlier.reduce_shards),
            fused_reductions: self
                .fused_reductions
                .saturating_sub(earlier.fused_reductions),
            elements_written: self
                .elements_written
                .saturating_sub(earlier.elements_written),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            flops: self.flops.saturating_sub(earlier.flops),
            syncs: self.syncs.saturating_sub(earlier.syncs),
        }
    }
}

impl Add for ExecStats {
    type Output = ExecStats;

    // Saturating: these counters aggregate for the life of a server, and
    // merging snapshots must never overflow-panic in debug builds.
    fn add(self, rhs: ExecStats) -> ExecStats {
        ExecStats {
            instructions: self.instructions.saturating_add(rhs.instructions),
            kernels: self.kernels.saturating_add(rhs.kernels),
            fused_groups: self.fused_groups.saturating_add(rhs.fused_groups),
            par_shards: self.par_shards.saturating_add(rhs.par_shards),
            reduce_shards: self.reduce_shards.saturating_add(rhs.reduce_shards),
            fused_reductions: self.fused_reductions.saturating_add(rhs.fused_reductions),
            elements_written: self.elements_written.saturating_add(rhs.elements_written),
            bytes_read: self.bytes_read.saturating_add(rhs.bytes_read),
            bytes_written: self.bytes_written.saturating_add(rhs.bytes_written),
            flops: self.flops.saturating_add(rhs.flops),
            syncs: self.syncs.saturating_add(rhs.syncs),
        }
    }
}

impl AddAssign for ExecStats {
    fn add_assign(&mut self, rhs: ExecStats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instrs={} kernels={} fused={} shards={} rshards={} fredux={} elems={} read={}B written={}B flops={} syncs={}",
            self.instructions,
            self.kernels,
            self.fused_groups,
            self.par_shards,
            self.reduce_shards,
            self.fused_reductions,
            self.elements_written,
            self.bytes_read,
            self.bytes_written,
            self.flops,
            self.syncs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_total_sums_read_and_written() {
        let s = ExecStats {
            kernels: 2,
            bytes_read: 100,
            bytes_written: 50,
            flops: 10,
            ..ExecStats::default()
        };
        assert_eq!(s.bytes_total(), 150);
    }

    #[test]
    fn add_combines_fieldwise() {
        let a = ExecStats {
            instructions: 1,
            kernels: 2,
            ..Default::default()
        };
        let b = ExecStats {
            instructions: 10,
            syncs: 1,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.instructions, 11);
        assert_eq!(c.kernels, 2);
        assert_eq!(c.syncs, 1);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!ExecStats::new().to_string().is_empty());
    }

    #[test]
    fn since_yields_the_delta() {
        let before = ExecStats {
            instructions: 5,
            kernels: 4,
            bytes_read: 100,
            ..Default::default()
        };
        let after = ExecStats {
            instructions: 9,
            kernels: 6,
            bytes_read: 180,
            syncs: 1,
            ..Default::default()
        };
        let d = after.since(&before);
        assert_eq!(d.instructions, 4);
        assert_eq!(d.kernels, 2);
        assert_eq!(d.bytes_read, 80);
        assert_eq!(d.syncs, 1);
        // A stale (larger) snapshot saturates instead of wrapping.
        assert_eq!(before.since(&after).instructions, 0);
    }

    #[test]
    fn reduction_counters_flow_through_add_and_since() {
        let a = ExecStats {
            reduce_shards: 3,
            fused_reductions: 1,
            ..Default::default()
        };
        let b = ExecStats {
            reduce_shards: 5,
            fused_reductions: 2,
            ..Default::default()
        };
        assert_eq!((a + b).reduce_shards, 8);
        assert_eq!((a + b).fused_reductions, 3);
        assert_eq!(b.since(&a).reduce_shards, 2);
        assert_eq!(b.since(&a).fused_reductions, 1);
    }
}
