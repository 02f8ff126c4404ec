//! The four workloads: population, request order, entry point, and the
//! set-up that brings the system to its steady regime before timing.

use crate::gen::{self, Case, Rng};
use crate::stack::{self, Fixture, Loaded, Round, Tuning, Wire};
use bh_runtime::Runtime;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `NetClient` over loopback → `bh-net` → `bh-serve` → runtime.
    Wire,
    /// `Runtime::eval` in-process, one caller.
    Eval,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub entry: Entry,
    population: fn(u64) -> Vec<Case>,
    /// The request order of one round, from the seed: a fixed count, so
    /// counters repeat exactly; a third to half a second of work on the
    /// reference host, so a run has some forty rounds to pick its
    /// fastest third from.
    round: fn(u64) -> Vec<usize>,
    /// Leading requests of a round sent before timing, to fill caches
    /// and settle controllers (excluded from every metric but `setup_s`).
    warm_up: usize,
    /// Requests of the traced single-client sample.
    pub trace_sample: usize,
}

fn cycled(slots: &[usize], times: usize) -> Vec<usize> {
    slots
        .iter()
        .copied()
        .cycle()
        .take(slots.len() * times)
        .collect()
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_hot_small",
        why: "8 cache-resident 24-op programs (n=48..55) over loopback TCP, min(nproc,4) connections x pipeline 8: per-request overhead of net, serve and the plan-cache hit path is everything, kernels nothing",
        entry: Entry::Wire,
        population: gen::small,
        round: |_| cycled(&[0, 1, 2, 3, 4, 5, 6, 7], 1_250),
        warm_up: 2_000,
        trace_sample: 2000,
    },
    Workload {
        name: "compile_churn",
        why: "512 distinct 33-128 instruction programs cycled against the 256-entry plan cache through Runtime::eval: every request is a miss and an eviction, so optimise, audit, verify and insert dominate",
        entry: Entry::Eval,
        population: gen::churn,
        // A seeded permutation, cycled: 512 distinct digests against
        // 256 LRU slots never hit.
        round: |seed| {
            let mut cycle: Vec<usize> = (0..gen::CHURN_PROGRAMS).collect();
            Rng::new(seed ^ 0x0D0E).shuffle(&mut cycle);
            cycled(&cycle, 3)
        },
        warm_up: gen::CHURN_PROGRAMS,
        trace_sample: 4 * gen::CHURN_PROGRAMS,
    },
    Workload {
        name: "kernel_stream",
        why: "cache-hot rotation of eight 2^20-element f64 programs (fused chains, reductions, scan, stencil, axis sums, casts) via Runtime::eval: time is in bh-vm and bh-tensor kernels; opt, serve, net idle",
        entry: Entry::Eval,
        population: gen::kernels,
        // chain16 takes two of nine slots: with an odd slot count the
        // pooled median lands inside one program's latency distribution,
        // not on the boundary between two.
        round: |_| cycled(&[0, 1, 2, 3, 0, 4, 5, 6, 7], 9),
        warm_up: 18,
        trace_sample: 198,
    },
    Workload {
        name: "paper_rewrites",
        why: "cache-hot paper listings at n=10^6, m=256 (constant-merge chains, x^10, x^16, inverse+matmul, identity and strength chains): optimiser cost is amortised away, the quality of its output is the run time",
        entry: Entry::Eval,
        population: gen::paper,
        round: |_| cycled(&[0, 1, 2, 3, 4, 5, 6], 20),
        warm_up: 14,
        trace_sample: 196,
    },
];

/// The `wire_hot_small` programs with counts small enough for a debug
/// build: the unit tests drive the whole traced pass through these.
#[cfg(test)]
pub const TINY: [Workload; 2] = [
    Workload {
        name: "tiny_wire",
        why: "test",
        entry: Entry::Wire,
        population: gen::small,
        round: |_| cycled(&[0, 1, 2, 3, 4, 5, 6, 7], 4),
        warm_up: 16,
        trace_sample: 16,
    },
    Workload {
        name: "tiny_eval",
        why: "test",
        entry: Entry::Eval,
        population: gen::small,
        round: |_| cycled(&[0, 1, 2, 3, 4, 5, 6, 7], 4),
        warm_up: 8,
        trace_sample: 16,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn population(&self, seed: u64) -> Vec<Case> {
        (self.population)(seed)
    }

    pub fn round_order(&self, seed: u64) -> Vec<usize> {
        (self.round)(seed)
    }

    pub fn warm_up_order(&self, seed: u64) -> Vec<usize> {
        let mut order = self.round_order(seed);
        order.truncate(self.warm_up);
        order
    }

    /// Set-up as a front-end pays it: parse and verify the byte-code,
    /// build runtime (and server, listener, connections), warm up.
    pub fn set_up<'f>(
        &self,
        fixtures: &'f [Fixture<'f>],
        tuning: &Tuning,
        seed: u64,
    ) -> (Live<'f>, Round) {
        let loaded = fixtures.iter().map(Fixture::load).collect();
        let target = match self.entry {
            Entry::Wire => Target::Wire(Wire::start(tuning, stack::client_count())),
            Entry::Eval => Target::Eval(stack::runtime(tuning)),
        };
        let mut live = Live {
            fixtures,
            loaded,
            target,
            solo: false,
        };
        let warm = live.round(&self.warm_up_order(seed), 0);
        live.solo = match &live.target {
            Target::Wire(_) => false,
            Target::Eval(rt) => rt.stats().exec.par_shards == 0,
        };
        (live, warm)
    }
}

pub enum Target {
    Wire(Wire),
    Eval(Arc<Runtime>),
}

/// A workload's system, built and warm.
pub struct Live<'f> {
    pub fixtures: &'f [Fixture<'f>],
    pub loaded: Vec<Loaded>,
    pub target: Target,
    /// The caller is the only busy thread: an in-process entry point
    /// whose runtime sharded no kernel across its pool during warm-up.
    solo: bool,
}

impl Live<'_> {
    /// Round number `index` of a series. A solo caller takes the CPUs
    /// in turn, one round each (see `pin.rs`). Where several threads
    /// work — the wire stack, a runtime that shards kernels — both CPUs
    /// are in play whatever the caller does, so nothing is pinned and
    /// the threads go where the scheduler puts them, as for a user.
    pub fn round(&mut self, order: &[usize], index: usize) -> Round {
        match &mut self.target {
            Target::Wire(wire) => wire.round(self.fixtures, &self.loaded, order),
            Target::Eval(rt) if self.solo => crate::pin::pinned(index % stack::nproc(), || {
                stack::eval_round(rt, self.fixtures, &self.loaded, order)
            }),
            Target::Eval(rt) => stack::eval_round(rt, self.fixtures, &self.loaded, order),
        }
    }

    pub fn runtime(&self) -> &Arc<Runtime> {
        match &self.target {
            Target::Wire(wire) => wire.server.runtime(),
            Target::Eval(rt) => rt,
        }
    }

    pub fn tear_down(self) {
        if let Target::Wire(wire) = self.target {
            wire.stop();
        }
    }
}
