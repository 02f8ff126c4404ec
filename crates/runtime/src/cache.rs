//! The transformation cache: structural digest → optimised plan.
//!
//! The paper's rewrite fixpoint runs in time proportional to program
//! length × rule count × sweeps; under repeated traffic the same traced
//! byte-code sequences arrive over and over, so the runtime memoises the
//! *result* of transformation the way a JVM verifies byte-code once at
//! load time rather than per execution. Keys are
//! [`bh_ir::ProgramDigest`]s (canonical structure, register names
//! ignored); a runtime optimises under one options value, so the digest
//! alone names a plan. The cache is also the one "seen and verified"
//! record per digest: `bh-serve` admission asks it whether a plan is
//! resident before verifying a submission. Eviction is
//! least-recently-used.

use bh_ir::{Opcode, Program, ProgramDigest, Verified};
use bh_opt::OptReport;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// An optimised, verified, ready-to-execute program plus the report of
/// how it got that way. Immutable once built; shared via `Arc` between
/// the cache and every [`crate::EvalOutcome`] that used it.
#[derive(Debug)]
pub struct EvalPlan {
    /// The transformed program wrapped in its [`bh_ir::Verified`]
    /// witness: verification ran exactly once, at plan-build time, and
    /// the witness lets every later execution take
    /// [`bh_vm::Vm::run_verified`]'s trusted path with zero re-checks.
    /// (`Verified` derefs to [`bh_ir::Program`], so read-only callers
    /// are unaffected.)
    pub program: Verified,
    /// What the optimiser did to produce it.
    pub report: OptReport,
    /// Fingerprint of the source program's structural digest, for logs.
    pub source_fingerprint: u64,
    /// Instructions the optimised plan executes per evaluation, counted
    /// by op-code (sorted, `BH_NONE` excluded). Captured once at plan
    /// build so per-digest opcode accounting costs the profiler nothing
    /// on the eval path: totals are `census × hits`.
    pub opcode_census: Vec<(Opcode, u64)>,
}

impl EvalPlan {
    /// Assemble a plan from its verified program, computing the opcode
    /// census.
    pub fn new(program: Verified, report: OptReport, source_fingerprint: u64) -> EvalPlan {
        let opcode_census = opcode_census(&program);
        EvalPlan {
            program,
            report,
            source_fingerprint,
            opcode_census,
        }
    }
}

/// Count a program's instructions by op-code (sorted by op-code,
/// `BH_NONE` excluded — matching what [`bh_vm::ExecStats`] calls an
/// instruction).
fn opcode_census(program: &Program) -> Vec<(Opcode, u64)> {
    let mut counts: BTreeMap<Opcode, u64> = BTreeMap::new();
    for instr in program.instrs() {
        if instr.op != Opcode::NoOp {
            *counts.entry(instr.op).or_insert(0) += 1;
        }
    }
    counts.into_iter().collect()
}

struct Entry {
    plan: Arc<EvalPlan>,
    last_used: u64,
}

/// LRU map from structural digest to optimised plan.
pub(crate) struct TransformCache {
    capacity: usize,
    tick: u64,
    map: HashMap<ProgramDigest, Entry>,
}

impl TransformCache {
    pub fn new(capacity: usize) -> TransformCache {
        TransformCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Whether a plan for `key` is resident. Unlike [`TransformCache::get`]
    /// it leaves the LRU order alone.
    pub fn contains(&self, key: &ProgramDigest) -> bool {
        self.map.contains_key(key)
    }

    pub fn get(&mut self, key: &ProgramDigest) -> Option<Arc<EvalPlan>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.plan)
        })
    }

    /// Insert `plan` under `key`, evicting the least-recently-used entry
    /// when full. If a racing thread inserted the same key first, its plan
    /// wins (and is returned) so all callers share one allocation.
    pub fn insert(&mut self, key: ProgramDigest, plan: Arc<EvalPlan>) -> Arc<EvalPlan> {
        if self.capacity == 0 {
            return plan;
        }
        self.tick += 1;
        if let Some(existing) = self.map.get_mut(&key) {
            existing.last_used = self.tick;
            return Arc::clone(&existing.plan);
        }
        if self.map.len() >= self.capacity {
            // O(n) victim scan; capacities are modest (default 256) and
            // the scan only happens once the cache is full.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(
            key,
            Entry {
                plan: Arc::clone(&plan),
                last_used: self.tick,
            },
        );
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::parse_program;
    use bh_opt::Optimizer;

    fn plan_for(text: &str) -> (ProgramDigest, Arc<EvalPlan>) {
        let mut program = parse_program(text).unwrap();
        let digest = program.structural_digest();
        let report = Optimizer::default().run(&mut program);
        let fp = digest.fingerprint();
        (
            digest,
            Arc::new(EvalPlan::new(
                bh_ir::verify_owned(program).expect("test program verifies"),
                report,
                fp,
            )),
        )
    }

    #[test]
    fn get_after_insert_returns_same_plan() {
        let mut cache = TransformCache::new(4);
        let (key, plan) = plan_for("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n");
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), Arc::clone(&plan));
        let got = cache.get(&key).unwrap();
        assert!(Arc::ptr_eq(&got, &plan));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let mut cache = TransformCache::new(2);
        let (k1, p1) = plan_for("BH_IDENTITY a [0:1:1] 1\nBH_SYNC a\n");
        let (k2, p2) = plan_for("BH_IDENTITY a [0:2:1] 1\nBH_SYNC a\n");
        let (k3, p3) = plan_for("BH_IDENTITY a [0:3:1] 1\nBH_SYNC a\n");
        cache.insert(k1.clone(), p1);
        cache.insert(k2.clone(), p2);
        // Touch k1 so k2 becomes the LRU victim.
        assert!(cache.get(&k1).is_some());
        cache.insert(k3.clone(), p3);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&k1).is_some());
        assert!(cache.get(&k2).is_none());
        assert!(cache.get(&k3).is_some());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = TransformCache::new(0);
        let (key, plan) = plan_for("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n");
        cache.insert(key.clone(), plan);
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&key).is_none());
    }

    #[test]
    fn racing_insert_keeps_first_plan() {
        let mut cache = TransformCache::new(4);
        let (key, plan_a) = plan_for("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n");
        let (_, plan_b) = plan_for("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n");
        cache.insert(key.clone(), Arc::clone(&plan_a));
        let winner = cache.insert(key, plan_b);
        assert!(Arc::ptr_eq(&winner, &plan_a));
        assert_eq!(cache.len(), 1);
    }
}
