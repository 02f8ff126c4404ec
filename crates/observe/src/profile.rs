//! The per-digest profile table: hotness, stage latencies and per-opcode
//! execution accounting, keyed by program digest.
//!
//! The runtime already decides per digest whether to re-run the rewrite
//! fixpoint; the [`ProfileTable`] records what each digest *costs* — how
//! often it runs ([`DigestProfile::hits`]), where each of those runs
//! spends its time (per-[`Stage`] latency histograms), and what it
//! executes (per-opcode instruction counts, fused-group composition via
//! [`bh_vm::ExecStats`]).
//!
//! # Bounding and eviction
//!
//! The table is bounded at construction ([`ProfileTable::new`]) and
//! **lock-striped**: entries are spread over [`STRIPES`] independent
//! mutexes by digest fingerprint, so concurrent evaluations of different
//! digests almost never contend on a profile lock. Each stripe holds at
//! most `ceil(capacity / STRIPES)` entries; when a stripe is full, a new
//! digest displaces that stripe's **coldest** entry — fewest hits, ties
//! broken by evicting the longest-resident entry — and the displacement
//! is counted in [`ProfileTable::evictions`]. A digest hotter than the
//! coldest resident is therefore never shut out, and the table's memory
//! is a fixed function of its capacity however many distinct digests a
//! long-running server sees.
//!
//! # Determinism
//!
//! Hit counts, per-opcode totals and the analytic [`bh_vm::ExecStats`]
//! counters are bit-identical at every VM worker-thread count for a
//! fixed workload (the observational shard counters and the wall-clock
//! histograms are explicitly *not* — see
//! [`DigestProfile::deterministic_key`], which the equivalence-style
//! test suite asserts on).

use crate::hist::LatencyHistogram;
use bh_ir::Opcode;
use bh_vm::ExecStats;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Pipeline stages a request's lifetime decomposes into. `QueueWait` is
/// recorded by the serving layer (time between submission and batch
/// start); `Optimise` and `Verify` happen once per plan build (cache
/// miss); `Bind`, `Execute` and `ReadBack` are per evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Submission → batch-execution start (serving layer only).
    QueueWait = 0,
    /// The rewrite fixpoint (once per plan build).
    Optimise = 1,
    /// Byte-code verification of the optimised plan (once per build).
    Verify = 2,
    /// Binding input tensors into the VM.
    Bind = 3,
    /// Executing the verified program.
    Execute = 4,
    /// Reading the result tensor back.
    ReadBack = 5,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::QueueWait,
        Stage::Optimise,
        Stage::Verify,
        Stage::Bind,
        Stage::Execute,
        Stage::ReadBack,
    ];

    /// Stable snake_case name, used as the exporter's `stage` label.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Optimise => "optimise",
            Stage::Verify => "verify",
            Stage::Bind => "bind",
            Stage::Execute => "execute",
            Stage::ReadBack => "read_back",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-evaluation stage timings handed to [`ProfileTable::record_eval`]
/// by the runtime's hot path, in nanoseconds (no `Duration` round trips
/// on the hot path).
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalSample {
    /// Time spent binding input tensors.
    pub bind_nanos: u64,
    /// Time spent in `Vm::run_verified`.
    pub execute_nanos: u64,
    /// Time spent reading the result back.
    pub read_back_nanos: u64,
    /// The evaluation's VM counter delta.
    pub exec: ExecStats,
}

/// One digest's accumulated profile (a snapshot clone; the live entry
/// stays inside the table).
#[derive(Debug, Clone)]
pub struct DigestProfile {
    /// The digest's 64-bit fingerprint (`bh_ir::ProgramDigest::fingerprint`),
    /// the identity digests are logged and labelled under.
    pub fingerprint: u64,
    /// Evaluations recorded for this digest — the hotness signal.
    pub hits: u64,
    /// Plan builds recorded (cache misses: optimise + verify ran).
    pub plan_builds: u64,
    /// Per-stage latency histograms, indexed by [`Stage`].
    pub stages: StageLatencies,
    /// Aggregated VM execution counters across all recorded evaluations.
    pub exec: ExecStats,
    /// Instructions the digest's *plan* executes per evaluation, by
    /// opcode, sorted by opcode. Multiplied by [`DigestProfile::hits`]
    /// this is the per-opcode execution accounting
    /// ([`DigestProfile::opcode_totals`]).
    pub opcodes_per_eval: Vec<(Opcode, u64)>,
}

impl DigestProfile {
    fn new(fingerprint: u64, opcodes: &[(Opcode, u64)]) -> DigestProfile {
        DigestProfile {
            fingerprint,
            hits: 0,
            plan_builds: 0,
            stages: StageLatencies::default(),
            exec: ExecStats::default(),
            opcodes_per_eval: opcodes.to_vec(),
        }
    }

    /// Total instructions executed for this digest, by opcode
    /// (`opcodes_per_eval × hits`), sorted by opcode.
    pub fn opcode_totals(&self) -> Vec<(Opcode, u64)> {
        self.opcodes_per_eval
            .iter()
            .map(|&(op, n)| (op, n.saturating_mul(self.hits)))
            .collect()
    }

    /// Mean latency of one stage (zero when that stage has no samples).
    pub fn mean_stage(&self, stage: Stage) -> Duration {
        self.stages.get(stage).mean()
    }

    /// The fields that are bit-identical at every VM worker-thread count
    /// for a fixed workload: hits, plan builds, per-opcode totals, and
    /// the analytic execution counters (instructions, kernels, fused
    /// groups/reductions, elements, bytes, flops, syncs). Wall-clock
    /// histograms and the observational `par_shards`/`reduce_shards`
    /// counters are deliberately excluded — those are *allowed* to vary
    /// with parallelism. The thread-matrix test asserts equality of this
    /// key across every thread count of `bohrium_repro::testing::legs`.
    pub fn deterministic_key(&self) -> impl PartialEq + fmt::Debug {
        (
            self.fingerprint,
            self.hits,
            self.plan_builds,
            self.opcode_totals(),
            (
                self.exec.instructions,
                self.exec.kernels,
                self.exec.fused_groups,
                self.exec.fused_reductions,
                self.exec.elements_written,
                self.exec.bytes_read,
                self.exec.bytes_written,
                self.exec.flops,
                self.exec.syncs,
            ),
        )
    }
}

/// The six per-stage latency histograms of one digest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageLatencies {
    by_stage: [LatencyHistogram; Stage::ALL.len()],
}

impl StageLatencies {
    /// The histogram for one stage.
    pub fn get(&self, stage: Stage) -> &LatencyHistogram {
        &self.by_stage[stage as usize]
    }

    fn get_mut(&mut self, stage: Stage) -> &mut LatencyHistogram {
        &mut self.by_stage[stage as usize]
    }

    /// Iterate `(stage, histogram)` pairs in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, &LatencyHistogram)> {
        Stage::ALL.iter().map(move |&s| (s, self.get(s)))
    }
}

struct Entry {
    profile: DigestProfile,
    /// Monotonic per-stripe insertion sequence, the eviction tie-break.
    inserted: u64,
}

#[derive(Default)]
struct Stripe {
    map: HashMap<u64, Entry>,
    insert_seq: u64,
    evictions: u64,
}

impl Stripe {
    /// Fetch or create the entry for `fingerprint`, evicting the coldest
    /// entry (fewest hits, then longest-resident) when the stripe is at
    /// `cap`.
    fn entry_mut(
        &mut self,
        fingerprint: u64,
        cap: usize,
        opcodes: &[(Opcode, u64)],
    ) -> &mut DigestProfile {
        if !self.map.contains_key(&fingerprint) {
            if self.map.len() >= cap {
                if let Some(&victim) = self
                    .map
                    .iter()
                    .min_by_key(|(_, e)| (e.profile.hits, e.inserted))
                    .map(|(fp, _)| fp)
                {
                    self.map.remove(&victim);
                    self.evictions += 1;
                }
            }
            self.insert_seq += 1;
            self.map.insert(
                fingerprint,
                Entry {
                    profile: DigestProfile::new(fingerprint, opcodes),
                    inserted: self.insert_seq,
                },
            );
        }
        &mut self
            .map
            .get_mut(&fingerprint)
            .expect("entry inserted above")
            .profile
    }
}

/// Stripe count: a power of two so stripe selection is a mask. 16 keeps
/// contention negligible for any realistic worker count while the empty
/// table stays a few hundred bytes.
const STRIPES: usize = 16;

/// Bounded, lock-striped map from digest fingerprint to accumulated
/// [`DigestProfile`] (see the module docs for the bounding/eviction
/// policy and the determinism contract).
///
/// Keys are 64-bit digest fingerprints rather than full canonical
/// digests: a fingerprint collision would merge two digests' profiles —
/// harmless for an observability signal, and it keeps the hot-path
/// record cost to a hash of one `u64`.
pub struct ProfileTable {
    stripes: Box<[Mutex<Stripe>]>,
    stripe_cap: usize,
}

impl fmt::Debug for ProfileTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProfileTable")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl ProfileTable {
    /// A table holding at most (about) `capacity` digests, spread over
    /// `STRIPES` (16) lock stripes (each stripe holds at most
    /// `ceil(capacity / STRIPES)`; capacity is clamped to at least one
    /// entry per stripe).
    pub fn new(capacity: usize) -> ProfileTable {
        ProfileTable {
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            stripe_cap: capacity.div_ceil(STRIPES).max(1),
        }
    }

    /// Upper bound on resident digests (`stripes × per-stripe cap`).
    pub fn capacity(&self) -> usize {
        self.stripe_cap * self.stripes.len()
    }

    /// Digests currently resident.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when no digest has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cold entries displaced by new digests since construction.
    pub fn evictions(&self) -> u64 {
        self.stripes.iter().map(|s| s.lock().evictions).sum()
    }

    fn stripe(&self, fingerprint: u64) -> &Mutex<Stripe> {
        // The fingerprint is an avalanched 64-bit hash: well-mixed low
        // bits.
        &self.stripes[(fingerprint as usize) & (self.stripes.len() - 1)]
    }

    /// Record one plan build (a cache miss): the optimise and verify
    /// stage durations and the per-eval opcode census of the built plan.
    /// The census replaces the entry's previous one: it describes the
    /// digest's *current* plan.
    pub fn record_plan_build(
        &self,
        fingerprint: u64,
        optimise: Duration,
        verify: Duration,
        opcodes: &[(Opcode, u64)],
    ) {
        let mut stripe = self.stripe(fingerprint).lock();
        let entry = stripe.entry_mut(fingerprint, self.stripe_cap, opcodes);
        entry.plan_builds = entry.plan_builds.saturating_add(1);
        entry.opcodes_per_eval = opcodes.to_vec();
        entry
            .stages
            .get_mut(Stage::Optimise)
            .record_nanos(u64::try_from(optimise.as_nanos()).unwrap_or(u64::MAX));
        entry
            .stages
            .get_mut(Stage::Verify)
            .record_nanos(u64::try_from(verify.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Record one evaluation: bind/execute/read-back stage timings and
    /// the VM counter delta. `opcodes` is the plan's per-eval opcode
    /// census, consulted only when the digest's entry has to be
    /// (re)created — e.g. after an eviction.
    pub fn record_eval(&self, fingerprint: u64, sample: &EvalSample, opcodes: &[(Opcode, u64)]) {
        let mut stripe = self.stripe(fingerprint).lock();
        let entry = stripe.entry_mut(fingerprint, self.stripe_cap, opcodes);
        entry.hits = entry.hits.saturating_add(1);
        entry.exec += sample.exec;
        entry
            .stages
            .get_mut(Stage::Bind)
            .record_nanos(sample.bind_nanos);
        entry
            .stages
            .get_mut(Stage::Execute)
            .record_nanos(sample.execute_nanos);
        entry
            .stages
            .get_mut(Stage::ReadBack)
            .record_nanos(sample.read_back_nanos);
    }

    /// Record the queue wait a serving layer observed for one request of
    /// this digest (no entry is created: queue wait without a subsequent
    /// evaluation carries no hotness signal).
    pub fn record_queue_wait(&self, fingerprint: u64, wait: Duration) {
        let mut stripe = self.stripe(fingerprint).lock();
        if let Some(entry) = stripe.map.get_mut(&fingerprint) {
            entry
                .profile
                .stages
                .get_mut(Stage::QueueWait)
                .record_nanos(u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// The recorded hit count of one digest (zero when the digest has no
    /// entry — never recorded, or displaced by eviction): one stripe
    /// lock, one hash of a `u64`.
    pub fn hits(&self, fingerprint: u64) -> u64 {
        self.stripe(fingerprint)
            .lock()
            .map
            .get(&fingerprint)
            .map_or(0, |e| e.profile.hits)
    }

    /// Snapshot every resident profile, hottest first (ties broken by
    /// fingerprint so the order is deterministic).
    pub fn snapshot(&self) -> Vec<DigestProfile> {
        let mut all: Vec<DigestProfile> = self
            .stripes
            .iter()
            .flat_map(|s| {
                s.lock()
                    .map
                    .values()
                    .map(|e| e.profile.clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by(|a, b| {
            b.hits
                .cmp(&a.hits)
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });
        all
    }

    /// The `k` hottest digests (by hit count, deterministic ties).
    pub fn top_k(&self, k: usize) -> Vec<DigestProfile> {
        let mut all = self.snapshot();
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(spec: &[(Opcode, u64)]) -> Vec<(Opcode, u64)> {
        spec.to_vec()
    }

    fn eval_sample(execute_nanos: u64) -> EvalSample {
        EvalSample {
            bind_nanos: 10,
            execute_nanos,
            read_back_nanos: 20,
            exec: ExecStats {
                instructions: 3,
                kernels: 1,
                ..Default::default()
            },
        }
    }

    #[test]
    fn records_accumulate_per_digest() {
        let t = ProfileTable::new(64);
        let census = ops(&[(Opcode::Add, 2), (Opcode::Sync, 1)]);
        t.record_plan_build(
            7,
            Duration::from_micros(5),
            Duration::from_micros(1),
            &census,
        );
        for _ in 0..3 {
            t.record_eval(7, &eval_sample(1_000), &census);
        }
        t.record_queue_wait(7, Duration::from_micros(9));
        assert_eq!(t.hits(7), 3);
        assert_eq!(t.hits(8), 0, "unknown digest reads as cold");
        let snap = t.snapshot();
        assert_eq!(snap.len(), 1);
        let p = &snap[0];
        assert_eq!(p.fingerprint, 7);
        assert_eq!(p.hits, 3);
        assert_eq!(p.plan_builds, 1);
        assert_eq!(p.exec.instructions, 9);
        assert_eq!(p.stages.get(Stage::Execute).count(), 3);
        assert_eq!(p.stages.get(Stage::Optimise).count(), 1);
        assert_eq!(p.stages.get(Stage::QueueWait).count(), 1);
        assert_eq!(p.opcode_totals(), vec![(Opcode::Add, 6), (Opcode::Sync, 3)]);
        assert!(p.mean_stage(Stage::Execute) > Duration::ZERO);
    }

    #[test]
    fn rebuild_replaces_the_census() {
        let t = ProfileTable::new(64);
        let first = ops(&[(Opcode::Add, 24), (Opcode::Sync, 1)]);
        t.record_plan_build(
            9,
            Duration::from_micros(2),
            Duration::from_micros(1),
            &first,
        );
        t.record_eval(9, &eval_sample(500), &first);
        // A rebuild (e.g. after a cache eviction under other options)
        // may execute fewer instructions per eval; the entry's census
        // must describe the *current* plan.
        let second = ops(&[(Opcode::Add, 1), (Opcode::Sync, 1)]);
        t.record_plan_build(
            9,
            Duration::from_micros(40),
            Duration::from_micros(1),
            &second,
        );
        let p = &t.snapshot()[0];
        assert_eq!(p.plan_builds, 2);
        assert_eq!(p.opcodes_per_eval, second);
    }

    #[test]
    fn top_k_orders_by_hits_with_deterministic_ties() {
        let t = ProfileTable::new(64);
        for (fp, hits) in [(1u64, 5u64), (2, 9), (3, 5), (4, 1)] {
            for _ in 0..hits {
                t.record_eval(fp, &eval_sample(100), &[]);
            }
        }
        let top: Vec<(u64, u64)> = t.top_k(3).iter().map(|p| (p.fingerprint, p.hits)).collect();
        assert_eq!(top, vec![(2, 9), (1, 5), (3, 5)]);
        assert_eq!(t.top_k(100).len(), 4);
    }

    #[test]
    fn capacity_clamps_to_one_entry_per_stripe() {
        let t = ProfileTable::new(1);
        assert_eq!(t.capacity(), STRIPES);
    }

    #[test]
    fn table_is_bounded_and_evicts_the_coldest() {
        // Capacity 32 → 2 entries per stripe; force collisions onto
        // stripe 0 by fixing the low fingerprint bits.
        let t = ProfileTable::new(32);
        assert_eq!(t.capacity(), 32);
        let fp = |i: u64| i << 8; // all land in stripe 0
                                  // Digest A gets hot; B arrives and is colder; C displaces B, not A.
        for _ in 0..5 {
            t.record_eval(fp(1), &eval_sample(100), &[]);
        }
        t.record_eval(fp(2), &eval_sample(100), &[]);
        assert_eq!(t.evictions(), 0);
        t.record_eval(fp(3), &eval_sample(100), &[]);
        assert_eq!(t.evictions(), 1);
        let survivors: Vec<u64> = t.snapshot().iter().map(|p| p.fingerprint).collect();
        assert!(survivors.contains(&fp(1)), "hot digest must survive");
        assert!(!survivors.contains(&fp(2)), "coldest digest is displaced");
        assert!(survivors.contains(&fp(3)));
    }

    #[test]
    fn eviction_ties_displace_the_longest_resident() {
        let t = ProfileTable::new(32); // 2 per stripe
        let fp = |i: u64| i << 8; // all land in stripe 0
        t.record_eval(fp(1), &eval_sample(100), &[]);
        t.record_eval(fp(2), &eval_sample(100), &[]);
        t.record_eval(fp(3), &eval_sample(100), &[]); // tie on hits: evicts 1
        let mut survivors: Vec<u64> = t.snapshot().iter().map(|p| p.fingerprint).collect();
        survivors.sort_unstable();
        assert_eq!(survivors, vec![fp(2), fp(3)]);
    }

    #[test]
    fn queue_wait_without_an_entry_is_dropped() {
        let t = ProfileTable::new(8);
        t.record_queue_wait(42, Duration::from_micros(1));
        assert!(t.is_empty());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let t = std::sync::Arc::new(ProfileTable::new(256));
        let handles: Vec<_> = (0..8u64)
            .map(|thread| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        t.record_eval(thread * 100 + (i % 10), &eval_sample(50), &[]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), 80);
        assert_eq!(snap.iter().map(|p| p.hits).sum::<u64>(), 800);
    }
}
