//! # bohrium-repro — reproduction of *Algebraic Transformation of
//! Descriptive Vector Byte-code Sequences* (Middleware DS '16)
//!
//! Umbrella crate re-exporting the whole stack:
//!
//! * [`tensor`] — strided tensor substrate (`bh-tensor`)
//! * [`ir`] — the descriptive vector byte-code (`bh-ir`)
//! * [`opt`] — the algebraic transformation engine, the paper's
//!   contribution (`bh-opt`)
//! * [`linalg`] — LU/solve/inverse substrate (`bh-linalg`)
//! * [`vm`] — the instrumented byte-code VM (`bh-vm`)
//! * [`runtime`] — the unified optimise → plan → execute entry point with
//!   the transformation cache (`bh-runtime`)
//! * [`serve`] — the multi-tenant batching scheduler for concurrent eval
//!   traffic (`bh-serve`)
//! * [`observe`] — per-digest profiling, request-lifecycle tracing and
//!   the Prometheus/JSON metrics exporter (`bh-observe`)
//! * [`frontend`] — the lazy NumPy-flavoured front-end (`bh-frontend`)
//!
//! plus [`testing`], the cross-crate semantic-equivalence harness used by
//! the integration test-suite. `tests/listings.rs` pins each of the
//! paper's shape claims as an exact count (DESIGN.md §5).
//!
//! See README.md for a guided tour and DESIGN.md for the system inventory.

#![warn(missing_docs)]

pub use bh_frontend as frontend;
pub use bh_ir as ir;
pub use bh_linalg as linalg;
pub use bh_observe as observe;
pub use bh_opt as opt;
pub use bh_runtime as runtime;
pub use bh_serve as serve;
pub use bh_tensor as tensor;
pub use bh_vm as vm;

pub mod testing {
    //! Semantic-equivalence harness and the one engine test matrix.
    //!
    //! The soundness property of every rewrite (DESIGN.md §6): executing a
    //! program before and after transformation must produce element-wise
    //! equal synced results. These helpers bind deterministic random data
    //! to `input` bases, execute on the reference [`Leg`] (the naive
    //! engine, serial), and compare. [`check`] holds every other leg of
    //! [`legs`] to the reference on one program. [`Audited`] proves the
    //! rewrite property statically, one rule application at a time.

    use bh_ir::{check_equiv, EquivOptions, Opcode, Program};
    use bh_opt::{standard_rules, OptOptions, Optimizer, RewriteCtx, RewriteRule};
    use bh_tensor::{random_tensor, Distribution, Tensor};
    use bh_vm::{Engine, Vm, VmError, WorkerPool};
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeMap;
    use std::fmt;
    use std::rc::Rc;
    use std::sync::Arc;

    /// One run of the test matrix: an engine at a worker-thread count.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Leg {
        /// The engine the leg's VM runs.
        pub engine: Engine,
        /// Worker threads, the calling thread included.
        pub threads: usize,
    }

    const fn leg(engine: Engine, threads: usize) -> Leg {
        Leg { engine, threads }
    }

    const fn fusing(block: usize) -> Engine {
        Engine::Fusing { block }
    }

    /// The matrix: a covering set, not the product. Every engine runs
    /// serially and sharded; block 3 splits every run into ragged
    /// blocks, 512 splits the 4 096-element canonical reduction block,
    /// and 4 096 is the default. Threads 2 and 3 split 4 096-grained
    /// lanes unevenly, 4 is the multi-worker steady state.
    const LEGS: [Leg; 8] = [
        Leg::REFERENCE,
        leg(Engine::Naive, 4),
        leg(fusing(3), 1),
        leg(fusing(3), 2),
        leg(fusing(512), 1),
        leg(fusing(512), 3),
        leg(fusing(4096), 1),
        leg(fusing(4096), 4),
    ];

    /// Every leg of the matrix, the reference first.
    pub fn legs() -> &'static [Leg] {
        &LEGS
    }

    thread_local! {
        /// One pool per thread count and test thread: a pool shared with
        /// a concurrently running test is often busy, and a busy pool
        /// runs a job serially, which would skip the sharded paths.
        static POOLS: RefCell<BTreeMap<usize, Arc<WorkerPool>>> = RefCell::default();
    }

    impl Leg {
        /// The leg every other leg is held to: the naive engine, serial.
        pub const REFERENCE: Leg = leg(Engine::Naive, 1);

        /// A fresh VM for this leg, with a parallel threshold of 1 so even
        /// tiny fixtures take the sharded paths, on this thread's cached
        /// worker pool of the leg's size.
        pub fn vm(self) -> Vm {
            let pool = POOLS.with(|pools| {
                let mut pools = pools.borrow_mut();
                let pool = pools
                    .entry(self.threads)
                    .or_insert_with(|| Arc::new(WorkerPool::new(self.threads)));
                Arc::clone(pool)
            });
            let mut vm = Vm::with_engine(self.engine);
            vm.set_worker_pool(pool).set_par_threshold(1);
            vm
        }
    }

    impl fmt::Display for Leg {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{:?}×{}", self.engine, self.threads)
        }
    }

    /// How [`check`] compares a leg's tensor with the reference's.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Compare {
        /// Bit-identical; any NaN matches any NaN.
        Bits,
        /// `Tensor ==`: `-0.0` equals `+0.0`, a NaN equals nothing.
        Equal,
        /// Floats within an absolute tolerance (NaN matches only NaN);
        /// integers and bools exactly.
        Within(f64),
    }

    impl Compare {
        /// Whether `got` matches `want`.
        pub fn matches(self, want: &Tensor, got: &Tensor) -> bool {
            if want.dtype() != got.dtype() || want.shape() != got.shape() {
                return false;
            }
            // An f32 widens to f64 exactly, the sign of a zero included.
            let pairs = || want.to_f64_vec().into_iter().zip(got.to_f64_vec());
            let nans = |a: f64, b: f64| a.is_nan() && b.is_nan();
            match self {
                Compare::Bits if want.dtype().is_float() => {
                    pairs().all(|(a, b)| nans(a, b) || a.to_bits() == b.to_bits())
                }
                Compare::Within(tol) if want.dtype().is_float() => {
                    pairs().all(|(a, b)| nans(a, b) || a == b || (a - b).abs() <= tol)
                }
                _ => want == got,
            }
        }
    }

    /// Deterministic random tensor for the `i`-th input base of a program.
    pub fn input_tensor(program: &Program, index: usize, seed: u64) -> Tensor {
        let base = &program.bases()[index];
        random_tensor(
            base.dtype,
            base.shape.clone(),
            seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            Distribution::NonZero,
        )
    }

    /// Execute `program` on `leg` with seeded inputs and collect the value
    /// of every register read by a `BH_SYNC`, keyed by register name.
    ///
    /// # Errors
    ///
    /// Propagates VM validation/execution failures.
    pub fn run_synced(
        program: &Program,
        seed: u64,
        leg: Leg,
    ) -> Result<BTreeMap<String, Tensor>, VmError> {
        let mut vm = leg.vm();
        for (i, base) in program.bases().iter().enumerate() {
            if base.is_input {
                let t = input_tensor(program, i, seed);
                vm.bind_by_name(program, &base.name, &t)?;
            }
        }
        vm.run(program)?;
        let mut out = BTreeMap::new();
        for instr in program.instrs() {
            if instr.op == Opcode::Sync {
                if let Some(v) = instr.operands.first().and_then(|o| o.as_view()) {
                    let name = program.base(v.reg).name.clone();
                    out.entry(name).or_insert(vm.read(program, v.reg)?);
                }
            }
        }
        Ok(out)
    }

    /// Run `program` with seeded inputs on every leg of [`legs`] and hold
    /// each to the reference leg under `compare`. Returns the reference
    /// leg's synced values, for a suite to check against its own oracle.
    ///
    /// # Panics
    ///
    /// Panics naming the first leg that fails to run, syncs another set
    /// of registers or differs from the reference, and the register.
    pub fn check(program: &Program, seed: u64, compare: Compare) -> BTreeMap<String, Tensor> {
        let run = |leg: Leg| {
            run_synced(program, seed, leg)
                .unwrap_or_else(|e| panic!("{leg} failed: {e}\n{program}"))
        };
        let reference = run(Leg::REFERENCE);
        for &leg in &legs()[1..] {
            let got = run(leg);
            assert!(
                reference.keys().eq(got.keys()),
                "{leg}: synced registers differ from the reference\n{program}"
            );
            for (name, want) in &reference {
                assert!(
                    compare.matches(want, &got[name]),
                    "{leg}: `{name}` differs from {} ({compare:?})\n{program}",
                    Leg::REFERENCE
                );
            }
        }
        reference
    }

    /// Maximum absolute difference between the *float-valued* synced
    /// outputs of two programs under the same seeded inputs, on the
    /// reference leg.
    /// `f64::INFINITY` when the synced register sets disagree, or when an
    /// integer/bool output differs at all — discrete dtypes have no
    /// rounding to forgive, so any mismatch is a divergence regardless of
    /// the caller's tolerance.
    ///
    /// # Panics
    ///
    /// Panics if either program fails to execute (the tests' job is
    /// exactly to catch that).
    pub fn max_divergence(a: &Program, b: &Program, seed: u64) -> f64 {
        let ra = run_synced(a, seed, Leg::REFERENCE).expect("reference program must run");
        let rb = run_synced(b, seed, Leg::REFERENCE).expect("transformed program must run");
        if ra.len() != rb.len() {
            return f64::INFINITY;
        }
        let mut worst: f64 = 0.0;
        for (name, ta) in &ra {
            match rb.get(name) {
                None => return f64::INFINITY,
                Some(tb) if ta.dtype().is_float() && tb.dtype().is_float() => {
                    worst = worst.max(ta.max_abs_diff(tb));
                }
                // Integer/bool outputs (or a float/non-float dtype skew)
                // must match bit-exactly.
                Some(tb) if ta != tb => return f64::INFINITY,
                Some(_) => {}
            }
        }
        worst
    }

    /// Assert two programs are semantically equivalent on seeded inputs.
    /// `tol` forgives rounding on **float** outputs only (use a small
    /// epsilon for programs transformed under fast-math); integer and
    /// bool outputs are always compared bit-exactly, whatever `tol` says.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic when outputs diverge beyond `tol`.
    pub fn assert_equivalent(before: &Program, after: &Program, seed: u64, tol: f64) {
        let d = max_divergence(before, after, seed);
        assert!(
            d <= tol,
            "programs diverge by {d} (tol {tol})\n--- before ---\n{before}\n--- after ---\n{after}"
        );
    }

    /// Per-rule audit counts shared by the [`Audited`] rules of one
    /// optimiser.
    #[derive(Debug, Default)]
    pub struct AuditTally {
        audits: Cell<usize>,
        rollbacks: Cell<usize>,
    }

    impl AuditTally {
        /// Rule applications that changed the program and were audited.
        pub fn audits(&self) -> usize {
            self.audits.get()
        }

        /// Audited applications undone because the auditor could not
        /// prove them equivalent.
        pub fn rollbacks(&self) -> usize {
            self.rollbacks.get()
        }
    }

    /// A rule whose every application is audited: snapshot the program,
    /// apply the wrapped rule, compact, and prove the result equivalent
    /// to the snapshot with [`check_equiv`]. A rewrite the auditor cannot
    /// prove is rolled back (the application reports 0 rewrites) and
    /// counted, and the pipeline continues with the remaining rules. It
    /// names the guilty rule, where the runtime's whole-plan audit only
    /// sees the finished plan.
    pub struct Audited {
        rule: Box<dyn RewriteRule>,
        equiv: EquivOptions,
        tally: Rc<AuditTally>,
    }

    impl fmt::Debug for Audited {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Audited({})", self.rule.name())
        }
    }

    impl Audited {
        /// The standard schedule for `options`, every rule audited under
        /// `options.equiv_options()`, and the tally they share.
        pub fn optimizer(options: OptOptions) -> (Optimizer, Rc<AuditTally>) {
            let rules = standard_rules(options.level);
            Audited::schedule(options, rules)
        }

        /// [`Audited::optimizer`] over a custom rule schedule.
        pub fn schedule(
            options: OptOptions,
            rules: Vec<Box<dyn RewriteRule>>,
        ) -> (Optimizer, Rc<AuditTally>) {
            let tally = Rc::new(AuditTally::default());
            let equiv = options.equiv_options();
            let rules = rules
                .into_iter()
                .map(|rule| {
                    Box::new(Audited {
                        rule,
                        equiv,
                        tally: Rc::clone(&tally),
                    }) as Box<dyn RewriteRule>
                })
                .collect();
            (Optimizer::with_rules(options, rules), tally)
        }

        fn audited(
            &self,
            program: &mut Program,
            apply: impl FnOnce(&dyn RewriteRule, &mut Program) -> usize,
        ) -> usize {
            let snapshot = program.clone();
            let n = apply(self.rule.as_ref(), program);
            if n == 0 {
                return 0;
            }
            program.compact();
            self.tally.audits.set(self.tally.audits() + 1);
            if check_equiv(&snapshot, program, &self.equiv).is_err() {
                *program = snapshot;
                self.tally.rollbacks.set(self.tally.rollbacks() + 1);
                return 0;
            }
            n
        }
    }

    impl RewriteRule for Audited {
        fn name(&self) -> &'static str {
            self.rule.name()
        }

        fn apply(&self, program: &mut Program, ctx: &RewriteCtx) -> usize {
            self.audited(program, |rule, p| rule.apply(p, ctx))
        }

        fn lower(&self, program: &mut Program, ctx: &RewriteCtx) -> usize {
            self.audited(program, |rule, p| rule.lower(p, ctx))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use bh_ir::{parse_program, Instruction, Opcode, Program};
    use bh_opt::{optimize, OptOptions, Optimizer, RewriteCtx, RewriteRule};
    use bh_tensor::Tensor;
    use bh_vm::Engine;

    const LISTING2: &str = "\
BH_IDENTITY a0 [0:10:1] 0
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_SYNC a0 [0:10:1]
";

    #[test]
    fn per_rule_audit_accepts_the_standard_pipeline() {
        let mut audited = parse_program(LISTING2).unwrap();
        let (optimizer, tally) = Audited::optimizer(OptOptions::default());
        optimizer.run(&mut audited);
        assert!(tally.audits() > 0);
        assert_eq!(tally.rollbacks(), 0);
        // The audited run lands on the same plan as the unaudited one.
        let mut plain = parse_program(LISTING2).unwrap();
        optimize(&mut plain);
        assert_eq!(audited, plain);
    }

    /// A rewrite that silently corrupts the program: it "merges" the
    /// constant-add chain by deleting one add without adjusting another.
    #[derive(Debug)]
    struct DropsAnAdd;

    impl RewriteRule for DropsAnAdd {
        fn name(&self) -> &'static str {
            "drops-an-add"
        }

        fn apply(&self, program: &mut Program, _ctx: &RewriteCtx) -> usize {
            let Some(idx) = program.instrs().iter().position(|i| i.op == Opcode::Add) else {
                return 0;
            };
            program.instrs_mut()[idx] = Instruction::noop();
            1
        }
    }

    #[test]
    fn per_rule_audit_rolls_back_an_unsound_rule() {
        let mut p = parse_program(LISTING2).unwrap();
        let (optimizer, tally) =
            Audited::schedule(OptOptions::default(), vec![Box::new(DropsAnAdd)]);
        let report = optimizer.run(&mut p);
        assert!(tally.rollbacks() > 0);
        assert_eq!(report.total_applications(), 0);
        // Rollback restored the program: all three adds survive.
        assert_eq!(p.count_op(Opcode::Add), 3);
        // Without the audit the same rule destroys the plan.
        let mut p2 = parse_program(LISTING2).unwrap();
        Optimizer::with_rules(OptOptions::default(), vec![Box::new(DropsAnAdd)]).run(&mut p2);
        assert!(p2.count_op(Opcode::Add) < 3);
    }

    #[test]
    fn run_synced_collects_only_synced_regs() {
        let p =
            parse_program("BH_IDENTITY a [0:4:1] 1\nBH_IDENTITY b [0:4:1] 2\nBH_SYNC a\n").unwrap();
        let out = run_synced(&p, 1, Leg::REFERENCE).unwrap();
        assert!(out.contains_key("a"));
        assert!(!out.contains_key("b"));
    }

    #[test]
    fn equivalent_listings_pass() {
        let unopt = parse_program(
            "BH_IDENTITY a0 [0:10:1] 0\n\
             BH_ADD a0 a0 1\nBH_ADD a0 a0 1\nBH_ADD a0 a0 1\nBH_SYNC a0\n",
        )
        .unwrap();
        let opt = parse_program("BH_IDENTITY a0 [0:10:1] 0\nBH_ADD a0 a0 3\nBH_SYNC a0\n").unwrap();
        assert_equivalent(&unopt, &opt, 7, 0.0);
    }

    #[test]
    fn divergent_programs_detected() {
        let a = parse_program("BH_IDENTITY a0 [0:4:1] 1\nBH_SYNC a0\n").unwrap();
        let b = parse_program("BH_IDENTITY a0 [0:4:1] 2\nBH_SYNC a0\n").unwrap();
        assert_eq!(max_divergence(&a, &b, 0), 1.0);
    }

    #[test]
    fn integer_outputs_ignore_the_float_tolerance() {
        // A 1-off integer result is a real divergence; no float epsilon
        // may forgive it.
        let a = parse_program(".base n i32[4]\nBH_IDENTITY n 1\nBH_SYNC n\n").unwrap();
        let b = parse_program(".base n i32[4]\nBH_IDENTITY n 2\nBH_SYNC n\n").unwrap();
        assert_eq!(max_divergence(&a, &b, 0), f64::INFINITY);
        // Equal integer outputs still pass at tol 0.
        assert_equivalent(&a, &a, 0, 0.0);
    }

    #[test]
    fn inputs_are_deterministic_per_seed() {
        let p = parse_program(".base x f64[8] input\nBH_SYNC x\n").unwrap();
        let a = run_synced(&p, 3, Leg::REFERENCE).unwrap();
        let b = run_synced(&p, 3, Leg::REFERENCE).unwrap();
        assert_eq!(a["x"], b["x"]);
        let c = run_synced(&p, 4, Leg::REFERENCE).unwrap();
        assert_ne!(a["x"], c["x"]);
    }

    #[test]
    fn bits_match_any_nan_but_not_a_zero_of_the_other_sign() {
        let quiet = Tensor::from_vec(vec![f64::NAN, 1.0]);
        let other_nan = Tensor::from_vec(vec![-f64::NAN, 1.0]);
        assert!(Compare::Bits.matches(&quiet, &other_nan));
        assert!(!Compare::Equal.matches(&quiet, &quiet));
        let (neg, pos) = (
            Tensor::from_vec(vec![-0.0f32]),
            Tensor::from_vec(vec![0.0f32]),
        );
        assert!(!Compare::Bits.matches(&neg, &pos));
        assert!(Compare::Equal.matches(&neg, &pos));
    }

    #[test]
    fn within_forgives_floats_only() {
        let (a, b) = (
            Tensor::from_vec(vec![1.0f64]),
            Tensor::from_vec(vec![1.75f64]),
        );
        assert!(Compare::Within(1.0).matches(&a, &b));
        assert!(!Compare::Within(0.5).matches(&a, &b));
        let (i, j) = (Tensor::from_vec(vec![1i32]), Tensor::from_vec(vec![2i32]));
        assert!(!Compare::Within(1.0).matches(&i, &j));
    }

    #[test]
    fn legs_cover_every_engine_serial_and_sharded_and_threads_one_to_four() {
        let legs = legs();
        assert_eq!((legs[0].engine, legs[0].threads), (Engine::Naive, 1));
        assert!(legs.len() <= 8);
        for block in [None, Some(3), Some(512), Some(4096)] {
            let engine = block.map_or(Engine::Naive, |block| Engine::Fusing { block });
            let threads = legs
                .iter()
                .filter(|l| l.engine == engine)
                .map(|l| l.threads);
            assert!(threads.clone().any(|t| t == 1), "{engine:?} serial");
            assert!(threads.clone().any(|t| t >= 2), "{engine:?} sharded");
        }
        for t in 1..=4 {
            assert!(legs.iter().any(|l| l.threads == t), "{t} threads");
        }
    }
}
