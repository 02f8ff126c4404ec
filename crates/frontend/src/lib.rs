//! # bh-frontend — lazy NumPy-flavoured front-end
//!
//! The "programmer only has to change the import from numpy to bohrium"
//! half of the paper: a NumPy-like array API whose operations record
//! descriptive vector byte-code (`bh-ir`) instead of computing. On
//! evaluation the recorded sequence is handed to a [`Runtime`]
//! (`bh-runtime`) that algebraically transforms it (`bh-opt`) — serving
//! already-seen traces from its transformation cache — and executes it
//! (`bh-vm`). Unchanged high-productivity code gets the optimised
//! byte-code of Listings 3 and 5 automatically, and repeated traffic pays
//! for the transformation only once.
//!
//! # Example — the paper's Listing 1
//!
//! ```
//! use bh_frontend::Context;
//! use bh_ir::PrintStyle;
//! use bh_tensor::{DType, Shape};
//!
//! let ctx = Context::new();
//! let mut a = ctx.zeros(DType::Float64, Shape::vector(10)); // np.zeros(10)
//! a += 1.0;
//! a += 1.0;
//! a += 1.0;
//!
//! // The recorded byte-code is exactly the paper's Listing 2:
//! let text = ctx.recorded_text(PrintStyle::LISTING);
//! assert!(text.contains("BH_ADD a0 [0:10:1] a0 [0:10:1] 1.0"));
//!
//! // ... and evaluation optimises it to Listing 3 before running.
//! let (t, outcome) = a.eval_outcome()?;
//! assert_eq!(t.to_f64_vec(), vec![3.0; 10]);
//! assert!(outcome.report().total_applications() >= 2); // the merged adds
//!
//! // Evaluating the same trace again skips the rewrite fixpoint.
//! let (_, again) = a.eval_outcome()?;
//! assert!(again.cache_hit);
//! # Ok::<(), bh_vm::VmError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod context;
mod ops;

pub use array::BhArray;
pub use context::Context;
// The runtime types a front-end user configures and inspects.
pub use bh_runtime::{EvalOutcome, EvalPlan, Runtime, RuntimeBuilder, RuntimeStats};

/// One-line import surface for front-end users.
///
/// `use bh_frontend::prelude::*;` brings in everything a typical
/// recording session touches: the [`Context`]/[`BhArray`] pair, the
/// runtime types you configure and inspect ([`Runtime`],
/// [`RuntimeBuilder`], [`EvalOutcome`], [`RuntimeStats`]), the digest
/// type that keys the transformation cache
/// ([`ProgramDigest`](bh_ir::ProgramDigest)), and the tensor
/// vocabulary (`DType`, `Shape`, `Scalar`, `Tensor`).
///
/// ```
/// use bh_frontend::prelude::*;
///
/// let rt = Runtime::builder().build_shared();
/// let ctx = Context::with_runtime(rt.clone());
/// let mut a = ctx.zeros(DType::Float64, Shape::vector(4));
/// a += 2.0;
/// let (t, outcome): (Tensor, EvalOutcome) = a.eval_outcome()?;
/// assert_eq!(t.to_f64_vec(), vec![2.0; 4]);
/// // The structural digest of the optimised plan that executed; the
/// // cache key is the *source* digest, fingerprinted on the outcome.
/// let digest: ProgramDigest = outcome.plan.program.structural_digest();
/// println!("plan {digest} served source {:016x}", outcome.plan.source_fingerprint);
/// assert_eq!(rt.stats().evals, 1);
/// # Ok::<(), bh_vm::VmError>(())
/// ```
pub mod prelude {
    pub use crate::{BhArray, Context};
    pub use bh_ir::ProgramDigest;
    pub use bh_runtime::{EvalOutcome, EvalPlan, Runtime, RuntimeBuilder, RuntimeStats};
    pub use bh_tensor::{DType, Scalar, Shape, Tensor};
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::PrintStyle;
    use bh_tensor::{DType, Scalar, Shape, Tensor};

    fn f64s(t: &Tensor) -> Vec<f64> {
        t.to_f64_vec()
    }

    #[test]
    fn listing1_records_listing2_and_computes_threes() {
        let ctx = Context::new();
        let mut a = ctx.zeros(DType::Float64, Shape::vector(10));
        a += 1.0;
        a += 1.0;
        a += 1.0;
        let text = ctx.recorded_text(PrintStyle::LISTING);
        let expected = "\
BH_IDENTITY a0 [0:10:1] 0.0
BH_ADD a0 [0:10:1] a0 [0:10:1] 1.0
BH_ADD a0 [0:10:1] a0 [0:10:1] 1.0
BH_ADD a0 [0:10:1] a0 [0:10:1] 1.0
";
        assert_eq!(text, expected);
        let (t, outcome) = a.eval_outcome().unwrap();
        assert_eq!(f64s(&t), vec![3.0; 10]);
        // Optimisation merged the adds.
        assert!(
            outcome.exec.kernels <= 2,
            "kernels: {}",
            outcome.exec.kernels
        );
    }

    #[test]
    fn expression_graph_evaluates() {
        let ctx = Context::new();
        let x = ctx.arange(DType::Float64, 4);
        let y = (&x * &x) + (&x * 2.0) + 1.0; // (x+1)^2
        assert_eq!(f64s(&y.eval().unwrap()), vec![1.0, 4.0, 9.0, 16.0]);
    }

    #[test]
    fn powi_expands_and_matches() {
        let ctx = Context::new();
        let x = ctx.full(DType::Float64, Shape::vector(8), Scalar::F64(2.0));
        let y = x.powi(10);
        let (t, outcome) = y.eval_outcome().unwrap();
        assert_eq!(f64s(&t), vec![1024.0; 8]);
        // Expansion: no BH_POWER survived in the optimised program.
        let fired: Vec<&str> = outcome
            .report()
            .by_rule
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(name, _)| *name)
            .collect();
        assert!(fired.contains(&"power-expansion"), "{fired:?}");
    }

    #[test]
    fn solve_via_inverse_gets_rewritten() {
        let ctx = Context::new();
        let a = ctx.array(
            Tensor::from_shape_vec(Shape::matrix(2, 2), vec![2.0f64, 1.0, 1.0, 3.0]).unwrap(),
        );
        let b = ctx.array(Tensor::from_vec(vec![3.0f64, 5.0]));
        // The "textbook" formulation: x = A^-1 · B.
        let x = a.inv().matmul(&b);
        let (t, outcome) = x.eval_outcome().unwrap();
        assert!((t.to_f64_vec()[0] - 0.8).abs() < 1e-12);
        assert!((t.to_f64_vec()[1] - 1.4).abs() < 1e-12);
        let solved = outcome
            .report()
            .by_rule
            .iter()
            .any(|(name, n)| *name == "inverse-solve" && *n > 0);
        assert!(solved, "{}", outcome.report());
    }

    #[test]
    fn mixed_dtypes_promote() {
        let ctx = Context::new();
        let ints = ctx.arange(DType::Int32, 4);
        let floats = ctx.ones(DType::Float64, Shape::vector(4));
        let sum = &ints + &floats;
        assert_eq!(sum.dtype(), DType::Float64);
        assert_eq!(f64s(&sum.eval().unwrap()), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn comparisons_yield_bools() {
        let ctx = Context::new();
        let x = ctx.arange(DType::Float64, 5);
        let m = x.gt_scalar(Scalar::F64(2.0));
        assert_eq!(m.dtype(), DType::Bool);
        assert_eq!(f64s(&m.eval().unwrap()), vec![0.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn reductions_and_scans() {
        let ctx = Context::new();
        let x = ctx.arange(DType::Float64, 6);
        assert_eq!(f64s(&x.sum().eval().unwrap()), vec![15.0]);
        assert_eq!(
            f64s(&x.cumsum_axis(0).eval().unwrap()),
            vec![0.0, 1.0, 3.0, 6.0, 10.0, 15.0]
        );
        assert_eq!(f64s(&x.max().eval().unwrap()), vec![5.0]);
    }

    #[test]
    fn random_is_reproducible() {
        let ctx = Context::new();
        let r1 = ctx.random(DType::Float64, Shape::vector(16), 42);
        let r2 = ctx.random(DType::Float64, Shape::vector(16), 42);
        assert_eq!(f64s(&r1.eval().unwrap()), f64s(&r2.eval().unwrap()));
    }

    #[test]
    fn scalar_on_the_left() {
        let ctx = Context::new();
        let x = ctx.ones(DType::Float64, Shape::vector(3));
        let y = 10.0 - &x;
        assert_eq!(f64s(&y.eval().unwrap()), vec![9.0; 3]);
        let z = 2.0 * &x;
        assert_eq!(f64s(&z.eval().unwrap()), vec![2.0; 3]);
    }

    #[test]
    fn negation() {
        let ctx = Context::new();
        let x = ctx.arange(DType::Float64, 3);
        assert_eq!(f64s(&(-&x).eval().unwrap()), vec![0.0, -1.0, -2.0]);
    }

    #[test]
    fn repeated_eval_is_stable() {
        let ctx = Context::new();
        let mut a = ctx.zeros(DType::Float64, Shape::vector(4));
        a += 5.0;
        assert_eq!(f64s(&a.eval().unwrap()), vec![5.0; 4]);
        assert_eq!(f64s(&a.eval().unwrap()), vec![5.0; 4]);
        a += 1.0;
        assert_eq!(f64s(&a.eval().unwrap()), vec![6.0; 4]);
    }

    #[test]
    fn dropped_temporaries_record_frees() {
        let ctx = Context::new();
        let x = ctx.ones(DType::Float64, Shape::vector(4));
        {
            let _tmp = &x + 1.0;
        }
        let text = ctx.recorded_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_FREE"), "{text}");
        // Evaluation still works; the freed temp is dead code.
        assert_eq!(f64s(&x.eval().unwrap()), vec![1.0; 4]);
    }

    #[test]
    fn matmul_and_transpose() {
        let ctx = Context::new();
        let a = ctx.array(
            Tensor::from_shape_vec(Shape::matrix(2, 3), vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0])
                .unwrap(),
        );
        let at = a.transpose();
        let g = a.matmul(&at); // 2x2 Gram matrix
        let t = g.eval().unwrap();
        assert_eq!(t.shape(), &Shape::matrix(2, 2));
        assert_eq!(t.get(&[0, 0]).unwrap().as_f64(), 14.0);
        assert_eq!(t.get(&[1, 1]).unwrap().as_f64(), 77.0);
    }

    #[test]
    fn fused_engine_through_frontend() {
        let rt = Runtime::builder()
            .engine(bh_vm::Engine::Fusing { block: 256 })
            .build_shared();
        let ctx = Context::with_runtime(rt);
        let x = ctx.arange(DType::Float64, 1000);
        let y = ((&x * 2.0) + 3.0).sqrt();
        let (t, outcome) = y.eval_outcome().unwrap();
        assert!((t.to_f64_vec()[499] - (2.0f64 * 499.0 + 3.0).sqrt()).abs() < 1e-12);
        assert!(outcome.exec.fused_groups >= 1);
    }

    #[test]
    fn contexts_sharing_a_runtime_share_cache_and_stats() {
        let rt = Runtime::builder().build_shared();
        let record = |seed: f64| {
            let ctx = Context::with_runtime(rt.clone());
            let mut a = ctx.zeros(DType::Float64, Shape::vector(16));
            a += seed;
            a += seed;
            a
        };
        let a = record(2.0);
        let b = record(2.0);
        let (ta, oa) = a.eval_outcome().unwrap();
        let (tb, ob) = b.eval_outcome().unwrap();
        assert_eq!(f64s(&ta), f64s(&tb));
        // Identical structure from a *different* context: cache hit.
        assert!(!oa.cache_hit);
        assert!(ob.cache_hit);
        // ... and the stats snapshot aggregates both contexts' evals.
        let stats = rt.stats();
        assert_eq!(stats.evals, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        // A different constant is a different structure → distinct entry.
        let c = record(3.0);
        let (_, oc) = c.eval_outcome().unwrap();
        assert!(!oc.cache_hit);
    }

    #[test]
    fn repeated_eval_is_a_cache_hit() {
        let ctx = Context::new();
        let mut a = ctx.zeros(DType::Float64, Shape::vector(8));
        a += 1.0;
        let (_, first) = a.eval_outcome().unwrap();
        let (_, second) = a.eval_outcome().unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit, "unchanged recording must re-use its plan");
        // Recording more byte-code invalidates nothing — it's a new key.
        a += 1.0;
        let (t, third) = a.eval_outcome().unwrap();
        assert_eq!(f64s(&t), vec![2.0; 8]);
        assert!(!third.cache_hit);
    }

    #[test]
    fn outcome_api_covers_report_and_exec_counters() {
        // The modern shape of what the old per-context engine setter and
        // `last_report`/`last_stats` used to do: configure the runtime up
        // front, read everything off the returned (or latest) outcome.
        let rt = Runtime::builder()
            .engine(bh_vm::Engine::Fusing { block: 64 })
            .threads(2)
            .cache_capacity(7)
            .build_shared();
        let ctx = Context::with_runtime(rt);
        let x = ctx.arange(DType::Float64, 512);
        let y = (&x + 1.0) * 2.0;
        let (t, outcome) = y.eval_outcome().unwrap();
        assert_eq!(f64s(&t)[0], 2.0);
        assert!(outcome.report().total_applications() < 100);
        assert!(outcome.exec.fused_groups >= 1, "{}", outcome.exec);
        // `last_outcome` repeats the same information for late readers.
        let last = ctx.last_outcome().unwrap();
        assert_eq!(last.exec, outcome.exec);
    }

    #[test]
    fn runtime_first_configuration_round_trips() {
        // The graduated configuration surface: everything the old
        // per-context engine, thread and options shims mutated is now
        // fixed at `Runtime::builder()` time and visible via accessors.
        let rt = Runtime::builder()
            .engine(bh_vm::Engine::Fusing { block: 64 })
            .threads(2)
            .cache_capacity(7)
            .build_shared();
        let ctx = Context::with_runtime(rt);
        assert_eq!(ctx.runtime().engine(), bh_vm::Engine::Fusing { block: 64 });
        assert_eq!(ctx.runtime().threads(), 2);
        assert_eq!(ctx.runtime().cache_capacity(), 7);
        let x = ctx.arange(DType::Float64, 16);
        assert_eq!(f64s(&(&x + 1.0).eval().unwrap())[0], 1.0);
        // Report and exec counters read off the outcome, not the context.
        let outcome = ctx.last_outcome().expect("an eval happened");
        assert!(outcome.report().total_applications() < 100);
        assert!(outcome.exec.kernels >= 1, "{}", outcome.exec);
    }

    #[test]
    fn flush_executes_everything_recorded() {
        let ctx = Context::new();
        let a = ctx.ones(DType::Float64, Shape::vector(4));
        let b = &a + 1.0;
        let outcome = ctx.flush().unwrap();
        assert!(outcome.exec.kernels >= 1);
        // Live registers were treated as observable, not dead-code.
        assert_eq!(f64s(&b.eval().unwrap()), vec![2.0; 4]);
    }

    #[test]
    fn in_place_array_update() {
        let ctx = Context::new();
        let mut acc = ctx.zeros(DType::Float64, Shape::vector(4));
        let inc = ctx.ones(DType::Float64, Shape::vector(4));
        acc += &inc;
        acc += &inc;
        assert_eq!(f64s(&acc.eval().unwrap()), vec![2.0; 4]);
    }

    #[test]
    fn astype_round_trip() {
        let ctx = Context::new();
        let x = ctx.arange(DType::Int64, 4);
        let f = x.astype(DType::Float32);
        assert_eq!(f.dtype(), DType::Float32);
        assert_eq!(f64s(&f.eval().unwrap()), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn unary_math_methods() {
        let ctx = Context::new();
        let x = ctx.full(DType::Float64, Shape::vector(3), Scalar::F64(4.0));
        assert_eq!(f64s(&x.sqrt().eval().unwrap()), vec![2.0; 3]);
        assert_eq!(f64s(&x.sign().eval().unwrap()), vec![1.0; 3]);
        let y = ctx.full(DType::Float64, Shape::vector(3), Scalar::F64(-1.5));
        assert_eq!(f64s(&y.abs().eval().unwrap()), vec![1.5; 3]);
        assert_eq!(f64s(&y.floor().eval().unwrap()), vec![-2.0; 3]);
    }
}
