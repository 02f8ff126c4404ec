//! Integration tests for the `bh-runtime` transformation cache: the
//! acceptance surface of the unified Session API. One `Runtime` shared by
//! many contexts/threads must optimise each distinct byte-code structure
//! exactly once, serve repeats from the cache with identical results, and
//! aggregate statistics across every user.

use bohrium_repro::frontend::Context;
use bohrium_repro::ir::parse_program;
use bohrium_repro::opt::OptLevel;
use bohrium_repro::runtime::Runtime;
use bohrium_repro::tensor::{DType, Shape, Tensor};
use std::sync::Arc;

fn add_chain(n: usize, k: usize, constant: f64) -> bohrium_repro::ir::Program {
    let mut text = format!("BH_IDENTITY a0 [0:{n}:1] 0\n");
    for _ in 0..k {
        text.push_str(&format!("BH_ADD a0 a0 {constant}\n"));
    }
    text.push_str("BH_SYNC a0\n");
    parse_program(&text).expect("generated program parses")
}

#[test]
fn same_sequence_twice_optimises_once_with_identical_results() {
    let rt = Runtime::new();
    let p = add_chain(64, 3, 1.0);
    let reg = p.reg_by_name("a0").unwrap();

    let (v1, o1) = rt.eval(&p, &[], reg).unwrap();
    let (v2, o2) = rt.eval(&p, &[], reg).unwrap();

    assert_eq!(v1, v2, "cached plan must produce identical results");
    assert!(!o1.cache_hit);
    assert!(o2.cache_hit, "second eval of the same trace must hit");

    // The fixpoint ran exactly once: rules_fired froze at the first
    // eval's count and the miss counter never moved again.
    let stats = rt.stats();
    assert_eq!(stats.evals, 2);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(
        stats.rules_fired,
        o1.report().total_applications() as u64,
        "no rewrite work after the first optimisation"
    );
}

#[test]
fn differing_constants_shapes_and_levels_get_distinct_keys() {
    let rt = Runtime::new();
    let base = add_chain(64, 3, 1.0);
    let reg = base.reg_by_name("a0").unwrap();
    rt.eval(&base, &[], reg).unwrap();
    assert_eq!(rt.cached_plans(), 1);

    // Different constant → different structure → new entry.
    let other_const = add_chain(64, 3, 2.0);
    let (_, o) = rt.eval(&other_const, &[], reg).unwrap();
    assert!(!o.cache_hit);
    assert_eq!(rt.cached_plans(), 2);

    // Different shape → new entry.
    let other_shape = add_chain(128, 3, 1.0);
    let (_, o) = rt.eval(&other_shape, &[], reg).unwrap();
    assert!(!o.cache_hit);
    assert_eq!(rt.cached_plans(), 3);

    // Same program under a different level → a runtime of its own, which
    // builds its own plan ...
    let o0 = Runtime::builder().opt_level(OptLevel::O0).build();
    let (_, o) = o0.eval(&base, &[], reg).unwrap();
    assert!(!o.cache_hit);
    assert_eq!(o0.cached_plans(), 1);

    // ... while the original is still served from the first one's cache.
    let (_, o) = rt.eval(&base, &[], reg).unwrap();
    assert!(o.cache_hit);
    assert_eq!(rt.cached_plans(), 3);
}

#[test]
fn renamed_registers_are_the_same_key() {
    let rt = Runtime::new();
    let a = parse_program("BH_IDENTITY v [0:8:1] 5\nBH_ADD v v 1\nBH_SYNC v\n").unwrap();
    let b = parse_program("BH_IDENTITY w [0:8:1] 5\nBH_ADD w w 1\nBH_SYNC w\n").unwrap();
    rt.eval(&a, &[], a.reg_by_name("v").unwrap()).unwrap();
    let (t, o) = rt.eval(&b, &[], b.reg_by_name("w").unwrap()).unwrap();
    assert!(o.cache_hit, "register names must not partition the cache");
    assert_eq!(t.to_f64_vec(), vec![6.0; 8]);
}

#[test]
fn concurrent_evals_on_one_runtime_stay_correct() {
    let rt = Runtime::builder().build_shared();
    let threads = 8;
    let iterations = 25;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                // Each thread alternates between a shared structure (cache
                // contention) and a thread-distinct one (cache growth).
                let shared = add_chain(100, 4, 1.0);
                let own = add_chain(100, 4, 2.0 + t as f64);
                let shared_reg = shared.reg_by_name("a0").unwrap();
                let own_reg = own.reg_by_name("a0").unwrap();
                for _ in 0..iterations {
                    let (v, _) = rt.eval(&shared, &[], shared_reg).unwrap();
                    assert_eq!(v.to_f64_vec(), vec![4.0; 100]);
                    let (v, _) = rt.eval(&own, &[], own_reg).unwrap();
                    assert_eq!(v.to_f64_vec(), vec![4.0 * (2.0 + t as f64); 100]);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = rt.stats();
    assert_eq!(stats.evals, (threads * iterations * 2) as u64);
    // 9 distinct structures; racing first-misses may duplicate a few
    // optimisations, but the steady state must be hits.
    assert!(
        stats.cache_hits >= stats.evals - 9 - (threads as u64),
        "expected mostly hits, got {stats}"
    );
}

#[test]
fn two_contexts_sharing_a_runtime_combine_stats() {
    let rt = Runtime::builder().build_shared();
    let ctx1 = Context::with_runtime(Arc::clone(&rt));
    let ctx2 = Context::with_runtime(Arc::clone(&rt));

    let mut a = ctx1.zeros(DType::Float64, Shape::vector(32));
    a += 1.0;
    a += 1.0;
    let mut b = ctx2.zeros(DType::Float64, Shape::vector(32));
    b += 1.0;
    b += 1.0;

    let (ta, oa) = a.eval_outcome().unwrap();
    let (tb, ob) = b.eval_outcome().unwrap();
    assert_eq!(ta, tb);
    assert!(!oa.cache_hit);
    assert!(
        ob.cache_hit,
        "ctx2 recorded the same trace ctx1 already paid for"
    );

    // One combined snapshot covers both contexts.
    let stats = rt.stats();
    assert_eq!(stats.evals, 2);
    assert_eq!(stats.cache_hits + stats.cache_misses, 2);
    assert_eq!(stats.exec.syncs, 2);
    assert!(stats.exec.kernels > 0);
}

#[test]
fn bound_inputs_are_not_part_of_the_key() {
    // Serving scenario: same traced computation, different request data.
    let rt = Runtime::new();
    let p = parse_program(".base x f64[4] input\n.base y f64[4]\nBH_MULTIPLY y x x\nBH_SYNC y\n")
        .unwrap();
    let x = p.reg_by_name("x").unwrap();
    let y = p.reg_by_name("y").unwrap();
    for (i, input) in [vec![1.0f64, 2.0, 3.0, 4.0], vec![5.0f64, 6.0, 7.0, 8.0]]
        .into_iter()
        .enumerate()
    {
        let expected: Vec<f64> = input.iter().map(|v| v * v).collect();
        let (v, o) = rt.eval(&p, &[(x, Tensor::from_vec(input))], y).unwrap();
        assert_eq!(v.to_f64_vec(), expected);
        assert_eq!(o.cache_hit, i > 0, "plan cached, data fresh");
    }
    assert_eq!(rt.cached_plans(), 1);
}

#[test]
fn cache_capacity_zero_disables_reuse_but_not_correctness() {
    let rt = Runtime::builder().cache_capacity(0).build();
    let p = add_chain(32, 3, 1.0);
    let reg = p.reg_by_name("a0").unwrap();
    let (v1, o1) = rt.eval(&p, &[], reg).unwrap();
    let (v2, o2) = rt.eval(&p, &[], reg).unwrap();
    assert_eq!(v1, v2);
    assert!(!o1.cache_hit && !o2.cache_hit);
    assert_eq!(rt.stats().cache_misses, 2);
}
