//! Property-based soundness tests: for randomly generated byte-code
//! programs, optimisation at any level must preserve the synced results
//! (exactly for integer data; within a small tolerance for float data
//! transformed under fast-math). This is DESIGN.md §6's headline invariant.

use bohrium_repro::ir::{check_equiv, parse_program, Program};
use bohrium_repro::opt::{optimize_at, OptLevel, OptOptions, Optimizer};
use bohrium_repro::runtime::Runtime;
use bohrium_repro::testing::{assert_equivalent, check, legs, max_divergence, run_synced, Compare};
use bohrium_repro::vm::{ExecStats, VmError};
use common::gen::{arb_affine_run, arb_program, arb_sliced_program};
use proptest::prelude::*;

mod common;

/// Every leg of the test matrix computes what the reference leg does.
fn check_text(text: &str, seed: u64, compare: Compare) {
    check(
        &parse_program(text).expect("generated text parses"),
        seed,
        compare,
    );
}

/// O2 folds an in-place affine run to at most `r = r·α; r = r + β`, equal
/// to O0 element for element on every leg (bit for bit, but for the
/// sign of a zero, which fast-math does not keep), and the auditor
/// proves it.
fn check_affine_run(text: &str, head_instrs: usize) {
    let source = parse_program(text).expect("generated text parses");
    let mut plan = source.clone();
    let options = OptOptions::default();
    Optimizer::new(options.clone()).run(&mut plan);
    assert!(
        plan.live_len() <= head_instrs + 3,
        "the run did not fold:\n{source}\n--- plan ---\n{plan}"
    );
    if let Err(errors) = check_equiv(&source, &plan, &options.equiv_options()) {
        panic!("{errors:?}\n--- source ---\n{source}\n--- plan ---\n{plan}");
    }
    for &leg in legs() {
        let want = run_synced(&source, 41, leg).expect("runs");
        let got = run_synced(&plan, 41, leg).expect("runs");
        assert_eq!(
            want, got,
            "{leg}\n--- source ---\n{source}\n--- plan ---\n{plan}"
        );
    }
}

fn check_levels(text: &str, tol: f64) {
    let reference: Program = parse_program(text).expect("generated text parses");
    for level in [OptLevel::O1, OptLevel::O2] {
        let mut transformed = reference.clone();
        optimize_at(&mut transformed, level);
        for seed in [1u64, 2, 3] {
            let d = max_divergence(&reference, &transformed, seed);
            assert!(
                d <= tol,
                "level {level:?} seed {seed} diverged by {d}\n--- before ---\n{reference}\n--- after ---\n{transformed}"
            );
        }
    }
}

/// The thread-count-invariant subset of [`ExecStats`]: everything except
/// the shard counts, which legitimately scale with workers.
fn analytic(exec: &ExecStats) -> [u64; 8] {
    [
        exec.instructions,
        exec.kernels,
        exec.fused_groups,
        exec.fused_reductions,
        exec.elements_written,
        exec.bytes_read,
        exec.bytes_written,
        exec.flops,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn integer_programs_transform_exactly(text in arb_program("i64", 12, false)) {
        check_levels(&text, 0.0);
    }

    #[test]
    fn float_programs_transform_within_tolerance(text in arb_program("f64", 12, false)) {
        // fast-math re-association on small integer-valued constants stays
        // exact in practice; allow a tiny epsilon for merged constants.
        check_levels(&text, 1e-9);
    }

    #[test]
    fn fused_engine_matches_naive_on_random_programs(text in arb_program("f64", 10, false)) {
        check_text(&text, 11, Compare::Bits);
    }

    // Thread count must never change results: every engine at every
    // thread count produces the reference's buffers on random programs.
    #[test]
    fn thread_count_never_changes_results(text in arb_program("i64", 12, false)) {
        check_text(&text, 29, Compare::Equal);
    }

    #[test]
    fn sliced_views_agree_across_engines_and_threads_on_integers(
        text in arb_sliced_program("i64", 14)
    ) {
        check_text(&text, 37, Compare::Equal);
    }

    #[test]
    fn sliced_views_agree_across_engines_and_threads_on_floats(
        text in arb_sliced_program("f64", 14)
    ) {
        check_text(&text, 37, Compare::Equal);
    }

    // Equal, not approximately equal: sharding never re-associates, so
    // floats match exactly too.
    #[test]
    fn thread_count_never_changes_float_results(text in arb_program("f64", 10, false)) {
        check_text(&text, 31, Compare::Equal);
    }

    // Through the whole runtime (digest → cache → optimise → verify →
    // VM): an unoptimised `O0` runtime and a default one return the same
    // bits on every leg, and for a given engine and level the analytic
    // `ExecStats` do not depend on the thread count.
    #[test]
    fn runtime_levels_agree_on_every_engine_and_thread_count(
        text in arb_program("i64", 12, false)
    ) {
        let p = parse_program(&text).expect("generated text parses");
        let regs = ["r0", "r1", "r2"].map(|name| p.reg_by_name(name).unwrap());
        let mut reference = None;
        let mut per_engine = Vec::new();
        for &leg in legs() {
            for level in [OptLevel::O0, OptLevel::O2] {
                let rt = Runtime::builder()
                    .opt_level(level)
                    .engine(leg.engine)
                    .threads(leg.threads)
                    .build();
                let mut values = Vec::new();
                let mut analytics = Vec::new();
                for reg in regs {
                    let (v, o) = rt.eval(&p, &[], reg).expect("verified program runs");
                    values.push(v);
                    analytics.push(analytic(&o.exec));
                }
                let reference = reference.get_or_insert_with(|| values.clone());
                prop_assert_eq!(&values, reference, "{:?} on {} diverged", level, leg);
                match per_engine.iter().find(|(e, l, _)| *e == leg.engine && *l == level) {
                    Some((_, _, base)) => prop_assert_eq!(
                        &analytics, base,
                        "analytic ExecStats of {:?} at {:?} drifted on {}",
                        leg.engine, level, leg
                    ),
                    None => per_engine.push((leg.engine, level, analytics)),
                }
            }
        }
    }

    #[test]
    fn power_expansion_equivalence_over_exponents(n in 0u64..40, elems in 1usize..64) {
        let text = format!(
            ".base x f64[{elems}] input\n.base y f64[{elems}]\n\
             BH_POWER y x {n}\nBH_SYNC y\n"
        );
        let reference = parse_program(&text).expect("parses");
        let mut transformed = reference.clone();
        optimize_at(&mut transformed, OptLevel::O2);
        // Inputs are in [1, 2): x^40 < 2^40 stays comfortably exact-ish in
        // f64; chains and powf agree to relative 1e-12.
        let d = max_divergence(&reference, &transformed, n ^ 0xABCD);
        let bound = 1e-12 * 2f64.powi(n as i32 + 1).max(1.0);
        prop_assert!(d <= bound, "exponent {} diverged by {}", n, d);
    }

    #[test]
    fn integer_power_expansion_is_exact(n in 0u64..16, elems in 1usize..32) {
        let text = format!(
            ".base x i64[{elems}] input\n.base y i64[{elems}]\n\
             BH_POWER y x {n}\nBH_SYNC y\n"
        );
        let reference = parse_program(&text).expect("parses");
        let mut transformed = reference.clone();
        optimize_at(&mut transformed, OptLevel::O2);
        // Wrapping multiplication is associative mod 2^64: exact match even
        // when x^n overflows.
        prop_assert_eq!(max_divergence(&reference, &transformed, n), 0.0);
    }

    #[test]
    fn affine_runs_fold_exactly_on_wrapping_integers(text in arb_affine_run("i64", " input")) {
        check_affine_run(&text, 0);
    }

    #[test]
    fn affine_runs_fold_exactly_on_dyadic_floats(text in arb_affine_run("f64", "\nBH_RANGE r")) {
        check_affine_run(&text, 1);
    }

    #[test]
    fn strict_math_never_touches_float_results(text in arb_program("f64", 10, false)) {
        let reference = parse_program(&text).expect("parses");
        let mut transformed = reference.clone();
        Optimizer::new(OptOptions::default().strict_math()).run(&mut transformed);
        prop_assert_eq!(max_divergence(&reference, &transformed, 5), 0.0);
    }
}

#[test]
fn a_shifted_overlapping_self_alias_never_reaches_an_engine() {
    // `r[1:n] = r[0:n-1] + 1` in place reads elements it is writing: the
    // verifier rejects it (V500), so neither engine ever executes it and
    // the sliced-view strategy spells the shift through a copy.
    let p = parse_program(".base r f64[16]\nBH_RANGE r\nBH_ADD r[1:16:1] r[0:15:1] 1\nBH_SYNC r\n")
        .expect("parses");
    for &leg in legs() {
        match run_synced(&p, 1, leg) {
            Err(VmError::Invalid(errors)) => {
                assert!(
                    errors.iter().any(|e| e.code.as_str() == "V500"),
                    "{errors:?}"
                );
            }
            other => panic!("{leg} ran an aliasing program: {other:?}"),
        }
    }
}

#[test]
fn constant_merge_soundness_on_mixed_chain() {
    // Regression-style fixed case: adds and subtracts interleaved.
    let text = "\
.base v f64[32] input
BH_ADD v v 1
BH_ADD v v 2
BH_SUBTRACT v v 3
BH_SUBTRACT v v 4
BH_ADD v v 5
BH_SYNC v
";
    let reference = parse_program(text).unwrap();
    let mut transformed = reference.clone();
    optimize_at(&mut transformed, OptLevel::O2);
    assert!(transformed.live_len() < reference.live_len());
    assert_equivalent(&reference, &transformed, 17, 1e-9);
}

#[test]
fn dce_never_changes_synced_outputs() {
    let text = "\
.base a f64[8] input
.base junk1 f64[8]
.base junk2 f64[8]
BH_MULTIPLY junk1 a a
BH_ADD junk2 junk1 1
BH_ADD a a 1
BH_SYNC a
";
    let reference = parse_program(text).unwrap();
    let mut transformed = reference.clone();
    optimize_at(&mut transformed, OptLevel::O1);
    assert!(transformed.live_len() <= 2 + 1, "{transformed}");
    assert_equivalent(&reference, &transformed, 23, 0.0);
}

#[test]
fn cse_and_copyprop_soundness() {
    let text = "\
.base a f64[16] input
.base x f64[16]
.base y f64[16]
.base z f64[16]
BH_MULTIPLY x a a
BH_MULTIPLY y a a
BH_ADD z x y
BH_SYNC z
";
    let reference = parse_program(text).unwrap();
    let mut transformed = reference.clone();
    optimize_at(&mut transformed, OptLevel::O2);
    // x·x computed once, copy propagated, z = x + x.
    assert!(transformed.count_op(bohrium_repro::ir::Opcode::Multiply) <= 1);
    assert_equivalent(&reference, &transformed, 31, 0.0);
}
