//! Property-based soundness tests: for randomly generated byte-code
//! programs, optimisation at any level must preserve the synced results
//! (exactly for integer data; within a small tolerance for float data
//! transformed under fast-math). This is DESIGN.md §6's headline invariant.

use bohrium_repro::ir::{check_equiv, parse_program, Program};
use bohrium_repro::opt::{optimize_at, OptLevel, OptOptions, Optimizer};
use bohrium_repro::runtime::Runtime;
use bohrium_repro::testing::{
    assert_equivalent, max_divergence, run_synced, run_synced_threads, test_threads,
};
use bohrium_repro::vm::{Engine, ExecStats, VmError};
use proptest::prelude::*;
use proptest::strategy::Union;

/// Strategy: a random element-wise program over three same-shape f64/i64
/// registers, written in the textual format (so the test corpus also
/// exercises the parser).
fn arb_program(dtype: &'static str, max_len: usize) -> impl Strategy<Value = String> {
    let ops = prop_oneof![
        Just("BH_ADD"),
        Just("BH_SUBTRACT"),
        Just("BH_MULTIPLY"),
        Just("BH_MAXIMUM"),
        Just("BH_MINIMUM"),
    ];
    let operand = prop_oneof![
        Just("r0".to_owned()),
        Just("r1".to_owned()),
        Just("r2".to_owned()),
        (0i64..4).prop_map(|c| c.to_string()),
    ];
    let instr = (ops, 0usize..3, operand.clone(), operand)
        .prop_map(|(op, out, a, b)| format!("{op} r{out} {a} {b}"));
    proptest::collection::vec(instr, 1..max_len).prop_map(move |body| {
        let mut text = format!(
            ".base r0 {dtype}[16]\n.base r1 {dtype}[16]\n.base r2 {dtype}[16]\n\
             BH_IDENTITY r0 1\nBH_IDENTITY r1 2\nBH_IDENTITY r2 3\n"
        );
        for line in body {
            text.push_str(&line);
            text.push('\n');
        }
        text.push_str("BH_SYNC r0\nBH_SYNC r1\nBH_SYNC r2\n");
        text
    })
}

/// Base length and window length of the sliced-view programs: every
/// partial view is a run of `WINDOW` elements at an offset in
/// `0..=BASE - WINDOW`.
const BASE: usize = 24;
const WINDOW: usize = 8;

/// One instruction of a sliced-view program: (kind, output register,
/// output offset, first-operand kind, second-operand kind, free choice).
type SlicedSpec = (u8, usize, usize, u8, u8, usize);

/// Strategy: a random program over offset windows of one common length
/// on three `dtype` bases, plus a bool base for comparisons and a base of
/// another dtype for casts. Unfused contiguous views at every offset are
/// what the fusing engine runs on its compiled step as groups of one, so
/// this is the strategy that holds that path to the interpreter.
fn arb_sliced_program(dtype: &'static str, max_len: usize) -> impl Strategy<Value = String> {
    let offset = 0usize..BASE - WINDOW + 1;
    let spec = (0u8..11, 0usize..3, offset.clone(), 0u8..5, 0u8..5, offset);
    proptest::collection::vec(spec, 1..max_len).prop_map(move |specs| sliced_program(dtype, &specs))
}

fn window(reg: &str, offset: usize) -> String {
    format!("{reg}[{offset}:{}:1]", offset + WINDOW)
}

/// The text of one operand of an instruction writing `r{out}` at
/// offset `o`, and any copy it needs first. Kinds: 0 another register
/// at offset `free`; 1 the output's own window (same layout); 2 a
/// disjoint window of the output's base; 3 a window of the output's
/// base shifted by less than `WINDOW` — the verifier (V500) rejects that
/// alias in place, so it is spelt as a copy into the temporary `temp`
/// first; 4 a constant.
fn sliced_operand(
    dtype: &str,
    kind: u8,
    out: usize,
    o: usize,
    free: usize,
    temp: &str,
) -> (Option<String>, String) {
    let own = format!("r{out}");
    match kind {
        0 => (None, window(&format!("r{}", (out + 1) % 3), free)),
        1 => (None, window(&own, o)),
        2 => {
            let p = if o >= WINDOW { o - WINDOW } else { o + WINDOW };
            (None, window(&own, p))
        }
        3 => {
            let shift = 1 + free % (WINDOW - 1);
            let p = if o + shift <= BASE - WINDOW {
                o + shift
            } else {
                o - shift
            };
            let copy = format!("BH_IDENTITY {temp} {}", window(&own, p));
            (Some(copy), temp.to_owned())
        }
        _ if dtype == "f64" => (None, format!("{}", free as f64 * 0.5 - 2.0)),
        _ => (None, format!("{}", free as i64 - 8)),
    }
}

fn sliced_program(dtype: &str, specs: &[SlicedSpec]) -> String {
    let other = if dtype == "f64" { "i32" } else { "f64" };
    let mut text = format!(
        ".base r0 {dtype}[{BASE}]\n.base r1 {dtype}[{BASE}]\n.base r2 {dtype}[{BASE}]\n\
         .base t0 {dtype}[{WINDOW}]\n.base t1 {dtype}[{WINDOW}]\n\
         .base m bool[{BASE}]\n.base c {other}[{BASE}]\n\
         BH_RANGE r0\nBH_RANGE r1\nBH_MULTIPLY r1 r1 2\nBH_RANGE r2\n\
         BH_IDENTITY m 0\nBH_IDENTITY c 0\n"
    );
    for &(kind, x, o, ka, kb, free) in specs {
        let reg = format!("r{x}");
        let (copy_a, a) = sliced_operand(dtype, ka, x, o, free, "t0");
        let (copy_b, b) = sliced_operand(dtype, kb, x, o, free / 2, "t1");
        // Comparisons read at least one view.
        let (copy_v, v) = sliced_operand(dtype, ka % 4, x, o, free, "t0");
        let line = match kind {
            0..=4 => {
                let op = [
                    "BH_ADD",
                    "BH_SUBTRACT",
                    "BH_MAXIMUM",
                    "BH_MINIMUM",
                    "BH_ADD",
                ][kind as usize];
                text.extend(copy_a.into_iter().chain(copy_b).map(|l| l + "\n"));
                format!("{op} {} {a} {b}", window(&reg, o))
            }
            5 => {
                let c = ["2", "-1", if dtype == "f64" { "0.5" } else { "3" }][free % 3];
                text.extend(copy_a.map(|l| l + "\n"));
                format!("BH_MULTIPLY {} {a} {c}", window(&reg, o))
            }
            6 => {
                let op = ["BH_GREATER", "BH_LESS_EQUAL", "BH_EQUAL"][free % 3];
                text.extend(copy_v.into_iter().chain(copy_b).map(|l| l + "\n"));
                format!("{op} {} {v} {b}", window("m", o))
            }
            7 => {
                text.extend(copy_a.map(|l| l + "\n"));
                format!("BH_IDENTITY {} {a}", window("c", o))
            }
            8 => format!("BH_IDENTITY {} {}", window(&reg, o), window("c", free)),
            9 => format!("BH_IDENTITY {} {}", window(&reg, o), window("m", free)),
            // Full views: adjacent ones fuse into groups between singles.
            _ => format!("BH_ADD {reg} {reg} r{}", (x + 1) % 3),
        };
        text.push_str(&line);
        text.push('\n');
    }
    text.push_str("BH_SYNC r0\nBH_SYNC r1\nBH_SYNC r2\nBH_SYNC m\nBH_SYNC c\n");
    text
}

/// Naive ≡ Fusing×1 ≡ Fusing×N bit for bit on one program, with N from
/// `BH_VM_TEST_THREADS` floored at 4 so the sharded paths engage.
fn check_engines_agree(text: &str) {
    let p = parse_program(text).expect("generated text parses");
    let threads = test_threads().max(4);
    let naive = run_synced(&p, 37, Engine::Naive).expect("runs");
    let fused1 = run_synced_threads(&p, 37, Engine::Fusing { block: 3 }, 1).expect("runs");
    let fusedn = run_synced_threads(&p, 37, Engine::Fusing { block: 3 }, threads).expect("runs");
    assert_eq!(naive.len(), fused1.len());
    for (name, t) in &naive {
        assert_eq!(
            t, &fused1[name],
            "{name}: fused×1 diverged from naive\n{text}"
        );
        assert_eq!(t, &fusedn[name], "{name}: fused×{threads} diverged\n{text}");
    }
}

/// Strategy: one in-place run `r = r ⊕ c` of adds, subtracts and
/// multiplies by constants (and, on floats, divides by ±2ᵏ) on a register
/// that starts as `head`. The f64 constants are dyadic and small, and so
/// are the values `BH_RANGE` starts from, so every intermediate result is
/// exact whatever order the constants fold in.
fn arb_affine_run(dtype: &'static str, head: &'static str) -> impl Strategy<Value = String> {
    let step: Union<String> = if dtype == "f64" {
        prop_oneof![
            (-6i64..7).prop_map(|c| format!("BH_ADD r r {}", c as f64 * 0.5)),
            (-6i64..7).prop_map(|c| format!("BH_SUBTRACT r r {}", c as f64 * 0.5)),
            prop_oneof![Just("2"), Just("0.5"), Just("-1"), Just("3")]
                .prop_map(|c| format!("BH_MULTIPLY r r {c}")),
            prop_oneof![Just("2"), Just("-0.5")].prop_map(|c| format!("BH_DIVIDE r r {c}")),
        ]
    } else {
        let c = prop_oneof![
            -9i64..10,
            Just(i64::MAX),
            Just(i64::MIN + 1),
            Just(1i64 << 40)
        ];
        prop_oneof![
            c.clone().prop_map(|c| format!("BH_ADD r r {c}")),
            c.clone().prop_map(|c| format!("BH_SUBTRACT r r {c}")),
            c.prop_map(|c| format!("BH_MULTIPLY r {c} r")),
        ]
    };
    proptest::collection::vec(step, 2..12).prop_map(move |body| {
        let mut text = format!(".base r {dtype}[16]{head}\n");
        for line in body {
            text.push_str(&line);
            text.push('\n');
        }
        text.push_str("BH_SYNC r\n");
        text
    })
}

/// O2 folds an in-place affine run to at most `r = r·α; r = r + β`, equal
/// to O0 element for element on both engines (bit for bit, but for the
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
    for engine in [Engine::Naive, Engine::Fusing { block: 5 }] {
        let want = run_synced(&source, 41, engine).expect("runs");
        let got = run_synced(&plan, 41, engine).expect("runs");
        assert_eq!(
            want, got,
            "{engine:?}\n--- source ---\n{source}\n--- plan ---\n{plan}"
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
    fn integer_programs_transform_exactly(text in arb_program("i64", 12)) {
        check_levels(&text, 0.0);
    }

    #[test]
    fn float_programs_transform_within_tolerance(text in arb_program("f64", 12)) {
        // fast-math re-association on small integer-valued constants stays
        // exact in practice; allow a tiny epsilon for merged constants.
        check_levels(&text, 1e-9);
    }

    #[test]
    fn fused_engine_matches_naive_on_random_programs(text in arb_program("f64", 10)) {
        let p = parse_program(&text).expect("generated text parses");
        let naive = run_synced(&p, 11, Engine::Naive).expect("runs");
        let fused = run_synced(&p, 11, Engine::Fusing { block: 7 }).expect("runs");
        prop_assert_eq!(naive.len(), fused.len());
        for (name, t) in &naive {
            let u = &fused[name];
            prop_assert!(t.max_abs_diff(u) == 0.0, "{} differs", name);
        }
    }

    // Thread count must never change results: Naive, Fusing×1-thread and
    // Fusing×N-thread produce bit-identical buffers on random programs
    // (integer dtype so "bit-identical" is meaningful without tolerance;
    // the f64 case rides on `fused_engine_matches_naive_on_random_programs`
    // plus the run below). N honours BH_VM_TEST_THREADS (CI matrix {1, 2, 4})
    // and is floored at 4 so the sharded paths engage even by default.
    #[test]
    fn thread_count_never_changes_results(text in arb_program("i64", 12)) {
        let p = parse_program(&text).expect("generated text parses");
        let threads = test_threads().max(4);
        let naive = run_synced(&p, 29, Engine::Naive).expect("runs");
        let fused1 =
            run_synced_threads(&p, 29, Engine::Fusing { block: 5 }, 1).expect("runs");
        let fusedn =
            run_synced_threads(&p, 29, Engine::Fusing { block: 5 }, threads).expect("runs");
        prop_assert_eq!(naive.len(), fused1.len());
        prop_assert_eq!(naive.len(), fusedn.len());
        for (name, t) in &naive {
            prop_assert_eq!(t, &fused1[name], "{}: fused×1 diverged from naive", name);
            prop_assert_eq!(t, &fusedn[name], "{}: fused×{} diverged", name, threads);
        }
    }

    #[test]
    fn sliced_views_agree_across_engines_and_threads_on_integers(
        text in arb_sliced_program("i64", 14)
    ) {
        check_engines_agree(&text);
    }

    #[test]
    fn sliced_views_agree_across_engines_and_threads_on_floats(
        text in arb_sliced_program("f64", 14)
    ) {
        check_engines_agree(&text);
    }

    #[test]
    fn thread_count_never_changes_float_results(text in arb_program("f64", 10)) {
        let p = parse_program(&text).expect("generated text parses");
        let threads = test_threads().max(4);
        let fused1 =
            run_synced_threads(&p, 31, Engine::Fusing { block: 7 }, 1).expect("runs");
        let fusedn =
            run_synced_threads(&p, 31, Engine::Fusing { block: 7 }, threads).expect("runs");
        for (name, t) in &fused1 {
            // Bit-identical, not approximately equal: sharding never
            // re-associates, so floats match exactly too.
            prop_assert_eq!(t, &fusedn[name], "{} differs across thread counts", name);
        }
    }

    // Through the whole runtime (digest → cache → optimise → verify →
    // VM): an unoptimised `O0` runtime and a default one return the same
    // bits on every engine and thread count, and for a given engine and
    // level the analytic `ExecStats` do not depend on the thread count.
    #[test]
    fn runtime_levels_agree_on_every_engine_and_thread_count(text in arb_program("i64", 12)) {
        let p = parse_program(&text).expect("generated text parses");
        let regs = ["r0", "r1", "r2"].map(|name| p.reg_by_name(name).unwrap());
        let mut threads = vec![1usize, 2, 4, test_threads()];
        threads.sort_unstable();
        threads.dedup();
        let mut reference = None;
        for engine in [Engine::Naive, Engine::Fusing { block: 64 }] {
            for level in [OptLevel::O0, OptLevel::O2] {
                let mut single_threaded = None;
                for &t in &threads {
                    let rt = Runtime::builder().opt_level(level).engine(engine).threads(t).build();
                    let mut values = Vec::new();
                    let mut analytics = Vec::new();
                    for reg in regs {
                        let (v, o) = rt.eval(&p, &[], reg).expect("verified program runs");
                        values.push(v);
                        analytics.push(analytic(&o.exec));
                    }
                    let reference = reference.get_or_insert_with(|| values.clone());
                    prop_assert_eq!(
                        &values, reference,
                        "{:?} on {:?}×{} diverged", level, engine, t
                    );
                    let base = single_threaded.get_or_insert_with(|| analytics.clone());
                    prop_assert_eq!(
                        &analytics, base,
                        "analytic ExecStats drifted between {}-thread and 1-thread {:?} at {:?}",
                        t, engine, level
                    );
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
    fn strict_math_never_touches_float_results(text in arb_program("f64", 10)) {
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
    for engine in [Engine::Naive, Engine::Fusing { block: 4 }] {
        match run_synced(&p, 1, engine) {
            Err(VmError::Invalid(errors)) => {
                assert!(
                    errors.iter().any(|e| e.code.as_str() == "V500"),
                    "{errors:?}"
                );
            }
            other => panic!("{engine:?} ran an aliasing program: {other:?}"),
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
