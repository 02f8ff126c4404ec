//! Soundness tests for the static plan auditor (`bh_ir::check_equiv`,
//! DESIGN.md §15), from both directions:
//!
//! * **No false rejections on real plans** — every program the standard
//!   pipeline produces (any level, fast or strict math) must audit clean
//!   against its source, or the runtime would silently serve unoptimised
//!   plans.
//! * **No false acceptances on broken plans** — a corpus of hand-built
//!   mutants (swapped non-commutative operands, dropped instructions,
//!   retargeted writes, changed constants, effect reorders, …) must each
//!   be caught with its stable A-code, and together the corpus exercises
//!   every code in [`EquivCode::ALL`].
//!
//! Plus the runtime-level contract: with [`RuntimeBuilder::audit`] on,
//! audits run once per plan compile — `audits.total() == cache_misses` —
//! and never on the cached eval path.

use bohrium_repro::ir::{check_equiv, parse_program, EquivCode, EquivOptions, Opcode, Program};
use bohrium_repro::opt::{OptLevel, OptOptions, Optimizer, RewriteCtx, RewriteRule};
use bohrium_repro::runtime::Runtime;
use bohrium_repro::testing::{assert_equivalent, Audited};
use common::gen::{arb_front_end_chain, arb_mixed_chain, arb_program};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;

mod common;

/// The standard pipeline at every level × math policy must audit clean
/// under the matching [`EquivOptions`].
fn assert_audits_clean(text: &str) {
    let reference: Program = parse_program(text).expect("generated text parses");
    for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        for strict in [false, true] {
            let mut options = OptOptions::level(level);
            if strict {
                options.ctx.fast_math = false;
            }
            let mut transformed = reference.clone();
            Optimizer::new(options.clone()).run(&mut transformed);
            if let Err(errors) = check_equiv(&reference, &transformed, &options.equiv_options()) {
                panic!(
                    "level {level:?} strict={strict} rejected a standard-pipeline plan:\n\
                     {errors:?}\n--- before ---\n{reference}\n--- after ---\n{transformed}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn integer_pipeline_plans_audit_clean(text in arb_program("i64", 12, true)) {
        assert_audits_clean(&text);
    }

    #[test]
    fn float_pipeline_plans_audit_clean(text in arb_program("f64", 12, true)) {
        assert_audits_clean(&text);
    }

    #[test]
    fn bool_pipeline_plans_audit_clean(text in arb_program("bool", 8, true)) {
        assert_audits_clean(&text);
    }
}

/// Every level × math policy folds `source` with no rule application
/// rolled back, the whole plan audits clean, and it computes what the
/// source does. Whether `constant-merge` fired at O2 under fast math.
fn folds_without_rollbacks(source: &Program) -> bool {
    let mut fired = false;
    for level in [OptLevel::O1, OptLevel::O2] {
        for strict in [false, true] {
            let mut options = OptOptions::level(level);
            options.ctx.fast_math = !strict;
            let (optimizer, tally) = Audited::optimizer(options.clone());
            let mut plan = source.clone();
            let report = optimizer.run(&mut plan);
            assert_eq!(
                tally.rollbacks(),
                0,
                "{level:?} strict={strict} rolled back a rewrite of\n{source}\n{report}"
            );
            if let Err(errors) = check_equiv(source, &plan, &options.equiv_options()) {
                panic!("{level:?} strict={strict}: {errors:?}\n{source}\n--- plan ---\n{plan}");
            }
            assert_equivalent(source, &plan, 7, 1e-9);
            let merges = report
                .by_rule
                .iter()
                .find(|(rule, _)| *rule == "constant-merge");
            fired |= level == OptLevel::O2 && !strict && merges.is_some_and(|&(_, n)| n > 0);
        }
    }
    fired
}

/// Chains recorded like a front end fold with no rollback. At least a
/// quarter of them fold through a temporary, so the property is not
/// vacuous.
#[test]
fn front_end_affine_chains_fold_without_rollbacks() {
    let cases = ProptestConfig::with_cases(96).effective_cases();
    let mut rng = TestRng::from_name("audit_soundness::front_end_affine_chains");
    let (mut programs, mut folded) = (0, 0);
    for dtype in ["i64", "f64"] {
        let chains = arb_front_end_chain(dtype);
        for _ in 0..cases {
            let source = parse_program(&chains.generate(&mut rng)).expect("generated text parses");
            programs += 1;
            folded += usize::from(folds_without_rollbacks(&source));
        }
    }
    assert!(
        4 * folded >= programs,
        "only {folded} of {programs} chains folded through a temporary"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mixed_integer_affine_chains_fold_without_rollbacks(text in arb_mixed_chain("i64")) {
        folds_without_rollbacks(&parse_program(&text).expect("generated text parses"));
    }

    #[test]
    fn mixed_float_affine_chains_fold_without_rollbacks(text in arb_mixed_chain("f64")) {
        folds_without_rollbacks(&parse_program(&text).expect("generated text parses"));
    }
}

// ---------------------------------------------------------------------------
// Mutant corpus: every kind of unsound transformation is caught, with the
// documented stable code.
// ---------------------------------------------------------------------------

/// The corpus base: a non-commutative op feeding a product, two syncs in
/// a fixed order, and a release effect.
const BASE: &str = "\
.base x f64[8] input
.base t f64[8]
.base y f64[8]
BH_SUBTRACT t x 3
BH_MULTIPLY y t x
BH_SYNC t
BH_SYNC y
BH_FREE t
";

/// Parse `BASE`, apply `mutate`, and return the codes `check_equiv`
/// reports (empty = falsely accepted).
fn codes_after(mutate: impl FnOnce(&mut Program)) -> Vec<EquivCode> {
    let before = parse_program(BASE).unwrap();
    let mut after = before.clone();
    mutate(&mut after);
    match check_equiv(&before, &after, &EquivOptions::default()) {
        Ok(_) => Vec::new(),
        Err(errors) => errors.into_iter().map(|e| e.code).collect(),
    }
}

#[test]
fn mutant_corpus_catches_every_code() {
    let mut exercised: BTreeSet<EquivCode> = BTreeSet::new();
    let mut run = |label: &str, expect: EquivCode, mutate: &mut dyn FnMut(&mut Program)| {
        let before = parse_program(BASE).unwrap();
        let mut after = before.clone();
        mutate(&mut after);
        let codes = match check_equiv(&before, &after, &EquivOptions::default()) {
            Ok(_) => panic!("mutant `{label}` was falsely accepted:\n{after}"),
            Err(errors) => errors.into_iter().map(|e| e.code).collect::<Vec<_>>(),
        };
        assert!(
            codes.contains(&expect),
            "mutant `{label}` expected {expect}, got {codes:?}"
        );
        exercised.extend(codes);
    };

    // A100 — swapped non-commutative operands: t = 3 - x instead of x - 3.
    run(
        "swapped-subtract-operands",
        EquivCode::ValueMismatch,
        &mut |p| {
            p.instrs_mut()[0].operands.swap(1, 2);
        },
    );
    // A100 — changed constant.
    run("changed-constant", EquivCode::ValueMismatch, &mut |p| {
        p.instrs_mut()[0].operands[2] = bohrium_repro::tensor::Scalar::F64(4.0).into();
    });
    // A100 — dropped instruction: y is synced still holding its zero fill.
    run("dropped-multiply", EquivCode::ValueMismatch, &mut |p| {
        p.instrs_mut()[1] = bohrium_repro::ir::Instruction::noop();
        p.compact();
    });
    // A100 — retargeted write: the multiply lands in t instead of y.
    run("retargeted-output", EquivCode::ValueMismatch, &mut |p| {
        let t = p.reg_by_name("t").unwrap();
        let out = p.instrs_mut()[1].operands[0]
            .as_view()
            .cloned()
            .map(|mut v| {
                v.reg = t;
                v
            })
            .unwrap();
        p.instrs_mut()[1].operands[0] = out.into();
    });
    // A101 — a sync dropped: t is no longer observable.
    run("dropped-sync", EquivCode::MissingObservable, &mut |p| {
        p.instrs_mut()[2] = bohrium_repro::ir::Instruction::noop();
        p.compact();
    });
    // A102 — a sync added: x becomes observable out of nowhere.
    run("added-sync", EquivCode::ExtraObservable, &mut |p| {
        let x = p.reg_by_name("x").unwrap();
        let sync = bohrium_repro::ir::Instruction {
            op: Opcode::Sync,
            operands: vec![bohrium_repro::ir::ViewRef {
                reg: x,
                slices: None,
            }
            .into()],
        };
        p.instrs_mut().push(sync);
    });
    // A300 — sync effects reordered (same per-register streams).
    run("reordered-syncs", EquivCode::EffectReorder, &mut |p| {
        p.instrs_mut().swap(2, 3);
    });
    // A301 — the release effect dropped.
    run("dropped-free", EquivCode::FreeDivergence, &mut |p| {
        p.instrs_mut()[4] = bohrium_repro::ir::Instruction::noop();
        p.compact();
    });
    // A302 — a malformed operand pattern: the auditor refuses to model an
    // elementwise op whose output slot holds a constant.
    run("malformed-output", EquivCode::Unsupported, &mut |p| {
        p.instrs_mut()[1].operands[0] = bohrium_repro::tensor::Scalar::F64(0.0).into();
    });
    // A200/A201 — declaration divergence needs its own before/after pair
    // (mutating a parsed decl in place).
    {
        let before = parse_program(BASE).unwrap();
        let reshaped = parse_program(&BASE.replace(".base y f64[8]", ".base y f64[4]")).unwrap();
        let retyped = parse_program(&BASE.replace(".base y f64[8]", ".base y f32[8]")).unwrap();
        let shape_codes: Vec<_> = check_equiv(&before, &reshaped, &EquivOptions::default())
            .unwrap_err()
            .into_iter()
            .map(|e| e.code)
            .collect();
        assert!(
            shape_codes.contains(&EquivCode::ShapeDivergence),
            "{shape_codes:?}"
        );
        exercised.extend(shape_codes);
        let dtype_codes: Vec<_> = check_equiv(&before, &retyped, &EquivOptions::default())
            .unwrap_err()
            .into_iter()
            .map(|e| e.code)
            .collect();
        assert!(
            dtype_codes.contains(&EquivCode::DTypeDivergence),
            "{dtype_codes:?}"
        );
        exercised.extend(dtype_codes);
    }

    // Completeness: the corpus exercises the full stable-code catalogue.
    let all: BTreeSet<EquivCode> = EquivCode::ALL.into_iter().collect();
    assert_eq!(
        exercised, all,
        "mutant corpus no longer covers every EquivCode"
    );
}

/// An affine run and the plan `constant-merge` folds it to:
/// `((x·2) + 3)·4 = x·8 + 12`.
const AFFINE_RUN: &str = "\
.base x f64[8] input
.base a f64[8]
BH_MULTIPLY a x 2
BH_ADD a a 3
BH_MULTIPLY a a 4
BH_SYNC a
";

fn affine_plan(body: &str) -> Program {
    parse_program(&format!(
        ".base x f64[8] input\n.base a f64[8]\n{body}BH_SYNC a\n"
    ))
    .unwrap()
}

#[test]
fn affine_fold_mutants_are_rejected() {
    let source = parse_program(AFFINE_RUN).unwrap();
    let folded = affine_plan("BH_MULTIPLY a x 8.0\nBH_ADD a a 12.0\n");
    // Control: the rule produces exactly this plan, and it audits clean.
    let mut plan = source.clone();
    Optimizer::new(OptOptions::default()).run(&mut plan);
    assert_eq!(plan.instrs(), folded.instrs(), "{plan}");
    check_equiv(&source, &folded, &EquivOptions::default()).expect("the fold is provable");

    let codes = |after: &Program, opts: &EquivOptions| match check_equiv(&source, after, opts) {
        Ok(_) => panic!("mutant falsely accepted:\n{after}"),
        Err(errors) => errors.into_iter().map(|e| e.code).collect::<Vec<_>>(),
    };
    // β not scaled by the later multiply: x·8 + 3.
    let unscaled = affine_plan("BH_MULTIPLY a x 8\nBH_ADD a a 3\n");
    assert_eq!(
        codes(&unscaled, &EquivOptions::default()),
        [EquivCode::ValueMismatch]
    );
    // The multiply and the add swapped: (x + 12)·8.
    let swapped = affine_plan("BH_ADD a x 12\nBH_MULTIPLY a a 8\n");
    assert_eq!(
        codes(&swapped, &EquivOptions::default()),
        [EquivCode::ValueMismatch]
    );
    // The f64 run merged under strict math, where it reassociates.
    let strict = EquivOptions::default().strict_math();
    assert_eq!(codes(&folded, &strict), [EquivCode::ValueMismatch]);

    // A sum entering the run, (x + y + 1)·3 + 3 = (x + y)·3 + 6: the
    // shift moved behind the scale but not scaled, (x + y)·3 + 4.
    let sum = ".base x f64[8] input\n.base y f64[8] input\n.base a f64[8]\nBH_ADD a x y\n";
    let program = |body: &str| parse_program(&format!("{sum}{body}BH_SYNC a\n")).unwrap();
    let source = program("BH_ADD a a 1\nBH_MULTIPLY a a 3\nBH_ADD a a 3\n");
    let mut plan = source.clone();
    Optimizer::new(OptOptions::default()).run(&mut plan);
    assert_eq!(
        plan.instrs(),
        program("BH_MULTIPLY a a 3\nBH_ADD a a 6.0\n").instrs(),
        "{plan}"
    );
    check_equiv(&source, &plan, &EquivOptions::default()).expect("the fold is provable");
    let unscaled = program("BH_MULTIPLY a a 3\nBH_ADD a a 4\n");
    assert!(check_equiv(&source, &unscaled, &EquivOptions::default())
        .is_err_and(|e| e.iter().all(|e| e.code == EquivCode::ValueMismatch)));

    // 20 − (10 − x) = x + 10, and not (10 + 20) − x.
    let program = |body: &str| {
        parse_program(&format!(
            ".base x f64[8] input\n.base a f64[8]\n{body}BH_SYNC a\n"
        ))
        .unwrap()
    };
    let source = program("BH_SUBTRACT a 10 x\nBH_SUBTRACT a 20 a\n");
    let mut plan = source.clone();
    Optimizer::new(OptOptions::default()).run(&mut plan);
    assert_eq!(
        plan.instrs(),
        program("BH_ADD a x 10.0\n").instrs(),
        "{plan}"
    );
    check_equiv(&source, &plan, &EquivOptions::default()).expect("the fold is provable");
    let summed = program("BH_SUBTRACT a 30 x\n");
    assert!(check_equiv(&source, &summed, &EquivOptions::default())
        .is_err_and(|e| e.iter().all(|e| e.code == EquivCode::ValueMismatch)));
}

/// A chain through temporaries, as a front end records it, and the plan
/// `constant-merge` folds it to: `((x·2 + 3)·4) + 1 = x·8 + 13` in `y`.
const TEMPORARY_CHAIN: &str = "\
.base x f64[8] input
.base t0 f64[8]
.base t1 f64[8]
.base t2 f64[8]
.base y f64[8]
BH_MULTIPLY t0 x 2
BH_ADD t1 t0 3
BH_FREE t0
BH_MULTIPLY t2 t1 4
BH_FREE t1
BH_ADD y t2 1
BH_FREE t2
BH_SYNC y
";

fn temporary_plan(body: &str) -> Program {
    parse_program(&format!(
        ".base x f64[8] input\n.base t0 f64[8]\n.base t1 f64[8]\n.base t2 f64[8]\n\
         .base y f64[8]\n{body}BH_FREE t2\nBH_SYNC y\n"
    ))
    .unwrap()
}

#[test]
fn temporary_chain_fold_mutants_are_rejected() {
    let source = parse_program(TEMPORARY_CHAIN).unwrap();
    let folded = temporary_plan("BH_MULTIPLY y x 8.0\nBH_FREE t0\nBH_FREE t1\nBH_ADD y y 13.0\n");
    // Control: the rule produces exactly this plan, and it audits clean.
    let mut plan = source.clone();
    Optimizer::new(OptOptions::default()).run(&mut plan);
    assert_eq!(plan.instrs(), folded.instrs(), "{plan}");
    check_equiv(&source, &folded, &EquivOptions::default()).expect("the fold is provable");

    let codes = |after: &Program, opts: &EquivOptions| match check_equiv(&source, after, opts) {
        Ok(_) => panic!("mutant falsely accepted:\n{after}"),
        Err(errors) => errors.into_iter().map(|e| e.code).collect::<Vec<_>>(),
    };
    // β skips the last link: x·8 + 12.
    let skipped = temporary_plan("BH_MULTIPLY y x 8\nBH_FREE t0\nBH_FREE t1\nBH_ADD y y 12\n");
    assert_eq!(
        codes(&skipped, &EquivOptions::default()),
        [EquivCode::ValueMismatch]
    );
    // The fold reads the first intermediate, x·2, instead of the chain's
    // head source x.
    let from_intermediate = temporary_plan(
        "BH_MULTIPLY t0 x 2\nBH_MULTIPLY y t0 8\nBH_FREE t0\nBH_FREE t1\nBH_ADD y y 13\n",
    );
    assert_eq!(
        codes(&from_intermediate, &EquivOptions::default()),
        [EquivCode::ValueMismatch]
    );
    // The f64 chain folded under strict math, where it reassociates.
    let strict = EquivOptions::default().strict_math();
    assert_eq!(codes(&folded, &strict), [EquivCode::ValueMismatch]);
}

/// `value-numbering` mutants: each applies one of the rule's rewrites
/// where its availability invariant says no, and the auditor must reject
/// it. The control: the optimiser's own plan of each source audits clean
/// and is not the mutant.
#[test]
fn value_numbering_mutants_are_rejected() {
    let decls = ".base x f64[8] input\n.base c f64[8] input\n\
                 .base a f64[8]\n.base b f64[8]\n.base y f64[8]\n";
    let program = |body: &str| parse_program(&format!("{decls}{body}")).unwrap();
    let cases = [
        // A read routed to a holder overwritten in between: y reads the
        // copy b, not a, which no longer holds b's value.
        (
            "read-routed-to-overwritten-holder",
            "BH_MULTIPLY a x 2\nBH_IDENTITY b a\nBH_ADD a a 1\nBH_MULTIPLY y b 3\n\
             BH_SYNC a\nBH_SYNC y\n",
            "BH_MULTIPLY a x 2\nBH_IDENTITY b a\nBH_ADD a a 1\nBH_MULTIPLY y a 3\n\
             BH_SYNC a\nBH_SYNC y\n",
        ),
        // A recomputation replaced by a copy of a holder whose input was
        // since written: x·c after x changed is a new value.
        (
            "copy-of-holder-with-written-input",
            "BH_MULTIPLY a x c\nBH_ADD x x 1\nBH_MULTIPLY y x c\nBH_SYNC a\nBH_SYNC y\n",
            "BH_MULTIPLY a x c\nBH_ADD x x 1\nBH_IDENTITY y a\nBH_SYNC a\nBH_SYNC y\n",
        ),
        // A fill contracted after a BH_FREE of the filled register: the
        // freed register reads back zero, so x·b is no copy of x.
        (
            "fill-contracted-after-free",
            "BH_IDENTITY b 1\nBH_SYNC b\nBH_FREE b\nBH_MULTIPLY y x b\nBH_SYNC y\n",
            "BH_IDENTITY b 1\nBH_SYNC b\nBH_FREE b\nBH_IDENTITY y x\nBH_SYNC y\n",
        ),
    ];
    for (label, source, mutant) in cases {
        let (source, mutant) = (program(source), program(mutant));
        let options = OptOptions::default();
        let mut plan = source.clone();
        Optimizer::new(options.clone()).run(&mut plan);
        check_equiv(&source, &plan, &options.equiv_options())
            .unwrap_or_else(|e| panic!("{label}: the rule's own plan must audit clean: {e:?}"));
        assert_ne!(
            plan.instrs(),
            mutant.instrs(),
            "{label}: the rule made the mutant"
        );
        match check_equiv(&source, &mutant, &options.equiv_options()) {
            Ok(_) => panic!("{label}: mutant falsely accepted:\n{mutant}"),
            Err(errors) => assert!(
                errors.iter().any(|e| e.code == EquivCode::ValueMismatch),
                "{label}: {errors:?}"
            ),
        }
    }
}

#[test]
fn identity_mutation_is_not_flagged() {
    // Control for the corpus: the no-op mutation audits clean.
    assert!(codes_after(|_| {}).is_empty());
}

// ---------------------------------------------------------------------------
// Per-rule audit: an unsound rule in the schedule is rolled back and the
// pipeline continues.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct SwapsSubtractOperands;

impl RewriteRule for SwapsSubtractOperands {
    fn name(&self) -> &'static str {
        "swaps-subtract-operands"
    }

    fn apply(&self, program: &mut Program, _ctx: &RewriteCtx) -> usize {
        let mut n = 0;
        for instr in program.instrs_mut() {
            if instr.op == Opcode::Subtract {
                instr.operands.swap(1, 2);
                n += 1;
            }
        }
        n
    }
}

#[test]
fn per_rule_audit_rolls_back_the_unsound_rule() {
    let before = parse_program(BASE).unwrap();
    let mut program = before.clone();
    let (optimizer, tally) =
        Audited::schedule(OptOptions::default(), vec![Box::new(SwapsSubtractOperands)]);
    let report = optimizer.run(&mut program);
    assert!(tally.rollbacks() >= 1, "{report}");
    // The rolled-back program still proves equivalent to its source.
    check_equiv(&before, &program, &EquivOptions::default())
        .expect("rollback must restore an equivalent program");
}

// ---------------------------------------------------------------------------
// Runtime contract: one audit per plan compile, zero on the eval path.
// ---------------------------------------------------------------------------

#[test]
fn runtime_audits_once_per_miss_never_on_a_hit() {
    let p = parse_program(BASE).unwrap();
    let y = p.reg_by_name("y").unwrap();
    let input = bohrium_repro::tensor::Tensor::from_vec(vec![5.0f64; 8]);
    let x = p.reg_by_name("x").unwrap();
    // One runtime per level: three misses of one digest, three compiles.
    let runtimes = [OptLevel::O0, OptLevel::O1, OptLevel::O2]
        .map(|l| Runtime::builder().audit(true).opt_level(l).build());
    for round in 0..4 {
        for rt in &runtimes {
            let audits_before = rt.stats().audits.total();
            let (v, o) = rt.eval(&p, &[(x, input.clone())], y).unwrap();
            assert_eq!(v.to_f64_vec(), vec![10.0; 8]);
            assert_eq!(o.cache_hit, round > 0);
            let audited = rt.stats().audits.total() - audits_before;
            assert_eq!(audited, u64::from(!o.cache_hit), "hits never audit");
        }
    }
    for rt in &runtimes {
        let stats = rt.stats();
        // One audit and one verification per compile, nothing per eval.
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.audits.total(), stats.cache_misses);
        assert_eq!(stats.verifications, stats.cache_misses);
        assert_eq!(stats.audits.failed, 0);
        assert_eq!(stats.audits.rolled_back, 0);
        assert_eq!(stats.evals, 4);
    }
}

/// Listing 2's add chain next to an unrelated float divide chain: the
/// rule folds `x/4/3` to `x/12`, the whole-plan audit proves it, and the
/// runtime serves the folded plan instead of rolling all of it back.
#[test]
fn runtime_serves_a_folded_divide_chain_without_rolling_back() {
    let p = parse_program(
        ".base x f64[8] input\n.base a0 f64[8]\n.base d f64[8]\n\
         BH_IDENTITY a0 0\nBH_ADD a0 a0 1\nBH_ADD a0 a0 1\nBH_ADD a0 a0 1\n\
         BH_DIVIDE d x 4\nBH_DIVIDE d d 3\nBH_SYNC a0\nBH_SYNC d\n",
    )
    .unwrap();
    let (x, d) = (p.reg_by_name("x").unwrap(), p.reg_by_name("d").unwrap());
    let rt = Runtime::builder().audit(true).build();
    let input = bohrium_repro::tensor::Tensor::from_vec(vec![24.0f64; 8]);
    let (v, outcome) = rt.eval(&p, &[(x, input)], d).unwrap();
    assert_eq!(v.to_f64_vec(), vec![2.0; 8]);
    let stats = rt.stats();
    assert_eq!(stats.audits.passed, 1);
    assert_eq!(stats.audits.rolled_back, 0);
    let plan = &outcome.plan.program;
    assert_eq!(plan.count_op(Opcode::Add), 1, "{}", **plan);
    assert_eq!(plan.count_op(Opcode::Divide), 1, "{}", **plan);
    // The fold rolls back no rule application either, in place or
    // through a freed temporary.
    let temporary = ".base x f64[8] input\n.base t f64[8]\n.base d f64[8]\n\
                     BH_DIVIDE t x 4\nBH_DIVIDE d t 3\nBH_FREE t\nBH_SYNC d\n";
    for source in [p, parse_program(temporary).unwrap()] {
        assert!(folds_without_rollbacks(&source), "{source}");
    }
}

#[test]
fn prepared_hot_path_never_audits() {
    let rt = Runtime::builder().audit(true).build();
    let p = parse_program(BASE).unwrap();
    let x = p.reg_by_name("x").unwrap();
    let y = p.reg_by_name("y").unwrap();
    let (plan, hit) = rt.prepare(&p).unwrap();
    assert!(!hit);
    assert_eq!(rt.stats().audits.total(), 1);
    let mut vm = rt.lease_vm();
    for i in 0..5 {
        let input = bohrium_repro::tensor::Tensor::from_vec(vec![i as f64; 8]);
        rt.eval_prepared(&plan, &mut vm, &[(x, input)], Some(y), true)
            .unwrap();
    }
    // Five prepared evals later the counter has not moved.
    assert_eq!(rt.stats().audits.total(), 1);
}
