//! Soundness of the admission-time byte-code verifier (DESIGN.md §12).
//!
//! Two halves:
//!
//! 1. **Completeness of the rule catalogue** — a malformed-program corpus
//!    with one witness program per [`VerifyCode`], asserting every rule
//!    fires with its specific stable code (the codes clients switch on).
//! 2. **Soundness of the witness** — property tests generating random
//!    byte-code: any program the verifier accepts must execute on every
//!    leg of the test matrix without `VmError::Invalid`, without
//!    panicking, and with engine-independent results. This is the
//!    exact property that justifies `Vm::run_verified` eliding per-eval
//!    checks.

use bohrium_repro::ir::{
    parse_program, verify, Instruction, Opcode, Operand, Program, ProgramBuilder, VerifyCode,
    ViewRef,
};
use bohrium_repro::tensor::{DType, Scalar, Shape};
use bohrium_repro::testing::{check, run_synced, Compare, Leg};
use bohrium_repro::vm::VmError;
use proptest::prelude::*;

/// One witness program per verifier rule. Most are expressible in the
/// textual format; arity and missing-output violations can only be built
/// programmatically (the parser would reject the text first).
fn corpus() -> Vec<(VerifyCode, Program)> {
    let parsed = |text: &str| parse_program(text).unwrap();
    let bad_arity = {
        let mut b = ProgramBuilder::new(DType::Float64, Shape::vector(4));
        let a = b.reg("a");
        b.identity_const(a, Scalar::F64(0.0));
        let mut p = b.build();
        p.push(Instruction::unary(
            Opcode::Add,
            ViewRef::full(a),
            Scalar::F64(1.0),
        ));
        p
    };
    let output_not_view = {
        let mut b = ProgramBuilder::new(DType::Float64, Shape::vector(4));
        let a = b.reg("a");
        b.identity_const(a, Scalar::F64(0.0));
        let mut p = b.build();
        p.push(Instruction::new(
            Opcode::Add,
            vec![
                Operand::Const(Scalar::F64(0.0)),
                Operand::full(a),
                Operand::Const(Scalar::F64(1.0)),
            ],
        ));
        p
    };
    vec![
        (VerifyCode::BadArity, bad_arity),
        (VerifyCode::OutputNotView, output_not_view),
        (
            VerifyCode::NonViewOperand,
            parsed(".base s f64[3]\nBH_ADD_REDUCE s 1 1\nBH_SYNC s\n"),
        ),
        (
            VerifyCode::BadView,
            parsed(
                ".base a f64[4] input\n.base b f64[4]\n\
                 BH_IDENTITY b a[0:2:1,0:2:1]\nBH_SYNC b\n",
            ),
        ),
        (
            VerifyCode::ViewOutOfBounds,
            parsed(
                ".base a f64[4] input\n.base b f64[9]\n\
                 BH_IDENTITY b a[0:9:1]\nBH_SYNC b\n",
            ),
        ),
        (
            VerifyCode::ReadBeforeWrite,
            parsed("BH_ADD a0 [0:4:1] a0 [0:4:1] 1\n"),
        ),
        (
            VerifyCode::UseAfterFree,
            parsed(".base a f64[4] input\nBH_FREE a\nBH_SYNC a\n"),
        ),
        (
            VerifyCode::UnsupportedDType,
            parsed(".base x i32[4] input\n.base y i32[4]\nBH_SQRT y x\nBH_SYNC y\n"),
        ),
        (
            VerifyCode::InputDTypeMismatch,
            parsed(
                ".base x f64[4] input\n.base y i32[4] input\n.base z f64[4]\n\
                 BH_ADD z x y\nBH_SYNC z\n",
            ),
        ),
        (
            VerifyCode::OutputDTypeMismatch,
            parsed(".base x f64[4] input\n.base y f64[4]\nBH_GREATER y x x\nBH_SYNC y\n"),
        ),
        (
            VerifyCode::ReduceDTypeMismatch,
            parsed(
                ".base m f64[3,4] input\n.base s i32[3]\n\
                 BH_ADD_REDUCE s m 1\nBH_SYNC s\n",
            ),
        ),
        (
            VerifyCode::NonFloatOperand,
            parsed(
                ".base a i32[2,2] input\n.base b i32[2,2] input\n.base c i32[2,2]\n\
                 BH_MATMUL c a b\nBH_SYNC c\n",
            ),
        ),
        (
            VerifyCode::BadSeed,
            parsed(".base r f64[8]\nBH_RANDOM r 1.5\nBH_SYNC r\n"),
        ),
        (
            VerifyCode::BroadcastMismatch,
            parsed(".base x f64[4] input\n.base y f64[5]\nBH_IDENTITY y x\nBH_SYNC y\n"),
        ),
        (
            VerifyCode::ReduceShapeMismatch,
            parsed(
                ".base m f64[3,4] input\n.base s f64[4]\n\
                 BH_ADD_REDUCE s m 1\nBH_SYNC s\n",
            ),
        ),
        (
            VerifyCode::ScanShapeMismatch,
            parsed(
                ".base m f64[6] input\n.base c f64[5]\n\
                 BH_ADD_ACCUMULATE c m 0\nBH_SYNC c\n",
            ),
        ),
        (
            VerifyCode::BadAxis,
            parsed(
                ".base m f64[3,4] input\n.base s f64[3]\n\
                 BH_ADD_REDUCE s m 7\nBH_SYNC s\n",
            ),
        ),
        (
            VerifyCode::LinalgShapeMismatch,
            parsed(
                ".base a f64[2,3] input\n.base b f64[2,4] input\n.base c f64[2,4]\n\
                 BH_MATMUL c a b\nBH_SYNC c\n",
            ),
        ),
        (
            VerifyCode::AliasedOutput,
            parsed(".base a f64[4] input\nBH_ADD_ACCUMULATE a a[::-1] 0\nBH_SYNC a\n"),
        ),
    ]
}

#[test]
fn every_verify_code_has_a_firing_corpus_program() {
    let corpus = corpus();
    // One witness per code, no code forgotten when the catalogue grows.
    assert_eq!(corpus.len(), VerifyCode::ALL.len());
    for code in VerifyCode::ALL {
        assert_eq!(
            corpus.iter().filter(|(c, _)| *c == code).count(),
            1,
            "exactly one corpus program for {code}"
        );
    }
    for (code, program) in &corpus {
        let errors = verify(program).expect_err(&format!("{code} program must be rejected"));
        assert!(
            errors.iter().any(|e| e.code == *code),
            "{code} program reported {:?} instead\n{program}",
            errors.iter().map(|e| e.code).collect::<Vec<_>>()
        );
    }
}

#[test]
fn rejected_programs_fail_vm_run_with_the_same_codes() {
    // The VM front door (`Vm::run`) verifies and must surface the
    // structured findings, not execute malformed byte-code.
    for (code, program) in &corpus() {
        let mut vm = bohrium_repro::vm::Vm::new();
        match vm.run(program) {
            Err(VmError::Invalid(errors)) => {
                assert!(errors.iter().any(|e| e.code == *code), "{code}: {errors:?}");
            }
            other => panic!("{code} program must be Invalid, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Property half: verified ⇒ executes everywhere, identically.
// ---------------------------------------------------------------------

/// Assemble a candidate program: `nregs` f64 vector bases of length `n`
/// (all but `r0` declared `input`), a body of elementwise instructions,
/// a final SYNC per register. A windowed instruction slices its output
/// `[lo : lo+len : 1]` and gives every view input its own window of the
/// *same* length — matched lengths keep broadcast legal while still
/// generating out-of-bounds windows (V104), overlapping in-place windows
/// (V500) and reads of the uninitialised `r0` (V200). The candidate may
/// be malformed in every way the generator allows: the property filters
/// through `verify` itself, so the verifier — not the generator — is the
/// arbiter of what reaches the VM.
#[allow(clippy::type_complexity)]
fn assemble(
    n: usize,
    nregs: usize,
    body: &[(
        u8,
        usize,
        Option<(i64, i64)>,
        Vec<(usize, i64, Option<i64>)>,
    )],
) -> String {
    let mut text = String::new();
    for r in 0..nregs {
        let kind = if r == 0 { "" } else { " input" };
        text.push_str(&format!(".base r{r} f64[{n}]{kind}\n"));
    }
    for (opsel, out, window, ins) in body {
        let op = match opsel % 4 {
            0 => "BH_ADD",
            1 => "BH_MULTIPLY",
            2 => "BH_SUBTRACT",
            _ => "BH_IDENTITY",
        };
        let arity = if *opsel % 4 == 3 { 1 } else { 2 };
        let mut line = match window {
            Some((lo, len)) => format!("{op} r{}[{lo}:{}:1]", out % 4, lo + len),
            None => format!("{op} r{}", out % 4),
        };
        for (reg, in_lo, konst) in ins.iter().take(arity) {
            line.push(' ');
            line.push_str(&match (konst, window) {
                (Some(c), _) => format!("{c}"),
                (None, Some((_, len))) => format!("r{}[{in_lo}:{}:1]", reg % 4, in_lo + len),
                (None, None) => format!("r{}", reg % 4),
            });
        }
        line.push('\n');
        text.push_str(&line);
    }
    for r in 0..nregs {
        text.push_str(&format!("BH_SYNC r{r}\n"));
    }
    text
}

/// Non-vacuity guard for the property below: a known-good assembled
/// candidate must make it through parse + verify to actual execution, so
/// the random property cannot silently degenerate into filtering
/// everything out.
#[test]
fn assembled_candidates_can_reach_execution() {
    let body = vec![
        (3u8, 0usize, None, vec![(0, 0, Some(2)), (0, 0, None)]),
        (0u8, 2usize, Some((1, 4)), vec![(0, 2, None), (1, 0, None)]),
    ];
    let text = assemble(6, 4, &body);
    let program = parse_program(&text).expect("candidate parses");
    verify(&program).expect("candidate verifies");
    run_synced(&program, 7, Leg::REFERENCE).expect("candidate runs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn verified_programs_run_clean_on_every_engine_and_thread_count(
        n in 4usize..9,
        body in proptest::collection::vec(
            (
                0u8..255,
                0usize..4,
                // Window origins/lengths sized so most candidates stay in
                // bounds (executed) while the tail goes out of bounds
                // (exercising the V104 filter).
                proptest::option::of((0i64..4, 1i64..5)),
                proptest::collection::vec(
                    (0usize..4, 0i64..5, proptest::option::of(1i64..5)),
                    2,
                ),
            ),
            1..6,
        ),
        seed in 0u64..u64::MAX,
    ) {
        let text = assemble(n, 4, &body);
        // Candidates that fail to parse are outside the verifier's
        // contract; candidates the verifier rejects never reach
        // execution. (No early `return`s: the vendored proptest macro
        // inlines the body into one test fn, so `return` would abort the
        // whole case loop, not just the current case.)
        if let Ok(program) = parse_program(&text) {
            if verify(&program).is_ok() {
                // Accepted by the verifier: must run clean on every leg,
                // with leg-independent results (elementwise body, so
                // equality is exact).
                check(&program, seed, Compare::Equal);
            }
        }
    }
}
