//! Complexity guard: the plan-cache miss path stays linear in program
//! length.
//!
//! A program that verifies and fits a wire frame can be tens of thousands
//! of instructions long, and a miss runs optimise → audit → verify over
//! all of it on a serve worker. With per-rewrite rescans the optimiser
//! alone needed over a second at 4 000 instructions (debug or release)
//! and minutes at this size; every sweep is now one pass. The bounds here
//! are absolute and generous — a debug build on a slow shared runner
//! passes with an order of magnitude to spare — so only a return to
//! quadratic behaviour trips them.
//!
//! Admission is held to the same rule: a verified SUBMIT of this size
//! must not pin its connection thread behind a per-instruction rescan.
//! That case has a budget of its own, at least 100× its typical time.

use bohrium_repro::ir::{check_equiv, parse_program, verify, Opcode, Program};
use bohrium_repro::opt::{OptOptions, Optimizer};
use bohrium_repro::runtime::Runtime;
use bohrium_repro::serve::{Request, Server};
use std::fmt::Write;
use std::time::{Duration, Instant};

const INSTRUCTIONS: usize = 50_000;
const BUDGET: Duration = Duration::from_secs(10);
/// Admission plus one `service_once` of the 50 000-instruction cast chain
/// takes ≈ 0.85 s in a debug build on a 2-vCPU x86-64 host; an admission
/// lint that rescanned the instruction list per cast took 134 s there.
const ADMISSION_BUDGET: Duration = Duration::from_secs(100);

/// Blocks of: a run of mergeable adds, two temporaries, a run of
/// mergeable multiplies, a CSE-able pair, and the pair folded back into
/// the accumulator — every linear-time rule has work in every block.
fn long_program(instructions: usize) -> Program {
    let mut text = String::from(
        ".base a f64[64]\n.base t0 f64[64]\n.base t1 f64[64]\n.base u f64[64]\n.base v f64[64]\n\
         BH_RANGE a\n",
    );
    let mut emitted = 1;
    let mut block = 0;
    while emitted + 14 < instructions {
        let c = 1 + block % 3;
        let _ = write!(
            text,
            "BH_ADD a a {c}\nBH_ADD a a 1\nBH_ADD a a 2\nBH_ADD a a {c}\n\
             BH_MULTIPLY t0 a 0.5\nBH_ADD t1 t0 {c}\n\
             BH_MULTIPLY a a 0.5\nBH_MULTIPLY a a 2\nBH_MULTIPLY a a 0.5\nBH_MULTIPLY a a 0.25\n\
             BH_ADD u a t1\nBH_ADD v a t1\n\
             BH_MINIMUM a u v\nBH_MINIMUM a a 64\n"
        );
        emitted += 14;
        block += 1;
    }
    while emitted + 1 < instructions {
        text.push_str("BH_ADD a a 1\n");
        emitted += 1;
    }
    text.push_str("BH_SYNC a\n");
    let program = parse_program(&text).expect("generated byte-code parses");
    assert_eq!(program.instrs().len(), instructions);
    program
}

#[test]
fn a_long_program_optimises_audits_and_verifies_in_bounded_time() {
    let source = long_program(INSTRUCTIONS);
    verify(&source).expect("the generated program verifies");

    let begun = Instant::now();
    let options = OptOptions::default();
    let mut optimised = source.clone();
    let report = Optimizer::new(options.clone()).run(&mut optimised);
    let optimise = begun.elapsed();
    check_equiv(&source, &optimised, &options.equiv_options())
        .expect("the optimised plan is provably equivalent");
    let audit = begun.elapsed() - optimise;
    verify(&optimised).expect("the optimised plan verifies");
    let total = begun.elapsed();

    // The rules did real work on it: merges, CSE copies and dead stores.
    let fired = |rule: &str| {
        report
            .by_rule
            .iter()
            .find(|(name, _)| *name == rule)
            .map_or(0, |(_, n)| *n)
    };
    let blocks = (INSTRUCTIONS - 2) / 14;
    assert!(fired("constant-merge") >= 6 * blocks, "{report}");
    assert!(fired("value-numbering") >= blocks, "{report}");
    assert!(fired("dead-code-elimination") >= blocks, "{report}");
    assert!(optimised.instrs().len() <= INSTRUCTIONS / 2, "{report}");
    assert!(
        total < BUDGET,
        "optimise {optimise:?} + audit {audit:?} + verify = {total:?} for {INSTRUCTIONS} \
         instructions exceeds {BUDGET:?}: a sweep is no longer linear"
    );
}

/// One in-place affine run the length of the program, after `entry`
/// (instructions that write `a`, with the declarations they need): adds
/// and multiplies alternate one by one, so every multiply moves in front
/// of the add before it and folds into the multiply before that.
fn affine_run(instructions: usize, entry: &str) -> Program {
    let mut text = String::from(".base a f64[64]\n");
    text.push_str(entry);
    let entered = text.lines().filter(|l| !l.starts_with('.')).count();
    for k in 0..instructions - entered - 1 {
        let _ = if k % 2 == 0 {
            writeln!(text, "BH_ADD a a {}", 1 + k % 3)
        } else {
            writeln!(
                text,
                "BH_MULTIPLY a a {}",
                if k % 4 == 1 { "2" } else { "0.5" }
            )
        };
    }
    text.push_str("BH_SYNC a\n");
    let program = parse_program(&text).expect("generated byte-code parses");
    assert_eq!(program.instrs().len(), instructions);
    program
}

/// The run entered by `BH_RANGE`, and by a 64-term sum `x₀ + … + x₆₃ + 1`:
/// each fold step of the run is O(1) however many terms the value it
/// scales has, so the sum costs nothing per link.
#[test]
fn a_long_affine_run_optimises_audits_and_verifies_in_bounded_time() {
    let mut sum = String::new();
    for k in 0..64 {
        let _ = writeln!(sum, ".base x{k} f64[64] input");
    }
    sum.push_str("BH_ADD a x0 x1\n");
    for k in 2..64 {
        let _ = writeln!(sum, "BH_ADD a a x{k}");
    }
    sum.push_str("BH_ADD a a 1\n");
    // BH_RANGE, one multiply, one add, BH_SYNC; or the 63 adds of the
    // sum, one multiply, one add, BH_SYNC.
    for (entry, live) in [("BH_RANGE a\n", 4), (sum.as_str(), 63 + 3)] {
        affine_run_folds(affine_run(INSTRUCTIONS, entry), live);
    }
}

fn affine_run_folds(source: Program, live: usize) {
    verify(&source).expect("the generated program verifies");

    let begun = Instant::now();
    let options = OptOptions::default();
    let mut optimised = source.clone();
    Optimizer::new(options.clone()).run(&mut optimised);
    let optimise = begun.elapsed();
    check_equiv(&source, &optimised, &options.equiv_options())
        .expect("the folded run is provably equivalent");
    let audit = begun.elapsed() - optimise;
    verify(&optimised).expect("the optimised plan verifies");
    let total = begun.elapsed();

    assert_eq!(optimised.live_len(), live, "{optimised}");
    assert!(
        total < BUDGET,
        "optimise {optimise:?} + audit {audit:?} + verify = {total:?} for an affine run of \
         {INSTRUCTIONS} instructions exceeds {BUDGET:?}: a sweep is no longer linear"
    );
}

/// A run like [`affine_run`] through temporaries, as a front end emits a
/// nested expression: step `k` reads the register step `k − 1` wrote and
/// writes the other of `t0` and `t1`. Its multiplies start at ½, so the
/// folded scale is ½ (a scale of 2 would be strength-reduced to an add).
fn temporary_chain(instructions: usize) -> Program {
    let mut text =
        String::from(".base x f64[64]\n.base t0 f64[64]\n.base t1 f64[64]\nBH_RANGE x\n");
    let mut src = "x";
    for k in 0..instructions - 2 {
        let dst = ["t0", "t1"][k % 2];
        let _ = if k % 2 == 0 {
            writeln!(text, "BH_ADD {dst} {src} {}", 1 + k % 3)
        } else {
            writeln!(
                text,
                "BH_MULTIPLY {dst} {src} {}",
                if k % 4 == 1 { "0.5" } else { "2" }
            )
        };
        src = dst;
    }
    let _ = writeln!(text, "BH_SYNC {src}");
    let program = parse_program(&text).expect("generated byte-code parses");
    assert_eq!(program.instrs().len(), instructions);
    program
}

#[test]
fn a_long_temporary_chain_optimises_audits_and_verifies_in_bounded_time() {
    let source = temporary_chain(INSTRUCTIONS);
    verify(&source).expect("the generated program verifies");

    let begun = Instant::now();
    let options = OptOptions::default();
    let mut optimised = source.clone();
    Optimizer::new(options.clone()).run(&mut optimised);
    let optimise = begun.elapsed();
    check_equiv(&source, &optimised, &options.equiv_options())
        .expect("the folded chain is provably equivalent");
    let audit = begun.elapsed() - optimise;
    verify(&optimised).expect("the optimised plan verifies");
    let total = begun.elapsed();

    let ops: Vec<Opcode> = optimised.instrs().iter().map(|i| i.op).collect();
    assert_eq!(
        ops,
        [Opcode::Range, Opcode::Multiply, Opcode::Add, Opcode::Sync],
        "{optimised}"
    );
    assert!(
        total < BUDGET,
        "optimise {optimise:?} + audit {audit:?} + verify = {total:?} for a chain through \
         temporaries of {INSTRUCTIONS} instructions exceeds {BUDGET:?}: a sweep is no longer linear"
    );
}

#[test]
fn a_long_program_evaluates_through_the_runtime() {
    let source = long_program(INSTRUCTIONS);
    let reg = source.reg_by_name("a").expect("declared above");
    let rt = Runtime::builder().audit(true).build();
    let begun = Instant::now();
    let (values, outcome) = rt
        .eval(&source, &[], reg)
        .expect("the long program evaluates");
    assert_eq!(values.to_f64_vec().len(), 64);
    assert!(!outcome.cache_hit);
    let stats = rt.stats();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.audits.passed, 1);
    assert!(
        begun.elapsed() < BUDGET,
        "a miss on {INSTRUCTIONS} instructions took {:?}",
        begun.elapsed()
    );
}

/// `x0 → x1 → x2 → …` alternating `f64` and `f32`: every cast feeds
/// exactly one other cast, the shape on which a per-cast rescan of the
/// instruction list is quadratic.
fn cast_chain(instructions: usize) -> Program {
    let mut text = String::new();
    for k in 0..instructions - 1 {
        let dtype = if k % 2 == 0 { "f64" } else { "f32" };
        let _ = writeln!(text, ".base x{k} {dtype}[4]");
    }
    text.push_str("BH_RANGE x0\n");
    for k in 1..instructions - 1 {
        let _ = writeln!(text, "BH_IDENTITY x{k} x{}", k - 1);
    }
    let _ = writeln!(text, "BH_SYNC x{}", instructions - 2);
    let program = parse_program(&text).expect("generated byte-code parses");
    assert_eq!(program.instrs().len(), instructions);
    program
}

#[test]
fn a_long_cast_chain_is_admitted_and_served_in_bounded_time() {
    let source = cast_chain(INSTRUCTIONS);
    let last = source
        .reg_by_name(&format!("x{}", INSTRUCTIONS - 2))
        .expect("declared above");
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .build();
    let begun = Instant::now();
    let ticket = server
        .submit(Request::new("t", source).read(last))
        .expect("a verified program is admitted");
    let admit = begun.elapsed();
    assert!(server.service_once());
    let value = ticket
        .wait()
        .expect("the chain evaluates")
        .value
        .expect("the synced register is read back");
    let serve = begun.elapsed() - admit;
    assert_eq!(value.to_f64_vec(), vec![0.0, 1.0, 2.0, 3.0]);
    assert!(
        begun.elapsed() < ADMISSION_BUDGET,
        "admission {admit:?} + one service_once {serve:?} for {INSTRUCTIONS} instructions \
         exceeds {ADMISSION_BUDGET:?}: admission is no longer linear"
    );
}

/// `y = x·x` followed by `squarings` copies of `y = y·y`: `x` raised to
/// 2^(squarings + 1), one multiply per doubling.
fn squaring_chain(dtype: &str, squarings: usize) -> Program {
    let mut text = format!(".base x {dtype}[4] input\n.base y {dtype}[4]\nBH_MULTIPLY y x x\n");
    for _ in 0..squarings {
        text.push_str("BH_MULTIPLY y y y\n");
    }
    text.push_str("BH_SYNC y\n");
    parse_program(&text).expect("generated byte-code parses")
}

/// The multiply-chain re-roll weighs a run against the shortest schedule
/// for its exponent, and the exponent doubles with every squaring: a
/// 42-instruction program names x^(2^41). Sizing anything by the
/// exponent aborts the process on allocation; these chains are already
/// optimal, so every plan keeps its multiplies.
#[test]
fn a_squaring_chain_with_a_huge_exponent_prepares_in_bounded_time() {
    let rt = Runtime::new();
    for dtype in ["i64", "f64"] {
        for squarings in [40, 60] {
            let source = squaring_chain(dtype, squarings);
            verify(&source).expect("the generated program verifies");
            let begun = Instant::now();
            let (plan, _) = rt.prepare(&source).expect("the chain prepares");
            assert!(
                begun.elapsed() < BUDGET,
                "preparing x^(2^{}) over {dtype} took {:?}",
                squarings + 1,
                begun.elapsed()
            );
            assert_eq!(plan.program.count_op(Opcode::Multiply), squarings + 1);
            assert_eq!(plan.program.count_op(Opcode::Power), 0);
        }
    }
}
