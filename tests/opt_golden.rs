//! The optimiser's output is pinned.
//!
//! Equivalence of the rewritten instruction sequence is the contract of
//! `bh-opt`, and so is *which* sequence it produces: the plan cache, the
//! exporter goldens and the `ledger` counts (`opt.rules_fired_per_prog`,
//! `ir.instrs_out`) all key on it. Every corpus program below runs
//! through [`Optimizer::run`] under five option sets; the optimised text,
//! the sweep count and the per-rule application counts are compared
//! byte-for-byte against `tests/golden/opt/<case>.txt`.
//!
//! The corpus: the five `compile_churn` templates at two lengths, the
//! `paper_rewrites` listings, the `wire_hot_small` program shape,
//! `kernel_stream`'s two chains through temporaries, what `bh-frontend`
//! records for Listing 1 and three nested expressions, and the inputs of
//! the rule unit tests (sliced views, strict math, observe-all, bool-XOR
//! and u8-wrap folds included).
//!
//! The goldens were blessed from the commit *before* the rule sweeps were
//! made linear-time; a change that re-blesses them changes plans and must
//! say so. Regenerate deliberately with
//! `BLESS_GOLDEN=1 cargo test --test opt_golden`.

use bohrium_repro::frontend::{BhArray, Context};
use bohrium_repro::ir::{parse_program, Instruction, Opcode, PrintStyle, ViewRef};
use bohrium_repro::opt::{OptLevel, OptOptions, Optimizer};
use bohrium_repro::tensor::{DType, Scalar, Shape, Tensor};
use bohrium_repro::testing::Audited;
use std::fmt::Write;
use std::path::PathBuf;

/// SplitMix64, so the generated corpus is the same on every host.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn pick(&mut self, items: &[&'static str]) -> &'static str {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Byte-code text under construction, counting instructions.
struct Text {
    out: String,
    instrs: usize,
}

impl Text {
    fn new(decls: &str) -> Text {
        Text {
            out: decls.to_owned(),
            instrs: 0,
        }
    }

    fn op(&mut self, line: &str) {
        self.out.push_str(line);
        self.out.push('\n');
        self.instrs += 1;
    }
}

/// Runs of mergeable adds and multiplies on one register (Listing 2).
fn churn_constant_merge(len: usize, rng: &mut Rng) -> String {
    let mut t = Text::new(".base a f64[64]\n");
    t.op("BH_RANGE a");
    t.op("BH_MINIMUM a a 7");
    let mut adding = true;
    while t.instrs + 1 < len {
        for _ in 0..2 + rng.below(5) {
            if t.instrs + 1 >= len {
                break;
            }
            if adding {
                t.op(&format!("BH_ADD a a {}", rng.pick(&["1", "2", "3"])));
            } else {
                t.op(&format!("BH_MULTIPLY a a {}", rng.pick(&["2", "0.5"])));
            }
        }
        adding = !adding;
    }
    t.op("BH_SYNC a");
    t.out
}

/// `acc += x^k` for k in 2..=10 (Eq. 1).
fn churn_power(len: usize, rng: &mut Rng) -> String {
    let mut t = Text::new(".base x f64[64]\n.base p f64[64]\n.base acc f64[64]\n");
    t.op("BH_RANGE x");
    t.op("BH_MINIMUM x x 3");
    t.op("BH_MULTIPLY x x 0.25");
    t.op("BH_ADD x x 1");
    t.op("BH_IDENTITY acc 0");
    while t.instrs + 2 < len {
        t.op(&format!("BH_POWER p x {}", 2 + rng.below(9)));
        t.op("BH_ADD acc acc p");
    }
    t.op("BH_SYNC acc");
    t.out
}

/// Identities, an annihilator pair and a few real adds between them.
fn churn_identities(len: usize, rng: &mut Rng) -> String {
    let mut t = Text::new(".base a f64[64]\n.base t f64[64]\n");
    t.op("BH_RANGE a");
    while t.instrs + 2 < len {
        match rng.below(8) {
            0 => t.op("BH_ADD a a 0"),
            1 => t.op("BH_MULTIPLY a a 1"),
            2 => t.op("BH_POWER a a 1"),
            3 => t.op("BH_DIVIDE a a 1"),
            4 => t.op("BH_SUBTRACT a a 0"),
            5 => {
                t.op("BH_MULTIPLY t a 0");
                t.op("BH_ADD a a t");
            }
            _ => t.op(&format!("BH_ADD a a {}", rng.pick(&["1", "2", "3"]))),
        }
    }
    while t.instrs + 1 < len {
        t.op("BH_ADD a a 0");
    }
    t.op("BH_SYNC a");
    t.out
}

/// A nested expression through temporaries with copies in between; with
/// `reduce_tail` the chain ends in a full sum.
fn churn_temporaries(len: usize, rng: &mut Rng, reduce_tail: bool) -> String {
    let mut t = Text::new(
        ".base x f64[64]\n.base t0 f64[64]\n.base t1 f64[64]\n.base u f64[64]\n.base s f64[]\n",
    );
    let temps = ["t0", "t1", "u"];
    t.op("BH_RANGE x");
    t.op("BH_MINIMUM x x 15");
    let tail = if reduce_tail { 2 } else { 1 };
    let mut src = "x";
    let mut step = 0;
    while t.instrs + tail < len {
        let dst = temps[step % 3];
        match step % 4 {
            0 => t.op(&format!(
                "BH_MULTIPLY {dst} {src} {}",
                rng.pick(&["2", "0.5"])
            )),
            2 => t.op(&format!("BH_IDENTITY {dst} {src}")),
            _ => t.op(&format!(
                "BH_ADD {dst} {src} {}",
                rng.pick(&["0.25", "0.5", "1", "2"])
            )),
        }
        src = dst;
        step += 1;
    }
    if reduce_tail {
        t.op(&format!("BH_ADD_REDUCE s {src} 0"));
        t.op("BH_SYNC s");
    } else {
        t.op(&format!("BH_SYNC {src}"));
    }
    t.out
}

/// One register copied from a bound input, then `ops` in place.
fn in_place(ops: &[String]) -> String {
    let mut t = Text::new(".base x f64[1000] input\n.base a f64[1000]\n");
    t.op("BH_IDENTITY a x");
    for op in ops {
        t.op(op);
    }
    t.op("BH_SYNC a");
    t.out
}

/// The `paper_rewrites` population (sizes shrunk: the optimiser never
/// looks at element counts beyond view geometry).
fn paper_cases(rng: &mut Rng, out: &mut Vec<(String, String)>) {
    let adds: Vec<String> = (0..32)
        .map(|_| format!("BH_ADD a a {}", rng.pick(&["1", "2", "3"])))
        .collect();
    out.push(("paper_addchain32".into(), in_place(&adds)));
    let muls: Vec<String> = (0..32)
        .map(|_| format!("BH_MULTIPLY a a {}", rng.pick(&["2", "0.5"])))
        .collect();
    out.push(("paper_mulchain32".into(), in_place(&muls)));
    for k in [10, 16] {
        out.push((
            format!("paper_pow{k}"),
            format!(".base x f64[1000] input\n.base y f64[1000]\nBH_POWER y x {k}\nBH_SYNC y\n"),
        ));
    }
    out.push((
        "paper_solve".into(),
        ".base a f64[16,16] input\n.base b f64[16] input\n.base t f64[16,16]\n.base x f64[16]\n\
         BH_INVERSE t a\nBH_MATMUL x t b\nBH_SYNC x\n"
            .into(),
    ));
    let identities: Vec<String> = (0..24)
        .map(|i| match i % 6 {
            0 => "BH_ADD a a 0".to_owned(),
            1 => "BH_MULTIPLY a a 1".to_owned(),
            2 => "BH_POWER a a 1".to_owned(),
            3 => "BH_DIVIDE a a 1".to_owned(),
            4 => "BH_SUBTRACT a a 0".to_owned(),
            _ => format!("BH_ADD a a {}", rng.pick(&["1", "2", "3"])),
        })
        .collect();
    out.push(("paper_identity_chain".into(), in_place(&identities)));
    let mut strength = String::from(
        ".base x f64[1000] input\n.base a f64[1000]\n.base t f64[1000]\nBH_IDENTITY a x\n",
    );
    for _ in 0..4 {
        let c = rng.pick(&["1", "2", "3"]);
        let _ = write!(
            strength,
            "BH_MULTIPLY a a 2\nBH_DIVIDE a a 4\nBH_SUBTRACT t a a\nBH_ADD a a t\nBH_ADD a a {c}\n"
        );
    }
    strength.push_str("BH_SYNC a\n");
    out.push(("paper_strength_chain".into(), strength));
}

/// `wire_hot_small`: 24 element-wise ops alternating three mergeable
/// adds with three mergeable multiplies.
fn wire_small(rng: &mut Rng) -> String {
    let mut t = Text::new(".base a f64[48]\n");
    t.op("BH_RANGE a");
    for run in 0..8 {
        for _ in 0..3 {
            if run % 2 == 0 {
                t.op(&format!("BH_ADD a a {}", rng.pick(&["1", "2", "3"])));
            } else {
                t.op(&format!("BH_MULTIPLY a a {}", rng.pick(&["2", "0.5"])));
            }
        }
    }
    t.op("BH_SYNC a");
    t.out
}

/// `kernel_stream`'s `chain16`: 16 ops through alternating temporaries,
/// ×1.5/×0.5 and +¼k. With `reduce` it is `chain_reduce16`, whose result
/// is summed.
fn kernel_chain16(rng: &mut Rng, reduce: bool) -> String {
    let mut t = Text::new(".base x f64[64] input\n.base t0 f64[64]\n.base t1 f64[64]\n");
    let mut src = "x";
    for i in 0..16 {
        let dst = ["t0", "t1"][i % 2];
        if i % 2 == 0 {
            let c = if i % 4 == 0 { "1.5" } else { "0.5" };
            t.op(&format!("BH_MULTIPLY {dst} {src} {c}"));
        } else {
            let c = 0.25 * (1 + rng.below(8)) as f64;
            t.op(&format!("BH_ADD {dst} {src} {c}"));
        }
        src = dst;
    }
    if reduce {
        t.out
            .insert_str(t.out.find("BH_").unwrap(), ".base s f64[]\n");
        t.op(&format!("BH_ADD_REDUCE s {src} 0"));
        t.op("BH_SYNC s");
    } else {
        t.op(&format!("BH_SYNC {src}"));
    }
    t.out
}

/// What `bh-frontend` records for the array `build` returns, with the
/// `BH_SYNC` that evaluating it appends.
fn frontend_recording(build: impl FnOnce(&Context) -> BhArray) -> String {
    let ctx = Context::new();
    let result = build(&ctx);
    let mut program = parse_program(&ctx.recorded_text(PrintStyle::FULL)).unwrap();
    program.push(Instruction::sync(ViewRef::full(result.reg())));
    program.to_text(PrintStyle::FULL)
}

/// Listing 1 and three nested expressions, as `bh-frontend` records them:
/// every `x ⊕ c` into a fresh register, freed when its handle drops.
fn frontend_cases(out: &mut Vec<(String, String)>) {
    let f64_input = |ctx: &Context| ctx.array(Tensor::from_vec(vec![0.25f64; 64]));
    out.push((
        "frontend_listing1".into(),
        frontend_recording(|ctx| {
            let mut a = ctx.zeros(DType::Float64, Shape::vector(10));
            a += 1.0;
            a += 1.0;
            a += 1.0;
            a
        }),
    ));
    out.push((
        "frontend_nested_f64".into(),
        frontend_recording(|ctx| {
            let x = f64_input(ctx);
            (&x * 1.5 + 0.25) * 0.5 + 0.75
        }),
    ));
    out.push((
        "frontend_nested_i64".into(),
        frontend_recording(|ctx| {
            let x = ctx.array(Tensor::from_vec(vec![7i64; 64]));
            (&x * 3i64 + 1i64) * 2i64 - 5i64
        }),
    ));
    out.push((
        "frontend_nested_through_maximum".into(),
        frontend_recording(|ctx| {
            let x = f64_input(ctx);
            let m =
                ((&x * 1.5 + 0.25) * 2.0 + 1.0).binary_scalar(Opcode::Maximum, Scalar::F64(0.0));
            (m * 0.5 + 0.25) * 4.0 - 3.0
        }),
    ));
}

/// The inputs of the rule unit tests in `crates/core/src/rules/` and
/// `pipeline.rs`.
const UNIT_INPUTS: &[(&str, &str)] = &[
    (
        "listing2",
        "BH_IDENTITY a0 [0:10:1] 0\nBH_ADD a0 [0:10:1] a0 [0:10:1] 1\n\
         BH_ADD a0 [0:10:1] a0 [0:10:1] 1\nBH_ADD a0 [0:10:1] a0 [0:10:1] 1\nBH_SYNC a0 [0:10:1]\n",
    ),
    (
        "merge_int_chain",
        ".base a0 i64[10]\nBH_IDENTITY a0 0\nBH_ADD a0 a0 1\nBH_ADD a0 a0 1\nBH_SYNC a0\n",
    ),
    (
        "merge_multiply_chain",
        "BH_IDENTITY a0 [0:4:1] 1\nBH_MULTIPLY a0 a0 2\nBH_MULTIPLY a0 a0 3\nBH_SYNC a0\n",
    ),
    (
        "merge_subtract_chain",
        "BH_IDENTITY a0 [0:4:1] 10\nBH_SUBTRACT a0 a0 2\nBH_SUBTRACT a0 a0 3\nBH_SYNC a0\n",
    ),
    (
        "merge_left_constant_subtract",
        "BH_IDENTITY a0 [0:4:1] 1\nBH_SUBTRACT a0 10 a0\nBH_SUBTRACT a0 20 a0\nBH_SYNC a0\n",
    ),
    (
        "merge_intervening_read",
        "BH_IDENTITY a0 [0:4:1] 0\nBH_IDENTITY b0 [0:4:1] 0\nBH_ADD a0 a0 1\nBH_ADD b0 b0 a0\n\
         BH_ADD a0 a0 1\nBH_SYNC a0\nBH_SYNC b0\n",
    ),
    (
        "merge_mixed_ops",
        "BH_IDENTITY a0 [0:4:1] 1\nBH_ADD a0 a0 1\nBH_MULTIPLY a0 a0 2\nBH_SYNC a0\n",
    ),
    (
        "merge_different_views",
        "BH_IDENTITY a0 [0:8:1] 0\nBH_ADD a0 [0:4:1] a0 [0:4:1] 1\n\
         BH_ADD a0 [4:8:1] a0 [4:8:1] 1\nBH_SYNC a0\n",
    ),
    (
        "merge_sliced_same_views",
        "BH_IDENTITY a0 [0:8:1] 0\nBH_ADD a0 [0:4:1] a0 [0:4:1] 1\n\
         BH_ADD a0 [0:4:1] a0 [0:4:1] 2\nBH_ADD a0 [4:8:1] a0 [4:8:1] 5\n\
         BH_ADD a0 [4:8:1] a0 [4:8:1] 6\nBH_SYNC a0\n",
    ),
    (
        "merge_cross_register_source",
        "BH_IDENTITY b0 [0:4:1] 7\nBH_ADD a0 [0:4:1] b0 1\nBH_ADD a0 a0 2\nBH_ADD a0 a0 3\n\
         BH_SYNC a0\nBH_SYNC b0\n",
    ),
    (
        "merge_source_rewritten_between",
        "BH_IDENTITY b0 [0:4:1] 7\nBH_ADD a0 [0:4:1] b0 1\nBH_ADD b0 b0 9\nBH_ADD a0 a0 2\n\
         BH_SYNC a0\nBH_SYNC b0\n",
    ),
    (
        "merge_source_write_absorbed_later",
        "BH_IDENTITY b0 [0:4:1] 7\nBH_ADD a0 [0:4:1] b0 1\nBH_MAXIMUM b0 b0 3\nBH_ADD a0 a0 2\n\
         BH_MAXIMUM b0 b0 1\nBH_SYNC a0\nBH_SYNC b0\n",
    ),
    (
        "merge_reopened_before_later_positions",
        "BH_IDENTITY b0 [0:4:1] 7\nBH_ADD a0 [0:4:1] b0 1\nBH_MAXIMUM b0 b0 3\nBH_ADD a0 a0 2\n\
         BH_MAXIMUM b0 b0 1\nBH_ADD a0 a0 4\nBH_SYNC a0\nBH_SYNC b0\n",
    ),
    (
        "merge_commutative_either_side",
        "BH_IDENTITY a0 [0:4:1] 0\nBH_ADD a0 1 a0\nBH_ADD a0 a0 2\nBH_SYNC a0\n",
    ),
    (
        "merge_bool_xor",
        ".base a0 bool[4]\nBH_IDENTITY a0 true\nBH_SUBTRACT a0 a0 true\n\
         BH_SUBTRACT a0 a0 true\nBH_SYNC a0\n",
    ),
    (
        "merge_u8_wrap",
        ".base a0 u8[4]\nBH_IDENTITY a0 0\nBH_ADD a0 a0 200\nBH_ADD a0 a0 100\nBH_SYNC a0\n",
    ),
    (
        "merge_min_max_bitwise",
        ".base a0 i32[4]\nBH_IDENTITY a0 9\nBH_MAXIMUM a0 a0 3\nBH_MAXIMUM a0 a0 5\n\
         BH_MINIMUM a0 a0 8\nBH_MINIMUM a0 a0 7\nBH_BITWISE_AND a0 a0 12\nBH_BITWISE_AND a0 a0 10\n\
         BH_SYNC a0\n",
    ),
    (
        "merge_non_integral_constant_on_int",
        ".base a0 i64[4]\nBH_IDENTITY a0 0\nBH_ADD a0 a0 1.5\nBH_ADD a0 a0 2\nBH_ADD a0 a0 3\n\
         BH_SYNC a0\n",
    ),
    (
        "cse_duplicate",
        "BH_IDENTITY a [0:4:1] 3\nBH_MULTIPLY x [0:4:1] a a\nBH_MULTIPLY y [0:4:1] a a\n\
         BH_SYNC x\nBH_SYNC y\n",
    ),
    (
        "cse_commutative",
        "BH_IDENTITY a [0:4:1] 3\nBH_IDENTITY b [0:4:1] 4\nBH_ADD x [0:4:1] a b\n\
         BH_ADD y [0:4:1] b a\nBH_SYNC x\nBH_SYNC y\n",
    ),
    (
        "cse_non_commutative",
        "BH_IDENTITY a [0:4:1] 3\nBH_IDENTITY b [0:4:1] 4\nBH_SUBTRACT x [0:4:1] a b\n\
         BH_SUBTRACT y [0:4:1] b a\nBH_SYNC x\nBH_SYNC y\n",
    ),
    (
        "cse_intervening_write",
        "BH_IDENTITY a [0:4:1] 3\nBH_MULTIPLY x [0:4:1] a a\nBH_ADD a a 1\n\
         BH_MULTIPLY y [0:4:1] a a\nBH_SYNC x\nBH_SYNC y\n",
    ),
    (
        "cse_overwritten_result",
        "BH_IDENTITY a [0:4:1] 3\nBH_MULTIPLY x [0:4:1] a a\nBH_IDENTITY x 0\n\
         BH_MULTIPLY y [0:4:1] a a\nBH_SYNC x\nBH_SYNC y\n",
    ),
    (
        "cse_self_updates",
        "BH_IDENTITY a [0:4:1] 0\nBH_ADD a a 1\nBH_ADD a a 1\nBH_SYNC a\n",
    ),
    (
        "cse_constants_in_keys",
        "BH_IDENTITY a [0:4:1] 3\nBH_ADD x [0:4:1] a 1\nBH_ADD y [0:4:1] a 2\n\
         BH_ADD z [0:4:1] a 1\nBH_ADD w [0:4:1] 1.0 a\nBH_SYNC x\nBH_SYNC y\nBH_SYNC z\nBH_SYNC w\n",
    ),
    (
        "cse_sliced_views",
        "BH_IDENTITY a [0:8:1] 3\nBH_MULTIPLY x [0:4:1] a [0:4:1] a [0:4:1]\n\
         BH_MULTIPLY y [0:4:1] a [4:8:1] a [4:8:1]\nBH_MULTIPLY z [0:4:1] a [0:4:1] a [0:4:1]\n\
         BH_SYNC x\nBH_SYNC y\nBH_SYNC z\n",
    ),
    (
        "cse_mixed_dtype_outputs",
        ".base a f64[4]\n.base x f64[4]\n.base y i32[4]\n.base z f64[4]\nBH_IDENTITY a 3\n\
         BH_SQRT x a\nBH_SQRT y a\nBH_SQRT z a\nBH_SYNC x\nBH_SYNC y\nBH_SYNC z\n",
    ),
    (
        "cse_recomputed_after_invalidation",
        "BH_IDENTITY a [0:4:1] 3\nBH_IDENTITY b [0:4:1] 4\nBH_ADD x [0:4:1] a b\n\
         BH_ADD a a 1\nBH_ADD y [0:4:1] a b\nBH_ADD z [0:4:1] b a\nBH_IDENTITY b 5\n\
         BH_ADD w [0:4:1] a b\nBH_SYNC x\nBH_SYNC y\nBH_SYNC z\nBH_SYNC w\n",
    ),
    (
        "dce_unsynced",
        "BH_IDENTITY a [0:4:1] 1\nBH_IDENTITY b [0:4:1] 2\nBH_SYNC a\n",
    ),
    (
        "dce_overwritten_store",
        "BH_IDENTITY a [0:4:1] 1\nBH_IDENTITY a [0:4:1] 2\nBH_SYNC a\n",
    ),
    (
        "dce_transitive",
        "BH_IDENTITY a [0:4:1] 1\nBH_ADD b [0:4:1] a 1\nBH_ADD c [0:4:1] b 1\nBH_SYNC a\n",
    ),
    (
        "dce_partial_write",
        "BH_IDENTITY a [0:8:1] 1\nBH_IDENTITY a [0:4:1] 2\nBH_SYNC a\n",
    ),
    (
        "dce_system_ops",
        "BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\nBH_FREE a\n",
    ),
    (
        "dce_kept_alive_only_by_free",
        "BH_IDENTITY a [0:4:1] 1\nBH_ADD b [0:4:1] a 1\nBH_FREE b\nBH_SYNC a\n",
    ),
    (
        "copyprop_reads_route_around",
        "BH_IDENTITY a [0:4:1] 5\nBH_IDENTITY b [0:4:1] a\nBH_ADD c [0:4:1] b b\nBH_SYNC c\n",
    ),
    (
        "copyprop_write_to_source",
        "BH_IDENTITY a [0:4:1] 5\nBH_IDENTITY b [0:4:1] a\nBH_IDENTITY a [0:4:1] 9\n\
         BH_ADD c [0:4:1] b b\nBH_SYNC c\n",
    ),
    (
        "copyprop_write_to_target",
        "BH_IDENTITY a [0:4:1] 5\nBH_IDENTITY b [0:4:1] a\nBH_ADD b [0:4:1] b 1\n\
         BH_ADD c [0:4:1] b b\nBH_SYNC c\n",
    ),
    (
        "copyprop_sliced_reads",
        "BH_IDENTITY a [0:8:1] 5\nBH_IDENTITY b [0:8:1] a\nBH_ADD c [0:4:1] b [0:4:1] b [4:8:1]\n\
         BH_SYNC c\n",
    ),
    (
        "copyprop_cast_copies",
        ".base a f64[4]\n.base b i32[4]\n.base c i32[4]\nBH_IDENTITY a 5\nBH_IDENTITY b a\n\
         BH_ADD c b b\nBH_SYNC c\n",
    ),
    (
        "copyprop_free_invalidates",
        "BH_IDENTITY a [0:4:1] 5\nBH_IDENTITY b [0:4:1] a\nBH_FREE a\nBH_ADD c [0:4:1] b b\n\
         BH_SYNC c\n",
    ),
    (
        "copyprop_chains",
        "BH_IDENTITY a [0:4:1] 5\nBH_IDENTITY b [0:4:1] a\nBH_IDENTITY c [0:4:1] b\n\
         BH_ADD d [0:4:1] c c\nBH_SYNC d\n",
    ),
    (
        "simplify_add_zero",
        "BH_IDENTITY a0 [0:4:1] 5\nBH_ADD a0 a0 0\nBH_ADD b0 [0:4:1] a0 0\nBH_SYNC a0\nBH_SYNC b0\n",
    ),
    (
        "simplify_multiply_one_power_one",
        "BH_IDENTITY a0 [0:4:1] 5\nBH_MULTIPLY a0 a0 1\nBH_POWER a0 a0 1\nBH_SYNC a0\n",
    ),
    (
        "simplify_annihilator",
        ".base a0 i32[4]\nBH_IDENTITY a0 5\nBH_MULTIPLY a0 a0 0\nBH_SYNC a0\n",
    ),
    (
        "simplify_subtract_zero_sides",
        "BH_IDENTITY a0 [0:4:1] 5\nBH_SUBTRACT a0 a0 0\nBH_SUBTRACT a0 0 a0\nBH_SYNC a0\n",
    ),
    (
        "simplify_logical_lattice",
        ".base m bool[4]\nBH_IDENTITY m true\nBH_LOGICAL_AND m m true\nBH_LOGICAL_OR m m true\n\
         BH_SYNC m\n",
    ),
    (
        "simplify_shift_by_zero",
        ".base a0 u32[4]\nBH_IDENTITY a0 5\nBH_LEFT_SHIFT a0 a0 0\nBH_SYNC a0\n",
    ),
    (
        "trivial_copy",
        "BH_IDENTITY a0 [0:4:1] 1\nBH_IDENTITY a0 a0\nBH_SYNC a0\n",
    ),
    (
        "linalg_eq2",
        ".base a f64[8,8] input\n.base b f64[8] input\n.base t f64[8,8]\n.base x f64[8]\n\
         BH_INVERSE t a\nBH_MATMUL x t b\nBH_SYNC x\n",
    ),
    (
        "linalg_other_use",
        ".base a f64[8,8] input\n.base b f64[8] input\n.base t f64[8,8]\n.base x f64[8]\n\
         .base y f64[8,8]\nBH_INVERSE t a\nBH_MATMUL x t b\nBH_ADD y t t\nBH_SYNC x\nBH_SYNC y\n",
    ),
    (
        "linalg_free_afterwards",
        ".base a f64[8,8] input\n.base b f64[8] input\n.base t f64[8,8]\n.base x f64[8]\n\
         BH_INVERSE t a\nBH_MATMUL x t b\nBH_FREE t\nBH_SYNC x\n",
    ),
    (
        "linalg_right_multiplication",
        ".base a f64[8,8] input\n.base b f64[8,8] input\n.base t f64[8,8]\n.base x f64[8,8]\n\
         BH_INVERSE t a\nBH_MATMUL x b t\nBH_SYNC x\n",
    ),
    (
        "linalg_modified_matrix",
        ".base a f64[8,8] input\n.base b f64[8] input\n.base t f64[8,8]\n.base x f64[8]\n\
         BH_INVERSE t a\nBH_ADD a a 1\nBH_MATMUL x t b\nBH_SYNC x\n",
    ),
    (
        "linalg_repeated",
        ".base a f64[4,4] input\n.base b f64[4] input\n.base c f64[4,4] input\n.base d f64[4] input\n\
         .base t1 f64[4,4]\n.base t2 f64[4,4]\n.base x f64[4]\n.base y f64[4]\n\
         BH_INVERSE t1 a\nBH_MATMUL x t1 b\nBH_INVERSE t2 c\nBH_MATMUL y t2 d\nBH_SYNC x\nBH_SYNC y\n",
    ),
    (
        "linalg_inverse_of_inverse",
        ".base z f64[4,4] input\n.base b f64[4] input\n.base a f64[4,4]\n.base t f64[4,4]\n\
         .base x f64[4]\n.base w f64[4]\nBH_INVERSE a z\nBH_MATMUL w a b\nBH_INVERSE t a\n\
         BH_MATMUL x t b\nBH_SYNC x\nBH_SYNC w\n",
    ),
    (
        "power_x10",
        "BH_IDENTITY a0 [0:100:1] 2\nBH_POWER a1 [0:100:1] a0 [0:100:1] 10\nBH_SYNC a1\n",
    ),
    (
        "power_zero_and_one",
        "BH_IDENTITY a0 [0:4:1] 3\nBH_POWER a1 [0:4:1] a0 0\nBH_POWER a2 [0:4:1] a0 1\n\
         BH_SYNC a1\nBH_SYNC a2\n",
    ),
    (
        "power_in_place",
        "BH_IDENTITY a0 [0:4:1] 3\nBH_POWER a0 a0 8\nBH_POWER a0 a0 10\nBH_SYNC a0\n",
    ),
    (
        "power_negative_fractional",
        "BH_IDENTITY a0 [0:4:1] 3\nBH_POWER a1 [0:4:1] a0 -2\nBH_POWER a2 [0:4:1] a0 2.5\n\
         BH_SYNC a1\nBH_SYNC a2\n",
    ),
    (
        "power_budget",
        "BH_IDENTITY a0 [0:4:1] 2\nBH_POWER a1 [0:4:1] a0 1000000\nBH_SYNC a1\n",
    ),
    (
        "power_int",
        ".base a0 i64[4]\n.base a1 i64[4]\nBH_IDENTITY a0 2\nBH_POWER a1 a0 10\nBH_SYNC a1\n",
    ),
    (
        "power_u8_wide_exponent",
        ".base a0 u8[4]\n.base a1 u8[4]\nBH_IDENTITY a0 2\nBH_POWER a1 a0 257\nBH_SYNC a1\n",
    ),
    (
        "reroll_optimal_fixpoint",
        "BH_IDENTITY a0 [0:4:1] 2\nBH_MULTIPLY a1 [0:4:1] a0 a0\nBH_MULTIPLY a1 a1 a1\n\
         BH_MULTIPLY a1 a1 a0\nBH_MULTIPLY a1 a1 a1\nBH_SYNC a1\n",
    ),
    (
        "reroll_unrelated_multiplies",
        "BH_IDENTITY a0 [0:4:1] 2\nBH_IDENTITY b0 [0:4:1] 3\nBH_MULTIPLY c0 [0:4:1] a0 b0\n\
         BH_MULTIPLY c0 c0 b0\nBH_SYNC c0\n",
    ),
    (
        "reroll_listing5",
        "BH_IDENTITY a0 [0:4:1] 2\nBH_MULTIPLY a1 [0:4:1] a0 a0\nBH_MULTIPLY a1 a1 a1\n\
         BH_MULTIPLY a1 a1 a1\nBH_MULTIPLY a1 a1 a0\nBH_MULTIPLY a1 a1 a0\nBH_SYNC a1\n",
    ),
    (
        "strength_multiply_by_two",
        "BH_IDENTITY a [0:4:1] 3\nBH_MULTIPLY a a 2\nBH_MULTIPLY a a 3\nBH_SYNC a\n",
    ),
    (
        "strength_float_divide",
        "BH_IDENTITY a [0:4:1] 3\nBH_DIVIDE a a 8\nBH_DIVIDE a a 3\nBH_DIVIDE a 8 a\nBH_SYNC a\n",
    ),
    (
        "strength_unsigned_divide",
        ".base a u32[4]\nBH_IDENTITY a 64\nBH_DIVIDE a a 16\nBH_SYNC a\n",
    ),
    (
        "strength_signed_divide",
        ".base a i32[4]\nBH_IDENTITY a -7\nBH_DIVIDE a a 4\nBH_SYNC a\n",
    ),
    (
        "strength_self_subtract_xor",
        ".base a i64[4]\n.base z i64[4]\n.base w i64[4]\nBH_IDENTITY a 9\nBH_SUBTRACT z a a\n\
         BH_BITWISE_XOR w a a\nBH_SYNC z\nBH_SYNC w\n",
    ),
    (
        "strength_float_self_subtract",
        "BH_IDENTITY a [0:4:1] 9\nBH_SUBTRACT z [0:4:1] a a\nBH_SYNC z\n",
    ),
    (
        "pipeline_combined",
        ".base m f64[8,8] input\n.base rhs f64[8] input\n.base t f64[8,8]\n.base x f64[8]\n\
         .base v f64[64]\n.base w f64[64]\nBH_IDENTITY v 0\nBH_ADD v v 1\nBH_ADD v v 1\nBH_ADD v v 1\n\
         BH_POWER w v 10\nBH_INVERSE t m\nBH_MATMUL x t rhs\nBH_SYNC w\nBH_SYNC x\n",
    ),
    (
        "heat_stencil_sliced",
        ".base u f64[64] input\n.base v f64[64]\nBH_IDENTITY v u\n\
         BH_ADD v [1:63:1] u [0:62:1] u [2:64:1]\nBH_MULTIPLY v [1:63:1] v [1:63:1] 0.5\n\
         BH_ADD v [1:63:1] v [1:63:1] u [1:63:1]\nBH_MULTIPLY v [1:63:1] v [1:63:1] 0.5\n\
         BH_MULTIPLY v [1:63:1] v [1:63:1] 4\nBH_SYNC v\n",
    ),
];

fn corpus() -> Vec<(String, String)> {
    let mut rng = Rng(0x0601_D0C5);
    let mut out: Vec<(String, String)> = Vec::new();
    for len in [33, 128] {
        out.push((
            format!("churn_constant_merge_{len}"),
            churn_constant_merge(len, &mut rng),
        ));
        out.push((format!("churn_power_{len}"), churn_power(len, &mut rng)));
        out.push((
            format!("churn_identities_{len}"),
            churn_identities(len, &mut rng),
        ));
        out.push((
            format!("churn_temporaries_{len}"),
            churn_temporaries(len, &mut rng, false),
        ));
        out.push((
            format!("churn_reduce_tail_{len}"),
            churn_temporaries(len, &mut rng, true),
        ));
    }
    paper_cases(&mut rng, &mut out);
    out.push(("wire_hot_small".into(), wire_small(&mut rng)));
    out.push(("kernel_chain16".into(), kernel_chain16(&mut rng, false)));
    out.push((
        "kernel_chain_reduce16".into(),
        kernel_chain16(&mut rng, true),
    ));
    frontend_cases(&mut out);
    // Listing 4: x^10 as nine multiplies.
    let mut listing4 = String::from("BH_IDENTITY a0 [0:100:1] 2\nBH_MULTIPLY a1 [0:100:1] a0 a0\n");
    for _ in 0..8 {
        listing4.push_str("BH_MULTIPLY a1 a1 a0\n");
    }
    listing4.push_str("BH_SYNC a1\n");
    out.push(("listing4".into(), listing4));
    out.extend(
        UNIT_INPUTS
            .iter()
            .map(|(name, text)| ((*name).to_owned(), (*text).to_owned())),
    );
    out
}

/// The option sets every case runs under, and whether every rule
/// application is audited ([`Audited`]).
fn variants() -> Vec<(&'static str, OptOptions, bool)> {
    vec![
        ("O2", OptOptions::default(), false),
        ("O2 strict-math", OptOptions::default().strict_math(), false),
        ("O2 observe-all", OptOptions::default().observe_all(), false),
        ("O1", OptOptions::level(OptLevel::O1), false),
        ("O2 audit-per-rule", OptOptions::default(), true),
    ]
}

/// Everything pinned about one case: per variant the sweep count, the
/// audit counters, the per-rule application counts, a hash of the raw
/// instruction structure and the plan text.
fn render(name: &str, text: &str) -> String {
    let source = parse_program(text).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut out = String::new();
    for (label, options, audited) in variants() {
        let mut program = source.clone();
        let (optimizer, tally) = if audited {
            Audited::optimizer(options)
        } else {
            (Optimizer::new(options), Default::default())
        };
        let report = optimizer.run(&mut program);
        let _ = writeln!(out, "== {label}");
        let _ = writeln!(
            out,
            "iterations {} audits {} rollbacks {} bytecodes {} -> {}",
            report.iterations,
            tally.audits(),
            tally.rollbacks(),
            source.live_len(),
            program.live_len()
        );
        for (rule, n) in &report.by_rule {
            let _ = writeln!(out, "{rule} {n}");
        }
        // The printer writes `a` and `a [0:n:1]` alike; the hash of the
        // raw operand structure pins what the text cannot show.
        let _ = writeln!(
            out,
            "raw {:016x}",
            fnv1a(&format!("{:?}", program.instrs()))
        );
        out.push_str(&program.to_text(PrintStyle::FULL));
    }
    out
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/opt")
}

#[test]
fn optimiser_output_matches_the_blessed_corpus() {
    let dir = golden_dir();
    let bless = std::env::var_os("BLESS_GOLDEN").is_some();
    if bless {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let cases = corpus();
    let mut drifted = Vec::new();
    for (name, text) in &cases {
        let rendered = render(name, text);
        let path = dir.join(format!("{name}.txt"));
        if bless {
            std::fs::write(&path, rendered).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden file {path:?} ({e}); run `BLESS_GOLDEN=1 cargo test --test opt_golden` to create it")
        });
        if rendered != want {
            drifted.push(format!(
                "--- {name}: want\n{want}\n--- {name}: got\n{rendered}"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "optimiser output drifted from {dir:?} for {} case(s); plans are pinned — re-bless only \
         for a deliberate plan change (`BLESS_GOLDEN=1 cargo test --test opt_golden`):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

#[test]
fn corpus_names_are_unique_and_every_golden_has_a_case() {
    let mut names: Vec<String> = corpus().into_iter().map(|(n, _)| n).collect();
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "duplicate case names");
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        return;
    }
    for entry in std::fs::read_dir(golden_dir()).unwrap() {
        let file = entry.unwrap().file_name().into_string().unwrap();
        let stem = file.trim_end_matches(".txt");
        assert!(
            names.binary_search(&stem.to_owned()).is_ok(),
            "stale golden file {file}: no corpus case of that name"
        );
    }
}

/// README.md's optimiser rule table lists exactly the O2 schedule, in
/// order, with the O1 subset marked `O1`.
#[test]
fn readme_rule_table_lists_the_schedule() {
    let readme =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("README.md"))
            .expect("README.md is readable");
    let section = readme
        .split("## The optimiser's rules")
        .nth(1)
        .expect("README.md has the optimiser rule section");
    let rows: Vec<(&str, &str)> = section
        .lines()
        .skip_while(|line| !line.starts_with("| rule |"))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            (cells[1].trim_matches('`'), cells[2])
        })
        .collect();
    let listed: Vec<&str> = rows.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        listed,
        Optimizer::default().rule_names(),
        "README rule table vs O2"
    );
    let o1: Vec<&str> = rows
        .iter()
        .filter(|&&(_, level)| level == "O1")
        .map(|&(name, _)| name)
        .collect();
    assert_eq!(
        o1,
        Optimizer::new(OptOptions::level(OptLevel::O1)).rule_names(),
        "README rule table's O1 marks vs O1"
    );
}
