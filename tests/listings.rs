//! Integration tests: every listing of the paper, verbatim, through the
//! whole stack (parse → verify → optimise → execute → compare), and each
//! shape claim of DESIGN.md §5 (E2–E7) pinned as an exact count.

use bohrium_repro::ir::{
    parse_program, parse_program_with, Opcode, ParseOptions, PrintStyle, Program,
};
use bohrium_repro::linalg::{inverse_solve_flops, lu_solve_flops};
use bohrium_repro::opt::{chains, optimize, optimize_at, OptLevel, RewriteCtx};
use bohrium_repro::tensor::{DType, Shape};
use bohrium_repro::testing::{assert_equivalent, input_tensor};
use bohrium_repro::vm::{Engine, ExecStats, Vm};

/// Listing 2 — "Adding three ones with Bohrium", exactly as printed.
const LISTING_2: &str = "\
BH_IDENTITY a0 [0:10:1] 0
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_SYNC a0 [0:10:1]
";

/// Listing 3 — "Optimized adding three ones with Bohrium" (views elided in
/// the paper; shape supplied via options).
const LISTING_3: &str = "\
BH_IDENTITY a0 0
BH_ADD a0 a0 3
BH_SYNC a0
";

/// Listing 5 — x¹⁰ with five multiplies (comments as printed).
const LISTING_5: &str = "\
BH_IDENTITY a0 [0:64:1] 1.01  # initialize the tensor , x
BH_MULTIPLY a1 [0:64:1] a0 [0:64:1] a0 [0:64:1] # x^2
BH_MULTIPLY a1 a1 a1 # x^4
BH_MULTIPLY a1 a1 a1 # x^8
BH_MULTIPLY a1 a1 a0 # x^9
BH_MULTIPLY a1 a1 a0 # x^10
BH_SYNC a1
";

fn listing3_options() -> ParseOptions {
    ParseOptions {
        default_dtype: DType::Float64,
        default_shape: Some(Shape::vector(10)),
    }
}

#[test]
fn listing2_parses_validates_and_executes() {
    let p = parse_program(LISTING_2).unwrap();
    bohrium_repro::ir::verify(&p).unwrap();
    let mut vm = Vm::new();
    vm.run(&p).unwrap();
    assert_eq!(
        vm.read_by_name(&p, "a0").unwrap().to_f64_vec(),
        vec![3.0; 10]
    );
}

#[test]
fn listing2_round_trips_through_the_printer() {
    let p = parse_program(LISTING_2).unwrap();
    assert_eq!(p.to_text(PrintStyle::LISTING), LISTING_2);
}

#[test]
fn optimizing_listing2_yields_listing3() {
    let mut p = parse_program(LISTING_2).unwrap();
    optimize(&mut p);
    let expected = parse_program_with(LISTING_3, &listing3_options()).unwrap();
    // Same instruction structure: one identity, one add-of-3, one sync.
    assert_eq!(p.instrs().len(), expected.instrs().len());
    assert_eq!(p.count_op(Opcode::Add), 1);
    let text = p.to_text(PrintStyle::COMPACT);
    assert!(text.contains("BH_ADD a0 a0 3"), "{text}");
}

#[test]
fn listing2_and_listing3_are_semantically_equal() {
    let unopt = parse_program(LISTING_2).unwrap();
    let opt = parse_program_with(LISTING_3, &listing3_options()).unwrap();
    assert_equivalent(&unopt, &opt, 42, 0.0);
}

#[test]
fn listing5_parses_and_computes_x_to_10() {
    let p = parse_program(LISTING_5).unwrap();
    assert_eq!(p.count_op(Opcode::Multiply), 5);
    let mut vm = Vm::new();
    vm.run(&p).unwrap();
    let expected = 1.01f64.powi(10);
    for v in vm.read_by_name(&p, "a1").unwrap().to_f64_vec() {
        assert!((v - expected).abs() < 1e-12, "{v} vs {expected}");
    }
}

#[test]
fn listing4_optimizes_past_listing5() {
    // Listing 4: x^10 with nine multiplies.
    let mut text = String::from(
        "BH_IDENTITY a0 [0:64:1] 1.01\nBH_MULTIPLY a1 [0:64:1] a0 [0:64:1] a0 [0:64:1]\n",
    );
    for _ in 0..8 {
        text.push_str("BH_MULTIPLY a1 a1 a0\n");
    }
    text.push_str("BH_SYNC a1\n");
    let unopt = parse_program(&text).unwrap();
    let mut opt = unopt.clone();
    optimize(&mut opt);
    // The re-roll + expansion pipeline lands on the optimal 4-multiply
    // schedule — one better than the paper's Listing 5.
    assert_eq!(opt.count_op(Opcode::Multiply), 4, "{opt}");
    assert_eq!(opt.count_op(Opcode::Power), 0);
    assert_equivalent(&unopt, &opt, 7, 1e-9);
}

#[test]
fn power_bytecode_expands_to_optimal_chain() {
    let unopt = parse_program(
        "BH_IDENTITY a0 [0:64:1] 1.01\n\
         BH_POWER a1 [0:64:1] a0 [0:64:1] 10\n\
         BH_SYNC a1\n",
    )
    .unwrap();
    let mut opt = unopt.clone();
    optimize(&mut opt);
    assert_eq!(opt.count_op(Opcode::Power), 0);
    assert_eq!(opt.count_op(Opcode::Multiply), 4);
    assert_equivalent(&unopt, &opt, 3, 1e-9);
}

#[test]
fn eq2_pattern_rewrites_and_matches() {
    let unopt = parse_program(
        ".base a f64[12,12] input\n\
         .base b f64[12] input\n\
         .base t f64[12,12]\n\
         .base x f64[12]\n\
         BH_INVERSE t a\n\
         BH_MATMUL x t b\n\
         BH_SYNC x\n",
    )
    .unwrap();
    let mut opt = unopt.clone();
    optimize(&mut opt);
    assert_eq!(opt.count_op(Opcode::Inverse), 0);
    assert_eq!(opt.count_op(Opcode::Solve), 1);
    // The seeded inputs are uniform in [1, 2) with no diagonal boost; such
    // a 12 × 12 matrix is invertible in practice. The tolerance is loose
    // because inverse-then-multiply and LU solve round differently.
    assert_equivalent(&unopt, &opt, 5, 1e-6);
}

#[test]
fn o0_keeps_every_listing_unchanged() {
    for (text, opts) in [
        (LISTING_2, ParseOptions::default()),
        (LISTING_5, ParseOptions::default()),
    ] {
        let p = parse_program_with(text, &opts).unwrap();
        let mut q = p.clone();
        optimize_at(&mut q, OptLevel::O0);
        assert_eq!(p, q);
    }
}

#[test]
fn full_style_round_trip_preserves_semantics() {
    for text in [LISTING_2, LISTING_5] {
        let p = parse_program(text).unwrap();
        let printed = p.to_text(PrintStyle::FULL);
        let q = parse_program(&printed).unwrap();
        assert_equivalent(&p, &q, 9, 0.0);
    }
}

// --- The paper's shape claims as exact counts (DESIGN.md §5) -------------

/// Run `program` on `engine` with seeded inputs and return its counters.
fn exec_stats(program: &Program, engine: Engine) -> ExecStats {
    let mut vm = Vm::with_engine(engine);
    for (i, base) in program.bases().iter().enumerate() {
        if base.is_input {
            vm.bind_by_name(program, &base.name, &input_tensor(program, i, 11))
                .unwrap();
        }
    }
    vm.run(program).unwrap();
    *vm.stats()
}

/// Listing-2 shape: `k` constant adds over a 1 000-element vector.
fn add_chain(k: usize) -> Program {
    let mut text = String::from("BH_IDENTITY a0 [0:1000:1] 0\n");
    for _ in 0..k {
        text.push_str("BH_ADD a0 a0 1\n");
    }
    text.push_str("BH_SYNC a0\n");
    parse_program(&text).unwrap()
}

/// `y = x^n` as one `BH_POWER` byte-code over a bound input.
fn power_program(n: u64) -> Program {
    parse_program(&format!(
        ".base x f64[64] input\n.base y f64[64]\nBH_POWER y x {n}\nBH_SYNC y\n"
    ))
    .unwrap()
}

#[test]
fn e2_constant_merge_leaves_three_bytecodes_and_two_kernels() {
    for k in [3, 8, 32] {
        let unopt = add_chain(k);
        assert_eq!(unopt.live_len(), k + 2);
        assert_eq!(exec_stats(&unopt, Engine::Naive).kernels, k as u64 + 1);
        for level in [OptLevel::O1, OptLevel::O2] {
            let mut opt = unopt.clone();
            optimize_at(&mut opt, level);
            assert_eq!(opt.live_len(), 3, "k = {k} at {level:?}:\n{opt}");
            assert_eq!(exec_stats(&opt, Engine::Naive).kernels, 2);
            assert_equivalent(&unopt, &opt, 1, 0.0);
        }
    }
}

#[test]
fn e3_e4_power_schedules_match_the_multiply_table() {
    // (exponent, optimal multiplies under the two-register constraint)
    const TABLE: [(u64, u64); 10] = [
        (4, 2),
        (8, 3),
        (10, 4),
        (15, 6),
        (16, 4),
        (31, 8),
        (32, 5),
        (63, 10),
        (64, 6),
        (100, 8),
    ];
    assert_eq!(chains::listing5_chain().multiplies(), 5);
    for (n, optimal) in TABLE {
        assert_eq!(chains::naive_chain(n).unwrap().multiplies() as u64, n - 1);
        assert_eq!(chains::optimal_multiplies(n), Some(optimal), "x^{n}");
        let chain = chains::optimal_chain(n).unwrap();
        assert!(chain.is_valid());
        assert_eq!(chain.multiplies() as u64, optimal, "x^{n}");

        let mut opt = power_program(n);
        optimize_at(&mut opt, OptLevel::O2);
        assert_eq!(opt.count_op(Opcode::Power), 0, "x^{n}:\n{opt}");
        assert_eq!(
            opt.count_op(Opcode::Multiply),
            optimal as usize,
            "x^{n}:\n{opt}"
        );
    }
}

#[test]
fn e5_power_expansion_stops_at_the_multiply_budget() {
    let budget = RewriteCtx::default().max_power_multiplies;
    assert_eq!(budget, 16);
    // 2^16 is sixteen squarings: exactly the budget, so it expands.
    let mut at_budget = power_program(1 << 16);
    optimize_at(&mut at_budget, OptLevel::O2);
    assert_eq!(at_budget.count_op(Opcode::Power), 0);
    assert_eq!(at_budget.count_op(Opcode::Multiply), budget);
    // Everything dearer stays one intrinsic.
    for (n, optimal) in [((1 << 16) - 1, 30), ((1 << 16) + 1, 17), (1 << 17, 17)] {
        assert_eq!(chains::optimal_multiplies(n), Some(optimal), "x^{n}");
        let mut opt = power_program(n);
        optimize_at(&mut opt, OptLevel::O2);
        assert_eq!(opt.count_op(Opcode::Power), 1, "x^{n}:\n{opt}");
        assert_eq!(opt.count_op(Opcode::Multiply), 0, "x^{n}:\n{opt}");
    }
}

#[test]
fn e6_eq2_rewrite_cuts_vm_flops_to_the_lu_model() {
    for (m, inverse_flops, lu_flops) in [(16, 8_704, 3_242), (64, 532_480, 182_954)] {
        assert_eq!(inverse_solve_flops(m, 1), inverse_flops);
        assert_eq!(lu_solve_flops(m, 1), lu_flops);
        let unopt = parse_program(&format!(
            ".base a f64[{m},{m}] input\n.base b f64[{m}] input\n\
             .base t f64[{m},{m}]\n.base x f64[{m}]\n\
             BH_INVERSE t a\nBH_MATMUL x t b\nBH_SYNC x\n"
        ))
        .unwrap();
        let mut opt = unopt.clone();
        optimize_at(&mut opt, OptLevel::O2);
        assert_eq!(opt.count_op(Opcode::Solve), 1, "m = {m}:\n{opt}");
        assert_eq!(
            exec_stats(&unopt, Engine::Naive).flops,
            inverse_flops,
            "m = {m}"
        );
        assert_eq!(exec_stats(&opt, Engine::Naive).flops, lu_flops, "m = {m}");
    }
}

#[test]
fn e7_elementwise_chain_fuses_into_one_kernel() {
    for k in [2, 4, 8, 16] {
        // Alternating multiply/add through two temporaries, the byte-code a
        // front-end emits for a nested expression.
        let mut text = String::from("BH_IDENTITY a0 [0:10000:1] 1.5\n");
        let mut src = "a0".to_owned();
        for i in 0..k {
            let dst = format!("t{}", i % 2);
            let op = if i % 2 == 0 { "BH_MULTIPLY" } else { "BH_ADD" };
            text.push_str(&format!("{op} {dst} [0:10000:1] {src} 1.5\n"));
            src = dst;
        }
        text.push_str(&format!("BH_SYNC {src}\n"));
        let p = parse_program(&text).unwrap();

        assert_eq!(
            exec_stats(&p, Engine::Naive).kernels,
            k as u64 + 1,
            "k = {k}"
        );
        let fused = exec_stats(&p, Engine::Fusing { block: 4096 });
        assert_eq!(fused.kernels, 1, "k = {k}");
        assert_eq!(fused.fused_groups, 1, "k = {k}");
    }
}

/// The ledger's `heat` stencil on `n` points: `v = u`, then on the
/// interior `v[1:n-1] = ((u[0:n-2] + u[2:n])·½ + u[1:n-1])·½`.
fn heat(n: usize) -> Program {
    let (i, j) = (n - 1, n - 2);
    parse_program(&format!(
        ".base u f64[{n}] input\n.base v f64[{n}]\n\
         BH_IDENTITY v u\n\
         BH_ADD v[1:{i}:1] u[0:{j}:1] u[2:{n}:1]\n\
         BH_MULTIPLY v[1:{i}:1] v[1:{i}:1] 0.5\n\
         BH_ADD v[1:{i}:1] v[1:{i}:1] u[1:{i}:1]\n\
         BH_MULTIPLY v[1:{i}:1] v[1:{i}:1] 0.5\n\
         BH_SYNC v\n"
    ))
    .unwrap()
}

#[test]
fn the_heat_stencil_runs_as_a_copy_and_one_fused_group() {
    // The four interior ops are contiguous runs of one length at offsets
    // 0, 1 and 2, and `v`, the only base they write, is read and written
    // at offset 1 alone: one fused group. The copy has another length.
    let unopt = heat(4096);
    let mut opt = unopt.clone();
    optimize_at(&mut opt, OptLevel::O2);
    for p in [&unopt, &opt] {
        assert_eq!(exec_stats(p, Engine::Naive).kernels, 5, "{p}");
        let fused = exec_stats(p, Engine::Fusing { block: 4096 });
        assert_eq!(fused.kernels, 2, "{p}");
        assert_eq!(fused.fused_groups, 1, "{p}");
    }
    assert_equivalent(&unopt, &opt, 3, 0.0);
}

// --- Affine runs (ROADMAP 7): the constant-merge of §3.1 across op-codes --

/// `paper_rewrites`' `strength_chain`: `a = x`, then four times
/// `a *= 2; a /= 4; t = a − a; a += t; a += c`.
fn strength_chain(n: usize) -> Program {
    let mut text =
        format!(".base x f64[{n}] input\n.base a f64[{n}]\n.base t f64[{n}]\nBH_IDENTITY a x\n");
    for c in [2, 1, 1, 2] {
        text.push_str(&format!(
            "BH_MULTIPLY a a 2\nBH_DIVIDE a a 4\nBH_SUBTRACT t a a\nBH_ADD a a t\nBH_ADD a a {c}\n"
        ));
    }
    text.push_str("BH_SYNC a\n");
    parse_program(&text).unwrap()
}

#[test]
fn o2_folds_the_strength_chain_into_one_multiply_and_one_add() {
    const N: usize = 1000;
    let unopt = strength_chain(N);
    assert_eq!(unopt.live_len(), 22);
    let mut opt = unopt.clone();
    optimize_at(&mut opt, OptLevel::O2);
    let ops: Vec<Opcode> = opt.instrs().iter().map(|i| i.op).collect();
    assert_eq!(ops, [Opcode::Multiply, Opcode::Add, Opcode::Sync], "{opt}");
    let text = opt.to_text(PrintStyle::COMPACT);
    assert!(text.contains("BH_MULTIPLY a x 0.0625"), "{text}");
    assert!(text.contains("BH_ADD a a 3"), "{text}");
    // `t` is never written: the two instructions write `a` once each.
    let bytes = (N * 8) as u64;
    assert_eq!(exec_stats(&unopt, Engine::Naive).bytes_written, 21 * bytes);
    let stats = exec_stats(&opt, Engine::Naive);
    assert_eq!((stats.kernels, stats.bytes_written), (2, 2 * bytes));
    assert_equivalent(&unopt, &opt, 3, 1e-12);
}

#[test]
fn an_alternating_add_multiply_run_leaves_range_and_two_ops() {
    // The `wire_hot_small` shape: runs of three adds and three multiplies.
    let mut text = String::from(".base a f64[48]\nBH_RANGE a\n");
    for run in 0..8 {
        for k in 0..3 {
            if run % 2 == 0 {
                text.push_str(&format!("BH_ADD a a {}\n", 1 + (run + k) % 3));
            } else {
                text.push_str(&format!("BH_MULTIPLY a a {}\n", ["2", "0.5", "2"][k]));
            }
        }
    }
    text.push_str("BH_SYNC a\n");
    let unopt = parse_program(&text).unwrap();
    for level in [OptLevel::O1, OptLevel::O2] {
        let mut opt = unopt.clone();
        optimize_at(&mut opt, level);
        let ops: Vec<Opcode> = opt.instrs().iter().map(|i| i.op).collect();
        assert_eq!(
            ops,
            [Opcode::Range, Opcode::Multiply, Opcode::Add, Opcode::Sync],
            "{level:?}:\n{opt}"
        );
        assert_equivalent(&unopt, &opt, 1, 0.0);
    }
}

/// `t0 = x`, then eight steps `r_next = r_prev ⊕ c` alternating the
/// temporaries `t0` and `t1`; with `sync_t1`, every value written to `t1`
/// is synced.
fn temporaries_chain(sync_t1: bool) -> Program {
    let mut text = String::from(".base x f64[64] input\nBH_IDENTITY t0 [0:64:1] x\n");
    for i in 0..8 {
        let (src, dst) = (format!("t{}", i % 2), format!("t{}", (i + 1) % 2));
        let op = if i % 2 == 0 { "BH_MULTIPLY" } else { "BH_ADD" };
        text.push_str(&format!("{op} {dst} [0:64:1] {src} {}\n", 0.5 + i as f64));
        if sync_t1 && dst == "t1" {
            text.push_str("BH_SYNC t1\n");
        }
    }
    text.push_str("BH_SYNC t0\n");
    parse_program(&text).unwrap()
}

#[test]
fn a_chain_through_temporaries_is_left_unmerged() {
    // `r_next = r_prev ⊕ c`: every step writes a register other than the
    // one it reads. Each value of `t1` is synced, so no multiply's result
    // is a temporary and no two steps fold.
    let unopt = temporaries_chain(true);
    let mut opt = unopt.clone();
    let report = optimize_at(&mut opt, OptLevel::O2);
    let merged = report
        .by_rule
        .iter()
        .find(|(rule, _)| *rule == "constant-merge")
        .map(|&(_, n)| n);
    assert_eq!(merged, Some(0), "{report}");
    assert_eq!(opt.count_op(Opcode::Multiply), 4, "{opt}");
    assert_eq!(opt.count_op(Opcode::Add), 4, "{opt}");
}

#[test]
fn a_chain_through_temporaries_folds_to_one_multiply_and_one_add() {
    // The same chain with only its result synced: each intermediate is
    // read once, by the next step, and overwritten after, so the chain is
    // one map `t0 = α·x + β`.
    let unopt = temporaries_chain(false);
    let mut opt = unopt.clone();
    optimize_at(&mut opt, OptLevel::O2);
    let ops: Vec<Opcode> = opt.instrs().iter().map(|i| i.op).collect();
    assert_eq!(ops, [Opcode::Multiply, Opcode::Add, Opcode::Sync], "{opt}");
    assert_equivalent(&unopt, &opt, 3, 1e-12);
}
