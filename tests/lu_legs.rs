//! `BH_SOLVE` and `BH_INVERSE` run one blocked LU whose trailing updates
//! shard over the VM's worker pool (DESIGN.md §10). Every leg of the test
//! matrix must compute the reference leg's bits, and the sharded legs
//! must really shard.

use bohrium_repro::ir::{parse_program, Program};
use bohrium_repro::testing::{input_tensor, legs, Compare, Leg};

/// Columns per panel of the factorisation: a trailing block of at least
/// two rows, and so a sharded update, exists once `m > PANEL + 1`.
const PANEL: usize = 16;

fn programs(m: usize) -> Vec<(String, Program)> {
    let solve = |rhs: &str| {
        format!(
            ".base a f64[{m},{m}] input\n.base b f64[{rhs}] input\n.base x f64[{rhs}]\n\
             BH_SOLVE x a b\nBH_SYNC x\n"
        )
    };
    let inverse =
        format!(".base a f64[{m},{m}] input\n.base t f64[{m},{m}]\nBH_INVERSE t a\nBH_SYNC t\n");
    [solve(&m.to_string()), solve(&format!("{m},3")), inverse]
        .into_iter()
        .map(|text| {
            let p = parse_program(&text).unwrap();
            (text, p)
        })
        .collect()
}

/// Run `program` on `leg` with seeded inputs; the synced register and the
/// pool shards the run dispatched.
fn run(program: &Program, leg: Leg) -> (bohrium_repro::tensor::Tensor, u64) {
    let mut vm = leg.vm();
    for (i, base) in program.bases().iter().enumerate() {
        if base.is_input {
            vm.bind_by_name(program, &base.name, &input_tensor(program, i, 7))
                .unwrap();
        }
    }
    vm.run(program).unwrap_or_else(|e| panic!("{leg}: {e}"));
    let out = program.bases().iter().position(|b| !b.is_input).unwrap();
    let value = vm
        .read(program, bohrium_repro::ir::Reg(out as u32))
        .unwrap();
    (value, vm.stats().par_shards)
}

/// Hold every leg to the reference on the `m × m` solve (vector and
/// matrix right-hand sides) and inverse, and require the sharded legs to
/// shard once a trailing block can split.
fn check_legs(m: usize) {
    for (text, program) in programs(m) {
        let (want, shards) = run(&program, Leg::REFERENCE);
        assert_eq!(shards, 0, "the reference leg is serial\n{text}");
        for &leg in &legs()[1..] {
            let (got, shards) = run(&program, leg);
            assert!(
                Compare::Bits.matches(&want, &got),
                "{leg}: differs from {}\n{text}",
                Leg::REFERENCE
            );
            if leg.threads > 1 && m > PANEL + 1 {
                assert!(shards > 0, "{leg}: no LU update sharded\n{text}");
            }
        }
    }
}

#[test]
fn lu_ops_at_m17_are_bit_identical_on_every_leg() {
    check_legs(17);
}

#[test]
fn lu_ops_at_m64_are_bit_identical_on_every_leg_and_shard() {
    check_legs(64);
}

#[test]
fn lu_ops_at_m256_are_bit_identical_on_every_leg_and_shard() {
    check_legs(256);
}
