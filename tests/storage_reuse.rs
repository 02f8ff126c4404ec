//! Storage reuse is invisible (DESIGN.md §7).
//!
//! A VM recycles the storage it allocated and hands it to later runs of
//! any program. The property: a VM that first ran a *different* program
//! over same-shaped bases, leaving a poison pattern (NaN, all-ones bits)
//! in every buffer, computes bit for bit what a fresh VM computes, with
//! identical [`ExecStats`], on every leg of the test matrix. Every base
//! is compared, synced or not.
//! Deterministic cases pin the observable-zeros rule on a poisoned VM
//! and check that the reuse really happened.

use bohrium_repro::ir::{parse_program, verify, Instruction, Opcode, Program, Reg, ViewRef};
use bohrium_repro::tensor::{DType, Scalar, Tensor};
use bohrium_repro::testing::{input_tensor, legs, Leg};
use bohrium_repro::vm::{ExecStats, Vm};
use proptest::prelude::*;

/// Where a tensor's elements live.
fn storage(t: &Tensor) -> usize {
    match t.dtype() {
        DType::Float64 => t.as_slice::<f64>().unwrap().as_ptr() as usize,
        DType::Int64 => t.as_slice::<i64>().unwrap().as_ptr() as usize,
        other => unreachable!("no {other} bases are generated"),
    }
}

/// A tensor's elements as raw bits, so NaN compares equal to NaN with the
/// same payload only: the poison is a NaN.
fn bits(t: &Tensor) -> Vec<u64> {
    match t.dtype() {
        DType::Float64 => t
            .as_slice::<f64>()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        DType::Int64 => t
            .as_slice::<i64>()
            .unwrap()
            .iter()
            .map(|&v| v as u64)
            .collect(),
        other => unreachable!("no {other} bases are generated"),
    }
}

/// A different program over bases of the same dtypes and lengths as
/// `program`'s, filling each with the poison pattern: NaN for floats,
/// all-ones bits for integers.
fn poison_for(program: &Program) -> Program {
    let mut poison = Program::new();
    for (i, base) in program.bases().iter().enumerate() {
        let reg = poison.declare(&format!("poison{i}"), base.dtype, base.shape.clone());
        let value = match base.dtype {
            DType::Float64 => Scalar::F64(f64::NAN),
            DType::Int64 => Scalar::I64(-1),
            other => unreachable!("no {other} bases are generated"),
        };
        poison.push(Instruction::unary(
            Opcode::Identity,
            ViewRef::full(reg),
            value,
        ));
    }
    poison
}

/// A VM that ran [`poison_for`]`(program)` and was recycled, with the
/// storage addresses the poison run left in its stash.
fn poisoned_vm(program: &Program, leg: Leg) -> (Vm, Vec<usize>) {
    let mut vm = leg.vm();
    let poison = poison_for(program);
    vm.run(&poison).expect("poison program runs");
    let stashed = (0..poison.bases().len())
        .map(|i| storage(&vm.read(&poison, Reg(i as u32)).unwrap()))
        .collect();
    vm.recycle();
    (vm, stashed)
}

/// Every base's bits after running `program` on `vm` (`None` where the
/// base holds no data), and the run's counters. Inputs whose bit in
/// `unbound` is set are left unbound.
fn run_on(
    vm: &mut Vm,
    program: &Program,
    seed: u64,
    unbound: u32,
) -> (Vec<Option<Vec<u64>>>, ExecStats) {
    for (i, base) in program.bases().iter().enumerate() {
        if base.is_input && (unbound >> i) & 1 == 0 {
            let t = input_tensor(program, i, seed);
            vm.bind(program, Reg(i as u32), &t).expect("input binds");
        }
    }
    vm.run(program).expect("verified program runs");
    let values = (0..program.bases().len())
        .map(|i| vm.read(program, Reg(i as u32)).ok().map(|t| bits(&t)))
        .collect();
    (values, *vm.stats())
}

/// Assemble a candidate over four `dtype` vector bases of length `n`:
/// base `r` is a non-input when `kinds[r] == 0`, else an input. The
/// body follows `tests/verify_soundness.rs`'s windowed generator
/// (partial writes, reads of partly written or never-written bases,
/// in-place and out-of-bounds windows) and adds `BH_FREE`, mid-program
/// `BH_SYNC` of a window and full-view `BH_ADD_ACCUMULATE`. There is no
/// closing `BH_SYNC`: the property reads every base back instead. The
/// verifier decides what reaches execution.
#[allow(clippy::type_complexity)]
fn assemble(
    n: usize,
    dtype: &str,
    kinds: &[u8],
    body: &[(
        u8,
        usize,
        Option<(i64, i64)>,
        Vec<(usize, i64, Option<i64>)>,
    )],
) -> String {
    let mut text = String::new();
    for (r, kind) in kinds.iter().enumerate() {
        let input = if *kind == 0 { "" } else { " input" };
        text.push_str(&format!(".base r{r} {dtype}[{n}]{input}\n"));
    }
    let window = |reg: usize, w: &Option<(i64, i64)>| match w {
        Some((lo, len)) => format!("r{reg}[{lo}:{}:1]", lo + len),
        None => format!("r{reg}"),
    };
    for (opsel, out, w, ins) in body {
        let out = out % 4;
        let line = match opsel % 7 {
            4 => format!("BH_FREE r{out}"),
            5 => format!("BH_SYNC {}", window(out, w)),
            6 => format!("BH_ADD_ACCUMULATE r{out} r{} 0", ins[0].0 % 4),
            sel => {
                let op = ["BH_ADD", "BH_MULTIPLY", "BH_SUBTRACT", "BH_IDENTITY"][sel as usize];
                let arity = if sel == 3 { 1 } else { 2 };
                let mut line = format!("{op} {}", window(out, w));
                for (reg, in_lo, konst) in ins.iter().take(arity) {
                    line.push(' ');
                    line.push_str(&match (konst, w) {
                        (Some(c), _) => format!("{c}"),
                        (None, Some((_, len))) => {
                            format!("r{}[{in_lo}:{}:1]", reg % 4, in_lo + len)
                        }
                        (None, None) => format!("r{}", reg % 4),
                    });
                }
                line
            }
        };
        text.push_str(&line);
        text.push('\n');
    }
    text
}

/// Fresh VM vs poisoned VM on every leg.
fn assert_reuse_invisible(program: &Program, seed: u64, unbound: u32) {
    for &leg in legs() {
        let expected = run_on(&mut leg.vm(), program, seed, unbound);
        let (mut reused, _) = poisoned_vm(program, leg);
        let got = run_on(&mut reused, program, seed, unbound);
        assert_eq!(
            got, expected,
            "recycled storage changed the run on {leg}:\n{program}"
        );
    }
}

/// Non-vacuity guard for the property: a known candidate with a partial
/// write to a non-input base verifies and runs on recycled storage.
#[test]
fn assembled_candidates_reach_execution_on_recycled_storage() {
    let body = vec![
        (0u8, 0usize, Some((1, 2)), vec![(1, 0, None), (1, 2, None)]),
        (1u8, 2usize, None, vec![(0, 0, None), (1, 0, Some(3))]),
    ];
    let text = assemble(6, "f64", &[0, 1, 0, 0], &body);
    let program = parse_program(&text).expect("candidate parses");
    verify(&program).expect("candidate verifies");
    assert_reuse_invisible(&program, 5, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn recycled_storage_is_invisible_on_random_verified_programs(
        n in 4usize..9,
        dtype in prop_oneof![Just("f64"), Just("i64")],
        // 0: non-input; 1: bound input; 2: unbound input.
        kinds in proptest::collection::vec(0u8..3, 4),
        body in proptest::collection::vec(
            (
                0u8..255,
                0usize..4,
                proptest::option::of((0i64..4, 1i64..5)),
                proptest::collection::vec(
                    (0usize..4, 0i64..5, proptest::option::of(1i64..5)),
                    2,
                ),
            ),
            1..8,
        ),
        seed in 0u64..u64::MAX,
    ) {
        let text = assemble(n, dtype, &kinds, &body);
        let unbound = kinds
            .iter()
            .enumerate()
            .filter(|(_, &k)| k == 2)
            .fold(0u32, |bits, (r, _)| bits | 1 << r);
        // No early `return`s: the vendored proptest inlines the body into
        // one loop over all cases.
        if let Ok(program) = parse_program(&text) {
            if verify(&program).is_ok() {
                assert_reuse_invisible(&program, seed, unbound);
            }
        }
    }
}

/// Run `text` on a poisoned VM on every leg, check that the VM reused
/// poisoned storage for `reused` and return `name`.
fn on_poisoned_vm(text: &str, reused: &str, name: &str, check: impl Fn(Vec<f64>)) {
    let program = parse_program(text).unwrap();
    for &leg in legs() {
        let (mut vm, stashed) = poisoned_vm(&program, leg);
        vm.run(&program).unwrap();
        let storage_of_reused = storage(&vm.read_by_name(&program, reused).unwrap());
        assert!(
            stashed.contains(&storage_of_reused),
            "{leg}: `{reused}` did not reuse poisoned storage"
        );
        check(vm.read_by_name(&program, name).unwrap().to_f64_vec());
    }
}

#[test]
fn a_partial_write_then_a_full_update_sees_zeros_in_the_tail() {
    on_poisoned_vm(
        ".base y f64[4]\nBH_IDENTITY y [0:2:1] 5\nBH_ADD y y 1\nBH_SYNC y\n",
        "y",
        "y",
        |y| assert_eq!(y, [6.0, 6.0, 1.0, 1.0]),
    );
}

#[test]
fn a_sync_of_a_partially_written_register_reads_zeros_where_unwritten() {
    on_poisoned_vm(
        ".base y f64[4]\nBH_IDENTITY y [0:2:1] 5\nBH_SYNC y\n",
        "y",
        "y",
        |y| assert_eq!(y, [5.0, 5.0, 0.0, 0.0]),
    );
}

#[test]
fn an_unbound_input_reads_zeros() {
    let text = ".base x f64[4] input\n.base y f64[4]\nBH_ADD y x 1\nBH_SYNC y\n";
    on_poisoned_vm(text, "y", "x", |x| assert_eq!(x, [0.0; 4]));
    on_poisoned_vm(text, "y", "y", |y| assert_eq!(y, [1.0; 4]));
}

#[test]
fn a_result_held_across_a_second_run_is_unchanged() {
    let seven = parse_program(".base y f64[4]\nBH_IDENTITY y 7\nBH_SYNC y\n").unwrap();
    let nine = parse_program(".base z f64[4]\nBH_IDENTITY z 9\nBH_SYNC z\n").unwrap();
    for &leg in legs() {
        let mut vm = leg.vm();
        vm.run(&seven).unwrap();
        let held = vm.read_by_name(&seven, "y").unwrap();
        vm.recycle();
        vm.run(&nine).unwrap();
        let z = vm.read_by_name(&nine, "z").unwrap();
        assert_ne!(storage(&z), storage(&held));
        assert_eq!(held.to_f64_vec(), [7.0; 4]);
        assert_eq!(z.to_f64_vec(), [9.0; 4]);
    }
}
