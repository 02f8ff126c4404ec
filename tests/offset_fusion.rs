//! Offset views in fused groups: random programs of element-wise ops on
//! contiguous runs of one length, at random offsets of three bases, run
//! on the fusing engine — where runs of such ops form groups unless a
//! written base would be touched at two offsets — and on the naive
//! engine, which runs every op alone on the strided interpreter. The
//! results must agree bit for bit at threads {1, 2, 4} and at engine
//! blocks that split the runs. Shifted reads after writes and shifted
//! writes after reads come up at random, so the group split is exercised
//! in both directions. Every program ends with a sum of its one base
//! that is exactly a run long, which the fusing engine folds into a group
//! ending there.

use bohrium_repro::ir::parse_program;
use bohrium_repro::testing::{run_synced, run_synced_threads};
use bohrium_repro::vm::Engine;
use proptest::prelude::*;

/// One op: op-code, output base, output offset, and two operands, each
/// `(kind, base, offset)` with kind 0 a constant, else a run.
type OpSpec = (u8, usize, usize, (u8, usize, usize), (u8, usize, usize));

const OPS: [&str; 5] = [
    "BH_ADD",
    "BH_SUBTRACT",
    "BH_MULTIPLY",
    "BH_MAXIMUM",
    "BH_IDENTITY",
];

/// The text of a program of `ops` over three `dtype` bases of
/// `len + slack[b]` elements, every run `len` long, then the sum of `b0`.
fn offset_program(dtype: &str, len: usize, slack: [usize; 3], ops: &[OpSpec]) -> String {
    let mut text = format!(".base s {dtype}[]\n");
    for (b, s) in slack.iter().enumerate() {
        text.push_str(&format!(".base b{b} {dtype}[{}] input\n", len + s));
    }
    let run = |b: usize, offset: usize| {
        let o = offset % (slack[b] + 1);
        (o, format!("b{b}[{o}:{}:1]", o + len))
    };
    for &(op, out, out_off, a, b) in ops {
        let op = OPS[op as usize % OPS.len()];
        let (o, out_run) = run(out, out_off);
        let operand = |(kind, base, offset): (u8, usize, usize)| {
            if kind == 0 {
                return format!("{}", offset % 7 + 1);
            }
            let (p, mut text) = run(base, offset);
            // An input on the output's base that overlaps the output run
            // at a shift is an in-place alias the verifier rejects (V500):
            // read the output's own run instead.
            if base == out && p != o && p.abs_diff(o) < len {
                text = out_run.clone();
            }
            text
        };
        if op == "BH_IDENTITY" {
            text.push_str(&format!("{op} {out_run} {}\n", operand(a)));
        } else {
            text.push_str(&format!("{op} {out_run} {} {}\n", operand(a), operand(b)));
        }
    }
    text.push_str("BH_ADD_REDUCE s b0 0\n");
    for reg in ["b0", "b1", "b2", "s"] {
        text.push_str(&format!("BH_SYNC {reg}\n"));
    }
    text
}

fn arb_op() -> impl Strategy<Value = OpSpec> {
    let operand = (0u8..4, 0usize..3, 0usize..64);
    (0u8..5, 0usize..3, 0usize..64, operand.clone(), operand)
}

fn arb_offset_program(dtype: &'static str) -> impl Strategy<Value = String> {
    (
        1usize..48,
        (0usize..9, 0usize..9),
        proptest::collection::vec(arb_op(), 1..12),
    )
        .prop_map(move |(len, (s1, s2), ops)| offset_program(dtype, len, [0, s1, s2], &ops))
}

fn check_offset_groups_agree(text: &str) {
    let p = parse_program(text).expect("generated text parses");
    let naive = run_synced(&p, 23, Engine::Naive).expect("runs");
    for block in [3, 4096] {
        for threads in [1, 2, 4] {
            let fused =
                run_synced_threads(&p, 23, Engine::Fusing { block }, threads).expect("runs");
            for (name, want) in &naive {
                assert_eq!(
                    want, &fused[name],
                    "{name}: Fusing{{{block}}}×{threads} diverged\n{text}"
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn offset_groups_equal_naive_on_floats(text in arb_offset_program("f64")) {
        check_offset_groups_agree(&text);
    }

    #[test]
    fn offset_groups_equal_naive_on_integers(text in arb_offset_program("i64")) {
        check_offset_groups_agree(&text);
    }
}
