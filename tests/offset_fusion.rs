//! Offset views in fused groups: random programs of element-wise ops on
//! contiguous runs of one length, at random offsets of three bases, run
//! on the fusing engine — where runs of such ops form groups unless a
//! written base would be touched at two offsets — and on the naive
//! engine, which runs every op alone on the strided interpreter. The
//! results must agree on every leg of the test matrix, whose engine
//! blocks split the runs. Shifted reads after writes and shifted
//! writes after reads come up at random, so the group split is exercised
//! in both directions. Every program ends with a sum of its one base
//! that is exactly a run long, which the fusing engine folds into a group
//! ending there.

use bohrium_repro::ir::parse_program;
use bohrium_repro::testing::{check, Compare};
use common::gen::arb_offset_program;
use proptest::prelude::*;

mod common;

fn check_offset_groups_agree(text: &str) {
    check(
        &parse_program(text).expect("generated text parses"),
        23,
        Compare::Equal,
    );
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
