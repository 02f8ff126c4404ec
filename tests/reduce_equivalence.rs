//! Reduction/scan equivalence: serial and parallel execution must agree
//! **bit-for-bit** for every reduction/scan op-code × dtype × thread
//! count — the invariant DESIGN.md §11's deterministic combine tree
//! exists to guarantee. Covers non-power-of-two lengths straddling the
//! canonical partial-block boundary, strided/sliced input views, rank-2
//! axis reductions (the lane-parallel path) and fused chains feeding a
//! reduction. Every case runs on every leg of the test matrix, whose
//! thread counts 2 and 3 split the 4096-grained lanes unevenly.

use bohrium_repro::ir::parse_program;
use bohrium_repro::testing::{check, input_tensor, Compare};
use proptest::prelude::*;

/// The reduction op-codes and the scalar-output dtype they produce for a
/// given input dtype (bool widens to i64).
const REDUCTIONS: [&str; 4] = [
    "BH_ADD_REDUCE",
    "BH_MULTIPLY_REDUCE",
    "BH_MINIMUM_REDUCE",
    "BH_MAXIMUM_REDUCE",
];
const SCANS: [&str; 2] = ["BH_ADD_ACCUMULATE", "BH_MULTIPLY_ACCUMULATE"];

fn out_dtype(dtype: &str) -> &str {
    if dtype == "bool" {
        "i64"
    } else {
        dtype
    }
}

/// Run `text` on every leg and assert all synced outputs are exactly
/// equal.
fn assert_thread_and_engine_invariant(text: &str) {
    let p = parse_program(text).unwrap_or_else(|e| panic!("program must parse: {e}\n{text}"));
    check(&p, 41, Compare::Equal);
}

fn arb_dtype() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("f64"),
        Just("f32"),
        Just("i64"),
        Just("i32"),
        Just("u8"),
        Just("u16"),
        Just("bool"),
    ]
}

fn arb_len() -> impl Strategy<Value = usize> {
    // Non-powers-of-two, straddling the 4096-element canonical block.
    prop_oneof![
        1usize..64,
        4090usize..4103,
        5000usize..9001,
        Just(1usize),
        Just(4096usize),
        Just(8192usize),
    ]
}

proptest! {
    #[test]
    fn rank1_reductions_bit_identical(
        op in prop_oneof![(0usize..4).prop_map(|i| REDUCTIONS[i])],
        dtype in arb_dtype(),
        n in arb_len(),
    ) {
        let text = format!(
            ".base x {dtype}[{n}] input\n.base s {}[]\n\
             {op} s x 0\nBH_SYNC s\n",
            out_dtype(dtype),
        );
        assert_thread_and_engine_invariant(&text);
    }

    #[test]
    fn rank1_scans_bit_identical(
        op in prop_oneof![(0usize..2).prop_map(|i| SCANS[i])],
        dtype in arb_dtype(),
        n in arb_len(),
    ) {
        let text = format!(
            ".base x {dtype}[{n}] input\n.base c {dtype}[{n}]\n\
             {op} c x 0\nBH_SYNC c\n"
        );
        assert_thread_and_engine_invariant(&text);
    }

    #[test]
    fn strided_and_sliced_views_bit_identical(
        op in prop_oneof![(0usize..4).prop_map(|i| REDUCTIONS[i])],
        dtype in prop_oneof![Just("f64"), Just("i64"), Just("u8")],
        n in 16usize..9001,
        start in 0usize..5,
        step in 2usize..5,
    ) {
        // Reduce and scan over x[start:n:step] — the direct-borrow path
        // walks the strided lane without materialising.
        let m = (n - start).div_ceil(step);
        let reduce = format!(
            ".base x {dtype}[{n}] input\n.base s {}[]\n\
             {op} s x [{start}:{n}:{step}] 0\nBH_SYNC s\n",
            out_dtype(dtype),
        );
        assert_thread_and_engine_invariant(&reduce);
        let scan = format!(
            ".base x {dtype}[{n}] input\n.base c {dtype}[{m}]\n\
             BH_ADD_ACCUMULATE c x [{start}:{n}:{step}] 0\nBH_SYNC c\n"
        );
        assert_thread_and_engine_invariant(&scan);
    }

    #[test]
    fn rank2_axis_reductions_bit_identical(
        op in prop_oneof![(0usize..4).prop_map(|i| REDUCTIONS[i])],
        dtype in prop_oneof![Just("f64"), Just("f32"), Just("i32")],
        rows in 1usize..40,
        cols in 1usize..40,
        axis in 0usize..2,
    ) {
        // Multi-lane path: every lane is a plain serial fold wherever it
        // runs, so sharding over lanes cannot re-associate anything.
        let kept = if axis == 0 { cols } else { rows };
        let text = format!(
            ".base m {dtype}[{rows},{cols}] input\n.base s {}[{kept}]\n\
             {op} s m {axis}\nBH_SYNC s\n",
            out_dtype(dtype),
        );
        assert_thread_and_engine_invariant(&text);
        let scan = format!(
            ".base m {dtype}[{rows},{cols}] input\n.base c {dtype}[{rows},{cols}]\n\
             BH_ADD_ACCUMULATE c m {axis}\nBH_SYNC c\n"
        );
        assert_thread_and_engine_invariant(&scan);
    }

    #[test]
    fn fused_chain_feeding_reduction_bit_identical(
        op in prop_oneof![(0usize..4).prop_map(|i| REDUCTIONS[i])],
        n in prop_oneof![2usize..64, 4090usize..4103, 5000usize..9001],
        scale in 1i64..5,
        shift in 0i64..7,
    ) {
        // The fusing engine contracts chain + reduction into one sharded
        // kernel with per-block accumulators; results must match the
        // naive engine's separate chain-then-reduce bit-for-bit.
        let text = format!(
            ".base x f64[{n}] input\n.base s f64[]\n\
             BH_MULTIPLY x x {scale}\n\
             BH_ADD x x {shift}\n\
             {op} s x 0\nBH_SYNC s\n"
        );
        assert_thread_and_engine_invariant(&text);
    }

    #[test]
    fn in_place_scans_bit_identical(
        dtype in prop_oneof![Just("f64"), Just("i64")],
        n in prop_oneof![1usize..64, 4000usize..8500],
    ) {
        // c aliases the scanned register: the materialise-first path.
        let text = format!(
            ".base x {dtype}[{n}] input\n\
             BH_ADD_ACCUMULATE x x 0\nBH_SYNC x\n"
        );
        assert_thread_and_engine_invariant(&text);
    }
}

/// Fixed corpus pinning the canonical-block boundary cases (cheap enough
/// to run exhaustively every build, shrinking-free).
#[test]
fn block_boundary_corpus() {
    for n in [1usize, 2, 4095, 4096, 4097, 8191, 8192, 8193, 12_289] {
        let text = format!(
            ".base x f64[{n}] input\n.base s f64[]\n.base c f64[{n}]\n\
             BH_ADD_REDUCE s x 0\n\
             BH_ADD_ACCUMULATE c x 0\n\
             BH_SYNC s\nBH_SYNC c\n"
        );
        assert_thread_and_engine_invariant(&text);
    }
}

/// The scalar produced by a parallel sum equals the serial kernel's
/// canonical value (not merely *some* reassociation): spot-check against
/// an independently computed blocked reference.
#[test]
fn parallel_sum_value_is_canonical() {
    let n = 10_000usize;
    let text = format!(".base x f64[{n}] input\n.base s f64[]\nBH_ADD_REDUCE s x 0\nBH_SYNC s\n");
    let p = parse_program(&text).unwrap();
    let vals = input_tensor(&p, 0, 41).to_f64_vec();
    let mut want = 0.0f64;
    for blk in vals.chunks(4096) {
        let mut partial = 0.0f64;
        for v in blk {
            partial += v;
        }
        want += partial;
    }
    let got = check(&p, 41, Compare::Bits);
    assert_eq!(got["s"].to_f64_vec(), vec![want]);
}

/// A scan lane is never split: at every length and on every leg a scan
/// is the sequential left-to-right running fold (NumPy `cumsum`),
/// checked against a plain loop. Both lengths exceed one canonical
/// reduction block, so a blocked scan formula would differ in the last
/// bits.
#[test]
fn long_scan_is_the_sequential_running_fold() {
    for n in [10_000usize, 12_289] {
        let text = format!(
            ".base x f64[{n}] input\n.base c f64[{n}]\nBH_ADD_ACCUMULATE c x 0\nBH_SYNC c\n"
        );
        let p = parse_program(&text).unwrap();
        let vals = input_tensor(&p, 0, 41).to_f64_vec();
        let mut want = vals.clone();
        for k in 1..n {
            want[k] = want[k - 1] + vals[k];
        }
        let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        let got = check(&p, 41, Compare::Bits);
        let got: Vec<u64> = got["c"].to_f64_vec().iter().map(|v| v.to_bits()).collect();
        assert!(got == want, "n={n}: scan must be the running fold");
    }
}
