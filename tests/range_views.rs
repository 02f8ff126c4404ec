//! `BH_RANGE` writes the logical index of each element of its output
//! view. A contiguous view is written by one direct loop; any other
//! view walks its offsets in logical order. Offset, strided, reversed
//! and 2-D views are checked against values computed here, on every leg
//! of the test matrix.

use bohrium_repro::ir::parse_program;
use bohrium_repro::testing::{check, Compare};

/// Runs `BH_RANGE r{view}` over a zero-filled `dtype` base `r` of
/// `shape` and checks every element of `r`: the logical index at the
/// base offsets `view_offsets` lists in logical order, 0 elsewhere.
fn check_range(dtype: &str, shape: &[usize], view: &str, view_offsets: &[usize]) {
    let dims: Vec<String> = shape.iter().map(usize::to_string).collect();
    let text = format!(
        ".base r {dtype}[{}]\nBH_RANGE r{view}\nBH_SYNC r\n",
        dims.join(",")
    );
    let p = parse_program(&text).expect("test text parses");
    let mut want = vec![0.0; shape.iter().product()];
    for (k, &off) in view_offsets.iter().enumerate() {
        want[off] = k as f64;
    }
    let got = check(&p, 0, Compare::Equal);
    assert_eq!(got["r"].to_f64_vec(), want, "{text}");
}

#[test]
fn contiguous_runs_at_an_offset() {
    for n in [5, 37, 10_000] {
        let (lo, hi) = (3, n - 1);
        let run: Vec<usize> = (lo..hi).collect();
        check_range("f64", &[n], &format!("[{lo}:{hi}:1]"), &run);
        check_range("i32", &[n], &format!("[{lo}:{hi}:1]"), &run);
        check_range("f32", &[n], "", &(0..n).collect::<Vec<_>>());
    }
    check_range("u8", &[200], "[10:190:1]", &(10..190).collect::<Vec<_>>());
}

#[test]
fn strided_and_reversed_views() {
    for n in [7, 10_000] {
        let strided: Vec<usize> = (1..n).step_by(3).collect();
        check_range("f64", &[n], &format!("[1:{n}:3]"), &strided);
        let reversed: Vec<usize> = (0..n).rev().collect();
        check_range("i64", &[n], "[::-1]", &reversed);
    }
}

#[test]
fn rows_and_columns_of_a_matrix() {
    // Rows 1..3 of a 4×50 matrix are one contiguous run; column 7 is not.
    check_range(
        "f64",
        &[4, 50],
        "[1:3:1, :]",
        &(50..150).collect::<Vec<_>>(),
    );
    let column: Vec<usize> = (0..4).map(|i| i * 50 + 7).collect();
    check_range("f64", &[4, 50], "[:, 7]", &column);
}
