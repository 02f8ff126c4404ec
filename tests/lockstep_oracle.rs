//! Oracle tests for the lockstep folds: every reduction here is long or
//! wide enough to reach the kernels' lockstep paths (a run of whole
//! canonical blocks folded side by side, or a chunk of adjacent lanes
//! folded a row at a time), and each result is compared **bit for bit**
//! against a plain loop written in this file. Both engines share the fold
//! kernels, so `Naive ≡ Fusing` alone could not catch a reordering; the
//! loops below share nothing with them.
//!
//! The expression tree is DESIGN.md §11's: a lane longer than one block
//! is cut into `BLOCK`-element canonical blocks, each left-folded from the
//! identity, and the partials are combined left to right in block order;
//! a lane of a multi-lane reduction is the plain left fold.

use bohrium_repro::ir::{parse_program, Program};
use bohrium_repro::tensor::{Shape, Tensor};
use bohrium_repro::testing::legs;

/// The canonical block length, restated rather than imported.
const BLOCK: usize = 4096;

/// Lengths around one run of 8 blocks, three runs and a 4097-element
/// tail, and 2²⁰ + 5.
const LENGTHS: [usize; 5] = [
    8 * BLOCK - 1,
    8 * BLOCK,
    8 * BLOCK + 1,
    3 * 8 * BLOCK + 4097,
    (1 << 20) + 5,
];

/// Run `p` with `inputs` bound on every leg of the test matrix, and hand
/// each value of `result` to `check`.
fn each_run(p: &Program, inputs: &[(&str, &Tensor)], result: &str, check: impl Fn(&str, Tensor)) {
    for &leg in legs() {
        let mut vm = leg.vm();
        for (name, t) in inputs {
            vm.bind_by_name(p, name, t).unwrap();
        }
        vm.run(p).unwrap();
        check(&leg.to_string(), vm.read_by_name(p, result).unwrap());
    }
}

/// The canonical blocked fold of `vals`.
fn blocked<T: Copy>(vals: &[T], init: T, f: impl Fn(T, T) -> T) -> T {
    let mut acc = init;
    for block in vals.chunks(BLOCK) {
        let mut partial = init;
        for &v in block {
            partial = f(partial, v);
        }
        acc = f(acc, partial);
    }
    acc
}

fn f64_data(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.618).sin() * 3.0 + 0.1)
        .collect()
}

/// Factors near 1, so a product of 2²⁰ of them stays finite and its last
/// bits depend on the order of the multiplies.
fn f32_data(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| 1.0 + ((i as f64 * 0.37).sin() * 1e-3) as f32)
        .collect()
}

/// The three ways each lane is read: the whole base, reversed, and every
/// other element of a base twice as long. Yields the base's length, the
/// view's text and the logical element order as base indices.
fn lane_views(n: usize) -> [(usize, String, Vec<usize>); 3] {
    [
        (n, "x".to_owned(), (0..n).collect()),
        (n, "x[::-1]".to_owned(), (0..n).rev().collect()),
        (
            2 * n,
            format!("x[0:{}:2]", 2 * n),
            (0..n).map(|k| 2 * k).collect(),
        ),
    ]
}

#[test]
fn single_lane_f64_sums_are_the_canonical_blocked_fold() {
    for n in LENGTHS {
        for (len, view, order) in lane_views(n) {
            let data = f64_data(len);
            let x = Tensor::from_vec(data.clone());
            let p = parse_program(&format!(
                ".base x f64[{len}] input\n.base s f64[]\n\
                 BH_ADD_REDUCE s {view} 0\nBH_SYNC s\n"
            ))
            .unwrap();
            let vals: Vec<f64> = order.iter().map(|&i| data[i]).collect();
            let want = blocked(&vals, 0.0, |a, b| a + b).to_bits();
            each_run(&p, &[("x", &x)], "s", |run, got| {
                let got = got.as_slice::<f64>().unwrap()[0].to_bits();
                assert_eq!(got, want, "n={n} {view} {run}");
            });
        }
    }
}

#[test]
fn single_lane_f32_products_are_the_canonical_blocked_fold() {
    for n in LENGTHS {
        for (len, view, order) in lane_views(n) {
            let data = f32_data(len);
            let x = Tensor::from_vec(data.clone());
            let p = parse_program(&format!(
                ".base x f32[{len}] input\n.base s f32[]\n\
                 BH_MULTIPLY_REDUCE s {view} 0\nBH_SYNC s\n"
            ))
            .unwrap();
            let vals: Vec<f32> = order.iter().map(|&i| data[i]).collect();
            let want = blocked(&vals, 1.0f32, |a, b| a * b);
            assert!(
                want.is_finite() && want != 1.0,
                "n={n}: a degenerate oracle"
            );
            each_run(&p, &[("x", &x)], "s", |run, got| {
                let got = got.as_slice::<f32>().unwrap()[0].to_bits();
                assert_eq!(got, want.to_bits(), "n={n} {view} {run}");
            });
        }
    }
}

#[test]
fn a_chain_feeding_a_sum_is_the_canonical_blocked_fold_of_the_chain() {
    // On the fusing engine the chain and the sum run as one kernel that
    // folds each run of blocks right after the chain wrote it.
    for n in LENGTHS {
        let data = f64_data(n);
        let x = Tensor::from_vec(data.clone());
        let p = parse_program(&format!(
            ".base x f64[{n}] input\n.base t f64[{n}]\n.base s f64[]\n\
             BH_MULTIPLY t x 1.5\nBH_ADD t t 0.25\n\
             BH_ADD_REDUCE s t 0\nBH_SYNC s\n"
        ))
        .unwrap();
        let chain: Vec<f64> = data.iter().map(|&v| v * 1.5 + 0.25).collect();
        let want = blocked(&chain, 0.0, |a, b| a + b).to_bits();
        each_run(&p, &[("x", &x)], "s", |run, got| {
            let got = got.as_slice::<f64>().unwrap()[0].to_bits();
            assert_eq!(got, want, "n={n} {run}");
        });
    }
}

#[test]
fn axis_sums_are_the_plain_fold_of_each_lane() {
    for (rows, cols) in [(1024, 1024), (33, 31), (100, 65), (5, 2000)] {
        let data = f64_data(rows * cols);
        let m = Tensor::from_vec(data.clone())
            .reshape(Shape::from([rows, cols]))
            .unwrap();
        for axis in 0..2 {
            let lanes = if axis == 0 { cols } else { rows };
            let p = parse_program(&format!(
                ".base m f64[{rows},{cols}] input\n.base r f64[{lanes}]\n\
                 BH_ADD_REDUCE r m {axis}\nBH_SYNC r\n"
            ))
            .unwrap();
            let want: Vec<u64> = (0..lanes)
                .map(|l| {
                    let mut acc = 0.0f64;
                    if axis == 0 {
                        for i in 0..rows {
                            acc += data[i * cols + l];
                        }
                    } else {
                        for j in 0..cols {
                            acc += data[l * cols + j];
                        }
                    }
                    acc.to_bits()
                })
                .collect();
            each_run(&p, &[("m", &m)], "r", |run, got| {
                let got: Vec<u64> = got.to_f64_vec().iter().map(|v| v.to_bits()).collect();
                assert!(got == want, "{rows}×{cols} axis {axis} {run}");
            });
        }
    }
}
