//! Eq. 2 end-to-end: a scientist writes `x = A⁻¹ · B`; the context-aware
//! transformation replaces it with an LU solve.
//!
//! Run with: `cargo run --release --example linear_solver`

use bh_frontend::Context;
use bh_linalg::{matmul, solve_lu, solve_via_inverse};
use bh_tensor::{random_tensor, DType, Distribution, Scalar, Shape, Tensor};
use std::time::Instant;

fn well_conditioned(m: usize, seed: u64) -> Tensor {
    let mut a = random_tensor(
        DType::Float64,
        Shape::matrix(m, m),
        seed,
        Distribution::Uniform,
    );
    for i in 0..m {
        let v = a.get(&[i, i]).expect("diag").as_f64();
        a.set(&[i, i], Scalar::F64(v + m as f64)).expect("diag");
    }
    a
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = 192;
    let a = well_conditioned(m, 11);
    let b = random_tensor(DType::Float64, Shape::vector(m), 12, Distribution::Uniform);

    // --- what the programmer writes: the inverse formulation -------------
    let ctx = Context::new();
    let a_arr = ctx.array(a.clone());
    let b_arr = ctx.array(b.clone());
    let x = a_arr.inv().matmul(&b_arr); // x = A^-1 · B, Eq. 2 left side
    let (solved, outcome) = x.eval_outcome()?;

    let report = outcome.report();
    println!("== transformation report ==\n{report}");
    let rewrote = report
        .by_rule
        .iter()
        .any(|(name, n)| *name == "inverse-solve" && *n > 0);
    assert!(rewrote, "the Eq. 2 rewrite should have fired");

    // --- verification: the solution actually solves the system -----------
    let ax = matmul(&a, &solved)?;
    let residual = ax.max_abs_diff(&b);
    println!("\n‖Ax − b‖∞ = {residual:.3e}");
    assert!(residual < 1e-8);

    // --- the substrate-level comparison the rewrite is exploiting --------
    println!("\n== direct comparison of the two strategies ({m}×{m}) ==");
    type Solver = fn(&Tensor, &Tensor) -> Result<Tensor, bh_linalg::LinalgError>;
    for (label, f) in [
        ("inverse + matmul", solve_via_inverse as Solver),
        ("LU factorisation ", solve_lu as Solver),
    ] {
        let mut times: Vec<f64> = (0..5)
            .map(|_| {
                let s = Instant::now();
                let _ = f(&a, &b).expect("well-conditioned system");
                s.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        println!("{label}: {:8.3} ms (median of 5)", times[2] * 1e3);
    }
    let x1 = solve_via_inverse(&a, &b)?;
    let x2 = solve_lu(&a, &b)?;
    println!("max |x_inverse − x_lu| = {:.3e}", x1.max_abs_diff(&x2));
    Ok(())
}
