//! Explicit matrix inverse and the two `Ax = B` solution strategies of the
//! paper's Eq. 2.
//!
//! `solve_via_inverse` is the *baseline* the paper criticises: form `A⁻¹`
//! (one LU factorisation + `n` triangular pair-solves ≈ 2n³ flops) and then
//! multiply (`2n²k` more). `solve_lu` is the rewrite target: factor once and
//! substitute (≈ 2n³/3 + 2n²k flops). Both produce the same `x`, which is
//! exactly what makes the byte-code rewrite sound.

use crate::error::LinalgError;
use crate::lu::{LuFactorization, Sharding};
use crate::matmul::matmul;
use crate::util::cast_like;
use bh_tensor::{DType, Tensor};

/// Explicit inverse via LU: solve `A X = I` column-by-column.
///
/// # Errors
///
/// Propagates factorisation failures (non-square, singular, non-float).
///
/// # Examples
///
/// ```
/// use bh_linalg::{inverse, matmul};
/// use bh_tensor::{DType, Shape, Tensor};
/// let a = Tensor::from_shape_vec(Shape::matrix(2, 2), vec![4.0f64, 7.0, 2.0, 6.0])?;
/// let inv = inverse(&a)?;
/// assert!(matmul(&a, &inv)?.allclose(&Tensor::eye(DType::Float64, 2), 1e-12));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn inverse(a: &Tensor) -> Result<Tensor, LinalgError> {
    inverse_on(a, &mut Sharding::serial())
}

/// [`inverse`] with the factorisation's updates sharded as `par` says.
/// The result does not depend on `par`.
///
/// # Errors
///
/// As [`inverse`].
pub fn inverse_on(a: &Tensor, par: &mut Sharding) -> Result<Tensor, LinalgError> {
    let lu = LuFactorization::factorize_on(a, par)?;
    let n = lu.dim();
    let identity = Tensor::eye(DType::Float64, n);
    let inv = lu.solve_mat(&identity)?;
    Ok(cast_like(inv, a))
}

/// Solve `Ax = B` the paper's Eq. 2 *left* way: `x = A⁻¹ B`.
///
/// `b` may be a vector or a matrix of stacked right-hand sides.
///
/// # Errors
///
/// Propagates factorisation and dimension failures.
pub fn solve_via_inverse(a: &Tensor, b: &Tensor) -> Result<Tensor, LinalgError> {
    let inv = inverse(a)?;
    matmul(&inv, b)
}

/// Solve `Ax = B` the paper's Eq. 2 *right* way: LU factorisation plus
/// substitution, no explicit inverse.
///
/// # Errors
///
/// Propagates factorisation and dimension failures.
pub fn solve_lu(a: &Tensor, b: &Tensor) -> Result<Tensor, LinalgError> {
    solve_lu_on(a, b, &mut Sharding::serial())
}

/// [`solve_lu`] with the factorisation's updates sharded as `par` says.
/// The result does not depend on `par`.
///
/// # Errors
///
/// As [`solve_lu`].
pub fn solve_lu_on(a: &Tensor, b: &Tensor, par: &mut Sharding) -> Result<Tensor, LinalgError> {
    let lu = LuFactorization::factorize_on(a, par)?;
    let x = match b.shape().rank() {
        1 => lu.solve_vec(b)?,
        2 => lu.solve_mat(b)?,
        _ => {
            return Err(LinalgError::DimensionMismatch {
                constraint: format!("rhs must be rank 1 or 2, found {}", b.shape()),
            })
        }
    };
    Ok(cast_like(x, b))
}

/// Determinant via LU.
///
/// # Errors
///
/// Propagates factorisation failures; a singular matrix yields `Ok(0.0)` is
/// **not** guaranteed — singularity surfaces as [`LinalgError::Singular`]
/// (use [`LuFactorization`] directly for a pivot-tolerant path).
pub fn det(a: &Tensor) -> Result<f64, LinalgError> {
    Ok(LuFactorization::factorize(a)?.det())
}

/// Flop model for `solve_via_inverse` on `n×n`·`n×k`:
/// inverse (`2n³`) + multiply (`2n²k`).
pub fn inverse_solve_flops(n: usize, k: usize) -> u64 {
    let n64 = n as u64;
    2 * n64 * n64 * n64 + 2 * n64 * n64 * k as u64
}

/// Flop model for `solve_lu` on `n×n`·`n×k`: factorise (`2n³/3`) +
/// `k` substitutions (`2n²` each).
pub fn lu_solve_flops(n: usize, k: usize) -> u64 {
    LuFactorization::factorization_flops(n) + LuFactorization::solve_flops(n) * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_tensor::{random_tensor, Distribution, Scalar, Shape};

    fn random_well_conditioned(n: usize, seed: u64) -> Tensor {
        let mut t = random_tensor(
            DType::Float64,
            Shape::matrix(n, n),
            seed,
            Distribution::Uniform,
        );
        for i in 0..n {
            let v = t.get(&[i, i]).unwrap().as_f64();
            t.set(&[i, i], Scalar::F64(v + n as f64)).unwrap();
        }
        t
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        for n in [1usize, 2, 5, 12] {
            let a = random_well_conditioned(n, n as u64);
            let inv = inverse(&a).unwrap();
            let prod = matmul(&a, &inv).unwrap();
            assert!(
                prod.allclose(&Tensor::eye(DType::Float64, n), 1e-9),
                "n={n}"
            );
        }
    }

    #[test]
    fn both_solvers_agree_vector_rhs() {
        // Eq. 2 soundness: A⁻¹B == LU-solve(A, B).
        for seed in 0..5u64 {
            let n = 10;
            let a = random_well_conditioned(n, seed);
            let b = random_tensor(
                DType::Float64,
                Shape::vector(n),
                seed + 50,
                Distribution::Uniform,
            );
            let x1 = solve_via_inverse(&a, &b).unwrap();
            let x2 = solve_lu(&a, &b).unwrap();
            assert!(
                x1.allclose(&x2, 1e-9),
                "seed {seed}: {}",
                x1.max_abs_diff(&x2)
            );
        }
    }

    #[test]
    fn both_solvers_agree_matrix_rhs() {
        let n = 8;
        let a = random_well_conditioned(n, 7);
        let b = random_tensor(
            DType::Float64,
            Shape::matrix(n, 4),
            77,
            Distribution::Uniform,
        );
        let x1 = solve_via_inverse(&a, &b).unwrap();
        let x2 = solve_lu(&a, &b).unwrap();
        assert_eq!(x1.shape(), &Shape::matrix(n, 4));
        assert!(x1.allclose(&x2, 1e-9));
    }

    #[test]
    fn solution_satisfies_system() {
        let a = random_well_conditioned(12, 3);
        let b = random_tensor(DType::Float64, Shape::vector(12), 33, Distribution::Uniform);
        let x = solve_lu(&a, &b).unwrap();
        let ax = matmul(&a, &x).unwrap();
        assert!(ax.allclose(&b, 1e-9));
    }

    #[test]
    fn det_of_known_matrices() {
        assert!((det(&Tensor::eye(DType::Float64, 4)).unwrap() - 1.0).abs() < 1e-12);
        let a = Tensor::from_shape_vec(Shape::matrix(2, 2), vec![1.0f64, 2.0, 3.0, 4.0]).unwrap();
        assert!((det(&a).unwrap() - (-2.0)).abs() < 1e-12);
    }

    #[test]
    fn flop_model_lu_strictly_cheaper() {
        // The Eq. 2 rewrite must win for every size with few RHS columns.
        for n in [8usize, 32, 128, 512] {
            for k in [1usize, 4] {
                assert!(
                    lu_solve_flops(n, k) < inverse_solve_flops(n, k),
                    "n={n} k={k}"
                );
            }
        }
        // ... and the advantage approaches 3x for k << n.
        let ratio = inverse_solve_flops(256, 1) as f64 / lu_solve_flops(256, 1) as f64;
        assert!(ratio > 2.5 && ratio < 3.5, "ratio {ratio}");
    }

    #[test]
    fn singular_surfaces_cleanly() {
        let a = Tensor::from_shape_vec(Shape::matrix(2, 2), vec![1.0f64, 1.0, 1.0, 1.0]).unwrap();
        assert!(matches!(inverse(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn f32_round_trips() {
        let a = Tensor::eye(DType::Float32, 3);
        assert_eq!(inverse(&a).unwrap().dtype(), DType::Float32);
        let b = Tensor::ones(DType::Float32, Shape::vector(3));
        assert_eq!(solve_lu(&a, &b).unwrap().dtype(), DType::Float32);
    }

    #[test]
    fn bad_rhs_rank() {
        let a = Tensor::eye(DType::Float64, 2);
        let b = Tensor::zeros(DType::Float64, Shape::from([2, 2, 2]));
        assert!(solve_lu(&a, &b).is_err());
    }
}
