//! Dense matrix multiply and transpose.

use crate::error::LinalgError;
use crate::util::{cast_like, require_float};
use bh_tensor::{Shape, Tensor};

/// `C = A @ B` with NumPy `dot` shape semantics for rank ≤ 2:
/// matrix·matrix, matrix·vector, vector·matrix and vector·vector (dot
/// product, returned as a 1-element vector).
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] on inner-dimension disagreement or
/// rank > 2; [`LinalgError::UnsupportedDType`] for non-float inputs.
///
/// # Examples
///
/// ```
/// use bh_linalg::matmul;
/// use bh_tensor::{Shape, Tensor};
/// let a = Tensor::from_shape_vec(Shape::matrix(2, 2), vec![1.0f64, 2.0, 3.0, 4.0])?;
/// let x = Tensor::from_vec(vec![1.0f64, 1.0]);
/// assert_eq!(matmul(&a, &x)?.to_f64_vec(), vec![3.0, 7.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, LinalgError> {
    require_float(a)?;
    require_float(b)?;
    // Orientation is positional, as in NumPy: a rank-1 left operand is a
    // row vector, a rank-1 right operand a column vector.
    let (ar, ac, a_is_vec) = match a.shape().rank() {
        1 => (1, a.shape().dim(0), true),
        2 => (a.shape().dim(0), a.shape().dim(1), false),
        _ => {
            return Err(LinalgError::DimensionMismatch {
                constraint: format!("matmul operands must be rank 1 or 2, found {}", a.shape()),
            })
        }
    };
    let (br, bc, b_is_vec) = match b.shape().rank() {
        1 => (b.shape().dim(0), 1, true),
        2 => (b.shape().dim(0), b.shape().dim(1), false),
        _ => {
            return Err(LinalgError::DimensionMismatch {
                constraint: format!("matmul operands must be rank 1 or 2, found {}", b.shape()),
            })
        }
    };
    if ac != br {
        return Err(LinalgError::DimensionMismatch {
            constraint: format!("inner dimensions {} vs {}", a.shape(), b.shape()),
        });
    }
    let av = a.to_f64_vec();
    let bv = b.to_f64_vec();
    let mut out = vec![0.0f64; ar * bc];
    // ikj loop order: streams B rows, decent cache behaviour without
    // blocking; ample for the experiment sizes (n ≤ 512). A zero `aik` is
    // not skipped: `0·∞` and `0·NaN` are NaN, as in IEEE and NumPy.
    for i in 0..ar {
        for k in 0..ac {
            let aik = av[i * ac + k];
            let brow = &bv[k * bc..(k + 1) * bc];
            let orow = &mut out[i * bc..(i + 1) * bc];
            for j in 0..bc {
                orow[j] += aik * brow[j];
            }
        }
    }
    let shape = match (a_is_vec, b_is_vec) {
        (false, false) => Shape::matrix(ar, bc),
        (false, true) => Shape::vector(ar),
        (true, false) => Shape::vector(bc),
        (true, true) => Shape::vector(1),
    };
    let t = Tensor::from_shape_vec(shape, out).expect("output buffer sized from dims");
    Ok(cast_like(t, a))
}

/// Shape of `a @ b` without computing it (mirrors [`matmul`]'s rules).
pub fn matmul_result_shape(a: &Shape, b: &Shape) -> Option<Shape> {
    let (ac, a_is_vec, ar) = match a.rank() {
        1 => (a.dim(0), true, 1),
        2 => (a.dim(1), false, a.dim(0)),
        _ => return None,
    };
    let (br, b_is_vec, bc) = match b.rank() {
        1 => (b.dim(0), true, 1),
        2 => (b.dim(0), false, b.dim(1)),
        _ => return None,
    };
    if ac != br {
        return None;
    }
    Some(match (a_is_vec, b_is_vec) {
        (false, false) => Shape::matrix(ar, bc),
        (false, true) => Shape::vector(ar),
        (true, false) => Shape::vector(bc),
        (true, true) => Shape::vector(1),
    })
}

/// Matrix transpose.
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] unless the input is rank-2.
pub fn transpose(a: &Tensor) -> Result<Tensor, LinalgError> {
    if a.shape().rank() != 2 {
        return Err(LinalgError::DimensionMismatch {
            constraint: format!("transpose needs a matrix, found {}", a.shape()),
        });
    }
    let (r, c) = (a.shape().dim(0), a.shape().dim(1));
    let av = a.to_f64_vec();
    let mut out = vec![0.0f64; r * c];
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = av[i * c + j];
        }
    }
    let t = Tensor::from_shape_vec(Shape::matrix(c, r), out).expect("sized r*c");
    Ok(cast_like(t, a))
}

/// Flops of an `m×k @ k×n` multiply (`2mkn`).
pub fn matmul_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_tensor::{random_tensor, DType, Distribution};

    fn m(r: usize, c: usize, data: Vec<f64>) -> Tensor {
        Tensor::from_shape_vec(Shape::matrix(r, c), data).unwrap()
    }

    #[test]
    fn known_product() {
        let a = m(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &Shape::matrix(2, 2));
        assert_eq!(c.to_f64_vec(), vec![58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = random_tensor(
            DType::Float64,
            Shape::matrix(5, 5),
            4,
            Distribution::Uniform,
        );
        let i = Tensor::eye(DType::Float64, 5);
        assert!(matmul(&a, &i).unwrap().allclose(&a, 1e-14));
        assert!(matmul(&i, &a).unwrap().allclose(&a, 1e-14));
    }

    #[test]
    fn matrix_vector_and_dot() {
        let a = m(2, 2, vec![1., 2., 3., 4.]);
        let x = Tensor::from_vec(vec![1.0f64, 1.0]);
        assert_eq!(matmul(&a, &x).unwrap().to_f64_vec(), vec![3., 7.]);
        assert_eq!(matmul(&x, &a).unwrap().to_f64_vec(), vec![4., 6.]);
        let d = matmul(&x, &x).unwrap();
        assert_eq!(d.to_f64_vec(), vec![2.0]);
    }

    #[test]
    fn zero_times_inf_or_nan_is_nan() {
        let a = Tensor::from_vec(vec![0.0f64, 1.0]);
        for bad in [f64::INFINITY, f64::NAN] {
            let b = Tensor::from_vec(vec![bad, 1.0]);
            let d = matmul(&a, &b).unwrap().to_f64_vec();
            assert!(d[0].is_nan(), "[0, 1]·[{bad}, 1] = {d:?}");
        }
        // A zero row still yields a zero wherever B is finite.
        let a = m(1, 2, vec![0.0, 0.0]);
        let b = m(2, 2, vec![f64::INFINITY, 2.0, 3.0, -4.0]);
        let c = matmul(&a, &b).unwrap().to_f64_vec();
        assert!(c[0].is_nan());
        assert_eq!(c[1].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn inner_dim_mismatch() {
        let a = m(2, 3, vec![0.0; 6]);
        let b = m(2, 3, vec![0.0; 6]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn associativity_numerical() {
        let a = random_tensor(
            DType::Float64,
            Shape::matrix(4, 4),
            1,
            Distribution::Uniform,
        );
        let b = random_tensor(
            DType::Float64,
            Shape::matrix(4, 4),
            2,
            Distribution::Uniform,
        );
        let c = random_tensor(
            DType::Float64,
            Shape::matrix(4, 4),
            3,
            Distribution::Uniform,
        );
        let left = matmul(&matmul(&a, &b).unwrap(), &c).unwrap();
        let right = matmul(&a, &matmul(&b, &c).unwrap()).unwrap();
        assert!(left.allclose(&right, 1e-10));
    }

    #[test]
    fn transpose_round_trip() {
        let a = m(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let t = transpose(&a).unwrap();
        assert_eq!(t.shape(), &Shape::matrix(3, 2));
        assert_eq!(t.get(&[2, 1]).unwrap().as_f64(), 6.0);
        assert!(transpose(&t).unwrap().allclose(&a, 0.0));
    }

    #[test]
    fn f32_stays_f32() {
        let a = Tensor::eye(DType::Float32, 3);
        assert_eq!(matmul(&a, &a).unwrap().dtype(), DType::Float32);
        assert_eq!(transpose(&a).unwrap().dtype(), DType::Float32);
    }

    #[test]
    fn int_rejected() {
        let a = Tensor::eye(DType::Int64, 2);
        assert!(matmul(&a, &a).is_err());
    }

    #[test]
    fn flops_formula() {
        assert_eq!(matmul_flops(2, 3, 4), 48);
    }
}
