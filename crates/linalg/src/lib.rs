//! # bh-linalg — dense linear-algebra substrate
//!
//! The linear-algebra routines behind the paper's context-aware Eq. 2
//! rewrite: solving `Ax = B` via an explicit inverse versus via LU
//! factorisation. The byte-code VM (`bh-vm`) executes `BH_MATMUL`,
//! `BH_INVERSE` and `BH_SOLVE` through this crate, and the benchmark
//! harness compares the two strategies directly.
//!
//! # Example
//!
//! ```
//! use bh_linalg::{solve_lu, solve_via_inverse};
//! use bh_tensor::{Shape, Tensor};
//!
//! let a = Tensor::from_shape_vec(Shape::matrix(2, 2), vec![2.0f64, 1.0, 1.0, 3.0])?;
//! let b = Tensor::from_vec(vec![3.0f64, 5.0]);
//! let fast = solve_lu(&a, &b)?;            // Eq. 2 right-hand side
//! let slow = solve_via_inverse(&a, &b)?;   // Eq. 2 left-hand side
//! assert!(fast.allclose(&slow, 1e-12));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod inverse;
mod lu;
mod matmul;
mod util;

pub use error::LinalgError;
pub use inverse::{
    det, inverse, inverse_on, inverse_solve_flops, lu_solve_flops, solve_lu, solve_lu_on,
    solve_via_inverse,
};
pub use lu::{LuFactorization, Sharding};
pub use matmul::{matmul, matmul_flops, matmul_result_shape, transpose};
