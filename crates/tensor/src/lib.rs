//! # bh-tensor — dense strided tensor substrate
//!
//! The storage and compute substrate for the reproduction of
//! *Algebraic Transformation of Descriptive Vector Byte-code Sequences*
//! (Middleware DS '16). Bohrium byte-code "operates on tensors of varying
//! size and shape" through strided *views* of flat *base arrays*; this crate
//! provides exactly those pieces:
//!
//! * [`DType`] / [`Scalar`] — the dynamically typed element world of the
//!   byte-code, with NumPy-compatible promotion.
//! * [`Shape`] / [`Slice`] / [`ViewGeom`] — `[start:stop:step]` view
//!   geometry as written in the paper's listings.
//! * [`Buffer`] — flat, dtype-tagged storage for one base array.
//! * [`Tensor`] — owned, contiguous tensors (host-side results).
//! * [`kernels`] — the strided loops every byte-code bottoms out in.
//!
//! # Example
//!
//! ```
//! use bh_tensor::{kernels, DType, Shape, Slice, Tensor, ViewGeom};
//!
//! // The paper's `a0 [0:10:1]` view, and every other element of it:
//! let base = Shape::vector(10);
//! let full = ViewGeom::from_slices(&base, &[Slice::new(Some(0), Some(10), 1)]).unwrap();
//! let evens = ViewGeom::from_slices(&base, &[Slice::new(Some(0), Some(10), 2)]).unwrap();
//! let mut a0 = Tensor::zeros(DType::Float64, base);
//!
//! // BH_IDENTITY a0 [0:10:1] 1, then BH_IDENTITY a0 [0:10:2] 3:
//! kernels::fill(a0.as_mut_slice::<f64>().unwrap(), &full, 1.0);
//! kernels::fill(a0.as_mut_slice::<f64>().unwrap(), &evens, 3.0);
//! assert_eq!(a0.to_f64_vec(), [3.0, 1.0].repeat(5));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

mod buffer;
mod dtype;
mod eltops;
mod error;
pub mod kernels;
mod random;
mod scalar;
mod shape;
mod shard;
mod tensor;
mod view;

pub use buffer::Buffer;
pub use dtype::{DType, ParseDTypeError, ALL_DTYPES};
pub use eltops::Element;
pub use error::TensorError;
pub use random::{random_tensor, Distribution};
pub use scalar::{ParseScalarError, Scalar};
pub use shape::Shape;
pub use tensor::Tensor;
pub use view::{Offsets, Slice, ViewDim, ViewGeom};
