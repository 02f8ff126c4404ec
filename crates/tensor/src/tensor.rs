//! Owned dense tensors.
//!
//! [`Tensor`] is the user-facing result type: a dtype-tagged buffer plus a
//! shape, always stored contiguous row-major. The VM produces these when a
//! program syncs a register back to the host, and `bh-linalg` computes
//! directly on them.

use crate::buffer::Buffer;
use crate::dtype::DType;
use crate::eltops::Element;
use crate::error::TensorError;
use crate::scalar::Scalar;
use crate::shape::Shape;
use crate::view::ViewGeom;
use std::fmt;

/// A dense, contiguous, row-major tensor.
///
/// # Examples
///
/// ```
/// use bh_tensor::{Tensor, DType, Shape};
/// let t = Tensor::zeros(DType::Float64, Shape::from([2, 3]));
/// assert_eq!(t.shape().nelem(), 6);
/// let u = Tensor::from_vec(vec![1.0f64, 2.0, 3.0]);
/// assert_eq!(u.get(&[1]).unwrap().as_f64(), 2.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    buffer: Buffer,
    shape: Shape,
}

impl Tensor {
    /// All-zeros tensor.
    pub fn zeros(dtype: DType, shape: Shape) -> Tensor {
        let n = shape.nelem();
        Tensor {
            buffer: Buffer::zeros(dtype, n),
            shape,
        }
    }

    /// All-ones tensor.
    pub fn ones(dtype: DType, shape: Shape) -> Tensor {
        Tensor::full(dtype, shape, Scalar::one(dtype))
    }

    /// Tensor filled with `value` (cast to `dtype`).
    pub fn full(dtype: DType, shape: Shape, value: Scalar) -> Tensor {
        let n = shape.nelem();
        Tensor {
            buffer: Buffer::full(dtype, n, value),
            shape,
        }
    }

    /// 1-D tensor from a typed vector.
    pub fn from_vec<T: Element>(v: Vec<T>) -> Tensor {
        let shape = Shape::vector(v.len());
        Tensor {
            buffer: Buffer::from_vec(v),
            shape,
        }
    }

    /// Tensor of `shape` from a typed vector in row-major order.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] if `v.len() != shape.nelem()`.
    pub fn from_shape_vec<T: Element>(shape: Shape, v: Vec<T>) -> Result<Tensor, TensorError> {
        if v.len() != shape.nelem() {
            return Err(TensorError::ShapeMismatch {
                expected: shape,
                found: Shape::vector(v.len()),
            });
        }
        Ok(Tensor {
            buffer: Buffer::from_vec(v),
            shape,
        })
    }

    /// Tensor of `shape` computed element-wise from the multi-index.
    pub fn from_fn<T: Element>(shape: Shape, mut f: impl FnMut(&[usize]) -> T) -> Tensor {
        let n = shape.nelem();
        let mut data = Vec::with_capacity(n);
        for flat in 0..n {
            data.push(f(&shape.unravel(flat)));
        }
        Tensor {
            buffer: Buffer::from_vec(data),
            shape,
        }
    }

    /// `[0, 1, …, n-1]` as `dtype`.
    pub fn arange(dtype: DType, n: usize) -> Tensor {
        let mut buffer = Buffer::zeros(dtype, n);
        for i in 0..n {
            buffer
                .set_scalar(i, Scalar::from_i64(i as i64, dtype))
                .expect("index in range");
        }
        Tensor {
            buffer,
            shape: Shape::vector(n),
        }
    }

    /// `n` evenly spaced f64 samples over `[start, stop]` inclusive.
    pub fn linspace(start: f64, stop: f64, n: usize) -> Tensor {
        let data: Vec<f64> = if n <= 1 {
            vec![start; n]
        } else {
            (0..n)
                .map(|i| start + (stop - start) * i as f64 / (n - 1) as f64)
                .collect()
        };
        Tensor::from_vec(data)
    }

    /// The `n × n` identity matrix of `dtype`.
    pub fn eye(dtype: DType, n: usize) -> Tensor {
        let mut t = Tensor::zeros(dtype, Shape::matrix(n, n));
        for i in 0..n {
            t.set(&[i, i], Scalar::one(dtype)).expect("index in range");
        }
        t
    }

    /// The element dtype.
    pub fn dtype(&self) -> DType {
        self.buffer.dtype()
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn nelem(&self) -> usize {
        self.shape.nelem()
    }

    /// Underlying flat buffer.
    pub fn buffer(&self) -> &Buffer {
        &self.buffer
    }

    /// True when both tensors are copy-on-write views of one allocation
    /// (see [`Buffer::shares_storage_with`]).
    pub fn shares_storage_with(&self, other: &Tensor) -> bool {
        self.buffer.shares_storage_with(other.buffer())
    }

    /// Mutable access to the flat buffer.
    pub fn buffer_mut(&mut self) -> &mut Buffer {
        &mut self.buffer
    }

    /// Consume into the flat buffer and shape.
    pub fn into_parts(self) -> (Buffer, Shape) {
        (self.buffer, self.shape)
    }

    /// Reassemble from parts.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] if the buffer length disagrees with
    /// the shape.
    pub fn from_parts(buffer: Buffer, shape: Shape) -> Result<Tensor, TensorError> {
        if buffer.len() != shape.nelem() {
            return Err(TensorError::ShapeMismatch {
                expected: shape,
                found: Shape::vector(buffer.len()),
            });
        }
        Ok(Tensor { buffer, shape })
    }

    /// The full contiguous view of this tensor.
    pub fn view(&self) -> ViewGeom {
        ViewGeom::contiguous(&self.shape)
    }

    /// Typed read access to the flat data.
    pub fn as_slice<T: Element>(&self) -> Option<&[T]> {
        self.buffer.as_slice::<T>()
    }

    /// Typed write access to the flat data.
    pub fn as_mut_slice<T: Element>(&mut self) -> Option<&mut [T]> {
        self.buffer.as_mut_slice::<T>()
    }

    /// Read the element at a multi-index.
    ///
    /// # Errors
    ///
    /// [`TensorError::OutOfBounds`] / [`TensorError::ShapeMismatch`] for bad
    /// indices.
    pub fn get(&self, idx: &[usize]) -> Result<Scalar, TensorError> {
        self.check_index(idx)?;
        self.buffer.get_scalar(self.shape.ravel(idx))
    }

    /// Write the element at a multi-index (value cast to the tensor dtype).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::get`].
    pub fn set(&mut self, idx: &[usize], value: Scalar) -> Result<(), TensorError> {
        self.check_index(idx)?;
        let flat = self.shape.ravel(idx);
        self.buffer.set_scalar(flat, value)
    }

    fn check_index(&self, idx: &[usize]) -> Result<(), TensorError> {
        if idx.len() != self.shape.rank() {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                found: Shape::vector(idx.len()),
            });
        }
        for (axis, (&i, &d)) in idx.iter().zip(self.shape.dims()).enumerate() {
            if i >= d {
                let _ = axis;
                return Err(TensorError::OutOfBounds { offset: i, len: d });
            }
        }
        Ok(())
    }

    /// Reinterpret with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] if the counts differ.
    pub fn reshape(self, shape: Shape) -> Result<Tensor, TensorError> {
        if shape.nelem() != self.nelem() {
            return Err(TensorError::ShapeMismatch {
                expected: shape,
                found: self.shape,
            });
        }
        Ok(Tensor {
            buffer: self.buffer,
            shape,
        })
    }

    /// Copy cast to another dtype.
    pub fn cast(&self, dtype: DType) -> Tensor {
        Tensor {
            buffer: self.buffer.cast(dtype),
            shape: self.shape.clone(),
        }
    }

    /// New tensor with `f` applied to every element (dtype preserved).
    pub fn map<T: Element>(&self, f: impl Fn(T) -> T) -> Option<Tensor> {
        let data = self.as_slice::<T>()?;
        let mapped: Vec<T> = data.iter().map(|&x| f(x)).collect();
        Some(Tensor {
            buffer: Buffer::from_vec(mapped),
            shape: self.shape.clone(),
        })
    }

    /// New tensor combining two same-shape, same-dtype tensors element-wise.
    ///
    /// # Errors
    ///
    /// Shape or dtype mismatch.
    pub fn zip<T: Element>(
        &self,
        other: &Tensor,
        f: impl Fn(T, T) -> T,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                found: other.shape.clone(),
            });
        }
        let a = self.as_slice::<T>().ok_or(TensorError::DTypeMismatch {
            expected: T::DTYPE,
            found: self.dtype(),
        })?;
        let b = other.as_slice::<T>().ok_or(TensorError::DTypeMismatch {
            expected: T::DTYPE,
            found: other.dtype(),
        })?;
        let data: Vec<T> = a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect();
        Ok(Tensor {
            buffer: Buffer::from_vec(data),
            shape: self.shape.clone(),
        })
    }

    /// All elements as f64 in row-major order.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        self.buffer.to_f64_vec()
    }

    /// Maximum absolute element-wise difference to `other` (∞ on shape
    /// mismatch). Testing helper.
    pub fn max_abs_diff(&self, other: &Tensor) -> f64 {
        if self.shape != other.shape {
            return f64::INFINITY;
        }
        self.to_f64_vec()
            .iter()
            .zip(other.to_f64_vec())
            .map(|(a, b)| {
                if a.is_nan() && b.is_nan() {
                    0.0
                } else {
                    (a - b).abs()
                }
            })
            .fold(0.0, f64::max)
    }

    /// True when every element differs from `other` by at most `tol`
    /// (NaNs compare equal to NaNs).
    pub fn allclose(&self, other: &Tensor, tol: f64) -> bool {
        self.max_abs_diff(other) <= tol
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor<{} {}> {:?}",
            self.dtype(),
            self.shape,
            self.buffer
        )
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX: usize = 16;
        match self.shape.rank() {
            0 => write!(
                f,
                "{}",
                self.buffer.get_scalar(0).expect("scalar has one element")
            ),
            1 => {
                write!(f, "[")?;
                let n = self.nelem();
                for i in 0..n.min(MAX) {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{}", self.buffer.get_scalar(i).expect("index in range"))?;
                }
                if n > MAX {
                    write!(f, " …")?;
                }
                write!(f, "]")
            }
            2 => {
                let (r, c) = (self.shape.dim(0), self.shape.dim(1));
                writeln!(f, "[")?;
                for i in 0..r.min(MAX) {
                    write!(f, " [")?;
                    for j in 0..c.min(MAX) {
                        if j > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "{}", self.get(&[i, j]).expect("index in range"))?;
                    }
                    if c > MAX {
                        write!(f, " …")?;
                    }
                    writeln!(f, "]")?;
                }
                if r > MAX {
                    writeln!(f, " …")?;
                }
                write!(f, "]")
            }
            _ => write!(f, "Tensor<{} {}>", self.dtype(), self.shape),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(DType::Float64, Shape::from([2, 2]));
        assert_eq!(z.to_f64_vec(), vec![0.0; 4]);
        let o = Tensor::ones(DType::Int32, Shape::vector(3));
        assert_eq!(o.to_f64_vec(), vec![1.0; 3]);
        let f = Tensor::full(DType::Float32, Shape::vector(2), Scalar::F64(2.5));
        assert_eq!(f.to_f64_vec(), vec![2.5; 2]);
    }

    #[test]
    fn arange_and_linspace() {
        let a = Tensor::arange(DType::Int64, 5);
        assert_eq!(a.to_f64_vec(), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let l = Tensor::linspace(0.0, 1.0, 5);
        assert_eq!(l.to_f64_vec(), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(Tensor::linspace(3.0, 9.0, 1).to_f64_vec(), vec![3.0]);
    }

    #[test]
    fn eye_matrix() {
        let i = Tensor::eye(DType::Float64, 3);
        assert_eq!(i.get(&[0, 0]).unwrap().as_f64(), 1.0);
        assert_eq!(i.get(&[0, 1]).unwrap().as_f64(), 0.0);
        assert_eq!(i.get(&[2, 2]).unwrap().as_f64(), 1.0);
    }

    #[test]
    fn from_fn_builds_index_pattern() {
        let t = Tensor::from_fn(Shape::from([2, 3]), |idx| (idx[0] * 10 + idx[1]) as i64);
        assert_eq!(t.to_f64_vec(), vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(DType::Float64, Shape::from([2, 2]));
        t.set(&[1, 0], Scalar::F64(5.0)).unwrap();
        assert_eq!(t.get(&[1, 0]).unwrap().as_f64(), 5.0);
        assert!(t.get(&[2, 0]).is_err());
        assert!(t.get(&[0]).is_err());
    }

    #[test]
    fn reshape_checks_count() {
        let t = Tensor::arange(DType::Int32, 6);
        let m = t.clone().reshape(Shape::from([2, 3])).unwrap();
        assert_eq!(m.get(&[1, 2]).unwrap().as_f64(), 5.0);
        assert!(t.reshape(Shape::from([4, 2])).is_err());
    }

    #[test]
    fn from_shape_vec_validates() {
        assert!(Tensor::from_shape_vec(Shape::from([2, 2]), vec![1.0f64; 3]).is_err());
        let t = Tensor::from_shape_vec(Shape::from([2, 2]), vec![1.0f64; 4]).unwrap();
        assert_eq!(t.nelem(), 4);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(vec![1.0f64, 2.0]);
        let b = Tensor::from_vec(vec![10.0f64, 20.0]);
        let m = a.map::<f64>(|x| x * 3.0).unwrap();
        assert_eq!(m.to_f64_vec(), vec![3.0, 6.0]);
        let z = a.zip::<f64>(&b, |x, y| x + y).unwrap();
        assert_eq!(z.to_f64_vec(), vec![11.0, 22.0]);
        // dtype mismatch surfaces as error
        let c = Tensor::from_vec(vec![1i32, 2]);
        assert!(a.zip::<f64>(&c, |x, y| x + y).is_err());
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::from_vec(vec![1.0f64, 2.0]);
        let b = Tensor::from_vec(vec![1.0f64, 2.0 + 1e-12]);
        assert!(a.allclose(&b, 1e-9));
        assert!(!a.allclose(&b, 1e-15));
        let c = Tensor::from_vec(vec![1.0f64]);
        assert_eq!(a.max_abs_diff(&c), f64::INFINITY);
    }

    #[test]
    fn nan_aware_comparison() {
        let a = Tensor::from_vec(vec![f64::NAN, 1.0]);
        let b = Tensor::from_vec(vec![f64::NAN, 1.0]);
        assert!(a.allclose(&b, 0.0));
    }

    #[test]
    fn display_small() {
        let t = Tensor::from_vec(vec![1.0f64, 2.5]);
        assert_eq!(t.to_string(), "[1.0 2.5]");
        let m = Tensor::eye(DType::Int32, 2);
        assert!(m.to_string().contains("[1 0]"));
    }

    #[test]
    fn cast_preserves_shape() {
        let t = Tensor::arange(DType::Int32, 4)
            .reshape(Shape::from([2, 2]))
            .unwrap();
        let c = t.cast(DType::Float64);
        assert_eq!(c.shape(), &Shape::from([2, 2]));
        assert_eq!(c.dtype(), DType::Float64);
    }

    #[test]
    fn parts_round_trip() {
        let t = Tensor::arange(DType::Int64, 4);
        let (b, s) = t.clone().into_parts();
        let t2 = Tensor::from_parts(b, s).unwrap();
        assert_eq!(t, t2);
        let bad = Tensor::from_parts(Buffer::zeros(DType::Int64, 3), Shape::from([2, 2]));
        assert!(bad.is_err());
    }
}
