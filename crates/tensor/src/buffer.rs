//! Dynamically typed flat element storage.
//!
//! A [`Buffer`] is the backing store of one byte-code *base array*: a flat,
//! dtype-tagged vector of elements. Views ([`crate::ViewGeom`]) interpret a
//! buffer as an n-dimensional strided tensor.
//!
//! Storage is `Arc`-backed **copy-on-write**: cloning a buffer (and
//! therefore cloning a [`crate::Tensor`], or binding one as a VM input) is
//! an O(1) reference-count bump, no matter how many elements it holds. The
//! first mutation through a shared handle pays a single deep copy
//! ([`std::sync::Arc::make_mut`]); exclusively owned buffers mutate in
//! place with no overhead.

use crate::dtype::DType;
use crate::eltops::Element;
use crate::error::TensorError;
use crate::scalar::Scalar;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Flat typed storage for one base array.
///
/// # Examples
///
/// ```
/// use bh_tensor::{Buffer, DType, Scalar};
/// let mut b = Buffer::zeros(DType::Float64, 4);
/// b.set_scalar(2, Scalar::F64(7.5)).unwrap();
/// assert_eq!(b.get_scalar(2).unwrap(), Scalar::F64(7.5));
/// assert_eq!(b.len(), 4);
///
/// // Clones share storage until one side writes.
/// let c = b.clone();
/// assert!(c.shares_storage_with(&b));
/// let mut d = c.clone();
/// d.set_scalar(0, Scalar::F64(1.0)).unwrap();
/// assert!(!d.shares_storage_with(&b));
/// assert_eq!(b.get_scalar(0).unwrap(), Scalar::F64(0.0));
/// ```
#[derive(Clone, PartialEq)]
pub enum Buffer {
    /// Boolean storage.
    Bool(Arc<Vec<bool>>),
    /// `u8` storage.
    U8(Arc<Vec<u8>>),
    /// `u16` storage.
    U16(Arc<Vec<u16>>),
    /// `u32` storage.
    U32(Arc<Vec<u32>>),
    /// `u64` storage.
    U64(Arc<Vec<u64>>),
    /// `i8` storage.
    I8(Arc<Vec<i8>>),
    /// `i16` storage.
    I16(Arc<Vec<i16>>),
    /// `i32` storage.
    I32(Arc<Vec<i32>>),
    /// `i64` storage.
    I64(Arc<Vec<i64>>),
    /// `f32` storage.
    F32(Arc<Vec<f32>>),
    /// `f64` storage.
    F64(Arc<Vec<f64>>),
}

/// Dispatch a generic expression over every supported element type.
///
/// Binds the type parameter `$T` to the Rust element type matching the
/// runtime [`DType`] `$dtype`, then evaluates `$body`.
///
/// ```
/// use bh_tensor::{with_dtype, DType};
/// let size = with_dtype!(DType::Int32, T, std::mem::size_of::<T>());
/// assert_eq!(size, 4);
/// ```
#[macro_export]
macro_rules! with_dtype {
    ($dtype:expr, $T:ident, $body:expr) => {
        match $dtype {
            $crate::DType::Bool => {
                type $T = bool;
                $body
            }
            $crate::DType::UInt8 => {
                type $T = u8;
                $body
            }
            $crate::DType::UInt16 => {
                type $T = u16;
                $body
            }
            $crate::DType::UInt32 => {
                type $T = u32;
                $body
            }
            $crate::DType::UInt64 => {
                type $T = u64;
                $body
            }
            $crate::DType::Int8 => {
                type $T = i8;
                $body
            }
            $crate::DType::Int16 => {
                type $T = i16;
                $body
            }
            $crate::DType::Int32 => {
                type $T = i32;
                $body
            }
            $crate::DType::Int64 => {
                type $T = i64;
                $body
            }
            $crate::DType::Float32 => {
                type $T = f32;
                $body
            }
            $crate::DType::Float64 => {
                type $T = f64;
                $body
            }
        }
    };
}

macro_rules! for_each_variant {
    ($self:expr, $v:ident, $body:expr) => {
        match $self {
            Buffer::Bool($v) => $body,
            Buffer::U8($v) => $body,
            Buffer::U16($v) => $body,
            Buffer::U32($v) => $body,
            Buffer::U64($v) => $body,
            Buffer::I8($v) => $body,
            Buffer::I16($v) => $body,
            Buffer::I32($v) => $body,
            Buffer::I64($v) => $body,
            Buffer::F32($v) => $body,
            Buffer::F64($v) => $body,
        }
    };
}

impl Buffer {
    /// Allocate `n` zero-initialised elements of `dtype`.
    pub fn zeros(dtype: DType, n: usize) -> Buffer {
        with_dtype!(dtype, T, Buffer::from_vec(vec![<T as Element>::zero(); n]))
    }

    /// Allocate `n` elements of `dtype` all equal to `value` (cast to
    /// `dtype`).
    pub fn full(dtype: DType, n: usize, value: Scalar) -> Buffer {
        let v = value.cast(dtype);
        with_dtype!(dtype, T, Buffer::from_vec(vec![v.get::<T>(); n]))
    }

    /// Wrap a typed vector.
    pub fn from_vec<T: Element>(v: Vec<T>) -> Buffer {
        let any: Box<dyn Any> = Box::new(v);
        macro_rules! wrap {
            ($variant:ident) => {
                Buffer::$variant(Arc::new(*any.downcast().expect("dtype tag matches type")))
            };
        }
        match T::DTYPE {
            DType::Bool => wrap!(Bool),
            DType::UInt8 => wrap!(U8),
            DType::UInt16 => wrap!(U16),
            DType::UInt32 => wrap!(U32),
            DType::UInt64 => wrap!(U64),
            DType::Int8 => wrap!(I8),
            DType::Int16 => wrap!(I16),
            DType::Int32 => wrap!(I32),
            DType::Int64 => wrap!(I64),
            DType::Float32 => wrap!(F32),
            DType::Float64 => wrap!(F64),
        }
    }

    /// True when `self` and `other` are views of the *same* allocation —
    /// i.e. a copy-on-write clone whose deep copy has not been triggered.
    pub fn shares_storage_with(&self, other: &Buffer) -> bool {
        match (self, other) {
            (Buffer::Bool(a), Buffer::Bool(b)) => Arc::ptr_eq(a, b),
            (Buffer::U8(a), Buffer::U8(b)) => Arc::ptr_eq(a, b),
            (Buffer::U16(a), Buffer::U16(b)) => Arc::ptr_eq(a, b),
            (Buffer::U32(a), Buffer::U32(b)) => Arc::ptr_eq(a, b),
            (Buffer::U64(a), Buffer::U64(b)) => Arc::ptr_eq(a, b),
            (Buffer::I8(a), Buffer::I8(b)) => Arc::ptr_eq(a, b),
            (Buffer::I16(a), Buffer::I16(b)) => Arc::ptr_eq(a, b),
            (Buffer::I32(a), Buffer::I32(b)) => Arc::ptr_eq(a, b),
            (Buffer::I64(a), Buffer::I64(b)) => Arc::ptr_eq(a, b),
            (Buffer::F32(a), Buffer::F32(b)) => Arc::ptr_eq(a, b),
            (Buffer::F64(a), Buffer::F64(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// True when no other clone shares this storage, so nobody else can
    /// observe what it holds or what is written to it next. Takes `&mut`
    /// because only an exclusive handle can keep the answer true.
    pub fn is_unique(&mut self) -> bool {
        for_each_variant!(self, v, Arc::get_mut(v).is_some())
    }

    /// The dtype of the stored elements.
    pub fn dtype(&self) -> DType {
        fn of<T: Element>(_: &[T]) -> DType {
            T::DTYPE
        }
        for_each_variant!(self, v, of(v))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        for_each_variant!(self, v, v.len())
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes of the stored elements.
    pub fn size_bytes(&self) -> usize {
        self.len() * self.dtype().size_of()
    }

    /// Typed read access; `None` when `T` does not match the dtype.
    pub fn as_slice<T: Element>(&self) -> Option<&[T]> {
        for_each_variant!(
            self,
            v,
            (v.as_ref() as &dyn Any)
                .downcast_ref::<Vec<T>>()
                .map(|v| v.as_slice())
        )
    }

    /// Typed write access; `None` when `T` does not match the dtype.
    ///
    /// If the storage is shared with other clones this triggers the
    /// copy-on-write deep copy first (the dtype is checked *before* that,
    /// so a mismatched call never copies).
    pub fn as_mut_slice<T: Element>(&mut self) -> Option<&mut [T]> {
        if T::DTYPE != self.dtype() {
            return None;
        }
        for_each_variant!(
            self,
            v,
            (Arc::make_mut(v) as &mut dyn Any)
                .downcast_mut::<Vec<T>>()
                .map(|v| v.as_mut_slice())
        )
    }

    /// Read one element as a [`Scalar`].
    ///
    /// # Errors
    ///
    /// [`TensorError::OutOfBounds`] if `idx >= len`.
    pub fn get_scalar(&self, idx: usize) -> Result<Scalar, TensorError> {
        if idx >= self.len() {
            return Err(TensorError::OutOfBounds {
                offset: idx,
                len: self.len(),
            });
        }
        Ok(for_each_variant!(self, v, Scalar::from(v[idx])))
    }

    /// Write one element from a [`Scalar`] (cast to the buffer dtype).
    ///
    /// # Errors
    ///
    /// [`TensorError::OutOfBounds`] if `idx >= len`.
    pub fn set_scalar(&mut self, idx: usize, value: Scalar) -> Result<(), TensorError> {
        if idx >= self.len() {
            return Err(TensorError::OutOfBounds {
                offset: idx,
                len: self.len(),
            });
        }
        let v = value.cast(self.dtype());
        for_each_variant!(self, b, Arc::make_mut(b)[idx] = v.get());
        Ok(())
    }

    /// Copy into a new buffer of another dtype, each element converted by
    /// [`Element::cast`].
    pub fn cast(&self, dtype: DType) -> Buffer {
        if dtype == self.dtype() {
            return self.clone();
        }
        with_dtype!(dtype, T, Buffer::from_vec(self.cast_vec::<T>()))
    }

    /// All elements converted to `f64` by [`Element::cast`]; an `f64`
    /// buffer is copied as a slice.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        match self {
            Buffer::F64(v) => v.to_vec(),
            _ => self.cast_vec(),
        }
    }

    /// Every element cast to `T`, in one typed loop.
    fn cast_vec<T: Element>(&self) -> Vec<T> {
        for_each_variant!(self, v, v.iter().map(|&x| x.cast::<T>()).collect())
    }
}

impl fmt::Debug for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Buffer<{}>[len={}; ", self.dtype(), self.len())?;
        for i in 0..self.len().min(PREVIEW) {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.get_scalar(i).expect("index in range"))?;
        }
        if self.len() > PREVIEW {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::ALL_DTYPES;

    #[test]
    fn zeros_all_dtypes() {
        for &d in &ALL_DTYPES {
            let b = Buffer::zeros(d, 5);
            assert_eq!(b.dtype(), d);
            assert_eq!(b.len(), 5);
            for i in 0..5 {
                assert!(b.get_scalar(i).unwrap().is_zero(), "{d}");
            }
        }
    }

    #[test]
    fn full_casts_value() {
        let b = Buffer::full(DType::Int32, 3, Scalar::F64(2.9));
        assert_eq!(b.get_scalar(0).unwrap(), Scalar::I32(2));
    }

    #[test]
    fn from_vec_round_trip() {
        let b = Buffer::from_vec(vec![1.5f64, -2.0, 0.25]);
        assert_eq!(b.dtype(), DType::Float64);
        assert_eq!(b.as_slice::<f64>().unwrap(), &[1.5, -2.0, 0.25]);
        let b = Buffer::from_vec(vec![true, false]);
        assert_eq!(b.as_slice::<bool>().unwrap(), &[true, false]);
        let b = Buffer::from_vec(vec![7u16, 9]);
        assert_eq!(b.as_slice::<u16>().unwrap(), &[7, 9]);
    }

    #[test]
    fn as_slice_rejects_wrong_type() {
        let b = Buffer::zeros(DType::Float32, 2);
        assert!(b.as_slice::<f64>().is_none());
        assert!(b.as_slice::<f32>().is_some());
    }

    #[test]
    fn mutate_via_typed_slice() {
        let mut b = Buffer::zeros(DType::Int64, 4);
        b.as_mut_slice::<i64>().unwrap()[3] = -9;
        assert_eq!(b.get_scalar(3).unwrap(), Scalar::I64(-9));
    }

    #[test]
    fn get_set_bounds() {
        let mut b = Buffer::zeros(DType::Float64, 2);
        assert!(b.get_scalar(2).is_err());
        assert!(b.set_scalar(2, Scalar::F64(1.0)).is_err());
    }

    #[test]
    fn cast_buffer() {
        let b = Buffer::from_vec(vec![1.9f64, -0.5, 3.0]);
        let c = b.cast(DType::Int32);
        assert_eq!(c.as_slice::<i32>().unwrap(), &[1, 0, 3]);
        // cast to same dtype is a clone
        let d = b.cast(DType::Float64);
        assert_eq!(d, b);
    }

    #[test]
    fn size_bytes() {
        assert_eq!(Buffer::zeros(DType::Float64, 10).size_bytes(), 80);
        assert_eq!(Buffer::zeros(DType::UInt8, 10).size_bytes(), 10);
    }

    #[test]
    fn debug_preview_truncates() {
        let b = Buffer::zeros(DType::Int32, 100);
        let s = format!("{b:?}");
        assert!(s.contains("len=100"));
        assert!(s.contains('…'));
    }

    #[test]
    fn with_dtype_macro_dispatches() {
        for &d in &ALL_DTYPES {
            let size = with_dtype!(d, T, std::mem::size_of::<T>());
            assert_eq!(size, d.size_of().max(1));
        }
    }

    #[test]
    fn to_f64_vec() {
        let b = Buffer::from_vec(vec![1i32, 2, 3]);
        assert_eq!(b.to_f64_vec(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn to_f64_vec_agrees_with_scalar_as_f64_on_every_dtype() {
        let big = (1i64 << 53) + 1;
        let buffers = [
            Buffer::from_vec(vec![false, true]),
            Buffer::from_vec(vec![0u8, 1, u8::MAX]),
            Buffer::from_vec(vec![0u16, u16::MAX]),
            Buffer::from_vec(vec![0u32, u32::MAX]),
            Buffer::from_vec(vec![0u64, big as u64, u64::MAX, u64::MAX - 1]),
            Buffer::from_vec(vec![i8::MIN, -1, 0, i8::MAX]),
            Buffer::from_vec(vec![i16::MIN, i16::MAX]),
            Buffer::from_vec(vec![i32::MIN, -1, i32::MAX]),
            Buffer::from_vec(vec![i64::MIN, -big, big, i64::MAX]),
            Buffer::from_vec(vec![0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::MIN, 0.1]),
            Buffer::from_vec(vec![
                0.0f64,
                -0.0,
                f64::NAN,
                -f64::NAN,
                f64::MIN_POSITIVE,
                0.1,
            ]),
        ];
        for b in &buffers {
            let got = b.to_f64_vec();
            assert_eq!(got.len(), b.len());
            for (i, v) in got.iter().enumerate() {
                let want = b.get_scalar(i).unwrap().as_f64();
                assert_eq!(v.to_bits(), want.to_bits(), "{b:?}[{i}]");
            }
        }
    }

    #[test]
    fn clone_shares_until_written() {
        let a = Buffer::from_vec(vec![1.0f64, 2.0, 3.0]);
        let mut b = a.clone();
        assert!(a.shares_storage_with(&b));
        // Reads keep the sharing intact.
        assert_eq!(b.get_scalar(1).unwrap(), Scalar::F64(2.0));
        assert!(a.shares_storage_with(&b));
        // First write through either handle splits them.
        b.as_mut_slice::<f64>().unwrap()[0] = 9.0;
        assert!(!a.shares_storage_with(&b));
        assert_eq!(a.get_scalar(0).unwrap(), Scalar::F64(1.0));
        assert_eq!(b.get_scalar(0).unwrap(), Scalar::F64(9.0));
    }

    #[test]
    fn set_scalar_copies_on_write() {
        let a = Buffer::from_vec(vec![7i64; 4]);
        let mut b = a.clone();
        b.set_scalar(2, Scalar::I64(-1)).unwrap();
        assert_eq!(a.get_scalar(2).unwrap(), Scalar::I64(7));
        assert_eq!(b.get_scalar(2).unwrap(), Scalar::I64(-1));
    }

    #[test]
    fn mismatched_mut_access_never_copies() {
        let a = Buffer::from_vec(vec![1.0f32; 8]);
        let mut b = a.clone();
        assert!(b.as_mut_slice::<f64>().is_none());
        // The failed typed access must not have broken the sharing.
        assert!(a.shares_storage_with(&b));
    }

    #[test]
    fn exclusive_owner_mutates_in_place() {
        let mut a = Buffer::from_vec(vec![0u32; 4]);
        let before = a.as_slice::<u32>().unwrap().as_ptr();
        a.as_mut_slice::<u32>().unwrap()[0] = 5;
        assert_eq!(a.as_slice::<u32>().unwrap().as_ptr(), before);
    }

    #[test]
    fn uniqueness_follows_the_clones() {
        let mut a = Buffer::zeros(DType::Float64, 4);
        assert!(a.is_unique());
        let b = a.clone();
        assert!(!a.is_unique());
        drop(b);
        assert!(a.is_unique());
    }

    #[test]
    fn shares_storage_is_per_allocation() {
        let a = Buffer::from_vec(vec![1.0f64]);
        let b = Buffer::from_vec(vec![1.0f64]);
        assert_eq!(a, b);
        assert!(!a.shares_storage_with(&b));
        assert!(!a.shares_storage_with(&Buffer::from_vec(vec![1i32])));
    }
}
