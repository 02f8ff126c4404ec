//! Strided views over base buffers.
//!
//! A Bohrium operand like `a0 [0:10:1]` names a *view* of the base array
//! `a0`: per-axis `start:stop:step` slices. [`Slice`] implements the
//! Python/NumPy slicing semantics used by the listings, and [`ViewGeom`] is
//! the resolved offset/stride geometry the kernels iterate over.

use crate::error::TensorError;
use crate::shape::Shape;
use std::fmt;

/// A `start:stop:step` slice with Python semantics.
///
/// `start`/`stop` may be negative (counted from the end) or omitted
/// (`None`), `step` may be negative but not zero.
///
/// # Examples
///
/// ```
/// use bh_tensor::Slice;
/// let s = Slice::new(Some(0), Some(10), 1);
/// assert_eq!(s.resolve(10).unwrap(), (0, 10, 1));
/// // Reversal:
/// let r = Slice::new(None, None, -1);
/// assert_eq!(r.resolve(4).unwrap(), (3, 4, -1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slice {
    /// Start index; `None` means "from the beginning" (or end for step < 0).
    pub start: Option<i64>,
    /// Stop index (exclusive); `None` means "to the end" (or beginning).
    pub stop: Option<i64>,
    /// Step; must be non-zero.
    pub step: i64,
}

impl Slice {
    /// Create a slice. `step` must be non-zero (checked at [`resolve`] time
    /// so literals can be built in `const` contexts).
    ///
    /// [`resolve`]: Slice::resolve
    pub const fn new(start: Option<i64>, stop: Option<i64>, step: i64) -> Slice {
        Slice { start, stop, step }
    }

    /// The full slice `::1`.
    pub const fn full() -> Slice {
        Slice {
            start: None,
            stop: None,
            step: 1,
        }
    }

    /// `start:stop` with step 1.
    pub const fn range(start: i64, stop: i64) -> Slice {
        Slice {
            start: Some(start),
            stop: Some(stop),
            step: 1,
        }
    }

    /// A single index `i` as a length-1 slice (the axis is kept).
    pub const fn index(i: i64) -> Slice {
        Slice {
            start: Some(i),
            stop: Some(i + 1),
            step: 1,
        }
    }

    /// Resolve against an axis of length `len`, yielding
    /// `(first_index, out_len, step)` exactly as CPython's
    /// `slice.indices()` does.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidSlice`] when `step == 0`.
    pub fn resolve(self, len: usize) -> Result<(usize, usize, i64), TensorError> {
        if self.step == 0 {
            return Err(TensorError::InvalidSlice {
                reason: "slice step cannot be zero".into(),
            });
        }
        let n = len as i64;
        let step = self.step;
        // CPython slice.indices(): lower/upper bounds depend on direction.
        let (lower, upper) = if step > 0 { (0, n) } else { (-1, n - 1) };
        let resolve_bound = |v: Option<i64>, default: i64| match v {
            None => default,
            Some(s) if s < 0 => (s + n).max(lower),
            Some(s) => s.min(upper),
        };
        let (def_start, def_stop) = if step > 0 { (0, n) } else { (n - 1, -1) };
        let start = resolve_bound(self.start, def_start).max(lower);
        let stop = resolve_bound(self.stop, def_stop).max(lower);
        let out_len = if step > 0 {
            if stop > start {
                ((stop - start - 1) / step + 1) as usize
            } else {
                0
            }
        } else if start > stop {
            ((start - stop - 1) / (-step) + 1) as usize
        } else {
            0
        };
        let first = if out_len == 0 { 0 } else { start as usize };
        Ok((first, out_len, step))
    }
}

impl Default for Slice {
    fn default() -> Slice {
        Slice::full()
    }
}

impl fmt::Display for Slice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(s) = self.start {
            write!(f, "{s}")?;
        }
        write!(f, ":")?;
        if let Some(s) = self.stop {
            write!(f, "{s}")?;
        }
        write!(f, ":{}", self.step)
    }
}

/// One axis of a resolved view: logical length and base stride in elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewDim {
    /// Number of elements along this axis.
    pub len: usize,
    /// Distance in base elements between consecutive logical indices
    /// (zero for broadcast axes, negative for reversed slices).
    pub stride: isize,
}

/// Resolved offset/stride geometry of a view into a 1-D base buffer.
///
/// # Examples
///
/// ```
/// use bh_tensor::{Shape, ViewGeom, Slice};
/// let base = Shape::from([4, 6]);
/// let v = ViewGeom::contiguous(&base);
/// assert_eq!(v.nelem(), 24);
/// let sub = ViewGeom::from_slices(&base, &[Slice::range(1, 3), Slice::new(Some(0), None, 2)]).unwrap();
/// assert_eq!(sub.shape(), Shape::from([2, 3]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ViewGeom {
    offset: usize,
    dims: Vec<ViewDim>,
}

impl ViewGeom {
    /// The full contiguous row-major view of a base of shape `shape`.
    pub fn contiguous(shape: &Shape) -> ViewGeom {
        let strides = shape.row_major_strides();
        ViewGeom {
            offset: 0,
            dims: shape
                .dims()
                .iter()
                .zip(strides)
                .map(|(&len, s)| ViewDim {
                    len,
                    stride: s as isize,
                })
                .collect(),
        }
    }

    /// A rank-0 (scalar) view at base element `offset`.
    pub fn scalar_at(offset: usize) -> ViewGeom {
        ViewGeom {
            offset,
            dims: Vec::new(),
        }
    }

    /// Build from raw parts. `dims` lengths/strides are trusted; prefer
    /// [`ViewGeom::from_slices`] for checked construction.
    pub fn from_parts(offset: usize, dims: Vec<ViewDim>) -> ViewGeom {
        ViewGeom { offset, dims }
    }

    /// Apply per-axis slices to the contiguous view of `base_shape`.
    ///
    /// Fewer slices than axes means trailing axes are taken in full.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidSlice`] if `slices.len() > rank` or a step is 0.
    pub fn from_slices(base_shape: &Shape, slices: &[Slice]) -> Result<ViewGeom, TensorError> {
        if slices.len() > base_shape.rank() {
            return Err(TensorError::InvalidSlice {
                reason: format!(
                    "{} slices applied to rank-{} base",
                    slices.len(),
                    base_shape.rank()
                ),
            });
        }
        let base_strides = base_shape.row_major_strides();
        let mut offset = 0usize;
        let mut dims = Vec::with_capacity(base_shape.rank());
        for (axis, &base_stride) in base_strides.iter().enumerate() {
            let base_len = base_shape.dim(axis);
            let base_stride = base_stride as isize;
            let slice = slices.get(axis).copied().unwrap_or_else(Slice::full);
            let (first, len, step) = slice.resolve(base_len)?;
            if len > 0 {
                offset += first * base_stride as usize;
            }
            dims.push(ViewDim {
                len,
                stride: base_stride * step as isize,
            });
        }
        Ok(ViewGeom { offset, dims })
    }

    /// Element offset of the first element.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Per-axis geometry.
    pub fn dims(&self) -> &[ViewDim] {
        &self.dims
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Logical shape of the view.
    pub fn shape(&self) -> Shape {
        Shape::from(self.dims.iter().map(|d| d.len).collect::<Vec<_>>())
    }

    /// Total logical elements.
    pub fn nelem(&self) -> usize {
        self.dims.iter().map(|d| d.len).product()
    }

    /// True if iterating the view in logical order touches base elements
    /// `offset, offset+1, …, offset+nelem-1` (dense row-major).
    pub fn is_contiguous(&self) -> bool {
        let mut expect = 1isize;
        for d in self.dims.iter().rev() {
            if d.len == 0 {
                return true; // empty views are trivially contiguous
            }
            if d.len != 1 && d.stride != expect {
                return false;
            }
            expect *= d.len as isize;
        }
        true
    }

    /// Broadcast this view to `target`, inserting stride-0 axes; the view's
    /// shape must be broadcast-compatible with `target`.
    ///
    /// # Errors
    ///
    /// [`TensorError::BroadcastMismatch`] on incompatible extents.
    pub fn broadcast_to(&self, target: &Shape) -> Result<ViewGeom, TensorError> {
        let my_shape = self.shape();
        let rank = target.rank();
        if my_shape.rank() > rank {
            return Err(TensorError::BroadcastMismatch {
                left: my_shape,
                right: target.clone(),
            });
        }
        let pad = rank - my_shape.rank();
        let mut dims = Vec::with_capacity(rank);
        for i in 0..rank {
            let t = target.dim(i);
            if i < pad {
                dims.push(ViewDim { len: t, stride: 0 });
            } else {
                let d = self.dims[i - pad];
                if d.len == t {
                    dims.push(d);
                } else if d.len == 1 {
                    dims.push(ViewDim { len: t, stride: 0 });
                } else {
                    return Err(TensorError::BroadcastMismatch {
                        left: my_shape,
                        right: target.clone(),
                    });
                }
            }
        }
        Ok(ViewGeom {
            offset: self.offset,
            dims,
        })
    }

    /// Inclusive range of base element offsets this view can touch, or
    /// `None` for an empty view.
    pub fn address_range(&self) -> Option<(usize, usize)> {
        if self.nelem() == 0 {
            return None;
        }
        let mut lo = self.offset as isize;
        let mut hi = self.offset as isize;
        for d in &self.dims {
            let span = (d.len as isize - 1) * d.stride;
            if span >= 0 {
                hi += span;
            } else {
                lo += span;
            }
        }
        debug_assert!(lo >= 0, "view addresses must stay in the base");
        Some((lo as usize, hi as usize))
    }

    /// Conservative aliasing check: do the address ranges of the two views
    /// (into the *same* base) intersect?
    pub fn may_overlap(&self, other: &ViewGeom) -> bool {
        match (self.address_range(), other.address_range()) {
            (Some((a0, a1)), Some((b0, b1))) => a0 <= b1 && b0 <= a1,
            _ => false,
        }
    }

    /// True when both views address exactly the same elements in the same
    /// order (element-wise in-place updates are then safe).
    pub fn same_layout(&self, other: &ViewGeom) -> bool {
        self == other
    }

    /// Iterator over base element offsets in logical row-major order.
    pub fn offsets(&self) -> Offsets<'_> {
        Offsets::new(self)
    }

    /// Splits the view along axis 0 into `[0, mid)` and `[mid, len)` parts.
    /// Used by the parallel engine to partition work.
    ///
    /// # Panics
    ///
    /// Panics if the view is rank-0 or `mid > dims[0].len`.
    pub fn split_axis0(&self, mid: usize) -> (ViewGeom, ViewGeom) {
        assert!(self.rank() > 0, "cannot split a scalar view");
        assert!(mid <= self.dims[0].len, "split point out of range");
        let mut left = self.clone();
        let mut right = self.clone();
        left.dims[0].len = mid;
        right.dims[0].len = self.dims[0].len - mid;
        let delta = mid as isize * self.dims[0].stride;
        right.offset = (right.offset as isize + delta) as usize;
        (left, right)
    }
}

impl fmt::Display for ViewGeom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<off={} dims=[", self.offset)?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}s{}", d.len, d.stride)?;
        }
        write!(f, "]>")
    }
}

/// Iterator over the base offsets of a [`ViewGeom`] in logical order.
#[derive(Debug, Clone)]
pub struct Offsets<'a> {
    view: &'a ViewGeom,
    index: Vec<usize>,
    current: isize,
    remaining: usize,
}

impl<'a> Offsets<'a> {
    fn new(view: &'a ViewGeom) -> Offsets<'a> {
        Offsets {
            view,
            index: vec![0; view.rank()],
            current: view.offset as isize,
            remaining: view.nelem(),
        }
    }
}

impl Iterator for Offsets<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        let out = self.current as usize;
        self.remaining -= 1;
        // Odometer increment from the innermost axis.
        for axis in (0..self.view.rank()).rev() {
            let d = self.view.dims[axis];
            self.index[axis] += 1;
            self.current += d.stride;
            if self.index[axis] < d.len {
                break;
            }
            self.index[axis] = 0;
            self.current -= d.len as isize * d.stride;
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Offsets<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_resolve_matches_python() {
        // list(range(10))[0:10:1]
        assert_eq!(
            Slice::new(Some(0), Some(10), 1).resolve(10).unwrap(),
            (0, 10, 1)
        );
        // [2:8:3] -> 2,5 -> len 2
        assert_eq!(
            Slice::new(Some(2), Some(8), 3).resolve(10).unwrap(),
            (2, 2, 3)
        );
        // [::-1] on len 4 -> 3,2,1,0
        assert_eq!(Slice::new(None, None, -1).resolve(4).unwrap(), (3, 4, -1));
        // [-3:] on len 10 -> 7,8,9
        assert_eq!(
            Slice::new(Some(-3), None, 1).resolve(10).unwrap(),
            (7, 3, 1)
        );
        // [5:2] empty
        assert_eq!(Slice::new(Some(5), Some(2), 1).resolve(10).unwrap().1, 0);
        // [8:1:-2] -> 8,6,4,2 -> len 4
        assert_eq!(
            Slice::new(Some(8), Some(1), -2).resolve(10).unwrap(),
            (8, 4, -2)
        );
        // Out-of-range clamping: [0:100] on len 3
        assert_eq!(
            Slice::new(Some(0), Some(100), 1).resolve(3).unwrap(),
            (0, 3, 1)
        );
        // Negative beyond start clamps to 0.
        assert_eq!(
            Slice::new(Some(-100), None, 1).resolve(3).unwrap(),
            (0, 3, 1)
        );
    }

    #[test]
    fn slice_zero_step_errors() {
        assert!(Slice::new(None, None, 0).resolve(5).is_err());
    }

    #[test]
    fn slice_display() {
        assert_eq!(Slice::range(0, 10).to_string(), "0:10:1");
        assert_eq!(Slice::full().to_string(), "::1");
        assert_eq!(Slice::new(None, Some(3), -1).to_string(), ":3:-1");
    }

    #[test]
    fn contiguous_geometry() {
        let v = ViewGeom::contiguous(&Shape::from([2, 3]));
        assert_eq!(v.offset(), 0);
        assert_eq!(v.nelem(), 6);
        assert!(v.is_contiguous());
        assert_eq!(v.offsets().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn sliced_geometry() {
        let base = Shape::from([4, 4]);
        // rows 1..3, cols 0..4:2 -> offsets rows {4..8,8..12} cols {0,2}
        let v =
            ViewGeom::from_slices(&base, &[Slice::range(1, 3), Slice::new(None, None, 2)]).unwrap();
        assert_eq!(v.shape(), Shape::from([2, 2]));
        assert!(!v.is_contiguous());
        assert_eq!(v.offsets().collect::<Vec<_>>(), vec![4, 6, 8, 10]);
    }

    #[test]
    fn reversed_geometry() {
        let base = Shape::vector(5);
        let v = ViewGeom::from_slices(&base, &[Slice::new(None, None, -1)]).unwrap();
        assert_eq!(v.offsets().collect::<Vec<_>>(), vec![4, 3, 2, 1, 0]);
        assert_eq!(v.address_range(), Some((0, 4)));
    }

    #[test]
    fn scalar_view() {
        let v = ViewGeom::scalar_at(7);
        assert_eq!(v.nelem(), 1);
        assert_eq!(v.offsets().collect::<Vec<_>>(), vec![7]);
        assert!(v.is_contiguous());
    }

    #[test]
    fn broadcast_inserts_zero_strides() {
        let base = Shape::vector(3);
        let v = ViewGeom::contiguous(&base);
        let b = v.broadcast_to(&Shape::from([2, 3])).unwrap();
        assert_eq!(b.shape(), Shape::from([2, 3]));
        assert_eq!(b.offsets().collect::<Vec<_>>(), vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn broadcast_incompatible_errors() {
        let v = ViewGeom::contiguous(&Shape::vector(3));
        assert!(v.broadcast_to(&Shape::vector(4)).is_err());
    }

    #[test]
    fn overlap_detection() {
        let base = Shape::vector(10);
        let a = ViewGeom::from_slices(&base, &[Slice::range(0, 5)]).unwrap();
        let b = ViewGeom::from_slices(&base, &[Slice::range(5, 10)]).unwrap();
        let c = ViewGeom::from_slices(&base, &[Slice::range(4, 6)]).unwrap();
        assert!(!a.may_overlap(&b));
        assert!(a.may_overlap(&c));
        assert!(b.may_overlap(&c));
        assert!(a.may_overlap(&a));
    }

    #[test]
    fn empty_views_never_overlap() {
        let base = Shape::vector(10);
        let e = ViewGeom::from_slices(&base, &[Slice::range(3, 3)]).unwrap();
        let a = ViewGeom::contiguous(&base);
        assert_eq!(e.nelem(), 0);
        assert!(!e.may_overlap(&a));
    }

    #[test]
    fn split_axis0_partitions() {
        let v = ViewGeom::contiguous(&Shape::from([4, 3]));
        let (l, r) = v.split_axis0(1);
        assert_eq!(l.shape(), Shape::from([1, 3]));
        assert_eq!(r.shape(), Shape::from([3, 3]));
        let mut all: Vec<_> = l.offsets().collect();
        all.extend(r.offsets());
        assert_eq!(all, v.offsets().collect::<Vec<_>>());
    }

    #[test]
    fn too_many_slices_errors() {
        let base = Shape::vector(4);
        let r = ViewGeom::from_slices(&base, &[Slice::full(), Slice::full()]);
        assert!(r.is_err());
    }

    #[test]
    fn offsets_len_matches_nelem() {
        let base = Shape::from([3, 5]);
        let v =
            ViewGeom::from_slices(&base, &[Slice::new(None, None, 2), Slice::range(1, 4)]).unwrap();
        assert_eq!(v.offsets().len(), v.nelem());
    }
}
