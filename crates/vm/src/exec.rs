//! The serial strided interpreter.
//!
//! The interpreter ([`map1`], [`map2`]) runs one element-wise byte-code
//! over any views — strided, reversed, broadcast, aliased — on the calling
//! thread, walking offsets with `bh_tensor::kernels::zip_offsets`, where
//! the fusing engine's compiled steps walk `k in lo..hi`. Both take the
//! op's element function from `bh_ir::semantics`, the one map from an
//! op-code to what it computes, but share no index walk, which keeps the
//! naive engine an independent reference for the fusing one. An
//! interpreter [`Input`] is a constant, a view of another base, or a view
//! of the output's own base; the last is read in place unless
//! [`Input::own`]'s hazard rule copies it first.

use bh_tensor::{kernels, Element, ViewGeom};
use std::borrow::Cow;

/// One input of an interpreted byte-code, in the operating dtype.
pub(crate) enum Input<'a, T: Element> {
    /// An immediate constant.
    Const(T),
    /// A view of another base, or of a copy of the output's own base.
    Other(Cow<'a, [T]>, ViewGeom),
    /// A view of the output's own base, read in place.
    Own(ViewGeom),
}

impl<T: Element> Input<'_, T> {
    /// The view `iv` of the output's own base `out`, whose output view is
    /// `ov`. It is read from a copy when `copy` is set or when it is a
    /// hazard — it overlaps `ov` with a different layout, so the walk
    /// could read an element it already overwrote — and in place
    /// otherwise.
    pub(crate) fn own(out: &[T], iv: ViewGeom, ov: &ViewGeom, copy: bool) -> Self {
        if copy || (!iv.same_layout(ov) && iv.may_overlap(ov)) {
            let data = kernels::materialize(out, &iv);
            Input::Other(Cow::Owned(data), ViewGeom::contiguous(&iv.shape()))
        } else {
            Input::Own(iv)
        }
    }

    /// Pointer, length and view a non-constant input is read through; an
    /// [`Input::Own`] reads the `len`-element output buffer at `out`.
    fn source<O: Element>(&self, out: *mut O, len: usize) -> (*const T, usize, &ViewGeom) {
        match self {
            Input::Other(data, iv) => (data.as_ptr(), data.len(), iv),
            Input::Own(iv) => {
                assert_eq!(
                    T::DTYPE,
                    O::DTYPE,
                    "an in-place input has the output's dtype"
                );
                (out.cast::<T>().cast_const(), len, iv)
            }
            Input::Const(_) => unreachable!("constants are bound into the element function"),
        }
    }
}

/// `out = f(a)` over the output view `ov`.
pub(crate) fn map1<I: Element, O: Element>(
    out: &mut [O],
    ov: &ViewGeom,
    a: Input<'_, I>,
    f: impl Fn(I) -> O,
) {
    if let Input::Const(c) = a {
        return kernels::fill(out, ov, f(c));
    }
    let (optr, olen) = (out.as_mut_ptr(), out.len());
    let (pa, alen, av) = a.source(optr, olen);
    kernels::zip_offsets([ov, av], |[o, i]| {
        assert!(o < olen && i < alen, "view escapes buffer");
        // SAFETY: both offsets are in bounds (asserted). An in-place input
        // reads `out` through `optr` as its own element type (`source`
        // checks the dtype); any other input is a distinct allocation, as
        // `out` is uniquely borrowed. Each iteration reads before it
        // writes, and an in-place input is no hazard (`Input::own`), so
        // no element is read after another iteration overwrote it.
        unsafe { *optr.add(o) = f(*pa.add(i)) };
    });
}

/// `out = f(a, b)` over the output view `ov`; a constant operand is bound
/// into the function of a [`map1`].
pub(crate) fn map2<I: Element, O: Element>(
    out: &mut [O],
    ov: &ViewGeom,
    a: Input<'_, I>,
    b: Input<'_, I>,
    f: impl Fn(I, I) -> O,
) {
    match (a, b) {
        (Input::Const(x), b) => map1(out, ov, b, |y| f(x, y)),
        (a, Input::Const(y)) => map1(out, ov, a, |x| f(x, y)),
        (a, b) => {
            let (optr, olen) = (out.as_mut_ptr(), out.len());
            let (pa, alen, av) = a.source(optr, olen);
            let (pb, blen, bv) = b.source(optr, olen);
            kernels::zip_offsets([ov, av, bv], |[o, i, j]| {
                assert!(o < olen && i < alen && j < blen, "view escapes buffer");
                // SAFETY: as in `map1`, for both inputs.
                unsafe { *optr.add(o) = f(*pa.add(i), *pb.add(j)) };
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::semantics::{elementwise, Kernel};
    use bh_ir::Opcode;
    use bh_tensor::{DType, Shape, Slice};

    fn full(n: usize) -> ViewGeom {
        ViewGeom::contiguous(&Shape::vector(n))
    }

    /// Applies the dispatched element function to one pair of operands.
    struct At(f64, f64);

    impl Kernel for At {
        type Out = f64;
        fn map1<I: Element, O: Element>(self, f: impl Fn(I) -> O) -> f64 {
            f(self.0.cast::<I>()).to_f64()
        }
        fn map2<I: Element, O: Element>(self, f: impl Fn(I, I) -> O) -> f64 {
            f(self.0.cast::<I>(), self.1.cast::<I>()).to_f64()
        }
    }

    fn eval(op: Opcode, dtype: DType, a: f64, b: f64) -> f64 {
        let out = op.result_dtype(dtype).unwrap();
        elementwise(op, dtype, out, At(a, b))
    }

    fn add(a: f64, b: f64) -> f64 {
        a + b
    }

    #[test]
    fn binary_const_in_place() {
        let mut buf = vec![1.0f64; 8];
        let v = full(8);
        map2(&mut buf, &v, Input::Own(v.clone()), Input::Const(2.0), add);
        assert_eq!(buf, vec![3.0; 8]);
        assert_eq!(eval(Opcode::Add, DType::Float64, 1.0, 2.0), 3.0);
    }

    #[test]
    fn binary_two_slices() {
        let a = [1.0f64, 2.0];
        let b = [10.0f64, 20.0];
        let mut out = vec![0.0f64; 2];
        let v = full(2);
        let (a, b) = (Cow::from(&a[..]), Cow::from(&b[..]));
        map2(
            &mut out,
            &v,
            Input::Other(a, v.clone()),
            Input::Other(b, v.clone()),
            |x, y| x * y,
        );
        assert_eq!(out, vec![10.0, 40.0]);
        assert_eq!(eval(Opcode::Multiply, DType::Float64, 2.0, 20.0), 40.0);
    }

    #[test]
    fn non_commutative_right_alias() {
        // out = a_slice - out  (out aliases the RIGHT operand)
        let mut out = vec![1.0f64, 2.0];
        let a = [10.0f64, 10.0];
        let v = full(2);
        let a = Input::Other(Cow::from(&a[..]), v.clone());
        map2(&mut out, &v, a, Input::Own(v.clone()), |x, y| x - y);
        assert_eq!(out, vec![9.0, 8.0]);
    }

    #[test]
    fn hazardous_overlap_is_defused() {
        // out view = buf[1..4], in view = buf[0..3]: shifted self-overlap.
        // Naively in-place this reads clobbered data; defusing copies first.
        let mut buf = vec![1.0f64, 2.0, 3.0, 4.0];
        let base = Shape::vector(4);
        let ov = ViewGeom::from_slices(&base, &[Slice::range(1, 4)]).unwrap();
        let iv = ViewGeom::from_slices(&base, &[Slice::range(0, 3)]).unwrap();
        let input = Input::own(&buf, iv, &ov, false);
        assert!(matches!(input, Input::Other(..)), "a hazard is copied");
        map1(&mut buf, &ov, input, |x: f64| x);
        assert_eq!(buf, vec![1.0, 1.0, 2.0, 3.0]);
        // The same view as the output is no hazard: read in place.
        assert!(matches!(
            Input::own(&buf, ov.clone(), &ov, false),
            Input::Own(_)
        ));
    }

    #[test]
    fn unary_tables() {
        assert_eq!(eval(Opcode::Sqrt, DType::Float64, 9.0, 0.0), 3.0);
        assert_eq!(
            eval(Opcode::Sqrt, DType::Float32, 2.0, 0.0),
            2f32.sqrt() as f64
        );
        assert_eq!(eval(Opcode::Floor, DType::Float64, 1.7, 0.0), 1.0);
        assert_eq!(eval(Opcode::Rint, DType::Float64, 2.5, 0.0), 2.0); // half-to-even
        assert_eq!(eval(Opcode::Rint, DType::Float64, 3.5, 0.0), 4.0);
        assert_eq!(eval(Opcode::Rint, DType::Float32, -2.5, 0.0), -2.0);
        assert_eq!(eval(Opcode::Absolute, DType::Int32, -4.0, 0.0), 4.0);
        assert_eq!(eval(Opcode::Sign, DType::Int8, -4.0, 0.0), -1.0);
        assert_eq!(eval(Opcode::Identity, DType::Int64, -7.0, 0.0), -7.0);
        assert_eq!(eval(Opcode::Invert, DType::UInt8, 1.0, 0.0), 254.0);
        assert_eq!(eval(Opcode::LogicalNot, DType::Bool, 1.0, 0.0), 0.0);
        assert_eq!(eval(Opcode::LeftShift, DType::Int16, 3.0, 2.0), 12.0);
    }

    #[test]
    fn compare_and_predicate_tables() {
        assert_eq!(eval(Opcode::Less, DType::Int64, 1.0, 2.0), 1.0);
        assert_eq!(eval(Opcode::Equal, DType::Float64, f64::NAN, f64::NAN), 0.0);
        assert_eq!(eval(Opcode::IsNan, DType::Float64, f64::NAN, 0.0), 1.0);
        assert_eq!(eval(Opcode::IsNan, DType::Int32, 3.0, 0.0), 0.0);
        assert_eq!(eval(Opcode::IsInf, DType::Float32, f64::INFINITY, 0.0), 1.0);
    }

    #[test]
    fn atan2() {
        let r = eval(Opcode::Arctan2, DType::Float64, 1.0, 1.0);
        assert!((r - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn map1_inplace_same_view() {
        let mut buf = vec![1.0f64, 2.0, 3.0];
        let v = full(3);
        map1(&mut buf, &v, Input::Own(v.clone()), |x: f64| x * 2.0);
        assert_eq!(buf, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn map2_inplace_listing2_semantics() {
        // BH_ADD a0 a0 1 three times == +3 (the constant is bound into the
        // element function here).
        let mut buf = vec![0.0f64; 10];
        let v = full(10);
        for _ in 0..3 {
            map2(
                &mut buf,
                &v,
                Input::Own(v.clone()),
                Input::Own(v.clone()),
                |x: f64, _| x + 1.0,
            );
        }
        assert!(buf.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn map2_left_inplace_power_chain_step() {
        // a1 = a1 * a0 with a1 aliased output.
        let mut a1 = vec![4.0f64, 9.0];
        let a0 = [2.0f64, 3.0];
        let v = full(2);
        let a0 = Input::Other(Cow::from(&a0[..]), v.clone());
        map2(&mut a1, &v, Input::Own(v.clone()), a0, |x, y| x * y);
        assert_eq!(a1, vec![8.0, 27.0]);
    }
}
