//! Typed element-wise execution paths of the serial strided interpreter.
//!
//! These functions receive an output buffer slice, pre-resolved view
//! geometry and classified inputs, then pick the correct kernel variant:
//! out-of-place, in-place (output aliases an input base, as in
//! `BH_ADD a0 a0 1`), or materialise-first when an aliased input view
//! overlaps the output with a *different* layout (the only hazardous case).
//!
//! Everything here runs on the calling thread. The fusing engine runs
//! contiguous element-wise work on its compiled steps instead
//! (`Vm::compile_fused_step`), so the two element-wise paths share no
//! kernel code; the op-code tables below are the one thing they share.

use crate::eltops::VmElement;
use bh_ir::Opcode;
use bh_tensor::kernels;
use bh_tensor::ViewGeom;

/// One classified binary input.
pub(crate) enum BinIn<'a, T> {
    /// View into the *output's own* base buffer.
    Aliased(ViewGeom),
    /// View into another base.
    Slice(&'a [T], ViewGeom),
    /// Immediate constant (already cast to the operating dtype).
    Const(T),
}

/// Execute `out = f(a, b)` element-wise over `ov`.
pub(crate) fn exec_binary<T: VmElement>(
    out: &mut [T],
    ov: &ViewGeom,
    a: BinIn<'_, T>,
    b: BinIn<'_, T>,
    f: impl Fn(T, T) -> T + Copy,
) {
    use BinIn::*;
    // Materialise hazardous aliased inputs first (different layout AND
    // overlapping the output view ⇒ in-place iteration could read elements
    // the loop already overwrote). The copies live in these locals for the
    // duration of the kernel call.
    let temp_a: Vec<T>;
    let temp_b: Vec<T>;
    let a = match a {
        Aliased(iv) if is_hazard(&iv, ov) => {
            temp_a = kernels::materialize(out, &iv);
            Slice(temp_a.as_slice(), ViewGeom::contiguous(&iv.shape()))
        }
        other => other,
    };
    let b = match b {
        Aliased(iv) if is_hazard(&iv, ov) => {
            temp_b = kernels::materialize(out, &iv);
            Slice(temp_b.as_slice(), ViewGeom::contiguous(&iv.shape()))
        }
        other => other,
    };
    match (a, b) {
        (Const(x), Const(y)) => kernels::fill(out, ov, f(x, y)),
        (Aliased(av), Const(y)) => kernels::map1_inplace(out, ov, &av, |v| f(v, y)),
        (Const(x), Aliased(bv)) => kernels::map1_inplace(out, ov, &bv, |v| f(x, v)),
        (Slice(sa, av), Const(y)) => kernels::map1(out, ov, sa, &av, |v| f(v, y)),
        (Const(x), Slice(sb, bv)) => kernels::map1(out, ov, sb, &bv, |v| f(x, v)),
        (Aliased(av), Aliased(bv)) => kernels::map2_inplace(out, ov, &av, &bv, f),
        (Aliased(av), Slice(sb, bv)) => kernels::map2_left_inplace(out, ov, &av, sb, &bv, f),
        (Slice(sa, av), Aliased(bv)) => {
            kernels::map2_left_inplace(out, ov, &bv, sa, &av, |x, y| f(y, x));
        }
        (Slice(sa, av), Slice(sb, bv)) => kernels::map2(out, ov, sa, &av, sb, &bv, f),
    }
}

/// Execute `out = f(input)` element-wise over `ov`.
pub(crate) fn exec_unary<T: VmElement>(
    out: &mut [T],
    ov: &ViewGeom,
    input: BinIn<'_, T>,
    f: impl Fn(T) -> T + Copy,
) {
    let temp: Vec<T>;
    let input = match input {
        BinIn::Aliased(iv) if is_hazard(&iv, ov) => {
            temp = kernels::materialize(out, &iv);
            BinIn::Slice(temp.as_slice(), ViewGeom::contiguous(&iv.shape()))
        }
        other => other,
    };
    match input {
        BinIn::Const(c) => kernels::fill(out, ov, f(c)),
        BinIn::Aliased(iv) => kernels::map1_inplace(out, ov, &iv, f),
        BinIn::Slice(data, iv) => kernels::map1(out, ov, data, &iv, f),
    }
}

/// An aliased input is hazardous when it overlaps the output view with a
/// different layout: the logical iteration could then read elements the
/// same iteration already overwrote.
fn is_hazard(iv: &ViewGeom, ov: &ViewGeom) -> bool {
    !iv.same_layout(ov) && iv.may_overlap(ov)
}

/// Identity element of a reduction's fold op-code: the value folding
/// starts from in every engine, serial or sharded (`f(init, x) == x` for
/// all `x` the fold can produce, which is what makes the blocked combine
/// in `bh_tensor::kernels::par_reduce_lane` exact on short lanes).
pub(crate) fn fold_init<T: VmElement>(fold: Opcode) -> T {
    match fold {
        Opcode::Add => T::zero(),
        Opcode::Multiply => T::one(),
        Opcode::Maximum => T::vm_lowest(),
        Opcode::Minimum => T::vm_highest(),
        other => unreachable!("{other} is not a fold op"),
    }
}

/// fn-pointer table for binary op-codes over one element type.
pub(crate) fn binary_fn<T: VmElement>(op: Opcode) -> fn(T, T) -> T {
    match op {
        Opcode::Add => T::vm_add,
        Opcode::Subtract => T::vm_sub,
        Opcode::Multiply => T::vm_mul,
        Opcode::Divide => T::vm_div,
        Opcode::Power => T::vm_pow,
        Opcode::Mod => T::vm_mod,
        Opcode::Maximum => T::vm_max,
        Opcode::Minimum => T::vm_min,
        Opcode::BitwiseAnd | Opcode::LogicalAnd => T::vm_and,
        Opcode::BitwiseOr | Opcode::LogicalOr => T::vm_or,
        Opcode::BitwiseXor | Opcode::LogicalXor => T::vm_xor,
        Opcode::LeftShift => T::vm_shl,
        Opcode::RightShift => T::vm_shr,
        Opcode::Arctan2 => atan2_of::<T>,
        other => unreachable!("{other} is not a binary arithmetic op"),
    }
}

/// fn-pointer table for same-dtype unary op-codes.
pub(crate) fn unary_fn<T: VmElement>(op: Opcode) -> fn(T) -> T {
    match op {
        Opcode::Identity => ident_of::<T>,
        Opcode::Absolute => T::vm_abs,
        Opcode::Sign => T::vm_sign,
        Opcode::Invert | Opcode::LogicalNot => T::vm_not,
        Opcode::Sqrt => f_sqrt::<T>,
        Opcode::Exp => f_exp::<T>,
        Opcode::Exp2 => f_exp2::<T>,
        Opcode::Expm1 => f_expm1::<T>,
        Opcode::Log => f_log::<T>,
        Opcode::Log2 => f_log2::<T>,
        Opcode::Log10 => f_log10::<T>,
        Opcode::Log1p => f_log1p::<T>,
        Opcode::Sin => f_sin::<T>,
        Opcode::Cos => f_cos::<T>,
        Opcode::Tan => f_tan::<T>,
        Opcode::Sinh => f_sinh::<T>,
        Opcode::Cosh => f_cosh::<T>,
        Opcode::Tanh => f_tanh::<T>,
        Opcode::Arcsin => f_asin::<T>,
        Opcode::Arccos => f_acos::<T>,
        Opcode::Arctan => f_atan::<T>,
        Opcode::Arcsinh => f_asinh::<T>,
        Opcode::Arccosh => f_acosh::<T>,
        Opcode::Arctanh => f_atanh::<T>,
        Opcode::Ceil => f_ceil::<T>,
        Opcode::Floor => f_floor::<T>,
        Opcode::Trunc => f_trunc::<T>,
        Opcode::Rint => f_rint::<T>,
        other => unreachable!("{other} is not a same-dtype unary op"),
    }
}

/// fn-pointer table for comparison op-codes (`T × T → bool`).
pub(crate) fn compare_fn<T: VmElement>(op: Opcode) -> fn(T, T) -> bool {
    match op {
        Opcode::Greater => cmp_gt::<T>,
        Opcode::GreaterEqual => cmp_ge::<T>,
        Opcode::Less => cmp_lt::<T>,
        Opcode::LessEqual => cmp_le::<T>,
        Opcode::Equal => cmp_eq::<T>,
        Opcode::NotEqual => cmp_ne::<T>,
        other => unreachable!("{other} is not a comparison"),
    }
}

/// fn-pointer table for unary predicates (`T → bool`).
pub(crate) fn predicate_fn<T: VmElement>(op: Opcode) -> fn(T) -> bool {
    match op {
        Opcode::IsNan => pred_isnan::<T>,
        Opcode::IsInf => pred_isinf::<T>,
        other => unreachable!("{other} is not a predicate"),
    }
}

fn ident_of<T: VmElement>(x: T) -> T {
    x
}
fn atan2_of<T: VmElement>(a: T, b: T) -> T {
    T::from_f64(a.to_f64().atan2(b.to_f64()))
}
fn cmp_gt<T: VmElement>(a: T, b: T) -> bool {
    a > b
}
fn cmp_ge<T: VmElement>(a: T, b: T) -> bool {
    a >= b
}
fn cmp_lt<T: VmElement>(a: T, b: T) -> bool {
    a < b
}
fn cmp_le<T: VmElement>(a: T, b: T) -> bool {
    a <= b
}
fn cmp_eq<T: VmElement>(a: T, b: T) -> bool {
    a == b
}
fn cmp_ne<T: VmElement>(a: T, b: T) -> bool {
    a != b
}
fn pred_isnan<T: VmElement>(a: T) -> bool {
    a.to_f64().is_nan()
}
fn pred_isinf<T: VmElement>(a: T) -> bool {
    a.to_f64().is_infinite()
}

macro_rules! funary {
    ($($name:ident => $f:expr;)*) => {$(
        fn $name<T: VmElement>(x: T) -> T {
            x.vm_float_unary($f)
        }
    )*};
}

funary! {
    f_sqrt => |v: f64| v.sqrt();
    f_exp => |v: f64| v.exp();
    f_exp2 => |v: f64| v.exp2();
    f_expm1 => |v: f64| v.exp_m1();
    f_log => |v: f64| v.ln();
    f_log2 => |v: f64| v.log2();
    f_log10 => |v: f64| v.log10();
    f_log1p => |v: f64| v.ln_1p();
    f_sin => |v: f64| v.sin();
    f_cos => |v: f64| v.cos();
    f_tan => |v: f64| v.tan();
    f_sinh => |v: f64| v.sinh();
    f_cosh => |v: f64| v.cosh();
    f_tanh => |v: f64| v.tanh();
    f_asin => |v: f64| v.asin();
    f_acos => |v: f64| v.acos();
    f_atan => |v: f64| v.atan();
    f_asinh => |v: f64| v.asinh();
    f_acosh => |v: f64| v.acosh();
    f_atanh => |v: f64| v.atanh();
    f_ceil => |v: f64| v.ceil();
    f_floor => |v: f64| v.floor();
    f_trunc => |v: f64| v.trunc();
    f_rint => |v: f64| {
        // Round half to even, matching BH_RINT / IEEE.
        let r = v.round();
        if (v - v.trunc()).abs() == 0.5 && r % 2.0 != 0.0 { r - v.signum() } else { r }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_tensor::{Shape, Slice};

    fn full(n: usize) -> ViewGeom {
        ViewGeom::contiguous(&Shape::vector(n))
    }

    #[test]
    fn binary_const_in_place() {
        let mut buf = vec![1.0f64; 8];
        let v = full(8);
        exec_binary::<f64>(
            &mut buf,
            &v,
            BinIn::Aliased(v.clone()),
            BinIn::Const(2.0),
            binary_fn::<f64>(Opcode::Add),
        );
        assert_eq!(buf, vec![3.0; 8]);
    }

    #[test]
    fn binary_two_slices() {
        let a = vec![1.0f64, 2.0];
        let b = vec![10.0f64, 20.0];
        let mut out = vec![0.0f64; 2];
        let v = full(2);
        exec_binary::<f64>(
            &mut out,
            &v,
            BinIn::Slice(&a, v.clone()),
            BinIn::Slice(&b, v.clone()),
            binary_fn::<f64>(Opcode::Multiply),
        );
        assert_eq!(out, vec![10.0, 40.0]);
    }

    #[test]
    fn non_commutative_right_alias() {
        // out = b_slice - out  (out aliases the RIGHT operand)
        let mut out = vec![1.0f64, 2.0];
        let a = vec![10.0f64, 10.0];
        let v = full(2);
        exec_binary::<f64>(
            &mut out,
            &v,
            BinIn::Slice(&a, v.clone()),
            BinIn::Aliased(v.clone()),
            binary_fn::<f64>(Opcode::Subtract),
        );
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
        exec_unary::<f64>(
            &mut buf,
            &ov,
            BinIn::Aliased(iv),
            unary_fn::<f64>(Opcode::Identity),
        );
        assert_eq!(buf, vec![1.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn unary_tables() {
        assert_eq!(unary_fn::<f64>(Opcode::Sqrt)(9.0), 3.0);
        assert_eq!(unary_fn::<f64>(Opcode::Floor)(1.7), 1.0);
        assert_eq!(unary_fn::<f64>(Opcode::Rint)(2.5), 2.0); // half-to-even
        assert_eq!(unary_fn::<f64>(Opcode::Rint)(3.5), 4.0);
        assert_eq!(unary_fn::<i32>(Opcode::Absolute)(-4), 4);
    }

    #[test]
    fn compare_and_predicate_tables() {
        assert!(compare_fn::<i64>(Opcode::Less)(1, 2));
        assert!(!compare_fn::<f64>(Opcode::Equal)(f64::NAN, f64::NAN));
        assert!(predicate_fn::<f64>(Opcode::IsNan)(f64::NAN));
        assert!(!predicate_fn::<i32>(Opcode::IsNan)(3));
        assert!(predicate_fn::<f32>(Opcode::IsInf)(f32::INFINITY));
    }

    #[test]
    fn atan2() {
        let f = binary_fn::<f64>(Opcode::Arctan2);
        assert!((f(1.0, 1.0) - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }
}
