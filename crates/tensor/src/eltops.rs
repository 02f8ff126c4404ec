//! Statically typed elements, and what every element-wise op-code
//! computes on them: the [`Element`] trait and its eleven impls.

use crate::dtype::DType;
use crate::scalar::Scalar;
use crate::shard::{ShardRoot, ShardSlice};
use std::fmt;

/// Statically typed element: the bridge between Rust generic kernels and the
/// dynamically typed [`DType`] world.
///
/// Its methods are the one definition of each op-code's per-element
/// semantics: `bh_ir::semantics` maps every op-code to one of them, and
/// the VM's loops, its reductions and the constant folder all take their
/// element function from that map. The conventions follow NumPy/Bohrium:
///
/// * integer division / modulo by zero yields 0 (NumPy emits a warning and
///   produces 0; we skip the warning),
/// * integer overflow wraps (NumPy c-casts),
/// * integer **and** float modulo are *floored* (NumPy `mod`): a non-zero
///   result takes the sign of the divisor, so `-7 mod 3 = 2`,
///   `7 mod -3 = -2` and `-7 mod -3 = -1`,
/// * integer power: negative exponents truncate (`1^-n = 1`, else `0`,
///   since NumPy raises instead of defining them); non-negative exponents
///   beyond `u32::MAX` **saturate** to `u32::MAX` (they are not silently
///   truncated mod 2³²),
/// * shift counts are masked to the type width,
/// * boolean arithmetic is the logical lattice (`+` = or, `*` = and).
///
/// [`Element::cast`] is the one conversion between element types; a
/// dtype-changing `BH_IDENTITY`, [`Scalar::cast`] and
/// [`crate::Buffer::cast`] all call it. The rule:
///
/// * integer → integer wraps (two's complement truncation or extension),
/// * anything → bool is `≠ 0` (so NaN is true),
/// * bool → anything is 0 or 1,
/// * → float rounds once to nearest, straight from the source value,
/// * float → integer truncates toward zero to an `i64` (saturating, NaN
///   → 0), then wraps to the target width; a `u64` target takes values
///   ≥ 2⁶³ by truncating straight to `u64` (saturating).
///
/// Sealed: implemented exactly for the eleven supported element types.
pub trait Element:
    Copy + PartialEq + PartialOrd + fmt::Debug + fmt::Display + Send + Sync + 'static + private::Sealed
{
    /// The dynamic dtype tag corresponding to `Self`.
    const DTYPE: DType;
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Lossy conversion to f64 (used for comparisons in tests).
    fn to_f64(self) -> f64;

    /// Convert to element type `O` by the cast rule above.
    #[inline]
    fn cast<O: Element>(self) -> O {
        O::narrow(self.widen())
    }

    /// `BH_ADD`.
    fn bh_add(self, b: Self) -> Self;
    /// `BH_SUBTRACT`.
    fn bh_sub(self, b: Self) -> Self;
    /// `BH_MULTIPLY`.
    fn bh_mul(self, b: Self) -> Self;
    /// `BH_DIVIDE`.
    fn bh_div(self, b: Self) -> Self;
    /// `BH_POWER`.
    fn bh_pow(self, b: Self) -> Self;
    /// `BH_MOD`.
    fn bh_mod(self, b: Self) -> Self;
    /// `BH_MAXIMUM`.
    fn bh_max(self, b: Self) -> Self;
    /// `BH_MINIMUM`.
    fn bh_min(self, b: Self) -> Self;
    /// `BH_ABSOLUTE`.
    fn bh_abs(self) -> Self;
    /// `BH_SIGN`.
    fn bh_sign(self) -> Self;

    /// `BH_BITWISE_AND` (bool: logical and).
    fn bh_and(self, b: Self) -> Self;
    /// `BH_BITWISE_OR`.
    fn bh_or(self, b: Self) -> Self;
    /// `BH_BITWISE_XOR`.
    fn bh_xor(self, b: Self) -> Self;
    /// `BH_INVERT` (bitwise not; bool: logical not).
    fn bh_not(self) -> Self;
    /// `BH_LEFT_SHIFT` (no-op for floats/bool — validation excludes them).
    fn bh_shl(self, b: Self) -> Self;
    /// `BH_RIGHT_SHIFT`.
    fn bh_shr(self, b: Self) -> Self;

    /// Float-only unary op-codes take this hook; integer types return
    /// `self` unchanged (the op dispatch never instantiates a float-only
    /// op-code for them, and the verifier rejects such a program).
    fn float_unary(self, f: impl Fn(f64) -> f64) -> Self;

    /// Identity of `BH_MAXIMUM_REDUCE`: the lowest representable value.
    fn lowest() -> Self;
    /// Identity of `BH_MINIMUM_REDUCE`: the highest representable value.
    fn highest() -> Self;
}

pub(crate) mod private {
    use crate::shard::{ShardRoot, ShardSlice};

    /// An element's value in the widest type of its kind: what
    /// [`super::Element::cast`] converts through. Bools are 0 or 1, and a
    /// float widens to `f64` exactly.
    #[derive(Debug, Clone, Copy)]
    pub enum Wide {
        Int(i64),
        UInt(u64),
        Float(f64),
    }

    pub trait Sealed: Sized {
        fn widen(self) -> Wide;
        fn narrow(w: Wide) -> Self;
        fn scalar(self) -> super::Scalar;
        /// A [`crate::shard::ShardRoot`] holding `slice`.
        fn root(slice: ShardSlice<'_, Self>) -> ShardRoot<'_>;
        /// `root`'s slice, if it holds `Self`.
        fn shard<'r, 'a>(root: &'r ShardRoot<'a>) -> Option<&'r ShardSlice<'a, Self>>;
    }
}

use private::Wide;

/// 2⁶³: from here up a float truncates straight into a `u64` target.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

macro_rules! impl_int {
    ($($t:ty => $d:ident, $s:ident, $wide:ident;)*) => {$(
        impl private::Sealed for $t {
            #[inline] fn widen(self) -> Wide { Wide::$wide(self as _) }
            #[inline] fn narrow(w: Wide) -> Self {
                match w {
                    Wide::Int(v) => v as $t,
                    Wide::UInt(v) => v as $t,
                    Wide::Float(v) if Self::DTYPE == DType::UInt64 && v >= TWO_POW_63 => {
                        v as u64 as $t
                    }
                    Wide::Float(v) => v as i64 as $t,
                }
            }
            #[inline] fn scalar(self) -> Scalar { Scalar::$s(self) }
            #[inline] fn root(slice: ShardSlice<'_, Self>) -> ShardRoot<'_> { ShardRoot::$s(slice) }
            #[inline] fn shard<'r, 'a>(root: &'r ShardRoot<'a>) -> Option<&'r ShardSlice<'a, Self>> {
                match root { ShardRoot::$s(slice) => Some(slice), _ => None }
            }
        }

        impl Element for $t {
            const DTYPE: DType = DType::$d;
            #[inline] fn zero() -> Self { 0 }
            #[inline] fn one() -> Self { 1 }
            #[inline] fn to_f64(self) -> f64 { self as f64 }
            #[inline] fn bh_add(self, b: Self) -> Self { self.wrapping_add(b) }
            #[inline] fn bh_sub(self, b: Self) -> Self { self.wrapping_sub(b) }
            #[inline] fn bh_mul(self, b: Self) -> Self { self.wrapping_mul(b) }
            #[inline] fn bh_div(self, b: Self) -> Self {
                if b == 0 { 0 } else { self.wrapping_div(b) }
            }
            #[inline] fn bh_pow(self, b: Self) -> Self {
                #[allow(unused_comparisons)]
                if b < 0 {
                    // x^-n truncates to 0 for |x|>1, 1 for x==1, as NumPy's
                    // integer power semantics error out; we pick total
                    // truncation semantics instead.
                    if self == 1 { 1 } else { 0 }
                } else if (b as u64) > u32::MAX as u64 {
                    // Exponents beyond u32::MAX saturate (see the trait doc);
                    // `b as u32` would silently reduce them mod 2^32.
                    self.wrapping_pow(u32::MAX)
                } else {
                    self.wrapping_pow(b as u32)
                }
            }
            #[inline] fn bh_mod(self, b: Self) -> Self {
                // Floored (NumPy) modulo: non-zero results take the sign
                // of the divisor. `rem_euclid` would instead always be
                // non-negative, diverging for negative divisors.
                if b == 0 { 0 } else {
                    let r = self.wrapping_rem(b);
                    #[allow(unused_comparisons)]
                    if r != 0 && (r < 0) != (b < 0) { r.wrapping_add(b) } else { r }
                }
            }
            #[inline] fn bh_max(self, b: Self) -> Self { Ord::max(self, b) }
            #[inline] fn bh_min(self, b: Self) -> Self { Ord::min(self, b) }
            #[inline] fn bh_abs(self) -> Self {
                #[allow(unused_comparisons)]
                { if self < 0 { self.wrapping_neg() } else { self } }
            }
            #[inline] fn bh_sign(self) -> Self {
                #[allow(unused_comparisons)]
                { if self < 0 { Self::wrapping_neg(1) } else if self == 0 { 0 } else { 1 } }
            }
            #[inline] fn bh_and(self, b: Self) -> Self { self & b }
            #[inline] fn bh_or(self, b: Self) -> Self { self | b }
            #[inline] fn bh_xor(self, b: Self) -> Self { self ^ b }
            #[inline] fn bh_not(self) -> Self { !self }
            #[inline] fn bh_shl(self, b: Self) -> Self { self.wrapping_shl(b as u32) }
            #[inline] fn bh_shr(self, b: Self) -> Self { self.wrapping_shr(b as u32) }
            #[inline] fn float_unary(self, _f: impl Fn(f64) -> f64) -> Self { self }
            #[inline] fn lowest() -> Self { Self::MIN }
            #[inline] fn highest() -> Self { Self::MAX }
        }
    )*};
}

impl_int! {
    u8 => UInt8, U8, UInt;
    u16 => UInt16, U16, UInt;
    u32 => UInt32, U32, UInt;
    u64 => UInt64, U64, UInt;
    i8 => Int8, I8, Int;
    i16 => Int16, I16, Int;
    i32 => Int32, I32, Int;
    i64 => Int64, I64, Int;
}

macro_rules! impl_float {
    ($($t:ty => $d:ident, $s:ident;)*) => {$(
        impl private::Sealed for $t {
            #[inline] fn widen(self) -> Wide { Wide::Float(self as f64) }
            #[inline] fn narrow(w: Wide) -> Self {
                match w {
                    Wide::Int(v) => v as $t,
                    Wide::UInt(v) => v as $t,
                    Wide::Float(v) => v as $t,
                }
            }
            #[inline] fn scalar(self) -> Scalar { Scalar::$s(self) }
            #[inline] fn root(slice: ShardSlice<'_, Self>) -> ShardRoot<'_> { ShardRoot::$s(slice) }
            #[inline] fn shard<'r, 'a>(root: &'r ShardRoot<'a>) -> Option<&'r ShardSlice<'a, Self>> {
                match root { ShardRoot::$s(slice) => Some(slice), _ => None }
            }
        }

        impl Element for $t {
            const DTYPE: DType = DType::$d;
            #[inline] fn zero() -> Self { 0.0 }
            #[inline] fn one() -> Self { 1.0 }
            #[inline] fn to_f64(self) -> f64 { self as f64 }
            #[inline] fn bh_add(self, b: Self) -> Self { self + b }
            #[inline] fn bh_sub(self, b: Self) -> Self { self - b }
            #[inline] fn bh_mul(self, b: Self) -> Self { self * b }
            #[inline] fn bh_div(self, b: Self) -> Self { self / b }
            #[inline] fn bh_pow(self, b: Self) -> Self { self.powf(b) }
            #[inline] fn bh_mod(self, b: Self) -> Self {
                // NumPy mod: result has the divisor's sign.
                let r = self % b;
                if r != 0.0 && (r < 0.0) != (b < 0.0) { r + b } else { r }
            }
            #[inline] fn bh_max(self, b: Self) -> Self { self.max(b) }
            #[inline] fn bh_min(self, b: Self) -> Self { self.min(b) }
            #[inline] fn bh_abs(self) -> Self { self.abs() }
            #[inline] fn bh_sign(self) -> Self {
                if self.is_nan() { self } else if self > 0.0 { 1.0 } else if self < 0.0 { -1.0 } else { self }
            }
            #[inline] fn bh_and(self, _b: Self) -> Self { self }
            #[inline] fn bh_or(self, _b: Self) -> Self { self }
            #[inline] fn bh_xor(self, _b: Self) -> Self { self }
            #[inline] fn bh_not(self) -> Self { self }
            #[inline] fn bh_shl(self, _b: Self) -> Self { self }
            #[inline] fn bh_shr(self, _b: Self) -> Self { self }
            #[inline] fn float_unary(self, f: impl Fn(f64) -> f64) -> Self { f(self as f64) as $t }
            #[inline] fn lowest() -> Self { Self::NEG_INFINITY }
            #[inline] fn highest() -> Self { Self::INFINITY }
        }
    )*};
}

impl_float! {
    f32 => Float32, F32;
    f64 => Float64, F64;
}

impl private::Sealed for bool {
    #[inline]
    fn widen(self) -> Wide {
        Wide::UInt(self as u64)
    }
    #[inline]
    fn narrow(w: Wide) -> Self {
        match w {
            Wide::Int(v) => v != 0,
            Wide::UInt(v) => v != 0,
            Wide::Float(v) => v != 0.0,
        }
    }
    #[inline]
    fn scalar(self) -> Scalar {
        Scalar::Bool(self)
    }
    #[inline]
    fn root(slice: ShardSlice<'_, Self>) -> ShardRoot<'_> {
        ShardRoot::Bool(slice)
    }
    #[inline]
    fn shard<'r, 'a>(root: &'r ShardRoot<'a>) -> Option<&'r ShardSlice<'a, Self>> {
        match root {
            ShardRoot::Bool(slice) => Some(slice),
            _ => None,
        }
    }
}

impl Element for bool {
    const DTYPE: DType = DType::Bool;
    #[inline]
    fn zero() -> Self {
        false
    }
    #[inline]
    fn one() -> Self {
        true
    }
    #[inline]
    fn to_f64(self) -> f64 {
        if self {
            1.0
        } else {
            0.0
        }
    }
    #[inline]
    fn bh_add(self, b: Self) -> Self {
        self | b
    }
    #[inline]
    fn bh_sub(self, b: Self) -> Self {
        self ^ b
    }
    #[inline]
    fn bh_mul(self, b: Self) -> Self {
        self & b
    }
    #[inline]
    fn bh_div(self, b: Self) -> Self {
        self & b
    }
    #[inline]
    fn bh_pow(self, b: Self) -> Self {
        // x^0 = 1 (true); x^1 = x.
        self | !b
    }
    #[inline]
    fn bh_mod(self, _b: Self) -> Self {
        false
    }
    #[inline]
    fn bh_max(self, b: Self) -> Self {
        self | b
    }
    #[inline]
    fn bh_min(self, b: Self) -> Self {
        self & b
    }
    #[inline]
    fn bh_abs(self) -> Self {
        self
    }
    #[inline]
    fn bh_sign(self) -> Self {
        self
    }
    #[inline]
    fn bh_and(self, b: Self) -> Self {
        self & b
    }
    #[inline]
    fn bh_or(self, b: Self) -> Self {
        self | b
    }
    #[inline]
    fn bh_xor(self, b: Self) -> Self {
        self ^ b
    }
    #[inline]
    fn bh_not(self) -> Self {
        !self
    }
    #[inline]
    fn bh_shl(self, _b: Self) -> Self {
        self
    }
    #[inline]
    fn bh_shr(self, _b: Self) -> Self {
        self
    }
    #[inline]
    fn float_unary(self, _f: impl Fn(f64) -> f64) -> Self {
        self
    }
    #[inline]
    fn lowest() -> Self {
        false
    }
    #[inline]
    fn highest() -> Self {
        true
    }
}

impl<T: Element> From<T> for Scalar {
    fn from(v: T) -> Scalar {
        v.scalar()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_casts_wrap() {
        assert_eq!(3_000_000_000i64.cast::<i32>(), -1_294_967_296);
        assert_eq!((-1i64).cast::<u8>(), 255);
        assert_eq!(u64::MAX.cast::<i64>(), -1);
        assert_eq!((-1i8).cast::<u64>(), u64::MAX);
        assert_eq!(((1i64 << 53) + 1).cast::<u64>(), (1u64 << 53) + 1);
    }

    #[test]
    fn bool_casts_are_nonzero_and_zero_one() {
        assert!(256u16.cast::<bool>());
        assert!(!0.0f64.cast::<bool>());
        assert!((-0.5f32).cast::<bool>());
        assert!(f64::NAN.cast::<bool>());
        assert_eq!(true.cast::<i8>(), 1);
        assert_eq!(true.cast::<f32>(), 1.0);
        assert_eq!(false.cast::<u64>(), 0);
    }

    #[test]
    fn float_casts_round_once() {
        // 2^53 + 1 is not an f64, and 2^24 + 1 is not an f32: each rounds
        // to even in one step, with no f64 detour on the way to f32.
        assert_eq!(((1i64 << 53) + 1).cast::<f64>(), 9_007_199_254_740_992.0);
        let odd = (1i64 << 40) + (1 << 16) + 1; // just above a tie in f32
        assert_eq!(odd.cast::<f32>(), odd as f32);
        assert_eq!(u64::MAX.cast::<f32>(), 18_446_744_073_709_551_616.0);
        assert_eq!(0.1f64.cast::<f32>(), 0.1f32);
        assert_eq!(0.1f32.cast::<f64>(), 0.1f32 as f64);
    }

    #[test]
    fn float_to_integer_truncates_saturates_then_wraps() {
        assert_eq!(300.0f64.cast::<u8>(), 44);
        assert_eq!(300.5f64.cast::<u8>(), 44);
        assert_eq!((-300.5f64).cast::<u8>(), 212);
        assert_eq!((-0.5f64).cast::<i32>(), 0);
        assert_eq!((-1.0f64).cast::<u64>(), u64::MAX);
        assert_eq!(f64::NAN.cast::<i16>(), 0);
        assert_eq!(f64::INFINITY.cast::<i64>(), i64::MAX);
        assert_eq!(f64::NEG_INFINITY.cast::<i64>(), i64::MIN);
        assert_eq!(f64::INFINITY.cast::<u8>(), 255); // i64::MAX wrapped
                                                     // A u64 target takes 2^63 and up straight, saturating at the top.
        assert_eq!(TWO_POW_63.cast::<u64>(), 1 << 63);
        assert_eq!(f64::INFINITY.cast::<u64>(), u64::MAX);
        assert_eq!(TWO_POW_63.cast::<i64>(), i64::MAX);
    }

    #[test]
    fn int_division_by_zero_is_zero() {
        assert_eq!(7i32.bh_div(0), 0);
        assert_eq!(7u8.bh_mod(0), 0);
        assert_eq!(7i32.bh_div(2), 3);
    }

    #[test]
    fn int_overflow_wraps() {
        assert_eq!(u8::MAX.bh_add(1), 0);
        assert_eq!(i8::MIN.bh_abs(), i8::MIN); // |-128| wraps like NumPy int8
        assert_eq!(200u8.bh_mul(2), 144);
    }

    #[test]
    fn int_pow() {
        assert_eq!(2i64.bh_pow(10), 1024);
        assert_eq!(3u32.bh_pow(0), 1);
        assert_eq!(2i32.bh_pow(-1), 0);
        assert_eq!(1i32.bh_pow(-5), 1);
    }

    #[test]
    fn int_pow_saturates_oversized_exponents() {
        // Regression: `b as u32` used to reduce the exponent mod 2^32, so
        // 2^(2^32) "became" 2^0 = 1. Saturation keeps it at 2^(2^32 - 1),
        // which is 0 mod 2^64.
        let huge = (u32::MAX as u64) + 1;
        assert_eq!(2u64.bh_pow(huge), 2u64.bh_pow(u32::MAX as u64));
        assert_ne!(2u64.bh_pow(huge), 1);
        assert_eq!(2i64.bh_pow(i64::MAX), 0); // 2^(2^32-1) mod 2^64
        assert_eq!(1u64.bh_pow(u64::MAX), 1);
        // In-range exponents are untouched.
        assert_eq!(3u64.bh_pow(4), 81);
    }

    #[test]
    fn int_mod_is_floored() {
        // NumPy convention: a non-zero result takes the divisor's sign.
        assert_eq!((-7i32).bh_mod(3), 2);
        assert_eq!(7i32.bh_mod(-3), -2);
        assert_eq!((-7i32).bh_mod(-3), -1); // rem_euclid wrongly gave 2
        assert_eq!(7i32.bh_mod(3), 1);
        assert_eq!((-6i32).bh_mod(3), 0);
        assert_eq!((-6i32).bh_mod(-3), 0);
        assert_eq!(i32::MIN.bh_mod(-1), 0); // must not overflow
        assert_eq!(i8::MIN.bh_mod(-1), 0);
        // Unsigned dtypes are unaffected.
        assert_eq!(7u8.bh_mod(3), 1);
        assert_eq!(250u8.bh_mod(7), 5);
    }

    #[test]
    fn shifts_mask_counts() {
        assert_eq!(1u8.bh_shl(3), 8);
        assert_eq!(1u8.bh_shl(9), 2); // 9 & 7 == 1
        assert_eq!(128u8.bh_shr(7), 1);
    }

    #[test]
    fn float_mod_sign_of_divisor() {
        assert_eq!((-7.0f64).bh_mod(3.0), 2.0);
        assert_eq!(7.0f64.bh_mod(-3.0), -2.0);
        assert_eq!(7.0f64.bh_mod(3.0), 1.0);
    }

    #[test]
    fn float_pow_and_sign() {
        assert_eq!(2.0f64.bh_pow(10.0), 1024.0);
        assert_eq!((-3.0f64).bh_sign(), -1.0);
        assert_eq!(0.0f64.bh_sign(), 0.0);
        assert!(f64::NAN.bh_sign().is_nan());
    }

    #[test]
    fn float_unary_hook() {
        assert_eq!(4.0f64.float_unary(f64::sqrt), 2.0);
        assert_eq!(4.0f32.float_unary(f64::sqrt), 2.0f32);
        // ints pass through untouched
        assert_eq!(4i32.float_unary(f64::sqrt), 4);
    }

    #[test]
    fn bool_lattice() {
        assert!(true.bh_add(false)); // or
        assert!(!true.bh_mul(false)); // and
        assert!(!true.bh_sub(true)); // xor
        assert!(false.bh_pow(false)); // x^0 == 1
        assert!(!false.bh_pow(true));
        assert!(!true.bh_not());
    }

    #[test]
    fn min_max() {
        assert_eq!(3i32.bh_max(5), 5);
        assert_eq!(3.0f64.bh_min(5.0), 3.0);
        assert!(!true.bh_min(false));
    }
}
