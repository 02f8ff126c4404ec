//! Per-element semantics of every element-wise op-code, per dtype.
//!
//! The VM hoists the op-code dispatch out of the loop: each instruction
//! selects one of these `#[inline]` methods once, and the strided kernel
//! monomorphises over it. Semantics follow NumPy/Bohrium conventions:
//!
//! * integer division / modulo by zero yields 0 (NumPy emits a warning and
//!   produces 0; we skip the warning),
//! * integer overflow wraps (NumPy c-casts),
//! * integer **and** float modulo are *floored* (NumPy `mod`): a non-zero
//!   result takes the sign of the divisor, so `-7 mod 3 = 2`,
//!   `7 mod -3 = -2` and `-7 mod -3 = -1`,
//! * integer power: negative exponents truncate (`1^-n = 1`, else `0`,
//!   since NumPy raises instead of defining them); non-negative exponents
//!   beyond `u32::MAX` **saturate** to `u32::MAX` (they are not silently
//!   truncated mod 2³²). The constant folder (`bh_opt::const_eval`)
//!   implements the identical rule, keeping folder ≡ VM,
//! * shift counts are masked to the type width,
//! * boolean arithmetic is the logical lattice (`+` = or, `*` = and).

use bh_tensor::Element;

/// Element types executable by the VM: [`Element`] plus total definitions
/// of every arithmetic op-code.
///
/// Sealed in practice: implemented for the eleven supported element types.
pub trait VmElement: Element {
    /// `BH_ADD`.
    fn vm_add(self, b: Self) -> Self;
    /// `BH_SUBTRACT`.
    fn vm_sub(self, b: Self) -> Self;
    /// `BH_MULTIPLY`.
    fn vm_mul(self, b: Self) -> Self;
    /// `BH_DIVIDE`.
    fn vm_div(self, b: Self) -> Self;
    /// `BH_POWER`.
    fn vm_pow(self, b: Self) -> Self;
    /// `BH_MOD`.
    fn vm_mod(self, b: Self) -> Self;
    /// `BH_MAXIMUM`.
    fn vm_max(self, b: Self) -> Self;
    /// `BH_MINIMUM`.
    fn vm_min(self, b: Self) -> Self;
    /// `BH_ABSOLUTE`.
    fn vm_abs(self) -> Self;
    /// `BH_SIGN`.
    fn vm_sign(self) -> Self;

    /// `BH_BITWISE_AND` (bool: logical and).
    fn vm_and(self, b: Self) -> Self;
    /// `BH_BITWISE_OR`.
    fn vm_or(self, b: Self) -> Self;
    /// `BH_BITWISE_XOR`.
    fn vm_xor(self, b: Self) -> Self;
    /// `BH_INVERT` (bitwise not; bool: logical not).
    fn vm_not(self) -> Self;
    /// `BH_LEFT_SHIFT` (no-op for floats/bool — validation excludes them).
    fn vm_shl(self, b: Self) -> Self;
    /// `BH_RIGHT_SHIFT`.
    fn vm_shr(self, b: Self) -> Self;

    /// Float-only unary op-codes take this hook; integer types return
    /// `self` unchanged (the op dispatch never instantiates a float-only
    /// op-code for them, and the verifier rejects such a program).
    fn vm_float_unary(self, f: impl Fn(f64) -> f64) -> Self;

    /// Identity of `BH_MAXIMUM_REDUCE`: the lowest representable value.
    fn vm_lowest() -> Self;
    /// Identity of `BH_MINIMUM_REDUCE`: the highest representable value.
    fn vm_highest() -> Self;
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl VmElement for $t {
            #[inline] fn vm_add(self, b: Self) -> Self { self.wrapping_add(b) }
            #[inline] fn vm_sub(self, b: Self) -> Self { self.wrapping_sub(b) }
            #[inline] fn vm_mul(self, b: Self) -> Self { self.wrapping_mul(b) }
            #[inline] fn vm_div(self, b: Self) -> Self {
                if b == 0 { 0 } else { self.wrapping_div(b) }
            }
            #[inline] fn vm_pow(self, b: Self) -> Self {
                #[allow(unused_comparisons)]
                if b < 0 {
                    // x^-n truncates to 0 for |x|>1, 1 for x==1, as NumPy's
                    // integer power semantics error out; we pick total
                    // truncation semantics instead.
                    if self == 1 { 1 } else { 0 }
                } else if (b as u64) > u32::MAX as u64 {
                    // Exponents beyond u32::MAX saturate (see module doc);
                    // `b as u32` would silently reduce them mod 2^32.
                    self.wrapping_pow(u32::MAX)
                } else {
                    self.wrapping_pow(b as u32)
                }
            }
            #[inline] fn vm_mod(self, b: Self) -> Self {
                // Floored (NumPy) modulo: non-zero results take the sign
                // of the divisor. `rem_euclid` would instead always be
                // non-negative, diverging for negative divisors.
                if b == 0 { 0 } else {
                    let r = self.wrapping_rem(b);
                    #[allow(unused_comparisons)]
                    if r != 0 && (r < 0) != (b < 0) { r.wrapping_add(b) } else { r }
                }
            }
            #[inline] fn vm_max(self, b: Self) -> Self { Ord::max(self, b) }
            #[inline] fn vm_min(self, b: Self) -> Self { Ord::min(self, b) }
            #[inline] fn vm_abs(self) -> Self {
                #[allow(unused_comparisons)]
                { if self < 0 { self.wrapping_neg() } else { self } }
            }
            #[inline] fn vm_sign(self) -> Self {
                #[allow(unused_comparisons)]
                { if self < 0 { Self::wrapping_neg(1) } else if self == 0 { 0 } else { 1 } }
            }
            #[inline] fn vm_and(self, b: Self) -> Self { self & b }
            #[inline] fn vm_or(self, b: Self) -> Self { self | b }
            #[inline] fn vm_xor(self, b: Self) -> Self { self ^ b }
            #[inline] fn vm_not(self) -> Self { !self }
            #[inline] fn vm_shl(self, b: Self) -> Self {
                self.wrapping_shl(b as u32)
            }
            #[inline] fn vm_shr(self, b: Self) -> Self {
                self.wrapping_shr(b as u32)
            }
            #[inline] fn vm_float_unary(self, _f: impl Fn(f64) -> f64) -> Self { self }
            #[inline] fn vm_lowest() -> Self { Self::MIN }
            #[inline] fn vm_highest() -> Self { Self::MAX }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, i8, i16, i32, i64);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl VmElement for $t {
            #[inline] fn vm_add(self, b: Self) -> Self { self + b }
            #[inline] fn vm_sub(self, b: Self) -> Self { self - b }
            #[inline] fn vm_mul(self, b: Self) -> Self { self * b }
            #[inline] fn vm_div(self, b: Self) -> Self { self / b }
            #[inline] fn vm_pow(self, b: Self) -> Self { self.powf(b) }
            #[inline] fn vm_mod(self, b: Self) -> Self {
                // NumPy mod: result has the divisor's sign.
                let r = self % b;
                if r != 0.0 && (r < 0.0) != (b < 0.0) { r + b } else { r }
            }
            #[inline] fn vm_max(self, b: Self) -> Self { self.max(b) }
            #[inline] fn vm_min(self, b: Self) -> Self { self.min(b) }
            #[inline] fn vm_abs(self) -> Self { self.abs() }
            #[inline] fn vm_sign(self) -> Self {
                if self.is_nan() { self } else if self > 0.0 { 1.0 } else if self < 0.0 { -1.0 } else { self }
            }
            #[inline] fn vm_and(self, _b: Self) -> Self { self }
            #[inline] fn vm_or(self, _b: Self) -> Self { self }
            #[inline] fn vm_xor(self, _b: Self) -> Self { self }
            #[inline] fn vm_not(self) -> Self { self }
            #[inline] fn vm_shl(self, _b: Self) -> Self { self }
            #[inline] fn vm_shr(self, _b: Self) -> Self { self }
            #[inline] fn vm_float_unary(self, f: impl Fn(f64) -> f64) -> Self { f(self as f64) as $t }
            #[inline] fn vm_lowest() -> Self { Self::NEG_INFINITY }
            #[inline] fn vm_highest() -> Self { Self::INFINITY }
        }
    )*};
}

impl_float!(f32, f64);

impl VmElement for bool {
    #[inline]
    fn vm_add(self, b: Self) -> Self {
        self | b
    }
    #[inline]
    fn vm_sub(self, b: Self) -> Self {
        self ^ b
    }
    #[inline]
    fn vm_mul(self, b: Self) -> Self {
        self & b
    }
    #[inline]
    fn vm_div(self, b: Self) -> Self {
        self & b
    }
    #[inline]
    fn vm_pow(self, b: Self) -> Self {
        // x^0 = 1 (true); x^1 = x.
        self | !b
    }
    #[inline]
    fn vm_mod(self, _b: Self) -> Self {
        false
    }
    #[inline]
    fn vm_max(self, b: Self) -> Self {
        self | b
    }
    #[inline]
    fn vm_min(self, b: Self) -> Self {
        self & b
    }
    #[inline]
    fn vm_abs(self) -> Self {
        self
    }
    #[inline]
    fn vm_sign(self) -> Self {
        self
    }
    #[inline]
    fn vm_and(self, b: Self) -> Self {
        self & b
    }
    #[inline]
    fn vm_or(self, b: Self) -> Self {
        self | b
    }
    #[inline]
    fn vm_xor(self, b: Self) -> Self {
        self ^ b
    }
    #[inline]
    fn vm_not(self) -> Self {
        !self
    }
    #[inline]
    fn vm_shl(self, _b: Self) -> Self {
        self
    }
    #[inline]
    fn vm_shr(self, _b: Self) -> Self {
        self
    }
    #[inline]
    fn vm_float_unary(self, _f: impl Fn(f64) -> f64) -> Self {
        self
    }
    #[inline]
    fn vm_lowest() -> Self {
        false
    }
    #[inline]
    fn vm_highest() -> Self {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_division_by_zero_is_zero() {
        assert_eq!(7i32.vm_div(0), 0);
        assert_eq!(7u8.vm_mod(0), 0);
        assert_eq!(7i32.vm_div(2), 3);
    }

    #[test]
    fn int_overflow_wraps() {
        assert_eq!(u8::MAX.vm_add(1), 0);
        assert_eq!(i8::MIN.vm_abs(), i8::MIN); // |-128| wraps like NumPy int8
        assert_eq!(200u8.vm_mul(2), 144);
    }

    #[test]
    fn int_pow() {
        assert_eq!(2i64.vm_pow(10), 1024);
        assert_eq!(3u32.vm_pow(0), 1);
        assert_eq!(2i32.vm_pow(-1), 0);
        assert_eq!(1i32.vm_pow(-5), 1);
    }

    #[test]
    fn int_pow_saturates_oversized_exponents() {
        // Regression: `b as u32` used to reduce the exponent mod 2^32, so
        // 2^(2^32) "became" 2^0 = 1. Saturation keeps it at 2^(2^32 - 1),
        // which is 0 mod 2^64.
        let huge = (u32::MAX as u64) + 1;
        assert_eq!(2u64.vm_pow(huge), 2u64.vm_pow(u32::MAX as u64));
        assert_ne!(2u64.vm_pow(huge), 1);
        assert_eq!(2i64.vm_pow(i64::MAX), 0); // 2^(2^32-1) mod 2^64
        assert_eq!(1u64.vm_pow(u64::MAX), 1);
        // In-range exponents are untouched.
        assert_eq!(3u64.vm_pow(4), 81);
    }

    #[test]
    fn int_mod_is_floored() {
        // NumPy convention: a non-zero result takes the divisor's sign.
        assert_eq!((-7i32).vm_mod(3), 2);
        assert_eq!(7i32.vm_mod(-3), -2);
        assert_eq!((-7i32).vm_mod(-3), -1); // rem_euclid wrongly gave 2
        assert_eq!(7i32.vm_mod(3), 1);
        assert_eq!((-6i32).vm_mod(3), 0);
        assert_eq!((-6i32).vm_mod(-3), 0);
        assert_eq!(i32::MIN.vm_mod(-1), 0); // must not overflow
        assert_eq!(i8::MIN.vm_mod(-1), 0);
        // Unsigned dtypes are unaffected.
        assert_eq!(7u8.vm_mod(3), 1);
        assert_eq!(250u8.vm_mod(7), 5);
    }

    #[test]
    fn shifts_mask_counts() {
        assert_eq!(1u8.vm_shl(3), 8);
        assert_eq!(1u8.vm_shl(9), 2); // 9 & 7 == 1
        assert_eq!(128u8.vm_shr(7), 1);
    }

    #[test]
    fn float_mod_sign_of_divisor() {
        assert_eq!((-7.0f64).vm_mod(3.0), 2.0);
        assert_eq!(7.0f64.vm_mod(-3.0), -2.0);
        assert_eq!(7.0f64.vm_mod(3.0), 1.0);
    }

    #[test]
    fn float_pow_and_sign() {
        assert_eq!(2.0f64.vm_pow(10.0), 1024.0);
        assert_eq!((-3.0f64).vm_sign(), -1.0);
        assert_eq!(0.0f64.vm_sign(), 0.0);
        assert!(f64::NAN.vm_sign().is_nan());
    }

    #[test]
    fn float_unary_hook() {
        assert_eq!(4.0f64.vm_float_unary(f64::sqrt), 2.0);
        assert_eq!(4.0f32.vm_float_unary(f64::sqrt), 2.0f32);
        // ints pass through untouched
        assert_eq!(4i32.vm_float_unary(f64::sqrt), 4);
    }

    #[test]
    fn bool_lattice() {
        assert!(true.vm_add(false)); // or
        assert!(!true.vm_mul(false)); // and
        assert!(!true.vm_sub(true)); // xor
        assert!(false.vm_pow(false)); // x^0 == 1
        assert!(!false.vm_pow(true));
        assert!(!true.vm_not());
    }

    #[test]
    fn min_max() {
        assert_eq!(3i32.vm_max(5), 5);
        assert_eq!(3.0f64.vm_min(5.0), 3.0);
        assert!(!true.vm_min(false));
    }
}
