//! Runtime-typed scalar values.
//!
//! Byte-code constants (the `1` in `BH_ADD a0 a0 1`) are scalars whose dtype
//! is resolved against the instruction's operand types. [`Scalar`] is the
//! dynamically typed value used by the IR, the optimizer's constant folder
//! and the VM.

use crate::dtype::DType;
use crate::eltops::Element;
use crate::with_dtype;
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// A single dynamically typed element value.
///
/// # Examples
///
/// ```
/// use bh_tensor::{DType, Scalar};
/// let a = Scalar::from(2.5f64);
/// assert_eq!(a.dtype(), DType::Float64);
/// let b = a.cast(DType::Int32);
/// assert_eq!(b, Scalar::I32(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// Boolean value.
    Bool(bool),
    /// 8-bit unsigned.
    U8(u8),
    /// 16-bit unsigned.
    U16(u16),
    /// 32-bit unsigned.
    U32(u32),
    /// 64-bit unsigned.
    U64(u64),
    /// 8-bit signed.
    I8(i8),
    /// 16-bit signed.
    I16(i16),
    /// 32-bit signed.
    I32(i32),
    /// 64-bit signed.
    I64(i64),
    /// Single precision float.
    F32(f32),
    /// Double precision float.
    F64(f64),
}

impl Scalar {
    /// The dtype tag of this value.
    pub fn dtype(self) -> DType {
        match self {
            Scalar::Bool(_) => DType::Bool,
            Scalar::U8(_) => DType::UInt8,
            Scalar::U16(_) => DType::UInt16,
            Scalar::U32(_) => DType::UInt32,
            Scalar::U64(_) => DType::UInt64,
            Scalar::I8(_) => DType::Int8,
            Scalar::I16(_) => DType::Int16,
            Scalar::I32(_) => DType::Int32,
            Scalar::I64(_) => DType::Int64,
            Scalar::F32(_) => DType::Float32,
            Scalar::F64(_) => DType::Float64,
        }
    }

    /// The additive identity of `dtype`.
    pub fn zero(dtype: DType) -> Scalar {
        Scalar::from_i64(0, dtype)
    }

    /// The multiplicative identity of `dtype`.
    pub fn one(dtype: DType) -> Scalar {
        Scalar::from_i64(1, dtype)
    }

    /// Build a scalar of `dtype` from an `i64` without an f64 round-trip,
    /// so 64-bit integer constants keep full precision.
    pub fn from_i64(v: i64, dtype: DType) -> Scalar {
        Scalar::I64(v).cast(dtype)
    }

    /// Value as f64 (lossy for u64/i64 beyond 2^53).
    pub fn as_f64(self) -> f64 {
        match self {
            Scalar::Bool(v) => v.to_f64(),
            Scalar::U8(v) => v as f64,
            Scalar::U16(v) => v as f64,
            Scalar::U32(v) => v as f64,
            Scalar::U64(v) => v as f64,
            Scalar::I8(v) => v as f64,
            Scalar::I16(v) => v as f64,
            Scalar::I32(v) => v as f64,
            Scalar::I64(v) => v as f64,
            Scalar::F32(v) => v as f64,
            Scalar::F64(v) => v,
        }
    }

    /// Value as i64 if it is integral and fits, else `None`.
    ///
    /// Used by the power-expansion rule to detect integral exponents
    /// (`x^10`), including float constants that hold integral values.
    pub fn as_integral(self) -> Option<i64> {
        match self {
            Scalar::Bool(v) => Some(v as i64),
            Scalar::U8(v) => Some(v as i64),
            Scalar::U16(v) => Some(v as i64),
            Scalar::U32(v) => Some(v as i64),
            Scalar::U64(v) => i64::try_from(v).ok(),
            Scalar::I8(v) => Some(v as i64),
            Scalar::I16(v) => Some(v as i64),
            Scalar::I32(v) => Some(v as i64),
            Scalar::I64(v) => Some(v),
            Scalar::F32(v) => {
                let f = v as f64;
                (f.fract() == 0.0 && f.abs() < 2f64.powi(53)).then_some(f as i64)
            }
            Scalar::F64(f) => (f.fract() == 0.0 && f.abs() < 2f64.powi(53)).then_some(f as i64),
        }
    }

    /// The value's bit pattern widened to 64 bits: zero-extended for
    /// `bool` and unsigned integers, sign-extended for signed ones, and
    /// the IEEE-754 bits for floats, so every NaN payload and signed zero
    /// stays distinct. Together with its dtype this names the value
    /// exactly; structural digests, the plan auditor and plan containers
    /// all encode constants this way.
    ///
    /// # Examples
    ///
    /// ```
    /// use bh_tensor::{DType, Scalar};
    /// assert_eq!(Scalar::I8(-1).to_bits(), u64::MAX);
    /// assert_eq!(Scalar::from_bits(DType::Int8, u64::MAX), Some(Scalar::I8(-1)));
    /// // 0xFF is not how an i8 is widened.
    /// assert_eq!(Scalar::from_bits(DType::Int8, 0xFF), None);
    /// ```
    pub fn to_bits(self) -> u64 {
        match self {
            Scalar::Bool(v) => v as u64,
            Scalar::U8(v) => v as u64,
            Scalar::U16(v) => v as u64,
            Scalar::U32(v) => v as u64,
            Scalar::U64(v) => v,
            Scalar::I8(v) => v as i64 as u64,
            Scalar::I16(v) => v as i64 as u64,
            Scalar::I32(v) => v as i64 as u64,
            Scalar::I64(v) => v as u64,
            Scalar::F32(v) => v.to_bits() as u64,
            Scalar::F64(v) => v.to_bits(),
        }
    }

    /// The inverse of [`Scalar::to_bits`]: the `dtype` value with that
    /// pattern, or `None` for a pattern `to_bits` never produces (a
    /// `bool` other than 0 or 1, an integer out of range or not
    /// sign-extended, an `f32` with high bits set). So every value has
    /// exactly one pattern.
    pub fn from_bits(dtype: DType, bits: u64) -> Option<Scalar> {
        Some(match dtype {
            DType::Bool => match bits {
                0 => Scalar::Bool(false),
                1 => Scalar::Bool(true),
                _ => return None,
            },
            DType::UInt8 => Scalar::U8(u8::try_from(bits).ok()?),
            DType::UInt16 => Scalar::U16(u16::try_from(bits).ok()?),
            DType::UInt32 => Scalar::U32(u32::try_from(bits).ok()?),
            DType::UInt64 => Scalar::U64(bits),
            DType::Int8 => Scalar::I8(i8::try_from(bits as i64).ok()?),
            DType::Int16 => Scalar::I16(i16::try_from(bits as i64).ok()?),
            DType::Int32 => Scalar::I32(i32::try_from(bits as i64).ok()?),
            DType::Int64 => Scalar::I64(bits as i64),
            DType::Float32 => Scalar::F32(f32::from_bits(u32::try_from(bits).ok()?)),
            DType::Float64 => Scalar::F64(f64::from_bits(bits)),
        })
    }

    /// Cast to another dtype by [`Element::cast`], the one conversion
    /// between element types (its doc states the rule). The same dtype
    /// returns `self`, bit for bit.
    pub fn cast(self, dtype: DType) -> Scalar {
        fn to<S: Element>(v: S, dtype: DType) -> Scalar {
            with_dtype!(dtype, T, Scalar::from(v.cast::<T>()))
        }
        if self.dtype() == dtype {
            return self;
        }
        match self {
            Scalar::Bool(v) => to(v, dtype),
            Scalar::U8(v) => to(v, dtype),
            Scalar::U16(v) => to(v, dtype),
            Scalar::U32(v) => to(v, dtype),
            Scalar::U64(v) => to(v, dtype),
            Scalar::I8(v) => to(v, dtype),
            Scalar::I16(v) => to(v, dtype),
            Scalar::I32(v) => to(v, dtype),
            Scalar::I64(v) => to(v, dtype),
            Scalar::F32(v) => to(v, dtype),
            Scalar::F64(v) => to(v, dtype),
        }
    }

    /// True if this is exactly the additive identity of its dtype.
    pub fn is_zero(self) -> bool {
        match self {
            Scalar::F32(v) => v == 0.0,
            Scalar::F64(v) => v == 0.0,
            s => s.as_integral() == Some(0),
        }
    }

    /// True if this is exactly the multiplicative identity of its dtype.
    pub fn is_one(self) -> bool {
        match self {
            Scalar::F32(v) => v == 1.0,
            Scalar::F64(v) => v == 1.0,
            s => s.as_integral() == Some(1),
        }
    }

    /// Extract as typed element (panics on dtype mismatch; internal use via
    /// [`Scalar::get`]).
    pub fn get<T: Element>(self) -> T {
        assert_eq!(self.dtype(), T::DTYPE, "scalar dtype mismatch");
        // The dtype check guarantees the variant's payload type *is* `T`,
        // so extract it directly — an f64 round-trip would corrupt
        // u64/i64 values beyond 2^53 (e.g. `u64::MAX - 128` became
        // `u64::MAX`, diverging from the exact constant folder).
        fn exact<S: Copy + 'static, T: Copy + 'static>(v: S) -> T {
            *(&v as &dyn std::any::Any)
                .downcast_ref::<T>()
                .expect("dtype checked above")
        }
        match self {
            Scalar::Bool(v) => exact(v),
            Scalar::U8(v) => exact(v),
            Scalar::U16(v) => exact(v),
            Scalar::U32(v) => exact(v),
            Scalar::U64(v) => exact(v),
            Scalar::I8(v) => exact(v),
            Scalar::I16(v) => exact(v),
            Scalar::I32(v) => exact(v),
            Scalar::I64(v) => exact(v),
            Scalar::F32(v) => exact(v),
            Scalar::F64(v) => exact(v),
        }
    }

    /// Compare numerically (bools as 0/1). `None` for NaN comparisons.
    pub fn partial_cmp_value(self, other: Scalar) -> Option<Ordering> {
        self.as_f64().partial_cmp(&other.as_f64())
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Scalar::Bool(v) => write!(f, "{v}"),
            Scalar::U8(v) => write!(f, "{v}"),
            Scalar::U16(v) => write!(f, "{v}"),
            Scalar::U32(v) => write!(f, "{v}"),
            Scalar::U64(v) => write!(f, "{v}"),
            Scalar::I8(v) => write!(f, "{v}"),
            Scalar::I16(v) => write!(f, "{v}"),
            Scalar::I32(v) => write!(f, "{v}"),
            Scalar::I64(v) => write!(f, "{v}"),
            Scalar::F32(v) => fmt_float(f, v as f64),
            Scalar::F64(v) => fmt_float(f, v),
        }
    }
}

fn fmt_float(f: &mut fmt::Formatter<'_>, v: f64) -> fmt::Result {
    if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
        write!(f, "{v:.1}") // "3.0" so the printer round-trips dtype intent
    } else {
        write!(f, "{v}")
    }
}

/// Error returned when parsing a [`Scalar`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScalarError {
    text: String,
}

impl fmt::Display for ParseScalarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scalar literal `{}`", self.text)
    }
}

impl std::error::Error for ParseScalarError {}

impl FromStr for Scalar {
    type Err = ParseScalarError;

    /// Parses untyped literals: `true`/`false` → Bool, integers → I64,
    /// anything with `.`/`e`/`inf`/`nan` → F64. Typed suffix forms like
    /// `3i32` or `1.5f32` are also accepted.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        let err = || ParseScalarError { text: t.to_owned() };
        if t.is_empty() {
            return Err(err());
        }
        match t {
            "true" => return Ok(Scalar::Bool(true)),
            "false" => return Ok(Scalar::Bool(false)),
            _ => {}
        }
        // Typed suffix? Find a suffix among known dtype short names.
        for d in [
            "bool", "u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64", "f32", "f64",
        ] {
            if let Some(body) = t.strip_suffix(d) {
                if !body.is_empty()
                    && body
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+')
                {
                    let dtype: DType = d.parse().map_err(|_| err())?;
                    if let Ok(i) = body.parse::<i64>() {
                        return Ok(Scalar::from_i64(i, dtype));
                    }
                    let f: f64 = body.parse().map_err(|_| err())?;
                    return Ok(Scalar::F64(f).cast(dtype));
                }
            }
        }
        if let Ok(i) = t.parse::<i64>() {
            return Ok(Scalar::I64(i));
        }
        if let Ok(u) = t.parse::<u64>() {
            return Ok(Scalar::U64(u));
        }
        if let Ok(f) = t.parse::<f64>() {
            return Ok(Scalar::F64(f));
        }
        Err(err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::ALL_DTYPES;

    #[test]
    fn dtype_tags() {
        assert_eq!(Scalar::from(1u8).dtype(), DType::UInt8);
        assert_eq!(Scalar::from(-1i64).dtype(), DType::Int64);
        assert_eq!(Scalar::from(0.5f32).dtype(), DType::Float32);
        assert_eq!(Scalar::from(true).dtype(), DType::Bool);
    }

    #[test]
    fn zero_one_identities() {
        for &d in &ALL_DTYPES {
            assert!(Scalar::zero(d).is_zero(), "{d}");
            assert!(Scalar::one(d).is_one(), "{d}");
            assert_eq!(Scalar::zero(d).dtype(), d);
            assert_eq!(Scalar::one(d).dtype(), d);
        }
    }

    #[test]
    fn integral_detection() {
        assert_eq!(Scalar::F64(10.0).as_integral(), Some(10));
        assert_eq!(Scalar::F64(10.5).as_integral(), None);
        assert_eq!(Scalar::F32(-3.0).as_integral(), Some(-3));
        assert_eq!(Scalar::U64(u64::MAX).as_integral(), None);
        assert_eq!(Scalar::I64(i64::MIN).as_integral(), Some(i64::MIN));
        assert_eq!(Scalar::Bool(true).as_integral(), Some(1));
    }

    #[test]
    fn casts_preserve_integers() {
        let s = Scalar::I64(1_000_000_007);
        assert_eq!(s.cast(DType::Int32), Scalar::I32(1_000_000_007));
        assert_eq!(s.cast(DType::Float64), Scalar::F64(1_000_000_007.0));
        assert_eq!(Scalar::F64(2.9).cast(DType::Int32), Scalar::I32(2));
        assert_eq!(Scalar::Bool(true).cast(DType::Float32), Scalar::F32(1.0));
    }

    #[test]
    fn cast_u64_saturation_free_wrap() {
        let big = Scalar::U64(u64::MAX);
        assert_eq!(big.cast(DType::Int64), Scalar::I64(-1));
        assert_eq!(big.cast(DType::UInt8), Scalar::U8(255));
    }

    #[test]
    fn cast_is_identity_on_same_dtype() {
        let s = Scalar::F32(3.25);
        assert_eq!(s.cast(DType::Float32), s);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Scalar::I64(3).to_string(), "3");
        assert_eq!(Scalar::F64(3.0).to_string(), "3.0");
        assert_eq!(Scalar::F64(3.5).to_string(), "3.5");
        assert_eq!(Scalar::Bool(false).to_string(), "false");
        assert_eq!(Scalar::U8(255).to_string(), "255");
    }

    #[test]
    fn parse_untyped() {
        assert_eq!("3".parse::<Scalar>().unwrap(), Scalar::I64(3));
        assert_eq!("-7".parse::<Scalar>().unwrap(), Scalar::I64(-7));
        assert_eq!("3.5".parse::<Scalar>().unwrap(), Scalar::F64(3.5));
        assert_eq!("3.0".parse::<Scalar>().unwrap(), Scalar::F64(3.0));
        assert_eq!("true".parse::<Scalar>().unwrap(), Scalar::Bool(true));
        assert_eq!(
            "18446744073709551615".parse::<Scalar>().unwrap(),
            Scalar::U64(u64::MAX)
        );
    }

    #[test]
    fn parse_typed_suffix() {
        assert_eq!("3i32".parse::<Scalar>().unwrap(), Scalar::I32(3));
        assert_eq!("1.5f32".parse::<Scalar>().unwrap(), Scalar::F32(1.5));
        assert_eq!("255u8".parse::<Scalar>().unwrap(), Scalar::U8(255));
    }

    #[test]
    fn an_out_of_range_typed_literal_follows_the_cast_rule() {
        // A typed literal is its value cast by the one rule: `300.5u8`
        // truncates to 300 and wraps to 44, as `300u8` does.
        let want = Scalar::F64(300.5).cast(DType::UInt8);
        assert_eq!(want, Scalar::U8(44));
        assert_eq!("300.5u8".parse::<Scalar>().unwrap(), want);
        assert_eq!("300u8".parse::<Scalar>().unwrap(), want);
        assert_eq!(
            "-1.5e3i8".parse::<Scalar>().unwrap(),
            Scalar::F64(-1500.0).cast(DType::Int8)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Scalar>().is_err());
        assert!("abc".parse::<Scalar>().is_err());
        assert!("1.2.3".parse::<Scalar>().is_err());
    }

    #[test]
    fn parse_display_round_trip() {
        for s in [
            Scalar::I64(42),
            Scalar::F64(-1.25),
            Scalar::Bool(true),
            Scalar::F64(3.0),
        ] {
            let text = s.to_string();
            let back: Scalar = text.parse().unwrap();
            assert_eq!(back.as_f64(), s.as_f64(), "{text}");
        }
    }

    #[test]
    fn get_typed() {
        assert_eq!(Scalar::F64(2.5).get::<f64>(), 2.5);
        assert_eq!(Scalar::I32(-9).get::<i32>(), -9);
        assert!(Scalar::Bool(true).get::<bool>());
    }

    #[test]
    #[should_panic(expected = "scalar dtype mismatch")]
    fn get_wrong_type_panics() {
        let _ = Scalar::F64(2.5).get::<i32>();
    }

    #[test]
    fn ordering() {
        use std::cmp::Ordering::*;
        assert_eq!(
            Scalar::I64(1).partial_cmp_value(Scalar::F64(2.0)),
            Some(Less)
        );
        assert_eq!(
            Scalar::F64(f64::NAN).partial_cmp_value(Scalar::F64(1.0)),
            None
        );
    }
}
