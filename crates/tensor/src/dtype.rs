//! Element data types supported by the byte-code language.
//!
//! Bohrium's byte-code is typed: every base array carries one of the
//! NumPy-style element types below. We implement the full integer /
//! floating-point / boolean set; complex types are out of scope (see
//! DESIGN.md §2).

use std::fmt;
use std::str::FromStr;

/// Element type of a tensor base.
///
/// The discriminant order is used for type-promotion ranking (see
/// [`DType::promote`]); keep boolean < unsigned < signed < float.
///
/// # Examples
///
/// ```
/// use bh_tensor::DType;
/// assert_eq!(DType::Float64.size_of(), 8);
/// assert_eq!(DType::promote(DType::Int32, DType::Float32), DType::Float32);
/// assert_eq!("f64".parse::<DType>().unwrap(), DType::Float64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DType {
    /// Boolean (`bool` in NumPy, `bh_bool` in Bohrium).
    Bool,
    /// 8-bit unsigned integer.
    UInt8,
    /// 16-bit unsigned integer.
    UInt16,
    /// 32-bit unsigned integer.
    UInt32,
    /// 64-bit unsigned integer.
    UInt64,
    /// 8-bit signed integer.
    Int8,
    /// 16-bit signed integer.
    Int16,
    /// 32-bit signed integer.
    Int32,
    /// 64-bit signed integer.
    Int64,
    /// IEEE-754 single precision.
    Float32,
    /// IEEE-754 double precision. The default type of the front-end,
    /// matching NumPy's `np.zeros` default.
    Float64,
}

/// All dtypes, in promotion-rank order.
pub const ALL_DTYPES: [DType; 11] = [
    DType::Bool,
    DType::UInt8,
    DType::UInt16,
    DType::UInt32,
    DType::UInt64,
    DType::Int8,
    DType::Int16,
    DType::Int32,
    DType::Int64,
    DType::Float32,
    DType::Float64,
];

impl DType {
    /// Size in bytes of one element of this type.
    pub const fn size_of(self) -> usize {
        match self {
            DType::Bool | DType::UInt8 | DType::Int8 => 1,
            DType::UInt16 | DType::Int16 => 2,
            DType::UInt32 | DType::Int32 | DType::Float32 => 4,
            DType::UInt64 | DType::Int64 | DType::Float64 => 8,
        }
    }

    /// True for `Float32`/`Float64`.
    pub const fn is_float(self) -> bool {
        matches!(self, DType::Float32 | DType::Float64)
    }

    /// True for any signed or unsigned integer type (not bool, not float).
    pub const fn is_integer(self) -> bool {
        matches!(
            self,
            DType::UInt8
                | DType::UInt16
                | DType::UInt32
                | DType::UInt64
                | DType::Int8
                | DType::Int16
                | DType::Int32
                | DType::Int64
        )
    }

    /// True for signed integers.
    pub const fn is_signed_integer(self) -> bool {
        matches!(
            self,
            DType::Int8 | DType::Int16 | DType::Int32 | DType::Int64
        )
    }

    /// True for unsigned integers.
    pub const fn is_unsigned_integer(self) -> bool {
        matches!(
            self,
            DType::UInt8 | DType::UInt16 | DType::UInt32 | DType::UInt64
        )
    }

    /// True if the type is ordered and supports `<`-style comparisons
    /// (everything in this set is; kept for future complex support).
    pub const fn is_ordered(self) -> bool {
        true
    }

    /// NumPy-style short name (`"f64"`, `"i32"`, `"bool"`, …).
    pub const fn short_name(self) -> &'static str {
        match self {
            DType::Bool => "bool",
            DType::UInt8 => "u8",
            DType::UInt16 => "u16",
            DType::UInt32 => "u32",
            DType::UInt64 => "u64",
            DType::Int8 => "i8",
            DType::Int16 => "i16",
            DType::Int32 => "i32",
            DType::Int64 => "i64",
            DType::Float32 => "f32",
            DType::Float64 => "f64",
        }
    }

    /// Bohrium C name (`"BH_FLOAT64"` …), used by the byte-code printer's
    /// verbose mode.
    pub const fn bohrium_name(self) -> &'static str {
        match self {
            DType::Bool => "BH_BOOL",
            DType::UInt8 => "BH_UINT8",
            DType::UInt16 => "BH_UINT16",
            DType::UInt32 => "BH_UINT32",
            DType::UInt64 => "BH_UINT64",
            DType::Int8 => "BH_INT8",
            DType::Int16 => "BH_INT16",
            DType::Int32 => "BH_INT32",
            DType::Int64 => "BH_INT64",
            DType::Float32 => "BH_FLOAT32",
            DType::Float64 => "BH_FLOAT64",
        }
    }

    /// NumPy type-promotion result of combining two dtypes.
    ///
    /// Follows the same lattice NumPy (and Bohrium's bridge) uses for
    /// same-kind promotion; mixed signed/unsigned of equal width promotes to
    /// the next-wider signed type, and u64+signed promotes to f64 as NumPy
    /// does.
    pub fn promote(a: DType, b: DType) -> DType {
        use DType::*;
        if a == b {
            return a;
        }
        // Bool promotes to anything else.
        if a == Bool {
            return b;
        }
        if b == Bool {
            return a;
        }
        // Float beats everything; wider float wins.
        if a.is_float() || b.is_float() {
            return if a == Float64 || b == Float64 {
                Float64
            } else {
                Float32
            };
        }
        // Both integers.
        let (sa, sb) = (a.size_of(), b.size_of());
        match (a.is_signed_integer(), b.is_signed_integer()) {
            (true, true) => signed_of_size(sa.max(sb)),
            (false, false) => unsigned_of_size(sa.max(sb)),
            // Mixed signedness.
            (true, false) | (false, true) => {
                let (signed, unsigned) = if a.is_signed_integer() {
                    (a, b)
                } else {
                    (b, a)
                };
                if signed.size_of() > unsigned.size_of() {
                    signed
                } else if unsigned.size_of() < 8 {
                    signed_of_size(unsigned.size_of() * 2)
                } else {
                    // NumPy: int64 + uint64 -> float64.
                    Float64
                }
            }
        }
    }

    /// The dtype used when a value of this dtype is summed / multiplied in a
    /// reduction (identity: reductions keep their input dtype, except bool
    /// sums which widen to i64, matching NumPy).
    pub fn reduce_dtype(self) -> DType {
        match self {
            DType::Bool => DType::Int64,
            other => other,
        }
    }
}

const fn signed_of_size(bytes: usize) -> DType {
    match bytes {
        1 => DType::Int8,
        2 => DType::Int16,
        4 => DType::Int32,
        _ => DType::Int64,
    }
}

const fn unsigned_of_size(bytes: usize) -> DType {
    match bytes {
        1 => DType::UInt8,
        2 => DType::UInt16,
        4 => DType::UInt32,
        _ => DType::UInt64,
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Error returned when parsing a [`DType`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDTypeError {
    text: String,
}

impl fmt::Display for ParseDTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown dtype `{}`", self.text)
    }
}

impl std::error::Error for ParseDTypeError {}

impl FromStr for DType {
    type Err = ParseDTypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        let dt = match t {
            "bool" | "BH_BOOL" => DType::Bool,
            "u8" | "uint8" | "BH_UINT8" => DType::UInt8,
            "u16" | "uint16" | "BH_UINT16" => DType::UInt16,
            "u32" | "uint32" | "BH_UINT32" => DType::UInt32,
            "u64" | "uint64" | "BH_UINT64" => DType::UInt64,
            "i8" | "int8" | "BH_INT8" => DType::Int8,
            "i16" | "int16" | "BH_INT16" => DType::Int16,
            "i32" | "int32" | "BH_INT32" => DType::Int32,
            "i64" | "int64" | "BH_INT64" => DType::Int64,
            "f32" | "float32" | "BH_FLOAT32" => DType::Float32,
            "f64" | "float64" | "BH_FLOAT64" => DType::Float64,
            _ => return Err(ParseDTypeError { text: t.to_owned() }),
        };
        Ok(dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Element;

    #[test]
    fn sizes_match_rust_types() {
        assert_eq!(DType::Bool.size_of(), std::mem::size_of::<bool>());
        assert_eq!(DType::Int32.size_of(), 4);
        assert_eq!(DType::Float64.size_of(), 8);
        assert_eq!(DType::UInt16.size_of(), 2);
    }

    #[test]
    fn promotion_is_commutative() {
        for &a in &ALL_DTYPES {
            for &b in &ALL_DTYPES {
                assert_eq!(DType::promote(a, b), DType::promote(b, a), "{a} {b}");
            }
        }
    }

    #[test]
    fn promotion_is_idempotent() {
        for &a in &ALL_DTYPES {
            assert_eq!(DType::promote(a, a), a);
        }
    }

    #[test]
    fn promotion_absorbs_bool() {
        for &a in &ALL_DTYPES {
            assert_eq!(DType::promote(DType::Bool, a), a);
        }
    }

    #[test]
    fn promotion_examples_match_numpy() {
        use DType::*;
        assert_eq!(DType::promote(Int32, Float32), Float32);
        assert_eq!(DType::promote(Int64, Float32), Float32);
        assert_eq!(DType::promote(Int8, UInt8), Int16);
        assert_eq!(DType::promote(Int32, UInt32), Int64);
        assert_eq!(DType::promote(Int64, UInt64), Float64);
        assert_eq!(DType::promote(UInt8, UInt16), UInt16);
        assert_eq!(DType::promote(Int16, Int64), Int64);
        assert_eq!(DType::promote(UInt64, UInt8), UInt64);
    }

    #[test]
    fn promotion_result_never_narrower() {
        for &a in &ALL_DTYPES {
            for &b in &ALL_DTYPES {
                let p = DType::promote(a, b);
                assert!(p.size_of() >= a.size_of().min(b.size_of()));
            }
        }
    }

    #[test]
    fn parse_round_trips_short_names() {
        for &d in &ALL_DTYPES {
            assert_eq!(d.short_name().parse::<DType>().unwrap(), d);
            assert_eq!(d.bohrium_name().parse::<DType>().unwrap(), d);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("f65".parse::<DType>().is_err());
        assert!("".parse::<DType>().is_err());
        let e = "q".parse::<DType>().unwrap_err();
        assert_eq!(e.to_string(), "unknown dtype `q`");
    }

    #[test]
    fn element_tags_agree() {
        fn tag<T: Element>() -> DType {
            T::DTYPE
        }
        assert_eq!(tag::<f64>(), DType::Float64);
        assert_eq!(tag::<bool>(), DType::Bool);
        assert_eq!(tag::<u16>(), DType::UInt16);
    }

    #[test]
    fn element_conversions() {
        assert_eq!(3.7f64.cast::<i32>(), 3);
        assert!(2.0f64.cast::<bool>());
        assert_eq!(true.to_f64(), 1.0);
        assert_eq!(<f32 as Element>::one().to_f64(), 1.0);
    }

    #[test]
    fn reduce_dtype_widens_bool_only() {
        assert_eq!(DType::Bool.reduce_dtype(), DType::Int64);
        for &d in &ALL_DTYPES {
            if d != DType::Bool {
                assert_eq!(d.reduce_dtype(), d);
            }
        }
    }

    #[test]
    fn classification_predicates() {
        assert!(DType::Float32.is_float());
        assert!(!DType::Int8.is_float());
        assert!(DType::Int8.is_integer() && DType::Int8.is_signed_integer());
        assert!(DType::UInt32.is_integer() && DType::UInt32.is_unsigned_integer());
        assert!(!DType::Bool.is_integer());
    }
}
