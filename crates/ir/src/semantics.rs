//! What each op-code computes: the one map from an op-code to its element
//! function, and the constant folder built on it.
//!
//! The per-element semantics themselves are the methods of
//! [`bh_tensor::Element`]; this module decides which one an op-code
//! means. [`elementwise`] and [`fold`] match an op-code once and hand its
//! element function to a loop — a [`Kernel`] or a [`Fold`] — as a
//! function *item* (or capture-free closure), never a pointer, so every
//! loop monomorphises over its op and inlines it. The VM's compiled steps,
//! its strided interpreter, its reductions and scans and its fused
//! reductions are such loops, and so is [`crate::const_eval`], which
//! applies the function to two constants. Binary arithmetic, same-dtype unary
//! op-codes, comparisons with predicates, bitwise and logical op-codes,
//! float-only op-codes and folds each have one match, and each family is
//! instantiated only for the dtypes its type rule admits.
//!
//! Because the folder and the machine share the function, the constant
//! merge of Listing 3 (`1 + 1 + 1 = 3`) is evaluated at transformation
//! time exactly as the VM would evaluate it, wrapping u8 addition and
//! f32 rounding included.

use crate::{Opcode, TypeRule};
use bh_tensor::{with_dtype, DType, Element};

/// An element-wise loop, handed its op's element function: one method
/// per arity, `I` the operating and `O` the output element type.
pub trait Kernel {
    /// What the loop returns.
    type Out;
    /// Loop `out = f(a)`.
    fn map1<I: Element, O: Element>(
        self,
        f: impl Fn(I) -> O + Copy + Send + Sync + 'static,
    ) -> Self::Out;
    /// Loop `out = f(a, b)`.
    fn map2<I: Element, O: Element>(
        self,
        f: impl Fn(I, I) -> O + Copy + Send + Sync + 'static,
    ) -> Self::Out;
}

/// [`with_dtype!`] over the dtypes a bitwise or logical op-code admits:
/// bool and the integers.
macro_rules! with_bits_dtype {
    ($dtype:expr, $T:ident, $body:expr) => {
        with_bits_dtype!($dtype, $T, $body; Bool bool, UInt8 u8, UInt16 u16,
            UInt32 u32, UInt64 u64, Int8 i8, Int16 i16, Int32 i32, Int64 i64)
    };
    ($dtype:expr, $T:ident, $body:expr; $($d:ident $t:ty),*) => {
        match $dtype {
            $(DType::$d => {
                type $T = $t;
                $body
            })*
            other => unreachable!("bitwise op on {other}: the verifier admits integers and bool"),
        }
    };
}

/// Hand element-wise `op`'s function over operating dtype `in_dtype`,
/// writing `out_dtype`, to `k`.
///
/// Each op family is instantiated only for the dtypes its type rule
/// admits: a float-only op-code for f32 and f64, a bitwise or logical one
/// for bool and the integers. The verifier rejects every other pairing
/// (V300), so those arms are unreachable for a verified program.
pub fn elementwise<K: Kernel>(op: Opcode, in_dtype: DType, out_dtype: DType, k: K) -> K::Out {
    match op.type_rule() {
        TypeRule::CompareLike => with_dtype!(in_dtype, T, compare::<T, K>(op, k)),
        TypeRule::FloatOnly => match in_dtype {
            DType::Float32 => float::<f32, K>(op, k),
            DType::Float64 => float::<f64, K>(op, k),
            other => unreachable!("{op} on {other}: the verifier admits floats only"),
        },
        TypeRule::IntLike | TypeRule::BoolOnly => {
            with_bits_dtype!(in_dtype, T, bitwise::<T, K>(op, k))
        }
        TypeRule::Cast if in_dtype != out_dtype => {
            with_dtype!(in_dtype, I, with_dtype!(out_dtype, O, k.map1(I::cast::<O>)))
        }
        _ if op.arity() == 2 => with_dtype!(in_dtype, T, binary::<T, K>(op, k)),
        _ => with_dtype!(in_dtype, T, unary::<T, K>(op, k)),
    }
}

/// Binary arithmetic: `T × T → T`.
fn binary<T: Element, K: Kernel>(op: Opcode, k: K) -> K::Out {
    match op {
        Opcode::Add => k.map2(T::bh_add),
        Opcode::Subtract => k.map2(T::bh_sub),
        Opcode::Multiply => k.map2(T::bh_mul),
        Opcode::Divide => k.map2(T::bh_div),
        Opcode::Power => k.map2(T::bh_pow),
        Opcode::Mod => k.map2(T::bh_mod),
        Opcode::Maximum => k.map2(T::bh_max),
        Opcode::Minimum => k.map2(T::bh_min),
        other => unreachable!("{other} is not a binary arithmetic op"),
    }
}

/// Same-dtype unary op-codes that every dtype admits: `T → T`.
fn unary<T: Element, K: Kernel>(op: Opcode, k: K) -> K::Out {
    match op {
        Opcode::Identity => k.map1(|x: T| x),
        Opcode::Absolute => k.map1(T::bh_abs),
        Opcode::Sign => k.map1(T::bh_sign),
        other => unreachable!("{other} is not a same-dtype unary op"),
    }
}

/// Bitwise and logical op-codes, over bool and the integers.
fn bitwise<T: Element, K: Kernel>(op: Opcode, k: K) -> K::Out {
    match op {
        Opcode::BitwiseAnd | Opcode::LogicalAnd => k.map2(T::bh_and),
        Opcode::BitwiseOr | Opcode::LogicalOr => k.map2(T::bh_or),
        Opcode::BitwiseXor | Opcode::LogicalXor => k.map2(T::bh_xor),
        Opcode::LeftShift => k.map2(T::bh_shl),
        Opcode::RightShift => k.map2(T::bh_shr),
        Opcode::Invert | Opcode::LogicalNot => k.map1(T::bh_not),
        other => unreachable!("{other} is not a bitwise or logical op"),
    }
}

/// Float-only op-codes, over f32 and f64: each computes in f64.
fn float<T: Element, K: Kernel>(op: Opcode, k: K) -> K::Out {
    macro_rules! f64_map1 {
        ($f:expr) => {
            k.map1(|x: T| x.float_unary($f))
        };
    }
    match op {
        Opcode::Arctan2 => k.map2(|a: T, b: T| a.to_f64().atan2(b.to_f64()).cast::<T>()),
        Opcode::Sqrt => f64_map1!(f64::sqrt),
        Opcode::Exp => f64_map1!(f64::exp),
        Opcode::Exp2 => f64_map1!(f64::exp2),
        Opcode::Expm1 => f64_map1!(f64::exp_m1),
        Opcode::Log => f64_map1!(f64::ln),
        Opcode::Log2 => f64_map1!(f64::log2),
        Opcode::Log10 => f64_map1!(f64::log10),
        Opcode::Log1p => f64_map1!(f64::ln_1p),
        Opcode::Sin => f64_map1!(f64::sin),
        Opcode::Cos => f64_map1!(f64::cos),
        Opcode::Tan => f64_map1!(f64::tan),
        Opcode::Sinh => f64_map1!(f64::sinh),
        Opcode::Cosh => f64_map1!(f64::cosh),
        Opcode::Tanh => f64_map1!(f64::tanh),
        Opcode::Arcsin => f64_map1!(f64::asin),
        Opcode::Arccos => f64_map1!(f64::acos),
        Opcode::Arctan => f64_map1!(f64::atan),
        Opcode::Arcsinh => f64_map1!(f64::asinh),
        Opcode::Arccosh => f64_map1!(f64::acosh),
        Opcode::Arctanh => f64_map1!(f64::atanh),
        Opcode::Ceil => f64_map1!(f64::ceil),
        Opcode::Floor => f64_map1!(f64::floor),
        Opcode::Trunc => f64_map1!(f64::trunc),
        Opcode::Rint => f64_map1!(rint),
        other => unreachable!("{other} is not a float-only op"),
    }
}

/// `BH_RINT`: round half to even, matching IEEE.
fn rint(v: f64) -> f64 {
    let r = v.round();
    if (v - v.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
        r - v.signum()
    } else {
        r
    }
}

/// Comparisons (`T × T → bool`) and predicates (`T → bool`).
fn compare<T: Element, K: Kernel>(op: Opcode, k: K) -> K::Out {
    match op {
        Opcode::Greater => k.map2(|a: T, b: T| a > b),
        Opcode::GreaterEqual => k.map2(|a: T, b: T| a >= b),
        Opcode::Less => k.map2(|a: T, b: T| a < b),
        Opcode::LessEqual => k.map2(|a: T, b: T| a <= b),
        Opcode::Equal => k.map2(|a: T, b: T| a == b),
        Opcode::NotEqual => k.map2(|a: T, b: T| a != b),
        Opcode::IsNan => k.map1(|a: T| a.to_f64().is_nan()),
        Opcode::IsInf => k.map1(|a: T| a.to_f64().is_infinite()),
        other => unreachable!("{other} is not a comparison or predicate"),
    }
}

/// A reduction or scan loop, handed its fold's identity and function.
pub trait Fold {
    /// What the loop returns.
    type Out;
    /// Fold with `f`, starting from `init`.
    fn fold<T: Element>(self, init: T, f: impl Fn(T, T) -> T + Sync) -> Self::Out;
}

/// Hand fold op-code `op`'s identity and function over `dtype` to `k`.
/// The identity is the value folding starts from in every engine, serial
/// or sharded (`f(init, x) == x` for all `x` the fold can produce, which
/// is what makes the blocked combine in
/// `bh_tensor::kernels::par_reduce_lane` exact on short lanes).
pub fn fold<K: Fold>(op: Opcode, dtype: DType, k: K) -> K::Out {
    with_dtype!(dtype, T, {
        match op {
            Opcode::Add => k.fold(T::zero(), T::bh_add),
            Opcode::Multiply => k.fold(T::one(), T::bh_mul),
            Opcode::Maximum => k.fold(T::lowest(), T::bh_max),
            Opcode::Minimum => k.fold(T::highest(), T::bh_min),
            other => unreachable!("{other} is not a fold op"),
        }
    })
}
