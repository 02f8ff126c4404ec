//! The affine algebra of constant links, shared by `constant-merge` and the
//! auditor ([`crate::check_equiv`]).
//!
//! A *link* is an element-wise byte-code with one constant operand. In its
//! dtype, an add, a subtract of or from a constant, a multiply and a float
//! divide by ±2ᵏ (whose reciprocal is exact) are affine maps `v ↦ k·v + b`.
//! A float divide by any other constant stays a divide: it composes with a
//! divide and with a power-of-two scale, never with a shift or another
//! scale. Bool arithmetic is a lattice and stays outside.
//!
//! `constant-merge` folds exactly what [`Affine::then`] composes, and the
//! auditor builds its normal form `k·e + b` (`e` any value that is not
//! affine, a sum of many terms included) with the same calls, so a fold
//! is a step of the proof. A step touches constants, never terms: O(1).
//!
//! ```
//! use bh_ir::affine::Affine;
//! use bh_ir::Opcode;
//! use bh_tensor::{DType, Scalar};
//!
//! let f64 = DType::Float64;
//! let read = |op, c: f64| Affine::read(op, 1, Scalar::F64(c), f64).unwrap();
//! // x / 4 / 3 is x / 12: a power-of-two scale folds into the divide.
//! let both = read(Opcode::Divide, 4.0).then(read(Opcode::Divide, 3.0), f64);
//! assert_eq!(both, Some(Affine::Div(Scalar::F64(12.0))));
//! // (x / 3) + 1 is no one map.
//! assert_eq!(read(Opcode::Divide, 3.0).then(read(Opcode::Add, 1.0), f64), None);
//! ```

use crate::fold::const_eval;
use crate::Opcode;
use bh_tensor::{DType, Scalar};

/// What a link, or a run of links, does to the value it reads. Its
/// constants fold in the link's dtype.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Affine {
    /// `Lin(k, b)` is `v·k + b`. A part is absent when no link wrote it: a
    /// composition keeps a scale by one (`v·1` is an identity only under
    /// reassociation) unless it was two sign flips, as in `c₂ − (c₁ − v)`.
    Lin(Option<Scalar>, Option<Scalar>),
    /// `v / d`, for a finite, non-zero float `d` that is not ±2ᵏ.
    Div(Scalar),
}

use Affine::{Div, Lin};

impl Affine {
    /// Read the link `op` with the constant `c` at input position
    /// `const_pos` (0: `c ⊕ v`, 1: `v ⊕ c`) in `dtype`. `None`: the link is
    /// not affine. `c` may be of another dtype; compositions fold it in
    /// `dtype`, and refuse a non-integral one on integers.
    pub fn read(op: Opcode, const_pos: usize, c: Scalar, dtype: DType) -> Option<Affine> {
        if dtype == DType::Bool {
            return None;
        }
        Some(match (op, const_pos) {
            (Opcode::Add, _) => Lin(None, Some(c)),
            (Opcode::Multiply, _) => Lin(Some(c), None),
            (Opcode::Subtract, 1) => Lin(None, Some(neg(c, dtype)?)),
            (Opcode::Subtract, _) => Lin(Some(Scalar::from_i64(-1, dtype)), Some(c)),
            (Opcode::Divide, 1) => match dyadic_reciprocal(c, dtype) {
                Some(r) => Lin(Some(r), None),
                None => divisor(c.cast(dtype))?,
            },
            _ => return None,
        })
    }

    /// The map `self` then `next`, when the algebra composes them. The
    /// constants fold in the order the VM meets them: `b₁·k₂ + b₂`.
    pub fn then(self, next: Affine, dtype: DType) -> Option<Affine> {
        let mul = |x, y| const_eval(Opcode::Multiply, x, y, dtype);
        match (self, next) {
            (Div(d), Div(e)) => {
                let de = mul(d, e)?;
                Some(dyadic_reciprocal(de, dtype).map_or(Div(de), |r| Lin(Some(r), None)))
            }
            // (v·k)/d and (v/d)·k are v/(d/k) for k = ±2ᵉ; d/k is exact.
            (Lin(Some(k), None), Div(d)) | (Div(d), Lin(Some(k), None)) => {
                divisor(mul(d, dyadic_reciprocal(k, dtype)?)?)
            }
            (Div(_), _) | (_, Div(_)) => None,
            (Lin(k1, b1), Lin(k2, b2)) => {
                let b = match (b1, k2) {
                    (Some(b), Some(k)) => Some(mul(b, k)?),
                    (b, _) => b,
                };
                let b = match (b, b2) {
                    (Some(x), Some(y)) => Some(const_eval(Opcode::Add, x, y, dtype)?),
                    (x, y) => x.or(y),
                };
                let k = match (k1, k2) {
                    (Some(x), Some(y)) if b.is_some() && is_minus_one(x) && is_minus_one(y) => None,
                    (Some(x), Some(y)) => Some(mul(x, y)?),
                    (x, y) => x.or(y),
                };
                Some(Lin(k, b))
            }
        }
    }

    /// `self` then `next` when they do not compose, rebalanced: `self`
    /// keeps the mantissa `m` in [1, 2) of its scale or divisor, and the
    /// sign and power of two `p` move up into `next` —
    /// `(v·k + b)/d = (v·m + b/p)/(d/p)`, `(v/d)·k + b = (v/m)·(k/p) + b`.
    /// Dividing by `p` is exact. So the top map of a value carries all its
    /// signs and powers of two and the maps below keep mantissas, however
    /// a run's links were grouped into folds.
    pub(crate) fn split(self, next: Affine, dtype: DType) -> (Affine, Affine) {
        let p = binade(match self {
            Div(d) => Some(d),
            Lin(k, _) => k,
        });
        let Some(r) = p
            .and_then(|p| dyadic_reciprocal(p, dtype))
            .filter(|r| !r.is_one())
        else {
            return (self, next);
        };
        // Exact: `r` is a power of two.
        let over_p = |c: Scalar| Scalar::F64(c.as_f64() * r.as_f64()).cast(dtype);
        let lower = match self {
            Div(d) => Div(over_p(d)),
            Lin(k, b) => Lin(k.map(over_p), b.map(over_p)),
        };
        let upper = match next {
            Div(d) => Div(over_p(d)),
            Lin(k, b) => Lin(Some(over_p(k.unwrap_or(Scalar::one(dtype)))), b),
        };
        (lower, upper)
    }

    /// The map without a scale by one or a shift by zero, identities under
    /// reassociation. `None`: nothing is left.
    pub(crate) fn trimmed(self) -> Option<Affine> {
        match self {
            Lin(k, b) => {
                let (k, b) = (k.filter(|k| !k.is_one()), b.filter(|b| !b.is_zero()));
                (k.is_some() || b.is_some()).then_some(Lin(k, b))
            }
            m => Some(m),
        }
    }

    /// The map as one link `(op-code, constant position, constant)`, when
    /// it is one. `spelled`: the op-code of the links that composed it,
    /// when they share one — a shift they all wrote as a subtract of a
    /// constant stays one, and so does a scale they all wrote as a divide.
    pub fn link(self, dtype: DType, spelled: Option<Opcode>) -> Option<(Opcode, usize, Scalar)> {
        Some(match self {
            Lin(None, Some(b)) if spelled == Some(Opcode::Subtract) => {
                (Opcode::Subtract, 1, neg(b, dtype)?)
            }
            Lin(None, Some(b)) => (Opcode::Add, 1, b),
            Lin(Some(k), None) => match spelled
                .filter(|&op| op == Opcode::Divide)
                .and_then(|_| dyadic_reciprocal(k, dtype))
            {
                Some(d) => (Opcode::Divide, 1, d),
                None => (Opcode::Multiply, 1, k),
            },
            Lin(Some(k), Some(b)) if is_minus_one(k) => (Opcode::Subtract, 0, b),
            Div(d) => (Opcode::Divide, 1, d),
            Lin(..) => return None,
        })
    }
}

/// `1/c` when `c`, cast into the float `dtype`, is ±2ᵏ with a reciprocal
/// that does not overflow (a normal power of two has an all-zero
/// mantissa). Dividing by `c` is then multiplying by it, bit for bit.
pub fn dyadic_reciprocal(c: Scalar, dtype: DType) -> Option<Scalar> {
    let v = c.cast(dtype).as_f64();
    if !dtype.is_float() || !v.is_normal() || v.to_bits() & MANTISSA != 0 {
        return None;
    }
    let r = Scalar::F64(1.0 / v).cast(dtype);
    r.as_f64().is_finite().then_some(r)
}

/// The f64 mantissa bits.
const MANTISSA: u64 = (1 << 52) - 1;

/// The sign and power of two of a normal float: it times a mantissa in
/// [1, 2).
fn binade(k: Option<Scalar>) -> Option<Scalar> {
    let (dtype, v) = k.map(|k| (k.dtype(), k.as_f64()))?;
    (dtype.is_float() && v.is_normal())
        .then(|| Scalar::F64(f64::from_bits(v.to_bits() & !MANTISSA)).cast(dtype))
}

/// `Div(d)`, when the algebra keeps a divide by `d`.
fn divisor(d: Scalar) -> Option<Affine> {
    let v = d.as_f64();
    let keep = d.dtype().is_float() && v.is_finite() && v != 0.0;
    (keep && dyadic_reciprocal(d, d.dtype()).is_none()).then_some(Div(d))
}

/// Is `k` −1 in its dtype (all ones, for an unsigned one)?
fn is_minus_one(k: Scalar) -> bool {
    k == Scalar::from_i64(-1, k.dtype())
}

/// `−c` in `dtype`: IEEE negation, or wrapping.
fn neg(c: Scalar, dtype: DType) -> Option<Scalar> {
    const_eval(Opcode::Subtract, Scalar::zero(dtype), c, dtype)
}

#[cfg(test)]
mod tests {
    use super::*;

    const F64: DType = DType::Float64;

    fn read(op: Opcode, pos: usize, c: f64) -> Affine {
        Affine::read(op, pos, Scalar::F64(c), F64).unwrap()
    }

    fn lin(k: Option<f64>, b: Option<f64>) -> Affine {
        Lin(k.map(Scalar::F64), b.map(Scalar::F64))
    }

    fn div(d: f64) -> Affine {
        Div(Scalar::F64(d))
    }

    #[test]
    fn links_read_as_scales_shifts_and_divides() {
        assert_eq!(read(Opcode::Subtract, 1, 3.0), lin(None, Some(-3.0)));
        assert_eq!(read(Opcode::Subtract, 0, 3.0), lin(Some(-1.0), Some(3.0)));
        assert_eq!(read(Opcode::Divide, 1, 0.5), lin(Some(2.0), None));
        assert_eq!(read(Opcode::Divide, 1, 3.0), div(3.0));
        assert_eq!(Affine::read(Opcode::Divide, 0, Scalar::F64(3.0), F64), None);
        assert_eq!(Affine::read(Opcode::Divide, 1, Scalar::F64(0.0), F64), None);
        assert_eq!(
            Affine::read(Opcode::Divide, 1, Scalar::I64(4), DType::Int64),
            None
        );
        assert_eq!(
            Affine::read(Opcode::Add, 1, Scalar::Bool(true), DType::Bool),
            None
        );
    }

    #[test]
    fn the_reciprocal_test_is_exact() {
        assert_eq!(
            dyadic_reciprocal(Scalar::F64(-8.0), F64),
            Some(Scalar::F64(-0.125))
        );
        // log₂ of 4·(1 + 2⁻⁵²) rounds to 2, but it is no power of two.
        assert_eq!(dyadic_reciprocal(Scalar::F64(4.000000000000001), F64), None);
        // 2⁻¹⁰⁷⁴ is a power of two whose reciprocal overflows.
        assert_eq!(dyadic_reciprocal(Scalar::F64(f64::from_bits(1)), F64), None);
        assert_eq!(
            dyadic_reciprocal(Scalar::F64(2f64.powi(-140)), DType::Float32),
            None
        );
        assert_eq!(dyadic_reciprocal(Scalar::I64(4), DType::Int64), None);
    }

    #[test]
    fn a_divide_composes_with_divides_and_power_of_two_scales_only() {
        let div3 = read(Opcode::Divide, 1, 3.0);
        let twice = read(Opcode::Multiply, 1, 2.0);
        assert_eq!(div3.then(twice, F64), Some(div(1.5)));
        assert_eq!(twice.then(div3, F64), Some(div(1.5)));
        assert_eq!(div3.then(div3, F64), Some(div(9.0)));
        assert_eq!(div3.then(read(Opcode::Multiply, 1, 3.0), F64), None);
        assert_eq!(div3.then(read(Opcode::Add, 1, 1.0), F64), None);
        assert_eq!(read(Opcode::Add, 1, 1.0).then(div3, F64), None);
        // 3 · (2/3 rounded) is 2: what is left is a power-of-two scale.
        let two_thirds = read(Opcode::Divide, 1, 2.0 / 3.0);
        assert_eq!(div3.then(two_thirds, F64), Some(lin(Some(0.5), None)));
    }

    #[test]
    fn affine_maps_compose_in_order() {
        // ((v + 1)·2 + 3) is v·2 + 5.
        let m = read(Opcode::Add, 1, 1.0)
            .then(read(Opcode::Multiply, 1, 2.0), F64)
            .and_then(|m| m.then(read(Opcode::Add, 1, 3.0), F64));
        assert_eq!(m, Some(lin(Some(2.0), Some(5.0))));
        // 20 − (10 − v) is v + 10: one link.
        let m = read(Opcode::Subtract, 0, 10.0)
            .then(read(Opcode::Subtract, 0, 20.0), F64)
            .unwrap();
        assert_eq!(m, lin(None, Some(10.0)));
        assert_eq!(m.link(F64, None), Some((Opcode::Add, 1, Scalar::F64(10.0))));
        // A scale by one stays a link; trimmed, it is gone.
        let m = read(Opcode::Multiply, 1, 1.0).then(read(Opcode::Add, 1, 2.0), F64);
        assert_eq!(m, Some(lin(Some(1.0), Some(2.0))));
        assert_eq!(m.unwrap().link(F64, None), None);
        assert_eq!(m.unwrap().trimmed(), Some(lin(None, Some(2.0))));
    }

    #[test]
    fn a_sign_and_power_of_two_move_up_past_a_divide() {
        let div3 = read(Opcode::Divide, 1, 3.0);
        // (2v + 2)/3 is (v + 1)/1.5.
        let (lower, upper) = lin(Some(2.0), Some(2.0)).split(div3, F64);
        assert_eq!((lower, upper), (lin(Some(1.0), Some(1.0)), div(1.5)));
        // (−6v)/7 is (1.5v)/(−1.75).
        let (lower, upper) = lin(Some(-6.0), None).split(read(Opcode::Divide, 1, 7.0), F64);
        assert_eq!((lower, upper), (lin(Some(1.5), None), div(-1.75)));
        // (v/3) + 4 is (v/1.5)·0.5 + 4.
        let (lower, upper) = div3.split(read(Opcode::Add, 1, 4.0), F64);
        assert_eq!((lower, upper), (div(1.5), lin(Some(0.5), Some(4.0))));
        // A shift and a mantissa have nothing to move.
        let shift = read(Opcode::Add, 1, 1.0);
        assert_eq!(shift.split(div3, F64), (shift, div3));
        assert_eq!(div(1.5).split(shift, F64), (div(1.5), shift));
    }

    #[test]
    fn links_keep_the_spelling_they_share() {
        let shift = lin(None, Some(-5.0));
        assert_eq!(
            shift.link(F64, Some(Opcode::Subtract)),
            Some((Opcode::Subtract, 1, Scalar::F64(5.0)))
        );
        assert_eq!(
            shift.link(F64, None),
            Some((Opcode::Add, 1, Scalar::F64(-5.0)))
        );
        let quarter = lin(Some(0.25), None);
        assert_eq!(
            quarter.link(F64, Some(Opcode::Divide)),
            Some((Opcode::Divide, 1, Scalar::F64(4.0)))
        );
        assert_eq!(
            lin(Some(-1.0), Some(3.0)).link(F64, None),
            Some((Opcode::Subtract, 0, Scalar::F64(3.0)))
        );
        assert_eq!(lin(Some(2.0), Some(1.0)).link(F64, None), None);
    }
}
