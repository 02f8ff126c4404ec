//! Deterministic random tensor generation.
//!
//! Bohrium exposes `BH_RANDOM` backed by Random123 counters; we provide a
//! seeded, reproducible equivalent built on `rand`'s `StdRng`, which is all
//! the experiments need (see DESIGN.md §2 substitutions).

use crate::buffer::Buffer;
use crate::dtype::DType;
use crate::scalar::Scalar;
use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fill choices for [`random_tensor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Uniform floats in `[0, 1)`; integers uniform in `[0, 100)`;
    /// bools fair-coin.
    Uniform,
    /// Uniform floats in `[lo, hi)`; integers uniform in `[lo, hi)`
    /// (bounds cast); bools fair-coin.
    Range(f64, f64),
    /// Values guaranteed non-zero (useful for division denominators):
    /// floats in `[1, 2)`, integers in `[1, 10)`, bools all true.
    NonZero,
}

/// Deterministic random tensor of the given dtype/shape.
///
/// The same `(dtype, shape, seed, dist)` always produces the same tensor.
///
/// # Examples
///
/// ```
/// use bh_tensor::{random_tensor, Distribution, DType, Shape};
/// let a = random_tensor(DType::Float64, Shape::vector(4), 42, Distribution::Uniform);
/// let b = random_tensor(DType::Float64, Shape::vector(4), 42, Distribution::Uniform);
/// assert_eq!(a, b);
/// ```
pub fn random_tensor(dtype: DType, shape: Shape, seed: u64, dist: Distribution) -> Tensor {
    let n = shape.nelem();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buffer = Buffer::zeros(dtype, n);
    for i in 0..n {
        let s = sample(&mut rng, dtype, dist);
        buffer.set_scalar(i, s).expect("index in range");
    }
    Tensor::from_parts(buffer, shape).expect("buffer sized from shape")
}

fn sample(rng: &mut StdRng, dtype: DType, dist: Distribution) -> Scalar {
    match dtype {
        DType::Bool => Scalar::Bool(match dist {
            Distribution::NonZero => true,
            _ => rng.gen_bool(0.5),
        }),
        d if d.is_float() => {
            let v = match dist {
                Distribution::Uniform => rng.gen_range(0.0..1.0),
                Distribution::Range(lo, hi) => rng.gen_range(lo..hi),
                Distribution::NonZero => rng.gen_range(1.0..2.0),
            };
            Scalar::F64(v).cast(d)
        }
        d => {
            let (lo, hi) = match dist {
                Distribution::Uniform => (0i64, 100i64),
                Distribution::Range(lo, hi) => (lo as i64, (hi as i64).max(lo as i64 + 1)),
                Distribution::NonZero => (1i64, 10i64),
            };
            // Clamp to the target type's representable band to avoid
            // wrap-around surprises for small dtypes.
            let cap = match d.size_of() {
                1 => 127,
                2 => 32_000,
                _ => i64::MAX,
            };
            let v = rng.gen_range(lo.max(-cap)..hi.min(cap));
            Scalar::from_i64(v, d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::ALL_DTYPES;

    #[test]
    fn deterministic_per_seed() {
        for &d in &ALL_DTYPES {
            let a = random_tensor(d, Shape::vector(16), 7, Distribution::Uniform);
            let b = random_tensor(d, Shape::vector(16), 7, Distribution::Uniform);
            assert_eq!(a, b, "{d}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_tensor(DType::Float64, Shape::vector(64), 1, Distribution::Uniform);
        let b = random_tensor(DType::Float64, Shape::vector(64), 2, Distribution::Uniform);
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_floats_in_unit_interval() {
        let t = random_tensor(DType::Float32, Shape::vector(256), 3, Distribution::Uniform);
        for v in t.to_f64_vec() {
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn nonzero_has_no_zeros() {
        for &d in &ALL_DTYPES {
            let t = random_tensor(d, Shape::vector(64), 5, Distribution::NonZero);
            for v in t.to_f64_vec() {
                assert_ne!(v, 0.0, "{d}");
            }
        }
    }

    #[test]
    fn range_respected_for_ints() {
        let t = random_tensor(
            DType::Int32,
            Shape::vector(128),
            11,
            Distribution::Range(-5.0, 5.0),
        );
        for v in t.to_f64_vec() {
            assert!((-5.0..5.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn small_dtypes_stay_in_band() {
        let t = random_tensor(DType::Int8, Shape::vector(128), 13, Distribution::Uniform);
        for v in t.to_f64_vec() {
            assert!((0.0..=127.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn shape_preserved() {
        let t = random_tensor(
            DType::Float64,
            Shape::from([3, 4]),
            1,
            Distribution::Uniform,
        );
        assert_eq!(t.shape(), &Shape::from([3, 4]));
    }
}
