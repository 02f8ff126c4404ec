//! LU factorisation with partial pivoting.
//!
//! The paper's Eq. 2 observes that solving `Ax = B` through an explicit
//! inverse is wasteful and that "one could do a LU-factorization of the
//! same problem, which would usually be faster to compute" — this module is
//! that faster path. Flop accounting follows Golub & Van Loan: `PA = LU`
//! costs ~2n³/3 flops, each triangular pair-solve ~2n².
//!
//! The factorisation is blocked and right-looking, shaped like LAPACK's
//! `getrf`: a panel of [`PANEL`] columns is eliminated with partial
//! pivoting, the panel's rows of `U` right of it are updated, and the
//! trailing block is updated by a register tile of [`TILE_ROWS`] ×
//! [`TILE_COLS`] accumulators over the panel's `k`, sharded by rows over a
//! [`RangeExecutor`]. In every phase an element starts from its stored
//! value and applies `x -= l·u` for `k` in ascending order, the multiply
//! and the subtraction rounded separately (Rust never contracts them into
//! an FMA): the rounding sequence of the textbook triple loop. So the
//! factors, the permutation, the swap count and a singular column are
//! bit-identical to the textbook loop's at every thread count.

use crate::error::LinalgError;
use crate::util::{as_f64_matrix, square_dim};
use bh_tensor::kernels::{InlineExec, RangeExecutor, ShardSlice};
use bh_tensor::{Shape, Tensor};
use std::fmt;

/// A packed `PA = LU` factorisation.
///
/// `L` (unit lower-triangular) and `U` (upper-triangular) share one `n × n`
/// store; `perm` maps factored row index → original row index.
///
/// # Examples
///
/// ```
/// use bh_linalg::LuFactorization;
/// use bh_tensor::{Shape, Tensor};
///
/// let a = Tensor::from_shape_vec(Shape::matrix(2, 2), vec![4.0f64, 3.0, 6.0, 3.0])?;
/// let lu = LuFactorization::factorize(&a)?;
/// let x = lu.solve_vec(&Tensor::from_vec(vec![10.0f64, 12.0]))?;
/// assert!((x.to_f64_vec()[0] - 1.0).abs() < 1e-12);
/// assert!((x.to_f64_vec()[1] - 2.0).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LuFactorization {
    n: usize,
    /// Row-major packed L\U (diagonal belongs to U; L's diagonal is
    /// implicitly 1).
    packed: Vec<f64>,
    /// `perm[i]` = original row stored at factored row `i`.
    perm: Vec<usize>,
    /// Number of row swaps performed (sign of the permutation).
    swaps: usize,
}

/// Pivot threshold: pivots with absolute value at or below this are treated
/// as exact zeros and reported as singularity.
const PIVOT_EPS: f64 = 1e-300;

/// Columns per panel.
const PANEL: usize = 16;
/// Rows of the trailing update's register tile; also the shard grain.
const TILE_ROWS: usize = 2;
/// Columns of the trailing update's register tile.
const TILE_COLS: usize = 8;

/// Where a factorisation's trailing updates run: an executor, and the
/// multiply-add count (`rows × cols × panel`) from which one update is
/// sharded over it. It counts the shards it ran.
///
/// # Examples
///
/// ```
/// use bh_linalg::{solve_lu_on, Sharding};
/// use bh_tensor::kernels::InlineExec;
/// use bh_tensor::{DType, Shape, Tensor};
///
/// let mut par = Sharding::new(&InlineExec, 1);
/// let b = Tensor::ones(DType::Float64, Shape::vector(40));
/// let x = solve_lu_on(&Tensor::eye(DType::Float64, 40), &b, &mut par)?;
/// assert_eq!(x, b);
/// assert_eq!(par.shards(), 0); // one thread never shards
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Sharding<'a> {
    exec: &'a dyn RangeExecutor,
    min_madds: usize,
    shards: usize,
}

impl<'a> Sharding<'a> {
    /// Shard an update over `exec` once it has at least `min_madds`
    /// multiply-adds.
    pub fn new(exec: &'a dyn RangeExecutor, min_madds: usize) -> Sharding<'a> {
        Sharding {
            exec,
            min_madds,
            shards: 0,
        }
    }

    /// Every update on the calling thread.
    pub(crate) fn serial() -> Sharding<'static> {
        Sharding::new(&InlineExec, usize::MAX)
    }

    /// Shards run by updates that ran on more than one, summed.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl fmt::Debug for Sharding<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sharding")
            .field("threads", &self.exec.threads())
            .field("min_madds", &self.min_madds)
            .field("shards", &self.shards)
            .finish()
    }
}

impl LuFactorization {
    /// Factor a square float matrix with partial (row) pivoting, on the
    /// calling thread.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for non-square input.
    /// * [`LinalgError::UnsupportedDType`] for non-float input.
    /// * [`LinalgError::Singular`] when a pivot vanishes.
    pub fn factorize(a: &Tensor) -> Result<LuFactorization, LinalgError> {
        LuFactorization::factorize_on(a, &mut Sharding::serial())
    }

    /// [`LuFactorization::factorize`] with the trailing updates sharded
    /// as `par` says. The result does not depend on `par`.
    pub(crate) fn factorize_on(
        a: &Tensor,
        par: &mut Sharding,
    ) -> Result<LuFactorization, LinalgError> {
        let n = square_dim(a)?;
        let mut packed = as_f64_matrix(a)?;
        let (perm, swaps) = factor_in_place(&mut packed, n, par)?;
        Ok(LuFactorization {
            n,
            packed,
            perm,
            swaps,
        })
    }

    /// Matrix dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The row permutation (factored row → original row).
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Determinant of the original matrix: `(-1)^swaps · ∏ diag(U)`.
    pub fn det(&self) -> f64 {
        let mut d = if self.swaps % 2 == 0 { 1.0 } else { -1.0 };
        for k in 0..self.n {
            d *= self.packed[k * self.n + k];
        }
        d
    }

    /// Solve `Ax = b` for one right-hand side.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] when `b` is not an `n`-vector, or
    /// [`LinalgError::UnsupportedDType`] for non-float `b`.
    pub fn solve_vec(&self, b: &Tensor) -> Result<Tensor, LinalgError> {
        if b.shape().rank() != 1 || b.shape().dim(0) != self.n {
            return Err(LinalgError::DimensionMismatch {
                constraint: format!("rhs must be a {}-vector, found {}", self.n, b.shape()),
            });
        }
        let x = self.substitute(crate::util::as_f64_vec(b)?, 1);
        Ok(Tensor::from_vec(x))
    }

    /// Solve `AX = B` for an `n × k` right-hand side.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] when `B` has the wrong row count,
    /// or [`LinalgError::UnsupportedDType`] for non-float `B`.
    pub fn solve_mat(&self, b: &Tensor) -> Result<Tensor, LinalgError> {
        if b.shape().rank() != 2 || b.shape().dim(0) != self.n {
            return Err(LinalgError::DimensionMismatch {
                constraint: format!("rhs must have {} rows, found {}", self.n, b.shape()),
            });
        }
        let k = b.shape().dim(1);
        let x = self.substitute(as_f64_matrix(b)?, k);
        Tensor::from_shape_vec(Shape::matrix(self.n, k), x).map_err(|_| {
            LinalgError::DimensionMismatch {
                constraint: "internal shape bookkeeping".into(),
            }
        })
    }

    /// Forward and back substitution of the row-major `n × k` right-hand
    /// side `b`, all `k` columns a row at a time: `Y[i,:] -= L[i,j]·Y[j,:]`
    /// for `j` ascending, then `X[i,:] -= U[i,j]·X[j,:]` for `j` ascending
    /// and `X[i,:] /= U[i,i]`, by the trailing update's register tiles.
    /// Each element sees the subtractions of a column-by-column solve in
    /// the same order.
    fn substitute(&self, b: Vec<f64>, k: usize) -> Vec<f64> {
        let n = self.n;
        if k == 0 {
            return b;
        }
        // Y = P B
        let mut y = Vec::with_capacity(n * k);
        for &p in &self.perm {
            y.extend_from_slice(&b[p * k..(p + 1) * k]);
        }
        drop(b);
        // Y = L⁻¹ Y
        for i in 1..n {
            let (done, rest) = y.split_at_mut(i * k);
            update_rows(
                [&self.packed[i * n..i * n + i]],
                [&mut rest[..k]],
                done,
                k,
                0,
            );
        }
        // X = U⁻¹ Y
        for i in (0..n).rev() {
            let (head, solved) = y.split_at_mut((i + 1) * k);
            let xi = &mut head[i * k..];
            let row = &self.packed[i * n..(i + 1) * n];
            update_rows([&row[i + 1..]], [&mut *xi], solved, k, 0);
            for x in xi {
                *x /= row[i];
            }
        }
        y
    }

    /// Reconstruct the unit-lower-triangular factor `L` (testing helper).
    pub fn l_matrix(&self) -> Tensor {
        let n = self.n;
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                l[i * n + j] = match i.cmp(&j) {
                    std::cmp::Ordering::Greater => self.packed[i * n + j],
                    std::cmp::Ordering::Equal => 1.0,
                    std::cmp::Ordering::Less => 0.0,
                };
            }
        }
        Tensor::from_shape_vec(Shape::matrix(n, n), l).expect("sized n*n")
    }

    /// Reconstruct the upper-triangular factor `U` (testing helper).
    pub fn u_matrix(&self) -> Tensor {
        let n = self.n;
        let mut u = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                u[i * n + j] = self.packed[i * n + j];
            }
        }
        Tensor::from_shape_vec(Shape::matrix(n, n), u).expect("sized n*n")
    }

    /// Flops of the factorisation itself (`~2n³/3`).
    pub fn factorization_flops(n: usize) -> u64 {
        (2 * n as u64 * n as u64 * n as u64) / 3
    }

    /// Flops of one pair of triangular solves (`~2n²`).
    pub fn solve_flops(n: usize) -> u64 {
        2 * (n as u64) * (n as u64)
    }
}

/// Factor the row-major `n × n` matrix `a` in place into packed L\U;
/// returns the permutation and the swap count. The one factorisation
/// routine, behind every entry point and the VM.
fn factor_in_place(
    a: &mut [f64],
    n: usize,
    par: &mut Sharding,
) -> Result<(Vec<usize>, usize), LinalgError> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut swaps = 0usize;
    for j0 in (0..n).step_by(PANEL) {
        let j1 = (j0 + PANEL).min(n);
        for k in j0..j1 {
            // Partial pivot: largest |value| in column k at/below the
            // diagonal. Rows swap whole, so every element keeps its row's
            // pending updates.
            let mut pivot_row = k;
            let mut pivot_val = a[k * n + k].abs();
            for r in k + 1..n {
                let v = a[r * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= PIVOT_EPS {
                return Err(LinalgError::Singular { column: k });
            }
            if pivot_row != k {
                let (upper, lower) = a.split_at_mut(pivot_row * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                perm.swap(k, pivot_row);
                swaps += 1;
            }
            // Eliminate below the pivot, inside the panel only.
            let (upper, lower) = a.split_at_mut((k + 1) * n);
            let pivot_row = &upper[k * n..];
            let pivot = pivot_row[k];
            for row in lower.chunks_exact_mut(n) {
                let factor = row[k] / pivot;
                row[k] = factor; // store L entry
                for (x, &u) in row[k + 1..j1].iter_mut().zip(&pivot_row[k + 1..j1]) {
                    *x -= factor * u;
                }
            }
        }
        if j1 == n {
            break;
        }
        // U₁₂: the panel's rows right of the panel, L₁₁ unit-lower.
        for k in j0..j1 {
            let (upper, lower) = a.split_at_mut((k + 1) * n);
            let u = &upper[k * n + j1..];
            for row in lower[..(j1 - k - 1) * n].chunks_exact_mut(n) {
                let l = row[k];
                for (x, &v) in row[j1..].iter_mut().zip(u) {
                    *x -= l * v;
                }
            }
        }
        // The trailing block: rows and columns from j1 on.
        let (head, tail) = a.split_at_mut(j1 * n);
        let u = &head[j0 * n..];
        let rows = n - j1;
        let madds = rows * (n - j1) * (j1 - j0);
        if par.exec.threads() > 1 && madds >= par.min_madds {
            let tail = ShardSlice::new(tail);
            let task = |lo: usize, hi: usize| {
                // SAFETY: the executor hands each call a disjoint
                // `[lo, hi)` within `[0, rows)`, so each call's rows alias
                // no other call's, and `u` lies before `tail` in `a`.
                unsafe {
                    tail.with_claim(lo * n, hi * n, |block| update_trailing(block, u, n, j0, j1))
                }
            };
            let shards = par.exec.run_ranges(rows, TILE_ROWS, &task);
            if shards > 1 {
                par.shards += shards;
            }
        } else {
            update_trailing(tail, u, n, j0, j1);
        }
    }
    Ok((perm, swaps))
}

/// `x -= l·u` for the panel's `k` in order, on the whole rows in `block`
/// (each `n` long) from column `j1` on: `l` is the row's entry in panel
/// column `k`, `u` the `U₁₂` entry in row `k` (`u` holds the panel's rows,
/// from row `j0`). Register tiles of [`TILE_ROWS`] (two) × [`TILE_COLS`].
fn update_trailing(block: &mut [f64], u: &[f64], n: usize, j0: usize, j1: usize) {
    let mut pairs = block.chunks_exact_mut(TILE_ROWS * n);
    for pair in &mut pairs {
        let (r0, r1) = pair.split_at_mut(n);
        let (l0, x0) = r0.split_at_mut(j1);
        let (l1, x1) = r1.split_at_mut(j1);
        update_rows([&l0[j0..], &l1[j0..]], [x0, x1], u, n, j1);
    }
    if let Some(row) = pairs.into_remainder().chunks_exact_mut(n).next() {
        let (l0, x0) = row.split_at_mut(j1);
        update_rows([&l0[j0..]], [x0], u, n, j1);
    }
}

/// `x[i][c] -= l[i][k] · u[k][col0 + c]` over the rows `k` of `u` (each
/// `stride` long) in order, for `R` rows `x[i]` at once: tiles of
/// [`TILE_COLS`] columns, then single columns.
#[inline(always)]
fn update_rows<const R: usize>(
    l: [&[f64]; R],
    mut x: [&mut [f64]; R],
    u: &[f64],
    stride: usize,
    col0: usize,
) {
    let cols = x[0].len();
    let mut c = 0;
    while c + TILE_COLS <= cols {
        tile::<R, TILE_COLS>(&l, &mut x, u, stride, col0 + c, c);
        c += TILE_COLS;
    }
    for c in c..cols {
        tile::<R, 1>(&l, &mut x, u, stride, col0 + c, c);
    }
}

/// One `R × C` tile: `x[i][c..c + C]` held in locals while every row of
/// `u` (from column `uc`) is subtracted, scaled by `l[i][k]`.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    l: &[&[f64]; R],
    x: &mut [&mut [f64]; R],
    u: &[f64],
    stride: usize,
    uc: usize,
    c: usize,
) {
    let mut acc = [[0.0f64; C]; R];
    for (a, xi) in acc.iter_mut().zip(x.iter()) {
        a.copy_from_slice(&xi[c..c + C]);
    }
    for (k, urow) in u.chunks_exact(stride).enumerate() {
        let uk: &[f64; C] = urow[uc..uc + C].try_into().expect("C columns");
        for (a, li) in acc.iter_mut().zip(l) {
            let lik = li[k];
            for (v, &w) in a.iter_mut().zip(uk) {
                *v -= lik * w;
            }
        }
    }
    for (a, xi) in acc.iter().zip(x.iter_mut()) {
        xi[c..c + C].copy_from_slice(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul;
    use bh_tensor::kernels::shard_ranges;
    use bh_tensor::{random_tensor, DType, Distribution};

    /// The unblocked textbook elimination, the oracle the blocked
    /// routine must match bit for bit: packed L\U, permutation, swaps.
    fn textbook(mut a: Vec<f64>, n: usize) -> Result<(Vec<f64>, Vec<usize>, usize), LinalgError> {
        let mut perm: Vec<usize> = (0..n).collect();
        let mut swaps = 0usize;
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_val = a[k * n + k].abs();
            for r in k + 1..n {
                let v = a[r * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= PIVOT_EPS {
                return Err(LinalgError::Singular { column: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    a.swap(k * n + c, pivot_row * n + c);
                }
                perm.swap(k, pivot_row);
                swaps += 1;
            }
            let pivot = a[k * n + k];
            for r in k + 1..n {
                let factor = a[r * n + k] / pivot;
                a[r * n + k] = factor;
                for c in k + 1..n {
                    a[r * n + c] -= factor * a[k * n + c];
                }
            }
        }
        Ok((a, perm, swaps))
    }

    /// One forward + back substitution of a single column, the textbook
    /// way: the oracle for the row-wise [`LuFactorization::substitute`].
    fn column_solve(lu: &LuFactorization, b: &[f64]) -> Vec<f64> {
        let n = lu.n;
        let mut y = vec![0.0f64; n];
        for i in 0..n {
            let mut s = b[lu.perm[i]];
            for (j, &yj) in y.iter().enumerate().take(i) {
                s -= lu.packed[i * n + j] * yj;
            }
            y[i] = s;
        }
        let mut x = vec![0.0f64; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                s -= lu.packed[i * n + j] * xj;
            }
            x[i] = s / lu.packed[i * n + i];
        }
        x
    }

    /// One scoped OS thread per shard: shards really run concurrently.
    struct ScopedExec(usize);

    impl RangeExecutor for ScopedExec {
        fn threads(&self) -> usize {
            self.0
        }

        fn run_ranges(
            &self,
            n: usize,
            grain: usize,
            task: &(dyn Fn(usize, usize) + Sync),
        ) -> usize {
            let ranges = shard_ranges(n, self.0, grain);
            std::thread::scope(|scope| {
                for &(lo, hi) in &ranges {
                    scope.spawn(move || task(lo, hi));
                }
            });
            ranges.len()
        }
    }

    /// Uniform values in `[-1, 1)` from a splitmix64 stream.
    fn uniform(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    }

    /// Diagonally boosted, pivot-heavy (rows grow downwards, so most
    /// columns pivot), and singular matrices: a zero column in the
    /// middle, and a repeated row.
    fn oracle_matrices(n: usize) -> Vec<(&'static str, Vec<f64>)> {
        let mut boosted = uniform(n * n, n as u64);
        for i in 0..n {
            boosted[i * n + i] += n as f64;
        }
        let mut pivot_heavy = uniform(n * n, 1000 + n as u64);
        for (i, row) in pivot_heavy.chunks_exact_mut(n).enumerate() {
            for v in row {
                *v *= (i + 1) as f64;
            }
        }
        let mut zero_column = boosted.clone();
        for row in zero_column.chunks_exact_mut(n) {
            row[n / 2] = 0.0;
        }
        let mut repeated_row = uniform(n * n, 2000 + n as u64);
        let first = repeated_row[..n].to_vec();
        repeated_row[(n - 1) * n..].copy_from_slice(&first);
        vec![
            ("boosted", boosted),
            ("pivot-heavy", pivot_heavy),
            ("zero column", zero_column),
            ("repeated row", repeated_row),
        ]
    }

    /// Factor every oracle matrix of size `n` on each executor, sharding
    /// every update it can, and hold it to the textbook loop bit for
    /// bit. Returns the shards run on each executor.
    fn assert_matches_textbook(n: usize, execs: &[&dyn RangeExecutor]) -> Vec<usize> {
        let mut shards = vec![0; execs.len()];
        for (kind, data) in oracle_matrices(n) {
            let want = textbook(data.clone(), n);
            let a = mat(n, data);
            for (exec, shards) in execs.iter().zip(&mut shards) {
                let mut par = Sharding::new(*exec, 0);
                let got = LuFactorization::factorize_on(&a, &mut par);
                *shards += par.shards();
                let ctx = format!("n = {n}, {kind}, {} threads", exec.threads());
                match (&want, got) {
                    (Ok((packed, perm, swaps)), Ok(lu)) => {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert!(bits(&lu.packed) == bits(packed), "{ctx}: L\\U differs");
                        assert_eq!(&lu.perm, perm, "{ctx}");
                        assert_eq!(lu.swaps, *swaps, "{ctx}");
                    }
                    (Err(want), Err(got)) => assert_eq!(&got, want, "{ctx}"),
                    (want, got) => panic!("{ctx}: textbook {want:?}, blocked {got:?}"),
                }
            }
        }
        shards
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn blocked_factorisation_is_bit_identical_to_the_textbook_loop() {
        for n in [1usize, 2, 3, 15, 16, 17, 31, 33, 64, 100, 257] {
            let shards = assert_matches_textbook(n, &[&InlineExec, &ScopedExec(2), &ScopedExec(4)]);
            assert_eq!(shards[0], 0, "n = {n}: one thread never shards");
            // A trailing block of ≥ 2 rows exists once n > PANEL + 1.
            for s in &shards[1..] {
                assert_eq!(*s > 0, n > PANEL + 1, "n = {n}");
            }
        }
    }

    #[test]
    fn sharded_factorisation_matches_the_textbook_loop_at_miri_size() {
        assert!(assert_matches_textbook(33, &[&ScopedExec(2)])[0] > 0);
    }

    #[test]
    fn oracle_matrices_pivot_and_hit_singular_columns() {
        let n = 33;
        let m = oracle_matrices(n);
        let (_, _, swaps) = textbook(m[1].1.clone(), n).unwrap();
        assert!(
            swaps > n / 2,
            "pivot-heavy matrix swapped only {swaps} times"
        );
        assert_eq!(
            textbook(m[2].1.clone(), n).unwrap_err(),
            LinalgError::Singular { column: n / 2 }
        );
        assert!(textbook(m[3].1.clone(), n).is_err());
    }

    #[test]
    fn shards_only_from_the_threshold_on() {
        let n = 64;
        let a = random_spd_ish(n, 5);
        // The first trailing update has (n − 16)² · 16 multiply-adds.
        let first = (n - PANEL) * (n - PANEL) * PANEL;
        let mut par = Sharding::new(&ScopedExec(2), first + 1);
        LuFactorization::factorize_on(&a, &mut par).unwrap();
        assert_eq!(par.shards(), 0);
        let mut par = Sharding::new(&ScopedExec(2), first);
        LuFactorization::factorize_on(&a, &mut par).unwrap();
        assert_eq!(par.shards(), 2, "only the first update shards");
    }

    /// The row-wise substitution against one textbook column solve per
    /// right-hand side, bit for bit, on boosted and pivot-heavy systems.
    #[test]
    fn solve_mat_matches_columnwise() {
        for (n, k) in [(1usize, 1usize), (6, 3), (17, 5), (40, 40)] {
            let matrices = oracle_matrices(n);
            for (kind, data) in &matrices[..2] {
                let lu = LuFactorization::factorize(&mat(n, data.clone())).unwrap();
                let b = uniform(n * k, 7 + n as u64);
                let x = lu
                    .solve_mat(&Tensor::from_shape_vec(Shape::matrix(n, k), b.clone()).unwrap())
                    .unwrap()
                    .to_f64_vec();
                for j in 0..k {
                    let col: Vec<f64> = (0..n).map(|i| b[i * k + j]).collect();
                    let want = column_solve(&lu, &col);
                    let vec = lu.solve_vec(&Tensor::from_vec(col)).unwrap().to_f64_vec();
                    for i in 0..n {
                        let ctx = format!("n = {n}, k = {k}, {kind}, x[{i}, {j}]");
                        assert_eq!(x[i * k + j].to_bits(), want[i].to_bits(), "{ctx}");
                        assert_eq!(vec[i].to_bits(), want[i].to_bits(), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn an_empty_right_hand_side_solves_to_empty() {
        let lu = LuFactorization::factorize(&Tensor::eye(DType::Float64, 3)).unwrap();
        let x = lu
            .solve_mat(&Tensor::zeros(DType::Float64, Shape::matrix(3, 0)))
            .unwrap();
        assert_eq!(x.shape(), &Shape::matrix(3, 0));
    }

    fn mat(n: usize, data: Vec<f64>) -> Tensor {
        Tensor::from_shape_vec(Shape::matrix(n, n), data).unwrap()
    }

    fn random_spd_ish(n: usize, seed: u64) -> Tensor {
        // Random + n·I: comfortably non-singular.
        let mut t = random_tensor(
            DType::Float64,
            Shape::matrix(n, n),
            seed,
            Distribution::Uniform,
        );
        for i in 0..n {
            let v = t.get(&[i, i]).unwrap().as_f64();
            t.set(&[i, i], bh_tensor::Scalar::F64(v + n as f64))
                .unwrap();
        }
        t
    }

    #[test]
    fn pa_equals_lu() {
        let a = random_spd_ish(8, 3);
        let lu = LuFactorization::factorize(&a).unwrap();
        let l = lu.l_matrix();
        let u = lu.u_matrix();
        let prod = matmul(&l, &u).unwrap();
        // PA: apply the permutation to A's rows.
        let n = lu.dim();
        let pa = Tensor::from_fn(Shape::matrix(n, n), |idx| {
            a.get(&[lu.permutation()[idx[0]], idx[1]]).unwrap().as_f64()
        });
        assert!(prod.allclose(&pa, 1e-10), "PA != LU");
    }

    #[test]
    fn solves_known_system() {
        // [[2,1],[1,3]] x = [3,5] -> x = [0.8, 1.4]
        let a = mat(2, vec![2.0, 1.0, 1.0, 3.0]);
        let lu = LuFactorization::factorize(&a).unwrap();
        let x = lu.solve_vec(&Tensor::from_vec(vec![3.0f64, 5.0])).unwrap();
        assert!(x.allclose(&Tensor::from_vec(vec![0.8f64, 1.4]), 1e-12));
    }

    #[test]
    fn solve_residual_small_random() {
        for seed in 0..5u64 {
            let n = 16;
            let a = random_spd_ish(n, seed);
            let b = random_tensor(
                DType::Float64,
                Shape::vector(n),
                seed + 100,
                Distribution::Uniform,
            );
            let lu = LuFactorization::factorize(&a).unwrap();
            let x = lu.solve_vec(&b).unwrap();
            // residual r = Ax - b
            let ax = matmul(&a, &x).unwrap();
            let r = ax.zip::<f64>(&b, |p, q| p - q).unwrap();
            let rn = r.to_f64_vec().iter().map(|v| v * v).sum::<f64>().sqrt();
            let bn = b.to_f64_vec().iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(rn / bn < 1e-10, "relative residual {}", rn / bn);
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // a11 = 0 forces a swap; without pivoting this would divide by zero.
        let a = mat(2, vec![0.0, 1.0, 1.0, 0.0]);
        let lu = LuFactorization::factorize(&a).unwrap();
        let x = lu.solve_vec(&Tensor::from_vec(vec![2.0f64, 3.0])).unwrap();
        assert!(x.allclose(&Tensor::from_vec(vec![3.0f64, 2.0]), 1e-12));
        assert_eq!(lu.permutation(), &[1, 0]);
    }

    #[test]
    fn determinant() {
        let a = mat(2, vec![3.0, 8.0, 4.0, 6.0]);
        let lu = LuFactorization::factorize(&a).unwrap();
        assert!((lu.det() - (-14.0)).abs() < 1e-12);
        // Identity has det 1.
        let i = Tensor::eye(DType::Float64, 5);
        assert!((LuFactorization::factorize(&i).unwrap().det() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = mat(2, vec![1.0, 2.0, 2.0, 4.0]);
        match LuFactorization::factorize(&a) {
            Err(LinalgError::Singular { column }) => assert_eq!(column, 1),
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = Tensor::zeros(DType::Float64, Shape::from([2, 3]));
        assert!(matches!(
            LuFactorization::factorize(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn int_dtype_rejected() {
        let a = Tensor::eye(DType::Int32, 3);
        assert!(matches!(
            LuFactorization::factorize(&a),
            Err(LinalgError::UnsupportedDType { .. })
        ));
    }

    #[test]
    fn f32_input_accepted_via_cast() {
        let a = Tensor::eye(DType::Float32, 3);
        let lu = LuFactorization::factorize(&a).unwrap();
        assert!((lu.det() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rhs_dimension_checked() {
        let a = Tensor::eye(DType::Float64, 3);
        let lu = LuFactorization::factorize(&a).unwrap();
        assert!(lu.solve_vec(&Tensor::from_vec(vec![1.0f64, 2.0])).is_err());
        assert!(lu
            .solve_mat(&Tensor::zeros(DType::Float64, Shape::matrix(2, 2)))
            .is_err());
    }

    #[test]
    fn flop_model_orders() {
        // Factorisation dominates a single solve for any n >= 4.
        for n in [4usize, 16, 64] {
            assert!(
                LuFactorization::factorization_flops(n) > LuFactorization::solve_flops(n),
                "n={n}"
            );
        }
    }
}
