//! Strided element-wise and reduction kernels.
//!
//! These are the loops a Bohrium backend would JIT-compile. They operate on
//! typed slices plus [`ViewGeom`] geometry so the same code path serves
//! contiguous arrays, strided slices, reversed views and broadcast (stride-0)
//! operands. The one element-wise kernel here, [`fill`], is serial;
//! `bh-vm`'s interpreter walks views with [`zip_offsets`] itself, since it
//! also reads the output's own buffer in place. The reduction and scan
//! kernels shard
//! over a [`RangeExecutor`]: a scan by whole lanes only, each lane one
//! sequential running fold; a reduction by lanes, or by [`REDUCE_BLOCK`]-sized
//! canonical blocks when it has a single lane.
//!
//! The reduction kernels keep several independent accumulators in flight
//! without changing any result: a shard folds a run of canonical blocks
//! in lockstep, one accumulator per block ([`fold_blocks`]), and a chunk
//! of adjacent lanes a row slice at a time, one accumulator per lane.
//! Each block and each lane is still its own left fold in index order,
//! so the expression tree is the one [`REDUCE_BLOCK`] defines. The lane
//! loops check a lane's bounds once, by its two ends, and then index
//! unchecked.

use crate::eltops::Element;
use crate::view::ViewGeom;

pub use crate::shard::{ShardRoot, ShardSlice};

/// A data-parallel range executor: the substrate the parallel reduction
/// and scan kernels ([`par_reduce_axis`], [`par_scan_axis`]) shard their
/// lanes (and a single reduction lane's canonical blocks) over.
///
/// `bh-vm`'s persistent worker pool implements this trait; [`InlineExec`]
/// is the trivial serial implementation. Keeping the trait here (below the
/// VM in the crate stack) lets the kernels stay executor-agnostic.
pub trait RangeExecutor: Sync {
    /// Number of workers that can run shards concurrently (including the
    /// calling thread). `1` means every shard runs inline on the caller.
    fn threads(&self) -> usize;

    /// Partition `[0, n)` into contiguous shards whose boundaries are
    /// multiples of `grain` (so a grain-sized block is never split across
    /// shards) and run `task(lo, hi)` once per shard, possibly
    /// concurrently. Blocks until every shard has completed, even when
    /// one panics: the panic reaches the caller only then. Returns the
    /// number of shards executed.
    ///
    /// # Safety contract for callers
    ///
    /// `task` may be invoked from multiple threads at once, but always
    /// with pairwise-disjoint `[lo, hi)` ranges covering `[0, n)` exactly.
    /// A task writes memory other shards can see only through a
    /// [`ShardSlice`], which states the soundness argument once.
    fn run_ranges(&self, n: usize, grain: usize, task: &(dyn Fn(usize, usize) + Sync)) -> usize;
}

/// The serial [`RangeExecutor`]: one shard, run inline on the caller.
#[derive(Debug, Clone, Copy, Default)]
pub struct InlineExec;

impl RangeExecutor for InlineExec {
    fn threads(&self) -> usize {
        1
    }

    fn run_ranges(&self, n: usize, _grain: usize, task: &(dyn Fn(usize, usize) + Sync)) -> usize {
        if n == 0 {
            return 0;
        }
        task(0, n);
        1
    }
}

/// Split `[0, n)` into at most `shards` contiguous ranges whose interior
/// boundaries are multiples of `grain` (the fused engine's cache-block
/// size), balanced to within one grain of each other. The last range
/// absorbs the tail. Returns an empty vector when `n == 0`.
pub fn shard_ranges(n: usize, shards: usize, grain: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let grain = grain.max(1);
    let blocks = n.div_ceil(grain);
    let shards = shards.clamp(1, blocks);
    let per = blocks / shards;
    let extra = blocks % shards;
    let mut out = Vec::with_capacity(shards);
    let mut lo_block = 0usize;
    for s in 0..shards {
        let take = per + usize::from(s < extra);
        let hi_block = lo_block + take;
        out.push(((lo_block * grain).min(n), (hi_block * grain).min(n)));
        lo_block = hi_block;
    }
    out
}

/// Iterate `N` same-shaped views in lock-step, invoking `f` with the base
/// element offsets of each view.
///
/// # Panics
///
/// Panics (debug builds) if the views disagree on shape.
pub fn zip_offsets<const N: usize>(views: [&ViewGeom; N], mut f: impl FnMut([usize; N])) {
    let shape = views[0].shape();
    debug_assert!(
        views.iter().all(|v| v.shape() == shape),
        "zip_offsets requires identical logical shapes"
    );
    let nelem = shape.nelem();
    if nelem == 0 {
        return;
    }
    let rank = shape.rank();
    let mut offs = [0isize; N];
    for (k, v) in views.iter().enumerate() {
        offs[k] = v.offset() as isize;
    }
    if rank == 0 {
        let mut out = [0usize; N];
        for k in 0..N {
            out[k] = offs[k] as usize;
        }
        f(out);
        return;
    }
    let inner_len = shape.dim(rank - 1);
    let mut inner_strides = [0isize; N];
    for (k, v) in views.iter().enumerate() {
        inner_strides[k] = v.dims()[rank - 1].stride;
    }
    let outer_count = nelem.checked_div(inner_len).unwrap_or(0);
    let mut idx = vec![0usize; rank.saturating_sub(1)];
    for _ in 0..outer_count {
        let mut cur = offs;
        for _ in 0..inner_len {
            let mut out = [0usize; N];
            for k in 0..N {
                out[k] = cur[k] as usize;
            }
            f(out);
            for k in 0..N {
                cur[k] += inner_strides[k];
            }
        }
        // Odometer over the outer axes.
        for ax in (0..rank - 1).rev() {
            idx[ax] += 1;
            for (k, v) in views.iter().enumerate() {
                offs[k] += v.dims()[ax].stride;
            }
            if idx[ax] < shape.dim(ax) {
                break;
            }
            idx[ax] = 0;
            for (k, v) in views.iter().enumerate() {
                offs[k] -= shape.dim(ax) as isize * v.dims()[ax].stride;
            }
        }
    }
}

/// Set every element of `out`'s view to `value`.
pub fn fill<T: Element>(out: &mut [T], ov: &ViewGeom, value: T) {
    if ov.is_contiguous() {
        let start = ov.offset();
        let end = start + ov.nelem();
        assert!(end <= out.len(), "view escapes buffer");
        out[start..end].fill(value);
        return;
    }
    let len = out.len();
    zip_offsets([ov], |[o]| {
        assert!(o < len, "view escapes buffer");
        out[o] = value;
    });
}

/// Reduce `input` along `axis` into `out`.
///
/// `out`'s view must have the input's shape with `axis` removed.
///
/// # Panics
///
/// Panics if `axis >= rank` or the output shape does not match.
pub fn reduce_axis<T: Element>(
    out: &mut [T],
    ov: &ViewGeom,
    input: &[T],
    iv: &ViewGeom,
    axis: usize,
    init: T,
    f: impl Fn(T, T) -> T,
) {
    assert!(axis < iv.rank(), "reduction axis out of range");
    let axis_len = iv.dims()[axis].len;
    let axis_stride = iv.dims()[axis].stride;
    let reduced = remove_axis(iv, axis);
    assert_eq!(
        ov.shape(),
        reduced.shape(),
        "output shape must drop the reduced axis"
    );
    let (olen, ilen) = (out.len(), input.len());
    zip_offsets([ov, &reduced], |[o, base]| {
        let mut acc = init;
        let mut off = base as isize;
        for _ in 0..axis_len {
            let i = off as usize;
            assert!(i < ilen, "view escapes buffer");
            acc = f(acc, input[i]);
            off += axis_stride;
        }
        assert!(o < olen, "view escapes buffer");
        out[o] = acc;
    });
}

/// Prefix-scan `input` along `axis` into `out` (same shape).
///
/// `out[.., k, ..] = f(input[.., 0, ..], …, input[.., k, ..])`, matching
/// `BH_ADD_ACCUMULATE` / NumPy `cumsum` semantics.
///
/// # Panics
///
/// Panics if shapes disagree or `axis` is out of range.
pub fn accumulate_axis<T: Element>(
    out: &mut [T],
    ov: &ViewGeom,
    input: &[T],
    iv: &ViewGeom,
    axis: usize,
    f: impl Fn(T, T) -> T,
) {
    assert!(axis < iv.rank(), "accumulate axis out of range");
    assert_eq!(ov.shape(), iv.shape(), "accumulate preserves shape");
    let axis_len = iv.dims()[axis].len;
    let in_stride = iv.dims()[axis].stride;
    let out_stride = ov.dims()[axis].stride;
    let in_lanes = remove_axis(iv, axis);
    let out_lanes = remove_axis(ov, axis);
    let (olen, ilen) = (out.len(), input.len());
    zip_offsets([&out_lanes, &in_lanes], |[obase, ibase]| {
        let mut acc: Option<T> = None;
        let mut ioff = ibase as isize;
        let mut ooff = obase as isize;
        for _ in 0..axis_len {
            let i = ioff as usize;
            let o = ooff as usize;
            assert!(i < ilen && o < olen, "view escapes buffer");
            let v = input[i];
            let next = match acc {
                None => v,
                Some(a) => f(a, v),
            };
            out[o] = next;
            acc = Some(next);
            ioff += in_stride;
            ooff += out_stride;
        }
    });
}

/// Canonical partial-block length (elements) for parallel reductions.
///
/// Lanes longer than one block are folded as a sequence of independent
/// block partials — each block left-folded from the identity in index
/// order — combined **left-to-right in block order**. The block length is
/// a fixed constant (never derived from thread count, executor or engine
/// configuration), so the combine tree is identical for every thread
/// count: results are bit-for-bit reproducible from 1 to N workers.
/// Lanes of at most one block degenerate to the plain serial left fold,
/// so short reductions keep their historical bit patterns.
pub const REDUCE_BLOCK: usize = 4096;

/// Canonical blocks a shard folds side by side, one accumulator each:
/// independent dependency chains hide the fold's latency. 8 blocks of
/// f64 are 256 KiB, which stays in L2.
const LOCKSTEP_BLOCKS: usize = 8;

/// Adjacent lanes an axis reduction folds side by side: one contiguous
/// row slice per step into a row of accumulators, a loop the compiler
/// vectorises.
const LOCKSTEP_LANES: usize = 32;

/// Assert that every element `base + k * stride`, `k ∈ [0, len)`, of a
/// lane lies inside a buffer of `buf_len` elements. The offsets are
/// monotone in `k`, so the lane's two ends bound it; the lane loops
/// then index unchecked.
///
/// # Panics
///
/// Panics with "view escapes buffer" when an element lies outside.
fn assert_lane_in(buf_len: usize, base: usize, len: usize, stride: isize) {
    if len == 0 {
        return;
    }
    let last = (len as isize - 1)
        .checked_mul(stride)
        .and_then(|d| (base as isize).checked_add(d));
    let inside = |i: isize| (0..buf_len as isize).contains(&i);
    assert!(
        inside(base as isize) && last.is_some_and(inside),
        "view escapes buffer"
    );
}

/// Fold the canonical blocks of lane elements `[lo, hi)`: `at(k)` reads
/// lane element `k`, and `put(b, p)` receives block `b`'s partial. `lo`
/// is a multiple of [`REDUCE_BLOCK`] and `hi` either one too or the lane
/// end, so the blocks are canonical whatever the sharding.
///
/// Runs of whole blocks advance in lockstep, one accumulator per block;
/// every block is still its own left fold from `init` in index order, so
/// the partials are exactly the one-block-at-a-time fold's.
/// `prepare(a, b)` runs before the blocks in `[a, b)` are folded: a fused
/// chain writes the lane there, and the fold reads it while it is cached.
pub fn fold_blocks<T: Copy>(
    lo: usize,
    hi: usize,
    init: T,
    f: impl Fn(T, T) -> T,
    mut prepare: impl FnMut(usize, usize),
    at: impl Fn(usize) -> T,
    mut put: impl FnMut(usize, T),
) {
    const RUN: usize = LOCKSTEP_BLOCKS * REDUCE_BLOCK;
    let mut a = lo;
    while a < hi {
        let b = (a + RUN).min(hi);
        prepare(a, b);
        if b - a == RUN {
            let mut acc = [init; LOCKSTEP_BLOCKS];
            for k in a..a + REDUCE_BLOCK {
                for (w, p) in acc.iter_mut().enumerate() {
                    *p = f(*p, at(k + w * REDUCE_BLOCK));
                }
            }
            for (w, p) in acc.into_iter().enumerate() {
                put(a / REDUCE_BLOCK + w, p);
            }
        } else {
            let mut blo = a;
            while blo < b {
                let bhi = (blo + REDUCE_BLOCK).min(b);
                put(
                    blo / REDUCE_BLOCK,
                    (blo..bhi).fold(init, |p, k| f(p, at(k))),
                );
                blo = bhi;
            }
        }
        a = b;
    }
}

/// Deterministic blocked fold of one lane: the `len` elements at
/// `base + k * stride` for `k ∈ [0, len)`.
///
/// Splits the lane into [`REDUCE_BLOCK`]-sized blocks, left-folds each
/// block from `init`, and combines the block partials left-to-right in
/// block order starting from `init` — see [`REDUCE_BLOCK`] for why this
/// makes the result executor-independent. Block partials may be computed
/// concurrently on `exec`, each shard folding its blocks in lockstep
/// ([`fold_blocks`]). Returns `(value, shards)` where `shards` is the
/// number of ranges dispatched (1 when the lane ran inline).
///
/// # Panics
///
/// Panics when any addressed element escapes `input`.
pub fn par_reduce_lane<T: Element>(
    exec: &dyn RangeExecutor,
    input: &[T],
    base: usize,
    len: usize,
    stride: isize,
    init: T,
    f: impl Fn(T, T) -> T + Sync,
) -> (T, usize) {
    if len == 0 {
        return (init, 0);
    }
    assert_lane_in(input.len(), base, len, stride);
    let nblocks = len.div_ceil(REDUCE_BLOCK);
    let mut partials = vec![init; nblocks];
    let shared = ShardSlice::new(&mut partials);
    let put = |b: usize, p: T| {
        // SAFETY: block `b` lies in this shard's range, and `b < nblocks`.
        unsafe { shared.write(b, p) }
    };
    let shards = exec.run_ranges(len, REDUCE_BLOCK, &|lo, hi| {
        // `lo` is a multiple of REDUCE_BLOCK (grain contract), so the
        // blocks inside [lo, hi) are exactly the canonical blocks
        // lo/REDUCE_BLOCK .. — independent of how ranges were sharded.
        let at = |k: usize| {
            let i = (base as isize + k as isize * stride) as usize;
            // SAFETY: `k < len`, and the lane was checked to lie inside
            // `input` by its two ends.
            unsafe { *input.get_unchecked(i) }
        };
        fold_blocks(lo, hi, init, &f, |_, _| {}, at, put);
    });
    let mut acc = init;
    for p in partials {
        acc = f(acc, p);
    }
    (acc, shards)
}

/// Parallel [`reduce_axis`]: reduce `input` along `axis` into `out`,
/// sharded over `exec`, with executor-independent results.
///
/// Multi-lane reductions (output has ≥ 2 elements) shard whole lanes —
/// each lane is the plain serial left fold, so results match the serial
/// kernel exactly. Runs of adjacent lanes (consecutive bases, as in an
/// outer-axis reduction of a row-major base) fold in lockstep, a row
/// slice per step. A single-lane reduction (e.g. a full 1-D sum) shards
/// *within* the lane via [`par_reduce_lane`]'s canonical blocked combine.
/// Returns the number of ranges dispatched.
///
/// # Panics
///
/// Panics if `axis >= rank`, the output shape does not match, or a view
/// escapes its buffer.
#[allow(clippy::too_many_arguments)]
pub fn par_reduce_axis<T: Element>(
    exec: &dyn RangeExecutor,
    out: &mut [T],
    ov: &ViewGeom,
    input: &[T],
    iv: &ViewGeom,
    axis: usize,
    init: T,
    f: impl Fn(T, T) -> T + Sync,
) -> usize {
    assert!(axis < iv.rank(), "reduction axis out of range");
    let axis_len = iv.dims()[axis].len;
    let stride = iv.dims()[axis].stride;
    let reduced = remove_axis(iv, axis);
    assert_eq!(
        ov.shape(),
        reduced.shape(),
        "output shape must drop the reduced axis"
    );
    let mut lanes: Vec<(usize, usize)> = Vec::with_capacity(reduced.nelem());
    zip_offsets([ov, &reduced], |[o, base]| lanes.push((o, base)));
    let (olen, ilen) = (out.len(), input.len());
    if let [(o, base)] = lanes[..] {
        let (value, shards) = par_reduce_lane(exec, input, base, axis_len, stride, init, f);
        assert!(o < olen, "view escapes buffer");
        out[o] = value;
        return shards;
    }
    let out = ShardSlice::new(out);
    let put = |o: usize, acc: T| {
        assert!(o < olen, "view escapes buffer");
        // SAFETY: bounds asserted; output offsets are unique per lane and
        // this shard's lanes are its own.
        unsafe { out.write(o, acc) };
    };
    exec.run_ranges(lanes.len(), 1, &|lo, hi| {
        for chunk in lanes[lo..hi].chunks(LOCKSTEP_LANES) {
            let b0 = chunk[0].1;
            let adjacent = chunk.len() == LOCKSTEP_LANES
                && chunk.iter().enumerate().all(|(w, &(_, b))| b == b0 + w);
            if adjacent {
                // The chunk's corners are its first and last lanes' ends.
                assert_lane_in(ilen, b0, axis_len, stride);
                assert_lane_in(ilen, b0 + LOCKSTEP_LANES - 1, axis_len, stride);
                let mut acc = [init; LOCKSTEP_LANES];
                let mut row = b0 as isize;
                for _ in 0..axis_len {
                    // SAFETY: `row + w` is element `k` of lane `w` of the
                    // chunk, inside `input` by the corner checks above.
                    let slice =
                        unsafe { input.get_unchecked(row as usize..row as usize + LOCKSTEP_LANES) };
                    for (p, &x) in acc.iter_mut().zip(slice) {
                        *p = f(*p, x);
                    }
                    row += stride;
                }
                for (&(o, _), p) in chunk.iter().zip(acc) {
                    put(o, p);
                }
            } else {
                for &(o, base) in chunk {
                    assert_lane_in(ilen, base, axis_len, stride);
                    let mut acc = init;
                    let mut off = base as isize;
                    for _ in 0..axis_len {
                        // SAFETY: the lane was checked by its two ends.
                        acc = f(acc, unsafe { *input.get_unchecked(off as usize) });
                        off += stride;
                    }
                    put(o, acc);
                }
            }
        }
    })
}

/// Parallel [`accumulate_axis`]: prefix-scan `input` along `axis` into
/// `out`, sharded over `exec`.
///
/// Every lane is the sequential running fold of its elements, seeded with
/// the first one, so results match the serial kernel exactly at every
/// length and thread count. Whole lanes shard across `exec`; a lane is
/// never split, so a single-lane scan runs inline. Returns the number of
/// ranges dispatched.
///
/// # Panics
///
/// Panics if shapes disagree, `axis` is out of range, or a view escapes
/// its buffer.
pub fn par_scan_axis<T: Element>(
    exec: &dyn RangeExecutor,
    out: &mut [T],
    ov: &ViewGeom,
    input: &[T],
    iv: &ViewGeom,
    axis: usize,
    f: impl Fn(T, T) -> T + Sync,
) -> usize {
    assert!(axis < iv.rank(), "accumulate axis out of range");
    assert_eq!(ov.shape(), iv.shape(), "accumulate preserves shape");
    let axis_len = iv.dims()[axis].len;
    if axis_len == 0 {
        return 0;
    }
    let in_stride = iv.dims()[axis].stride;
    let out_stride = ov.dims()[axis].stride;
    let in_lanes = remove_axis(iv, axis);
    let out_lanes = remove_axis(ov, axis);
    let mut lanes: Vec<(usize, usize)> = Vec::with_capacity(in_lanes.nelem());
    zip_offsets([&out_lanes, &in_lanes], |[o, i]| lanes.push((o, i)));
    let (olen, ilen) = (out.len(), input.len());
    let out = ShardSlice::new(out);
    exec.run_ranges(lanes.len(), 1, &|lo, hi| {
        for &(obase, ibase) in &lanes[lo..hi] {
            assert_lane_in(ilen, ibase, axis_len, in_stride);
            assert_lane_in(olen, obase, axis_len, out_stride);
            let (mut ioff, mut ooff) = (ibase as isize, obase as isize);
            // SAFETY: both lanes were checked by their two ends; lanes
            // write pairwise-disjoint elements, and this shard's lanes are
            // its own.
            unsafe {
                let mut acc = *input.get_unchecked(ioff as usize);
                out.write(ooff as usize, acc);
                for _ in 1..axis_len {
                    ioff += in_stride;
                    ooff += out_stride;
                    acc = f(acc, *input.get_unchecked(ioff as usize));
                    out.write(ooff as usize, acc);
                }
            }
        }
    })
}

/// Gather all view elements into a fresh contiguous vector (logical order).
pub fn materialize<T: Element>(input: &[T], iv: &ViewGeom) -> Vec<T> {
    let mut out = Vec::with_capacity(iv.nelem());
    let len = input.len();
    zip_offsets([iv], |[i]| {
        assert!(i < len, "view escapes buffer");
        out.push(input[i]);
    });
    out
}

/// View with `axis` deleted, keeping offset and the other strides: the
/// geometry of the "lanes" perpendicular to `axis`.
fn remove_axis(v: &ViewGeom, axis: usize) -> ViewGeom {
    let mut dims = v.dims().to_vec();
    dims.remove(axis);
    ViewGeom::from_parts(v.offset(), dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;
    use crate::view::Slice;

    fn vg(shape: &[usize]) -> ViewGeom {
        ViewGeom::contiguous(&Shape::from(shape))
    }

    #[test]
    fn fill_contiguous_and_strided() {
        let mut buf = vec![0.0f64; 10];
        fill(&mut buf, &vg(&[10]), 1.0);
        assert!(buf.iter().all(|&x| x == 1.0));
        let stride2 =
            ViewGeom::from_slices(&Shape::vector(10), &[Slice::new(None, None, 2)]).unwrap();
        fill(&mut buf, &stride2, 5.0);
        assert_eq!(buf, vec![5.0, 1.0, 5.0, 1.0, 5.0, 1.0, 5.0, 1.0, 5.0, 1.0]);
    }

    #[test]
    fn reduce_axis_rows_and_cols() {
        // 2x3 matrix [[1,2,3],[4,5,6]]
        let input = vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0];
        let iv = vg(&[2, 3]);
        // axis 0 -> [5,7,9]
        let mut out = vec![0.0f64; 3];
        reduce_axis(&mut out, &vg(&[3]), &input, &iv, 0, 0.0, |a, x| a + x);
        assert_eq!(out, vec![5.0, 7.0, 9.0]);
        // axis 1 -> [6,15]
        let mut out = vec![0.0f64; 2];
        reduce_axis(&mut out, &vg(&[2]), &input, &iv, 1, 0.0, |a, x| a + x);
        assert_eq!(out, vec![6.0, 15.0]);
    }

    #[test]
    fn reduce_axis_max() {
        let input = vec![3i64, 1, 4, 1, 5, 9];
        let iv = vg(&[2, 3]);
        let mut out = vec![i64::MIN; 2];
        reduce_axis(&mut out, &vg(&[2]), &input, &iv, 1, i64::MIN, |a, x| {
            a.max(x)
        });
        assert_eq!(out, vec![4, 9]);
    }

    #[test]
    fn accumulate_cumsum() {
        let input = vec![1.0f64, 2.0, 3.0, 4.0];
        let mut out = vec![0.0f64; 4];
        accumulate_axis(&mut out, &vg(&[4]), &input, &vg(&[4]), 0, |a, x| a + x);
        assert_eq!(out, vec![1.0, 3.0, 6.0, 10.0]);
    }

    #[test]
    fn accumulate_axis1_of_matrix() {
        let input = vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = vec![0.0f64; 6];
        accumulate_axis(&mut out, &vg(&[2, 3]), &input, &vg(&[2, 3]), 1, |a, x| {
            a * x
        });
        assert_eq!(out, vec![1.0, 2.0, 6.0, 4.0, 20.0, 120.0]);
    }

    #[test]
    fn materialize_reversed() {
        let input = vec![1i32, 2, 3, 4];
        let v = ViewGeom::from_slices(&Shape::vector(4), &[Slice::new(None, None, -1)]).unwrap();
        assert_eq!(materialize(&input, &v), vec![4, 3, 2, 1]);
    }

    #[test]
    fn zip_offsets_rank0() {
        let v = ViewGeom::scalar_at(3);
        let mut seen = Vec::new();
        zip_offsets([&v], |[o]| seen.push(o));
        assert_eq!(seen, vec![3]);
    }

    #[test]
    fn zip_offsets_matches_offsets_iter() {
        let base = Shape::from([3, 4]);
        let v =
            ViewGeom::from_slices(&base, &[Slice::new(None, None, 2), Slice::range(1, 4)]).unwrap();
        let mut a = Vec::new();
        zip_offsets([&v], |[o]| a.push(o));
        let b: Vec<_> = v.offsets().collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "view escapes buffer")]
    fn oob_view_panics() {
        let mut buf = vec![0.0f64; 3];
        fill(&mut buf, &vg(&[5]), 1.0); // view larger than buffer
    }

    /// Test executor: one OS thread per shard, scoped. Exercises the
    /// actually-concurrent contract of the par kernels without depending
    /// on bh-vm's pool (which lives above this crate).
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

    #[test]
    fn shard_ranges_cover_and_align() {
        // 100 elements, 4 shards, grain 7: boundaries are multiples of 7.
        let r = shard_ranges(100, 4, 7);
        assert_eq!(r.first().unwrap().0, 0);
        assert_eq!(r.last().unwrap().1, 100);
        for w in r.windows(2) {
            assert_eq!(w[0].1, w[1].0, "ranges must be adjacent");
            assert_eq!(w[0].1 % 7, 0, "interior boundary must not split a block");
        }
        // Never more shards than blocks.
        assert_eq!(shard_ranges(10, 8, 4).len(), 3);
        assert!(shard_ranges(0, 4, 4).is_empty());
        // Degenerate grain is clamped.
        assert_eq!(shard_ranges(5, 2, 0), vec![(0, 3), (3, 5)]);
    }

    /// Canonical reference for the blocked lane fold, written naively.
    fn blocked_fold_ref(vals: &[f64]) -> f64 {
        let mut acc = 0.0;
        for block in vals.chunks(REDUCE_BLOCK) {
            let mut p = 0.0;
            for &v in block {
                p += v;
            }
            acc += p;
        }
        acc
    }

    #[test]
    fn par_reduce_lane_is_executor_independent() {
        // Lengths straddling block boundaries, incl. non-powers-of-two.
        for n in [1usize, 7, 4095, 4096, 4097, 10_000, 13_001] {
            let vals: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let (serial, s1) = par_reduce_lane(&InlineExec, &vals, 0, n, 1, 0.0, |a, b| a + b);
            assert_eq!(s1, 1);
            for threads in [2usize, 3, 4] {
                let (par, _) =
                    par_reduce_lane(&ScopedExec(threads), &vals, 0, n, 1, 0.0, |a, b| a + b);
                assert_eq!(
                    par.to_bits(),
                    serial.to_bits(),
                    "n={n} threads={threads}: combine order must be fixed"
                );
            }
            assert_eq!(serial.to_bits(), blocked_fold_ref(&vals).to_bits());
        }
    }

    #[test]
    fn a_run_of_lockstep_blocks_is_the_blocked_fold() {
        // One whole run of lockstep blocks and a one-element tail block,
        // forwards and reversed: small enough for the nightly miri job
        // to walk every element of a lockstep run.
        let n = LOCKSTEP_BLOCKS * REDUCE_BLOCK + 1;
        let vals: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let rev: Vec<f64> = vals.iter().rev().copied().collect();
        for (base, stride, order) in [(0, 1, &vals), (n - 1, -1, &rev)] {
            let want = blocked_fold_ref(order).to_bits();
            for exec in [&InlineExec as &dyn RangeExecutor, &ScopedExec(2)] {
                let (got, _) = par_reduce_lane(exec, &vals, base, n, stride, 0.0, |a, b| a + b);
                assert_eq!(got.to_bits(), want, "stride {stride}");
            }
        }
    }

    #[test]
    fn par_reduce_axis_matches_serial_kernel_at_lockstep_chunk_edges() {
        // Outer-axis sums of `rows × lanes` bases: the lanes are adjacent,
        // so whole chunks of LOCKSTEP_LANES fold a row at a time and the
        // rest lane by lane.
        let rows = 5;
        for lanes in [LOCKSTEP_LANES - 1, LOCKSTEP_LANES, LOCKSTEP_LANES + 1] {
            let input: Vec<f64> = (0..rows * lanes).map(|i| (i as f64 * 0.7).cos()).collect();
            let iv = vg(&[rows, lanes]);
            let mut want = vec![0.0f64; lanes];
            reduce_axis(&mut want, &vg(&[lanes]), &input, &iv, 0, 0.0, |a, b| a + b);
            for threads in [1usize, 2, 3] {
                let mut got = vec![0.0f64; lanes];
                par_reduce_axis(
                    &ScopedExec(threads),
                    &mut got,
                    &vg(&[lanes]),
                    &input,
                    &iv,
                    0,
                    0.0,
                    |a, b| a + b,
                );
                let same = got
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "lanes={lanes} threads={threads}");
            }
        }
    }

    #[test]
    fn few_long_lanes_shard_one_lane_apiece() {
        // Four lanes of 1000: fewer than a lockstep chunk, yet each lane
        // is its own shard.
        let (lanes, len) = (4, 1000);
        let input: Vec<f64> = (0..lanes * len).map(|i| i as f64).collect();
        let mut got = vec![0.0f64; lanes];
        let shards = par_reduce_axis(
            &ScopedExec(4),
            &mut got,
            &vg(&[lanes]),
            &input,
            &vg(&[lanes, len]),
            1,
            0.0,
            |a, b| a + b,
        );
        assert_eq!(shards, 4);
        let want: Vec<f64> = input.chunks(len).map(|l| l.iter().sum()).collect();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "view escapes buffer")]
    fn a_lane_past_its_buffer_panics_before_it_folds() {
        // Elements 3, 5, …, 11 of a 10-element buffer.
        let vals = vec![1.0f64; 10];
        par_reduce_lane(&InlineExec, &vals, 3, 5, 2, 0.0, |a, b| a + b);
    }

    #[test]
    #[should_panic(expected = "view escapes buffer")]
    fn a_lane_before_its_buffer_panics_before_it_folds() {
        // Elements 2, 1, 0, −1.
        let vals = vec![1.0f64; 10];
        par_reduce_lane(&InlineExec, &vals, 2, 4, -1, 0.0, |a, b| a + b);
    }

    #[test]
    fn par_reduce_lane_strided_and_offset() {
        let vals: Vec<i64> = (0..100).collect();
        // Every other element starting at 1: 1 + 3 + ... + 99.
        let (sum, _) = par_reduce_lane(&ScopedExec(3), &vals, 1, 50, 2, 0i64, |a, b| a + b);
        assert_eq!(sum, 2500);
        // Reversed lane: same sum.
        let (rev, _) = par_reduce_lane(&ScopedExec(3), &vals, 99, 100, -1, 0i64, |a, b| a + b);
        assert_eq!(rev, 4950);
    }

    #[test]
    fn par_reduce_axis_matches_serial_kernel() {
        // Multi-lane: identical to `reduce_axis` (plain per-lane fold).
        let input: Vec<f64> = (0..60).map(|i| i as f64 * 0.25).collect();
        let iv = vg(&[6, 10]);
        for axis in [0usize, 1] {
            let out_n = if axis == 0 { 10 } else { 6 };
            let mut want = vec![0.0f64; out_n];
            reduce_axis(&mut want, &vg(&[out_n]), &input, &iv, axis, 0.0, |a, b| {
                a + b
            });
            for threads in [1usize, 2, 4] {
                let mut got = vec![0.0f64; out_n];
                let shards = par_reduce_axis(
                    &ScopedExec(threads),
                    &mut got,
                    &vg(&[out_n]),
                    &input,
                    &iv,
                    axis,
                    0.0,
                    |a, b| a + b,
                );
                assert!(shards >= 1);
                assert_eq!(got, want, "axis={axis} threads={threads}");
            }
        }
    }

    #[test]
    fn par_scan_axis_matches_serial_kernel_on_lanes() {
        let input: Vec<i64> = (0..24).collect();
        let iv = vg(&[4, 6]);
        for axis in [0usize, 1] {
            let mut want = vec![0i64; 24];
            accumulate_axis(&mut want, &iv, &input, &iv, axis, |a, b| a + b);
            for threads in [1usize, 2, 3] {
                let mut got = vec![0i64; 24];
                par_scan_axis(
                    &ScopedExec(threads),
                    &mut got,
                    &iv,
                    &input,
                    &iv,
                    axis,
                    |a, b| a + b,
                );
                assert_eq!(got, want, "axis={axis} threads={threads}");
            }
        }
    }

    #[test]
    fn par_scan_lane_is_executor_independent() {
        // A single lane is never split: at every length, including those
        // straddling REDUCE_BLOCK, it is the serial running fold on every
        // executor.
        for n in [1usize, 4095, 4096, 4097, 9999, 12_288] {
            let vals: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
            let mut want = vec![0.0f64; n];
            accumulate_axis(&mut want, &vg(&[n]), &vals, &vg(&[n]), 0, |a, b| a + b);
            let mut serial = vec![0.0f64; n];
            let shards = par_scan_axis(
                &InlineExec,
                &mut serial,
                &vg(&[n]),
                &vals,
                &vg(&[n]),
                0,
                |a, b| a + b,
            );
            assert_eq!(shards, 1, "n={n} inline: one lane, one shard");
            assert_eq!(serial, want, "n={n} inline: scan must be the running fold");
            for threads in [2usize, 4] {
                let mut got = vec![0.0f64; n];
                let shards = par_scan_axis(
                    &ScopedExec(threads),
                    &mut got,
                    &vg(&[n]),
                    &vals,
                    &vg(&[n]),
                    0,
                    |a, b| a + b,
                );
                assert_eq!(shards, 1, "n={n} threads={threads}: one lane, one shard");
                let same = serial
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(
                    same,
                    "n={n} threads={threads}: scan must be executor independent"
                );
            }
        }
    }

    #[test]
    fn par_reduce_axis_single_lane_writes_through_view() {
        // Scalar (rank-0) output at a non-zero offset.
        let input: Vec<i64> = (1..=5000).collect();
        let mut out = vec![0i64; 3];
        let ov = ViewGeom::scalar_at(2);
        let iv = vg(&[5000]);
        let shards = par_reduce_axis(&ScopedExec(4), &mut out, &ov, &input, &iv, 0, 0, |a, b| {
            a + b
        });
        assert!(shards >= 1);
        assert_eq!(out, vec![0, 0, 5000 * 5001 / 2]);
    }

    #[test]
    fn inline_exec_runs_one_shard() {
        let mut seen = Vec::new();
        let seen_cell = std::sync::Mutex::new(&mut seen);
        assert_eq!(
            InlineExec.run_ranges(9, 4, &|lo, hi| seen_cell.lock().unwrap().push((lo, hi))),
            1
        );
        assert_eq!(seen, vec![(0, 9)]);
        assert_eq!(InlineExec.run_ranges(0, 4, &|_, _| {}), 0);
    }
}
