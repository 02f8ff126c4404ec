//! [`ShardSlice`]: the one way a write crosses the shards of a
//! [`RangeExecutor::run_ranges`](crate::kernels::RangeExecutor::run_ranges)
//! call, and [`ShardRoot`], a buffer's `ShardSlice` of whatever element
//! type it holds.

use crate::buffer::Buffer;
use crate::eltops::private::Sealed as _;
use crate::eltops::Element;
use crate::with_dtype;
use std::fmt;
use std::marker::PhantomData;

/// A slice shared by the shards of one
/// [`RangeExecutor::run_ranges`](crate::kernels::RangeExecutor::run_ranges)
/// call, each of which reads and writes elements no other shard writes.
///
/// It is built once per run from a whole `&mut [T]` ([`ShardSlice::new`]),
/// or from a whole `&[T]` that the run only reads
/// ([`ShardSlice::read_only`]), and borrows it until dropped, so every
/// pointer the shards use into the slice is derived from that one root.
///
/// A shard that owns a contiguous range borrows it as a `&mut [T]`
/// ([`ShardSlice::with_claim`]) and reads one as a `&[T]`
/// ([`ShardSlice::read_range`]); a strided walk or a per-block partial
/// writes and reads single elements ([`ShardSlice::write`],
/// [`ShardSlice::read`]). All four are `unsafe`: the executor's partition
/// of `[0, n)` is what keeps two shards' elements apart, and no check in a
/// release build sees it.
///
/// Debug builds record each claim, never each element: two claims that
/// are alive at once must not overlap, no two threads may claim
/// overlapping ranges during the slice's life, and a range read must not
/// overlap a live claim or another thread's. A broken partition panics
/// with "claims overlap".
///
/// # Soundness
///
/// This is the one argument for every write that crosses the worker
/// pool. Sending and sharing a `ShardSlice` between threads is sound
/// because:
///
/// 1. the storage outlives every shard: the slice borrows it for `'a`,
///    and `run_ranges` returns, or unwinds, only after its last shard
///    finished;
/// 2. every access is in bounds: a claim or a range read asserts its
///    range, and a single-element access is in a range the caller
///    checked;
/// 3. every write goes to storage borrowed mutably: a claim asserts it,
///    and a single-element write is the caller's promise;
/// 4. while one thread writes an element, no other thread reads or
///    writes it: the caller of each `unsafe` method guarantees it, by
///    touching only elements of the shard it runs (the `RangeExecutor`
///    contract hands out pairwise-disjoint ranges).
pub struct ShardSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    writable: bool,
    #[cfg(debug_assertions)]
    claims: std::sync::Mutex<claims::Claims>,
    borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: see "Soundness" above. `ptr` is a borrow of `'a` storage whose
// elements (`Send + Sync`) are touched by one thread at a time; `len`
// and `writable` are plain values and `claims` is a mutex.
unsafe impl<T: Send + Sync> Send for ShardSlice<'_, T> {}
// SAFETY: as for `Send`: shared access touches each element from one
// thread at a time, by the contract of the `unsafe` methods.
unsafe impl<T: Send + Sync> Sync for ShardSlice<'_, T> {}

impl<'a, T: Element> ShardSlice<'a, T> {
    /// The shards' view of a slice they read and write.
    pub fn new(data: &'a mut [T]) -> ShardSlice<'a, T> {
        Self::from_raw(data.as_mut_ptr(), data.len(), true)
    }

    /// The shards' view of a slice they only read: [`Self::with_claim`]
    /// panics on it, and [`Self::write`] must not be called.
    pub fn read_only(data: &'a [T]) -> ShardSlice<'a, T> {
        Self::from_raw(data.as_ptr().cast_mut(), data.len(), false)
    }

    fn from_raw(ptr: *mut T, len: usize, writable: bool) -> ShardSlice<'a, T> {
        ShardSlice {
            ptr,
            len,
            writable,
            #[cfg(debug_assertions)]
            claims: Default::default(),
            borrow: PhantomData,
        }
    }

    /// Run `f` on elements `[lo, hi)` as a `&mut [T]`.
    ///
    /// # Safety
    ///
    /// While `f` runs, no element of `[lo, hi)` is read or written, by
    /// any thread, except through the `&mut [T]` it is given: `[lo, hi)`
    /// lies in the range the executor handed this shard.
    ///
    /// # Panics
    ///
    /// Panics with "view escapes buffer" when the range is out of
    /// bounds, and when the slice is read-only. Debug builds panic with
    /// "claims overlap" when the range overlaps a live claim, or one
    /// another thread made.
    pub unsafe fn with_claim<R>(&self, lo: usize, hi: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
        assert!(self.writable, "claim on a read-only ShardSlice");
        assert!(lo <= hi && hi <= self.len, "view escapes buffer");
        #[cfg(debug_assertions)]
        {
            let clash = self.record().claim(lo, hi);
            if let Err((l, h)) = clash {
                panic!("claims overlap: [{lo}, {hi}) and [{l}, {h})");
            }
        }
        // SAFETY: in bounds and mutably borrowed, asserted above; the
        // caller guarantees no other access to `[lo, hi)` while `f` runs.
        let out = f(unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) });
        #[cfg(debug_assertions)]
        self.record().release(lo, hi);
        out
    }

    /// Elements `[lo, hi)` as a `&[T]`.
    ///
    /// # Safety
    ///
    /// While the returned slice lives, no thread writes an element of
    /// `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// As [`Self::with_claim`], except that a read-only slice is fine.
    pub unsafe fn read_range(&self, lo: usize, hi: usize) -> &[T] {
        assert!(lo <= hi && hi <= self.len, "view escapes buffer");
        #[cfg(debug_assertions)]
        {
            let clash = self.record().clash(lo, hi);
            if let Some((l, h)) = clash {
                panic!("claims overlap: read [{lo}, {hi}) and [{l}, {h})");
            }
        }
        // SAFETY: in bounds, asserted above; the caller guarantees no
        // write to `[lo, hi)` while the slice lives.
        unsafe { std::slice::from_raw_parts(self.ptr.add(lo), hi - lo) }
    }

    /// Write element `i`.
    ///
    /// # Safety
    ///
    /// `i < len`, the slice is not read-only, and no other thread reads
    /// or writes element `i` during the run.
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(self.writable && i < self.len);
        // SAFETY: in bounds, writable and exclusive by the caller's
        // contract.
        unsafe { self.ptr.add(i).write(value) }
    }

    /// Read element `i`.
    ///
    /// # Safety
    ///
    /// `i < len`, and no other thread writes element `i` during the run.
    pub unsafe fn read(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        // SAFETY: in bounds and unraced by the caller's contract.
        unsafe { self.ptr.add(i).read() }
    }

    #[cfg(debug_assertions)]
    fn record(&self) -> std::sync::MutexGuard<'_, claims::Claims> {
        self.claims
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T> fmt::Debug for ShardSlice<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardSlice")
            .field("len", &self.len)
            .field("writable", &self.writable)
            .finish()
    }
}

/// The [`ShardSlice`] of one [`Buffer`], of whatever element type it
/// holds: a table of them, one per register, is the single root of every
/// pointer a fused run takes into its buffers.
#[derive(Debug)]
#[allow(missing_docs)]
pub enum ShardRoot<'a> {
    Bool(ShardSlice<'a, bool>),
    U8(ShardSlice<'a, u8>),
    U16(ShardSlice<'a, u16>),
    U32(ShardSlice<'a, u32>),
    U64(ShardSlice<'a, u64>),
    I8(ShardSlice<'a, i8>),
    I16(ShardSlice<'a, i16>),
    I32(ShardSlice<'a, i32>),
    I64(ShardSlice<'a, i64>),
    F32(ShardSlice<'a, f32>),
    F64(ShardSlice<'a, f64>),
}

impl<'a> ShardRoot<'a> {
    /// A buffer the run writes: its storage is un-shared first
    /// ([`Buffer::as_mut_slice`]).
    pub fn new(buffer: &'a mut Buffer) -> ShardRoot<'a> {
        with_dtype!(buffer.dtype(), T, {
            let data = buffer
                .as_mut_slice::<T>()
                .expect("dtype matches the buffer");
            T::root(ShardSlice::new(data))
        })
    }

    /// A buffer the run only reads.
    pub fn read_only(buffer: &'a Buffer) -> ShardRoot<'a> {
        with_dtype!(buffer.dtype(), T, {
            let data = buffer.as_slice::<T>().expect("dtype matches the buffer");
            T::root(ShardSlice::read_only(data))
        })
    }

    /// The slice, if `T` is the buffer's element type.
    pub fn get<T: Element>(&self) -> Option<&ShardSlice<'a, T>> {
        T::shard(self)
    }
}

/// The debug build's record of claims.
#[cfg(debug_assertions)]
mod claims {
    use std::thread::ThreadId;

    /// Claims alive now, and every range each thread claimed, adjacent
    /// claims of one thread merged: a run's claims stay a few ranges per
    /// shard however many blocks it walks.
    #[derive(Debug, Default)]
    pub(super) struct Claims {
        live: Vec<(usize, usize)>,
        owned: Vec<(ThreadId, usize, usize)>,
    }

    fn overlap(a: (usize, usize), b: (usize, usize)) -> bool {
        a.0 < b.1 && b.0 < a.1
    }

    impl Claims {
        /// The live claim, or another thread's claimed range, that
        /// `[lo, hi)` overlaps.
        pub(super) fn clash(&self, lo: usize, hi: usize) -> Option<(usize, usize)> {
            let me = std::thread::current().id();
            let live = self.live.iter().copied().find(|&r| overlap(r, (lo, hi)));
            live.or_else(|| {
                self.owned
                    .iter()
                    .find(|&&(t, l, h)| t != me && overlap((l, h), (lo, hi)))
                    .map(|&(_, l, h)| (l, h))
            })
        }

        /// Record `[lo, hi)`, or return the range it overlaps.
        pub(super) fn claim(&mut self, lo: usize, hi: usize) -> Result<(), (usize, usize)> {
            if lo == hi {
                return Ok(());
            }
            if let Some(range) = self.clash(lo, hi) {
                return Err(range);
            }
            let me = std::thread::current().id();
            self.live.push((lo, hi));
            match self
                .owned
                .iter_mut()
                .find(|(t, l, h)| *t == me && *l <= hi && lo <= *h)
            {
                Some((_, l, h)) => (*l, *h) = ((*l).min(lo), (*h).max(hi)),
                None => self.owned.push((me, lo, hi)),
            }
            Ok(())
        }

        pub(super) fn release(&mut self, lo: usize, hi: usize) {
            if let Some(i) = self.live.iter().position(|&r| r == (lo, hi)) {
                self.live.swap_remove(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{shard_ranges, RangeExecutor};

    /// Each shard on a scoped thread of its own.
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

    /// `shard_ranges` with every interior boundary moved one element
    /// down, so each shard's range overlaps the next one's first element:
    /// the first shard runs on a thread of its own and is joined, then the
    /// rest run on the calling thread.
    struct OverlappingExec;

    impl RangeExecutor for OverlappingExec {
        fn threads(&self) -> usize {
            2
        }

        fn run_ranges(
            &self,
            n: usize,
            grain: usize,
            task: &(dyn Fn(usize, usize) + Sync),
        ) -> usize {
            let mut ranges = shard_ranges(n, 2, grain);
            for (lo, _) in &mut ranges[1..] {
                *lo -= 1;
            }
            let (first, rest) = ranges.split_first().expect("n > 0");
            std::thread::scope(|scope| scope.spawn(|| task(first.0, first.1)).join())
                .expect("the first shard does not panic");
            for &(lo, hi) in rest {
                task(lo, hi);
            }
            ranges.len()
        }
    }

    /// Shard `k` of the run claims its range and writes `k + 1` there.
    fn write_shard_indices(exec: &dyn RangeExecutor, data: &mut [u32], grain: usize) {
        let n = data.len();
        let shared = ShardSlice::new(data);
        exec.run_ranges(n, grain, &|lo, hi| {
            // SAFETY: the executor hands each call a disjoint `[lo, hi)`.
            unsafe {
                shared.with_claim(lo, hi, |s: &mut [u32]| s.fill(lo as u32 / grain as u32 + 1))
            }
        });
    }

    #[test]
    fn contiguous_shards_write_their_own_ranges() {
        // Small enough for miri: two real threads, four elements each.
        let mut data = vec![0u32; 8];
        write_shard_indices(&ScopedExec(2), &mut data, 4);
        assert_eq!(data, [1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "claims overlap")]
    fn overlapping_shard_ranges_panic_in_debug_builds() {
        write_shard_indices(&OverlappingExec, &mut [0u32; 8], 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "claims overlap")]
    fn two_live_overlapping_claims_panic_in_debug_builds() {
        let mut data = [0.0f64; 8];
        let shared = ShardSlice::new(&mut data);
        // SAFETY: one thread; the record refuses the nested claim before
        // a second `&mut` to elements 2..4 exists.
        unsafe {
            shared.with_claim(0, 4, |_: &mut [f64]| {
                shared.with_claim(2, 6, |_: &mut [f64]| {});
            });
        }
    }

    #[test]
    fn one_thread_claims_a_range_again_once_released() {
        let mut data = [1i64; 6];
        let shared = ShardSlice::new(&mut data);
        for _ in 0..2 {
            // SAFETY: one thread, one claim alive at a time.
            unsafe { shared.with_claim(0, 6, |s: &mut [i64]| s.iter_mut().for_each(|x| *x *= 3)) };
        }
        assert_eq!(data, [9; 6]);
    }

    #[test]
    #[should_panic(expected = "view escapes buffer")]
    fn a_claim_past_the_end_panics() {
        let mut data = [0u8; 4];
        let shared = ShardSlice::new(&mut data);
        // SAFETY: one thread; the bounds check refuses the claim.
        unsafe { shared.with_claim(2, 5, |_: &mut [u8]| {}) };
    }

    #[test]
    #[should_panic(expected = "claim on a read-only ShardSlice")]
    fn a_read_only_slice_refuses_claims() {
        let data = [0u8; 4];
        let shared = ShardSlice::read_only(&data);
        // SAFETY: one thread; the slice refuses the claim.
        unsafe { shared.with_claim(0, 4, |_| {}) };
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "claims overlap")]
    fn a_read_of_a_live_claim_panics_in_debug_builds() {
        let mut data = [0i32; 8];
        let shared = ShardSlice::new(&mut data);
        // SAFETY: one thread; the record refuses the read before a `&`
        // to elements 2..4 exists beside the `&mut`.
        unsafe {
            shared.with_claim(0, 4, |_| {
                shared.read_range(2, 6);
            });
        }
    }

    #[test]
    fn a_root_hands_out_its_buffers_element_type_only() {
        let mut buffer = Buffer::from_vec(vec![1.5f32, 2.5]);
        let root = ShardRoot::new(&mut buffer);
        assert!(root.get::<f64>().is_none());
        let slice = root.get::<f32>().expect("the buffer holds f32");
        // SAFETY: one thread.
        unsafe { slice.with_claim(0, 2, |s| s[1] = s[0] * 4.0) };
        drop(root);
        assert_eq!(buffer.as_slice::<f32>(), Some(&[1.5, 6.0][..]));
    }
}
