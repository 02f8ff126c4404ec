//! Recycled base storage: buffers a [`crate::Vm`] allocated in earlier
//! runs, kept for later runs of any program (DESIGN.md §7).

use bh_tensor::{Buffer, DType};
use std::collections::BTreeMap;

/// Idle VM-allocated buffers, keyed by exact `(bytes, dtype)` — which
/// fixes the length — so they iterate smallest first. The caller passes
/// the byte limit on every insertion, so the stash never grows past the
/// bound it is given.
#[derive(Debug, Default)]
pub(crate) struct Stash {
    free: BTreeMap<(usize, DType), Vec<Buffer>>,
    bytes: usize,
}

impl Stash {
    /// Keep `buffer` if the stash stays within `limit` bytes; drop it
    /// otherwise.
    pub(crate) fn put(&mut self, buffer: Buffer, limit: usize) {
        let size = buffer.size_bytes();
        if self.bytes + size <= limit {
            self.bytes += size;
            self.free
                .entry((size, buffer.dtype()))
                .or_default()
                .push(buffer);
        }
    }

    /// A stashed buffer of exactly `len` elements of `dtype`, if any.
    pub(crate) fn take(&mut self, dtype: DType, len: usize) -> Option<Buffer> {
        let buffer = self.free.get_mut(&(len * dtype.size_of(), dtype))?.pop()?;
        self.bytes -= buffer.size_bytes();
        Some(buffer)
    }

    /// Drop every buffer that is no longer unique — a result the caller
    /// read back and still holds. Such storage is never reused.
    pub(crate) fn drop_shared(&mut self) {
        let bytes = &mut self.bytes;
        self.free.retain(|_, buffers| {
            buffers.retain_mut(|b| {
                let unique = b.is_unique();
                if !unique {
                    *bytes -= b.size_bytes();
                }
                unique
            });
            !buffers.is_empty()
        });
    }

    /// Drop buffers, smallest first, until at most `limit` bytes remain:
    /// a large buffer is the expensive one to allocate again.
    pub(crate) fn trim(&mut self, limit: usize) {
        while self.bytes > limit {
            let Some(mut entry) = self.free.first_entry() else {
                break;
            };
            if let Some(buffer) = entry.get_mut().pop() {
                self.bytes -= buffer.size_bytes();
            }
            if entry.get().is_empty() {
                entry.remove();
            }
        }
    }

    /// Drop everything.
    pub(crate) fn clear(&mut self) {
        self.free.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Stash {
        /// Bytes held.
        pub(crate) fn bytes(&self) -> usize {
            self.bytes
        }
    }

    #[test]
    fn takes_only_exact_shapes_within_the_limit() {
        let mut stash = Stash::default();
        stash.put(Buffer::zeros(DType::Float64, 4), 64);
        stash.put(Buffer::zeros(DType::Int64, 4), 64);
        // 64 bytes already held: a third buffer does not fit.
        stash.put(Buffer::zeros(DType::Float64, 4), 64);
        assert_eq!(stash.bytes(), 64);
        assert!(stash.take(DType::Float64, 5).is_none());
        assert!(stash.take(DType::Float32, 4).is_none());
        assert_eq!(stash.take(DType::Float64, 4).map(|b| b.len()), Some(4));
        assert!(stash.take(DType::Float64, 4).is_none());
        assert_eq!(stash.bytes(), 32);
    }

    #[test]
    fn shared_buffers_are_dropped_and_trim_respects_the_limit() {
        let mut stash = Stash::default();
        let held = Buffer::zeros(DType::Float64, 8);
        stash.put(held.clone(), 1 << 10);
        stash.put(Buffer::zeros(DType::Float64, 2), 1 << 10);
        stash.put(Buffer::zeros(DType::UInt8, 64), 1 << 10);
        stash.drop_shared();
        assert_eq!(stash.bytes(), 16 + 64);
        // Trimming drops the small buffer and keeps the large one.
        stash.trim(64);
        assert!(stash.take(DType::UInt8, 64).is_some());
        stash.put(Buffer::zeros(DType::UInt8, 64), 1 << 10);
        stash.trim(0);
        assert_eq!(stash.bytes(), 0);
        drop(held);
    }
}
