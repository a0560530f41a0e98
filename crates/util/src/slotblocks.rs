//! Per-thread blocks of announcement slots that never share a cache line.
//!
//! A reservation-publishing scheme gives each thread `k` slots it stores
//! to on every protected read and clears on every `end_op`. In one flat
//! `Box<[T]>` two threads' slots share a line unless `malloc` happens to
//! align the block, and a read-mostly workload then runs at half speed.
//! [`SlotBlocks`] starts every thread's block on its own 128-byte boundary
//! (the unit [`CachePadded`](crate::CachePadded) isolates).

/// The isolation unit, in bytes.
const LINE: usize = 128;

/// `n` blocks of `k` slots each, block stride rounded up to whole lines.
pub struct SlotBlocks<T> {
    /// `n * stride` slots after up to one line of leading slack, so that
    /// `store[first]` is 128-byte aligned wherever the box landed.
    store: Box<[T]>,
    first: usize,
    stride: usize,
    n: usize,
    k: usize,
}

impl<T> SlotBlocks<T> {
    /// Builds `n` blocks of `k` slots (padding slots are built with `make`
    /// too and never handed out). Panics unless `T` is word-like: non-zero
    /// size that divides a line, aligned to its size.
    pub fn new_with(n: usize, k: usize, make: impl FnMut() -> T) -> Self {
        let size = std::mem::size_of::<T>();
        assert!(size > 0 && LINE.is_multiple_of(size) && std::mem::align_of::<T>() == size);
        let per_line = LINE / size;
        let stride = k.next_multiple_of(per_line);
        let store: Box<[T]> = std::iter::repeat_with(make)
            .take(n * stride + per_line - 1)
            .collect();
        // A boxed slice never moves, so the aligned index is stable.
        let addr = store.as_ptr() as usize;
        let first = (addr.next_multiple_of(LINE) - addr) / size;
        SlotBlocks {
            store,
            first,
            stride,
            n,
            k,
        }
    }

    /// Number of slots handed out (`n * k`; padding excluded).
    pub fn count(&self) -> usize {
        self.n * self.k
    }

    /// `tid`'s `k` slots.
    #[inline]
    pub fn block(&self, tid: usize) -> &[T] {
        assert!(tid < self.n, "tid {tid} out of {} blocks", self.n);
        let start = self.first + tid * self.stride;
        &self.store[start..start + self.k]
    }

    /// Every handed-out slot, in `(tid, slot)` order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.n).flat_map(|tid| self.block(tid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn no_two_threads_share_a_128_byte_line() {
        // Odd-sized neighbours on the heap vary where each box lands.
        let mut keep: Vec<Box<[u8]>> = Vec::new();
        for (n, k) in [(0, 4), (2, 8), (2, 1), (3, 16), (4, 17), (5, 3)] {
            keep.push(vec![0u8; 8 * (n + k)].into_boxed_slice());
            let s = SlotBlocks::new_with(n, k, || AtomicUsize::new(0));
            for tid in 0..n {
                let r = s.block(tid).as_ptr_range();
                assert_eq!(r.start as usize % LINE, 0, "n={n} k={k} tid={tid}");
                if tid + 1 < n {
                    let next = s.block(tid + 1).as_ptr() as usize;
                    assert!(
                        (r.end as usize).next_multiple_of(LINE) <= next,
                        "n={n} k={k}: tids {tid} and {} share a line",
                        tid + 1
                    );
                }
                for (i, slot) in s.block(tid).iter().enumerate() {
                    slot.store(tid * k + i + 1, Ordering::Relaxed);
                }
            }
            // `iter` sees exactly the live slots, in (tid, slot) order.
            let seen: Vec<usize> = s.iter().map(|a| a.load(Ordering::Relaxed)).collect();
            assert_eq!(seen, (1..=n * k).collect::<Vec<_>>());
            assert_eq!(s.count(), n * k);
        }
    }
}
