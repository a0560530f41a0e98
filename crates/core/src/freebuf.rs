//! The per-size-class object pool of [`crate::FreeMode::Pooled`].
//!
//! The Amortized Free technique's per-thread freeable list (§3.3: "place
//! the batch in a thread local *freeable list*, and gradually free objects
//! one by one, each time a data structure operation is performed") is a
//! bare [`RetiredList`] in [`crate::SchemeCommon`]. It is deliberately
//! **not** an object pool: the paper wants to show interaction with the
//! allocator can be made fast, not avoided (§3.3 and footnote 4), so it
//! only delays `dealloc` calls — it never serves allocations. [`PoolBins`]
//! is the pooling alternative the paper declines (and footnote 4 credits
//! for VBR's performance), kept separate so the `ablation_pooled` bench
//! can compare the two.
//!
//! Absorbing a safe batch into either is intrusive relinking, and neither
//! allocates after construction — their spines are the retired memory
//! itself.

use crate::retired::RetiredList;
use epic_alloc::{class_of, BlockHeader, NUM_CLASSES};
use std::ptr::NonNull;

/// Per-size-class LIFO object pool ([`crate::FreeMode::Pooled`]).
///
/// LIFO because the most recently retired block is the warmest in cache —
/// the same reason the allocators' thread caches pop newest-first.
#[derive(Debug)]
pub struct PoolBins {
    bins: Box<[RetiredList; NUM_CLASSES]>,
    len: usize,
}

impl Default for PoolBins {
    fn default() -> Self {
        Self::new()
    }
}

impl PoolBins {
    /// An empty pool.
    pub fn new() -> Self {
        PoolBins {
            bins: Box::new(std::array::from_fn(|_| RetiredList::new())),
            len: 0,
        }
    }

    /// Queues a safe batch, binned by each block's size class (read from
    /// its header). `batch` is left empty.
    ///
    /// # Safety
    /// Every pointer in `batch` must be a live block from the scheme's
    /// pool allocator (so its header is readable).
    pub unsafe fn absorb(&mut self, batch: &mut RetiredList) {
        while let Some(p) = batch.pop() {
            // SAFETY: forwarded to caller.
            let class = unsafe { BlockHeader::from_user(p) }.class as usize;
            // SAFETY: popped from a RetiredList, so still exclusively ours.
            unsafe { self.bins[class].push_front(p) };
            self.len += 1;
        }
    }

    /// Pops the most recently pooled block that can serve a `size`-byte
    /// allocation (exact class match — a smaller block would corrupt the
    /// heap, a larger one would leak capacity).
    pub fn pop_for(&mut self, size: usize) -> Option<NonNull<u8>> {
        let class = class_of(size);
        let p = self.bins[class].pop();
        self.len -= usize::from(p.is_some());
        p
    }

    /// Moves up to `n` blocks (largest-bin first) into `out`, for draining
    /// excess pool memory back to the allocator.
    pub fn take_excess(&mut self, n: usize, out: &mut RetiredList) {
        for _ in 0..n {
            let Some(bin) = self.bins.iter_mut().max_by_key(|b| b.len()) else {
                break;
            };
            match bin.pop() {
                Some(p) => {
                    self.len -= 1;
                    // SAFETY: popped from our bin, still exclusively ours.
                    unsafe { out.push(p) };
                }
                None => break,
            }
        }
    }

    /// Drains the entire pool (teardown).
    pub fn drain_all(&mut self) -> RetiredList {
        let mut out = RetiredList::new();
        for bin in self.bins.iter_mut() {
            out.append(bin);
        }
        self.len = 0;
        out
    }

    /// Blocks currently pooled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel, PoolAllocator};
    use std::sync::Arc;

    fn arena() -> Arc<dyn PoolAllocator> {
        build_allocator(AllocatorKind::Sys, 1, CostModel::zero())
    }

    fn batch_of(a: &Arc<dyn PoolAllocator>, sizes: &[usize]) -> (RetiredList, Vec<usize>) {
        let mut list = RetiredList::new();
        let mut addrs = Vec::new();
        for &s in sizes {
            let p = a.alloc(0, s);
            addrs.push(p.as_ptr() as usize);
            // SAFETY: live block of `a`, exclusively ours.
            unsafe { list.push(p) };
        }
        (list, addrs)
    }

    fn free_list(a: &Arc<dyn PoolAllocator>, mut list: RetiredList) {
        while let Some(p) = list.pop() {
            a.dealloc(0, p);
        }
    }

    mod pool_bins {
        use super::*;

        #[test]
        fn absorb_bins_by_class_and_pop_matches() {
            let a = arena();
            let mut pool = PoolBins::new();
            let (mut batch, addrs) = batch_of(&a, &[64, 240, 64, 100]);
            // SAFETY: live blocks from `a`.
            unsafe { pool.absorb(&mut batch) };
            assert!(batch.is_empty());
            assert_eq!(pool.len(), 4);
            // 240 and 100 land in different classes (256 vs 128).
            let hit = pool
                .pop_for(200)
                .expect("the 240-byte block serves a 200-byte ask");
            assert_eq!(hit.as_ptr() as usize, addrs[1]);
            assert!(pool.pop_for(200).is_none(), "class 256 is now empty");
            // LIFO within the 64-byte class.
            assert_eq!(pool.pop_for(64).unwrap().as_ptr() as usize, addrs[2]);
            assert_eq!(pool.pop_for(64).unwrap().as_ptr() as usize, addrs[0]);
            assert_eq!(pool.len(), 1);
            free_list(&a, pool.drain_all());
            for addr in [addrs[1], addrs[2], addrs[0]] {
                a.dealloc(0, std::ptr::NonNull::new(addr as *mut u8).unwrap());
            }
        }

        #[test]
        fn take_excess_prefers_fullest_bin() {
            let a = arena();
            let mut pool = PoolBins::new();
            let (mut batch, _) = batch_of(&a, &[64, 64, 64, 240]);
            // SAFETY: live blocks.
            unsafe { pool.absorb(&mut batch) };
            let mut excess = RetiredList::new();
            pool.take_excess(2, &mut excess);
            assert_eq!(excess.len(), 2);
            assert_eq!(pool.len(), 2);
            // Both excess blocks came from the (fuller) 64-byte bin.
            let survivor = pool.pop_for(240).expect("240-class survived the bleed");
            a.dealloc(0, survivor);
            free_list(&a, excess);
            free_list(&a, pool.drain_all());
        }

        #[test]
        fn drain_all_empties_every_bin() {
            let a = arena();
            let mut pool = PoolBins::new();
            let (mut batch, _) = batch_of(&a, &[16, 64, 512, 2048]);
            // SAFETY: live blocks.
            unsafe { pool.absorb(&mut batch) };
            let all = pool.drain_all();
            assert_eq!(all.len(), 4);
            assert!(pool.is_empty());
            assert!(pool.pop_for(64).is_none());
            let mut none = RetiredList::new();
            pool.take_excess(10, &mut none);
            assert!(none.is_empty());
            free_list(&a, all);
        }
    }
}
