//! The intrusive limbo list retired blocks live on.
//!
//! Between unlink and free, a retired block's [`BlockHeader`] list link is
//! idle, so [`RetiredList`] threads limbo bags, freeable lists and object
//! pools through it: retiring, rotating a bag, splicing a safe batch and
//! draining it are pointer writes, and the steady-state retire pipeline
//! performs **zero heap allocations**. The list is the allocator's
//! [`BlockList`] used as a FIFO (its eight chains keep a drain of a cold
//! DEBRA batch at eight misses in flight); the scan's partition and the
//! `M_SPLICE_KEEP_SOURCE` hook stay here.

use epic_alloc::block::BlockList;
use epic_alloc::BlockHeader;
use std::ptr::NonNull;

/// An intrusive FIFO list of retired blocks: a [`BlockList`] by user
/// pointer. It writes only the header's `next` link; era schemes keep their
/// `[birth, retire]` interval in the header's era words.
///
/// Single-owner (a scheme's per-tid state); a move across threads
/// (background reclaimer, teardown) goes through a synchronizing hand-off
/// (channel send, thread join). `push` is unsafe because linking writes
/// through the header: every entry must be a live block of a
/// [`epic_alloc::PoolAllocator`] the caller exclusively owns from
/// retirement to free, as [`crate::RawSmr::retire`] already requires.
/// Dropping a non-empty list frees nothing.
#[derive(Debug, Default)]
pub struct RetiredList(BlockList);

impl RetiredList {
    /// An empty list.
    pub const fn new() -> Self {
        RetiredList(BlockList::new())
    }

    /// Entries on the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the list holds nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Appends a retired block.
    ///
    /// # Safety
    /// `ptr` must be a live block of a pool allocator, exclusively owned
    /// by the caller (retired: unlinked, on no other list) until popped.
    #[inline]
    pub unsafe fn push(&mut self, ptr: NonNull<u8>) {
        // SAFETY: caller guarantees a valid, exclusively-owned block.
        unsafe { self.0.push(BlockHeader::from_user(ptr)) };
    }

    /// Prepends a retired block (LIFO use: object pools pop the warmest
    /// block first).
    ///
    /// # Safety
    /// Same contract as [`push`](Self::push).
    #[inline]
    pub unsafe fn push_front(&mut self, ptr: NonNull<u8>) {
        // SAFETY: caller guarantees a valid, exclusively-owned block.
        unsafe { self.0.push_front(BlockHeader::from_user(ptr)) };
    }

    /// Removes and returns the oldest entry (see [`BlockList::pop`]).
    #[inline]
    pub fn pop(&mut self) -> Option<NonNull<u8>> {
        self.0.pop().map(BlockHeader::user_ptr)
    }

    /// Splices all of `other` onto this list's tail in O(8), leaving
    /// `other` empty. FIFO order is preserved: `other`'s oldest entry
    /// follows this list's newest.
    pub fn append(&mut self, other: &mut RetiredList) {
        // SAFETY: `other` is reset right after, unless the seeded mutant
        // forgets to.
        unsafe { self.0.splice(&other.0) };
        if !crate::mutants::active(crate::mutants::M_SPLICE_KEEP_SOURCE) {
            *other = RetiredList::new();
        }
    }

    /// Takes the whole list by value, leaving this one empty.
    pub fn take(&mut self) -> RetiredList {
        std::mem::take(self)
    }

    /// In-place partition for reclamation scans: entries failing `keep`
    /// move to `freeable`, kept entries stay on `self`. FIFO order is
    /// preserved on both sides, and no allocation happens — every move is
    /// a relink of blocks this list already owns.
    pub fn partition_into(
        &mut self,
        mut keep: impl FnMut(NonNull<u8>) -> bool,
        freeable: &mut RetiredList,
    ) {
        let mut kept = RetiredList::new();
        while let Some(p) = self.pop() {
            let target = if keep(p) { &mut kept } else { &mut *freeable };
            // SAFETY: popped from this list: a live block we exclusively
            // own until it is freed.
            unsafe { target.push(p) };
        }
        self.append(&mut kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{block, build_allocator, AllocatorKind, CostModel, PoolAllocator};
    use std::sync::Arc;

    fn arena() -> Arc<dyn PoolAllocator> {
        build_allocator(AllocatorKind::Sys, 1, CostModel::zero())
    }

    fn free_all(a: &Arc<dyn PoolAllocator>, mut list: RetiredList) {
        while let Some(p) = list.pop() {
            a.dealloc(0, p);
        }
    }

    #[test]
    fn fifo_order_leaves_era_words_untouched() {
        let a = arena();
        let mut list = RetiredList::new();
        let ptrs: Vec<_> = (0..4).map(|_| a.alloc(0, 64)).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            // SAFETY: live blocks of `a`, exclusively ours.
            unsafe {
                block::set_birth_era(p, i as u64);
                block::set_retire_era(p, i as u64 + 10);
                list.push(p);
            }
        }
        assert_eq!(list.len(), 4);
        // Odd indices are kept; both sides stay oldest-first.
        let mut freeable = RetiredList::new();
        list.partition_into(|p| p == ptrs[1] || p == ptrs[3], &mut freeable);
        assert_eq!((list.len(), freeable.len()), (2, 2));
        let order: Vec<_> = std::iter::from_fn(|| freeable.pop())
            .chain(std::iter::from_fn(|| list.pop()))
            .collect();
        assert_eq!(order, [ptrs[0], ptrs[2], ptrs[1], ptrs[3]]);
        assert!(list.pop().is_none() && list.is_empty());
        for (i, &p) in ptrs.iter().enumerate() {
            // SAFETY: live blocks of `a`.
            let eras = unsafe { (block::birth_era(p), block::retire_era(p)) };
            assert_eq!(
                eras,
                (i as u64, i as u64 + 10),
                "era words are the scheme's"
            );
            a.dealloc(0, p);
        }
    }

    #[test]
    fn push_front_is_lifo() {
        let a = arena();
        let mut list = RetiredList::new();
        let ptrs: Vec<_> = (0..3).map(|_| a.alloc(0, 64)).collect();
        for &p in &ptrs {
            // SAFETY: live blocks, exclusively ours.
            unsafe { list.push_front(p) };
        }
        assert_eq!(list.pop().unwrap(), ptrs[2], "newest first");
        assert_eq!(list.pop().unwrap(), ptrs[1]);
        assert_eq!(list.pop().unwrap(), ptrs[0]);
        for p in ptrs {
            a.dealloc(0, p);
        }
    }

    #[test]
    fn take_moves_everything() {
        let a = arena();
        let mut list = RetiredList::new();
        let p = a.alloc(0, 64);
        // SAFETY: live block, exclusively ours.
        unsafe { list.push(p) };
        let moved = list.take();
        assert!(list.is_empty());
        assert_eq!(moved.len(), 1);
        free_all(&a, moved);
    }
}
