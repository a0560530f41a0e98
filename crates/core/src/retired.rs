//! The intrusive limbo list retired blocks live on.
//!
//! Between unlink and free, a retired block is dead memory the reclamation
//! scheme owns — including its [`BlockHeader`], whose free-list link is
//! idle in that window. [`RetiredList`] threads limbo bags, freeable lists
//! and object pools directly through that link, so pushing a retirement,
//! rotating a bag, splicing a safe batch onto the freeable list, and
//! draining it back to the allocator are all pointer writes: the
//! steady-state retire pipeline performs **zero heap allocations**, and
//! nothing the measurement harness does shows up as allocator traffic
//! attributed to the scheme under test.

use crate::sync::Ordering;
use epic_alloc::BlockHeader;
use std::ptr::NonNull;

/// An intrusive FIFO list of retired blocks, threaded through each block's
/// [`BlockHeader::next`] link. The list writes nothing else in the header:
/// era schemes keep their `[birth, retire]` interval in the header's era
/// words themselves.
///
/// Every mutation is O(1) — push, pop, and whole-list splice — and none
/// allocates: the spine *is* the retired memory. The list is single-owner
/// (a scheme's per-tid state); transferring it across threads (background
/// reclaimer, teardown) is sound because every hand-off point synchronizes
/// (channel send, thread join).
///
/// `push` is unsafe because linking writes through the pointer's header:
/// every entry must be a live block of a [`epic_alloc::PoolAllocator`]
/// that the caller exclusively owns from retirement to free — the same
/// contract [`crate::RawSmr::retire`] already imposes. Dropping a non-empty
/// list does not free its blocks; they stay owned by the allocator's chunk
/// store until it drops.
#[derive(Debug, Default)]
pub struct RetiredList {
    /// Header address of the oldest entry (0 = empty).
    head: usize,
    /// Header address of the newest entry (0 = empty).
    tail: usize,
    len: usize,
}

// SAFETY: the list owns its blocks exclusively; hand-off between threads
// happens only through synchronizing operations (see type docs).
unsafe impl Send for RetiredList {}

impl RetiredList {
    /// An empty list.
    pub const fn new() -> Self {
        RetiredList {
            head: 0,
            tail: 0,
            len: 0,
        }
    }

    /// Entries on the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the list holds nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a retired block.
    ///
    /// # Safety
    /// `ptr` must be a live block of a pool allocator, exclusively owned
    /// by the caller (retired: unlinked, on no other list) until popped.
    #[inline]
    pub unsafe fn push(&mut self, ptr: NonNull<u8>) {
        // SAFETY: caller guarantees a valid, exclusively-owned block.
        let hdr = unsafe { BlockHeader::from_user(ptr) };
        hdr.next.store(0, Ordering::Relaxed);
        let addr = hdr.addr();
        if self.tail == 0 {
            self.head = addr;
        } else {
            // SAFETY: `tail` was linked by a prior push from a valid header
            // this list exclusively owns.
            let tail = unsafe { &*(self.tail as *const BlockHeader) };
            tail.next.store(addr, Ordering::Relaxed);
        }
        self.tail = addr;
        self.len += 1;
    }

    /// Prepends a retired block (LIFO use: object pools pop the warmest
    /// block first).
    ///
    /// # Safety
    /// Same contract as [`push`](Self::push).
    #[inline]
    pub unsafe fn push_front(&mut self, ptr: NonNull<u8>) {
        // SAFETY: caller guarantees a valid, exclusively-owned block.
        let hdr = unsafe { BlockHeader::from_user(ptr) };
        hdr.next.store(self.head, Ordering::Relaxed);
        self.head = hdr.addr();
        if self.tail == 0 {
            self.tail = self.head;
        }
        self.len += 1;
    }

    /// Removes and returns the oldest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<NonNull<u8>> {
        if self.head == 0 {
            return None;
        }
        // SAFETY: `head` was linked by a push from a valid header this list
        // exclusively owns.
        let hdr = unsafe { &*(self.head as *const BlockHeader) };
        self.head = hdr.next.load(Ordering::Relaxed);
        if self.head == 0 {
            self.tail = 0;
        } else {
            // A linked drain is a serial dependent-load chain; the Vec it
            // replaced enjoyed memory-level parallelism. One-ahead
            // prefetch restores the overlap: the successor's header line
            // is fetched while the caller frees this entry.
            epic_alloc::block::prefetch_line(self.head);
        }
        self.len -= 1;
        Some(hdr.user_ptr())
    }

    /// Splices all of `other` onto this list's tail in O(1), leaving
    /// `other` empty. FIFO order is preserved: `other`'s oldest entry
    /// follows this list's newest.
    pub fn append(&mut self, other: &mut RetiredList) {
        if other.head == 0 {
            return;
        }
        if self.tail == 0 {
            self.head = other.head;
        } else {
            // SAFETY: `tail` is a valid header this list exclusively owns.
            let tail = unsafe { &*(self.tail as *const BlockHeader) };
            tail.next.store(other.head, Ordering::Relaxed);
        }
        self.tail = other.tail;
        self.len += other.len;
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
    fn append_splices_in_order_and_empties_source() {
        let a = arena();
        let mut front = RetiredList::new();
        let mut back = RetiredList::new();
        let ptrs: Vec<_> = (0..4).map(|_| a.alloc(0, 64)).collect();
        // SAFETY: live blocks, exclusively ours.
        unsafe {
            front.push(ptrs[0]);
            front.push(ptrs[1]);
            back.push(ptrs[2]);
            back.push(ptrs[3]);
        }
        front.append(&mut back);
        assert_eq!(front.len(), 4);
        assert!(back.is_empty());
        back.append(&mut RetiredList::new()); // empty-into-empty is a no-op
        for &p in &ptrs {
            assert_eq!(front.pop().unwrap(), p, "splice keeps FIFO order");
        }
        // Appending onto an emptied list re-links head and tail.
        let q = a.alloc(0, 64);
        let mut single = RetiredList::new();
        // SAFETY: live block, exclusively ours.
        unsafe { single.push(q) };
        front.append(&mut single);
        assert_eq!(front.len(), 1);
        free_all(&a, front);
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
