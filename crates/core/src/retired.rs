//! Retired-object records and the intrusive limbo list they live on.
//!
//! Between unlink and free, a retired block is dead memory the reclamation
//! scheme owns — including its [`BlockHeader`], whose free-list link and
//! era words are idle in that window. [`RetiredList`] threads limbo bags,
//! freeable lists and object pools directly through those header fields,
//! so pushing a retirement, rotating a bag, splicing a safe batch onto the
//! freeable list, and draining it back to the allocator are all pointer
//! writes: the steady-state retire pipeline performs **zero heap
//! allocations**, and nothing the measurement harness does shows up as
//! allocator traffic attributed to the scheme under test.

use crate::sync::Ordering;
use epic_alloc::BlockHeader;
use std::ptr::NonNull;

/// One retired (unlinked but not yet freed) object.
///
/// Carries the metadata era-based schemes need to decide freeability:
/// the block's birth era (stamped at allocation via
/// [`crate::RawSmr::on_alloc`]) and the era at retirement. Epoch/token
/// schemes ignore both fields. This is a *view*: while the object sits on
/// a [`RetiredList`], the canonical copy of both eras lives in the block's
/// own header.
#[derive(Debug, Clone, Copy)]
pub struct Retired {
    /// User pointer of the block (as handed out by the allocator).
    pub ptr: NonNull<u8>,
    /// Era at allocation (0 for schemes that do not stamp).
    pub birth_era: u64,
    /// Era at retirement (0 for schemes that do not stamp).
    pub retire_era: u64,
}

// SAFETY: a Retired is a capability to free the block; ownership semantics
// are enforced by the schemes (exactly one bag holds it). The raw pointer
// itself is Send.
unsafe impl Send for Retired {}

impl Retired {
    /// A record without era metadata.
    pub fn new(ptr: NonNull<u8>) -> Self {
        Retired {
            ptr,
            birth_era: 0,
            retire_era: 0,
        }
    }

    /// A record with era interval `[birth, retire]`.
    pub fn with_eras(ptr: NonNull<u8>, birth_era: u64, retire_era: u64) -> Self {
        Retired {
            ptr,
            birth_era,
            retire_era,
        }
    }

    /// The block address as an integer (hazard-set membership tests).
    #[inline]
    pub fn addr(&self) -> usize {
        self.ptr.as_ptr() as usize
    }
}

/// An intrusive FIFO list of retired blocks, threaded through each block's
/// [`BlockHeader::next`] link with the era interval parked in the header's
/// era words.
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
/// store until it drops (identical to dropping the old `Vec<Retired>`).
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

    #[inline]
    fn link_back(&mut self, hdr: &BlockHeader) {
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

    /// Appends a retirement, stamping both era words into the header.
    ///
    /// # Safety
    /// `r.ptr` must be a live block of a pool allocator, exclusively owned
    /// by the caller (retired: unlinked, on no other list) until popped.
    #[inline]
    pub unsafe fn push(&mut self, r: Retired) {
        // SAFETY: caller guarantees a valid, exclusively-owned block.
        let hdr = unsafe { BlockHeader::from_user(r.ptr) };
        hdr.birth_era.store(r.birth_era, Ordering::Release);
        hdr.retire_era.store(r.retire_era, Ordering::Release);
        self.link_back(hdr);
    }

    /// Appends a retirement on the hot path: stamps only the retire era,
    /// leaving the birth era the scheme wrote at allocation untouched.
    ///
    /// # Safety
    /// Same contract as [`push`](Self::push).
    #[inline]
    pub unsafe fn push_retire(&mut self, ptr: NonNull<u8>, retire_era: u64) {
        // SAFETY: caller guarantees a valid, exclusively-owned block.
        let hdr = unsafe { BlockHeader::from_user(ptr) };
        hdr.retire_era.store(retire_era, Ordering::Release);
        self.link_back(hdr);
    }

    /// Prepends a retirement (LIFO use: object pools pop the warmest block
    /// first).
    ///
    /// # Safety
    /// Same contract as [`push`](Self::push).
    #[inline]
    pub unsafe fn push_front(&mut self, r: Retired) {
        // SAFETY: caller guarantees a valid, exclusively-owned block.
        let hdr = unsafe { BlockHeader::from_user(r.ptr) };
        hdr.birth_era.store(r.birth_era, Ordering::Release);
        hdr.retire_era.store(r.retire_era, Ordering::Release);
        hdr.next.store(self.head, Ordering::Relaxed);
        self.head = hdr.addr();
        if self.tail == 0 {
            self.tail = self.head;
        }
        self.len += 1;
    }

    /// Removes and returns the oldest entry, reconstructing its era view
    /// from the header.
    #[inline]
    pub fn pop(&mut self) -> Option<Retired> {
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
        Some(Retired {
            ptr: hdr.user_ptr(),
            birth_era: hdr.birth_era.load(Ordering::Acquire),
            retire_era: hdr.retire_era.load(Ordering::Acquire),
        })
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
        mut keep: impl FnMut(&Retired) -> bool,
        freeable: &mut RetiredList,
    ) {
        let mut kept = RetiredList::new();
        while let Some(r) = self.pop() {
            let target = if keep(&r) { &mut kept } else { &mut *freeable };
            // SAFETY: popped from this list: a live block we exclusively
            // own until it is freed.
            unsafe { target.push(r) };
        }
        self.append(&mut kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel, PoolAllocator};
    use std::sync::Arc;

    #[test]
    fn construction_and_addr() {
        let mut word = 0u64;
        let p = NonNull::new(&mut word as *mut u64 as *mut u8).unwrap();
        let r = Retired::new(p);
        assert_eq!(r.addr(), p.as_ptr() as usize);
        assert_eq!(r.birth_era, 0);
        let r2 = Retired::with_eras(p, 3, 9);
        assert_eq!((r2.birth_era, r2.retire_era), (3, 9));
    }

    fn arena() -> Arc<dyn PoolAllocator> {
        build_allocator(AllocatorKind::Sys, 1, CostModel::zero())
    }

    fn free_all(a: &Arc<dyn PoolAllocator>, mut list: RetiredList) {
        while let Some(r) = list.pop() {
            a.dealloc(0, r.ptr);
        }
    }

    #[test]
    fn fifo_push_pop_roundtrips_eras() {
        let a = arena();
        let mut list = RetiredList::new();
        let ptrs: Vec<_> = (0..3).map(|_| a.alloc(0, 64)).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            // SAFETY: live blocks of `a`, exclusively ours.
            unsafe { list.push(Retired::with_eras(p, i as u64, i as u64 + 10)) };
        }
        assert_eq!(list.len(), 3);
        for (i, &p) in ptrs.iter().enumerate() {
            let r = list.pop().expect("fifo entry");
            assert_eq!(r.ptr, p, "oldest first");
            assert_eq!((r.birth_era, r.retire_era), (i as u64, i as u64 + 10));
        }
        assert!(list.pop().is_none());
        assert_eq!(list.len(), 0);
        for p in ptrs {
            a.dealloc(0, p);
        }
    }

    #[test]
    fn push_retire_preserves_birth_era() {
        let a = arena();
        let p = a.alloc(0, 64);
        // SAFETY: live block.
        unsafe { epic_alloc::block::set_birth_era(p, 7) };
        let mut list = RetiredList::new();
        // SAFETY: live block, exclusively ours.
        unsafe { list.push_retire(p, 21) };
        let r = list.pop().unwrap();
        assert_eq!((r.birth_era, r.retire_era), (7, 21));
        a.dealloc(0, p);
    }

    #[test]
    fn push_front_is_lifo() {
        let a = arena();
        let mut list = RetiredList::new();
        let ptrs: Vec<_> = (0..3).map(|_| a.alloc(0, 64)).collect();
        for &p in &ptrs {
            // SAFETY: live blocks, exclusively ours.
            unsafe { list.push_front(Retired::new(p)) };
        }
        assert_eq!(list.pop().unwrap().ptr, ptrs[2], "newest first");
        assert_eq!(list.pop().unwrap().ptr, ptrs[1]);
        assert_eq!(list.pop().unwrap().ptr, ptrs[0]);
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
            front.push(Retired::new(ptrs[0]));
            front.push(Retired::new(ptrs[1]));
            back.push(Retired::new(ptrs[2]));
            back.push(Retired::new(ptrs[3]));
        }
        front.append(&mut back);
        assert_eq!(front.len(), 4);
        assert!(back.is_empty());
        back.append(&mut RetiredList::new()); // empty-into-empty is a no-op
        for &p in &ptrs {
            assert_eq!(front.pop().unwrap().ptr, p, "splice keeps FIFO order");
        }
        // Appending onto an emptied list re-links head and tail.
        let q = a.alloc(0, 64);
        let mut single = RetiredList::new();
        // SAFETY: live block, exclusively ours.
        unsafe { single.push(Retired::new(q)) };
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
        unsafe { list.push(Retired::new(p)) };
        let moved = list.take();
        assert!(list.is_empty());
        assert_eq!(moved.len(), 1);
        free_all(&a, moved);
    }
}
