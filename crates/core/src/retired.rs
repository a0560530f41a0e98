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
//!
//! One chain through the link would make every drain a serial
//! dependent-load chain: each pop waits for the previous block's `next`
//! to arrive from memory, and a one-ahead prefetch of that successor
//! cannot hide a miss behind a ~20 ns thread-cache push. A DEBRA batch of
//! 3 000 cold blocks then costs 3 000 misses back to back, which a
//! pointer-array bag never pays. So the list is eight chains,
//! interleaved: consecutive entries sit on consecutive chains, and a
//! drain keeps eight misses in flight.

use crate::sync::Ordering;
use epic_alloc::BlockHeader;
use std::ptr::NonNull;

/// Chains a [`RetiredList`] interleaves its entries over: enough misses in
/// flight to cover a drain's free, while a splice stays a handful of
/// stores.
const WAYS: usize = 8;

/// An intrusive FIFO list of retired blocks, threaded through each block's
/// [`BlockHeader::next`] link. The list writes nothing else in the header:
/// era schemes keep their `[birth, retire]` interval in the header's era
/// words themselves.
///
/// Entries are spread over `WAYS` (8) chains: entry *i* (0 = oldest)
/// lives on chain `(first + i) % WAYS`, so a pop takes the oldest entry's
/// chain head and prefetches that chain's successor, the entry `WAYS` pops
/// ahead. Push, push-front and pop are O(1) and a whole-list splice is
/// O(`WAYS`); none allocates: the spine *is* the retired memory. The list
/// is single-owner (a scheme's per-tid state); transferring it across
/// threads (background reclaimer, teardown) is sound because every
/// hand-off point synchronizes (channel send, thread join).
///
/// `push` is unsafe because linking writes through the pointer's header:
/// every entry must be a live block of a [`epic_alloc::PoolAllocator`]
/// that the caller exclusively owns from retirement to free — the same
/// contract [`crate::RawSmr::retire`] already imposes. Dropping a non-empty
/// list does not free its blocks; they stay owned by the allocator's chunk
/// store until it drops.
#[derive(Debug, Default)]
pub struct RetiredList {
    /// Header address of each chain's oldest entry (0 = empty chain).
    heads: [usize; WAYS],
    /// Header address of each chain's newest entry (0 = empty chain).
    tails: [usize; WAYS],
    /// The chain holding the oldest entry.
    first: usize,
    len: usize,
}

// SAFETY: the list owns its blocks exclusively; hand-off between threads
// happens only through synchronizing operations (see type docs).
unsafe impl Send for RetiredList {}

impl RetiredList {
    /// An empty list.
    pub const fn new() -> Self {
        RetiredList {
            heads: [0; WAYS],
            tails: [0; WAYS],
            first: 0,
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

    /// Links header `addr` (or a whole chain from `addr` to `last`) after
    /// chain `way`'s newest entry.
    #[inline]
    fn link_tail(&mut self, way: usize, addr: usize, last: usize) {
        if self.tails[way] == 0 {
            self.heads[way] = addr;
        } else {
            // SAFETY: `tails[way]` was linked from a valid header this list
            // exclusively owns.
            let tail = unsafe { &*(self.tails[way] as *const BlockHeader) };
            tail.next.store(addr, Ordering::Relaxed);
        }
        self.tails[way] = last;
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
        self.link_tail((self.first + self.len) % WAYS, addr, addr);
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
        let way = (self.first + WAYS - 1) % WAYS;
        hdr.next.store(self.heads[way], Ordering::Relaxed);
        self.heads[way] = hdr.addr();
        if self.tails[way] == 0 {
            self.tails[way] = self.heads[way];
        }
        self.first = way;
        self.len += 1;
    }

    /// Removes and returns the oldest entry.
    ///
    /// The entry's header line was prefetched when the entry `WAYS` pops
    /// older left the same chain, so a drain that frees each entry keeps
    /// `WAYS` header misses in flight instead of one.
    #[inline]
    pub fn pop(&mut self) -> Option<NonNull<u8>> {
        if self.len == 0 {
            return None;
        }
        let way = self.first;
        debug_assert_ne!(
            self.heads[way], 0,
            "a non-empty list's oldest chain is empty"
        );
        // SAFETY: a non-empty list's oldest entry heads chain `first`; it
        // was linked by a push from a valid header this list exclusively
        // owns.
        let hdr = unsafe { &*(self.heads[way] as *const BlockHeader) };
        let next = hdr.next.load(Ordering::Relaxed);
        self.heads[way] = next;
        if next == 0 {
            self.tails[way] = 0;
        } else {
            epic_alloc::block::prefetch_line(next);
        }
        self.first = (way + 1) % WAYS;
        self.len -= 1;
        Some(hdr.user_ptr())
    }

    /// Splices all of `other` onto this list's tail in O(`WAYS`), leaving
    /// `other` empty. FIFO order is preserved: `other`'s oldest entry
    /// follows this list's newest, and `other`'s chains move whole, each
    /// onto the chain its entries' new positions select.
    pub fn append(&mut self, other: &mut RetiredList) {
        if other.len == 0 {
            return;
        }
        for i in 0..WAYS.min(other.len) {
            let from = (other.first + i) % WAYS;
            let to = (self.first + self.len + i) % WAYS;
            self.link_tail(to, other.heads[from], other.tails[from]);
        }
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
    use epic_util::SplitMix64;
    use std::collections::VecDeque;
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

    /// Pops everything off `list`, checking each entry against `model`'s
    /// front, and returns the blocks to `spare`.
    fn drain_checked(
        list: &mut RetiredList,
        model: &mut VecDeque<NonNull<u8>>,
        spare: &mut Vec<NonNull<u8>>,
    ) {
        while let Some(want) = model.pop_front() {
            assert_eq!(list.pop(), Some(want));
            spare.push(want);
        }
        assert!(list.pop().is_none() && list.is_empty());
    }

    /// A list whose oldest entry sits on chain `skew`, holding `len` blocks
    /// taken from `spare` and also pushed onto `model`.
    fn skewed(
        skew: usize,
        len: usize,
        spare: &mut Vec<NonNull<u8>>,
        model: &mut VecDeque<NonNull<u8>>,
    ) -> RetiredList {
        let mut list = RetiredList::new();
        for _ in 0..skew {
            // SAFETY: spare blocks of the test's arena, exclusively ours.
            unsafe { list.push(spare[0]) };
            assert_eq!(list.pop(), Some(spare[0]));
        }
        for _ in 0..len {
            let p = spare.pop().expect("enough spare blocks");
            // SAFETY: as above.
            unsafe { list.push(p) };
            model.push_back(p);
        }
        list
    }

    #[test]
    fn append_splices_in_order_and_empties_source() {
        let a = arena();
        let mut spare: Vec<_> = (0..6 * WAYS).map(|_| a.alloc(0, 64)).collect();
        let lens = 1..=2 * WAYS + 1;
        // Every offset of either list's oldest chain, every length of
        // either list modulo the ways, and lists more than two laps long.
        for (skew_a, skew_b) in (0..WAYS).flat_map(|x| (0..WAYS).map(move |y| (x, y))) {
            for (len_a, len_b) in lens.clone().flat_map(|x| lens.clone().map(move |y| (x, y))) {
                let mut model = VecDeque::new();
                let mut front = skewed(skew_a, len_a, &mut spare, &mut model);
                let mut back = skewed(skew_b, len_b, &mut spare, &mut model);
                front.append(&mut back);
                assert!(back.is_empty() && back.pop().is_none());
                assert_eq!(front.len(), len_a + len_b);
                drain_checked(&mut front, &mut model, &mut spare);
            }
        }
        // Empty into empty is a no-op; appending onto an emptied list
        // re-links its chains.
        let (mut front, mut single) = (RetiredList::new(), RetiredList::new());
        front.append(&mut RetiredList::new());
        assert!(front.is_empty() && front.pop().is_none());
        // SAFETY: spare blocks of `a`, exclusively ours.
        unsafe {
            front.push(spare[1]);
            single.push(spare[0]);
        }
        assert_eq!(front.pop(), Some(spare[1]));
        front.append(&mut single);
        assert_eq!((front.len(), front.pop()), (1, Some(spare[0])));
        spare.into_iter().for_each(|p| a.dealloc(0, p));
    }

    #[test]
    fn matches_a_deque_model_over_random_operations() {
        const BLOCKS: usize = 40 * WAYS;
        let a = arena();
        let mut spare: Vec<_> = (0..BLOCKS).map(|_| a.alloc(0, 64)).collect();
        let (mut xs, mut ys) = (RetiredList::new(), RetiredList::new());
        let (mut mx, mut my) = (VecDeque::new(), VecDeque::new());
        let mut rng = SplitMix64::new(0x5eed_1157);
        for _ in 0..20_000 {
            let r = rng.next_u64();
            // One step in four works on ys, the rest on xs.
            let (list, model) = if (r >> 32).is_multiple_of(4) {
                (&mut ys, &mut my)
            } else {
                (&mut xs, &mut mx)
            };
            match r % 10 {
                // Pushes outnumber pops, so the lists run many laps of the
                // ways long until the spare blocks run out.
                0..=3 => {
                    let Some(p) = spare.pop() else { continue };
                    // SAFETY: a spare block of `a`, exclusively ours.
                    unsafe { list.push(p) };
                    model.push_back(p);
                }
                4 => {
                    let Some(p) = spare.pop() else { continue };
                    // SAFETY: as above.
                    unsafe { list.push_front(p) };
                    model.push_front(p);
                }
                5 | 6 => {
                    let got = list.pop();
                    assert_eq!(got, model.pop_front());
                    spare.extend(got);
                }
                7 if (r >> 40).is_multiple_of(8) => drain_checked(list, model, &mut spare),
                7 => {
                    xs.append(&mut ys);
                    mx.extend(my.drain(..));
                    assert!(ys.is_empty() && ys.pop().is_none());
                }
                8 => {
                    // ys becomes xs ++ ys through `take`.
                    let mut taken = xs.take();
                    assert!(xs.is_empty() && xs.pop().is_none());
                    taken.append(&mut ys);
                    ys = taken;
                    my = mx.drain(..).chain(my.drain(..)).collect();
                }
                _ => {
                    // Keep a pseudo-random half of xs, chosen by address.
                    let salt = r >> 8;
                    let keep = |p: NonNull<u8>| {
                        (p.as_ptr() as u64 >> 4 ^ salt)
                            .count_ones()
                            .is_multiple_of(2)
                    };
                    xs.partition_into(keep, &mut ys);
                    let (kept, moved): (VecDeque<_>, VecDeque<_>) =
                        mx.drain(..).partition(|&p| keep(p));
                    mx = kept;
                    my.extend(moved);
                }
            }
            assert_eq!((xs.len(), ys.len()), (mx.len(), my.len()));
            assert_eq!(
                (xs.is_empty(), ys.is_empty()),
                (mx.is_empty(), my.is_empty())
            );
        }
        drain_checked(&mut xs, &mut mx, &mut spare);
        drain_checked(&mut ys, &mut my, &mut spare);
        assert_eq!(spare.len(), BLOCKS);
        spare.into_iter().for_each(|p| a.dealloc(0, p));
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
