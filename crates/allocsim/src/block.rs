//! Block headers, and the one list threaded through them.
//!
//! Every block handed out by the pool models is preceded by a 32-byte header
//! carrying the metadata real allocators keep in page maps or radix trees:
//! which *bin* the block belongs to (arena / central list / page — "the heap
//! to which it should be returned", paper §3.2 fn. 2), its size class, an
//! intrusive list link, and a 64-bit **birth era** slot that the
//! era-based SMR schemes (HE, IBR, WFE) stamp at allocation time.
//! [`BlockList`], threaded through that link, is the list a free or
//! retired block waits on: a stack in the pool models, a FIFO in the SMR
//! schemes' limbo bags.

use crate::classes::size_of_class;
use crate::sync::{AtomicU64, AtomicUsize, Ordering};
use std::ptr::NonNull;

/// Byte value debug builds write over freed user memory.
pub const POISON: u8 = 0xDE;

/// Header preceding each block's user memory. 32 bytes, 16-aligned.
#[repr(C, align(16))]
pub struct BlockHeader {
    /// Owning bin: arena index (Je), size-class index (Tc), page id (Mi),
    /// or `u32::MAX` (Sys).
    pub owner: u32,
    /// Size class index of the block.
    pub class: u32,
    /// Intrusive list link: the [`BlockList`] link, interpreted under the
    /// owning bin's lock in Je/Tc or by the list's one owner, and a
    /// lock-free Treiber-stack link in Mi's cross-thread free list (hence
    /// atomic).
    pub next: AtomicUsize,
    /// Birth era stamped by era-based SMR schemes; untouched by the
    /// allocator models themselves except for zeroing on alloc.
    pub birth_era: AtomicU64,
    /// Retire era stamped by era-based SMR schemes at retirement, so a
    /// block in limbo carries its `[birth, retire]` interval without a side
    /// allocation. Nothing else touches it, except for zeroing on alloc.
    pub retire_era: AtomicU64,
}

/// Size of the block header in bytes.
pub const HEADER_SIZE: usize = std::mem::size_of::<BlockHeader>();

const _: () = assert!(HEADER_SIZE == 32);

impl BlockHeader {
    /// Writes a fresh header in place.
    ///
    /// # Safety
    /// `hdr` must point to `HEADER_SIZE` writable bytes aligned to 16.
    pub unsafe fn init(hdr: *mut BlockHeader, owner: u32, class: u32) {
        // SAFETY: caller guarantees validity and alignment.
        unsafe {
            hdr.write(BlockHeader {
                owner,
                class,
                next: AtomicUsize::new(0),
                birth_era: AtomicU64::new(0),
                retire_era: AtomicU64::new(0),
            });
        }
    }

    /// Recovers the header pointer from a user pointer.
    ///
    /// # Safety
    /// `user` must have been produced by one of this crate's pool models
    /// (i.e. be preceded by a valid header).
    #[inline]
    pub unsafe fn from_user(user: NonNull<u8>) -> &'static BlockHeader {
        // SAFETY: models lay out [header][user]; caller guarantees origin.
        unsafe { &*(user.as_ptr().sub(HEADER_SIZE) as *const BlockHeader) }
    }

    /// The user pointer for this header.
    #[inline]
    pub fn user_ptr(&self) -> NonNull<u8> {
        // SAFETY: headers always precede a user area; the sum is non-null.
        unsafe { NonNull::new_unchecked((self as *const BlockHeader as *mut u8).add(HEADER_SIZE)) }
    }

    /// Header address as an integer key (free-list encoding).
    #[inline]
    pub fn addr(&self) -> usize {
        self as *const BlockHeader as usize
    }

    /// Prefetches every cache line of this block, header and user area,
    /// through [`prefetch_span`] with the class read from this header.
    ///
    /// The amortized-free side of the warm handout: AF frees the oldest
    /// garbage into a LIFO thread cache, so the block freed now is the one
    /// the next allocation writes; this warms it while it is still owned by
    /// the caller (see DESIGN.md §10).
    #[inline]
    pub fn prefetch_block(&self) {
        prefetch_span(self.addr(), self.class as usize);
    }
}

/// Cache-line size the block prefetch steps by.
const LINE_SIZE: usize = 64;

/// Bytes from the start of a block's header to the end of its user area:
/// the stride every pool model carves, and what the block prefetch covers.
#[inline]
pub fn span_bytes(class: usize) -> usize {
    HEADER_SIZE + size_of_class(class)
}

/// One address inside each cache line that the class-`class` block at
/// header address `base` touches, first line first. Every address lies in
/// `[base, base + span_bytes(class))`, so nothing past the block is named.
#[inline]
fn block_lines(base: usize, class: usize) -> impl Iterator<Item = usize> {
    let end = base + span_bytes(class);
    let first = base & !(LINE_SIZE - 1);
    (first..end)
        .step_by(LINE_SIZE)
        .map(move |line| line.max(base))
}

/// Prefetches every cache line of the class-`class` block whose header is
/// at `base`. The lines come from the class alone, so nothing is loaded:
/// `base` may be a block on a free list or a bump carve not yet written,
/// and no line past the block (the next block's header) is named.
#[inline]
pub fn prefetch_span(base: usize, class: usize) {
    for line in block_lines(base, class) {
        prefetch_line(line);
    }
}

/// Hints the cache line holding `addr` into L1 (`prefetcht0`; a no-op off
/// x86_64). A prefetch never faults and has no memory effects, so `addr`
/// need not be dereferenceable.
#[inline(always)]
pub fn prefetch_line(addr: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint with no architectural effect; SSE is
    // part of the x86_64 baseline.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(addr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = addr;
}

/// Stamps the SMR birth era of a block.
///
/// # Safety
/// `user` must be a live block from one of this crate's pool models.
#[inline]
pub unsafe fn set_birth_era(user: NonNull<u8>, era: u64) {
    // SAFETY: forwarded to caller.
    unsafe { BlockHeader::from_user(user) }
        .birth_era
        .store(era, Ordering::Release);
}

/// Reads the SMR birth era of a block.
///
/// # Safety
/// `user` must be a live block from one of this crate's pool models.
#[inline]
pub unsafe fn birth_era(user: NonNull<u8>) -> u64 {
    // SAFETY: forwarded to caller.
    unsafe { BlockHeader::from_user(user) }
        .birth_era
        .load(Ordering::Acquire)
}

/// Stamps the SMR retire era of a block.
///
/// # Safety
/// `user` must be a live block from one of this crate's pool models.
#[inline]
pub unsafe fn set_retire_era(user: NonNull<u8>, era: u64) {
    // SAFETY: forwarded to caller.
    unsafe { BlockHeader::from_user(user) }
        .retire_era
        .store(era, Ordering::Release);
}

/// Reads the SMR retire era of a block.
///
/// # Safety
/// `user` must be a live block from one of this crate's pool models.
#[inline]
pub unsafe fn retire_era(user: NonNull<u8>) -> u64 {
    // SAFETY: forwarded to caller.
    unsafe { BlockHeader::from_user(user) }
        .retire_era
        .load(Ordering::Acquire)
}

/// Chains a [`BlockList`] interleaves its entries over: misses in flight
/// per drain or refill, while a splice stays a handful of stores.
pub const WAYS: usize = 8;

/// The one intrusive list threaded through [`BlockHeader::next`] (it writes
/// nothing else in the header). The pool models use it as a stack
/// (`push_front` / `pop`: depot bins, mimalloc's page-local lists);
/// `epic_smr::RetiredList` wraps it as a FIFO (`push` / `pop` / `splice`).
///
/// Entry *i* (0 = the next pop) lives on chain `(first + i) % WAYS`, so a
/// pop takes chain `first`'s head and prefetches that chain's successor,
/// the entry `WAYS` pops ahead: a drain or a refill of cold blocks keeps
/// `WAYS` misses in flight, where one chain would load them one by one.
/// Push, push-front and pop are O(1), a splice O(`WAYS`), and nothing
/// allocates: the spine *is* the listed memory. **Not** thread-safe:
/// callers hold the owning bin's lock (Je/Tc) or own the list. Dropping
/// a non-empty list frees nothing; the chunk store owns its blocks.
#[derive(Debug, Default)]
pub struct BlockList {
    /// Header address of each chain's front entry (0 = empty chain).
    heads: [usize; WAYS],
    /// Header address of each chain's back entry (0 = empty chain).
    tails: [usize; WAYS],
    /// The chain holding the front entry.
    first: usize,
    len: usize,
}

impl BlockList {
    /// An empty list.
    pub const fn new() -> Self {
        BlockList {
            heads: [0; WAYS],
            tails: [0; WAYS],
            first: 0,
            len: 0,
        }
    }

    /// Number of blocks on the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no blocks are on the list.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Links header `addr` (or a whole chain from `addr` to `last`) after
    /// chain `way`'s back entry.
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

    /// Appends a block behind the back entry (FIFO use).
    ///
    /// # Safety
    /// `hdr` must be a valid block header, exclusively owned by the caller
    /// and on no other list, until it is popped.
    #[inline]
    pub unsafe fn push(&mut self, hdr: &BlockHeader) {
        hdr.next.store(0, Ordering::Relaxed);
        let addr = hdr.addr();
        self.link_tail((self.first + self.len) % WAYS, addr, addr);
        self.len += 1;
    }

    /// Prepends a block: the next [`pop`](Self::pop) returns it (stack
    /// use).
    ///
    /// # Safety
    /// Same contract as [`push`](Self::push).
    #[inline]
    pub unsafe fn push_front(&mut self, hdr: &BlockHeader) {
        let way = (self.first + WAYS - 1) % WAYS;
        hdr.next.store(self.heads[way], Ordering::Relaxed);
        self.heads[way] = hdr.addr();
        if self.tails[way] == 0 {
            self.tails[way] = self.heads[way];
        }
        self.first = way;
        self.len += 1;
    }

    /// Header address of the block the next [`pop`](Self::pop) returns,
    /// if any. Reads only the list, never the block.
    #[inline]
    pub fn peek_addr(&self) -> Option<usize> {
        (self.len != 0).then_some(self.heads[self.first])
    }

    /// Removes and returns the front entry.
    ///
    /// The entry's header line was prefetched when the entry `WAYS` pops
    /// earlier left the same chain, so a drain or a refill keeps `WAYS`
    /// header misses in flight instead of one.
    #[inline]
    pub fn pop(&mut self) -> Option<&'static BlockHeader> {
        if self.len == 0 {
            return None;
        }
        let way = self.first;
        debug_assert_ne!(
            self.heads[way], 0,
            "a non-empty list's front chain is empty"
        );
        // SAFETY: a non-empty list's front entry heads chain `first`; it was
        // linked by a push from a valid header this list exclusively owns.
        let hdr = unsafe { &*(self.heads[way] as *const BlockHeader) };
        let next = hdr.next.load(Ordering::Relaxed);
        self.heads[way] = next;
        if next == 0 {
            self.tails[way] = 0;
        } else {
            prefetch_line(next);
        }
        self.first = (way + 1) % WAYS;
        self.len -= 1;
        Some(hdr)
    }

    /// Links all of `other` behind this list's back entry in O(`WAYS`),
    /// FIFO order kept: each of `other`'s chains moves whole onto the chain
    /// its entries' new positions select.
    ///
    /// # Safety
    /// `other` still names its blocks afterwards: it must be reset before
    /// anything is pushed, popped or spliced through it again.
    #[inline]
    pub unsafe fn splice(&mut self, other: &BlockList) {
        for i in 0..WAYS.min(other.len) {
            let from = (other.first + i) % WAYS;
            let to = (self.first + self.len + i) % WAYS;
            self.link_tail(to, other.heads[from], other.tails[from]);
        }
        self.len += other.len;
    }

    /// Takes an entire null-terminated chain (from a Treiber-stack swap)
    /// and pushes it block by block onto the front, so the chain's last
    /// block pops first.
    ///
    /// # Safety
    /// `head` must be the head of a valid, exclusively-owned chain.
    pub unsafe fn adopt_chain(&mut self, mut head: usize) {
        while head != 0 {
            // SAFETY: chain validity guaranteed by caller.
            let hdr = unsafe { &*(head as *const BlockHeader) };
            head = hdr.next.load(Ordering::Relaxed);
            // SAFETY: hdr is exclusively ours now.
            unsafe { self.push_front(hdr) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_allocator, AllocatorKind, CostModel, PoolAllocator};
    use epic_util::SplitMix64;
    use std::alloc::{alloc, dealloc, Layout};
    use std::collections::VecDeque;
    use std::sync::Arc;

    fn raw_block() -> (*mut u8, Layout) {
        let layout = Layout::from_size_align(HEADER_SIZE + 64, 16).unwrap();
        // SAFETY: valid layout.
        let p = unsafe { alloc(layout) };
        assert!(!p.is_null());
        (p, layout)
    }

    #[test]
    fn header_user_roundtrip() {
        let (p, layout) = raw_block();
        // SAFETY: p is valid for the header.
        unsafe { BlockHeader::init(p as *mut BlockHeader, 3, 5) };
        // SAFETY: p points at an initialized header.
        let hdr = unsafe { &*(p as *const BlockHeader) };
        let user = hdr.user_ptr();
        // SAFETY: user came from a model-style layout.
        let hdr2 = unsafe { BlockHeader::from_user(user) };
        assert_eq!(hdr2.owner, 3);
        assert_eq!(hdr2.class, 5);
        assert!(std::ptr::eq(hdr, hdr2));
        // SAFETY: allocated above with the same layout.
        unsafe { dealloc(p, layout) };
    }

    #[test]
    fn birth_era_accessors() {
        let (p, layout) = raw_block();
        // SAFETY: as above.
        unsafe {
            BlockHeader::init(p as *mut BlockHeader, 0, 0);
            let user = (*(p as *const BlockHeader)).user_ptr();
            set_birth_era(user, 42);
            assert_eq!(birth_era(user), 42);
            dealloc(p, layout);
        }
    }

    #[test]
    fn retire_era_accessors_and_init() {
        let (p, layout) = raw_block();
        // SAFETY: as above.
        unsafe {
            BlockHeader::init(p as *mut BlockHeader, 0, 0);
            let user = (*(p as *const BlockHeader)).user_ptr();
            assert_eq!(retire_era(user), 0, "fresh headers zero the retire era");
            set_retire_era(user, 99);
            assert_eq!(retire_era(user), 99);
            assert_eq!(birth_era(user), 0, "the two era words are independent");
            dealloc(p, layout);
        }
    }

    #[test]
    fn block_lines_cover_exactly_the_block() {
        use crate::classes::NUM_CLASSES;
        assert_eq!(span_bytes(0), HEADER_SIZE + 16);
        assert_eq!(span_bytes(NUM_CLASSES - 1), HEADER_SIZE + 4096);
        for class in 0..NUM_CLASSES {
            let span = span_bytes(class);
            assert_eq!(span, HEADER_SIZE + size_of_class(class));
            // Headers are 16-aligned, so a block starts at one of four
            // offsets within its first line.
            for base in (0x10_000..0x10_000 + LINE_SIZE).step_by(16) {
                let end = base + span;
                let lines: Vec<usize> = block_lines(base, class).collect();
                assert!(
                    lines.iter().all(|&a| (base..end).contains(&a)),
                    "class {class} base {base:#x}: address outside the block"
                );
                let named: Vec<usize> = lines.iter().map(|a| a / LINE_SIZE).collect();
                let spanned: Vec<usize> = (base / LINE_SIZE..=(end - 1) / LINE_SIZE).collect();
                assert_eq!(
                    named, spanned,
                    "class {class} base {base:#x}: every line once, in order"
                );
            }
        }
        // The ABtree's 256-B class is five lines when the header is
        // line-aligned, OCC/DGT's 96 B two.
        assert_eq!(block_lines(0x10_000, 9).count(), 5);
        assert_eq!(block_lines(0x10_000, 5).count(), 2);

        // `prefetch_block` reads its span from a written header, the models'
        // `prefetch_span(addr, class)` from the list and the bin: for a real
        // header at each offset of a line, in every class, the two name the
        // same lines.
        let layout =
            Layout::from_size_align(LINE_SIZE + span_bytes(NUM_CLASSES - 1), LINE_SIZE).unwrap();
        // SAFETY: valid, non-zero layout.
        let buf = unsafe { alloc(layout) } as usize;
        assert_ne!(buf, 0);
        for class in 0..NUM_CLASSES {
            for base in (buf..buf + LINE_SIZE).step_by(16) {
                // SAFETY: `base` is 16-aligned inside `buf`, with the whole
                // span of the largest class after it.
                let hdr = unsafe {
                    BlockHeader::init(base as *mut BlockHeader, 7, class as u32);
                    &*(base as *const BlockHeader)
                };
                let by_header: Vec<usize> = block_lines(hdr.addr(), hdr.class as usize).collect();
                let by_class: Vec<usize> = block_lines(base, class).collect();
                assert_eq!(by_header, by_class, "class {class} offset {}", base - buf);
            }
        }
        // SAFETY: allocated above with the same layout.
        unsafe { dealloc(buf as *mut u8, layout) };
    }

    #[test]
    fn freelist_lifo_order() {
        // Past three laps of the ways, so every chain holds several blocks.
        let n = 3 * WAYS + 1;
        let blocks: Vec<(*mut u8, Layout)> = (0..n).map(|_| raw_block()).collect();
        let mut list = BlockList::new();
        for (i, &(p, _)) in blocks.iter().enumerate() {
            // SAFETY: valid fresh blocks.
            unsafe {
                BlockHeader::init(p as *mut BlockHeader, i as u32, 0);
                list.push_front(&*(p as *const BlockHeader));
            }
        }
        assert_eq!(list.len(), n);
        let owners: Vec<u32> = std::iter::from_fn(|| {
            let next = list.peek_addr();
            list.pop()
                .inspect(|h| assert_eq!(next, Some(h.addr()), "peek names the pop"))
        })
        .map(|h| h.owner)
        .collect();
        assert_eq!(
            owners,
            (0..n as u32).rev().collect::<Vec<_>>(),
            "LIFO order"
        );
        assert!(list.is_empty());
        assert_eq!(list.peek_addr(), None);
        assert!(list.pop().is_none());
        for (p, layout) in blocks {
            // SAFETY: allocated in this test.
            unsafe { dealloc(p, layout) };
        }
    }

    /// Links `chain` into one null-terminated chain through `next`, as a
    /// Treiber stack's swap hands it over, and returns its head (0 if
    /// empty).
    fn link_chain(chain: &[&BlockHeader]) -> usize {
        for w in chain.windows(2) {
            w[0].next.store(w[1].addr(), Ordering::Relaxed);
        }
        if let Some(last) = chain.last() {
            last.next.store(0, Ordering::Relaxed);
        }
        chain.first().map_or(0, |h| h.addr())
    }

    #[test]
    fn adopt_chain_counts() {
        let blocks: Vec<(*mut u8, Layout)> = (0..4).map(|_| raw_block()).collect();
        let hdrs: Vec<&BlockHeader> = blocks
            .iter()
            .enumerate()
            .map(|(i, &(p, _))| {
                // SAFETY: fresh blocks.
                unsafe {
                    BlockHeader::init(p as *mut BlockHeader, i as u32, 0);
                    &*(p as *const BlockHeader)
                }
            })
            .collect();
        // b0 -> b1 -> b2 -> b3 -> null.
        let head = link_chain(&hdrs);

        let mut list = BlockList::new();
        // SAFETY: chain is valid and exclusively ours.
        unsafe { list.adopt_chain(head) };
        assert_eq!(list.len(), 4);
        let owners: Vec<u32> = std::iter::from_fn(|| list.pop()).map(|h| h.owner).collect();
        assert_eq!(owners, [3, 2, 1, 0], "the chain's last block pops first");
        for (p, layout) in blocks {
            // SAFETY: allocated in this test.
            unsafe { dealloc(p, layout) };
        }
    }

    /// `n` blocks of a `Sys` pool, by header; return them with
    /// [`free_blocks`].
    fn sys_blocks(n: usize) -> (Arc<dyn PoolAllocator>, Vec<&'static BlockHeader>) {
        let a = build_allocator(AllocatorKind::Sys, 1, CostModel::zero());
        let blocks = (0..n)
            // SAFETY: a live block of `a`.
            .map(|_| unsafe { BlockHeader::from_user(a.alloc(0, 64)) })
            .collect();
        (a, blocks)
    }

    fn free_blocks(a: &Arc<dyn PoolAllocator>, blocks: Vec<&'static BlockHeader>) {
        blocks.into_iter().for_each(|h| a.dealloc(0, h.user_ptr()));
    }

    /// Splices all of `ys` onto `xs` and empties `ys`: `RetiredList::append`.
    fn append(xs: &mut BlockList, ys: &mut BlockList) {
        // SAFETY: `ys` is reset right after.
        unsafe { xs.splice(ys) };
        *ys = BlockList::new();
    }

    /// Pops everything off `list`, checking each entry against `model`'s
    /// front, and returns the blocks to `spare`.
    fn drain_checked(
        list: &mut BlockList,
        model: &mut VecDeque<&'static BlockHeader>,
        spare: &mut Vec<&'static BlockHeader>,
    ) {
        while let Some(want) = model.pop_front() {
            assert_eq!(list.pop().map(BlockHeader::addr), Some(want.addr()));
            spare.push(want);
        }
        assert!(list.pop().is_none() && list.is_empty());
    }

    /// A list whose front entry sits on chain `skew`, holding `len` blocks
    /// taken from `spare` and also pushed onto `model`.
    fn skewed(
        skew: usize,
        len: usize,
        spare: &mut Vec<&'static BlockHeader>,
        model: &mut VecDeque<&'static BlockHeader>,
    ) -> BlockList {
        let mut list = BlockList::new();
        for _ in 0..skew {
            // SAFETY: spare blocks of the test's pool, exclusively ours.
            unsafe { list.push(spare[0]) };
            assert_eq!(list.pop().map(BlockHeader::addr), Some(spare[0].addr()));
        }
        for _ in 0..len {
            let h = spare.pop().expect("enough spare blocks");
            // SAFETY: as above.
            unsafe { list.push(h) };
            model.push_back(h);
        }
        list
    }

    #[test]
    fn stack_matches_a_vec_model_from_every_starting_chain() {
        const BLOCKS: usize = 40 * WAYS;
        let (a, mut spare) = sys_blocks(BLOCKS);
        let mut rng = SplitMix64::new(0x5eed_57ac);
        for skew in 0..WAYS {
            let mut list = skewed(skew, 0, &mut spare, &mut VecDeque::new());
            let mut model: Vec<&'static BlockHeader> = Vec::new();
            for _ in 0..5_000 {
                let r = rng.next_u64();
                match r % 8 {
                    // Pushes outnumber pops, so the stack runs many laps of
                    // the ways deep until the spare blocks run out.
                    0..=3 => {
                        let Some(h) = spare.pop() else { continue };
                        // SAFETY: a spare block of `a`, exclusively ours.
                        unsafe { list.push_front(h) };
                        model.push(h);
                    }
                    4 => {
                        // A cross-thread chain of 1 to 2 * WAYS + 1 blocks.
                        let k = (1 + (r >> 8) as usize % (2 * WAYS + 1)).min(spare.len());
                        let chain = spare.split_off(spare.len() - k);
                        let head = link_chain(&chain);
                        // SAFETY: a valid chain of spare blocks, exclusively
                        // ours.
                        unsafe { list.adopt_chain(head) };
                        model.extend(chain);
                    }
                    5 if (r >> 40).is_multiple_of(16) => {
                        while let Some(want) = model.pop() {
                            assert_eq!(list.pop().map(BlockHeader::addr), Some(want.addr()));
                            spare.push(want);
                        }
                    }
                    _ => {
                        let next = list.peek_addr();
                        let got = list.pop();
                        assert_eq!(next, got.map(BlockHeader::addr), "peek names the pop");
                        assert_eq!(next, model.pop().map(BlockHeader::addr));
                        spare.extend(got);
                    }
                }
                assert_eq!(list.len(), model.len(), "skew {skew}");
                assert_eq!(list.is_empty(), model.is_empty());
            }
            while let Some(want) = model.pop() {
                assert_eq!(list.peek_addr(), Some(want.addr()));
                assert_eq!(list.pop().map(BlockHeader::addr), Some(want.addr()));
                spare.push(want);
            }
            assert!(list.pop().is_none() && list.peek_addr().is_none());
        }
        assert_eq!(spare.len(), BLOCKS);
        free_blocks(&a, spare);
    }

    #[test]
    fn append_splices_in_order_and_empties_source() {
        let (a, mut spare) = sys_blocks(6 * WAYS);
        let lens = 1..=2 * WAYS + 1;
        // Every offset of either list's front chain, every length of
        // either list modulo the ways, and lists more than two laps long.
        for (skew_a, skew_b) in (0..WAYS).flat_map(|x| (0..WAYS).map(move |y| (x, y))) {
            for (len_a, len_b) in lens.clone().flat_map(|x| lens.clone().map(move |y| (x, y))) {
                let mut model = VecDeque::new();
                let mut front = skewed(skew_a, len_a, &mut spare, &mut model);
                let mut back = skewed(skew_b, len_b, &mut spare, &mut model);
                append(&mut front, &mut back);
                assert!(back.is_empty() && back.pop().is_none());
                assert_eq!(front.len(), len_a + len_b);
                drain_checked(&mut front, &mut model, &mut spare);
            }
        }
        // Empty into empty is a no-op; appending onto an emptied list
        // re-links its chains.
        let (mut front, mut single) = (BlockList::new(), BlockList::new());
        append(&mut front, &mut BlockList::new());
        assert!(front.is_empty() && front.pop().is_none());
        // SAFETY: spare blocks of `a`, exclusively ours.
        unsafe {
            front.push(spare[1]);
            single.push(spare[0]);
        }
        assert_eq!(front.pop().map(BlockHeader::addr), Some(spare[1].addr()));
        append(&mut front, &mut single);
        assert_eq!(front.len(), 1);
        assert_eq!(front.pop().map(BlockHeader::addr), Some(spare[0].addr()));
        free_blocks(&a, spare);
    }

    #[test]
    fn matches_a_deque_model_over_random_operations() {
        const BLOCKS: usize = 40 * WAYS;
        let (a, mut spare) = sys_blocks(BLOCKS);
        let (mut xs, mut ys) = (BlockList::new(), BlockList::new());
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
                    let Some(h) = spare.pop() else { continue };
                    // SAFETY: a spare block of `a`, exclusively ours.
                    unsafe { list.push(h) };
                    model.push_back(h);
                }
                4 => {
                    let Some(h) = spare.pop() else { continue };
                    // SAFETY: as above.
                    unsafe { list.push_front(h) };
                    model.push_front(h);
                }
                5 | 6 => {
                    let got = list.pop();
                    assert_eq!(
                        got.map(BlockHeader::addr),
                        model.pop_front().map(BlockHeader::addr)
                    );
                    spare.extend(got);
                }
                7 if (r >> 40).is_multiple_of(8) => drain_checked(list, model, &mut spare),
                7 => {
                    append(&mut xs, &mut ys);
                    mx.extend(my.drain(..));
                    assert!(ys.is_empty() && ys.pop().is_none());
                }
                8 => {
                    // ys becomes xs ++ ys through `take`.
                    let mut taken = std::mem::take(&mut xs);
                    assert!(xs.is_empty() && xs.pop().is_none());
                    append(&mut taken, &mut ys);
                    ys = taken;
                    my = mx.drain(..).chain(my.drain(..)).collect();
                }
                _ => {
                    // Keep a pseudo-random half of xs, chosen by address,
                    // and move the rest onto ys: a reclamation scan's
                    // partition, relinked in place.
                    let salt = r >> 8;
                    let keep = |h: &BlockHeader| {
                        (h.user_ptr().as_ptr() as u64 >> 4 ^ salt)
                            .count_ones()
                            .is_multiple_of(2)
                    };
                    let mut kept = BlockList::new();
                    while let Some(h) = xs.pop() {
                        let target = if keep(h) { &mut kept } else { &mut ys };
                        // SAFETY: popped from xs, so still exclusively ours.
                        unsafe { target.push(h) };
                    }
                    append(&mut xs, &mut kept);
                    let (kept, moved): (VecDeque<_>, VecDeque<_>) =
                        mx.drain(..).partition(|&h| keep(h));
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
        free_blocks(&a, spare);
    }
}
