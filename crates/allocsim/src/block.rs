//! Block headers.
//!
//! Every block handed out by the pool models is preceded by a 32-byte header
//! carrying the metadata real allocators keep in page maps or radix trees:
//! which *bin* the block belongs to (arena / central list / page — "the heap
//! to which it should be returned", paper §3.2 fn. 2), its size class, an
//! intrusive free-list link, and a 64-bit **birth era** slot that the
//! era-based SMR schemes (HE, IBR, WFE) stamp at allocation time.

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
    /// Intrusive free-list link. Interpreted under the owning bin's lock in
    /// Je/Tc, and as a lock-free Treiber-stack link in Mi's cross-thread
    /// free list (hence atomic).
    pub next: AtomicUsize,
    /// Birth era stamped by era-based SMR schemes; untouched by the
    /// allocator models themselves except for zeroing on alloc.
    pub birth_era: AtomicU64,
    /// Retire era stamped by era-based SMR schemes at retirement, so the
    /// block carries its whole `[birth, retire]` interval while it waits
    /// in limbo and retirement needs no side allocation. The limbo lists
    /// themselves thread only through [`next`](Self::next); no other
    /// scheme and no allocator model reads or writes this word, except
    /// for zeroing on alloc.
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

/// An intrusive singly-linked free list of blocks, threaded through
/// [`BlockHeader::next`]. **Not** thread-safe: callers hold the owning bin's
/// lock (Je/Tc) or have exclusive ownership (thread caches, Mi local lists).
#[derive(Debug, Default)]
pub struct FreeList {
    head: usize,
    len: usize,
}

impl FreeList {
    /// An empty list.
    pub const fn new() -> Self {
        FreeList { head: 0, len: 0 }
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

    /// Pushes a block.
    ///
    /// # Safety
    /// `hdr` must be a valid, exclusively-owned block header not currently
    /// on any list.
    #[inline]
    pub unsafe fn push(&mut self, hdr: &BlockHeader) {
        hdr.next.store(self.head, Ordering::Relaxed);
        self.head = hdr.addr();
        self.len += 1;
    }

    /// Header address of the block the next [`pop`](Self::pop) returns,
    /// if any. Reads only the list, never the block.
    #[inline]
    pub fn peek_addr(&self) -> Option<usize> {
        (self.head != 0).then_some(self.head)
    }

    /// Pops a block, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<&'static BlockHeader> {
        if self.head == 0 {
            return None;
        }
        // SAFETY: `head` was stored by `push` from a valid header and the
        // list owner has exclusive access.
        let hdr = unsafe { &*(self.head as *const BlockHeader) };
        self.head = hdr.next.load(Ordering::Relaxed);
        self.len -= 1;
        Some(hdr)
    }

    /// Takes an entire chained list (from a Treiber-stack swap) and adopts
    /// it, counting its length.
    ///
    /// # Safety
    /// `head` must be the head of a valid, exclusively-owned chain.
    pub unsafe fn adopt_chain(&mut self, head: usize) {
        let mut cursor = head;
        while cursor != 0 {
            // SAFETY: chain validity guaranteed by caller.
            let hdr = unsafe { &*(cursor as *const BlockHeader) };
            let next = hdr.next.load(Ordering::Relaxed);
            // SAFETY: hdr is exclusively ours now.
            unsafe { self.push(hdr) };
            cursor = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{alloc, dealloc, Layout};

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
        let blocks: Vec<(*mut u8, Layout)> = (0..3).map(|_| raw_block()).collect();
        let mut list = FreeList::new();
        for (i, &(p, _)) in blocks.iter().enumerate() {
            // SAFETY: valid fresh blocks.
            unsafe {
                BlockHeader::init(p as *mut BlockHeader, i as u32, 0);
                list.push(&*(p as *const BlockHeader));
            }
        }
        assert_eq!(list.len(), 3);
        let owners: Vec<u32> = std::iter::from_fn(|| {
            let next = list.peek_addr();
            list.pop()
                .inspect(|h| assert_eq!(next, Some(h.addr()), "peek names the pop"))
        })
        .map(|h| h.owner)
        .collect();
        assert_eq!(owners, vec![2, 1, 0], "LIFO order");
        assert!(list.is_empty());
        assert_eq!(list.peek_addr(), None);
        assert!(list.pop().is_none());
        for (p, layout) in blocks {
            // SAFETY: allocated in this test.
            unsafe { dealloc(p, layout) };
        }
    }

    #[test]
    fn adopt_chain_counts() {
        let blocks: Vec<(*mut u8, Layout)> = (0..4).map(|_| raw_block()).collect();
        // Build a manual chain: b0 -> b1 -> b2 -> b3 -> null.
        for (i, &(p, _)) in blocks.iter().enumerate() {
            // SAFETY: fresh blocks.
            unsafe { BlockHeader::init(p as *mut BlockHeader, i as u32, 0) };
        }
        for w in blocks.windows(2) {
            // SAFETY: initialized above.
            let (a, b) = unsafe {
                (
                    &*(w[0].0 as *const BlockHeader),
                    &*(w[1].0 as *const BlockHeader),
                )
            };
            a.next.store(b.addr(), Ordering::Relaxed);
        }
        // SAFETY: last block terminates the chain.
        unsafe { &*(blocks[3].0 as *const BlockHeader) }
            .next
            .store(0, Ordering::Relaxed);

        let mut list = FreeList::new();
        // SAFETY: chain is valid and exclusively ours.
        unsafe { list.adopt_chain(blocks[0].0 as usize) };
        assert_eq!(list.len(), 4);
        for (p, layout) in blocks {
            // SAFETY: allocated in this test.
            unsafe { dealloc(p, layout) };
        }
    }
}
