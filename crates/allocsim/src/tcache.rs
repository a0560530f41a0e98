//! Thread caches: the bounded per-thread free buffers at the heart of the
//! RBF problem.
//!
//! jemalloc and tcmalloc both keep, per thread and per size class, a bounded
//! LIFO of recently-freed blocks. Allocation pops the newest entry; free
//! pushes. When a push overflows the bound, the *oldest* ~3/4 of the buffer
//! is flushed to the backing bin. The paper's whole point is that freeing a
//! large batch overflows this buffer repeatedly, while amortized freeing
//! lets allocations drain it between frees.
//!
//! The newest entry is not necessarily warm in cache: after a batch free
//! it is the end of a sweep over old garbage, and after a refill it comes
//! from a depot list or a fresh carve. The model behind `je`, `je_incr` and
//! `tc` therefore prefetches the block [`ThreadCache::peek`] names at each
//! allocation that follows another one, so the next finds it warm
//! (DESIGN.md §10).

use crate::block::BlockHeader;
use crate::classes::NUM_CLASSES;
use std::collections::VecDeque;

/// Default capacity of each (thread, size-class) cache bin.
///
/// jemalloc's default for small bins is 200 slots; we keep that. The
/// ablation bench sweeps this.
pub const DEFAULT_TCACHE_CAP: usize = 200;

/// Numerator/denominator of the flushed fraction (jemalloc flushes ~3/4,
/// keeping the newest 1/4).
pub const FLUSH_NUM: usize = 3;
/// See [`FLUSH_NUM`].
pub const FLUSH_DEN: usize = 4;

/// One thread's cache: a bin per size class.
pub struct ThreadCache {
    bins: [VecDeque<&'static BlockHeader>; NUM_CLASSES],
    cap: usize,
}

impl ThreadCache {
    /// Creates an empty cache with per-bin capacity `cap`.
    pub fn new(cap: usize) -> Self {
        assert!(
            cap >= FLUSH_DEN,
            "cache capacity too small to flush fractionally"
        );
        ThreadCache {
            bins: std::array::from_fn(|_| VecDeque::with_capacity(cap + 1)),
            cap,
        }
    }

    /// Per-bin capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Pops the most recently pushed block of `class`, if any (LIFO). It
    /// is warm only if something warmed it: under batch free, refill and
    /// prefill it is cold unless the caller prefetched the [`peek`] of the
    /// previous pop.
    ///
    /// [`peek`]: Self::peek
    #[inline]
    pub fn pop(&mut self, class: usize) -> Option<&'static BlockHeader> {
        self.bins[class].pop_back()
    }

    /// The block the next [`pop`](Self::pop) of `class` returns, if any,
    /// left in the bin.
    #[inline]
    pub fn peek(&self, class: usize) -> Option<&'static BlockHeader> {
        self.bins[class].back().copied()
    }

    /// Pushes a freed block. Returns `true` if the bin now exceeds capacity
    /// and must be flushed.
    #[inline]
    pub fn push(&mut self, class: usize, hdr: &'static BlockHeader) -> bool {
        let bin = &mut self.bins[class];
        bin.push_back(hdr);
        bin.len() > self.cap
    }

    /// Pushes a refilled block *without* triggering overflow (refills are
    /// bounded below capacity by construction).
    #[inline]
    pub fn push_refill(&mut self, class: usize, hdr: &'static BlockHeader) {
        self.bins[class].push_back(hdr);
    }

    /// Current occupancy of a bin.
    pub fn len(&self, class: usize) -> usize {
        self.bins[class].len()
    }

    /// Drains the oldest blocks of the bin into `out`: `quantum` of them,
    /// the *gradual* flush of the incremental jemalloc variant (`je_incr`:
    /// tiny critical sections instead of one long sweep), or by default
    /// `FLUSH_NUM/FLUSH_DEN` of the bin (jemalloc's flush shape: keep the
    /// newest quarter).
    pub fn drain_n(
        &mut self,
        class: usize,
        quantum: Option<usize>,
        out: &mut Vec<&'static BlockHeader>,
    ) {
        let bin = &mut self.bins[class];
        let flush_n = quantum.unwrap_or(bin.len() * FLUSH_NUM / FLUSH_DEN);
        out.extend(bin.drain(..flush_n.min(bin.len())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::HEADER_SIZE;
    use std::alloc::{alloc, Layout};

    fn header(owner: u32) -> &'static BlockHeader {
        let layout = Layout::from_size_align(HEADER_SIZE + 16, 16).unwrap();
        // Deliberately leaked: tests need 'static headers.
        // SAFETY: fresh allocation, correct layout.
        unsafe {
            let p = alloc(layout);
            BlockHeader::init(p as *mut BlockHeader, owner, 0);
            &*(p as *const BlockHeader)
        }
    }

    #[test]
    fn lifo_pop_order() {
        let mut tc = ThreadCache::new(8);
        let a = header(1);
        let b = header(2);
        assert!(!tc.push(0, a));
        assert!(!tc.push(0, b));
        assert_eq!(tc.pop(0).unwrap().owner, 2, "newest first");
        assert_eq!(tc.pop(0).unwrap().owner, 1);
        assert!(tc.pop(0).is_none());
    }

    /// Pops the bin empty, checking before each pop that `peek` names it.
    fn peek_names_every_pop(tc: &mut ThreadCache) -> Vec<u32> {
        std::iter::from_fn(|| {
            let next = tc.peek(0).map(BlockHeader::addr);
            let popped = tc.pop(0);
            assert_eq!(next, popped.map(BlockHeader::addr), "peek names the pop");
            popped.map(|h| h.owner)
        })
        .collect()
    }

    #[test]
    fn peek_is_the_next_pop() {
        let mut tc = ThreadCache::new(8);
        assert!(tc.peek(0).is_none(), "empty bin");
        assert!(tc.peek(1).is_none());

        tc.push(0, header(1));
        tc.push(0, header(2));
        assert_eq!(tc.len(0), 2, "peek takes nothing");
        assert_eq!(peek_names_every_pop(&mut tc), [2, 1], "after push");

        for i in 10..14 {
            tc.push_refill(0, header(i));
        }
        assert_eq!(
            peek_names_every_pop(&mut tc),
            [13, 12, 11, 10],
            "after refill"
        );

        for i in 20..29 {
            tc.push(0, header(i));
        }
        let mut out = Vec::new();
        tc.drain_n(0, None, &mut out);
        assert_eq!(peek_names_every_pop(&mut tc), [28, 27, 26], "after a flush");

        for i in 30..36 {
            tc.push(0, header(i));
        }
        out.clear();
        tc.drain_n(0, Some(6), &mut out);
        assert!(tc.peek(0).is_none(), "drained empty");
        assert!(peek_names_every_pop(&mut tc).is_empty());
    }

    #[test]
    fn overflow_signals_at_cap() {
        let mut tc = ThreadCache::new(4);
        for i in 0..4 {
            assert!(
                !tc.push(0, header(i)),
                "push {i} under cap must not overflow"
            );
        }
        assert!(tc.push(0, header(99)), "push past cap must signal flush");
    }

    #[test]
    fn drain_flush_takes_oldest_three_quarters() {
        let mut tc = ThreadCache::new(8);
        for i in 0..8 {
            tc.push(0, header(i));
        }
        let mut out = Vec::new();
        tc.drain_n(0, None, &mut out);
        assert_eq!(out.len(), 6, "3/4 of 8");
        let owners: Vec<u32> = out.iter().map(|h| h.owner).collect();
        assert_eq!(owners, vec![0, 1, 2, 3, 4, 5], "oldest first");
        assert_eq!(tc.len(0), 2, "newest quarter kept");
        // Remaining pops give the newest blocks.
        assert_eq!(tc.pop(0).unwrap().owner, 7);
    }

    #[test]
    fn drain_n_takes_oldest_quantum() {
        let mut tc = ThreadCache::new(8);
        for i in 0..8 {
            tc.push(0, header(i));
        }
        let mut out = Vec::new();
        tc.drain_n(0, Some(3), &mut out);
        let owners: Vec<u32> = out.iter().map(|h| h.owner).collect();
        assert_eq!(owners, vec![0, 1, 2], "oldest first, exactly n");
        assert_eq!(tc.len(0), 5);
        // Asking for more than available drains what exists.
        out.clear();
        tc.drain_n(0, Some(100), &mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(tc.len(0), 0);
    }
}
