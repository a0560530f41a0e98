//! The thread-cache allocator: one model for jemalloc (`je`, `je_incr`) and
//! tcmalloc (`tc`).
//!
//! Both allocators have the shape the paper's mechanism needs (§3.2,
//! Appendix B): allocation and free hit a bounded per-thread, per-class
//! cache ([`ThreadCache`]) that overflows into a locked backing store. They
//! differ only in that store, the [`Backing`]:
//!
//! * **Arenas** (jemalloc 5.0.1): `4 × ncpu` arenas, each a spin-locked set
//!   of per-class free lists plus a bump cursor over chunks. A thread
//!   allocates from its *home* arena (`tid mod arenas`), so a block freed by
//!   another thread is "remote" and its return crosses to another thread's
//!   arena, with the lock held, which is where the paper measures 39.8% of
//!   total time at 192 threads.
//! * **Central** (tcmalloc): one global central free list per size class
//!   under its own lock. "Accesses to the central free list can result in
//!   substantial contention in systems with many cores": with batch frees
//!   every flushing thread serializes on the same per-class lock, which is
//!   why the TC numbers in Table 3 are even worse than JE.
//!
//! A free that overflows the cache bin flushes its oldest 3/4
//! (`je_tcache_bin_flush_small`): take the depot of the first remaining
//! block, **lock that depot**, sweep the whole remaining batch returning
//! every block that belongs there, and repeat until the batch is empty.
//! Under `Central` every block of a flush maps to one depot, so a flush
//! takes one lock.
//! A depot's lists are [`BlockList`] stacks: a refill walks freed blocks
//! (jemalloc's slab bitmaps never do), so the walk keeps eight misses in
//! flight rather than one.

use crate::block::{prefetch_span, span_bytes, BlockHeader, BlockList};
use crate::chunks::{BumpCursor, ChunkStore};
use crate::classes::{class_of, NUM_CLASSES};
use crate::cost::CostModel;
use crate::spinbin::{BinGuard, SpinBin};
use crate::stats::{AllocSnapshot, PerThread, ThreadAllocStats};
use crate::tcache::ThreadCache;
use crate::{AllocatorKind, PoolAllocator, Tid, JE_INCR_QUANTUM};

use epic_util::{CachePadded, Clock, TidSlots};
use std::ptr::NonNull;

/// The backing store behind the thread caches. It decides three things,
/// in [`CachedModel::home`], [`CachedModel::depot`] and the owner re-stamp
/// in `alloc`, and nothing else branches on it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Backing {
    /// jemalloc: per-CPU arenas. A block's owner is the arena that carved
    /// it, stamped once.
    Arenas,
    /// tcmalloc: one central list per size class. A block's owner is the
    /// last thread that allocated it, re-stamped on every handout.
    Central,
}

/// One lock's worth of backing store: per-class intrusive free lists plus a
/// bump cursor. Always accessed under its [`SpinBin`]. A `Central` depot
/// only ever uses the list of its own class.
struct Depot {
    bins: [BlockList; NUM_CLASSES],
    bump: BumpCursor,
}

/// Per-thread state: the cache plus a reusable flush scratch buffer.
struct CacheThread {
    cache: ThreadCache,
    scratch: Vec<&'static BlockHeader>,
    /// True from an `alloc` to the next `dealloc`. Only inside such a run
    /// is a bin's back the next handout: a free in between pushes the
    /// block the next alloc takes instead (see `alloc`).
    in_alloc_run: bool,
}

/// The thread-cache pool allocator behind `je`, `je_incr` and `tc`. See
/// module docs.
pub(crate) struct CachedModel {
    store: ChunkStore,
    depots: Box<[CachePadded<SpinBin<Depot>>]>,
    threads: TidSlots<CacheThread>,
    counters: PerThread,
    cost: CostModel,
    backing: Backing,
    refill_batch: usize,
    /// `Some(q)`: the *incremental-flush* variant (`je_incr`), where an
    /// overflow returns only the oldest `q` blocks instead of 3/4 of the
    /// bin. This is the allocator-side fix the paper's footnote 3 leaves as
    /// future work ("modify the allocator itself to be sensitive to the
    /// possibility of batch frees coming from the reclamation algorithm"):
    /// critical sections shrink from O(bin) to O(q), and the bin stays near
    /// capacity so subsequent allocations reuse locally, recovering most of
    /// amortized freeing's benefit without touching the SMR scheme
    /// (`ablation_allocator_fix`).
    flush_quantum: Option<usize>,
    name: &'static str,
}

impl CachedModel {
    /// Builds the model for `kind`, which must be `Je`, `JeIncr` or `Tc`.
    pub(crate) fn new(
        kind: AllocatorKind,
        max_threads: usize,
        cost: CostModel,
        tcache_cap: usize,
    ) -> Self {
        let quantum = (kind == AllocatorKind::JeIncr).then_some(JE_INCR_QUANTUM);
        Self::with_quantum(kind, max_threads, cost, tcache_cap, quantum)
    }

    fn with_quantum(
        kind: AllocatorKind,
        max_threads: usize,
        cost: CostModel,
        tcache_cap: usize,
        flush_quantum: Option<usize>,
    ) -> Self {
        assert!(
            flush_quantum != Some(0),
            "flush quantum must free at least one block"
        );
        let (backing, depots) = match kind {
            AllocatorKind::Je | AllocatorKind::JeIncr => (Backing::Arenas, cost.num_arenas()),
            AllocatorKind::Tc => (Backing::Central, NUM_CLASSES),
            AllocatorKind::Mi | AllocatorKind::Sys => {
                unreachable!("{} has no thread cache", kind.name())
            }
        };
        let depots = (0..depots)
            .map(|_| {
                CachePadded::new(SpinBin::new(Depot {
                    bins: std::array::from_fn(|_| BlockList::new()),
                    bump: BumpCursor::empty(),
                }))
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        CachedModel {
            store: ChunkStore::new(),
            depots,
            threads: TidSlots::new_with(max_threads, |_| CacheThread {
                cache: ThreadCache::new(tcache_cap),
                scratch: Vec::with_capacity(tcache_cap),
                in_alloc_run: false,
            }),
            counters: PerThread::new(max_threads),
            cost,
            backing,
            refill_batch: (tcache_cap / 2).max(1),
            flush_quantum,
            name: kind.name(),
        }
    }

    /// The owner `tid` stamps on the blocks it carves, and against which a
    /// flushed block is remote: its home arena, or under `Central` the
    /// thread itself.
    #[inline]
    fn home(&self, tid: Tid) -> u32 {
        match self.backing {
            Backing::Arenas => (tid % self.depots.len()) as u32,
            Backing::Central => tid as u32,
        }
    }

    /// The depot that serves and takes back class-`class` blocks of
    /// `owner`: the owner arena, or the class's central list.
    #[inline]
    fn depot(&self, owner: u32, class: usize) -> usize {
        match self.backing {
            Backing::Arenas => owner as usize,
            Backing::Central => class,
        }
    }

    /// Locks a depot, charging measured wait time to `tid` when contended.
    /// Waiting SPINS (see [`crate::spinbin`]), modelling
    /// `je_malloc_mutex_lock_slow`, whose burned cycles are the paper's
    /// `% lock` column.
    fn lock_depot(&self, tid: Tid, depot: usize) -> BinGuard<'_, Depot> {
        let m = &*self.depots[depot];
        if let Some(g) = m.try_lock() {
            return g;
        }
        let t = Clock::start();
        let g = m.lock();
        self.counters.get(tid).add_lock_wait_ns(t.elapsed_ns());
        g
    }

    /// Refills `tid`'s cache bin for `class` from its depot and returns one
    /// block. Called with the cache bin empty.
    fn refill(&self, tid: Tid, class: usize) -> &'static BlockHeader {
        let home = self.home(tid);
        let stride = span_bytes(class);
        self.counters.get(tid).refill();

        // SAFETY: tid-exclusivity per the PoolAllocator contract.
        let thread = unsafe { self.threads.get_mut(tid) };
        let mut depot = self.lock_depot(tid, self.depot(home, class));
        let mut last: Option<&'static BlockHeader> = None;
        for _ in 0..self.refill_batch {
            let hdr = match depot.bins[class].pop() {
                Some(h) => h,
                None => {
                    let raw = depot.bump.carve(&self.store, stride);
                    // SAFETY: `carve` returned `stride` fresh bytes, aligned
                    // to the chunk alignment (every stride is 16-multiple).
                    unsafe { BlockHeader::init(raw as *mut BlockHeader, home, class as u32) };
                    // SAFETY: just initialized.
                    unsafe { &*(raw as *const BlockHeader) }
                }
            };
            self.cost.refill_object();
            if let Some(prev) = last.replace(hdr) {
                thread.cache.push_refill(class, prev);
            }
        }
        last.expect("refill_batch >= 1")
    }

    /// `je_tcache_bin_flush_small`: returns the oldest 3/4 of the bin (or,
    /// in the incremental variant, the oldest `flush_quantum` blocks) to
    /// their depots, sweeping the whole remaining batch per depot lock.
    fn flush(&self, tid: Tid, class: usize) {
        let counters = self.counters.get(tid);
        let flush_clock = Clock::start();
        let home = self.home(tid);

        // SAFETY: tid-exclusivity per the PoolAllocator contract.
        let thread = unsafe { self.threads.get_mut(tid) };
        thread.scratch.clear();
        thread
            .cache
            .drain_n(class, self.flush_quantum, &mut thread.scratch);
        let flushed = thread.scratch.len() as u64;

        while let Some(first) = thread.scratch.first() {
            let target = self.depot(first.owner, class);
            let mut depot = self.lock_depot(tid, target);
            // Sweep the entire remaining batch while holding the lock:
            // exactly jemalloc's loop, and exactly why flushes are long.
            let mut kept = 0;
            for i in 0..thread.scratch.len() {
                let hdr = thread.scratch[i];
                if self.depot(hdr.owner, class) == target {
                    // SAFETY: block came from dealloc; exclusively ours.
                    unsafe { depot.bins[class].push_front(hdr) };
                    if hdr.owner != home {
                        counters.remote(1);
                        self.cost.remote_object();
                    }
                } else {
                    thread.scratch[kept] = hdr;
                    kept += 1;
                }
            }
            drop(depot);
            thread.scratch.truncate(kept);
        }
        counters.flush(flushed);
        counters.add_flush_ns(flush_clock.elapsed_ns());
    }
}

impl PoolAllocator for CachedModel {
    fn alloc(&self, tid: Tid, size: usize) -> NonNull<u8> {
        let class = class_of(size);
        let counters = self.counters.get(tid);
        let timed = counters.on_alloc();
        let clock = timed.then(Clock::start);

        // SAFETY: tid-exclusivity per the PoolAllocator contract.
        let thread = unsafe { self.threads.get_mut(tid) };
        let hdr = match thread.cache.pop(class) {
            Some(h) => {
                counters.cache_hit();
                h
            }
            None => self.refill(tid, class),
        };
        // Inside a run of allocations the bin's new back is the next
        // handout of this class, and it may be cold (refilled, or the end
        // of a batch free's sweep): warm it now rather than stall the write
        // that follows that alloc (DESIGN.md §10). After a free the next
        // handout is usually the next free's block, which AF's drain warms
        // itself. Nothing handed out or counted changes.
        // SAFETY: as above; `refill` has returned its own borrow.
        let thread = unsafe { self.threads.get_mut(tid) };
        if thread.in_alloc_run {
            if let Some(next) = thread.cache.peek(class) {
                prefetch_span(next.addr(), class);
            }
        }
        thread.in_alloc_run = true;
        if self.backing == Backing::Central {
            // The last allocator of a block owns it for remote-free
            // accounting; only read racily by stats.
            let hdr_mut = hdr as *const BlockHeader as *mut BlockHeader;
            // SAFETY: we exclusively own this block until we hand it out.
            unsafe { (*hdr_mut).owner = tid as u32 };
        }
        if let Some(c) = clock {
            counters.add_sampled_alloc_ns(c.elapsed_ns());
        }
        hdr.user_ptr()
    }

    fn dealloc(&self, tid: Tid, ptr: NonNull<u8>) {
        let counters = self.counters.get(tid);
        let timed = counters.on_dealloc();
        let clock = timed.then(Clock::start);

        // SAFETY: ptr was produced by this allocator per the contract.
        let hdr = unsafe { BlockHeader::from_user(ptr) };
        let class = hdr.class as usize;
        #[cfg(debug_assertions)]
        // SAFETY: the user area of a freed block is dead; poison it.
        unsafe {
            std::ptr::write_bytes(
                ptr.as_ptr(),
                crate::block::POISON,
                crate::classes::size_of_class(class),
            );
        }

        // SAFETY: tid-exclusivity per the PoolAllocator contract.
        let thread = unsafe { self.threads.get_mut(tid) };
        thread.in_alloc_run = false;
        let overflow = thread.cache.push(class, hdr);
        if let Some(c) = clock {
            counters.add_sampled_free_ns(c.elapsed_ns());
        }
        if overflow {
            self.flush(tid, class);
        }
    }

    fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            totals: self.counters.sum(),
            peak_bytes: self.store.total_bytes(),
            chunks: self.store.chunk_count(),
        }
    }

    fn thread_stats(&self, tid: Tid) -> ThreadAllocStats {
        self.counters.get(tid).snapshot()
    }

    fn peak_bytes(&self) -> usize {
        self.store.total_bytes()
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }
}

/// Test cases shared by the two backings. Each runs every kind it is given;
/// the tests that call them are grouped by backing in `je::tests` (arenas:
/// `je`, `je_incr`) and `tc::tests` (central).
#[cfg(test)]
pub(crate) mod cases {
    use super::*;
    use std::sync::Arc;

    pub(crate) const CAP: usize = 16;

    pub(crate) fn model(kind: AllocatorKind, threads: usize) -> CachedModel {
        CachedModel::new(kind, threads, CostModel::zero(), CAP)
    }

    /// A one-thread `je_incr` whose overflows move `quantum` blocks.
    pub(crate) fn je_incr(quantum: usize) -> CachedModel {
        let kind = AllocatorKind::JeIncr;
        CachedModel::with_quantum(kind, 1, CostModel::zero(), CAP, Some(quantum))
    }

    /// tid 0 allocates `n` 64-byte blocks, then frees them all.
    pub(crate) fn churn(m: &CachedModel, n: usize) {
        let ptrs: Vec<_> = (0..n).map(|_| m.alloc(0, 64)).collect();
        for p in ptrs {
            m.dealloc(0, p);
        }
    }

    /// A `size`-byte block is writable in full, and the cache hands it
    /// straight back after a free (LIFO).
    pub(crate) fn roundtrip_is_lifo(kinds: &[AllocatorKind], size: usize) {
        for &kind in kinds {
            let m = model(kind, 1);
            let p = m.alloc(0, size);
            // SAFETY: `size` bytes requested, all writable.
            unsafe { std::ptr::write_bytes(p.as_ptr(), 0x5A, size) };
            m.dealloc(0, p);
            assert_eq!(m.alloc(0, size), p, "{}: LIFO cache reuse", m.name());
        }
    }

    pub(crate) fn classes_do_not_alias(kinds: &[AllocatorKind]) {
        for &kind in kinds {
            let m = model(kind, 1);
            let a = m.alloc(0, 64);
            let b = m.alloc(0, 256);
            assert_ne!(a, b, "{}", m.name());
            // SAFETY: both blocks are live; write disjoint patterns.
            unsafe {
                std::ptr::write_bytes(a.as_ptr(), 1, 64);
                std::ptr::write_bytes(b.as_ptr(), 2, 256);
                assert_eq!(*a.as_ptr(), 1, "{}: class-64 block clobbered", m.name());
            }
            m.dealloc(0, a);
            m.dealloc(0, b);
        }
    }

    pub(crate) fn flush_triggers_past_capacity(kinds: &[AllocatorKind]) {
        for &kind in kinds {
            let m = model(kind, 1);
            // Free far more than the cache holds: pushes must overflow.
            churn(&m, 64);
            let s = m.thread_stats(0);
            assert!(s.flushes > 0, "{}: expected a flush: {s:?}", m.name());
            assert!(s.flushed_objects > 0, "{}: {s:?}", m.name());
        }
    }

    pub(crate) fn cross_thread_frees_are_remote(kinds: &[AllocatorKind]) {
        for &kind in kinds {
            // tid 0 allocates, tid 1 (another home) frees in bulk.
            let m = Arc::new(model(kind, 2));
            let ptrs: Vec<usize> = (0..64).map(|_| m.alloc(0, 64).as_ptr() as usize).collect();
            let m2 = Arc::clone(&m);
            std::thread::spawn(move || {
                for p in ptrs {
                    m2.dealloc(1, NonNull::new(p as *mut u8).unwrap());
                }
            })
            .join()
            .unwrap();
            let s = m.thread_stats(1);
            assert!(s.remote_freed > 0, "{}: {s:?}", m.name());
        }
    }

    pub(crate) fn local_frees_are_not_remote(kinds: &[AllocatorKind]) {
        for &kind in kinds {
            let m = model(kind, 1);
            churn(&m, 64);
            let s = m.thread_stats(0);
            assert!(s.flushes > 0, "{}: {s:?}", m.name());
            assert_eq!(s.remote_freed, 0, "{}: self-owned blocks: {s:?}", m.name());
        }
    }

    pub(crate) fn flush_scratch_is_recycled(kinds: &[AllocatorKind]) {
        // The flush scratch is part of the hot free path: it must be
        // reused via clear() against its pre-reserved capacity, never
        // regrown, or flush storms would charge allocator-internal heap
        // traffic to the workload under test.
        for &kind in kinds {
            let m = model(kind, 1);
            // SAFETY: single-threaded test.
            let cap0 = unsafe { m.threads.get_mut(0) }.scratch.capacity();
            assert!(cap0 >= CAP, "scratch pre-reserves a full bin");
            for _ in 0..32 {
                churn(&m, 64);
            }
            assert!(m.thread_stats(0).flushes > 0, "churn must overflow");
            // SAFETY: single-threaded test.
            let cap1 = unsafe { m.threads.get_mut(0) }.scratch.capacity();
            assert_eq!(cap1, cap0, "{}: flush scratch regrown", m.name());
        }
    }

    pub(crate) fn concurrent_stress_no_block_aliasing(kinds: &[AllocatorKind]) {
        // 4 threads allocate, stamp, verify and free; any double-handout
        // shows up as a stomped stamp.
        for &kind in kinds {
            let m = Arc::new(model(kind, 4));
            let handles: Vec<_> = (0..4)
                .map(|tid| {
                    let m = Arc::clone(&m);
                    std::thread::spawn(move || {
                        let mut live: Vec<NonNull<u8>> = Vec::new();
                        for round in 0..2_000u64 {
                            let p = m.alloc(tid, 64);
                            // SAFETY: fresh 64-byte block.
                            unsafe { (p.as_ptr() as *mut u64).write(tid as u64 ^ round) };
                            live.push(p);
                            if live.len() > 8 {
                                let victim = live.swap_remove((round % 8) as usize);
                                m.dealloc(tid, victim);
                            }
                            for (i, q) in live.iter().enumerate() {
                                // SAFETY: q is live and ours.
                                let v = unsafe { (q.as_ptr() as *const u64).read() };
                                assert_eq!(
                                    v & !0xFFFF,
                                    (tid as u64) & !0xFFFF,
                                    "block {i} stomped"
                                );
                            }
                        }
                        for p in live {
                            m.dealloc(tid, p);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let t = m.snapshot().totals;
            assert_eq!(
                (t.allocs, t.deallocs),
                (4 * 2_000, 4 * 2_000),
                "{}",
                m.name()
            );
        }
    }

    pub(crate) fn reset_stats_keeps_memory(kinds: &[AllocatorKind]) {
        for &kind in kinds {
            let m = model(kind, 1);
            churn(&m, 1);
            let bytes = m.peak_bytes();
            m.reset_stats();
            assert_eq!(m.thread_stats(0).allocs, 0, "{}", m.name());
            assert_eq!(m.peak_bytes(), bytes, "{}", m.name());
        }
    }

    pub(crate) fn peak_bytes_flat_under_churn(kinds: &[AllocatorKind]) {
        // Steady-state churn: a capacity-bounded live set, so chunk usage
        // plateaus.
        for &kind in kinds {
            let m = model(kind, 1);
            for _ in 0..10_000 {
                churn(&m, 1);
            }
            let after_churn = m.peak_bytes();
            for _ in 0..10_000 {
                churn(&m, 1);
            }
            assert_eq!(
                m.peak_bytes(),
                after_churn,
                "{}: churn grew memory",
                m.name()
            );
        }
    }
}
