//! The jemalloc-style model.
//!
//! Reproduces the free-path structure of jemalloc 5.0.1 described in §3.2 of
//! the paper:
//!
//! * allocation and free fast paths hit a bounded per-thread cache
//!   ([`crate::tcache::ThreadCache`]);
//! * when a free overflows the cache bin, the oldest 3/4 of the bin is
//!   flushed (`je_tcache_bin_flush_small`): repeatedly take the owning
//!   arena of the first remaining object, **lock that arena**, sweep the
//!   whole remaining batch returning every object owned by that arena, and
//!   continue until the batch is empty;
//! * there are `4 × ncpu` arenas, each a mutex-guarded set of per-class free
//!   lists plus a bump cursor over chunks;
//! * a thread allocates from its *home* arena (`tid mod arenas`), so an
//!   object freed by a different thread is "remote" and its return crosses
//!   to another thread's arena — with the lock held, which is where the
//!   paper measures 39.8% of total time at 192 threads.

use crate::block::{span_bytes, BlockHeader, FreeList};
use crate::chunks::{BumpCursor, ChunkStore};
use crate::classes::{class_of, NUM_CLASSES};
use crate::cost::CostModel;
use crate::stats::{AllocSnapshot, PerThread, ThreadAllocStats};
use crate::tcache::{ThreadCache, TidSlots, DEFAULT_TCACHE_CAP};
use crate::{PoolAllocator, Tid};

use crate::spinbin::{BinGuard, SpinBin};
use epic_util::{CachePadded, Clock};
use std::ptr::NonNull;

/// One arena: per-class intrusive free lists plus a bump cursor. Always
/// accessed under the owning mutex.
struct Arena {
    bins: [FreeList; NUM_CLASSES],
    bump: BumpCursor,
}

impl Arena {
    fn new() -> Self {
        Arena {
            bins: std::array::from_fn(|_| FreeList::new()),
            bump: BumpCursor::empty(),
        }
    }
}

/// Per-thread state: the cache plus a reusable flush scratch buffer.
struct JeThread {
    cache: ThreadCache,
    scratch: Vec<&'static BlockHeader>,
}

/// jemalloc-style pool allocator. See module docs.
pub struct JeModel {
    store: ChunkStore,
    arenas: Box<[CachePadded<SpinBin<Arena>>]>,
    threads: TidSlots<JeThread>,
    counters: PerThread,
    cost: CostModel,
    tcache_cap: usize,
    refill_batch: usize,
    /// `Some(q)`: the *incremental-flush* variant — an overflow returns
    /// only the oldest `q` blocks instead of 3/4 of the bin. This is the
    /// allocator-side fix the paper's footnote 3 leaves as future work
    /// ("modify the allocator itself to be sensitive to the possibility of
    /// batch frees coming from the reclamation algorithm"): critical
    /// sections shrink from O(bin) to O(q), and the bin stays near
    /// capacity so subsequent allocations reuse locally — recovering most
    /// of amortized freeing's benefit without touching the SMR scheme
    /// (`ablation_allocator_fix`).
    flush_quantum: Option<usize>,
}

impl JeModel {
    /// Builds the model with the default thread-cache capacity.
    pub fn new(max_threads: usize, cost: CostModel) -> Self {
        Self::with_tcache_cap(max_threads, cost, DEFAULT_TCACHE_CAP)
    }

    /// Builds the model with an explicit thread-cache capacity (the
    /// `ablation_tcache_cap` bench sweeps this).
    pub fn with_tcache_cap(max_threads: usize, cost: CostModel, tcache_cap: usize) -> Self {
        Self::build(max_threads, cost, tcache_cap, None)
    }

    /// Builds the **incremental-flush** variant: overflows return only the
    /// oldest `quantum` blocks (see the `flush_quantum` field docs).
    pub fn with_flush_quantum(
        max_threads: usize,
        cost: CostModel,
        tcache_cap: usize,
        quantum: usize,
    ) -> Self {
        assert!(quantum >= 1, "flush quantum must free at least one block");
        Self::build(max_threads, cost, tcache_cap, Some(quantum))
    }

    fn build(
        max_threads: usize,
        cost: CostModel,
        tcache_cap: usize,
        flush_quantum: Option<usize>,
    ) -> Self {
        let num_arenas = cost.num_arenas();
        let arenas = (0..num_arenas)
            .map(|_| CachePadded::new(SpinBin::new(Arena::new())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        JeModel {
            store: ChunkStore::new(),
            arenas,
            threads: TidSlots::new_with(max_threads, |_| JeThread {
                cache: ThreadCache::new(tcache_cap),
                scratch: Vec::with_capacity(tcache_cap),
            }),
            counters: PerThread::new(max_threads),
            cost,
            tcache_cap,
            refill_batch: (tcache_cap / 2).max(1),
            flush_quantum,
        }
    }

    /// Number of arenas (4 × assumed CPUs by default).
    pub fn num_arenas(&self) -> usize {
        self.arenas.len()
    }

    /// The configured per-bin thread-cache capacity.
    pub fn tcache_cap(&self) -> usize {
        self.tcache_cap
    }

    /// The arena a thread allocates from.
    #[inline]
    fn home_arena(&self, tid: Tid) -> u32 {
        (tid % self.arenas.len()) as u32
    }

    /// Locks an arena, charging measured wait time to `tid` when contended.
    /// Waiting SPINS (see [`crate::spinbin`]) — modelling
    /// `je_malloc_mutex_lock_slow`, whose burned cycles are the paper's
    /// `% lock` column.
    fn lock_arena(&self, tid: Tid, arena: u32) -> BinGuard<'_, Arena> {
        let m = &*self.arenas[arena as usize];
        if let Some(g) = m.try_lock() {
            return g;
        }
        let t = Clock::start();
        let g = m.lock();
        self.counters.get(tid).add_lock_wait_ns(t.elapsed_ns());
        g
    }

    /// Refills `tid`'s cache bin for `class` from its home arena and returns
    /// one block. Called with the cache bin empty.
    fn refill(&self, tid: Tid, class: usize) -> &'static BlockHeader {
        let home = self.home_arena(tid);
        let stride = span_bytes(class);
        let counters = self.counters.get(tid);
        counters.refill();

        // SAFETY: tid-exclusivity per the PoolAllocator contract.
        let thread = unsafe { self.threads.get_mut(tid) };
        let mut arena = self.lock_arena(tid, home);
        let mut last: Option<&'static BlockHeader> = None;
        for _ in 0..self.refill_batch {
            let hdr = match arena.bins[class].pop() {
                Some(h) => h,
                None => {
                    let raw = arena.bump.carve(&self.store, stride);
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

    /// `je_tcache_bin_flush_small`: returns the oldest 3/4 of the bin to the
    /// owning arenas, sweeping the whole remaining batch per arena lock —
    /// or, in the incremental variant, only the oldest `flush_quantum`
    /// blocks.
    fn flush(&self, tid: Tid, class: usize) {
        let counters = self.counters.get(tid);
        let flush_clock = Clock::start();
        let home = self.home_arena(tid);

        // SAFETY: tid-exclusivity per the PoolAllocator contract.
        let thread = unsafe { self.threads.get_mut(tid) };
        thread.scratch.clear();
        match self.flush_quantum {
            Some(q) => thread.cache.drain_n(class, q, &mut thread.scratch),
            None => thread.cache.drain_flush(class, &mut thread.scratch),
        }
        let flushed = thread.scratch.len() as u64;

        while !thread.scratch.is_empty() {
            let target = thread.scratch[0].owner;
            let remote = target != home;
            let mut arena = self.lock_arena(tid, target);
            // Sweep the entire remaining batch while holding the lock —
            // exactly jemalloc's loop, and exactly why flushes are long.
            let mut kept = 0;
            for i in 0..thread.scratch.len() {
                let hdr = thread.scratch[i];
                if hdr.owner == target {
                    // SAFETY: block came from dealloc; exclusively ours.
                    unsafe { arena.bins[class].push(hdr) };
                    if remote {
                        counters.remote(1);
                        self.cost.remote_object();
                    }
                } else {
                    thread.scratch[kept] = hdr;
                    kept += 1;
                }
            }
            drop(arena);
            thread.scratch.truncate(kept);
        }
        counters.flush(flushed);
        counters.add_flush_ns(flush_clock.elapsed_ns());
    }
}

impl PoolAllocator for JeModel {
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
        if self.flush_quantum.is_some() {
            "je_incr"
        } else {
            "je"
        }
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn model(threads: usize) -> JeModel {
        JeModel::with_tcache_cap(threads, CostModel::zero(), 16)
    }

    #[test]
    fn alloc_returns_writable_memory() {
        let m = model(1);
        let p = m.alloc(0, 100);
        // SAFETY: 100 bytes requested -> class 128, all writable.
        unsafe { std::ptr::write_bytes(p.as_ptr(), 0x5A, 100) };
        m.dealloc(0, p);
    }

    #[test]
    fn reuse_is_lifo_from_cache() {
        let m = model(1);
        let p1 = m.alloc(0, 64);
        m.dealloc(0, p1);
        let p2 = m.alloc(0, 64);
        assert_eq!(p1, p2, "LIFO cache should return the same block");
    }

    #[test]
    fn distinct_classes_do_not_alias() {
        let m = model(1);
        let a = m.alloc(0, 64);
        let b = m.alloc(0, 256);
        assert_ne!(a, b);
        // SAFETY: both blocks live; write disjoint patterns.
        unsafe {
            std::ptr::write_bytes(a.as_ptr(), 1, 64);
            std::ptr::write_bytes(b.as_ptr(), 2, 256);
            assert_eq!(
                *a.as_ptr(),
                1,
                "class-64 block clobbered by class-256 write"
            );
        }
        m.dealloc(0, a);
        m.dealloc(0, b);
    }

    #[test]
    fn flush_triggers_past_capacity() {
        let m = model(1);
        // Allocate far more than tcache capacity, then free all: pushes must
        // overflow and flush.
        let ptrs: Vec<_> = (0..64).map(|_| m.alloc(0, 64)).collect();
        for p in ptrs {
            m.dealloc(0, p);
        }
        let s = m.thread_stats(0);
        assert!(s.flushes > 0, "expected at least one flush, stats: {s:?}");
        assert!(s.flushed_objects > 0);
    }

    #[test]
    fn remote_free_counted_cross_thread() {
        // Two threads on different home arenas; blocks allocated by tid 0,
        // freed by tid 1 in bulk -> remote frees.
        let m = Arc::new(model(2));
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
        assert!(
            s.remote_freed > 0,
            "cross-thread frees must count as remote: {s:?}"
        );
    }

    #[test]
    fn local_free_not_remote() {
        let m = model(1);
        let ptrs: Vec<_> = (0..64).map(|_| m.alloc(0, 64)).collect();
        for p in ptrs {
            m.dealloc(0, p);
        }
        let s = m.thread_stats(0);
        assert_eq!(s.remote_freed, 0, "self-owned blocks are local: {s:?}");
    }

    #[test]
    fn peak_bytes_monotone_and_bounded_under_reuse() {
        let m = model(1);
        // Steady-state churn: capacity-bounded live set -> chunk usage
        // plateaus.
        for _ in 0..10_000 {
            let p = m.alloc(0, 64);
            m.dealloc(0, p);
        }
        let after_churn = m.peak_bytes();
        for _ in 0..10_000 {
            let p = m.alloc(0, 64);
            m.dealloc(0, p);
        }
        assert_eq!(
            m.peak_bytes(),
            after_churn,
            "steady churn must not grow memory"
        );
    }

    #[test]
    fn concurrent_stress_no_block_aliasing() {
        // 4 threads allocate, stamp, verify and free; any double-handout
        // shows up as a stomped stamp.
        let m = Arc::new(JeModel::with_tcache_cap(4, CostModel::zero(), 16));
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let mut live: Vec<NonNull<u8>> = Vec::new();
                    for round in 0..2_000u64 {
                        let p = m.alloc(tid, 64);
                        // SAFETY: fresh 64-byte block.
                        unsafe {
                            (p.as_ptr() as *mut u64).write(tid as u64 ^ round);
                        }
                        live.push(p);
                        if live.len() > 8 {
                            let victim = live.swap_remove((round % 8) as usize);
                            m.dealloc(tid, victim);
                        }
                        // Verify our stamps are intact (no aliasing).
                        for (i, q) in live.iter().enumerate() {
                            // SAFETY: q is live and ours.
                            let v = unsafe { (q.as_ptr() as *const u64).read() };
                            assert_eq!(v & !0xFFFF, (tid as u64) & !0xFFFF, "block {i} stomped");
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
        let snap = m.snapshot();
        assert_eq!(snap.totals.allocs, 4 * 2_000);
        assert_eq!(snap.totals.deallocs, 4 * 2_000);
    }

    #[test]
    fn incremental_flush_moves_one_quantum() {
        let m = JeModel::with_flush_quantum(1, CostModel::zero(), 16, 4);
        assert_eq!(m.name(), "je_incr");
        // Free well past capacity: every overflow must move exactly the
        // 4-block quantum, never 3/4 of the bin.
        let ptrs: Vec<_> = (0..32).map(|_| m.alloc(0, 64)).collect();
        for p in ptrs {
            m.dealloc(0, p);
        }
        let s = m.thread_stats(0);
        assert!(s.flushes >= 1, "{s:?}");
        assert_eq!(
            s.flushed_objects,
            4 * s.flushes,
            "each flush is exactly one quantum: {s:?}"
        );
    }

    #[test]
    fn incremental_flush_keeps_bin_warm() {
        // Batch-free far past capacity, then allocate: the bin kept
        // (cap + 1 - q) blocks after each overflow, so allocations reuse
        // locally instead of refilling from the arena.
        let m = JeModel::with_flush_quantum(1, CostModel::zero(), 16, 4);
        let ptrs: Vec<_> = (0..64).map(|_| m.alloc(0, 64)).collect();
        let refills_before = m.thread_stats(0).refills;
        for p in ptrs {
            m.dealloc(0, p);
        }
        for _ in 0..13 {
            // Accounting-only: blocks stay live; chunk memory is owned by m.
            let _ = m.alloc(0, 64);
        }
        let s = m.thread_stats(0);
        assert_eq!(
            s.refills, refills_before,
            "warm bin must serve allocations: {s:?}"
        );
    }

    #[test]
    fn quantum_flushes_are_frequent_but_small() {
        let grad = JeModel::with_flush_quantum(1, CostModel::zero(), 16, 4);
        let orig = JeModel::with_tcache_cap(1, CostModel::zero(), 16);
        for m in [&grad, &orig] {
            let ptrs: Vec<_> = (0..256).map(|_| m.alloc(0, 64)).collect();
            for p in ptrs {
                m.dealloc(0, p);
            }
        }
        let (g, o) = (grad.thread_stats(0), orig.thread_stats(0));
        assert!(
            g.flushes > o.flushes,
            "incremental overflows more often: {g:?} vs {o:?}"
        );
        let g_per = g.flushed_objects as f64 / g.flushes as f64;
        let o_per = o.flushed_objects as f64 / o.flushes as f64;
        assert!(
            g_per < o_per,
            "but each flush is much smaller: {g_per:.1} vs {o_per:.1} objects/flush"
        );
    }

    #[test]
    fn flush_scratch_is_recycled_not_reallocated() {
        // The flush scratch is part of the hot free path: it must be
        // reused via clear() against its pre-reserved capacity, never
        // regrown, or flush storms would charge allocator-internal heap
        // traffic to the workload under test.
        let m = model(1);
        // SAFETY: single-threaded test.
        let cap0 = unsafe { m.threads.get_mut(0) }.scratch.capacity();
        assert!(cap0 >= m.tcache_cap(), "scratch pre-reserves a full bin");
        for _ in 0..32 {
            let ptrs: Vec<_> = (0..64).map(|_| m.alloc(0, 64)).collect();
            for p in ptrs {
                m.dealloc(0, p);
            }
        }
        assert!(m.thread_stats(0).flushes > 0, "churn must overflow the bin");
        // SAFETY: single-threaded test.
        let cap1 = unsafe { m.threads.get_mut(0) }.scratch.capacity();
        assert_eq!(cap1, cap0, "flush scratch regrown on the hot path");
    }

    #[test]
    fn reset_stats_keeps_memory() {
        let m = model(1);
        let p = m.alloc(0, 64);
        m.dealloc(0, p);
        let bytes = m.peak_bytes();
        m.reset_stats();
        assert_eq!(m.thread_stats(0).allocs, 0);
        assert_eq!(m.peak_bytes(), bytes);
    }
}
