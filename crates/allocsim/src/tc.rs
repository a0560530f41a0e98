//! The tcmalloc-style model.
//!
//! Per Appendix B of the paper: small objects come in size classes; each
//! class has **one global central free list protected by a lock**, plus a
//! per-thread cache. A free that overflows the thread cache moves a batch to
//! the central list; an allocation that misses the cache repopulates it from
//! the central list. "Accesses to the central free list can result in
//! substantial contention in systems with many cores" — with batch frees,
//! every flushing thread serializes on the same per-class lock, which is why
//! the TC numbers in Table 3 are even worse than JE.

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

/// One central free list (per size class) with its own page-carving cursor.
struct Central {
    list: FreeList,
    bump: BumpCursor,
}

/// Per-thread state.
struct TcThread {
    cache: ThreadCache,
    scratch: Vec<&'static BlockHeader>,
}

/// tcmalloc-style pool allocator. See module docs.
pub struct TcModel {
    store: ChunkStore,
    central: Box<[CachePadded<SpinBin<Central>>]>,
    threads: TidSlots<TcThread>,
    counters: PerThread,
    cost: CostModel,
    refill_batch: usize,
}

impl TcModel {
    /// Builds the model with the default thread-cache capacity.
    pub fn new(max_threads: usize, cost: CostModel) -> Self {
        Self::with_tcache_cap(max_threads, cost, DEFAULT_TCACHE_CAP)
    }

    /// Builds the model with an explicit thread-cache capacity.
    pub fn with_tcache_cap(max_threads: usize, cost: CostModel, tcache_cap: usize) -> Self {
        let central = (0..NUM_CLASSES)
            .map(|_| {
                CachePadded::new(SpinBin::new(Central {
                    list: FreeList::new(),
                    bump: BumpCursor::empty(),
                }))
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        TcModel {
            store: ChunkStore::new(),
            central,
            threads: TidSlots::new_with(max_threads, |_| TcThread {
                cache: ThreadCache::new(tcache_cap),
                scratch: Vec::with_capacity(tcache_cap),
            }),
            counters: PerThread::new(max_threads),
            cost,
            refill_batch: (tcache_cap / 2).max(1),
        }
    }

    fn lock_central(&self, tid: Tid, class: usize) -> BinGuard<'_, Central> {
        let m = &*self.central[class];
        if let Some(g) = m.try_lock() {
            return g;
        }
        let t = Clock::start();
        let g = m.lock();
        self.counters.get(tid).add_lock_wait_ns(t.elapsed_ns());
        g
    }

    fn refill(&self, tid: Tid, class: usize) -> &'static BlockHeader {
        let stride = span_bytes(class);
        let counters = self.counters.get(tid);
        counters.refill();

        // SAFETY: tid-exclusivity per the PoolAllocator contract.
        let thread = unsafe { self.threads.get_mut(tid) };
        let mut central = self.lock_central(tid, class);
        let mut last: Option<&'static BlockHeader> = None;
        for _ in 0..self.refill_batch {
            let hdr = match central.list.pop() {
                Some(h) => h,
                None => {
                    let raw = central.bump.carve(&self.store, stride);
                    // SAFETY: fresh `stride` bytes from the bump cursor.
                    unsafe { BlockHeader::init(raw as *mut BlockHeader, tid as u32, class as u32) };
                    // SAFETY: just initialized.
                    unsafe { &*(raw as *const BlockHeader) }
                }
            };
            self.cost.refill_object();
            if let Some(prev) = last.replace(hdr) {
                thread.cache.push_refill(class, prev);
            }
        }
        drop(central);
        let hdr = last.expect("refill_batch >= 1");
        // Transfer ownership: the last allocator of a block is its owner for
        // remote-free accounting.
        // (Relaxed write: only read racily by stats.)
        let hdr_mut = hdr as *const BlockHeader as *mut BlockHeader;
        // SAFETY: we exclusively own this block until we hand it out.
        unsafe { (*hdr_mut).owner = tid as u32 };
        hdr
    }

    /// Moves the oldest 3/4 of the cache bin to the central free list under
    /// the per-class lock, sweeping the whole batch while holding it.
    fn flush(&self, tid: Tid, class: usize) {
        let counters = self.counters.get(tid);
        let clock = Clock::start();

        // SAFETY: tid-exclusivity per the PoolAllocator contract.
        let thread = unsafe { self.threads.get_mut(tid) };
        thread.scratch.clear();
        thread.cache.drain_flush(class, &mut thread.scratch);
        let flushed = thread.scratch.len() as u64;

        let mut central = self.lock_central(tid, class);
        for hdr in thread.scratch.drain(..) {
            let remote = hdr.owner != tid as u32;
            // SAFETY: flushed blocks are exclusively ours.
            unsafe { central.list.push(hdr) };
            if remote {
                counters.remote(1);
                self.cost.remote_object();
            }
        }
        drop(central);
        counters.flush(flushed);
        counters.add_flush_ns(clock.elapsed_ns());
    }
}

impl PoolAllocator for TcModel {
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
                // Cache-hit blocks were last owned by us already (they were
                // freed or refilled by this thread); claim ownership anyway
                // for blocks that arrived via flush-refill cycles.
                let hdr_mut = h as *const BlockHeader as *mut BlockHeader;
                // SAFETY: exclusively ours until handed out.
                unsafe { (*hdr_mut).owner = tid as u32 };
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
        // SAFETY: freed user area is dead.
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
        "tc"
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn model(threads: usize) -> TcModel {
        TcModel::with_tcache_cap(threads, CostModel::zero(), 16)
    }

    #[test]
    fn alloc_dealloc_roundtrip() {
        let m = model(1);
        let p = m.alloc(0, 240);
        // SAFETY: 240 -> class 256.
        unsafe { std::ptr::write_bytes(p.as_ptr(), 7, 240) };
        m.dealloc(0, p);
        let q = m.alloc(0, 240);
        assert_eq!(p, q, "LIFO reuse");
    }

    #[test]
    fn flush_scratch_is_recycled_not_reallocated() {
        // Same contract as the je model: the flush scratch is cleared and
        // reused, never regrown mid-run.
        let m = model(1);
        // SAFETY: single-threaded test.
        let cap0 = unsafe { m.threads.get_mut(0) }.scratch.capacity();
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
    fn flush_hits_central_once_per_overflow() {
        let m = model(1);
        let ptrs: Vec<_> = (0..64).map(|_| m.alloc(0, 64)).collect();
        for p in ptrs {
            m.dealloc(0, p);
        }
        let s = m.thread_stats(0);
        assert!(s.flushes >= 1);
        // All blocks were allocated by tid 0 and freed by tid 0 -> local.
        assert_eq!(s.remote_freed, 0);
    }

    #[test]
    fn cross_thread_free_is_remote() {
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
        assert!(m.thread_stats(1).remote_freed > 0);
    }

    #[test]
    fn blocks_migrate_through_central_list() {
        // Thread 0 frees enough to flush to central; thread 1 then allocates
        // and must receive recycled blocks (peak memory stays flat).
        let m = Arc::new(model(2));
        let ptrs: Vec<_> = (0..128).map(|_| m.alloc(0, 64)).collect();
        for p in ptrs {
            m.dealloc(0, p);
        }
        let peak_before = m.peak_bytes();
        let m2 = Arc::clone(&m);
        std::thread::spawn(move || {
            let got: Vec<_> = (0..64).map(|_| m2.alloc(1, 64)).collect();
            for p in got {
                m2.dealloc(1, p);
            }
        })
        .join()
        .unwrap();
        assert_eq!(
            m.peak_bytes(),
            peak_before,
            "recycling should avoid new chunks"
        );
    }

    #[test]
    fn concurrent_churn_is_sound() {
        let m = Arc::new(TcModel::with_tcache_cap(4, CostModel::zero(), 16));
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let mut live = Vec::new();
                    for i in 0..2_000u64 {
                        let p = m.alloc(tid, 128);
                        // SAFETY: fresh block.
                        unsafe { (p.as_ptr() as *mut u64).write(u64::MAX - i) };
                        live.push(p);
                        if live.len() > 4 {
                            let v = live.remove(0);
                            m.dealloc(tid, v);
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
        assert_eq!(t.allocs, t.deallocs);
    }
}
