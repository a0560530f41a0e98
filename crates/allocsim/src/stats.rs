//! Allocator statistics: the quantities behind the paper's Tables 1–3.
//!
//! Table 1 reports `% free` (time in `free`), `% flush` (time in
//! `je_tcache_bin_flush_small`) and `% lock` (time in
//! `je_malloc_mutex_lock_slow`). The models measure the same three nested
//! quantities directly: every dealloc that triggers a flush is timed
//! exactly (flushes are rare and long); fast-path deallocs are sampled
//! 1-in-64 and extrapolated, keeping measurement overhead out of the fast
//! path the same way `perf`'s sampling does.

use epic_util::stats::Sampler;
use epic_util::CachePadded;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-thread counter block. All plain `Cell`s — only the owning thread
/// writes, snapshots read racily (fine for reporting).
#[derive(Debug, Default)]
pub struct ThreadCounters {
    /// Allocations served.
    pub allocs: Cell<u64>,
    /// Deallocations accepted.
    pub deallocs: Cell<u64>,
    /// Allocations served straight from the thread cache.
    pub cache_hits: Cell<u64>,
    /// Refills of the thread cache from a bin.
    pub refills: Cell<u64>,
    /// Flush events (thread cache overflow).
    pub flushes: Cell<u64>,
    /// Objects pushed out during flushes.
    pub flushed_objects: Cell<u64>,
    /// Objects returned to a bin they did not come from locally ("remote").
    pub remote_freed: Cell<u64>,
    /// Times a bin lock was waited on (acquire was not immediate).
    pub lock_contended: Cell<u64>,
    /// Nanoseconds spent waiting for bin locks (measured exactly).
    pub lock_wait_ns: Cell<u64>,
    /// Nanoseconds inside flush operations (measured exactly).
    pub flush_ns: Cell<u64>,
    /// Extrapolated nanoseconds in dealloc overall (sampled fast path +
    /// exact flush path).
    pub free_ns: Cell<u64>,
    /// Extrapolated nanoseconds in alloc (sampled).
    pub alloc_ns: Cell<u64>,
    /// Fast-path timing samplers.
    free_sampler: Sampler,
    alloc_sampler: Sampler,
}

// SAFETY: each ThreadCounters is logically owned by one thread (indexed by
// tid); concurrent readers only take racy snapshots of u64 Cells, which on
// all supported targets are single-word loads. We accept torn reporting
// reads in exchange for a zero-atomic fast path; counters are never used
// for control flow.
unsafe impl Sync for ThreadCounters {}

impl ThreadCounters {
    #[inline]
    fn bump(cell: &Cell<u64>, by: u64) {
        cell.set(cell.get().wrapping_add(by));
    }

    /// Records an allocation; returns true if this call should be timed
    /// (1-in-[`Sampler::PERIOD`] sampling).
    #[inline]
    pub fn on_alloc(&self) -> bool {
        Self::bump(&self.allocs, 1);
        self.alloc_sampler.fire()
    }

    /// Records a deallocation; returns true if this call should be timed.
    #[inline]
    pub fn on_dealloc(&self) -> bool {
        Self::bump(&self.deallocs, 1);
        self.free_sampler.fire()
    }

    /// Adds a sampled fast-path duration (extrapolated by the period).
    #[inline]
    pub fn add_sampled_free_ns(&self, ns: u64) {
        Self::bump(&self.free_ns, Sampler::extrapolate(ns));
    }

    /// Adds a sampled alloc duration (extrapolated by the period).
    #[inline]
    pub fn add_sampled_alloc_ns(&self, ns: u64) {
        Self::bump(&self.alloc_ns, Sampler::extrapolate(ns));
    }

    /// Adds an exactly-measured flush duration (also counted in free time).
    #[inline]
    pub fn add_flush_ns(&self, ns: u64) {
        Self::bump(&self.flush_ns, ns);
        Self::bump(&self.free_ns, ns);
    }

    /// Adds an exactly-measured lock wait.
    #[inline]
    pub fn add_lock_wait_ns(&self, ns: u64) {
        Self::bump(&self.lock_contended, 1);
        Self::bump(&self.lock_wait_ns, ns);
    }

    /// Racy snapshot for reporting.
    pub fn snapshot(&self) -> ThreadAllocStats {
        ThreadAllocStats {
            allocs: self.allocs.get(),
            deallocs: self.deallocs.get(),
            cache_hits: self.cache_hits.get(),
            refills: self.refills.get(),
            flushes: self.flushes.get(),
            flushed_objects: self.flushed_objects.get(),
            remote_freed: self.remote_freed.get(),
            lock_contended: self.lock_contended.get(),
            lock_wait_ns: self.lock_wait_ns.get(),
            flush_ns: self.flush_ns.get(),
            free_ns: self.free_ns.get(),
            alloc_ns: self.alloc_ns.get(),
        }
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        self.allocs.set(0);
        self.deallocs.set(0);
        self.cache_hits.set(0);
        self.refills.set(0);
        self.flushes.set(0);
        self.flushed_objects.set(0);
        self.remote_freed.set(0);
        self.lock_contended.set(0);
        self.lock_wait_ns.set(0);
        self.flush_ns.set(0);
        self.free_ns.set(0);
        self.alloc_ns.set(0);
    }

    /// Bumps the cache-hit counter.
    #[inline]
    pub fn cache_hit(&self) {
        Self::bump(&self.cache_hits, 1);
    }

    /// Bumps the refill counter.
    #[inline]
    pub fn refill(&self) {
        Self::bump(&self.refills, 1);
    }

    /// Records a flush of `objects` blocks.
    #[inline]
    pub fn flush(&self, objects: u64) {
        Self::bump(&self.flushes, 1);
        Self::bump(&self.flushed_objects, objects);
    }

    /// Records `n` remote-freed objects.
    #[inline]
    pub fn remote(&self, n: u64) {
        Self::bump(&self.remote_freed, n);
    }
}

/// Plain-data snapshot of one thread's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadAllocStats {
    /// Allocations served.
    pub allocs: u64,
    /// Deallocations accepted.
    pub deallocs: u64,
    /// Allocations served straight from the thread cache.
    pub cache_hits: u64,
    /// Refills of the thread cache from a bin.
    pub refills: u64,
    /// Flush events (thread cache overflow).
    pub flushes: u64,
    /// Objects pushed out during flushes.
    pub flushed_objects: u64,
    /// Objects returned to a remote bin.
    pub remote_freed: u64,
    /// Contended lock acquisitions.
    pub lock_contended: u64,
    /// Nanoseconds waiting on bin locks.
    pub lock_wait_ns: u64,
    /// Nanoseconds inside flushes.
    pub flush_ns: u64,
    /// Nanoseconds in dealloc (sampled + flushes).
    pub free_ns: u64,
    /// Nanoseconds in alloc (sampled).
    pub alloc_ns: u64,
}

impl ThreadAllocStats {
    /// Adds another snapshot into this one.
    pub fn accumulate(&mut self, other: &ThreadAllocStats) {
        self.allocs += other.allocs;
        self.deallocs += other.deallocs;
        self.cache_hits += other.cache_hits;
        self.refills += other.refills;
        self.flushes += other.flushes;
        self.flushed_objects += other.flushed_objects;
        self.remote_freed += other.remote_freed;
        self.lock_contended += other.lock_contended;
        self.lock_wait_ns += other.lock_wait_ns;
        self.flush_ns += other.flush_ns;
        self.free_ns += other.free_ns;
        self.alloc_ns += other.alloc_ns;
    }
}

/// Whole-allocator snapshot: summed thread stats plus memory accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSnapshot {
    /// Sum over all threads.
    pub totals: ThreadAllocStats,
    /// Peak (= total) chunk bytes.
    pub peak_bytes: usize,
    /// Number of chunks issued.
    pub chunks: usize,
}

impl AllocSnapshot {
    /// `% free`-style ratio helpers: fraction of `wall_ns × threads` spent
    /// freeing (the paper's Table 1 normalizes by total cycles across
    /// threads).
    pub fn pct_free(&self, wall_ns: u64, threads: usize) -> f64 {
        pct(self.totals.free_ns, wall_ns, threads)
    }

    /// Fraction of total thread-time inside flushes.
    pub fn pct_flush(&self, wall_ns: u64, threads: usize) -> f64 {
        pct(self.totals.flush_ns, wall_ns, threads)
    }

    /// Fraction of total thread-time waiting on bin locks.
    pub fn pct_lock(&self, wall_ns: u64, threads: usize) -> f64 {
        pct(self.totals.lock_wait_ns, wall_ns, threads)
    }
}

fn pct(part_ns: u64, wall_ns: u64, threads: usize) -> f64 {
    if wall_ns == 0 || threads == 0 {
        return 0.0;
    }
    100.0 * part_ns as f64 / (wall_ns as f64 * threads as f64)
}

/// A shared array of padded per-thread counter blocks.
pub struct PerThread {
    slots: Box<[CachePadded<ThreadCounters>]>,
    /// Global epoch-ish counter models can use for ids.
    pub serial: AtomicU64,
}

impl PerThread {
    /// Creates counters for `max_threads` threads.
    pub fn new(max_threads: usize) -> Self {
        let slots = (0..max_threads)
            .map(|_| CachePadded::new(ThreadCounters::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        PerThread {
            slots,
            serial: AtomicU64::new(0),
        }
    }

    /// The counter block for `tid`.
    #[inline]
    pub fn get(&self, tid: usize) -> &ThreadCounters {
        &self.slots[tid]
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no slots were allocated.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Sums all thread snapshots.
    pub fn sum(&self) -> ThreadAllocStats {
        let mut acc = ThreadAllocStats::default();
        for s in self.slots.iter() {
            acc.accumulate(&s.snapshot());
        }
        acc
    }

    /// Resets every slot.
    pub fn reset(&self) {
        for s in self.slots.iter() {
            s.reset();
        }
        self.serial.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_fires_once_per_period() {
        let c = ThreadCounters::default();
        let fired: u64 = (0..(Sampler::PERIOD * 4))
            .map(|_| u64::from(c.on_dealloc()))
            .sum();
        assert_eq!(fired, 4);
        assert_eq!(c.deallocs.get(), Sampler::PERIOD * 4);
    }

    #[test]
    fn sampled_time_extrapolates() {
        let c = ThreadCounters::default();
        c.add_sampled_free_ns(10);
        assert_eq!(c.free_ns.get(), 10 * Sampler::PERIOD);
    }

    #[test]
    fn flush_time_counts_into_free_time() {
        let c = ThreadCounters::default();
        c.add_flush_ns(1000);
        let s = c.snapshot();
        assert_eq!(s.flush_ns, 1000);
        assert_eq!(s.free_ns, 1000);
    }

    #[test]
    fn pct_normalizes_by_threads() {
        let snap = AllocSnapshot {
            totals: ThreadAllocStats {
                free_ns: 500,
                ..Default::default()
            },
            peak_bytes: 0,
            chunks: 0,
        };
        // 500ns over 2 threads × 1000ns wall = 25%.
        assert!((snap.pct_free(1000, 2) - 25.0).abs() < 1e-9);
        assert_eq!(snap.pct_free(0, 2), 0.0);
    }

    #[test]
    fn per_thread_sum_and_reset() {
        let pt = PerThread::new(3);
        pt.get(0).on_alloc();
        pt.get(1).on_alloc();
        pt.get(1).flush(10);
        assert_eq!(pt.sum().allocs, 2);
        assert_eq!(pt.sum().flushed_objects, 10);
        pt.reset();
        assert_eq!(pt.sum().allocs, 0);
    }

    #[test]
    fn accumulate_adds_fieldwise() {
        let a = ThreadAllocStats {
            allocs: 1,
            remote_freed: 5,
            ..Default::default()
        };
        let mut b = ThreadAllocStats {
            allocs: 2,
            ..Default::default()
        };
        b.accumulate(&a);
        assert_eq!(b.allocs, 3);
        assert_eq!(b.remote_freed, 5);
    }
}
