//! Per-scheme statistics: the quantities behind Tables 2 and 4
//! (ops/s, `% free`, objects freed, epochs advanced) and the garbage
//! accounting behind Figures 4–9.

use epic_util::stats::{LogHistogram, Sampler};
use epic_util::{CachePadded, TidSlots};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-thread scheme counters. `Cell`-based: the owning thread writes,
/// reporting reads are racy-but-monotone (same pattern as the allocator's
/// counters).
#[derive(Debug, Default)]
pub struct ThreadSmrCounters {
    /// Objects retired.
    pub retired: Cell<u64>,
    /// Objects actually freed to the allocator.
    pub freed: Cell<u64>,
    /// Safe batches processed (either freed or queued for amortization).
    pub batches: Cell<u64>,
    /// Nanoseconds spent freeing (batch frees + amortized ticks).
    pub free_ns: Cell<u64>,
    /// Operation restarts caused by neutralization (NBR) or validation.
    pub restarts: Cell<u64>,
    /// Reservation/era scans performed (HP/HE/IBR/WFE reclaim passes).
    pub scans: Cell<u64>,
    /// Objects served from the thread's object pool instead of the
    /// allocator ([`crate::FreeMode::Pooled`]).
    pub pool_hits: Cell<u64>,
    /// Heap allocations performed by the retire pipeline itself (growth of
    /// a thread's scan buffer, [`crate::SchemeCommon::clear_scan`]). Each
    /// scanning thread grows its buffer once and the zero-allocation
    /// design keeps this flat in steady state; anything else is
    /// measurement overhead attributed to the scheme under test.
    pub retire_path_allocs: Cell<u64>,
    /// Unreclaimed garbage currently attributed to this thread (limbo
    /// bags and the freeable list). Mirrored into `garbage_pub` for
    /// cross-thread sampling.
    pub garbage: Cell<u64>,
    /// Published copy of `garbage` (relaxed; owner-only writer).
    pub garbage_pub: AtomicU64,
    /// Times the garbage gauge would have gone negative and was clamped to
    /// zero. A nonzero value means retire/free accounting double-counted
    /// somewhere (e.g. a double free) — the stress and model suites assert
    /// it stays 0.
    pub garbage_clamps: Cell<u64>,
    /// Drain-timing sampler (the allocator counters' period).
    drain_sampler: Sampler,
}

// SAFETY: owner-writes / racy-snapshot-reads, identical contract to
// epic_alloc::stats::ThreadCounters.
unsafe impl Sync for ThreadSmrCounters {}

impl ThreadSmrCounters {
    #[inline]
    fn bump(cell: &Cell<u64>, by: u64) {
        cell.set(cell.get().wrapping_add(by));
    }

    /// Records `n` retirements (adds to garbage).
    #[inline]
    pub fn on_retire(&self, n: u64) {
        Self::bump(&self.retired, n);
        self.add_garbage(n as i64);
    }

    /// Records `n` objects actually freed (removes from garbage).
    #[inline]
    pub fn on_free(&self, n: u64) {
        Self::bump(&self.freed, n);
        self.add_garbage(-(n as i64));
    }

    /// Adjusts the garbage gauge and publishes it. A negative result is
    /// clamped to zero, but no longer silently: the clamp is counted into
    /// [`garbage_clamps`](Self::garbage_clamps) so accounting bugs
    /// (double frees, double counting) surface in the stress/model suites
    /// instead of hiding behind the clamp.
    #[inline]
    pub fn add_garbage(&self, delta: i64) {
        let g = self.garbage.get() as i64 + delta;
        if g < 0 {
            Self::bump(&self.garbage_clamps, 1);
        }
        let g = g.max(0) as u64;
        self.garbage.set(g);
        self.garbage_pub.store(g, Ordering::Relaxed);
    }

    /// Adds free time (exact — batch frees and teardown drains).
    #[inline]
    pub fn add_free_ns(&self, ns: u64) {
        Self::bump(&self.free_ns, ns);
    }

    /// Advances the drain sample tick; true when this drain should be
    /// timed (1-in-[`Sampler::PERIOD`]).
    #[inline]
    pub fn on_drain_tick(&self) -> bool {
        self.drain_sampler.fire()
    }

    /// Adds a sampled drain duration, extrapolated by the period.
    #[inline]
    pub fn add_sampled_free_ns(&self, ns: u64) {
        Self::bump(&self.free_ns, Sampler::extrapolate(ns));
    }

    /// Records a processed batch.
    #[inline]
    pub fn on_batch(&self) {
        Self::bump(&self.batches, 1);
    }

    /// Records an operation restart.
    #[inline]
    pub fn on_restart(&self) {
        Self::bump(&self.restarts, 1);
    }

    /// Records a reclamation scan.
    #[inline]
    pub fn on_scan(&self) {
        Self::bump(&self.scans, 1);
    }

    /// Records a heap allocation on the retire path (scan-buffer growth).
    #[inline]
    pub fn on_retire_path_alloc(&self, n: u64) {
        Self::bump(&self.retire_path_allocs, n);
    }

    /// Records one object recycled from the pool: it leaves the garbage
    /// gauge (it is live again) and counts as a pool hit *and* a free
    /// (the object left the reclamation system).
    #[inline]
    pub fn on_pool_hit(&self) {
        Self::bump(&self.pool_hits, 1);
        self.on_free(1);
    }

    /// Zeroes the monotone counters (keeps the garbage gauge, which tracks
    /// live state).
    pub fn reset(&self) {
        self.retired.set(0);
        self.freed.set(0);
        self.batches.set(0);
        self.free_ns.set(0);
        self.restarts.set(0);
        self.scans.set(0);
        self.pool_hits.set(0);
        self.retire_path_allocs.set(0);
        self.garbage_clamps.set(0);
    }
}

/// Aggregated scheme statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmrSnapshot {
    /// Total objects retired.
    pub retired: u64,
    /// Total objects freed to the allocator.
    pub freed: u64,
    /// Safe batches processed.
    pub batches: u64,
    /// Nanoseconds spent freeing across threads.
    pub free_ns: u64,
    /// Neutralization/validation restarts.
    pub restarts: u64,
    /// Reclamation scans.
    pub scans: u64,
    /// Current unreclaimed garbage (sum of gauges).
    pub garbage: u64,
    /// Peak observed garbage.
    pub peak_garbage: u64,
    /// Epochs advanced / tokens fully circulated.
    pub epochs: u64,
    /// Objects recycled straight from the pool ([`crate::FreeMode::Pooled`]).
    pub pool_hits: u64,
    /// Heap allocations charged to the retire pipeline itself (0 in the
    /// steady state of the zero-allocation design).
    pub retire_path_allocs: u64,
    /// Garbage-gauge negative clamps (see
    /// [`ThreadSmrCounters::garbage_clamps`]); 0 when accounting balances.
    pub garbage_clamps: u64,
    /// Median individual `free`-call latency (ns, bucket resolution; 0 when
    /// per-call recording was off). Fig. 3 / Appendix F material.
    pub free_p50_ns: u64,
    /// 99th-percentile free-call latency (ns, bucket resolution).
    pub free_p99_ns: u64,
    /// Longest observed free call (ns, exact).
    pub free_max_ns: u64,
}

impl SmrSnapshot {
    /// The `% free` of Tables 2 and 4: fraction of total thread-time spent
    /// freeing.
    pub fn pct_free(&self, wall_ns: u64, threads: usize) -> f64 {
        if wall_ns == 0 || threads == 0 {
            return 0.0;
        }
        100.0 * self.free_ns as f64 / (wall_ns as f64 * threads as f64)
    }
}

/// Scheme-wide shared counters: per-thread blocks plus global gauges.
pub struct SmrStats {
    slots: Box<[CachePadded<ThreadSmrCounters>]>,
    /// Per-thread free-call latency histograms (owner-writes, racy
    /// aggregated reads — same contract as the counters). Populated only
    /// while per-call recording is enabled.
    hists: TidSlots<LogHistogram>,
    /// Global epoch/token-cycle counter.
    pub epochs: AtomicU64,
    /// Peak garbage high-watermark.
    pub peak_garbage: AtomicU64,
}

impl SmrStats {
    /// Creates counters for `n` threads.
    pub fn new(n: usize) -> Self {
        SmrStats {
            slots: (0..n)
                .map(|_| CachePadded::new(ThreadSmrCounters::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            hists: TidSlots::new_with(n, |_| LogHistogram::new()),
            epochs: AtomicU64::new(0),
            peak_garbage: AtomicU64::new(0),
        }
    }

    /// Records one individual free-call latency for `tid`.
    ///
    /// Owner-thread only (tid-exclusivity contract).
    #[inline]
    pub fn record_free_latency(&self, tid: usize, ns: u64) {
        // SAFETY: tid-exclusivity contract of the SMR layer.
        unsafe { self.hists.get_mut(tid) }.push(ns);
    }

    /// Merged free-call latency histogram across all threads (racy
    /// aggregation, reporting only).
    pub fn free_hist(&self) -> LogHistogram {
        let mut merged = LogHistogram::new();
        for tid in 0..self.hists.len() {
            // SAFETY: reporting convention — racy reads of owner-written
            // counters are tolerated (and torn values are monotone-bounded).
            merged.merge(unsafe { self.hists.peek(tid) });
        }
        merged
    }

    /// The counter block for `tid`.
    #[inline]
    pub fn get(&self, tid: usize) -> &ThreadSmrCounters {
        &self.slots[tid]
    }

    /// Number of thread slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no slots exist.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Sum of published garbage gauges (racy, for sampling).
    pub fn total_garbage(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.garbage_pub.load(Ordering::Relaxed))
            .sum()
    }

    /// Records a garbage observation into the peak watermark, returning the
    /// observed total.
    pub fn observe_garbage(&self) -> u64 {
        let g = self.total_garbage();
        self.peak_garbage.fetch_max(g, Ordering::Relaxed);
        g
    }

    /// Aggregates everything into a snapshot.
    pub fn snapshot(&self) -> SmrSnapshot {
        let mut s = SmrSnapshot {
            epochs: self.epochs.load(Ordering::Relaxed),
            peak_garbage: self.peak_garbage.load(Ordering::Relaxed),
            ..Default::default()
        };
        for c in self.slots.iter() {
            s.retired += c.retired.get();
            s.freed += c.freed.get();
            s.batches += c.batches.get();
            s.free_ns += c.free_ns.get();
            s.restarts += c.restarts.get();
            s.scans += c.scans.get();
            s.pool_hits += c.pool_hits.get();
            s.retire_path_allocs += c.retire_path_allocs.get();
            s.garbage_clamps += c.garbage_clamps.get();
            s.garbage += c.garbage_pub.load(Ordering::Relaxed);
        }
        let hist = self.free_hist();
        if hist.count() > 0 {
            s.free_p50_ns = hist.quantile(0.5);
            s.free_p99_ns = hist.quantile(0.99);
            s.free_max_ns = hist.max();
        }
        s
    }

    /// Resets monotone counters and the epoch/peak gauges.
    pub fn reset(&self) {
        for c in self.slots.iter() {
            c.reset();
        }
        for tid in 0..self.hists.len() {
            // SAFETY: reset happens between trials (quiescence convention).
            unsafe { self.hists.get_mut(tid) }.clear();
        }
        self.epochs.store(0, Ordering::Relaxed);
        self.peak_garbage.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_free_balance_garbage() {
        let s = SmrStats::new(2);
        s.get(0).on_retire(10);
        s.get(1).on_retire(5);
        assert_eq!(s.total_garbage(), 15);
        s.get(0).on_free(4);
        assert_eq!(s.total_garbage(), 11);
        let snap = s.snapshot();
        assert_eq!(snap.retired, 15);
        assert_eq!(snap.freed, 4);
        assert_eq!(snap.garbage, 11);
    }

    #[test]
    fn garbage_never_negative_and_clamp_is_counted() {
        let s = SmrStats::new(1);
        s.get(0).on_free(100);
        assert_eq!(s.total_garbage(), 0);
        // The clamp itself is no longer silent.
        assert_eq!(s.snapshot().garbage_clamps, 1);
        // Balanced accounting does not clamp.
        s.get(0).on_retire(5);
        s.get(0).on_free(5);
        assert_eq!(s.snapshot().garbage_clamps, 1);
        // reset() clears the clamp counter with the other monotone counters.
        s.reset();
        assert_eq!(s.snapshot().garbage_clamps, 0);
    }

    #[test]
    fn peak_watermark() {
        let s = SmrStats::new(1);
        s.get(0).on_retire(50);
        s.observe_garbage();
        s.get(0).on_free(50);
        s.observe_garbage();
        assert_eq!(s.snapshot().peak_garbage, 50);
        assert_eq!(s.snapshot().garbage, 0);
    }

    #[test]
    fn pct_free_math() {
        let snap = SmrSnapshot {
            free_ns: 250,
            ..Default::default()
        };
        assert!((snap.pct_free(1000, 1) - 25.0).abs() < 1e-12);
        assert!((snap.pct_free(500, 2) - 25.0).abs() < 1e-12);
        assert_eq!(snap.pct_free(0, 1), 0.0);
    }

    #[test]
    fn reset_keeps_gauge() {
        let s = SmrStats::new(1);
        s.get(0).on_retire(7);
        s.reset();
        let snap = s.snapshot();
        assert_eq!(snap.retired, 0);
        // Garbage gauge describes live state and survives reset.
        assert_eq!(snap.garbage, 7);
    }

    #[test]
    fn pool_hits_count_as_frees() {
        let s = SmrStats::new(1);
        s.get(0).on_retire(3);
        s.get(0).on_pool_hit();
        let snap = s.snapshot();
        assert_eq!(snap.pool_hits, 1);
        assert_eq!(
            snap.freed, 1,
            "a pool hit removes the object from the SMR system"
        );
        assert_eq!(snap.garbage, 2);
    }

    #[test]
    fn free_latency_percentiles_in_snapshot() {
        let s = SmrStats::new(2);
        for _ in 0..99 {
            s.record_free_latency(0, 200);
        }
        s.record_free_latency(1, 3_000_000);
        let snap = s.snapshot();
        assert!(
            snap.free_p50_ns >= 200 && snap.free_p50_ns < 512,
            "{snap:?}"
        );
        assert_eq!(snap.free_max_ns, 3_000_000);
        assert!(snap.free_p99_ns >= snap.free_p50_ns);
        let hist = s.free_hist();
        assert_eq!(hist.count(), 100);
        // Reset clears the histograms too.
        s.reset();
        assert_eq!(s.free_hist().count(), 0);
        assert_eq!(s.snapshot().free_max_ns, 0);
    }
}
