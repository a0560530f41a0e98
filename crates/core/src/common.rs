//! Machinery shared by every scheme: batch disposal (batch vs amortized),
//! timeline instrumentation, garbage sampling, scan-buffer accounting.
//!
//! Everything here is on the retire→rotate→drain→free path and therefore
//! allocation-free in steady state: safe batches move as O(1) intrusive
//! splices ([`RetiredList`]), and each scanning thread reuses one scan
//! buffer whose rare growth is counted into [`SmrStats`]
//! (`retire_path_allocs`) so the harness can assert zero.

use crate::config::{FreeMode, SmrConfig};
use crate::freebuf::PoolBins;
use crate::retired::RetiredList;
use crate::smr_stats::SmrStats;

use crate::sync::Ordering;
use epic_alloc::{PoolAllocator, Tid};
use epic_timeline::EventKind;
use epic_util::{now_ns, TidSlots};
use std::ptr::NonNull;
use std::sync::mpsc;
use std::sync::Arc;

/// Work sent to the background reclaimer thread.
enum BgMsg {
    /// A safe batch to free (the intrusive list travels whole; the channel
    /// send is the synchronizing hand-off).
    Batch(RetiredList),
    /// Flush barrier: ack once everything sent before it is freed.
    Sync(mpsc::Sender<()>),
}

/// The background reclaimer of [`FreeMode::Background`].
struct BgReclaimer {
    sender: mpsc::Sender<BgMsg>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Shared state embedded in every scheme.
pub struct SchemeCommon {
    /// The allocator retired objects are freed through.
    pub alloc: Arc<dyn PoolAllocator>,
    /// Scheme configuration.
    pub cfg: SmrConfig,
    /// Counters (one extra slot for the background reclaimer's tid).
    pub stats: SmrStats,
    /// Full scheme name (base + free-mode suffix), interned once here so
    /// per-trial stats paths never re-format it.
    name: String,
    /// The amortized-free freeable lists, FIFO so the oldest safe objects
    /// are freed first.
    freebufs: TidSlots<RetiredList>,
    pools: TidSlots<PoolBins>,
    bg: Option<BgReclaimer>,
}

impl SchemeCommon {
    /// Builds the shared state for the scheme named `base` (the free-mode
    /// suffix is appended here, once).
    pub fn new(base: &str, alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig) -> Self {
        let n = cfg.max_threads;
        // Stats get one extra slot so the background reclaimer (tid == n)
        // has somewhere to account its frees.
        let stats = SmrStats::new(n + 1);
        let bg = matches!(cfg.mode, FreeMode::Background).then(|| {
            let (sender, receiver) = mpsc::channel::<BgMsg>();
            let alloc = Arc::clone(&alloc);
            // The reclaimer frees through its OWN tid (n), hence its own
            // thread cache: the caller must have built the allocator for
            // n + 1 tids. Its batch frees overflow that cache exactly like
            // a worker's would — which is the §6 point.
            let handle = std::thread::Builder::new()
                .name("epic-smr-bg-reclaimer".into())
                .spawn(move || {
                    let bg_tid = n;
                    while let Ok(msg) = receiver.recv() {
                        match msg {
                            BgMsg::Batch(mut batch) => {
                                while let Some(p) = batch.pop() {
                                    alloc.dealloc(bg_tid, p);
                                }
                            }
                            BgMsg::Sync(ack) => {
                                let _ = ack.send(());
                            }
                        }
                    }
                })
                .expect("spawn background reclaimer");
            BgReclaimer {
                sender,
                handle: Some(handle),
            }
        });
        SchemeCommon {
            name: format!("{}{}", base, cfg.mode.suffix()),
            alloc,
            cfg,
            stats,
            freebufs: TidSlots::new_with(n, |_| RetiredList::new()),
            pools: TidSlots::new_with(n, |_| PoolBins::new()),
            bg,
        }
    }

    /// Number of participating threads.
    #[inline]
    pub fn n_threads(&self) -> usize {
        self.cfg.max_threads
    }

    /// Clears `tid`'s scan buffer `buf` and gives it room for at least
    /// `min_cap` words. Each scanning thread keeps one buffer for its
    /// lifetime, so in steady state this never allocates; the growth it
    /// does perform is charged to the `retire_path_allocs` counter.
    pub fn clear_scan(&self, tid: Tid, buf: &mut Vec<u64>, min_cap: usize) {
        buf.clear();
        if buf.capacity() < min_cap {
            buf.reserve_exact(min_cap);
            self.stats.get(tid).on_retire_path_alloc(1);
        }
    }

    /// Disposes of a batch that has just been proven *safe to free*,
    /// according to the configured [`FreeMode`]. The batch list is left
    /// empty (reusable).
    pub fn dispose(&self, tid: Tid, batch: &mut RetiredList) {
        if batch.is_empty() {
            return;
        }
        self.stats.get(tid).on_batch();
        match self.cfg.mode {
            FreeMode::Batch => self.free_batch_now(tid, batch),
            FreeMode::Amortized { .. } => {
                // SAFETY: tid-exclusivity contract.
                unsafe { self.freebufs.get_mut(tid) }.append(batch);
            }
            FreeMode::Pooled => {
                // SAFETY: tid-exclusivity contract; batch pointers are live
                // blocks of `self.alloc` (retire contract).
                unsafe { self.pools.get_mut(tid).absorb(batch) };
            }
            FreeMode::Background => {
                let bg = self
                    .bg
                    .as_ref()
                    .expect("Background mode spawns a reclaimer");
                let n = batch.len() as u64;
                // Freed-count accounting happens here (sender side) so the
                // garbage gauge stays single-writer per tid; the actual
                // dealloc time lands on the background thread's core.
                let sent = batch.take();
                if bg.sender.send(BgMsg::Batch(sent)).is_ok() {
                    self.stats.get(tid).on_free(n);
                }
            }
        }
    }

    /// Frees a whole batch immediately, recording one `BatchFree` timeline
    /// event covering it (the boxes of Fig. 2) plus per-call events when
    /// enabled (Fig. 3 / Fig. 17).
    pub fn free_batch_now(&self, tid: Tid, batch: &mut RetiredList) {
        if batch.is_empty() {
            return;
        }
        let n = batch.len() as u64;
        let t0 = now_ns();
        while let Some(p) = batch.pop() {
            self.dealloc_one(tid, p);
        }
        let t1 = now_ns();
        let c = self.stats.get(tid);
        c.on_free(n);
        c.add_free_ns(t1 - t0);
        self.cfg
            .recorder
            .record(tid, EventKind::BatchFree, t0, t1, n);
    }

    /// The amortized drain. Schemes call this from `on_alloc` — freeing is
    /// coupled to *allocation*, which is the §7 guidance ("amortized
    /// freeing will be most effective if the number of objects freed and
    /// allocated per operation is similar") made exact: every block that
    /// leaves the thread cache is replaced by one from the freeable list,
    /// so the cache level stays flat and flushes never trigger. No-op in
    /// batch mode or when the freeable list is empty.
    #[inline]
    pub fn tick(&self, tid: Tid) {
        if let FreeMode::Amortized { per_op } = self.cfg.mode {
            self.drain_n(tid, per_op);
        }
    }

    /// Pool allocation ([`FreeMode::Pooled`]): serves `size` bytes from the
    /// thread's object pool if a block of the matching size class is
    /// available. `None` in every other mode (or on a pool miss) — the
    /// caller then allocates normally.
    #[inline]
    pub fn pool_alloc(&self, tid: Tid, size: usize) -> Option<NonNull<u8>> {
        if self.cfg.mode != FreeMode::Pooled {
            return None;
        }
        // SAFETY: tid-exclusivity contract.
        let pool = unsafe { self.pools.get_mut(tid) };
        let p = pool.pop_for(size)?;
        self.stats.get(tid).on_pool_hit();
        Some(p)
    }

    /// The backlog relief valve, called from `begin_op`: the alloc-coupled
    /// drain services the freeable list at exactly its arrival rate, so
    /// any burst would otherwise persist forever (a ρ = 1 queue). When the
    /// backlog exceeds `af_backlog_cap`, drain extra objects per operation
    /// until it is back under the cap.
    #[inline]
    pub fn relief(&self, tid: Tid) {
        match self.cfg.mode {
            FreeMode::Amortized { per_op } => {
                // SAFETY: tid-exclusivity contract (len read of own slot).
                let backlog = unsafe { self.freebufs.peek(tid).len() };
                if backlog > self.cfg.af_backlog_cap {
                    self.drain_n(tid, per_op);
                }
            }
            FreeMode::Pooled => {
                // A pool that outgrows the backlog cap holds memory the
                // allocator can never reuse elsewhere; bleed the excess
                // back one object per operation.
                // SAFETY: tid-exclusivity contract.
                let pool = unsafe { self.pools.get_mut(tid) };
                if pool.len() > self.cfg.af_backlog_cap {
                    let mut excess = RetiredList::new();
                    pool.take_excess(1, &mut excess);
                    self.free_batch_now(tid, &mut excess);
                }
            }
            FreeMode::Batch | FreeMode::Background => {}
        }
    }

    /// Drains up to `n` objects from `tid`'s freeable list.
    ///
    /// Timing: with per-call recording on, every free is clocked exactly
    /// (the whole point of that mode). Otherwise this per-operation fast
    /// path times one drain per [`epic_util::stats::Sampler`] period and
    /// extrapolates, like the allocator's own counters — two clock reads
    /// per operation would otherwise dominate the drained object's cost.
    ///
    /// Each block is prefetched whole before its free ([`warm`]): it is the
    /// oldest garbage, so cold, and the LIFO thread cache hands it to the
    /// very next allocation of its class.
    #[inline]
    fn drain_n(&self, tid: Tid, n: usize) {
        // SAFETY: tid-exclusivity contract.
        let buf = unsafe { self.freebufs.get_mut(tid) };
        if buf.is_empty() {
            return;
        }
        let c = self.stats.get(tid);
        if self.cfg.free_call_record_ns != u64::MAX {
            let t0 = now_ns();
            let mut freed = 0u64;
            for _ in 0..n {
                let Some(p) = buf.pop() else { break };
                freed += 1;
                warm(p);
                self.dealloc_one(tid, p);
            }
            let t1 = now_ns();
            c.on_free(freed);
            c.add_free_ns(t1 - t0);
            return;
        }
        let t0 = c.on_drain_tick().then(now_ns);
        let mut freed = 0u64;
        for _ in 0..n {
            let Some(p) = buf.pop() else { break };
            freed += 1;
            warm(p);
            self.alloc.dealloc(tid, p);
        }
        c.on_free(freed);
        if let Some(t0) = t0 {
            c.add_sampled_free_ns(now_ns() - t0);
        }
    }

    /// Frees one retired object. When per-call recording is enabled, the
    /// call's latency goes into the per-thread histogram (Fig. 3 /
    /// Appendix F percentiles) and, if long enough, into the timeline as an
    /// individual `FreeCall` event.
    #[inline]
    pub(crate) fn dealloc_one(&self, tid: Tid, ptr: NonNull<u8>) {
        if self.cfg.free_call_record_ns != u64::MAX {
            let t0 = now_ns();
            self.alloc.dealloc(tid, ptr);
            let t1 = now_ns();
            self.stats.record_free_latency(tid, t1 - t0);
            if t1 - t0 >= self.cfg.free_call_record_ns {
                self.cfg.recorder.record(
                    tid,
                    EventKind::FreeCall,
                    t0,
                    t1,
                    ptr.as_ptr() as u64 & 0xFFFF_FFFF,
                );
            }
        } else {
            self.alloc.dealloc(tid, ptr);
        }
    }

    /// Current length of `tid`'s freeable list.
    pub fn freebuf_len(&self, tid: Tid) -> usize {
        // SAFETY: teardown/reporting convention (racy read tolerated).
        unsafe { self.freebufs.peek(tid).len() }
    }

    /// Current size of `tid`'s object pool ([`FreeMode::Pooled`]).
    pub fn pool_len(&self, tid: Tid) -> usize {
        // SAFETY: teardown/reporting convention (racy read tolerated).
        unsafe { self.pools.peek(tid).len() }
    }

    /// Teardown: frees everything in `tid`'s freeable list and object pool
    /// immediately.
    pub fn drain_freebuf(&self, tid: Tid) {
        // SAFETY: callers guarantee quiescence (trait contract of
        // `quiesce_and_drain`).
        let mut all = unsafe { self.freebufs.get_mut(tid) }.take();
        self.free_batch_now(tid, &mut all);
        // SAFETY: quiescence, as above.
        let mut pooled = unsafe { self.pools.get_mut(tid) }.drain_all();
        self.free_batch_now(tid, &mut pooled);
    }

    /// Records an epoch advance: blue-dot timeline event, epoch counter,
    /// garbage-series sample, peak watermark.
    pub fn record_epoch_advance(&self, tid: Tid, new_epoch: u64) {
        self.stats.epochs.fetch_add(1, Ordering::Relaxed);
        self.cfg
            .recorder
            .mark(tid, EventKind::EpochAdvance, new_epoch);
        let garbage = self.stats.observe_garbage();
        if let Some(series) = &self.cfg.garbage_series {
            series.push(new_epoch as f64, garbage as f64);
        }
    }

    /// The cached scheme name (base plus free-mode suffix).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Background mode: blocks until the reclaimer has freed everything
    /// sent so far (used by `quiesce_and_drain` for deterministic
    /// teardown). No-op in other modes.
    pub fn sync_background(&self) {
        if let Some(bg) = &self.bg {
            let (ack_tx, ack_rx) = mpsc::channel();
            if bg.sender.send(BgMsg::Sync(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
        }
    }
}

/// Prefetches every line of a block about to be freed (DESIGN.md §10).
#[inline]
fn warm(p: NonNull<u8>) {
    // SAFETY: `p` came off a freeable list, so it is a pool block this
    // scheme still owns; its header is intact until the free that follows.
    unsafe { epic_alloc::BlockHeader::from_user(p) }.prefetch_block();
}

impl Drop for SchemeCommon {
    fn drop(&mut self) {
        if let Some(bg) = &mut self.bg {
            // Closing the channel ends the reclaimer's recv loop.
            let (closed_tx, _) = mpsc::channel();
            let _ = std::mem::replace(&mut bg.sender, closed_tx);
            if let Some(h) = bg.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};
    use epic_timeline::{Recorder, Series};

    fn common(mode: FreeMode) -> SchemeCommon {
        let alloc = build_allocator(AllocatorKind::Sys, 2, CostModel::zero());
        let cfg = SmrConfig::new(2)
            .with_mode(mode)
            .with_recorder(Arc::new(Recorder::new(2, 128)))
            .with_garbage_series(Arc::new(Series::new("g")));
        SchemeCommon::new("test", alloc, cfg)
    }

    fn make_batch(c: &SchemeCommon, tid: Tid, n: usize) -> RetiredList {
        let mut list = RetiredList::new();
        for _ in 0..n {
            let p = c.alloc.alloc(tid, 64);
            c.stats.get(tid).on_retire(1);
            // SAFETY: live block of c.alloc, exclusively ours.
            unsafe { list.push(p) };
        }
        list
    }

    #[test]
    fn batch_mode_frees_immediately() {
        let c = common(FreeMode::Batch);
        let mut batch = make_batch(&c, 0, 10);
        c.dispose(0, &mut batch);
        assert!(batch.is_empty());
        let snap = c.stats.snapshot();
        assert_eq!(snap.freed, 10);
        assert_eq!(snap.garbage, 0);
        // One BatchFree event recorded.
        let events = c.cfg.recorder.events(0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind(), EventKind::BatchFree);
        assert_eq!(events[0].value, 10);
    }

    #[test]
    fn amortized_mode_queues_then_ticks() {
        let c = common(FreeMode::Amortized { per_op: 3 });
        let mut batch = make_batch(&c, 0, 10);
        c.dispose(0, &mut batch);
        assert_eq!(c.stats.snapshot().freed, 0, "nothing freed yet");
        assert_eq!(c.freebuf_len(0), 10);
        assert_eq!(
            c.stats.snapshot().garbage,
            10,
            "queued objects are still garbage"
        );

        c.tick(0);
        assert_eq!(c.stats.snapshot().freed, 3);
        assert_eq!(c.freebuf_len(0), 7);
        for _ in 0..3 {
            c.tick(0);
        }
        assert_eq!(c.stats.snapshot().freed, 10);
        assert_eq!(c.stats.snapshot().garbage, 0);
        c.tick(0); // empty tick is harmless
        assert_eq!(c.stats.snapshot().freed, 10);
    }

    #[test]
    fn drain_freebuf_flushes_everything() {
        let c = common(FreeMode::Amortized { per_op: 1 });
        let mut batch = make_batch(&c, 1, 5);
        c.dispose(1, &mut batch);
        c.drain_freebuf(1);
        assert_eq!(c.stats.snapshot().freed, 5);
        assert_eq!(c.freebuf_len(1), 0);
    }

    #[test]
    fn epoch_advance_samples_series() {
        let c = common(FreeMode::Batch);
        c.stats.get(0).on_retire(4);
        c.record_epoch_advance(0, 1);
        assert_eq!(c.stats.snapshot().epochs, 1);
        assert_eq!(c.stats.snapshot().peak_garbage, 4);
        let series = c.cfg.garbage_series.as_ref().unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series.sorted_points()[0], (1.0, 4.0));
        // Blue dot recorded.
        assert_eq!(c.cfg.recorder.events(0)[0].kind(), EventKind::EpochAdvance);
        // Clean up gauge for hygiene.
        c.stats.get(0).on_free(4);
    }

    #[test]
    fn name_suffixes() {
        assert_eq!(common(FreeMode::Batch).name(), "test");
        assert_eq!(common(FreeMode::amortized()).name(), "test_af");
        assert_eq!(common(FreeMode::Background).name(), "test_bg");
    }

    #[test]
    fn background_mode_frees_on_reclaimer_thread() {
        // Allocator sized max_threads + 1: tid 2 is the reclaimer's.
        let alloc = build_allocator(AllocatorKind::Sys, 3, CostModel::zero());
        let cfg = SmrConfig::new(2)
            .with_mode(FreeMode::Background)
            .with_recorder(Arc::new(Recorder::new(2, 128)));
        let c = SchemeCommon::new("test", Arc::clone(&alloc), cfg);
        let mut batch = make_batch(&c, 0, 20);
        c.dispose(0, &mut batch);
        assert!(batch.is_empty());
        // Deterministic wait for the reclaimer.
        c.sync_background();
        let snap = c.stats.snapshot();
        assert_eq!(snap.freed, 20);
        assert_eq!(snap.garbage, 0);
        // The deallocs happened under the reclaimer's tid (2), not tid 0.
        assert_eq!(alloc.thread_stats(2).deallocs, 20);
        assert_eq!(alloc.thread_stats(0).deallocs, 0);
    }

    #[test]
    fn pooled_mode_recycles_matching_class() {
        let c = common(FreeMode::Pooled);
        // Retire a 64-byte block; it must come back for a 64-byte request
        // but not for a 256-byte one.
        let mut batch = make_batch(&c, 0, 1);
        let retired_addr = {
            let p = batch.pop().unwrap();
            // SAFETY: live block of c.alloc, exclusively ours.
            unsafe { batch.push(p) };
            p.as_ptr() as usize
        };
        c.dispose(0, &mut batch);
        assert_eq!(c.pool_len(0), 1);
        assert!(c.pool_alloc(0, 256).is_none(), "class mismatch must miss");
        let hit = c.pool_alloc(0, 64).expect("class match must hit");
        assert_eq!(hit.as_ptr() as usize, retired_addr);
        assert_eq!(c.pool_len(0), 0);
        let snap = c.stats.snapshot();
        assert_eq!(snap.pool_hits, 1);
        assert_eq!(snap.freed, 1, "pool hit leaves the SMR system");
        assert_eq!(snap.garbage, 0);
        // The allocator never saw a dealloc: the block was recycled.
        assert_eq!(c.alloc.snapshot().totals.deallocs, 0);
        // Clean up: block is now "live" again; return it for hygiene.
        c.alloc.dealloc(0, hit);
    }

    #[test]
    fn pool_alloc_refuses_outside_pooled_mode() {
        let c = common(FreeMode::amortized());
        let mut batch = make_batch(&c, 0, 2);
        c.dispose(0, &mut batch);
        assert!(c.pool_alloc(0, 64).is_none(), "AF mode must not pool");
        c.drain_freebuf(0);
    }

    #[test]
    fn pooled_mode_drains_at_teardown() {
        let c = common(FreeMode::Pooled);
        let mut batch = make_batch(&c, 1, 5);
        c.dispose(1, &mut batch);
        assert_eq!(c.pool_len(1), 5);
        c.drain_freebuf(1);
        assert_eq!(c.pool_len(1), 0);
        assert_eq!(c.stats.snapshot().freed, 5);
        assert_eq!(c.alloc.snapshot().totals.deallocs, 5);
    }

    #[test]
    fn pooled_relief_bleeds_excess() {
        let alloc = build_allocator(AllocatorKind::Sys, 1, CostModel::zero());
        let mut cfg = SmrConfig::new(1).with_mode(FreeMode::Pooled);
        cfg.af_backlog_cap = 4;
        let c = SchemeCommon::new("test", alloc, cfg);
        let mut batch = make_batch(&c, 0, 8);
        c.dispose(0, &mut batch);
        assert_eq!(c.pool_len(0), 8);
        c.relief(0); // 8 > 4: one object returned to the allocator
        assert_eq!(c.pool_len(0), 7);
        assert_eq!(c.alloc.snapshot().totals.deallocs, 1);
        c.relief(0);
        c.relief(0);
        c.relief(0); // down to the cap
        assert_eq!(c.pool_len(0), 4);
        c.relief(0); // at the cap: no further bleeding
        assert_eq!(c.pool_len(0), 4);
        c.drain_freebuf(0);
    }

    #[test]
    fn background_mode_shutdown_joins_cleanly() {
        let alloc = build_allocator(AllocatorKind::Sys, 3, CostModel::zero());
        let cfg = SmrConfig::new(2).with_mode(FreeMode::Background);
        let c = SchemeCommon::new("test", Arc::clone(&alloc), cfg);
        let mut batch = make_batch(&c, 1, 5);
        c.dispose(1, &mut batch);
        c.sync_background();
        drop(c); // must join without hanging
        assert_eq!(alloc.snapshot().totals.deallocs, 5);
    }

    #[test]
    fn clear_scan_charges_growth_only() {
        let c = common(FreeMode::Batch);
        let allocs = || c.stats.snapshot().retire_path_allocs;
        let mut buf = Vec::new();
        c.clear_scan(0, &mut buf, 8);
        assert_eq!(allocs(), 1, "the first scan grows the buffer once");
        for i in 0..64 {
            buf.extend(0..8u64);
            c.clear_scan(0, &mut buf, 8 - i % 8);
            assert!(buf.is_empty(), "the buffer comes back cleared");
        }
        assert_eq!(allocs(), 1, "steady-state scans must not allocate");
        c.clear_scan(0, &mut buf, 32);
        assert!(buf.capacity() >= 32);
        assert_eq!(allocs(), 2, "a wider scan is charged again");
    }
}
