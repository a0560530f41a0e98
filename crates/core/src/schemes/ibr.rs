//! Interval-based reclamation (Wen et al., PPoPP 2018), 2GE variant —
//! `ibr`.
//!
//! Each thread reserves an era *interval* `[lo, hi]`: `lo = hi = era` at
//! operation start, and `hi` is bumped to the current era at each protected
//! hop (the "2 Global Epochs" published-era scheme). An object whose
//! `[birth, retire]` lifetime overlaps any thread's reservation interval
//! cannot be freed.
//!
//! Compared to hazard eras, protection is cheaper (two fixed slots per
//! thread instead of per-pointer slots) but reservations are coarser.

use crate::common::SchemeCommon;
use crate::config::SmrConfig;
use crate::retired::RetiredList;
use crate::{RawSmr, SchemeLocal, SmrKind};

use crate::sync::{fence, AtomicU64, Ordering};
use epic_alloc::block;
use epic_alloc::{PoolAllocator, Tid};
use epic_util::{CachePadded, TidSlots};
use std::ptr::NonNull;
use std::sync::Arc;

const NONE: u64 = u64::MAX;

struct Reservation {
    lo: AtomicU64,
    hi: AtomicU64,
}

struct IbrThread {
    bag: RetiredList,
    retires_since_tick: usize,
}

/// 2GE interval-based reclamation. See module docs.
pub struct IbrSmr {
    common: SchemeCommon,
    era: AtomicU64,
    reservations: Box<[CachePadded<Reservation>]>,
    threads: TidSlots<IbrThread>,
}

impl IbrSmr {
    /// Builds the scheme.
    pub fn new(alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig) -> Self {
        let n = cfg.max_threads;
        IbrSmr {
            era: AtomicU64::new(1),
            reservations: (0..n)
                .map(|_| {
                    CachePadded::new(Reservation {
                        lo: AtomicU64::new(NONE),
                        hi: AtomicU64::new(NONE),
                    })
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            threads: TidSlots::new_with(n, |_| IbrThread {
                bag: RetiredList::new(),
                retires_since_tick: 0,
            }),
            common: SchemeCommon::new("ibr", alloc, cfg),
        }
    }

    /// Current era (tests, diagnostics).
    pub fn current_era(&self) -> u64 {
        self.era.load(Ordering::SeqCst)
    }

    /// Interval snapshot packed `[lo, hi, lo, hi, …]` into recycled
    /// scratch, in-place bag partition: no heap allocation per scan.
    fn scan_and_reclaim(&self, tid: Tid, state: &mut IbrThread) {
        self.common.stats.get(tid).on_scan();
        fence(Ordering::SeqCst);
        let mut intervals = self.common.scratch(tid, self.reservations.len() * 2);
        for res in self.reservations.iter() {
            let lo = res.lo.load(Ordering::Acquire);
            let hi = res.hi.load(Ordering::Acquire);
            if lo != NONE {
                intervals.push(lo);
                intervals.push(hi);
            }
        }
        let mut freeable = RetiredList::new();
        state.bag.partition_into(
            // Overlap test: [lo,hi] ∩ [birth,retire] ≠ ∅.
            |r| {
                intervals
                    .chunks_exact(2)
                    .any(|lohi| lohi[0] <= r.retire_era && r.birth_era <= lohi[1])
            },
            &mut freeable,
        );
        self.common.scratch_done(tid, intervals);
        self.common.dispose(tid, &mut freeable);
    }
}

impl RawSmr for IbrSmr {
    fn common(&self) -> &SchemeCommon {
        &self.common
    }

    fn begin_op(&self, tid: Tid) {
        let e = self.era.load(Ordering::SeqCst);
        let r = &self.reservations[tid];
        // Publish lo before hi is irrelevant for safety (both SeqCst and
        // equal); what matters is publication precedes the first link read.
        r.lo.store(e, Ordering::SeqCst);
        r.hi.store(e, Ordering::SeqCst);
    }

    fn end_op(&self, tid: Tid) {
        let r = &self.reservations[tid];
        r.lo.store(NONE, Ordering::Release);
        r.hi.store(NONE, Ordering::Release);
    }

    fn on_alloc(&self, tid: Tid, ptr: NonNull<u8>) {
        self.common.tick(tid);
        // SAFETY: live block from this scheme's allocator.
        unsafe { block::set_birth_era(ptr, self.era.load(Ordering::SeqCst)) };
    }

    fn retire(&self, tid: Tid, ptr: NonNull<u8>) {
        self.common.stats.get(tid).on_retire(1);
        let retire_era = self.era.load(Ordering::SeqCst);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        // SAFETY: `ptr` is a live block of this scheme's allocator (retire
        // contract), exclusively ours; its birth era is already in the
        // header (stamped by `on_alloc`), so only the retire era is added.
        unsafe { state.bag.push_retire(ptr, retire_era) };
        state.retires_since_tick += 1;
        if state.retires_since_tick >= self.common.cfg.era_freq {
            state.retires_since_tick = 0;
            let new = self.era.fetch_add(1, Ordering::SeqCst) + 1;
            self.common.record_epoch_advance(tid, new);
        }
        if state.bag.len() >= self.common.cfg.bag_cap {
            self.scan_and_reclaim(tid, state);
        }
    }

    fn detach(&self, tid: Tid) {
        // Drop all era reservations permanently.
        self.end_op(tid);
    }

    fn quiesce_and_drain(&self) {
        for r in self.reservations.iter() {
            r.lo.store(NONE, Ordering::Relaxed);
            r.hi.store(NONE, Ordering::Relaxed);
        }
        for tid in 0..self.common.n_threads() {
            // SAFETY: quiescence is the caller's contract.
            let state = unsafe { self.threads.get_mut(tid) };
            self.common.free_batch_now(tid, &mut state.bag);
            self.common.drain_freebuf(tid);
        }
        self.common.sync_background();
    }

    fn local(&self, tid: Tid) -> SchemeLocal {
        // SAFETY: era clock and reservation cells are owned by self (boxed
        // / inline, stable addresses) and outlive every handle via the Arc.
        unsafe { SchemeLocal::era_interval(&self.era, &self.reservations[tid].hi) }
    }

    fn kind(&self) -> SmrKind {
        SmrKind::Ibr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::AtomicUsize;
    use crate::Smr;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};

    fn setup(n: usize, bag_cap: usize, era_freq: usize) -> (Arc<dyn PoolAllocator>, Arc<IbrSmr>) {
        let alloc = build_allocator(AllocatorKind::Je, n, CostModel::zero());
        let mut cfg = SmrConfig::new(n).with_bag_cap(bag_cap);
        cfg.era_freq = era_freq;
        let smr = Arc::new(IbrSmr::new(Arc::clone(&alloc), cfg));
        (alloc, smr)
    }

    #[test]
    fn interval_reservation_blocks_overlapping_lifetimes() {
        let (alloc, smr) = setup(2, 4, 1);
        // Thread 1 opens an op at era E: reserves [E, E].
        smr.begin_op(1);
        // An object born at era <= E and retired at era >= E overlaps.
        let victim = alloc.alloc(0, 64);
        smr.on_alloc(0, victim);
        smr.begin_op(0);
        smr.retire(0, victim);
        for _ in 0..8 {
            let q = alloc.alloc(0, 64);
            smr.on_alloc(0, q);
            smr.retire(0, q);
        }
        smr.end_op(0);
        assert!(
            smr.stats().garbage >= 1,
            "victim overlaps reservation: {:?}",
            smr.stats()
        );
        // Later-born objects do get freed.
        assert!(smr.stats().freed > 0);
        smr.end_op(1);
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn end_op_clears_reservation() {
        let (_, smr) = setup(1, 4, 1);
        smr.begin_op(0);
        assert_ne!(smr.reservations[0].lo.load(Ordering::Relaxed), NONE);
        smr.end_op(0);
        assert_eq!(smr.reservations[0].lo.load(Ordering::Relaxed), NONE);
        assert_eq!(smr.reservations[0].hi.load(Ordering::Relaxed), NONE);
    }

    #[test]
    fn protect_extends_hi_only_forward() {
        let (_, smr) = setup(1, 1_000_000, 1);
        let h = Smr::from_raw(smr.clone()).register(0);
        let g = h.begin_op();
        let lo0 = smr.reservations[0].lo.load(Ordering::Relaxed);
        // Advance the era by retiring (freq 1).
        for _ in 0..5 {
            let p = g.alloc(64);
            g.retire(p);
        }
        g.protect_load(0, &AtomicUsize::new(0)).unwrap();
        let lo1 = smr.reservations[0].lo.load(Ordering::Relaxed);
        let hi1 = smr.reservations[0].hi.load(Ordering::Relaxed);
        assert_eq!(lo0, lo1, "lo never moves during an op");
        assert!(hi1 >= lo1 + 5, "hi tracks the era: lo={lo1} hi={hi1}");
        drop(g);
        smr.quiesce_and_drain();
    }

    #[test]
    fn multithreaded_stress() {
        let (_, smr) = setup(4, 32, 4);
        let shared = Smr::from_raw(smr.clone());
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let facade = shared.clone();
                std::thread::spawn(move || {
                    let h = facade.register(tid);
                    let link = AtomicUsize::new(0);
                    for _ in 0..3_000 {
                        let g = h.begin_op();
                        g.protect_load(0, &link).unwrap();
                        let p = g.alloc(64);
                        g.retire(p);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        smr.quiesce_and_drain();
        let s = smr.stats();
        assert_eq!(s.retired, 12_000);
        assert_eq!(s.freed, 12_000);
        assert_eq!(s.garbage, 0);
    }
}
