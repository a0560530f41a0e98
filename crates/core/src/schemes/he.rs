//! Hazard eras (Ramalhete & Correia) — `he`.
//!
//! A global *era* clock replaces hazard pointers' per-object announcements:
//! blocks are stamped with their birth era at allocation
//! ([`crate::RawSmr::on_alloc`] writes the block header) and their retire era
//! at retirement; readers publish the era they are reading under. An object
//! is reclaimable when no published era falls inside its `[birth, retire]`
//! lifetime.
//!
//! The paper finds `he` among the slowest schemes and the only one that
//! does not improve with amortized freeing (Fig. 11b) — its per-read era
//! publication dominates, which this implementation reproduces with a
//! SeqCst era load + conditional SeqCst store per protected hop.

use crate::common::SchemeCommon;
use crate::config::SmrConfig;
use crate::retired::RetiredList;
use crate::{RawSmr, SchemeLocal, SmrKind};

use crate::sync::{fence, AtomicU64, Ordering};
use epic_alloc::block;
use epic_alloc::{PoolAllocator, Tid};
use epic_util::TidSlots;
use std::ptr::NonNull;
use std::sync::Arc;

/// Sentinel: slot holds no reservation.
const NONE: u64 = u64::MAX;

struct HeThread {
    bag: RetiredList,
    retires_since_tick: usize,
}

/// Hazard eras. See module docs.
pub struct HeSmr {
    common: SchemeCommon,
    era: AtomicU64,
    /// Flat era-slot array: `slots[tid * k + i]`, `NONE` when empty.
    slots: Box<[AtomicU64]>,
    k: usize,
    threads: TidSlots<HeThread>,
}

impl HeSmr {
    /// Builds the scheme.
    pub fn new(alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig) -> Self {
        let n = cfg.max_threads;
        let k = cfg.hp_slots;
        HeSmr {
            era: AtomicU64::new(1),
            slots: (0..n * k)
                .map(|_| AtomicU64::new(NONE))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            k,
            threads: TidSlots::new_with(n, |_| HeThread {
                bag: RetiredList::new(),
                retires_since_tick: 0,
            }),
            common: SchemeCommon::new("he", alloc, cfg),
        }
    }

    /// Current era (tests, diagnostics).
    pub fn current_era(&self) -> u64 {
        self.era.load(Ordering::SeqCst)
    }

    /// Reservation snapshot in recycled scratch, in-place bag partition:
    /// no heap allocation per scan.
    fn scan_and_reclaim(&self, tid: Tid, state: &mut HeThread) {
        self.common.stats.get(tid).on_scan();
        fence(Ordering::SeqCst);
        let mut reservations = self.common.scratch(tid, self.slots.len());
        reservations.extend(
            self.slots
                .iter()
                .map(|s| s.load(Ordering::Acquire))
                .filter(|&e| e != NONE),
        );
        let mut freeable = RetiredList::new();
        state.bag.partition_into(
            |r| {
                reservations
                    .iter()
                    .any(|&e| e >= r.birth_era && e <= r.retire_era)
            },
            &mut freeable,
        );
        self.common.scratch_done(tid, reservations);
        self.common.dispose(tid, &mut freeable);
    }
}

impl RawSmr for HeSmr {
    fn common(&self) -> &SchemeCommon {
        &self.common
    }

    fn begin_op(&self, tid: Tid) {
        self.common.relief(tid);
    }

    fn end_op(&self, tid: Tid) {
        for i in 0..self.k {
            self.slots[tid * self.k + i].store(NONE, Ordering::Release);
        }
    }

    fn on_alloc(&self, tid: Tid, ptr: NonNull<u8>) {
        self.common.tick(tid);
        // SAFETY: ptr is a live block from this scheme's allocator (trait
        // contract).
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
        for s in self.slots.iter() {
            s.store(NONE, Ordering::Relaxed);
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
        // SAFETY: era clock and slot array are owned by self (boxed /
        // inline, stable addresses) and outlive every handle via the Arc.
        unsafe { SchemeLocal::era_slots(&self.era, &self.slots[tid * self.k..(tid + 1) * self.k]) }
    }

    fn kind(&self) -> SmrKind {
        SmrKind::He
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::AtomicUsize;
    use crate::Smr;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};

    fn setup(n: usize, bag_cap: usize, era_freq: usize) -> (Arc<dyn PoolAllocator>, Arc<HeSmr>) {
        let alloc = build_allocator(AllocatorKind::Je, n, CostModel::zero());
        let mut cfg = SmrConfig::new(n).with_bag_cap(bag_cap);
        cfg.era_freq = era_freq;
        let smr = Arc::new(HeSmr::new(Arc::clone(&alloc), cfg));
        (alloc, smr)
    }

    #[test]
    fn era_advances_with_retires() {
        let (alloc, smr) = setup(1, 1_000_000, 4);
        let e0 = smr.current_era();
        for _ in 0..16 {
            smr.begin_op(0);
            let p = alloc.alloc(0, 64);
            smr.on_alloc(0, p);
            smr.retire(0, p);
            smr.end_op(0);
        }
        assert_eq!(smr.current_era() - e0, 4, "16 retires / freq 4");
        smr.quiesce_and_drain();
    }

    #[test]
    fn reserved_era_blocks_reclaim() {
        let (alloc, smr) = setup(2, 8, 2);
        // Thread 1 publishes the current era and parks.
        let h1 = Smr::from_raw(smr.clone()).register(1);
        let g1 = h1.begin_op();
        g1.protect_load(0, &AtomicUsize::new(0)).unwrap();
        // Thread 0 churns: everything it retires is born/retired in eras
        // >= thread 1's reservation... so objects whose lifetime covers
        // the reserved era are kept.
        let reserved = smr.current_era();
        let p = alloc.alloc(0, 64);
        smr.on_alloc(0, p); // birth = reserved era
        smr.begin_op(0);
        smr.retire(0, p); // lifetime [reserved, >=reserved] covers it
        for _ in 0..16 {
            let q = alloc.alloc(0, 64);
            smr.on_alloc(0, q);
            smr.retire(0, q);
        }
        smr.end_op(0);
        let s = smr.stats();
        assert!(s.scans > 0);
        assert!(s.garbage >= 1, "the covered object must survive: {s:?}");
        let _ = reserved;
        drop(g1);
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn objects_born_after_reservation_epoch_are_freed() {
        let (alloc, smr) = setup(2, 4, 1);
        // Thread 1 reserves era E.
        let h1 = Smr::from_raw(smr.clone()).register(1);
        let g1 = h1.begin_op();
        g1.protect_load(0, &AtomicUsize::new(0)).unwrap();
        // Era moves past E via retires; objects born *later* than E and
        // retired later are unreachable by thread 1's reservation... they
        // free despite the standing reservation.
        for _ in 0..8 {
            smr.begin_op(0);
            let p = alloc.alloc(0, 64);
            smr.on_alloc(0, p);
            smr.retire(0, p);
            smr.end_op(0);
        }
        let freed_mid = smr.stats().freed;
        assert!(
            freed_mid > 0,
            "later-born objects must be reclaimable: {:?}",
            smr.stats()
        );
        drop(g1);
        smr.quiesce_and_drain();
    }

    #[test]
    fn multithreaded_stress() {
        let (_, smr) = setup(4, 32, 8);
        let shared = Smr::from_raw(smr.clone());
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let facade = shared.clone();
                std::thread::spawn(move || {
                    let h = facade.register(tid);
                    let link = AtomicUsize::new(0);
                    for i in 0..3_000usize {
                        let g = h.begin_op();
                        g.protect_load(i % 8, &link).unwrap();
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
