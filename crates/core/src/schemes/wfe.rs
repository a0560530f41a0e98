//! Wait-free eras (Nikolaev & Ravindran, PPoPP 2020) — `wfe`, simplified.
//!
//! Full WFE adds a wait-free helping protocol on top of hazard eras so that
//! `protect` completes in a bounded number of steps even under continuous
//! era advancement. This implementation reproduces WFE's *cost profile* —
//! the paper's evaluation point is that wfe, like he/hp, pays per-read
//! synchronization that dwarfs any batching gains — using HE-style era
//! reservations published through a **double-word announcement** (the
//! two-location handshake WFE uses on its slow path), making `protect`
//! strictly heavier than `he`'s single store:
//!
//! 1. write the era to the slot's *enter* word,
//! 2. `SeqCst` fence,
//! 3. write the era to the slot's *exit* word.
//!
//! A scanner treats a slot as reserving **both** words' eras (conservative:
//! a half-finished publication still protects). The reclamation-side behaviour
//! (bags, scans, batch vs amortized) is identical to hazard eras. The
//! deviation from the published wait-free helping protocol is documented in
//! DESIGN.md §2.

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

const NONE: u64 = u64::MAX;

struct WfeThread {
    bag: RetiredList,
    retires_since_tick: usize,
}

/// Simplified wait-free eras. See module docs.
pub struct WfeSmr {
    common: SchemeCommon,
    era: AtomicU64,
    /// Two words per slot: `[enter, exit]` at `slots[(tid*k + i) * 2 ..]`.
    slots: Box<[AtomicU64]>,
    k: usize,
    threads: TidSlots<WfeThread>,
}

impl WfeSmr {
    /// Builds the scheme.
    pub fn new(alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig) -> Self {
        let n = cfg.max_threads;
        let k = cfg.hp_slots;
        WfeSmr {
            era: AtomicU64::new(1),
            slots: (0..n * k * 2)
                .map(|_| AtomicU64::new(NONE))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            k,
            threads: TidSlots::new_with(n, |_| WfeThread {
                bag: RetiredList::new(),
                retires_since_tick: 0,
            }),
            common: SchemeCommon::new("wfe", alloc, cfg),
        }
    }

    /// Current era.
    pub fn current_era(&self) -> u64 {
        self.era.load(Ordering::SeqCst)
    }

    /// Era snapshot (both announcement words) in recycled scratch,
    /// in-place bag partition: no heap allocation per scan.
    fn scan_and_reclaim(&self, tid: Tid, state: &mut WfeThread) {
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

impl RawSmr for WfeSmr {
    fn common(&self) -> &SchemeCommon {
        &self.common
    }

    fn begin_op(&self, tid: Tid) {
        self.common.relief(tid);
    }

    fn end_op(&self, tid: Tid) {
        for i in 0..self.k * 2 {
            self.slots[tid * self.k * 2 + i].store(NONE, Ordering::Release);
        }
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
        unsafe {
            SchemeLocal::era_slots_2wide(
                &self.era,
                &self.slots[tid * self.k * 2..(tid + 1) * self.k * 2],
            )
        }
    }

    fn kind(&self) -> SmrKind {
        SmrKind::Wfe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::AtomicUsize;
    use crate::Smr;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};

    fn setup(n: usize, bag_cap: usize) -> (Arc<dyn PoolAllocator>, Arc<WfeSmr>) {
        let alloc = build_allocator(AllocatorKind::Je, n, CostModel::zero());
        let mut cfg = SmrConfig::new(n).with_bag_cap(bag_cap);
        cfg.era_freq = 2;
        let smr = Arc::new(WfeSmr::new(Arc::clone(&alloc), cfg));
        (alloc, smr)
    }

    #[test]
    fn double_word_publication() {
        let (_, smr) = setup(1, 4);
        let h = Smr::from_raw(smr.clone()).register(0);
        let g = h.begin_op();
        g.protect_load(2, &AtomicUsize::new(0)).unwrap();
        let base = 2 * 2;
        let enter = smr.slots[base].load(Ordering::Relaxed);
        let exit = smr.slots[base + 1].load(Ordering::Relaxed);
        assert_eq!(enter, exit);
        assert_ne!(enter, NONE);
        drop(g);
        assert_eq!(smr.slots[base].load(Ordering::Relaxed), NONE);
    }

    #[test]
    fn reservation_protects_and_releases() {
        let (alloc, smr) = setup(2, 4);
        let h1 = Smr::from_raw(smr.clone()).register(1);
        let g1 = h1.begin_op();
        g1.protect_load(0, &AtomicUsize::new(0)).unwrap();
        smr.begin_op(0);
        let victim = alloc.alloc(0, 64);
        smr.on_alloc(0, victim);
        smr.retire(0, victim);
        for _ in 0..8 {
            let q = alloc.alloc(0, 64);
            smr.on_alloc(0, q);
            smr.retire(0, q);
        }
        smr.end_op(0);
        assert!(smr.stats().garbage >= 1);
        assert!(
            smr.stats().freed > 0,
            "unreserved lifetimes freed: {:?}",
            smr.stats()
        );
        drop(g1);
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn multithreaded_stress() {
        let (_, smr) = setup(4, 32);
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
