//! Hazard pointers (Michael, 2004) — `hp`.
//!
//! Per-thread announcement slots hold the addresses a thread may be about
//! to dereference. The data structure publishes through
//! [`OpGuard::protect_load`](crate::OpGuard::protect_load), which stores
//! the pointer to a slot and *must* re-read the link to validate — the
//! hazard-slot [`SchemeLocal`] returned by `local` selects that protocol;
//! reclamation scans all slots and frees only unannounced objects.
//!
//! The per-read store + SeqCst fencing is exactly why the paper finds hp
//! 7–9× slower than token_af on traversal-heavy trees (Fig. 11a), and its
//! scan-based reclamation still frees in batches — so it also benefits
//! (modestly, §5) from amortized freeing.

use super::reclaim_unannounced;
use crate::common::SchemeCommon;
use crate::config::SmrConfig;
use crate::retired::RetiredList;
use crate::{RawSmr, SchemeLocal, SmrKind};

use crate::sync::{AtomicUsize, Ordering};
use epic_alloc::{PoolAllocator, Tid};
use epic_util::{SlotBlocks, TidSlots};
use std::ptr::NonNull;
use std::sync::Arc;

struct HpThread {
    bag: RetiredList,
}

/// Hazard pointers. See module docs.
pub struct HpSmr {
    common: SchemeCommon,
    /// `hp_slots` hazard slots per thread, each thread's block on its own
    /// cache lines (`end_op` stores to all of them on every operation).
    slots: SlotBlocks<AtomicUsize>,
    threads: TidSlots<HpThread>,
}

impl HpSmr {
    /// Builds the scheme with `cfg.hp_slots` hazard slots per thread.
    pub fn new(alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig) -> Self {
        let n = cfg.max_threads;
        HpSmr {
            slots: SlotBlocks::new_with(n, cfg.hp_slots, || AtomicUsize::new(0)),
            threads: TidSlots::new_with(n, |_| HpThread {
                bag: RetiredList::new(),
            }),
            common: SchemeCommon::new("hp", alloc, cfg),
        }
    }

    /// Raw slot contents (tests).
    #[cfg(test)]
    pub(crate) fn slot_value(&self, tid: Tid, slot: usize) -> usize {
        self.slots.block(tid)[slot].load(Ordering::Relaxed)
    }
}

impl RawSmr for HpSmr {
    fn common(&self) -> &SchemeCommon {
        &self.common
    }

    fn begin_op(&self, tid: Tid) {
        self.common.relief(tid);
    }

    fn end_op(&self, tid: Tid) {
        // Release the operation's hazards so scanners can reclaim.
        for slot in self.slots.block(tid) {
            slot.store(0, Ordering::Release);
        }
    }

    fn retire(&self, tid: Tid, ptr: NonNull<u8>) {
        self.common.stats.get(tid).on_retire(1);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        // SAFETY: `ptr` is a live block of this scheme's allocator (retire
        // contract), exclusively ours from unlink to free.
        unsafe { state.bag.push_retire(ptr, 0) };
        let threshold = self.common.cfg.bag_cap.max(2 * self.slots.count());
        if state.bag.len() >= threshold {
            // Free every bagged object no hazard slot announces; announced
            // ones stay in the bag for the next scan.
            self.common.stats.get(tid).on_scan();
            let scratch = self.common.scratch(tid, self.slots.count());
            reclaim_unannounced(&self.common, tid, &self.slots, &mut state.bag, scratch);
        }
    }

    fn detach(&self, tid: Tid) {
        // Drop all hazards permanently.
        self.end_op(tid);
    }

    fn quiesce_and_drain(&self) {
        for s in self.slots.iter() {
            s.store(0, Ordering::Relaxed);
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
        // SAFETY: the slot blocks are owned by self, boxed (stable address),
        // and outlive every handle via the facade's Arc.
        unsafe { SchemeLocal::hazard_slots(self.slots.block(tid)) }
    }

    fn kind(&self) -> SmrKind {
        SmrKind::Hp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FreeMode;
    use crate::Smr;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};

    /// The allocator, the concrete scheme (slot inspection) and the facade
    /// over it (the live `protect_load` path).
    fn setup(n: usize, bag_cap: usize) -> (Arc<dyn PoolAllocator>, Arc<HpSmr>, Smr) {
        let alloc = build_allocator(AllocatorKind::Sys, n, CostModel::zero());
        let cfg = SmrConfig::new(n).with_bag_cap(bag_cap);
        let smr = Arc::new(HpSmr::new(Arc::clone(&alloc), cfg));
        let facade = Smr::from_raw(smr.clone());
        (alloc, smr, facade)
    }

    #[test]
    fn protected_object_survives_scan() {
        let (alloc, smr, facade) = setup(2, 4);
        let victim = alloc.alloc(0, 64);
        let link = AtomicUsize::new(victim.as_ptr() as usize);
        // Thread 1 protects the victim.
        let h1 = facade.register(1);
        let g1 = h1.begin_op();
        assert_eq!(g1.protect_load(0, &link), Ok(victim.as_ptr() as usize));
        // Thread 0 retires it plus enough filler to trigger scans.
        smr.begin_op(0);
        smr.retire(0, victim);
        for _ in 0..64 {
            let filler = alloc.alloc(0, 64);
            smr.retire(0, filler);
        }
        smr.end_op(0);
        let s = smr.stats();
        assert!(s.freed > 0, "filler must be reclaimed: {s:?}");
        assert!(s.scans > 0);
        // The victim is still protected: garbage >= 1.
        assert!(s.garbage >= 1);
        // Thread 1 releases; next scan frees the victim.
        drop(g1);
        smr.begin_op(0);
        for _ in 0..64 {
            let filler = alloc.alloc(0, 64);
            smr.retire(0, filler);
        }
        smr.end_op(0);
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn end_op_clears_slots() {
        let (alloc, smr, facade) = setup(1, 2);
        let p = alloc.alloc(0, 64);
        let link = AtomicUsize::new(p.as_ptr() as usize);
        let h = facade.register(0);
        let g = h.begin_op();
        g.protect_load(3, &link).unwrap();
        assert_eq!(smr.slot_value(0, 3), p.as_ptr() as usize);
        drop(g);
        assert!(smr.slots.iter().all(|s| s.load(Ordering::Relaxed) == 0));
        let g = h.begin_op();
        g.retire(p);
        drop(g);
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().freed, 1);
    }

    #[test]
    fn af_mode_defers_scan_output() {
        let alloc = build_allocator(AllocatorKind::Sys, 1, CostModel::zero());
        let cfg = SmrConfig::new(1)
            .with_bag_cap(4)
            .with_mode(FreeMode::Amortized { per_op: 1 });
        let smr = HpSmr::new(Arc::clone(&alloc), cfg);
        for _ in 0..32 {
            smr.begin_op(0);
            let p = alloc.alloc(0, 64);
            smr.on_alloc(0, p);
            smr.retire(0, p);
            smr.end_op(0);
        }
        // Scans happened, and AF ticks freed gradually.
        let s = smr.stats();
        assert!(s.scans > 0);
        assert!(s.freed > 0 && s.freed < 32, "gradual: {s:?}");
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().freed, 32);
    }

    #[test]
    fn concurrent_protect_retire_stress() {
        let (alloc, smr, facade) = setup(4, 16);
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let facade = facade.clone();
                let alloc = Arc::clone(&alloc);
                std::thread::spawn(move || {
                    let h = facade.register(tid);
                    for i in 0..3_000usize {
                        let g = h.begin_op();
                        let p = alloc.alloc(tid, 64);
                        let link = AtomicUsize::new(p.as_ptr() as usize);
                        g.protect_load(i % 8, &link).unwrap();
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
