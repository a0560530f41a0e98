//! The era schemes — `he`, `wfe` and `ibr` — in one implementation.
//!
//! Each block is stamped with its birth era at allocation
//! ([`crate::RawSmr::on_alloc`] writes the block header) and its retire era
//! at retirement; a global era clock advances every `era_freq` retires; a
//! bagged object is freed once no published reservation overlaps its
//! `[birth, retire]` lifetime. The schemes differ only in what a thread
//! publishes, at the four points marked *shape point* below:
//!
//! | scheme | words per thread | `begin_op` publishes | the block reads as | per-hop publish ([`SchemeLocal`]) |
//! |---|---|---|---|---|
//! | `he`: hazard eras (Ramalhete & Correia) | `hp_slots` | nothing | one era per non-`NONE` word | the era to a slot (`era_slots`) |
//! | `wfe`: wait-free eras (Nikolaev & Ravindran), simplified | `2 × hp_slots` | nothing | one era per non-`NONE` word | enter word, fence, exit word (`era_slots_2wide`) |
//! | `ibr`: 2GE interval-based reclamation (Wen et al.) | 2, `[lo, hi]` | `[e, e]` | one interval, if `lo != NONE` | widen `hi` to the era (`era_interval`) |
//!
//! `he`'s per-read publication (a SeqCst era load plus a conditional SeqCst
//! store per hop) is why the paper finds it among the slowest schemes and
//! the only one amortized freeing does not help (Fig. 11b). `wfe` keeps
//! WFE's cost profile — the double-word announcement makes `protect`
//! strictly heavier than `he`'s — but not its wait-free helping slow path
//! (DESIGN.md §2.3); scans honour both words, so a half-finished
//! publication still protects. `ibr`'s two words per thread are cheaper
//! than per-pointer slots but reserve more coarsely. Every thread's words
//! sit on their own cache lines ([`SlotBlocks`]): all three schemes store
//! to them on every `end_op`.

use crate::common::SchemeCommon;
use crate::config::SmrConfig;
use crate::retired::RetiredList;
use crate::{RawSmr, SchemeLocal, SmrKind};

use crate::sync::{fence, AtomicU64, Ordering};
use epic_alloc::block;
use epic_alloc::{PoolAllocator, Tid};
use epic_util::{SlotBlocks, TidSlots};
use std::ptr::NonNull;
use std::sync::Arc;

/// Sentinel: the word holds no reservation.
const NONE: u64 = u64::MAX;

struct EraThread {
    bag: RetiredList,
    /// Reservation snapshot, reused by every scan.
    scan: Vec<u64>,
    retires_since_tick: usize,
}

/// `he`, `wfe` or `ibr`, chosen by `kind`. See module docs.
pub struct EraSmr {
    common: SchemeCommon,
    kind: SmrKind,
    era: AtomicU64,
    /// Each thread's announcement words, `NONE` when empty.
    slots: SlotBlocks<AtomicU64>,
    threads: TidSlots<EraThread>,
}

impl EraSmr {
    /// Builds the era scheme `kind`; panics unless it is `He`, `Wfe` or
    /// `Ibr`.
    pub fn new(alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig, kind: SmrKind) -> Self {
        let n = cfg.max_threads;
        // Shape point 1: words per thread.
        let words = match kind {
            SmrKind::He => cfg.hp_slots,
            SmrKind::Wfe => 2 * cfg.hp_slots,
            SmrKind::Ibr => 2,
            other => panic!("{other:?} is not an era scheme"),
        };
        EraSmr {
            kind,
            era: AtomicU64::new(1),
            slots: SlotBlocks::new_with(n, words, || AtomicU64::new(NONE)),
            threads: TidSlots::new_with(n, |_| EraThread {
                bag: RetiredList::new(),
                scan: Vec::new(),
                retires_since_tick: 0,
            }),
            common: SchemeCommon::new(kind.base_name(), alloc, cfg),
        }
    }

    /// Current era (tests, diagnostics).
    pub fn current_era(&self) -> u64 {
        self.era.load(Ordering::SeqCst)
    }

    /// Reservation snapshot in the thread's scan buffer (never more words
    /// than the threads publish), in-place bag partition: no heap
    /// allocation.
    fn scan_and_reclaim(&self, tid: Tid, state: &mut EraThread) {
        self.common.stats.get(tid).on_scan();
        fence(Ordering::SeqCst);
        // Shape point 3: ibr's pair is one interval; any other word is the
        // single era `[e, e]`.
        let width = if self.kind == SmrKind::Ibr { 2 } else { 1 };
        let reserved = &mut state.scan;
        self.common.clear_scan(tid, reserved, self.slots.count());
        for t in 0..self.common.n_threads() {
            for words in self.slots.block(t).chunks_exact(width) {
                let at = reserved.len();
                reserved.extend(words.iter().map(|w| w.load(Ordering::Acquire)));
                if reserved[at] == NONE {
                    reserved.truncate(at);
                }
            }
        }
        let mut freeable = RetiredList::new();
        state.bag.partition_into(
            // Overlap test: [lo, hi] ∩ [birth, retire] ≠ ∅.
            |p| {
                // SAFETY: a bagged block is live and ours until freed.
                let (birth, retire) = unsafe { (block::birth_era(p), block::retire_era(p)) };
                reserved
                    .chunks_exact(width)
                    .any(|iv| iv[0] <= retire && birth <= iv[width - 1])
            },
            &mut freeable,
        );
        self.common.dispose(tid, &mut freeable);
    }
}

impl RawSmr for EraSmr {
    fn common(&self) -> &SchemeCommon {
        &self.common
    }

    fn begin_op(&self, tid: Tid) {
        self.common.relief(tid);
        // Shape point 2: only ibr publishes at operation start. Publishing
        // lo before hi is irrelevant for safety (both SeqCst and equal);
        // what matters is that publication precedes the first link read.
        if self.kind == SmrKind::Ibr {
            let e = self.era.load(Ordering::SeqCst);
            for w in self.slots.block(tid) {
                w.store(e, Ordering::SeqCst);
            }
        }
    }

    fn end_op(&self, tid: Tid) {
        for w in self.slots.block(tid) {
            w.store(NONE, Ordering::Release);
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
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        // SAFETY: `ptr` is a live block of this scheme's allocator (retire
        // contract), exclusively ours; its birth era is already in the
        // header (stamped by `on_alloc`), so only the retire era is added.
        unsafe {
            block::set_retire_era(ptr, self.era.load(Ordering::SeqCst));
            state.bag.push(ptr);
        }
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
        for w in self.slots.iter() {
            w.store(NONE, Ordering::Relaxed);
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
        let block = self.slots.block(tid);
        // SAFETY: the era clock and slot blocks are owned by self (inline /
        // boxed, stable addresses) and outlive every handle via the Arc.
        // Shape point 4: the per-hop protocol.
        unsafe {
            match self.kind {
                SmrKind::He => SchemeLocal::era_slots(&self.era, block),
                SmrKind::Wfe => SchemeLocal::era_slots_2wide(&self.era, block),
                _ => SchemeLocal::era_interval(&self.era, &block[1]),
            }
        }
    }

    fn kind(&self) -> SmrKind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::AtomicUsize;
    use crate::Smr;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};

    fn setup(
        kind: SmrKind,
        n: usize,
        bag_cap: usize,
        era_freq: usize,
    ) -> (Arc<dyn PoolAllocator>, Arc<EraSmr>) {
        let alloc = build_allocator(AllocatorKind::Je, n, CostModel::zero());
        let mut cfg = SmrConfig::new(n).with_bag_cap(bag_cap);
        cfg.era_freq = era_freq;
        let smr = Arc::new(EraSmr::new(Arc::clone(&alloc), cfg, kind));
        (alloc, smr)
    }

    /// Raw announcement word `i` of `tid`'s block.
    fn word(smr: &EraSmr, tid: Tid, i: usize) -> u64 {
        smr.slots.block(tid)[i].load(Ordering::Relaxed)
    }

    #[test]
    fn era_advances_with_retires() {
        let (alloc, smr) = setup(SmrKind::He, 1, 1_000_000, 4);
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
        let (alloc, smr) = setup(SmrKind::He, 2, 8, 2);
        // Thread 1 publishes the current era and parks.
        let h1 = Smr::from_raw(smr.clone()).register(1);
        let g1 = h1.begin_op();
        g1.protect_load(0, &AtomicUsize::new(0)).unwrap();
        // Thread 0 churns: everything it retires is born/retired in eras
        // >= thread 1's reservation... so objects whose lifetime covers
        // the reserved era are kept.
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
        drop(g1);
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn objects_born_after_reservation_epoch_are_freed() {
        let (alloc, smr) = setup(SmrKind::He, 2, 4, 1);
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
    fn double_word_publication() {
        let (_, smr) = setup(SmrKind::Wfe, 1, 4, 2);
        let h = Smr::from_raw(smr.clone()).register(0);
        let g = h.begin_op();
        g.protect_load(2, &AtomicUsize::new(0)).unwrap();
        let base = 2 * 2;
        let enter = word(&smr, 0, base);
        let exit = word(&smr, 0, base + 1);
        assert_eq!(enter, exit);
        assert_ne!(enter, NONE);
        drop(g);
        assert_eq!(word(&smr, 0, base), NONE);
    }

    #[test]
    fn reservation_protects_and_releases() {
        let (alloc, smr) = setup(SmrKind::Wfe, 2, 4, 2);
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
    fn interval_reservation_blocks_overlapping_lifetimes() {
        let (alloc, smr) = setup(SmrKind::Ibr, 2, 4, 1);
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
        let (_, smr) = setup(SmrKind::Ibr, 1, 4, 1);
        smr.begin_op(0);
        assert_ne!(word(&smr, 0, 0), NONE);
        smr.end_op(0);
        assert_eq!(word(&smr, 0, 0), NONE);
        assert_eq!(word(&smr, 0, 1), NONE);
    }

    #[test]
    fn protect_extends_hi_only_forward() {
        let (_, smr) = setup(SmrKind::Ibr, 1, 1_000_000, 1);
        let h = Smr::from_raw(smr.clone()).register(0);
        let g = h.begin_op();
        let lo0 = word(&smr, 0, 0);
        // Advance the era by retiring (freq 1).
        for _ in 0..5 {
            let p = g.alloc(64);
            g.retire(p);
        }
        g.protect_load(0, &AtomicUsize::new(0)).unwrap();
        let lo1 = word(&smr, 0, 0);
        let hi1 = word(&smr, 0, 1);
        assert_eq!(lo0, lo1, "lo never moves during an op");
        assert!(hi1 >= lo1 + 5, "hi tracks the era: lo={lo1} hi={hi1}");
        drop(g);
        smr.quiesce_and_drain();
    }

    #[test]
    fn multithreaded_stress() {
        for kind in [SmrKind::He, SmrKind::Wfe, SmrKind::Ibr] {
            let (_, smr) = setup(kind, 4, 32, 4);
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
            assert_eq!(s.retired, 12_000, "{kind:?}");
            assert_eq!(s.freed, 12_000, "{kind:?}");
            assert_eq!(s.garbage, 0, "{kind:?}");
        }
    }
}
