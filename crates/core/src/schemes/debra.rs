//! DEBRA (Brown, PODC 2015) — the paper's representative state-of-the-art
//! EBR implementation (§2).
//!
//! Structure reproduced from the paper's description:
//!
//! * a global epoch number;
//! * a single-writer multi-reader announcement array, one slot per thread,
//!   holding `epoch << 1 | quiescent`;
//! * threads update their announced epoch at the start of each operation
//!   and set the quiescent bit at the end;
//! * **amortized scanning**: once every `k` operations (the paper's *k*,
//!   [`crate::SmrConfig::epoch_check_every`]) a thread reads *one* other
//!   thread's announcement, proceeding round-robin; the first thread to
//!   observe that everyone announced the current epoch CASes the global
//!   epoch forward — so doubling the thread count doubles epoch length,
//!   the effect Table 1 quantifies;
//! * three limbo bags per thread, rotated on announcement.
//!
//! Retirements are tagged with the thread's *announced* epoch (as in real
//! DEBRA); with stale tags a bag is provably safe only after the thread
//! announces `tag + 3` (three bags = lag 3), which the rotation implements.

use crate::common::SchemeCommon;
use crate::config::SmrConfig;
use crate::schemes::EpochBag;
use crate::{RawSmr, SmrKind};

use epic_alloc::{PoolAllocator, Tid};
use epic_util::{CachePadded, TidSlots};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Announcement encoding: `epoch << 1 | quiescent`.
const QUIESCENT: u64 = 1;

struct DebraThread {
    bags: [EpochBag; 3],
    announced_epoch: u64,
    scan_idx: usize,
    ops_since_check: usize,
}

/// DEBRA. See module docs.
pub struct DebraSmr {
    common: SchemeCommon,
    global_epoch: AtomicU64,
    announce: Box<[CachePadded<AtomicU64>]>,
    threads: TidSlots<DebraThread>,
}

impl DebraSmr {
    /// Builds the scheme.
    pub fn new(alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig) -> Self {
        let n = cfg.max_threads;
        DebraSmr {
            common: SchemeCommon::new("debra", alloc, cfg),
            global_epoch: AtomicU64::new(3),
            announce: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(3 << 1 | QUIESCENT)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            threads: TidSlots::new_with(n, |_| DebraThread {
                bags: Default::default(),
                announced_epoch: 3,
                scan_idx: 0,
                ops_since_check: 0,
            }),
        }
    }

    /// Rotation on announcing epoch `e`: free every bag whose tag is
    /// ≤ `e − 3` (safe under stale tags; see module docs).
    fn rotate(&self, tid: Tid, state: &mut DebraThread, e: u64) {
        for bag in &mut state.bags {
            if bag.epoch + 3 <= e && !bag.items.is_empty() {
                self.common.dispose(tid, &mut bag.items);
            }
        }
        state.announced_epoch = e;
        state.scan_idx = 0;
    }

    /// The amortized scan step: examine one announcement; if the whole ring
    /// has been observed in epoch `e`, advance the global epoch.
    fn scan_step(&self, tid: Tid, state: &mut DebraThread, e: u64) {
        let n = self.announce.len();
        let a = self.announce[state.scan_idx % n].load(Ordering::SeqCst);
        let agrees = a & QUIESCENT == QUIESCENT || a >> 1 == e;
        if !agrees {
            return;
        }
        state.scan_idx += 1;
        if state.scan_idx >= n {
            state.scan_idx = 0;
            if self
                .global_epoch
                .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                self.common.record_epoch_advance(tid, e + 1);
            }
        }
    }
}

impl RawSmr for DebraSmr {
    fn common(&self) -> &SchemeCommon {
        &self.common
    }

    fn begin_op(&self, tid: Tid) {
        self.common.relief(tid);
        let e = self.global_epoch.load(Ordering::SeqCst);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        if state.announced_epoch != e {
            self.announce[tid].store(e << 1, Ordering::SeqCst);
            self.rotate(tid, state, e);
        } else {
            // Same epoch: clear the quiescent bit for this operation.
            self.announce[tid].store(e << 1, Ordering::SeqCst);
        }
        state.ops_since_check += 1;
        if state.ops_since_check >= self.common.cfg.epoch_check_every {
            state.ops_since_check = 0;
            self.scan_step(tid, state, e);
        }
    }

    fn end_op(&self, tid: Tid) {
        let v = self.announce[tid].load(Ordering::Relaxed);
        self.announce[tid].store(v | QUIESCENT, Ordering::Release);
    }

    fn retire(&self, tid: Tid, ptr: NonNull<u8>) {
        self.common.stats.get(tid).on_retire(1);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        let tag = state.announced_epoch;
        let bag = &mut state.bags[(tag % 3) as usize];
        if bag.epoch != tag {
            // Slot content is from tag−3 or older (rotation keeps the
            // invariant); dispose before reuse.
            if !bag.items.is_empty() {
                debug_assert!(bag.epoch + 3 <= tag);
                self.common.dispose(tid, &mut bag.items);
            }
            bag.epoch = tag;
        }
        // SAFETY: `ptr` is a live block of this scheme's allocator (retire
        // contract), exclusively ours from unlink to free.
        unsafe { bag.items.push_retire(ptr, 0) };
    }

    fn detach(&self, tid: Tid) {
        // Permanently quiescent: scanners treat us as agreeing with every
        // epoch, so we never block an advance again.
        self.end_op(tid);
    }

    fn quiesce_and_drain(&self) {
        for tid in 0..self.common.n_threads() {
            // SAFETY: quiescence is the caller's contract.
            let state = unsafe { self.threads.get_mut(tid) };
            for bag in &mut state.bags {
                self.common.free_batch_now(tid, &mut bag.items);
            }
            self.common.drain_freebuf(tid);
        }
        self.common.sync_background();
    }

    fn kind(&self) -> SmrKind {
        SmrKind::Debra
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FreeMode;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};

    fn setup(n: usize, k: usize, mode: FreeMode) -> (Arc<dyn PoolAllocator>, Arc<DebraSmr>) {
        let alloc = build_allocator(AllocatorKind::Sys, n, CostModel::zero());
        let mut cfg = SmrConfig::new(n).with_mode(mode);
        cfg.epoch_check_every = k;
        let smr = Arc::new(DebraSmr::new(Arc::clone(&alloc), cfg));
        (alloc, smr)
    }

    fn churn(alloc: &Arc<dyn PoolAllocator>, smr: &DebraSmr, tid: usize, ops: usize) {
        for _ in 0..ops {
            smr.begin_op(tid);
            let p = alloc.alloc(tid, 64);
            smr.on_alloc(tid, p);
            smr.retire(tid, p);
            smr.end_op(tid);
        }
    }

    #[test]
    fn single_thread_epochs_advance_and_reclaim() {
        let (alloc, smr) = setup(1, 1, FreeMode::Batch);
        churn(&alloc, &smr, 0, 100);
        let s = smr.stats();
        assert!(s.epochs >= 30, "1-thread ring should advance fast: {s:?}");
        assert!(s.freed > 0);
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
        assert_eq!(smr.stats().freed, 100);
    }

    #[test]
    fn scan_amortization_slows_epochs() {
        let (alloc_fast, fast) = setup(1, 1, FreeMode::Batch);
        let (alloc_slow, slow) = setup(1, 10, FreeMode::Batch);
        churn(&alloc_fast, &fast, 0, 200);
        churn(&alloc_slow, &slow, 0, 200);
        assert!(
            fast.stats().epochs > slow.stats().epochs * 2,
            "k=1 advances much faster than k=10: {} vs {}",
            fast.stats().epochs,
            slow.stats().epochs
        );
    }

    #[test]
    fn active_stale_thread_blocks_epoch() {
        let (alloc, smr) = setup(2, 1, FreeMode::Batch);
        // Thread 1 begins an op and stalls inside it (no quiescent bit).
        smr.begin_op(1);
        let before = smr.stats().epochs;
        churn(&alloc, &smr, 0, 100);
        assert!(
            smr.stats().epochs - before <= 1,
            "in-op thread must block advance (the EBR thread-delay sensitivity)"
        );
        smr.end_op(1);
        // Once quiescent, epochs flow again.
        churn(&alloc, &smr, 0, 100);
        assert!(smr.stats().epochs - before >= 2);
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn quiescent_thread_does_not_block() {
        let (alloc, smr) = setup(2, 1, FreeMode::Batch);
        // Thread 1 ran once and went quiescent.
        smr.begin_op(1);
        smr.end_op(1);
        churn(&alloc, &smr, 0, 100);
        assert!(
            smr.stats().epochs >= 20,
            "quiescent threads must not block: {:?}",
            smr.stats()
        );
    }

    #[test]
    fn amortized_mode_defers_then_drains() {
        let (alloc, smr) = setup(1, 1, FreeMode::Amortized { per_op: 2 });
        churn(&alloc, &smr, 0, 300);
        let s = smr.stats();
        assert!(s.freed > 0, "AF ticks must free: {s:?}");
        // Batches were queued, not necessarily all freed yet.
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().freed, 300);
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn multithreaded_stress() {
        let (alloc, smr) = setup(4, 2, FreeMode::Batch);
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let smr = Arc::clone(&smr);
                let alloc = Arc::clone(&alloc);
                std::thread::spawn(move || churn(&alloc, &smr, tid, 5_000))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = smr.stats();
        assert_eq!(s.retired, 20_000);
        assert!(s.epochs > 2, "epochs: {}", s.epochs);
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().freed, 20_000);
        assert_eq!(smr.stats().garbage, 0);
    }
}
