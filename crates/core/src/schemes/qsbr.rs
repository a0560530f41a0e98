//! Quiescent-state-based reclamation (`qsbr`).
//!
//! Hart et al.'s QSBR \[20\]: threads do **not** announce every operation;
//! instead they pass through an explicit *quiescent state* once every `k`
//! operations, announcing the global epoch. The fuzzy barrier advances the
//! epoch when every thread has announced it. Cheaper per-op than RCU/EBR
//! (no announcement write on the operation path), at the cost of longer
//! grace periods — hence bigger batches, which is exactly what makes it
//! interesting for the paper's batch-vs-amortized question.

use crate::common::SchemeCommon;
use crate::config::SmrConfig;
use crate::schemes::EpochBag;
use crate::{RawSmr, SmrKind};

use crate::sync::{AtomicU64, Ordering};
use epic_alloc::{PoolAllocator, Tid};
use epic_util::{CachePadded, TidSlots};
use std::ptr::NonNull;
use std::sync::Arc;

/// Announcement sentinel: the thread has left the workload and counts as
/// permanently quiescent.
const OFFLINE: u64 = u64::MAX;

struct QsbrThread {
    bags: [EpochBag; 3],
    current_epoch: u64,
    ops_since_quiescent: usize,
}

/// QSBR. See module docs.
pub struct QsbrSmr {
    common: SchemeCommon,
    global_epoch: AtomicU64,
    announce: Box<[CachePadded<AtomicU64>]>,
    threads: TidSlots<QsbrThread>,
}

impl QsbrSmr {
    /// Builds the scheme.
    pub fn new(alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig) -> Self {
        let n = cfg.max_threads;
        QsbrSmr {
            common: SchemeCommon::new("qsbr", alloc, cfg),
            global_epoch: AtomicU64::new(2),
            announce: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(2)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            threads: TidSlots::new_with(n, |_| QsbrThread {
                bags: Default::default(),
                current_epoch: 2,
                ops_since_quiescent: 0,
            }),
        }
    }

    /// The quiescent-state visit: announce the global epoch, rotate bags,
    /// and try to advance the fuzzy barrier.
    fn quiescent(&self, tid: Tid) {
        let e = self.global_epoch.load(Ordering::SeqCst);
        self.announce[tid].store(e, Ordering::SeqCst);

        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        if state.current_epoch != e {
            for bag in &mut state.bags {
                if bag.epoch + 2 <= e && !bag.items.is_empty() {
                    self.common.dispose(tid, &mut bag.items);
                }
            }
            state.current_epoch = e;
        }

        // Fuzzy barrier: advance if everyone announced e (or is offline).
        if self
            .announce
            .iter()
            .all(|a| matches!(a.load(Ordering::SeqCst), v if v == e || v == OFFLINE))
            && self
                .global_epoch
                .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
        {
            self.common.record_epoch_advance(tid, e + 1);
        }
    }
}

impl RawSmr for QsbrSmr {
    fn common(&self) -> &SchemeCommon {
        &self.common
    }

    fn begin_op(&self, tid: Tid) {
        self.common.relief(tid);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        state.ops_since_quiescent += 1;
        if state.ops_since_quiescent >= self.common.cfg.epoch_check_every {
            state.ops_since_quiescent = 0;
            self.quiescent(tid);
        }
    }

    fn end_op(&self, _tid: Tid) {}

    fn retire(&self, tid: Tid, ptr: NonNull<u8>) {
        self.common.stats.get(tid).on_retire(1);
        // Fresh-epoch tag (see rcu.rs): guarantees the lag-2 free rule is
        // safe even when the global epoch advanced since our last quiescent
        // announcement.
        let tag = self.global_epoch.load(Ordering::SeqCst);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        let bag = &mut state.bags[(tag % 3) as usize];
        if bag.epoch != tag {
            if !bag.items.is_empty() {
                debug_assert!(bag.epoch + 2 <= tag);
                self.common.dispose(tid, &mut bag.items);
            }
            bag.epoch = tag;
        }
        // SAFETY: `ptr` is a live block of this scheme's allocator (retire
        // contract), exclusively ours from unlink to free.
        unsafe { bag.items.push_retire(ptr, 0) };
    }

    fn detach(&self, tid: Tid) {
        if crate::mutants::active(crate::mutants::M_QSBR_DETACH_SKIP) {
            return;
        }
        // Without this, a finished thread's frozen announcement would pin
        // the fuzzy barrier forever — the QSBR equivalent of EBR's
        // thread-delay sensitivity, solved by explicit unregistration.
        self.announce[tid].store(OFFLINE, Ordering::SeqCst);
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
        SmrKind::Qsbr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};

    fn setup(n: usize, k: usize) -> (Arc<dyn PoolAllocator>, Arc<QsbrSmr>) {
        let alloc = build_allocator(AllocatorKind::Sys, n, CostModel::zero());
        let mut cfg = SmrConfig::new(n);
        cfg.epoch_check_every = k;
        let smr = Arc::new(QsbrSmr::new(Arc::clone(&alloc), cfg));
        (alloc, smr)
    }

    #[test]
    fn epochs_advance_every_k_ops_single_thread() {
        let (alloc, smr) = setup(1, 10);
        for _ in 0..100 {
            smr.begin_op(0);
            let p = alloc.alloc(0, 64);
            smr.retire(0, p);
            smr.end_op(0);
        }
        let s = smr.stats();
        // 100 ops / k=10 -> 10 quiescent visits, each advancing.
        assert!(s.epochs >= 8, "expected ~10 epochs, got {}", s.epochs);
        assert!(s.freed > 0, "older bags must have been reclaimed");
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn non_quiescing_thread_blocks_reclamation() {
        let (alloc, smr) = setup(2, 5);
        // Thread 1 never runs an op (never reaches a quiescent state with
        // the new epoch after the first announcement)... its initial
        // announcement equals the starting epoch, so at most one advance.
        let before = smr.stats().epochs;
        for _ in 0..50 {
            smr.begin_op(0);
            let p = alloc.alloc(0, 64);
            smr.retire(0, p);
            smr.end_op(0);
        }
        assert!(smr.stats().epochs - before <= 1);
        assert!(
            smr.stats().garbage >= 49,
            "garbage piles up: {:?}",
            smr.stats()
        );
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn multithreaded_quiescence_reclaims() {
        let (alloc, smr) = setup(4, 4);
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let smr = Arc::clone(&smr);
                let alloc = Arc::clone(&alloc);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        smr.begin_op(tid);
                        let p = alloc.alloc(tid, 64);
                        smr.on_alloc(tid, p);
                        smr.retire(tid, p);
                        smr.end_op(tid);
                    }
                    // Unregister so a fast finisher cannot pin the barrier.
                    smr.detach(tid);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = smr.stats();
        assert!(s.epochs > 2, "epochs: {}", s.epochs);
        assert!(s.freed > 0);
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
        assert_eq!(smr.stats().retired, 20_000);
    }
}
