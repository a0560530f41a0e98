//! Classic per-operation epoch-based reclamation (`rcu`).
//!
//! The scheme Hart et al. call "epoch based reclamation" and the paper's
//! evaluation labels `rcu` \[20\]: each operation is a read-side critical
//! section announced in a shared array; a thread whose limbo bag crosses
//! the threshold scans all announcements and advances the global epoch if
//! every in-critical-section thread has announced the current one. Objects
//! retired in epoch *e* are freed once the global epoch reaches *e + 2*.

use crate::common::SchemeCommon;
use crate::config::SmrConfig;
use crate::schemes::EpochBag;
use crate::{RawSmr, SmrKind};

use epic_alloc::{PoolAllocator, Tid};
use epic_util::{CachePadded, TidSlots};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Announcement encoding: `epoch << 1 | in_op`.
const IN_OP: u64 = 1;

struct RcuThread {
    bags: [EpochBag; 3],
    current_epoch: u64,
}

/// Per-operation EBR. See module docs.
pub struct RcuSmr {
    common: SchemeCommon,
    global_epoch: AtomicU64,
    announce: Box<[CachePadded<AtomicU64>]>,
    threads: TidSlots<RcuThread>,
}

impl RcuSmr {
    /// Builds the scheme.
    pub fn new(alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig) -> Self {
        let n = cfg.max_threads;
        RcuSmr {
            common: SchemeCommon::new("rcu", alloc, cfg),
            global_epoch: AtomicU64::new(2),
            announce: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            threads: TidSlots::new_with(n, |_| RcuThread {
                bags: Default::default(),
                current_epoch: 0,
            }),
        }
    }

    /// Frees every bag whose tag is ≤ `epoch − 2` and retags the reused
    /// slot for `epoch`.
    fn rotate(&self, tid: Tid, state: &mut RcuThread, epoch: u64) {
        for bag in &mut state.bags {
            if bag.epoch + 2 <= epoch && !bag.items.is_empty() {
                self.common.dispose(tid, &mut bag.items);
            }
        }
        state.current_epoch = epoch;
        let slot = &mut state.bags[(epoch % 3) as usize];
        debug_assert!(slot.items.is_empty() || slot.epoch + 2 > epoch);
        if slot.items.is_empty() {
            slot.epoch = epoch;
        }
    }

    /// Attempts to advance the global epoch: succeeds if every thread that
    /// is inside an operation has announced the current epoch.
    fn try_advance(&self, tid: Tid, epoch: u64) {
        for a in self.announce.iter() {
            let v = a.load(Ordering::SeqCst);
            if v & IN_OP == IN_OP && v >> 1 != epoch {
                return;
            }
        }
        if self
            .global_epoch
            .compare_exchange(epoch, epoch + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            self.common.record_epoch_advance(tid, epoch + 1);
        }
    }
}

impl RawSmr for RcuSmr {
    fn common(&self) -> &SchemeCommon {
        &self.common
    }

    fn begin_op(&self, tid: Tid) {
        self.common.relief(tid);
        let e = self.global_epoch.load(Ordering::SeqCst);
        // SeqCst store: the announcement must be globally visible before
        // this thread reads any data-structure link, or a concurrent
        // advancing thread could miss it.
        self.announce[tid].store(e << 1 | IN_OP, Ordering::SeqCst);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        if state.current_epoch != e {
            self.rotate(tid, state, e);
        }
    }

    fn end_op(&self, tid: Tid) {
        let v = self.announce[tid].load(Ordering::Relaxed);
        self.announce[tid].store(v & !IN_OP, Ordering::Release);
    }

    fn retire(&self, tid: Tid, ptr: NonNull<u8>) {
        self.common.stats.get(tid).on_retire(1);
        // Tag with a *fresh* read of the global epoch, not the thread's
        // announced epoch: if the epoch advanced mid-operation, a stale tag
        // would let the lag-2 free rule reclaim an object that a reader
        // announced in the newer epoch can still hold.
        let tag = self.global_epoch.load(Ordering::SeqCst);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        let bag = &mut state.bags[(tag % 3) as usize];
        if bag.epoch != tag {
            // Previous contents of this slot are from tag−3 or older, hence
            // already ≥ 2 epochs stale: safe to dispose now.
            if !bag.items.is_empty() {
                debug_assert!(bag.epoch + 2 <= tag);
                self.common.dispose(tid, &mut bag.items);
            }
            bag.epoch = tag;
        }
        // SAFETY: `ptr` is a live block of this scheme's allocator (retire
        // contract), exclusively ours from unlink to free.
        unsafe { bag.items.push_retire(ptr, 0) };
        if bag.items.len() >= self.common.cfg.bag_cap {
            self.try_advance(tid, self.global_epoch.load(Ordering::SeqCst));
        }
    }

    fn detach(&self, tid: Tid) {
        // A detached thread is permanently outside any critical section.
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
        SmrKind::Rcu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};

    fn setup(n: usize, bag_cap: usize) -> (Arc<dyn PoolAllocator>, RcuSmr) {
        let alloc = build_allocator(AllocatorKind::Sys, n, CostModel::zero());
        let smr = RcuSmr::new(Arc::clone(&alloc), SmrConfig::new(n).with_bag_cap(bag_cap));
        (alloc, smr)
    }

    #[test]
    fn single_thread_reclaims_after_two_epochs() {
        let (alloc, smr) = setup(1, 4);
        // Retire enough to force epoch advances; with one thread epochs
        // advance freely and memory gets reclaimed at rotations.
        for _ in 0..64 {
            smr.begin_op(0);
            let p = alloc.alloc(0, 64);
            smr.retire(0, p);
            smr.end_op(0);
        }
        smr.quiesce_and_drain();
        let s = smr.stats();
        assert_eq!(s.retired, 64);
        assert_eq!(s.freed, 64);
        assert_eq!(s.garbage, 0);
        assert!(s.epochs > 0, "epochs should have advanced: {s:?}");
    }

    #[test]
    fn in_op_thread_blocks_advance() {
        let (alloc, smr) = setup(2, 2);
        // Thread 1 parks inside an operation at the current epoch... then
        // the epoch can advance at most once more (threads must re-announce
        // the *new* epoch for a further advance).
        smr.begin_op(1);
        let before = smr.stats().epochs;
        for _ in 0..32 {
            smr.begin_op(0);
            let p = alloc.alloc(0, 64);
            smr.on_alloc(0, p);
            smr.retire(0, p);
            smr.end_op(0);
        }
        let advanced = smr.stats().epochs - before;
        assert!(
            advanced <= 1,
            "stalled reader must block advance, got {advanced}"
        );
        assert!(
            smr.stats().garbage > 0,
            "garbage must pile up behind the stalled reader"
        );
        smr.end_op(1);
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn concurrent_stress_reclaims_most_garbage() {
        let (alloc, smr) = setup(4, 8);
        let smr = Arc::new(smr);
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
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        smr.quiesce_and_drain();
        let s = smr.stats();
        assert_eq!(s.retired, 20_000);
        assert_eq!(s.freed, 20_000);
        assert_eq!(s.garbage, 0);
        assert!(s.epochs > 2);
    }
}
