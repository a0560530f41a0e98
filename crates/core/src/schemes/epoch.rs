//! The epoch schemes — `debra`, `rcu` and `qsbr` — in one implementation.
//!
//! One global epoch; one announcement per thread, `epoch << 1 | QUIESCENT`,
//! on its own cache line; three limbo bags per thread, each tagged with the
//! epoch its objects were retired in. A thread announcing epoch `e` frees
//! every bag tagged `e − lag` or older, and the global epoch may move from
//! `e` to `e + 1` once every announcement `agrees` with `e`: it is
//! quiescent, or it announces `e`. The schemes differ only at the points
//! marked *shape point* below:
//!
//! | scheme | starts at | announces | `end_op` sets `QUIESCENT` | retire tag, lag | advance attempt |
//! |---|---|---|---|---|---|
//! | `debra`: DEBRA (Brown, PODC 2015) | 3 | every op | yes | the announced epoch, 3 | every `k` ops, reading *one* announcement, round-robin |
//! | `rcu`: per-operation EBR (Fraser; Hart et al.) | 2 | every op | yes | a fresh global load, 2 | when a bag reaches `bag_cap`, reading all |
//! | `qsbr`: quiescent-state-based reclamation (Hart et al.) | 2 | every `k`-th op, its quiescent state | no | a fresh global load, 2 | at each announcement, reading all |
//!
//! `k` is [`crate::SmrConfig::epoch_check_every`], the paper's *k*. DEBRA
//! is the paper's state-of-the-art EBR (§2): its amortized scan is why
//! doubling the thread count doubles its epoch length, the effect Table 1
//! quantifies, and its tags may trail the global epoch, so a bag is provably
//! safe only at lag 3. rcu and qsbr tag with a fresh global load instead:
//! with a stale tag, lag 2 could free an object that a reader announced in
//! the newer epoch still holds. qsbr writes no announcement on the
//! operation path, at the cost of longer grace periods — hence bigger
//! batches, which is what makes it interesting for the paper's
//! batch-vs-amortized question.

use crate::common::SchemeCommon;
use crate::config::SmrConfig;
use crate::mutants::{self, M_EPOCH_ADVANCE_UNOBSERVED, M_QSBR_DETACH_SKIP};
use crate::retired::RetiredList;
use crate::{RawSmr, SmrKind};

use crate::sync::{AtomicU64, Ordering};
use epic_alloc::{PoolAllocator, Tid};
use epic_util::{CachePadded, TidSlots};
use std::ptr::NonNull;
use std::sync::Arc;

/// The announcement's low bit: the thread is outside any operation (debra,
/// rcu) or has left the workload (qsbr).
const QUIESCENT: u64 = 1;

/// Whether announcement `a` lets the global epoch advance from `e`.
#[inline]
fn agrees(a: u64, e: u64) -> bool {
    a & QUIESCENT != 0 || a >> 1 == e || (mutants::active(M_EPOCH_ADVANCE_UNOBSERVED) && a >> 1 < e)
}

/// A limbo bag: retirements plus the epoch they were tagged with. The
/// items are an intrusive [`RetiredList`], so filling, rotating and
/// disposing of a bag never allocates.
#[derive(Default)]
struct EpochBag {
    epoch: u64,
    items: RetiredList,
}

struct EpochThread {
    bags: [EpochBag; 3],
    /// The epoch this thread last announced and rotated its bags to.
    epoch: u64,
    /// The next announcement debra's round-robin scan reads.
    scan_idx: usize,
    ops_since_check: usize,
}

/// `debra`, `rcu` or `qsbr`, chosen by `kind`. See module docs.
pub struct EpochSmr {
    common: SchemeCommon,
    kind: SmrKind,
    global_epoch: AtomicU64,
    announce: Box<[CachePadded<AtomicU64>]>,
    threads: TidSlots<EpochThread>,
}

impl EpochSmr {
    /// Builds the epoch scheme `kind`; panics unless it is `Debra`, `Rcu`
    /// or `Qsbr`.
    pub fn new(alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig, kind: SmrKind) -> Self {
        let n = cfg.max_threads;
        // Shape point 1: the starting epoch. A thread that has not run yet
        // reads as quiescent, except to qsbr, which counts it as announced
        // in the starting epoch until its first quiescent state.
        let start = match kind {
            SmrKind::Debra => 3,
            SmrKind::Rcu | SmrKind::Qsbr => 2,
            other => panic!("{other:?} is not an epoch scheme"),
        };
        let idle = if kind == SmrKind::Qsbr { 0 } else { QUIESCENT };
        EpochSmr {
            kind,
            global_epoch: AtomicU64::new(start),
            announce: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(start << 1 | idle)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            threads: TidSlots::new_with(n, |_| EpochThread {
                bags: Default::default(),
                epoch: start,
                scan_idx: 0,
                ops_since_check: 0,
            }),
            common: SchemeCommon::new(kind.base_name(), alloc, cfg),
        }
    }

    /// Rotation on announcing epoch `e`: frees every bag tagged `e − lag`
    /// or older and restarts the round-robin scan.
    fn rotate(&self, tid: Tid, state: &mut EpochThread, e: u64) {
        // Shape point 4, with the retire tag: the lag.
        let lag = if self.kind == SmrKind::Debra { 3 } else { 2 };
        for bag in &mut state.bags {
            if bag.epoch + lag <= e && !bag.items.is_empty() {
                self.common.dispose(tid, &mut bag.items);
            }
        }
        state.epoch = e;
        state.scan_idx = 0;
    }

    /// Reads announcements from `scan_idx` on; once a whole array's worth
    /// in a row agrees with `e`, moves the global epoch to `e + 1`.
    fn scan(&self, tid: Tid, state: &mut EpochThread, e: u64) {
        let n = self.announce.len();
        // Shape point 3: debra reads one announcement per call, resuming
        // where it left off; rcu and qsbr read the whole array.
        let budget = if self.kind == SmrKind::Debra {
            1
        } else {
            state.scan_idx = 0;
            n
        };
        for _ in 0..budget {
            if !agrees(self.announce[state.scan_idx].load(Ordering::SeqCst), e) {
                return;
            }
            state.scan_idx += 1;
            if state.scan_idx == n {
                state.scan_idx = 0;
                if self
                    .global_epoch
                    .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    self.common.record_epoch_advance(tid, e + 1);
                }
                return;
            }
        }
    }
}

impl RawSmr for EpochSmr {
    fn common(&self) -> &SchemeCommon {
        &self.common
    }

    fn begin_op(&self, tid: Tid) {
        self.common.relief(tid);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        // Shape point 2: debra scans and qsbr visits its quiescent state
        // every k-th op; only that visit announces under qsbr, while debra
        // and rcu announce on every op.
        let due = self.kind != SmrKind::Rcu && {
            state.ops_since_check += 1;
            state.ops_since_check >= self.common.cfg.epoch_check_every
        };
        if due {
            state.ops_since_check = 0;
        } else if self.kind == SmrKind::Qsbr {
            return;
        }
        // SeqCst store: the announcement must be globally visible before
        // this thread reads any data-structure link, or a concurrent
        // advancing thread could miss it.
        let e = self.global_epoch.load(Ordering::SeqCst);
        self.announce[tid].store(e << 1, Ordering::SeqCst);
        if state.epoch != e {
            self.rotate(tid, state, e);
        }
        if due {
            self.scan(tid, state, e);
        }
    }

    fn end_op(&self, tid: Tid) {
        // Shape point 2: qsbr stays announced until its next quiescent
        // state.
        if self.kind != SmrKind::Qsbr {
            let v = self.announce[tid].load(Ordering::Relaxed);
            self.announce[tid].store(v | QUIESCENT, Ordering::Release);
        }
    }

    fn retire(&self, tid: Tid, ptr: NonNull<u8>) {
        self.common.stats.get(tid).on_retire(1);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        // Shape point 4: debra tags with its announced epoch, rcu and qsbr
        // with a fresh read of the global one (see module docs).
        let tag = if self.kind == SmrKind::Debra {
            state.epoch
        } else {
            self.global_epoch.load(Ordering::SeqCst)
        };
        let bag = &mut state.bags[(tag % 3) as usize];
        if bag.epoch != tag {
            // The slot holds tag − 3 or older, past every kind's lag:
            // dispose before reuse.
            if !bag.items.is_empty() {
                debug_assert!(bag.epoch + 3 <= tag);
                self.common.dispose(tid, &mut bag.items);
            }
            bag.epoch = tag;
        }
        // SAFETY: `ptr` is a live block of this scheme's allocator (retire
        // contract), exclusively ours from unlink to free.
        unsafe { bag.items.push(ptr) };
        // Shape point 5: a full bag makes rcu try to advance.
        if self.kind == SmrKind::Rcu && bag.items.len() >= self.common.cfg.bag_cap {
            self.scan(tid, state, self.global_epoch.load(Ordering::SeqCst));
        }
    }

    fn detach(&self, tid: Tid) {
        // A quiescent announcement agrees with every epoch, so a detached
        // thread never blocks an advance again. Shape point 2 once more:
        // debra and rcu are already quiescent after `end_op`; without this
        // store, a finished qsbr thread's frozen announcement would pin
        // the epoch forever.
        if self.kind != SmrKind::Qsbr {
            self.end_op(tid);
        } else if !mutants::active(M_QSBR_DETACH_SKIP) {
            self.announce[tid].store(QUIESCENT, Ordering::SeqCst);
        }
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
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FreeMode;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};

    fn setup(kind: SmrKind, cfg: SmrConfig) -> (Arc<dyn PoolAllocator>, Arc<EpochSmr>) {
        let alloc = build_allocator(AllocatorKind::Sys, cfg.max_threads, CostModel::zero());
        let smr = Arc::new(EpochSmr::new(Arc::clone(&alloc), cfg, kind));
        (alloc, smr)
    }

    /// `SmrConfig::new(n)` with `epoch_check_every = k`.
    fn every(n: usize, k: usize) -> SmrConfig {
        let mut cfg = SmrConfig::new(n);
        cfg.epoch_check_every = k;
        cfg
    }

    fn churn(alloc: &Arc<dyn PoolAllocator>, smr: &EpochSmr, tid: usize, ops: usize) {
        for _ in 0..ops {
            smr.begin_op(tid);
            let p = alloc.alloc(tid, 64);
            smr.on_alloc(tid, p);
            smr.retire(tid, p);
            smr.end_op(tid);
        }
    }

    #[test]
    fn debra_single_thread_epochs_advance_and_reclaim() {
        let (alloc, smr) = setup(SmrKind::Debra, every(1, 1));
        churn(&alloc, &smr, 0, 100);
        let s = smr.stats();
        assert!(s.epochs >= 30, "1-thread ring should advance fast: {s:?}");
        assert!(s.freed > 0);
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
        assert_eq!(smr.stats().freed, 100);
    }

    #[test]
    fn debra_scan_amortization_slows_epochs() {
        let (alloc_fast, fast) = setup(SmrKind::Debra, every(1, 1));
        let (alloc_slow, slow) = setup(SmrKind::Debra, every(1, 10));
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
    fn debra_active_stale_thread_blocks_epoch() {
        let (alloc, smr) = setup(SmrKind::Debra, every(2, 1));
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
    fn debra_quiescent_thread_does_not_block() {
        let (alloc, smr) = setup(SmrKind::Debra, every(2, 1));
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
    fn debra_amortized_mode_defers_then_drains() {
        let cfg = every(1, 1).with_mode(FreeMode::Amortized { per_op: 2 });
        let (alloc, smr) = setup(SmrKind::Debra, cfg);
        churn(&alloc, &smr, 0, 300);
        let s = smr.stats();
        assert!(s.freed > 0, "AF ticks must free: {s:?}");
        // Batches were queued, not necessarily all freed yet.
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().freed, 300);
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn rcu_single_thread_reclaims_after_two_epochs() {
        let (alloc, smr) = setup(SmrKind::Rcu, SmrConfig::new(1).with_bag_cap(4));
        // Retire enough to force epoch advances; with one thread epochs
        // advance freely and memory gets reclaimed at rotations.
        churn(&alloc, &smr, 0, 64);
        smr.quiesce_and_drain();
        let s = smr.stats();
        assert_eq!(s.retired, 64);
        assert_eq!(s.freed, 64);
        assert_eq!(s.garbage, 0);
        assert!(s.epochs > 0, "epochs should have advanced: {s:?}");
    }

    #[test]
    fn rcu_in_op_thread_blocks_advance() {
        let (alloc, smr) = setup(SmrKind::Rcu, SmrConfig::new(2).with_bag_cap(2));
        // Thread 1 parks inside an operation at the current epoch... then
        // the epoch can advance at most once more (threads must re-announce
        // the *new* epoch for a further advance).
        smr.begin_op(1);
        let before = smr.stats().epochs;
        churn(&alloc, &smr, 0, 32);
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
    fn qsbr_epochs_advance_every_k_ops_single_thread() {
        let (alloc, smr) = setup(SmrKind::Qsbr, every(1, 10));
        churn(&alloc, &smr, 0, 100);
        let s = smr.stats();
        // 100 ops / k=10 -> 10 quiescent visits, each advancing.
        assert!(s.epochs >= 8, "expected ~10 epochs, got {}", s.epochs);
        assert!(s.freed > 0, "older bags must have been reclaimed");
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn qsbr_non_quiescing_thread_blocks_reclamation() {
        let (alloc, smr) = setup(SmrKind::Qsbr, every(2, 5));
        // Thread 1 never runs an op (never reaches a quiescent state with
        // the new epoch after the first announcement)... its initial
        // announcement equals the starting epoch, so at most one advance.
        let before = smr.stats().epochs;
        churn(&alloc, &smr, 0, 50);
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
    fn multithreaded_stress() {
        for (kind, cfg) in [
            (SmrKind::Debra, every(4, 2)),
            (SmrKind::Rcu, SmrConfig::new(4).with_bag_cap(8)),
            (SmrKind::Qsbr, every(4, 4)),
        ] {
            let (alloc, smr) = setup(kind, cfg);
            let handles: Vec<_> = (0..4)
                .map(|tid| {
                    let smr = Arc::clone(&smr);
                    let alloc = Arc::clone(&alloc);
                    std::thread::spawn(move || {
                        churn(&alloc, &smr, tid, 5_000);
                        // Detach, so a fast finisher cannot pin qsbr's
                        // epoch.
                        smr.detach(tid);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let s = smr.stats();
            assert_eq!(s.retired, 20_000, "{kind:?}");
            assert!(s.epochs > 2, "{kind:?} epochs: {}", s.epochs);
            assert!(s.freed > 0, "{kind:?}: {s:?}");
            smr.quiesce_and_drain();
            assert_eq!(smr.stats().freed, 20_000, "{kind:?}");
            assert_eq!(smr.stats().garbage, 0, "{kind:?}");
        }
    }
}
