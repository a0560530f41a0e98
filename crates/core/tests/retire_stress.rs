//! Retire-pipeline ownership stress: the intrusive limbo lists thread
//! retired blocks through their own headers, so the failure modes to rule
//! out are a block linked onto two lists (freed twice), a splice dropping
//! a chain suffix (lost retirement), and header corruption while a block
//! sits in limbo.
//!
//! An accounting wrapper around the allocator checks every transition
//! against a ledger: each block must alternate alloc → free (per-block
//! free-count exactly 1 per lifetime) and must come back for freeing with
//! the same header class it was allocated with. Multi-threaded churn with
//! tiny bags forces constant rotation, scanning, and cross-epoch splicing
//! through every reclaiming scheme and every disposal mode ([`MODES`]);
//! each op also makes one protected hop to the block it retires, so scans
//! run against live protections. Reclamation must happen during the
//! churn, and at quiescence the ledger must balance to zero live blocks
//! with nothing lost.

use epic_alloc::{
    build_allocator, AllocSnapshot, AllocatorKind, BlockHeader, CostModel, PoolAllocator,
    ThreadAllocStats, Tid,
};
use epic_smr::{build_smr, FreeMode, SmrConfig, SmrKind};

use std::collections::HashMap;
use std::ptr::NonNull;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};

/// Per-block ledger entry: liveness plus the header class observed at
/// allocation time.
struct Entry {
    live: bool,
    class: u32,
    frees: u64,
}

/// Allocator wrapper asserting alloc/free alternation per block address.
struct AccountingAlloc {
    inner: Arc<dyn PoolAllocator>,
    ledger: Mutex<HashMap<usize, Entry>>,
}

impl AccountingAlloc {
    fn new(inner: Arc<dyn PoolAllocator>) -> Self {
        AccountingAlloc {
            inner,
            ledger: Mutex::new(HashMap::new()),
        }
    }

    /// Verifies the ledger at quiescence: nothing still live, and every
    /// block address that was ever handed out came back at least once.
    /// (The per-lifetime "freed exactly once" half of the contract is
    /// enforced eagerly inside [`dealloc`](PoolAllocator::dealloc) via the
    /// `live` assertion.)
    fn assert_balanced(&self) {
        let ledger = self.ledger.lock().unwrap();
        let live = ledger.values().filter(|e| e.live).count();
        assert_eq!(live, 0, "blocks leaked past quiesce_and_drain");
        assert!(
            ledger.values().all(|e| e.frees >= 1),
            "a block was allocated but never came back for freeing"
        );
    }
}

impl PoolAllocator for AccountingAlloc {
    fn alloc(&self, tid: Tid, size: usize) -> NonNull<u8> {
        let p = self.inner.alloc(tid, size);
        // SAFETY: fresh block from the inner pool allocator.
        let class = unsafe { BlockHeader::from_user(p) }.class;
        let mut ledger = self.ledger.lock().unwrap();
        let entry = ledger.entry(p.as_ptr() as usize).or_insert(Entry {
            live: false,
            class,
            frees: 0,
        });
        assert!(
            !entry.live,
            "allocator handed out a block still accounted live (double handout)"
        );
        // A freed address may legally reincarnate as a different class;
        // the class must only stay stable *within* a lifetime.
        entry.class = class;
        entry.live = true;
        p
    }

    fn dealloc(&self, tid: Tid, ptr: NonNull<u8>) {
        // SAFETY: the caller's contract says this block came from `alloc`.
        let class = unsafe { BlockHeader::from_user(ptr) }.class;
        {
            let mut ledger = self.ledger.lock().unwrap();
            let entry = ledger
                .get_mut(&(ptr.as_ptr() as usize))
                .expect("freeing a block this allocator never handed out");
            assert!(
                entry.live,
                "double free: block reached dealloc twice in one lifetime \
                 (an intrusive list linked it onto two chains)"
            );
            assert_eq!(
                entry.class, class,
                "header class clobbered while the block sat in limbo"
            );
            entry.live = false;
            entry.frees += 1;
        }
        self.inner.dealloc(tid, ptr);
    }

    fn snapshot(&self) -> AllocSnapshot {
        self.inner.snapshot()
    }

    fn thread_stats(&self, tid: Tid) -> ThreadAllocStats {
        self.inner.thread_stats(tid)
    }

    fn peak_bytes(&self) -> usize {
        self.inner.peak_bytes()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

/// Every disposal mode: each hands safe batches on differently (immediate
/// free, freeable list, object pool, reclaimer thread).
const MODES: [FreeMode; 4] = [
    FreeMode::Batch,
    FreeMode::Amortized { per_op: 1 },
    FreeMode::Pooled,
    FreeMode::Background,
];

/// Multi-threaded churn through one scheme/mode pair, with every retired
/// block's lifetime audited.
fn stress(kind: SmrKind, mode: FreeMode, threads: usize, ops_per_thread: usize) {
    // One tid more than the workers: the background reclaimer frees
    // through its own.
    let inner = build_allocator(AllocatorKind::Sys, threads + 1, CostModel::zero());
    let accounting = Arc::new(AccountingAlloc::new(Arc::clone(&inner)));
    let alloc: Arc<dyn PoolAllocator> = Arc::clone(&accounting) as Arc<dyn PoolAllocator>;
    // Tiny bags: rotation, scans and cross-epoch splices fire constantly.
    let mut cfg = SmrConfig::new(threads).with_mode(mode).with_bag_cap(16);
    cfg.epoch_check_every = 2;
    cfg.era_freq = 4;
    cfg.af_backlog_cap = 64;
    let smr = build_smr(kind, Arc::clone(&alloc), cfg);

    std::thread::scope(|scope| {
        for tid in 0..threads {
            let smr = smr.clone();
            scope.spawn(move || {
                let handle = smr.register(tid);
                for i in 0..ops_per_thread {
                    let guard = handle.begin_op();
                    let _ = guard.poll_restart();
                    let size = 32 + (i % 3) * 64; // three size classes in flight
                    let p = guard.alloc(size); // pool-alloc + on_alloc fused

                    // One protected hop per op, on a link to the block about
                    // to be retired: slot and era schemes publish it, nbr
                    // polls. A restart is ignored: the block was never shared.
                    let link = AtomicUsize::new(p.as_ptr() as usize);
                    let _ = guard.protect_load(i % 8, &link);
                    guard.enter_write_phase(&[p.as_ptr() as usize]);
                    guard.retire(p);
                }
                handle.detach();
            });
        }
    });
    // Reclamation runs during the churn, not only at teardown, and every
    // scheme with an epoch, token or era clock has moved it.
    let run = smr.stats();
    assert!(
        run.freed > 0,
        "{kind:?} {mode:?}: nothing freed before quiescence"
    );
    if !matches!(kind, SmrKind::Hp | SmrKind::Nbr | SmrKind::NbrPlus) {
        assert!(run.epochs > 0, "{kind:?} {mode:?}: the clock never moved");
    }
    smr.quiesce_and_drain();

    let s = smr.stats();
    let expected = (threads * ops_per_thread) as u64;
    assert_eq!(s.retired, expected, "{kind:?} {mode:?}: retire undercount");
    assert_eq!(
        s.freed, expected,
        "{kind:?} {mode:?}: lost retirement (retired != freed at quiescence)"
    );
    assert_eq!(s.garbage, 0, "{kind:?} {mode:?}: garbage gauge unbalanced");
    // Balanced accounting never drives the gauge negative; a clamp here
    // means a double free or double count slipped through.
    assert_eq!(
        s.garbage_clamps, 0,
        "{kind:?} {mode:?}: garbage gauge clamped (double-count bug)"
    );

    // The ledger has the ground truth: every lifetime freed exactly once.
    accounting.assert_balanced();

    // Each scanning thread grows its one scan buffer once and reuses it:
    // the counted retire-path allocations stay at most one per thread
    // even though scans/rotations number in the thousands.
    assert!(
        s.retire_path_allocs <= threads as u64,
        "{kind:?} {mode:?}: scan buffer regrown \
         ({} retire-path allocations)",
        s.retire_path_allocs
    );
}

#[test]
fn epoch_family_never_double_frees_or_loses_blocks() {
    for kind in [SmrKind::Debra, SmrKind::Qsbr, SmrKind::Rcu] {
        for mode in MODES {
            stress(kind, mode, 4, 2_000);
        }
    }
}

#[test]
fn token_ring_never_double_frees_or_loses_blocks() {
    for kind in [
        SmrKind::TokenNaive,
        SmrKind::TokenPassFirst,
        SmrKind::TokenPeriodic,
    ] {
        for mode in MODES {
            stress(kind, mode, 4, 2_000);
        }
    }
}

#[test]
fn scan_family_never_double_frees_or_loses_blocks() {
    for kind in [
        SmrKind::Hp,
        SmrKind::He,
        SmrKind::Ibr,
        SmrKind::Wfe,
        SmrKind::Nbr,
        SmrKind::NbrPlus,
    ] {
        for mode in MODES {
            stress(kind, mode, 4, 1_500);
        }
    }
}
