//! The zero-allocation gate (DESIGN.md §2.4, §7) — its only home.
//!
//! The allocator's behaviour under a reclamation scheme is the experiment,
//! so the retire pipeline, the per-hop protection path and the tree's update
//! path must allocate from the *modelled* allocator only: a `malloc`/`free`
//! pair through the process heap (a scratch `Vec` in a split, a scan buffer
//! regrown per pass) is traffic the model never sees. A counting
//! `#[global_allocator]` observes that from below, and each cell asserts
//! **exactly 0** process-heap allocations and a 0 `retire_path_allocs`
//! delta in steady state — in a debug build, which elides no `malloc`, so
//! the release count is bounded from above.
//!
//! Cells are every `SmrKind` but the leaky `None` (its chunk store grows by
//! definition) × {batch, amortized} × three steady shapes, plus a cold burst
//! per scheme. They are enumerated from `SmrKind::ALL`: a new scheme is
//! gated the day it is added.

use epic_alloc::{build_allocator, AllocatorKind, CostModel, PoolAllocator};
use epic_ds::{AbTree, ConcurrentMap, HmList};
use epic_smr::{build_smr, FreeMode, Smr, SmrConfig, SmrKind};
use epic_util::{CountingAlloc, XorShift64};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Limbo-bag capacity of the steady shapes: small, so a reclamation pass
/// runs every few hundred retires.
const BAG_CAP: usize = 256;

fn reclaiming_kinds() -> impl Iterator<Item = SmrKind> {
    SmrKind::ALL.into_iter().filter(|k| *k != SmrKind::None)
}

fn je() -> Arc<dyn PoolAllocator> {
    build_allocator(AllocatorKind::Je, 1, CostModel::zero())
}

/// Runs `shape` once per reclaiming scheme × {batch, amortized} on a fresh
/// one-thread scheme over the je model. `shape` builds the step whose
/// steady state must not allocate; the step is warmed up until the scheme
/// has retired `4 × BAG_CAP` objects — reclamation progress, never an op
/// count, so every bag has rotated and the first scans (with their one-off
/// scan-buffer growth) are behind it whatever the shape's retire rate —
/// and then `steps` more run under the counter.
fn assert_steady_state_is_heap_free<S: FnMut()>(
    shape_name: &str,
    steps: usize,
    shape: impl Fn(Arc<dyn PoolAllocator>, Smr) -> S,
) {
    // Every dirty cell is reported, not just the first: which schemes
    // share a failure says where the allocation lives.
    let mut dirty = Vec::new();
    for kind in reclaiming_kinds() {
        for mode in [FreeMode::Batch, FreeMode::amortized()] {
            let alloc = je();
            let mut cfg = SmrConfig::new(1).with_bag_cap(BAG_CAP).with_mode(mode);
            cfg.epoch_check_every = 4;
            let smr = build_smr(kind, alloc.clone(), cfg);
            let mut step = shape(alloc, smr.clone());
            while smr.stats().retired < 4 * BAG_CAP as u64 {
                step();
            }
            let before = smr.stats();
            let ((), heap) = CountingAlloc::count(|| (0..steps).for_each(|_| step()));
            let after = smr.stats();
            assert!(
                after.freed > before.freed,
                "{shape_name} {kind:?} {mode:?}: nothing was reclaimed in the measured window"
            );
            let pool_misses = after.retire_path_allocs - before.retire_path_allocs;
            if (heap, pool_misses) != (0, 0) {
                dirty.push(format!(
                    "{shape_name} {kind:?} {mode:?}: {heap} process-heap allocations, \
                     retire_path_allocs +{pool_misses} over {} retires",
                    after.retired - before.retired
                ));
            }
        }
    }
    assert!(dirty.is_empty(), "{}", dirty.join("\n"));
}

/// The counter is live: without this a gate that reads 0 proves nothing.
#[test]
fn the_counter_sees_this_thread_and_only_this_thread() {
    let gate = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        // Allocates strictly inside the main thread's counted window.
        s.spawn(|| {
            gate.wait();
            drop(std::hint::black_box(vec![0u8; 64]));
            gate.wait();
        });
        let (v, n) = CountingAlloc::count(|| {
            gate.wait();
            gate.wait();
            std::hint::black_box(Vec::<u64>::with_capacity(8))
        });
        assert_eq!(n, 1, "this thread's one allocation, not the other thread's");
        drop(v);
    });
    let mut grown = Vec::with_capacity(1);
    grown.push(1u64);
    let ((), n) = CountingAlloc::count(|| grown.extend([2, 3, 4]));
    assert_eq!(n, 1, "a realloc is one allocation call");
}

/// ABtree fill/drain cycles: an ascending fill splits leaves all the way
/// up, the drain that follows empties and collapses every one of them.
#[test]
fn steady_state_updates_never_touch_the_process_heap() {
    const WINDOW: u64 = 2_000;
    assert_steady_state_is_heap_free("abtree", 3, |alloc, smr| {
        let t = AbTree::new(smr);
        let h = t.smr().register(0);
        move || {
            let nodes0 = alloc.snapshot().totals.allocs;
            for k in 0..WINDOW {
                assert!(t.insert(&h, k, k));
            }
            for k in 0..WINDOW {
                assert!(t.remove(&h, k));
            }
            // A plain leaf update allocates one node copy and only a split
            // allocates three, so more nodes than updates = splits ran.
            assert!(alloc.snapshot().totals.allocs - nodes0 > 2 * WINDOW);
            assert_eq!(t.size(), 0, "drained tree collapsed");
        }
    });
}

/// The handle protocol's read-mostly regime: 90 % lookups / 10 % updates
/// over a 64-key Harris–Michael list, the hop-heaviest client of
/// `protect_load`.
#[test]
fn hmlist_read_mostly_mix_never_touches_the_process_heap() {
    const KEYS: u64 = 64;
    assert_steady_state_is_heap_free("hmlist", 40, |_, smr| {
        let list = HmList::new(smr);
        let h = list.smr().register(0);
        for k in 0..KEYS {
            list.insert(&h, k, k);
        }
        let mut rng = XorShift64::new(0x9E37_79B9);
        move || {
            for i in 0..1000 {
                let key = rng.next_bounded(KEYS);
                match i % 20 {
                    9 => drop(list.insert(&h, key, key)),
                    19 => drop(list.remove(&h, key)),
                    _ => drop(std::hint::black_box(list.get(&h, key))),
                }
            }
        }
    });
}

/// The retire pipeline's steady regime: alloc, retire and reclaim with no
/// data structure above it.
#[test]
fn raw_retire_churn_never_touches_the_process_heap() {
    assert_steady_state_is_heap_free("churn", 20, |alloc, smr| {
        let raw = smr.into_raw();
        move || {
            for _ in 0..1000 {
                raw.begin_op(0);
                let p = alloc.alloc(0, 64);
                raw.on_alloc(0, p);
                raw.retire(0, p);
                raw.end_op(0);
            }
        }
    });
}

/// The retire pipeline's burst regime: a *fresh* scheme absorbs a batch
/// with its thresholds out of reach, then drains it — no warm-up, so
/// construction must have sized everything the retire path will use.
#[test]
fn a_cold_burst_never_touches_the_process_heap() {
    const BURST: usize = 4096;
    let mut dirty = Vec::new();
    for kind in reclaiming_kinds() {
        let alloc = je();
        let cfg = SmrConfig::new(1).with_bag_cap(2 * BURST);
        let smr = build_smr(kind, alloc.clone(), cfg);
        let raw = smr.raw();
        let blocks: Vec<_> = (0..BURST)
            .map(|_| {
                let p = alloc.alloc(0, 64);
                raw.on_alloc(0, p);
                p
            })
            .collect();
        let ((), heap) = CountingAlloc::count(|| {
            for &p in &blocks {
                raw.retire(0, p);
            }
            raw.quiesce_and_drain();
        });
        let stats = smr.stats();
        assert_eq!(stats.freed, BURST as u64, "burst {kind:?}: drained");
        if (heap, stats.retire_path_allocs) != (0, 0) {
            dirty.push(format!(
                "burst {kind:?}: {heap} process-heap allocations, retire_path_allocs +{} over \
                 {BURST} retires",
                stats.retire_path_allocs
            ));
        }
    }
    assert!(dirty.is_empty(), "{}", dirty.join("\n"));
}
