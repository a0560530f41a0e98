//! Pins the order in which DEBRA's batch free hands blocks back to the
//! allocator, through the `je` model's counters.
//!
//! Two tids run on one OS thread, so nothing is contended and every counter
//! is a pure function of the scheme's rules and the order of its frees.
//! Each round, each tid allocates 150 blocks in one operation, two in five
//! of them 240 B and the rest 64 B, and retires them together with the 60
//! blocks the other tid allocated in the round before (remote frees). With
//! `epoch_check_every` 4, a limbo bag collects several such operations, so
//! every batch overflows the 200-slot thread cache: the flushes, their
//! sizes and which blocks reach a remote arena all follow from the order of
//! the free, and a list that frees a batch in another order moves them.

use epic_alloc::{build_allocator_with, AllocatorKind, CostModel, ThreadAllocStats};
use epic_smr::{build_smr, SmrConfig, SmrHandle, SmrKind};
use std::ptr::NonNull;

/// Host-independent: `CostModel::zero` reads the CPU count, which sets the
/// jemalloc model's arena count.
const COST: CostModel = CostModel {
    remote_penalty_ns: 0,
    refill_penalty_ns: 0,
    arenas_per_cpu: 4,
    assumed_cpus: 2,
};

/// `allocs, deallocs, refills, flushes, flushed_objects, remote_freed`.
type Alloc = [u64; 6];

fn alloc_totals(s: ThreadAllocStats) -> Alloc {
    [
        s.allocs,
        s.deallocs,
        s.refills,
        s.flushes,
        s.flushed_objects,
        s.remote_freed,
    ]
}

/// One round of `h`: allocate and retire 150 fresh blocks, interleaved with
/// the other tid's `handoff`; then allocate the next round's hand-off.
fn round(h: &SmrHandle, handoff: &mut Vec<NonNull<u8>>) -> Vec<NonNull<u8>> {
    let g = h.begin_op();
    for i in 0..150 {
        g.retire(g.alloc(if i % 5 < 2 { 240 } else { 64 }));
        if i % 5 == 4 {
            if let Some(p) = handoff.pop() {
                g.retire(p);
            }
        }
    }
    handoff.drain(..).for_each(|p| g.retire(p));
    drop(g);
    (0..60).map(|_| h.alloc(64)).collect()
}

#[test]
fn debra_batch_free_order_is_pinned() {
    let alloc = build_allocator_with(AllocatorKind::Je, 2, COST, Some(200));
    let mut cfg = SmrConfig::new(2);
    cfg.epoch_check_every = 1;
    let smr = build_smr(SmrKind::Debra, alloc.clone(), cfg);
    let hs = [smr.register(0), smr.register(1)];
    let mut handoff = [Vec::new(), Vec::new()];
    for _ in 0..40 {
        for t in 0..2 {
            let next = round(&hs[t], &mut handoff[1 - t]);
            handoff[t] = next;
        }
    }
    for t in 0..2 {
        let g = hs[t].begin_op();
        handoff[t].drain(..).for_each(|p| g.retire(p));
    }
    let s = smr.stats();
    let steady = (s.retired, s.freed, s.batches);
    drop(hs);
    smr.quiesce_and_drain();
    let s = smr.stats();
    let totals = alloc_totals(alloc.snapshot().totals);
    let tids = [0, 1].map(|t| alloc_totals(alloc.thread_stats(t)));
    assert_eq!(
        steady,
        (16_800, 15_270, 49),
        "retired, freed, batches before teardown"
    );
    assert_eq!(
        (s.retired, s.freed, s.batches),
        (16_800, 16_800, 49),
        "retired, freed, batches after teardown"
    );
    assert_eq!(
        totals,
        [16_800, 16_800, 73, 45, 6_750, 2_476],
        "allocator totals"
    );
    assert_eq!(
        tids,
        [
            [8_400, 8_340, 46, 28, 4_200, 1_181],
            [8_400, 8_460, 27, 17, 2_550, 1_295],
        ],
        "allocator per tid"
    );
}
