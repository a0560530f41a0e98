//! Pins every free-path counter of each pool model, exactly.
//!
//! One deterministic two-tid script runs on a single OS thread, so no lock
//! is ever contended and every counter is a pure function of the model's
//! depot, owner and remote rules:
//!
//! 1. tid 0 allocates 250 blocks (every 5th one 240 B, the rest 64 B) and
//!    tid 1 frees them all;
//! 2. tid 1 allocates 100 blocks of 64 B and tid 0 frees them;
//! 3. tid 0 allocates 300 blocks of 64 B and frees them.
//!
//! The cost model is explicit because [`CostModel::zero`] reads the host's
//! CPU count, which sets the jemalloc model's arena count. The test goes
//! through [`build_allocator_with`] and [`PoolAllocator`] only, so it pins
//! the behaviour of whatever implements each [`AllocatorKind`].

use epic_alloc::{build_allocator_with, AllocatorKind, CostModel, PoolAllocator, ThreadAllocStats};
use std::ptr::NonNull;

const COST: CostModel = CostModel {
    remote_penalty_ns: 0,
    refill_penalty_ns: 0,
    arenas_per_cpu: 4,
    assumed_cpus: 2,
};

const TCACHE_CAP: usize = 16;

/// `allocs, deallocs, cache_hits, refills, flushes, flushed_objects,
/// remote_freed, lock_contended` of one tid.
type Counters = [u64; 8];

struct Expected {
    kind: AllocatorKind,
    tids: [Counters; 2],
    peak_bytes: usize,
    chunks: usize,
}

const EXPECTED: [Expected; 4] = [
    Expected {
        kind: AllocatorKind::Je,
        tids: [
            [550, 400, 482, 68, 31, 372, 92, 0],
            [100, 250, 88, 12, 19, 228, 228, 0],
        ],
        peak_bytes: 2 << 20,
        chunks: 2,
    },
    Expected {
        kind: AllocatorKind::JeIncr,
        tids: [
            [550, 400, 481, 69, 24, 384, 92, 0],
            [100, 250, 88, 12, 15, 240, 240, 0],
        ],
        peak_bytes: 2 << 20,
        chunks: 2,
    },
    Expected {
        kind: AllocatorKind::Tc,
        tids: [
            [550, 400, 482, 68, 31, 372, 84, 0],
            [100, 250, 88, 12, 19, 228, 228, 0],
        ],
        peak_bytes: 2 << 20,
        chunks: 2,
    },
    Expected {
        kind: AllocatorKind::Mi,
        tids: [
            [550, 400, 548, 2, 0, 0, 100, 0],
            [100, 250, 99, 1, 0, 0, 250, 0],
        ],
        peak_bytes: 3 << 16,
        chunks: 3,
    },
];

fn counters(s: ThreadAllocStats) -> Counters {
    [
        s.allocs,
        s.deallocs,
        s.cache_hits,
        s.refills,
        s.flushes,
        s.flushed_objects,
        s.remote_freed,
        s.lock_contended,
    ]
}

fn churn(a: &dyn PoolAllocator, by: usize, to: usize, sizes: impl Iterator<Item = usize>) {
    let blocks: Vec<NonNull<u8>> = sizes.map(|size| a.alloc(by, size)).collect();
    for p in blocks {
        a.dealloc(to, p);
    }
}

#[test]
fn every_free_path_counter_is_pinned() {
    for want in EXPECTED {
        let name = want.kind.name();
        let a = build_allocator_with(want.kind, 2, COST, Some(TCACHE_CAP));
        churn(
            &*a,
            0,
            1,
            (0..250).map(|i| if i % 5 == 0 { 240 } else { 64 }),
        );
        churn(&*a, 1, 0, (0..100).map(|_| 64));
        churn(&*a, 0, 0, (0..300).map(|_| 64));
        for (tid, counts) in want.tids.iter().enumerate() {
            assert_eq!(
                counters(a.thread_stats(tid)),
                *counts,
                "{name} tid {tid}: allocs, deallocs, cache_hits, refills, flushes, \
                 flushed_objects, remote_freed, lock_contended"
            );
        }
        let snap = a.snapshot();
        assert_eq!(snap.peak_bytes, want.peak_bytes, "{name} peak_bytes");
        assert_eq!(a.peak_bytes(), want.peak_bytes, "{name} peak_bytes()");
        assert_eq!(snap.chunks, want.chunks, "{name} chunks");
    }
}
