//! The thread-cache model on its arena backing, as `je` and as `je_incr`.
//! Cases shared with the central backing are in `cached::cases`.

use crate::cached::cases::{self, churn, je_incr, model};
use crate::AllocatorKind::{self, Je, JeIncr};
use crate::PoolAllocator;

const ARENAS: [AllocatorKind; 2] = [Je, JeIncr];

#[test]
fn alloc_returns_writable_memory() {
    cases::roundtrip_is_lifo(&ARENAS, 100);
}

#[test]
fn reuse_is_lifo_from_cache() {
    cases::roundtrip_is_lifo(&ARENAS, 64);
}

#[test]
fn distinct_classes_do_not_alias() {
    cases::classes_do_not_alias(&ARENAS);
}

#[test]
fn flush_triggers_past_capacity() {
    cases::flush_triggers_past_capacity(&ARENAS);
}

#[test]
fn remote_free_counted_cross_thread() {
    cases::cross_thread_frees_are_remote(&ARENAS);
}

#[test]
fn local_free_not_remote() {
    cases::local_frees_are_not_remote(&ARENAS);
}

#[test]
fn peak_bytes_monotone_and_bounded_under_reuse() {
    cases::peak_bytes_flat_under_churn(&ARENAS);
}

#[test]
fn concurrent_stress_no_block_aliasing() {
    cases::concurrent_stress_no_block_aliasing(&ARENAS);
}

#[test]
fn flush_scratch_is_recycled_not_reallocated() {
    cases::flush_scratch_is_recycled(&ARENAS);
}

#[test]
fn reset_stats_keeps_memory() {
    cases::reset_stats_keeps_memory(&ARENAS);
}

#[test]
fn incremental_flush_moves_one_quantum() {
    let m = je_incr(4);
    assert_eq!(m.name(), "je_incr");
    // Free well past capacity: every overflow must move exactly the
    // 4-block quantum, never 3/4 of the bin.
    churn(&m, 32);
    let s = m.thread_stats(0);
    assert!(s.flushes >= 1, "{s:?}");
    assert_eq!(
        s.flushed_objects,
        4 * s.flushes,
        "each flush is exactly one quantum: {s:?}"
    );
}

#[test]
fn incremental_flush_keeps_bin_warm() {
    // Batch-free far past capacity, then allocate: the bin kept
    // (cap + 1 - q) blocks after each overflow, so allocations reuse
    // locally instead of refilling from the arena.
    let m = je_incr(4);
    let ptrs: Vec<_> = (0..64).map(|_| m.alloc(0, 64)).collect();
    let refills_before = m.thread_stats(0).refills;
    for p in ptrs {
        m.dealloc(0, p);
    }
    for _ in 0..13 {
        // Accounting-only: blocks stay live; chunk memory is owned by m.
        let _ = m.alloc(0, 64);
    }
    let s = m.thread_stats(0);
    assert_eq!(
        s.refills, refills_before,
        "warm bin must serve allocations: {s:?}"
    );
}

#[test]
fn quantum_flushes_are_frequent_but_small() {
    let grad = je_incr(4);
    let orig = model(Je, 1);
    for m in [&grad, &orig] {
        churn(m, 256);
    }
    let (g, o) = (grad.thread_stats(0), orig.thread_stats(0));
    assert!(
        g.flushes > o.flushes,
        "incremental overflows more often: {g:?} vs {o:?}"
    );
    let g_per = g.flushed_objects as f64 / g.flushes as f64;
    let o_per = o.flushed_objects as f64 / o.flushes as f64;
    assert!(
        g_per < o_per,
        "but each flush is much smaller: {g_per:.1} vs {o_per:.1} objects/flush"
    );
}
