//! The thread-cache model on its central backing, as `tc`. Cases shared
//! with the arena backing are in `cached::cases`.

use crate::cached::cases::{self, churn, model};
use crate::AllocatorKind::{self, Tc};
use crate::PoolAllocator;
use std::sync::Arc;

const CENTRAL: [AllocatorKind; 1] = [Tc];

#[test]
fn alloc_dealloc_roundtrip() {
    cases::roundtrip_is_lifo(&CENTRAL, 240);
}

#[test]
fn distinct_classes_do_not_alias() {
    cases::classes_do_not_alias(&CENTRAL);
}

#[test]
fn flush_triggers_past_capacity() {
    cases::flush_triggers_past_capacity(&CENTRAL);
}

#[test]
fn cross_thread_free_is_remote() {
    cases::cross_thread_frees_are_remote(&CENTRAL);
}

#[test]
fn flush_hits_central_once_per_overflow() {
    // All blocks are allocated and freed by tid 0, so every flush is local.
    cases::local_frees_are_not_remote(&CENTRAL);
}

#[test]
fn peak_bytes_flat_under_churn() {
    cases::peak_bytes_flat_under_churn(&CENTRAL);
}

#[test]
fn concurrent_churn_is_sound() {
    cases::concurrent_stress_no_block_aliasing(&CENTRAL);
}

#[test]
fn flush_scratch_is_recycled_not_reallocated() {
    cases::flush_scratch_is_recycled(&CENTRAL);
}

#[test]
fn reset_stats_keeps_memory() {
    cases::reset_stats_keeps_memory(&CENTRAL);
}

#[test]
fn blocks_migrate_through_central_list() {
    // Thread 0 frees enough to flush to central; thread 1 then allocates
    // and must receive recycled blocks (peak memory stays flat).
    let m = Arc::new(model(Tc, 2));
    churn(&m, 128);
    let peak_before = m.peak_bytes();
    let m2 = Arc::clone(&m);
    std::thread::spawn(move || {
        let got: Vec<_> = (0..64).map(|_| m2.alloc(1, 64)).collect();
        for p in got {
            m2.dealloc(1, p);
        }
    })
    .join()
    .unwrap();
    assert_eq!(
        m.peak_bytes(),
        peak_before,
        "recycling should avoid new chunks"
    );
}
