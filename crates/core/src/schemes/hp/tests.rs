use crate::config::{FreeMode, SmrConfig};
use crate::schemes::hazard::HazardSmr;
use crate::sync::AtomicUsize;
use crate::{RawSmr, Smr, SmrKind};
use epic_alloc::{build_allocator, AllocatorKind, CostModel, PoolAllocator};
use std::sync::Arc;

/// The allocator, the concrete scheme (slot inspection) and the facade
/// over it (the live `protect_load` path).
fn setup(n: usize, bag_cap: usize) -> (Arc<dyn PoolAllocator>, Arc<HazardSmr>, Smr) {
    let alloc = build_allocator(AllocatorKind::Sys, n, CostModel::zero());
    let cfg = SmrConfig::new(n).with_bag_cap(bag_cap);
    let smr = Arc::new(HazardSmr::new(Arc::clone(&alloc), cfg, SmrKind::Hp));
    let facade = Smr::from_raw(smr.clone());
    (alloc, smr, facade)
}

#[test]
fn protected_object_survives_scan() {
    let (alloc, smr, facade) = setup(2, 4);
    let victim = alloc.alloc(0, 64);
    let link = AtomicUsize::new(victim.as_ptr() as usize);
    // Thread 1 protects the victim.
    let h1 = facade.register(1);
    let g1 = h1.begin_op();
    assert_eq!(g1.protect_load(0, &link), Ok(victim.as_ptr() as usize));
    // Thread 0 retires it plus enough filler to trigger scans.
    smr.begin_op(0);
    smr.retire(0, victim);
    for _ in 0..64 {
        let filler = alloc.alloc(0, 64);
        smr.retire(0, filler);
    }
    smr.end_op(0);
    let s = smr.stats();
    assert!(s.freed > 0, "filler must be reclaimed: {s:?}");
    assert!(s.scans > 0);
    // The victim is still protected: garbage >= 1.
    assert!(s.garbage >= 1);
    // Thread 1 releases; next scan frees the victim.
    drop(g1);
    smr.begin_op(0);
    for _ in 0..64 {
        let filler = alloc.alloc(0, 64);
        smr.retire(0, filler);
    }
    smr.end_op(0);
    smr.quiesce_and_drain();
    assert_eq!(smr.stats().garbage, 0);
}

#[test]
fn end_op_clears_slots() {
    let (alloc, smr, facade) = setup(1, 2);
    let p = alloc.alloc(0, 64);
    let link = AtomicUsize::new(p.as_ptr() as usize);
    let h = facade.register(0);
    let g = h.begin_op();
    g.protect_load(3, &link).unwrap();
    assert_eq!(smr.slot_value(0, 3), p.as_ptr() as usize);
    drop(g);
    assert!((0..8).all(|slot| smr.slot_value(0, slot) == 0));
    let g = h.begin_op();
    g.retire(p);
    drop(g);
    smr.quiesce_and_drain();
    assert_eq!(smr.stats().freed, 1);
}

#[test]
fn af_mode_defers_scan_output() {
    let alloc = build_allocator(AllocatorKind::Sys, 1, CostModel::zero());
    let cfg = SmrConfig::new(1)
        .with_bag_cap(4)
        .with_mode(FreeMode::Amortized { per_op: 1 });
    let smr = HazardSmr::new(Arc::clone(&alloc), cfg, SmrKind::Hp);
    for _ in 0..32 {
        smr.begin_op(0);
        let p = alloc.alloc(0, 64);
        smr.on_alloc(0, p);
        smr.retire(0, p);
        smr.end_op(0);
    }
    // Scans happened, and AF ticks freed gradually.
    let s = smr.stats();
    assert!(s.scans > 0);
    assert!(s.freed > 0 && s.freed < 32, "gradual: {s:?}");
    smr.quiesce_and_drain();
    assert_eq!(smr.stats().freed, 32);
}

#[test]
fn concurrent_protect_retire_stress() {
    let (alloc, smr, facade) = setup(4, 16);
    let handles: Vec<_> = (0..4)
        .map(|tid| {
            let facade = facade.clone();
            let alloc = Arc::clone(&alloc);
            std::thread::spawn(move || {
                let h = facade.register(tid);
                for i in 0..3_000usize {
                    let g = h.begin_op();
                    let p = alloc.alloc(tid, 64);
                    let link = AtomicUsize::new(p.as_ptr() as usize);
                    g.protect_load(i % 8, &link).unwrap();
                    g.retire(p);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    smr.quiesce_and_drain();
    let s = smr.stats();
    assert_eq!(s.retired, 12_000);
    assert_eq!(s.freed, 12_000);
    assert_eq!(s.garbage, 0);
}
