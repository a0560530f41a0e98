use crate::config::SmrConfig;
use crate::schemes::hazard::HazardSmr;
use crate::{RawSmr, SmrKind};
use epic_alloc::{build_allocator, AllocatorKind, CostModel, PoolAllocator};
use std::sync::Arc;

fn setup(n: usize, bag_cap: usize, kind: SmrKind) -> (Arc<dyn PoolAllocator>, Arc<HazardSmr>) {
    let alloc = build_allocator(AllocatorKind::Sys, n, CostModel::zero());
    let cfg = SmrConfig::new(n).with_bag_cap(bag_cap);
    let smr = Arc::new(HazardSmr::new(Arc::clone(&alloc), cfg, kind));
    (alloc, smr)
}

#[test]
fn reader_gets_neutralized_and_restarts() {
    let (alloc, smr) = setup(2, 4, SmrKind::Nbr);
    // Thread 1 sits in a read phase.
    smr.begin_op(1);
    assert!(!smr.poll_restart(1), "no request yet");
    // Thread 0 fills two bag generations in a separate OS thread (the
    // handshake needs thread 1 to poll, which we do from here). A
    // single pass can legitimately free nothing: the reclaimer's
    // HANDSHAKE_TIMEOUT_NS liveness guard gives up if this thread is
    // not scheduled in time (seen on loaded single-CPU boxes), keeping
    // the bags for the next retirement — so retry the fill cycle until a
    // handshake lands.
    let mut restarted = false;
    for _ in 0..50 {
        let smr2 = Arc::clone(&smr);
        let alloc2 = Arc::clone(&alloc);
        let reclaimer = std::thread::spawn(move || {
            smr2.begin_op(0);
            for _ in 0..9 {
                let p = alloc2.alloc(0, 64);
                smr2.retire(0, p);
            }
            smr2.end_op(0);
        });
        // Poll (and thereby ack) until the reclaimer finishes.
        while !reclaimer.is_finished() {
            if smr.poll_restart(1) {
                restarted = true;
            }
            std::hint::spin_loop();
        }
        reclaimer.join().unwrap();
        if smr.stats().freed > 0 {
            break;
        }
    }
    assert!(restarted, "read-phase thread must be neutralized");
    assert!(smr.stats().restarts >= 1);
    assert!(
        smr.stats().freed > 0,
        "reclaimer must not wait for the reader forever"
    );
    smr.end_op(1);
    smr.quiesce_and_drain();
}

#[test]
fn write_phase_reservations_are_honored() {
    let (alloc, smr) = setup(2, 4, SmrKind::Nbr);
    let victim = alloc.alloc(1, 64);
    // Thread 1 enters write phase holding the victim.
    smr.begin_op(1);
    smr.enter_write_phase(1, &[victim.as_ptr() as usize]);
    // Thread 0 retires the victim plus filler across two generations;
    // the handshake must pass (thread 1 is immune) and the victim must
    // survive the reclaim of its generation.
    smr.begin_op(0);
    smr.retire(0, victim);
    for _ in 0..8 {
        let p = alloc.alloc(0, 64);
        smr.retire(0, p);
    }
    smr.end_op(0);
    let s = smr.stats();
    assert!(s.freed > 0, "filler freed: {s:?}");
    assert!(s.garbage >= 1, "victim survives: {s:?}");
    assert!(!smr.poll_restart(1), "write phase is immune to restarts");
    smr.end_op(1);
    smr.quiesce_and_drain();
    assert_eq!(smr.stats().garbage, 0);
}

#[test]
fn idle_threads_do_not_block_reclaim() {
    let (alloc, smr) = setup(4, 4, SmrKind::Nbr);
    // Threads 1-3 never begin ops (IDLE).
    smr.begin_op(0);
    for _ in 0..16 {
        let p = alloc.alloc(0, 64);
        smr.retire(0, p);
    }
    smr.end_op(0);
    assert!(smr.stats().freed >= 8, "{:?}", smr.stats());
    smr.quiesce_and_drain();
}

#[test]
fn nbr_plus_skips_fresh_ops() {
    let (alloc, smr) = setup(2, 4, SmrKind::NbrPlus);
    // Generation A: retire 4 objects (fills and seals the bag).
    smr.begin_op(0);
    for _ in 0..4 {
        let p = alloc.alloc(0, 64);
        smr.retire(0, p);
    }
    smr.end_op(0);
    // Thread 1 starts an op AFTER generation A was sealed.
    smr.begin_op(1);
    // Generation B fills: reclaim of A runs; nbr+ must skip thread 1
    // (its op started after A's newest retirement), so no handshake
    // stall and no restart even though thread 1 never polls.
    smr.begin_op(0);
    for _ in 0..4 {
        let p = alloc.alloc(0, 64);
        smr.retire(0, p);
    }
    smr.end_op(0);
    assert!(smr.stats().freed >= 4, "{:?}", smr.stats());
    assert!(
        !smr.poll_restart(1),
        "nbr+ should not have signaled thread 1"
    );
    assert_eq!(smr.stats().restarts, 0);
    smr.end_op(1);
    smr.quiesce_and_drain();
}

#[test]
fn plain_nbr_neutralizes_fresh_ops_too() {
    let (alloc, smr) = setup(2, 4, SmrKind::Nbr);
    smr.begin_op(1); // reader in read phase the whole time
    let smr2 = Arc::clone(&smr);
    let alloc2 = Arc::clone(&alloc);
    let reclaimer = std::thread::spawn(move || {
        smr2.begin_op(0);
        for _ in 0..9 {
            let p = alloc2.alloc(0, 64);
            smr2.retire(0, p);
        }
        smr2.end_op(0);
    });
    let mut restarted = false;
    for _ in 0..10_000_000 {
        if smr.poll_restart(1) {
            restarted = true;
            break;
        }
    }
    reclaimer.join().unwrap();
    assert!(restarted, "plain nbr signals everyone");
    smr.end_op(1);
    smr.quiesce_and_drain();
}

#[test]
fn detached_threads_never_block_handshake() {
    let (alloc, smr) = setup(3, 4, SmrKind::Nbr);
    // Thread 1 begins an op then detaches (end-of-workload pattern).
    smr.begin_op(1);
    smr.detach(1);
    // Thread 2 never participates; thread 0 reclaims through both.
    smr.begin_op(0);
    for _ in 0..12 {
        let p = alloc.alloc(0, 64);
        smr.retire(0, p);
    }
    smr.end_op(0);
    assert!(smr.stats().freed >= 4, "{:?}", smr.stats());
    smr.quiesce_and_drain();
    assert_eq!(smr.stats().garbage, 0);
}

#[test]
fn multithreaded_stress_with_polling() {
    for kind in [SmrKind::Nbr, SmrKind::NbrPlus] {
        let (alloc, smr) = setup(4, 16, kind);
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let smr = Arc::clone(&smr);
                let alloc = Arc::clone(&alloc);
                std::thread::spawn(move || {
                    for _ in 0..3_000 {
                        smr.begin_op(tid);
                        // Simulated traversal with polling.
                        for _ in 0..3 {
                            let _ = smr.poll_restart(tid);
                        }
                        let p = alloc.alloc(tid, 64);
                        smr.enter_write_phase(tid, &[p.as_ptr() as usize]);
                        smr.retire(tid, p);
                        smr.end_op(tid);
                    }
                    smr.detach(tid);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        smr.quiesce_and_drain();
        let s = smr.stats();
        assert_eq!(s.retired, 12_000, "{kind:?}");
        assert_eq!(s.freed, 12_000, "{kind:?}");
        assert_eq!(s.garbage, 0, "{kind:?}");
    }
}
