//! Pins the counters of `hp`, `nbr` and `nbr+` exactly, in batch and in
//! amortized free, over one scripted run of two tids on one OS thread
//! (`bag_cap` 8, 8 slots per tid). The run is sequential, so every counter
//! follows from the scheme's rules alone: when a reclaim runs, which bag it
//! targets, whom nbr's handshake waits for and whom nbr+ skips.

use epic_alloc::{build_allocator, AllocatorKind, CostModel};
use epic_smr::{build_smr, FreeMode, SmrConfig, SmrHandle, SmrKind};
use std::sync::atomic::AtomicUsize;

/// `(retired, freed, garbage, scans, batches, epochs, restarts)`.
type Counters = (u64, u64, u64, u64, u64, u64, u64);

/// Runs the script under `kind` and `mode`; returns the counters after
/// each of its five steps and what tid 1's poll returned.
fn script(kind: SmrKind, mode: FreeMode) -> (Vec<Counters>, bool) {
    let alloc = build_allocator(AllocatorKind::Sys, 2, CostModel::zero());
    let cfg = SmrConfig::new(2)
        .with_mode(mode)
        .with_bag_cap(8)
        .with_af_backlog_cap(64);
    let smr = build_smr(kind, alloc, cfg);
    let mut seen = Vec::new();
    let mut step = || {
        let s = smr.raw().stats();
        seen.push((
            s.retired, s.freed, s.garbage, s.scans, s.batches, s.epochs, s.restarts,
        ));
    };
    let retire_fresh = |h: &SmrHandle, n: usize| {
        let g = h.begin_op();
        (0..n).for_each(|_| g.retire(g.alloc(64)));
    };
    let (h0, h1) = (smr.register(0), smr.register(1));

    // 1. tid 1 protects a victim and enters its write phase; tid 0
    // retires the victim plus 40 fillers in one operation.
    let victim = h0.alloc(64);
    let link = AtomicUsize::new(victim.as_ptr() as usize);
    let g1 = h1.begin_op();
    g1.enter_write_phase(&[g1.protect_load(0, &link).expect("no request yet")]);
    let g0 = h0.begin_op();
    g0.retire(victim);
    (0..40).for_each(|_| g0.retire(g0.alloc(64)));
    drop(g0);
    step();
    drop(g1);

    // 2. Five rounds: tid 0 retires 7 + r blocks, then tid 1 retires its
    // own block from its write phase.
    for r in 0..5 {
        retire_fresh(&h0, 7 + r);
        let g1 = h1.begin_op();
        let p = g1.alloc(64);
        g1.enter_write_phase(&[p.as_ptr() as usize]);
        g1.retire(p);
    }
    step();

    // 3. tid 1 sits in a read phase and never polls while tid 0 retires
    // 17 blocks; 4. then it polls once.
    let g1 = h1.begin_op();
    retire_fresh(&h0, 17);
    step();
    let polled = g1.poll_restart();
    drop(g1);
    step();

    // 5. Teardown.
    drop((h0, h1));
    smr.quiesce_and_drain();
    step();
    (seen, polled)
}

/// Runs the script in batch and in amortized free and checks each step
/// against `want` (batch, amortized). Only nbr's poll asks for a restart.
fn check(kind: SmrKind, want: [(Counters, Counters); 5]) {
    let (batch, af): (Vec<_>, Vec<_>) = want.into_iter().unzip();
    for (mode, want) in [(FreeMode::Batch, batch), (FreeMode::amortized(), af)] {
        let (seen, polled) = script(kind, mode);
        assert_eq!(seen, want, "{kind:?} {mode:?}");
        assert_eq!(polled, kind != SmrKind::Hp, "{kind:?} {mode:?}: poll");
    }
}

#[test]
fn hp_counters_are_pinned() {
    // One scan per 32 retirements (2 x 16 slots); the victim stays bagged
    // until its slot clears.
    check(
        SmrKind::Hp,
        [
            ((41, 31, 10, 1, 1, 0, 0), (41, 9, 32, 1, 1, 0, 0)),
            ((91, 63, 28, 2, 2, 0, 0), (91, 54, 37, 2, 2, 0, 0)),
            ((108, 95, 13, 3, 3, 0, 0), (108, 71, 37, 3, 3, 0, 0)),
            ((108, 95, 13, 3, 3, 0, 0), (108, 71, 37, 3, 3, 0, 0)),
            ((108, 108, 0, 3, 3, 0, 0), (108, 108, 0, 3, 3, 0, 0)),
        ],
    );
}

#[test]
fn nbr_counters_are_pinned() {
    // A reclaim per sealed bag while tid 1 is immune or idle; then 16
    // timed-out handshakes over the 17 retirements tid 1 never polls
    // through (scans 9 -> 25), each retried at the next retirement.
    check(
        SmrKind::Nbr,
        [
            ((41, 31, 10, 4, 4, 4, 0), (41, 24, 17, 4, 4, 4, 0)),
            ((91, 72, 19, 9, 9, 9, 0), (91, 69, 22, 9, 9, 9, 0)),
            ((108, 72, 36, 25, 9, 9, 0), (108, 72, 36, 25, 9, 9, 0)),
            ((108, 72, 36, 25, 9, 9, 1), (108, 72, 36, 25, 9, 9, 1)),
            ((108, 108, 0, 25, 9, 9, 1), (108, 108, 0, 25, 9, 9, 1)),
        ],
    );
}

#[test]
fn nbr_plus_counters_are_pinned() {
    // As nbr until step 3, where the skip rule lets one reclaim pass tid
    // 1's read phase (its operation began after that bag was sealed).
    check(
        SmrKind::NbrPlus,
        [
            ((41, 31, 10, 4, 4, 4, 0), (41, 24, 17, 4, 4, 4, 0)),
            ((91, 72, 19, 9, 9, 9, 0), (91, 69, 22, 9, 9, 9, 0)),
            ((108, 80, 28, 18, 10, 10, 0), (108, 80, 28, 18, 10, 10, 0)),
            ((108, 80, 28, 18, 10, 10, 1), (108, 80, 28, 18, 10, 10, 1)),
            ((108, 108, 0, 18, 10, 10, 1), (108, 108, 0, 18, 10, 10, 1)),
        ],
    );
}
