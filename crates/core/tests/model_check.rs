//! Model-checked concurrency tests for the SmrHandle/limbo-bag core.
//!
//! Only compiled under `RUSTFLAGS="--cfg epic_model_check"`, where
//! `epic_smr::sync` resolves to epic-check's instrumented atomics: every
//! atomic access in the retire/drain hot paths becomes a scheduler step,
//! interleaved (with TSO store-buffer weakness) by a seed-deterministic
//! chooser. Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg epic_model_check" cargo test -p epic-smr --test model_check
//! ```
//!
//! Reproduce any reported failure byte-identically by prepending
//! `EPIC_CHECK_SEED=<printed seed>`.
//!
//! Each model comes in two flavors:
//! * a *clean* run asserting the real protocols survive every explored
//!   schedule (no false positives), and
//! * *mutant-kill* runs asserting that a deliberately broken protocol
//!   variant (see `epic_smr::mutants`) is caught within the schedule
//!   budget — the evidence that the checker can actually see the bugs
//!   these protocols exist to prevent.

#![cfg(epic_model_check)]

use std::collections::HashSet;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
use std::sync::{Arc, Mutex};

use epic_alloc::{
    build_allocator, AllocSnapshot, AllocatorKind, CostModel, PoolAllocator, ThreadAllocStats, Tid,
};
use epic_check::{check, explore, thread, yield_now, Config, Outcome};
use epic_smr::mutants::{
    M_EPOCH_ADVANCE_UNOBSERVED, M_ERA_PUBLISH_RELAXED, M_HP_PUBLISH_RELAXED, M_IBR_BUMP_RELAXED,
    M_QSBR_DETACH_SKIP, M_SPLICE_KEEP_SOURCE,
};
use epic_smr::sync::{AtomicUsize, Ordering};
use epic_smr::{build_smr, Smr, SmrConfig, SmrKind};

// ---------------------------------------------------------------------
// TrackingAlloc: the model oracle.
//
// Wraps the Sys passthrough model and enforces exactly-once freeing: a
// double free panics (failing the schedule) instead of corrupting the
// heap. Freed blocks are NOT returned to the system until the tracker
// drops, so even a buggy (mutant) schedule that traverses an
// already-freed intrusive chain reads stable memory — the checker
// reports the double free as a model failure, never as a crash.
//
// Lock discipline: the live-set Mutex is a real std mutex, which is
// safe under the cooperative scheduler only because no instrumented
// atomic is ever touched while it is held (the holder cannot yield, so
// the lock is never contended).
// ---------------------------------------------------------------------
struct TrackingAlloc {
    inner: Arc<dyn PoolAllocator>,
    live: Mutex<HashSet<usize>>,
    ever: Mutex<Vec<usize>>,
    freed: StdAtomicUsize,
    allocs: StdAtomicUsize,
}

impl TrackingAlloc {
    fn new(max_threads: usize) -> Arc<TrackingAlloc> {
        Arc::new(TrackingAlloc {
            inner: build_allocator(AllocatorKind::Sys, max_threads, CostModel::zero()),
            live: Mutex::new(HashSet::new()),
            ever: Mutex::new(Vec::new()),
            freed: StdAtomicUsize::new(0),
            allocs: StdAtomicUsize::new(0),
        })
    }

    fn is_live(&self, addr: usize) -> bool {
        self.live.lock().unwrap().contains(&addr)
    }

    fn live_count(&self) -> usize {
        self.live.lock().unwrap().len()
    }

    fn freed_count(&self) -> usize {
        self.freed.load(StdOrdering::SeqCst)
    }

    fn alloc_count(&self) -> usize {
        self.allocs.load(StdOrdering::SeqCst)
    }
}

impl PoolAllocator for TrackingAlloc {
    fn alloc(&self, tid: Tid, size: usize) -> NonNull<u8> {
        let p = self.inner.alloc(tid, size);
        let addr = p.as_ptr() as usize;
        let mut live = self.live.lock().unwrap();
        assert!(live.insert(addr), "allocator handed out a live block");
        drop(live);
        self.ever.lock().unwrap().push(addr);
        self.allocs.fetch_add(1, StdOrdering::SeqCst);
        p
    }

    fn dealloc(&self, _tid: Tid, ptr: NonNull<u8>) {
        // Drain this thread's store buffer first: pending buffered
        // stores into the block's header must not write through after
        // the block is (logically) dead.
        epic_check::flush_self();
        let addr = ptr.as_ptr() as usize;
        // No address in the message: raw pointers are ASLR-noise and
        // would break byte-identical replay comparison. The schedule
        // trace names the block by its stable `a#k` id.
        let removed = self.live.lock().unwrap().remove(&addr);
        assert!(removed, "double free of a retired block");
        self.freed.fetch_add(1, StdOrdering::SeqCst);
        // The real dealloc is deferred to Drop (see struct docs).
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
        "tracking-sys"
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

impl Drop for TrackingAlloc {
    fn drop(&mut self) {
        for addr in self.ever.lock().unwrap().drain(..) {
            // SAFETY: every address came from `inner.alloc` and is
            // released exactly once, here.
            self.inner
                .dealloc(0, NonNull::new(addr as *mut u8).unwrap());
        }
    }
}

fn smr_with(kind: SmrKind, alloc: Arc<TrackingAlloc>, cfg: SmrConfig) -> Smr {
    build_smr(kind, alloc as Arc<dyn PoolAllocator>, cfg)
}

// ---------------------------------------------------------------------
// Model 1: limbo-bag splice/drain, free-count==1 oracle.
//
// qsbr + amortized freeing drives the full splice pipeline: retire into
// epoch bags -> bag rotation disposes into the freeable list (the
// RetiredList::append splice) -> alloc-coupled drain + teardown drain.
// The M_SPLICE_KEEP_SOURCE mutant leaves the spliced chain owned by
// both lists; teardown then frees it twice — deterministically, in
// every schedule, so the mutant dies on the first iteration.
// ---------------------------------------------------------------------
fn splice_drain_model() {
    let alloc = TrackingAlloc::new(2);
    let mut cfg = SmrConfig::new(2).with_amortized(1);
    cfg.epoch_check_every = 1;
    let s = smr_with(SmrKind::Qsbr, alloc.clone(), cfg);

    let workers: Vec<_> = (0..2)
        .map(|tid| {
            let s = s.clone();
            thread::spawn(move || {
                let h = s.register(tid);
                for _ in 0..4 {
                    let g = h.begin_op();
                    let p = g.alloc(64);
                    g.retire(p);
                }
                h.detach();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    s.quiesce_and_drain();
    assert_eq!(
        alloc.freed_count(),
        alloc.alloc_count(),
        "every retired block freed exactly once"
    );
    assert_eq!(alloc.live_count(), 0, "nothing leaked");
}

#[test]
fn splice_drain_clean_passes() {
    check(Config::random(300).with_seed(0xba61), splice_drain_model);
}

#[test]
fn splice_keep_source_mutant_is_killed() {
    let out = explore(
        Config::random(5)
            .with_seed(0xba62)
            .with_ctx(M_SPLICE_KEEP_SOURCE),
        splice_drain_model,
    );
    match out {
        Outcome::Fail(f) => {
            assert!(
                f.message.contains("double free"),
                "unexpected failure: {}",
                f.message
            )
        }
        Outcome::Pass { .. } => panic!("splice mutant survived the checker"),
    }
}

// ---------------------------------------------------------------------
// Model 2: SmrHandle register/detach churn racing retires (hp).
//
// One thread repeatedly registers, retires and detaches tid 0 while the
// other holds tid 1 and keeps retiring. Oracles: registration never
// spuriously panics, and teardown frees everything exactly once.
// ---------------------------------------------------------------------
fn churn_model() {
    let alloc = TrackingAlloc::new(2);
    let mut cfg = SmrConfig::new(2).with_bag_cap(4);
    cfg.hp_slots = 1;
    let s = smr_with(SmrKind::Hp, alloc.clone(), cfg);

    let churner = {
        let s = s.clone();
        thread::spawn(move || {
            for _ in 0..3 {
                let h = s.register(0);
                {
                    let g = h.begin_op();
                    let p = g.alloc(64);
                    g.retire(p);
                }
                h.detach();
            }
        })
    };
    let retirer = {
        let s = s.clone();
        thread::spawn(move || {
            let h = s.register(1);
            for _ in 0..4 {
                let g = h.begin_op();
                let p = g.alloc(64);
                g.retire(p);
            }
            h.detach();
        })
    };
    churner.join().unwrap();
    retirer.join().unwrap();
    s.quiesce_and_drain();
    assert_eq!(
        alloc.freed_count(),
        7,
        "3 churner + 4 retirer blocks, each freed once"
    );
    assert_eq!(alloc.live_count(), 0, "nothing leaked");
}

#[test]
fn register_detach_churn_clean_passes() {
    check(Config::random(300).with_seed(0xc4a1), churn_model);
}

// ---------------------------------------------------------------------
// Model 3: OpGuard protect_load vs concurrent retire (hp, he, wfe, ibr).
//
// The reader protects a victim through a shared link while the
// reclaimer unlinks and retires it plus enough filler to force a scan.
// The liveness oracle: after a successful protect_load, the victim must
// still be allocated. Clean protocols pass every schedule; the
// Relaxed-publication mutants leave the protection in the reader's
// store buffer where the scanner cannot see it, and the checker catches
// the resulting premature free.
//
// The two sides are sequenced through `phase`, a PLAIN std atomic: it is
// invisible to the scheduler (no yield, no buffering), so it pins the
// protocol-level order (protect before unlink, scan before the liveness
// check) without constraining the one thing under test — whether the
// reader's buffered protection store reaches memory before the scan.
// Spins are bounded; a schedule that starves a phase sets `bailed` and
// degrades to a vacuous pass (the reclaimer still owns the victim's
// exactly-once retirement, so the teardown oracles keep holding).
// ---------------------------------------------------------------------
const SPIN: usize = 400;

fn await_phase(phase: &StdAtomicUsize, at_least: usize) -> bool {
    for _ in 0..SPIN {
        if phase.load(StdOrdering::SeqCst) >= at_least {
            return true;
        }
        yield_now();
    }
    false
}

fn hp_protect_model() {
    let alloc = TrackingAlloc::new(2);
    let mut cfg = SmrConfig::new(2).with_bag_cap(4);
    cfg.hp_slots = 1;
    let s = smr_with(SmrKind::Hp, alloc.clone(), cfg);

    // Victim born before the race, published through `link`.
    let victim = {
        let h = s.register(1);
        let g = h.begin_op();
        g.alloc(64).as_ptr() as usize
        // guard and handle drop: tid 1 is free for the reclaimer.
    };
    let link = Arc::new(AtomicUsize::new(victim));
    let phase = Arc::new(StdAtomicUsize::new(0));
    let bailed = Arc::new(StdAtomicUsize::new(0));

    let reader = {
        let s = s.clone();
        let link = link.clone();
        let alloc = alloc.clone();
        let phase = phase.clone();
        let bailed = bailed.clone();
        thread::spawn(move || {
            let h = s.register(0);
            let g = h.begin_op();
            let p = g.protect_load(0, &link).expect("hp never restarts");
            if bailed.load(StdOrdering::SeqCst) != 0 {
                return; // starved reclaimer cleaned up; nothing to check
            }
            assert_eq!(p, victim, "link is unlinked only after phase 1");
            phase.store(1, StdOrdering::SeqCst); // protected; reclaimer may go
            if await_phase(&phase, 2) && bailed.load(StdOrdering::SeqCst) == 0 {
                // The scan ran. Under the real protocol our hazard was
                // visible to it; the victim must have survived.
                assert!(
                    alloc.is_live(p),
                    "protected block was freed under the guard"
                );
            }
        })
    };
    let reclaimer = {
        let s = s.clone();
        let link = link.clone();
        let phase = phase.clone();
        let bailed = bailed.clone();
        thread::spawn(move || {
            let h = s.register(1);
            let g = h.begin_op();
            if !await_phase(&phase, 1) {
                // Reader starved: flag first (so the reader skips its
                // asserts), then clean up — the victim still must be
                // retired exactly once.
                bailed.store(1, StdOrdering::SeqCst);
            }
            link.store(0, Ordering::SeqCst); // unlink
                                             // SAFETY: unlinked above, retired exactly once here.
            g.retire(NonNull::new(victim as *mut u8).unwrap());
            for _ in 0..3 {
                let p = g.alloc(64);
                g.retire(p); // filler: reaches the scan threshold (4)
            }
            phase.store(2, StdOrdering::SeqCst); // scanned; reader may check
        })
    };
    reader.join().unwrap();
    reclaimer.join().unwrap();
    s.quiesce_and_drain();
    assert_eq!(alloc.live_count(), 0, "nothing leaked");
}

#[test]
fn hp_protect_clean_passes() {
    check(Config::random(400).with_seed(0x4421), hp_protect_model);
}

/// Asserts that the mutant in `cfg`'s context gets a protected block freed
/// under the guard in `model` within `cfg`'s schedule budget.
fn protect_mutant_is_killed(cfg: Config, model: impl Fn() + Sync) {
    match explore(cfg, model) {
        Outcome::Fail(f) => assert!(
            f.message.contains("freed under the guard") || f.message.contains("double free"),
            "unexpected failure: {}",
            f.message
        ),
        Outcome::Pass { .. } => panic!("protection-breaking mutant survived the checker"),
    }
}

#[test]
fn hp_publish_relaxed_mutant_is_killed() {
    protect_mutant_is_killed(
        Config::random(600)
            .with_seed(0x4422)
            .with_ctx(M_HP_PUBLISH_RELAXED),
        hp_protect_model,
    );
}

/// The era shapes (`he`, `wfe`, `ibr`) share one scenario: the reader
/// pins, the era moves, a victim born in the newer era is published, and
/// the reader's hop must publish that newer era before the unlink and
/// scan. For `ibr` the pin is `begin_op`'s `[e, e]` and the hop widens
/// `hi`; `he` and `wfe` pin nothing and the hop stores the era to a slot.
fn era_protect_model(kind: SmrKind) {
    let alloc = TrackingAlloc::new(2);
    let mut cfg = SmrConfig::new(2).with_bag_cap(2);
    cfg.era_freq = 1;
    cfg.hp_slots = 1;
    let s = smr_with(kind, alloc.clone(), cfg);
    let link = Arc::new(AtomicUsize::new(0));
    let phase = Arc::new(StdAtomicUsize::new(0));
    let bailed = Arc::new(StdAtomicUsize::new(0));

    let reader = {
        let s = s.clone();
        let link = link.clone();
        let alloc = alloc.clone();
        let phase = phase.clone();
        let bailed = bailed.clone();
        thread::spawn(move || {
            let h = s.register(0);
            // begin_op runs BEFORE the reclaimer's era bump (for ibr it
            // pins [lo, hi] at the current era): protecting the
            // later-born victim then requires the era-publishing store
            // the mutants weaken.
            let g = h.begin_op();
            phase.store(1, StdOrdering::SeqCst); // pinned
            if !await_phase(&phase, 2) {
                return; // reclaimer starved; it allocated nothing
            }
            // Victim is published and born in a newer era than our pin:
            // this hop must publish that era.
            let p = g.protect_load(0, &link).expect("era schemes never restart");
            if bailed.load(StdOrdering::SeqCst) != 0 {
                return; // starved reclaimer cleaned up; nothing to check
            }
            assert_ne!(p, 0, "link is unlinked only after phase 3");
            phase.store(3, StdOrdering::SeqCst); // protected; reclaimer may go
            if await_phase(&phase, 4) && bailed.load(StdOrdering::SeqCst) == 0 {
                assert!(
                    alloc.is_live(p),
                    "protected block was freed under the guard"
                );
            }
        })
    };
    let reclaimer = {
        let s = s.clone();
        let link = link.clone();
        let phase = phase.clone();
        let bailed = bailed.clone();
        thread::spawn(move || {
            let h = s.register(1);
            let g = h.begin_op();
            if !await_phase(&phase, 1) {
                return; // nothing allocated yet: safe to walk away
            }
            // Advance the era past the reader's snapshot…
            let warm = g.alloc(64);
            g.retire(warm); // era_freq=1: every retire bumps the era
                            // …then publish a victim born in the newer era.
            let victim = g.alloc(64);
            link.store(victim.as_ptr() as usize, Ordering::SeqCst);
            phase.store(2, StdOrdering::SeqCst);
            if !await_phase(&phase, 3) {
                // Reader starved: flag first, then clean up (the victim
                // still must be retired exactly once).
                bailed.store(1, StdOrdering::SeqCst);
            }
            link.store(0, Ordering::SeqCst); // unlink
            g.retire(victim); // bag hits cap (2): scan runs here
            phase.store(4, StdOrdering::SeqCst); // scanned; reader may check
        })
    };
    reader.join().unwrap();
    reclaimer.join().unwrap();
    s.quiesce_and_drain();
    assert_eq!(alloc.live_count(), 0, "nothing leaked");
}

#[test]
fn he_protect_clean_passes() {
    check(Config::random(400).with_seed(0x4e41), || {
        era_protect_model(SmrKind::He)
    });
}

#[test]
fn wfe_protect_clean_passes() {
    check(Config::random(400).with_seed(0x3fe1), || {
        era_protect_model(SmrKind::Wfe)
    });
}

#[test]
fn ibr_protect_clean_passes() {
    check(Config::random(400).with_seed(0x1b41), || {
        era_protect_model(SmrKind::Ibr)
    });
}

#[test]
fn he_era_publish_relaxed_mutant_is_killed() {
    protect_mutant_is_killed(
        Config::random(600)
            .with_seed(0x4e42)
            .with_ctx(M_ERA_PUBLISH_RELAXED),
        || era_protect_model(SmrKind::He),
    );
}

#[test]
fn wfe_era_publish_relaxed_mutant_is_killed() {
    protect_mutant_is_killed(
        Config::random(600)
            .with_seed(0x3fe2)
            .with_ctx(M_ERA_PUBLISH_RELAXED),
        || era_protect_model(SmrKind::Wfe),
    );
}

#[test]
fn ibr_bump_relaxed_mutant_is_killed() {
    protect_mutant_is_killed(
        Config::random(600)
            .with_seed(0x1b42)
            .with_ctx(M_IBR_BUMP_RELAXED),
        || era_protect_model(SmrKind::Ibr),
    );
}

// ---------------------------------------------------------------------
// Model 4: the epoch advance rule (debra, rcu, qsbr).
//
// The reader begins an operation and loads the link to X; the retirer
// then unlinks and retires X and churns operations until the epoch would
// have moved lag + 1 times, enough to free X had nobody held the epoch
// back. The reader, still inside its operation, checks that X is
// allocated. k = 1 and bag_cap = 1, so every operation of debra and qsbr
// and every retire of rcu tries an advance; debra reads one of the two
// announcements per try, hence two operations per advance. The
// M_EPOCH_ADVANCE_UNOBSERVED mutant accepts the reader's older in-op
// announcement, the epoch runs on and X is freed under the guard. Phase
// gating and bailing out work as in model 3.
// ---------------------------------------------------------------------
fn epoch_advance_model(kind: SmrKind) {
    let alloc = TrackingAlloc::new(2);
    let mut cfg = SmrConfig::new(2).with_bag_cap(1);
    cfg.epoch_check_every = 1;
    let s = smr_with(kind, alloc.clone(), cfg);
    let (lag, ops_per_advance) = if kind == SmrKind::Debra {
        (3, 2)
    } else {
        (2, 1)
    };

    // X born before the race, published through `link`.
    let x = {
        let h = s.register(1);
        let g = h.begin_op();
        g.alloc(64).as_ptr() as usize
    };
    let link = Arc::new(AtomicUsize::new(x));
    let phase = Arc::new(StdAtomicUsize::new(0));
    let bailed = Arc::new(StdAtomicUsize::new(0));

    let reader = {
        let s = s.clone();
        let link = link.clone();
        let alloc = alloc.clone();
        let phase = phase.clone();
        let bailed = bailed.clone();
        thread::spawn(move || {
            let h = s.register(0);
            let g = h.begin_op();
            let p = g
                .protect_load(0, &link)
                .expect("epoch schemes never restart");
            if bailed.load(StdOrdering::SeqCst) != 0 {
                return; // starved retirer cleaned up; nothing to check
            }
            assert_eq!(p, x, "link is unlinked only after phase 1");
            phase.store(1, StdOrdering::SeqCst); // in op, X loaded
            if await_phase(&phase, 2) && bailed.load(StdOrdering::SeqCst) == 0 {
                assert!(
                    alloc.is_live(p),
                    "block freed under the guard: the epoch ran past an in-op reader"
                );
            }
        })
    };
    let retirer = {
        let s = s.clone();
        let link = link.clone();
        let phase = phase.clone();
        let bailed = bailed.clone();
        thread::spawn(move || {
            let h = s.register(1);
            {
                let g = h.begin_op();
                if !await_phase(&phase, 1) {
                    // Reader starved: flag first, then clean up (X still
                    // must be retired exactly once).
                    bailed.store(1, StdOrdering::SeqCst);
                }
                link.store(0, Ordering::SeqCst); // unlink
                g.retire(NonNull::new(x as *mut u8).unwrap());
            }
            for _ in 0..ops_per_advance * (lag + 1) {
                let g = h.begin_op();
                let p = g.alloc(64);
                g.retire(p);
            }
            phase.store(2, StdOrdering::SeqCst); // churned; reader may check
        })
    };
    reader.join().unwrap();
    retirer.join().unwrap();
    s.quiesce_and_drain();
    assert_eq!(alloc.live_count(), 0, "nothing leaked");
}

#[test]
fn debra_epoch_advance_clean_passes() {
    check(Config::random(300).with_seed(0xdeb1), || {
        epoch_advance_model(SmrKind::Debra)
    });
}

#[test]
fn rcu_epoch_advance_clean_passes() {
    check(Config::random(300).with_seed(0x2c01), || {
        epoch_advance_model(SmrKind::Rcu)
    });
}

#[test]
fn qsbr_epoch_advance_clean_passes() {
    check(Config::random(300).with_seed(0x45a1), || {
        epoch_advance_model(SmrKind::Qsbr)
    });
}

#[test]
fn debra_epoch_advance_unobserved_mutant_is_killed() {
    protect_mutant_is_killed(
        Config::random(5)
            .with_seed(0xdeb2)
            .with_ctx(M_EPOCH_ADVANCE_UNOBSERVED),
        || epoch_advance_model(SmrKind::Debra),
    );
}

#[test]
fn rcu_epoch_advance_unobserved_mutant_is_killed() {
    protect_mutant_is_killed(
        Config::random(5)
            .with_seed(0x2c02)
            .with_ctx(M_EPOCH_ADVANCE_UNOBSERVED),
        || epoch_advance_model(SmrKind::Rcu),
    );
}

#[test]
fn qsbr_epoch_advance_unobserved_mutant_is_killed() {
    protect_mutant_is_killed(
        Config::random(5)
            .with_seed(0x45a2)
            .with_ctx(M_EPOCH_ADVANCE_UNOBSERVED),
        || epoch_advance_model(SmrKind::Qsbr),
    );
}

// ---------------------------------------------------------------------
// Model 5: detach must quiesce (qsbr).
//
// Two workers retire and detach; then a fresh solo thread runs a few
// ops. Clean: the departed threads' QUIESCENT announcements let the
// fuzzy barrier advance, so the solo phase provably frees (the delta
// oracle). The M_QSBR_DETACH_SKIP mutant leaves a frozen announcement
// pinning the barrier: the delta is zero in every schedule.
// ---------------------------------------------------------------------
fn qsbr_detach_model() {
    let alloc = TrackingAlloc::new(2);
    let mut cfg = SmrConfig::new(2);
    cfg.epoch_check_every = 1;
    let s = smr_with(SmrKind::Qsbr, alloc.clone(), cfg);

    let workers: Vec<_> = (0..2)
        .map(|tid| {
            let s = s.clone();
            thread::spawn(move || {
                let h = s.register(tid);
                for _ in 0..3 {
                    let g = h.begin_op();
                    let p = g.alloc(64);
                    g.retire(p);
                }
                h.detach();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Solo phase: single-threaded, so the freed delta is deterministic.
    let freed_before = alloc.freed_count();
    let h = s.register(0);
    for _ in 0..8 {
        let g = h.begin_op();
        let p = g.alloc(64);
        g.retire(p);
    }
    assert!(
        alloc.freed_count() > freed_before,
        "epoch pinned: detach left the barrier stuck, nothing frees"
    );
    drop(h);
    s.quiesce_and_drain();
    assert_eq!(alloc.live_count(), 0, "nothing leaked");
}

#[test]
fn qsbr_detach_clean_passes() {
    check(Config::random(300).with_seed(0x45b1), qsbr_detach_model);
}

#[test]
fn qsbr_detach_skip_mutant_is_killed() {
    let out = explore(
        Config::random(5)
            .with_seed(0x45b2)
            .with_ctx(M_QSBR_DETACH_SKIP),
        qsbr_detach_model,
    );
    match out {
        Outcome::Fail(f) => {
            assert!(
                f.message.contains("epoch pinned"),
                "unexpected failure: {}",
                f.message
            )
        }
        Outcome::Pass { .. } => panic!("qsbr detach-skip mutant survived the checker"),
    }
}

// ---------------------------------------------------------------------
// Model 6: freeable-list flush under contention (hp + amortized).
//
// Both threads feed the per-thread freeable lists through scans while the
// alloc-coupled drain pulls from them concurrently; teardown drains the
// rest. Oracle: exactly-once frees, nothing leaked.
// ---------------------------------------------------------------------
fn freebuf_contention_model() {
    let alloc = TrackingAlloc::new(2);
    let mut cfg = SmrConfig::new(2).with_bag_cap(2).with_amortized(1);
    cfg.hp_slots = 1;
    let s = smr_with(SmrKind::Hp, alloc.clone(), cfg);

    let workers: Vec<_> = (0..2)
        .map(|tid| {
            let s = s.clone();
            thread::spawn(move || {
                let h = s.register(tid);
                for _ in 0..4 {
                    let g = h.begin_op();
                    let p = g.alloc(64);
                    g.retire(p);
                }
                h.detach();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    s.quiesce_and_drain();
    assert_eq!(
        alloc.freed_count(),
        8,
        "2 threads x 4 blocks, each freed once"
    );
    assert_eq!(alloc.live_count(), 0, "nothing leaked");
}

#[test]
fn freebuf_contention_clean_passes() {
    check(
        Config::random(300).with_seed(0xfb01),
        freebuf_contention_model,
    );
}

// ---------------------------------------------------------------------
// Checker metadata: failures replay byte-identically under this cfg too
// (the splice mutant fails deterministically, so it makes a good probe).
// ---------------------------------------------------------------------
#[test]
fn mutant_failure_replays_byte_identically() {
    let cfg = Config::random(5)
        .with_seed(0xd0d0)
        .with_ctx(M_SPLICE_KEEP_SOURCE);
    let f1 = match explore(cfg.clone(), splice_drain_model) {
        Outcome::Fail(f) => f,
        Outcome::Pass { .. } => panic!("expected the splice mutant to fail"),
    };
    let f2 = match epic_check::replay(cfg, &f1.seed, splice_drain_model) {
        Outcome::Fail(f) => f,
        Outcome::Pass { .. } => panic!("replay of seed {} did not fail", f1.seed),
    };
    assert_eq!(f1.message, f2.message);
    assert_eq!(f1.trace, f2.trace, "replayed trace differs from original");
}
