//! The load generator: a closed loop of [`THREADS`] client threads, each
//! waiting for every map call to return before issuing the next.
//!
//! A run is a sequence of *rounds*. A round builds allocator, scheme and
//! tree from nothing, prefills single-threaded, then gives every thread the
//! cell's fixed op budget; rounds repeat until the run's seconds are spent.
//! Fixed budgets keep counters (flushes, batches) comparable between runs,
//! a fresh map per round makes every round an independent sample of both
//! throughput and set-up time, and the reported figures are medians over
//! rounds.
//!
//! Thread *t* only touches keys ≡ *t* (mod [`THREADS`]). Leaves stay
//! shared — cross-thread node replacement and remote frees still happen —
//! but each thread knows exactly which of its keys are present, so every
//! return value is checked against a private [`Shadow`].

use crate::config::{Cell, COST, KEY_RANGE, PREFILL, SAMPLE_ONE_IN, TCACHE_CAP, THREADS};
use crate::hist::Hist;
use crate::trace::{self, Span, ThreadTrace, TimedAlloc};
use epic_alloc::{build_allocator_with, ThreadAllocStats};
use epic_ds::{build_tree, ConcurrentMap};
use epic_smr::{build_smr, SmrHandle, SmrSnapshot};
use epic_util::{now_ns, SplitMix64, XorShift64};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

const KEYS_PER_THREAD: u64 = KEY_RANGE / THREADS as u64;

fn payload(key: u64) -> u64 {
    key ^ 0xABCD
}

/// What is timed inside the load loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Probe {
    /// Nothing (measures what the sampled probe costs).
    Off,
    /// One call in [`SAMPLE_ONE_IN`], chosen by bits of the op's RNG draw.
    Sampled,
    /// Every call, as a span, with allocator child spans.
    Traced,
}

/// Which of one thread's keys are in the map.
pub struct Shadow(Vec<u64>);

impl Shadow {
    fn new() -> Self {
        Shadow(vec![0; KEYS_PER_THREAD.div_ceil(64) as usize])
    }

    fn get(&self, slot: u64) -> bool {
        self.0[(slot / 64) as usize] >> (slot % 64) & 1 == 1
    }

    pub fn set(&mut self, slot: u64, present: bool) {
        let (word, bit) = (&mut self.0[(slot / 64) as usize], 1 << (slot % 64));
        if present {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    fn population(&self) -> u64 {
        self.0.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

#[derive(Clone, Copy)]
enum Op {
    Insert,
    Remove,
    Get,
}

impl Op {
    /// Bits 16..48 of the draw pick get vs update, bit 63 insert vs remove;
    /// the sampling decision reads bits 8..16, so the three are independent.
    fn choose(draw: u64, get_pct: u64) -> Op {
        if ((draw >> 16 & 0xFFFF_FFFF) * 100) >> 32 < get_pct {
            Op::Get
        } else if draw >> 63 == 1 {
            Op::Insert
        } else {
            Op::Remove
        }
    }

    fn span(self) -> Span {
        match self {
            Op::Insert => Span::Insert,
            Op::Remove => Span::Remove,
            Op::Get => Span::Get,
        }
    }
}

/// The map call itself — the only thing inside a latency sample or op span.
/// Updates report success as `Some(1)`.
#[inline(always)]
fn call(tree: &dyn ConcurrentMap, h: &SmrHandle, op: Op, key: u64) -> Option<u64> {
    match op {
        Op::Insert => tree.insert(h, key, payload(key)).then_some(1),
        Op::Remove => tree.remove(h, key).then_some(1),
        Op::Get => tree.get(h, key),
    }
}

/// Independent RNG stream `lane` of a round.
fn stream(round_seed: u64, lane: u64) -> XorShift64 {
    XorShift64::new(round_seed ^ (lane + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The seed of round `round` of cell number `cell_idx` in a run with `seed`.
pub fn round_seed(seed: u64, cell_idx: usize, round: u64) -> u64 {
    SplitMix64::new(seed ^ (cell_idx as u64) << 48 ^ round << 16).next_u64()
}

#[derive(Default)]
struct WorkerOut {
    failed: u64,
    updates: u64,
    update_hits: u64,
    start_ns: u64,
    end_ns: u64,
    latency: Hist,
    trace: Option<ThreadTrace>,
}

/// What one round measured.
pub struct RoundOut {
    /// Map calls made (all threads).
    pub ops: u64,
    /// Calls whose result disagreed with the shadow, plus one per failed
    /// end-of-round check.
    pub failed: u64,
    pub check_failures: Vec<String>,
    /// Allocator + scheme + tree construction, prefill, thread spawn.
    pub setup_ns: u64,
    /// Barrier release (the first thread's first op) to the last thread's
    /// last op.
    pub wall_ns: u64,
    /// Sum of the threads' own loop times; `THREADS * wall_ns` minus this
    /// is time a thread spent not started or already finished.
    pub thread_ns: u64,
    /// Sampled call latencies ([`Probe::Sampled`] only).
    pub latency: Hist,
    pub updates: u64,
    pub update_hits: u64,
    /// Counter deltas over the measured window; gauges as read at its end.
    pub smr: SmrSnapshot,
    pub alloc: ThreadAllocStats,
    pub peak_bytes: usize,
    /// Per thread id ([`Probe::Traced`] only).
    pub traces: Vec<ThreadTrace>,
}

impl RoundOut {
    pub fn mops(&self) -> f64 {
        self.ops as f64 * 1e3 / self.wall_ns as f64
    }
}

/// A freshly built and prefilled map, about to be measured.
pub struct Round {
    cell: &'static Cell,
    round: u64,
    seed: u64,
    tree: Arc<dyn ConcurrentMap>,
    pub shadows: Vec<Shadow>,
    setup_started: Instant,
    prefill_mismatches: u64,
}

impl Round {
    /// Builds the cell's layers bottom-up through their public
    /// constructors and prefills to [`PREFILL`] keys from one thread.
    /// `traced` puts [`TimedAlloc`] between the scheme and the allocator.
    pub fn setup(cell: &'static Cell, seed: u64, round: u64, traced: bool) -> Round {
        let setup_started = Instant::now();
        let mut alloc = build_allocator_with(cell.alloc, THREADS, COST, Some(TCACHE_CAP));
        if traced {
            alloc = Arc::new(TimedAlloc(alloc));
        }
        let smr = build_smr(cell.smr, alloc, cell.smr_config());
        let tree = build_tree(cell.tree, smr);

        let mut shadows: Vec<Shadow> = (0..THREADS).map(|_| Shadow::new()).collect();
        let mut prefill_mismatches = 0;
        {
            // Transient registration: dropped without detach, so tid 0 can
            // be registered again by its worker.
            let h = tree.smr().register(0);
            let mut rng = stream(seed, THREADS as u64);
            let mut present = 0;
            while present < PREFILL {
                let key = rng.next_bounded(KEY_RANGE);
                let shadow = &mut shadows[(key % THREADS as u64) as usize];
                let slot = key / THREADS as u64;
                let inserted = tree.insert(&h, key, payload(key));
                prefill_mismatches += u64::from(inserted == shadow.get(slot));
                shadow.set(slot, true);
                present += u64::from(inserted);
            }
        }
        Round {
            cell,
            round,
            seed,
            tree,
            shadows,
            setup_started,
            prefill_mismatches,
        }
    }

    /// Spawns the client threads, gives each `ops_per_thread` map calls,
    /// checks the map and tears it down.
    pub fn measure(self, probe: Probe, ops_per_thread: u64) -> RoundOut {
        let Round {
            cell,
            round,
            seed,
            tree,
            mut shadows,
            setup_started,
            prefill_mismatches,
        } = self;
        let smr = tree.smr().clone();
        let smr_before = smr.stats();
        let alloc_before = smr.allocator().snapshot().totals;

        let barrier = Barrier::new(THREADS + 1);
        let (setup_ns, outs) = thread::scope(|s| {
            let workers: Vec<_> = shadows
                .iter_mut()
                .enumerate()
                .map(|(tid, shadow)| {
                    let (tree, barrier) = (&*tree, &barrier);
                    let rng = stream(seed, tid as u64);
                    let job = Job {
                        tid,
                        round,
                        ops: ops_per_thread,
                        get_pct: cell.get_pct,
                        probe,
                    };
                    s.spawn(move || worker(tree, job, rng, shadow, barrier))
                })
                .collect();
            barrier.wait();
            let setup_ns = setup_started.elapsed().as_nanos() as u64;
            let outs: Vec<WorkerOut> = workers
                .into_iter()
                .map(|w| w.join().expect("a client thread panicked"))
                .collect();
            (setup_ns, outs)
        });

        let smr_after = smr.stats();
        let alloc_snap = smr.allocator().snapshot();
        // The first thread through the barrier to the last one done.
        let started_ns = outs.iter().map(|o| o.start_ns).min().unwrap_or(0);
        let finished_ns = outs.iter().map(|o| o.end_ns).max().unwrap_or(0);

        let mut check_failures = Vec::new();
        if prefill_mismatches > 0 {
            check_failures.push(format!("prefill: {prefill_mismatches} inserts disagreed"));
        }
        if let Err(e) = tree.check_invariants() {
            check_failures.push(format!("check_invariants: {e}"));
        }
        let expect: u64 = shadows.iter().map(Shadow::population).sum();
        if tree.size() as u64 != expect {
            check_failures.push(format!("size {} != shadow {expect}", tree.size()));
        }
        smr.quiesce_and_drain();
        let drained = smr.stats();
        if drained.retired != drained.freed {
            check_failures.push(format!(
                "after drain retired {} != freed {}",
                drained.retired, drained.freed
            ));
        }
        if drained.garbage_clamps != 0 {
            check_failures.push(format!("garbage_clamps {}", drained.garbage_clamps));
        }

        let mut outs = outs;
        let mut latency = Hist::default();
        for o in &outs {
            latency.merge(&o.latency);
        }
        let traces = outs.iter_mut().filter_map(|o| o.trace.take()).collect();
        let sum = |f: fn(&WorkerOut) -> u64| outs.iter().map(f).sum::<u64>();
        RoundOut {
            ops: ops_per_thread * THREADS as u64,
            failed: sum(|o| o.failed) + check_failures.len() as u64,
            check_failures,
            setup_ns,
            wall_ns: finished_ns - started_ns,
            thread_ns: sum(|o| o.end_ns - o.start_ns),
            latency,
            updates: sum(|o| o.updates),
            update_hits: sum(|o| o.update_hits),
            smr: smr_delta(&smr_after, &smr_before),
            alloc: alloc_delta(&alloc_snap.totals, &alloc_before),
            peak_bytes: alloc_snap.peak_bytes,
            traces,
        }
    }
}

/// What one client thread is asked to do.
#[derive(Clone, Copy)]
struct Job {
    tid: usize,
    round: u64,
    ops: u64,
    get_pct: u64,
    probe: Probe,
}

fn worker(
    tree: &dyn ConcurrentMap,
    job: Job,
    mut rng: XorShift64,
    shadow: &mut Shadow,
    barrier: &Barrier,
) -> WorkerOut {
    let Job {
        tid,
        round,
        ops,
        get_pct,
        probe,
    } = job;
    let h = tree.smr().register(tid);
    if probe == Probe::Traced {
        trace::install();
    }
    let mut out = WorkerOut::default();
    // Span ids: thread, round, op index. The low bits are the op index, so
    // `id % RECORD_ONE_IN` picks every 4096th op of a thread.
    let id_base = (tid as u64) << 56 | round << 32;
    barrier.wait();
    out.start_ns = now_ns();
    for i in 0..ops {
        let slot = rng.next_bounded(KEYS_PER_THREAD);
        let draw = rng.next_u64();
        let key = slot * THREADS as u64 + tid as u64;
        let op = Op::choose(draw, get_pct);
        let got = match probe {
            Probe::Sampled if (draw >> 8).is_multiple_of(SAMPLE_ONE_IN) => {
                let t0 = now_ns();
                let got = call(tree, &h, op, key);
                out.latency.record(now_ns() - t0);
                got
            }
            Probe::Traced => {
                trace::begin_op(id_base | i);
                let t0 = now_ns();
                let got = call(tree, &h, op, key);
                trace::end_op(op.span(), t0, now_ns());
                got
            }
            _ => call(tree, &h, op, key),
        };
        let was_present = shadow.get(slot);
        let ok = match op {
            Op::Insert => {
                shadow.set(slot, true);
                got.is_some() != was_present
            }
            Op::Remove => {
                shadow.set(slot, false);
                got.is_some() == was_present
            }
            Op::Get => got == was_present.then(|| payload(key)),
        };
        out.failed += u64::from(!ok);
        if !matches!(op, Op::Get) {
            out.updates += 1;
            out.update_hits += u64::from(got.is_some());
        }
    }
    out.end_ns = now_ns();
    out.trace = trace::take();
    h.detach();
    out
}

fn smr_delta(after: &SmrSnapshot, before: &SmrSnapshot) -> SmrSnapshot {
    SmrSnapshot {
        retired: after.retired - before.retired,
        freed: after.freed - before.freed,
        batches: after.batches - before.batches,
        free_ns: after.free_ns - before.free_ns,
        restarts: after.restarts - before.restarts,
        scans: after.scans - before.scans,
        epochs: after.epochs - before.epochs,
        ..*after
    }
}

fn alloc_delta(after: &ThreadAllocStats, before: &ThreadAllocStats) -> ThreadAllocStats {
    ThreadAllocStats {
        allocs: after.allocs - before.allocs,
        deallocs: after.deallocs - before.deallocs,
        cache_hits: after.cache_hits - before.cache_hits,
        refills: after.refills - before.refills,
        flushes: after.flushes - before.flushes,
        flushed_objects: after.flushed_objects - before.flushed_objects,
        remote_freed: after.remote_freed - before.remote_freed,
        lock_contended: after.lock_contended - before.lock_contended,
        lock_wait_ns: after.lock_wait_ns - before.lock_wait_ns,
        flush_ns: after.flush_ns - before.flush_ns,
        free_ns: after.free_ns - before.free_ns,
        alloc_ns: after.alloc_ns - before.alloc_ns,
    }
}

/// Every round of one cell in one run.
pub struct CellRun {
    pub cell: &'static Cell,
    /// A quarter-budget round run first and left out of every metric, so
    /// that cold caches, first-touch page faults and the clock ramping up
    /// land outside the measurement. Its ops are still checked and counted.
    pub warmup: RoundOut,
    pub rounds: Vec<RoundOut>,
}

/// Runs the warm-up (round 0) and then rounds `1, 2, …` of `cell` until
/// another would overrun `budget_s`; always at least one.
pub fn run_cell(
    cell: &'static Cell,
    cell_idx: usize,
    seed: u64,
    budget_s: f64,
    probe: Probe,
) -> CellRun {
    let started = Instant::now();
    let run = |round: u64, ops: u64| {
        let traced = probe == Probe::Traced;
        Round::setup(cell, round_seed(seed, cell_idx, round), round, traced).measure(probe, ops)
    };
    let warmup = run(0, cell.ops_per_thread / 4);
    let measuring = Instant::now();
    let mut rounds = Vec::new();
    loop {
        rounds.push(run(rounds.len() as u64 + 1, cell.ops_per_thread));
        let per_round = measuring.elapsed().as_secs_f64() / rounds.len() as f64;
        if started.elapsed().as_secs_f64() + per_round > budget_s {
            return CellRun {
                cell,
                warmup,
                rounds,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Workload, WORKLOADS};

    const SMALL: &Cell = &crate::config::AB_DEBRA_AF;

    #[test]
    fn a_correct_round_has_no_failures_and_balanced_counters() {
        for probe in [Probe::Off, Probe::Sampled, Probe::Traced] {
            let out = Round::setup(SMALL, 7, 0, probe == Probe::Traced).measure(probe, 20_000);
            assert_eq!(out.failed, 0, "{probe:?}: {:?}", out.check_failures);
            assert_eq!(out.ops, 40_000);
            assert_eq!(out.updates, 40_000);
            assert!(out.update_hits > 15_000 && out.update_hits < 25_000);
            assert!(out.thread_ns <= THREADS as u64 * out.wall_ns);
            assert_eq!(out.traces.len(), if probe == Probe::Traced { 2 } else { 0 });
            match probe {
                Probe::Sampled => assert!(out.latency.count() > 300),
                _ => assert_eq!(out.latency.count(), 0),
            }
        }
    }

    #[test]
    fn every_cell_passes_its_checks() {
        for (w, cell_idx) in WORKLOADS
            .iter()
            .flat_map(|w: &'static Workload| (0..w.cells.len()).map(move |i| (w, i)))
        {
            let c = &w.cells[cell_idx];
            let out =
                Round::setup(c, round_seed(3, cell_idx, 0), 0, false).measure(Probe::Off, 30_000);
            assert_eq!(out.failed, 0, "{}: {:?}", c.name, out.check_failures);
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let run = || Round::setup(SMALL, 11, 0, false).measure(Probe::Off, 20_000);
        let (a, b) = (run(), run());
        // Hits depend only on the op streams and the prefill, not on timing.
        assert_eq!(a.update_hits, b.update_hits);
        let other = Round::setup(SMALL, 12, 0, false).measure(Probe::Off, 20_000);
        assert_ne!(a.update_hits, other.update_hits);
    }

    #[test]
    fn a_wrong_shadow_is_counted_as_failure() {
        // One flipped bit and no op to stumble on it: the end-of-round size
        // check alone must disagree.
        let mut round = Round::setup(SMALL, 7, 0, false);
        let was = round.shadows[0].get(5);
        round.shadows[0].set(5, !was);
        let out = round.measure(Probe::Sampled, 0);
        assert_eq!(out.failed, 1, "{:?}", out.check_failures);
        assert!(out.check_failures[0].starts_with("size"));

        // Every bit of one thread wrong: its first touch of each key fails.
        let mut round = Round::setup(SMALL, 7, 0, false);
        for slot in 0..KEYS_PER_THREAD {
            let was = round.shadows[1].get(slot);
            round.shadows[1].set(slot, !was);
        }
        let out = round.measure(Probe::Sampled, 20_000);
        assert!(out.failed > 5_000, "failed {}", out.failed);
    }
}
