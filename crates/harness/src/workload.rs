//! The trial driver: prefill to steady state, run the 50/50 workload,
//! collect every metric the figures need.

use crate::config::{KeyDist, WorkloadCfg};
use epic_alloc::{build_allocator_with, AllocSnapshot};
use epic_ds::{build_tree, ConcurrentMap};
use epic_smr::{build_smr, SmrConfig, SmrSnapshot};
use epic_timeline::{Recorder, Series};
use epic_util::stats::SampleStats;
use epic_util::{Clock, XorShift64, Zipfian};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Everything measured in one trial.
pub struct TrialResult {
    /// Scheme label (e.g. `debra_af`).
    pub scheme: String,
    /// Tree name.
    pub tree: &'static str,
    /// Completed operations (inserts + deletes).
    pub ops: u64,
    /// Measured wall time.
    pub wall_ns: u64,
    /// Operations per second.
    pub throughput: f64,
    /// Scheme counters at end of measurement (before teardown drain).
    pub smr: SmrSnapshot,
    /// Allocator counters.
    pub alloc: AllocSnapshot,
    /// Peak memory in MiB (total chunk bytes).
    pub peak_mib: f64,
    /// Timeline recorder (if enabled).
    pub recorder: Option<Arc<Recorder>>,
    /// Per-epoch garbage series (if enabled).
    pub garbage: Option<Arc<Series>>,
}

impl TrialResult {
    /// `% free` over total thread-time (Tables 1, 2, 4).
    pub fn pct_free(&self, threads: usize) -> f64 {
        self.smr.pct_free(self.wall_ns, threads)
    }

    /// `% flush` over total thread-time (allocator-side, Table 1/2).
    pub fn pct_flush(&self, threads: usize) -> f64 {
        self.alloc.pct_flush(self.wall_ns, threads)
    }

    /// `% lock` over total thread-time (Table 1/2).
    pub fn pct_lock(&self, threads: usize) -> f64 {
        self.alloc.pct_lock(self.wall_ns, threads)
    }
}

/// Runs one trial of `cfg`. Panics on invariant violations (every trial
/// doubles as a correctness check).
pub fn run_trial(cfg: &WorkloadCfg) -> TrialResult {
    let n = cfg.threads;
    // Background freeing runs a dedicated reclaimer on tid == n.
    let alloc_tids = n + usize::from(cfg.free_mode == epic_smr::FreeMode::Background);
    let alloc = build_allocator_with(cfg.alloc_kind, alloc_tids, cfg.cost, cfg.tcache_cap);

    let recorder = if cfg.record_timeline {
        Arc::new(Recorder::new(n, 100_000))
    } else {
        Arc::new(Recorder::disabled(n))
    };
    let garbage = cfg
        .garbage_series
        .then(|| Arc::new(Series::new("garbage-per-epoch")));

    let mut smr_cfg = SmrConfig::new(n)
        .with_mode(cfg.free_mode)
        .with_bag_cap(cfg.bag_cap)
        .with_recorder(Arc::clone(&recorder))
        .with_free_call_recording(cfg.free_call_record_ns);
    smr_cfg.epoch_check_every = cfg.epoch_check_every;
    smr_cfg.token_check_every = cfg.token_check_every;
    // Backlog cap (defaults to a few bags' worth, see WorkloadCfg) — loose
    // enough that the relief valve rarely outruns the allocation-coupled
    // drain (which would cause tcache overflow), tight enough to bound
    // garbage (Fig. 4's "slightly larger amount of garbage on average").
    smr_cfg.af_backlog_cap = cfg.af_backlog_cap;
    if let Some(g) = &garbage {
        smr_cfg = smr_cfg.with_garbage_series(Arc::clone(g));
    }

    let smr = build_smr(cfg.smr_kind, Arc::clone(&alloc), smr_cfg);
    let scheme = smr.name().to_string();
    let tree = build_tree(cfg.tree, smr);

    if cfg.prefill {
        prefill(&tree, cfg);
        // Measurement starts from a stable size; prefill noise is dropped.
        tree.smr().reset_stats();
        tree.smr().allocator().reset_stats();
        recorder.clear();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));
    let clock = Clock::start();
    thread::scope(|scope| {
        for tid in 0..n {
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            let total_ops = Arc::clone(&total_ops);
            let key_range = cfg.key_range;
            let update_ratio = cfg.update_ratio;
            let stall = cfg.stall;
            let op_budget = cfg.op_budget;
            let seed = cfg.seed;
            let key_dist = cfg.key_dist;
            let churn_every = cfg.churn_every_ops;
            scope.spawn(move || {
                // One registration per worker (re-done under churn): the
                // handle caches the scheme's per-thread hot state.
                let mut handle = tree.smr().register(tid);
                // seed = 0 reproduces the pre-scenario per-thread stream
                // bit for bit (XOR with 0 is the identity).
                let mut rng = XorShift64::new(seed ^ ((tid as u64 + 1) * 0x9E37_79B9 + 12345));
                let zipf = match key_dist {
                    KeyDist::Uniform => None,
                    KeyDist::Zipf { theta } => Some(Zipfian::new(key_range, theta)),
                };
                let mut ops = 0u64;
                let mut ops_since_churn = 0u64;
                let mut next_stall_ns =
                    stall.map(|(every_ms, _)| epic_util::now_ns() + every_ms * 1_000_000);
                while !stop.load(Ordering::Relaxed) {
                    // Fault injection: thread 0 parks *inside* an operation,
                    // holding its epoch announcement — the delayed-thread
                    // scenario that stalls grace periods.
                    if tid == 0 {
                        if let (Some((every_ms, for_ms)), Some(due)) = (stall, next_stall_ns) {
                            if epic_util::now_ns() >= due {
                                let stalled_op = handle.begin_op();
                                std::thread::sleep(Duration::from_millis(for_ms));
                                drop(stalled_op);
                                next_stall_ns = Some(epic_util::now_ns() + every_ms * 1_000_000);
                            }
                        }
                    }
                    // The paper's inner loop: coin flip, uniform key —
                    // or a Zipf-skewed key (the scenario rows).
                    for _ in 0..64 {
                        let key = match &zipf {
                            None => rng.next_bounded(key_range),
                            Some(z) => z.next_key(&mut rng),
                        };
                        let uniform = (rng.next_u64() >> 11) as f64 / 9_007_199_254_740_992.0;
                        let is_update = update_ratio >= 1.0 || uniform < update_ratio;
                        if !is_update {
                            let _ = tree.get(&handle, key);
                        } else if rng.coin() {
                            tree.insert(&handle, key, key ^ 0xABCD);
                        } else {
                            tree.remove(&handle, key);
                        }
                        ops += 1;
                    }
                    ops_since_churn += 64;
                    // Handle churn: leave the workload for good (detach —
                    // permanent quiescence, ring removal) and come back as
                    // a fresh registration of the same tid. All the churn
                    // happens *between* operations; guards never outlive
                    // their handle.
                    if let Some(every) = churn_every {
                        if ops_since_churn >= every {
                            ops_since_churn = 0;
                            handle.detach();
                            handle = tree.smr().register(tid);
                        }
                    }
                    if op_budget.is_some_and(|budget| ops >= budget) {
                        break;
                    }
                }
                handle.detach();
                total_ops.fetch_add(ops, Ordering::Relaxed);
            });
        }
        // Budgeted trials stop themselves; timed trials need the slicer.
        if cfg.op_budget.is_none() {
            thread::sleep(Duration::from_millis(cfg.millis));
            stop.store(true, Ordering::Relaxed);
        }
    });
    let wall_ns = clock.elapsed_ns();

    let ops = total_ops.load(Ordering::Relaxed);
    let smr_snap = tree.smr().stats();
    let alloc_snap = tree.smr().allocator().snapshot();
    let peak_mib = tree.smr().allocator().peak_bytes() as f64 / (1024.0 * 1024.0);

    TrialResult {
        scheme,
        tree: cfg.tree.name(),
        ops,
        wall_ns,
        throughput: ops as f64 / (wall_ns as f64 / 1e9),
        smr: smr_snap,
        alloc: alloc_snap,
        peak_mib,
        recorder: cfg.record_timeline.then_some(recorder),
        garbage,
    }
}

/// Parallel prefill to `key_range / 2` keys — "the measured portion begins
/// once the size of the data structure stabilizes".
fn prefill(tree: &Arc<dyn ConcurrentMap>, cfg: &WorkloadCfg) {
    let target = cfg.key_range / 2;
    let inserted = Arc::new(AtomicU64::new(0));
    let n = cfg.threads;
    thread::scope(|scope| {
        for tid in 0..n {
            let tree = Arc::clone(tree);
            let inserted = Arc::clone(&inserted);
            let key_range = cfg.key_range;
            scope.spawn(move || {
                // Transient registration: dropping the handle (no detach)
                // releases the tid for the measured workers.
                let handle = tree.smr().register(tid);
                let mut rng = XorShift64::new((tid as u64 + 7) * 0x2545_F491 + 99);
                while inserted.load(Ordering::Relaxed) < target {
                    let key = rng.next_bounded(key_range);
                    if tree.insert(&handle, key, key ^ 0xABCD) {
                        inserted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
}

/// Aggregated results over several trials of the same configuration
/// (mean / min / max, as the paper's error bars).
pub struct TrialSummary {
    /// Scheme label.
    pub scheme: String,
    /// Thread count.
    pub threads: usize,
    /// Throughput statistics across trials (ops/s): mean/min/max plus
    /// percentiles and a 95% CI half-width for noise-aware oracles.
    pub throughput: SampleStats,
    /// Peak memory statistics (MiB).
    pub peak_mib: SampleStats,
    /// The last trial's full result (for counter-style columns).
    pub last: TrialResult,
}

impl TrialSummary {
    /// Relative run-to-run noise on throughput (`ci95_halfwidth / mean`,
    /// 0 for single-trial runs). Oracles widen tolerances by this.
    pub fn throughput_rel_ci95(&self) -> f64 {
        self.throughput.rel_ci95()
    }
}

/// Runs `trials` trials of `cfg` and aggregates.
pub fn run_trials(cfg: &WorkloadCfg, trials: usize) -> TrialSummary {
    assert!(trials >= 1);
    let mut throughput = SampleStats::new();
    let mut peak = SampleStats::new();
    let mut last = None;
    for _ in 0..trials {
        let r = run_trial(cfg);
        throughput.push(r.throughput);
        peak.push(r.peak_mib);
        last = Some(r);
    }
    let last = last.expect("trials >= 1");
    TrialSummary {
        scheme: last.scheme.clone(),
        threads: cfg.threads,
        throughput,
        peak_mib: peak,
        last,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ds::TreeKind;
    use epic_smr::SmrKind;

    fn quick(tree: TreeKind, smr: SmrKind) -> WorkloadCfg {
        let mut cfg = WorkloadCfg::new(tree, smr, 2);
        cfg.millis = 30;
        cfg.key_range = 512;
        cfg.bag_cap = 64;
        cfg
    }

    #[test]
    fn trial_produces_consistent_numbers() {
        let r = run_trial(&quick(TreeKind::Ab, SmrKind::Debra));
        assert!(r.ops > 0, "no ops completed");
        assert!(r.throughput > 0.0);
        assert!(r.wall_ns >= 25_000_000, "trial ended early: {}", r.wall_ns);
        assert!(r.smr.retired > 0, "50/50 churn must retire nodes");
        assert!(r.peak_mib > 0.0);
        assert_eq!(r.tree, "abtree");
        assert_eq!(r.scheme, "debra");
    }

    #[test]
    fn af_label_and_freeing() {
        let r = run_trial(&quick(TreeKind::Ab, SmrKind::TokenPeriodic).amortized());
        assert_eq!(r.scheme, "token_af");
        assert!(r.smr.freed > 0, "AF must actually free: {:?}", r.smr);
    }

    #[test]
    fn timeline_and_garbage_capture() {
        let cfg = quick(TreeKind::Ab, SmrKind::Debra)
            .with_timeline()
            .with_garbage_series();
        let r = run_trial(&cfg);
        let rec = r.recorder.as_ref().expect("recorder requested");
        let events = rec.all_events();
        assert!(
            !events.is_empty(),
            "timeline should capture batch frees / epochs"
        );
        let g = r.garbage.as_ref().expect("series requested");
        assert!(!g.is_empty(), "garbage series should have epoch samples");
    }

    #[test]
    fn summary_aggregates_trials() {
        let s = run_trials(&quick(TreeKind::Dgt, SmrKind::Rcu), 2);
        assert_eq!(s.throughput.count(), 2);
        assert!(s.throughput.mean() > 0.0);
        assert!(s.peak_mib.mean() > 0.0);
        assert_eq!(s.threads, 2);
    }

    #[test]
    fn summary_exposes_noise_stats() {
        let s = run_trials(&quick(TreeKind::Ab, SmrKind::Debra), 2);
        assert_eq!(s.throughput.samples().len(), 2);
        // Two trials => a CI half-width exists (possibly 0 if identical).
        assert!(s.throughput.ci95_halfwidth() >= 0.0);
        assert!(s.throughput_rel_ci95() >= 0.0);
        assert!(s.throughput.median() > 0.0);
    }

    #[test]
    fn op_budget_stops_at_budget() {
        let cfg = quick(TreeKind::Ab, SmrKind::Debra).with_op_budget(1024);
        let r = run_trial(&cfg);
        // Budget is enforced at 64-op granularity per thread.
        assert_eq!(r.ops, 1024 * cfg.threads as u64);
    }

    /// Two budgeted single-threaded trials with the same seed must agree
    /// counter-for-counter, so oracle CI verdicts are reproducible rather
    /// than time-sliced flaky.
    #[test]
    fn budgeted_single_thread_trial_is_deterministic() {
        let mk = || {
            let mut cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, 1).with_op_budget(4096);
            cfg.key_range = 512;
            cfg.bag_cap = 64;
            cfg
        };
        let a = run_trial(&mk());
        let b = run_trial(&mk());
        assert_eq!(a.ops, b.ops, "op counts diverged");
        assert_eq!(a.smr.retired, b.smr.retired, "retire counters diverged");
        assert_eq!(a.smr.freed, b.smr.freed, "free counters diverged");
        assert_eq!(a.smr.batches, b.smr.batches, "batch counts diverged");
        assert_eq!(a.smr.epochs, b.smr.epochs, "epoch counts diverged");
        assert_eq!(a.smr.garbage, b.smr.garbage, "garbage gauges diverged");
        assert_eq!(
            a.alloc.totals.allocs, b.alloc.totals.allocs,
            "allocator alloc counters diverged"
        );
        assert_eq!(
            a.alloc.totals.deallocs, b.alloc.totals.deallocs,
            "allocator dealloc counters diverged"
        );
    }

    #[test]
    fn zipf_trial_completes_and_retires() {
        let mut cfg = quick(TreeKind::Ab, SmrKind::Debra);
        cfg = cfg.with_key_dist(KeyDist::Zipf { theta: 0.9 });
        let r = run_trial(&cfg);
        assert!(r.ops > 0, "skewed trial must make progress");
        assert!(r.smr.retired > 0, "hot keys still churn nodes");
    }

    #[test]
    fn churn_trial_detaches_and_reattaches() {
        let cfg = quick(TreeKind::Ab, SmrKind::Debra)
            .with_op_budget(2048)
            .with_churn(512);
        let r = run_trial(&cfg);
        // 4 detach/re-register cycles per thread, all mid-run, and the
        // budget still lands exactly.
        assert_eq!(r.ops, 2048 * cfg.threads as u64);
        assert!(r.smr.retired > 0);
    }

    /// Token-EBR under handle churn: a tid that detaches and registers
    /// again rejoins the ring, so reclamation keeps pace with retirement.
    /// A ring that skipped churned tids for good would stop once both had
    /// churned, freeing about 1 % of the retired blocks. A 100-ms trial
    /// keeps the blocks still in limbo at the stop a small share even when
    /// a loaded machine parks one thread, and with it the token, for tens
    /// of ms.
    #[test]
    fn token_ring_keeps_reclaiming_under_churn() {
        for smr in [
            SmrKind::TokenNaive,
            SmrKind::TokenPassFirst,
            SmrKind::TokenPeriodic,
        ] {
            let mut cfg = quick(TreeKind::Ab, smr).with_churn(512);
            cfg.millis = 100;
            let r = run_trial(&cfg);
            let (retired, freed) = (r.smr.retired, r.smr.freed);
            assert!(retired >= 2_000, "{smr:?}: {retired} retired");
            assert!(
                freed * 2 >= retired,
                "{smr:?}: {freed} of {retired} retired blocks freed"
            );
        }
    }

    /// The determinism contract that replay-from-provenance relies on
    /// must survive every scenario knob at once: skewed keys, churn and
    /// an explicit seed.
    #[test]
    fn budgeted_determinism_holds_under_scenario_knobs() {
        let mk = || {
            let mut cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, 1)
                .with_op_budget(4096)
                .with_seed(0xBADC_0FFE)
                .with_key_dist(KeyDist::Zipf { theta: 0.75 })
                .with_churn(1024);
            cfg.key_range = 512;
            cfg.bag_cap = 64;
            cfg
        };
        let a = run_trial(&mk());
        let b = run_trial(&mk());
        assert_eq!(a.ops, b.ops, "op counts diverged");
        assert_eq!(a.smr.retired, b.smr.retired, "retire counters diverged");
        assert_eq!(a.smr.freed, b.smr.freed, "free counters diverged");
        assert_eq!(
            a.alloc.totals.allocs, b.alloc.totals.allocs,
            "allocator alloc counters diverged"
        );
        assert_eq!(
            a.alloc.totals.deallocs, b.alloc.totals.deallocs,
            "allocator dealloc counters diverged"
        );
    }

    #[test]
    fn leak_scheme_grows_garbage() {
        let r = run_trial(&quick(TreeKind::Occ, SmrKind::None));
        assert_eq!(r.smr.freed, 0);
        assert!(r.smr.garbage > 0);
    }
}
