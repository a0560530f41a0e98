//! The process-isolated experiment job engine behind
//! `epic-run check -j N`.
//!
//! Experiments are embarrassingly parallel **across processes** but must
//! never share one: each assumes exclusive ownership of its worker
//! threads, the counting global allocator, and the `EPIC_*` environment.
//! So the engine schedules registry entries as *child processes* — the
//! binary re-invokes itself as `epic-run --one <id> --result-json <p>` —
//! through the [`pool`] module, which owns the process mechanics:
//!
//! * `jobs` concurrent worker slots, filled longest-processing-time
//!   first using the registry's [`Experiment::cost`] hints, so the
//!   heaviest sweeps start first and wall-clock approaches
//!   `max(slot)` instead of `sum(experiments)`;
//! * a per-job timeout derived from the trial scale and one retry after
//!   a crash (panic, signal, timeout) — a completed run that merely
//!   *fails its oracle* is a result, not a crash, and is never retried;
//! * live one-line progress on stdout, with child stdout/stderr captured
//!   under a per-run directory `<results>/jobs/run-<ts>-<pid>-<seq>/`
//!   (old run directories are swept, keeping the newest 10);
//! * a deterministic merge: per-job documents combine in registry order
//!   no matter the completion order.

pub mod pool;

use crate::experiments::{registry_rank, Experiment};
use crate::oracle::{AssertionOutcome, OracleReport, Tier};
use crate::report::results_dir;
use crate::shapes::{ShapeRecord, ShapesDoc};
use pool::{AttemptOutcome, JobSpec, Pool, PoolCfg};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// How many run directories [`new_run_dir`] keeps under
/// `<results>/jobs/`.
const JOB_LOG_KEEP: usize = 10;

/// Milliseconds since the unix epoch (0 if the clock is before 1970).
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The per-child wall-clock limit: `max(600 s, 3 s × millis × trials)`.
/// An experiment's runtime is linear in trial length × trials (fig13 on
/// 2 vCPUs: 2.2 / 7.1 / 25.4 s at 20 / 100 / 400 ms, 21.1 s at
/// 100 ms × 3 trials), so a fixed limit that suits the 200 ms default
/// would kill a paper-scale `EPIC_MILLIS=5000 EPIC_TRIALS=3` run.
fn child_timeout(millis: u64, trials: usize) -> Duration {
    let scaled = millis.saturating_mul(trials as u64).saturating_mul(3);
    Duration::from_secs(scaled.max(600))
}

/// Distinguishes run dirs created within one millisecond by one process
/// (tests spin pools up quickly).
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Creates a fresh per-run artifact directory
/// `<results>/jobs/run-<unix-ms>-<pid>-<seq>/` and sweeps old run
/// directories, keeping the newest `JOB_LOG_KEEP` (the new one
/// included). `epic-run check -j N` allocates its child logs here, so
/// `results/jobs/` stays bounded across runs instead of accreting logs
/// forever.
pub fn new_run_dir() -> std::io::Result<PathBuf> {
    let root = results_dir().join("jobs");
    std::fs::create_dir_all(&root)?;
    let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = root.join(format!(
        "run-{:013}-{}-{seq}",
        unix_ms(),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir)?;
    sweep_run_dirs(&root, JOB_LOG_KEEP);
    Ok(dir)
}

/// Removes the oldest `run-*` directories under `root` beyond `keep`.
/// Age is the directory name itself — run dirs embed a zero-padded unix
/// millisecond timestamp, so the lexicographic order is the creation
/// order. Non-`run-*` entries (including the flat `<id>.log` files of
/// pre-PR-8 layouts) are left alone.
pub fn sweep_run_dirs(root: &Path, keep: usize) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut runs: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("run-"))
        })
        .collect();
    runs.sort();
    let n = runs.len();
    for old in runs.into_iter().take(n.saturating_sub(keep)) {
        if let Err(e) = std::fs::remove_dir_all(&old) {
            eprintln!(
                "warning: could not sweep old run dir {}: {e}",
                old.display()
            );
        }
    }
}

/// The record the engine synthesizes when an experiment process crashed
/// (or timed out) on both attempts: a single failed strict assertion, so
/// the merged verdict table reports `FAIL` instead of silently dropping
/// the experiment.
fn crash_record(e: &Experiment, attempts: u32, reason: &str, log_path: &Path) -> ShapeRecord {
    ShapeRecord {
        report: OracleReport {
            experiment: e.id.clone(),
            claim: e.oracle().claim,
            outcomes: vec![AssertionOutcome {
                label: "experiment process completed".to_string(),
                tier: Tier::Strict,
                passed: false,
                detail: format!("{reason} (see {})", log_path.display()),
            }],
        },
        duration_ms: 0.0,
        attempts,
        result_json: "null".to_string(),
    }
}

/// Runs `selected` as child processes on `jobs` worker slots and merges
/// the per-job documents into one [`ShapesDoc`] (records in registry
/// order). Each child is killed after `max(600 s, 3 s × EPIC_MILLIS ×
/// EPIC_TRIALS)` (`child_timeout`). Only setup errors (run dir, own binary
/// path) are `Err` — experiment failures and crashes (including spawn
/// failures) are *records* in the returned document.
pub fn run_parallel(selected: &[Experiment], jobs: usize) -> Result<ShapesDoc, String> {
    let jobs = jobs.max(1);
    let total = selected.len();
    let timeout = child_timeout(
        epic_util::topology::env_u64("EPIC_MILLIS", 200),
        crate::config::env_trials(),
    );
    let run_dir = new_run_dir().map_err(|e| format!("runner: could not create run dir: {e}"))?;
    let program = std::env::current_exe()
        .map_err(|e| format!("runner: could not resolve own binary: {e}"))?;
    let mut pool = Pool::new(PoolCfg {
        slots: jobs,
        timeout,
        dir: run_dir.clone(),
        program,
    });
    println!(
        "runner: {total} experiments on {jobs} worker slots (timeout {}s, logs under {})",
        timeout.as_secs(),
        run_dir.display()
    );
    for e in selected {
        pool.submit(JobSpec::for_experiment(e));
    }
    let mut records: Vec<ShapeRecord> = Vec::new();
    loop {
        for end in pool.tick() {
            let secs = end.duration.as_secs_f64();
            match end.outcome {
                AttemptOutcome::Completed(rec) => {
                    println!(
                        "[{:>2}/{total}] {:<32} {:<8} ({secs:.1}s, attempt {})",
                        records.len() + 1,
                        end.spec.experiment,
                        rec.report.verdict(),
                        end.attempt
                    );
                    records.push(*rec);
                }
                AttemptOutcome::Crashed { reason, will_retry } => {
                    if will_retry {
                        println!(
                            "[retry] {}: {reason} — retrying once (log: {})",
                            end.spec.experiment,
                            end.log_path.display()
                        );
                    } else {
                        println!(
                            "[{:>2}/{total}] {:<32} CRASHED  ({secs:.1}s, attempt {}): {reason}",
                            records.len() + 1,
                            end.spec.experiment,
                            end.attempt
                        );
                        let e = selected
                            .iter()
                            .find(|e| e.id == end.spec.experiment)
                            .expect("the pool ends only jobs submitted from `selected`");
                        records.push(crash_record(e, end.attempt, &reason, &end.log_path));
                    }
                }
            }
        }
        if pool.is_idle() {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let rank = registry_rank();
    records.sort_by_key(|r| rank(&r.report.experiment));
    Ok(ShapesDoc { records, jobs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_timeout_scales_with_trial_time() {
        assert_eq!(child_timeout(20, 1), Duration::from_secs(600));
        assert_eq!(child_timeout(200, 1), Duration::from_secs(600));
        assert_eq!(child_timeout(5000, 3), Duration::from_secs(45_000));
        assert_eq!(child_timeout(u64::MAX, 3), Duration::from_secs(u64::MAX));
    }

    #[test]
    fn crash_record_fails_strict() {
        let rec = crash_record(
            &crate::experiments::experiment_by_name("fig4_garbage").unwrap(),
            2,
            "boom",
            std::path::Path::new("/tmp/x.log"),
        );
        assert_eq!(rec.report.verdict(), "FAIL");
        assert_eq!(rec.attempts, 2);
        assert!(rec.report.outcomes[0].detail.contains("boom"));
        assert!(
            !rec.report.claim.is_empty(),
            "claim comes from the registered oracle"
        );
    }

    #[test]
    fn sweep_keeps_newest_run_dirs_and_ignores_strays() {
        let root = std::env::temp_dir().join(format!("epic_sweep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        for ts in 1..=5u64 {
            let dir = root.join(format!("run-{ts:013}-1-0"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("x.log"), "log").unwrap();
        }
        // Strays: a flat pre-PR-8 log file and an unrelated directory.
        std::fs::write(root.join("fig4_garbage.log"), "old layout").unwrap();
        std::fs::create_dir_all(root.join("not_a_run")).unwrap();
        sweep_run_dirs(&root, 2);
        let mut left: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(
            left,
            [
                "fig4_garbage.log",
                "not_a_run",
                "run-0000000000004-1-0",
                "run-0000000000005-1-0"
            ]
        );
        // keep >= count is a no-op.
        sweep_run_dirs(&root, 10);
        assert_eq!(std::fs::read_dir(&root).unwrap().count(), 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn new_run_dirs_are_unique_and_swept() {
        let scratch = std::env::temp_dir().join(format!("epic_rundir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        // results_dir honors EPIC_RESULTS; serialize with the other env
        // tests in this crate.
        let _guard = crate::report::env_lock();
        std::env::set_var("EPIC_RESULTS", &scratch);
        let dirs: Vec<PathBuf> = (0..JOB_LOG_KEEP + 2)
            .map(|_| new_run_dir().unwrap())
            .collect();
        std::env::remove_var("EPIC_RESULTS");
        let unique: std::collections::HashSet<&PathBuf> = dirs.iter().collect();
        assert_eq!(unique.len(), dirs.len(), "run dirs must be unique");
        let root = scratch.join("jobs");
        let survivors = std::fs::read_dir(&root).unwrap().count();
        assert_eq!(
            survivors, JOB_LOG_KEEP,
            "sweep must keep exactly JOB_LOG_KEEP"
        );
        // The newest dir (the one a runner would use) survives its own sweep.
        assert!(dirs.last().unwrap().exists());
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
