//! The process-isolated experiment job engine behind
//! `epic-run check -j N [--shard K/N]`.
//!
//! Experiments are embarrassingly parallel **across processes** but must
//! never share one: each assumes exclusive ownership of its worker
//! threads, the counting global allocator, and the `EPIC_*` environment.
//! So the engine schedules registry entries as *child processes* — the
//! binary re-invokes itself as `epic-run --one <id> --result-json <p>` —
//! through the [`pool`] module, which owns the mechanics shared with the
//! `epic-serve` daemon:
//!
//! * `jobs` concurrent worker slots, filled longest-processing-time
//!   first using the registry's [`Experiment::cost`] hints, so the
//!   heaviest sweeps start first and wall-clock approaches
//!   `max(shard)` instead of `sum(experiments)`;
//! * a per-job timeout and one retry after a crash (panic, signal,
//!   timeout) — a completed run that merely *fails its oracle* is a
//!   result, not a crash, and is never retried;
//! * live one-line progress, with child stdout/stderr captured under a
//!   per-run directory `<results>/jobs/run-<ts>-<pid>-<seq>/` (old run
//!   directories are swept, keeping the last `EPIC_JOB_LOG_KEEP`);
//! * an optional NDJSON progress stream (`--events <path>`) of
//!   [`pool::PoolEvent`] records — the same facts the daemon's `/jobs`
//!   view reports, because both come from the pool;
//! * a deterministic merge: per-job documents combine in registry order
//!   no matter the completion order.
//!
//! Sharding ([`partition`]) splits the registry into `N` stable,
//! cost-balanced id sets so `N` CI jobs (or `N` big-box invocations) can
//! each run one shard and `epic-run merge-shapes` fans the results back
//! into one verdict table.

pub mod pool;

use crate::experiments::{all_experiments, registry_rank, Experiment};
use crate::oracle::{AssertionOutcome, OracleReport, Tier};
use crate::report::results_dir;
use crate::shapes::{RunnerMeta, ShapeRecord, ShapesDoc};
use pool::{AttemptOutcome, JobSpec, Pool, PoolCfg};
use std::collections::HashSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// FNV-1a over the id bytes: the stable hash the shard partitioner
/// orders by. Not a quality hash — a *frozen* one: the shard an id lands
/// in must never depend on compiler, platform, or std internals.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Splits the full registry into `n` disjoint shards, returned in
/// registry order within each shard.
///
/// The assignment is a pure function of the id set and the static cost
/// hints: ids are ordered by (cost desc, FNV-1a hash, id) and dealt
/// serpentine-wise (`1..n`, `n..1`, ...) across the shards, so
///
/// * every id lands in exactly one shard,
/// * shard sizes differ by at most one and heavy experiments spread
///   evenly (the hash only tie-breaks equal costs),
/// * the same binary always produces the same shards — CI matrix jobs
///   and big-box invocations can compute them independently.
pub fn partition(n: usize) -> Vec<Vec<String>> {
    assert!(n >= 1, "shard count must be >= 1");
    let mut entries = all_experiments();
    entries.sort_by(|a, b| {
        b.cost
            .cmp(&a.cost)
            .then(fnv1a(&a.id).cmp(&fnv1a(&b.id)))
            .then(a.id.cmp(&b.id))
    });
    let mut shards = vec![Vec::new(); n];
    for (i, e) in entries.into_iter().enumerate() {
        let (round, pos) = (i / n, i % n);
        let s = if round % 2 == 0 { pos } else { n - 1 - pos };
        shards[s].push(e.id);
    }
    let rank = registry_rank();
    for shard in &mut shards {
        shard.sort_by_key(|id| rank(id));
    }
    shards
}

/// The id set of shard `k` of `n` (`k` is 1-based, as on the CLI).
pub fn shard_members(k: usize, n: usize) -> HashSet<String> {
    assert!(k >= 1 && k <= n, "shard index {k} out of 1..={n}");
    partition(n).swap_remove(k - 1).into_iter().collect()
}

/// Distinguishes run dirs created within one millisecond by one process
/// (tests spin pools up quickly).
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Creates a fresh per-run artifact directory
/// `<results>/jobs/run-<unix-ms>-<pid>-<seq>/` and sweeps old run
/// directories, keeping the newest [`job_log_keep`] (the new one
/// included). Both `epic-run check -j N` and the `epic-serve` daemon
/// allocate their child logs here, so `results/jobs/` stays bounded
/// across runs instead of accreting logs forever.
pub fn new_run_dir() -> std::io::Result<PathBuf> {
    let root = results_dir().join("jobs");
    std::fs::create_dir_all(&root)?;
    let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = root.join(format!(
        "run-{:013}-{}-{seq}",
        pool::unix_ms(),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir)?;
    sweep_run_dirs(&root, job_log_keep());
    Ok(dir)
}

/// How many run directories to keep under `<results>/jobs/`
/// (`EPIC_JOB_LOG_KEEP`, default 10, minimum 1).
pub fn job_log_keep() -> usize {
    epic_util::topology::env_usize("EPIC_JOB_LOG_KEEP", 10).max(1)
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
/// order). `shard_label` is recorded as runner provenance;
/// `events_path`, when set, receives the NDJSON progress stream. Only
/// run-dir/event-sink setup errors are `Err` — experiment failures and
/// crashes (including spawn failures) are *records* in the returned
/// document.
pub fn run_parallel(
    selected: &[Experiment],
    jobs: usize,
    timeout: Duration,
    shard_label: &str,
    events_path: Option<&Path>,
) -> Result<ShapesDoc, String> {
    let jobs = jobs.max(1);
    let total = selected.len();
    let run_dir = new_run_dir().map_err(|e| format!("runner: could not create run dir: {e}"))?;
    let mut events_sink = match events_path {
        Some(p) => Some(std::io::BufWriter::new(std::fs::File::create(p).map_err(
            |e| format!("runner: could not create events file {}: {e}", p.display()),
        )?)),
        None => None,
    };
    let program = std::env::current_exe()
        .map_err(|e| format!("runner: could not resolve own binary: {e}"))?;
    let mut pool = Pool::new(PoolCfg {
        slots: jobs,
        timeout,
        dir: run_dir.clone(),
        program,
    });
    println!(
        "runner: {total} experiments on {jobs} worker slots (shard {shard_label}, timeout {}s, \
         logs under {})",
        timeout.as_secs(),
        run_dir.display()
    );
    for e in selected {
        pool.submit(JobSpec::for_experiment(e));
    }
    let mut records: Vec<ShapeRecord> = Vec::new();
    loop {
        let ended = pool.tick();
        // Starts print from the event stream (the pool's own facts), and
        // every event goes to the NDJSON sink.
        for ev in pool.take_events() {
            if ev.kind == pool::EventKind::Started {
                println!("[start] {} (attempt {})", ev.experiment, ev.attempt);
            }
            if let Some(w) = events_sink.as_mut() {
                let _ = writeln!(w, "{}", ev.to_json());
            }
        }
        if let Some(w) = events_sink.as_mut() {
            let _ = w.flush();
        }
        for end in ended {
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
    Ok(ShapesDoc {
        records,
        runner: RunnerMeta {
            shard: shard_label.to_string(),
            jobs,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_frozen() {
        // Reference values computed from the FNV-1a definition; if these
        // move, every existing shard assignment moves with them.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("fig4_garbage"), fnv1a("fig4_garbage"));
        assert_ne!(fnv1a("fig4_garbage"), fnv1a("fig4_garbagf"));
    }

    #[test]
    fn partition_covers_every_id_exactly_once() {
        let all: Vec<String> = all_experiments().into_iter().map(|e| e.id).collect();
        for n in [1, 2, 3, 5, 31, 64] {
            let shards = partition(n);
            assert_eq!(shards.len(), n);
            let mut seen = HashSet::new();
            for shard in &shards {
                for id in shard {
                    assert!(
                        seen.insert(id.clone()),
                        "{id} assigned to two shards (n={n})"
                    );
                }
            }
            assert_eq!(seen.len(), all.len(), "n={n} dropped ids");
        }
    }

    #[test]
    fn shard_1_of_1_is_the_full_registry_in_order() {
        let all: Vec<String> = all_experiments().into_iter().map(|e| e.id).collect();
        assert_eq!(partition(1), vec![all]);
    }

    #[test]
    fn shards_are_stable_and_balanced() {
        for n in [2, 3, 4] {
            let a = partition(n);
            let b = partition(n);
            assert_eq!(a, b, "partition must be deterministic (n={n})");
            let sizes: Vec<usize> = a.iter().map(Vec::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced shard sizes {sizes:?} (n={n})");
            // Cost balance: serpentine dealing keeps every shard within
            // ~one heavy experiment of the mean.
            let cost_of = |ids: &Vec<String>| -> u64 {
                let reg = all_experiments();
                ids.iter()
                    .map(|id| u64::from(reg.iter().find(|e| &e.id == id).unwrap().cost))
                    .sum()
            };
            let costs: Vec<u64> = a.iter().map(cost_of).collect();
            let heaviest = u64::from(all_experiments().iter().map(|e| e.cost).max().unwrap());
            let (cmin, cmax) = (costs.iter().min().unwrap(), costs.iter().max().unwrap());
            assert!(
                cmax - cmin <= heaviest,
                "cost spread {costs:?} exceeds one heavy job (n={n})"
            );
        }
    }

    #[test]
    fn shard_members_matches_partition() {
        let shards = partition(3);
        for (i, shard) in shards.iter().enumerate() {
            let members = shard_members(i + 1, 3);
            assert_eq!(members, shard.iter().cloned().collect::<HashSet<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "shard index")]
    fn shard_index_is_one_based() {
        let _ = shard_members(0, 3);
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
        std::env::set_var("EPIC_JOB_LOG_KEEP", "3");
        let dirs: Vec<PathBuf> = (0..5).map(|_| new_run_dir().unwrap()).collect();
        std::env::remove_var("EPIC_JOB_LOG_KEEP");
        std::env::remove_var("EPIC_RESULTS");
        let unique: HashSet<&PathBuf> = dirs.iter().collect();
        assert_eq!(unique.len(), dirs.len(), "run dirs must be unique");
        let root = scratch.join("jobs");
        let survivors = std::fs::read_dir(&root).unwrap().count();
        assert_eq!(survivors, 3, "sweep must keep exactly EPIC_JOB_LOG_KEEP");
        // The newest dir (the one a runner would use) survives its own sweep.
        assert!(dirs.last().unwrap().exists());
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
