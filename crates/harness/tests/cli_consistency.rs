//! Smoke tests keeping the experiment registry and the `epic-run` CLI in
//! lock-step: every id is unique, `run_by_name` resolves exactly the
//! registered ids, the installed binary's `list` output matches the
//! registry line for line (and survives a closed pipe), a run prints its
//! row's claim exactly once, and the process-runner surface (`-j`,
//! `--one`) round-trips end to end.

use epic_harness::experiments::{all_experiments, experiment_by_name};
use epic_harness::shapes::ShapesDoc;
use std::collections::HashSet;
use std::path::PathBuf;
use std::process::{Command, Output};

fn epic_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_epic-run"))
        .args(args)
        .output()
        .expect("spawn epic-run")
}

/// Like [`epic_run`] but scaled down to smoke length and with artifacts
/// redirected into a scratch dir, for invocations that actually run
/// experiments.
fn epic_run_tiny(args: &[&str], results: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_epic-run"))
        .args(args)
        .env("EPIC_MILLIS", "20")
        .env("EPIC_TRIALS", "1")
        .env("EPIC_RESULTS", results)
        .output()
        .expect("spawn epic-run")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("epic_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf8")
}

/// The ids a `list` invocation printed (skipping the header line).
fn listed_ids(out: &Output) -> Vec<String> {
    stdout_of(out)
        .lines()
        .skip(1)
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

#[test]
fn experiment_ids_are_unique_and_nonempty() {
    let ids: Vec<String> = all_experiments().into_iter().map(|e| e.id).collect();
    assert!(!ids.is_empty(), "registry must not be empty");
    let set: HashSet<&String> = ids.iter().collect();
    assert_eq!(set.len(), ids.len(), "duplicate experiment id in registry");
    for id in &ids {
        assert!(
            id.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "id {id:?} is not a lower_snake_case token"
        );
    }
}

#[test]
fn epic_run_list_matches_registry() {
    let out = epic_run(&["list"]);
    assert!(out.status.success(), "epic-run list failed: {out:?}");
    let listed = listed_ids(&out);
    let registry: Vec<String> = all_experiments().into_iter().map(|e| e.id).collect();
    assert_eq!(
        listed, registry,
        "CLI list output diverged from all_experiments()"
    );
}

/// `epic-run list | head -1`: the reader going away mid-listing is a normal
/// way to stop, not a failure — clean exit, nothing on stderr (`println!`
/// used to panic with "failed printing to stdout: Broken pipe", exit 101).
/// Whether a write actually hits the closed pipe is a race against the
/// child's one-write-per-line output, hence the repeats.
#[test]
fn epic_run_list_survives_a_closed_pipe() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    for round in 0..8 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_epic-run"))
            .arg("list")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn epic-run");
        let mut stdout = BufReader::with_capacity(16, child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first).expect("read header line");
        assert!(first.starts_with("experiments"), "round {round}: {first:?}");
        drop(stdout);
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        let status = child.wait().expect("wait epic-run");
        assert!(status.success(), "round {round}: {status:?}\n{stderr}");
        assert_eq!(stderr, "", "round {round}");
    }
}

#[test]
fn epic_run_rejects_unknown_experiment_and_lists_valid_ids() {
    let out = epic_run(&["no_such_experiment"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown id must exit 2: {out:?}"
    );
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains("unknown experiment 'no_such_experiment'"),
        "stderr should name the bad id: {stderr}"
    );
    for id in ["fig1_scaling", "ablation_ds_generality"] {
        assert!(
            stderr.contains(id),
            "stderr should list valid id {id}: {stderr}"
        );
    }
}

/// `adaptive_tracking` was a builtin until the adaptive free mode was
/// deleted, and `merge-shapes` a subcommand until `check -j N` became
/// the one way to run the oracles: a stale script gets the usage error a
/// typo gets.
#[test]
fn epic_run_rejects_the_deleted_adaptive_tracking_id() {
    for args in [
        &["adaptive_tracking"][..],
        &["check", "adaptive_tracking"],
        &["merge-shapes", "a.json"],
    ] {
        let out = epic_run(args);
        let stderr = stderr_of(&out);
        let stale = args.iter().find(|a| *a != &"check").unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown experiment '{stale}'")));
        assert!(stderr.contains("fig1_scaling"), "lists valid ids: {stderr}");
    }
}

/// A run states its paper-shape claim once, from its registry row's
/// oracle; no hand-written `paper shape:` or `expectation:` note remains.
#[test]
fn epic_run_prints_the_rows_claim_once() {
    let dir = scratch_dir("claim");
    let out = epic_run_tiny(&["fig7_passfirst"], &dir);
    assert!(out.status.success(), "fig7_passfirst failed: {out:?}");
    let claim = experiment_by_name("fig7_passfirst").unwrap().oracle.claim;
    let stdout = stdout_of(&out);
    let want = format!("claim: {claim}");
    assert_eq!(stdout.lines().filter(|l| *l == want).count(), 1, "{stdout}");
    assert!(
        !stdout
            .lines()
            .any(|l| l.starts_with("paper shape:") || l.starts_with("expectation:")),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `epic-run check` on an unknown id must fail cleanly — exit code 2,
/// a diagnostic naming the bad id plus the valid ones on stderr, and no
/// experiment output or SHAPES.json writing before the rejection.
#[test]
fn epic_run_check_rejects_unknown_id() {
    let out = epic_run(&["check", "no_such_experiment"]);
    assert_eq!(out.status.code(), Some(2), "check must exit 2 on a bad id");
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains("unknown experiment 'no_such_experiment'"),
        "stderr should name the bad id: {stderr}"
    );
    assert!(
        stderr.contains("fig1_scaling"),
        "stderr should list the valid ids: {stderr}"
    );
    // A bad id anywhere in the list aborts before running anything.
    let out = epic_run(&["check", "fig4_garbage", "no_such_experiment"]);
    assert_eq!(out.status.code(), Some(2), "bad id in a list must exit 2");
    let stdout = stdout_of(&out);
    assert!(
        !stdout.contains("##### check"),
        "must validate ids before running experiments: {stdout}"
    );
}

/// Bad flags and malformed values are usage errors, not silent ids.
#[test]
fn epic_run_check_rejects_bad_flags() {
    for args in [
        &["check", "--jobs", "zero"][..],
        &["check", "-j"][..],
        &["check", "--frobnicate"][..],
        // Deleted flags fall through to "unknown flag".
        &["check", "--shard", "1/3"][..],
        &["check", "--events", "x"][..],
        &["check", "--timeout-secs", "5"][..],
        &["list", "--shard", "1/3"][..],
    ] {
        let out = epic_run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {out:?}");
    }
}

/// An empty selection must not report green: an origin filter that
/// excludes everything exits 2 instead of "0 experiments, 0 failures".
#[test]
fn epic_run_check_refuses_empty_selection() {
    // No EPIC_RUNBOOK, so there are no runbook cells to select.
    for args in [
        &["check", "--origin", "runbook"][..],
        &["check", "fig7_passfirst", "--origin", "runbook"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_epic-run"))
            .args(args)
            .env_remove("EPIC_RUNBOOK")
            .output()
            .expect("spawn epic-run");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(stderr_of(&out).contains("selection is empty"));
    }
}

/// Repeated ids collapse to one run — the job engine keys per-child
/// artifacts by id.
#[test]
fn epic_run_check_deduplicates_repeated_ids() {
    let dir = scratch_dir("dedup");
    let out = epic_run_tiny(
        &["check", "fig7_passfirst", "fig7_passfirst", "-j", "2"],
        &dir,
    );
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "dedup check must complete: {out:?}"
    );
    let stdout = stdout_of(&out);
    assert!(
        stdout.contains("check: 1 experiments"),
        "duplicates must collapse: {stdout}"
    );
    let doc = ShapesDoc::parse(&std::fs::read_to_string(dir.join("SHAPES.json")).expect("SHAPES"))
        .expect("v2 parses");
    assert_eq!(doc.records.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The child half of the job engine: two `--one` self-invocations (what
/// `check -j N` spawns) each produce a single-record v2 document that
/// parses back. The combining half is
/// `parallel_check_produces_merged_v2_shapes`.
#[test]
fn one_and_merge_shapes_round_trip() {
    let dir = scratch_dir("one");
    let a = dir.join("fig7.json");
    let b = dir.join("fig8.json");
    for (id, path) in [("fig7_passfirst", &a), ("fig8_periodic", &b)] {
        let out = epic_run_tiny(
            &["--one", id, "--result-json", path.to_str().unwrap()],
            &dir,
        );
        assert!(
            matches!(out.status.code(), Some(0 | 1)),
            "--one {id} must complete: {out:?}"
        );
        let doc = ShapesDoc::parse(&std::fs::read_to_string(path).expect("result json"))
            .expect("child output parses");
        assert_eq!((doc.records.len(), doc.jobs), (1, 1));
        assert_eq!(doc.records[0].report.experiment, id);
        assert!(doc.records[0].duration_ms > 0.0, "duration must be stamped");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `check -j 2` drives the process runner end to end: both experiments
/// run as children, the merged SHAPES.json is v2 with runner metadata,
/// and per-job artifacts land under `jobs/`.
#[test]
fn parallel_check_produces_merged_v2_shapes() {
    let dir = scratch_dir("parallel");
    let out = epic_run_tiny(
        &["check", "fig7_passfirst", "fig8_periodic", "-j", "2"],
        &dir,
    );
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "parallel check must complete: {out:?}"
    );
    let stdout = stdout_of(&out);
    assert!(
        stdout.contains("2 experiments on 2 worker slots"),
        "progress header missing: {stdout}"
    );
    let doc = ShapesDoc::parse(&std::fs::read_to_string(dir.join("SHAPES.json")).expect("SHAPES"))
        .expect("v2 parses");
    let ids: Vec<&str> = doc
        .records
        .iter()
        .map(|r| r.report.experiment.as_str())
        .collect();
    assert_eq!(ids, ["fig7_passfirst", "fig8_periodic"], "registry order");
    assert_eq!(doc.jobs, 2);
    for rec in &doc.records {
        assert_eq!(rec.attempts, 1, "healthy children need one attempt");
        assert!(rec.duration_ms > 0.0);
    }
    // Child logs land in a per-run subdirectory (jobs/run-*/<id>.log),
    // keeping results/jobs/ bounded across runs.
    let run_dirs: Vec<PathBuf> = std::fs::read_dir(dir.join("jobs"))
        .expect("jobs dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("run-"))
        })
        .collect();
    assert_eq!(
        run_dirs.len(),
        1,
        "one check run = one run dir: {run_dirs:?}"
    );
    for id in ["fig7_passfirst", "fig8_periodic"] {
        assert!(
            run_dirs[0].join(format!("{id}.log")).exists(),
            "captured child log missing for {id}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `bench-diff` was a subcommand until ISSUE 17 moved the zero-allocation
/// gate into `cargo test` (`no_global_heap.rs`): a stale CI script gets the
/// usage error an unknown experiment gets, not a silent pass.
#[test]
fn epic_run_rejects_the_deleted_bench_diff_subcommand() {
    let out = epic_run(&["bench-diff", "a.json", "b.json"]);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment 'bench-diff'"));
    assert!(stderr.contains("fig1_scaling"), "lists valid ids: {stderr}");
}

/// `EPIC_TRIALS=0` used to trip `run_trials`' assert in every cell (twice
/// under `-j`): it is a malformed value — one warning, one trial.
#[test]
fn zero_trials_runs_one_trial_instead_of_panicking() {
    let dir = scratch_dir("trials0");
    let runbook = concat!(env!("CARGO_MANIFEST_DIR"), "/../../runbooks/smoke.json");
    let out = Command::new(env!("CARGO_BIN_EXE_epic-run"))
        .args(["check", "sc_skew_debra_abtree_je_t2_u"])
        .env("EPIC_MILLIS", "20")
        .env("EPIC_TRIALS", "0")
        .env("EPIC_RUNBOOK", runbook)
        .env("EPIC_RESULTS", &dir)
        .output()
        .expect("spawn epic-run");
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(
        stderr.matches("ignoring malformed EPIC_TRIALS").count(),
        1,
        "warns once: {stderr}"
    );
    assert!(stdout_of(&out).contains("1 experiments, 0 strict failures"));
    let _ = std::fs::remove_dir_all(&dir);
}
