//! End-to-end coverage for the provenance surface of `epic-run`: the
//! `list` cost column, `list --json`, two-process determinism (byte-
//! identical ids and hashes), and the scenario rows flowing through
//! `check -j 2` with provenance-stamped SHAPES rows that `replay <hash>`
//! reproduces.

use epic_util::json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("epic_scen_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `epic-run` with the smoke-scale knobs. The `EPIC_*` environment
/// is part of the provenance hash, so every invocation in a test that
/// compares hashes must go through the same helper.
fn epic_run(args: &[&str], results: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_epic-run"))
        .args(args)
        .env("EPIC_MILLIS", "20")
        .env("EPIC_TRIALS", "1")
        .env("EPIC_RESULTS", results)
        .output()
        .expect("spawn epic-run")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8")
}

#[test]
fn list_shows_cost_column() {
    let dir = scratch_dir("cols");
    let out = epic_run(&["list"], &dir);
    assert!(out.status.success(), "list failed: {out:?}");
    let stdout = stdout_of(&out);
    let fig1 = stdout
        .lines()
        .find(|l| l.trim().starts_with("fig1_scaling"))
        .expect("fig1_scaling listed");
    assert!(fig1.contains("cost"), "cost hint missing: {fig1}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_json_is_machine_readable() {
    let dir = scratch_dir("json");
    let out = epic_run(&["list", "--json"], &dir);
    assert!(out.status.success(), "list --json failed: {out:?}");
    let v = Json::parse(&stdout_of(&out)).expect("list --json parses as JSON");
    let entries = v.as_arr().expect("a JSON array");
    let mut scenario_rows = 0;
    for e in entries {
        let id = e.get("id").and_then(Json::as_str).expect("id");
        let prov = e.get("provenance").and_then(Json::as_str).expect("hash");
        assert!(
            e.get("cost").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0,
            "{id}: cost"
        );
        assert_eq!(prov.len(), 32, "{id}: provenance is 32 hex chars");
        assert!(prov.chars().all(|c| c.is_ascii_hexdigit()), "{id}: {prov}");
        for gone in ["origin", "seed"] {
            assert!(e.get(gone).is_none(), "{id}: stale field {gone}");
        }
        scenario_rows += usize::from(id.starts_with("scenario_"));
    }
    assert_eq!(entries.len(), 34);
    assert_eq!(scenario_rows, 3);
    // `--json` is a list flag, not a check flag.
    let out = epic_run(&["check", "--json"], &dir);
    assert_eq!(out.status.code(), Some(2), "check --json must exit 2");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same checkout and environment yield byte-identical ids and
/// provenance hashes across two *processes*.
#[test]
fn two_processes_generate_byte_identical_registries() {
    let dir = scratch_dir("det");
    let a = epic_run(&["list", "--json"], &dir);
    let b = epic_run(&["list", "--json"], &dir);
    assert!(a.status.success() && b.status.success());
    assert_eq!(
        stdout_of(&a),
        stdout_of(&b),
        "list --json must be byte-identical across processes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scenario rows run under the process runner like any other row,
/// every SHAPES row carries a provenance hash, and `replay <hash>
/// --against` reproduces the recorded deterministic counters from the
/// hash alone.
#[test]
fn check_stamps_provenance_and_replay_round_trips() {
    let dir = scratch_dir("replay");
    let out = epic_run(
        &["check", "scenario_skew", "scenario_churn", "-j", "2"],
        &dir,
    );
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "scenario check must complete: {out:?}"
    );
    let shapes_path = dir.join("SHAPES.json");
    let shapes = std::fs::read_to_string(&shapes_path).expect("SHAPES.json");
    let doc = Json::parse(&shapes).expect("SHAPES parses");
    let mut hashes = Vec::new();
    for rec in doc.get("experiments").and_then(Json::as_arr).expect("rows") {
        let result = rec.get("result").expect("result");
        let prov = result
            .get("provenance")
            .and_then(Json::as_str)
            .expect("every result row carries a provenance hash");
        assert_eq!(prov.len(), 32);
        hashes.push(prov.to_string());
    }
    assert_eq!(hashes.len(), 2);
    let out = epic_run(
        &[
            "replay",
            &hashes[1],
            "--against",
            shapes_path.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "replay must reproduce identical counters and hash: {out:?} {}",
        stdout_of(&out)
    );
    assert!(
        stdout_of(&out).contains("scenario_churn matches"),
        "{}",
        stdout_of(&out)
    );
    assert!(stdout_of(&out).contains("15 det/* counters identical"));
    // A hash nothing in the registry reproduces is exit 2 with guidance.
    let out = epic_run(&["replay", "00000000000000000000000000000000"], &dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("provenance"));
    let _ = std::fs::remove_dir_all(&dir);
}
