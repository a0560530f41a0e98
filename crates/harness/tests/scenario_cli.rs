//! End-to-end coverage for the scenario/runbook surface of `epic-run`:
//! `list` cost + origin columns, `list --json`, `--origin` filtering,
//! runbook-generated cells flowing through `check -j 2` with provenance-
//! stamped SHAPES rows, `replay <hash>` round trips, two-process
//! determinism (same runbook → byte-identical ids/seeds/hashes), and
//! broken-runbook startup failures.

use epic_util::json::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

/// The committed example runbook, resolved from this crate.
fn smoke_runbook() -> PathBuf {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../runbooks/smoke.json");
    path.canonicalize().expect("runbooks/smoke.json exists")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("epic_scen_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `epic-run` with the smoke-scale knobs and (optionally) the
/// committed runbook. The `EPIC_*` environment is part of the
/// provenance hash, so every invocation in a test that compares hashes
/// must go through the same helper with the same arguments.
fn epic_run(args: &[&str], runbook: Option<&PathBuf>, results: &std::path::Path) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_epic-run"));
    cmd.args(args)
        .env("EPIC_MILLIS", "20")
        .env("EPIC_TRIALS", "1")
        .env("EPIC_RESULTS", results);
    if let Some(rb) = runbook {
        cmd.env("EPIC_RUNBOOK", rb);
    }
    cmd.output().expect("spawn epic-run")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8")
}

#[test]
fn list_shows_cost_and_origin_columns() {
    let dir = scratch_dir("cols");
    let out = epic_run(&["list"], None, &dir);
    assert!(out.status.success(), "list failed: {out:?}");
    let stdout = stdout_of(&out);
    let fig1 = stdout
        .lines()
        .find(|l| l.trim().starts_with("fig1_scaling"))
        .expect("fig1_scaling listed");
    assert!(fig1.contains("cost"), "cost hint missing: {fig1}");
    assert!(fig1.contains("builtin"), "origin missing: {fig1}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_json_is_machine_readable() {
    let dir = scratch_dir("json");
    let out = epic_run(&["list", "--json"], Some(&smoke_runbook()), &dir);
    assert!(out.status.success(), "list --json failed: {out:?}");
    let v = Json::parse(&stdout_of(&out)).expect("list --json parses as JSON");
    let entries = v.as_arr().expect("a JSON array");
    assert!(!entries.is_empty());
    let mut saw_builtin = false;
    let mut saw_runbook = false;
    for e in entries {
        let id = e.get("id").and_then(Json::as_str).expect("id");
        let origin = e.get("origin").and_then(Json::as_str).expect("origin");
        let prov = e.get("provenance").and_then(Json::as_str).expect("hash");
        assert!(
            e.get("cost").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0,
            "{id}: cost"
        );
        assert_eq!(prov.len(), 32, "{id}: provenance is 32 hex chars");
        assert!(prov.chars().all(|c| c.is_ascii_hexdigit()), "{id}: {prov}");
        match origin {
            "builtin" => saw_builtin = true,
            o if o.starts_with("runbook:") => {
                saw_runbook = true;
                assert!(id.starts_with("sc_"), "{id}: generated ids are sc_*");
                assert!(e.get("seed").and_then(Json::as_f64).is_some(), "{id}: seed");
            }
            o => panic!("{id}: unexpected origin {o}"),
        }
    }
    assert!(saw_builtin && saw_runbook, "both origins present");
    // `--json` is a list flag, not a check flag.
    let out = epic_run(&["check", "--json"], None, &dir);
    assert_eq!(out.status.code(), Some(2), "check --json must exit 2");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn origin_filter_splits_builtin_from_generated() {
    let dir = scratch_dir("origin");
    let rb = smoke_runbook();
    let builtin = stdout_of(&epic_run(&["list", "--origin", "builtin"], Some(&rb), &dir));
    assert!(!builtin.contains("sc_"), "builtin filter leaked cells");
    assert!(builtin.contains("fig1_scaling"));
    let generated = stdout_of(&epic_run(&["list", "--origin", "runbook"], Some(&rb), &dir));
    assert!(
        !generated.contains("fig1_scaling"),
        "runbook filter leaked builtins"
    );
    // The committed smoke runbook must generate at least 10 cells, all
    // three scenario families represented.
    let cells: Vec<&str> = generated
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|t| t.starts_with("sc_"))
        .collect();
    assert!(cells.len() >= 10, "only {} cells: {cells:?}", cells.len());
    for family in ["sc_skew_", "sc_oversub_", "sc_churn_"] {
        assert!(
            cells.iter().any(|c| c.starts_with(family)),
            "missing {family}"
        );
    }
    // Unknown origin values are usage errors.
    let out = epic_run(&["list", "--origin", "bogus"], None, &dir);
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The determinism satellite: the same runbook yields byte-identical
/// generated ids, seeds, and provenance hashes across two *processes*.
#[test]
fn two_processes_generate_byte_identical_registries() {
    let dir = scratch_dir("det");
    let rb = smoke_runbook();
    let a = epic_run(&["list", "--json"], Some(&rb), &dir);
    let b = epic_run(&["list", "--json"], Some(&rb), &dir);
    assert!(a.status.success() && b.status.success());
    assert_eq!(
        stdout_of(&a),
        stdout_of(&b),
        "list --json must be byte-identical across processes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Generated cells run under the process runner like any builtin, every
/// SHAPES row carries a provenance hash, and `replay <hash> --against`
/// reproduces the recorded deterministic counters from the hash alone.
#[test]
fn check_stamps_provenance_and_replay_round_trips() {
    let dir = scratch_dir("replay");
    let rb = smoke_runbook();
    let out = epic_run(
        &[
            "check",
            "sc_skew_debra_abtree_je_t2_z090",
            "sc_churn_rcu_abtree_je_t2_u_c1024",
            "-j",
            "2",
        ],
        Some(&rb),
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
        Some(&rb),
        &dir,
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "replay must reproduce identical counters and hash: {out:?} {}",
        stdout_of(&out)
    );
    assert!(stdout_of(&out).contains("identical"));
    // A hash nothing in the registry reproduces is exit 2 with guidance.
    let out = epic_run(
        &["replay", "00000000000000000000000000000000"],
        Some(&rb),
        &dir,
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("provenance"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A broken `EPIC_RUNBOOK` is a hard startup error (exit 2) for every
/// subcommand — never a silent fallback to the builtin registry.
#[test]
fn broken_runbook_is_a_startup_error() {
    let dir = scratch_dir("broken");
    let missing = PathBuf::from("/no/such/runbook.json");
    let out = epic_run(&["list"], Some(&missing), &dir);
    assert_eq!(out.status.code(), Some(2), "missing runbook: {out:?}");
    let malformed = dir.join("bad.json");
    std::fs::write(&malformed, "{\"schema\": \"epic-runbook-v1\"").unwrap();
    for sub in [&["list"][..], &["check", "all"][..]] {
        let out = epic_run(sub, Some(&malformed), &dir);
        assert_eq!(out.status.code(), Some(2), "{sub:?} with bad runbook");
        assert!(
            !String::from_utf8_lossy(&out.stderr).is_empty(),
            "diagnostic expected"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
