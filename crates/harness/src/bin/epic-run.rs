//! CLI entry point: run paper experiments by id and check them against
//! the paper-shape oracles — serially or as parallel child processes.
//!
//! ```text
//! epic-run list                      # id + cost
//! epic-run list --json               # machine-readable registry (ids, costs,
//!                                    #   provenance hashes)
//! epic-run fig11a_experiment1        # run one experiment in-process
//! epic-run all                       # the full evaluation, serial
//! epic-run check                     # run everything + evaluate every oracle
//! epic-run check table3_allocators fig11b_experiment2
//! epic-run check all -j 4            # process-isolated, 4 worker slots
//! epic-run replay <hash> [--against results/SHAPES.json]  # re-run by provenance
//! EPIC_MILLIS=5000 EPIC_TRIALS=3 epic-run check all -j $(nproc)  # paper-scale
//! ```
//!
//! `check` prints a PASS/FAIL/ADVISORY verdict table, writes
//! `results/SHAPES.json` (`epic-shapes-v2`), and exits non-zero iff a
//! *strict* assertion failed (advisory misses are reported but never
//! fatal — see DESIGN.md §6). With `-j N` the experiments run as child
//! processes (`--one` self-invocations) under the DESIGN.md §8 job
//! engine, each child killed after `max(600 s, 3 s × EPIC_MILLIS ×
//! EPIC_TRIALS)`; `epic-run <id>` stays serial and in-process, so
//! single-experiment debugging is unchanged.

use epic_harness::experiments::{all_experiments, experiment_by_name, run_by_name, Experiment};
use epic_harness::oracle::{evaluate, render_verdict_table};
use epic_harness::provenance::provenance_hash;
use epic_harness::runner;
use epic_harness::shapes::{ShapeRecord, ShapesDoc};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest: Vec<&str> = args.iter().skip(1).map(String::as_str).collect();
    match args.first().map(String::as_str) {
        None | Some("list") => std::process::exit(run_list(&rest)),
        Some("all") => {
            for e in all_experiments() {
                println!("\n##### {} #####", e.id);
                e.execute();
            }
        }
        Some("check") => std::process::exit(run_check(&rest)),
        Some("replay") => std::process::exit(run_replay(&rest)),
        Some("--one") => std::process::exit(run_one(&rest)),
        Some(name) => {
            if run_by_name(name).is_none() {
                unknown_experiment(name);
                std::process::exit(2);
            }
        }
    }
}

/// Prints the bad id plus every valid one — `check`, `--one`, and the
/// bare-id form all fail through here.
fn unknown_experiment(name: &str) {
    eprintln!("unknown experiment '{name}'; valid ids:");
    for e in all_experiments() {
        eprintln!("  {}", e.id);
    }
}

/// Options shared by `list` and `check` (`--json` is list-only).
struct CheckOpts {
    ids: Vec<String>,
    jobs: usize,
    json: bool,
}

fn parse_check_opts(rest: &[&str]) -> Result<CheckOpts, String> {
    let mut opts = CheckOpts {
        ids: Vec::new(),
        jobs: 1,
        json: false,
    };
    let mut it = rest.iter();
    while let Some(&arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<&str, String> {
            it.next()
                .copied()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg {
            "-j" | "--jobs" => {
                let v = value_of(arg)?;
                opts.jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|j| *j >= 1)
                    .ok_or_else(|| format!("bad {arg} '{v}' (expected a count >= 1)"))?;
            }
            "--json" => opts.json = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            id => opts.ids.push(id.to_string()),
        }
    }
    Ok(opts)
}

/// Resolves ids (empty / `all` = full registry, repeats collapse to the
/// first occurrence). `Err` carries the exit code (2, after diagnostics).
fn select(opts: &CheckOpts) -> Result<Vec<Experiment>, i32> {
    if opts.ids.is_empty() || opts.ids.iter().any(|s| s == "all") {
        return Ok(all_experiments());
    }
    let mut picked: Vec<Experiment> = Vec::new();
    for want in &opts.ids {
        match experiment_by_name(want) {
            // Dedup: the job engine keys per-child artifacts by id.
            Some(e) if picked.iter().any(|p| p.id == e.id) => {}
            Some(e) => picked.push(e),
            None => {
                unknown_experiment(want);
                return Err(2);
            }
        }
    }
    Ok(picked)
}

fn run_list(rest: &[&str]) -> i32 {
    let opts = match parse_check_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let selected = match select(&opts) {
        Ok(s) => s,
        Err(code) => return code,
    };
    // One locked handle, errors surfaced: `epic-run list | head` closes the
    // pipe early, which is a normal way to stop reading, not a failure.
    match write_list(&mut std::io::stdout().lock(), &opts, &selected) {
        Ok(()) => 0,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("epic-run list: {e}");
            1
        }
    }
}

fn write_list(
    out: &mut impl std::io::Write,
    opts: &CheckOpts,
    selected: &[Experiment],
) -> std::io::Result<()> {
    if opts.json {
        return writeln!(out, "{}", registry_json(selected));
    }
    writeln!(
        out,
        "experiments (pass an id, 'all', or 'check [id...|all]'):"
    )?;
    let width = selected.iter().map(|e| e.id.len()).max().unwrap_or(0);
    for e in selected {
        writeln!(out, "  {:<width$}  cost {:>3}", e.id, e.cost)?;
    }
    Ok(())
}

/// The selection as a JSON array: id, cost, and the provenance hash each
/// entry would stamp if run right now. Every field is an id-safe/hex
/// token, so the literal formatting below needs no escaping. Two
/// processes with the same toolchain, git rev, and `EPIC_*` environment
/// must produce byte-identical output (pinned by the `scenario_cli` test).
fn registry_json(selected: &[Experiment]) -> String {
    let mut out = String::from("[");
    for (i, e) in selected.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"id\": \"{}\", \"cost\": {}, \"provenance\": \"{}\"}}",
            e.id,
            e.cost,
            provenance_hash(&e.id)
        ));
    }
    out.push_str("\n]");
    out
}

/// Runs the selected experiments (in-process when `-j 1`, as child
/// processes otherwise), evaluates their oracles, prints the verdict
/// table, writes `SHAPES.json`. Returns the process exit code:
/// 0 (all strict assertions hold), 1 (strict failure), 2 (bad usage).
fn run_check(rest: &[&str]) -> i32 {
    let opts = match parse_check_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if opts.json {
        eprintln!("--json only applies to `epic-run list`");
        return 2;
    }
    let selected = match select(&opts) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let doc = if opts.jobs <= 1 {
        Ok(check_serial(&selected))
    } else {
        runner::run_parallel(&selected, opts.jobs)
    };
    match doc {
        Ok(doc) => finish_check(&doc),
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

/// Executes `e`, times it, evaluates its oracle and prints the
/// per-assertion trace — the one in-process path behind serial `check`
/// and the `--one` child mode.
fn run_checked(e: &Experiment) -> ShapeRecord {
    let started = Instant::now();
    let result = e.execute();
    let duration_ms = started.elapsed().as_secs_f64() * 1e3;
    let report = evaluate(&e.oracle, &result);
    for o in &report.outcomes {
        let mark = if o.passed { "ok  " } else { "MISS" };
        println!("  [{mark}] ({}) {} — {}", o.tier.name(), o.label, o.detail);
    }
    ShapeRecord::from_run(report, &result, duration_ms, 1)
}

/// The serial in-process path: identical to the pre-engine behavior
/// (live per-assertion traces), plus per-experiment timing.
fn check_serial(selected: &[Experiment]) -> ShapesDoc {
    let mut records = Vec::new();
    for e in selected {
        println!("\n##### check {} #####", e.id);
        records.push(run_checked(e));
    }
    ShapesDoc { records, jobs: 1 }
}

/// Shared tail of serial and parallel `check`: verdict table,
/// SHAPES.json, summary line, exit code.
fn finish_check(doc: &ShapesDoc) -> i32 {
    println!("\n{}", render_verdict_table(&doc.reports()));
    let path = doc.write_default();
    println!("wrote {}", path.display());
    let strict_failures = doc.strict_failures();
    println!(
        "check: {} experiments, {strict_failures} strict failures, {} advisory misses",
        doc.records.len(),
        doc.advisory_failures()
    );
    i32::from(strict_failures > 0)
}

/// The internal child mode: run exactly one experiment in-process and
/// write a single-record shapes document to `--result-json`. Exit code
/// 0/1 mirrors the oracle verdict; 2 is bad usage; 3 means the result
/// could not be written (the parent treats that as a crash).
fn run_one(rest: &[&str]) -> i32 {
    let (id, json_path) = match rest {
        [id, "--result-json", path] => (*id, *path),
        _ => {
            eprintln!("usage: epic-run --one <id> --result-json <path>");
            return 2;
        }
    };
    let Some(e) = experiment_by_name(id) else {
        unknown_experiment(id);
        return 2;
    };
    let doc = ShapesDoc {
        records: vec![run_checked(&e)],
        jobs: 1,
    };
    if let Err(err) = std::fs::write(json_path, doc.to_json()) {
        eprintln!("--one {id}: could not write {json_path}: {err}");
        return 3;
    }
    i32::from(doc.strict_failures() > 0)
}

/// `replay <hash> [--against <SHAPES.json>]`: find the registry entry
/// whose provenance hash matches, re-run it, and confirm the fresh run
/// stamps the same hash. With `--against`, also diff the deterministic
/// single-thread counters (`det/*` metrics) against the recorded row.
/// Exit 0 = identical, 1 = mismatch, 2 = hash not found / bad usage.
fn run_replay(rest: &[&str]) -> i32 {
    let (hash, against) = match rest {
        [hash] => (*hash, None),
        [hash, "--against", path] => (*hash, Some(*path)),
        _ => {
            eprintln!("usage: epic-run replay <provenance-hash> [--against <SHAPES.json>]");
            return 2;
        }
    };
    let registry = all_experiments();
    let Some(e) = registry.iter().find(|e| provenance_hash(&e.id) == hash) else {
        eprintln!(
            "replay: no registry entry reproduces provenance hash '{hash}'.\n\
             The hash covers the experiment id, toolchain, git revision, and EPIC_*\n\
             overrides — recreate that environment (same checkout, same EPIC_* variables)\n\
             and retry. `epic-run list --json` shows the hash every current entry would stamp."
        );
        return 2;
    };
    println!("replay: {} (provenance {hash})", e.id);
    let result = e.execute();
    let fresh = result.provenance.clone().unwrap_or_default();
    if fresh != hash {
        eprintln!("replay: re-run stamped {fresh}, expected {hash} — environment drifted");
        return 1;
    }
    let det: Vec<(&String, &f64)> = result
        .metrics()
        .iter()
        .filter(|(k, _)| k.starts_with("det/"))
        .collect();
    for (k, v) in &det {
        println!("  {k} = {v}");
    }
    let Some(path) = against else {
        println!("replay: {} reproduced provenance {hash}", e.id);
        return 0;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("replay: cannot read {path}: {err}");
            return 2;
        }
    };
    let doc = match ShapesDoc::parse(&text) {
        Ok(d) => d,
        Err(err) => {
            eprintln!("replay: {path}: {err}");
            return 2;
        }
    };
    let recorded = doc.records.iter().find_map(|r| {
        let v = epic_util::json::Json::parse(&r.result_json).ok()?;
        (v.get("provenance").and_then(epic_util::json::Json::as_str) == Some(hash)).then_some(v)
    });
    let Some(recorded) = recorded else {
        eprintln!("replay: no record in {path} carries provenance {hash}");
        return 2;
    };
    let mut mismatches = 0;
    for (k, v) in &det {
        let old = recorded
            .get("metrics")
            .and_then(|m| m.get(k))
            .and_then(epic_util::json::Json::as_f64);
        if old != Some(**v) {
            eprintln!("replay: {k}: recorded {old:?}, re-run {v}");
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        eprintln!("replay: {mismatches} deterministic counter(s) diverged");
        return 1;
    }
    println!(
        "replay: {} matches {path} — {} det/* counters identical, same provenance",
        e.id,
        det.len()
    );
    0
}
