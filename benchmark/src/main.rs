//! The repo benchmark (`BENCHMARK.json`, `benchmark/README.md`).
//!
//! ```text
//! epic-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! epic-benchmark run --seed <n> [--seconds <s>] [--no-sample]
//! epic-benchmark selfcheck --seed <n> [--seconds <s>]
//! ```
//!
//! The first form is one measurement; its last line of standard output is
//! the JSON object the benchmark driver reads. `run` measures every
//! workload untraced and then traced and writes `benchmark/out/result.json`;
//! `selfcheck` does that twice and reports whether the two sets agree.
//! Exit code 0 = measured and every check passed, 1 = a check failed,
//! 2 = usage error or fewer than two CPUs.

mod config;
mod driver;
mod hist;
mod probes;
mod report;
mod selfcheck;
mod trace;

use config::{Workload, WORKLOADS};
use driver::{run_cell, CellRun, Probe};
use epic_util::Json;
use report::{Budget, Metric, ProbeResults};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// `run_seconds` of `BENCHMARK.json`: what `run` and `selfcheck` use when
/// `--seconds` is not given.
const RUN_SECONDS: f64 = 28.0;

/// One measurement of one workload.
pub struct Report {
    pub workload: &'static Workload,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failed_checks: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Lines printed with the metrics that are not metrics themselves:
    /// sample counts, the time budget.
    pub notes: String,
    /// Σ threads × wall of the traced rounds not covered by a thread's
    /// loop, as a share (traced runs only).
    pub residual_share: f64,
}

impl Report {
    pub fn get(&self, name: &str) -> f64 {
        let m = self.metrics.iter().find(|m| m.name == name);
        m.unwrap_or_else(|| panic!("no metric {name}")).value
    }

    fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    fn print(&self) {
        let kind = if self.traced { "traced" } else { "untraced" };
        println!("== {} ({kind}) ==", self.workload.name);
        for m in &self.metrics {
            println!("{:<44}{:>16.4} {}", m.name, m.value, m.unit);
        }
        println!("{:<44}{:>16.3e} share", "failed_share", self.failed_share());
        print!("{}", self.notes);
        for c in &self.failed_checks {
            println!("FAILED CHECK {c}");
        }
    }

    /// The last line of standard output in single-measurement mode.
    fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.into())),
                ];
                (m.name.clone(), Json::Obj(fields))
            })
            .collect();
        let checks = self.failed_checks.iter().cloned().map(Json::Str).collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.name.into())),
            ("traced".into(), Json::Bool(self.traced)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("failed_share".into(), Json::Num(self.failed_share())),
            ("failed_checks".into(), Json::Arr(checks)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

fn run_cells(w: &'static Workload, seed: u64, seconds: f64, probe: Probe) -> Vec<CellRun> {
    let each = seconds / w.cells.len() as f64;
    w.cells
        .iter()
        .enumerate()
        .map(|(i, cell)| run_cell(cell, i, seed, each, probe))
        .collect()
}

/// The end-to-end measurement: tracing off, one call in 64 timed (or none,
/// with `--no-sample`).
pub fn run_untraced(w: &'static Workload, seed: u64, seconds: f64, probe: Probe) -> Report {
    let cells = run_cells(w, seed, seconds, probe);
    let (attempted, failed, failed_checks) = report::outcome(&cells);
    let e2e = report::end_to_end(&cells);
    let mut notes = String::new();
    for m in &e2e.tails {
        notes += &format!("{:<44}{:>16.4} {} (per-layer)\n", m.name, m.value, m.unit);
    }
    notes += &format!(
        "latency samples {} (at least {} beyond p9999 in every cell)\n",
        e2e.samples, e2e.beyond_p9999
    );
    for c in &cells {
        notes += &format!(
            "cell {:<20}{:>3} rounds, median {:.3} Mops/s\n",
            c.cell.name,
            c.rounds.len(),
            report::throughput_mops(std::slice::from_ref(c))
        );
    }
    Report {
        workload: w,
        traced: false,
        attempted,
        failed,
        failed_checks,
        metrics: e2e.metrics,
        notes,
        residual_share: 0.0,
    }
}

/// The per-layer measurement: a fifth of the seconds on untraced reference
/// rounds, three tenths on the same rounds traced, the rest on the direct
/// probes. Writes `out/trace-<workload>.json`.
pub fn run_traced(w: &'static Workload, seed: u64, seconds: f64) -> Report {
    let reference = run_cells(w, seed, 0.2 * seconds, Probe::Sampled);
    let mut traced = run_cells(w, seed, 0.3 * seconds, Probe::Traced);
    let probes = ProbeResults {
        clock_ns: probes::clock_ns(0.01 * seconds),
        core: probes::all_core_probes(0.18 * seconds),
        run_trial_ratio: probes::run_trial_ratio(seed, 0.2 * seconds),
    };

    let (ref_attempted, ref_failed, mut failed_checks) = report::outcome(&reference);
    let (attempted, failed, traced_checks) = report::outcome(&traced);
    failed_checks.extend(traced_checks);
    let budget = Budget::of(&traced);
    let metrics = report::per_layer(&reference, &traced, &probes);
    let op_notes = report::op_latency_notes(&traced);
    let trace = report::trace_json(w, seed, &mut traced);
    write_out(&format!("trace-{}.json", w.name), &trace);
    Report {
        workload: w,
        traced: true,
        attempted: ref_attempted + attempted,
        failed: ref_failed + failed,
        failed_checks,
        metrics,
        notes: op_notes + &budget.render(),
        residual_share: budget.residual_ns / budget.thread_wall_ns,
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes `json` to `benchmark/out/<name>`. The artifacts are a by-product:
/// failing to write them is reported and does not fail the measurement.
pub fn write_out(name: &str, json: &Json) {
    let path = out_dir().join(name);
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, json.render() + "\n"));
    if let Err(e) = written {
        eprintln!("epic-benchmark: cannot write {}: {e}", path.display());
    }
}

/// `git rev-parse HEAD`, or "unknown" where there is no repository (the
/// benchmark driver's checkout is not one).
fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Everything a result file needs to be read on its own.
pub fn provenance(seed: u64, seconds: f64) -> Vec<(String, Json)> {
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            Json::Obj(vec![
                ("name".into(), Json::Str(w.name.into())),
                ("why".into(), Json::Str(w.why.into())),
                (
                    "cells".into(),
                    Json::Arr(w.cells.iter().map(config::Cell::describe).collect()),
                ),
            ])
        })
        .collect();
    vec![
        ("schema".into(), Json::Str("epic-benchmark-v1".into())),
        ("git_revision".into(), Json::Str(git_revision())),
        // A string: seeds above 2^53 would not survive as a JSON number.
        ("seed".into(), Json::Str(seed.to_string())),
        ("seconds".into(), Json::Num(seconds)),
        ("cpus".into(), Json::Num(cpus() as f64)),
        ("shared_config".into(), config::describe_shared()),
        ("workloads".into(), Json::Arr(workloads)),
    ]
}

/// Every workload untraced, then traced, in the order given.
pub fn run_set(order: &[&'static Workload], seed: u64, seconds: f64, probe: Probe) -> Vec<Report> {
    let mut reports = Vec::new();
    for w in order {
        for report in [
            run_untraced(w, seed, seconds, probe),
            run_traced(w, seed, seconds),
        ] {
            report.print();
            reports.push(report);
        }
    }
    reports
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

enum Cmd {
    One {
        workload: &'static Workload,
        traced: bool,
    },
    Run,
    Selfcheck,
}

struct Args {
    cmd: Cmd,
    seed: u64,
    seconds: f64,
    probe: Probe,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (sub, flags) = match args.first().map(String::as_str) {
        Some(s @ ("run" | "selfcheck")) => (Some(s), &args[1..]),
        _ => (None, args),
    };
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut probe = Probe::Sampled;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        if flag == "--no-sample" {
            probe = Probe::Off;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(config::workload(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let cmd = match (sub, workload, traced) {
        (Some("run"), None, None) => Cmd::Run,
        (Some("selfcheck"), None, None) => Cmd::Selfcheck,
        (None, Some(workload), Some(traced)) => Cmd::One { workload, traced },
        (None, ..) => return Err("--workload and --trace are required".into()),
        _ => return Err("--workload and --trace do not go with a subcommand".into()),
    };
    Ok(Args {
        cmd,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(RUN_SECONDS),
        probe,
    })
}

fn exit_code(all_correct: bool) -> u8 {
    u8::from(!all_correct)
}

fn main() -> ExitCode {
    // `--seed` is the only input: no `EPIC_*` knob may reach the layers.
    // Nothing else is running yet, so the environment is ours to edit.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("EPIC_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("epic-benchmark: {e}");
            eprintln!(
                "usage: epic-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            eprintln!(
                "       epic-benchmark run|selfcheck --seed <n> [--seconds <s>] [--no-sample]"
            );
            return ExitCode::from(2);
        }
    };
    if cpus() < config::THREADS {
        eprintln!(
            "epic-benchmark: {} client threads need as many CPUs, this machine has {}",
            config::THREADS,
            cpus()
        );
        return ExitCode::from(2);
    }
    match args.cmd {
        Cmd::One { workload, traced } => {
            let report = if traced {
                run_traced(workload, args.seed, args.seconds)
            } else {
                run_untraced(workload, args.seed, args.seconds, args.probe)
            };
            report.print();
            println!("{}", report.driver_line());
            ExitCode::from(exit_code(report.correct()))
        }
        Cmd::Run => {
            let order: Vec<&Workload> = WORKLOADS.iter().collect();
            let reports = run_set(&order, args.seed, args.seconds, args.probe);
            let mut doc = provenance(args.seed, args.seconds);
            doc.push((
                "results".into(),
                Json::Arr(reports.iter().map(Report::json).collect()),
            ));
            write_out("result.json", &Json::Obj(doc));
            ExitCode::from(exit_code(reports.iter().all(Report::correct)))
        }
        Cmd::Selfcheck => ExitCode::from(exit_code(selfcheck::run(args.seed, args.seconds))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_three_forms_and_rejects_the_rest() {
        let one = args("--workload ab-ibr-read --seed 7 --seconds 3 --trace 1").unwrap();
        assert!(
            matches!(one.cmd, Cmd::One { workload, traced: true } if workload.name == "ab-ibr-read")
        );
        assert_eq!((one.seed, one.seconds, one.probe), (7, 3.0, Probe::Sampled));
        let run = args("run --seed 1 --no-sample").unwrap();
        assert!(matches!(run.cmd, Cmd::Run));
        assert_eq!((run.seconds, run.probe), (RUN_SECONDS, Probe::Off));
        assert!(matches!(
            args("selfcheck --seed 1").unwrap().cmd,
            Cmd::Selfcheck
        ));
        for bad in [
            "",
            "run",
            "--workload nope --seed 1 --trace 0",
            "--workload ab-ibr-read --seed 1",
            "--workload ab-ibr-read --seed -1 --trace 0",
            "--workload ab-ibr-read --seed 1 --trace 2",
            "--workload ab-ibr-read --seed 1 --trace 0 --seconds 0",
            "run --seed 1 --workload ab-ibr-read --trace 0",
            "run --seed 1 --bogus 2",
            "run --seed",
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    /// `BENCHMARK.json` declares exactly what this program measures.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
        let declared: Vec<_> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let coded: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, coded);

        let declared: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let coded: Vec<_> = config::END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(declared, coded);

        // A short run of the multi-cell workload emits every name.
        let cells: Vec<config::Cell> = WORKLOADS[3]
            .cells
            .iter()
            .map(|c| config::Cell {
                ops_per_thread: 20_000,
                ..*c
            })
            .collect();
        let small: &'static Workload = Box::leak(Box::new(Workload {
            cells: Box::leak(cells.into_boxed_slice()),
            ..WORKLOADS[3]
        }));
        let untraced = run_untraced(small, 1, 0.01, Probe::Sampled);
        let emitted: Vec<_> = untraced
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        let coded: Vec<_> = config::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(emitted, coded);
        let probes = ProbeResults {
            clock_ns: 1.0,
            core: vec![[1.0; 3]; probes::CORE_CONFIGS.len()],
            run_trial_ratio: 1.0,
        };
        let reference = run_cells(small, 1, 0.01, Probe::Sampled);
        let traced = run_cells(small, 1, 0.01, Probe::Traced);
        let emitted: Vec<_> = report::per_layer(&reference, &traced, &probes)
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        let declared: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        assert_eq!(emitted, declared);
    }

    /// A failed op reaches the driver line and the exit code.
    #[test]
    fn a_failure_makes_the_command_exit_non_zero() {
        let mut report = Report {
            workload: &WORKLOADS[0],
            traced: false,
            attempted: 1000,
            failed: 0,
            failed_checks: Vec::new(),
            metrics: Vec::new(),
            notes: String::new(),
            residual_share: 0.0,
        };
        assert_eq!(exit_code(report.correct()), 0);
        report.failed = 1;
        assert!(report.failed_share() > 0.0);
        assert!(report
            .driver_line()
            .starts_with("{\"correct\": false, \"attempted\": 1000, \"failed\": 1,"));
        assert_ne!(exit_code(report.correct()), 0);
    }
}
