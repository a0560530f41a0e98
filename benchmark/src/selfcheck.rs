//! `selfcheck`: is the benchmark steady enough to carry its own bounds?
//!
//! Runs the full set (every workload untraced, then traced) twice on the
//! same code and seed, the second time in reverse workload order, and
//! reports for every workload × end-to-end metric whether the two readings
//! agree within the metric's bound, plus whether each workload does what
//! `README.md` says it does. A metric that cannot agree does not get a
//! wider bound here: it is moved to the per-layer list, with this output
//! as the evidence.

use crate::config::{Workload, END_TO_END, WORKLOADS};
use crate::driver::Probe;
use crate::{provenance, run_set, write_out, Report};
use epic_util::Json;

struct Check {
    what: String,
    detail: String,
    ok: bool,
}

fn find<'a>(set: &'a [Report], workload: &str, traced: bool) -> &'a Report {
    set.iter()
        .find(|r| r.workload.name == workload && r.traced == traced)
        .expect("run_set reports every workload both ways")
}

/// Runs both sets, prints and writes the verdicts; true if all hold.
pub fn run(seed: u64, seconds: f64) -> bool {
    let forward: Vec<&Workload> = WORKLOADS.iter().collect();
    let backward: Vec<&Workload> = WORKLOADS.iter().rev().collect();
    let sets = [
        run_set(&forward, seed, seconds, Probe::Sampled),
        run_set(&backward, seed, seconds, Probe::Sampled),
    ];

    let mut checks = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let [a, b] = [0, 1].map(|i| find(&sets[i], w.name, false).get(m.name));
            let spread = a.max(b) / a.min(b) - 1.0;
            checks.push(Check {
                what: format!(
                    "{} {} agrees within {:.0} %",
                    w.name,
                    m.name,
                    100.0 * m.bound
                ),
                detail: format!(
                    "{a:.4} vs {b:.4} {}, {} is better ({:.1} % apart)",
                    m.unit,
                    m.better,
                    100.0 * spread
                ),
                ok: spread <= m.bound,
            });
        }
    }
    for (i, set) in sets.iter().enumerate() {
        let n = i + 1;
        for r in set {
            let kind = if r.traced { "traced" } else { "untraced" };
            checks.push(Check {
                what: format!("set {n} {} {kind}: no failed op or check", r.workload.name),
                detail: format!("{} of {}", r.failed, r.attempted),
                ok: r.failed == 0,
            });
            if r.traced {
                checks.push(Check {
                    what: format!("set {n} {}: time budget residual <= 5 %", r.workload.name),
                    detail: format!("{:.2} %", 100.0 * r.residual_share),
                    ok: r.residual_share <= 0.05,
                });
            }
        }
        let flush = |w| find(set, w, true).get("allocsim.flush_share");
        let mops = |w| find(set, w, false).get("throughput_mops");
        let batch_flush = flush("ab-debra-batch");
        checks.push(Check {
            what: format!("set {n} ab-debra-batch: allocsim.flush_share >= 0.20"),
            detail: format!("{batch_flush:.3}"),
            ok: batch_flush >= 0.20,
        });
        for w in ["ab-debra-af", "ab-ibr-read"] {
            checks.push(Check {
                what: format!("set {n} {w}: allocsim.flush_share <= 0.01"),
                detail: format!("{:.4}", flush(w)),
                ok: flush(w) <= 0.01,
            });
        }
        let (af, batch) = (mops("ab-debra-af"), mops("ab-debra-batch"));
        checks.push(Check {
            what: format!("set {n}: ab-debra-af throughput >= 1.5x ab-debra-batch"),
            detail: format!("{af:.3} vs {batch:.3} Mops/s ({:.2}x)", af / batch),
            ok: af >= 1.5 * batch,
        });
    }
    let [a, b] = [0, 1].map(|i| find(&sets[i], "ab-debra-batch", true).get("allocsim.flushes"));
    checks.push(Check {
        what: "ab-debra-batch allocsim.flushes per round repeats within 1 %".into(),
        detail: format!("{a:.1} vs {b:.1}"),
        ok: (a - b).abs() <= 0.01 * a.min(b),
    });

    println!("== selfcheck ==");
    for c in &checks {
        println!(
            "{} {:<68} {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.what,
            c.detail
        );
    }
    let all_ok = checks.iter().all(|c| c.ok);
    println!(
        "selfcheck: {}",
        if all_ok {
            "all hold"
        } else {
            "some do not hold"
        }
    );

    let mut doc = provenance(seed, seconds);
    let verdicts = checks
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("check".into(), Json::Str(c.what.clone())),
                ("detail".into(), Json::Str(c.detail.clone())),
                ("ok".into(), Json::Bool(c.ok)),
            ])
        })
        .collect();
    doc.push(("checks".into(), Json::Arr(verdicts)));
    for (i, set) in sets.iter().enumerate() {
        let results = set.iter().map(Report::json).collect();
        doc.push((format!("set_{}", i + 1), Json::Arr(results)));
    }
    write_out("selfcheck.json", &Json::Obj(doc));
    all_ok
}
