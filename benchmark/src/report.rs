//! Turns rounds into the metrics `BENCHMARK.json` names.
//!
//! Counts (`*.count`, `core.retired`, `allocsim.flushes`, …) are per round
//! — the mean over a cell's rounds, summed over the workload's cells —
//! because a round is a fixed number of ops while the number of rounds a
//! run fits into its seconds is not. Shares are over threads × wall of the
//! rounds they were measured in.

use crate::config::{Workload, FIELD_MIX_CELLS, THREADS};
use crate::driver::{CellRun, RoundOut};
use crate::hist::Hist;
use crate::probes::{CORE_CONFIGS, CORE_PROBES};
use crate::trace::{OpRecord, Span, ThreadTrace};
use epic_util::Json;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn median_of(rounds: &[RoundOut], f: impl Fn(&RoundOut) -> f64) -> f64 {
    median(&mut rounds.iter().map(f).collect::<Vec<_>>())
}

fn rounds(cells: &[CellRun]) -> impl Iterator<Item = &RoundOut> {
    cells.iter().flat_map(|c| c.rounds.iter())
}

/// Σ over cells of the mean over the cell's rounds.
fn per_round(cells: &[CellRun], f: impl Fn(&RoundOut) -> u64) -> f64 {
    cells
        .iter()
        .map(|c| c.rounds.iter().map(&f).sum::<u64>() as f64 / c.rounds.len() as f64)
        .sum()
}

fn total(cells: &[CellRun], f: impl Fn(&RoundOut) -> u64) -> f64 {
    rounds(cells).map(f).sum::<u64>() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Geometric mean of one figure per cell of the workload.
fn geomean(per_cell: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = per_cell.len() as f64;
    (per_cell.map(f64::ln).sum::<f64>() / n).exp()
}

/// The workload's throughput: the median round of each cell, and the
/// geometric mean of those over cells.
pub fn throughput_mops(cells: &[CellRun]) -> f64 {
    geomean(cells.iter().map(|c| median_of(&c.rounds, RoundOut::mops)))
}

/// Ops attempted, ops failed (mismatches + failed checks), and the failed
/// checks by name; the warm-up round counts like any other.
pub fn outcome(cells: &[CellRun]) -> (u64, u64, Vec<String>) {
    let mut attempted = 0;
    let mut failed = 0;
    let mut checks = Vec::new();
    for c in cells {
        for (i, r) in std::iter::once(&c.warmup).chain(&c.rounds).enumerate() {
            attempted += r.ops;
            failed += r.failed;
            for f in &r.check_failures {
                checks.push(format!("{} round {i}: {f}", c.cell.name));
            }
        }
    }
    (attempted, failed, checks)
}

/// What the sampled call latencies and the rounds of an untraced run say.
pub struct EndToEnd {
    /// The metrics `BENCHMARK.json` lists as end-to-end, in its order.
    pub metrics: Vec<Metric>,
    /// `op_p99_ns` and `op_p9999_ns`: printed with every run, but per-layer
    /// in `BENCHMARK.json` because they do not repeat within any bound it
    /// could fix (README.md, "Steadiness").
    pub tails: Vec<Metric>,
    /// Latency samples taken, and the fewest any cell has beyond its p9999.
    pub samples: u64,
    pub beyond_p9999: u64,
}

/// p50 and p95 are read per round (tens of thousands of samples each) and
/// the median round is reported, like throughput. The tail percentiles
/// need every sample a cell has and are read once from its merged rounds.
/// A multi-cell workload reports the geometric mean of its cells' figures:
/// a percentile of the merged cells would sit on the edge between two
/// cells' populations and jump with their mix.
pub fn end_to_end(cells: &[CellRun]) -> EndToEnd {
    let merged: Vec<Hist> = cells
        .iter()
        .map(|c| {
            let mut h = Hist::default();
            for r in &c.rounds {
                h.merge(&r.latency);
            }
            h
        })
        .collect();
    let median_round = |c: &CellRun, q: f64| median_of(&c.rounds, |r| r.latency.quantile(q));
    let per_round = |q: f64| geomean(cells.iter().map(|c| median_round(c, q)));
    let of_merged = |q: f64| geomean(merged.iter().map(|h| h.quantile(q)));
    let setup_s: f64 = cells
        .iter()
        .map(|c| median_of(&c.rounds, |r| r.setup_ns as f64 / 1e9))
        .sum();
    EndToEnd {
        metrics: vec![
            metric("throughput_mops", throughput_mops(cells), "Mops/s"),
            metric("op_p50_ns", per_round(0.5), "ns"),
            metric("op_p95_ns", per_round(0.95), "ns"),
            metric("setup_s", setup_s, "s"),
        ],
        tails: vec![
            metric("op_p99_ns", of_merged(0.99), "ns"),
            metric("op_p9999_ns", of_merged(0.9999), "ns"),
        ],
        samples: merged.iter().map(Hist::count).sum(),
        beyond_p9999: merged
            .iter()
            .map(|h| h.count_beyond(0.9999))
            .min()
            .unwrap_or(0),
    }
}

/// What the direct layer probes measured (see `probes.rs`).
pub struct ProbeResults {
    pub clock_ns: f64,
    /// `[guard, protect_load, retire_cycle]` per [`CORE_CONFIGS`] entry.
    pub core: Vec<[f64; 3]>,
    pub run_trial_ratio: f64,
}

/// The traced run's time budget, in ns summed over threads and rounds.
pub struct Budget {
    pub thread_wall_ns: f64,
    pub loop_ns: f64,
    pub self_ns: f64,
    pub alloc_ns: f64,
    pub dealloc_ns: f64,
    pub flush_ns: f64,
    pub lock_wait_ns: f64,
    pub residual_ns: f64,
}

impl Budget {
    pub fn of(traced: &[CellRun]) -> Budget {
        let traces = |f: fn(&ThreadTrace) -> u64| total(traced, |r| r.traces.iter().map(f).sum());
        let thread_wall_ns = total(traced, |r| r.wall_ns) * THREADS as f64;
        let thread_ns = total(traced, |r| r.thread_ns);
        let op_ns = traces(ThreadTrace::op_ns);
        let (alloc_ns, dealloc_ns) = (traces(|t| t.alloc_ns), traces(|t| t.dealloc_ns));
        Budget {
            thread_wall_ns,
            loop_ns: thread_ns - op_ns,
            self_ns: op_ns - alloc_ns - dealloc_ns,
            alloc_ns,
            dealloc_ns,
            flush_ns: total(traced, |r| r.alloc.flush_ns),
            lock_wait_ns: total(traced, |r| r.alloc.lock_wait_ns),
            residual_ns: thread_wall_ns - thread_ns,
        }
    }

    fn share(&self, ns: f64) -> f64 {
        ratio(ns, self.thread_wall_ns)
    }

    /// The budget as printed: every row a share of threads × wall.
    pub fn render(&self) -> String {
        let row = |name: &str, ns: f64| format!("  {name:<28}{:>7.2} %\n", 100.0 * self.share(ns));
        let mut s = String::from("time budget (share of threads x wall, traced rounds):\n");
        s += &row("bench.loop", self.loop_ns);
        s += &row("ds_core.self", self.self_ns);
        s += &row("allocsim.alloc", self.alloc_ns);
        s += &row("allocsim.dealloc", self.dealloc_ns);
        s += &row("  of which flush", self.flush_ns);
        s += &row("  of which lock wait", self.lock_wait_ns);
        s += &row("residual (thread not running)", self.residual_ns);
        s
    }
}

/// Histogram of span `s` over every thread and traced round.
fn span_hist(traced: &[CellRun], s: Span) -> Hist {
    let mut h = Hist::default();
    for t in rounds(traced).flat_map(|r| r.traces.iter()) {
        h.merge(&t.hist[s as usize]);
    }
    h
}

const OP_SPANS: [Span; 3] = [Span::Insert, Span::Remove, Span::Get];

/// `ds.<kind>` p50 / p99 of the kinds that occurred, as printed lines.
pub fn op_latency_notes(traced: &[CellRun]) -> String {
    OP_SPANS
        .iter()
        .map(|&s| (s, span_hist(traced, s)))
        .filter(|(_, h)| h.count() > 0)
        .map(|(s, h)| {
            let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
            format!("{:<44}p50 {p50:.1} ns, p99 {p99:.1} ns\n", s.name())
        })
        .collect()
}

/// Spans named `s` per round.
fn span_count(traced: &[CellRun], s: Span) -> f64 {
    per_round(traced, |r| {
        r.traces.iter().map(|t| t.hist[s as usize].count()).sum()
    })
}

/// Every per-layer metric, in `BENCHMARK.json` order. `reference` are the
/// untraced rounds of the same inputs the `traced` rounds ran.
pub fn per_layer(reference: &[CellRun], traced: &[CellRun], probes: &ProbeResults) -> Vec<Metric> {
    let budget = Budget::of(traced);
    let share = |name: &str, ns: f64| metric(name, budget.share(ns), "share");
    let count = |name: &str, f: fn(&RoundOut) -> u64| metric(name, per_round(traced, f), "count");
    let spans = |s: Span| {
        metric(
            format!("{}.count", s.name()),
            span_count(traced, s),
            "count",
        )
    };
    // A gauge: the median round of each cell, the largest over cells.
    let peak = |name: &str, unit, f: fn(&RoundOut) -> f64| {
        let of_cells = traced.iter().map(|c| median_of(&c.rounds, f));
        metric(name, of_cells.fold(0.0, f64::max), unit)
    };
    let quantile = |name: &str, h: &Hist, q: f64| metric(name, h.quantile(q), "ns");

    let mut m = end_to_end(reference).tails;
    let overhead = 1.0 - throughput_mops(traced) / throughput_mops(reference);
    m.extend([
        share("bench.loop_share", budget.loop_ns),
        metric("bench.trace_overhead", overhead, "share"),
        metric("bench.clock_ns", probes.clock_ns, "ns"),
    ]);

    // Latency over all three kinds: a workload without `get` has no
    // `ds.get` spans to take a percentile of (the trace file and the
    // printed notes have them per kind).
    let mut op = Hist::default();
    for s in OP_SPANS {
        op.merge(&span_hist(traced, s));
    }
    let hits = ratio(
        total(traced, |r| r.update_hits),
        total(traced, |r| r.updates),
    );
    let self_ns_per_op = ratio(budget.self_ns, total(traced, |r| r.ops));
    m.extend(OP_SPANS.map(spans));
    m.extend([
        quantile("ds.op.p50_ns", &op, 0.5),
        quantile("ds.op.p99_ns", &op, 0.99),
        metric("ds.update_hit_ratio", hits, "ratio"),
        share("ds_core.self_share", budget.self_ns),
        metric("ds_core.self_ns_per_op", self_ns_per_op, "ns"),
    ]);

    let freed = per_round(traced, |r| r.smr.freed);
    let batches = per_round(traced, |r| r.smr.batches);
    m.extend([
        count("core.retired", |r| r.smr.retired),
        metric("core.freed", freed, "count"),
        metric("core.batches", batches, "count"),
        metric("core.batch_mean_objs", ratio(freed, batches), "count"),
        count("core.epochs", |r| r.smr.epochs),
        count("core.scans", |r| r.smr.scans),
        count("core.restarts", |r| r.smr.restarts),
        peak("core.peak_garbage", "count", |r| r.smr.peak_garbage as f64),
        share("core.free_share", total(traced, |r| r.smr.free_ns)),
    ]);
    for ((config, _), values) in CORE_CONFIGS.iter().zip(&probes.core) {
        for (probe, &ns) in CORE_PROBES.iter().zip(values) {
            m.push(metric(format!("core.{probe}.{config}"), ns, "ns"));
        }
    }

    let alloc = span_hist(traced, Span::Alloc);
    let dealloc = span_hist(traced, Span::Dealloc);
    let cache_hits = ratio(
        total(traced, |r| r.alloc.cache_hits),
        total(traced, |r| r.alloc.allocs),
    );
    m.extend([
        spans(Span::Alloc),
        share("allocsim.alloc.share", budget.alloc_ns),
        quantile("allocsim.alloc.p50_ns", &alloc, 0.5),
        quantile("allocsim.alloc.p99_ns", &alloc, 0.99),
        spans(Span::Dealloc),
        share("allocsim.dealloc.share", budget.dealloc_ns),
        quantile("allocsim.dealloc.p50_ns", &dealloc, 0.5),
        quantile("allocsim.dealloc.p99_ns", &dealloc, 0.99),
        metric("allocsim.dealloc.max_ns", dealloc.max() as f64, "ns"),
        metric("allocsim.cache_hit_ratio", cache_hits, "ratio"),
        count("allocsim.refills", |r| r.alloc.refills),
        count("allocsim.flushes", |r| r.alloc.flushes),
        count("allocsim.flushed_objects", |r| r.alloc.flushed_objects),
        count("allocsim.remote_freed", |r| r.alloc.remote_freed),
        share("allocsim.flush_share", budget.flush_ns),
        share("allocsim.lock_wait_share", budget.lock_wait_ns),
        count("allocsim.lock_contended", |r| r.alloc.lock_contended),
        peak("allocsim.peak_mib", "MiB", |r| {
            r.peak_bytes as f64 / (1 << 20) as f64
        }),
        metric("harness.run_trial_ratio", probes.run_trial_ratio, "ratio"),
    ]);

    // One line per `field-mix` cell, from the untraced reference rounds; 0
    // on the workloads that do not run the cell.
    for cell in &FIELD_MIX_CELLS {
        let ran = reference.iter().find(|c| c.cell.name == cell.name);
        let mops = ran.map_or(0.0, |c| median_of(&c.rounds, RoundOut::mops));
        m.push(metric(format!("cell.{}.mops", cell.name), mops, "Mops/s"));
    }
    m
}

fn record_json(r: &OpRecord) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    Json::Obj(vec![
        // Hex: ids use the high bits and would lose them as an f64.
        ("op_id".into(), Json::Str(format!("{:#x}", r.op_id))),
        ("name".into(), Json::Str(r.name.name().into())),
        ("start_ns".into(), num(r.start_ns)),
        ("end_ns".into(), num(r.end_ns)),
        ("child_ns".into(), num(r.child_ns)),
        ("children_dropped".into(), num(r.children_dropped)),
        (
            "children".into(),
            Json::Arr(
                r.children
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(c.name.name().into())),
                            ("start_ns".into(), num(c.start_ns)),
                            ("end_ns".into(), num(c.end_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The trace file: per span name a histogram, and per thread the sampled
/// and the slowest op records. Consumes the traces of `traced`.
pub fn trace_json(workload: &Workload, seed: u64, traced: &mut [CellRun]) -> Json {
    let hists = Span::ALL
        .iter()
        .map(|&s| {
            let h = span_hist(traced, s);
            let buckets = h
                .nonzero()
                .into_iter()
                .map(|(lo, n)| Json::Arr(vec![Json::Num(lo as f64), Json::Num(n as f64)]))
                .collect();
            (
                s.name().to_string(),
                Json::Obj(vec![
                    ("count".into(), Json::Num(h.count() as f64)),
                    ("sum_ns".into(), Json::Num(h.sum() as f64)),
                    ("max_ns".into(), Json::Num(h.max() as f64)),
                    ("buckets_lower_ns_count".into(), Json::Arr(buckets)),
                ]),
            )
        })
        .collect();

    let mut threads = Vec::new();
    for cell in traced.iter_mut() {
        let mut merged: Vec<ThreadTrace> = (0..THREADS).map(|_| ThreadTrace::default()).collect();
        for round in cell.rounds.iter_mut() {
            for (tid, t) in round.traces.drain(..).enumerate() {
                merged[tid].merge(t);
            }
        }
        for (tid, t) in merged.iter().enumerate() {
            threads.push(Json::Obj(vec![
                ("cell".into(), Json::Str(cell.cell.name.into())),
                ("tid".into(), Json::Num(tid as f64)),
                (
                    "sampled_one_in_4096".into(),
                    Json::Arr(t.sampled.iter().map(record_json).collect()),
                ),
                (
                    "slowest".into(),
                    Json::Arr(t.slowest().iter().map(record_json).collect()),
                ),
            ]));
        }
    }
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.name.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("spans".into(), Json::Obj(hists)),
        ("threads".into(), Json::Arr(threads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
