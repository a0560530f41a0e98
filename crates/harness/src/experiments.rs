//! The experiment registry: one function per paper table/figure (plus the
//! ablations DESIGN.md §5 calls out). Each function prints the same
//! rows/series the paper reports, writes CSV/SVG artifacts under
//! [`crate::results_dir`], and returns a structured [`ExperimentResult`]
//! (named scalar metrics + named series) that the oracle layer
//! ([`crate::oracle`]) checks against the paper's shapes.
//!
//! Metric-name conventions (stable keys — oracles depend on them):
//! `mops/...` throughputs in Mops/s, `pct_*` percentages,
//! `af_ratio/<x>` AF-over-ORIG throughput ratios, `rows/<table id>`
//! grid-completeness counts from [`Table::emit_into`],
//! `timeline/<label>/batchfree_*` captured render statistics, and
//! `garbage/<label>/*` per-epoch garbage-series statistics.

use crate::config::{ExperimentScale, WorkloadCfg};
use crate::report::{fmt_count, fmt_mops, results_dir, ExperimentResult, Table};
use crate::workload::{run_trial, run_trials};

use epic_alloc::{AllocatorKind, MachinePreset};
use epic_ds::TreeKind;
use epic_smr::{FreeMode, SmrKind};
use epic_timeline::{
    event_stats, render_ascii, render_svg, visible_events, EventKind, RenderOptions,
};

/// The Experiment-1 field (Fig. 11a / Fig. 14): the paper's ten schemes
/// plus the two headline AF variants plus the leaky baseline.
fn experiment1_field() -> Vec<(SmrKind, FreeMode)> {
    let mut field = vec![
        (SmrKind::TokenPeriodic, FreeMode::amortized()),
        (SmrKind::Debra, FreeMode::amortized()),
    ];
    for kind in SmrKind::EXPERIMENT2 {
        field.push((kind, FreeMode::Batch));
    }
    field.push((SmrKind::None, FreeMode::Batch));
    field
}

/// Writes the SVG/CSV artifacts and the terminal preview for a recorded
/// timeline, and captures what the render *shows* (batch-free box count
/// and durations) as `timeline/<label>/batchfree_*` metrics. Returns
/// those batch-free stats so callers needing them don't rescan the
/// recorder (`None` when no timeline was recorded).
fn save_timeline(
    result: &crate::TrialResult,
    out: &mut ExperimentResult,
    id: &str,
    label: &str,
    min_duration_ns: u64,
) -> Option<epic_timeline::EventStats> {
    let rec = result.recorder.as_ref()?;
    let opts = RenderOptions {
        title: format!("{id} {label} ({} threads)", result.scheme),
        min_duration_ns,
        ..Default::default()
    };
    let dir = results_dir();
    let _ = std::fs::write(
        dir.join(format!("{id}_{label}.svg")),
        render_svg(rec, &opts),
    );
    let _ = rec.write_csv(&dir.join(format!("{id}_{label}.csv")));
    let bf = event_stats(rec, EventKind::BatchFree, min_duration_ns);
    out.metric(format!("timeline/{label}/batchfree_count"), bf.count as f64);
    out.metric(
        format!("timeline/{label}/batchfree_total_ns"),
        bf.total_ns as f64,
    );
    out.metric(
        format!("timeline/{label}/batchfree_mean_ns"),
        bf.mean_ns as f64,
    );
    out.metric(
        format!("timeline/{label}/batchfree_max_ns"),
        bf.max_ns as f64,
    );
    // Terminal preview: a compact ASCII cut.
    let ascii = render_ascii(
        rec,
        &RenderOptions {
            width: 100,
            max_rows: 8,
            min_duration_ns,
            ..Default::default()
        },
    );
    println!("timeline {id}/{label}:\n{ascii}");
    Some(bf)
}

/// Writes the garbage-per-epoch CSV/sparkline and captures the series
/// shape (`garbage/<label>/{epochs,mean,max,peaks}` + the y values).
fn save_garbage_series(
    result: &crate::TrialResult,
    out: &mut ExperimentResult,
    id: &str,
    label: &str,
) {
    let Some(series) = &result.garbage else {
        return;
    };
    let _ = series.write_csv(&results_dir().join(format!("{id}_{label}_garbage.csv")));
    println!(
        "garbage/epoch {id}/{label}: {} epochs, mean {:.0}, max {:.0}, peaks {}  {}",
        series.len(),
        series.mean_y(),
        series.max_y(),
        series.peak_count(),
        series.sparkline(60)
    );
    out.metric(format!("garbage/{label}/epochs"), series.len() as f64);
    out.metric(format!("garbage/{label}/mean"), series.mean_y());
    out.metric(format!("garbage/{label}/max"), series.max_y());
    out.metric(format!("garbage/{label}/peaks"), series.peak_count() as f64);
    out.set_series(format!("garbage/{label}"), series.sorted_ys());
}

/// Fig. 1a–d: throughput and peak memory for OCCtree vs ABtree, DEBRA vs
/// leaking, across the thread sweep (jemalloc model).
pub fn fig1_scaling() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("fig1_scaling");
    let mut t = Table::new(
        "fig1_scaling",
        "Fig.1: OCCtree vs ABtree, DEBRA vs leak — throughput + peak memory (Je)",
        &["tree", "smr", "threads", "Mops/s", "min", "max", "peak MiB"],
    );
    for tree in [TreeKind::Occ, TreeKind::Ab] {
        for smr in [SmrKind::Debra, SmrKind::None] {
            for &n in &scale.sweep {
                let cfg = WorkloadCfg::new(tree, smr, n);
                let s = run_trials(&cfg, scale.trials);
                let key = format!("{}/{}", tree.name(), s.scheme);
                out.push(format!("mops_by_threads/{key}"), s.throughput.mean() / 1e6);
                out.push(format!("peak_mib_by_threads/{key}"), s.peak_mib.mean());
                if n == scale.max_threads {
                    out.metric(format!("mops/{key}/max_t"), s.throughput.mean() / 1e6);
                    out.metric(format!("peak_mib/{key}/max_t"), s.peak_mib.mean());
                    out.metric(format!("rel_ci95/{key}"), s.throughput_rel_ci95());
                }
                t.row(vec![
                    tree.name().into(),
                    s.scheme.clone(),
                    n.to_string(),
                    fmt_mops(s.throughput.mean()),
                    fmt_mops(s.throughput.min()),
                    fmt_mops(s.throughput.max()),
                    format!("{:.1}", s.peak_mib.mean()),
                ]);
            }
        }
    }
    t.emit_into(&mut out);
    println!(
        "paper shape: ABtree+debra flattens at high thread counts while OCCtree keeps scaling; \
         leaking closes the gap but explodes ABtree memory.\n"
    );
    out
}

/// Table 1: jemalloc free overhead (ops/s, epochs, %free, %flush, %lock)
/// as thread count grows. ABtree + DEBRA batch.
pub fn table1_je_overhead() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("table1_je_overhead");
    let mut t = Table::new(
        "table1_je_overhead",
        "Table 1: JEmalloc free overhead vs threads (ABtree, DEBRA batch)",
        &["threads", "ops/s", "epochs", "% free", "% flush", "% lock"],
    );
    let mut points = vec![1, scale.mid_threads, scale.max_threads];
    points.dedup();
    let last = *points.last().unwrap();
    for n in points {
        let cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n);
        let r = run_trial(&cfg);
        out.push("pct_free_by_threads", r.pct_free(n));
        out.push("pct_flush_by_threads", r.pct_flush(n));
        out.push("pct_lock_by_threads", r.pct_lock(n));
        out.push("epochs_by_threads", r.smr.epochs as f64);
        let label = if n == 1 {
            Some("min_t")
        } else if n == last {
            Some("max_t")
        } else {
            None
        };
        if let Some(label) = label {
            out.metric(format!("pct_free/{label}"), r.pct_free(n));
            out.metric(format!("pct_flush/{label}"), r.pct_flush(n));
            out.metric(format!("pct_lock/{label}"), r.pct_lock(n));
            out.metric(format!("epochs/{label}"), r.smr.epochs as f64);
            out.metric(format!("mops/{label}"), r.throughput / 1e6);
        }
        t.row(vec![
            n.to_string(),
            fmt_mops(r.throughput),
            r.smr.epochs.to_string(),
            format!("{:.1}", r.pct_free(n)),
            format!("{:.1}", r.pct_flush(n)),
            format!("{:.1}", r.pct_lock(n)),
        ]);
    }
    t.emit_into(&mut out);
    println!(
        "paper shape: %free/%flush/%lock all rise steeply with threads while epoch count \
         collapses (48t: 11.5/9.9/4.9 -> 192t: 59.5/58.8/39.8).\n"
    );
    out
}

/// Fig. 2: timeline graphs of batch frees at moderate vs maximum thread
/// counts.
pub fn fig2_timeline_batch() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("fig2_timeline_batch");
    for (label, n) in [("mid", scale.mid_threads), ("max", scale.max_threads)] {
        let cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n).with_timeline();
        let r = run_trial(&cfg);
        let bf = save_timeline(&r, &mut out, "fig2", label, 0).unwrap_or_default();
        println!(
            "fig2/{label}: {n} threads, {} batch-free events, mean {:.2} ms, max {:.2} ms",
            bf.count,
            bf.mean_ns as f64 / 1e6,
            bf.max_ns as f64 / 1e6
        );
    }
    println!("paper shape: reclamation events are disproportionately longer at the higher thread count.\n");
    out
}

/// Fig. 3: timelines of *individual free calls*, batch vs amortized.
pub fn fig3_timeline_af() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("fig3_timeline_af");
    let n = scale.max_threads;
    for (label, amortize) in [("batch", false), ("amortized", true)] {
        let mut cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n).with_free_calls(10_000);
        if amortize {
            cfg = cfg.amortized();
        }
        let r = run_trial(&cfg);
        let rec = r.recorder.as_ref().unwrap();
        let long_calls = visible_events(rec, EventKind::FreeCall, 100_000);
        out.metric(format!("visible/{label}"), long_calls.len() as f64);
        out.metric(format!("free_p50_ns/{label}"), r.smr.free_p50_ns as f64);
        out.metric(format!("free_p99_ns/{label}"), r.smr.free_p99_ns as f64);
        out.metric(format!("free_max_ns/{label}"), r.smr.free_max_ns as f64);
        println!(
            "fig3/{label}: {} free calls ≥ 0.1 ms recorded (scheme {}); latency p50 {} ns, \
             p99 {} ns, max {:.2} ms",
            long_calls.len(),
            r.scheme,
            r.smr.free_p50_ns,
            r.smr.free_p99_ns,
            r.smr.free_max_ns as f64 / 1e6,
        );
        save_timeline(&r, &mut out, "fig3", label, 10_000);
    }
    println!(
        "paper shape: batch free shows many more high-latency free calls than amortized free.\n"
    );
    out
}

/// Table 2: amortized vs batch free — ops/s, objects freed, %free, %flush,
/// %lock at max threads (ABtree, DEBRA, Je).
pub fn table2_af_counters() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("table2_af_counters");
    let n = scale.max_threads;
    let mut t = Table::new(
        "table2_af_counters",
        "Table 2: amortized vs batch free (ABtree, DEBRA, Je, max threads)",
        &[
            "approach",
            "ops/s",
            "freed",
            "% free",
            "% flush",
            "% lock",
            "pipe allocs",
        ],
    );
    for (label, key, amortize) in [("JE batch", "batch", false), ("JE amort.", "af", true)] {
        let mut cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n);
        if amortize {
            cfg = cfg.amortized();
        }
        let r = run_trial(&cfg);
        out.metric(format!("mops/{key}"), r.throughput / 1e6);
        out.metric(format!("freed/{key}"), r.smr.freed as f64);
        out.metric(format!("pct_free/{key}"), r.pct_free(n));
        out.metric(format!("pct_flush/{key}"), r.pct_flush(n));
        out.metric(format!("pct_lock/{key}"), r.pct_lock(n));
        out.metric(
            format!("pipe_allocs/{key}"),
            r.smr.retire_path_allocs as f64,
        );
        t.row(vec![
            label.into(),
            fmt_mops(r.throughput),
            fmt_count(r.smr.freed),
            format!("{:.1}", r.pct_free(n)),
            format!("{:.1}", r.pct_flush(n)),
            format!("{:.1}", r.pct_lock(n)),
            // Heap allocations the retire pipeline performed on itself —
            // measurement overhead, 0 in steady state by design.
            fmt_count(r.smr.retire_path_allocs),
        ]);
    }
    t.emit_into(&mut out);
    println!(
        "paper shape: amortized frees MORE objects in LESS time (43.4M->111.3M ops/s, \
         %lock 39.8->5.5).\n"
    );
    out
}

/// Fig. 4: garbage per epoch, batch vs amortized (smoothing effect).
pub fn fig4_garbage() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("fig4_garbage");
    let n = scale.max_threads;
    for (label, amortize) in [("batch", false), ("amortized", true)] {
        let mut cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n).with_garbage_series();
        if amortize {
            cfg = cfg.amortized();
        }
        let r = run_trial(&cfg);
        save_garbage_series(&r, &mut out, "fig4", label);
    }
    println!(
        "paper shape: amortized freeing has far fewer peaks with only slightly higher mean garbage.\n"
    );
    out
}

/// Table 3: the three allocator models × batch/amortized (DEBRA, ABtree).
pub fn table3_allocators() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("table3_allocators");
    let n = scale.max_threads;
    let mut t = Table::new(
        "table3_allocators",
        "Table 3: JE/TC/MI x batch/amortized (ABtree, DEBRA, max threads)",
        &["approach", "ops/s", "freed", "% free", "remote frees"],
    );
    for alloc in AllocatorKind::ALL {
        let mut batch_mops = 0.0f64;
        for (mode_label, key, amortize) in [("batch", "batch", false), ("amort.", "af", true)] {
            let mut cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n).with_alloc(alloc);
            if amortize {
                cfg = cfg.amortized();
            }
            let r = run_trial(&cfg);
            let mops = r.throughput / 1e6;
            out.metric(format!("mops/{}/{key}", alloc.name()), mops);
            out.metric(format!("freed/{}/{key}", alloc.name()), r.smr.freed as f64);
            out.metric(format!("pct_free/{}/{key}", alloc.name()), r.pct_free(n));
            if amortize {
                out.metric(
                    format!("af_ratio/{}", alloc.name()),
                    mops / batch_mops.max(1e-9),
                );
            } else {
                batch_mops = mops;
            }
            t.row(vec![
                format!("{} {}", alloc.name().to_uppercase(), mode_label),
                fmt_mops(r.throughput),
                fmt_count(r.smr.freed),
                format!("{:.1}", r.pct_free(n)),
                fmt_count(r.alloc.totals.remote_freed),
            ]);
        }
    }
    t.emit_into(&mut out);
    println!(
        "paper shape: AF speeds up JE (2.6x) and TC (3.25x) but NOT MI (slightly worse) — \
         per-page free lists sidestep the RBF problem.\n"
    );
    out
}

fn token_figure(
    id: &str,
    kind: SmrKind,
    mode: FreeMode,
    with_perf_table: bool,
) -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new(id);
    let n = scale.max_threads;
    // Timeline + garbage at max threads.
    let cfg = WorkloadCfg::new(TreeKind::Ab, kind, n)
        .with_mode(mode)
        .with_timeline()
        .with_garbage_series();
    let r = run_trial(&cfg);
    out.metric("mops", r.throughput / 1e6);
    out.metric("freed", r.smr.freed as f64);
    out.metric("retired", r.smr.retired as f64);
    out.metric("epochs", r.smr.epochs as f64);
    out.metric("peak_garbage", r.smr.peak_garbage as f64);
    out.metric("final_garbage", r.smr.garbage as f64);
    println!(
        "{id}: scheme {} -> {:.1}M ops/s, freed {}, garbage peak {}",
        r.scheme,
        r.throughput / 1e6,
        fmt_count(r.smr.freed),
        fmt_count(r.smr.peak_garbage)
    );
    save_timeline(&r, &mut out, id, "timeline", 0);
    save_garbage_series(&r, &mut out, id, "series");

    if with_perf_table {
        let mut t = Table::new(
            &format!("{id}_perf"),
            "performance + peak memory across threads",
            &["threads", "Mops/s", "peak MiB"],
        );
        for &threads in &scale.sweep {
            let cfg = WorkloadCfg::new(TreeKind::Ab, kind, threads).with_mode(mode);
            let s = run_trials(&cfg, scale.trials);
            out.push("mops_by_threads", s.throughput.mean() / 1e6);
            out.push("peak_mib_by_threads", s.peak_mib.mean());
            if threads == scale.max_threads {
                out.metric("mops/max_t", s.throughput.mean() / 1e6);
                out.metric("peak_mib/max_t", s.peak_mib.mean());
            }
            t.row(vec![
                threads.to_string(),
                fmt_mops(s.throughput.mean()),
                format!("{:.1}", s.peak_mib.mean()),
            ]);
        }
        t.emit_into(&mut out);
    }
    out
}

/// Fig. 5 + Fig. 6: Naive Token-EBR — perf/memory sweep, timeline, garbage
/// pile-up.
pub fn fig5_6_naive_token() -> ExperimentResult {
    let out = token_figure(
        "fig5_6_naive_token",
        SmrKind::TokenNaive,
        FreeMode::Batch,
        true,
    );
    println!("paper shape: high apparent throughput but terrible reclamation (garbage pile-up; serialized frees).\n");
    out
}

/// Fig. 7: Pass-first Token-EBR.
pub fn fig7_passfirst() -> ExperimentResult {
    let out = token_figure(
        "fig7_passfirst",
        SmrKind::TokenPassFirst,
        FreeMode::Batch,
        false,
    );
    println!("paper shape: concurrent freeing now, but batch lengths still grow over time.\n");
    out
}

/// Fig. 8: Periodic Token-EBR.
pub fn fig8_periodic() -> ExperimentResult {
    let out = token_figure(
        "fig8_periodic",
        SmrKind::TokenPeriodic,
        FreeMode::Batch,
        false,
    );
    println!("paper shape: lower peak memory than pass-first, but long free calls still stall the token.\n");
    out
}

/// Fig. 9 + Fig. 10: Amortized-free Token-EBR.
pub fn fig9_10_token_af() -> ExperimentResult {
    let out = token_figure(
        "fig9_10_token_af",
        SmrKind::TokenPeriodic,
        FreeMode::amortized(),
        true,
    );
    println!("paper shape: garbage pile-up gone, epoch count way up, best perf + memory of the variants.\n");
    out
}

/// Table 4: the four Token-EBR variants (ops/s, %free, freed).
pub fn table4_token_variants() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("table4_token_variants");
    let n = scale.max_threads;
    let mut t = Table::new(
        "table4_token_variants",
        "Table 4: Token-EBR variants (ABtree, Je, max threads)",
        &["algorithm", "ops/s", "% free", "freed", "epochs"],
    );
    let variants: [(&str, &str, SmrKind, FreeMode); 4] = [
        ("Naive", "naive", SmrKind::TokenNaive, FreeMode::Batch),
        (
            "Pass-first",
            "passfirst",
            SmrKind::TokenPassFirst,
            FreeMode::Batch,
        ),
        (
            "Periodic",
            "periodic",
            SmrKind::TokenPeriodic,
            FreeMode::Batch,
        ),
        (
            "Amortized",
            "amortized",
            SmrKind::TokenPeriodic,
            FreeMode::amortized(),
        ),
    ];
    for (label, key, kind, mode) in variants {
        let cfg = WorkloadCfg::new(TreeKind::Ab, kind, n).with_mode(mode);
        let r = run_trial(&cfg);
        out.metric(format!("mops/{key}"), r.throughput / 1e6);
        out.metric(format!("pct_free/{key}"), r.pct_free(n));
        out.metric(format!("freed/{key}"), r.smr.freed as f64);
        out.metric(format!("retired/{key}"), r.smr.retired as f64);
        out.metric(format!("epochs/{key}"), r.smr.epochs as f64);
        t.row(vec![
            label.into(),
            fmt_mops(r.throughput),
            format!("{:.1}", r.pct_free(n)),
            fmt_count(r.smr.freed),
            r.smr.epochs.to_string(),
        ]);
    }
    t.emit_into(&mut out);
    println!(
        "paper shape: Naive frees almost nothing; Pass-first/Periodic free lots but slowly; \
         Amortized frees the most AND is fastest (73.7/52.4/54.4/123.7 Mops in the paper).\n"
    );
    out
}

fn experiment1_table(id: &str, title: &str, tree: TreeKind) -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new(id);
    let mut t = Table::new(id, title, &["scheme", "threads", "Mops/s", "min", "max"]);
    for (kind, mode) in experiment1_field() {
        for &n in &scale.sweep {
            let cfg = WorkloadCfg::new(tree, kind, n).with_mode(mode);
            let s = run_trials(&cfg, scale.trials);
            out.push(
                format!("mops_by_threads/{}", s.scheme),
                s.throughput.mean() / 1e6,
            );
            if n == scale.max_threads {
                out.metric(
                    format!("mops/{}/max_t", s.scheme),
                    s.throughput.mean() / 1e6,
                );
                out.metric(format!("rel_ci95/{}", s.scheme), s.throughput_rel_ci95());
            }
            t.row(vec![
                s.scheme.clone(),
                n.to_string(),
                fmt_mops(s.throughput.mean()),
                fmt_mops(s.throughput.min()),
                fmt_mops(s.throughput.max()),
            ]);
        }
    }
    t.emit_into(&mut out);
    out
}

/// Fig. 11a (Experiment 1): token_af and debra_af vs the whole field
/// across threads, ABtree.
pub fn fig11a_experiment1() -> ExperimentResult {
    let out = experiment1_table(
        "fig11a_experiment1",
        "Fig.11a/Exp.1: token_af + debra_af vs the field (ABtree, Je)",
        TreeKind::Ab,
    );
    println!(
        "paper shape: token_af on top (~1.7x next best nbr+; 7-9x hp/he) and both AF schemes \
         beat the leaky baseline.\n"
    );
    out
}

fn orig_vs_af_table(id: &str, title: &str, tree: TreeKind, sweep: bool) -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new(id);
    let threads: Vec<usize> = if sweep {
        scale.sweep.clone()
    } else {
        vec![scale.max_threads]
    };
    let last = *threads.last().unwrap();
    let mut t = Table::new(
        id,
        title,
        &["scheme", "threads", "ORIG Mops/s", "AF Mops/s", "AF/ORIG"],
    );
    for kind in SmrKind::EXPERIMENT2 {
        for &n in &threads {
            let orig = run_trials(&WorkloadCfg::new(tree, kind, n), scale.trials);
            let af = run_trials(&WorkloadCfg::new(tree, kind, n).amortized(), scale.trials);
            let ratio = af.throughput.mean() / orig.throughput.mean().max(1.0);
            let name = kind.base_name();
            if sweep {
                out.push(
                    format!("orig_by_threads/{name}"),
                    orig.throughput.mean() / 1e6,
                );
                out.push(format!("af_by_threads/{name}"), af.throughput.mean() / 1e6);
                out.push(format!("af_ratio_by_threads/{name}"), ratio);
            }
            if n == last {
                out.metric(format!("orig_mops/{name}"), orig.throughput.mean() / 1e6);
                out.metric(format!("af_mops/{name}"), af.throughput.mean() / 1e6);
                out.metric(format!("af_ratio/{name}"), ratio);
                out.metric(
                    format!("rel_ci95/{name}"),
                    orig.throughput_rel_ci95().max(af.throughput_rel_ci95()),
                );
                out.push("af_ratio_field", ratio);
            }
            t.row(vec![
                name.into(),
                n.to_string(),
                fmt_mops(orig.throughput.mean()),
                fmt_mops(af.throughput.mean()),
                format!("{ratio:.2}x"),
            ]);
        }
    }
    t.emit_into(&mut out);
    out
}

/// Fig. 11b (Experiment 2): ORIG vs AF for all ten schemes at max threads.
pub fn fig11b_experiment2() -> ExperimentResult {
    let out = orig_vs_af_table(
        "fig11b_experiment2",
        "Fig.11b/Exp.2: ORIG vs AF per scheme (ABtree, Je, max threads)",
        TreeKind::Ab,
        false,
    );
    println!(
        "paper shape: AF wins for 9/10 schemes (up to 2.3x); he does not improve, hp/wfe only \
         ~1.2x (their per-read sync dominates).\n"
    );
    out
}

/// Fig. 12 (Appendix C): ORIG vs AF across the thread sweep, ABtree.
pub fn fig12_orig_vs_af_sweep() -> ExperimentResult {
    orig_vs_af_table(
        "fig12_orig_vs_af_sweep",
        "Fig.12/App.C: ORIG vs AF across threads (ABtree, Je)",
        TreeKind::Ab,
        true,
    )
}

/// Fig. 13 (Appendix D): ORIG vs AF across the thread sweep, DGT tree
/// (deletes free TWO nodes, so AF drains two per op — the §7 tuning).
pub fn fig13_dgt_orig_vs_af() -> ExperimentResult {
    orig_vs_af_table(
        "fig13_dgt_orig_vs_af",
        "Fig.13/App.D: ORIG vs AF across threads (DGT tree, Je)",
        TreeKind::Dgt,
        true,
    )
}

/// Fig. 14 (Appendix D): Experiment 1 on the DGT tree.
pub fn fig14_dgt_experiment1() -> ExperimentResult {
    experiment1_table(
        "fig14_dgt_experiment1",
        "Fig.14/App.D: token_af vs the field (DGT tree, Je)",
        TreeKind::Dgt,
    )
}

/// Fig. 15/16 (Appendix E): machine presets — re-run the headline
/// comparison with the cost-model parameters of the paper's other
/// testbeds.
pub fn fig15_16_machine_presets() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("fig15_16_machine_presets");
    let n = scale.max_threads;
    let mut t = Table::new(
        "fig15_16_machine_presets",
        "Fig.15/16/App.E: machine presets (ABtree, max threads)",
        &["machine", "scheme", "Mops/s", "% lock"],
    );
    for preset in [
        MachinePreset::Intel4x192,
        MachinePreset::Intel4x144,
        MachinePreset::Amd2x256,
    ] {
        for (kind, mode) in [
            (SmrKind::TokenPeriodic, FreeMode::amortized()),
            (SmrKind::Debra, FreeMode::amortized()),
            (SmrKind::Debra, FreeMode::Batch),
            (SmrKind::None, FreeMode::Batch),
        ] {
            let mut cfg = WorkloadCfg::new(TreeKind::Ab, kind, n).with_mode(mode);
            cfg.cost = preset.cost_model();
            let r = run_trial(&cfg);
            out.metric(
                format!("mops/{}/{}", preset.name(), r.scheme),
                r.throughput / 1e6,
            );
            out.metric(
                format!("pct_lock/{}/{}", preset.name(), r.scheme),
                r.pct_lock(n),
            );
            t.row(vec![
                preset.name().into(),
                r.scheme.clone(),
                fmt_mops(r.throughput),
                format!("{:.1}", r.pct_lock(n)),
            ]);
        }
    }
    t.emit_into(&mut out);
    println!("paper shape: the AF ranking is machine-independent; only magnitudes shift.\n");
    out
}

/// Fig. 17 (Appendix F): the visible (≥ 0.1 ms) free calls, batch vs AF.
pub fn fig17_visible_frees() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("fig17_visible_frees");
    let n = scale.max_threads;
    let mut t = Table::new(
        "fig17_visible_frees",
        "Fig.17/App.F: free calls >= 0.1ms (ABtree, DEBRA, Je, max threads)",
        &[
            "approach",
            "free calls >=0.1ms",
            "longest (ms)",
            "total visible (ms)",
            "p50 ns",
            "p99 ns",
        ],
    );
    for (label, amortize) in [("batch", false), ("amortized", true)] {
        let mut cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n).with_free_calls(10_000);
        if amortize {
            cfg = cfg.amortized();
        }
        let r = run_trial(&cfg);
        let rec = r.recorder.as_ref().unwrap();
        let visible = visible_events(rec, EventKind::FreeCall, 100_000);
        let longest = visible.iter().map(|e| e.duration_ns()).max().unwrap_or(0);
        let total: u64 = visible.iter().map(|e| e.duration_ns()).sum();
        out.metric(format!("visible/{label}"), visible.len() as f64);
        out.metric(
            format!("visible_frac/{label}"),
            visible.len() as f64 / (r.smr.freed.max(1)) as f64,
        );
        out.metric(format!("longest_ms/{label}"), longest as f64 / 1e6);
        out.metric(format!("total_visible_ms/{label}"), total as f64 / 1e6);
        out.metric(format!("free_p50_ns/{label}"), r.smr.free_p50_ns as f64);
        out.metric(format!("free_p99_ns/{label}"), r.smr.free_p99_ns as f64);
        t.row(vec![
            label.into(),
            visible.len().to_string(),
            format!("{:.2}", longest as f64 / 1e6),
            format!("{:.2}", total as f64 / 1e6),
            r.smr.free_p50_ns.to_string(),
            r.smr.free_p99_ns.to_string(),
        ]);
        save_timeline(&r, &mut out, "fig17", label, 100_000);
    }
    t.emit_into(&mut out);
    println!("paper shape: only a tiny fraction of calls are visible, and far fewer under AF.\n");
    out
}

/// Figs. 18–29 (Appendix G): DEBRA timelines for each allocator model at
/// several thread counts.
pub fn fig18_29_allocator_timelines() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("fig18_29_allocator_timelines");
    let mut points = vec![1, 2, scale.mid_threads, scale.max_threads];
    points.dedup();
    let last = *points.last().unwrap();
    for alloc in AllocatorKind::ALL {
        for &n in &points {
            let cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n)
                .with_alloc(alloc)
                .with_timeline()
                .with_garbage_series();
            let r = run_trial(&cfg);
            let label = format!("{}_{}t", alloc.name(), n);
            let bf = save_timeline(&r, &mut out, "fig18_29", &label, 0).unwrap_or_default();
            out.push(
                format!("batchfree_ns_by_threads/{}", alloc.name()),
                bf.total_ns as f64,
            );
            if n == 1 {
                out.metric(
                    format!("batchfree_ns/{}/min_t", alloc.name()),
                    bf.total_ns as f64,
                );
            }
            if n == last {
                out.metric(
                    format!("batchfree_ns/{}/max_t", alloc.name()),
                    bf.total_ns as f64,
                );
                out.metric(
                    format!("batchfree_max_ns/{}/max_t", alloc.name()),
                    bf.max_ns as f64,
                );
            }
            save_garbage_series(&r, &mut out, "fig18_29", &label);
        }
    }
    out.metric("thread_points", points.len() as f64);
    println!("paper shape: je/tc timelines fill with long batch frees as threads grow; mi stays clean.\n");
    out
}

/// Ablation: AF drain rate (objects freed per operation) on the DGT tree,
/// which frees 2 nodes per delete — §7 predicts k=2 is the sweet spot.
pub fn ablation_af_drain_rate() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("ablation_af_drain_rate");
    let n = scale.max_threads;
    let mut t = Table::new(
        "ablation_af_drain_rate",
        "Ablation: AF objects-freed-per-op k (DGT tree, token, Je, max threads)",
        &["k", "Mops/s", "final garbage", "peak garbage"],
    );
    for k in [1usize, 2, 4, 8] {
        let cfg = WorkloadCfg::new(TreeKind::Dgt, SmrKind::TokenPeriodic, n)
            .with_mode(FreeMode::Amortized { per_op: k });
        let r = run_trial(&cfg);
        out.metric(format!("mops/k{k}"), r.throughput / 1e6);
        out.metric(format!("final_garbage/k{k}"), r.smr.garbage as f64);
        out.metric(format!("peak_garbage/k{k}"), r.smr.peak_garbage as f64);
        out.push("final_garbage_by_k", r.smr.garbage as f64);
        t.row(vec![
            k.to_string(),
            fmt_mops(r.throughput),
            fmt_count(r.smr.garbage),
            fmt_count(r.smr.peak_garbage),
        ]);
    }
    t.emit_into(&mut out);
    println!("expectation: k=1 lets garbage grow (2 frees/delete needed); k>=2 bounds it.\n");
    out
}

/// Ablation: thread-cache capacity in the Je model.
pub fn ablation_tcache_cap() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("ablation_tcache_cap");
    let n = scale.max_threads;
    let mut t = Table::new(
        "ablation_tcache_cap",
        "Ablation: Je thread-cache capacity (ABtree, DEBRA batch, max threads)",
        &["tcache cap", "Mops/s", "flushes", "% lock"],
    );
    for cap in [50usize, 200, 800] {
        let mut cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n);
        cfg.tcache_cap = Some(cap);
        let r = run_trial(&cfg);
        out.metric(format!("mops/cap{cap}"), r.throughput / 1e6);
        out.metric(format!("flushes/cap{cap}"), r.alloc.totals.flushes as f64);
        out.metric(format!("pct_lock/cap{cap}"), r.pct_lock(n));
        out.push("flushes_by_cap", r.alloc.totals.flushes as f64);
        t.row(vec![
            cap.to_string(),
            fmt_mops(r.throughput),
            fmt_count(r.alloc.totals.flushes),
            format!("{:.1}", r.pct_lock(n)),
        ]);
    }
    t.emit_into(&mut out);
    println!("expectation: bigger caches absorb more of each batch -> fewer flushes.\n");
    out
}

/// Ablation: arena count (the jemalloc 4×ncpu choice).
pub fn ablation_arena_count() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("ablation_arena_count");
    let n = scale.max_threads;
    let mut t = Table::new(
        "ablation_arena_count",
        "Ablation: Je arenas-per-cpu (ABtree, DEBRA batch, max threads)",
        &["arenas/cpu", "arenas", "Mops/s", "% lock"],
    );
    for per_cpu in [1usize, 4, 16] {
        let mut cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n);
        cfg.cost.arenas_per_cpu = per_cpu;
        let arenas = cfg.cost.num_arenas();
        let r = run_trial(&cfg);
        out.metric(format!("mops/per_cpu{per_cpu}"), r.throughput / 1e6);
        out.metric(format!("pct_lock/per_cpu{per_cpu}"), r.pct_lock(n));
        out.push("pct_lock_by_arenas", r.pct_lock(n));
        t.row(vec![
            per_cpu.to_string(),
            arenas.to_string(),
            fmt_mops(r.throughput),
            format!("{:.1}", r.pct_lock(n)),
        ]);
    }
    t.emit_into(&mut out);
    println!("expectation: fewer arenas -> more flush collisions -> more lock waiting.\n");
    out
}

/// Ablation: Periodic Token-EBR's check interval (paper: 100).
pub fn ablation_token_check_period() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("ablation_token_check_period");
    let n = scale.max_threads;
    let mut t = Table::new(
        "ablation_token_check_period",
        "Ablation: token check interval (ABtree, token batch, max threads)",
        &["check every", "Mops/s", "epochs", "peak garbage"],
    );
    for k in [10usize, 100, 1000] {
        let mut cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::TokenPeriodic, n);
        cfg.token_check_every = k;
        let r = run_trial(&cfg);
        out.metric(format!("mops/every{k}"), r.throughput / 1e6);
        out.metric(format!("epochs/every{k}"), r.smr.epochs as f64);
        out.metric(format!("peak_garbage/every{k}"), r.smr.peak_garbage as f64);
        out.push("epochs_by_period", r.smr.epochs as f64);
        t.row(vec![
            k.to_string(),
            fmt_mops(r.throughput),
            r.smr.epochs.to_string(),
            fmt_count(r.smr.peak_garbage),
        ]);
    }
    t.emit_into(&mut out);
    println!("expectation: smaller intervals keep the token moving through long frees.\n");
    out
}

/// Ablation: limbo-bag capacity (paper fixes 32 K for Experiment 2).
pub fn ablation_bag_cap() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("ablation_bag_cap");
    let n = scale.max_threads;
    let mut t = Table::new(
        "ablation_bag_cap",
        "Ablation: limbo bag capacity (ABtree, nbr+, Je, max threads)",
        &["bag cap", "ORIG Mops/s", "AF Mops/s", "AF/ORIG"],
    );
    for cap in [512usize, 2048, 8192, 32_768] {
        let mut orig_cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::NbrPlus, n);
        orig_cfg.bag_cap = cap;
        let mut af_cfg = orig_cfg.clone().amortized();
        af_cfg.bag_cap = cap;
        let orig = run_trial(&orig_cfg);
        let af = run_trial(&af_cfg);
        let ratio = af.throughput / orig.throughput.max(1.0);
        out.metric(format!("orig_mops/cap{cap}"), orig.throughput / 1e6);
        out.metric(format!("af_mops/cap{cap}"), af.throughput / 1e6);
        out.metric(format!("af_ratio/cap{cap}"), ratio);
        out.push("af_ratio_by_cap", ratio);
        t.row(vec![
            cap.to_string(),
            fmt_mops(orig.throughput),
            fmt_mops(af.throughput),
            format!("{ratio:.2}x"),
        ]);
    }
    t.emit_into(&mut out);
    println!("expectation: bigger batches hurt ORIG more, widening the AF advantage.\n");
    out
}

/// Ablation: background-thread freeing (Mitake et al., rebutted in §6) —
/// moving batch frees to a dedicated reclaimer thread does not remove the
/// RBF problem, it relocates it.
pub fn ablation_background_free() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("ablation_background_free");
    let n = scale.max_threads;
    let mut t = Table::new(
        "ablation_background_free",
        "Ablation: batch vs background-thread vs amortized freeing (ABtree, DEBRA, Je)",
        &[
            "approach",
            "Mops/s",
            "freed",
            "flushes",
            "remote frees",
            "backlog at end",
        ],
    );
    for (key, mode) in [
        ("batch", FreeMode::Batch),
        ("background", FreeMode::Background),
        ("af", FreeMode::amortized()),
    ] {
        let cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n).with_mode(mode);
        let r = run_trial(&cfg);
        out.metric(format!("mops/{key}"), r.throughput / 1e6);
        out.metric(format!("freed/{key}"), r.smr.freed as f64);
        out.metric(format!("flushes/{key}"), r.alloc.totals.flushes as f64);
        out.metric(format!("remote/{key}"), r.alloc.totals.remote_freed as f64);
        out.metric(format!("backlog/{key}"), r.smr.garbage as f64);
        t.row(vec![
            r.scheme.clone(),
            fmt_mops(r.throughput),
            fmt_count(r.smr.freed),
            fmt_count(r.alloc.totals.flushes),
            fmt_count(r.alloc.totals.remote_freed),
            fmt_count(r.smr.garbage),
        ]);
    }
    t.emit_into(&mut out);
    println!(
        "expectation (§6): the background reclaimer still batch-frees through its own\n\
         thread cache, so flushes and remote frees stay high — \"batch freeing is,\n\
         itself, the problem\" — while AF removes them.\n"
    );
    out
}

/// Ablation: a delayed thread (parked inside an operation) — the classic
/// EBR weakness (§3.1 cites [35, 37]). Compares how schemes' garbage and
/// throughput respond when thread 0 stalls 20 ms out of every 60 ms.
pub fn ablation_stalled_thread() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("ablation_stalled_thread");
    let n = scale.max_threads.max(2);
    let mut t = Table::new(
        "ablation_stalled_thread",
        "Ablation: delayed thread (20ms stall every 60ms) vs clean run (ABtree, Je)",
        &[
            "scheme",
            "clean Mops/s",
            "stalled Mops/s",
            "clean peak garbage",
            "stalled peak garbage",
        ],
    );
    for (kind, mode) in [
        (SmrKind::Debra, FreeMode::Batch),
        (SmrKind::Qsbr, FreeMode::Batch),
        (SmrKind::Rcu, FreeMode::Batch),
        (SmrKind::TokenPeriodic, FreeMode::amortized()),
        (SmrKind::He, FreeMode::Batch),
        (SmrKind::NbrPlus, FreeMode::Batch),
    ] {
        let clean = run_trial(&WorkloadCfg::new(TreeKind::Ab, kind, n).with_mode(mode));
        let mut stalled_cfg = WorkloadCfg::new(TreeKind::Ab, kind, n).with_mode(mode);
        stalled_cfg.stall = Some((60, 20));
        let stalled = run_trial(&stalled_cfg);
        let name = clean.scheme.clone();
        out.metric(format!("clean_mops/{name}"), clean.throughput / 1e6);
        out.metric(format!("stalled_mops/{name}"), stalled.throughput / 1e6);
        out.metric(
            format!("clean_peak_garbage/{name}"),
            clean.smr.peak_garbage as f64,
        );
        out.metric(
            format!("stalled_peak_garbage/{name}"),
            stalled.smr.peak_garbage as f64,
        );
        out.metric(
            format!("garbage_ratio/{name}"),
            stalled.smr.peak_garbage as f64 / (clean.smr.peak_garbage.max(1)) as f64,
        );
        t.row(vec![
            name,
            fmt_mops(clean.throughput),
            fmt_mops(stalled.throughput),
            fmt_count(clean.smr.peak_garbage),
            fmt_count(stalled.smr.peak_garbage),
        ]);
    }
    t.emit_into(&mut out);
    println!(
        "expectation: epoch/token schemes' garbage balloons while the staller holds its\n\
         announcement; era-based schemes only pin objects whose lifetimes cover the\n\
         stalled reservation. (Our cooperative NBR cannot interrupt a sleeping thread —\n\
         a documented cost of the signal substitution, see DESIGN.md.)\n"
    );
    out
}

/// Ablation: object pooling vs amortized free vs batch free — the §3.3 /
/// footnote-4 road not taken. Pooling serves allocations straight from the
/// freeable list, avoiding the allocator almost entirely; the paper
/// deliberately declines it ("we want to show that we can make interaction
/// with the allocator fast — not avoid it"). This bench quantifies what
/// that choice costs: pooling's throughput vs AF's, and how little it
/// touches the allocator.
pub fn ablation_pooled() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("ablation_pooled");
    let n = scale.max_threads;
    let mut t = Table::new(
        "ablation_pooled",
        "Ablation: batch vs amortized vs pooled freeing (ABtree, DEBRA, Je, max threads)",
        &[
            "approach",
            "Mops/s",
            "freed",
            "pool hits",
            "allocator allocs",
            "flushes",
        ],
    );
    for (key, mode) in [
        ("batch", FreeMode::Batch),
        ("af", FreeMode::amortized()),
        ("pooled", FreeMode::Pooled),
    ] {
        let cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n).with_mode(mode);
        let r = run_trial(&cfg);
        out.metric(format!("mops/{key}"), r.throughput / 1e6);
        out.metric(format!("freed/{key}"), r.smr.freed as f64);
        out.metric(format!("pool_hits/{key}"), r.smr.pool_hits as f64);
        out.metric(format!("allocs/{key}"), r.alloc.totals.allocs as f64);
        out.metric(format!("flushes/{key}"), r.alloc.totals.flushes as f64);
        t.row(vec![
            r.scheme.clone(),
            fmt_mops(r.throughput),
            fmt_count(r.smr.freed),
            fmt_count(r.smr.pool_hits),
            fmt_count(r.alloc.totals.allocs),
            fmt_count(r.alloc.totals.flushes),
        ]);
    }
    t.emit_into(&mut out);
    println!(
        "expectation (fn. 4): pooling also sidesteps the RBF problem (VBR's trick) with\n\
         near-zero allocator traffic; AF gets comparable throughput while keeping the\n\
         allocator in the loop — the paper's point.\n"
    );
    out
}

/// Ablation: the allocator-side fix (footnote 3's future work) — an
/// incremental-flush jemalloc variant that returns a small quantum per
/// overflow instead of 3/4 of the bin. Under *batch* freeing it should
/// recover much of amortized freeing's benefit without touching the SMR
/// scheme.
pub fn ablation_allocator_fix() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("ablation_allocator_fix");
    let n = scale.max_threads;
    let mut t = Table::new(
        "ablation_allocator_fix",
        "Ablation: incremental-flush jemalloc (ABtree, DEBRA, max threads)",
        &[
            "config",
            "Mops/s",
            "% free",
            "% lock",
            "flushes",
            "objs/flush",
        ],
    );
    for (label, key, alloc, amortize) in [
        ("je batch", "je_batch", AllocatorKind::Je, false),
        (
            "je_incr batch",
            "je_incr_batch",
            AllocatorKind::JeIncr,
            false,
        ),
        ("je amortized", "je_af", AllocatorKind::Je, true),
    ] {
        let mut cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n).with_alloc(alloc);
        if amortize {
            cfg = cfg.amortized();
        }
        let r = run_trial(&cfg);
        let per_flush =
            r.alloc.totals.flushed_objects as f64 / r.alloc.totals.flushes.max(1) as f64;
        out.metric(format!("mops/{key}"), r.throughput / 1e6);
        out.metric(format!("pct_free/{key}"), r.pct_free(n));
        out.metric(format!("pct_lock/{key}"), r.pct_lock(n));
        out.metric(format!("flushes/{key}"), r.alloc.totals.flushes as f64);
        out.metric(format!("objs_per_flush/{key}"), per_flush);
        t.row(vec![
            label.into(),
            fmt_mops(r.throughput),
            format!("{:.1}", r.pct_free(n)),
            format!("{:.1}", r.pct_lock(n)),
            fmt_count(r.alloc.totals.flushes),
            format!("{per_flush:.1}"),
        ]);
    }
    t.emit_into(&mut out);
    println!(
        "expectation (fn. 3): je_incr's tiny flushes shrink lock holds, recovering much of\n\
         AF's benefit at the allocator layer — the paper's proposed future work, built.\n"
    );
    out
}

/// Ablation: data-structure generality — ORIG vs AF on all four maps
/// (including the Harris–Michael list, which is not in the paper's
/// evaluation). The RBF problem is a property of the free path, not the
/// data structure, so AF should help wherever garbage volume is high.
pub fn ablation_ds_generality() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("ablation_ds_generality");
    let n = scale.max_threads;
    let mut t = Table::new(
        "ablation_ds_generality",
        "Ablation: ORIG vs AF per data structure (DEBRA, Je, max threads)",
        &[
            "structure",
            "ORIG Mops/s",
            "AF Mops/s",
            "AF/ORIG",
            "ORIG % free",
        ],
    );
    for tree in TreeKind::ALL {
        let mut orig_cfg = WorkloadCfg::new(tree, SmrKind::Debra, n);
        // An O(n)-traversal list needs a small key range to churn at all.
        if tree == TreeKind::Hm {
            orig_cfg.key_range = orig_cfg.key_range.min(512);
        }
        let af_cfg = orig_cfg.clone().amortized();
        let orig = run_trial(&orig_cfg);
        let af = run_trial(&af_cfg);
        let ratio = af.throughput / orig.throughput.max(1.0);
        out.metric(format!("orig_mops/{}", tree.name()), orig.throughput / 1e6);
        out.metric(format!("af_mops/{}", tree.name()), af.throughput / 1e6);
        out.metric(format!("af_ratio/{}", tree.name()), ratio);
        out.metric(format!("orig_pct_free/{}", tree.name()), orig.pct_free(n));
        t.row(vec![
            tree.name().into(),
            fmt_mops(orig.throughput),
            fmt_mops(af.throughput),
            format!("{ratio:.2}x"),
            format!("{:.1}", orig.pct_free(n)),
        ]);
    }
    t.emit_into(&mut out);
    println!(
        "expectation: AF's advantage tracks garbage volume — biggest for the ABtree\n\
         (large nodes), smallest for the list (tiny garbage rate per op).\n"
    );
    out
}

/// Ablation: update ratio — the RBF problem scales with garbage
/// generation, so read-heavier mixes shrink the batch-vs-AF gap.
pub fn ablation_update_ratio() -> ExperimentResult {
    let scale = ExperimentScale::detect();
    let mut out = ExperimentResult::new("ablation_update_ratio");
    let n = scale.max_threads;
    let mut t = Table::new(
        "ablation_update_ratio",
        "Ablation: update fraction of the workload (ABtree, DEBRA, Je, max threads)",
        &[
            "updates %",
            "ORIG Mops/s",
            "AF Mops/s",
            "AF/ORIG",
            "ORIG % free",
        ],
    );
    for pct in [100u32, 50, 10] {
        let ratio_f = pct as f64 / 100.0;
        let mut orig_cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n);
        orig_cfg.update_ratio = ratio_f;
        let mut af_cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n).amortized();
        af_cfg.update_ratio = ratio_f;
        let orig = run_trial(&orig_cfg);
        let af = run_trial(&af_cfg);
        let ratio = af.throughput / orig.throughput.max(1.0);
        out.metric(format!("orig_mops/u{pct}"), orig.throughput / 1e6);
        out.metric(format!("af_mops/u{pct}"), af.throughput / 1e6);
        out.metric(format!("af_ratio/u{pct}"), ratio);
        out.metric(format!("orig_pct_free/u{pct}"), orig.pct_free(n));
        out.push("af_ratio_by_updates", ratio);
        out.push("orig_pct_free_by_updates", orig.pct_free(n));
        t.row(vec![
            pct.to_string(),
            fmt_mops(orig.throughput),
            fmt_mops(af.throughput),
            format!("{ratio:.2}x"),
            format!("{:.1}", orig.pct_free(n)),
        ]);
    }
    t.emit_into(&mut out);
    println!("expectation: the AF advantage shrinks as updates (and hence garbage) thin out.\n");
    out
}

/// An experiment entry point: runs, prints, returns the structured
/// result.
pub type ExperimentFn = fn() -> ExperimentResult;

/// How a registry entry runs: a hand-coded paper experiment, or a
/// runbook-generated scenario cell (see [`crate::scenario`]).
#[derive(Clone)]
pub enum ExperimentRun {
    /// A hand-coded experiment function (the paper tables/figures).
    Builtin(ExperimentFn),
    /// A scenario cell generated from the active `EPIC_RUNBOOK`.
    Scenario(Box<crate::scenario::Cell>),
}

/// Where a registry entry came from — `epic-run list` prints it, and
/// `--origin` filters on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Origin {
    /// Compiled into the harness (paper order).
    Builtin,
    /// Generated from a runbook file named by `EPIC_RUNBOOK`.
    Runbook {
        /// The runbook's `name` field.
        runbook: String,
    },
}

impl Origin {
    /// Display label: `"builtin"` or `"runbook:<name>"`.
    pub fn label(&self) -> String {
        match self {
            Origin::Builtin => "builtin".to_string(),
            Origin::Runbook { runbook } => format!("runbook:{runbook}"),
        }
    }
}

/// One registry entry: the experiment's stable id, its entry point, a
/// relative cost hint for schedulers, and its origin.
#[derive(Clone)]
pub struct Experiment {
    /// The stable experiment id (what `epic-run` accepts).
    pub id: String,
    /// The entry point.
    pub run: ExperimentRun,
    /// Relative cost hint: roughly how many timed trial slices the
    /// experiment runs at default scale (sweep length ≈ 5). The process
    /// runner ([`crate::runner`]) uses it for LPT slot assignment. Only
    /// the *ordering* matters; the units are deliberately coarse.
    pub cost: u32,
    /// Builtin or runbook-generated.
    pub origin: Origin,
}

impl Experiment {
    /// Runs the experiment and stamps the result with its provenance
    /// hash — the single execution path for builtins and scenario cells
    /// alike, so every `SHAPES.json` row is replayable from its hash
    /// (see [`crate::scenario::provenance_hash`]).
    pub fn execute(&self) -> ExperimentResult {
        let mut result = match &self.run {
            ExperimentRun::Builtin(f) => f(),
            ExperimentRun::Scenario(cell) => crate::scenario::run_cell(cell),
        };
        result.provenance = Some(crate::scenario::provenance_hash(self));
        result
    }

    /// The paper-shape oracle `check` judges this experiment's result by:
    /// the builtin catalog's entry (no runbook I/O), or the one
    /// synthesized for a scenario cell.
    ///
    /// # Panics
    /// If a builtin has no catalog entry — a registry bug the
    /// registry-agreement tests exist to catch.
    pub fn oracle(&self) -> crate::oracle::Oracle {
        match &self.origin {
            Origin::Builtin => crate::oracle::builtin_oracles()
                .into_iter()
                .find(|o| o.experiment == self.id)
                .unwrap_or_else(|| panic!("experiment '{}' has no registered oracle", self.id)),
            Origin::Runbook { runbook } => crate::scenario::cell_oracle(&self.id, runbook),
        }
    }
}

/// Every experiment: the builtins in paper order, then any cells
/// generated from the active `EPIC_RUNBOOK` (in runbook order).
pub fn all_experiments() -> Vec<Experiment> {
    fn e(id: &'static str, run: ExperimentFn, cost: u32) -> Experiment {
        Experiment {
            id: id.to_string(),
            run: ExperimentRun::Builtin(run),
            cost,
            origin: Origin::Builtin,
        }
    }
    let mut all = vec![
        e("fig1_scaling", fig1_scaling, 20),
        e("table1_je_overhead", table1_je_overhead, 3),
        e("fig2_timeline_batch", fig2_timeline_batch, 2),
        e("fig3_timeline_af", fig3_timeline_af, 2),
        e("table2_af_counters", table2_af_counters, 2),
        e("fig4_garbage", fig4_garbage, 2),
        e("table3_allocators", table3_allocators, 6),
        e("fig5_6_naive_token", fig5_6_naive_token, 6),
        e("fig7_passfirst", fig7_passfirst, 1),
        e("fig8_periodic", fig8_periodic, 1),
        e("fig9_10_token_af", fig9_10_token_af, 6),
        e("table4_token_variants", table4_token_variants, 4),
        e("fig11a_experiment1", fig11a_experiment1, 65),
        e("fig11b_experiment2", fig11b_experiment2, 20),
        e("fig12_orig_vs_af_sweep", fig12_orig_vs_af_sweep, 100),
        e("fig13_dgt_orig_vs_af", fig13_dgt_orig_vs_af, 100),
        e("fig14_dgt_experiment1", fig14_dgt_experiment1, 65),
        e("fig15_16_machine_presets", fig15_16_machine_presets, 12),
        e("fig17_visible_frees", fig17_visible_frees, 2),
        e(
            "fig18_29_allocator_timelines",
            fig18_29_allocator_timelines,
            12,
        ),
        e("ablation_af_drain_rate", ablation_af_drain_rate, 4),
        e("ablation_tcache_cap", ablation_tcache_cap, 3),
        e("ablation_arena_count", ablation_arena_count, 3),
        e(
            "ablation_token_check_period",
            ablation_token_check_period,
            3,
        ),
        e("ablation_bag_cap", ablation_bag_cap, 8),
        e("ablation_background_free", ablation_background_free, 3),
        e("ablation_stalled_thread", ablation_stalled_thread, 12),
        e("ablation_update_ratio", ablation_update_ratio, 6),
        e("ablation_pooled", ablation_pooled, 3),
        e("ablation_allocator_fix", ablation_allocator_fix, 3),
        e("ablation_ds_generality", ablation_ds_generality, 8),
    ];
    all.extend(crate::scenario::generated_experiments());
    all
}

/// An id's position in the registry (unknown ids rank last): the sort key
/// that puts the process runner's records back into registry order.
pub(crate) fn registry_rank() -> impl Fn(&str) -> usize {
    let order: std::collections::HashMap<String, usize> = all_experiments()
        .into_iter()
        .enumerate()
        .map(|(i, e)| (e.id, i))
        .collect();
    move |id| order.get(id).copied().unwrap_or(usize::MAX)
}

/// Looks up one registry entry by id.
pub fn experiment_by_name(name: &str) -> Option<Experiment> {
    all_experiments().into_iter().find(|e| e.id == name)
}

/// Runs one experiment by id; `None` if the id is unknown.
pub fn run_by_name(name: &str) -> Option<ExperimentResult> {
    experiment_by_name(name).map(|e| e.execute())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let all = all_experiments();
        let builtin = all.iter().filter(|e| e.origin == Origin::Builtin);
        assert_eq!(builtin.count(), 31, "the paper's artifacts, nothing else");
        let ids: std::collections::HashSet<_> = all.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids.len(), all.len(), "duplicate experiment ids");
        assert!(run_by_name("nonexistent_experiment").is_none());
        assert!(experiment_by_name("fig4_garbage").is_some());
        // Builtins carry the builtin origin label.
        assert!(all
            .iter()
            .filter(|e| matches!(e.run, ExperimentRun::Builtin(_)))
            .all(|e| e.origin == Origin::Builtin && e.origin.label() == "builtin"));
    }

    #[test]
    fn cost_hints_are_positive_and_rank_the_heavy_sweeps_on_top() {
        let all = all_experiments();
        assert!(
            all.iter().all(|e| e.cost > 0),
            "zero-cost entries break LPT"
        );
        let cost = |id: &str| all.iter().find(|e| e.id == id).unwrap().cost;
        // The two ORIG-vs-AF full sweeps are the heaviest jobs; any
        // single-trial timeline figure must rank below them.
        assert!(cost("fig12_orig_vs_af_sweep") > cost("fig4_garbage"));
        assert!(cost("fig13_dgt_orig_vs_af") > cost("table4_token_variants"));
    }
}
