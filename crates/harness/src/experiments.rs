//! The experiment registry: one function per paper table/figure (plus the
//! ablations DESIGN.md §5 calls out). Each function prints the same
//! rows/series the paper reports, writes CSV/SVG artifacts under
//! [`crate::results_dir`], and fills a structured [`ExperimentResult`]
//! (named scalar metrics + named series). [`all_experiments`] gives each
//! function one row: its id, cost hint, and the [`Oracle`] — claim plus
//! assertions ([`crate::oracle`]) — its result is checked against.
//! [`Experiment::execute`] creates the result under the row's id, detects
//! the scale once, and prints the claim after the run.
//!
//! Metric-name conventions (stable keys — oracles depend on them):
//! `mops/...` throughputs in Mops/s, `pct_*` percentages,
//! `af_ratio/<x>` AF-over-ORIG throughput ratios, `rows/<table id>`
//! grid-completeness counts from [`Table::emit_into`],
//! `timeline/<label>/batchfree_*` captured render statistics, and
//! `garbage/<label>/*` per-epoch garbage-series statistics.

use crate::config::{ExperimentScale, WorkloadCfg};
use crate::oracle::{
    at_least, at_most, crossover_absent, demote_at_millis, fraction_below, monotone_falling,
    monotone_rising, ordering, ratio_at_least, trend_rising, Assertion, Oracle, SMOKE_MILLIS,
};
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
pub fn fig1_scaling(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// Table 1: jemalloc free overhead (ops/s, epochs, %free, %flush, %lock)
/// as thread count grows. ABtree + DEBRA batch. In the paper
/// %free/%flush/%lock go from 11.5/9.9/4.9 at 48 threads to
/// 59.5/58.8/39.8 at 192.
pub fn table1_je_overhead(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let mut t = Table::new(
        &out.id,
        "Table 1: JEmalloc free overhead vs threads (ABtree, DEBRA batch)",
        &["threads", "ops/s", "epochs", "% free", "% flush", "% lock"],
    );
    let points = scale.table1_points();
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
    t.emit_into(out);
}

/// Fig. 2: timeline graphs of batch frees at moderate vs maximum thread
/// counts.
pub fn fig2_timeline_batch(scale: &ExperimentScale, out: &mut ExperimentResult) {
    for (label, n) in [("mid", scale.mid_threads), ("max", scale.max_threads)] {
        let cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n).with_timeline();
        let r = run_trial(&cfg);
        let bf = save_timeline(&r, out, "fig2", label, 0).unwrap_or_default();
        println!(
            "fig2/{label}: {n} threads, {} batch-free events, mean {:.2} ms, max {:.2} ms",
            bf.count,
            bf.mean_ns as f64 / 1e6,
            bf.max_ns as f64 / 1e6
        );
    }
}

/// Fig. 3: timelines of *individual free calls*, batch vs amortized.
pub fn fig3_timeline_af(scale: &ExperimentScale, out: &mut ExperimentResult) {
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
        save_timeline(&r, out, "fig3", label, 10_000);
    }
}

/// Table 2: amortized vs batch free — ops/s, objects freed, %free, %flush,
/// %lock at max threads (ABtree, DEBRA, Je). In the paper AF lifts
/// throughput from 43.4M to 111.3M ops/s and cuts %lock from 39.8 to 5.5.
pub fn table2_af_counters(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// Fig. 4: garbage per epoch, batch vs amortized (smoothing effect).
pub fn fig4_garbage(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    for (label, amortize) in [("batch", false), ("amortized", true)] {
        let mut cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n).with_garbage_series();
        if amortize {
            cfg = cfg.amortized();
        }
        let r = run_trial(&cfg);
        save_garbage_series(&r, out, "fig4", label);
    }
}

/// Table 3: the three allocator models × batch/amortized (DEBRA, ABtree).
/// In the paper MI is slightly slower under AF.
pub fn table3_allocators(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

fn token_figure(
    scale: &ExperimentScale,
    out: &mut ExperimentResult,
    kind: SmrKind,
    mode: FreeMode,
    with_perf_table: bool,
) {
    let id = out.id.clone();
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
    save_timeline(&r, out, &id, "timeline", 0);
    save_garbage_series(&r, out, &id, "series");

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
        t.emit_into(out);
    }
}

/// Fig. 5 + Fig. 6: Naive Token-EBR — perf/memory sweep, timeline, garbage
/// pile-up.
pub fn fig5_6_naive_token(scale: &ExperimentScale, out: &mut ExperimentResult) {
    token_figure(scale, out, SmrKind::TokenNaive, FreeMode::Batch, true);
}

/// Fig. 7: Pass-first Token-EBR.
pub fn fig7_passfirst(scale: &ExperimentScale, out: &mut ExperimentResult) {
    token_figure(scale, out, SmrKind::TokenPassFirst, FreeMode::Batch, false);
}

/// Fig. 8: Periodic Token-EBR.
pub fn fig8_periodic(scale: &ExperimentScale, out: &mut ExperimentResult) {
    token_figure(scale, out, SmrKind::TokenPeriodic, FreeMode::Batch, false);
}

/// Fig. 9 + Fig. 10: Amortized-free Token-EBR.
pub fn fig9_10_token_af(scale: &ExperimentScale, out: &mut ExperimentResult) {
    token_figure(
        scale,
        out,
        SmrKind::TokenPeriodic,
        FreeMode::amortized(),
        true,
    );
}

/// Table 4: the four Token-EBR variants (ops/s, %free, freed). The paper
/// measures 73.7/52.4/54.4/123.7 Mops/s for Naive/Pass-first/Periodic/
/// Amortized.
pub fn table4_token_variants(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

fn experiment1_table(
    scale: &ExperimentScale,
    out: &mut ExperimentResult,
    title: &str,
    tree: TreeKind,
) {
    let mut t = Table::new(
        &out.id,
        title,
        &["scheme", "threads", "Mops/s", "min", "max"],
    );
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
    t.emit_into(out);
}

/// Fig. 11a (Experiment 1): token_af and debra_af vs the whole field
/// across threads, ABtree.
pub fn fig11a_experiment1(scale: &ExperimentScale, out: &mut ExperimentResult) {
    experiment1_table(
        scale,
        out,
        "Fig.11a/Exp.1: token_af + debra_af vs the field (ABtree, Je)",
        TreeKind::Ab,
    );
}

fn orig_vs_af_table(
    scale: &ExperimentScale,
    out: &mut ExperimentResult,
    title: &str,
    tree: TreeKind,
    sweep: bool,
) {
    let threads: Vec<usize> = if sweep {
        scale.sweep.clone()
    } else {
        vec![scale.max_threads]
    };
    let last = *threads.last().unwrap();
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// Fig. 11b (Experiment 2): ORIG vs AF for all ten schemes at max threads.
/// hp and wfe gain little because their per-read synchronization dominates.
pub fn fig11b_experiment2(scale: &ExperimentScale, out: &mut ExperimentResult) {
    orig_vs_af_table(
        scale,
        out,
        "Fig.11b/Exp.2: ORIG vs AF per scheme (ABtree, Je, max threads)",
        TreeKind::Ab,
        false,
    );
}

/// Fig. 12 (Appendix C): ORIG vs AF across the thread sweep, ABtree.
pub fn fig12_orig_vs_af_sweep(scale: &ExperimentScale, out: &mut ExperimentResult) {
    orig_vs_af_table(
        scale,
        out,
        "Fig.12/App.C: ORIG vs AF across threads (ABtree, Je)",
        TreeKind::Ab,
        true,
    );
}

/// Fig. 13 (Appendix D): ORIG vs AF across the thread sweep, DGT tree
/// (deletes free TWO nodes, so AF drains two per op — the §7 tuning).
pub fn fig13_dgt_orig_vs_af(scale: &ExperimentScale, out: &mut ExperimentResult) {
    orig_vs_af_table(
        scale,
        out,
        "Fig.13/App.D: ORIG vs AF across threads (DGT tree, Je)",
        TreeKind::Dgt,
        true,
    );
}

/// Fig. 14 (Appendix D): Experiment 1 on the DGT tree.
pub fn fig14_dgt_experiment1(scale: &ExperimentScale, out: &mut ExperimentResult) {
    experiment1_table(
        scale,
        out,
        "Fig.14/App.D: token_af vs the field (DGT tree, Je)",
        TreeKind::Dgt,
    );
}

/// Fig. 15/16 (Appendix E): machine presets — re-run the headline
/// comparison with the cost-model parameters of the paper's other
/// testbeds.
pub fn fig15_16_machine_presets(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// Fig. 17 (Appendix F): the visible (≥ 0.1 ms) free calls, batch vs AF.
pub fn fig17_visible_frees(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
        save_timeline(&r, out, "fig17", label, 100_000);
    }
    t.emit_into(out);
}

/// Figs. 18–29 (Appendix G): DEBRA timelines for each allocator model at
/// several thread counts.
pub fn fig18_29_allocator_timelines(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let points = scale.timeline_points();
    let last = *points.last().unwrap();
    for alloc in AllocatorKind::ALL {
        for &n in &points {
            let cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, n)
                .with_alloc(alloc)
                .with_timeline()
                .with_garbage_series();
            let r = run_trial(&cfg);
            let label = format!("{}_{}t", alloc.name(), n);
            let bf = save_timeline(&r, out, "fig18_29", &label, 0).unwrap_or_default();
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
            save_garbage_series(&r, out, "fig18_29", &label);
        }
    }
    out.metric("thread_points", points.len() as f64);
}

/// Ablation: AF drain rate (objects freed per operation) on the DGT tree,
/// which frees 2 nodes per delete — §7 predicts k=2 is the sweet spot.
pub fn ablation_af_drain_rate(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// Ablation: thread-cache capacity in the Je model.
pub fn ablation_tcache_cap(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// Ablation: arena count (the jemalloc 4×ncpu choice).
pub fn ablation_arena_count(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// Ablation: Periodic Token-EBR's check interval (paper: 100).
pub fn ablation_token_check_period(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// Ablation: limbo-bag capacity (paper fixes 32 K for Experiment 2).
pub fn ablation_bag_cap(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// Ablation: background-thread freeing (Mitake et al., rebutted in §6) —
/// moving batch frees to a dedicated reclaimer thread does not remove the
/// RBF problem, it relocates it: the reclaimer still batch-frees through
/// its own thread cache ("batch freeing is, itself, the problem").
pub fn ablation_background_free(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// Ablation: a delayed thread (parked inside an operation) — the classic
/// EBR weakness (§3.1 cites [35, 37]). Compares how schemes' garbage and
/// throughput respond when thread 0 stalls 20 ms out of every 60 ms.
/// Era-based schemes pin only the objects whose lifetimes cover the
/// stalled reservation. The cooperative NBR cannot interrupt a sleeping
/// thread, a cost of the signal substitution (DESIGN.md §2.2).
pub fn ablation_stalled_thread(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads.max(2);
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// Ablation: object pooling vs amortized free vs batch free — the §3.3 /
/// footnote-4 road not taken. Pooling serves allocations straight from the
/// freeable list, avoiding the allocator almost entirely; the paper
/// deliberately declines it ("we want to show that we can make interaction
/// with the allocator fast — not avoid it"). This bench quantifies what
/// that choice costs: pooling's throughput vs AF's, and how little it
/// touches the allocator. Pooling sidesteps the RBF problem the way VBR
/// does.
pub fn ablation_pooled(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// Ablation: the allocator-side fix (footnote 3's future work) — an
/// incremental-flush jemalloc variant that returns a small quantum per
/// overflow instead of 3/4 of the bin. Under *batch* freeing it should
/// recover much of amortized freeing's benefit without touching the SMR
/// scheme.
pub fn ablation_allocator_fix(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// Ablation: data-structure generality — ORIG vs AF on all four maps
/// (including the Harris–Michael list, which is not in the paper's
/// evaluation). The RBF problem is a property of the free path, not the
/// data structure, so AF should help wherever garbage volume is high.
pub fn ablation_ds_generality(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// Ablation: update ratio — the RBF problem scales with garbage
/// generation, so read-heavier mixes shrink the batch-vs-AF gap.
pub fn ablation_update_ratio(scale: &ExperimentScale, out: &mut ExperimentResult) {
    let n = scale.max_threads;
    let mut t = Table::new(
        &out.id,
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
    t.emit_into(out);
}

/// An experiment entry point: fills the result [`Experiment::execute`]
/// creates under the row's id, at the scale it detected.
pub type ExperimentFn = fn(&ExperimentScale, &mut ExperimentResult);

/// How a registry entry runs: a hand-coded paper experiment, or a
/// runbook-generated scenario cell (see [`crate::scenario`]).
#[derive(Clone)]
pub enum ExperimentRun {
    /// A hand-coded experiment function (the paper tables/figures).
    Builtin(ExperimentFn),
    /// A scenario cell generated from the active `EPIC_RUNBOOK`.
    Scenario(Box<crate::scenario::Cell>),
}

/// One registry entry: the experiment's stable id, its entry point, a
/// relative cost hint for schedulers, and the oracle that judges it.
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
    /// The paper-shape claim and the assertions `check` evaluates the
    /// result against.
    pub oracle: Oracle,
}

impl Experiment {
    /// Where the entry came from: `"builtin"`, or `"runbook:<name>"` for a
    /// generated cell. `epic-run list` prints it and `--origin` filters on
    /// it.
    pub fn origin(&self) -> String {
        match &self.run {
            ExperimentRun::Builtin(_) => "builtin".to_string(),
            ExperimentRun::Scenario(cell) => format!("runbook:{}", cell.runbook),
        }
    }

    /// Runs the experiment, prints its oracle's claim, and stamps the
    /// result with its provenance hash — the single execution path for
    /// builtins and scenario cells alike, so every `SHAPES.json` row is
    /// replayable from its hash (see [`crate::scenario::provenance_hash`]).
    pub fn execute(&self) -> ExperimentResult {
        let mut result = ExperimentResult::new(&self.id);
        match &self.run {
            ExperimentRun::Builtin(f) => f(&ExperimentScale::detect(), &mut result),
            ExperimentRun::Scenario(cell) => crate::scenario::run_cell(cell, &mut result),
        }
        println!("claim: {}", self.oracle.claim);
        result.provenance = Some(crate::scenario::provenance_hash(self));
        result
    }

    /// Adds one assertion to the oracle (the registry rows' builder).
    fn check(mut self, a: Assertion) -> Self {
        self.oracle.assertions.push(a);
        self
    }
}

/// Every experiment: the builtins in paper order, each with its oracle,
/// then any cells generated from the active `EPIC_RUNBOOK` (in runbook
/// order). The builtin oracles read the scale knobs (`EPIC_THREADS`,
/// `EPIC_MILLIS`) for their grid sizes and tiers.
pub fn all_experiments() -> Vec<Experiment> {
    fn builtin(id: &str, cost: u32, run: ExperimentFn, claim: &str) -> Experiment {
        Experiment {
            id: id.to_string(),
            run: ExperimentRun::Builtin(run),
            cost,
            oracle: Oracle {
                claim: claim.to_string(),
                assertions: Vec::new(),
            },
        }
    }
    let scale = ExperimentScale::detect();
    // Throughput-ratio claims (AF vs batch and friends) need steady-state
    // trials; at smoke durations they are demoted to advisory.
    let millis = epic_util::topology::env_u64("EPIC_MILLIS", 200);
    let smoke = |a| demote_at_millis(a, SMOKE_MILLIS, millis);
    let sweep = scale.sweep.len() as f64;
    let mut all = vec![
        builtin(
            "fig1_scaling",
            20,
            fig1_scaling,
            "ABtree+debra flattens while OCCtree keeps scaling; leaking closes the gap but \
             explodes ABtree memory",
        )
        .check(at_least(
            "full 4-config sweep grid",
            "rows/fig1_scaling",
            4.0 * sweep,
        ))
        .check(smoke(
            ordering(
                "leaking explodes ABtree memory",
                "peak_mib/abtree/none/max_t",
                "peak_mib/abtree/debra/max_t",
            )
            .tol(0.10),
        ))
        .check(
            ordering(
                "OCCtree outscales ABtree under debra at max threads",
                "mops/occtree/debra/max_t",
                "mops/abtree/debra/max_t",
            )
            .advisory(),
        ),
        builtin(
            "table1_je_overhead",
            3,
            table1_je_overhead,
            "%free/%flush/%lock rise steeply with threads while epoch count collapses",
        )
        .check(at_least(
            "all thread points measured",
            "rows/table1_je_overhead",
            scale.table1_points().len() as f64,
        ))
        .check(
            ordering(
                "%free rises with threads",
                "pct_free/max_t",
                "pct_free/min_t",
            )
            .advisory()
            .tol(0.10),
        )
        .check(monotone_rising("%lock rises with threads", "pct_lock_by_threads").advisory())
        .check(
            ordering("epoch count collapses", "epochs/min_t", "epochs/max_t")
                .advisory()
                .tol(0.25),
        ),
        builtin(
            "fig2_timeline_batch",
            2,
            fig2_timeline_batch,
            "reclamation events are disproportionately longer at the higher thread count",
        )
        .check(at_least(
            "batch frees recorded at max threads",
            "timeline/max/batchfree_count",
            1.0,
        ))
        .check(
            ordering(
                "longer batch frees at higher thread count",
                "timeline/max/batchfree_mean_ns",
                "timeline/mid/batchfree_mean_ns",
            )
            .advisory()
            .tol(0.25),
        ),
        builtin(
            "fig3_timeline_af",
            2,
            fig3_timeline_af,
            "batch free shows many more high-latency free calls than amortized free",
        )
        .check(at_least(
            "batch free-call latencies recorded",
            "free_max_ns/batch",
            1.0,
        ))
        .check(
            ordering(
                "more visible (≥0.1ms) free calls under batch",
                "visible/batch",
                "visible/amortized",
            )
            .advisory(),
        )
        .check(
            ordering(
                "longer worst-case free call under batch",
                "free_max_ns/batch",
                "free_max_ns/amortized",
            )
            .advisory()
            .tol(0.25),
        ),
        builtin(
            "table2_af_counters",
            2,
            table2_af_counters,
            "amortized frees MORE objects in LESS time; lock time collapses",
        )
        .check(at_least(
            "both approaches measured",
            "rows/table2_af_counters",
            2.0,
        ))
        .check(smoke(
            ratio_at_least(
                "AF at least matches batch throughput",
                "mops/af",
                "mops/batch",
                1.0,
            )
            .tol(0.15),
        ))
        .check(
            // "Frees MORE objects": in short trials the snapshot freed
            // count depends on where the alloc-coupled drain happens to
            // sit vs the last batch spike — paper-scale claim, advisory.
            ordering(
                "AF frees at least as many objects",
                "freed/af",
                "freed/batch",
            )
            .advisory()
            .tol(0.15),
        )
        .check(
            ratio_at_least("AF ≥ 2x batch (paper: 2.6x)", "mops/af", "mops/batch", 2.0).advisory(),
        )
        .check(
            ordering("%lock collapses under AF", "pct_lock/batch", "pct_lock/af")
                .advisory()
                .tol(0.25),
        ),
        builtin(
            "fig4_garbage",
            2,
            fig4_garbage,
            "amortized freeing has far fewer peaks with only slightly higher mean garbage",
        )
        .check(at_least(
            "batch garbage series sampled",
            "garbage/batch/epochs",
            1.0,
        ))
        .check(at_least(
            "amortized garbage series sampled",
            "garbage/amortized/epochs",
            1.0,
        ))
        .check(
            ordering(
                "fewer garbage peaks under AF",
                "garbage/batch/peaks",
                "garbage/amortized/peaks",
            )
            .advisory()
            .tol(0.25),
        ),
        builtin(
            "table3_allocators",
            6,
            table3_allocators,
            "AF speeds up JE (2.6x) and TC (3.25x) but NOT MI — per-page free lists sidestep \
             the RBF problem",
        )
        .check(at_least(
            "3 allocators x 2 modes",
            "rows/table3_allocators",
            6.0,
        ))
        .check(smoke(
            at_least("AF does not hurt JE", "af_ratio/je", 1.0).tol(0.15),
        ))
        .check(smoke(
            at_least("AF does not hurt TC", "af_ratio/tc", 1.0).tol(0.15),
        ))
        .check(at_least("AF speeds up JE ≥ 2x (paper: 2.6x)", "af_ratio/je", 2.0).advisory())
        .check(at_least("AF speeds up TC ≥ 2x (paper: 3.25x)", "af_ratio/tc", 2.0).advisory())
        .check(smoke(
            at_most("MI does not improve", "af_ratio/mi", 1.10).tol(0.10),
        )),
        builtin(
            "fig5_6_naive_token",
            6,
            fig5_6_naive_token,
            "high apparent throughput but terrible reclamation: garbage pile-up, serialized frees",
        )
        .check(at_least(
            "sweep perf table complete",
            "rows/fig5_6_naive_token_perf",
            sweep,
        ))
        .check(smoke(
            at_least("garbage piles past one limbo bag", "peak_garbage", 4096.0).tol(0.25),
        ))
        .check(
            ratio_at_least("retires outpace frees (pile-up)", "retired", "freed", 1.2).advisory(),
        ),
        builtin(
            "fig7_passfirst",
            1,
            fig7_passfirst,
            "concurrent freeing now, but batch lengths still grow over time",
        )
        .check(at_least("frees actually happen", "freed", 1.0))
        .check(at_least(
            "garbage series sampled",
            "garbage/series/epochs",
            1.0,
        ))
        .check(trend_rising("batch lengths grow over the run", "garbage/series").advisory()),
        builtin(
            "fig8_periodic",
            1,
            fig8_periodic,
            "lower peak memory than pass-first, but long free calls still stall the token",
        )
        .check(at_least("token circulates", "epochs", 1.0))
        .check(at_least("frees actually happen", "freed", 1.0))
        .check(
            at_least(
                "long frees visible in the timeline",
                "timeline/timeline/batchfree_max_ns",
                1.0,
            )
            .advisory(),
        ),
        builtin(
            "fig9_10_token_af",
            6,
            fig9_10_token_af,
            "garbage pile-up gone, epoch count way up, best perf + memory of the variants",
        )
        .check(at_least(
            "sweep perf table complete",
            "rows/fig9_10_token_af_perf",
            sweep,
        ))
        .check(smoke(at_least("token circulates", "epochs", 1.0)))
        .check(
            ratio_at_least("reclamation keeps up (no pile-up)", "freed", "retired", 0.5).advisory(),
        ),
        builtin(
            "table4_token_variants",
            4,
            table4_token_variants,
            "Naive frees almost nothing; Pass-first/Periodic free lots but slowly; Amortized \
             frees the most AND is fastest",
        )
        .check(at_least(
            "all four variants measured",
            "rows/table4_token_variants",
            4.0,
        ))
        .check(at_least("periodic reclaims", "freed/periodic", 1.0))
        .check(at_least("amortized reclaims", "freed/amortized", 1.0))
        .check(
            // Token-circulation counts are wildly run-dependent in short
            // trials; the paper-scale gap (218 vs 4 epochs) is advisory.
            ordering(
                "amortized circulates the token more than pass-first",
                "epochs/amortized",
                "epochs/passfirst",
            )
            .advisory()
            .tol(0.25),
        )
        .check(
            // Paper scale: naive's serialized freeing falls hopelessly
            // behind. At smoke scale a 30 ms run frees comparably, so the
            // magnitude claim is advisory.
            ordering(
                "amortized out-frees naive",
                "freed/amortized",
                "freed/naive",
            )
            .advisory()
            .tol(0.15),
        )
        .check(
            ordering(
                "amortized faster than periodic",
                "mops/amortized",
                "mops/periodic",
            )
            .advisory()
            .tol(0.10),
        )
        .check(
            ordering("periodic out-frees naive", "freed/periodic", "freed/naive")
                .advisory()
                .tol(0.15),
        ),
        builtin(
            "fig11a_experiment1",
            65,
            fig11a_experiment1,
            "token_af on top (~1.7x next best nbr+; 7-9x hp/he) and both AF schemes beat the \
             leaky baseline",
        )
        .check(at_least(
            "13-scheme sweep grid",
            "rows/fig11a_experiment1",
            13.0 * sweep,
        ))
        .check(smoke(
            ordering("token_af beats hp", "mops/token_af/max_t", "mops/hp/max_t").tol(0.15),
        ))
        .check(
            ratio_at_least(
                "token_af ≥ 1.3x nbr+ (paper: 1.7x)",
                "mops/token_af/max_t",
                "mops/nbr+/max_t",
                1.3,
            )
            .advisory(),
        )
        .check(
            ratio_at_least(
                "token_af ≥ 3x hp (paper: 7-9x)",
                "mops/token_af/max_t",
                "mops/hp/max_t",
                3.0,
            )
            .advisory(),
        )
        .check(
            ordering(
                "token_af beats the leaky baseline",
                "mops/token_af/max_t",
                "mops/none/max_t",
            )
            .advisory()
            .tol(0.10),
        ),
        builtin(
            "fig11b_experiment2",
            20,
            fig11b_experiment2,
            "AF wins for 9/10 schemes (up to 2.3x); he does not improve; hp/wfe only ~1.2x",
        )
        .check(at_least(
            "all ten schemes measured",
            "rows/fig11b_experiment2",
            10.0,
        ))
        .check(smoke(
            fraction_below("AF wins for ≥ 9/10 schemes", "af_ratio_field", 1.0, 0.101).tol(0.15),
        ))
        .check(
            at_most("he does not improve (≤ ~1.15x)", "af_ratio/he", 1.15)
                .advisory()
                .tol(0.10),
        ),
        builtin(
            "fig12_orig_vs_af_sweep",
            100,
            fig12_orig_vs_af_sweep,
            "AF stays at or above ORIG across the whole thread sweep (ABtree)",
        )
        .check(at_least(
            "10-scheme sweep grid",
            "rows/fig12_orig_vs_af_sweep",
            10.0 * sweep,
        ))
        .check(
            crossover_absent(
                "debra AF never crosses below ORIG",
                "af_by_threads/debra",
                "orig_by_threads/debra",
            )
            .advisory()
            .tol(0.15),
        ),
        builtin(
            "fig13_dgt_orig_vs_af",
            100,
            fig13_dgt_orig_vs_af,
            "the ABtree story replays on the DGT tree (2 frees per delete)",
        )
        .check(at_least(
            "10-scheme sweep grid",
            "rows/fig13_dgt_orig_vs_af",
            10.0 * sweep,
        ))
        .check(
            crossover_absent(
                "debra AF never crosses below ORIG (DGT)",
                "af_by_threads/debra",
                "orig_by_threads/debra",
            )
            .advisory()
            .tol(0.15),
        ),
        builtin(
            "fig14_dgt_experiment1",
            65,
            fig14_dgt_experiment1,
            "token_af tops the field on the DGT tree too",
        )
        .check(at_least(
            "13-scheme sweep grid",
            "rows/fig14_dgt_experiment1",
            13.0 * sweep,
        ))
        .check(
            ratio_at_least(
                "token_af at least matches nbr+ (DGT)",
                "mops/token_af/max_t",
                "mops/nbr+/max_t",
                1.0,
            )
            .advisory(),
        ),
        builtin(
            "fig15_16_machine_presets",
            12,
            fig15_16_machine_presets,
            "the AF ranking is machine-independent; only magnitudes shift",
        )
        .check(at_least(
            "3 presets x 4 configs",
            "rows/fig15_16_machine_presets",
            12.0,
        ))
        .check(
            ordering(
                "token_af tops debra batch on intel-4s-192t",
                "mops/intel-4s-192t/token_af",
                "mops/intel-4s-192t/debra",
            )
            .advisory()
            .tol(0.10),
        )
        .check(
            ordering(
                "token_af tops debra batch on amd-2s-256t",
                "mops/amd-2s-256t/token_af",
                "mops/amd-2s-256t/debra",
            )
            .advisory()
            .tol(0.10),
        ),
        builtin(
            "fig17_visible_frees",
            2,
            fig17_visible_frees,
            "only a tiny fraction of free calls are visible (≥ 0.1 ms), and far fewer under AF",
        )
        .check(at_most(
            "visible calls a tiny fraction (batch)",
            "visible_frac/batch",
            0.05,
        ))
        .check(
            ordering(
                "fewer visible calls under AF",
                "visible/batch",
                "visible/amortized",
            )
            .advisory(),
        ),
        builtin(
            "fig18_29_allocator_timelines",
            12,
            fig18_29_allocator_timelines,
            "je/tc timelines fill with long batch frees as threads grow; mi stays clean",
        )
        .check(at_least(
            "all thread points visited",
            "thread_points",
            scale.timeline_points().len() as f64,
        ))
        .check(at_least("je sweep captured", "batchfree_ns/je/max_t", 0.0))
        .check(at_least("tc sweep captured", "batchfree_ns/tc/max_t", 0.0))
        .check(at_least("mi sweep captured", "batchfree_ns/mi/max_t", 0.0))
        .check(
            ordering(
                "je batch-free time grows with threads",
                "batchfree_ns/je/max_t",
                "batchfree_ns/je/min_t",
            )
            .advisory(),
        )
        .check(
            ordering(
                "mi timeline cleaner than je at max threads",
                "batchfree_ns/je/max_t",
                "batchfree_ns/mi/max_t",
            )
            .advisory()
            .tol(0.25),
        ),
        builtin(
            "ablation_af_drain_rate",
            4,
            ablation_af_drain_rate,
            "k=1 lets DGT garbage grow (2 frees/delete needed); k≥2 bounds it",
        )
        .check(at_least(
            "all four k values measured",
            "rows/ablation_af_drain_rate",
            4.0,
        ))
        .check(
            ordering(
                "k=1 leaves more garbage than k=2",
                "final_garbage/k1",
                "final_garbage/k2",
            )
            .advisory()
            .tol(0.25),
        ),
        builtin(
            "ablation_tcache_cap",
            3,
            ablation_tcache_cap,
            "bigger caches absorb more of each batch -> fewer flushes",
        )
        .check(at_least(
            "all cap points measured",
            "rows/ablation_tcache_cap",
            3.0,
        ))
        .check(smoke(
            monotone_falling("flushes fall as cap grows", "flushes_by_cap").tol(0.15),
        ))
        .check(
            ordering("small cap flushes most", "flushes/cap50", "flushes/cap800")
                .advisory()
                .tol(0.10),
        ),
        builtin(
            "ablation_arena_count",
            3,
            ablation_arena_count,
            "fewer arenas -> more flush collisions -> more lock waiting",
        )
        .check(at_least(
            "all arena points measured",
            "rows/ablation_arena_count",
            3.0,
        ))
        .check(
            monotone_falling("%lock falls as arenas multiply", "pct_lock_by_arenas")
                .advisory()
                .tol(0.25),
        ),
        builtin(
            "ablation_token_check_period",
            3,
            ablation_token_check_period,
            "smaller check intervals keep the token moving through long frees",
        )
        .check(at_least(
            "all interval points measured",
            "rows/ablation_token_check_period",
            3.0,
        ))
        .check(
            monotone_falling(
                "epoch count falls as the interval grows",
                "epochs_by_period",
            )
            .advisory()
            .tol(0.25),
        ),
        builtin(
            "ablation_bag_cap",
            8,
            ablation_bag_cap,
            "bigger batches hurt ORIG more, widening the AF advantage",
        )
        .check(at_least(
            "all bag caps measured",
            "rows/ablation_bag_cap",
            4.0,
        ))
        .check(
            ordering(
                "AF advantage wider at 32K bags than 512",
                "af_ratio/cap32768",
                "af_ratio/cap512",
            )
            .advisory()
            .tol(0.15),
        ),
        builtin(
            "ablation_background_free",
            3,
            ablation_background_free,
            "a background reclaimer still batch-frees (flushes/remote frees stay high); AF \
             removes them",
        )
        .check(at_least(
            "all three modes measured",
            "rows/ablation_background_free",
            3.0,
        ))
        .check(
            ordering(
                "background keeps flushing, AF does not",
                "flushes/background",
                "flushes/af",
            )
            .tol(0.25),
        )
        .check(
            ordering(
                "remote frees stay high under background",
                "remote/background",
                "remote/af",
            )
            .advisory()
            .tol(0.25),
        ),
        builtin(
            "ablation_stalled_thread",
            12,
            ablation_stalled_thread,
            "epoch/token schemes' garbage balloons while a stalled thread holds its announcement",
        )
        .check(at_least(
            "all six schemes measured",
            "rows/ablation_stalled_thread",
            6.0,
        ))
        .check(
            ratio_at_least(
                "debra garbage balloons under the stall",
                "stalled_peak_garbage/debra",
                "clean_peak_garbage/debra",
                1.0,
            )
            .advisory()
            .tol(0.25),
        ),
        builtin(
            "ablation_update_ratio",
            6,
            ablation_update_ratio,
            "the AF advantage shrinks as updates (and hence garbage) thin out",
        )
        .check(at_least(
            "all update ratios measured",
            "rows/ablation_update_ratio",
            3.0,
        ))
        .check(smoke(
            monotone_falling(
                "%free falls as updates thin out",
                "orig_pct_free_by_updates",
            )
            .tol(0.25),
        ))
        .check(
            monotone_falling("AF advantage shrinks with updates", "af_ratio_by_updates")
                .advisory()
                .tol(0.15),
        ),
        builtin(
            "ablation_pooled",
            3,
            ablation_pooled,
            "pooling sidesteps the allocator almost entirely; AF stays comparable while keeping \
             the allocator in the loop",
        )
        .check(at_least(
            "all three modes measured",
            "rows/ablation_pooled",
            3.0,
        ))
        .check(at_least(
            "pooling actually recycles",
            "pool_hits/pooled",
            1.0,
        ))
        .check(smoke(
            ordering(
                "pooling slashes allocator traffic",
                "allocs/batch",
                "allocs/pooled",
            )
            .tol(0.25),
        ))
        .check(
            ratio_at_least(
                "AF within 2x of pooled throughput",
                "mops/af",
                "mops/pooled",
                0.5,
            )
            .advisory(),
        ),
        builtin(
            "ablation_allocator_fix",
            3,
            ablation_allocator_fix,
            "je_incr's tiny flush quanta shrink lock holds, recovering much of AF's benefit at \
             the allocator layer",
        )
        .check(at_least(
            "all three configs measured",
            "rows/ablation_allocator_fix",
            3.0,
        ))
        .check(
            ordering(
                "incremental flush shrinks the flush quantum",
                "objs_per_flush/je_batch",
                "objs_per_flush/je_incr_batch",
            )
            .tol(0.15),
        )
        .check(
            ratio_at_least(
                "je_incr recovers batch throughput",
                "mops/je_incr_batch",
                "mops/je_batch",
                1.0,
            )
            .advisory(),
        ),
        builtin(
            "ablation_ds_generality",
            8,
            ablation_ds_generality,
            "AF's advantage tracks garbage volume: biggest for the ABtree, smallest for the list",
        )
        .check(at_least(
            "all four structures measured",
            "rows/ablation_ds_generality",
            4.0,
        ))
        .check(
            ordering(
                "ABtree gains at least the list's",
                "af_ratio/abtree",
                "af_ratio/hmlist",
            )
            .advisory()
            .tol(0.15),
        ),
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
    use crate::oracle::{Check, Tier};

    #[test]
    fn registry_is_complete_and_unique() {
        let all = all_experiments();
        let builtins = all.iter().filter(|e| e.origin() == "builtin").count();
        assert_eq!(builtins, 31, "the paper's artifacts, nothing else");
        let ids: std::collections::HashSet<_> = all.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids.len(), all.len(), "duplicate experiment ids");
        assert!(run_by_name("nonexistent_experiment").is_none());
        assert!(experiment_by_name("fig4_garbage").is_some());
        let mut tables_judged = 0;
        for e in &all {
            assert!(!e.oracle.claim.is_empty(), "{} has no claim", e.id);
            assert!(
                e.oracle.assertions.iter().any(|a| a.tier == Tier::Strict),
                "{}'s oracle has no strict assertion — nothing gates CI",
                e.id
            );
            // A row judges only its own tables: `rows/<table>` metrics are
            // emitted under the table's id, which starts with the row's.
            for a in &e.oracle.assertions {
                let named = match &a.check {
                    Check::RatioAtLeast { num, den, .. } => vec![num, den],
                    Check::Ordering { greater, lesser } => vec![greater, lesser],
                    Check::AtLeast { metric, .. } | Check::AtMost { metric, .. } => vec![metric],
                    _ => Vec::new(),
                };
                for table in named.iter().filter_map(|m| m.strip_prefix("rows/")) {
                    assert!(table.starts_with(&e.id), "{} judges {table}", e.id);
                    tables_judged += 1;
                }
            }
        }
        assert_eq!(tables_judged, 24, "one grid-completeness check per table");
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
