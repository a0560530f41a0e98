//! The three scenario rows: workload axes the paper's figures hold fixed.
//!
//! * `scenario_skew` — Zipf-skewed keys (θ 0.5 and 0.9) against the
//!   paper's uniform keys, ABtree under DEBRA and NBR+.
//! * `scenario_oversub` — twice as many workers as logical CPUs (the
//!   small-machine stand-in for the paper's more-threads-than-cores
//!   runs), hmlist under RCU and DEBRA, batch and amortized free.
//! * `scenario_churn` — every worker detaching its handle and
//!   re-registering every 1 024 or 4 096 operations, against no churn
//!   (the detach-liveness workload), ABtree under RCU.
//!
//! Each row is a plain [`ExperimentFn`](crate::experiments::ExperimentFn)
//! whose grid is a list of cells, and a cell is a label plus a
//! [`WorkloadCfg`]. The label seeds its cell:
//! `SplitMix64(42 ^ fnv1a(label))`, so every process on every machine
//! runs the same key streams. Each cell runs its timed trials, then a
//! single-thread determinism probe of [`DET_PROBE_OPS`] operations whose
//! `det/*` counters `epic-run replay` diffs (DESIGN.md §12).

use crate::config::{ExperimentScale, KeyDist, WorkloadCfg};
use crate::oracle::{at_least, Assertion};
use crate::provenance::{fnv1a, FNV_BASIS};
use crate::report::ExperimentResult;
use crate::workload::{run_trial, run_trials};

use epic_ds::TreeKind;
use epic_smr::{FreeMode, SmrKind};
use epic_util::{SplitMix64, Topology};

/// Fixed operation budget of the single-thread determinism probe every
/// cell runs after its timed trials (a multiple of the worker's 64-op
/// inner loop, so the budget lands exactly). The probe's `det/*`
/// counters are what `epic-run replay` diffs.
pub const DET_PROBE_OPS: u64 = 4096;

/// A grid point: the label that names and seeds it, and its workload.
pub(crate) type Cell = (String, WorkloadCfg);

/// Seeds `cfg` from `label`.
fn cell(label: String, cfg: WorkloadCfg) -> Cell {
    let seed = SplitMix64::new(42 ^ fnv1a(FNV_BASIS, &label)).next_u64();
    (label, cfg.with_seed(seed))
}

/// `scenario_skew`'s grid: ABtree, 2 threads, a 4 096-key range, DEBRA
/// and NBR+ × uniform, Zipf 0.5 and Zipf 0.9 keys.
pub(crate) fn skew_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (smr, name) in [(SmrKind::Debra, "debra"), (SmrKind::NbrPlus, "nbrp")] {
        for dist in [
            KeyDist::Uniform,
            KeyDist::Zipf { theta: 0.5 },
            KeyDist::Zipf { theta: 0.9 },
        ] {
            let mut cfg = WorkloadCfg::new(TreeKind::Ab, smr, 2).with_key_dist(dist);
            cfg.key_range = 4096;
            let label = format!("sc_skew_{name}_abtree_je_t2_{}", dist.token());
            cells.push(cell(label, cfg));
        }
    }
    cells
}

/// `scenario_oversub`'s grid: hmlist at 2 × the logical CPUs of the
/// machine that runs it, RCU and DEBRA × batch and amortized free.
pub(crate) fn oversub_cells() -> Vec<Cell> {
    let threads = 2 * Topology::detect().logical_cpus;
    let mut cells = Vec::new();
    for (smr, name) in [(SmrKind::Rcu, "rcu"), (SmrKind::Debra, "debra")] {
        for mode in [FreeMode::Batch, FreeMode::amortized()] {
            let cfg = WorkloadCfg::new(TreeKind::Hm, smr, threads).with_mode(mode);
            let label = format!("sc_oversub_{name}{}_hmlist_je_t2x_u", mode.suffix());
            cells.push(cell(label, cfg));
        }
    }
    cells
}

/// `scenario_churn`'s grid: ABtree under RCU, 2 threads, with no churn
/// and with a detach / re-register every 1 024 and 4 096 operations.
pub(crate) fn churn_cells() -> Vec<Cell> {
    let base = "sc_churn_rcu_abtree_je_t2_u";
    let cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Rcu, 2);
    let mut cells = vec![cell(base.to_string(), cfg.clone())];
    for every in [1024, 4096] {
        cells.push(cell(
            format!("{base}_c{every}"),
            cfg.clone().with_churn(every),
        ));
    }
    cells
}

/// The `scenario_skew` row.
pub fn scenario_skew(scale: &ExperimentScale, out: &mut ExperimentResult) {
    run_cells(&skew_cells(), scale, out);
}

/// The `scenario_oversub` row.
pub fn scenario_oversub(scale: &ExperimentScale, out: &mut ExperimentResult) {
    run_cells(&oversub_cells(), scale, out);
}

/// The `scenario_churn` row.
pub fn scenario_churn(scale: &ExperimentScale, out: &mut ExperimentResult) {
    run_cells(&churn_cells(), scale, out);
}

fn run_cells(cells: &[Cell], scale: &ExperimentScale, out: &mut ExperimentResult) {
    for (label, cfg) in cells {
        run_cell(label, cfg, scale.trials, out);
    }
}

/// The single-thread determinism probe of `cfg`: same seed, key range,
/// distribution, free mode and churn, but one thread and a fixed
/// [`DET_PROBE_OPS`] budget — bit-for-bit reproducible counters (the
/// replay contract), however noisy the timed trials were.
fn det_probe(cfg: &WorkloadCfg) -> WorkloadCfg {
    let mut probe = cfg.clone().with_op_budget(DET_PROBE_OPS);
    probe.threads = 1;
    probe
}

/// Runs one cell: `trials` timed trials, then the determinism probe.
/// Every metric is keyed `<name>/<label>`.
fn run_cell(label: &str, cfg: &WorkloadCfg, trials: usize, out: &mut ExperimentResult) {
    let summary = run_trials(cfg, trials);
    let det = run_trial(&det_probe(cfg));
    for (name, value) in [
        ("threads", cfg.threads as f64),
        ("mops", summary.throughput.mean() / 1e6),
        ("rel_ci95/mops", summary.throughput_rel_ci95()),
        ("ops", summary.last.ops as f64),
        ("retired", summary.last.smr.retired as f64),
        ("freed", summary.last.smr.freed as f64),
        ("peak_mib", summary.peak_mib.mean()),
        ("det/ops", det.ops as f64),
        ("det/retired", det.smr.retired as f64),
        ("det/freed", det.smr.freed as f64),
        ("det/allocs", det.alloc.totals.allocs as f64),
        ("det/deallocs", det.alloc.totals.deallocs as f64),
    ] {
        out.metric(format!("{name}/{label}"), value);
    }
    println!(
        "{label}: {} threads, {:.2} Mops/s, det probe {} ops / {} retired / {} allocs",
        cfg.threads,
        summary.throughput.mean() / 1e6,
        det.ops,
        det.smr.retired,
        det.alloc.totals.allocs,
    );
}

/// The four checks every cell adds to its row's oracle: the timed trials
/// completed operations, the probe ran exactly its budget, the probe's
/// counters were recorded, and (advisory) throughput is positive.
pub(crate) fn cell_checks(cells: &[Cell]) -> Vec<Assertion> {
    let mut checks = Vec::new();
    for (label, _) in cells {
        let key = |name: &str| format!("{name}/{label}");
        checks.extend([
            at_least(
                &format!("{label}: timed trial completed operations"),
                &key("ops"),
                1.0,
            ),
            at_least(
                &format!("{label}: determinism probe ran its fixed budget"),
                &key("det/ops"),
                DET_PROBE_OPS as f64,
            )
            .tol(0.0),
            at_least(
                &format!("{label}: probe counters recorded"),
                &key("det/allocs"),
                0.0,
            ),
            at_least(
                &format!("{label}: throughput is positive"),
                &key("mops"),
                0.0,
            )
            .advisory(),
        ]);
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Check, Tier};

    fn all_cells() -> Vec<Cell> {
        [skew_cells(), oversub_cells(), churn_cells()].concat()
    }

    /// The 13 labels and the seeds they derive, pinned: a label or seed
    /// that moves changes every `det/*` counter of its cell.
    #[test]
    fn seeds_derive_deterministically_and_decorrelate() {
        const PINNED: [(&str, u64); 13] = [
            ("sc_skew_debra_abtree_je_t2_u", 0x6778_8d05_b785_0f63),
            ("sc_skew_debra_abtree_je_t2_z050", 0x5d01_ea30_8af7_56df),
            ("sc_skew_debra_abtree_je_t2_z090", 0x11ea_08d5_ef4d_4ea3),
            ("sc_skew_nbrp_abtree_je_t2_u", 0xc96b_c4d9_dd41_5131),
            ("sc_skew_nbrp_abtree_je_t2_z050", 0xa758_55e2_745d_c126),
            ("sc_skew_nbrp_abtree_je_t2_z090", 0x9d62_1ea0_d037_0d1c),
            ("sc_oversub_rcu_hmlist_je_t2x_u", 0x7d6a_99f3_b0cf_61c4),
            ("sc_oversub_rcu_af_hmlist_je_t2x_u", 0x7fac_71bd_12b1_4e58),
            ("sc_oversub_debra_hmlist_je_t2x_u", 0xa6a6_994e_d5f7_0fda),
            ("sc_oversub_debra_af_hmlist_je_t2x_u", 0x9a2d_f0c4_83c5_895f),
            ("sc_churn_rcu_abtree_je_t2_u", 0xc1df_45f5_b985_09f5),
            ("sc_churn_rcu_abtree_je_t2_u_c1024", 0xb4f1_5dc6_3bbe_e32a),
            ("sc_churn_rcu_abtree_je_t2_u_c4096", 0x7269_de60_4ef8_de34),
        ];
        let cells = all_cells();
        assert_eq!(cells.len(), PINNED.len());
        for ((label, cfg), (want, seed)) in cells.iter().zip(PINNED) {
            assert_eq!(label, want);
            assert_eq!(
                cfg.seed,
                SplitMix64::new(42 ^ fnv1a(FNV_BASIS, label)).next_u64(),
                "{label}"
            );
            assert_eq!(cfg.seed, seed, "{label}");
        }
        let seeds: std::collections::HashSet<_> = cells.iter().map(|(_, c)| c.seed).collect();
        assert_eq!(seeds.len(), cells.len(), "per-cell seeds decorrelate");
    }

    #[test]
    fn cell_workload_carries_every_axis() {
        let cells = all_cells();
        let find = |label: &str| &cells.iter().find(|(l, _)| l == label).unwrap().1;
        let skew = find("sc_skew_nbrp_abtree_je_t2_z090");
        assert_eq!(skew.smr_kind, SmrKind::NbrPlus);
        assert_eq!(skew.key_dist, KeyDist::Zipf { theta: 0.9 });
        assert_eq!(skew.key_range, 4096);
        let oversub = find("sc_oversub_debra_af_hmlist_je_t2x_u");
        assert_eq!(oversub.tree, TreeKind::Hm);
        assert_eq!(oversub.free_mode, FreeMode::amortized());
        assert_eq!(oversub.threads, 2 * Topology::detect().logical_cpus);
        let churn = find("sc_churn_rcu_abtree_je_t2_u_c1024");
        assert_eq!(churn.churn_every_ops, Some(1024));
        assert_eq!(find("sc_churn_rcu_abtree_je_t2_u").churn_every_ops, None);
        // det probe: same stream-shaping knobs, fixed budget, one thread.
        let det = det_probe(churn);
        assert_eq!(det.threads, 1);
        assert_eq!(det.op_budget, Some(DET_PROBE_OPS));
        assert_eq!(det.seed, churn.seed);
        assert_eq!(det.churn_every_ops, Some(1024));
    }

    /// An axis a row does not sweep keeps the paper workload's value, so
    /// `EPIC_KEYRANGE` still scales every grid but skew's.
    #[test]
    fn defaults_fill_optional_axes() {
        let _guard = crate::report::env_lock(); // other tests set EPIC_KEYRANGE
        let paper = WorkloadCfg::new(TreeKind::Ab, SmrKind::Rcu, 2);
        for (label, cfg) in all_cells() {
            assert_eq!(cfg.alloc_kind, epic_alloc::AllocatorKind::Je, "{label}");
            assert_eq!(cfg.update_ratio, 1.0, "{label}");
            assert_eq!(cfg.op_budget, None, "{label}");
            if !label.starts_with("sc_skew_") {
                assert_eq!(cfg.key_range, paper.key_range, "{label}");
                assert_eq!(cfg.key_dist, KeyDist::Uniform, "{label}");
            }
            if !label.starts_with("sc_oversub_") {
                assert_eq!(cfg.free_mode, FreeMode::Batch, "{label}");
            }
            if !label.starts_with("sc_churn_") {
                assert_eq!(cfg.churn_every_ops, None, "{label}");
            }
        }
    }

    /// Every cell contributes its four checks, in cell order, and each
    /// names a metric `run_cell` writes.
    #[test]
    fn synthesized_oracles_match_experiments_in_order() {
        let (label, cfg) = churn_cells().remove(1);
        let mut cfg = cfg.with_op_budget(256);
        cfg.key_range = 512;
        let mut out = ExperimentResult::new("scenario_churn");
        run_cell(&label, &cfg, 1, &mut out);
        let cells = vec![(label.clone(), cfg)];
        let checks = cell_checks(&cells);
        assert_eq!(checks.len(), 4);
        for a in &checks {
            assert!(a.label.starts_with(&label), "{}", a.label);
            let Check::AtLeast { metric, .. } = &a.check else {
                panic!("{}: not an at_least", a.label);
            };
            assert!(out.get(metric).is_some(), "run_cell never writes {metric}");
        }
        assert_eq!(out.get(&format!("det/ops/{label}")), Some(4096.0));
        let strict = checks.iter().filter(|a| a.tier == Tier::Strict).count();
        assert_eq!(strict, 3, "one advisory throughput floor per cell");
        let all = cell_checks(&all_cells());
        assert_eq!(all.len(), 4 * 13);
    }
}
