//! The workloads and every pinned simulation input.
//!
//! Nothing here is read from the machine or the environment: `CostModel`
//! and `SmrConfig` are built field by field (`SmrConfig::new` reads
//! `EPIC_BAG_CAP` / `EPIC_AF_BACKLOG_CAP`, `CostModel::default_for_machine`
//! reads the CPU count), so `--seed` is the benchmark's only input.

use epic_alloc::{AllocatorKind, CostModel};
use epic_ds::TreeKind;
use epic_smr::{FreeMode, SmrConfig, SmrKind};
use epic_timeline::Recorder;
use epic_util::Json;
use std::sync::Arc;

/// Client threads of the closed loop; the box has 2 CPUs.
pub const THREADS: usize = 2;
/// Keys are uniform over this range …
pub const KEY_RANGE: u64 = 16_384;
/// … and the map is prefilled to this many before each round.
pub const PREFILL: u64 = KEY_RANGE / 2;
/// One map call in this many is timed in an untraced run.
pub const SAMPLE_ONE_IN: u64 = 64;
/// Thread-cache capacity of the `je` / `tc` models, in objects.
pub const TCACHE_CAP: usize = 200;
pub const BAG_CAP: usize = 4096;
pub const AF_BACKLOG_CAP: usize = 16_384;
/// DEBRA's *k*. An epoch lasts ≈ threads × k ops, so at 2 threads k = 4096
/// retires ≈ 3 000 objects per batch, 15× the thread cache; at the repo
/// default of 100 a batch (~200) only just fills the cache and the batch
/// free this benchmark exists to measure never overflows it.
pub const DEBRA_K: usize = 4096;
/// The repo default, for the schemes whose batch size `BAG_CAP` sets.
pub const DEFAULT_K: usize = 100;

/// The allocator cost model of every cell: this container's calibrated
/// remote-free penalty, with the CPU count pinned instead of detected.
pub const COST: CostModel = CostModel {
    remote_penalty_ns: 600,
    refill_penalty_ns: 0,
    arenas_per_cpu: 4,
    assumed_cpus: 2,
};

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// "higher" or "lower".
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every bound is the contract's maximum. On this 2-vCPU VM ten runs of
/// one commit spread (quartile to quartile) 4–11 % on each of these, in
/// slow phases no statistic inside a run removes; a tighter bound would
/// reject the benchmark against itself (README.md, "Steadiness").
pub const END_TO_END: [EndToEnd; 4] = [
    e2e("throughput_mops", "Mops/s", "higher", 0.25),
    e2e("op_p50_ns", "ns", "lower", 0.25),
    e2e("op_p95_ns", "ns", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// One scheme × free mode × allocator × tree configuration.
pub struct Cell {
    pub name: &'static str,
    pub tree: TreeKind,
    pub smr: SmrKind,
    pub mode: FreeMode,
    pub alloc: AllocatorKind,
    pub epoch_check_every: usize,
    /// Percent of ops that are `get`; the rest are 50/50 insert/remove.
    pub get_pct: u64,
    /// Fixed op budget of one round, per thread: ≈ 0.4–1 s on this box.
    pub ops_per_thread: u64,
}

/// A named set of cells run back to back, sharing the run's seconds evenly.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub cells: &'static [Cell],
}

const AF1: FreeMode = FreeMode::Amortized { per_op: 1 };
/// A DGT delete retires two nodes (`frees_per_delete_hint`).
const AF2: FreeMode = FreeMode::Amortized { per_op: 2 };

pub const AB_DEBRA_AF: Cell = Cell {
    name: "ab-debra-af",
    tree: TreeKind::Ab,
    smr: SmrKind::Debra,
    mode: AF1,
    alloc: AllocatorKind::Je,
    epoch_check_every: DEBRA_K,
    get_pct: 0,
    ops_per_thread: 1_500_000,
};

/// The same-seed pair of [`AB_DEBRA_AF`]: nothing differs but the free mode.
pub const AB_DEBRA_BATCH: Cell = Cell {
    name: "ab-debra-batch",
    mode: FreeMode::Batch,
    ..AB_DEBRA_AF
};

/// The read-mostly cell. Hazard pointers were the first choice and are not
/// usable: `HpSmr` keeps all threads' slots in one unpadded array, so
/// whether two threads' slots share a cache line depends on where malloc
/// put the array, and identical rounds ran at 4.0 to 11.5 Mops/s
/// (README.md, "Rejected"). IBR pads its reservations.
pub const AB_IBR_READ: Cell = Cell {
    name: "ab-ibr-read",
    smr: SmrKind::Ibr,
    epoch_check_every: DEFAULT_K,
    get_pct: 90,
    ops_per_thread: 4_000_000,
    ..AB_DEBRA_AF
};

/// The cells of `field-mix`, which also name its `cell.<name>.mops` lines.
pub const FIELD_MIX_CELLS: [Cell; 4] = [
    Cell {
        name: "ibr-batch-tc-ab",
        smr: SmrKind::Ibr,
        mode: FreeMode::Batch,
        alloc: AllocatorKind::Tc,
        epoch_check_every: DEFAULT_K,
        ops_per_thread: 600_000,
        ..AB_DEBRA_AF
    },
    Cell {
        name: "rcu-batch-mi-ab",
        smr: SmrKind::Rcu,
        mode: FreeMode::Batch,
        alloc: AllocatorKind::Mi,
        epoch_check_every: DEFAULT_K,
        ops_per_thread: 1_000_000,
        ..AB_DEBRA_AF
    },
    Cell {
        name: "qsbr-af-mi-occ",
        tree: TreeKind::Occ,
        smr: SmrKind::Qsbr,
        alloc: AllocatorKind::Mi,
        epoch_check_every: DEFAULT_K,
        ops_per_thread: 1_000_000,
        ..AB_DEBRA_AF
    },
    Cell {
        name: "nbrplus-af-je-dgt",
        tree: TreeKind::Dgt,
        smr: SmrKind::NbrPlus,
        mode: AF2,
        epoch_check_every: DEFAULT_K,
        ops_per_thread: 700_000,
        ..AB_DEBRA_AF
    },
];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ab-debra-batch",
        why: "The paper's pathology: 3000-object DEBRA batch frees overflow the 200-slot je thread cache, so allocsim flush and lock wait take about a third of thread time.",
        cells: &[AB_DEBRA_BATCH],
    },
    Workload {
        name: "ab-debra-af",
        why: "The paper's fix and the paired control: same config and seed as ab-debra-batch with amortized free, so flushes vanish and time moves to ds, core and the allocsim fast path.",
        cells: &[AB_DEBRA_AF],
    },
    Workload {
        name: "ab-ibr-read",
        why: "90% get under interval-based reclamation: core's per-hop protect_load and begin_op/end_op dominate and allocsim is nearly idle, the bypass workload for every allocator or free-path change.",
        cells: &[AB_IBR_READ],
    },
    Workload {
        name: "field-mix",
        why: "Four update-only cells back to back (ibr/tc, rcu/mi, qsbr-af/mi/occ, nbr+-af/je/dgt): breadth guard over tc and mi, era and neutralization schemes, and the OCC and DGT trees.",
        cells: &FIELD_MIX_CELLS,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Cell {
    /// The scheme configuration, every field stated.
    pub fn smr_config(&self) -> SmrConfig {
        SmrConfig {
            max_threads: THREADS,
            mode: self.mode,
            bag_cap: BAG_CAP,
            epoch_check_every: self.epoch_check_every,
            token_check_every: 100,
            era_freq: 64,
            af_backlog_cap: AF_BACKLOG_CAP,
            hp_slots: 8,
            free_call_record_ns: u64::MAX,
            recorder: Arc::new(Recorder::disabled(THREADS)),
            garbage_series: None,
        }
    }

    /// The resolved configuration, for `result.json`.
    pub fn describe(&self) -> Json {
        let c = self.smr_config();
        let num = |v: usize| Json::Num(v as f64);
        Json::Obj(vec![
            ("cell".into(), Json::Str(self.name.into())),
            ("tree".into(), Json::Str(self.tree.name().into())),
            ("scheme".into(), Json::Str(self.smr.base_name().into())),
            ("free_mode".into(), Json::Str(format!("{:?}", self.mode))),
            ("allocator".into(), Json::Str(self.alloc.name().into())),
            ("get_pct".into(), Json::Num(self.get_pct as f64)),
            (
                "ops_per_thread_per_round".into(),
                Json::Num(self.ops_per_thread as f64),
            ),
            ("bag_cap".into(), num(c.bag_cap)),
            ("af_backlog_cap".into(), num(c.af_backlog_cap)),
            ("epoch_check_every".into(), num(c.epoch_check_every)),
            ("token_check_every".into(), num(c.token_check_every)),
            ("era_freq".into(), num(c.era_freq)),
            ("hp_slots".into(), num(c.hp_slots)),
        ])
    }
}

/// The inputs shared by every cell, for `result.json`.
pub fn describe_shared() -> Json {
    let num = |v: u64| Json::Num(v as f64);
    Json::Obj(vec![
        ("threads".into(), num(THREADS as u64)),
        ("key_range".into(), num(KEY_RANGE)),
        ("prefill".into(), num(PREFILL)),
        ("sample_one_in".into(), num(SAMPLE_ONE_IN)),
        ("tcache_cap".into(), num(TCACHE_CAP as u64)),
        ("remote_penalty_ns".into(), num(COST.remote_penalty_ns)),
        ("refill_penalty_ns".into(), num(COST.refill_penalty_ns)),
        ("arenas_per_cpu".into(), num(COST.arenas_per_cpu as u64)),
        ("assumed_cpus".into(), num(COST.assumed_cpus as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_batch_and_af_workloads_differ_only_in_free_mode() {
        let (batch, af) = (&WORKLOADS[0].cells[0], &WORKLOADS[1].cells[0]);
        assert_eq!(batch.mode, FreeMode::Batch);
        assert_eq!(af.mode, AF1);
        assert_eq!(
            (
                batch.tree,
                batch.smr,
                batch.alloc,
                batch.epoch_check_every,
                batch.get_pct
            ),
            (af.tree, af.smr, af.alloc, af.epoch_check_every, af.get_pct)
        );
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .flat_map(|w| w.cells.iter().map(|c| c.name))
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
        for w in &WORKLOADS {
            assert!(workload(w.name).is_some());
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(workload("nope").is_none());
    }
}
