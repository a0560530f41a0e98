//! Direct probes of single layers, with no map in the way.
//!
//! The workloads time `ds` + `core` together (a map call enters both);
//! these loops call `core`'s per-operation primitives alone, one thread,
//! under the same pinned configuration, so a change to the guard, the
//! protected load or the retire path shows as its own number. The last
//! probe runs `epic_harness::workload::run_trial` against this benchmark's
//! own driver on one configuration.

use crate::config::{
    Cell, AB_DEBRA_AF, AB_DEBRA_BATCH, AB_IBR_READ, COST, KEY_RANGE, TCACHE_CAP, THREADS,
};
use crate::driver::{round_seed, Probe, Round};
use epic_alloc::build_allocator_with;
use epic_harness::config::WorkloadCfg;
use epic_harness::workload::run_trial;
use epic_smr::{build_smr, SmrKind};
use epic_util::now_ns;
use std::hint::black_box;
use std::sync::atomic::AtomicUsize;
use std::time::Instant;

/// The scheme configurations the `core` probes run under: those of the
/// single-cell workloads, and hazard pointers, which no workload can carry
/// (see [`AB_IBR_READ`]) but whose single-thread path costs are steady.
pub const CORE_CONFIGS: [(&str, Cell); 4] = [
    ("debra-batch", AB_DEBRA_BATCH),
    ("debra-af", AB_DEBRA_AF),
    (
        "hp-af",
        Cell {
            smr: SmrKind::Hp,
            ..AB_IBR_READ
        },
    ),
    ("ibr-af", AB_IBR_READ),
];
pub const CORE_PROBES: [&str; 3] = ["guard_ns", "protect_load_ns", "retire_cycle_ns"];

/// Iterations between looks at the clock: several DEBRA epochs, so a
/// chunk of the retire cycle always contains whole batch frees.
const CHUNK: u64 = 32_768;

/// ns per iteration of `step`, run in chunks until `budget_s` is spent.
fn ns_per_iter(budget_s: f64, mut step: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut iters = 0;
    loop {
        for _ in 0..CHUNK {
            step();
        }
        iters += CHUNK;
        let spent = started.elapsed();
        if spent.as_secs_f64() >= budget_s {
            return spent.as_nanos() as f64 / iters as f64;
        }
    }
}

/// Cost of one `now_ns()`, the clock every span and sample reads twice.
pub fn clock_ns(budget_s: f64) -> f64 {
    ns_per_iter(budget_s, || {
        black_box(now_ns());
    })
}

/// `[guard_ns, protect_load_ns, retire_cycle_ns]` for `cell`'s scheme,
/// `budget_s` each, on thread id 0 with thread id 1 never started.
pub fn core_probes(cell: &Cell, budget_s: f64) -> [f64; 3] {
    let alloc = build_allocator_with(cell.alloc, THREADS, COST, Some(TCACHE_CAP));
    let smr = build_smr(cell.smr, alloc, cell.smr_config());
    let h = smr.register(0);

    let guard = ns_per_iter(budget_s, || drop(black_box(h.begin_op())));

    let protect = {
        let g = h.begin_op();
        let node = g.alloc(64);
        let link = AtomicUsize::new(node.as_ptr() as usize);
        let ns = ns_per_iter(budget_s, || {
            black_box(g.protect_load(0, black_box(&link)).is_ok());
        });
        g.retire(node);
        ns
    };

    // `alloc` + `retire` under a guard, less the guard: the steady state
    // of a copy-on-write update's reclamation, batch frees included.
    let cycle = ns_per_iter(budget_s, || {
        let g = h.begin_op();
        g.retire(black_box(g.alloc(64)));
    });

    h.detach();
    smr.quiesce_and_drain();
    [guard, protect, (cycle - guard).max(0.0)]
}

/// Every `core` probe under every config, in [`CORE_CONFIGS`] order.
pub fn all_core_probes(budget_s: f64) -> Vec<[f64; 3]> {
    let each = budget_s / (CORE_CONFIGS.len() * CORE_PROBES.len()) as f64;
    CORE_CONFIGS
        .iter()
        .map(|(_, cell)| core_probes(cell, each))
        .collect()
}

/// `run_trial` throughput over this driver's, same configuration
/// (`ab-debra-af`) and op budget, median of alternating pairs until
/// `budget_s` is spent. Guards `harness/workload.rs`: a probe added to its
/// loop shows as a drop from the parent's reading (1.0 ± 0.05 on this box).
pub fn run_trial_ratio(seed: u64, budget_s: f64) -> f64 {
    let cell = &AB_DEBRA_AF;
    let cfg = WorkloadCfg {
        free_mode: cell.mode,
        alloc_kind: cell.alloc,
        cost: COST,
        key_range: KEY_RANGE,
        prefill: true,
        bag_cap: cell.smr_config().bag_cap,
        af_backlog_cap: cell.smr_config().af_backlog_cap,
        epoch_check_every: cell.epoch_check_every,
        token_check_every: cell.smr_config().token_check_every,
        tcache_cap: Some(TCACHE_CAP),
        update_ratio: 1.0,
        op_budget: Some(cell.ops_per_thread),
        ..WorkloadCfg::new(cell.tree, cell.smr, THREADS)
    };
    let started = Instant::now();
    let mut ratios = Vec::new();
    loop {
        let pair = ratios.len() as u64;
        let harness = || run_trial(&cfg.clone().with_seed(seed ^ pair)).throughput / 1e6;
        let own = || {
            // Rounds far from the ones the workloads use.
            Round::setup(cell, round_seed(seed, 99, pair), pair, false)
                .measure(Probe::Off, cell.ops_per_thread)
                .mops()
        };
        let (h, o) = if pair.is_multiple_of(2) {
            let h = harness();
            (h, own())
        } else {
            let o = own();
            (harness(), o)
        };
        ratios.push(h / o);
        let spent = started.elapsed().as_secs_f64();
        if spent + spent / ratios.len() as f64 > budget_s {
            return crate::report::median(&mut ratios);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_probes_run_under_every_config() {
        for per_config in all_core_probes(0.12) {
            for ns in per_config {
                assert!((0.0..100_000.0).contains(&ns), "{ns}");
            }
        }
        assert!(clock_ns(0.01) > 0.0);
    }
}
