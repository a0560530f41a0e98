//! Retire-pipeline microbenchmark: ns/retire and heap allocations/retire
//! for every scheme, in two regimes.
//!
//! * **burst** — a fresh scheme instance absorbs a pre-allocated batch of
//!   retirements with reclamation thresholds pushed out of reach, then
//!   drains it back to the allocator. Timing covers the full
//!   retire→rotate→drain→free pipeline (insertion alone would let a
//!   spine-copying design defer its header traffic into the untimed
//!   dealloc), so spine reallocations, memcpys and drain iteration are all
//!   charged to the scheme under test. The minimum over rounds is
//!   reported, criterion-style, as the low-noise estimate.
//! * **steady** — an amortized-free churn loop (begin / alloc / retire /
//!   end) past warm-up, where bag rotation, reclamation scans and the
//!   freeable-list drain all run at their steady-state rates. A correct
//!   zero-allocation pipeline performs **no** heap allocation here at all.
//!
//! Heap traffic is observed from below through [`CountingAlloc`], so the
//! alloc columns are ground truth rather than self-reported; the
//! scheme-reported `retire_path_allocs` counter (segment-pool misses) is
//! printed alongside for cross-checking. Both read 0 for every reclaiming
//! scheme. This is an instrument, not a gate: shared hardware makes its
//! ns/op advisory, and the zero-allocation invariant is asserted exactly,
//! for every scheme, by `cargo test -p epic-ds --test no_global_heap`.
//! Results go to stdout and to `results/BENCH_retire.json`; the record from
//! before the intrusive-bag rewrite is in commit `f78971e`.
//!
//! Knobs: `EPIC_RETIRE_BURST` (objects per burst round, default 32768),
//! `EPIC_RETIRE_ROUNDS` (burst rounds, default 5), `EPIC_RETIRE_OPS`
//! (measured steady ops, default 200000).

use epic_alloc::{build_allocator, AllocatorKind, CostModel};
use epic_harness::report::results_dir;
use epic_smr::{build_smr, FreeMode, SmrConfig, SmrKind};
use epic_util::topology::env_usize;
use epic_util::{now_ns, CountingAlloc};

use std::fmt::Write as _;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Row {
    scheme: &'static str,
    burst_ns: f64,
    burst_allocs: f64,
    steady_ns: f64,
    steady_allocs: f64,
    smr_retire_path_allocs: u64,
}

/// Burst regime: time `retire` calls into a fresh scheme whose reclamation
/// thresholds cannot fire mid-loop, plus the drain handing the batch back
/// to the allocator.
fn bench_burst(kind: SmrKind, burst: usize, rounds: usize) -> (f64, f64) {
    let mut best_ns = u64::MAX;
    let mut total_allocs = 0u64;
    for _ in 0..rounds {
        let alloc = build_allocator(AllocatorKind::Je, 1, CostModel::zero());
        let mut cfg = SmrConfig::new(1).with_bag_cap(burst * 2);
        cfg.era_freq = 64;
        let smr = build_smr(kind, std::sync::Arc::clone(&alloc), cfg).into_raw();
        let blocks: Vec<_> = (0..burst)
            .map(|_| {
                let p = alloc.alloc(0, 64);
                smr.on_alloc(0, p);
                p
            })
            .collect();
        let (ns, allocs) = CountingAlloc::count(|| {
            let t0 = now_ns();
            for &p in &blocks {
                // A real caller retires a node it just unlinked: the
                // operation has touched the node's memory moments before.
                // Reproduce that locality so the bench measures the
                // production call pattern, not a cold-memory sweep.
                // SAFETY: `p` is a live 64-byte block owned by this loop.
                unsafe { (p.as_ptr() as *mut u64).write(0) };
                smr.retire(0, p);
            }
            smr.quiesce_and_drain();
            now_ns() - t0
        });
        best_ns = best_ns.min(ns);
        total_allocs += allocs;
    }
    (
        best_ns as f64 / burst as f64,
        total_allocs as f64 / (burst * rounds) as f64,
    )
}

/// Steady regime: amortized-free churn, measured past warm-up. The ns/op
/// figure is the best of several measurement windows (noise floor);
/// allocation counts cover every window (a single stray allocation must
/// not be averaged away).
fn bench_steady(kind: SmrKind, ops: usize) -> (f64, f64, u64) {
    const WINDOWS: usize = 5;
    let alloc = build_allocator(AllocatorKind::Je, 1, CostModel::zero());
    let mut cfg = SmrConfig::new(1)
        .with_mode(FreeMode::amortized())
        .with_bag_cap(256);
    cfg.epoch_check_every = 4;
    cfg.era_freq = 64;
    let smr = build_smr(kind, std::sync::Arc::clone(&alloc), cfg).into_raw();
    let churn = |n: usize| {
        for _ in 0..n {
            smr.begin_op(0);
            let p = alloc.alloc(0, 64);
            smr.on_alloc(0, p);
            smr.retire(0, p);
            smr.end_op(0);
        }
    };
    // Warm-up: let bags, freeable lists, scratch and chunk store reach
    // their steady footprint.
    churn(ops.max(4096) / 2);
    let per_window = (ops / WINDOWS).max(1);
    let snap0 = smr.stats();
    let mut best_ns = u64::MAX;
    let ((), allocs) = CountingAlloc::count(|| {
        for _ in 0..WINDOWS {
            let t0 = now_ns();
            churn(per_window);
            best_ns = best_ns.min(now_ns() - t0);
        }
    });
    let snap1 = smr.stats();
    smr.quiesce_and_drain();
    (
        best_ns as f64 / per_window as f64,
        allocs as f64 / (per_window * WINDOWS) as f64,
        snap1.retire_path_allocs - snap0.retire_path_allocs,
    )
}

fn main() {
    let burst = env_usize("EPIC_RETIRE_BURST", 32_768);
    let rounds = env_usize("EPIC_RETIRE_ROUNDS", 5);
    let ops = env_usize("EPIC_RETIRE_OPS", 200_000);

    println!("microbench_retire: burst={burst}x{rounds} rounds, steady={ops} ops (af, per_op=1)");
    println!(
        "{:<16} {:>12} {:>14} {:>12} {:>14} {:>10}",
        "scheme", "burst ns/ret", "burst alloc/ret", "steady ns/op", "steady alloc/op", "smr-ctr"
    );

    let mut rows = Vec::new();
    for kind in SmrKind::ALL {
        let (burst_ns, burst_allocs) = bench_burst(kind, burst, rounds);
        let (steady_ns, steady_allocs, smr_ctr) = bench_steady(kind, ops);
        let scheme = kind.base_name();
        println!(
            "{scheme:<16} {burst_ns:>12.2} {burst_allocs:>14.5} {steady_ns:>12.2} \
             {steady_allocs:>14.5} {smr_ctr:>10}"
        );
        rows.push(Row {
            scheme,
            burst_ns,
            burst_allocs,
            steady_ns,
            steady_allocs,
            smr_retire_path_allocs: smr_ctr,
        });
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"burst\": {burst}, \"rounds\": {rounds}, \"steady_ops\": {ops}}},"
    );
    let _ = writeln!(json, "  \"schemes\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"scheme\": \"{}\", \"burst_ns_per_retire\": {:.3}, \
             \"burst_allocs_per_retire\": {:.6}, \"steady_ns_per_op\": {:.3}, \
             \"steady_allocs_per_op\": {:.6}, \"smr_retire_path_allocs\": {}}}{}",
            r.scheme,
            r.burst_ns,
            r.burst_allocs,
            r.steady_ns,
            r.steady_allocs,
            r.smr_retire_path_allocs,
            comma
        );
    }
    json.push_str("  ]\n}\n");
    let path = results_dir().join("BENCH_retire.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
