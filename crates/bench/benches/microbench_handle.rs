//! Handle-path microbenchmark: per-operation overhead of the SMR
//! protection protocol on read-mostly `HmList` workloads, for every scheme.
//!
//! The Harris–Michael list is the hop-heaviest client in the tree zoo
//! (every `get` over an L-key list performs ~L/2 protected hops), so it
//! isolates exactly the cost the `SmrHandle`/`OpGuard` redesign targets:
//! per-hop slot publication + validation (`protect_load`) without
//! re-indexing `tid` slot arrays or dyn-dispatching per hop.
//!
//! Two regimes, both single-threaded (pure protocol overhead, no
//! contention noise):
//!
//! * **get** — pure lookups over a prefilled list; hop cost only.
//! * **mixed** — 90% lookups / 10% updates (alternating insert/remove of
//!   a rotating key) under amortized freeing, so the retire/alloc/drain
//!   path runs at its steady-state rate. The `mixed alloc/op` column is the
//!   thread's process-heap allocations through [`CountingAlloc`]: 0 for
//!   every reclaiming scheme (`none` grows its chunk store by definition).
//!
//! An instrument, not a gate: ns/op on shared hardware is advisory, and the
//! zero-allocation invariant is asserted exactly, for every scheme, by
//! `cargo test -p epic-ds --test no_global_heap`.
//!
//! The minimum over measurement windows is reported, criterion-style.
//! Results go to stdout and `results/BENCH_handle.json`. The committed file
//! is the per-scheme minimum over five process runs *interleaved* with the
//! same loop over the pre-handle tid-based API, so machine drift cancels;
//! commit `dafff1c` holds both halves of that pair under `results/`.
//!
//! Knobs: `EPIC_HANDLE_OPS` (measured ops per regime, default 200000),
//! `EPIC_HANDLE_KEYS` (list size, default 64).

use epic_alloc::{build_allocator, AllocatorKind, CostModel};
use epic_ds::{ConcurrentMap, HmList};
use epic_harness::report::results_dir;
use epic_smr::{build_smr, FreeMode, SmrConfig, SmrHandle, SmrKind};
use epic_util::topology::env_usize;
use epic_util::{now_ns, CountingAlloc, XorShift64};

use std::fmt::Write as _;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Limbo-bag capacity; also sizes the mixed regime's warm-up.
const BAG_CAP: usize = 256;

struct Row {
    scheme: &'static str,
    get_ns: f64,
    mixed_ns: f64,
    mixed_allocs: f64,
}

/// Builds the list and prefills `keys` consecutive keys.
fn make_list(kind: SmrKind) -> HmList {
    let alloc = build_allocator(AllocatorKind::Je, 1, CostModel::zero());
    let mut cfg = SmrConfig::new(1)
        .with_mode(FreeMode::Amortized { per_op: 1 })
        .with_bag_cap(BAG_CAP);
    cfg.epoch_check_every = 4;
    cfg.era_freq = 64;
    HmList::new(build_smr(kind, Arc::clone(&alloc), cfg))
}

fn bench_scheme(kind: SmrKind, ops: usize, keys: u64) -> Row {
    const WINDOWS: usize = 5;
    let list = make_list(kind);
    let handle: SmrHandle = list.smr().register(0);
    for k in 0..keys {
        list.insert(&handle, k, k);
    }

    // Regime 1: pure lookups (hop cost only).
    let mut rng = XorShift64::new(0x9E37_79B9);
    let get_loop = |rng: &mut XorShift64, n: usize| {
        for _ in 0..n {
            let key = rng.next_bounded(keys);
            std::hint::black_box(list.get(&handle, key));
        }
    };
    get_loop(&mut rng, ops.max(4096) / 4); // warm-up
    let per_window = (ops / WINDOWS).max(1);
    let mut get_best = u64::MAX;
    for _ in 0..WINDOWS {
        let t0 = now_ns();
        get_loop(&mut rng, per_window);
        get_best = get_best.min(now_ns() - t0);
    }

    // Regime 2: 90/10 read-mostly churn (AF recycling keeps the chunk
    // store flat, so steady-state heap allocs read zero).
    let mixed_loop = |rng: &mut XorShift64, n: usize| {
        for i in 0..n {
            let key = rng.next_bounded(keys);
            if i % 10 == 9 {
                if i % 20 == 19 {
                    list.remove(&handle, key);
                } else {
                    list.insert(&handle, key, key);
                }
            } else {
                std::hint::black_box(list.get(&handle, key));
            }
        }
    };
    // Warm-up by reclamation progress (four bags retired), not an op
    // count: at any `EPIC_HANDLE_OPS` the first scans and their one-off
    // scratch-pool misses are behind the measured window.
    while list.smr().stats().retired < 4 * BAG_CAP as u64 {
        mixed_loop(&mut rng, 1000);
    }
    let mut mixed_best = u64::MAX;
    let ((), mixed_heap_allocs) = CountingAlloc::count(|| {
        for _ in 0..WINDOWS {
            let t0 = now_ns();
            mixed_loop(&mut rng, per_window);
            mixed_best = mixed_best.min(now_ns() - t0);
        }
    });

    Row {
        scheme: kind.base_name(),
        get_ns: get_best as f64 / per_window as f64,
        mixed_ns: mixed_best as f64 / per_window as f64,
        mixed_allocs: mixed_heap_allocs as f64 / (per_window * WINDOWS) as f64,
    }
}

fn main() {
    let ops = env_usize("EPIC_HANDLE_OPS", 200_000);
    let keys = env_usize("EPIC_HANDLE_KEYS", 64) as u64;

    println!("microbench_handle: hmlist, 1 thread, {keys} keys, {ops} ops/regime (af, per_op=1)");
    println!(
        "{:<16} {:>12} {:>12} {:>16}",
        "scheme", "get ns/op", "mixed ns/op", "mixed alloc/op"
    );

    let mut rows = Vec::new();
    for kind in SmrKind::ALL {
        let r = bench_scheme(kind, ops, keys);
        println!(
            "{:<16} {:>12.2} {:>12.2} {:>16.6}",
            r.scheme, r.get_ns, r.mixed_ns, r.mixed_allocs
        );
        rows.push(r);
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"config\": {{\"ops\": {ops}, \"keys\": {keys}}},");
    let _ = writeln!(json, "  \"schemes\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"scheme\": \"{}\", \"get_ns_per_op\": {:.3}, \
             \"mixed_ns_per_op\": {:.3}, \"mixed_allocs_per_op\": {:.6}}}{}",
            r.scheme, r.get_ns, r.mixed_ns, r.mixed_allocs, comma
        );
    }
    json.push_str("  ]\n}\n");
    let path = results_dir().join("BENCH_handle.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
