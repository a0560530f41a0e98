//! The scenario DSL: declarative runbooks that *generate* registry
//! experiments.
//!
//! A **runbook** is a JSON file (parsed with [`epic_util::Json`] — no
//! serde in the offline container) describing one or more **scenarios**:
//! a workload shape (key-space size and skew, arrival pattern, update
//! ratio, thread count and churn) crossed with a scheme × free-mode ×
//! allocator × data-structure grid. Every point of the cross-product
//! becomes a [`Cell`], and every cell becomes a regular
//! [`Experiment`] in
//! [`all_experiments`](crate::experiments::all_experiments) — so
//! `epic-run check [-j N]`, oracle verdicts and `SHAPES.json` all work
//! on generated scenarios unchanged. Point `EPIC_RUNBOOK` at the file
//! and the registry grows.
//!
//! Reproducibility is the design center:
//!
//! * **Seeds** are derived, not random: each cell's workload seed is
//!   `SplitMix64(runbook.seed XOR fnv1a(cell_id))`, so the same runbook
//!   produces byte-identical seeds in every process on every machine.
//! * **Provenance**: every result executed through the registry is
//!   stamped with a [`provenance_hash`] — a 32-hex-digit digest of the
//!   experiment identity, the runbook source, the cell seed, the
//!   toolchain, the git revision and the effective `EPIC_*` overrides.
//!   The hash rides along into `SHAPES.json`, and `epic-run replay
//!   <hash>` re-runs the exact cell it names and diffs the `det/*`
//!   counters recorded by the cell's single-thread determinism probe.
//!
//! Grammar reference: DESIGN.md §12; user guide: README "Writing
//! scenarios".

use crate::config::{Arrival, KeyDist, WorkloadCfg};
use crate::experiments::{Experiment, ExperimentRun};
use crate::oracle::{at_least, Oracle};
use crate::report::ExperimentResult;
use crate::workload::{run_trial, run_trials};

use epic_alloc::AllocatorKind;
use epic_ds::TreeKind;
use epic_smr::{FreeMode, SmrKind};
use epic_util::{Json, SplitMix64, Topology};

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The environment variable naming the active runbook file.
pub const RUNBOOK_ENV: &str = "EPIC_RUNBOOK";

/// The runbook schema tag this parser accepts.
pub const RUNBOOK_SCHEMA: &str = "epic-runbook-v1";

/// Fixed per-thread operation budget of the single-thread determinism
/// probe every cell runs after its timed trials (a multiple of the
/// worker's 64-op inner loop, so the budget lands exactly). The probe's
/// `det/*` counters are what `epic-run replay` diffs.
pub const DET_PROBE_OPS: u64 = 4096;

/// Registry cost hint for one cell: one timed trial slice plus the
/// (cheap) determinism probe. Deliberately machine-independent so the
/// job engine schedules generated cells in the same order on every host.
const CELL_COST: u32 = 2;

/// Hard cap on cells per runbook — a typo'd cross-product should fail
/// validation, not OOM the scheduler.
const MAX_CELLS: usize = 512;

/// Thread-count axis entry: a fixed count, or a multiple of the
/// machine's logical CPUs (`"2x"` = oversubscribe two workers per CPU).
/// The multiple resolves at *run* time, so one runbook expresses
/// "threads > cores" portably; the id token (`t8`, `t2x`) is stable
/// either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadSpec {
    /// Exactly this many worker threads.
    Fixed(usize),
    /// `multiplier × logical CPUs`, resolved on the machine that runs.
    CpusTimes(u32),
}

impl ThreadSpec {
    /// The id-safe token (`"t4"`, `"t2x"`).
    pub fn token(&self) -> String {
        match self {
            ThreadSpec::Fixed(n) => format!("t{n}"),
            ThreadSpec::CpusTimes(m) => format!("t{m}x"),
        }
    }

    /// The concrete worker count on this machine (at least 1).
    pub fn resolve(&self) -> usize {
        match self {
            ThreadSpec::Fixed(n) => (*n).max(1),
            ThreadSpec::CpusTimes(m) => (Topology::detect().logical_cpus * *m as usize).max(1),
        }
    }
}

/// One fully-resolved point of a scenario's cross-product: everything a
/// trial needs, plus the derived seed and the provenance identity of the
/// runbook it came from.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The generated experiment id (`sc_<scenario>_<axes...>`).
    pub id: String,
    /// The owning runbook's `name` field.
    pub runbook: String,
    /// FNV-1a of the runbook's raw source text (provenance input).
    pub source_fnv: u64,
    /// The scenario (sub-grid) name within the runbook.
    pub scenario: String,
    /// Data structure under test.
    pub tree: TreeKind,
    /// Reclamation scheme.
    pub smr: SmrKind,
    /// Free mode (batch/af/bg/pool).
    pub mode: FreeMode,
    /// Allocator model.
    pub alloc: AllocatorKind,
    /// Worker-thread axis entry.
    pub threads: ThreadSpec,
    /// Key-space override; `None` defers to `EPIC_KEYRANGE` / default.
    pub key_range: Option<u64>,
    /// Key distribution.
    pub key_dist: KeyDist,
    /// Arrival pattern.
    pub arrival: Arrival,
    /// Handle-churn period (`None` = no churn).
    pub churn_every_ops: Option<u64>,
    /// Fraction of operations that are updates.
    pub update_ratio: f64,
    /// Derived workload seed (`SplitMix64(runbook.seed ^ fnv1a(id))`).
    pub seed: u64,
}

impl Cell {
    /// The cell as a [`WorkloadCfg`] at a resolved thread count.
    /// Unset axes defer to the usual environment-scaled defaults
    /// (`EPIC_MILLIS`, `EPIC_KEYRANGE`, `EPIC_BAG_CAP`, ...).
    pub fn workload(&self, threads: usize) -> WorkloadCfg {
        let mut cfg = WorkloadCfg::new(self.tree, self.smr, threads)
            .with_mode(self.mode)
            .with_alloc(self.alloc)
            .with_seed(self.seed)
            .with_key_dist(self.key_dist)
            .with_arrival(self.arrival);
        if let Some(k) = self.key_range {
            cfg.key_range = k;
        }
        if let Some(c) = self.churn_every_ops {
            cfg = cfg.with_churn(c);
        }
        cfg.update_ratio = self.update_ratio;
        cfg
    }

    /// The single-thread determinism probe: same seed, distribution,
    /// key range and churn as the cell, but one thread, a fixed
    /// [`DET_PROBE_OPS`] budget and steady arrival — bit-for-bit
    /// reproducible counters (the replay contract), regardless of how
    /// noisy the timed trial was.
    pub fn det_probe(&self) -> WorkloadCfg {
        let mut cfg = self.workload(1).with_op_budget(DET_PROBE_OPS);
        cfg.arrival = Arrival::Steady;
        cfg
    }
}

/// A parsed, validated runbook: its identity plus every generated cell
/// in deterministic order.
#[derive(Debug, Clone)]
pub struct Runbook {
    /// The runbook's `name` field (id-safe).
    pub name: String,
    /// The top-level seed all cell seeds derive from.
    pub seed: u64,
    /// FNV-1a of the raw source text.
    pub source_fnv: u64,
    /// All cells, in scenario order × axis order.
    pub cells: Vec<Cell>,
}

impl Runbook {
    /// Parses and validates a runbook document. Every error is a
    /// human-readable message (never a panic): unknown fields, bad axis
    /// values, colliding cell ids and oversized cross-products are all
    /// rejected here, before anything runs.
    pub fn parse(source: &str) -> Result<Runbook, String> {
        let doc = Json::parse(source).map_err(|e| format!("runbook: {e}"))?;
        let fields = doc.as_obj().ok_or("runbook: top level must be an object")?;
        for (k, _) in fields {
            if !matches!(k.as_str(), "schema" | "name" | "seed" | "scenarios") {
                return Err(format!("runbook: unknown top-level field '{k}'"));
            }
        }
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("runbook: missing \"schema\"")?;
        if schema != RUNBOOK_SCHEMA {
            return Err(format!(
                "runbook: schema '{schema}' is not '{RUNBOOK_SCHEMA}'"
            ));
        }
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("runbook: missing \"name\"")?
            .to_string();
        require_id_safe(&name, "runbook name")?;
        let seed = match doc.get("seed") {
            Some(v) => u64_of(v, "seed")?,
            None => 0,
        };
        let scenarios = doc
            .get("scenarios")
            .and_then(Json::as_arr)
            .ok_or("runbook: missing \"scenarios\" array")?;
        if scenarios.is_empty() {
            return Err("runbook: \"scenarios\" is empty".into());
        }
        let source_fnv = fnv1a(FNV_BASIS, source);
        let mut cells = Vec::new();
        let mut ids = HashSet::new();
        for (i, sc) in scenarios.iter().enumerate() {
            let generated = parse_scenario(sc, i, &name, seed, source_fnv)?;
            for cell in generated {
                if !ids.insert(cell.id.clone()) {
                    return Err(format!(
                        "runbook: duplicate cell id '{}' — scenarios must differ in \
                         name or at least one axis",
                        cell.id
                    ));
                }
                cells.push(cell);
            }
            if cells.len() > MAX_CELLS {
                return Err(format!(
                    "runbook: cross-product exceeds {MAX_CELLS} cells — split the \
                     runbook or narrow an axis"
                ));
            }
        }
        Ok(Runbook {
            name,
            seed,
            source_fnv,
            cells,
        })
    }

    /// The runbook's cells as registry entries (the bridge the
    /// experiment registry appends), each carrying the runbook's cell
    /// oracle.
    pub fn experiments(&self) -> Vec<Experiment> {
        let oracle = cell_oracle(&self.name);
        self.cells
            .iter()
            .map(|c| Experiment {
                id: c.id.clone(),
                run: ExperimentRun::Scenario(Box::new(c.clone())),
                cost: CELL_COST,
                oracle: oracle.clone(),
            })
            .collect()
    }
}

/// Parses one scenario object and expands its cross-product.
fn parse_scenario(
    sc: &Json,
    index: usize,
    runbook: &str,
    runbook_seed: u64,
    source_fnv: u64,
) -> Result<Vec<Cell>, String> {
    let fields = sc
        .as_obj()
        .ok_or_else(|| format!("runbook: scenario #{index} must be an object"))?;
    const KNOWN: &[&str] = &[
        "name",
        "trees",
        "smrs",
        "modes",
        "allocs",
        "threads",
        "key_range",
        "key_dists",
        "arrivals",
        "churn_every_ops",
        "update_ratio",
    ];
    for (k, _) in fields {
        if !KNOWN.contains(&k.as_str()) {
            return Err(format!(
                "runbook: scenario #{index}: unknown field '{k}' (known: {})",
                KNOWN.join(", ")
            ));
        }
    }
    let name = sc
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("runbook: scenario #{index} missing \"name\""))?
        .to_string();
    let what = |field: &str| format!("scenario '{name}' {field}");
    require_id_safe(&name, &format!("scenario #{index} name"))?;

    let trees = axis_strings(sc, "trees", &what("trees"))?
        .ok_or_else(|| format!("runbook: {} is required", what("trees")))?
        .iter()
        .map(|s| {
            TreeKind::parse(s)
                .ok_or_else(|| format!("runbook: {}: unknown tree '{s}'", what("trees")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let smrs = axis_strings(sc, "smrs", &what("smrs"))?
        .ok_or_else(|| format!("runbook: {} is required", what("smrs")))?
        .iter()
        .map(|s| {
            SmrKind::parse(s).ok_or_else(|| format!("runbook: {}: unknown smr '{s}'", what("smrs")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let modes = match axis_strings(sc, "modes", &what("modes"))? {
        None => vec![FreeMode::Batch],
        Some(raw) => raw
            .iter()
            .map(|s| FreeMode::parse(s).map_err(|e| format!("runbook: {}: {e}", what("modes"))))
            .collect::<Result<Vec<_>, _>>()?,
    };
    let allocs = match axis_strings(sc, "allocs", &what("allocs"))? {
        None => vec![AllocatorKind::Je],
        Some(raw) => raw
            .iter()
            .map(|s| {
                AllocatorKind::parse(s)
                    .ok_or_else(|| format!("runbook: {}: unknown allocator '{s}'", what("allocs")))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let threads = sc
        .get("threads")
        .ok_or_else(|| format!("runbook: {} is required", what("threads")))
        .map(|v| {
            scalar_or_list(v)
                .iter()
                .map(|t| parse_thread_spec(t, &what("threads")))
                .collect::<Result<Vec<_>, _>>()
        })??;
    let key_range = match sc.get("key_range") {
        None => None,
        Some(v) => {
            let k = u64_of(v, &what("key_range"))?;
            if !crate::config::KEY_RANGE.contains(&k) {
                return Err(format!(
                    "runbook: {} must be in [2, 2^32], got {k}",
                    what("key_range")
                ));
            }
            Some(k)
        }
    };
    let key_dists = match axis_strings(sc, "key_dists", &what("key_dists"))? {
        None => vec![KeyDist::Uniform],
        Some(raw) => raw
            .iter()
            .map(|s| parse_key_dist(s, &what("key_dists")))
            .collect::<Result<Vec<_>, _>>()?,
    };
    let arrivals = match axis_strings(sc, "arrivals", &what("arrivals"))? {
        None => vec![Arrival::Steady],
        Some(raw) => raw
            .iter()
            .map(|s| parse_arrival(s, &what("arrivals")))
            .collect::<Result<Vec<_>, _>>()?,
    };
    let churns: Vec<Option<u64>> = match sc.get("churn_every_ops") {
        None => vec![None],
        Some(v) => scalar_or_list(v)
            .iter()
            .map(|c| {
                let n = u64_of(c, &what("churn_every_ops"))?;
                // 0 = the no-churn baseline, so one axis can sweep
                // "off, mild, storm".
                Ok(if n == 0 { None } else { Some(n) })
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    let update_ratio = match sc.get("update_ratio") {
        None => 1.0,
        Some(v) => {
            let r = v
                .as_f64()
                .ok_or_else(|| format!("runbook: {} must be a number", what("update_ratio")))?;
            if !(0.0..=1.0).contains(&r) {
                return Err(format!(
                    "runbook: {} must be in [0, 1], got {r}",
                    what("update_ratio")
                ));
            }
            r
        }
    };

    let mut cells = Vec::new();
    for tree in &trees {
        for smr in &smrs {
            for mode in &modes {
                for alloc in &allocs {
                    for spec in &threads {
                        for dist in &key_dists {
                            for arrival in &arrivals {
                                for churn in &churns {
                                    let id = cell_id(
                                        &name, *smr, *mode, *tree, *alloc, *spec, dist, arrival,
                                        *churn,
                                    );
                                    let seed =
                                        SplitMix64::new(runbook_seed ^ fnv1a(FNV_BASIS, &id))
                                            .next_u64();
                                    cells.push(Cell {
                                        id,
                                        runbook: runbook.to_string(),
                                        source_fnv,
                                        scenario: name.clone(),
                                        tree: *tree,
                                        smr: *smr,
                                        mode: *mode,
                                        alloc: *alloc,
                                        threads: *spec,
                                        key_range,
                                        key_dist: *dist,
                                        arrival: *arrival,
                                        churn_every_ops: *churn,
                                        update_ratio,
                                        seed,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(cells)
}

/// The generated id: `sc_` prefix, then every axis as an id-safe token.
/// `nbr+` sanitizes to `nbrp` (ids are pinned lower_snake_case).
#[allow(clippy::too_many_arguments)]
fn cell_id(
    scenario: &str,
    smr: SmrKind,
    mode: FreeMode,
    tree: TreeKind,
    alloc: AllocatorKind,
    threads: ThreadSpec,
    dist: &KeyDist,
    arrival: &Arrival,
    churn: Option<u64>,
) -> String {
    let smr_tok = smr.base_name().replace('+', "p");
    let mut id = format!(
        "sc_{scenario}_{smr_tok}{}_{}_{}_{}_{}",
        mode.suffix(),
        tree.name(),
        alloc.name(),
        threads.token(),
        dist.token(),
    );
    if matches!(arrival, Arrival::Bursty { .. }) {
        id.push_str("_bu");
    }
    if let Some(c) = churn {
        id.push_str(&format!("_c{c}"));
    }
    id
}

/// Normalizes a scalar-or-list field to a slice of values.
fn scalar_or_list(v: &Json) -> Vec<&Json> {
    match v {
        Json::Arr(items) => items.iter().collect(),
        other => vec![other],
    }
}

/// Reads an optional string axis (scalar or list of strings).
fn axis_strings(sc: &Json, key: &str, what: &str) -> Result<Option<Vec<String>>, String> {
    let Some(v) = sc.get(key) else {
        return Ok(None);
    };
    let items = scalar_or_list(v);
    if items.is_empty() {
        return Err(format!("runbook: {what} must not be an empty list"));
    }
    items
        .iter()
        .map(|i| {
            i.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("runbook: {what} entries must be strings"))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

fn parse_thread_spec(v: &Json, what: &str) -> Result<ThreadSpec, String> {
    if let Some(s) = v.as_str() {
        let m = s
            .strip_suffix('x')
            .and_then(|m| m.parse::<u32>().ok())
            .filter(|m| (1..=8).contains(m))
            .ok_or_else(|| {
                format!("runbook: {what}: '{s}' is not '<n>x' with n in 1..=8 (CPU multiple)")
            })?;
        return Ok(ThreadSpec::CpusTimes(m));
    }
    let n = u64_of(v, what)?;
    if !(1..=512).contains(&n) {
        return Err(format!("runbook: {what} must be in [1, 512], got {n}"));
    }
    Ok(ThreadSpec::Fixed(n as usize))
}

fn parse_key_dist(s: &str, what: &str) -> Result<KeyDist, String> {
    match s {
        "uniform" | "u" => Ok(KeyDist::Uniform),
        _ => {
            let theta = s
                .strip_prefix("zipf:")
                .and_then(|t| t.parse::<f64>().ok())
                .ok_or_else(|| {
                    format!("runbook: {what}: '{s}' is not 'uniform' or 'zipf:<theta>'")
                })?;
            if !(0.0..1.0).contains(&theta) {
                return Err(format!(
                    "runbook: {what}: zipf theta must be in [0, 1), got {theta}"
                ));
            }
            Ok(KeyDist::Zipf { theta })
        }
    }
}

fn parse_arrival(s: &str, what: &str) -> Result<Arrival, String> {
    if s == "steady" {
        return Ok(Arrival::Steady);
    }
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() == 3 && parts[0] == "bursty" {
        let on_ops = parts[1].parse::<u64>().ok().filter(|n| *n >= 64);
        let off_micros = parts[2].parse::<u64>().ok().filter(|n| *n <= 100_000);
        if let (Some(on_ops), Some(off_micros)) = (on_ops, off_micros) {
            return Ok(Arrival::Bursty { on_ops, off_micros });
        }
    }
    Err(format!(
        "runbook: {what}: '{s}' is not 'steady' or 'bursty:<on_ops>=64..:<off_micros><=100000'"
    ))
}

fn u64_of(v: &Json, what: &str) -> Result<u64, String> {
    let n = v
        .as_f64()
        .ok_or_else(|| format!("runbook: {what} must be a number"))?;
    if n < 0.0 || n.fract() != 0.0 || n >= 9_007_199_254_740_992.0 {
        return Err(format!(
            "runbook: {what} must be a non-negative integer, got {n}"
        ));
    }
    Ok(n as u64)
}

/// Id-safe = lower_snake_case: `[a-z0-9_]`, non-empty — the same
/// contract the CLI pins for builtin experiment ids.
fn require_id_safe(s: &str, what: &str) -> Result<(), String> {
    if s.is_empty() {
        return Err(format!("runbook: {what} must not be empty"));
    }
    if let Some(bad) = s
        .chars()
        .find(|c| !(c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_'))
    {
        return Err(format!(
            "runbook: {what} '{s}' contains '{bad}' — use lower_snake_case [a-z0-9_]"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Registry bridge
// ---------------------------------------------------------------------------

/// Loads the runbook named by `EPIC_RUNBOOK`. `Ok(None)` when the
/// variable is unset; `Err` when the file is unreadable or invalid
/// (callers that want a hard failure — `epic-run` startup — surface it;
/// the registry bridge degrades to builtins-only with a warning).
pub fn load_active_runbook() -> Result<Option<Runbook>, String> {
    let Some(path) = std::env::var_os(RUNBOOK_ENV) else {
        return Ok(None);
    };
    let path = Path::new(&path);
    let source = std::fs::read_to_string(path)
        .map_err(|e| format!("runbook: cannot read {}: {e}", path.display()))?;
    Runbook::parse(&source).map(Some)
}

/// The generated registry entries for the active runbook (empty when
/// `EPIC_RUNBOOK` is unset). A broken runbook warns once on stderr and
/// yields no cells — library callers keep working on builtins;
/// `epic-run` additionally hard-fails at startup via
/// [`load_active_runbook`].
pub fn generated_experiments() -> Vec<Experiment> {
    match load_active_runbook() {
        Ok(Some(rb)) => rb.experiments(),
        Ok(None) => Vec::new(),
        Err(e) => {
            static WARNED: AtomicBool = AtomicBool::new(false);
            if !WARNED.swap(true, Ordering::Relaxed) {
                eprintln!("warning: ignoring {RUNBOOK_ENV}: {e}");
            }
            Vec::new()
        }
    }
}

/// The oracle every cell of `runbook` carries: strict completeness
/// checks (the trial ran, the determinism probe hit its exact budget)
/// plus an advisory throughput floor.
fn cell_oracle(runbook: &str) -> Oracle {
    Oracle {
        claim: format!(
            "runbook '{runbook}' cell completes its trials and its single-thread \
             determinism probe records replayable counters"
        ),
        assertions: vec![
            at_least("timed trial completed operations", "ops", 1.0),
            at_least(
                "determinism probe ran its fixed budget",
                "det/ops",
                DET_PROBE_OPS as f64,
            )
            .tol(0.0),
            at_least("probe counters recorded", "det/allocs", 0.0),
            at_least("throughput is positive", "mops", 0.0).advisory(),
        ],
    }
}

/// Runs one cell: `EPIC_TRIALS` timed trials at the cell's resolved
/// thread count, then the single-thread determinism probe whose `det/*`
/// counters are the replay contract.
pub fn run_cell(cell: &Cell, out: &mut ExperimentResult) {
    let threads = cell.threads.resolve();
    let summary = run_trials(&cell.workload(threads), crate::config::env_trials());
    out.metric("threads", threads as f64);
    out.metric("mops", summary.throughput.mean() / 1e6);
    out.metric("rel_ci95/mops", summary.throughput_rel_ci95());
    out.metric("ops", summary.last.ops as f64);
    out.metric("retired", summary.last.smr.retired as f64);
    out.metric("freed", summary.last.smr.freed as f64);
    out.metric("peak_mib", summary.peak_mib.mean());
    let det = run_trial(&cell.det_probe());
    out.metric("det/ops", det.ops as f64);
    out.metric("det/retired", det.smr.retired as f64);
    out.metric("det/freed", det.smr.freed as f64);
    out.metric("det/allocs", det.alloc.totals.allocs as f64);
    out.metric("det/deallocs", det.alloc.totals.deallocs as f64);
    println!(
        "scenario {}: {} threads, {:.2} Mops/s, det probe {} ops / {} retired / {} allocs",
        cell.id,
        threads,
        summary.throughput.mean() / 1e6,
        det.ops,
        det.smr.retired,
        det.alloc.totals.allocs,
    );
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

/// The standard FNV-1a 64-bit offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the bytes of `s`, starting from `basis` ([`FNV_BASIS`]
/// everywhere but the second pass of the 128-bit provenance digest). Not
/// a quality hash — a *frozen* one: cell seeds and provenance hashes must
/// never depend on compiler, platform, or std internals.
fn fnv1a(basis: u64, s: &str) -> u64 {
    let mut h = basis;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `EPIC_*` variables excluded from the provenance digest: `EPIC_RESULTS`
/// steers where artifacts land, never what a trial measures. Everything
/// else under `EPIC_` (scale, caps, seeds) is included. `EPIC_RUNBOOK`
/// itself is excluded because the digest hashes the runbook *content* —
/// the path it was read from is machine-local noise.
const PROV_ENV_DENYLIST: &[&str] = &["EPIC_RESULTS", "EPIC_RUNBOOK"];

/// The canonical preimage the provenance hash digests — one field per
/// line, `EPIC_*` overrides sorted by key (see DESIGN.md §12 for the
/// field list). Exposed so tests and docs can show exactly what is
/// hashed.
pub fn provenance_preimage(e: &Experiment) -> String {
    let (runbook_fnv, seed) = match &e.run {
        ExperimentRun::Builtin(_) => ("-".to_string(), "-".to_string()),
        ExperimentRun::Scenario(cell) => (
            format!("{:016x}", cell.source_fnv),
            format!("{}", cell.seed),
        ),
    };
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| {
            k.starts_with("EPIC_")
                && !PROV_ENV_DENYLIST.contains(&k.as_str())
                && !k.starts_with("EPIC_TEST_")
        })
        .collect();
    env.sort();
    let env_line = env
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(";");
    format!(
        "epic-prov-v1\nid={}\nkind={}\nrunbook_fnv={runbook_fnv}\nseed={seed}\n\
         toolchain={};pkg={}\ngit={}\nenv={env_line}\n",
        e.id,
        e.origin(),
        option_env!("RUSTUP_TOOLCHAIN").unwrap_or("-"),
        env!("CARGO_PKG_VERSION"),
        git_rev(),
    )
}

/// The 32-hex-digit provenance hash stamped into every
/// [`ExperimentResult`] the registry executes: two decorrelated FNV-1a
/// passes over [`provenance_preimage`]. Equal hashes ⇒ same experiment
/// identity, runbook source, seed, toolchain, git revision and
/// effective `EPIC_*` overrides — which is exactly the replay contract.
pub fn provenance_hash(e: &Experiment) -> String {
    let pre = provenance_preimage(e);
    format!(
        "{:016x}{:016x}",
        fnv1a(FNV_BASIS, &pre),
        fnv1a(FNV_BASIS ^ 0x9E37_79B9_7F4A_7C15, &pre),
    )
}

/// The workspace's git revision, resolved once per process: reads
/// `.git/HEAD` (following one level of `ref:` indirection through loose
/// then packed refs) at the workspace root. `"nogit"` outside a
/// checkout — provenance stays total.
pub fn git_rev() -> &'static str {
    static REV: OnceLock<String> = OnceLock::new();
    REV.get_or_init(|| {
        let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.git");
        read_git_rev(&git).unwrap_or_else(|| "nogit".to_string())
    })
}

fn read_git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        // Detached HEAD: the line is the commit hash itself.
        return (head.len() == 40 && head.chars().all(|c| c.is_ascii_hexdigit()))
            .then(|| head.to_string());
    };
    if let Ok(loose) = std::fs::read_to_string(git.join(refname)) {
        return Some(loose.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        line.split_once(' ')
            .filter(|(_, name)| name.trim() == refname)
            .map(|(hash, _)| hash.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_runbook() -> String {
        r#"{
          "schema": "epic-runbook-v1",
          "name": "ut",
          "seed": 7,
          "scenarios": [
            {
              "name": "skew",
              "trees": "ab",
              "smrs": ["debra", "nbr+"],
              "modes": ["batch", "af"],
              "threads": 2,
              "key_range": 1024,
              "key_dists": ["uniform", "zipf:0.9"]
            },
            {
              "name": "churny",
              "trees": ["hm"],
              "smrs": "rcu",
              "threads": [1, "2x"],
              "churn_every_ops": [0, 2048],
              "arrivals": ["steady", "bursty:256:100"]
            }
          ]
        }"#
        .to_string()
    }

    #[test]
    fn parses_the_cross_product() {
        let rb = Runbook::parse(&smoke_runbook()).expect("valid runbook");
        assert_eq!(rb.name, "ut");
        assert_eq!(rb.seed, 7);
        // skew: 1 tree × 2 smrs × 2 modes × 1 alloc × 1 threads × 2 dists = 8
        // churny: 1 × 1 × 1 × 1 × 2 threads × 2 churns × 2 arrivals = 8
        assert_eq!(rb.cells.len(), 16);
        let ids: HashSet<_> = rb.cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids.len(), 16, "ids are unique");
        // Ids are lower_snake_case even for nbr+.
        for c in &rb.cells {
            assert!(
                c.id.chars()
                    .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_'),
                "id not lower_snake_case: {}",
                c.id
            );
        }
        assert!(ids.contains("sc_skew_nbrp_af_abtree_je_t2_z090"));
        assert!(ids.contains("sc_churny_rcu_hmlist_je_t2x_u_bu_c2048"));
    }

    #[test]
    fn seeds_derive_deterministically_and_decorrelate() {
        let a = Runbook::parse(&smoke_runbook()).unwrap();
        let b = Runbook::parse(&smoke_runbook()).unwrap();
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.id, cb.id);
            assert_eq!(ca.seed, cb.seed, "seed must be derived, not random");
        }
        let seeds: HashSet<_> = a.cells.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), a.cells.len(), "per-cell seeds decorrelate");
        // And the derivation matches the documented formula.
        let c = &a.cells[0];
        assert_eq!(
            c.seed,
            SplitMix64::new(7 ^ fnv1a(FNV_BASIS, &c.id)).next_u64()
        );
    }

    #[test]
    fn fnv_is_frozen() {
        // Reference values computed from the FNV-1a definition; if these
        // move, every cell seed and provenance hash moves with them.
        assert_eq!(fnv1a(FNV_BASIS, ""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_BASIS, "a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(
            fnv1a(FNV_BASIS, "fig4_garbage"),
            fnv1a(FNV_BASIS, "fig4_garbagf")
        );
    }

    #[test]
    fn defaults_fill_optional_axes() {
        let rb = Runbook::parse(
            r#"{"schema": "epic-runbook-v1", "name": "d", "scenarios": [
                {"name": "s", "trees": "ab", "smrs": "debra", "threads": 1}]}"#,
        )
        .unwrap();
        assert_eq!(rb.seed, 0);
        assert_eq!(rb.cells.len(), 1);
        let c = &rb.cells[0];
        assert_eq!(c.mode, FreeMode::Batch);
        assert_eq!(c.alloc, AllocatorKind::Je);
        assert_eq!(c.key_dist, KeyDist::Uniform);
        assert_eq!(c.arrival, Arrival::Steady);
        assert_eq!(c.churn_every_ops, None);
        assert_eq!(c.update_ratio, 1.0);
        assert_eq!(c.key_range, None);
        assert_eq!(c.id, "sc_s_debra_abtree_je_t1_u");
    }

    #[test]
    fn rejects_malformed_runbooks_with_errors_not_panics() {
        let cases: &[(&str, &str)] = &[
            ("", "json"),
            ("[]", "top level"),
            (
                r#"{"schema": "nope", "name": "x", "scenarios": []}"#,
                "schema",
            ),
            (r#"{"schema": "epic-runbook-v1", "scenarios": []}"#, "name"),
            (
                r#"{"schema": "epic-runbook-v1", "name": "x", "scenarios": []}"#,
                "empty",
            ),
            (
                r#"{"schema": "epic-runbook-v1", "name": "x", "bogus": 1, "scenarios": [{}]}"#,
                "unknown top-level field",
            ),
            (
                r#"{"schema": "epic-runbook-v1", "name": "x", "scenarios": [
                    {"name": "s", "trees": "ab", "smrs": "debra", "threads": 1, "zz": 1}]}"#,
                "unknown field",
            ),
            (
                r#"{"schema": "epic-runbook-v1", "name": "x", "scenarios": [
                    {"name": "s", "trees": "nope", "smrs": "debra", "threads": 1}]}"#,
                "unknown tree",
            ),
            (
                r#"{"schema": "epic-runbook-v1", "name": "x", "scenarios": [
                    {"name": "s", "trees": "ab", "smrs": "debra", "threads": 1,
                     "key_dists": "zipf:1.0"}]}"#,
                "theta",
            ),
            (
                r#"{"schema": "epic-runbook-v1", "name": "x", "scenarios": [
                    {"name": "s", "trees": "ab", "smrs": "debra", "threads": 9999}]}"#,
                "[1, 512]",
            ),
            (
                r#"{"schema": "epic-runbook-v1", "name": "x", "scenarios": [
                    {"name": "s", "trees": "ab", "smrs": "debra", "threads": 1,
                     "arrivals": "bursty:1:1"}]}"#,
                "bursty",
            ),
            (
                r#"{"schema": "epic-runbook-v1", "name": "x", "scenarios": [
                    {"name": "s", "trees": "ab", "smrs": "debra", "threads": 1,
                     "update_ratio": 1.5}]}"#,
                "[0, 1]",
            ),
            (
                r#"{"schema": "epic-runbook-v1", "name": "Bad Name", "scenarios": [
                    {"name": "s", "trees": "ab", "smrs": "debra", "threads": 1}]}"#,
                "lower_snake_case",
            ),
            (
                r#"{"schema": "epic-runbook-v1", "name": "x", "scenarios": [
                    {"name": "s", "trees": "ab", "smrs": "debra", "threads": 1},
                    {"name": "s", "trees": "ab", "smrs": "debra", "threads": 1}]}"#,
                "duplicate cell id",
            ),
        ];
        for (src, needle) in cases {
            let err = Runbook::parse(src).expect_err(&format!("should reject {src:?}"));
            assert!(
                err.contains(needle),
                "error for {src:?} should mention '{needle}', got: {err}"
            );
        }
    }

    #[test]
    fn oversized_cross_products_are_rejected() {
        // 4 trees × 13 smrs × 4 modes × 5 allocs = 1040 > 512.
        let src = r#"{"schema": "epic-runbook-v1", "name": "x", "scenarios": [
            {"name": "s",
             "trees": ["ab", "occ", "dgt", "hm"],
             "smrs": ["none", "qsbr", "rcu", "debra", "token_naive", "token_passfirst",
                      "token", "hp", "he", "ibr", "nbr", "nbr+", "wfe"],
             "modes": ["batch", "af", "bg", "pool"],
             "allocs": ["je", "je_incr", "tc", "mi", "sys"],
             "threads": 1}]}"#;
        let err = Runbook::parse(src).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn thread_spec_tokens_and_resolution() {
        assert_eq!(ThreadSpec::Fixed(4).token(), "t4");
        assert_eq!(ThreadSpec::CpusTimes(2).token(), "t2x");
        assert_eq!(ThreadSpec::Fixed(4).resolve(), 4);
        let cpus = Topology::detect().logical_cpus;
        assert_eq!(ThreadSpec::CpusTimes(2).resolve(), (cpus * 2).max(1));
    }

    #[test]
    fn cell_workload_carries_every_axis() {
        let rb = Runbook::parse(&smoke_runbook()).unwrap();
        let cell = rb
            .cells
            .iter()
            .find(|c| c.id == "sc_churny_rcu_hmlist_je_t1_u_bu_c2048")
            .expect("cell exists");
        let cfg = cell.workload(cell.threads.resolve());
        assert_eq!(cfg.seed, cell.seed);
        assert_eq!(cfg.churn_every_ops, Some(2048));
        assert_eq!(
            cfg.arrival,
            Arrival::Bursty {
                on_ops: 256,
                off_micros: 100
            }
        );
        // det probe: same stream-shaping knobs, fixed budget, one thread,
        // steady arrival.
        let det = cell.det_probe();
        assert_eq!(det.threads, 1);
        assert_eq!(det.op_budget, Some(DET_PROBE_OPS));
        assert_eq!(det.arrival, Arrival::Steady);
        assert_eq!(det.seed, cell.seed);
        assert_eq!(det.churn_every_ops, Some(2048));
    }

    #[test]
    fn provenance_hash_is_stable_and_discriminating() {
        let _guard = crate::report::env_lock();
        let rb = Runbook::parse(&smoke_runbook()).unwrap();
        let exps = rb.experiments();
        let h0 = provenance_hash(&exps[0]);
        assert_eq!(h0.len(), 32);
        assert!(h0.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(h0, provenance_hash(&exps[0]), "hash is deterministic");
        assert_ne!(h0, provenance_hash(&exps[1]), "cells get distinct hashes");
        // The preimage documents its fields.
        let pre = provenance_preimage(&exps[0]);
        assert!(pre.contains("epic-prov-v1"));
        assert!(pre.contains(&format!("id={}", exps[0].id)));
        assert!(pre.contains("kind=runbook:ut"));
        assert!(pre.contains(&format!("runbook_fnv={:016x}", rb.source_fnv)));
        assert!(pre.contains("git="));
    }

    #[test]
    fn provenance_tracks_epic_env_overrides() {
        let _guard = crate::report::env_lock();
        let rb = Runbook::parse(&smoke_runbook()).unwrap();
        let e = &rb.experiments()[0];
        std::env::remove_var("EPIC_PROV_PROBE");
        let before = provenance_hash(e);
        std::env::set_var("EPIC_PROV_PROBE", "1");
        let with_knob = provenance_hash(e);
        std::env::remove_var("EPIC_PROV_PROBE");
        assert_ne!(before, with_knob, "EPIC_* overrides must change the hash");
        assert_eq!(before, provenance_hash(e), "and removal restores it");
        // Denylisted keys (artifact paths etc.) do NOT change the hash.
        let had = std::env::var("EPIC_RESULTS").ok();
        std::env::set_var("EPIC_RESULTS", "/tmp/elsewhere-prov-test");
        let moved = provenance_hash(e);
        match had {
            Some(v) => std::env::set_var("EPIC_RESULTS", v),
            None => std::env::remove_var("EPIC_RESULTS"),
        }
        assert_eq!(before, moved, "EPIC_RESULTS is provenance-neutral");
    }

    #[test]
    fn provenance_distinguishes_runbook_content() {
        let _guard = crate::report::env_lock();
        let a = Runbook::parse(&smoke_runbook()).unwrap();
        // Same ids, different seed ⇒ different source ⇒ different hashes.
        let b = Runbook::parse(&smoke_runbook().replace("\"seed\": 7", "\"seed\": 8")).unwrap();
        assert_eq!(a.cells[0].id, b.cells[0].id);
        assert_ne!(
            provenance_hash(&a.experiments()[0]),
            provenance_hash(&b.experiments()[0])
        );
    }

    #[test]
    fn git_rev_resolves_in_this_checkout() {
        let rev = git_rev();
        assert!(!rev.is_empty());
        // In the repo this resolves to a 40-hex commit; elsewhere "nogit".
        assert!(
            rev == "nogit" || (rev.len() == 40 && rev.chars().all(|c| c.is_ascii_hexdigit())),
            "unexpected rev: {rev}"
        );
    }

    #[test]
    fn synthesized_oracles_match_experiments_in_order() {
        let rb = Runbook::parse(&smoke_runbook()).unwrap();
        for o in rb.experiments().iter().map(|e| &e.oracle) {
            assert!(!o.claim.is_empty());
            assert!(o.claim.contains("runbook 'ut'"));
            assert!(
                o.assertions
                    .iter()
                    .any(|a| a.tier == crate::oracle::Tier::Strict),
                "every generated oracle needs a strict assertion"
            );
        }
    }
}
