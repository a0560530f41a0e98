//! Workload configuration.

use epic_alloc::{AllocatorKind, CostModel};
use epic_ds::TreeKind;
use epic_smr::{FreeMode, SmrKind};
use epic_util::topology::{env_u64, env_usize, warn_malformed_env};
use epic_util::Topology;

/// How workload keys are drawn from the key range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over `[0, key_range)` — the paper's workload.
    Uniform,
    /// Zipf-skewed with parameter `theta` in `[0, 1)` (see
    /// [`epic_util::Zipfian`]); ranks are scattered over the key space.
    Zipf {
        /// Skew: 0 ≈ uniform, 0.99 = the YCSB hot-spot default.
        theta: f64,
    },
}

impl KeyDist {
    /// A short label token (`"u"`, `"z099"`), used in scenario cell labels.
    pub fn token(&self) -> String {
        match self {
            KeyDist::Uniform => "u".to_string(),
            KeyDist::Zipf { theta } => format!("z{:03}", (theta * 100.0).round() as u32),
        }
    }
}

/// Everything one trial needs.
#[derive(Clone)]
pub struct WorkloadCfg {
    /// Which tree to benchmark.
    pub tree: TreeKind,
    /// Which reclamation scheme.
    pub smr_kind: SmrKind,
    /// Batch vs amortized freeing. `None` = amortized with the tree's
    /// matched drain rate (`frees_per_delete_hint`, the §7 guidance).
    pub free_mode: FreeMode,
    /// Which allocator model.
    pub alloc_kind: AllocatorKind,
    /// Allocator cost model.
    pub cost: CostModel,
    /// Worker thread count.
    pub threads: usize,
    /// Measured duration.
    pub millis: u64,
    /// Key range; steady-state size ≈ half.
    pub key_range: u64,
    /// Prefill to steady state before measuring.
    pub prefill: bool,
    /// Limbo-bag capacity for threshold schemes.
    pub bag_cap: usize,
    /// Amortized-free backlog cap (the relief valve; see
    /// `epic_smr::SmrConfig::af_backlog_cap`). Defaults to `4 * bag_cap`
    /// so the valve only opens on genuine bursts, overridable with
    /// `EPIC_AF_BACKLOG_CAP`.
    pub af_backlog_cap: usize,
    /// DEBRA's k (announcement-scan amortization).
    pub epoch_check_every: usize,
    /// Periodic Token-EBR's check interval.
    pub token_check_every: usize,
    /// Record timeline events (BatchFree, epoch dots, ...).
    pub record_timeline: bool,
    /// Record individual free calls at least this long (ns);
    /// `u64::MAX` = off.
    pub free_call_record_ns: u64,
    /// Collect the per-epoch garbage series.
    pub garbage_series: bool,
    /// Thread-cache capacity override for Je/Tc models (ablations).
    pub tcache_cap: Option<usize>,
    /// Fraction of operations that are updates (insert/delete); the rest
    /// are lookups. The paper's workload is all-updates (1.0).
    pub update_ratio: f64,
    /// Fault injection: thread 0 periodically stalls *inside* an
    /// operation for `(stall_every_ms, stall_for_ms)` — the delayed-thread
    /// scenario EBR is famously sensitive to (§3.1's citation of \[35,37\]).
    pub stall: Option<(u64, u64)>,
    /// Fixed per-thread operation budget. When set, each worker performs
    /// exactly this many operations (rounded up to the 64-op inner-loop
    /// granularity) instead of running for `millis` — the time slicer is
    /// bypassed entirely, so a single-threaded trial with a fixed seed is
    /// bit-for-bit reproducible (the determinism the oracle CI relies on).
    pub op_budget: Option<u64>,
    /// Trial seed, XOR-mixed into every worker's per-thread RNG seed.
    /// 0 (the default) reproduces the pre-scenario per-thread streams
    /// bit for bit; scenario cells derive a distinct value from their
    /// label (see `crate::scenario`).
    pub seed: u64,
    /// Key distribution (uniform or Zipf-skewed).
    pub key_dist: KeyDist,
    /// Handle churn: every worker detaches its [`epic_smr::SmrHandle`]
    /// and re-registers after this many operations — the register/detach
    /// storm scenario the hand-coded experiments cannot express.
    pub churn_every_ops: Option<u64>,
}

impl WorkloadCfg {
    /// The standard configuration for a scheme/tree pair at a thread
    /// count, with environment-driven scale.
    pub fn new(tree: TreeKind, smr_kind: SmrKind, threads: usize) -> Self {
        let bag_cap = env_usize("EPIC_BAG_CAP", 4096);
        WorkloadCfg {
            tree,
            smr_kind,
            free_mode: FreeMode::Batch,
            alloc_kind: AllocatorKind::Je,
            cost: CostModel::default_for_machine(),
            threads,
            millis: env_u64("EPIC_MILLIS", 200),
            key_range: env_key_range(),
            prefill: true,
            bag_cap,
            af_backlog_cap: env_usize("EPIC_AF_BACKLOG_CAP", bag_cap.saturating_mul(4)),
            epoch_check_every: 100,
            token_check_every: 100,
            record_timeline: false,
            free_call_record_ns: u64::MAX,
            garbage_series: false,
            tcache_cap: None,
            update_ratio: 1.0,
            stall: None,
            op_budget: None,
            seed: 0,
            key_dist: KeyDist::Uniform,
            churn_every_ops: None,
        }
    }

    /// Runs a fixed number of operations per thread instead of a timed
    /// slice (see [`WorkloadCfg::op_budget`]).
    pub fn with_op_budget(mut self, ops: u64) -> Self {
        self.op_budget = Some(ops);
        self
    }

    /// Sets the trial seed (see [`WorkloadCfg::seed`]).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the key distribution.
    pub fn with_key_dist(mut self, dist: KeyDist) -> Self {
        self.key_dist = dist;
        self
    }

    /// Enables handle churn every `ops` operations.
    pub fn with_churn(mut self, ops: u64) -> Self {
        self.churn_every_ops = Some(ops.max(1));
        self
    }

    /// Switches to amortized freeing. The drain is coupled to
    /// *allocations* (one queued free per fresh block, see
    /// `epic_smr::SchemeCommon::tick`), which self-balances even for the
    /// DGT tree's 2-frees-per-delete profile (its inserts allocate two
    /// nodes), so `per_op = 1` is correct for every tree here.
    pub fn amortized(mut self) -> Self {
        self.free_mode = FreeMode::Amortized { per_op: 1 };
        self
    }

    /// Switches to pooled freeing (object pooling — the §3.3/footnote-4
    /// optimization the paper declines; see `ablation_pooled`).
    pub fn pooled(mut self) -> Self {
        self.free_mode = FreeMode::Pooled;
        self
    }

    /// Explicit free mode.
    pub fn with_mode(mut self, mode: FreeMode) -> Self {
        self.free_mode = mode;
        self
    }

    /// Overrides the amortized-free backlog cap (relief valve).
    pub fn with_af_backlog_cap(mut self, cap: usize) -> Self {
        self.af_backlog_cap = cap;
        self
    }

    /// Chooses the allocator model.
    pub fn with_alloc(mut self, kind: AllocatorKind) -> Self {
        self.alloc_kind = kind;
        self
    }

    /// Enables timeline recording.
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }

    /// Enables per-free-call recording above `ns`.
    pub fn with_free_calls(mut self, ns: u64) -> Self {
        self.record_timeline = true;
        self.free_call_record_ns = ns;
        self
    }

    /// Enables the garbage series.
    pub fn with_garbage_series(mut self) -> Self {
        self.garbage_series = true;
        self
    }

    /// The scheme's display name under this free mode.
    pub fn scheme_label(&self) -> String {
        format!("{}{}", self.smr_kind.base_name(), self.free_mode.suffix())
    }
}

/// Environment-scaled experiment dimensions shared by the experiment
/// drivers.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Thread counts for sweep experiments.
    pub sweep: Vec<usize>,
    /// The "192 threads" point (most oversubscribed).
    pub max_threads: usize,
    /// The "96 threads" point.
    pub mid_threads: usize,
    /// Trials per data point.
    pub trials: usize,
}

impl ExperimentScale {
    /// Reads the scale from topology + environment.
    pub fn detect() -> Self {
        let topo = Topology::detect();
        let sweep = topo.sweep_threads();
        ExperimentScale {
            max_threads: *sweep.last().unwrap(),
            mid_threads: sweep[sweep.len().saturating_sub(2).min(sweep.len() - 1)],
            sweep,
            trials: env_trials(),
        }
    }

    /// Table 1's thread points: 1, mid and max, deduplicated.
    pub fn table1_points(&self) -> Vec<usize> {
        let mut points = vec![1, self.mid_threads, self.max_threads];
        points.dedup();
        points
    }

    /// The thread points of Figs. 18–29: 1, 2, mid and max, deduplicated.
    pub fn timeline_points(&self) -> Vec<usize> {
        let mut points = vec![1, 2, self.mid_threads, self.max_threads];
        points.dedup();
        points
    }
}

/// `EPIC_TRIALS`, read here and nowhere else. `0` is as malformed as `x`
/// — a data point needs one trial to exist — so it warns once and falls
/// back to the default of 1.
pub(crate) fn env_trials() -> usize {
    match env_usize("EPIC_TRIALS", 1) {
        0 => {
            warn_malformed_env("EPIC_TRIALS", "0", "usize >= 1");
            1
        }
        n => n,
    }
}

/// `EPIC_KEYRANGE`, read here and nowhere else. A value outside
/// [2, 2^32] (`0` would draw from an empty range) warns once and falls
/// back to the default of 16 384, like `EPIC_TRIALS=0`.
fn env_key_range() -> u64 {
    match env_u64("EPIC_KEYRANGE", 16_384) {
        k if (2..=1 << 32).contains(&k) => k,
        k => {
            warn_malformed_env("EPIC_KEYRANGE", &k.to_string(), "u64 in [2, 2^32]");
            16_384
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amortized_uses_alloc_coupled_drain() {
        let ab = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, 2).amortized();
        assert_eq!(ab.free_mode, FreeMode::Amortized { per_op: 1 });
        // Drain is coupled to allocations, so per_op stays 1 even for the
        // DGT tree (2 frees/delete, but also 2 allocs/insert).
        let dgt = WorkloadCfg::new(TreeKind::Dgt, SmrKind::Debra, 2).amortized();
        assert_eq!(dgt.free_mode, FreeMode::Amortized { per_op: 1 });
        assert_eq!(dgt.scheme_label(), "debra_af");
    }

    #[test]
    fn af_backlog_knob_is_independent_of_bag_cap() {
        let cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::TokenPeriodic, 2).amortized();
        assert_eq!(cfg.scheme_label(), "token_af");
        // The relief valve has its own knob, independent of bag_cap.
        if std::env::var("EPIC_AF_BACKLOG_CAP").is_err() {
            assert_eq!(cfg.af_backlog_cap, cfg.bag_cap * 4);
        }
        let cfg = cfg.with_af_backlog_cap(99);
        assert_eq!(cfg.af_backlog_cap, 99);
    }

    #[test]
    fn scenario_knobs_default_to_paper_workload() {
        let cfg = WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, 2);
        assert_eq!(cfg.seed, 0);
        assert_eq!(cfg.key_dist, KeyDist::Uniform);
        assert_eq!(cfg.churn_every_ops, None);
        let cfg = cfg
            .with_seed(7)
            .with_key_dist(KeyDist::Zipf { theta: 0.99 })
            .with_churn(0);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.key_dist, KeyDist::Zipf { theta: 0.99 });
        // churn 0 clamps to 1 (detach storms, not a division by zero).
        assert_eq!(cfg.churn_every_ops, Some(1));
    }

    #[test]
    fn key_dist_tokens_are_id_safe() {
        assert_eq!(KeyDist::Uniform.token(), "u");
        assert_eq!(KeyDist::Zipf { theta: 0.99 }.token(), "z099");
        assert_eq!(KeyDist::Zipf { theta: 0.5 }.token(), "z050");
        for dist in [KeyDist::Uniform, KeyDist::Zipf { theta: 0.75 }] {
            assert!(dist
                .token()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        }
    }

    #[test]
    fn zero_trials_is_malformed_and_means_one() {
        // Hostile values warn and fall back (or saturate); none may panic.
        let read = |key: &str| match key {
            "EPIC_TRIALS" => ExperimentScale::detect().trials as u64,
            "EPIC_KEYRANGE" => env_key_range(),
            _ => WorkloadCfg::new(TreeKind::Ab, SmrKind::Debra, 2).af_backlog_cap as u64,
        };
        let _guard = crate::report::env_lock();
        for (key, raw, expected) in [
            ("EPIC_TRIALS", "0", 1),
            ("EPIC_KEYRANGE", "0", 16_384),
            ("EPIC_KEYRANGE", "1", 16_384),
            ("EPIC_BAG_CAP", "4611686018427387904", u64::MAX),
        ] {
            if key == "EPIC_BAG_CAP" && std::env::var_os("EPIC_AF_BACKLOG_CAP").is_some() {
                continue; // an explicit backlog cap bypasses the product
            }
            let outer = std::env::var_os(key);
            std::env::set_var(key, raw);
            let got = std::panic::catch_unwind(|| read(key));
            match outer {
                Some(v) => std::env::set_var(key, v),
                None => std::env::remove_var(key),
            }
            assert_eq!(got.ok(), Some(expected), "{key}={raw}");
        }
    }

    #[test]
    fn scale_is_consistent() {
        let s = ExperimentScale::detect();
        assert!(!s.sweep.is_empty());
        assert_eq!(s.max_threads, *s.sweep.last().unwrap());
        assert!(s.trials >= 1);
    }
}
