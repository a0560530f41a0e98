//! Scheme configuration: free mode, bag sizes, scan frequencies.

use epic_timeline::{Recorder, Series};
use std::sync::Arc;

/// How a scheme disposes of a batch of objects once they are *safe*.
///
/// This is the paper's central dial (§3.3): `Batch` is the traditional
/// free-it-all-now approach that triggers the remote-batch-free problem;
/// `Amortized` is the paper's fix — park the batch and free `per_op`
/// objects at each subsequent operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeMode {
    /// Free the whole safe batch immediately.
    Batch,
    /// Queue the safe batch; free `per_op` objects per operation.
    ///
    /// §7: "In data structures that free more than one object per operation
    /// on average, amortized freeing should be tuned to free more than one
    /// object per operation" — `per_op` is that tuning knob (1 for the
    /// ABtree, 2 for the DGT tree).
    Amortized {
        /// Objects drained from the freeable list per operation.
        per_op: usize,
    },
    /// Hand safe batches to a dedicated background thread that frees them.
    ///
    /// Implements the Mitake et al. suggestion the paper's §6 rebuts:
    /// "moving batch freeing to a background thread appears to be
    /// insufficient to avoid the RBF problem. Batch freeing is, itself,
    /// the problem." The background thread batch-frees through its own
    /// thread cache, so the flush storms simply move there — the
    /// `ablation_background_free` bench quantifies it.
    ///
    /// Requires the allocator to be built for `max_threads + 1` tids (the
    /// extra tid belongs to the reclaimer thread).
    Background,
    /// Object pooling: park safe batches in per-thread, per-size-class
    /// pools and serve subsequent *allocations* from them directly,
    /// avoiding the allocator almost entirely.
    ///
    /// This is the optimization the paper's §3.3 deliberately does **not**
    /// perform ("we want to show that we can make interaction with the
    /// allocator fast — not avoid it") and footnote 4's explanation for
    /// why pooling reclaimers like VBR outperform allocator-interacting
    /// EBRs. Implemented here as an extension so the `ablation_pooled`
    /// bench can quantify exactly how much of AF's benefit pooling also
    /// captures — and at what cost in allocator-invisible held memory.
    Pooled,
}

impl FreeMode {
    /// The default amortized mode (1 object per op, matching the ABtree).
    pub fn amortized() -> Self {
        FreeMode::Amortized { per_op: 1 }
    }

    /// Suffix appended to scheme names (`""`, `"_af"`, `"_bg"` or
    /// `"_pool"`).
    pub fn suffix(&self) -> &'static str {
        match self {
            FreeMode::Batch => "",
            FreeMode::Amortized { .. } => "_af",
            FreeMode::Background => "_bg",
            FreeMode::Pooled => "_pool",
        }
    }

    /// True for the amortized variant.
    pub fn is_amortized(&self) -> bool {
        matches!(self, FreeMode::Amortized { .. })
    }

    /// Parses a mode name: `"batch"`,
    /// `"amortized"`/`"af"` (per_op 1), `"background"`/`"bg"`,
    /// `"pooled"`/`"pool"`. The error names the accepted spellings.
    pub fn parse(s: &str) -> Result<FreeMode, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "batch" => Ok(FreeMode::Batch),
            "amortized" | "af" => Ok(FreeMode::Amortized { per_op: 1 }),
            "background" | "bg" => Ok(FreeMode::Background),
            "pooled" | "pool" => Ok(FreeMode::Pooled),
            other => Err(format!(
                "unknown mode '{other}' (accepted: batch, amortized|af, background|bg, pooled|pool)"
            )),
        }
    }
}

/// Configuration shared by every scheme.
#[derive(Clone)]
pub struct SmrConfig {
    /// Number of participating threads (dense tids `0..max_threads`).
    pub max_threads: usize,
    /// Batch vs amortized freeing.
    pub mode: FreeMode,
    /// Limbo-bag capacity that triggers a reclamation attempt in
    /// threshold-based schemes (HP/HE/IBR/WFE/NBR/RCU). The paper's
    /// Experiment 2 uses 32 K nodes; the default here scales down with the
    /// machine (override with `EPIC_BAG_CAP`).
    pub bag_cap: usize,
    /// DEBRA: a thread checks one other thread's announcement every
    /// `epoch_check_every` operations (the paper's *k*).
    pub epoch_check_every: usize,
    /// Periodic Token-EBR: check for the token every this many frees
    /// (paper: 100).
    pub token_check_every: usize,
    /// Era-based schemes increment the global era every `era_freq` retires.
    pub era_freq: usize,
    /// Amortized-free backlog cap: when the freeable list exceeds this,
    /// `begin_op` drains extra objects (the "relief valve") so the backlog
    /// stays bounded even though the steady-state drain is coupled 1:1 to
    /// allocations. The occasional flushes this causes reproduce the
    /// paper's residual visible free calls (Fig. 3b, Appendix F).
    pub af_backlog_cap: usize,
    /// Hazard-pointer slots per thread.
    pub hp_slots: usize,
    /// Record individual `free` calls at least this long (ns) into the
    /// timeline recorder; `u64::MAX` disables per-call recording.
    pub free_call_record_ns: u64,
    /// Timeline recorder (pass a disabled one for throughput-only runs).
    pub recorder: Arc<Recorder>,
    /// Per-epoch garbage series (the lower panels of Figs. 4, 6–9);
    /// `None` disables sampling.
    pub garbage_series: Option<Arc<Series>>,
}

impl SmrConfig {
    /// Baseline configuration for `max_threads` threads: batch freeing, no
    /// timeline recording.
    pub fn new(max_threads: usize) -> Self {
        let bag_cap = epic_util::topology::env_usize("EPIC_BAG_CAP", 4096);
        SmrConfig {
            max_threads,
            mode: FreeMode::Batch,
            bag_cap,
            epoch_check_every: 100,
            token_check_every: 100,
            era_freq: 64,
            // The relief valve has its own knob; it defaults to the
            // (possibly overridden) bag cap. It used to silently alias
            // EPIC_BAG_CAP, making the valve untunable on its own.
            af_backlog_cap: epic_util::topology::env_usize("EPIC_AF_BACKLOG_CAP", bag_cap),
            hp_slots: 8,
            free_call_record_ns: u64::MAX,
            recorder: Arc::new(Recorder::disabled(max_threads)),
            garbage_series: None,
        }
    }

    /// Switches to amortized freeing with `per_op` frees per operation.
    pub fn with_amortized(mut self, per_op: usize) -> Self {
        self.mode = FreeMode::Amortized { per_op };
        self
    }

    /// Sets the free mode.
    pub fn with_mode(mut self, mode: FreeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the limbo-bag capacity.
    pub fn with_bag_cap(mut self, cap: usize) -> Self {
        self.bag_cap = cap;
        self
    }

    /// Sets the amortized-free backlog cap (the relief-valve threshold).
    pub fn with_af_backlog_cap(mut self, cap: usize) -> Self {
        self.af_backlog_cap = cap;
        self
    }

    /// Attaches a timeline recorder.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches a garbage series.
    pub fn with_garbage_series(mut self, series: Arc<Series>) -> Self {
        self.garbage_series = Some(series);
        self
    }

    /// Enables per-call free recording above `ns`.
    pub fn with_free_call_recording(mut self, ns: u64) -> Self {
        self.free_call_record_ns = ns;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_suffixes() {
        assert_eq!(FreeMode::Batch.suffix(), "");
        assert_eq!(FreeMode::amortized().suffix(), "_af");
        assert!(FreeMode::amortized().is_amortized());
        assert!(!FreeMode::Batch.is_amortized());
    }

    #[test]
    fn builder_chain() {
        let cfg = SmrConfig::new(4)
            .with_amortized(2)
            .with_bag_cap(128)
            .with_af_backlog_cap(512)
            .with_free_call_recording(1000);
        assert_eq!(cfg.max_threads, 4);
        assert_eq!(cfg.mode, FreeMode::Amortized { per_op: 2 });
        assert_eq!(cfg.bag_cap, 128);
        assert_eq!(cfg.af_backlog_cap, 512);
        assert_eq!(cfg.free_call_record_ns, 1000);
    }

    // Regression: af_backlog_cap read EPIC_BAG_CAP instead of its own
    // EPIC_AF_BACKLOG_CAP, so the relief valve silently tracked the bag
    // cap and could not be tuned independently. Each test uses its own
    // env key; these two are only read here (SmrConfig::new reads the
    // real keys, so we pin the default/fallback relationship instead of
    // mutating the shared environment).

    #[test]
    fn af_backlog_cap_defaults_to_bag_cap() {
        // With neither env var set, both knobs share the 4096 default.
        if std::env::var("EPIC_BAG_CAP").is_err() && std::env::var("EPIC_AF_BACKLOG_CAP").is_err() {
            let cfg = SmrConfig::new(2);
            assert_eq!(cfg.af_backlog_cap, cfg.bag_cap);
        }
    }

    #[test]
    fn af_backlog_cap_reads_its_own_env_var() {
        // Pin the fix itself: EPIC_AF_BACKLOG_CAP (not EPIC_BAG_CAP) feeds
        // the relief valve. The value is deliberately *larger* than every
        // default so a concurrently-constructed SmrConfig in another test
        // only sees a laxer valve, never a tighter one.
        if std::env::var("EPIC_AF_BACKLOG_CAP").is_err() {
            std::env::set_var("EPIC_AF_BACKLOG_CAP", "123456");
            let cfg = SmrConfig::new(2);
            std::env::remove_var("EPIC_AF_BACKLOG_CAP");
            assert_eq!(cfg.af_backlog_cap, 123456);
            // bag_cap is unaffected by the AF knob.
            assert_ne!(cfg.bag_cap, 123456);
        }
    }

    #[test]
    fn free_mode_parse_round_trips_suffix_spellings() {
        assert_eq!(FreeMode::parse("batch"), Ok(FreeMode::Batch));
        assert_eq!(FreeMode::parse("amortized"), Ok(FreeMode::amortized()));
        assert_eq!(FreeMode::parse("af"), Ok(FreeMode::amortized()));
        assert_eq!(FreeMode::parse("bg"), Ok(FreeMode::Background));
        assert_eq!(FreeMode::parse(" Pool "), Ok(FreeMode::Pooled));
        // Hostile input (the deleted fifth mode included): the error lists what is accepted.
        for bad in ["nope", "", "adapt", "adaptive", "_adapt"] {
            let err = FreeMode::parse(bad).expect_err(bad);
            assert!(err.contains("batch, amortized|af, background|bg, pooled|pool"));
        }
    }

    #[test]
    fn af_backlog_cap_is_independent_of_bag_cap_builder() {
        // Tuning one knob must not move the other.
        let cfg = SmrConfig::new(2).with_bag_cap(64).with_af_backlog_cap(4096);
        assert_eq!(cfg.bag_cap, 64);
        assert_eq!(cfg.af_backlog_cap, 4096);
        let cfg = SmrConfig::new(2).with_af_backlog_cap(7).with_bag_cap(9999);
        assert_eq!(cfg.af_backlog_cap, 7);
    }
}
