//! The paper-shape oracle: executable assertions over [`ExperimentResult`]s.
//!
//! Every experiment ends with a free-text `paper shape: ...` print. This
//! module turns those prose claims into machine-checkable assertions: a
//! small DSL ([`Check`]) of shape predicates — ratios, orderings,
//! monotone trends, crossover absence, distribution fractions — each with
//! a noise tolerance and a [`Tier`]:
//!
//! * **Strict** assertions are structural or robust at any scale (grid
//!   completeness, by-construction inequalities). `epic-run check` exits
//!   non-zero when one fails — they are CI gates.
//! * **Advisory** assertions encode magnitude claims that only emerge at
//!   paper scale (large `EPIC_MILLIS`, many trials). A failing advisory
//!   is reported (and recorded in `SHAPES.json`) but never fails the
//!   build, so tiny smoke runs stay green while full runs still surface
//!   every deviation from the paper.
//!
//! Tolerances are *relative*: an [`Check::Ordering`] with `tol = 0.10`
//! accepts `greater ≥ 0.9 × lesser`. When an experiment reports a
//! measured noise level (`rel_ci95/...` metrics from multi-trial runs),
//! [`evaluate`] widens the tolerance by it, so the same oracle adjusts to
//! however noisy the box happens to be (DESIGN.md §6).

use crate::config::ExperimentScale;
use crate::report::{ExperimentResult, Table};

/// How a failed assertion affects the overall verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Must hold at any scale; fails the `check` run.
    Strict,
    /// Paper-scale magnitude claim; reported but never fatal.
    Advisory,
}

impl Tier {
    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Strict => "strict",
            Tier::Advisory => "advisory",
        }
    }
}

/// One shape predicate over an experiment's metrics/series.
#[derive(Debug, Clone)]
pub enum Check {
    /// `metrics[num] / metrics[den] ≥ min`, within tolerance.
    RatioAtLeast {
        /// Numerator metric.
        num: String,
        /// Denominator metric.
        den: String,
        /// Minimum acceptable ratio.
        min: f64,
    },
    /// `metrics[greater] ≥ metrics[lesser]`, within tolerance.
    Ordering {
        /// The metric claimed to be larger.
        greater: String,
        /// The metric claimed to be smaller.
        lesser: String,
    },
    /// `metrics[metric] ≥ min`, within tolerance. With `min = 0` this is
    /// a pure existence check (missing metrics always fail).
    AtLeast {
        /// The metric.
        metric: String,
        /// Lower bound.
        min: f64,
    },
    /// `metrics[metric] ≤ max`, within tolerance.
    AtMost {
        /// The metric.
        metric: String,
        /// Upper bound.
        max: f64,
    },
    /// Every adjacent step of the series moves the claimed direction
    /// (within tolerance — small counter-moves under `tol` are accepted).
    Monotone {
        /// The series.
        series: String,
        /// `true` = non-decreasing, `false` = non-increasing.
        rising: bool,
    },
    /// The mean of the series' second half vs its first half moves the
    /// claimed direction — "grows/shrinks over time" without demanding
    /// point-wise monotonicity of a noisy signal.
    Trend {
        /// The series.
        series: String,
        /// `true` = later half larger.
        rising: bool,
    },
    /// `upper[i] ≥ lower[i]` at every index (within tolerance): the
    /// `upper` curve never crosses below `lower` across the sweep.
    CrossoverAbsent {
        /// The series claimed to dominate.
        upper: String,
        /// The dominated series.
        lower: String,
    },
    /// At most `max_fraction` of the series' entries are below
    /// `threshold` (threshold is tolerance-shrunk). Encodes "wins for
    /// 9/10 schemes"-style claims.
    FractionBelow {
        /// The series.
        series: String,
        /// Entries below this count against the budget.
        threshold: f64,
        /// Largest acceptable failing fraction.
        max_fraction: f64,
    },
}

/// A named, tiered, tolerance-carrying check.
#[derive(Debug, Clone)]
pub struct Assertion {
    /// Human-readable claim (appears in the verdict table / SHAPES.json).
    pub label: String,
    /// Strict or advisory.
    pub tier: Tier,
    /// Relative noise tolerance (see module docs).
    pub tol: f64,
    /// The predicate.
    pub check: Check,
}

impl Assertion {
    fn new(label: &str, check: Check) -> Self {
        Assertion {
            label: label.to_string(),
            tier: Tier::Strict,
            tol: 0.05,
            check,
        }
    }

    /// Demotes to advisory.
    pub fn advisory(mut self) -> Self {
        self.tier = Tier::Advisory;
        self
    }

    /// Overrides the relative tolerance.
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }
}

/// `num/den ≥ min` (strict by default).
pub fn ratio_at_least(label: &str, num: &str, den: &str, min: f64) -> Assertion {
    Assertion::new(
        label,
        Check::RatioAtLeast {
            num: num.into(),
            den: den.into(),
            min,
        },
    )
}

/// `greater ≥ lesser` (strict by default).
pub fn ordering(label: &str, greater: &str, lesser: &str) -> Assertion {
    Assertion::new(
        label,
        Check::Ordering {
            greater: greater.into(),
            lesser: lesser.into(),
        },
    )
}

/// `metric ≥ min` (strict by default).
pub fn at_least(label: &str, metric: &str, min: f64) -> Assertion {
    Assertion::new(
        label,
        Check::AtLeast {
            metric: metric.into(),
            min,
        },
    )
}

/// `metric ≤ max` (strict by default).
pub fn at_most(label: &str, metric: &str, max: f64) -> Assertion {
    Assertion::new(
        label,
        Check::AtMost {
            metric: metric.into(),
            max,
        },
    )
}

/// Series non-decreasing (strict by default).
pub fn monotone_rising(label: &str, series: &str) -> Assertion {
    Assertion::new(
        label,
        Check::Monotone {
            series: series.into(),
            rising: true,
        },
    )
}

/// Series non-increasing (strict by default).
pub fn monotone_falling(label: &str, series: &str) -> Assertion {
    Assertion::new(
        label,
        Check::Monotone {
            series: series.into(),
            rising: false,
        },
    )
}

/// Second-half mean above first-half mean (strict by default).
pub fn trend_rising(label: &str, series: &str) -> Assertion {
    Assertion::new(
        label,
        Check::Trend {
            series: series.into(),
            rising: true,
        },
    )
}

/// `upper` stays at or above `lower` point-wise (strict by default).
pub fn crossover_absent(label: &str, upper: &str, lower: &str) -> Assertion {
    Assertion::new(
        label,
        Check::CrossoverAbsent {
            upper: upper.into(),
            lower: lower.into(),
        },
    )
}

/// At most `max_fraction` of the series below `threshold` (strict by
/// default).
pub fn fraction_below(label: &str, series: &str, threshold: f64, max_fraction: f64) -> Assertion {
    Assertion::new(
        label,
        Check::FractionBelow {
            series: series.into(),
            threshold,
            max_fraction,
        },
    )
}

/// Trial durations at or below this many milliseconds count as smoke
/// runs: throughput ratios, peak-memory orderings, flush-count trends,
/// sampled garbage peaks and token laps measured over a handful of
/// milliseconds are dominated by startup/drain phase noise and by which
/// thread the scheduler parks, not by the steady-state behavior the
/// paper claims are about.
pub const SMOKE_MILLIS: u64 = 20;

/// Scale-aware tiering: demotes `a` to advisory when the per-trial
/// duration `millis` is within smoke range (`<= cutoff`), and leaves it
/// strict at paper scale. Pure — `all_oracles` feeds it the environment
/// so the same oracle catalog is a CI gate on full runs and merely a
/// report on smoke runs.
pub fn demote_at_millis(a: Assertion, cutoff: u64, millis: u64) -> Assertion {
    if millis <= cutoff {
        a.advisory()
    } else {
        a
    }
}

/// One experiment's registered paper-shape claims.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// The experiment id this oracle checks (matches the registry —
    /// owned, because runbook-generated experiments synthesize their
    /// oracles at run time).
    pub experiment: String,
    /// The paper-shape sentence being encoded.
    pub claim: String,
    /// The assertions.
    pub assertions: Vec<Assertion>,
}

impl Oracle {
    fn new(experiment: impl Into<String>, claim: impl Into<String>) -> Self {
        Oracle {
            experiment: experiment.into(),
            claim: claim.into(),
            assertions: Vec::new(),
        }
    }

    fn check(mut self, a: Assertion) -> Self {
        self.assertions.push(a);
        self
    }
}

/// The outcome of one assertion against one result.
#[derive(Debug, Clone)]
pub struct AssertionOutcome {
    /// The assertion's claim label.
    pub label: String,
    /// Strict or advisory.
    pub tier: Tier,
    /// Whether the predicate held.
    pub passed: bool,
    /// Numbers behind the verdict (or what was missing).
    pub detail: String,
}

/// All outcomes for one experiment.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// The experiment id.
    pub experiment: String,
    /// The encoded paper-shape sentence.
    pub claim: String,
    /// Per-assertion outcomes.
    pub outcomes: Vec<AssertionOutcome>,
}

impl OracleReport {
    /// Number of failed strict assertions.
    pub fn strict_failures(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.passed && o.tier == Tier::Strict)
            .count()
    }

    /// Number of failed advisory assertions.
    pub fn advisory_failures(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.passed && o.tier == Tier::Advisory)
            .count()
    }

    /// `PASS` (all green), `ADVISORY` (only advisory misses), or `FAIL`
    /// (at least one strict miss).
    pub fn verdict(&self) -> &'static str {
        if self.strict_failures() > 0 {
            "FAIL"
        } else if self.advisory_failures() > 0 {
            "ADVISORY"
        } else {
            "PASS"
        }
    }
}

/// The per-experiment noise widening: the largest `rel_ci95/...` metric
/// the experiment reported (0 when single-trial).
fn noise_widening(result: &ExperimentResult) -> f64 {
    result
        .metrics()
        .iter()
        .filter(|(k, _)| k.starts_with("rel_ci95/"))
        .map(|(_, v)| *v)
        .fold(0.0, f64::max)
        .min(0.5) // cap: beyond 50% relative CI the data is noise anyway
}

/// Evaluates one oracle against one result.
pub fn evaluate(oracle: &Oracle, result: &ExperimentResult) -> OracleReport {
    let widen = noise_widening(result);
    let outcomes = oracle
        .assertions
        .iter()
        .map(|a| {
            let tol = a.tol + widen;
            let (passed, detail) = eval_check(&a.check, tol, result);
            AssertionOutcome {
                label: a.label.clone(),
                tier: a.tier,
                passed,
                detail,
            }
        })
        .collect();
    OracleReport {
        experiment: result.id.clone(),
        claim: oracle.claim.to_string(),
        outcomes,
    }
}

fn metric_of(result: &ExperimentResult, name: &str) -> Result<f64, String> {
    result
        .get(name)
        .ok_or_else(|| format!("metric '{name}' missing"))
}

fn series_of<'r>(result: &'r ExperimentResult, name: &str) -> Result<&'r [f64], String> {
    match result.get_series(name) {
        Some(s) if !s.is_empty() => Ok(s),
        Some(_) => Err(format!("series '{name}' is empty")),
        None => Err(format!("series '{name}' missing")),
    }
}

fn eval_check(check: &Check, tol: f64, result: &ExperimentResult) -> (bool, String) {
    match check {
        Check::RatioAtLeast { num, den, min } => {
            match (metric_of(result, num), metric_of(result, den)) {
                (Ok(n), Ok(d)) => {
                    if d <= 0.0 {
                        return (false, format!("denominator {den} = {d} (non-positive)"));
                    }
                    let ratio = n / d;
                    let floor = min * (1.0 - tol);
                    (
                        ratio >= floor,
                        format!("{num}/{den} = {ratio:.3} (needs ≥ {floor:.3})"),
                    )
                }
                (Err(e), _) | (_, Err(e)) => (false, e),
            }
        }
        Check::Ordering { greater, lesser } => {
            match (metric_of(result, greater), metric_of(result, lesser)) {
                (Ok(g), Ok(l)) => (
                    g >= l * (1.0 - tol),
                    format!("{greater} = {g:.3} vs {lesser} = {l:.3} (tol {tol:.2})"),
                ),
                (Err(e), _) | (_, Err(e)) => (false, e),
            }
        }
        Check::AtLeast { metric, min } => match metric_of(result, metric) {
            Ok(v) => {
                let floor = min * (1.0 - tol);
                (
                    v >= floor,
                    format!("{metric} = {v:.3} (needs ≥ {floor:.3})"),
                )
            }
            Err(e) => (false, e),
        },
        Check::AtMost { metric, max } => match metric_of(result, metric) {
            Ok(v) => {
                let ceil = max * (1.0 + tol);
                (v <= ceil, format!("{metric} = {v:.3} (needs ≤ {ceil:.3})"))
            }
            Err(e) => (false, e),
        },
        Check::Monotone { series, rising } => match series_of(result, series) {
            Ok(vals) => {
                let dir = if *rising { "rising" } else { "falling" };
                for w in vals.windows(2) {
                    let ok = if *rising {
                        w[1] >= w[0] * (1.0 - tol)
                    } else {
                        w[1] <= w[0] * (1.0 + tol)
                    };
                    if !ok {
                        return (
                            false,
                            format!("{series} not {dir}: step {:.3} -> {:.3}", w[0], w[1]),
                        );
                    }
                }
                (true, format!("{series} {dir} across {} points", vals.len()))
            }
            Err(e) => (false, e),
        },
        Check::Trend { series, rising } => match series_of(result, series) {
            Ok(vals) => {
                let mid = vals.len() / 2;
                let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;
                let (early, late) = (mean(&vals[..mid.max(1)]), mean(&vals[mid..]));
                let ok = if *rising {
                    late >= early * (1.0 - tol)
                } else {
                    late <= early * (1.0 + tol)
                };
                (
                    ok,
                    format!("{series} halves: early {early:.3}, late {late:.3}"),
                )
            }
            Err(e) => (false, e),
        },
        Check::CrossoverAbsent { upper, lower } => {
            match (series_of(result, upper), series_of(result, lower)) {
                (Ok(u), Ok(l)) => {
                    if u.len() != l.len() {
                        return (
                            false,
                            format!(
                                "length mismatch: {upper} {} vs {lower} {}",
                                u.len(),
                                l.len()
                            ),
                        );
                    }
                    for (i, (a, b)) in u.iter().zip(l.iter()).enumerate() {
                        if *a < b * (1.0 - tol) {
                            return (
                                false,
                                format!("{upper} dips below {lower} at index {i}: {a:.3} < {b:.3}"),
                            );
                        }
                    }
                    (true, format!("{upper} ≥ {lower} at all {} points", u.len()))
                }
                (Err(e), _) | (_, Err(e)) => (false, e),
            }
        }
        Check::FractionBelow {
            series,
            threshold,
            max_fraction,
        } => match series_of(result, series) {
            Ok(vals) => {
                let cut = threshold * (1.0 - tol);
                let below = vals.iter().filter(|v| **v < cut).count();
                let frac = below as f64 / vals.len() as f64;
                (
                    frac <= *max_fraction,
                    format!(
                        "{below}/{} of {series} below {cut:.3} (frac {frac:.2}, max {max_fraction:.2})",
                        vals.len()
                    ),
                )
            }
            Err(e) => (false, e),
        },
    }
}

/// One registered oracle per experiment, in registry order: the builtin
/// catalog, then the one synthesized for each runbook-generated cell.
/// Every id in [`crate::experiments::all_experiments`] has exactly one
/// entry here (enforced by `tests/cli_consistency.rs`). `check` itself
/// asks each experiment for its
/// [`oracle`](crate::experiments::Experiment::oracle).
pub fn all_oracles() -> Vec<Oracle> {
    let mut oracles = builtin_oracles();
    let cells = crate::scenario::generated_experiments();
    oracles.extend(cells.iter().map(crate::experiments::Experiment::oracle));
    oracles
}

/// The builtin catalog, in registry order. Reads the scale knobs
/// (`EPIC_THREADS`, `EPIC_MILLIS`) and nothing else — no runbook.
pub(crate) fn builtin_oracles() -> Vec<Oracle> {
    let scale = ExperimentScale::detect();
    // Throughput-ratio claims (AF vs batch and friends) need steady-state
    // trials; at smoke durations they are demoted to advisory (see
    // [`demote_at_millis`]).
    let millis = epic_util::topology::env_u64("EPIC_MILLIS", 200);
    let sweep = scale.sweep.len() as f64;
    let mut t1_points = vec![1, scale.mid_threads, scale.max_threads];
    t1_points.dedup();
    let t1_rows = t1_points.len() as f64;
    // fig18_29 thread points (same dedup the experiment applies).
    let mut g_points = vec![1, 2, scale.mid_threads, scale.max_threads];
    g_points.dedup();

    vec![
        Oracle::new(
            "fig1_scaling",
            "ABtree+debra flattens while OCCtree keeps scaling; leaking closes the gap but \
             explodes ABtree memory",
        )
        .check(at_least(
            "full 4-config sweep grid",
            "rows/fig1_scaling",
            4.0 * sweep,
        ))
        .check(demote_at_millis(
            ordering(
                "leaking explodes ABtree memory",
                "peak_mib/abtree/none/max_t",
                "peak_mib/abtree/debra/max_t",
            )
            .tol(0.10),
            SMOKE_MILLIS,
            millis,
        ))
        .check(
            ordering(
                "OCCtree outscales ABtree under debra at max threads",
                "mops/occtree/debra/max_t",
                "mops/abtree/debra/max_t",
            )
            .advisory(),
        ),
        Oracle::new(
            "table1_je_overhead",
            "%free/%flush/%lock rise steeply with threads while epoch count collapses",
        )
        .check(at_least(
            "all thread points measured",
            "rows/table1_je_overhead",
            t1_rows,
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
        Oracle::new(
            "fig2_timeline_batch",
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
        Oracle::new(
            "fig3_timeline_af",
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
        Oracle::new(
            "table2_af_counters",
            "amortized frees MORE objects in LESS time; lock time collapses",
        )
        .check(at_least(
            "both approaches measured",
            "rows/table2_af_counters",
            2.0,
        ))
        .check(demote_at_millis(
            ratio_at_least(
                "AF at least matches batch throughput",
                "mops/af",
                "mops/batch",
                1.0,
            )
            .tol(0.15),
            SMOKE_MILLIS,
            millis,
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
        Oracle::new(
            "fig4_garbage",
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
        Oracle::new(
            "table3_allocators",
            "AF speeds up JE (2.6x) and TC (3.25x) but NOT MI — per-page free lists sidestep \
             the RBF problem",
        )
        .check(at_least(
            "3 allocators x 2 modes",
            "rows/table3_allocators",
            6.0,
        ))
        .check(demote_at_millis(
            at_least("AF does not hurt JE", "af_ratio/je", 1.0).tol(0.15),
            SMOKE_MILLIS,
            millis,
        ))
        .check(demote_at_millis(
            at_least("AF does not hurt TC", "af_ratio/tc", 1.0).tol(0.15),
            SMOKE_MILLIS,
            millis,
        ))
        .check(at_least("AF speeds up JE ≥ 2x (paper: 2.6x)", "af_ratio/je", 2.0).advisory())
        .check(at_least("AF speeds up TC ≥ 2x (paper: 3.25x)", "af_ratio/tc", 2.0).advisory())
        .check(demote_at_millis(
            at_most("MI does not improve", "af_ratio/mi", 1.10).tol(0.10),
            SMOKE_MILLIS,
            millis,
        )),
        Oracle::new(
            "fig5_6_naive_token",
            "high apparent throughput but terrible reclamation: garbage pile-up, serialized frees",
        )
        .check(at_least(
            "sweep perf table complete",
            "rows/fig5_6_naive_token_perf",
            sweep,
        ))
        .check(demote_at_millis(
            at_least("garbage piles past one limbo bag", "peak_garbage", 4096.0).tol(0.25),
            SMOKE_MILLIS,
            millis,
        ))
        .check(
            ratio_at_least("retires outpace frees (pile-up)", "retired", "freed", 1.2).advisory(),
        ),
        Oracle::new(
            "fig7_passfirst",
            "concurrent freeing now, but batch lengths still grow over time",
        )
        .check(at_least("frees actually happen", "freed", 1.0))
        .check(at_least(
            "garbage series sampled",
            "garbage/series/epochs",
            1.0,
        ))
        .check(trend_rising("batch lengths grow over the run", "garbage/series").advisory()),
        Oracle::new(
            "fig8_periodic",
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
        Oracle::new(
            "fig9_10_token_af",
            "garbage pile-up gone, epoch count way up, best perf + memory of the variants",
        )
        .check(at_least(
            "sweep perf table complete",
            "rows/fig9_10_token_af_perf",
            sweep,
        ))
        .check(demote_at_millis(
            at_least("token circulates", "epochs", 1.0),
            SMOKE_MILLIS,
            millis,
        ))
        .check(
            ratio_at_least("reclamation keeps up (no pile-up)", "freed", "retired", 0.5).advisory(),
        ),
        Oracle::new(
            "table4_token_variants",
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
        Oracle::new(
            "fig11a_experiment1",
            "token_af on top (~1.7x next best nbr+; 7-9x hp/he) and both AF schemes beat the \
             leaky baseline",
        )
        .check(at_least(
            "13-scheme sweep grid",
            "rows/fig11a_experiment1",
            13.0 * sweep,
        ))
        .check(demote_at_millis(
            ordering("token_af beats hp", "mops/token_af/max_t", "mops/hp/max_t").tol(0.15),
            SMOKE_MILLIS,
            millis,
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
        Oracle::new(
            "fig11b_experiment2",
            "AF wins for 9/10 schemes (up to 2.3x); he does not improve; hp/wfe only ~1.2x",
        )
        .check(at_least(
            "all ten schemes measured",
            "rows/fig11b_experiment2",
            10.0,
        ))
        .check(demote_at_millis(
            fraction_below("AF wins for ≥ 9/10 schemes", "af_ratio_field", 1.0, 0.101).tol(0.15),
            SMOKE_MILLIS,
            millis,
        ))
        .check(
            at_most("he does not improve (≤ ~1.15x)", "af_ratio/he", 1.15)
                .advisory()
                .tol(0.10),
        ),
        Oracle::new(
            "fig12_orig_vs_af_sweep",
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
        Oracle::new(
            "fig13_dgt_orig_vs_af",
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
        Oracle::new(
            "fig14_dgt_experiment1",
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
        Oracle::new(
            "fig15_16_machine_presets",
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
        Oracle::new(
            "fig17_visible_frees",
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
        Oracle::new(
            "fig18_29_allocator_timelines",
            "je/tc timelines fill with long batch frees as threads grow; mi stays clean",
        )
        .check(at_least(
            "all thread points visited",
            "thread_points",
            g_points.len() as f64,
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
        Oracle::new(
            "ablation_af_drain_rate",
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
        Oracle::new(
            "ablation_tcache_cap",
            "bigger caches absorb more of each batch -> fewer flushes",
        )
        .check(at_least(
            "all cap points measured",
            "rows/ablation_tcache_cap",
            3.0,
        ))
        .check(demote_at_millis(
            monotone_falling("flushes fall as cap grows", "flushes_by_cap").tol(0.15),
            SMOKE_MILLIS,
            millis,
        ))
        .check(
            ordering("small cap flushes most", "flushes/cap50", "flushes/cap800")
                .advisory()
                .tol(0.10),
        ),
        Oracle::new(
            "ablation_arena_count",
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
        Oracle::new(
            "ablation_token_check_period",
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
        Oracle::new(
            "ablation_bag_cap",
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
        Oracle::new(
            "ablation_background_free",
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
        Oracle::new(
            "ablation_stalled_thread",
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
        Oracle::new(
            "ablation_update_ratio",
            "the AF advantage shrinks as updates (and hence garbage) thin out",
        )
        .check(at_least(
            "all update ratios measured",
            "rows/ablation_update_ratio",
            3.0,
        ))
        .check(demote_at_millis(
            monotone_falling(
                "%free falls as updates thin out",
                "orig_pct_free_by_updates",
            )
            .tol(0.25),
            SMOKE_MILLIS,
            millis,
        ))
        .check(
            monotone_falling("AF advantage shrinks with updates", "af_ratio_by_updates")
                .advisory()
                .tol(0.15),
        ),
        Oracle::new(
            "ablation_pooled",
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
        .check(demote_at_millis(
            ordering(
                "pooling slashes allocator traffic",
                "allocs/batch",
                "allocs/pooled",
            )
            .tol(0.25),
            SMOKE_MILLIS,
            millis,
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
        Oracle::new(
            "ablation_allocator_fix",
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
        Oracle::new(
            "ablation_ds_generality",
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
    ]
}

/// The oracle for one experiment id.
pub fn oracle_for(id: &str) -> Option<Oracle> {
    all_oracles().into_iter().find(|o| o.experiment == id)
}

/// Renders the verdict table `epic-run check` prints.
pub fn render_verdict_table(reports: &[OracleReport]) -> String {
    let mut t = Table::new(
        "check_verdicts",
        "paper-shape oracle verdicts",
        &[
            "experiment",
            "verdict",
            "strict",
            "advisory",
            "first failure",
        ],
    );
    for r in reports {
        let strict_total = r.outcomes.iter().filter(|o| o.tier == Tier::Strict).count();
        let adv_total = r
            .outcomes
            .iter()
            .filter(|o| o.tier == Tier::Advisory)
            .count();
        let first_fail = r
            .outcomes
            .iter()
            .find(|o| !o.passed)
            .map(|o| o.label.clone())
            .unwrap_or_default();
        t.row(vec![
            r.experiment.clone(),
            r.verdict().to_string(),
            format!("{}/{}", strict_total - r.strict_failures(), strict_total),
            format!("{}/{}", adv_total - r.advisory_failures(), adv_total),
            first_fail,
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(metrics: &[(&str, f64)], series: &[(&str, &[f64])]) -> ExperimentResult {
        let mut r = ExperimentResult::new("test");
        for (k, v) in metrics {
            r.metric(*k, *v);
        }
        for (k, vs) in series {
            r.set_series(*k, vs.to_vec());
        }
        r
    }

    fn eval_one(a: Assertion, r: &ExperimentResult) -> AssertionOutcome {
        let oracle = Oracle {
            experiment: "test".into(),
            claim: "".into(),
            assertions: vec![a],
        };
        evaluate(&oracle, r).outcomes.into_iter().next().unwrap()
    }

    #[test]
    fn demote_at_millis_is_scale_aware() {
        // Smoke scale: strict becomes advisory.
        let a = demote_at_millis(at_least("x", "m", 1.0), SMOKE_MILLIS, SMOKE_MILLIS);
        assert_eq!(a.tier, Tier::Advisory);
        let a = demote_at_millis(at_least("x", "m", 1.0), SMOKE_MILLIS, 1);
        assert_eq!(a.tier, Tier::Advisory);
        // Paper scale: stays strict.
        let a = demote_at_millis(at_least("x", "m", 1.0), SMOKE_MILLIS, SMOKE_MILLIS + 1);
        assert_eq!(a.tier, Tier::Strict);
        let a = demote_at_millis(at_least("x", "m", 1.0), SMOKE_MILLIS, 200);
        assert_eq!(a.tier, Tier::Strict);
        // Already-advisory assertions are unaffected either way.
        let a = demote_at_millis(at_least("x", "m", 1.0).advisory(), SMOKE_MILLIS, 200);
        assert_eq!(a.tier, Tier::Advisory);
    }

    #[test]
    fn ratio_and_ordering_respect_tolerance() {
        let r = result_with(&[("a", 95.0), ("b", 100.0)], &[]);
        // a/b = 0.95 ≥ 1.0*(1-0.10).
        assert!(eval_one(ratio_at_least("x", "a", "b", 1.0).tol(0.10), &r).passed);
        assert!(!eval_one(ratio_at_least("x", "a", "b", 1.0).tol(0.01), &r).passed);
        assert!(eval_one(ordering("x", "a", "b").tol(0.10), &r).passed);
        assert!(!eval_one(ordering("x", "a", "b").tol(0.01), &r).passed);
    }

    #[test]
    fn missing_metric_fails_with_detail() {
        let r = result_with(&[("a", 1.0)], &[]);
        let o = eval_one(ordering("x", "a", "nope"), &r);
        assert!(!o.passed);
        assert!(o.detail.contains("nope"), "detail: {}", o.detail);
        let o = eval_one(monotone_rising("x", "no_series"), &r);
        assert!(!o.passed);
        assert!(o.detail.contains("no_series"));
    }

    #[test]
    fn at_least_zero_is_existence() {
        let r = result_with(&[("present", 0.0)], &[]);
        assert!(eval_one(at_least("x", "present", 0.0), &r).passed);
        assert!(!eval_one(at_least("x", "absent", 0.0), &r).passed);
    }

    #[test]
    fn at_most_respects_tolerance() {
        let r = result_with(&[("m", 1.14)], &[]);
        assert!(eval_one(at_most("x", "m", 1.10).tol(0.05), &r).passed);
        assert!(!eval_one(at_most("x", "m", 1.10).tol(0.01), &r).passed);
    }

    #[test]
    fn monotone_directions() {
        let r = result_with(
            &[],
            &[
                ("up", &[1.0, 2.0, 3.0][..]),
                ("down", &[3.0, 2.0, 1.0][..]),
                ("bumpy_up", &[1.0, 2.0, 1.95, 3.0][..]),
            ],
        );
        assert!(eval_one(monotone_rising("x", "up"), &r).passed);
        assert!(!eval_one(monotone_rising("x", "down"), &r).passed);
        assert!(eval_one(monotone_falling("x", "down"), &r).passed);
        assert!(!eval_one(monotone_falling("x", "up"), &r).passed);
        // 2.0 -> 1.95 is a 2.5% dip, inside the 5% default tolerance.
        assert!(eval_one(monotone_rising("x", "bumpy_up"), &r).passed);
    }

    #[test]
    fn trend_compares_halves() {
        let r = result_with(&[], &[("grows", &[1.0, 1.0, 5.0, 5.0][..])]);
        assert!(eval_one(trend_rising("x", "grows"), &r).passed);
        let r = result_with(&[], &[("shrinks", &[5.0, 5.0, 1.0, 1.0][..])]);
        assert!(!eval_one(trend_rising("x", "shrinks"), &r).passed);
    }

    #[test]
    fn crossover_absent_checks_pointwise() {
        let r = result_with(
            &[],
            &[
                ("hi", &[2.0, 3.0, 4.0][..]),
                ("lo", &[1.0, 2.0, 3.0][..]),
                ("crossing", &[1.0, 5.0, 1.0][..]),
                ("short", &[1.0][..]),
            ],
        );
        assert!(eval_one(crossover_absent("x", "hi", "lo"), &r).passed);
        assert!(!eval_one(crossover_absent("x", "crossing", "hi"), &r).passed);
        let o = eval_one(crossover_absent("x", "hi", "short"), &r);
        assert!(!o.passed);
        assert!(o.detail.contains("length mismatch"));
    }

    #[test]
    fn fraction_below_counts() {
        let nine_wins = [1.5, 1.2, 1.3, 1.1, 2.0, 1.4, 1.6, 1.2, 1.05, 0.4];
        let r = result_with(&[], &[("ratios", &nine_wins[..])]);
        // One of ten below 1.0 → frac 0.1 ≤ 0.101.
        assert!(eval_one(fraction_below("x", "ratios", 1.0, 0.101).tol(0.0), &r).passed);
        // Zero tolerance for losses.
        assert!(!eval_one(fraction_below("x", "ratios", 1.0, 0.0).tol(0.0), &r).passed);
    }

    #[test]
    fn noise_widening_expands_tolerance() {
        // a/b = 0.85 fails at tol 0.05, but a 15% measured CI widens it.
        let mut r = result_with(&[("a", 85.0), ("b", 100.0)], &[]);
        assert!(!eval_one(ordering("x", "a", "b").tol(0.05), &r).passed);
        r.metric("rel_ci95/whatever", 0.15);
        assert!(eval_one(ordering("x", "a", "b").tol(0.05), &r).passed);
    }

    #[test]
    fn verdict_tiers() {
        let r = result_with(&[("a", 1.0), ("b", 2.0)], &[]);
        // Strict pass + advisory fail → ADVISORY.
        let oracle = Oracle {
            experiment: "test".into(),
            claim: "".into(),
            assertions: vec![
                ordering("strict ok", "b", "a"),
                ordering("advisory bad", "a", "b").advisory(),
            ],
        };
        let report = evaluate(&oracle, &r);
        assert_eq!(report.verdict(), "ADVISORY");
        assert_eq!(report.strict_failures(), 0);
        assert_eq!(report.advisory_failures(), 1);
        // Strict fail → FAIL.
        let oracle = Oracle {
            experiment: "test".into(),
            claim: "".into(),
            assertions: vec![ordering("strict bad", "a", "b")],
        };
        assert_eq!(evaluate(&oracle, &r).verdict(), "FAIL");
    }

    #[test]
    fn every_experiment_has_exactly_one_oracle() {
        let oracles = all_oracles();
        let experiments = crate::experiments::all_experiments();
        let experiment_ids: Vec<&str> = experiments.iter().map(|e| e.id.as_str()).collect();
        let oracle_ids: Vec<&str> = oracles.iter().map(|o| o.experiment.as_str()).collect();
        assert_eq!(
            oracle_ids, experiment_ids,
            "oracle registry must match the experiment registry exactly, in order"
        );
        for o in &oracles {
            assert!(
                !o.assertions.is_empty(),
                "{} has no assertions",
                o.experiment
            );
            assert!(
                o.assertions.iter().any(|a| a.tier == Tier::Strict),
                "{} has no strict assertion",
                o.experiment
            );
            assert!(!o.claim.is_empty(), "{} has no claim", o.experiment);
        }
    }
}
