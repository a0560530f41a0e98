//! The paper-shape oracle: executable assertions over [`ExperimentResult`]s.
//!
//! Every registry row ([`crate::experiments::all_experiments`]) carries an
//! [`Oracle`]: the paper-shape claim it reproduces, as one sentence and as
//! machine-checkable assertions. The assertions are a small DSL
//! ([`Check`]) of shape predicates — ratios, orderings, monotone trends,
//! crossover absence, distribution fractions — each with a noise
//! tolerance and a [`Tier`]:
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
/// strict at paper scale. Pure — the registry feeds it the environment
/// so the same oracles are a CI gate on full runs and merely a report on
/// smoke runs.
pub fn demote_at_millis(a: Assertion, cutoff: u64, millis: u64) -> Assertion {
    if millis <= cutoff {
        a.advisory()
    } else {
        a
    }
}

/// One experiment's paper-shape claim and the assertions encoding it —
/// carried by its registry row
/// ([`Experiment::oracle`](crate::experiments::Experiment::oracle)).
#[derive(Debug, Clone)]
pub struct Oracle {
    /// The paper-shape sentence being encoded.
    pub claim: String,
    /// The assertions.
    pub assertions: Vec<Assertion>,
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
            claim: "".into(),
            assertions: vec![ordering("strict bad", "a", "b")],
        };
        assert_eq!(evaluate(&oracle, &r).verdict(), "FAIL");
    }
}
