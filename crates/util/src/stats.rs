//! Streaming statistics for experiment reporting.
//!
//! The paper reports "average throughput over three trials, and the minimum
//! and maximum ... using error bars"; [`OnlineStats`] accumulates exactly
//! those (plus variance via Welford's algorithm, used by the ablation
//! benches to report confidence). [`LogHistogram`] captures latency
//! *distributions* — the free-call latencies of Fig. 3 / Appendix F span
//! five orders of magnitude, which only a log-bucketed histogram reports
//! faithfully.

/// Single-pass mean / min / max / variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (`NaN` if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (`NaN` if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Sample-keeping statistics: everything [`OnlineStats`] offers plus
/// order statistics ([`percentile`](Self::percentile)) and a normal-theory
/// confidence interval ([`ci95_halfwidth`](Self::ci95_halfwidth)).
///
/// [`OnlineStats`] is O(1)-space and right for counters pushed millions of
/// times; `SampleStats` is for *trial-level* aggregation (a handful of
/// observations per configuration), where keeping the samples buys exact
/// quantiles and lets the oracle layer reason about run-to-run noise.
#[derive(Debug, Clone, Default)]
pub struct SampleStats {
    samples: Vec<f64>,
    online: OnlineStats,
}

impl SampleStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        SampleStats::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.online.push(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.online.count()
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.online.mean()
    }

    /// Smallest observation (`NaN` if empty).
    pub fn min(&self) -> f64 {
        self.online.min()
    }

    /// Largest observation (`NaN` if empty).
    pub fn max(&self) -> f64 {
        self.online.max()
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        self.online.variance()
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.online.stddev()
    }

    /// The stored observations, in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The `q`-percentile (`0 ≤ q ≤ 100`) by linear interpolation between
    /// order statistics (the common "type 7" estimator). `NaN` if empty;
    /// the single sample for n = 1.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let q = q.clamp(0.0, 100.0) / 100.0;
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    /// Median — `percentile(50)`.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Half-width of the 95% confidence interval on the mean:
    /// `t · s / √n` with a small-sample t table (normal 1.96 beyond
    /// n = 30). 0 with fewer than two observations — a single trial
    /// carries no spread information, and the oracle layer treats a zero
    /// half-width as "no noise estimate, use the configured tolerance".
    pub fn ci95_halfwidth(&self) -> f64 {
        let n = self.online.count();
        if n < 2 {
            return 0.0;
        }
        // Two-sided 95% t critical values for df = n-1 (df 1..=30).
        const T95: [f64; 30] = [
            12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
            2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
            2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
        ];
        let df = (n - 1) as usize;
        let t = if df <= 30 { T95[df - 1] } else { 1.96 };
        t * self.stddev() / (n as f64).sqrt()
    }

    /// Relative noise level: `ci95_halfwidth / |mean|` (0 when the mean is
    /// 0 or fewer than two samples). Oracles widen their tolerances by
    /// this factor so one noisy CI box doesn't flip a verdict.
    pub fn rel_ci95(&self) -> f64 {
        let m = self.mean().abs();
        if m == 0.0 {
            0.0
        } else {
            self.ci95_halfwidth() / m
        }
    }
}

/// Power-of-two-bucketed histogram for latency-style values spanning many
/// orders of magnitude: bucket `i` counts observations in `[2^i, 2^(i+1))`
/// (bucket 0 additionally holds zeros).
///
/// Designed for the free-call latencies of Fig. 3 / Appendix F: the
/// interesting signal is "how many calls were *visible* (≥ 0.1 ms) and how
/// long was the longest", i.e. tail quantiles, not the mean.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        LogHistogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index for a value: `floor(log2(x))`, with 0 mapping to
    /// bucket 0.
    #[inline]
    pub fn bucket_of(x: u64) -> usize {
        (63 - x.max(1).leading_zeros()) as usize
    }

    /// The inclusive upper bound of bucket `i` (`2^(i+1) - 1`).
    #[inline]
    pub fn bucket_upper(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (2u64 << i) - 1
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: u64) {
        self.buckets[Self::bucket_of(x)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 if empty — exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound for the `q`-quantile (0 ≤ q ≤ 1): the upper edge of
    /// the bucket containing it, i.e. accurate to a factor of 2 — the right
    /// resolution for latency tails. Returns 0 if empty. `quantile(1.0)`
    /// returns the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q.max(0.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Resets to empty.
    pub fn clear(&mut self) {
        *self = LogHistogram::new();
    }
}

/// 1-in-[`Sampler::PERIOD`] sampling for timing a per-operation fast path:
/// two clock reads per call would dominate the call they time, so one call
/// in `PERIOD` is clocked and stands for the whole period. The allocator
/// models' alloc/dealloc counters and the scheme layer's amortized drain
/// share this one copy, so a trial's sampled `free_ns` / `alloc_ns` cannot
/// drift apart. Owner-thread `Cell`, like the counter blocks that embed it.
#[derive(Debug, Default)]
pub struct Sampler {
    tick: std::cell::Cell<u64>,
}

impl Sampler {
    /// Calls per timed call (power of two).
    pub const PERIOD: u64 = 64;

    /// Counts one call; true when this call is the one to time.
    #[inline]
    pub fn fire(&self) -> bool {
        let t = self.tick.get().wrapping_add(1);
        self.tick.set(t);
        t.is_multiple_of(Self::PERIOD)
    }

    /// The time a sampled duration stands for (`ns` per call of the period).
    #[inline]
    pub const fn extrapolate(ns: u64) -> u64 {
        ns * Self::PERIOD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn empty_stats() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn known_sequence() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!(close(s.mean(), 5.0));
        assert!(close(s.variance(), 32.0 / 7.0));
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i * i % 37) as f64).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..40] {
            left.push(x);
        }
        for &x in &data[40..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!(close(left.mean(), whole.mean()));
        assert!(close(left.variance(), whole.variance()));
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert!(close(a.mean(), before.mean()));

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert!(close(empty.mean(), 2.0));
    }

    #[test]
    fn sample_stats_empty() {
        let s = SampleStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.percentile(50.0).is_nan());
        assert!(s.median().is_nan());
        assert_eq!(s.ci95_halfwidth(), 0.0);
        assert_eq!(s.rel_ci95(), 0.0);
        assert!(s.samples().is_empty());
    }

    #[test]
    fn sample_stats_single() {
        let mut s = SampleStats::new();
        s.push(7.5);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 7.5);
        assert_eq!(s.percentile(0.0), 7.5);
        assert_eq!(s.percentile(50.0), 7.5);
        assert_eq!(s.percentile(100.0), 7.5);
        // One sample carries no spread information.
        assert_eq!(s.ci95_halfwidth(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn sample_stats_pair() {
        let mut s = SampleStats::new();
        s.push(10.0);
        s.push(20.0);
        assert_eq!(s.count(), 2);
        assert!(close(s.mean(), 15.0));
        assert!(close(s.median(), 15.0));
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 20.0);
        assert!(close(s.percentile(25.0), 12.5));
        // df = 1: t = 12.706, s = sqrt(50), n = 2.
        let expect = 12.706 * 50.0f64.sqrt() / 2.0f64.sqrt();
        assert!(close(s.ci95_halfwidth(), expect));
        assert!(close(s.rel_ci95(), expect / 15.0));
    }

    #[test]
    fn sample_stats_skewed() {
        // Heavily right-skewed: median must sit far below the mean, and
        // the interpolated tail percentile must fall between the two
        // largest order statistics.
        let mut s = SampleStats::new();
        for x in [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1000.0] {
            s.push(x);
        }
        assert!(close(s.median(), 1.0));
        assert!(s.mean() > 100.0);
        let p95 = s.percentile(95.0);
        assert!(p95 > 2.0 && p95 < 1000.0, "p95 = {p95}");
        assert_eq!(s.percentile(100.0), 1000.0);
        // Monotone in q.
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            let v = s.percentile(q);
            assert!(v >= prev, "percentile not monotone at q={q}");
            prev = v;
        }
    }

    #[test]
    fn sample_stats_matches_online() {
        let mut s = SampleStats::new();
        let mut o = OnlineStats::new();
        for i in 0..40 {
            let x = ((i * 37) % 11) as f64;
            s.push(x);
            o.push(x);
        }
        assert_eq!(s.count(), o.count());
        assert!(close(s.mean(), o.mean()));
        assert!(close(s.variance(), o.variance()));
        assert_eq!(s.min(), o.min());
        assert_eq!(s.max(), o.max());
        // n > 30 uses the normal critical value.
        assert!(close(
            s.ci95_halfwidth(),
            1.96 * o.stddev() / 40.0f64.sqrt()
        ));
    }

    #[test]
    fn hist_bucket_edges() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 0);
        assert_eq!(LogHistogram::bucket_of(2), 1);
        assert_eq!(LogHistogram::bucket_of(3), 1);
        assert_eq!(LogHistogram::bucket_of(4), 2);
        assert_eq!(LogHistogram::bucket_of(1023), 9);
        assert_eq!(LogHistogram::bucket_of(1024), 10);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 63);
        assert_eq!(LogHistogram::bucket_upper(0), 1);
        assert_eq!(LogHistogram::bucket_upper(9), 1023);
        assert_eq!(LogHistogram::bucket_upper(63), u64::MAX);
    }

    #[test]
    fn hist_empty() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn hist_known_distribution() {
        let mut h = LogHistogram::new();
        // 90 fast observations (~100 ns), 9 medium (~10 us), 1 slow (5 ms).
        for _ in 0..90 {
            h.push(100);
        }
        for _ in 0..9 {
            h.push(10_000);
        }
        h.push(5_000_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 5_000_000);
        // p50 lands in the 100ns bucket: [64, 128).
        assert_eq!(h.quantile(0.5), 127);
        // p99 lands in the 10us bucket: [8192, 16384).
        assert_eq!(h.quantile(0.99), 16_383);
        // p100 is the exact max.
        assert_eq!(h.quantile(1.0), 5_000_000);
    }

    #[test]
    fn hist_quantile_is_monotone_and_bounds_max() {
        let mut h = LogHistogram::new();
        let mut x = 1u64;
        for i in 0..1000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i) % 1_000_000 + 1;
            h.push(x);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let v = h.quantile(q);
            assert!(
                v >= prev,
                "quantile must be monotone: q={q} gave {v} < {prev}"
            );
            assert!(v <= h.max());
            prev = v;
        }
    }

    #[test]
    fn hist_merge_equals_sequential() {
        let values: Vec<u64> = (1..500u64).map(|i| i * i % 70_000 + 1).collect();
        let mut whole = LogHistogram::new();
        let mut left = LogHistogram::new();
        let mut right = LogHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.push(v);
            if i % 2 == 0 {
                left.push(v);
            } else {
                right.push(v);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.sum(), whole.sum());
        assert_eq!(left.max(), whole.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(left.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn hist_clear_resets() {
        let mut h = LogHistogram::new();
        h.push(42);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }
}
