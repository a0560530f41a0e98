//! Log-linear latency histogram.
//!
//! `epic_util::stats::LogHistogram` has one bucket per power of two, so two
//! neighbouring buckets differ by 2× and a percentile read from it cannot
//! resolve the 10 % regression bound this benchmark fixes. Here every
//! octave is split into [`SUB`] equal buckets: a bucket is at most 1/32 of
//! its lower edge wide, so a value read back from its bucket is off by at
//! most 3.2 %. Values below [`SUB`] are stored exactly.

/// Linear sub-buckets per octave.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves `SUB_BITS..=63`, `SUB` buckets each, after the exact range.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Nanosecond histogram with ≤ 3.2 % relative bucket width; mergeable.
#[derive(Clone)]
pub struct Hist {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let shift = octave - SUB_BITS;
    // `v >> shift` is in SUB..2*SUB; octave SUB_BITS starts at index SUB.
    (u64::from(shift) * SUB + (v >> shift)) as usize
}

/// Inclusive lower edge and width of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < 2 * SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    ((SUB + i % SUB) << shift, 1 << shift)
}

impl Hist {
    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (exact, not bucketed).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0 < q <= 1`): the sample of rank `ceil(q * count)`,
    /// placed inside its bucket by its rank among the bucket's samples, so
    /// the reading is not quantized to bucket edges (a clock reading of `v`
    /// ns stands for `[v, v + 1)`, so this holds for the exact buckets
    /// too); never above the exact maximum; 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if seen + n >= rank {
                let (lo, width) = bucket_range(i);
                let within = ((rank - seen) as f64 - 0.5) / n as f64;
                return (lo as f64 + width as f64 * within).min(self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }

    /// Samples ranked above the `q`-quantile: how many observations back the
    /// percentile from beyond it.
    pub fn count_beyond(&self, q: f64) -> u64 {
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        self.count.saturating_sub(rank)
    }

    /// `(lower edge, count)` of every non-empty bucket, for the trace file.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_range(i).0, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expect = 0;
        for i in 0..BUCKETS {
            let (lo, width) = bucket_range(i);
            assert_eq!(lo, expect, "bucket {i} starts where the one before ended");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(lo + (width - 1)), i);
            expect = lo.wrapping_add(width);
        }
        assert_eq!(expect, 0, "last bucket ends at 2^64");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_within_three_percent() {
        let mut v = 1u64;
        while v < 1 << 40 {
            let mut h = Hist::default();
            h.record(v);
            // A lone sample is clamped to the exact max; add a larger one so
            // the position inside the bucket is what quantile() reports.
            h.record(v * 4);
            let got = h.quantile(0.5);
            let err = (got - v as f64).abs();
            assert!(
                err <= 1.0 || err <= 0.03 * v as f64,
                "v={v} read back as {got}"
            );
            v = v * 21 / 20 + 1;
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        for (q, want) in [(0.5, 500_000.0), (0.99, 990_000.0), (0.9999, 999_900.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want <= 0.03, "q={q}: {got} vs {want}");
        }
        assert_eq!(h.count_beyond(0.9999), 1);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.quantile(1.0), 1_000_000.0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (Hist::default(), Hist::default(), Hist::default());
        for v in 0..5_000u64 {
            let x = v * v % 77_777;
            if v % 2 == 0 { &mut a } else { &mut b }.record(x);
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.nonzero(), both.nonzero());
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Hist::default();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.count_beyond(0.99), 0);
    }
}
