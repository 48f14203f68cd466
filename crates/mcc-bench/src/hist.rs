//! Dependency-free log-bucketed latency histogram (HDR-style).
//!
//! The loadgen harness ([`crate::loadgen`]) records one latency sample per
//! request and needs per-step `p50`/`p99`/`p999` without keeping every
//! sample (an open-loop step at high rate can issue millions of requests).
//! [`LatencyHist`] follows the classic HDR layout: values below
//! 2^[`SUB_BITS`] land in exact unit buckets, and every power-of-two
//! octave above that is split into 2^[`SUB_BITS`] linear sub-buckets, so
//! the relative quantization error is bounded by `1 / 2^SUB_BITS`
//! (≈ 1.6 % at the default of 6 sub-bucket bits) across the full `u64`
//! range. The bucket count is fixed (3776 `u64` slots ≈ 30 KiB), so
//! recording is O(1) with no allocation and shard histograms merge by
//! element-wise addition — the property the per-worker sharding in the
//! loadgen relies on (merge-of-shards ≡ single-histogram recording, pinned
//! by the `hist_props` proptest battery).
//!
//! Units are the caller's choice; the loadgen records nanoseconds.
//!
//! ```
//! use mcc_bench::hist::LatencyHist;
//!
//! let mut h = LatencyHist::new();
//! for v in [10, 20, 30, 40, 1_000_000] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 5);
//! assert!(h.percentile(0.50) <= h.percentile(0.99));
//! // Bucket bounds bracket every recorded value.
//! let (lo, hi) = LatencyHist::bucket_bounds(LatencyHist::bucket_index(30));
//! assert!(lo <= 30 && 30 <= hi);
//! ```

/// Linear sub-bucket bits per power-of-two octave: 2^6 = 64 sub-buckets,
/// bounding relative quantization error by 1/64.
pub const SUB_BITS: u32 = 6;

const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: one exact unit bucket per value below [`SUB`],
/// then `64 - SUB_BITS` octave groups of [`SUB`] sub-buckets each
/// (index of `u64::MAX` is `((63 - SUB_BITS + 1) << SUB_BITS) + SUB - 1`).
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// A fixed-size log-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> LatencyHist {
        LatencyHist {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket a value lands in.
    ///
    /// Values below 2^[`SUB_BITS`] map to exact unit buckets; above that,
    /// the top [`SUB_BITS`]+1 significant bits select the bucket, so bucket
    /// width grows with magnitude while relative error stays bounded.
    pub fn bucket_index(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        (((shift + 1) << SUB_BITS) + ((value >> shift) & (SUB - 1)) as u32) as usize
    }

    /// The inclusive `[lo, hi]` value range of a bucket (the inverse of
    /// [`LatencyHist::bucket_index`]): every value `v` with
    /// `bucket_index(v) == i` satisfies `lo <= v <= hi`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        let group = (index as u64) >> SUB_BITS;
        let off = (index as u64) & (SUB - 1);
        if group == 0 {
            return (off, off);
        }
        let shift = (group - 1) as u32;
        let lo = (SUB + off) << shift;
        // Parenthesized so the top bucket (hi == u64::MAX) cannot
        // momentarily overflow past 2^64.
        (lo, lo + ((1u64 << shift) - 1))
    }

    /// Record one sample. O(1), allocation-free.
    pub fn record(&mut self, value: u64) {
        self.counts[LatencyHist::bucket_index(value)] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Fold another histogram into this one (element-wise count addition).
    /// Recording a sample stream through sharded histograms and merging
    /// yields exactly the histogram of single-threaded recording.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples, exact (tracked outside the buckets).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q × total)`. Returns 0
    /// on an empty histogram. Monotone in `q` by construction (the
    /// cumulative walk only moves forward), and never below the true
    /// quantile of the recorded samples: bucket upper bounds over-report
    /// by at most the bucket width (≤ 1/2^[`SUB_BITS`] relative).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Never report beyond the recorded extremes: the top
                // occupied bucket's upper bound can exceed `max`.
                return LatencyHist::bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_are_exact_below_sub() {
        for v in 0..SUB {
            assert_eq!(LatencyHist::bucket_index(v), v as usize);
            assert_eq!(LatencyHist::bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bounds_bracket_and_index_is_monotone() {
        let probes = [
            0,
            1,
            63,
            64,
            65,
            127,
            128,
            129,
            1_000,
            1_000_000,
            u64::MAX / 3,
            u64::MAX,
        ];
        let mut last = 0usize;
        for &v in &probes {
            let i = LatencyHist::bucket_index(v);
            let (lo, hi) = LatencyHist::bucket_bounds(i);
            assert!(lo <= v && v <= hi, "bucket {i} = [{lo}, {hi}] misses {v}");
            assert!(i >= last, "index must be monotone in the value");
            last = i;
        }
        assert!(LatencyHist::bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 12_345, 9_999_999, 1 << 40] {
            let (lo, hi) = LatencyHist::bucket_bounds(LatencyHist::bucket_index(v));
            let width = (hi - lo) as f64;
            assert!(width / v as f64 <= 1.0 / SUB as f64 + 1e-12);
        }
    }

    #[test]
    fn percentiles_walk_the_distribution() {
        let mut h = LatencyHist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        let p999 = h.percentile(0.999);
        assert!(p50 <= p99 && p99 <= p999);
        // p50 of 1..=1000 is ~500; bucket upper bound allows ≤ 1/64 slack.
        assert!((490..=520).contains(&p50), "p50 = {p50}");
        assert!(p999 <= h.max());
        assert_eq!(h.percentile(0.0), h.percentile(1.0 / 1000.0));
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_equals_single_recording() {
        let samples: Vec<u64> = (0..500).map(|i| (i * 2654435769u64) >> 16).collect();
        let mut whole = LatencyHist::new();
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            if i % 2 == 0 { &mut a } else { &mut b }.record(s);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.percentile(0.99), whole.percentile(0.99));
    }
}
