//! Constant-memory log-linear latency histograms.
//!
//! The histogram covers the full `u64` nanosecond range with a fixed 1920
//! buckets (15 KiB of atomics): values below 32 get exact unit-width
//! buckets, and every power-of-two octave above is split into 32 linear
//! sub-buckets. A recorded value therefore lands in a bucket whose upper
//! bound overestimates it by at most `1/32` (3.125%) — the quantile error
//! bound that the property tests in `tests/quantile_prop.rs` check against
//! exact empirical quantiles.
//!
//! Recording is lock-free: one bucket-index computation (a `leading_zeros`
//! and two shifts) plus relaxed atomic adds. Histograms with the same
//! geometry — all of them — are mergeable, so per-shard instruments can be
//! combined into fleet-wide views.

// Atomics come through the rjms-conc facade so the loom models in
// `tests/loom.rs` exercise exactly this code (DESIGN.md §3.14).
use rjms_conc::sync::atomic::{AtomicU64, Ordering};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Number of linear sub-buckets per power-of-two octave (as a bit shift).
///
/// Under `cfg(loom)` the geometry collapses to pure power-of-two buckets
/// (65 instead of 1920): every atomic access is a scheduling point for
/// the model checker, and the interleaving space must stay exhaustively
/// explorable. The bucket-index arithmetic is identical in both shapes.
#[cfg(not(loom))]
const SUB_BITS: u32 = 5;
#[cfg(loom)]
const SUB_BITS: u32 = 0;
/// Number of linear sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: 32 unit buckets + 32 per octave for octaves 5..=63.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// The bucket index of a value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros(); // floor(log2 v), >= SUB_BITS
        let block = (octave - SUB_BITS) as u64;
        (SUB + block * SUB + ((v >> block) & (SUB - 1))) as usize
    }
}

/// The inclusive `(lower, upper)` value range of a bucket.
fn bucket_bounds(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < SUB {
        (index, index)
    } else {
        let block = (index - SUB) / SUB;
        let sub = (index - SUB) % SUB;
        let lower = (SUB + sub) << block;
        (lower, lower + ((1 << block) - 1))
    }
}

/// A lock-free log-linear histogram of `u64` samples (nanoseconds, bytes,
/// queue depths — any non-negative magnitude).
///
/// Memory is constant (1920 atomic buckets); relative quantile error is
/// bounded by 3.125% (`1/32`). See the module docs for the geometry.
///
/// # Examples
///
/// ```
/// use rjms_metrics::Histogram;
/// let h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 1000);
/// let p50 = snap.quantile(0.5).unwrap();
/// assert!((p50 as f64 - 500.0).abs() / 500.0 <= 1.0 / 32.0);
/// ```
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the boxed array through a Vec to
        // keep the 15 KiB of buckets off the stack.
        let buckets: Box<[AtomicU64; BUCKETS]> = (0..BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice()
            .try_into()
            .expect("bucket count is fixed");
        Self {
            buckets,
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    ///
    /// Hot-path cost: two relaxed RMWs (bucket + sum) plus two relaxed
    /// loads — the min/max RMWs only fire while the extrema are still
    /// moving, which stops almost immediately in steady state. The total
    /// count is derived from the buckets at snapshot time instead of being
    /// maintained here.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` ≥ 1 samples of the same value `v` at the cost of one:
    /// what a batch does with the per-item share of a cost it paid once.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples (sums the buckets; intended for
    /// reporting, not for per-sample hot paths).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Adds every sample of `other` into `self` (both histograms share the
    /// same fixed geometry, so the merge is exact bucket addition).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min.fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// An instantaneous copy of the distribution.
    ///
    /// Concurrent recording may tear across buckets (the snapshot is not a
    /// linearization point), which is fine for statistical reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push(BucketCount { upper: bucket_bounds(i).1, count: n });
            }
        }
        let count = buckets.iter().map(|b| b.count).sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed).min(self.max.load(Ordering::Relaxed)),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A single-writer staging buffer for a [`Histogram`].
///
/// A hot single-threaded path (such as a broker dispatcher) records into
/// plain, non-atomic buckets — an L1-resident array increment instead of
/// atomic read-modify-writes on shared cache lines — and periodically
/// [`flushes`](LocalHistogram::flush_into) the accumulated samples into the
/// shared atomic histogram. Readers of the shared histogram lag by at most
/// the flush interval.
///
/// # Examples
///
/// ```
/// use rjms_metrics::{Histogram, LocalHistogram};
/// let shared = Histogram::new();
/// let mut local = LocalHistogram::new();
/// for v in 1..=100u64 {
///     local.record(v);
/// }
/// assert_eq!(local.pending(), 100);
/// local.flush_into(&shared);
/// assert_eq!(local.pending(), 0);
/// assert_eq!(shared.count(), 100);
/// ```
pub struct LocalHistogram {
    buckets: Box<[u64; BUCKETS]>,
    /// Indices of non-zero buckets, so a flush visits only the handful of
    /// buckets a clustered latency distribution actually touches instead
    /// of sweeping the whole array through the cache.
    touched: Vec<u16>,
    pending: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl std::fmt::Debug for LocalHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalHistogram").field("pending", &self.pending).finish()
    }
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// Creates an empty staging buffer.
    pub fn new() -> Self {
        Self {
            buckets: vec![0u64; BUCKETS].into_boxed_slice().try_into().expect("fixed size"),
            touched: Vec::new(),
            pending: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample locally (no atomics).
    #[inline]
    pub fn record(&mut self, v: u64) {
        let index = bucket_index(v);
        if self.buckets[index] == 0 {
            self.touched.push(index as u16);
        }
        self.buckets[index] += 1;
        self.pending += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded since the last flush.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Moves every pending sample into `shared` and resets the buffer.
    pub fn flush_into(&mut self, shared: &Histogram) {
        if self.pending == 0 {
            return;
        }
        for &index in &self.touched {
            let index = index as usize;
            shared.buckets[index].fetch_add(self.buckets[index], Ordering::Relaxed);
            self.buckets[index] = 0;
        }
        self.touched.clear();
        shared.sum.fetch_add(self.sum, Ordering::Relaxed);
        shared.min.fetch_min(self.min, Ordering::Relaxed);
        shared.max.fetch_max(self.max, Ordering::Relaxed);
        self.pending = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

/// One non-empty bucket of a [`HistogramSnapshot`]: `count` samples whose
/// values were at most `upper` (and above the previous bucket's upper
/// bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket's value range.
    pub upper: u64,
    /// Number of samples recorded in the bucket.
    pub count: u64,
}

/// A point-in-time copy of a [`Histogram`]: non-empty buckets plus exact
/// count/sum/min/max.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total recorded samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Smallest recorded sample (0 when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
    /// Non-empty buckets in increasing value order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// The nearest-rank `p`-quantile, reported as the containing bucket's
    /// upper bound: at most `1/32` (3.125%) above the exact sample value.
    /// `None` when the snapshot is empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "quantile requires p in [0, 1], got {p}");
        if self.count == 0 {
            return None;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return Some(b.upper.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Exact sample mean (`sum/count`); 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate variance from bucket upper bounds (inherits the 3.125%
    /// bucket resolution); 0 with fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let mut acc = 0.0;
        for b in &self.buckets {
            let d = b.upper as f64 - mean;
            acc += b.count as f64 * d * d;
        }
        (acc / self.count as f64).max(0.0)
    }

    /// Approximate standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Approximate coefficient of variation (`σ/μ`); 0 when the mean is 0.
    pub fn cvar(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            0.0
        } else {
            self.std_dev() / mean
        }
    }

    /// Number of samples strictly above `threshold`, up to bucket
    /// resolution: a bucket counts as "above" when its entire value range
    /// lies above the threshold, so the result can undercount by at most
    /// one bucket's population (the bucket containing `threshold`).
    pub fn count_above(&self, threshold: u64) -> u64 {
        // A bucket counts as "above" when its entire value range lies above
        // the threshold; the true lower bound is recovered from the shared
        // log-linear geometry via the stored upper bound.
        self.buckets
            .iter()
            .filter(|b| bucket_bounds(bucket_index(b.upper)).0 > threshold)
            .map(|b| b.count)
            .sum()
    }

    /// The per-window distribution between two cumulative snapshots of the
    /// *same histogram*: every bucket count, the total, and the sum are the
    /// differences `self − earlier`. This is the history layer's window
    /// primitive — cumulative instruments never reset, so the samples that
    /// arrived inside a window are exactly the bucket-wise delta.
    ///
    /// Counts are saturating: if `earlier` does not actually precede `self`
    /// (or comes from a different instrument), negative deltas clamp to
    /// zero instead of wrapping. The window's `min`/`max` cannot be
    /// recovered from cumulative extrema, so they are approximated from the
    /// delta's own non-empty buckets (inheriting the 3.125% bucket
    /// resolution); `max` is additionally clamped by the later cumulative's
    /// true maximum, which makes it exact whenever the window contains the
    /// all-time largest sample.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets: Vec<BucketCount> = Vec::new();
        let mut ei = earlier.buckets.iter().peekable();
        for b in &self.buckets {
            // Advance the earlier cursor to the bucket with the same upper
            // bound, if present (both sides are sorted by upper).
            let mut earlier_count = 0;
            while let Some(&e) = ei.peek() {
                match e.upper.cmp(&b.upper) {
                    std::cmp::Ordering::Less => {
                        ei.next();
                    }
                    std::cmp::Ordering::Equal => {
                        earlier_count = e.count;
                        ei.next();
                        break;
                    }
                    std::cmp::Ordering::Greater => break,
                }
            }
            let count = b.count.saturating_sub(earlier_count);
            if count > 0 {
                buckets.push(BucketCount { upper: b.upper, count });
            }
        }
        let count: u64 = buckets.iter().map(|b| b.count).sum();
        HistogramSnapshot {
            count,
            // Wrapping: cumulative sums wrap on overflow, and the delta of
            // two wrapped cumulatives is still exact under wrapping_sub.
            // An empty delta (including the earlier-ahead misuse case,
            // where bucket counts saturate to zero) pins the sum to zero.
            sum: if count == 0 { 0 } else { self.sum.wrapping_sub(earlier.sum) },
            min: buckets.first().map(|b| b.upper).unwrap_or(0),
            max: buckets.last().map(|b| b.upper.min(self.max)).unwrap_or(0),
            buckets,
        }
    }

    /// Folds another snapshot into this one (bucket-wise addition; both
    /// sides come from the shared fixed geometry).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut merged: Vec<BucketCount> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
            match x.upper.cmp(&y.upper) {
                std::cmp::Ordering::Less => {
                    merged.push(*x);
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    merged.push(*y);
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    merged.push(BucketCount { upper: x.upper, count: x.count + y.count });
                    a.next();
                    b.next();
                }
            }
        }
        merged.extend(a.copied());
        merged.extend(b.copied());
        self.buckets = merged;
        self.min = if self.count == 0 { other.min } else { self.min.min(other.min) };
        self.count += other.count;
        // The live histogram's sum wraps on overflow (relaxed fetch_add),
        // so merging must wrap the same way to stay consistent with a
        // single recording of the union.
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut values: Vec<u64> = (0..64)
            .flat_map(|exp| [0u64, 1, 2, 17].map(|off| (1u64 << exp).saturating_add(off)))
            .collect();
        values.sort_unstable();
        values.dedup();
        let mut last = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn record_n_is_n_records() {
        let (batched, single) = (Histogram::new(), Histogram::new());
        for (v, n) in [(7u64, 3u64), (1_000, 64), (0, 1), (123_456_789, 2)] {
            batched.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
        }
        assert_eq!(batched.snapshot(), single.snapshot());
    }

    #[test]
    fn bucket_bounds_tile_the_value_range() {
        // Every bucket's lower bound is the previous upper bound + 1.
        let mut expected_lower = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lower, "gap or overlap at bucket {i}");
            assert!(hi >= lo);
            // Relative width bound: (hi - lo) <= lo / 32 for lo >= 32.
            if lo >= SUB {
                assert!(hi - lo <= lo / SUB, "bucket {i} too wide: [{lo}, {hi}]");
            }
            expected_lower = hi.wrapping_add(1);
        }
        assert_eq!(expected_lower, 0, "last bucket must end at u64::MAX");
    }

    #[test]
    fn values_land_in_their_bucket() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1023, 1 << 20, u64::MAX / 3, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} not in [{lo}, {hi}]");
        }
    }

    #[test]
    fn snapshot_quantiles_within_bound() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 10_000);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 10_000);
        for (p, exact) in [(0.5, 5000.0), (0.99, 9900.0), (0.9999, 10000.0)] {
            let q = snap.quantile(p).unwrap() as f64;
            assert!(q >= exact && q <= exact * (1.0 + 1.0 / 32.0) + 1.0, "p={p}: {q} vs {exact}");
        }
        assert!((snap.mean() - 5000.5).abs() < 1e-9);
        // Uniform 1..=n has cvar = sqrt((n^2-1)/12)/mean ≈ 0.577.
        assert!((snap.cvar() - 0.577).abs() < 0.02, "cvar {}", snap.cvar());
    }

    #[test]
    fn empty_snapshot_is_safe() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.99), None);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.cvar(), 0.0);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 1..=100 {
            a.record(v);
        }
        for v in 1000..=2000 {
            b.record(v);
        }
        a.merge(&b);
        let merged = a.snapshot();
        assert_eq!(merged.count, 100 + 1001);
        assert_eq!(merged.min, 1);
        assert_eq!(merged.max, 2000);

        // Snapshot-level merge agrees with histogram-level merge.
        let c = Histogram::new();
        for v in 1..=100 {
            c.record(v);
        }
        let mut snap = c.snapshot();
        let d = Histogram::new();
        for v in 1000..=2000 {
            d.record(v);
        }
        snap.merge(&d.snapshot());
        assert_eq!(snap, merged);
    }

    #[test]
    fn local_histogram_flush_matches_direct_recording() {
        let direct = Histogram::new();
        let staged = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in [0u64, 1, 31, 32, 500, 1 << 20, u64::MAX / 7] {
            direct.record(v);
            local.record(v);
        }
        local.flush_into(&staged);
        assert_eq!(staged.snapshot(), direct.snapshot());
        // A second flush with nothing pending is a no-op.
        local.flush_into(&staged);
        assert_eq!(staged.snapshot(), direct.snapshot());
        // The buffer is reusable after a flush.
        local.record(7);
        direct.record(7);
        local.flush_into(&staged);
        assert_eq!(staged.snapshot(), direct.snapshot());
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "40k-record stress loop; the loom model and lighter tests cover Miri"
    )]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000_000 + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 40_000);
    }

    #[test]
    #[should_panic(expected = "quantile requires p")]
    fn quantile_rejects_bad_p() {
        Histogram::new().snapshot().quantile(1.5);
    }

    #[test]
    fn delta_recovers_window_samples() {
        let h = Histogram::new();
        h.record(100);
        h.record(5_000);
        let before = h.snapshot();
        h.record(5_000);
        h.record(90_000);
        let after = h.snapshot();
        let window = after.delta(&before);
        assert_eq!(window.count, 2);
        assert_eq!(window.sum, 95_000);
        // Only the window's samples populate the delta buckets; quantiles
        // over it reflect {5_000, 90_000} within bucket resolution.
        let q50 = window.quantile(0.50).unwrap();
        assert!((4_900..=5_200).contains(&q50), "q50 {q50}");
        let q99 = window.quantile(0.99).unwrap();
        assert!((88_000..=93_000).contains(&q99), "q99 {q99}");
        // Bounds come from the delta's own non-empty buckets.
        assert!(window.min >= 5_000 && window.min <= 5_200, "min {}", window.min);
        assert!(window.max >= 90_000 && window.max <= 93_000, "max {}", window.max);
    }

    #[test]
    fn delta_of_identical_snapshots_is_empty() {
        let h = Histogram::new();
        h.record(42);
        let snap = h.snapshot();
        let window = snap.delta(&snap);
        assert_eq!(window.count, 0);
        assert_eq!(window.sum, 0);
        assert!(window.buckets.is_empty());
    }

    #[test]
    fn delta_saturates_instead_of_wrapping() {
        let a = Histogram::new();
        a.record(10);
        let b = Histogram::new();
        b.record(10);
        b.record(10);
        b.record(1_000_000);
        // "Earlier" has MORE samples in the 10-bucket: clamps to zero
        // rather than wrapping to u64::MAX.
        let window = a.snapshot().delta(&b.snapshot());
        assert_eq!(window.count, 0);
        assert_eq!(window.sum, 0);
    }

    #[test]
    fn count_above_splits_at_bucket_resolution() {
        let h = Histogram::new();
        for v in [100u64, 200, 50_000, 80_000, 2_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count_above(10_000), 3);
        assert_eq!(snap.count_above(1_000_000), 1);
        assert_eq!(snap.count_above(0), 5);
        assert_eq!(snap.count_above(u64::MAX), 0);
    }
}
