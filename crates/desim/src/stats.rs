//! Simulation output statistics.
//!
//! Waiting-time samples from the M/G/1 simulator are summarized by an online
//! mean/variance accumulator ([`OnlineStats`]) and an empirical-quantile
//! estimator ([`SampleQuantiles`]).

use serde::{Deserialize, Serialize};

/// Online mean / variance / extrema accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use rjms_desim::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
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
        Self { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
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

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation; 0 when the mean is 0.
    pub fn cvar(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Empirical quantile estimator that stores all samples.
///
/// Memory is one `f64` per sample; the experiments draw up to a few million
/// samples, which is fine. Quantiles use the nearest-rank method, matching
/// the paper's definition `Q_p[W] = min{t : P(W <= t) >= p}`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SampleQuantiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleQuantiles {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an estimator with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { samples: Vec::with_capacity(capacity), sorted: true }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The nearest-rank `p`-quantile.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or no samples were recorded.
    pub fn quantile(&mut self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile requires p in [0, 1], got {p}");
        assert!(!self.samples.is_empty(), "no samples recorded");
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.samples[rank - 1]
    }

    /// Empirical `P(X <= t)`.
    ///
    /// Returns 0 for an empty sample.
    pub fn cdf(&mut self, t: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        // Index of the first element > t.
        let idx = self.samples.partition_point(|&x| x <= t);
        idx as f64 / self.samples.len() as f64
    }

    /// Empirical complementary CDF `P(X > t)`.
    pub fn ccdf(&mut self, t: f64) -> f64 {
        1.0 - self.cdf(t)
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
            self.sorted = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.cvar(), 0.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut q = SampleQuantiles::new();
        for x in 1..=100 {
            q.push(x as f64);
        }
        assert_eq!(q.quantile(0.5), 50.0);
        assert_eq!(q.quantile(0.99), 99.0);
        assert_eq!(q.quantile(1.0), 100.0);
        assert_eq!(q.quantile(0.0), 1.0);
        assert_eq!(q.quantile(0.001), 1.0);
    }

    #[test]
    fn empirical_cdf() {
        let mut q = SampleQuantiles::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            q.push(x);
        }
        assert_eq!(q.cdf(0.5), 0.0);
        assert_eq!(q.cdf(2.0), 0.5);
        assert_eq!(q.cdf(10.0), 1.0);
        assert_eq!(q.ccdf(2.0), 0.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn quantile_of_empty_panics() {
        SampleQuantiles::new().quantile(0.5);
    }
}
