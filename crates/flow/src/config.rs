//! Configuration for the flow-control subsystem.

use rjms_core::CostParams;
use serde::{Deserialize, Serialize};

/// Configuration for model-driven admission control.
///
/// The model half (`params`, `filters`, `replication_grade`,
/// `w99_objective`, `headroom`) seeds the
/// [`FlowController`](crate::FlowController) until live drift verdicts
/// recalibrate it; the mechanism half (`classes`, `burst_seconds`,
/// `producer_share`, …) shapes how the budget is enforced.
///
/// # Examples
///
/// ```
/// use rjms_flow::FlowConfig;
///
/// let config = FlowConfig::default()
///     .w99_objective(0.005) // 5 ms
///     .classes(4);
/// assert_eq!(config.classes, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// `W99` objective for admitted traffic, in seconds: the 99th
    /// percentile of the waiting time the controller budgets for.
    pub w99_objective: f64,
    /// Safety headroom applied when inverting the model: the controller
    /// targets `w99_objective / headroom`, leaving margin for burst
    /// admission and estimation error. Must be `>= 1`.
    pub headroom: f64,
    /// Number of priority classes in `1..=10`. JMS priorities 0–9 map
    /// proportionally onto classes; class 0 is shed first and the top
    /// class is deferred but never shed.
    pub classes: u8,
    /// Per-message cost constants seeding the analytic service time.
    pub params: CostParams,
    /// Assumed filter count `n_fltr` until live calibration takes over.
    pub filters: u32,
    /// Assumed replication grade `E[R]` until live calibration takes over.
    pub replication_grade: f64,
    /// Depth of the global token bucket, in seconds of `λ_max` (the burst
    /// allowance above the sustained rate).
    pub burst_seconds: f64,
    /// Per-producer cap as a share of `λ_max`, in `(0, 1]`. `1.0`
    /// effectively disables per-producer limiting (the global gate still
    /// applies).
    pub producer_share: f64,
    /// How often the broker re-assesses drift and refreshes the budget,
    /// in milliseconds.
    pub refresh_interval_ms: u64,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            w99_objective: 0.010,
            headroom: 1.25,
            classes: 3,
            params: CostParams::CORRELATION_ID,
            filters: 100,
            replication_grade: 1.0,
            burst_seconds: 0.05,
            producer_share: 0.5,
            refresh_interval_ms: 1000,
        }
    }
}

impl FlowConfig {
    /// Sets the `W99` objective in seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `seconds` is finite and positive.
    pub fn w99_objective(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds > 0.0,
            "w99 objective must be finite and > 0 seconds, got {seconds}"
        );
        self.w99_objective = seconds;
        self
    }

    /// Sets the inversion headroom factor.
    ///
    /// # Panics
    ///
    /// Panics unless `headroom >= 1` and finite.
    pub fn headroom(mut self, headroom: f64) -> Self {
        assert!(headroom.is_finite() && headroom >= 1.0, "headroom must be >= 1, got {headroom}");
        self.headroom = headroom;
        self
    }

    /// Sets the number of priority classes.
    ///
    /// # Panics
    ///
    /// Panics unless `classes` is in `1..=10`.
    pub fn classes(mut self, classes: u8) -> Self {
        assert!((1..=10).contains(&classes), "classes must be in 1..=10, got {classes}");
        self.classes = classes;
        self
    }

    /// Sets the cost constants of the seed model.
    pub fn params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the assumed filter count of the seed model.
    pub fn filters(mut self, filters: u32) -> Self {
        self.filters = filters;
        self
    }

    /// Sets the assumed replication grade of the seed model.
    ///
    /// # Panics
    ///
    /// Panics unless `grade` is finite and non-negative.
    pub fn replication_grade(mut self, grade: f64) -> Self {
        assert!(
            grade.is_finite() && grade >= 0.0,
            "replication grade must be finite and >= 0, got {grade}"
        );
        self.replication_grade = grade;
        self
    }

    /// Sets the global bucket depth in seconds of `λ_max`.
    ///
    /// # Panics
    ///
    /// Panics unless `seconds` is finite and positive.
    pub fn burst_seconds(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds > 0.0,
            "burst depth must be finite and > 0 seconds, got {seconds}"
        );
        self.burst_seconds = seconds;
        self
    }

    /// Sets the per-producer share of `λ_max`.
    ///
    /// # Panics
    ///
    /// Panics unless `share` is in `(0, 1]`.
    pub fn producer_share(mut self, share: f64) -> Self {
        assert!(
            share.is_finite() && share > 0.0 && share <= 1.0,
            "producer share must be in (0, 1], got {share}"
        );
        self.producer_share = share;
        self
    }

    /// Sets the drift-refresh interval in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is zero.
    pub fn refresh_interval_ms(mut self, millis: u64) -> Self {
        assert!(millis > 0, "refresh interval must be > 0 ms");
        self.refresh_interval_ms = millis;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = FlowConfig::default()
            .w99_objective(0.02)
            .headroom(2.0)
            .classes(5)
            .filters(10)
            .replication_grade(3.0)
            .burst_seconds(0.1)
            .producer_share(0.25)
            .refresh_interval_ms(500);
        assert_eq!(c.w99_objective, 0.02);
        assert_eq!(c.classes, 5);
        assert_eq!(c.refresh_interval_ms, 500);
    }

    #[test]
    #[should_panic(expected = "classes")]
    fn rejects_zero_classes() {
        FlowConfig::default().classes(0);
    }

    #[test]
    #[should_panic(expected = "w99 objective")]
    fn rejects_non_positive_objective() {
        FlowConfig::default().w99_objective(0.0);
    }

    #[test]
    #[should_panic(expected = "producer share")]
    fn rejects_oversized_producer_share() {
        FlowConfig::default().producer_share(1.5);
    }
}
