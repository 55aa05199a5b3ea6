//! Configuration for the flow-control subsystem.

use rjms_core::CostParams;
use serde::{Deserialize, Serialize};

/// Safety headroom applied when inverting the model: the controller targets
/// `w99_objective / HEADROOM`, leaving margin for burst admission and
/// estimation error.
pub(crate) const HEADROOM: f64 = 1.25;

/// Replication grade `E[R]` the seed model assumes until live calibration
/// takes over.
pub(crate) const REPLICATION_GRADE: f64 = 1.0;

/// Depth of every token bucket, in seconds of its rate (the burst
/// allowance above the sustained rate); a refresh re-sizes the buckets to
/// it.
pub(crate) const BURST_SECONDS: f64 = 0.05;

/// Per-producer cap as a share of its lane's `λ_max`: no single producer
/// may take more than half the budget (the lane bucket still applies).
pub(crate) const PRODUCER_SHARE: f64 = 0.5;

/// Configuration for model-driven admission control.
///
/// The model half (`params`, `filters`, `w99_objective`) seeds each
/// dispatcher's [`FlowController`](crate::FlowController) with the budget
/// of one server, which every refresh then re-inverts from that shard's
/// measured service time; the mechanism half (`classes`,
/// `refresh_interval_ms`) shapes how the budget is enforced. The inversion
/// targets the objective divided by a headroom of 1.25 and the seed assumes
/// one copy per message; a shard's bucket holds 50 ms of its `λ_max`, and
/// each producer may take half of it.
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
    /// Number of priority classes in `1..=10`. JMS priorities 0–9 map
    /// proportionally onto classes; class 0 is shed first and the top
    /// class is deferred but never shed.
    pub classes: u8,
    /// Per-message cost constants seeding the analytic service time.
    pub params: CostParams,
    /// Assumed filter count `n_fltr` until live calibration takes over.
    pub filters: u32,
    /// How often the broker re-inverts the budget from the measured service
    /// time, in milliseconds.
    pub refresh_interval_ms: u64,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            w99_objective: 0.010,
            classes: 3,
            params: CostParams::CORRELATION_ID,
            filters: 100,
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

    /// Sets the budget-refresh interval in milliseconds.
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
            .classes(5)
            .filters(10)
            .refresh_interval_ms(500);
        assert_eq!(c.w99_objective, 0.02);
        assert_eq!(c.classes, 5);
        assert_eq!(c.filters, 10);
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
}
