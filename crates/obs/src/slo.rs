//! Declarative service-level objectives evaluated as multi-window burn
//! rates.
//!
//! An objective defines what "bad" means for one guarded quantity; the
//! engine evaluates it over a **fast** and a **slow** trailing window
//! (classic multi-window burn-rate alerting: the fast window catches
//! onset quickly, the slow window suppresses blips). For a latency
//! quantile objective `W_q ≤ limit`, the error budget is `1 − q` and the
//! burn rate over a window is
//!
//! ```text
//! burn = P(W > limit within the window) / (1 − q)
//! ```
//!
//! so `burn = 1` consumes the budget exactly as fast as the objective
//! allows, and `burn ≥ threshold` (default 2) on **both** windows means
//! the objective is being violated persistently, not transiently.
//! Utilization and drift objectives reuse the same scale: their "burn" is
//! the ratio of measured pressure to the allowed ceiling.
//!
//! Default objectives come straight from the paper's headline numbers —
//! `W99 ≤ 10 ms`, `W99.99 ≤ 100 ms` (§IV-B reports sub-second 99.99%
//! quantiles for 20 ms service times; a 10 ms W99 target matches the
//! Fig. 12 operating regime); others are passed in `ObsConfig::slos`.

use crate::history::Window;
use rjms_metrics::{shard_series, HistogramSnapshot};
use std::time::Duration;

/// Default instrument guarded by latency objectives.
pub const WAITING_METRIC: &str = "broker.waiting_ns";
/// Instrument used for the measured service time (utilization objective).
pub const SERVICE_METRIC: &str = "broker.service_ns";

/// What one objective guards.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// `quantile` of the named nanosecond histogram must stay at or below
    /// `limit_ns`: burn = fraction of window samples above the limit,
    /// divided by the `1 − quantile` budget.
    LatencyQuantile {
        /// Registry histogram name (nanosecond samples).
        metric: String,
        /// The guarded quantile in `(0, 1)`, e.g. `0.99`.
        quantile: f64,
        /// The limit in nanoseconds.
        limit_ns: u64,
    },
    /// Measured utilization `ρ = λ·E[B]` of the busiest dispatcher shard
    /// (from each shard's service instrument over the window) must stay
    /// below `ceiling`: burn = ρ / ceiling. A shard is one server, so `ρ`
    /// is never summed across shards.
    UtilizationCeiling {
        /// The utilization ceiling in `(0, 1]`.
        ceiling: f64,
    },
    /// The live analytic-model comparison must not report drift or
    /// overload: burn = `threshold` when the latest verdict is red, 0
    /// otherwise (binary — the verdict already embeds its own tolerance).
    DriftHealth,
}

/// One declarative objective plus its evaluation windows.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objective name, unique within the engine (alert identity).
    pub name: String,
    /// The guarded quantity.
    pub objective: Objective,
    /// Fast window (onset detection). Default 5 minutes.
    pub fast_window: Duration,
    /// Slow window (persistence check). Default 1 hour.
    pub slow_window: Duration,
    /// Burn-rate threshold; both windows at or above it → firing.
    pub burn_threshold: f64,
}

impl SloSpec {
    /// A latency-quantile objective with the default 5 m / 1 h windows and
    /// a burn threshold of 2 (budget consumed twice as fast as allowed).
    pub fn latency(name: &str, metric: &str, quantile: f64, limit_ns: u64) -> Self {
        assert!((0.0..1.0).contains(&quantile) && quantile > 0.0, "quantile in (0,1)");
        Self {
            name: name.to_string(),
            objective: Objective::LatencyQuantile {
                metric: metric.to_string(),
                quantile,
                limit_ns,
            },
            fast_window: Duration::from_secs(300),
            slow_window: Duration::from_secs(3600),
            burn_threshold: 2.0,
        }
    }

    /// A utilization-ceiling objective with default windows; fires when
    /// measured `ρ` exceeds the ceiling on both windows.
    pub fn utilization(name: &str, ceiling: f64) -> Self {
        assert!(ceiling > 0.0 && ceiling <= 1.0, "ceiling in (0,1]");
        Self {
            name: name.to_string(),
            objective: Objective::UtilizationCeiling { ceiling },
            fast_window: Duration::from_secs(300),
            slow_window: Duration::from_secs(3600),
            burn_threshold: 1.0,
        }
    }

    /// A model-drift health objective with default windows.
    pub fn drift_health(name: &str) -> Self {
        Self {
            name: name.to_string(),
            objective: Objective::DriftHealth,
            fast_window: Duration::from_secs(300),
            slow_window: Duration::from_secs(3600),
            burn_threshold: 1.0,
        }
    }

    /// Overrides the evaluation windows.
    pub fn windows(mut self, fast: Duration, slow: Duration) -> Self {
        assert!(fast <= slow, "fast window must not exceed slow window");
        self.fast_window = fast;
        self.slow_window = slow;
        self
    }

    /// The paper-default objective set: `W99 ≤ 10 ms`, `W99.99 ≤ 100 ms`,
    /// `ρ ≤ 0.9`, and analytic-model health.
    pub fn defaults() -> Vec<SloSpec> {
        vec![
            SloSpec::latency("w99", WAITING_METRIC, 0.99, 10_000_000),
            SloSpec::latency("w9999", WAITING_METRIC, 0.9999, 100_000_000),
            SloSpec::utilization("rho", 0.9),
            SloSpec::drift_health("model"),
        ]
    }
}

/// One window's evaluation of one objective.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowBurn {
    /// The burn rate (see module docs).
    pub burn: f64,
    /// Samples the evaluation was based on.
    pub samples: u64,
    /// "Bad" events within the window (limit violations).
    pub bad: u64,
}

/// Evaluates one objective over one reconstructed window of a broker with
/// `shards` dispatchers.
///
/// `drift_red` carries the latest model-health verdict for
/// [`Objective::DriftHealth`] (the objective is windowless — the monitor
/// already aggregates).
pub fn evaluate_window(
    objective: &Objective,
    window: &Window,
    shards: usize,
    drift_red: bool,
) -> WindowBurn {
    match objective {
        Objective::LatencyQuantile { metric, quantile, limit_ns } => {
            let Some(h) = window.histogram(metric) else {
                return WindowBurn::default();
            };
            let bad = h.count_above(*limit_ns);
            let budget = 1.0 - quantile;
            let bad_fraction = if h.count > 0 { bad as f64 / h.count as f64 } else { 0.0 };
            WindowBurn { burn: bad_fraction / budget, samples: h.count, bad }
        }
        Objective::UtilizationCeiling { ceiling } => {
            let span = window.span().as_secs_f64();
            let burn = |service: &HistogramSnapshot| {
                let rho = service.count as f64 / span * (service.mean() / 1e9);
                WindowBurn { burn: rho / ceiling, samples: service.count, bad: 0 }
            };
            (0..shards)
                .filter_map(|shard| window.histogram(&shard_series(SERVICE_METRIC, shard, shards)))
                .filter(|service| span > 0.0 && service.count > 0)
                .map(burn)
                .max_by(|a, b| a.burn.total_cmp(&b.burn))
                .unwrap_or_default()
        }
        Objective::DriftHealth => WindowBurn {
            burn: if drift_red { 1.0 } else { 0.0 },
            samples: u64::from(drift_red),
            bad: u64::from(drift_red),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjms_metrics::MetricsRegistry;

    fn window_with(metric: &str, samples_ns: &[u64], span: Duration) -> Window {
        let registry = MetricsRegistry::new();
        let h = registry.histogram(metric);
        for &v in samples_ns {
            h.record(v);
        }
        let snap = registry.snapshot();
        let mut w = Window { start: Duration::ZERO, end: span, ..Window::default() };
        w.histograms.insert(metric.to_string(), snap.histograms[metric].clone());
        w
    }

    #[test]
    fn latency_burn_is_bad_fraction_over_budget() {
        // 100 samples, 3 above the 1 ms limit, q = 0.99 → budget 0.01,
        // bad fraction 0.03, burn 3.
        let mut samples = vec![100_000u64; 97];
        samples.extend([5_000_000, 5_000_000, 5_000_000]);
        let w = window_with("lat_ns", &samples, Duration::from_secs(10));
        let spec = SloSpec::latency("w99", "lat_ns", 0.99, 1_000_000);
        let burn = evaluate_window(&spec.objective, &w, 1, false);
        assert_eq!(burn.samples, 100);
        assert_eq!(burn.bad, 3);
        assert!((burn.burn - 3.0).abs() < 1e-9, "burn {}", burn.burn);
    }

    #[test]
    fn empty_window_burns_nothing() {
        let w = Window::default();
        let spec = SloSpec::latency("w99", "lat_ns", 0.99, 1_000_000);
        assert_eq!(evaluate_window(&spec.objective, &w, 1, false).burn, 0.0);
    }

    #[test]
    fn utilization_burn_is_rho_over_ceiling() {
        // 1000 services of 4.5 ms over 10 s: λ = 100/s, E[B] = 4.5 ms,
        // ρ = 0.45; ceiling 0.9 → burn 0.5.
        let samples = vec![4_500_000u64; 1000];
        let w = window_with(SERVICE_METRIC, &samples, Duration::from_secs(10));
        let spec = SloSpec::utilization("rho", 0.9);
        let burn = evaluate_window(&spec.objective, &w, 1, false);
        assert!((burn.burn - 0.5).abs() < 0.05, "burn {}", burn.burn);
    }

    #[test]
    fn drift_health_is_binary() {
        let w = Window::default();
        let spec = SloSpec::drift_health("model");
        assert_eq!(evaluate_window(&spec.objective, &w, 1, false).burn, 0.0);
        assert_eq!(evaluate_window(&spec.objective, &w, 1, true).burn, 1.0);
    }

    #[test]
    #[should_panic(expected = "fast window must not exceed")]
    fn window_order_enforced() {
        SloSpec::latency("w99", "m", 0.99, 1)
            .windows(Duration::from_secs(600), Duration::from_secs(60));
    }
}
