//! Live analytic-vs-measured drift detection.
//!
//! The paper validates its Eq. 1 + `M/GI/1-∞` model against *offline*
//! measurements (Figs. 10–12). [`ModelMonitor`] turns that validation into
//! a runtime check: it holds the calibrated analytic reference — a
//! [`ServerModel`] (cost constants + filter count) and a
//! [`ReplicationModel`] — and periodically consumes the broker's live
//! waiting-time and service-time histograms (from `rjms-metrics`),
//! comparing measured `E[B]`, `c_var[B]`, `E[W]`, and the 99% waiting-time
//! quantile against the prediction at the *measured* arrival rate.
//!
//! A healthy broker yields [`ModelVerdict::Calibrated`]; a broker whose
//! per-message costs have drifted from calibration (more filters than the
//! model assumes, an inflated `t_fltr`, a slow disk behind `t_store`)
//! yields [`ModelVerdict::Drift`] with the violated comparisons spelled
//! out.
//!
//! ## Example
//!
//! ```
//! use rjms_core::monitor::{ModelMonitor, ModelVerdict};
//! use rjms_core::{CostParams, ReplicationModel, ServerModel};
//! use rjms_metrics::Histogram;
//! use std::time::Duration;
//!
//! let model = ServerModel::new(CostParams::new(50e-6, 4e-6, 30e-6), 100);
//! let monitor = ModelMonitor::new(model, ReplicationModel::deterministic(5.0));
//!
//! // Feed measured samples (here: synthetic, exactly on-model).
//! let waiting = Histogram::new();
//! let service = Histogram::new();
//! // ... record dispatch measurements ...
//! let verdict = monitor.assess(&waiting.snapshot(), &service.snapshot(), Duration::from_secs(10));
//! assert!(matches!(verdict, ModelVerdict::Insufficient { .. })); // nothing recorded yet
//! ```

use crate::model::ServerModel;
use crate::waiting::{WaitingTimeAnalysis, WaitingTimeReport};
use rjms_metrics::HistogramSnapshot;
use rjms_queueing::replication::ReplicationModel;
use serde::{Deserialize, Serialize};
use std::time::Duration;

// The analytic-vs-measured tolerances. Deliberately loose: histogram
// quantization contributes up to 3.125%, the Gamma quantile approximation
// (Eq. 20) a few percent more, and finite measurement windows add sampling
// noise on top.

/// Largest relative error of measured `E[B]` vs the Eq. 1 prediction.
const SERVICE_MEAN_TOLERANCE: f64 = 0.15;
/// Largest absolute error of measured `c_var[B]` vs the model.
const SERVICE_CVAR_TOLERANCE: f64 = 0.25;
/// Largest relative error of measured `E[W]` vs the M/GI/1 prediction.
const WAITING_MEAN_TOLERANCE: f64 = 0.30;
/// Largest relative error of the measured 99% waiting-time quantile vs the
/// Gamma-approximated `Q_0.99[W]`.
const WAITING_Q99_TOLERANCE: f64 = 0.35;
/// Fewest waiting-time samples a window needs to be summarized at all.
pub const MIN_SAMPLES: u64 = 1_000;

/// Measured-side summary extracted from the live histograms (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredSummary {
    /// Waiting-time samples in the window.
    pub samples: u64,
    /// Measured arrival rate `λ` (messages per second).
    pub arrival_rate: f64,
    /// Measured mean service time `E[B]`, seconds.
    pub mean_service_time: f64,
    /// Measured coefficient of variation of the service time.
    pub service_cvar: f64,
    /// Implied utilization `λ · E[B]` (with the *measured* service time).
    pub utilization: f64,
    /// Measured mean waiting time `E[W]`, seconds.
    pub mean_waiting_time: f64,
    /// Measured 99% waiting-time quantile, seconds.
    pub q99: f64,
    /// Measured 99.99% waiting-time quantile, seconds.
    pub q9999: f64,
}

impl MeasuredSummary {
    /// Summarizes one measurement window: `waiting` and `service` are
    /// histograms of per-message waiting and service times in
    /// **nanoseconds** (as recorded by the broker's dispatcher), `elapsed`
    /// the wall-clock length of the window, which gives the arrival rate.
    /// `None` below [`MIN_SAMPLES`] samples or for a zero-length window.
    pub fn of(
        waiting: &HistogramSnapshot,
        service: &HistogramSnapshot,
        elapsed: Duration,
    ) -> Option<Self> {
        let samples = waiting.count.min(service.count);
        if samples < MIN_SAMPLES || elapsed.is_zero() {
            return None;
        }
        const NS: f64 = 1e9;
        let arrival_rate = waiting.count as f64 / elapsed.as_secs_f64();
        Some(Self {
            samples,
            arrival_rate,
            mean_service_time: service.mean() / NS,
            service_cvar: service.cvar(),
            utilization: arrival_rate * service.mean() / NS,
            mean_waiting_time: waiting.mean() / NS,
            q99: waiting.quantile(0.99).unwrap_or(0) as f64 / NS,
            q9999: waiting.quantile(0.9999).unwrap_or(0) as f64 / NS,
        })
    }
}

/// One analytic-vs-measured comparison that exceeded its tolerance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftViolation {
    /// Which quantity drifted (`"E[B]"`, `"c_var[B]"`, `"E[W]"`, `"Q99[W]"`).
    pub quantity: &'static str,
    /// The measured value (seconds, or dimensionless for `c_var`).
    pub measured: f64,
    /// The model's prediction.
    pub predicted: f64,
    /// The error that was compared against the tolerance (relative, except
    /// absolute for `c_var`).
    pub error: f64,
    /// The tolerance it exceeded.
    pub tolerance: f64,
}

/// Side-by-side measured and predicted quantities plus any violations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    /// What the histograms say.
    pub measured: MeasuredSummary,
    /// What Eq. 1 + M/GI/1 predict at the measured arrival rate.
    pub predicted: WaitingTimeReport,
    /// Comparisons that exceeded tolerance (empty when calibrated).
    pub violations: Vec<DriftViolation>,
}

impl DriftReport {
    /// Renders the side-by-side comparison as a compact table.
    pub fn render_text(&self) -> String {
        let m = &self.measured;
        let p = &self.predicted;
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>14} {:>14} {:>9}\n",
            "quantity", "measured", "predicted", "rel.err"
        ));
        let rel = |meas: f64, pred: f64| if pred != 0.0 { (meas - pred) / pred } else { 0.0 };
        for (name, meas, pred) in [
            ("E[B]", m.mean_service_time, p.mean_service_time),
            ("c_var[B]", m.service_cvar, p.service_cvar),
            ("E[W]", m.mean_waiting_time, p.mean_waiting_time),
            ("Q99[W]", m.q99, p.q99),
            ("Q9999[W]", m.q9999, p.q9999),
        ] {
            out.push_str(&format!(
                "{name:<10} {meas:>14.6} {pred:>14.6} {:>8.1}%\n",
                rel(meas, pred) * 100.0
            ));
        }
        for v in &self.violations {
            out.push_str(&format!(
                "DRIFT: {} off by {:.1}% (tolerance {:.1}%)\n",
                v.quantity,
                v.error * 100.0,
                v.tolerance * 100.0
            ));
        }
        out
    }
}

/// The monitor's conclusion about one measurement window.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelVerdict {
    /// Too few samples to judge.
    Insufficient {
        /// Waiting-time samples seen.
        samples: u64,
        /// Samples required ([`MIN_SAMPLES`]).
        required: u64,
    },
    /// The measured operating point has no stationary M/GI/1 regime
    /// (`ρ >= 1`); the model predicts unbounded waiting and no comparison
    /// is possible.
    Overloaded {
        /// The implied utilization.
        utilization: f64,
    },
    /// All comparisons within tolerance: the live broker agrees with the
    /// calibrated Eq. 1 + M/GI/1 model.
    Calibrated(DriftReport),
    /// At least one comparison exceeded tolerance.
    Drift(DriftReport),
}

impl ModelVerdict {
    /// Whether the verdict is green.
    pub fn is_calibrated(&self) -> bool {
        matches!(self, Self::Calibrated(_))
    }

    /// The underlying report, when one was computed.
    pub fn report(&self) -> Option<&DriftReport> {
        match self {
            Self::Calibrated(r) | Self::Drift(r) => Some(r),
            _ => None,
        }
    }

    /// The verdict that speaks for `k` independent M/GI/1 servers, one
    /// verdict each: the server that bounds W99. An overloaded server (the
    /// most overloaded one) before any other, else the highest measured
    /// utilisation, else — no server has enough samples yet — the one with
    /// the most. One server's verdict is itself; `None` only for no verdicts.
    /// The SLO engine judges it.
    pub fn bounding<'a>(verdicts: impl IntoIterator<Item = &'a Self>) -> Option<&'a Self> {
        let load = |verdict: &Self| match verdict {
            Self::Overloaded { utilization } => (2, *utilization),
            Self::Insufficient { samples, .. } => (0, *samples as f64),
            verdict => (1, verdict.report().map_or(0.0, |r| r.measured.utilization)),
        };
        verdicts.into_iter().max_by(|a, b| {
            let (a, b) = (load(a), load(b));
            a.0.cmp(&b.0).then(a.1.total_cmp(&b.1))
        })
    }
}

/// Continuously compares a live broker against its calibrated analytic
/// model. See the [module docs](self) for the methodology.
#[derive(Debug, Clone)]
pub struct ModelMonitor {
    model: ServerModel,
    replication: ReplicationModel,
}

impl ModelMonitor {
    /// Creates a monitor for the calibrated `model` under the expected
    /// replication-grade distribution.
    pub fn new(model: ServerModel, replication: ReplicationModel) -> Self {
        Self { model, replication }
    }

    /// The analytic reference model.
    pub fn model(&self) -> &ServerModel {
        &self.model
    }

    /// Judges one measurement window, summarized by
    /// [`MeasuredSummary::of`].
    pub fn assess(
        &self,
        waiting: &HistogramSnapshot,
        service: &HistogramSnapshot,
        elapsed: Duration,
    ) -> ModelVerdict {
        let Some(measured) = MeasuredSummary::of(waiting, service, elapsed) else {
            let samples = waiting.count.min(service.count);
            return ModelVerdict::Insufficient { samples, required: MIN_SAMPLES };
        };

        // Predict at the *measured* arrival rate with the *calibrated*
        // service time: drift in the real per-message costs then shows up
        // as disagreement in both E[B] and E[W].
        let service_model = self.model.service_time(self.replication);
        let rho = measured.arrival_rate * service_model.mean();
        let analysis = match WaitingTimeAnalysis::for_service_time(service_model, rho) {
            Ok(a) => a,
            Err(_) => return ModelVerdict::Overloaded { utilization: rho },
        };
        let predicted = analysis.report();

        let mut violations = Vec::new();
        let mut check_rel = |quantity, measured: f64, predicted: f64, tolerance: f64| {
            let error = if predicted != 0.0 {
                ((measured - predicted) / predicted).abs()
            } else {
                measured.abs()
            };
            if error > tolerance {
                violations.push(DriftViolation { quantity, measured, predicted, error, tolerance });
            }
        };
        check_rel(
            "E[B]",
            measured.mean_service_time,
            predicted.mean_service_time,
            SERVICE_MEAN_TOLERANCE,
        );
        check_rel(
            "E[W]",
            measured.mean_waiting_time,
            predicted.mean_waiting_time,
            WAITING_MEAN_TOLERANCE,
        );
        check_rel("Q99[W]", measured.q99, predicted.q99, WAITING_Q99_TOLERANCE);
        let cvar_error = (measured.service_cvar - predicted.service_cvar).abs();
        if cvar_error > SERVICE_CVAR_TOLERANCE {
            violations.push(DriftViolation {
                quantity: "c_var[B]",
                measured: measured.service_cvar,
                predicted: predicted.service_cvar,
                error: cvar_error,
                tolerance: SERVICE_CVAR_TOLERANCE,
            });
        }

        let report = DriftReport { measured, predicted, violations };
        if report.violations.is_empty() {
            ModelVerdict::Calibrated(report)
        } else {
            ModelVerdict::Drift(report)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CostParams;
    use rjms_metrics::Histogram;

    fn monitor() -> ModelMonitor {
        let model = ServerModel::new(CostParams::new(50e-6, 4e-6, 30e-6), 100);
        ModelMonitor::new(model, ReplicationModel::deterministic(5.0))
    }

    /// Waiting and service histograms of `n` samples each.
    fn window(n: u64) -> (HistogramSnapshot, HistogramSnapshot) {
        let (waiting, service) = (Histogram::new(), Histogram::new());
        for _ in 0..n {
            waiting.record(1_000);
            service.record(1_000);
        }
        (waiting.snapshot(), service.snapshot())
    }

    #[test]
    fn a_window_is_summarized_from_min_samples_on() {
        let second = Duration::from_secs(1);
        let (waiting, service) = window(MIN_SAMPLES - 1);
        assert_eq!(MeasuredSummary::of(&waiting, &service, second), None);
        let (waiting, service) = window(MIN_SAMPLES);
        assert_eq!(MeasuredSummary::of(&waiting, &service, Duration::ZERO), None);
        let summary = MeasuredSummary::of(&waiting, &service, second).expect("enough samples");
        assert_eq!(summary.samples, MIN_SAMPLES);
        assert_eq!(summary.arrival_rate, MIN_SAMPLES as f64);
    }

    #[test]
    fn too_few_samples_is_insufficient() {
        let (waiting, service) = window(MIN_SAMPLES - 1);
        let v = monitor().assess(&waiting, &service, Duration::from_secs(1));
        assert_eq!(
            v,
            ModelVerdict::Insufficient { samples: MIN_SAMPLES - 1, required: MIN_SAMPLES }
        );
    }

    #[test]
    fn overload_is_flagged() {
        // E[B] = 50µs + 100·4µs + 5·30µs = 600µs; λ = 10k/s → ρ = 6.
        let waiting = Histogram::new();
        let service = Histogram::new();
        for _ in 0..10_000 {
            waiting.record(1_000_000);
            service.record(600_000);
        }
        let v = monitor().assess(&waiting.snapshot(), &service.snapshot(), Duration::from_secs(1));
        match v {
            ModelVerdict::Overloaded { utilization } => assert!(utilization > 1.0),
            other => panic!("expected overload, got {other:?}"),
        }
    }

    /// A `kind` verdict whose report measured the given utilisation.
    fn busy(utilization: f64, kind: fn(DriftReport) -> ModelVerdict) -> ModelVerdict {
        let service = ServerModel::new(CostParams::CORRELATION_ID, 1)
            .service_time(ReplicationModel::deterministic(1.0));
        let predicted = WaitingTimeAnalysis::for_service_time(service, 0.5).unwrap().report();
        let measured = MeasuredSummary {
            samples: 5000,
            arrival_rate: predicted.arrival_rate,
            mean_service_time: predicted.mean_service_time,
            service_cvar: 0.0,
            utilization,
            mean_waiting_time: predicted.mean_waiting_time,
            q99: predicted.q99,
            q9999: predicted.q9999,
        };
        kind(DriftReport { measured, predicted, violations: Vec::new() })
    }

    #[test]
    fn the_bounding_verdict_is_the_shard_that_bounds_w99() {
        use ModelVerdict::{Calibrated, Drift};
        let overloaded = |utilization| ModelVerdict::Overloaded { utilization };
        let idle = |samples| ModelVerdict::Insufficient { samples, required: 1000 };
        let bounding = |verdicts: &[ModelVerdict]| ModelVerdict::bounding(verdicts).cloned();
        // Overloaded beats busy (the worst overload when there are two).
        let v = [busy(0.9, Drift), overloaded(1.1), idle(3), overloaded(1.4)];
        assert_eq!(bounding(&v), Some(overloaded(1.4)));
        // The busiest shard beats an idler one, whatever their kinds.
        let v = [busy(0.2, Drift), idle(3), busy(0.6, Calibrated), busy(0.4, Drift)];
        assert_eq!(bounding(&v), Some(busy(0.6, Calibrated)));
        // Before any shard can be judged, the one closest to it.
        assert_eq!(bounding(&[idle(3), idle(700), idle(12)]), Some(idle(700)));
        assert_eq!(bounding(&[]), None);
        // One shard is that shard: the single-dispatcher broker's behaviour.
        for verdict in [busy(0.3, Drift), busy(0.3, Calibrated), overloaded(1.2), idle(3)] {
            assert_eq!(ModelVerdict::bounding([&verdict]), Some(&verdict));
        }
    }
}
