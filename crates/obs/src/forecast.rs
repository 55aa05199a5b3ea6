//! Model-driven saturation forecasting: time-to-breach before any burn.
//!
//! The burn-rate evaluator ([`crate::slo`]) is inherently reactive — it
//! needs bad samples in its windows before it can say anything. This
//! module closes the paper's loop the other way: the same Eq. 1 +
//! `M/GI/1` machinery that *explains* the waiting time is inverted to
//! *predict* when a rising arrival rate will push the server past its
//! objectives.
//!
//! Three stages, all O(1) memory over the existing history rings:
//!
//! 1. **Trend** — a least-squares slope over the per-slot arrival rate
//!    λ(t) from the waiting instrument's count series, cross-checked
//!    against a split-means robust slope and variance-gated into a
//!    [`Confidence`] tier.
//! 2. **Inversion** — the analytic breach points: `λ_sat = ρ_ceiling /
//!    E[B]` and the W99 budget exhaustion point via
//!    [`max_utilization_for_quantile`] (the same bisection the
//!    FlowController uses), both at the
//!    *measured* service time: the window's service histogram,
//!    moment-matched like the flow layer's recalibration.
//! 3. **Projection** — ETAs where the fitted λ(t) line crosses each
//!    breach point, with a band from the slope's standard error plus the
//!    Gamma-tail residual measured by `ablation_gamma_accuracy`.
//!
//! A **Little's-law self-check** guards the whole pipeline: the backlog
//! instrument's window mean is an independent measurement of the queue
//! length `L`, which must equal `λ·E[W]` if the instrumentation and the
//! stationarity assumptions hold. When they disagree beyond tolerance
//! the forecast's confidence is downgraded one tier — a forecast built
//! on inconsistent telemetry should not page anyone proactively.

use crate::history::{MetricHistory, Reduce};
use crate::slo::{Objective, SloSpec};
use rjms_core::{max_utilization_for_quantile, measured_service};
use rjms_metrics::JsonWriter;
use std::time::Duration;

/// The backlog instrument fed by the broker's dispatch path: per-message
/// queue-depth samples whose window mean estimates the time-average
/// queue length (PASTA).
pub const BACKLOG_METRIC: &str = "broker.backlog";

/// Worst W99 residual of the Gamma quantile solve against the exact
/// Pollaczek–Khinchine transform inversion, measured by
/// `ablation_gamma_accuracy` on the overload-test workload (1.7% across
/// the (ρ, c_var) grid, gated at 5% in CI). The optimistic edge of every
/// ETA band pulls the breach point in by this factor, so the Gamma
/// approximation's tail error is inside the band by construction.
pub const GAMMA_TAIL_RESIDUAL: f64 = 0.02;

/// Relative disagreement between the measured `L` and `λ·E[W]` beyond
/// which the Little's-law self-check downgrades the forecast's confidence.
pub const LITTLES_LAW_TOLERANCE: f64 = 0.10;

/// Forecast confidence tiers, ordered so gating is a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Confidence {
    /// Not enough data or no discernible trend — no forecast.
    None,
    /// Trend present but noisy or internally inconsistent.
    Low,
    /// Trend stable; minor disagreement between estimators.
    Medium,
    /// Clean, well-identified trend with consistent telemetry.
    High,
}

impl Confidence {
    /// Stable lowercase name used in JSON and the console.
    pub fn name(self) -> &'static str {
        match self {
            Confidence::None => "none",
            Confidence::Low => "low",
            Confidence::Medium => "medium",
            Confidence::High => "high",
        }
    }

    /// Parses a configuration string (`low`/`medium`/`high`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Confidence::None),
            "low" => Some(Confidence::Low),
            "medium" => Some(Confidence::Medium),
            "high" => Some(Confidence::High),
            _ => None,
        }
    }

    /// One tier lower (saturating at [`Confidence::None`]).
    fn downgrade(self) -> Self {
        match self {
            Confidence::High => Confidence::Medium,
            Confidence::Medium => Confidence::Low,
            Confidence::Low | Confidence::None => Confidence::None,
        }
    }
}

/// Forecaster knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastConfig {
    /// Master switch (the engine skips forecasting entirely when off).
    pub enabled: bool,
    /// Look-ahead horizon: a projected breach inside it (at sufficient
    /// confidence) raises the proactive `Pending` alert state.
    pub horizon: Duration,
    /// Trailing window the λ(t) trend is fitted over.
    pub trend_window: Duration,
    /// Minimum confidence for a forecast to raise `Pending`.
    pub min_confidence: Confidence,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            horizon: Duration::from_secs(900),
            trend_window: Duration::from_secs(300),
            min_confidence: Confidence::Medium,
        }
    }
}

/// The analytic breach points the forecaster projects toward, extracted
/// from the engine's objective set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreachTargets {
    /// The guarded latency quantile and its limit in seconds, from the
    /// first latency objective on the waiting instrument.
    pub latency: Option<(f64, f64)>,
    /// The utilization ceiling (from the utilization objective, else the
    /// hard stability bound).
    pub rho_ceiling: f64,
}

impl BreachTargets {
    /// Derives the targets from an objective set: the first
    /// latency-quantile objective and the utilization ceiling.
    pub fn from_specs(specs: &[SloSpec]) -> Self {
        let latency = specs.iter().find_map(|s| match &s.objective {
            Objective::LatencyQuantile { quantile, limit_ns, .. } => {
                Some((*quantile, *limit_ns as f64 / 1e9))
            }
            _ => None,
        });
        let rho_ceiling = specs
            .iter()
            .find_map(|s| match &s.objective {
                Objective::UtilizationCeiling { ceiling } => Some(*ceiling),
                _ => None,
            })
            .unwrap_or(0.999);
        Self { latency, rho_ceiling }
    }
}

/// A projected time-to-breach with its confidence band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtaBand {
    /// Central estimate: the fitted trend line crosses the breach point
    /// this far in the future (zero when already past it).
    pub eta: Duration,
    /// Optimistic edge: steepest plausible trend into a breach point
    /// pulled in by [`GAMMA_TAIL_RESIDUAL`].
    pub early: Duration,
    /// Pessimistic edge; `None` when the flattest plausible trend never
    /// reaches the breach point.
    pub late: Option<Duration>,
}

/// The Little's-law consistency check: measured `L` (backlog window
/// mean) against `λ·E[W]` from the same window's waiting instrument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LittlesLawCheck {
    /// Window mean of the backlog instrument (messages).
    pub measured_l: f64,
    /// `λ·E[W]` over the same window (messages).
    pub predicted_l: f64,
    /// `|measured − predicted| / max(measured, predicted)`.
    pub error: f64,
    /// Whether the two agree within tolerance (near-empty queues are
    /// always consistent — relative error on a fraction of a message is
    /// noise, not signal).
    pub consistent: bool,
}

/// The λ(t) trend fit over the history rings.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Trend {
    /// Arrival rate at the window's end per the fit (messages/s).
    lambda_now: f64,
    /// Fitted slope (messages/s per second).
    slope: f64,
    /// Standard error of the slope.
    slope_err: f64,
    /// Relative disagreement between the least-squares slope and the
    /// split-means robust slope.
    agreement: f64,
    /// Points the fit used.
    points: usize,
}

/// One complete forecast: trend, breach points, ETAs, confidence and the
/// telemetry self-check. Produced by [`Forecaster::forecast`].
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast {
    /// History-epoch elapsed time the forecast was computed at.
    pub at: Duration,
    /// Measured arrival rate (messages/s) at the window's end.
    pub lambda_now: f64,
    /// Fitted arrival-rate slope (messages/s per second).
    pub lambda_slope: f64,
    /// Current utilization at the measured service time.
    pub rho_now: f64,
    /// Measured mean service time (seconds) the inversion used.
    pub service_mean_s: f64,
    /// Measured service-time coefficient of variation.
    pub service_cvar: f64,
    /// Arrival rate at which utilization hits the ceiling.
    pub lambda_saturation: f64,
    /// Arrival rate at which the guarded latency quantile exhausts its
    /// limit (absent without a latency objective).
    pub lambda_breach: Option<f64>,
    /// Projected time until `λ` reaches [`Forecast::lambda_saturation`].
    pub eta_saturation: Option<EtaBand>,
    /// Projected time until the latency objective is breached.
    pub eta_breach: Option<EtaBand>,
    /// Confidence after variance gating and the Little's-law check.
    pub confidence: Confidence,
    /// The telemetry self-check (absent without backlog samples).
    pub littles_law: Option<LittlesLawCheck>,
    /// Points the trend fit used.
    pub trend_points: usize,
    /// Documented Gamma-vs-exact tail residual folded into the bands.
    pub model_residual: f64,
}

impl Forecast {
    /// The soonest projected breach: the latency ETA when present (it is
    /// always at or before saturation — the latency budget runs out at a
    /// lower ρ), else the saturation ETA.
    pub fn soonest(&self) -> Option<(&'static str, EtaBand)> {
        match (self.eta_breach, self.eta_saturation) {
            (Some(b), Some(s)) if s.eta < b.eta => Some(("saturation", s)),
            (Some(b), _) => Some(("w99-breach", b)),
            (None, Some(s)) => Some(("saturation", s)),
            (None, None) => None,
        }
    }

    /// Whether this forecast justifies the proactive `Pending` state for
    /// `objective` under the given knobs: its breach projected inside the
    /// horizon at at least the configured confidence. Latency objectives
    /// pend on the projected quantile breach, the utilization ceiling on
    /// projected saturation, and drift health (a model-consistency signal,
    /// not a load signal) never pends.
    pub fn pending(&self, config: &ForecastConfig, objective: &Objective) -> bool {
        let band = match objective {
            Objective::LatencyQuantile { .. } => self.eta_breach,
            Objective::UtilizationCeiling { .. } => self.eta_saturation,
            Objective::DriftHealth => None,
        };
        self.confidence >= config.min_confidence.max(Confidence::Low)
            && band.is_some_and(|band| band.eta <= config.horizon)
    }

    /// The forecast frozen as alert evidence.
    pub fn evidence(&self) -> Option<crate::alert::ForecastEvidence> {
        let (target, band) = self.soonest()?;
        Some(crate::alert::ForecastEvidence {
            target: target.to_string(),
            eta: band.eta,
            eta_early: band.early,
            eta_late: band.late,
            lambda_now: self.lambda_now,
            lambda_slope: self.lambda_slope,
            confidence: self.confidence.name().to_string(),
        })
    }

    /// Writes the forecast as one JSON object: the `forecast` block of
    /// `/slo` and of each `/shards` row.
    pub fn write_json(&self, w: &mut JsonWriter) {
        let eta = |band: EtaBand, w: &mut JsonWriter| {
            w.object(|w| {
                w.field("eta_ms", band.eta.as_millis() as u64);
                w.field("early_ms", band.early.as_millis() as u64);
                w.field("late_ms", band.late.map(|late| late.as_millis() as u64));
            });
        };
        w.object(|w| {
            w.field("at_ms", self.at.as_millis() as u64);
            w.field("lambda_now", self.lambda_now);
            w.field("lambda_slope_per_s", self.lambda_slope);
            w.field("rho_now", self.rho_now);
            w.field("service_mean_s", self.service_mean_s);
            w.field("service_cvar", self.service_cvar);
            w.field("lambda_saturation", self.lambda_saturation);
            w.field("lambda_breach", self.lambda_breach);
            w.key("eta_saturation").optional(self.eta_saturation, eta);
            w.key("eta_breach").optional(self.eta_breach, eta);
            w.field("confidence", self.confidence.name());
            w.key("littles_law").optional(self.littles_law.as_ref(), |check, w| {
                w.object(|w| {
                    w.field("measured_l", check.measured_l);
                    w.field("predicted_l", check.predicted_l);
                    w.field("error", check.error);
                    w.field("consistent", check.consistent);
                });
            });
            w.field("trend_points", self.trend_points);
            w.field("model_residual", self.model_residual);
        });
    }
}

/// The forecasting engine: stateless over the history rings, so the same
/// instance serves every shard's series.
#[derive(Debug, Clone)]
pub struct Forecaster {
    config: ForecastConfig,
}

/// Minimum trend points for any forecast at all.
const MIN_TREND_POINTS: usize = 6;
/// Band half-width in slope standard errors.
const BAND_SIGMA: f64 = 2.0;
/// Queue lengths below this many messages are too empty for a relative
/// Little's-law comparison to mean anything.
const LITTLES_FLOOR: f64 = 0.5;

impl Forecaster {
    /// A forecaster with the given knobs.
    pub fn new(config: ForecastConfig) -> Self {
        Self { config }
    }

    /// The active knobs.
    pub fn config(&self) -> &ForecastConfig {
        &self.config
    }

    /// Computes a forecast over one server's named instruments. Returns
    /// `None` when there is no usable trend data at all; a flat or falling
    /// λ(t) still produces a forecast (with empty ETAs) so the exposition
    /// can show "no breach projected".
    pub fn forecast(
        &self,
        history: &MetricHistory,
        waiting_metric: &str,
        service_metric: &str,
        backlog_metric: &str,
        targets: &BreachTargets,
        now: Duration,
    ) -> Option<Forecast> {
        let trend = fit_trend(history, waiting_metric, self.config.trend_window)?;
        let window = history.window(self.config.trend_window);
        let h = window.histogram(service_metric)?;
        let service = measured_service(h.mean() / 1e9, h.cvar())?;

        let littles_law = littles_law_check(&window, waiting_metric, backlog_metric);

        let mut confidence = grade(&trend);
        if littles_law.is_some_and(|c| !c.consistent) {
            confidence = confidence.downgrade();
        }

        let e_b = service.mean();
        let lambda_saturation = targets.rho_ceiling / e_b;
        let lambda_breach = targets.latency.map(|(quantile, limit_s)| {
            max_utilization_for_quantile(&service, quantile, limit_s) / e_b
        });
        let project = |lambda_target: f64| project_eta(&trend, lambda_target);
        Some(Forecast {
            at: now,
            lambda_now: trend.lambda_now,
            lambda_slope: trend.slope,
            rho_now: trend.lambda_now * e_b,
            service_mean_s: e_b,
            service_cvar: service.cvar(),
            lambda_saturation,
            lambda_breach,
            eta_saturation: project(lambda_saturation),
            eta_breach: lambda_breach.and_then(project),
            confidence,
            littles_law,
            trend_points: trend.points,
            model_residual: GAMMA_TAIL_RESIDUAL,
        })
    }
}

/// Fits the arrival-rate trend over the trailing `span`: per-slot λ from
/// the waiting instrument's count series (slot widths from consecutive
/// slot ends), least-squares slope with standard error, split-means
/// robust cross-check. Single pass over at most the ring size — O(1)
/// memory beyond the point list the history already materializes.
fn fit_trend(history: &MetricHistory, waiting_metric: &str, span: Duration) -> Option<Trend> {
    let counts = history.series(waiting_metric, span, Reduce::Count);
    if counts.len() < MIN_TREND_POINTS + 1 {
        return None;
    }
    // Slot widths from consecutive ends; the first point has no
    // predecessor and is dropped.
    let points: Vec<(f64, f64)> = counts
        .windows(2)
        .filter_map(|pair| {
            let width_s = (pair[1].elapsed_ms.saturating_sub(pair[0].elapsed_ms)) as f64 / 1e3;
            (width_s > 0.0).then(|| (pair[1].elapsed_ms as f64 / 1e3, pair[1].value / width_s))
        })
        .collect();
    let n = points.len();
    if n < MIN_TREND_POINTS {
        return None;
    }
    let nf = n as f64;
    let (mut st, mut sl) = (0.0, 0.0);
    for &(t, l) in &points {
        st += t;
        sl += l;
    }
    let (t_bar, l_bar) = (st / nf, sl / nf);
    let (mut sxx, mut sxy) = (0.0, 0.0);
    for &(t, l) in &points {
        sxx += (t - t_bar) * (t - t_bar);
        sxy += (t - t_bar) * (l - l_bar);
    }
    if sxx <= 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = l_bar - slope * t_bar;
    let mut sse = 0.0;
    for &(t, l) in &points {
        let r = l - (intercept + slope * t);
        sse += r * r;
    }
    let slope_err = if n > 2 { (sse / (nf - 2.0) / sxx).sqrt() } else { f64::INFINITY };

    // Robust cross-check: mean of the last third vs the first third.
    let third = (n / 3).max(1);
    let seg = |pts: &[(f64, f64)]| {
        let k = pts.len() as f64;
        let (mut t, mut l) = (0.0, 0.0);
        for &(ti, li) in pts {
            t += ti;
            l += li;
        }
        (t / k, l / k)
    };
    let (t0, l0) = seg(&points[..third]);
    let (t1, l1) = seg(&points[n - third..]);
    let robust = if t1 > t0 { (l1 - l0) / (t1 - t0) } else { slope };
    let scale = slope.abs().max(robust.abs()).max(1e-9);
    let agreement = (slope - robust).abs() / scale;

    let end_t = points.last().map(|&(t, _)| t).unwrap_or(t_bar);
    let lambda_now = (intercept + slope * end_t).max(0.0);
    Some(Trend { lambda_now, slope, slope_err, agreement, points: n })
}

/// Variance-gated confidence of a trend fit.
fn grade(trend: &Trend) -> Confidence {
    if trend.points < MIN_TREND_POINTS || trend.lambda_now <= 0.0 {
        return Confidence::None;
    }
    let rel_err =
        if trend.slope.abs() > 1e-12 { trend.slope_err / trend.slope.abs() } else { f64::INFINITY };
    if rel_err < 0.25 && trend.agreement < 0.35 {
        Confidence::High
    } else if rel_err < 0.6 && trend.agreement < 0.75 {
        Confidence::Medium
    } else {
        Confidence::Low
    }
}

/// Projects the fitted λ(t) line to `lambda_target`. `None` when the
/// trend never gets there (flat or falling while still below target).
fn project_eta(trend: &Trend, lambda_target: f64) -> Option<EtaBand> {
    if lambda_target <= 0.0 {
        return None;
    }
    if trend.lambda_now >= lambda_target {
        // Already at or past the breach point: the ETA is now.
        return Some(EtaBand {
            eta: Duration::ZERO,
            early: Duration::ZERO,
            late: Some(Duration::ZERO),
        });
    }
    if trend.slope <= 1e-12 {
        return None;
    }
    let gap = lambda_target - trend.lambda_now;
    let eta = gap / trend.slope;
    let slope_hi = trend.slope + BAND_SIGMA * trend.slope_err;
    let slope_lo = trend.slope - BAND_SIGMA * trend.slope_err;
    // Optimistic edge: steepest plausible slope into a breach point
    // pulled in by the documented model residual.
    let early_gap = (lambda_target * (1.0 - GAMMA_TAIL_RESIDUAL) - trend.lambda_now).max(0.0);
    let early = (early_gap / slope_hi).min(eta);
    let late = (slope_lo > 1e-12).then(|| Duration::from_secs_f64((gap / slope_lo).min(1e9)));
    Some(EtaBand {
        eta: Duration::from_secs_f64(eta.min(1e9)),
        early: Duration::from_secs_f64(early.min(1e9)),
        late,
    })
}

/// The Little's-law self-check over one reconstructed window.
fn littles_law_check(
    window: &crate::history::Window,
    waiting_metric: &str,
    backlog_metric: &str,
) -> Option<LittlesLawCheck> {
    let backlog = window.histogram(backlog_metric)?;
    let waiting = window.histogram(waiting_metric)?;
    let span = window.span().as_secs_f64();
    if span <= 0.0 || waiting.count == 0 || backlog.count == 0 {
        return None;
    }
    let measured_l = backlog.mean();
    let lambda = waiting.count as f64 / span;
    let predicted_l = lambda * (waiting.mean() / 1e9);
    let scale = measured_l.max(predicted_l);
    let error = if scale > 0.0 { (measured_l - predicted_l).abs() / scale } else { 0.0 };
    let consistent =
        error <= LITTLES_LAW_TOLERANCE || (measured_l - predicted_l).abs() < LITTLES_FLOOR;
    Some(LittlesLawCheck { measured_l, predicted_l, error, consistent })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{SERVICE_METRIC, WAITING_METRIC};
    use rjms_metrics::MetricsRegistry;

    const E_B_NS: u64 = 1_000_000; // 1 ms deterministic-ish service

    /// Drives `seconds` ticks where second `t` carries `rate(t)` messages
    /// with consistent waiting/service/backlog samples.
    fn drive(
        registry: &MetricsRegistry,
        history: &mut MetricHistory,
        seconds: u64,
        rate: impl Fn(u64) -> u64,
        waiting_ns: u64,
    ) {
        let waiting = registry.histogram(WAITING_METRIC);
        let service = registry.histogram(SERVICE_METRIC);
        let backlog = registry.histogram(BACKLOG_METRIC);
        history.record(Duration::ZERO, &registry.snapshot());
        for t in 1..=seconds {
            let n = rate(t);
            for _ in 0..n {
                waiting.record(waiting_ns);
                service.record(E_B_NS);
                // Consistent with Little's law by construction:
                // L = λ·E[W] with λ = n msg/s.
                backlog.record((n as f64 * waiting_ns as f64 / 1e9).round() as u64);
            }
            history.record(Duration::from_secs(t), &registry.snapshot());
        }
    }

    fn targets() -> BreachTargets {
        // W99 ≤ 10 ms at q=0.99; ρ ≤ 0.9.
        BreachTargets { latency: Some((0.99, 0.010)), rho_ceiling: 0.9 }
    }

    /// The guarded latency of the default objectives.
    fn w99() -> Objective {
        SloSpec::defaults().swap_remove(0).objective
    }

    /// The default forecaster over `h`'s series at `now` seconds.
    fn forecast(h: &MetricHistory, now: u64) -> Option<Forecast> {
        let f = Forecaster::new(ForecastConfig::default());
        let now = Duration::from_secs(now);
        f.forecast(h, WAITING_METRIC, SERVICE_METRIC, BACKLOG_METRIC, &targets(), now)
    }

    #[test]
    fn ramp_produces_breach_eta_with_band() {
        let registry = MetricsRegistry::new();
        let mut h = MetricHistory::default();
        // λ ramps 100 → 400 msg/s over 30 s: slope ≈ 10.34 msg/s².
        drive(&registry, &mut h, 30, |t| 100 + 10 * t, 200_000);
        let fc = forecast(&h, 30).expect("forecast");
        assert!(fc.lambda_slope > 8.0 && fc.lambda_slope < 12.0, "slope {}", fc.lambda_slope);
        assert!((fc.lambda_now - 400.0).abs() < 40.0, "lambda_now {}", fc.lambda_now);
        // E[B] = 1 ms → λ_sat = 900; the W99 budget dies earlier.
        assert!((fc.lambda_saturation - 900.0).abs() < 90.0, "sat {}", fc.lambda_saturation);
        let breach = fc.lambda_breach.expect("latency target");
        assert!(breach < fc.lambda_saturation, "breach {breach} vs sat {}", fc.lambda_saturation);
        let band = fc.eta_breach.expect("rising trend must project a breach");
        let expect = (breach - fc.lambda_now) / fc.lambda_slope;
        assert!((band.eta.as_secs_f64() - expect).abs() < 1.0);
        assert!(band.early <= band.eta);
        assert!(band.late.is_none_or(|l| l >= band.eta));
        assert!(fc.confidence >= Confidence::Medium, "confidence {:?}", fc.confidence);
        // Little's law holds by construction.
        let check = fc.littles_law.expect("backlog present");
        assert!(check.consistent, "error {}", check.error);
        // Saturation is further out than the latency breach.
        let sat = fc.eta_saturation.expect("saturation ETA");
        assert!(sat.eta >= band.eta);
        assert_eq!(fc.soonest().unwrap().0, "w99-breach");
    }

    #[test]
    fn flat_traffic_projects_no_breach_and_no_pending() {
        let registry = MetricsRegistry::new();
        let mut h = MetricHistory::default();
        drive(&registry, &mut h, 30, |_| 200, 200_000);
        let config = ForecastConfig::default();
        let fc = forecast(&h, 30).expect("forecast");
        assert!(fc.eta_breach.is_none());
        assert!(fc.eta_saturation.is_none());
        assert!(!fc.pending(&config, &w99()));
    }

    #[test]
    fn pending_requires_eta_inside_horizon() {
        let registry = MetricsRegistry::new();
        let mut h = MetricHistory::default();
        drive(&registry, &mut h, 30, |t| 100 + 10 * t, 200_000);
        let fc = forecast(&h, 30).expect("forecast");
        // The ramp breaches within ~40 s — inside a 15 m horizon.
        assert!(fc.pending(&ForecastConfig::default(), &w99()));
        let tight = ForecastConfig { horizon: Duration::from_secs(5), ..ForecastConfig::default() };
        assert!(!fc.pending(&tight, &w99()), "breach beyond a 5 s horizon must not page");
        assert!(!fc.pending(&ForecastConfig::default(), &Objective::DriftHealth));
    }

    #[test]
    fn inconsistent_littles_law_downgrades_confidence() {
        let registry = MetricsRegistry::new();
        let mut h = MetricHistory::default();
        let waiting = registry.histogram(WAITING_METRIC);
        let service = registry.histogram(SERVICE_METRIC);
        let backlog = registry.histogram(BACKLOG_METRIC);
        h.record(Duration::ZERO, &registry.snapshot());
        for t in 1..=30u64 {
            for _ in 0..(100 + 10 * t) {
                waiting.record(200_000);
                service.record(E_B_NS);
                // Backlog wildly larger than λ·E[W]: broken telemetry.
                backlog.record(500);
            }
            h.record(Duration::from_secs(t), &registry.snapshot());
        }
        let fc = forecast(&h, 30).expect("forecast");
        let check = fc.littles_law.expect("check present");
        assert!(!check.consistent);
        // The identical clean ramp grades High (the consistent-telemetry
        // tests above); broken telemetry must land strictly below that.
        assert!(fc.confidence < Confidence::High, "got {:?}", fc.confidence);
    }

    #[test]
    fn missing_backlog_metric_skips_the_check_without_downgrade() {
        let registry = MetricsRegistry::new();
        let mut h = MetricHistory::default();
        let waiting = registry.histogram(WAITING_METRIC);
        let service = registry.histogram(SERVICE_METRIC);
        h.record(Duration::ZERO, &registry.snapshot());
        for t in 1..=30u64 {
            for _ in 0..(100 + 10 * t) {
                waiting.record(200_000);
                service.record(E_B_NS);
            }
            h.record(Duration::from_secs(t), &registry.snapshot());
        }
        let fc = forecast(&h, 30).expect("forecast");
        assert!(fc.littles_law.is_none());
        assert!(fc.confidence >= Confidence::Medium);
    }

    #[test]
    fn noisy_trend_grades_low() {
        let registry = MetricsRegistry::new();
        let mut h = MetricHistory::default();
        // Sawtooth: no identifiable slope.
        drive(&registry, &mut h, 30, |t| if t % 2 == 0 { 50 } else { 400 }, 200_000);
        let fc = forecast(&h, 30).expect("forecast");
        assert_eq!(fc.confidence, Confidence::Low);
        assert!(!fc.pending(&ForecastConfig::default(), &w99()));
    }

    #[test]
    fn too_little_history_yields_no_forecast() {
        let registry = MetricsRegistry::new();
        let mut h = MetricHistory::default();
        drive(&registry, &mut h, 3, |_| 100, 200_000);
        assert!(forecast(&h, 3).is_none());
    }

    #[test]
    fn already_breached_eta_is_zero() {
        let registry = MetricsRegistry::new();
        let mut h = MetricHistory::default();
        // λ = 950 msg/s at E[B] = 1 ms → ρ > ceiling already.
        drive(&registry, &mut h, 30, |t| 900 + 5 * t, 200_000);
        let fc = forecast(&h, 30).expect("forecast");
        assert_eq!(fc.eta_saturation.expect("past ceiling").eta, Duration::ZERO);
    }

    #[test]
    fn forecast_json_is_well_formed() {
        let registry = MetricsRegistry::new();
        let mut h = MetricHistory::default();
        drive(&registry, &mut h, 30, |t| 100 + 10 * t, 200_000);
        let fc = forecast(&h, 30).expect("forecast");
        let json = JsonWriter::document(|w| fc.write_json(w));
        for key in [
            "\"lambda_now\":",
            "\"lambda_slope_per_s\":",
            "\"eta_breach\":{",
            "\"eta_ms\":",
            "\"confidence\":",
            "\"littles_law\":{",
            "\"consistent\":true",
            "\"model_residual\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let evidence = fc.evidence().expect("evidence");
        assert_eq!(evidence.target, "w99-breach");
    }

    #[test]
    fn breach_targets_extracted_from_specs() {
        let specs = SloSpec::defaults();
        let t = BreachTargets::from_specs(&specs);
        assert_eq!(t.latency, Some((0.99, 0.010)));
        assert!((t.rho_ceiling - 0.9).abs() < 1e-12);
        let t = BreachTargets::from_specs(&[]);
        assert!(t.latency.is_none());
        assert!((t.rho_ceiling - 0.999).abs() < 1e-12);
    }
}
