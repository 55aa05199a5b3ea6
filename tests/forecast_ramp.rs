//! Staged-ramp integration test for the saturation forecaster.
//!
//! Arrival rate climbs linearly from `0.5×λ_breach` to `1.1×λ_breach`
//! while every tick records model-consistent telemetry: waiting samples
//! at the analytic `W99(ρ)` for the current utilization, deterministic
//! 1 ms service samples, and backlog samples whose mean is `λ·E[W]` so
//! Little's law holds by construction. The engine must:
//!
//! 1. raise the proactive `Pending` state strictly before the reactive
//!    `Firing` transition,
//! 2. attach forecast evidence whose ETA lands within two fast windows
//!    of the *actual* breach instant (the tick where `λ` crosses the
//!    analytic breach rate),
//! 3. keep the Little's-law self-check consistent (≤ 10% error) on the
//!    constructed telemetry.
//!
//! The waiting samples come from the same Eq. 1 + M/GI/1 family the
//! forecaster inverts, so the test isolates what the forecaster adds:
//! the trend fit and the time-axis projection.

use rjms::metrics::MetricsRegistry;
use rjms::obs::{
    AlertEvent, AlertState, ForecastConfig, ObsConfig, ObsCore, SloSpec, BACKLOG_METRIC,
};
use rjms::queueing::replication::ReplicationModel;
use rjms::queueing::service::ServiceTime;
use std::time::Duration;

const FAST: Duration = Duration::from_secs(5);
const SLOW: Duration = Duration::from_secs(15);
const E_B: f64 = 0.001; // deterministic 1 ms service

/// Analytic W99 (seconds) for the deterministic-service M/G/1 at `rho`.
fn w99_at(rho: f64) -> f64 {
    let service = ServiceTime::new(E_B, 0.0, ReplicationModel::deterministic(1.0));
    rjms::model::WaitingTimeAnalysis::for_service_time(service, rho)
        .expect("rho < 1")
        .distribution()
        .quantile(0.99)
}

#[test]
fn staged_ramp_pends_with_accurate_eta_before_firing() {
    // The W99 limit is the analytic quantile at rho = 0.8, so the breach
    // rate is exactly 800 msg/s and the actual breach instant is the
    // tick where the ramp crosses it.
    let rho_breach = 0.8;
    let limit_s = w99_at(rho_breach);
    let lambda_breach = rho_breach / E_B;

    let spec = SloSpec::latency("w99", "broker.waiting_ns", 0.99, (limit_s * 1e9) as u64)
        .windows(FAST, SLOW);
    let config = ObsConfig {
        slos: vec![spec],
        forecast: ForecastConfig {
            enabled: true,
            horizon: Duration::from_secs(300),
            trend_window: Duration::from_secs(30),
            ..ForecastConfig::default()
        },
    };
    let mut core = ObsCore::new(config);

    let registry = MetricsRegistry::new();
    let waiting = registry.histogram("broker.waiting_ns");
    let service = registry.histogram("broker.service_ns");
    let backlog = registry.histogram(BACKLOG_METRIC);

    // λ(t) = 400 + 8t: 0.5×λ_breach at t = 0 up to 1.1×λ_breach at
    // t = 70; the breach rate is crossed at t = 50.
    let lambda_at = |t: u64| 400.0 + 8.0 * t as f64;
    let breach_tick = (0..=70).find(|&t| lambda_at(t) > lambda_breach).expect("ramp crosses");

    let mut events: Vec<AlertEvent> = Vec::new();
    let mut littles_errors: Vec<f64> = Vec::new();
    let mut pending_eta: Option<(Duration, Duration)> = None; // (raised at, eta)
    for t in 1..=70u64 {
        let lambda = lambda_at(t);
        let rho = (lambda * E_B).min(0.995);
        let w_s = w99_at(rho);
        let depth = lambda * w_s;
        for i in 0..lambda.round() as u64 {
            waiting.record((w_s * 1e9) as u64);
            service.record((E_B * 1e9) as u64);
            // ⌊λ·W⌋ or ⌈λ·W⌉, so that the mean is λ·W: the first forecasts
            // come at L ≈ 1.2, where a rounded depth would be 20 % off.
            let queued = ((i + 1) as f64 * depth).floor() - (i as f64 * depth).floor();
            backlog.record(queued as u64);
        }
        let now = Duration::from_secs(t);
        for event in core.tick(now, &registry.snapshot(), None) {
            if event.to == AlertState::Pending && pending_eta.is_none() {
                let forecast = event
                    .evidence
                    .as_ref()
                    .and_then(|e| e.forecast.as_ref())
                    .expect("pending transition must carry forecast evidence");
                assert_eq!(forecast.target, "w99-breach", "soonest breach is the W99 budget");
                pending_eta = Some((event.at, forecast.eta));
            }
            events.push(event);
        }
        if let Some(f) = core.latest_forecast() {
            if let Some(check) = &f.littles_law {
                littles_errors.push(check.error);
                assert!(
                    check.consistent,
                    "Little's-law check inconsistent at t={t}: error {:.3}",
                    check.error
                );
            }
        }
    }

    // 1. Pending strictly precedes Firing.
    let pending_idx = events
        .iter()
        .position(|e| e.to == AlertState::Pending)
        .expect("forecaster never raised Pending on a linear ramp");
    let firing_idx = events
        .iter()
        .position(|e| e.to == AlertState::Firing)
        .expect("objective never fired after the ramp crossed the breach rate");
    assert!(
        pending_idx < firing_idx,
        "Pending (index {pending_idx}) must precede Firing (index {firing_idx}): {events:?}"
    );

    // 2. The Pending ETA lands within two fast windows of the actual
    // breach instant.
    let (raised_at, eta) = pending_eta.expect("pending transition recorded");
    let projected = raised_at + eta;
    let actual = Duration::from_secs(breach_tick);
    let error = projected.abs_diff(actual);
    assert!(
        error <= 2 * FAST,
        "projected breach at {projected:?} (raised {raised_at:?} + eta {eta:?}) vs actual \
         {actual:?}: off by {error:?}, budget {:?}",
        2 * FAST
    );

    // 3. Little's law held throughout on the constructed telemetry.
    assert!(!littles_errors.is_empty(), "backlog instrument never produced a self-check");
    let worst = littles_errors.iter().cloned().fold(0.0, f64::max);
    assert!(worst <= 0.10, "worst Little's-law error {worst:.3} exceeds 10%");
}
