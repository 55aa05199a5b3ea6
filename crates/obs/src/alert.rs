//! Alert state machine and notification sinks.
//!
//! Each objective owns one state machine:
//!
//! ```text
//!        fast ≥ thr                 fast ∧ slow ≥ thr
//!   Ok ────────────▶ Warning ───────────────────────▶ Firing
//!   ▲ ▲▼ forecast       │ fast < 0.9·thr                │
//!   │ Pending           ▼                               │ fast ∧ slow <
//!   │ cooldown 2 min   Ok                               │ 0.9·thr for
//!   │                                                   ▼ 1 min
//!   └────────────────────────────────────────────── Resolved
//! ```
//!
//! Hysteresis: leaving Firing requires the burn to drop below
//! 0.9 × threshold and *stay* there for a minute, so an alert flapping
//! around the threshold does not spam transitions. After resolving, two
//! minutes of cooldown must elapse before the machine returns to Ok and
//! may fire again.
//!
//! The proactive [`AlertState::Pending`] state sits *before* the burn
//! windows can see anything: the saturation forecaster
//! (`crate::forecast`) projects the arrival-rate trend through the
//! analytic model and, when a breach ETA lands inside the configured
//! horizon with enough confidence, the machine leaves Ok for Pending —
//! carrying the forecast as [`ForecastEvidence`] — so operators get the
//! alert while the objective is still healthy. Pending escalates through
//! the normal Warning/Firing logic and falls back to Ok when the
//! forecast clears.
//!
//! Transitions are emitted as [`AlertEvent`]s to a pluggable
//! [`AlertSink`]; a firing event carries [`Evidence`]: the offending
//! window's histogram, the latest analytic model prediction, the ids
//! of tail-sampled trace chains from the incident window and, on
//! forecast-driven transitions, the forecast itself.

use crate::slo::WindowBurn;
use rjms_core::WaitingTimeReport;
use rjms_metrics::{HistogramSnapshot, JsonWriter};
use std::io::Write as IoWrite;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The alert lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Objective healthy.
    Ok,
    /// Objective still healthy, but the forecaster projects a breach
    /// inside the horizon: proactive heads-up, fires before any burn.
    Pending,
    /// Fast window burning, slow window still fine (onset or blip).
    Warning,
    /// Both windows burning: the objective is being violated.
    Firing,
    /// Recently stopped firing; in the post-incident cooldown.
    Resolved,
}

impl AlertState {
    /// Stable lowercase name used in JSON and log lines.
    pub fn name(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending => "pending",
            AlertState::Warning => "warning",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// A breach forecast attached to proactive transitions: what the trend
/// projection says, frozen at the moment the machine left Ok.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastEvidence {
    /// What is forecast to be breached: `"w99-breach"` or `"saturation"`.
    pub target: String,
    /// Projected time from the event until the breach.
    pub eta: Duration,
    /// Optimistic band edge (steeper plausible trend → earlier breach).
    pub eta_early: Duration,
    /// Pessimistic band edge; `None` when the flatter plausible trend
    /// never reaches the breach point.
    pub eta_late: Option<Duration>,
    /// Measured arrival rate (messages/s) at the event.
    pub lambda_now: f64,
    /// Fitted arrival-rate trend (messages/s per second).
    pub lambda_slope: f64,
    /// Forecast confidence tag (`"low"`, `"medium"`, `"high"`).
    pub confidence: String,
}

/// Supporting data attached to a firing alert.
#[derive(Debug, Clone, Default)]
pub struct Evidence {
    /// The offending fast window's histogram delta (nanoseconds).
    pub window_histogram: Option<HistogramSnapshot>,
    /// The analytic model's latest prediction at the measured load, when
    /// the monitor produced one.
    pub prediction: Option<WaitingTimeReport>,
    /// One-line summary of the latest model verdict.
    pub model_verdict: Option<String>,
    /// Trace ids of tail-sampled chains captured during the window.
    pub trace_ids: Vec<u64>,
    /// The breach forecast, populated on forecast-driven (Pending)
    /// transitions and on firings that had an active forecast.
    pub forecast: Option<ForecastEvidence>,
}

/// One state transition, as delivered to sinks.
#[derive(Debug, Clone)]
pub struct AlertEvent {
    /// Objective name.
    pub name: String,
    /// State before the transition.
    pub from: AlertState,
    /// State after the transition.
    pub to: AlertState,
    /// Elapsed time (history epoch) at the transition.
    pub at: Duration,
    /// Fast-window burn at the transition.
    pub fast_burn: f64,
    /// Slow-window burn at the transition.
    pub slow_burn: f64,
    /// Evidence, populated on transitions into [`AlertState::Firing`]
    /// and [`AlertState::Pending`].
    pub evidence: Option<Evidence>,
}

impl AlertEvent {
    /// Renders the event as a single log line.
    pub fn render_line(&self) -> String {
        let mut line = format!(
            "[slo] {} {} -> {} at {:.1}s fast_burn={:.2} slow_burn={:.2}",
            self.name,
            self.from.name(),
            self.to.name(),
            self.at.as_secs_f64(),
            self.fast_burn,
            self.slow_burn,
        );
        if let Some(e) = &self.evidence {
            if let Some(h) = &e.window_histogram {
                let q99 = h.quantile(0.99).unwrap_or(0);
                line.push_str(&format!(" window_samples={} window_q99_ns={q99}", h.count));
            }
            if let Some(p) = &e.prediction {
                line.push_str(&format!(
                    " predicted_q99_s={:.6} predicted_rho={:.3}",
                    p.q99, p.utilization
                ));
            }
            if !e.trace_ids.is_empty() {
                line.push_str(&format!(" traces={}", e.trace_ids.len()));
            }
            if let Some(f) = &e.forecast {
                line.push_str(&format!(
                    " forecast={} eta_s={:.0} confidence={}",
                    f.target,
                    f.eta.as_secs_f64(),
                    f.confidence
                ));
            }
        }
        line
    }

    /// Renders the event as a self-contained JSON object: the webhook
    /// payload.
    pub fn render_json(&self) -> String {
        JsonWriter::document(|w| self.write_json(w))
    }

    /// Writes the event as one JSON object (the webhook payload and the
    /// `/slo` feed entry).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("name", &self.name);
            w.field("from", self.from.name());
            w.field("to", self.to.name());
            w.field("at_ms", self.at.as_millis() as u64);
            w.field("fast_burn", self.fast_burn);
            w.field("slow_burn", self.slow_burn);
            w.key("evidence").optional(self.evidence.as_ref(), Evidence::write_json);
        });
    }
}

impl Evidence {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("window").optional(self.window_histogram.as_ref(), |h, w| {
                w.object(|w| {
                    quantile_members(h, w);
                    w.field("max_ns", h.max);
                });
            });
            w.key("prediction").optional(self.prediction.as_ref(), |p, w| {
                w.object(|w| {
                    w.field("utilization", p.utilization);
                    w.field("mean_waiting_s", p.mean_waiting_time);
                    w.field("q99_s", p.q99);
                    w.field("q9999_s", p.q9999);
                });
            });
            w.field("model_verdict", self.model_verdict.as_ref());
            w.key("trace_ids").array(|w| self.trace_ids.iter().for_each(|id| w.value(*id)));
            w.key("forecast").optional(self.forecast.as_ref(), |f, w| {
                w.object(|w| {
                    w.field("target", &f.target);
                    w.field("eta_ms", f.eta.as_millis() as u64);
                    w.field("eta_early_ms", f.eta_early.as_millis() as u64);
                    w.field("eta_late_ms", f.eta_late.map(|late| late.as_millis() as u64));
                    w.field("lambda_now", f.lambda_now);
                    w.field("lambda_slope_per_s", f.lambda_slope);
                    w.field("confidence", &f.confidence);
                });
            });
        });
    }
}

/// Writes the `count` / `q50_ns` / `q99_ns` / `q9999_ns` members of a
/// nanosecond histogram's window summary into the open object.
pub(crate) fn quantile_members(h: &HistogramSnapshot, w: &mut JsonWriter) {
    w.field("count", h.count);
    for (name, p) in [("q50_ns", 0.50), ("q99_ns", 0.99), ("q9999_ns", 0.9999)] {
        w.field(name, h.quantile(p).unwrap_or(0));
    }
}

/// Burn must stay below `RESOLVE_RATIO × threshold` for [`RESOLVE_AFTER`]
/// before a firing alert resolves.
const RESOLVE_RATIO: f64 = 0.9;
/// How long the burn must stay low to resolve.
const RESOLVE_AFTER: Duration = Duration::from_secs(60);
/// Dwell time in Resolved before returning to Ok.
const COOLDOWN: Duration = Duration::from_secs(120);

/// The per-objective state machine.
#[derive(Debug)]
pub struct AlertMachine {
    name: String,
    threshold: f64,
    state: AlertState,
    /// When the current state was entered.
    since: Duration,
    /// Start of the contiguous below-resolve-threshold stretch while
    /// firing, if one is in progress.
    quiet_since: Option<Duration>,
}

impl AlertMachine {
    /// Creates a machine in [`AlertState::Ok`].
    pub fn new(name: &str, threshold: f64) -> Self {
        Self {
            name: name.to_string(),
            threshold,
            state: AlertState::Ok,
            since: Duration::ZERO,
            quiet_since: None,
        }
    }

    /// The current state.
    pub fn state(&self) -> AlertState {
        self.state
    }

    /// When the current state was entered (history-epoch elapsed time).
    pub fn since(&self) -> Duration {
        self.since
    }

    /// Feeds one evaluation; returns the transition event if the state
    /// changed. `evidence` is only consulted when the machine fires.
    pub fn step(
        &mut self,
        now: Duration,
        fast: WindowBurn,
        slow: WindowBurn,
        evidence: impl FnOnce() -> Evidence,
    ) -> Option<AlertEvent> {
        self.step_with_forecast(now, fast, slow, false, evidence)
    }

    /// [`AlertMachine::step`] plus the forecaster's verdict: when
    /// `breach_forecast` is true and the burn windows are still clean, the
    /// machine raises the proactive [`AlertState::Pending`] instead of
    /// sitting in Ok. Evidence is consulted on transitions into Firing
    /// *and* Pending (a pending event should carry the forecast that
    /// caused it).
    pub fn step_with_forecast(
        &mut self,
        now: Duration,
        fast: WindowBurn,
        slow: WindowBurn,
        breach_forecast: bool,
        evidence: impl FnOnce() -> Evidence,
    ) -> Option<AlertEvent> {
        let fast_hot = fast.burn >= self.threshold;
        let slow_hot = slow.burn >= self.threshold;
        let quiet_level = RESOLVE_RATIO * self.threshold;
        let quiet = fast.burn < quiet_level && slow.burn < quiet_level;
        let calm = if breach_forecast { AlertState::Pending } else { AlertState::Ok };
        let next = match self.state {
            AlertState::Ok | AlertState::Pending => {
                if fast_hot && slow_hot {
                    AlertState::Firing
                } else if fast_hot {
                    AlertState::Warning
                } else {
                    calm
                }
            }
            AlertState::Warning => {
                if fast_hot && slow_hot {
                    AlertState::Firing
                } else if fast.burn < quiet_level {
                    calm
                } else {
                    AlertState::Warning
                }
            }
            AlertState::Firing => {
                if quiet {
                    let start = *self.quiet_since.get_or_insert(now);
                    if now.saturating_sub(start) >= RESOLVE_AFTER {
                        AlertState::Resolved
                    } else {
                        AlertState::Firing
                    }
                } else {
                    self.quiet_since = None;
                    AlertState::Firing
                }
            }
            AlertState::Resolved => {
                if fast_hot && slow_hot {
                    // Re-fire immediately: the incident came back.
                    AlertState::Firing
                } else if now.saturating_sub(self.since) >= COOLDOWN {
                    AlertState::Ok
                } else {
                    AlertState::Resolved
                }
            }
        };
        if next == self.state {
            return None;
        }
        let from = self.state;
        self.state = next;
        self.since = now;
        self.quiet_since = None;
        Some(AlertEvent {
            name: self.name.clone(),
            from,
            to: next,
            at: now,
            fast_burn: fast.burn,
            slow_burn: slow.burn,
            evidence: matches!(next, AlertState::Firing | AlertState::Pending).then(evidence),
        })
    }
}

/// Destination for alert transitions.
pub trait AlertSink: Send {
    /// Delivers one transition. Implementations must not block the
    /// evaluation loop for long; failures are swallowed (alerting must
    /// never take the broker down).
    fn emit(&mut self, event: &AlertEvent);
}

/// Writes one line per transition to stderr.
#[derive(Debug, Default)]
pub struct StderrSink;

impl AlertSink for StderrSink {
    fn emit(&mut self, event: &AlertEvent) {
        eprintln!("{}", event.render_line());
    }
}

/// POSTs the JSON payload to a webhook-style HTTP endpoint over a fresh
/// blocking connection per event (fire-and-forget; send errors are
/// dropped).
#[derive(Debug, Clone)]
pub struct WebhookSink {
    /// `host:port` to connect to.
    pub addr: String,
    /// Request path, e.g. `/hooks/slo`.
    pub path: String,
}

impl AlertSink for WebhookSink {
    fn emit(&mut self, event: &AlertEvent) {
        let body = event.render_json();
        let request = format!(
            "POST {} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.path,
            self.addr,
            body.len(),
            body
        );
        let attempt = (|| -> std::io::Result<()> {
            let mut stream = std::net::TcpStream::connect(&self.addr)?;
            stream.set_write_timeout(Some(Duration::from_secs(2)))?;
            stream.write_all(request.as_bytes())
        })();
        let _ = attempt;
    }
}

/// Retains events in memory — the test harness's sink.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<AlertEvent>>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything emitted so far.
    pub fn events(&self) -> Vec<AlertEvent> {
        self.events.lock().expect("sink lock").clone()
    }
}

impl AlertSink for MemorySink {
    fn emit(&mut self, event: &AlertEvent) {
        self.events.lock().expect("sink lock").push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burn(b: f64) -> WindowBurn {
        WindowBurn { burn: b, samples: 100, bad: 0 }
    }

    fn step_at(m: &mut AlertMachine, t: u64, fast: f64, slow: f64) -> Option<AlertEvent> {
        m.step(Duration::from_secs(t), burn(fast), burn(slow), Evidence::default)
    }

    #[test]
    fn full_lifecycle_ok_warning_firing_resolved_ok() {
        let mut m = AlertMachine::new("w99", 2.0);
        assert!(step_at(&mut m, 1, 0.1, 0.1).is_none());
        // Fast hot only → Warning.
        let e = step_at(&mut m, 2, 3.0, 0.5).unwrap();
        assert_eq!((e.from, e.to), (AlertState::Ok, AlertState::Warning));
        // Both hot → Firing, with evidence attached.
        let e = step_at(&mut m, 3, 3.0, 2.5).unwrap();
        assert_eq!(e.to, AlertState::Firing);
        assert!(e.evidence.is_some());
        // Burn drops; must stay quiet for a minute.
        assert!(step_at(&mut m, 4, 0.2, 0.2).is_none());
        assert!(step_at(&mut m, 63, 0.2, 0.2).is_none());
        let e = step_at(&mut m, 64, 0.2, 0.2).unwrap();
        assert_eq!(e.to, AlertState::Resolved);
        assert!(e.evidence.is_none());
        // Two minutes of cooldown before returning to Ok.
        assert!(step_at(&mut m, 183, 0.1, 0.1).is_none());
        let e = step_at(&mut m, 184, 0.1, 0.1).unwrap();
        assert_eq!(e.to, AlertState::Ok);
    }

    #[test]
    fn flapping_burn_resets_the_resolve_clock() {
        let mut m = AlertMachine::new("w99", 2.0);
        step_at(&mut m, 1, 3.0, 3.0).unwrap();
        assert_eq!(m.state(), AlertState::Firing);
        assert!(step_at(&mut m, 5, 0.2, 0.2).is_none());
        // Burn spikes again: quiet stretch restarts.
        assert!(step_at(&mut m, 40, 3.0, 3.0).is_none());
        assert!(step_at(&mut m, 50, 0.2, 0.2).is_none());
        // A minute after the *second* quiet start, not the first.
        assert!(step_at(&mut m, 70, 0.2, 0.2).is_none());
        let e = step_at(&mut m, 110, 0.2, 0.2).unwrap();
        assert_eq!(e.to, AlertState::Resolved);
    }

    #[test]
    fn hysteresis_blocks_resolution_near_threshold() {
        let mut m = AlertMachine::new("w99", 2.0);
        step_at(&mut m, 1, 3.0, 3.0).unwrap();
        // 1.85 is below threshold 2.0 but above 0.9×2.0 = 1.8: not quiet.
        for t in 2..200 {
            assert!(step_at(&mut m, t, 1.85, 1.85).is_none());
        }
        assert_eq!(m.state(), AlertState::Firing);
    }

    #[test]
    fn warning_needs_only_fast_window_and_clears() {
        let mut m = AlertMachine::new("w99", 2.0);
        let e = step_at(&mut m, 1, 2.5, 0.0).unwrap();
        assert_eq!(e.to, AlertState::Warning);
        let e = step_at(&mut m, 2, 0.1, 0.0).unwrap();
        assert_eq!(e.to, AlertState::Ok);
    }

    #[test]
    fn refire_from_resolved_skips_cooldown() {
        let mut m = AlertMachine::new("w99", 2.0);
        step_at(&mut m, 1, 3.0, 3.0).unwrap();
        for t in 2..=62 {
            step_at(&mut m, t, 0.1, 0.1);
        }
        assert_eq!(m.state(), AlertState::Resolved);
        let e = step_at(&mut m, 63, 3.0, 3.0).unwrap();
        assert_eq!(e.to, AlertState::Firing);
    }

    #[test]
    fn event_json_is_well_formed() {
        let mut m = AlertMachine::new("w99", 2.0);
        let e = m
            .step(Duration::from_secs(3), burn(3.0), burn(2.5), || Evidence {
                window_histogram: None,
                prediction: None,
                model_verdict: Some("drift: Q99[W] off by 2.1x".into()),
                trace_ids: vec![7, 9],
                forecast: None,
            })
            .unwrap();
        let json = e.render_json();
        assert!(json.contains("\"to\":\"firing\""));
        assert!(json.contains("\"trace_ids\":[7,9]"));
        assert!(json.contains("\"window\":null"));
        assert!(json.contains("\"forecast\":null"));
    }

    /// The webhook payload leaves the process: with every evidence block
    /// present it is, byte for byte, what PR 19 (`38e064e`) sent.
    #[test]
    fn webhook_payload_is_byte_identical_to_the_parents() {
        let h = rjms_metrics::Histogram::new();
        for v in [1_000u64, 2_000, 50_000_000] {
            h.record(v);
        }
        let mut evidence = forecast_evidence();
        evidence.window_histogram = Some(h.snapshot());
        evidence.prediction = Some(WaitingTimeReport {
            utilization: 0.1 + 0.2,
            mean_service_time: 2.49e-5,
            service_cvar: 0.0,
            arrival_rate: 12_000.0,
            mean_waiting_time: 1e-7,
            q99: 1.0,
            q9999: 2e-4,
            mean_queue_length: 0.064,
        });
        evidence.model_verdict = Some("drift: \"Q99[W]\"".into());
        evidence.trace_ids = vec![7, 9];
        let mut m = AlertMachine::new("w99", 2.0);
        let e = m.step(Duration::from_secs(3), burn(3.0), burn(2.5), || evidence).unwrap();
        assert_eq!(
            e.render_json(),
            r#"{"name":"w99","from":"ok","to":"firing","at_ms":3000,"fast_burn":3.0,"slow_burn":2.5,"evidence":{"window":{"count":3,"q50_ns":2015,"q99_ns":50000000,"q9999_ns":50000000,"max_ns":50000000},"prediction":{"utilization":0.30000000000000004,"mean_waiting_s":1e-7,"q99_s":1.0,"q9999_s":0.0002},"model_verdict":"drift: \"Q99[W]\"","trace_ids":[7,9],"forecast":{"target":"w99-breach","eta_ms":45000,"eta_early_ms":30000,"eta_late_ms":null,"lambda_now":800.0,"lambda_slope_per_s":12.5,"confidence":"high"}}}"#
        );
    }

    fn forecast_evidence() -> Evidence {
        Evidence {
            forecast: Some(ForecastEvidence {
                target: "w99-breach".into(),
                eta: Duration::from_secs(45),
                eta_early: Duration::from_secs(30),
                eta_late: None,
                lambda_now: 800.0,
                lambda_slope: 12.5,
                confidence: "high".into(),
            }),
            ..Evidence::default()
        }
    }

    #[test]
    fn forecast_raises_pending_before_any_burn_and_clears() {
        let mut m = AlertMachine::new("w99", 2.0);
        // Clean burns + breach forecast → Pending, with the forecast as
        // evidence.
        let e = m
            .step_with_forecast(
                Duration::from_secs(1),
                burn(0.1),
                burn(0.1),
                true,
                forecast_evidence,
            )
            .unwrap();
        assert_eq!((e.from, e.to), (AlertState::Ok, AlertState::Pending));
        let f = e.evidence.expect("pending carries evidence").forecast.expect("forecast");
        assert_eq!(f.confidence, "high");
        // Forecast persists → no re-emission.
        assert!(m
            .step_with_forecast(
                Duration::from_secs(2),
                burn(0.1),
                burn(0.1),
                true,
                forecast_evidence
            )
            .is_none());
        // Forecast clears → back to Ok.
        let e = m
            .step_with_forecast(
                Duration::from_secs(3),
                burn(0.1),
                burn(0.1),
                false,
                forecast_evidence,
            )
            .unwrap();
        assert_eq!((e.from, e.to), (AlertState::Pending, AlertState::Ok));
    }

    #[test]
    fn pending_escalates_through_warning_and_firing() {
        let mut m = AlertMachine::new("w99", 2.0);
        m.step_with_forecast(Duration::from_secs(1), burn(0.1), burn(0.1), true, forecast_evidence)
            .unwrap();
        let e = m
            .step_with_forecast(
                Duration::from_secs(2),
                burn(2.5),
                burn(0.5),
                true,
                forecast_evidence,
            )
            .unwrap();
        assert_eq!((e.from, e.to), (AlertState::Pending, AlertState::Warning));
        let e = m
            .step_with_forecast(
                Duration::from_secs(3),
                burn(3.0),
                burn(2.5),
                true,
                forecast_evidence,
            )
            .unwrap();
        assert_eq!(e.to, AlertState::Firing);
        // A firing that had an active forecast carries it as evidence.
        assert!(e.evidence.unwrap().forecast.is_some());
    }

    #[test]
    fn warning_deescalates_to_pending_while_forecast_holds() {
        let mut m = AlertMachine::new("w99", 2.0);
        m.step_with_forecast(
            Duration::from_secs(1),
            burn(2.5),
            burn(0.1),
            false,
            Evidence::default,
        )
        .unwrap();
        assert_eq!(m.state(), AlertState::Warning);
        let e = m
            .step_with_forecast(
                Duration::from_secs(2),
                burn(0.1),
                burn(0.1),
                true,
                forecast_evidence,
            )
            .unwrap();
        assert_eq!((e.from, e.to), (AlertState::Warning, AlertState::Pending));
    }

    #[test]
    fn pending_event_json_carries_the_forecast() {
        let mut m = AlertMachine::new("w99", 2.0);
        let e = m
            .step_with_forecast(
                Duration::from_secs(1),
                burn(0.1),
                burn(0.1),
                true,
                forecast_evidence,
            )
            .unwrap();
        let json = e.render_json();
        assert!(json.contains("\"to\":\"pending\""), "{json}");
        assert!(json.contains("\"target\":\"w99-breach\""), "{json}");
        assert!(json.contains("\"eta_ms\":45000"), "{json}");
        assert!(json.contains("\"eta_late_ms\":null"), "{json}");
        assert!(json.contains("\"confidence\":\"high\""), "{json}");
    }
}
