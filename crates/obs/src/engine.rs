//! The SLO engine: deterministic core plus a production runtime thread.
//!
//! [`ObsCore`] is intentionally free of clocks and threads: every
//! evaluation is an explicit [`ObsCore::tick`] with a caller-supplied
//! elapsed time, a cumulative registry snapshot, and (optionally) the
//! flight recorder for trace evidence. That makes the whole engine —
//! history, burn rates, state machines, evidence capture — drivable from
//! tests at simulated time, which is how the overload integration test
//! walks an alert through ok → firing → resolved in milliseconds.
//!
//! [`ObsRuntime`] wraps the core in a sampling thread for production: one
//! registry snapshot per interval, one tick, sinks notified on
//! transitions, and the shared core handed to the HTTP layer for the
//! `/history` and `/slo` endpoints.

use crate::alert::{quantile_members, AlertEvent, AlertMachine, AlertSink, AlertState, Evidence};
use crate::forecast::{BreachTargets, Forecast, ForecastConfig, Forecaster, BACKLOG_METRIC};
use crate::history::{MetricHistory, Reduce, Window};
use crate::slo::{evaluate_window, Objective, SloSpec, WindowBurn, SERVICE_METRIC, WAITING_METRIC};
use rjms_core::{ModelMonitor, ModelVerdict};
use rjms_metrics::{shard_series, JsonWriter, MetricsRegistry, RegistrySnapshot};
use rjms_trace::{group_chains, FlightRecorder};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Events retained for the `/slo` transition feed.
const EVENT_RING: usize = 256;
/// Trace chains attached to one piece of firing evidence.
const EVIDENCE_TRACES: usize = 8;

/// Engine configuration. The history keeps 600 fine slots and 720 coarse
/// ones of 10 fine slots each (10 minutes and 2 hours at one tick a
/// second); a firing alert resolves after a minute below 0.9 × its
/// threshold and returns to Ok two minutes later.
#[derive(Debug)]
pub struct ObsConfig {
    /// The objectives to evaluate.
    pub slos: Vec<SloSpec>,
    /// Predictive forecasting knobs (trend window, horizon, confidence
    /// gate). Forecasting is on by default; set `forecast.enabled =
    /// false` to run the engine purely reactively.
    pub forecast: ForecastConfig,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self { slos: SloSpec::defaults(), forecast: ForecastConfig::default() }
    }
}

/// Point-in-time status of one objective (the `/slo` payload row).
#[derive(Debug, Clone)]
pub struct ObjectiveStatus {
    /// Objective name.
    pub name: String,
    /// Current alert state.
    pub state: AlertState,
    /// When the state was entered.
    pub since: Duration,
    /// Latest fast-window evaluation.
    pub fast: WindowBurn,
    /// Latest slow-window evaluation.
    pub slow: WindowBurn,
    /// The firing threshold.
    pub threshold: f64,
    /// Remaining error budget in the slow window, as a fraction of the
    /// budget (1 = untouched, 0 = exhausted, negative = overspent).
    pub budget_remaining: f64,
}

/// One dispatcher shard as the engine last judged it, over that shard's
/// own series (see [`ObsCore::shards`]).
#[derive(Debug, Clone)]
pub struct ShardAssessment {
    /// The model verdict; `None` without a model for the shard or samples
    /// in the assessment window.
    pub verdict: Option<ModelVerdict>,
    /// The saturation forecast; `None` when forecasting is off or the
    /// shard's trend data does not suffice.
    pub forecast: Option<Forecast>,
}

/// The deterministic SLO engine. See the [module docs](self).
///
/// Eq. 1 and the M/GI/1 model describe one server, and a broker with `k`
/// dispatchers is `k` of them: the engine assesses and forecasts each
/// shard over its own series and judges the one that bounds the broker.
/// The latency objectives count messages, not servers, and read the
/// aggregate series.
pub struct ObsCore {
    history: MetricHistory,
    specs: Vec<SloSpec>,
    machines: Vec<AlertMachine>,
    /// One model per shard ([`ObsCore::set_monitors`]); its length is the
    /// shard count, and an engine never given any judges one server.
    monitors: Vec<Option<ModelMonitor>>,
    forecaster: Forecaster,
    targets: BreachTargets,
    shards: Vec<ShardAssessment>,
    latest_status: Vec<ObjectiveStatus>,
    events: std::collections::VecDeque<AlertEvent>,
    sinks: Vec<Box<dyn AlertSink>>,
}

impl std::fmt::Debug for ObsCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsCore")
            .field("specs", &self.specs.len())
            .field("samples", &self.history.samples())
            .field("events", &self.events.len())
            .finish()
    }
}

impl ObsCore {
    /// Builds an engine from a configuration.
    pub fn new(config: ObsConfig) -> Self {
        let machines =
            config.slos.iter().map(|s| AlertMachine::new(&s.name, s.burn_threshold)).collect();
        let targets = BreachTargets::from_specs(&config.slos);
        Self {
            history: MetricHistory::default(),
            specs: config.slos,
            machines,
            monitors: Vec::new(),
            forecaster: Forecaster::new(config.forecast),
            targets,
            shards: Vec::new(),
            latest_status: Vec::new(),
            events: std::collections::VecDeque::with_capacity(EVENT_RING),
            sinks: Vec::new(),
        }
    }

    /// Sets the analytic model of each dispatcher shard, one entry per
    /// shard (`None`: no model for it). The list's length is the broker's
    /// shard count: shard `i` is judged over its own series
    /// ([`shard_series`]). With models, firing evidence gains the bounding
    /// shard's prediction and the drift-health objective becomes live. A
    /// shard's measured operating point (filters per message, replication
    /// grade) is only observable once traffic flows, so hosts refresh the
    /// list as it moves.
    pub fn set_monitors(&mut self, monitors: Vec<Option<ModelMonitor>>) {
        self.monitors = monitors;
    }

    /// Adds a notification sink.
    pub fn add_sink(&mut self, sink: Box<dyn AlertSink>) {
        self.sinks.push(sink);
    }

    /// The metric history (for `/history` readouts).
    pub fn history(&self) -> &MetricHistory {
        &self.history
    }

    /// The latest per-objective status (recomputed by each tick).
    pub fn status(&self) -> &[ObjectiveStatus] {
        &self.latest_status
    }

    /// Recent alert transitions, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &AlertEvent> {
        self.events.iter()
    }

    /// Each shard as the latest tick judged it, in shard order.
    pub fn shards(&self) -> &[ShardAssessment] {
        &self.shards
    }

    /// The latest model verdict of the shard that bounds W99
    /// ([`ModelVerdict::bounding`], the flow gate's rule), when a shard has
    /// a model and samples.
    pub fn latest_verdict(&self) -> Option<&ModelVerdict> {
        bounding_verdict(&self.shards)
    }

    /// The latest saturation forecast that comes soonest: the shard whose
    /// projected breach is nearest, else (no shard projects one) the
    /// busiest shard's. Recomputed by each tick when forecasting is enabled
    /// and trend data suffices.
    pub fn latest_forecast(&self) -> Option<&Forecast> {
        soonest_forecast(&self.shards)
    }

    /// The forecaster's knobs.
    pub fn forecast_config(&self) -> &ForecastConfig {
        self.forecaster.config()
    }

    /// Ingests one cumulative snapshot and evaluates every objective.
    /// Returns the transitions that occurred (already delivered to sinks).
    pub fn tick(
        &mut self,
        elapsed: Duration,
        snapshot: &RegistrySnapshot,
        recorder: Option<&FlightRecorder>,
    ) -> Vec<AlertEvent> {
        self.history.record(elapsed, snapshot);

        // Per shard, over its own series: the model assessment over the
        // fast window of the first latency objective (they share the
        // default 5 m onset horizon), then the predictive pass — fit the
        // λ(t) trend and project time-to-breach before any burn evaluation,
        // so a clean-but-climbing system can enter Pending this very tick.
        let assess_span =
            self.specs.first().map(|s| s.fast_window).unwrap_or(Duration::from_secs(300));
        let assess_window = self.history.window(assess_span);
        let shards = self.monitors.len().max(1);
        let forecast_config = *self.forecaster.config();
        let assessed: Vec<ShardAssessment> = (0..shards)
            .map(|shard| {
                let series = |base| shard_series(base, shard, shards);
                let (waiting, service) = (series(WAITING_METRIC), series(SERVICE_METRIC));
                let monitor = self.monitors.get(shard).and_then(Option::as_ref);
                let verdict = monitor.and_then(|m| {
                    let waiting = assess_window.histogram(&waiting)?;
                    let service = assess_window.histogram(&service)?;
                    Some(m.assess(waiting, service, assess_window.span()))
                });
                let backlog = series(BACKLOG_METRIC);
                let (history, targets) = (&self.history, &self.targets);
                let forecast = forecast_config.enabled.then(|| {
                    self.forecaster
                        .forecast(history, &waiting, &service, &backlog, targets, elapsed)
                });
                ShardAssessment { verdict, forecast: forecast.flatten() }
            })
            .collect();
        let verdict = bounding_verdict(&assessed);
        let drift_red =
            matches!(verdict, Some(ModelVerdict::Drift(_) | ModelVerdict::Overloaded { .. }));
        let forecast = soonest_forecast(&assessed);

        let mut transitions = Vec::new();
        let mut status = Vec::with_capacity(self.specs.len());
        for (spec, machine) in self.specs.iter().zip(self.machines.iter_mut()) {
            let fast_window = self.history.window(spec.fast_window);
            let slow_window = self.history.window(spec.slow_window);
            let fast = evaluate_window(&spec.objective, &fast_window, shards, drift_red);
            let slow = evaluate_window(&spec.objective, &slow_window, shards, drift_red);
            let hint = forecast.is_some_and(|f| f.pending(&forecast_config, &spec.objective));
            let event = machine.step_with_forecast(elapsed, fast, slow, hint, || {
                build_evidence(spec, &fast_window, verdict, forecast, recorder)
            });
            if let Some(event) = event {
                transitions.push(event);
            }
            status.push(ObjectiveStatus {
                name: spec.name.clone(),
                state: machine.state(),
                since: machine.since(),
                fast,
                slow,
                threshold: spec.burn_threshold,
                budget_remaining: 1.0 - slow.burn,
            });
        }
        self.shards = assessed;
        self.latest_status = status;
        for event in &transitions {
            if self.events.len() == EVENT_RING {
                self.events.pop_front();
            }
            self.events.push_back(event.clone());
            for sink in &mut self.sinks {
                sink.emit(event);
            }
        }
        transitions
    }

    /// Renders the `/slo` JSON payload: per-objective burn rates and
    /// states, the latest saturation forecast with the knobs it was
    /// computed under, and the recent transition feed (newest last,
    /// evidence included).
    pub fn render_slo_json(&self) -> String {
        let config = self.forecaster.config();
        JsonWriter::document(|w| {
            w.object(|w| {
                w.field("elapsed_ms", self.history.latest().map_or(0, |t| t.as_millis() as u64));
                w.field("model_verdict", self.latest_verdict().map(verdict_summary));
                w.key("objectives").array(|w| {
                    for s in &self.latest_status {
                        w.object(|w| {
                            w.field("name", &s.name);
                            w.field("state", s.state.name());
                            w.field("since_ms", s.since.as_millis() as u64);
                            w.field("threshold", s.threshold);
                            w.field("fast_burn", s.fast.burn);
                            w.field("slow_burn", s.slow.burn);
                            w.field("fast_samples", s.fast.samples);
                            w.field("slow_samples", s.slow.samples);
                            w.field("fast_bad", s.fast.bad);
                            w.field("slow_bad", s.slow.bad);
                            w.field("budget_remaining", s.budget_remaining);
                        });
                    }
                });
                w.key("forecast").optional(self.latest_forecast(), Forecast::write_json);
                w.key("forecast_config").object(|w| {
                    w.field("enabled", config.enabled);
                    w.field("horizon_ms", config.horizon.as_millis() as u64);
                    w.field("trend_window_ms", config.trend_window.as_millis() as u64);
                    w.field("min_confidence", config.min_confidence.name());
                });
                w.key("events").array(|w| self.events.iter().for_each(|e| e.write_json(w)));
            });
        })
    }

    /// Renders the `/history` JSON payload for one metric: the per-slot
    /// series over `span` under `reduce`, plus the merged-window summary.
    pub fn render_history_json(&self, metric: &str, span: Duration, reduce: Reduce) -> String {
        let points = self.history.series(metric, span, reduce);
        let window = self.history.window(span);
        JsonWriter::document(|w| {
            w.object(|w| {
                w.field("metric", metric);
                w.field("window_ms", span.as_millis() as u64);
                w.field("covered_ms", window.span().as_millis() as u64);
                let reduce = match reduce {
                    Reduce::Rate => "rate",
                    Reduce::Level => "level",
                    Reduce::Quantile(_) => "quantile",
                    Reduce::Count => "count",
                    Reduce::Mean => "mean",
                };
                w.field("reduce", reduce);
                w.key("points").array(|w| {
                    for p in &points {
                        w.object(|w| {
                            w.field("t_ms", p.elapsed_ms);
                            w.field("v", p.value);
                        });
                    }
                });
                w.key("summary");
                match (window.histogram(metric), window.counters.get(metric)) {
                    (Some(h), _) => w.object(|w| {
                        quantile_members(h, w);
                        w.field("mean_ns", h.mean());
                    }),
                    (None, Some(total)) => w.object(|w| {
                        w.field("total", *total);
                        w.field("rate", window.rate(metric));
                    }),
                    (None, None) => w.value(None::<u64>),
                }
            });
        })
    }
}

/// The verdict of the shard that bounds W99 (see [`ObsCore::latest_verdict`]).
fn bounding_verdict(shards: &[ShardAssessment]) -> Option<&ModelVerdict> {
    ModelVerdict::bounding(shards.iter().filter_map(|s| s.verdict.as_ref()))
}

/// The forecast whose breach comes soonest (see [`ObsCore::latest_forecast`]).
fn soonest_forecast(shards: &[ShardAssessment]) -> Option<&Forecast> {
    let eta = |f: &Forecast| f.soonest().map_or(Duration::MAX, |(_, band)| band.eta);
    shards
        .iter()
        .filter_map(|s| s.forecast.as_ref())
        .min_by(|a, b| eta(a).cmp(&eta(b)).then(b.rho_now.total_cmp(&a.rho_now)))
}

/// One-line human summary of a model verdict.
pub fn verdict_summary(verdict: &ModelVerdict) -> String {
    match verdict {
        ModelVerdict::Insufficient { samples, required } => {
            format!("insufficient: {samples}/{required} samples")
        }
        ModelVerdict::Overloaded { utilization } => {
            format!("overloaded: rho = {utilization:.3} >= 1")
        }
        ModelVerdict::Calibrated(_) => "calibrated".to_string(),
        ModelVerdict::Drift(report) => {
            let quantities: Vec<&str> = report.violations.iter().map(|v| v.quantity).collect();
            format!("drift: {}", quantities.join(", "))
        }
        _ => "unknown".to_string(),
    }
}

/// Builds firing evidence for one objective from the offending fast
/// window, the latest model verdict, the active forecast, and the flight
/// recorder's current tail-sampled chains.
fn build_evidence(
    spec: &SloSpec,
    fast_window: &Window,
    verdict: Option<&ModelVerdict>,
    forecast: Option<&Forecast>,
    recorder: Option<&FlightRecorder>,
) -> Evidence {
    let metric = match &spec.objective {
        Objective::LatencyQuantile { metric, .. } => metric.as_str(),
        Objective::UtilizationCeiling { .. } => SERVICE_METRIC,
        Objective::DriftHealth => WAITING_METRIC,
    };
    let trace_ids = recorder
        .map(|r| {
            let chains = group_chains(r.snapshot().events);
            let mut ids: Vec<u64> =
                chains.iter().filter(|c| c.is_complete()).map(|c| c.trace_id).collect();
            // Newest chains carry the incident; keep the tail.
            if ids.len() > EVIDENCE_TRACES {
                ids.drain(..ids.len() - EVIDENCE_TRACES);
            }
            ids
        })
        .unwrap_or_default();
    Evidence {
        window_histogram: fast_window.histogram(metric).cloned(),
        prediction: verdict.and_then(|v| v.report()).map(|r| r.predicted),
        model_verdict: verdict.map(verdict_summary),
        forecast: forecast.and_then(|f| f.evidence()),
        trace_ids,
    }
}

/// Production wrapper: samples the registry on an interval and drives a
/// shared [`ObsCore`] from a background thread.
pub struct ObsRuntime {
    core: Arc<Mutex<ObsCore>>,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ObsRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsRuntime").finish_non_exhaustive()
    }
}

impl ObsRuntime {
    /// Starts the sampling thread: one `registry.snapshot()` and one
    /// [`ObsCore::tick`] every `interval` until [`ObsRuntime::stop`]. Before
    /// each tick `monitors` is asked for each shard's model at its measured
    /// operating point ([`ObsCore::set_monitors`]).
    pub fn start(
        core: ObsCore,
        registry: MetricsRegistry,
        recorder: Option<Arc<FlightRecorder>>,
        interval: Duration,
        monitors: impl Fn() -> Vec<Option<ModelMonitor>> + Send + 'static,
    ) -> Self {
        let core = Arc::new(Mutex::new(core));
        let stop = Arc::new(AtomicBool::new(false));
        let thread_core = Arc::clone(&core);
        let thread_stop = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("rjms-obs".into())
            .spawn(move || {
                let epoch = Instant::now();
                while !thread_stop.load(Ordering::Relaxed) {
                    thread::sleep(interval);
                    let snapshot = registry.snapshot();
                    let elapsed = epoch.elapsed();
                    let refreshed = monitors();
                    let mut core = thread_core.lock().expect("obs core lock");
                    core.set_monitors(refreshed);
                    core.tick(elapsed, &snapshot, recorder.as_deref());
                }
            })
            .expect("spawn obs thread");
        Self { core, stop, handle: Some(handle) }
    }

    /// The shared core, for HTTP handlers and shutdown-time inspection.
    pub fn core(&self) -> Arc<Mutex<ObsCore>> {
        Arc::clone(&self.core)
    }

    /// Stops the sampling thread and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::MemorySink;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rjms_core::{CostParams, ReplicationModel, ServerModel};
    use rjms_metrics::MetricsRegistry;

    /// One `W99 ≤ 1 ms` objective on 4 s / 8 s windows.
    fn quick_config() -> ObsConfig {
        ObsConfig {
            slos: vec![SloSpec::latency("w99", WAITING_METRIC, 0.99, 1_000_000)
                .windows(Duration::from_secs(4), Duration::from_secs(8))],
            forecast: ForecastConfig::default(),
        }
    }

    #[test]
    fn tick_drives_alert_through_overload_and_back() {
        let registry = MetricsRegistry::new();
        let waiting = registry.histogram(WAITING_METRIC);
        let mut core = ObsCore::new(quick_config());
        let sink = MemorySink::new();
        core.add_sink(Box::new(sink.clone()));

        let mut t = 0u64;
        let step = |core: &mut ObsCore, violating: bool, t: &mut u64| {
            for _ in 0..100 {
                waiting.record(if violating { 50_000_000 } else { 100_000 });
            }
            *t += 1;
            core.tick(Duration::from_secs(*t), &registry.snapshot(), None);
        };
        // Healthy warm-up fills both windows with good samples.
        for _ in 0..9 {
            step(&mut core, false, &mut t);
        }
        assert_eq!(core.status()[0].state, AlertState::Ok);
        // Saturate: every sample violates the 1 ms limit.
        for _ in 0..9 {
            step(&mut core, true, &mut t);
        }
        assert_eq!(core.status()[0].state, AlertState::Firing);
        // Recover: a minute quiet to resolve, then two minutes of cooldown
        // back to Ok.
        for _ in 0..200 {
            step(&mut core, false, &mut t);
        }
        assert_eq!(core.status()[0].state, AlertState::Ok);
        let states: Vec<AlertState> = sink.events().iter().map(|e| e.to).collect();
        assert!(states.contains(&AlertState::Firing));
        assert!(states.contains(&AlertState::Resolved));
        assert!(states.contains(&AlertState::Ok));
    }

    #[test]
    fn firing_event_carries_window_evidence() {
        let registry = MetricsRegistry::new();
        let waiting = registry.histogram(WAITING_METRIC);
        let mut core = ObsCore::new(quick_config());
        let mut transitions = Vec::new();
        for t in 1..=8u64 {
            for _ in 0..50 {
                waiting.record(80_000_000);
            }
            transitions.extend(core.tick(Duration::from_secs(t), &registry.snapshot(), None));
        }
        let firing = transitions.iter().find(|e| e.to == AlertState::Firing).unwrap();
        let evidence = firing.evidence.as_ref().unwrap();
        let h = evidence.window_histogram.as_ref().unwrap();
        assert!(h.count > 0);
        assert!(h.quantile(0.99).unwrap() > 1_000_000);
    }

    #[test]
    fn json_payloads_are_well_formed() {
        let registry = MetricsRegistry::new();
        let waiting = registry.histogram(WAITING_METRIC);
        registry.counter("broker.messages.received").add(5);
        let mut core = ObsCore::new(quick_config());
        for t in 1..=3u64 {
            waiting.record(500_000);
            registry.counter("broker.messages.received").add(10);
            core.tick(Duration::from_secs(t), &registry.snapshot(), None);
        }
        let slo = core.render_slo_json();
        assert!(slo.contains("\"objectives\":["));
        assert!(slo.contains("\"name\":\"w99\""));
        assert!(slo.contains("\"events\":["));
        let hist = core.render_history_json(
            WAITING_METRIC,
            Duration::from_secs(60),
            Reduce::Quantile(0.99),
        );
        assert!(hist.contains("\"points\":["));
        assert!(hist.contains("\"summary\":{"));
        let counter_hist = core.render_history_json(
            "broker.messages.received",
            Duration::from_secs(60),
            Reduce::Rate,
        );
        assert!(counter_hist.contains("\"total\":"));
    }

    #[test]
    fn ramp_raises_pending_before_firing_with_forecast_evidence() {
        let registry = MetricsRegistry::new();
        let waiting = registry.histogram(WAITING_METRIC);
        let service = registry.histogram(SERVICE_METRIC);
        let backlog = registry.histogram(BACKLOG_METRIC);
        let config = ObsConfig {
            slos: vec![SloSpec::latency("w99", WAITING_METRIC, 0.99, 10_000_000)
                .windows(Duration::from_secs(8), Duration::from_secs(16))],
            forecast: ForecastConfig {
                trend_window: Duration::from_secs(20),
                horizon: Duration::from_secs(300),
                ..ForecastConfig::default()
            },
        };
        let mut core = ObsCore::new(config);
        let mut transitions = Vec::new();
        let mut t = 0u64;
        // Healthy waits, 1 ms service, arrival rate ramping linearly:
        // burn rates stay clean while the trend points at saturation.
        for step in 1..=20u64 {
            let n = 50 + 25 * step;
            for _ in 0..n {
                waiting.record(500_000);
                service.record(1_000_000);
                backlog.record((n as f64 * 0.0005).round() as u64);
            }
            t += 1;
            transitions.extend(core.tick(Duration::from_secs(t), &registry.snapshot(), None));
        }
        assert_eq!(core.status()[0].state, AlertState::Pending, "clean ramp must pend");
        let pending = transitions.iter().find(|e| e.to == AlertState::Pending).unwrap();
        let evidence = pending.evidence.as_ref().unwrap();
        let forecast = evidence.forecast.as_ref().expect("pending carries the forecast");
        assert_eq!(forecast.target, "w99-breach");
        assert!(forecast.eta > Duration::ZERO);
        assert!(core.render_slo_json().contains("\"forecast\":{\"at_ms\":"));
        assert!(core.render_slo_json().contains("\"eta_breach\":{"));
        // The predicted breach arrives: violating samples drive the same
        // machine through Warning into Firing.
        for _ in 0..9 {
            for _ in 0..600 {
                waiting.record(50_000_000);
                service.record(1_000_000);
                backlog.record(30);
            }
            t += 1;
            transitions.extend(core.tick(Duration::from_secs(t), &registry.snapshot(), None));
        }
        assert_eq!(core.status()[0].state, AlertState::Firing);
        let pending_at = transitions.iter().position(|e| e.to == AlertState::Pending).unwrap();
        let firing_at = transitions.iter().position(|e| e.to == AlertState::Firing).unwrap();
        assert!(pending_at < firing_at, "forecast must precede the burn alert");
    }

    #[test]
    fn forecast_disabled_never_pends() {
        let registry = MetricsRegistry::new();
        let waiting = registry.histogram(WAITING_METRIC);
        let service = registry.histogram(SERVICE_METRIC);
        let forecast = ForecastConfig { enabled: false, ..ForecastConfig::default() };
        let mut core = ObsCore::new(ObsConfig { forecast, ..quick_config() });
        for t in 1..=20u64 {
            for _ in 0..(50 + 25 * t) {
                waiting.record(100_000);
                service.record(1_000_000);
            }
            core.tick(Duration::from_secs(t), &registry.snapshot(), None);
        }
        assert_eq!(core.status()[0].state, AlertState::Ok);
        assert!(core.latest_forecast().is_none());
        assert!(core.render_slo_json().contains("\"forecast_config\":{\"enabled\":false"));
        assert!(core.shards().iter().all(|s| s.forecast.is_none()));
    }

    /// Dispatcher shards of the synthetic broker below.
    const SHARDS: usize = 4;

    /// An engine over a four-shard broker with each shard's model (Table I
    /// correlation-ID constants, 100 filters, one copy), the default
    /// objectives on 10 s / 20 s windows, a 10 s trend, and that model's
    /// `E[B]`.
    fn four_shard_engine() -> (ObsCore, f64) {
        let model = ServerModel::new(CostParams::CORRELATION_ID, 100);
        let replication = ReplicationModel::deterministic(1.0);
        let e_b = model.service_time(replication).mean();
        let (fast, slow) = (Duration::from_secs(10), Duration::from_secs(20));
        let slos = SloSpec::defaults().into_iter().map(|s| s.windows(fast, slow)).collect();
        let forecast = ForecastConfig { trend_window: fast, ..ForecastConfig::default() };
        let mut core = ObsCore::new(ObsConfig { slos, forecast });
        core.set_monitors(vec![Some(ModelMonitor::new(model, replication)); SHARDS]);
        (core, e_b)
    }

    /// Twelve seconds of M/D/1 traffic (Lindley's recursion, service `e_b`)
    /// into shard `i` at utilisation `rho[i]`, recorded as the dispatchers
    /// record it — into the shard's labeled twins and into the aggregates,
    /// which are their sums — with a tick a second. Returns the transitions.
    fn drive_shards(core: &mut ObsCore, e_b: f64, rho: [f64; SHARDS]) -> Vec<AlertEvent> {
        let registry = MetricsRegistry::new();
        let twins = |base| -> Vec<_> {
            (0..SHARDS).map(|i| registry.histogram(&shard_series(base, i, SHARDS))).collect()
        };
        let (waiting, service) = (twins(WAITING_METRIC), twins(SERVICE_METRIC));
        let all = (registry.histogram(WAITING_METRIC), registry.histogram(SERVICE_METRIC));
        let (mut rng, mut w, mut events) = (StdRng::seed_from_u64(26), [0.0; SHARDS], Vec::new());
        for t in 1..=12 {
            for (shard, rho) in rho.into_iter().enumerate() {
                let rate = rho / e_b;
                for _ in 0..rate.round() as u64 {
                    let (wait_ns, service_ns) = ((w[shard] * 1e9) as u64, (e_b * 1e9) as u64);
                    waiting[shard].record(wait_ns);
                    all.0.record(wait_ns);
                    service[shard].record(service_ns);
                    all.1.record(service_ns);
                    let interarrival = -(1.0 - rng.gen::<f64>()).ln() / rate;
                    w[shard] = (w[shard] + e_b - interarrival).max(0.0);
                }
            }
            events.extend(core.tick(Duration::from_secs(t), &registry.snapshot(), None));
        }
        events
    }

    fn rho_status(core: &ObsCore) -> &ObjectiveStatus {
        core.status().iter().find(|s| s.name == "rho").expect("the default rho objective")
    }

    /// Four shards at ρ ≈ 0.3 are four servers at 0.3, not one at 1.2:
    /// every shard calibrated, the ρ objective burning 0.3 / 0.9, each
    /// forecast at its own shard's load, and no transition at all.
    #[test]
    #[cfg_attr(miri, ignore = "80k samples are interpreter-slow; the ramp tests tick under Miri")]
    fn four_shards_at_a_third_are_four_servers_not_one_overloaded() {
        let (mut core, e_b) = four_shard_engine();
        let events = drive_shards(&mut core, e_b, [0.3; SHARDS]);
        assert_eq!(core.shards().len(), SHARDS);
        for shard in core.shards() {
            let verdict = shard.verdict.as_ref().expect("every shard has samples");
            assert!(verdict.is_calibrated(), "{verdict:?}");
            let forecast = shard.forecast.as_ref().expect("every shard has a trend");
            assert!((forecast.rho_now - 0.3).abs() < 0.03, "rho_now {}", forecast.rho_now);
        }
        let burn = rho_status(&core).fast.burn;
        assert!((burn - 0.3 / 0.9).abs() < 0.02, "rho burn {burn}");
        assert!(events.is_empty(), "{events:?}");
        assert!(core.render_slo_json().contains("\"model_verdict\":\"calibrated\""));
    }

    /// One shard at ρ ≈ 0.95 beside three idle ones: the ρ objective burns
    /// that shard's load and `/slo`'s verdict is that shard's.
    #[test]
    #[cfg_attr(miri, ignore = "80k samples are interpreter-slow; the ramp tests tick under Miri")]
    fn one_busy_shard_bounds_the_broker() {
        let (mut core, e_b) = four_shard_engine();
        drive_shards(&mut core, e_b, [0.95, 0.0, 0.0, 0.0]);
        assert!(rho_status(&core).fast.burn >= 1.0, "rho burn {}", rho_status(&core).fast.burn);
        let busy = core.shards()[0].verdict.as_ref().expect("the busy shard is judged");
        assert_eq!(core.latest_verdict(), Some(busy));
        assert!(core.shards()[1..].iter().all(|s| s.verdict.is_none()), "idle shards have nothing");
        let slo = core.render_slo_json();
        assert!(slo.contains(&format!("\"model_verdict\":\"{}\"", verdict_summary(busy))), "{slo}");
    }

    #[test]
    fn runtime_thread_ticks_and_stops() {
        let registry = MetricsRegistry::new();
        let waiting = registry.histogram(WAITING_METRIC);
        waiting.record(1_000);
        let core = ObsCore::new(quick_config());
        let runtime = ObsRuntime::start(core, registry, None, Duration::from_millis(5), Vec::new);
        let shared = runtime.core();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if shared.lock().unwrap().history().samples() >= 3 {
                break;
            }
            assert!(Instant::now() < deadline, "runtime never ticked");
            thread::sleep(Duration::from_millis(5));
        }
        runtime.stop();
    }
}
