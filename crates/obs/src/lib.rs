//! # rjms-obs
//!
//! The waiting-time SLO engine for the rjms broker: bounded-memory metric
//! history, declarative objectives evaluated as multi-window burn rates,
//! and an alert state machine whose firing records carry evidence —
//! the offending window's latency histogram, the analytic model's
//! prediction at the measured load, and tail-sampled trace chains.
//!
//! The paper this workspace reproduces (Menth & Henjes, ICDCS 2006)
//! argues that a JMS broker's health is its waiting-time *quantiles*:
//! W99 and W99.99 stay small right up until utilization approaches 1,
//! then explode. An average-based alert misses the onset entirely; this
//! crate alerts on exactly the quantities the paper analyzes, and uses
//! the paper's own machinery to explain them: a firing record carries the
//! model's prediction at the measured load, and the forecaster inverts the
//! W99 quantile ([`rjms_core::max_utilization_for_quantile`]) to place its
//! breach point.
//!
//! Layers, bottom up:
//!
//! * [`history`] — multi-resolution delta rings over cumulative registry
//!   snapshots; any trailing window is a bucket-exact histogram merge,
//! * [`slo`] — objectives (`W99 ≤ limit`, `ρ` ceiling, model health) and
//!   their fast/slow burn-rate evaluation,
//! * [`alert`] — the ok → warning → firing → resolved state machine with
//!   hysteresis and cooldown, plus pluggable sinks (stderr, webhook,
//!   in-memory),
//! * [`forecast`] — the predictive layer: λ(t) trend estimation over the
//!   history rings, analytic breach-point inversion, time-to-breach ETAs
//!   with confidence bands, and the Little's-law telemetry self-check,
//! * [`engine`] — [`ObsCore`], the deterministic tick-driven engine, and
//!   [`ObsRuntime`], its production sampling thread,
//! * [`minijson`] — the dependency-free JSON parser the operator console
//!   uses to read the engine's HTTP payloads back.
//!
//! ## Quickstart
//!
//! ```
//! use rjms_metrics::MetricsRegistry;
//! use rjms_obs::{ObsConfig, ObsCore};
//! use std::time::Duration;
//!
//! let registry = MetricsRegistry::new();
//! let waiting = registry.histogram("broker.waiting_ns");
//! let mut engine = ObsCore::new(ObsConfig::default());
//! for second in 1..=5u64 {
//!     waiting.record(250_000); // healthy sub-millisecond waits
//!     engine.tick(Duration::from_secs(second), &registry.snapshot(), None);
//! }
//! let status = engine.status();
//! assert!(status.iter().all(|s| s.state.name() == "ok"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alert;
pub mod engine;
pub mod forecast;
pub mod history;
pub mod minijson;
pub mod slo;

pub use alert::{
    AlertEvent, AlertMachine, AlertSink, AlertState, Evidence, ForecastEvidence, MemorySink,
    StderrSink, WebhookSink,
};
pub use engine::{
    verdict_summary, ObjectiveStatus, ObsConfig, ObsCore, ObsRuntime, ShardAssessment,
};
pub use forecast::{
    BreachTargets, Confidence, EtaBand, Forecast, ForecastConfig, Forecaster, LittlesLawCheck,
    BACKLOG_METRIC,
};
pub use history::{MetricHistory, Reduce, SeriesPoint, Window};
pub use slo::{evaluate_window, Objective, SloSpec, WindowBurn};
