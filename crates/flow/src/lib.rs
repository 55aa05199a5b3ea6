//! # rjms-flow — model-driven admission control and flow control
//!
//! The paper's Eq. 1 waiting-time model tells us, *before* the queue melts
//! down, what offered load the broker can absorb while keeping `W99` inside
//! a target. This crate closes that loop: instead of only *measuring* the
//! waiting time (rjms-metrics, rjms-obs), it *acts* on the model by
//! refusing work the model says would violate the objective.
//!
//! Two layers:
//!
//! * [`FlowController`] inverts the `M/GI/1-∞` waiting-time predictor for
//!   one server: for a service-time model `B` and a configured `W99`
//!   objective it computes the largest utilization `ρ_max` whose predicted
//!   99th waiting-time percentile stays inside the objective, and from it
//!   the maximum sustainable arrival rate `λ_max = ρ_max / E[B]`. The seed
//!   model in [`FlowConfig`] gives the first budget; every refresh after
//!   that re-inverts from a [`MeasuredSummary`] of the dispatcher's own
//!   histograms, so a slower server tightens `λ_max` and a faster one
//!   loosens it.
//! * [`FlowGate`] enforces the budgets, one lane per dispatcher shard: a
//!   lane is one controller, a [`TokenBucket`] refilled at its `λ_max`, and
//!   per-producer buckets at half of it. A publish is admitted by its own
//!   shard's lane, and priority classes shed the lowest class first while
//!   the top (durable / persistent) class is deferred but never shed.
//!   Every decision is a typed [`AdmissionOutcome`].
//!
//! On the wire (rjms-net) push-back is the publish reply, and a denial is a
//! typed `PublishDenied` frame.
//!
//! The broker wires a gate in behind `BrokerConfig::flow`; embedded users
//! can drive a [`FlowGate`] directly with a deterministic clock via
//! [`FlowGate::admit_at`], which is how the overload integration test and
//! the property tests exercise it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod config;
pub mod controller;
pub mod gate;

pub use bucket::TokenBucket;
pub use config::FlowConfig;
pub use controller::{CalibrationSource, FlowController};
pub use gate::{AdmissionOutcome, ClassSnapshot, FlowGate, FlowSnapshot};

// Re-exported so callers configuring a gate don't need a direct rjms-core
// dependency for the measurement they feed into `FlowGate::refresh`.
pub use rjms_core::MeasuredSummary;
