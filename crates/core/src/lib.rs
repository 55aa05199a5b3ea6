//! # rjms-core
//!
//! The performance model of Menth & Henjes, *Analysis of the Message
//! Waiting Time for the FioranoMQ JMS Server* (ICDCS 2006) — the paper's
//! primary contribution, implemented as a library:
//!
//! * [`params`] — the Table I cost constants `(t_rcv, t_fltr, t_tx)` per
//!   filter type,
//! * [`model`] — the service-time model `E[B] = t_rcv + n_fltr·t_fltr +
//!   E[R]·t_tx` (Eq. 1) and the saturated-throughput prediction,
//! * [`calibrate`] — least-squares fitting of the cost constants from
//!   throughput measurements (how Table I is derived),
//! * [`regression`] — the same fit run *online* over a live stream of
//!   per-message `(n_fltr, R, B)` observations, with drift verdicts,
//! * [`capacity`] — server capacity `λ_max = ρ/E[B]` (Eq. 2) and the
//!   filter-benefit rule (Eq. 3) with its break-even match probabilities,
//! * [`waiting`] — the `M/GI/1-∞` waiting-time analysis: mean,
//!   distribution and quantiles (Eqs. 4–20, Figs. 10–12),
//! * [`scenario`] — high-level application scenarios,
//! * [`slo`] — the waiting-time quantile inverted: the utilization ceiling
//!   where a latency limit is exhausted,
//! * [`architecture`] — the PSR / SSR distributed architectures
//!   (Eqs. 21–23, Fig. 15).
//!
//! ## Example: capacity planning in four lines
//!
//! ```
//! use rjms_core::params::CostParams;
//! use rjms_core::capacity::server_capacity;
//!
//! // 1000 correlation-ID filters, E[R] = 5, 90% CPU budget:
//! let cap = server_capacity(&CostParams::CORRELATION_ID, 1000, 5.0, 0.9);
//! assert!(cap > 100.0 && cap < 200.0); // ≈ 126 msgs/s
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod architecture;
pub mod calibrate;
pub mod capacity;
pub mod error;
pub mod model;
pub mod monitor;
pub mod params;
pub mod regression;
pub mod report;
pub mod scenario;
pub mod slo;
pub mod waiting;

pub use architecture::{ClusterScenario, DistributedScenario};
pub use calibrate::{
    fit_cost_params, fit_cost_params_fixed_rcv, Calibration, CalibrationError, Observation,
};
pub use capacity::{break_even_match_probability, filter_benefit, server_capacity, FilterBenefit};
pub use error::Error;
pub use model::{ServerModel, ThroughputPrediction};
pub use monitor::{DriftReport, MeasuredSummary, ModelMonitor, ModelVerdict};
pub use params::{CostParams, FilterType};
pub use regression::{CostRegression, FitMode, FittedCosts, RegressionReport, RegressionVerdict};
pub use report::plan_report;
pub use scenario::{ApplicationScenario, ApplicationScenarioBuilder};
pub use slo::{max_utilization_for_quantile, measured_service};
pub use waiting::{WaitingTimeAnalysis, WaitingTimeReport};

// Re-export the queueing vocabulary types that appear in this crate's API.
pub use rjms_queueing::replication::ReplicationModel;
pub use rjms_queueing::service::ServiceTime;
