//! # rjms
//!
//! A JMS-style publish/subscribe message broker with analytic performance
//! models — a from-scratch Rust reproduction of Menth & Henjes, *Analysis of
//! the Message Waiting Time for the FioranoMQ JMS Server* (ICDCS 2006).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`broker`] — the threaded pub/sub broker ([`rjms_broker`]),
//! * [`selector`] — the JMS message-selector language ([`rjms_selector`]),
//! * [`model`] — the paper's performance model ([`rjms_core`]),
//! * [`queueing`] — the `M/GI/1-∞` analysis ([`rjms_queueing`]),
//! * [`desim`] — discrete-event simulation ([`rjms_desim`]),
//! * [`net`] — the TCP wire layer ([`rjms_net`]),
//! * [`flow`] — model-driven admission control ([`rjms_flow`]),
//! * [`metrics`] — counters, histograms, the TSC clock ([`rjms_metrics`]),
//! * [`trace`] — the tail-sampled flight recorder ([`rjms_trace`]),
//! * [`obs`] — the waiting-time SLO engine: metric history, burn-rate
//!   alerting, evidence-bearing alerts ([`rjms_obs`]),
//! * [`http`] — the HTTP metrics/trace/SLO exposition endpoint (this
//!   crate),
//! * [`settings`] — the one table behind `rjms-server`'s flags, `--config`
//!   file and `--help` (this crate).
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the paper-vs-measured record of every
//! reproduced table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use rjms::broker::{Broker, BrokerConfig, Filter, Message};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), rjms::broker::Error> {
//! let broker = Broker::start(BrokerConfig::default());
//! broker.create_topic("news")?;
//! let sub = broker
//!     .subscription("news")
//!     .filter(Filter::selector("category = 'tech'").unwrap())
//!     .open()?;
//! broker.publisher("news")?
//!     .publish(Message::builder().property("category", "tech").build())?;
//! assert!(sub.receive_timeout(Duration::from_secs(1)).is_some());
//! broker.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! ## Capacity planning with the paper's model
//!
//! ```
//! use rjms::model::params::{CostParams, FilterType};
//! use rjms::model::scenario::ApplicationScenario;
//!
//! let scenario = ApplicationScenario::builder(FilterType::CorrelationId)
//!     .subscribers(1000)
//!     .filters_per_subscriber(1)
//!     .match_probability(0.01)
//!     .offered_load(100.0)
//!     .build();
//! assert!(scenario.is_feasible());
//! let report = scenario.waiting_time_at_offered_load().unwrap();
//! println!("99.99% of messages wait less than {:.1} ms", report.q9999 * 1e3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The threaded publish/subscribe broker (re-export of [`rjms_broker`]).
pub mod broker {
    pub use rjms_broker::*;
}

/// The JMS message-selector language (re-export of [`rjms_selector`]).
pub mod selector {
    pub use rjms_selector::*;
}

/// The paper's performance model (re-export of [`rjms_core`]).
pub mod model {
    pub use rjms_core::*;
}

/// Analytic queueing theory (re-export of [`rjms_queueing`]).
pub mod queueing {
    pub use rjms_queueing::*;
}

/// Discrete-event simulation (re-export of [`rjms_desim`]).
pub mod desim {
    pub use rjms_desim::*;
}

/// TCP wire layer: remote publishers and subscribers (re-export of
/// [`rjms_net`]).
pub mod net {
    pub use rjms_net::*;
}

/// Model-driven admission control: λ_max inversion and priority-class
/// token buckets (re-export of [`rjms_flow`]).
pub mod flow {
    pub use rjms_flow::*;
}

/// Low-overhead instruments: counters, histograms, the TSC clock
/// (re-export of [`rjms_metrics`]).
pub mod metrics {
    pub use rjms_metrics::*;
}

/// The tail-sampled flight recorder for per-message span chains
/// (re-export of [`rjms_trace`]).
pub mod trace {
    pub use rjms_trace::*;
}

/// The waiting-time SLO engine: metric history, burn-rate alerting, and
/// evidence-bearing alert records (re-export of [`rjms_obs`]).
pub mod obs {
    pub use rjms_obs::*;
}

pub mod http;
pub mod settings;
