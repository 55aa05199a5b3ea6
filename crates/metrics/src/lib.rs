//! # rjms-metrics
//!
//! The live observability substrate of the rjms workspace: lock-free
//! [`Counter`]s and [`Gauge`]s, constant-memory log-linear latency
//! [`Histogram`]s with p50/p99/p99.99 quantiles, and a [`MetricsRegistry`]
//! that snapshots every registered instrument into a serializable,
//! text- and JSON-renderable [`RegistrySnapshot`].
//!
//! The design targets the broker's dispatch hot path: recording a latency
//! sample is one bucket-index computation plus a handful of relaxed atomic
//! adds — no locks, no allocation, no floating point. Histograms are
//! *mergeable* (same geometry everywhere), so per-shard or per-connection
//! instruments can be combined into fleet-wide views.
//!
//! The paper this workspace reproduces (Menth & Henjes, ICDCS 2006)
//! predicts the broker's waiting time `W` from the Eq. 1 cost model; this
//! crate supplies the *measured* side of that comparison, feeding
//! `rjms_core`'s `ModelMonitor` with live waiting-time and service-time
//! distributions.
//!
//! ## Quickstart
//!
//! ```
//! use rjms_metrics::{Histogram, MetricsRegistry};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let registry = MetricsRegistry::new();
//! let latency: Arc<Histogram> = registry.histogram("dispatch.waiting_ns");
//! latency.record_duration(Duration::from_micros(250));
//! latency.record_duration(Duration::from_micros(900));
//!
//! let snap = registry.snapshot();
//! println!("{}", snap.render_text());
//! println!("{}", snap.to_json());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod counter;
pub mod histogram;
pub mod json;
pub mod prometheus;
pub mod registry;

pub use counter::{Counter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot, LocalHistogram};
pub use json::JsonWriter;
pub use prometheus::{labeled, shard_series};
pub use registry::{MetricsRegistry, RegistrySnapshot};
