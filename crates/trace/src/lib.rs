//! # rjms-trace
//!
//! A per-message **flight recorder** for the rjms broker: a fixed-capacity,
//! constant-memory, lock-free ring buffer of [`SpanEvent`]s, each stamping
//! one stage of a message's Eq. 1 pipeline (receive → journal append →
//! filter scan → fan-out → wire flush) with the instrumentation clock.
//!
//! The paper this workspace reproduces (Menth & Henjes, ICDCS 2006) reports
//! waiting-time *quantiles* — 99% and 99.99% — and tail behaviour is exactly
//! where aggregate histograms mislead. This crate supplies the per-message
//! evidence: the broker's dispatcher stages span events locally while a
//! message is in flight and commits the whole chain only once the sojourn
//! time is known, keeping **tail-sampled** chains (sojourn above a live
//! quantile threshold) plus a small uniform sample for baseline. Readers
//! ([`FlightRecorder::snapshot`]) reconstruct [`TraceChain`]s by grouping
//! events on their trace id.
//!
//! The recorder is deliberately broker-agnostic: it stores opaque tick
//! timestamps (the caller passes the tick→nanosecond scale at render time)
//! and knows nothing about topics or subscribers. Writers never block,
//! never allocate, and never wait for readers; a full ring overwrites the
//! oldest events, so memory stays constant no matter how long the broker
//! runs.
//!
//! ## Quickstart
//!
//! ```
//! use rjms_trace::{FlightRecorder, SpanEvent, Stage, group_chains};
//!
//! let recorder = FlightRecorder::new(1024);
//! for stage in [Stage::Receive, Stage::Journal, Stage::Filter, Stage::Fanout] {
//!     recorder.record(SpanEvent {
//!         trace_id: 7,
//!         stage,
//!         start_ticks: 1000,
//!         duration_ns: 250,
//!         aux: 0,
//!     });
//! }
//! let snap = recorder.snapshot();
//! let chains = group_chains(snap.events);
//! assert_eq!(chains.len(), 1);
//! assert!(chains[0].is_complete());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chain;
pub mod recorder;

pub use chain::{group_chains, TraceChain};
pub use recorder::{FlightRecorder, RecorderSnapshot, SpanEvent, Stage};
