//! # rjms-broker
//!
//! A from-scratch, threaded, JMS-style publish/subscribe message broker —
//! the open substrate standing in for the commercial FioranoMQ server that
//! Menth & Henjes measured in *Analysis of the Message Waiting Time for the
//! FioranoMQ JMS Server* (ICDCS 2006).
//!
//! The broker deliberately mirrors the cost structure the paper's model
//! (Eq. 1) captures:
//!
//! * one bounded publish queue with **push-back** onto publishers,
//! * a **single dispatcher thread** (the measured server was CPU-bound on a
//!   single CPU),
//! * **brute-force filter evaluation**: every subscription's filter is
//!   checked against every message of its topic — the paper verified that
//!   FioranoMQ performs no identical-filter optimization,
//! * one enqueue per matching subscriber (the replication grade `R`).
//!
//! An optional cost model ([`BrokerConfig::cost_model`]) burns calibrated
//! CPU per message / filter / copy so that saturated wall-clock
//! throughput reproduces the paper's measurements on modern hardware. An optional
//! [`config::MetricsConfig`] turns on live observability: the dispatcher
//! records per-message waiting/service/sojourn times (and a sampled Eq. 1
//! stage decomposition) into the lock-free histograms of `rjms-metrics`,
//! surfaced through [`Broker::metrics`].
//!
//! ## Quickstart
//!
//! ```
//! use rjms_broker::{Broker, BrokerConfig, Filter, Message};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), rjms_broker::Error> {
//! let broker = Broker::start(BrokerConfig::default());
//! broker.create_topic("stocks")?;
//!
//! let sub = broker
//!     .subscription("stocks")
//!     .filter(Filter::selector("symbol = 'ACME' AND price < 50.0").unwrap())
//!     .open()?;
//! let publisher = broker.publisher("stocks")?;
//! publisher.publish(
//!     Message::builder()
//!         .property("symbol", "ACME")
//!         .property("price", 42.0)
//!         .build(),
//! )?;
//!
//! let m = sub.receive_timeout(Duration::from_secs(1)).expect("delivered");
//! assert_eq!(m.property("symbol"), Some(&"ACME".into()));
//! assert_eq!(broker.snapshot().messages.received, 1);
//! broker.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod broker;
pub mod codec;
pub mod config;
mod dispatch;
mod durable;
pub mod error;
pub mod filter;
pub mod message;
pub mod metrics;
pub mod pattern;
pub mod persist;
mod probe;
mod reports;
pub mod stats;
mod subscriptions;
pub mod topic_obs;

pub use broker::{
    shard_of, Broker, BrokerObserver, Publisher, Subscriber, SubscriptionBuilder, SubscriptionId,
};
pub use config::{
    BrokerConfig, BrokerConfigBuilder, FlowConfig, MetricsConfig, OverflowPolicy,
    PersistenceConfig, TopicObsConfig, TraceConfig,
};
pub use dispatch::Wake;
pub use error::{Error, TryPublishError};
pub use filter::Filter;
pub use message::{Message, MessageBuilder, MessageId, Priority};
pub use pattern::TopicPattern;
pub use reports::ShardReport;
pub use rjms_flow::{AdmissionOutcome, FlowGate, FlowSnapshot};
pub use rjms_journal::{FsyncPolicy, JournalConfig, JournalStats, RecoveryReport};
pub use rjms_metrics::MetricsRegistry;
pub use stats::{
    BrokerSnapshot, BrokerStats, FlowCounters, MessageCounters, ShardSnapshot,
    SubscriptionCounters, Throughput, ThroughputProbe, TopicStats,
};
pub use topic_obs::{
    ShardShare, Skew, TopicObsRow, TopicObservatorySnapshot, FLAG_RATIO, OTHER_TOPIC,
};

/// How many topics, in creation order, get a `broker.topic.*` series pair
/// and an observatory account of their own; later ones share `__other__`.
pub const PER_TOPIC_SERIES: usize = metrics::PER_TOPIC_SERIES;
