//! # rjms-net
//!
//! A TCP wire layer for the [`rjms_broker`] publish/subscribe broker, so
//! that publishers and subscribers can run in separate processes or on
//! separate machines — like the five-machine Gbit testbed of Menth &
//! Henjes's FioranoMQ study.
//!
//! * [`wire`] — the length-prefixed binary frame format (hand-rolled on
//!   [`bytes`], round-trip property tested),
//! * [`server`] — [`server::BrokerServer`], a TCP front-end around an
//!   embedded broker,
//! * [`client`] — [`client::RemoteBroker`] / [`client::RemoteSubscriber`],
//!   the remote counterpart of the in-process API.
//!
//! Failures surface through the unified workspace [`enum@Error`]; the wire
//! layer records round-trip latency (`net.rtt_ns`, client side) and
//! per-connection write backlogs (`net.conn.<id>.queue_depth`,
//! server side) into `rjms-metrics` registries — see
//! [`client::RemoteBroker::metrics`] and [`server::BrokerServer::metrics`].
//!
//! ## Example
//!
//! ```
//! use rjms_net::server::BrokerServer;
//! use rjms_net::client::RemoteBroker;
//! use rjms_net::wire::WireFilter;
//! use rjms_broker::{BrokerConfig, Message};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = BrokerServer::start(BrokerConfig::default(), "127.0.0.1:0")?;
//! let client = RemoteBroker::connect(server.local_addr())?;
//!
//! client.create_topic("stocks")?;
//! let sub = client.subscribe("stocks", WireFilter::Selector("price < 50.0".into()))?;
//! client.publish("stocks", &Message::builder().property("price", 42.0).build())?;
//!
//! let m = sub.receive_timeout(Duration::from_secs(2)).expect("delivered over TCP");
//! assert_eq!(m.property("price"), Some(&42.0.into()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod error;
pub mod server;
pub mod wire;

pub use client::{RemoteBroker, RemoteSubscriber};
pub use error::Error;
pub use server::BrokerServer;
pub use wire::{Request, Response, WireFilter, WireMessage};
