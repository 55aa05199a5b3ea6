//! The workloads and how each one is set up. Everything here goes through
//! the public API of `rjms-broker` and `rjms-net`.

use crate::inputs::{MessageFactory, CORRELATION_ID, KEY_PROPERTY};
use rjms_broker::{
    Broker, BrokerConfig, Filter, FsyncPolicy, MetricsConfig, OverflowPolicy, PersistenceConfig,
    Publisher, Subscriber,
};
use rjms_net::{BrokerServer, RemoteBroker, RemoteSubscriber, WireFilter};
use std::path::{Path, PathBuf};

pub const TOPIC: &str = "ledger";

/// Which way messages travel between the load generator and the broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Publisher and subscribers are in-process handles.
    Inproc,
    /// In-process publisher, subscriptions on one TCP connection.
    TcpDelivery,
    /// Publisher on one TCP connection, subscriptions on another.
    TcpPubsub,
}

/// The filters installed on the topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Filters {
    /// `n` correlation-ID filters; the last `replication` are `#0`.
    CorrelationId(u32),
    /// `n` application-property selectors `key = i`; the last is `key = 0`.
    Selectors(u32),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub route: Route,
    pub filters: Filters,
    /// `R`: subscriptions every message matches.
    pub replication: u32,
    pub body_len: usize,
    /// Write-ahead journal on and the matching subscription durable.
    pub journal: bool,
    /// Open loop at this Poisson rate (msgs/s); `None` = closed loop.
    pub paced_rate: Option<f64>,
    /// One latency sample per this many messages.
    pub latency_every: u64,
    /// Listed in `BENCHMARK.json`, so a later change is held to the bounds
    /// on it. The others are diagnostics: their results hang on thread
    /// wake-ups, whose cost on this VM changes severalfold with the host's
    /// idle polling from one hour to the next (README.md has the numbers).
    pub gated: bool,
}

impl Workload {
    pub fn n_fltr(&self) -> u32 {
        match self.filters {
            Filters::CorrelationId(n) | Filters::Selectors(n) => n,
        }
    }
}

/// A closed-loop workload with 64-byte bodies and no journal.
pub const fn closed(
    name: &'static str,
    why: &'static str,
    route: Route,
    filters: Filters,
    replication: u32,
) -> Workload {
    Workload {
        name,
        why,
        route,
        filters,
        replication,
        body_len: 64,
        journal: false,
        paced_rate: None,
        latency_every: 16,
        gated: true,
    }
}

pub const WORKLOADS: [Workload; 8] = [
    closed(
        "inproc_bare",
        "closed loop, 1 correlation-ID filter, R=1: bare forwarding, so publisher admit, the two queue hops and t_rcv are the whole cost",
        Route::Inproc,
        Filters::CorrelationId(1),
        1,
    ),
    closed(
        "inproc_filter",
        "closed loop, 256 selectors key=i, R=1: the selector scan n_fltr*t_fltr is nearly all the work; a selector gain shows here and not in inproc_bare",
        Route::Inproc,
        Filters::Selectors(256),
        1,
    ),
    closed(
        "inproc_fanout",
        "closed loop, 32 matching correlation-ID filters, R=32: R*t_tx, one subscriber-queue hop and Arc clone per copy; batched fan-out shows here",
        Route::Inproc,
        Filters::CorrelationId(32),
        32,
    ),
    Workload {
        journal: true,
        ..closed(
            "inproc_journal",
            "inproc_bare plus write-ahead journal (fsync never) and a durable subscriber: encode_publish, append and checkpoints are real work here only",
            Route::Inproc,
            Filters::CorrelationId(1),
            1,
        )
    },
    Workload {
        paced_rate: Some(2_000.0),
        latency_every: 1,
        gated: false,
        ..closed(
            "inproc_paced_2k",
            "open loop, Poisson 2k msgs/s, 16 filters, R=2: the dispatcher sleeps between messages, so latency is the park/unpark of the two queue hops",
            Route::Inproc,
            Filters::CorrelationId(16),
            2,
        )
    },
    Workload {
        paced_rate: Some(200_000.0),
        latency_every: 4,
        gated: false,
        ..closed(
            "inproc_paced_200k",
            "open loop, Poisson 200k msgs/s, same shape: the dispatcher is busy a third of the time, so latency is the queue hops plus queueing and moves with E[B]",
            Route::Inproc,
            Filters::CorrelationId(16),
            2,
        )
    },
    closed(
        "tcp_delivery",
        "closed loop, in-process publisher, one TCP connection with R=4 subscriptions: forwarder, writer_loop, socket and client decode; the coalescing writer's workload",
        Route::TcpDelivery,
        Filters::CorrelationId(4),
        4,
    ),
    Workload {
        body_len: 1024,
        gated: false,
        ..closed(
            "tcp_pubsub",
            "closed on the ack, 4 synchronous TCP producers on one connection, consumer R=2 on another, 1 KiB bodies: request path plus delivery, what rjms-pub and rjms-sub users get",
            Route::TcpPubsub,
            Filters::CorrelationId(2),
            2,
        )
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Filter sources in subscription order: the non-matching ones first, so
/// the last copy of a message leaves after the whole scan.
fn filter_sources(w: &Workload) -> Vec<(bool, String)> {
    let n = w.n_fltr();
    let idle = n - w.replication;
    (0..n)
        .map(|i| {
            let hit = i >= idle;
            let source = match w.filters {
                Filters::CorrelationId(_) if hit => CORRELATION_ID.to_owned(),
                Filters::CorrelationId(_) => format!("#{}", i + 1),
                Filters::Selectors(_) if hit => format!("{KEY_PROPERTY} = 0"),
                Filters::Selectors(_) => format!("{KEY_PROPERTY} = {}", i + 1),
            };
            (hit, source)
        })
        .collect()
}

fn broker_config(w: &Workload, metrics: bool, journal_dir: &Path) -> BrokerConfig {
    let mut config = BrokerConfig::builder()
        .shards(1)
        .publish_queue_capacity(1024)
        .subscriber_queue_capacity(65_536)
        .overflow_policy(OverflowPolicy::Block);
    if w.journal {
        config = config.persistence(PersistenceConfig::new(journal_dir).journal(|j| {
            j.fsync(FsyncPolicy::Never).segment_max_bytes(16 << 20).max_sealed_segments(4)
        }));
    }
    if metrics {
        config = config.metrics(MetricsConfig::default());
    }
    config.build()
}

/// A workload set up and ready to carry messages.
pub enum Env {
    Inproc {
        broker: Broker,
        publisher: Publisher,
        /// The `R` matching subscriptions, in subscription order.
        matching: Vec<Subscriber>,
        /// Subscriptions that must stay empty.
        idle: Vec<Subscriber>,
    },
    TcpDelivery {
        server: BrokerServer,
        publisher: Publisher,
        client: RemoteBroker,
        matching: Vec<RemoteSubscriber>,
    },
    TcpPubsub {
        server: BrokerServer,
        publisher: RemoteBroker,
        consumer: RemoteBroker,
        matching: Vec<RemoteSubscriber>,
    },
}

pub struct Setup {
    pub env: Env,
    pub factory: MessageFactory,
    journal_dir: PathBuf,
}

/// Sets `w` up from nothing: inputs, broker or server, topic,
/// subscriptions, connections, journal. This is what `setup_s` times.
pub fn set_up(w: &Workload, seed: u64, metrics: bool, journal_dir: PathBuf) -> Setup {
    let factory = MessageFactory::new(seed, w.body_len);
    let config = broker_config(w, metrics, &journal_dir);
    let filters = filter_sources(w);
    let env = match w.route {
        Route::Inproc => {
            let broker = Broker::start(config);
            broker.create_topic(TOPIC).expect("fresh broker has no topic");
            let (mut matching, mut idle) = (Vec::new(), Vec::new());
            for (i, (hit, source)) in filters.iter().enumerate() {
                let filter = match w.filters {
                    Filters::CorrelationId(_) => Filter::correlation_id(source).expect("pattern"),
                    Filters::Selectors(_) => Filter::selector(source).expect("selector"),
                };
                let mut subscription = broker.subscription(TOPIC).filter(filter);
                if w.journal {
                    subscription = subscription.durable(&format!("durable-{i}"));
                }
                let subscriber = subscription.open().expect("subscription on a live topic");
                if *hit { &mut matching } else { &mut idle }.push(subscriber);
            }
            let publisher = broker.publisher(TOPIC).expect("publisher on a live topic");
            Env::Inproc { broker, publisher, matching, idle }
        }
        Route::TcpDelivery | Route::TcpPubsub => {
            let server = BrokerServer::start(config, "127.0.0.1:0").expect("loopback bind");
            server.broker().create_topic(TOPIC).expect("fresh broker has no topic");
            let consumer = RemoteBroker::connect(server.local_addr()).expect("loopback connect");
            let matching = filters
                .iter()
                .map(|(_, source)| {
                    consumer
                        .subscribe(TOPIC, WireFilter::CorrelationId(source.clone()))
                        .expect("remote subscription")
                })
                .collect();
            if w.route == Route::TcpDelivery {
                let publisher = server.broker().publisher(TOPIC).expect("publisher");
                Env::TcpDelivery { server, publisher, client: consumer, matching }
            } else {
                let publisher =
                    RemoteBroker::connect(server.local_addr()).expect("loopback connect");
                Env::TcpPubsub { server, publisher, consumer, matching }
            }
        }
    };
    Setup { env, factory, journal_dir }
}

impl Env {
    pub fn broker(&self) -> &Broker {
        match self {
            Env::Inproc { broker, .. } => broker,
            Env::TcpDelivery { server, .. } | Env::TcpPubsub { server, .. } => server.broker(),
        }
    }
}

impl Setup {
    /// Stops the broker and removes what the journal wrote.
    pub fn tear_down(self) {
        match self.env {
            Env::Inproc { broker, publisher, matching, idle } => {
                drop((publisher, matching, idle));
                broker.shutdown();
            }
            Env::TcpDelivery { server, publisher, client, matching } => {
                drop((publisher, matching, client));
                server.shutdown();
            }
            Env::TcpPubsub { server, publisher, consumer, matching } => {
                drop((matching, consumer, publisher));
                server.shutdown();
            }
        }
        let _ = std::fs::remove_dir_all(&self.journal_dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_shapes_consistent() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name), "{} repeats", w.name);
            assert!(w.replication >= 1 && w.replication <= w.n_fltr(), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            let filters = filter_sources(w);
            assert_eq!(filters.len() as u32, w.n_fltr());
            assert_eq!(filters.iter().filter(|(hit, _)| *hit).count() as u32, w.replication);
            assert!(filters.last().unwrap().0, "the last filter matches");
        }
    }
}
