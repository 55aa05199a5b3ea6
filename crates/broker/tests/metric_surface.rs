//! Pins the broker's metric surface: the sorted `name kind` list of every
//! series in the registry with metrics, tracing, the topic observatory,
//! flow control and persistence all on, for the single-dispatcher broker
//! and for two shards. Dashboards and the obs engine address series by
//! name, so a refactor of the dispatch path must leave this list alone.

use rjms_broker::{
    shard_of, Broker, BrokerConfig, FlowConfig, Message, MetricsConfig, PersistenceConfig,
    TopicObsConfig, TraceConfig,
};
use rjms_journal::scratch_dir;

/// Three topic names, chosen so that with two shards both shards own one.
const TOPICS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Runs a fixed workload and returns the registry's `name kind` lines.
///
/// Two labeled topic series plus an observatory table of two rows against
/// three topics force both `__other__` paths, so the lazily created
/// overflow series are part of the surface too. The series cap is the
/// broker's, not a dispatcher's: both surfaces name the same topic series.
fn surface(shards: usize) -> Vec<String> {
    let dir = scratch_dir(&format!("bkr-surface-{shards}"));
    let broker = Broker::start(
        BrokerConfig::builder()
            .shards(shards)
            .metrics(MetricsConfig::default().per_topic_series(2))
            .trace(TraceConfig::default())
            .topic_obs(TopicObsConfig::default().per_topic_cap(2))
            .flow(FlowConfig::default())
            .persistence(PersistenceConfig::new(&dir))
            .build(),
    );
    let registry = broker.metrics().expect("metrics on");
    let mut subscribers = Vec::new();
    for topic in TOPICS {
        broker.create_topic(topic).unwrap();
        subscribers.push(broker.subscription(topic).open().unwrap());
        let publisher = broker.publisher(topic).unwrap();
        for _ in 0..2 {
            publisher.publish(Message::builder().build()).unwrap();
        }
    }
    // Shutdown drains every queue and runs each dispatcher's final flush.
    broker.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let snap = registry.snapshot();
    let mut lines: Vec<String> = Vec::new();
    lines.extend(snap.counters.keys().map(|name| format!("{name} counter")));
    lines.extend(snap.gauges.keys().map(|name| format!("{name} gauge")));
    lines.extend(snap.histograms.keys().map(|name| format!("{name} histogram")));
    lines.sort();
    lines
}

const SINGLE_DISPATCHER: &str = r#"
broker.backlog histogram
broker.in_flight gauge
broker.queue_depth gauge
broker.service_ns histogram
broker.sojourn_ns histogram
broker.stage.fanout_ns histogram
broker.stage.filter_ns histogram
broker.stage.journal_ns histogram
broker.stage.rcv_ns histogram
broker.topic.dispatched{topic="__other__"} counter
broker.topic.dispatched{topic="alpha"} counter
broker.topic.dispatched{topic="beta"} counter
broker.topic.received{topic="__other__"} counter
broker.topic.received{topic="alpha"} counter
broker.topic.received{topic="beta"} counter
broker.topics_overflowed counter
broker.waiting_ns histogram
flow.decision_ns{class="0"} histogram
flow.decision_ns{class="1"} histogram
flow.decision_ns{class="2"} histogram
flow.deferred counter
flow.deferred{class="0"} counter
flow.deferred{class="1"} counter
flow.deferred{class="2"} counter
flow.granted counter
flow.granted{class="0"} counter
flow.granted{class="1"} counter
flow.granted{class="2"} counter
flow.shed counter
flow.shed{class="0"} counter
flow.shed{class="1"} counter
flow.shed{class="2"} counter
journal.append_ns histogram
journal.fsync_ns histogram
trace.chains.tail counter
trace.chains.uniform counter
"#;

const TWO_SHARDS: &str = r#"
broker.backlog histogram
broker.backlog{shard="0"} histogram
broker.backlog{shard="1"} histogram
broker.in_flight gauge
broker.in_flight{shard="0"} gauge
broker.in_flight{shard="1"} gauge
broker.queue_depth gauge
broker.queue_depth{shard="0"} gauge
broker.queue_depth{shard="1"} gauge
broker.service_ns histogram
broker.service_ns{shard="0"} histogram
broker.service_ns{shard="1"} histogram
broker.sojourn_ns histogram
broker.sojourn_ns{shard="0"} histogram
broker.sojourn_ns{shard="1"} histogram
broker.stage.fanout_ns histogram
broker.stage.filter_ns histogram
broker.stage.journal_ns histogram
broker.stage.rcv_ns histogram
broker.topic.dispatched{topic="__other__"} counter
broker.topic.dispatched{topic="alpha"} counter
broker.topic.dispatched{topic="beta"} counter
broker.topic.received{topic="__other__"} counter
broker.topic.received{topic="alpha"} counter
broker.topic.received{topic="beta"} counter
broker.topics_overflowed counter
broker.waiting_ns histogram
broker.waiting_ns{shard="0"} histogram
broker.waiting_ns{shard="1"} histogram
flow.decision_ns{class="0"} histogram
flow.decision_ns{class="1"} histogram
flow.decision_ns{class="2"} histogram
flow.deferred counter
flow.deferred{class="0"} counter
flow.deferred{class="1"} counter
flow.deferred{class="2"} counter
flow.granted counter
flow.granted{class="0"} counter
flow.granted{class="1"} counter
flow.granted{class="2"} counter
flow.shed counter
flow.shed{class="0"} counter
flow.shed{class="1"} counter
flow.shed{class="2"} counter
journal.append_ns histogram
journal.fsync_ns histogram
trace.chains.tail counter
trace.chains.uniform counter
"#;

fn assert_surface(shards: usize, golden: &str) {
    let actual = surface(shards).join("\n");
    assert_eq!(actual, golden.trim(), "metric surface changed; actual list:\n{actual}\n");
}

#[test]
fn both_shards_own_a_topic() {
    let owners: Vec<usize> = TOPICS.iter().map(|t| shard_of(t, 2)).collect();
    assert!(owners.contains(&0) && owners.contains(&1), "{owners:?}");
}

#[test]
fn single_dispatcher_surface() {
    assert_surface(1, SINGLE_DISPATCHER);
}

#[test]
fn two_shard_surface() {
    assert_surface(2, TWO_SHARDS);
}

/// The series cap bounds the registry whatever the shard count: of eight
/// topics on four shards, the first two created get a pair of their own and
/// the other six share `__other__`, each counted as overflowed once.
#[test]
fn the_series_cap_is_broker_wide() {
    let broker = Broker::start(
        BrokerConfig::builder()
            .shards(4)
            .metrics(MetricsConfig::default().per_topic_series(2))
            .build(),
    );
    let registry = broker.metrics().expect("metrics on");
    let topics: Vec<String> = (0..8).map(|i| format!("t{i}")).collect();
    for (i, topic) in topics.iter().enumerate() {
        broker.create_topic(topic).unwrap();
        let publisher = broker.publisher(topic).unwrap();
        for _ in 0..=i {
            publisher.publish(Message::builder().build()).unwrap();
        }
    }
    let overflowed = broker.snapshot().topics_overflowed;
    broker.shutdown();

    let counters = registry.snapshot().counters;
    let received: Vec<(&str, u64)> = counters
        .iter()
        .filter_map(|(name, v)| Some((name.strip_prefix("broker.topic.received")?, *v)))
        .collect();
    // t0 and t1 saw 1 and 2 messages, t2..t7 saw 3 + 4 + … + 8 = 33.
    let expected = [(r#"{topic="__other__"}"#, 33), (r#"{topic="t0"}"#, 1), (r#"{topic="t1"}"#, 2)];
    assert_eq!(received, expected);
    assert_eq!(counters.keys().filter(|k| k.starts_with("broker.topic.dispatched")).count(), 3);
    assert_eq!((overflowed, counters["broker.topics_overflowed"]), (6, 6));
}
