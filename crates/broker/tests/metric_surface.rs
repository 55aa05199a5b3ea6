//! Pins the broker's metric surface: the sorted `name kind` list of every
//! series in the registry with metrics, tracing, the topic observatory,
//! flow control and persistence all on, for the single-dispatcher broker
//! and for two shards. Dashboards and the obs engine address series by
//! name, so a refactor of the dispatch path must leave this list alone.

use rjms_broker::{
    shard_of, Broker, BrokerConfig, BrokerSnapshot, FlowConfig, Message, MetricsConfig,
    PersistenceConfig, TopicObsConfig, TraceConfig,
};
use rjms_journal::scratch_dir;
use rjms_metrics::{HistogramSnapshot, RegistrySnapshot};
use std::time::{Duration, Instant};

/// Three topic names, chosen so that with two shards both shards own one.
const TOPICS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Topics exported as a labeled series pair of their own.
const SERIES_CAP: usize = 64;

/// Topics created between `beta` and `gamma`, so that `gamma` is the first
/// beyond the series cap. Their series are two lines each, like `beta`'s,
/// and are left out of the list.
fn filler() -> impl Iterator<Item = String> {
    (2..SERIES_CAP).map(|i| format!("filler-{i}"))
}

/// Runs a fixed workload and returns the registry's `name kind` lines.
///
/// The series cap, which bounds the observatory's table too, against the
/// 65 topics forces both `__other__` paths, so the lazily created overflow
/// series are part of the surface too. The series cap is the broker's, not
/// a dispatcher's: both surfaces name the same topic series.
fn surface(shards: usize) -> Vec<String> {
    let dir = scratch_dir(&format!("bkr-surface-{shards}"));
    let broker = Broker::start(
        BrokerConfig::builder()
            .shards(shards)
            .metrics(MetricsConfig::default())
            .trace(TraceConfig::default())
            .topic_obs(TopicObsConfig::default())
            .flow(FlowConfig::default())
            .persistence(PersistenceConfig::new(&dir))
            .build(),
    );
    let registry = broker.metrics().expect("metrics on");
    let mut subscribers = Vec::new();
    for topic in TOPICS {
        if topic == "gamma" {
            filler().for_each(|name| broker.create_topic(&name).unwrap());
        }
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
    let filler: Vec<String> = filler().map(|name| format!("{{topic=\"{name}\"}}")).collect();
    let counters = snap.counters.keys().filter(|name| !filler.iter().any(|f| name.ends_with(f)));
    lines.extend(counters.map(|name| format!("{name} counter")));
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

/// Every view of a fact is the same number: the topic pairs sum to the
/// broker's totals, each flow counter is its classes' sum and the broker's
/// own, each unlabeled per-message histogram is the bucket-exact merge of
/// its shard series, and the overflowed topics are 2 everywhere.
fn assert_views_agree(registry: &RegistrySnapshot, broker: &BrokerSnapshot, shards: usize) {
    let labeled_sum = |base: &str| -> u64 {
        let prefix = format!("{base}{{");
        registry.counters.iter().filter(|(name, _)| name.starts_with(&prefix)).map(|(_, n)| n).sum()
    };
    assert_eq!(labeled_sum("broker.topic.received"), broker.messages.received);
    assert_eq!(labeled_sum("broker.topic.dispatched"), broker.messages.dispatched);
    let flow = broker.flow.expect("flow on");
    for (base, count) in
        [("flow.granted", flow.granted), ("flow.deferred", flow.deferred), ("flow.shed", flow.shed)]
    {
        assert_eq!((registry.counters[base], labeled_sum(base)), (count, count), "{base}");
    }
    for base in ["broker.waiting_ns", "broker.service_ns", "broker.sojourn_ns", "broker.backlog"] {
        let mut merged = HistogramSnapshot::default();
        for shard in 0..shards {
            merged.merge(&registry.histograms[&format!("{base}{{shard=\"{shard}\"}}")]);
        }
        assert_eq!(registry.histograms[base], merged, "{base}");
    }
    assert_eq!((broker.topics_overflowed, registry.counters["broker.topics_overflowed"]), (2, 2));
}

/// The series cap bounds the registry whatever the shard count: of 66
/// topics on four shards, the first 64 created get a pair of their own and
/// the other two share `__other__`, both counted as overflowed. The views
/// agree ([`assert_views_agree`]) on a quiescent broker and after shutdown.
#[test]
fn the_series_cap_is_broker_wide() {
    const SHARDS: usize = 4;
    // No seed: a lane grants every publish until its first refresh.
    let flow = FlowConfig::default();
    let broker = Broker::start(
        BrokerConfig::builder().shards(SHARDS).metrics(MetricsConfig::default()).flow(flow).build(),
    );
    let (registry, observer) = (broker.metrics().expect("metrics on"), broker.observer());
    let topics: Vec<String> = (0..SERIES_CAP + 2).map(|i| format!("t{i}")).collect();
    let mut subscribers = Vec::new();
    for (i, topic) in topics.iter().enumerate() {
        broker.create_topic(topic).unwrap();
        subscribers.push(broker.subscription(topic).open().unwrap());
        let publisher = broker.publisher(topic).unwrap();
        for _ in 0..=i {
            publisher.publish(Message::builder().build()).unwrap();
        }
    }
    let total: u64 = (1..=topics.len() as u64).sum();
    let deadline = Instant::now() + Duration::from_secs(10);
    while observer.snapshot().messages.dispatched < total {
        assert!(Instant::now() < deadline, "{:?}", observer.snapshot().messages);
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_views_agree(&registry.snapshot(), &observer.snapshot(), SHARDS);
    broker.shutdown();
    let final_counts = registry.snapshot();
    assert_views_agree(&final_counts, &observer.snapshot(), SHARDS);
    assert_eq!(observer.snapshot().flow.unwrap().granted, total);

    let counters = final_counts.counters;
    let received = |label: &str| counters[&format!("broker.topic.received{{topic=\"{label}\"}}")];
    // t0..t63 saw 1..64 messages, t64 and t65 saw 65 + 66 = 131.
    for (i, topic) in topics[..SERIES_CAP].iter().enumerate() {
        assert_eq!(received(topic), i as u64 + 1, "{topic}");
    }
    assert_eq!(received("__other__"), 131);
    let series = |base| counters.keys().filter(|k| k.starts_with(base)).count();
    assert_eq!(series("broker.topic.received"), SERIES_CAP + 1);
    assert_eq!(series("broker.topic.dispatched"), SERIES_CAP + 1);
}
