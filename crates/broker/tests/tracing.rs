//! End-to-end tests of the broker's tail-sampled flight recorder and the
//! per-topic labeled counter export.

use rjms_broker::{Broker, BrokerConfig, Filter, Message, MetricsConfig, TraceConfig};
use rjms_trace::{group_chains, Stage, TraceChain};
use std::time::Duration;

fn chains_of(broker: &Broker) -> Vec<TraceChain> {
    let recorder = broker.tracer().expect("tracer enabled");
    group_chains(recorder.snapshot().events)
}

#[test]
fn tracing_auto_enables_metrics() {
    let broker = Broker::start(BrokerConfig::builder().trace(TraceConfig::default()).build());
    assert!(broker.metrics().is_some(), "trace implies metrics");
    assert!(broker.tracer().is_some());
    broker.shutdown();
}

#[test]
fn without_trace_config_there_is_no_recorder() {
    let broker = Broker::start(BrokerConfig::builder().metrics(MetricsConfig::default()).build());
    assert!(broker.tracer().is_none());
    broker.shutdown();
}

#[test]
fn chains_are_complete_and_monotone_for_all_published_messages() {
    // The tail threshold starts at 0 and only refreshes after
    // `refresh_every` messages, so every chain below that count is kept.
    let broker = Broker::start(BrokerConfig::builder().trace(TraceConfig::default()).build());
    broker.create_topic("t").unwrap();
    let sub = broker.subscription("t").filter(Filter::None).open().unwrap();
    let publisher = broker.publisher("t").unwrap();

    let mut trace_ids = Vec::new();
    for i in 0..100i64 {
        let message = Message::builder().property("seq", i).build();
        trace_ids.push(message.trace_id());
        publisher.publish(message).unwrap();
    }
    for _ in 0..100 {
        sub.receive_timeout(Duration::from_secs(2)).expect("delivered");
    }
    // The dispatcher commits a chain right after each fan-out, and the last
    // delivery has been received, so at most the final commit can still be
    // in flight; give it a moment.
    std::thread::sleep(Duration::from_millis(50));

    let recorder = broker.tracer().unwrap();
    let chains = chains_of(&broker);
    for id in &trace_ids {
        let chain = chains
            .iter()
            .find(|c| c.trace_id == *id)
            .unwrap_or_else(|| panic!("no chain for trace id {id}"));
        assert!(chain.is_complete(), "missing stages for {id}: {chain:?}");
        assert!(chain.timestamps_monotone(), "non-monotone chain for {id}: {chain:?}");
        // Fan-out aux carries the copy count: one subscriber matched.
        let fanout = chain.events.iter().find(|e| e.stage == Stage::Fanout).unwrap();
        assert_eq!(fanout.aux, 1);
        assert!(recorder.is_sampled(*id), "kept chain must be marked sampled");
    }

    let snap = broker.metrics().unwrap().snapshot();
    let kept: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("trace.chains."))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(kept, 100, "all chains kept while the threshold is 0");
    broker.shutdown();
}

#[test]
fn per_topic_series_are_exported_and_capped() {
    let broker = Broker::start(
        BrokerConfig::builder().metrics(MetricsConfig::default().per_topic_series(2)).build(),
    );
    for name in ["a", "b", "c", "d"] {
        broker.create_topic(name).unwrap();
    }
    // One subscriber on "a" so its dispatched counter moves too.
    let sub = broker.subscription("a").filter(Filter::None).open().unwrap();
    for name in ["a", "b", "c", "d"] {
        let publisher = broker.publisher(name).unwrap();
        publisher.publish(Message::builder().build()).unwrap();
    }
    sub.receive_timeout(Duration::from_secs(2)).expect("delivered");
    std::thread::sleep(Duration::from_millis(50));

    let snap = broker.metrics().unwrap().snapshot();
    assert_eq!(snap.counters.get("broker.topic.received{topic=\"a\"}"), Some(&1));
    assert_eq!(snap.counters.get("broker.topic.received{topic=\"b\"}"), Some(&1));
    // Topics beyond the cap collapse into one overflow series.
    assert_eq!(snap.counters.get("broker.topic.received{topic=\"__other__\"}"), Some(&2));
    assert!(!snap.counters.keys().any(|k| k.contains("topic=\"c\"")));
    assert_eq!(snap.counters.get("broker.topic.dispatched{topic=\"a\"}"), Some(&1));
    broker.shutdown();
}

#[test]
fn per_topic_export_can_be_disabled() {
    let broker = Broker::start(
        BrokerConfig::builder().metrics(MetricsConfig::default().per_topic_series(0)).build(),
    );
    broker.create_topic("t").unwrap();
    broker.publisher("t").unwrap().publish(Message::builder().build()).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let snap = broker.metrics().unwrap().snapshot();
    assert!(!snap.counters.keys().any(|k| k.starts_with("broker.topic.")));
    broker.shutdown();
}
