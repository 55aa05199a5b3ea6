//! The Eq. 1 stage decomposition adds up, whatever the subscription's mode:
//! with every message sampled, the four `broker.stage.*_ns` means sum to the
//! `broker.service_ns` mean, and the `t_tx` the cost model burns per copy is
//! booked to the fan-out stage — for a durable subscription (whose spin sat
//! outside every stage until it became a row of the one scan) as for a plain
//! one.

use rjms_broker::{Broker, BrokerConfig, Message, MetricsConfig};
use rjms_core::CostParams;
use std::time::Duration;

const T_TX: f64 = 200e-6;
const MESSAGES: usize = 50;

/// Mean nanoseconds of the four stages and of the service time after
/// `MESSAGES` messages to one connected consumer.
fn stage_and_service_means(durable: bool) -> ([f64; 4], f64) {
    let config = BrokerConfig::builder()
        .cost_model(CostParams::new(0.0, 0.0, T_TX))
        .metrics(MetricsConfig::default().stage_sample_every(1))
        .build();
    let broker = Broker::start(config);
    broker.create_topic("t").unwrap();
    let subscription = broker.subscription("t");
    let consumer = if durable { subscription.durable("d") } else { subscription }.open().unwrap();
    let publisher = broker.publisher("t").unwrap();
    for _ in 0..MESSAGES {
        publisher.publish(Message::builder().build()).unwrap();
        consumer.receive_timeout(Duration::from_secs(5)).expect("delivered");
    }
    let registry = broker.metrics().expect("metrics on");
    // Shutdown runs the dispatcher's final flush.
    broker.shutdown();

    let snapshot = registry.snapshot();
    let mean = |name: &str| {
        let histogram = snapshot.histogram(name).unwrap_or_else(|| panic!("no {name}"));
        assert_eq!(histogram.count, MESSAGES as u64, "{name}");
        histogram.mean()
    };
    let stages =
        ["rcv", "journal", "filter", "fanout"].map(|s| mean(&format!("broker.stage.{s}_ns")));
    (stages, mean("broker.service_ns"))
}

fn assert_the_stages_add_up(durable: bool) {
    let (stages, service) = stage_and_service_means(durable);
    let [.., fanout] = stages;
    assert!(fanout >= T_TX * 1e9, "fan-out stage {fanout:.0} ns misses t_tx: {stages:?}");
    let sum: f64 = stages.iter().sum();
    assert!(
        (sum / service - 1.0).abs() <= 0.1,
        "stages {stages:?} sum to {sum:.0} ns, service time is {service:.0} ns"
    );
}

#[test]
fn a_plain_subscribers_stages_sum_to_its_service_time() {
    assert_the_stages_add_up(false);
}

#[test]
fn a_durable_subscribers_stages_sum_to_its_service_time() {
    assert_the_stages_add_up(true);
}
