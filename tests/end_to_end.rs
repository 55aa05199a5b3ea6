//! Cross-crate integration tests: the real broker, the selector language,
//! the cost model and the analytic model working together.

use rjms::broker::{Broker, BrokerConfig, Filter, Message, ThroughputProbe};
use rjms::model::calibrate::{fit_cost_params_fixed_rcv, Observation};
use rjms::model::model::ServerModel;
use rjms::model::params::CostParams;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The full pub/sub path with every filter type at once.
#[test]
fn mixed_filter_types_route_correctly() {
    let broker = Broker::start(BrokerConfig::default());
    broker.create_topic("events").unwrap();

    let by_selector = broker
        .subscription("events")
        .filter(Filter::selector("kind = 'alert' AND level >= 3").unwrap())
        .open()
        .unwrap();
    let by_corr = broker
        .subscription("events")
        .filter(Filter::correlation_id("[100;199]").unwrap())
        .open()
        .unwrap();
    let all = broker.subscription("events").open().unwrap();

    let publisher = broker.publisher("events").unwrap();
    // Matches selector only.
    publisher
        .publish(
            Message::builder()
                .correlation_id("#999")
                .property("kind", "alert")
                .property("level", 5i64)
                .build(),
        )
        .unwrap();
    // Matches correlation range only.
    publisher
        .publish(Message::builder().correlation_id("#150").property("kind", "info").build())
        .unwrap();
    // Matches neither.
    publisher.publish(Message::builder().build()).unwrap();

    let m = by_selector.receive_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!(m.correlation_id(), Some("#999"));
    assert!(by_selector.receive_timeout(Duration::from_millis(50)).is_none());

    let m = by_corr.receive_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!(m.correlation_id(), Some("#150"));
    assert!(by_corr.receive_timeout(Duration::from_millis(50)).is_none());

    for _ in 0..3 {
        assert!(all.receive_timeout(Duration::from_secs(2)).is_some());
    }

    broker.shutdown();
}

/// No message is lost or duplicated on the broker under concurrent load
/// (the persistent non-durable guarantee within a session).
#[test]
fn no_loss_no_duplication_under_load() {
    let broker = Broker::start(BrokerConfig::builder().subscriber_queue_capacity(1 << 15).build());
    broker.create_topic("t").unwrap();
    let sub = broker.subscription("t").open().unwrap();

    let publishers: Vec<_> = (0..4)
        .map(|p| {
            let publisher = broker.publisher("t").unwrap();
            std::thread::spawn(move || {
                for i in 0..500i64 {
                    publisher
                        .publish(
                            Message::builder()
                                .property("publisher", p as i64)
                                .property("seq", i)
                                .build(),
                        )
                        .unwrap();
                }
            })
        })
        .collect();
    for h in publishers {
        h.join().unwrap();
    }

    let mut seen = std::collections::HashSet::new();
    for _ in 0..2000 {
        let m = sub.receive_timeout(Duration::from_secs(5)).expect("all delivered");
        let p = match m.property("publisher") {
            Some(rjms::selector::Value::Int(v)) => *v,
            other => panic!("bad publisher property {other:?}"),
        };
        let s = match m.property("seq") {
            Some(rjms::selector::Value::Int(v)) => *v,
            other => panic!("bad seq property {other:?}"),
        };
        assert!(seen.insert((p, s)), "duplicate delivery of ({p}, {s})");
    }
    assert!(sub.receive_timeout(Duration::from_millis(100)).is_none(), "extra message");
    let messages = broker.snapshot().messages;
    assert_eq!(messages.received, 2000);
    assert_eq!(messages.dispatched, 2000);
    broker.shutdown();
}

/// Saturated wall-clock throughput of the cost-model broker follows Eq. 1
/// after fitting the broker's own constants (the paper's methodology).
#[test]
fn saturated_broker_follows_linear_cost_model() {
    fn measure(n_fltr: u32, replication: u32) -> f64 {
        // Inflated costs so native overhead is negligible and windows stay
        // short.
        let cost = CostParams::new(5e-6, 2e-5, 5e-5);
        let broker = Broker::start(
            BrokerConfig::builder()
                .publish_queue_capacity(32)
                .subscriber_queue_capacity(1 << 14)
                .cost_model(cost)
                .build(),
        );
        broker.create_topic("bench").unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for i in 0..n_fltr {
            let pattern = if i < replication { "#0".to_owned() } else { format!("#{}", i + 1) };
            let sub = broker
                .subscription("bench")
                .filter(Filter::correlation_id(&pattern).unwrap())
                .open()
                .unwrap();
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = sub.receive_timeout(Duration::from_millis(10));
                }
            }));
        }
        for _ in 0..3 {
            let publisher = broker.publisher("bench").unwrap();
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if publisher.publish(Message::builder().correlation_id("#0").build()).is_err() {
                        break;
                    }
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(200));
        let probe = ThroughputProbe::begin(&broker);
        std::thread::sleep(Duration::from_millis(800));
        let throughput = probe.end(&broker);
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            let _ = w.join();
        }
        broker.shutdown();
        throughput.received_per_sec
    }

    let grid = [(4u32, 1u32), (16, 1), (48, 1), (8, 4), (48, 8), (48, 16)];
    let observations: Vec<Observation> = grid
        .iter()
        .map(|&(n, r)| Observation {
            n_fltr: n,
            mean_replication: r as f64,
            received_per_sec: measure(n, r),
        })
        .collect();

    let cal = fit_cost_params_fixed_rcv(&observations, 5e-6).expect("fit succeeds");
    // Fitted slopes include native dispatch work; they must sit at or above
    // the configured spin costs. Upper bounds and fit-quality thresholds are
    // deliberately loose: this is a wall-clock measurement and the workspace
    // test suite runs it under heavy CPU contention (the release-mode
    // `broker_saturation` example demonstrates the tight fit: R² ≈ 0.998,
    // per-point error ≤ ~10%).
    assert!(cal.params.t_fltr >= 2e-5 * 0.9, "t_fltr = {}", cal.params.t_fltr);
    assert!(cal.params.t_fltr < 2e-5 * 6.0, "t_fltr = {}", cal.params.t_fltr);
    assert!(cal.params.t_tx >= 5e-5 * 0.9, "t_tx = {}", cal.params.t_tx);
    assert!(cal.params.t_tx < 5e-5 * 6.0, "t_tx = {}", cal.params.t_tx);
    assert!(cal.r_squared > 0.85, "R² = {}", cal.r_squared);

    for (obs, &(n, r)) in observations.iter().zip(&grid) {
        let predicted = ServerModel::new(cal.params, n).predict_throughput(r as f64);
        let rel = (predicted.received_per_sec - obs.received_per_sec).abs() / obs.received_per_sec;
        assert!(rel < 0.5, "n={n} r={r}: rel err {rel}");
    }

    // Sanity: spin cost constants differ from Table I only by native work.
    let _ = CostParams::CORRELATION_ID;
}
