//! Per-topic workload observatory integration tests: the online Eq. 1
//! regressor and the shard-skew measurement against a real broker.
//!
//! Three promises:
//!
//! 1. **Regressor convergence** — on a two-population workload (two topics
//!    with different filter counts and varying realized replication) under
//!    burned Table-I-style costs, each topic's fitted `(t_fltr, t_tx)`
//!    lands within 10% of the configured constants, and the pooled global
//!    fit (where `n_fltr` varies across topics) does too.
//! 2. **Skew measurement** — with topics pinned so one shard carries
//!    most of the offered load, the observatory flags skew and reports
//!    that shard's share of the arrivals.
//! 3. **Cardinality cap** — topics beyond the first `PER_TOPIC_SERIES`
//!    (64) collapse into
//!    the `__other__` row and are counted in `overflowed_topics` (and in
//!    the snapshot's `topics_overflowed`).

use rjms::broker::{
    shard_of, Broker, BrokerConfig, Filter, Message, TopicObsConfig, TopicObservatorySnapshot,
    OTHER_TOPIC, PER_TOPIC_SERIES,
};
use rjms::model::params::CostParams;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the tests in this file: each spins a broker that burns
/// real CPU, and on small hosts two concurrent brokers add enough
/// timing noise to blur the regression the first test asserts on.
static SERIAL: Mutex<()> = Mutex::new(());

/// Polls the observatory until `done(snapshot)` holds (the scratch
/// buffers flush on dispatcher idle, so the table trails the counters by
/// a few milliseconds).
fn wait_observatory(
    broker: &Broker,
    done: impl Fn(&TopicObservatorySnapshot) -> bool,
) -> TopicObservatorySnapshot {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = broker.topic_observatory().expect("observatory enabled");
        if done(&snap) {
            return snap;
        }
        assert!(Instant::now() < deadline, "observatory never converged: {snap:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Promise 1: the per-topic regressor recovers the configured cost
/// constants from the live dispatch stream.
///
/// Topic `wide` carries 16 selector subscriptions, topic `narrow` 8, so
/// `n_fltr` is 16 and 8 respectively. Each subscription `i` selects
/// `lvl >= i` and messages cycle `lvl` through `1..=n`, so the realized
/// replication `R = lvl` *varies within each topic* — with constant
/// `n_fltr` that variation is exactly what makes `(t_fltr, t_tx)`
/// identifiable (the fixed-receive mode), and across the two topics
/// `n_fltr` varies too, making the pooled 3-parameter fit identifiable.
#[test]
fn regressor_converges_on_two_population_workload() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Costs are large enough that unburned dispatch machinery (worst in
    // debug builds: interpreted selector evaluation, scheduler jitter)
    // stays small against the burned signal the regressor must recover.
    const T_RCV: f64 = 200e-6;
    const T_FLTR: f64 = 200e-6;
    const T_TX: f64 = 300e-6;
    const MSGS: u64 = 400;

    let broker = Broker::start(
        BrokerConfig::builder()
            .cost_model(CostParams::new(T_RCV, T_FLTR, T_TX))
            .topic_obs(TopicObsConfig::default())
            .subscriber_queue_capacity(1 << 10)
            .build(),
    );
    // The fixed-receive fit recovers `t_fltr` as intercept / n_fltr, so
    // per-message timing jitter lands on it divided by n — larger filter
    // counts keep the estimate stable on slow single-core hosts.
    let populations: [(&str, u32); 2] = [("wide", 16), ("narrow", 8)];
    let mut subscribers = Vec::new();
    for (topic, filters) in populations {
        broker.create_topic(topic).unwrap();
        for i in 1..=filters {
            subscribers.push(
                broker
                    .subscription(topic)
                    .filter(Filter::selector(&format!("lvl >= {i}")).unwrap())
                    .open()
                    .unwrap(),
            );
        }
        let publisher = broker.publisher(topic).unwrap();
        for m in 0..MSGS {
            let lvl = (m % u64::from(filters)) as i64 + 1;
            publisher.publish(Message::builder().property("lvl", lvl).build()).unwrap();
        }
    }

    let snap = wait_observatory(&broker, |s| {
        s.topics.len() == 2 && s.topics.iter().all(|t| t.messages >= MSGS)
    });

    let anchor = snap.anchor.expect("cost model anchors the verdicts");
    assert!((anchor.t_fltr - T_FLTR).abs() < 1e-12);

    for (topic, filters) in populations {
        let row = snap.topics.iter().find(|t| t.name == topic).unwrap();
        assert_eq!(row.shard, shard_of(topic, 1));
        assert!(
            (row.mean_filters - f64::from(filters)).abs() < 1e-9,
            "{topic}: n_fltr {} != {filters}",
            row.mean_filters
        );
        // Mean replication over lvl cycling 1..=n is (n + 1) / 2.
        let expected_r = (f64::from(filters) + 1.0) / 2.0;
        assert!(
            (row.mean_replication - expected_r).abs() < 1e-9,
            "{topic}: E[R] {} != {expected_r}",
            row.mean_replication
        );
        let fitted = row.fitted.as_ref().unwrap_or_else(|| panic!("{topic}: no fit"));
        let err_fltr = (fitted.params.t_fltr - T_FLTR).abs() / T_FLTR;
        let err_tx = (fitted.params.t_tx - T_TX).abs() / T_TX;
        eprintln!(
            "{topic}: mode {} t_fltr {:.2}us ({:+.1}%) t_tx {:.2}us ({:+.1}%) r2 {:.4}",
            fitted.mode,
            fitted.params.t_fltr * 1e6,
            err_fltr * 1e2,
            fitted.params.t_tx * 1e6,
            err_tx * 1e2,
            fitted.r_squared,
        );
        assert!(err_fltr < 0.10, "{topic}: t_fltr off by {:.1}%", err_fltr * 1e2);
        assert!(err_tx < 0.10, "{topic}: t_tx off by {:.1}%", err_tx * 1e2);
        let verdict = row.verdict.as_ref().expect("anchor present");
        assert_eq!(verdict.kind(), "stable", "{topic}: {verdict:?}");
    }

    // The pooled fit sees n_fltr ∈ {8, 16}: the full design is identifiable.
    let global = snap.global_fitted.as_ref().expect("pooled fit");
    assert!((global.params.t_fltr - T_FLTR).abs() / T_FLTR < 0.10, "global t_fltr");
    assert!((global.params.t_tx - T_TX).abs() / T_TX < 0.10, "global t_tx");
    broker.shutdown();
}

/// Finds `count` distinct topic names hashing onto `shard` (FNV-1a
/// placement, same hash the dispatcher uses).
fn topics_on_shard(shard: usize, shards: usize, count: usize) -> Vec<String> {
    let mut names = Vec::new();
    for trial in 0.. {
        let name = format!("load-{trial}");
        if shard_of(&name, shards) == shard {
            names.push(name);
            if names.len() == count {
                return names;
            }
        }
    }
    unreachable!()
}

/// Promise 2: skew is flagged, with the hot shard's arrival share.
///
/// Four shards; shard 0 carries eight equally hot topics (150 messages
/// each) while shards 1–3 carry one light 40-message topic each. Every
/// message burns the same configured service time, so offered load is
/// proportional to message count and shard 0 starts at ≈ 3.6× the mean —
/// far over the 1.25 flag. Every row's rate has the snapshot's one
/// denominator, so shard 0's arrival share is its count share, 1200/1320.
#[test]
fn a_skewed_placement_is_flagged() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const SHARDS: usize = 4;
    const HOT_TOPICS: usize = 8;
    const HOT_COUNT: u64 = 150;
    const COLD_COUNT: u64 = 40;

    let broker = Broker::start(
        BrokerConfig::builder()
            .shards(SHARDS)
            .cost_model(CostParams::new(100e-6, 50e-6, 100e-6))
            .topic_obs(TopicObsConfig::default())
            .subscriber_queue_capacity(1 << 10)
            .build(),
    );
    let mut plan: Vec<(String, u64)> =
        topics_on_shard(0, SHARDS, HOT_TOPICS).into_iter().map(|t| (t, HOT_COUNT)).collect();
    for shard in 1..SHARDS {
        plan.push((topics_on_shard(shard, SHARDS, 1).remove(0), COLD_COUNT));
    }
    let mut subscribers = Vec::new();
    for (topic, count) in &plan {
        broker.create_topic(topic).unwrap();
        subscribers.push(broker.subscription(topic).open().unwrap());
        let publisher = broker.publisher(topic).unwrap();
        for _ in 0..*count {
            publisher.publish(Message::builder().build()).unwrap();
        }
    }

    let total: u64 = plan.iter().map(|(_, c)| c).sum();
    let snap =
        wait_observatory(&broker, |s| s.topics.iter().map(|t| t.messages).sum::<u64>() >= total);
    assert_eq!(snap.shards, SHARDS);

    let skew = snap.skew();
    eprintln!("skew: ratio {:.2}", skew.max_mean_ratio);
    assert!(skew.skewed, "shard 0 at ~3.6x mean must be flagged, got {:.2}", skew.max_mean_ratio);
    let hot = (HOT_TOPICS as u64 * HOT_COUNT) as f64 / total as f64;
    let share = skew.shares[0].arrival_share;
    assert!((share - hot).abs() < 1e-9, "shard 0's arrival share {share}, expected {hot}");
    broker.shutdown();
}

/// Promise 3: the cardinality cap bounds the table; spill lands in
/// `__other__` and is counted in both the observatory snapshot and the
/// broker snapshot's `topics_overflowed`.
#[test]
fn per_topic_cap_overflows_into_other() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let broker =
        Broker::start(BrokerConfig::builder().topic_obs(TopicObsConfig::default()).build());
    // Idle topics take all but two of the accounts and show no row.
    for i in 2..PER_TOPIC_SERIES {
        broker.create_topic(&format!("idle-{i}")).unwrap();
    }
    let mut subscribers = Vec::new();
    for i in 0..4 {
        let topic = format!("t{i}");
        broker.create_topic(&topic).unwrap();
        subscribers.push(broker.subscription(&topic).open().unwrap());
        let publisher = broker.publisher(&topic).unwrap();
        for _ in 0..8 {
            publisher.publish(Message::builder().build()).unwrap();
        }
    }

    let snap =
        wait_observatory(&broker, |s| s.topics.iter().map(|t| t.messages).sum::<u64>() >= 32);
    assert_eq!(snap.overflowed_topics, 2, "two of four topics must spill, got {snap:?}");
    let other = snap.topics.iter().find(|t| t.name == OTHER_TOPIC).expect("spill bucket");
    assert_eq!(other.messages, 16, "the two spilled topics' messages pool in __other__");
    let named = snap.topics.iter().filter(|t| t.name != OTHER_TOPIC).count();
    assert_eq!(named, 2, "cap bounds the named rows");
    assert_eq!(broker.snapshot().topics_overflowed, snap.overflowed_topics);
    broker.shutdown();
}
