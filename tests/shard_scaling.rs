//! Sharded-dispatch integration tests: the N-shard broker against the
//! single-dispatcher baseline and against the paper's cluster model.
//!
//! Four promises, in increasing order of strength:
//!
//! 1. **Back-compat** — `shards = 1` (the default) behaves exactly like
//!    the pre-shard broker: no `shards` field in the snapshot, identical
//!    counter semantics.
//! 2. **Partitioning** — at `shards = 4` every topic lands on exactly one
//!    dispatcher (`shard_of`), per-shard counters are disjoint, and their
//!    sum equals the aggregate, under Table-I correlation-ID costs.
//! 3. **Model agreement** — each shard is one M/GI/1 server: with
//!    Poisson arrivals split across shards, the measured per-shard mean
//!    waiting time matches [`ClusterScenario::waiting_time`] (the
//!    paper's announced-future-work cluster model with topic-sharded
//!    ingress, `per_broker_rate = λ/k`) within 10%.
//! 4. **Scaling** — saturated throughput grows with the shard count.
//!
//! Tests 3 and 4 are timing tests: they need real parallelism (one core
//! per spinning dispatcher plus a publisher) and degrade to weak sanity
//! checks when `available_parallelism` is too small for the measurement
//! to mean anything — the hard CI gate lives in the
//! `ext_shard_scaling` benchmark.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rjms::broker::{shard_of, Broker, BrokerConfig, Message, MetricsConfig, OverflowPolicy};
use rjms::desim::random::sample_exponential;
use rjms::model::params::CostParams;
use rjms::model::ClusterScenario;
use std::time::{Duration, Instant};

/// One topic name per shard, found by trial against the stable hash.
fn topic_per_shard(shards: usize) -> Vec<String> {
    let mut names = vec![None; shards];
    let mut found = 0;
    for trial in 0.. {
        let name = format!("orders-{trial}");
        let shard = shard_of(&name, shards);
        if names[shard].is_none() {
            names[shard] = Some(name);
            found += 1;
            if found == shards {
                break;
            }
        }
    }
    names.into_iter().map(Option::unwrap).collect()
}

fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Polls until the broker has received `expected` messages.
fn wait_received(broker: &Broker, expected: u64) {
    for _ in 0..2_000 {
        if broker.snapshot().messages.received >= expected {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("broker never received {expected} messages");
}

/// Promise 1: the default configuration is the old single-dispatcher
/// broker — one shard, no per-shard section in the snapshot.
#[test]
fn single_dispatcher_snapshot_is_backward_compatible() {
    let broker = Broker::start(BrokerConfig::default());
    assert_eq!(shard_of("any-topic", 1), 0, "one shard means shard 0");
    broker.create_topic("events").unwrap();
    let publisher = broker.publisher("events").unwrap();
    let sub = broker.subscription("events").open().unwrap();
    for _ in 0..5 {
        publisher.publish(Message::builder().build()).unwrap();
    }
    for _ in 0..5 {
        assert!(sub.receive_timeout(Duration::from_secs(5)).is_some());
    }
    // The dispatcher counts a copy after it has delivered it, so the fifth
    // receive can return before the fifth count: poll for it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while broker.snapshot().messages.dispatched < 5 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let snap = broker.snapshot();
    assert!(snap.shards.is_none(), "shards=1 must not grow a shards section");
    assert_eq!(snap.messages.received, 5);
    assert_eq!(snap.messages.dispatched, 5);
    broker.shutdown();
}

/// Promise 2: four shards partition the topics, per-shard counters are
/// disjoint and sum to the aggregate, and delivery still works per topic
/// under Table-I correlation-ID costs.
#[test]
fn four_shards_partition_topics_and_preserve_totals() {
    const SHARDS: usize = 4;
    let broker = Broker::start(
        BrokerConfig::builder()
            .shards(SHARDS)
            .cost_model(CostParams::CORRELATION_ID)
            .subscriber_queue_capacity(256)
            .build(),
    );
    let topics = topic_per_shard(SHARDS);
    let mut subs = Vec::new();
    let mut total = 0u64;
    for (shard, topic) in topics.iter().enumerate() {
        broker.create_topic(topic).unwrap();
        subs.push(broker.subscription(topic).open().unwrap());
        let publisher = broker.publisher(topic).unwrap();
        // Distinct per-shard counts so a routing mistake is visible.
        let count = (shard as u64 + 1) * 10;
        for _ in 0..count {
            publisher.publish(Message::builder().build()).unwrap();
        }
        total += count;
    }
    wait_received(&broker, total);

    let snap = broker.snapshot();
    let shards = snap.shards.expect("shards=4 exposes per-shard counters");
    assert_eq!(shards.len(), SHARDS);
    for (shard, s) in shards.iter().enumerate() {
        assert_eq!(s.shard, shard);
        assert_eq!(s.topics, 1, "one trial topic per shard");
        assert_eq!(s.received, (shard as u64 + 1) * 10, "shard {shard} received");
    }
    let per_shard_sum: u64 = shards.iter().map(|s| s.received).sum();
    assert_eq!(per_shard_sum, snap.messages.received, "shard counters sum to aggregate");
    for (shard, sub) in subs.iter().enumerate() {
        let mut drained = 0;
        while sub.receive_timeout(Duration::from_millis(200)).is_some() {
            drained += 1;
        }
        assert_eq!(drained, (shard as u64 + 1) * 10, "shard {shard} delivery");
    }
    broker.shutdown();
}

/// Promise 3: per-shard waiting times follow the cluster model.
///
/// Two shards, one topic each, four always-matching subscribers per
/// topic, inflated deterministic costs (`E[B] = 3 ms` per message:
/// `0.5 + 4·0.25 + 4·0.375`), Poisson arrivals at per-shard utilization
/// `ρ ≈ 0.55`. Maps onto [`ClusterScenario`] with `k = 2` brokers,
/// `m = 8` subscribers, `E[R] = 8` (so each shard carries `m/k = 4`
/// filters and `E[R]/k = 4` transmissions per message) and topic-sharded
/// ingress `per_broker_rate = λ/k`.
///
/// The 10% agreement assert needs one core per spinning dispatcher plus
/// a dedicated arrival clock, so it only runs with 4+ cores; below that
/// the test still checks that every shard produced a model report.
#[test]
fn per_shard_waiting_time_matches_cluster_scenario() {
    const SHARDS: usize = 2;
    const SUBS_PER_TOPIC: usize = 4;
    const MSGS_PER_SHARD: u64 = 1_300;
    let cost = CostParams::new(500e-6, 250e-6, 375e-6);
    let service_mean = 3.0e-3; // 500µs + 4·250µs + 4·375µs
    let rho = 0.55;
    let per_shard_rate = rho / service_mean;

    let broker = Broker::start(
        BrokerConfig::builder()
            .shards(SHARDS)
            .cost_model(cost)
            .metrics(MetricsConfig::default())
            .publish_queue_capacity(1 << 12)
            .subscriber_queue_capacity(1 << 12)
            .overflow_policy(OverflowPolicy::DropNew)
            .build(),
    );
    let topics = topic_per_shard(SHARDS);
    let mut subscribers = Vec::new();
    let mut publishers = Vec::new();
    for topic in &topics {
        broker.create_topic(topic).unwrap();
        for _ in 0..SUBS_PER_TOPIC {
            subscribers.push(broker.subscription(topic).open().unwrap());
        }
        publishers.push(broker.publisher(topic).unwrap());
    }

    // One Poisson stream at 2λ, each arrival routed to a uniformly random
    // topic: thinning keeps the per-shard streams Poisson at λ. A spin
    // clock (not `sleep`) keeps inter-arrival jitter below the scheduler
    // quantum.
    let total = MSGS_PER_SHARD * SHARDS as u64;
    let total_rate = per_shard_rate * SHARDS as f64;
    let mut rng = StdRng::seed_from_u64(7);
    let start = Instant::now();
    let mut next_s = 0.0;
    for _ in 0..total {
        next_s += sample_exponential(&mut rng, total_rate);
        while start.elapsed().as_secs_f64() < next_s {
            std::hint::spin_loop();
        }
        let topic = rng.gen_range(0..SHARDS);
        publishers[topic].publish(Message::builder().build()).unwrap();
    }
    let offered_elapsed = start.elapsed().as_secs_f64();
    wait_received(&broker, total);

    // Per-shard model reports; histogram flushes land on dispatcher idle.
    let reports = loop {
        let reports = broker.shard_reports();
        assert_eq!(reports.len(), SHARDS);
        if reports.iter().all(|r| r.samples >= MSGS_PER_SHARD / 2) {
            break reports;
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    let scenario = ClusterScenario {
        params: cost,
        brokers: SHARDS as u32,
        subscribers: (SHARDS * SUBS_PER_TOPIC) as u32,
        filters_per_subscriber: 1,
        mean_replication: (SHARDS * SUBS_PER_TOPIC) as f64,
        rho,
    };
    assert!((scenario.per_broker_service_time() - service_mean).abs() < 1e-12);

    for report in &reports {
        let verdict = report.verdict.report().unwrap_or_else(|| {
            panic!("shard {} verdict carries no report: {:?}", report.shard, report.verdict)
        });
        // Predict at the rate this shard was actually offered.
        let shard_rate = verdict.measured.samples as f64 / offered_elapsed;
        let predicted = scenario.waiting_time(shard_rate).unwrap().queue().mean_waiting_time();
        let measured = verdict.measured.mean_waiting_time;
        let error = (measured - predicted).abs() / predicted;
        eprintln!(
            "shard {}: rate {:.0}/s measured E[W] {:.3}ms predicted {:.3}ms error {:.1}%",
            report.shard,
            shard_rate,
            measured * 1e3,
            predicted * 1e3,
            error * 1e2,
        );
        if cores() >= 4 {
            assert!(
                error < 0.10,
                "shard {}: measured E[W] {measured:.6}s vs predicted {predicted:.6}s ({:.1}% off)",
                report.shard,
                error * 1e2,
            );
        }
    }
    broker.shutdown();
}

/// Promise 4: saturated throughput grows with the shard count.
///
/// The same offered workload (four topics, 50 spinning filter
/// evaluations per message) runs against one and four dispatchers; with
/// real parallelism the four-shard broker must clear at least twice the
/// single-dispatcher rate (the full `≥ 2×` CI gate is
/// `ext_shard_scaling`). Starved of cores the ratio only gets a sanity
/// bound — sharding must never *cost* throughput beyond scheduler noise.
#[test]
fn sharded_throughput_scales_with_dispatchers() {
    const TOPICS: usize = 4;
    const MSGS_PER_TOPIC: u64 = 500;
    const FILTERS: usize = 50;

    fn saturated_rate(shards: usize) -> f64 {
        let broker = Broker::start(
            BrokerConfig::builder()
                .shards(shards)
                .cost_model(CostParams::new(0.85e-6, 7.02e-6, 17.0e-6))
                .publish_queue_capacity(64)
                .subscriber_queue_capacity(1 << 10)
                .overflow_policy(OverflowPolicy::DropNew)
                .build(),
        );
        let topics = topic_per_shard(TOPICS.max(shards));
        let mut subscribers = Vec::new();
        let mut publishers = Vec::new();
        for topic in topics.iter().take(TOPICS) {
            broker.create_topic(topic).unwrap();
            for _ in 0..FILTERS {
                subscribers.push(broker.subscription(topic).open().unwrap());
            }
            publishers.push(broker.publisher(topic).unwrap());
        }
        let total = MSGS_PER_TOPIC * TOPICS as u64;
        let start = Instant::now();
        // Round-robin keeps every shard's queue non-empty; `publish`
        // blocks on a full queue, so the offered load is saturating.
        for i in 0..total {
            publishers[i as usize % TOPICS].publish(Message::builder().build()).unwrap();
        }
        wait_received(&broker, total);
        let rate = total as f64 / start.elapsed().as_secs_f64();
        broker.shutdown();
        rate
    }

    let single = saturated_rate(1);
    let sharded = saturated_rate(4);
    let ratio = sharded / single;
    eprintln!("throughput: 1 shard {single:.0}/s, 4 shards {sharded:.0}/s, ratio {ratio:.2}");
    if cores() >= 6 {
        assert!(
            ratio >= 2.0,
            "4 shards on {} cores must double throughput, got {ratio:.2}",
            cores()
        );
    } else if cores() >= 4 {
        assert!(ratio >= 1.3, "4 shards on {} cores must scale, got {ratio:.2}", cores());
    } else {
        assert!(ratio > 0.3, "sharding must not collapse throughput, got {ratio:.2}");
    }
}
