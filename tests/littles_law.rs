//! Little's-law cross-check integration test: real broker, paced Poisson
//! workload.
//!
//! Two topics are pinned (via [`rjms::broker::shard_of`]) onto the two
//! dispatcher shards of a cost-model-calibrated broker, and each shard is
//! driven at `ρ ≈ 0.75` by an exponentially paced publisher. The backlog
//! instrument samples the publish-queue depth at every dispatch (PASTA),
//! so its window mean is an independent measurement of the queue length
//! `L` that must agree with `λ·E[W]` from the waiting histogram if the
//! telemetry is trustworthy. The forecaster's self-check must report that
//! agreement — in the engine's forecast of each shard, over that shard's own
//! series, and in the one it judges by (the bounding shard's) — within a
//! tolerance generous enough for a few seconds of real scheduling noise.
//!
//! The queue a message leaves behind at its dispatch is the arrivals
//! during its wait, and those average `λ·E[W]` only when messages arrive
//! one at a time, independently of the queue. A pacer that wakes every
//! few milliseconds and publishes what fell due hands the broker batches,
//! and every message of a batch then also counts the rest of its batch
//! behind it: the backlog mean overstates `λ·E[W]` by about `1 − ρ` of
//! itself. So each arrival here has its own wakeup, and the spun cost is
//! stretched until a service time is long against a timer's lateness.
//!
//! The shards are loaded one after the other: two dispatchers spinning at
//! `ρ ≈ 0.75` want 1.5 of a small host's 2 CPUs. The check is per server
//! (DESIGN.md §3.13): the aggregate backlog histogram takes one sample of
//! one shard's queue per dispatch, so its mean averages the queues where
//! `λ·E[W]` sums them, and nothing compares the two.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rjms::broker::{
    shard_of, Broker, BrokerConfig, Filter, Message, MetricsConfig, OverflowPolicy,
};
use rjms::desim::random::sample_exponential;
use rjms::model::params::CostParams;
use rjms::obs::{AlertPolicy, ForecastConfig, HistoryConfig, ObsConfig, ObsCore};
use std::time::{Duration, Instant};

/// Filters per topic (one of them matches every message).
const N_FILTERS: u32 = 32;

/// Table I correlation-ID constants times this factor: E[B] ≈ 1 ms. The
/// spin is then some fifty times the real work per message, so the model
/// alone sets `ρ`, and a mean inter-arrival time of 1.3 ms is long enough
/// to sleep through, one arrival at a time.
const COST_STRETCH: f64 = 4.0;

/// Per-shard operating point: busy enough that the time-average queue
/// length is meaningfully above zero.
const TARGET_RHO: f64 = 0.75;

const TICK: Duration = Duration::from_millis(250);

/// Ticks per phase. One shard is loaded per phase: a dispatcher at
/// `ρ = 0.75` spins three quarters of a CPU, and two of them at once ask a
/// two-core host for more than it has left beside anything else.
const PHASE_TICKS: u64 = 12;

/// The forecaster's window: inside one phase, clear of its first ticks.
const TREND_WINDOW: Duration = Duration::from_millis(2500);

#[test]
fn paced_poisson_workload_satisfies_littles_law_per_shard() {
    let cost = CostParams::new(
        CostParams::CORRELATION_ID.t_rcv * COST_STRETCH,
        CostParams::CORRELATION_ID.t_fltr * COST_STRETCH,
        CostParams::CORRELATION_ID.t_tx * COST_STRETCH,
    );
    let e_b = cost.mean_service_time(N_FILTERS, 1.0);

    // One topic per shard, found by probing the stable topic hash.
    let topic_for = |shard: usize| {
        (0..64)
            .map(|i| format!("t{i}"))
            .find(|name| shard_of(name, 2) == shard)
            .expect("some name hashes onto the shard")
    };
    let topics = [topic_for(0), topic_for(1)];

    let broker = Broker::start(
        BrokerConfig::builder()
            .shards(2)
            .publish_queue_capacity(1 << 14)
            .subscriber_queue_capacity(1 << 18)
            .overflow_policy(OverflowPolicy::DropNew)
            .metrics(MetricsConfig::default())
            .cost_model(cost)
            .build(),
    );
    let _subscribers: Vec<_> = topics
        .iter()
        .flat_map(|topic| {
            broker.create_topic(topic).unwrap();
            (0..N_FILTERS)
                .map(|i| {
                    broker
                        .subscription(topic)
                        .filter(Filter::correlation_id(&format!("#{i}")).unwrap())
                        .open()
                        .unwrap()
                })
                .collect::<Vec<_>>()
        })
        .collect();

    let registry = broker.metrics().expect("metrics enabled above");
    let mut core = ObsCore::new(ObsConfig {
        history: HistoryConfig {
            fine_interval: TICK,
            fine_slots: 64,
            coarse_factor: 4,
            coarse_slots: 32,
        },
        slos: Vec::new(),
        policy: AlertPolicy::default(),
        forecast: ForecastConfig { trend_window: TREND_WINDOW, ..ForecastConfig::default() },
    });
    core.set_monitors(broker.observer().shard_monitors());

    let publishers: Vec<_> = topics.iter().map(|t| broker.publisher(t).unwrap()).collect();

    // A Poisson stream into one shard at a time. The pacer sleeps until
    // the next arrival and publishes what is due, which is one message
    // unless the wakeup came late.
    let rate = TARGET_RHO / e_b;
    let mut rng = StdRng::seed_from_u64(2006);
    let t0 = Instant::now();
    let mut next_tick = TICK;
    let mut published = 0;
    for (shard, publisher) in publishers.iter().enumerate() {
        // A starved dispatcher may still be working off the previous
        // phase's queue: this phase's window must see one shard only.
        while broker.snapshot().messages.received < published {
            std::thread::sleep(next_tick.saturating_sub(t0.elapsed()));
            core.tick(next_tick, &registry.snapshot(), None);
            next_tick += TICK;
        }
        let mut next_arrival = t0.elapsed();
        let mut ticks = 0;
        while ticks < PHASE_TICKS {
            std::thread::sleep(next_arrival.min(next_tick).saturating_sub(t0.elapsed()));
            let now = t0.elapsed();
            while next_arrival <= now {
                publisher.publish(Message::builder().correlation_id("#0").build()).unwrap();
                published += 1;
                next_arrival += Duration::from_secs_f64(sample_exponential(&mut rng, rate));
            }
            if now >= next_tick {
                core.tick(next_tick, &registry.snapshot(), None);
                next_tick += TICK;
                ticks += 1;
            }
        }

        // The loaded shard's forecast and the one the engine judges by (the
        // soonest breach, else the busiest shard: the loaded one): each
        // self-check must be present and live, and the two L estimates must agree
        // to within a factor that catches real telemetry breakage (wrong
        // units, dead instruments, mislabeled shards) without flaking on
        // scheduling skew: when the dispatcher does not get the CPU it
        // asks for, the shard runs past ρ = 1 and the backlog mean exceeds
        // λ·E[W] by the ratio of arrivals to departures. The engine's own
        // 10% gate is exercised under controlled telemetry by the
        // staged-ramp test (tests/forecast_ramp.rs).
        let of_shard = core.shards()[shard].forecast.clone();
        let of_shard = of_shard.unwrap_or_else(|| panic!("shard {shard} produced no forecast"));
        let bounding =
            core.latest_forecast().cloned().expect("steady traffic must produce a forecast");
        for (name, forecast) in
            [(format!("shard {shard}"), of_shard), ("bounding shard".into(), bounding)]
        {
            let check = forecast
                .littles_law
                .unwrap_or_else(|| panic!("{name}: backlog telemetry must feed the self-check"));
            assert!(
                check.measured_l.max(check.predicted_l) >= 0.5,
                "{name}: a queue at ρ = {TARGET_RHO} is not near empty: measured L {:.2}, λ·E[W] {:.2}",
                check.measured_l,
                check.predicted_l
            );
            assert!(
                check.error <= 0.50,
                "{name}: Little's-law disagreement {:.1}% (measured L {:.2}, λ·E[W] {:.2})",
                check.error * 100.0,
                check.measured_l,
                check.predicted_l
            );
        }
    }
    broker.shutdown();
}
