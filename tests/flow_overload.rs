//! Overload lifecycle integration test for the flow-control subsystem.
//!
//! A Table-I-calibrated M/D/1 workload (correlation-ID cost constants,
//! 100 filters) is offered to a [`rjms::flow::FlowGate`] in three phases —
//! half the gate's own budget, 1.5x the budget, then half again — on a
//! deterministic clock. The gate's promise:
//!
//! 1. the `W99` of the traffic it *admits* stays inside the configured
//!    objective through the whole wave,
//! 2. shed counters grow during the overload phase and only then,
//! 3. and a control run with the gate removed blows straight past the
//!    objective, so the protection is the gate and not the workload.
//!
//! The wire tests hold the contract "push-back on the wire is the publish
//! reply": a peer gets one reply per request and nothing else, and its
//! denials as typed `PublishDenied` frames.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rjms::desim::random::sample_exponential;
use rjms::flow::{FlowConfig, FlowGate};
use rjms::model::params::CostParams;

/// Offered-load phases, seconds of simulated time each.
const PHASE_SECS: f64 = 5.0;

/// Held by the tests that read a budget from measured service times, so
/// that the hot-shard tests' spinning dispatchers do not stretch the
/// native-speed test's measurement.
static MEASURING: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Simulation state threaded through the phases: the arrival clock, the
/// Lindley waiting-time recursion over *admitted* arrivals, and the
/// collected waiting samples.
struct Sim {
    rng: StdRng,
    now_s: f64,
    prev_admit: Option<(f64, f64)>,
    waits: Vec<f64>,
    arrivals: u64,
}

impl Sim {
    fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            now_s: 0.0,
            prev_admit: None,
            waits: Vec::new(),
            arrivals: 0,
        }
    }

    /// Offers Poisson traffic at `rate` for `seconds`; every admitted
    /// arrival passes through an M/D/1 Lindley recursion with service
    /// `e_b` and contributes a waiting sample. Returns (offered, granted).
    fn offer(&mut self, gate: Option<&FlowGate>, rate: f64, seconds: f64, e_b: f64) -> (u64, u64) {
        let end = self.now_s + seconds;
        let (mut offered, mut granted) = (0u64, 0u64);
        loop {
            self.now_s += sample_exponential(&mut self.rng, rate);
            if self.now_s >= end {
                self.now_s = end;
                return (offered, granted);
            }
            offered += 1;
            self.arrivals += 1;
            let producer = self.arrivals % 4;
            let priority = (self.arrivals % 10) as u8;
            let admitted = match gate {
                None => true,
                Some(g) => {
                    g.admit_at(0, producer, priority, false, (self.now_s * 1e9) as u64).is_granted()
                }
            };
            if admitted {
                granted += 1;
                let w = match self.prev_admit {
                    Some((prev_t, prev_w)) => (prev_w + e_b - (self.now_s - prev_t)).max(0.0),
                    None => 0.0,
                };
                self.waits.push(w);
                self.prev_admit = Some((self.now_s, w));
            }
        }
    }

    /// The empirical 99th-percentile waiting time, seconds.
    fn w99(&self) -> f64 {
        assert!(!self.waits.is_empty(), "no admitted traffic");
        let mut sorted = self.waits.clone();
        sorted.sort_by(f64::total_cmp);
        let index = ((sorted.len() as f64) * 0.99).ceil() as usize - 1;
        sorted[index.min(sorted.len() - 1)]
    }
}

/// Total messages shed across all classes.
fn shed_total(gate: &FlowGate) -> u64 {
    gate.snapshot().per_class.iter().map(|c| c.shed).sum()
}

#[test]
fn gate_keeps_admitted_w99_inside_objective_through_an_overload_wave() {
    // Table I workload: correlation-ID constants, 100 filters, E[R] = 1 —
    // the FlowConfig defaults. The gate is given a fifth less than the
    // asserted objective, so that after its own 1.25 headroom it targets
    // 6.7 ms, comfortably inside the 10 ms asserted. Four producers, none
    // offered more than the half of the budget each may take.
    let objective = 0.010;
    let gate = FlowGate::new(FlowConfig::default().w99_objective(objective / 1.2), 1);
    let lambda_max = gate.lambda_max();
    assert!(lambda_max > 100.0, "budget too small for a meaningful wave: {lambda_max}/s");
    let e_b = CostParams::CORRELATION_ID.mean_service_time(100, 1.0);

    let mut sim = Sim::new(2006);

    // Phase 1 — half the budget: everything is admitted, nothing is shed.
    let (offered, granted) = sim.offer(Some(&gate), 0.5 * lambda_max, PHASE_SECS, e_b);
    assert_eq!(granted, offered, "under-budget traffic must be admitted in full");
    assert_eq!(shed_total(&gate), 0, "under-budget traffic must not be shed");

    // Phase 2 — 1.5x the budget: the bucket drains, low classes are shed,
    // and the admitted stream is clipped to roughly lambda_max.
    let (offered, granted) = sim.offer(Some(&gate), 1.5 * lambda_max, PHASE_SECS, e_b);
    let shed_after_overload = shed_total(&gate);
    assert!(shed_after_overload > 0, "overload must shed");
    assert!(granted > 0, "overload must not starve admitted traffic");
    assert!(
        (granted as f64) < 1.2 * lambda_max * PHASE_SECS,
        "admitted {granted} of {offered} exceeds the budget {:.0}",
        lambda_max * PHASE_SECS
    );

    // Quiet gap — the bucket refills at lambda_max, so a short idle
    // stretch restores every class's reserve band.
    sim.now_s += 0.5;

    // Phase 3 — back to half the budget: shedding stops.
    let (offered, granted) = sim.offer(Some(&gate), 0.5 * lambda_max, PHASE_SECS, e_b);
    assert_eq!(granted, offered, "recovered traffic must be admitted in full");
    assert_eq!(
        shed_total(&gate),
        shed_after_overload,
        "shed counters must not grow after the load drops"
    );

    // The headline promise: the traffic the gate admitted — across all
    // three phases, overload included — met the waiting-time objective.
    let w99 = sim.w99();
    assert!(
        w99 <= objective,
        "admitted-traffic W99 {:.3} ms exceeds the {:.1} ms objective",
        w99 * 1e3,
        objective * 1e3
    );

    // Control run: the same wave with the gate removed. The overload phase
    // pushes the queue far past the objective — the protection above came
    // from admission control, not from a gentle workload.
    let mut control = Sim::new(2006);
    control.offer(None, 0.5 * lambda_max, PHASE_SECS, e_b);
    control.offer(None, 1.5 * lambda_max, PHASE_SECS, e_b);
    control.offer(None, 0.5 * lambda_max, PHASE_SECS, e_b);
    let control_w99 = control.w99();
    assert!(
        control_w99 > 10.0 * objective,
        "ungated control should blow past the objective, got W99 {:.3} ms",
        control_w99 * 1e3
    );
}

mod flow_peer {
    //! A peer over a flow-enabled server: each request gets its reply and
    //! nothing else, and admission's denials come back typed.

    use rjms::broker::{BrokerConfig, FlowConfig, Message, Priority};
    use rjms::model::params::CostParams;
    use rjms::net::wire::{
        decode_response, encode_request, read_frame, Request, Response, WireMessage,
    };
    use rjms::net::{BrokerServer, Error, RemoteBroker};
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Duration;

    #[test]
    fn a_flow_peer_gets_one_reply_per_request_and_no_other_frame() {
        // A native-speed seed model (0.4 µs a message at 100 filters) puts
        // `λ_max` in the millions a second: the twentieth of a second of it
        // in the bucket, halved for the one producer, admits the 100
        // publishes.
        let native = CostParams::new(60e-9, 2.5e-9, 80e-9);
        let flow = FlowConfig::default().params(native);
        let server = BrokerServer::start(BrokerConfig::builder().flow(flow).build(), "127.0.0.1:0")
            .expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

        // One write: the topic's creation (request id 1), 100 publishes
        // (ids 2 to 101), a ping (102).
        let message = WireMessage::from_message(&Message::builder().build());
        let publish = |request_id| Request::Publish {
            request_id,
            topic: "t".into(),
            message: message.clone(),
        };
        let requests = std::iter::once(Request::CreateTopic { request_id: 1, topic: "t".into() })
            .chain((2..102).map(publish))
            .chain([Request::Ping { request_id: 102 }]);
        let frames: Vec<u8> =
            requests.flat_map(|request| encode_request(&request).to_vec()).collect();
        stream.write_all(&frames).expect("send");

        // Replies in request order and nothing between them: the creation's
        // Ok, one Ok per publish, the Pong.
        let mut next = || {
            let body = read_frame(&mut stream).expect("read frame").expect("connection open");
            decode_response(body).expect("response decodes")
        };
        for request_id in 1..102 {
            assert_eq!(next(), Response::Ok { request_id });
        }
        assert_eq!(next(), Response::Pong { request_id: 102 });
        server.shutdown();
    }

    #[test]
    fn a_burst_past_the_budget_is_shed_and_deferred_by_type_and_the_hint_holds() {
        // Table I's costs and objective, each 200 times longer: the same
        // utilisation ceiling, so a budget of Table I's λ_max/200, under 6
        // msgs/s. The lane's bucket and the connection's producer bucket
        // both hold their floor, one token per class (3). Class 0 draws the
        // lane down to its reserve (2 of 3) in two publishes, and the third
        // is shed unless it comes 1/λ_max ≈ 180 ms after the first; the
        // producer, refilled at half the lane's rate, cannot fall a token
        // behind the lane sooner than 2/λ_max. At Table I's own budget
        // (≈ 1 100 msgs/s, a 57-token lane) the producer's half would run
        // dry first unless the client published faster than 2·λ_max, a
        // round trip under 0.45 ms. The burst is a dozen publishes: no
        // refresh has the samples to move the budget.
        const SLOWER: f64 = 200.0;
        let t = CostParams::CORRELATION_ID;
        let slow = CostParams::new(t.t_rcv * SLOWER, t.t_fltr * SLOWER, t.t_tx * SLOWER);
        let flow = FlowConfig::default();
        let flow = flow.params(slow).w99_objective(flow.w99_objective * SLOWER);
        let server = BrokerServer::start(BrokerConfig::builder().flow(flow).build(), "127.0.0.1:0")
            .expect("bind");
        server.broker().create_topic("t").unwrap();
        let gate = server.broker().flow().expect("flow control on");
        assert!(gate.lambda_max() < 10.0, "budget {}", gate.lambda_max());
        assert_eq!(gate.snapshot().bucket_burst, 3.0);
        let attempts = 2 * gate.snapshot().bucket_burst.ceil() as usize;
        let client = RemoteBroker::connect(server.local_addr()).expect("connect");
        let at = |level| Message::builder().priority(Priority::new(level)).build();

        // The lowest class is admitted down to its reserve, then shed.
        let shed = (0..attempts).find_map(|_| client.publish("t", &at(0)).err());
        assert!(
            matches!(shed, Some(Error::PublishShed { class: 0 })),
            "priority 0 got {shed:?} where the bucket passed its reserve"
        );

        // The top class is never shed: admitted, or deferred with a hint.
        // The hint is the later of the lane's wait and the producer's.
        let mut hint = None;
        for _ in 0..attempts {
            match client.publish("t", &at(9)) {
                Ok(()) => {}
                Err(Error::PublishDeferred { class: 2, retry_after_ms }) => {
                    assert!(retry_after_ms >= 1, "a deferral without a retry hint");
                    hint = Some(retry_after_ms);
                }
                Err(e) => panic!("priority 9 got {e:?}"),
            }
        }
        let hint = hint.expect("twice the bucket deferred no top-class publish");

        // The hint is whole milliseconds, rounded down: wait one more.
        std::thread::sleep(Duration::from_millis(hint + 1));
        client.publish("t", &at(9)).expect("a retry after the hint is admitted");
        drop(client);
        server.shutdown();
    }
}

mod sharded {
    //! Flow control on a sharded broker. `k` dispatchers are `k` independent
    //! M/GI/1 servers, so the gate has one lane per shard, each budgeted as
    //! one server from that shard's own measurement — never one server
    //! assessed at the aggregate arrival rate `Σλ`.

    use rjms::broker::{
        shard_of, Broker, BrokerConfig, Filter, FlowConfig, Message, TryPublishError,
    };
    use rjms::model::monitor::ModelVerdict;
    use rjms::model::params::CostParams;
    use std::time::{Duration, Instant};

    #[test]
    fn gate_is_not_tightened_by_the_aggregate_arrival_rate() {
        const SHARDS: usize = 4;
        const PER_SHARD_RATE: f64 = 1_200.0;
        // The gate's model says 250 µs per message (one filter, one copy):
        // at 1 200 msgs/s a shard is 30 % busy by the model, and the four
        // together are 120 % of *one* server — the operating point a
        // single-server reading of the aggregate histograms calls overloaded.
        // (The filter term is small, so that reading does not hinge on how
        // n_fltr = 0.99… is rounded.) The broker itself runs at native speed,
        // so what each shard measures is a few microseconds of service, far
        // from overload on any host: nothing here times the machine.
        let params = CostParams { t_rcv: 100e-6, t_fltr: 10e-6, t_tx: 140e-6, t_store: 0.0 };
        // One publisher per shard: each is a producer of its own, offered a
        // quarter of the load and allowed half the budget.
        let flow = FlowConfig::default()
            .params(params)
            .filters(1)
            .w99_objective(0.050)
            .refresh_interval_ms(300);
        let broker = Broker::start(BrokerConfig::builder().shards(SHARDS).flow(flow).build());
        let gate = broker.flow().expect("flow control on");

        // One topic per shard, one matching correlation-ID subscriber each.
        let mut topics = vec![None; SHARDS];
        for name in (0..).map(|i| format!("orders-{i}")) {
            topics[shard_of(&name, SHARDS)].get_or_insert(name);
            if topics.iter().all(Option::is_some) {
                break;
            }
        }
        let mut lanes = Vec::new();
        for topic in topics.iter().flatten() {
            broker.create_topic(topic).unwrap();
            let filter = Filter::correlation_id("#1").unwrap();
            let sub = broker.subscription(topic).filter(filter).open().unwrap();
            lanes.push((broker.publisher(topic).unwrap(), sub));
        }

        // Three seconds at 1 200 msgs/s per shard: some seven refresh ticks
        // after every shard has the 1 000 samples a verdict needs.
        let offered = PER_SHARD_RATE * SHARDS as f64;
        let started = Instant::now();
        let (mut sent, mut denied) = (0u64, 0u64);
        let mut lowest_budget = f64::INFINITY;
        while started.elapsed() < Duration::from_secs(3) {
            while (sent as f64) < offered * started.elapsed().as_secs_f64() {
                let (publisher, _) = &lanes[sent as usize % SHARDS];
                let message = Message::builder().correlation_id("#1").build();
                denied += u64::from(publisher.publish(message).is_err());
                sent += 1;
            }
            for (_, sub) in &lanes {
                sub.drain();
            }
            lowest_budget = lowest_budget.min(gate.snapshot().lambda_max);
            std::thread::sleep(Duration::from_millis(1));
        }

        let reports = broker.shard_reports();
        let snapshot = gate.snapshot();
        eprintln!(
            "offered {offered}/s for 3 s: sent {sent}, denied {denied}; gate lambda_max {:.0}/s \
             (lowest {lowest_budget:.0}/s) source {} after {} refreshes",
            snapshot.lambda_max, snapshot.source, snapshot.refreshes
        );
        for r in &reports {
            let kind = format!("{:?}", r.verdict);
            let kind = kind.split([' ', '(']).next().unwrap_or_default();
            let rho = r.verdict.report().map(|d| d.measured.utilization);
            eprintln!("  shard {}: {} samples, {kind}, utilisation {rho:?}", r.shard, r.samples);
        }
        assert_eq!(reports.len(), SHARDS);
        assert!(
            reports.iter().all(|r| r.verdict.report().is_some()),
            "every shard has a measured-vs-predicted verdict, none overloaded: {reports:?}"
        );
        assert!(!reports.iter().any(|r| matches!(r.verdict, ModelVerdict::Overloaded { .. })));
        assert_eq!(snapshot.source, "measured", "no lane was re-inverted from its measurement");
        assert!(
            lowest_budget >= offered,
            "the budget fell to {lowest_budget:.0}/s, below the {offered}/s the shards carry easily"
        );
        assert_eq!(denied, 0, "an under-budget workload was shed or deferred");
        broker.shutdown();
    }

    #[test]
    fn a_hot_shard_is_held_below_saturation_when_one_topic_takes_all_the_traffic() {
        let _measuring = super::MEASURING.lock().unwrap_or_else(|e| e.into_inner());
        const SHARDS: usize = 4;
        const OFFERED: f64 = 6_000.0;
        const RUN: Duration = Duration::from_secs(3);
        const SETTLED: Duration = Duration::from_millis(1_500);
        // The broker spins the seed's own costs, 250 µs a message (one
        // filter, one copy): one shard serves at most 4 000 msgs/s. All the
        // traffic is on one topic, so one shard of the four takes 6 000
        // msgs/s. A budget of four even shards admits all of it and holds
        // that shard saturated; the budget of the one shard the traffic
        // spans holds it near ρ_max.
        let params = CostParams { t_rcv: 100e-6, t_fltr: 10e-6, t_tx: 140e-6, t_store: 0.0 };
        let flow = FlowConfig::default()
            .params(params)
            .filters(1)
            .w99_objective(0.0025)
            .refresh_interval_ms(300);
        let config = BrokerConfig::builder().shards(SHARDS).cost_model(params).flow(flow).build();
        let broker = Broker::start(config);
        let gate = broker.flow().expect("flow control on");
        let metrics = broker.metrics().expect("flow implies metrics");
        broker.create_topic("orders").unwrap();
        let hot = shard_of("orders", SHARDS);
        let sub = broker
            .subscription("orders")
            .filter(Filter::correlation_id("#1").unwrap())
            .open()
            .unwrap();
        // Two producers, so the budget is not capped by one producer's half.
        let publishers = [broker.publisher("orders").unwrap(), broker.publisher("orders").unwrap()];
        // The hot shard's busy time, nanoseconds, and when it was read.
        let busy = || {
            let series = format!("broker.service_ns{{shard=\"{hot}\"}}");
            (metrics.snapshot().histogram(&series).map_or(0, |h| h.sum), Instant::now())
        };

        // `try_publish`: a saturated shard's full queue must not block this
        // thread, which is also the subscriber's only reader.
        let started = Instant::now();
        let (mut sent, mut refused) = (0u64, 0u64);
        let mut window_start = None;
        while started.elapsed() < RUN {
            while (sent as f64) < OFFERED * started.elapsed().as_secs_f64() {
                let message = Message::builder().correlation_id("#1").build();
                refused += u64::from(publishers[sent as usize % 2].try_publish(message).is_err());
                sent += 1;
            }
            sub.drain();
            if started.elapsed() >= SETTLED {
                window_start.get_or_insert_with(busy);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let ((busy_from, from), (busy_to, to)) = (window_start.expect("a window"), busy());
        let rho = (busy_to - busy_from) as f64 / (to - from).as_nanos() as f64;
        let snapshot = gate.snapshot();
        eprintln!(
            "offered {OFFERED}/s on shard {hot} of {SHARDS} for {RUN:?}: sent {sent}, refused \
             {refused}; gate lambda_max {:.0}/s, rho_max {:.2}, source {} after {} refreshes; hot \
             shard busy {rho:.2} of the time after {SETTLED:?}",
            snapshot.lambda_max, snapshot.rho_max, snapshot.source, snapshot.refreshes
        );
        assert_eq!(snapshot.source, "measured");
        assert!(
            gate.shard_budget(hot) < OFFERED,
            "a budget of {:.0}/s admits more than one shard serves",
            gate.shard_budget(hot)
        );
        assert!(rho < 0.9, "the hot shard was busy {rho:.2} of the time: held saturated");
        broker.shutdown();
    }

    #[test]
    fn a_cold_shard_is_not_denied_for_a_hot_one_which_is_budgeted_from_the_start() {
        let _measuring = super::MEASURING.lock().unwrap_or_else(|e| e.into_inner());
        const SHARDS: usize = 4;
        const HOT: f64 = 6_000.0;
        const COLD: f64 = 100.0;
        const RUN: Duration = Duration::from_secs(3);
        // The first refresh is due at 300 ms.
        const BEFORE_REFRESH: Duration = Duration::from_millis(250);
        // The load of `a_hot_shard…`: 250 µs a message spun, 6 000 msgs/s on
        // one topic from two producers, which one shard serves at most 4 000
        // of. Beside it a topic on another shard takes 100 msgs/s from a
        // publisher of its own, a fortieth of its shard's time. Each shard
        // is its own server: the hot one is budgeted as one server from the
        // first publish on, and the cold one is never denied for the hot
        // one's load.
        let params = CostParams { t_rcv: 100e-6, t_fltr: 10e-6, t_tx: 140e-6, t_store: 0.0 };
        let flow = FlowConfig::default()
            .params(params)
            .filters(1)
            .w99_objective(0.0025)
            .refresh_interval_ms(300);
        let config = BrokerConfig::builder().shards(SHARDS).cost_model(params).flow(flow).build();
        let broker = Broker::start(config);
        let gate = broker.flow().expect("flow control on");
        let hot = shard_of("orders", SHARDS);
        let cold_topic =
            (0..).map(|i| format!("audit-{i}")).find(|t| shard_of(t, SHARDS) != hot).unwrap();
        let open = |topic: &str| {
            broker.create_topic(topic).unwrap();
            broker.subscription(topic).filter(Filter::correlation_id("#1").unwrap()).open().unwrap()
        };
        let (hot_sub, cold_sub) = (open("orders"), open(&cold_topic));
        let publishers = [broker.publisher("orders").unwrap(), broker.publisher("orders").unwrap()];
        let cold_publisher = broker.publisher(&cold_topic).unwrap();
        // A refusal by the gate, not by a full publish queue.
        let denied = |sent: Result<(), TryPublishError>| {
            u64::from(matches!(sent, Err(TryPublishError::Denied { .. })))
        };
        let message = || Message::builder().correlation_id("#1").build();

        let started = Instant::now();
        let (mut hot_sent, mut cold_sent) = (0u64, 0u64);
        let (mut hot_denied_early, mut cold_denied, mut cold_denied_measured) = (0u64, 0u64, 0u64);
        // Whether the gate was `measured` a loop turn (over 1 ms) ago.
        let mut measured_a_turn_ago = false;
        while started.elapsed() < RUN {
            let measured = gate.snapshot().source == "measured";
            let elapsed = started.elapsed();
            let early = u64::from(elapsed < BEFORE_REFRESH);
            while (hot_sent as f64) < HOT * elapsed.as_secs_f64() {
                hot_denied_early +=
                    early * denied(publishers[hot_sent as usize % 2].try_publish(message()));
                hot_sent += 1;
            }
            while (cold_sent as f64) < COLD * elapsed.as_secs_f64() {
                let refused = denied(cold_publisher.try_publish(message()));
                cold_denied += refused;
                cold_denied_measured += refused * u64::from(measured_a_turn_ago);
                cold_sent += 1;
            }
            measured_a_turn_ago = measured;
            hot_sub.drain();
            cold_sub.drain();
            std::thread::sleep(Duration::from_millis(1));
        }

        let snapshot = gate.snapshot();
        eprintln!(
            "hot shard {hot}: {HOT}/s, sent {hot_sent}, denied {hot_denied_early} before \
             {BEFORE_REFRESH:?}; cold topic {cold_topic}: {COLD}/s, sent {cold_sent}, denied \
             {cold_denied} ({cold_denied_measured} under a measured gate); gate source {} after {} \
             refreshes",
            snapshot.source, snapshot.refreshes
        );
        assert_eq!(snapshot.source, "measured", "no lane was re-inverted from its measurement");
        assert_eq!(
            cold_denied_measured, 0,
            "the cold topic was denied {cold_denied_measured} of {cold_sent} for the hot shard's load"
        );
        assert!(
            hot_denied_early > 0,
            "6 000 msgs/s on one shard admitted in full before the first refresh"
        );
        broker.shutdown();
    }
}

mod native_speed {
    //! The gate budgets from what the dispatcher measured. A seed model far
    //! slower than the broker sets the first budget only: its verdict on a
    //! shard the broker serves easily does not throttle that shard.

    use rjms::broker::{Broker, BrokerConfig, Filter, FlowConfig, Message};
    use rjms::model::monitor::ModelVerdict;
    use rjms::model::params::CostParams;
    use std::time::{Duration, Instant};

    #[test]
    fn a_shard_the_seed_calls_overloaded_is_budgeted_from_its_measured_service() {
        let _measuring = super::MEASURING.lock().unwrap_or_else(|e| e.into_inner());
        const OFFERED: f64 = 6_000.0;
        // Four seconds: a budget halved at each `Overloaded` verdict would be
        // below the offered rate by then.
        const RUN: Duration = Duration::from_secs(4);
        const SETTLED: Duration = Duration::from_secs(2);
        // The seed says 250 µs a message, so at 6 000 msgs/s its model has no
        // stationary regime and the shard's verdict reads `Overloaded`; its
        // inversion admits under 4 000 msgs/s. The broker runs at native
        // speed, a few microseconds a message, so the shard is a few per cent
        // busy: once a refresh has the 1 000 samples a summary needs, the
        // budget is in the hundreds of thousands.
        let params = CostParams { t_rcv: 100e-6, t_fltr: 10e-6, t_tx: 140e-6, t_store: 0.0 };
        let flow = FlowConfig::default()
            .params(params)
            .filters(1)
            .w99_objective(0.050)
            .refresh_interval_ms(300);
        let broker = Broker::start(BrokerConfig::builder().flow(flow).build());
        let gate = broker.flow().expect("flow control on");
        broker.create_topic("orders").unwrap();
        let filter = Filter::correlation_id("#1").unwrap();
        let sub = broker.subscription("orders").filter(filter).open().unwrap();
        let publisher = broker.publisher("orders").unwrap();

        let started = Instant::now();
        let (mut sent, mut denied, mut denied_measured) = (0u64, 0u64, 0u64);
        let mut lowest_settled_budget = f64::INFINITY;
        // Whether the gate was `measured` a loop turn (over 1 ms) ago. A
        // refresh re-sizes the producer's bucket to 50 ms of the measured
        // rate at the fill fraction the seed budget drained it to, and at
        // that rate it refills within a millisecond. A turn sends at most
        // `CATCH_UP` publishes, so a backlog left by a host stall is not
        // sent at once.
        const CATCH_UP: u64 = 30;
        let mut measured_a_turn_ago = false;
        while started.elapsed() < RUN {
            let measured = gate.snapshot().source == "measured";
            let due = (OFFERED * started.elapsed().as_secs_f64()).ceil() as u64;
            let batch = due.saturating_sub(sent).min(CATCH_UP);
            for _ in 0..batch {
                let message = Message::builder().correlation_id("#1").build();
                let refused = u64::from(publisher.publish(message).is_err());
                denied += refused;
                denied_measured += refused * u64::from(measured_a_turn_ago);
            }
            sent += batch;
            measured_a_turn_ago = measured;
            sub.drain();
            if started.elapsed() >= SETTLED {
                lowest_settled_budget = lowest_settled_budget.min(gate.lambda_max());
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        let reports = broker.shard_reports();
        let snapshot = gate.snapshot();
        eprintln!(
            "offered {OFFERED}/s for {RUN:?}: sent {sent}, denied {denied} ({denied_measured} \
             under a measured budget); gate lambda_max {:.0}/s (lowest after {SETTLED:?} \
             {lowest_settled_budget:.0}/s) source {} after {} refreshes; shard verdict {:?}",
            snapshot.lambda_max, snapshot.source, snapshot.refreshes, reports[0].verdict
        );
        assert!(
            matches!(reports[0].verdict, ModelVerdict::Overloaded { .. }),
            "the seed model must call the shard overloaded for this test to mean anything"
        );
        assert!(
            lowest_settled_budget >= OFFERED,
            "the budget fell to {lowest_settled_budget:.0}/s, below the {OFFERED}/s the shard \
             carries easily"
        );
        // Every denial came under the seed budget, before the first refresh
        // had the samples a summary needs, or in the millisecond after it.
        assert_eq!(denied_measured, 0, "{denied_measured} publishes denied by a measured budget");
        broker.shutdown();
    }
}
