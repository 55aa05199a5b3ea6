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
//! reply": a pre-flow client (no Hello, original opcodes only) round-trips
//! unchanged against a flow-enabled server and is denied with plain error
//! frames, and a `FEATURE_FLOW` peer gets one reply per request and its
//! denials as typed `PublishDenied` frames.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rjms::desim::random::sample_exponential;
use rjms::flow::{FlowConfig, FlowGate};
use rjms::model::params::CostParams;

/// Offered-load phases, seconds of simulated time each.
const PHASE_SECS: f64 = 5.0;

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
                    g.admit_at(producer, priority, false, (self.now_s * 1e9) as u64).is_granted()
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

/// One write of request frames: `first` (request id 1), `publishes`
/// untraced publishes of `message` to topic `t` (ids 2, 3, …), then a ping
/// whose `Pong` marks the end of the replies.
fn pipelined(
    first: rjms::net::Request,
    message: &rjms::broker::Message,
    publishes: u32,
) -> Vec<u8> {
    use rjms::net::wire::{encode_request, Request, WireMessage};
    let message = WireMessage::from_message(message).without_trace();
    let publish =
        |request_id| Request::Publish { request_id, topic: "t".into(), message: message.clone() };
    let ping = Request::Ping { request_id: 2 + publishes };
    let requests = std::iter::once(first).chain((2..2 + publishes).map(publish)).chain([ping]);
    requests.flat_map(|request| encode_request(&request).to_vec()).collect()
}

mod wire_compat {
    //! A flow-enabled server must leave pre-flow clients byte-compatible:
    //! original opcodes in, original opcodes out, no flow frames.

    use rjms::broker::{FlowConfig, Message, Priority};
    use rjms::net::server::BrokerServer;
    use rjms::net::wire::{
        decode_response, encode_request, read_frame, Request, Response, WireFilter, WireMessage,
    };
    use std::io::Write;
    use std::net::TcpStream;

    #[test]
    fn pre_flow_client_round_trips_unchanged_against_a_flow_enabled_server() {
        let config = rjms::broker::BrokerConfig::builder().flow(FlowConfig::default()).build();
        let server = BrokerServer::start(config, "127.0.0.1:0").expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).ok();

        // Pre-flow frames only: no Hello, message without trace context.
        stream
            .write_all(&encode_request(&Request::CreateTopic { request_id: 1, topic: "t".into() }))
            .expect("send create");
        stream
            .write_all(&encode_request(&Request::Subscribe {
                request_id: 2,
                subscription_id: 1,
                topic: "t".into(),
                filter: WireFilter::None,
            }))
            .expect("send subscribe");
        let message = Message::builder().property("k", 7i64).build();
        let wire = WireMessage::from_message(&message).without_trace();
        stream
            .write_all(&encode_request(&Request::Publish {
                request_id: 3,
                topic: "t".into(),
                message: wire,
            }))
            .expect("send publish");

        // Every frame that comes back is from the original opcode set:
        // three Oks and one untraced delivery. In particular no
        // PublishDenied (0x87) frame, nor the retired 0x86, may appear on
        // a connection that never negotiated FEATURE_FLOW.
        //
        // Replies come back in request order, but a delivery is not a
        // reply: the dispatcher and the forwarder can put it on the wire
        // before the connection thread has queued the Ok of the publish
        // that caused it. So the delivery is accepted at either side of
        // the third Ok.
        let mut oks = 0;
        let mut delivery = None;
        while oks < 3 || delivery.is_none() {
            let body = read_frame(&mut stream).expect("read frame").expect("connection open");
            match body[0] {
                0x81 => oks += 1,
                0x83 if delivery.is_none() => delivery = Some(body),
                other => panic!("unexpected response opcode {other:#x} for a pre-flow client"),
            }
        }
        assert_eq!(oks, 3, "all three pre-flow requests answered with plain Ok");
        match decode_response(delivery.expect("loop ends with one")).expect("delivery decodes") {
            Response::Delivery { subscription_id, message } => {
                assert_eq!(subscription_id, 1);
                assert_eq!(message.into_message().property("k"), Some(&7i64.into()));
            }
            other => panic!("expected a pre-flow delivery, got {other:?}"),
        }
        server.shutdown();
    }

    /// Over budget, the compatibility throttle answers a pre-flow client's
    /// shed publishes with plain `Error` frames (0x82).
    #[test]
    fn pre_flow_client_over_budget_is_shed_with_plain_error_frames() {
        let config = rjms::broker::BrokerConfig::builder().flow(FlowConfig::default()).build();
        let server = BrokerServer::start(config, "127.0.0.1:0").expect("bind");
        let burst = server.broker().flow().expect("flow control on").snapshot().bucket_burst;
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

        // No Hello; four buckets' worth of lowest-priority publishes.
        let publishes = 4 * burst.ceil() as u32;
        let create = Request::CreateTopic { request_id: 1, topic: "t".into() };
        let message = Message::builder().priority(Priority::new(0)).build();
        stream.write_all(&super::pipelined(create, &message, publishes)).expect("send burst");

        let (mut oks, mut errors) = (0, 0);
        loop {
            let body = read_frame(&mut stream).expect("read frame").expect("connection open");
            match body[0] {
                0x81 => oks += 1,
                0x82 => errors += 1,
                0x84 => break,
                other => panic!("unexpected response opcode {other:#x} for a pre-flow client"),
            }
        }
        assert_eq!(oks + errors, publishes + 1, "one reply per request");
        assert!(errors > 0, "{publishes} publishes against a bucket of {burst:.0} shed nothing");
        server.shutdown();
    }
}

mod flow_peer {
    //! A peer that advertised `FEATURE_FLOW`: each request gets its reply
    //! and nothing else, and admission's denials come back typed.

    use rjms::broker::{BrokerConfig, FlowConfig, Message, Priority};
    use rjms::model::params::CostParams;
    use rjms::net::wire::{decode_response, read_frame, Request, Response, FEATURE_FLOW};
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
        server.broker().create_topic("t").unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

        let hello = Request::Hello { request_id: 1, features: FEATURE_FLOW };
        let frames = super::pipelined(hello, &Message::builder().build(), 100);
        stream.write_all(&frames).expect("send");

        // Replies in request order and nothing between them: the Hello's
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
        // Table I constants and 100 filters: a budget of at most
        // 1/E[B] ≈ 1 390 msgs/s, a bucket of a twentieth of a second of it.
        let config = BrokerConfig::builder().flow(FlowConfig::default()).build();
        let server = BrokerServer::start(config, "127.0.0.1:0").expect("bind");
        server.broker().create_topic("t").unwrap();
        let gate = server.broker().flow().expect("flow control on");
        assert!(gate.lambda_max() < 1_400.0, "budget {}", gate.lambda_max());
        let attempts = 2 * gate.snapshot().bucket_burst.ceil() as usize;
        let client = RemoteBroker::connect(server.local_addr()).expect("connect");
        let at = |level| Message::builder().priority(Priority::new(level)).build();

        // The burst is a few hundred round trips, well inside the first
        // one-second refresh: the analytic budget holds throughout. The
        // lowest class is admitted down to its reserve, then shed.
        let shed = (0..attempts).find_map(|_| client.publish("t", &at(0)).err());
        assert!(
            matches!(shed, Some(Error::PublishShed { class: 0 })),
            "priority 0 got {shed:?} where the bucket passed its reserve"
        );

        // The top class is never shed: admitted, or deferred with a hint.
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
    //! M/GI/1 servers, so the gate's budget is `k · λ_per_shard` and the
    //! verdict that bounds W99 is the busiest shard's — never one server
    //! assessed at the aggregate arrival rate `Σλ`.

    use rjms::broker::{shard_of, Broker, BrokerConfig, Filter, FlowConfig, Message};
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
        let (mut tightened, mut lowest_budget) = (false, f64::INFINITY);
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
            let now = gate.snapshot();
            tightened |= now.source == "tightened";
            lowest_budget = lowest_budget.min(now.lambda_max);
            std::thread::sleep(Duration::from_millis(1));
        }

        let reports = broker.shard_reports();
        let snapshot = gate.snapshot();
        eprintln!(
            "offered {offered}/s for 3 s: sent {sent}, denied {denied}; gate lambda_max {:.0}/s \
             (lowest {lowest_budget:.0}/s) source {} (tightened seen: {tightened}) after {} refreshes",
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
        assert!(!tightened, "no shard is overloaded, yet the gate tightened its budget");
        assert!(
            lowest_budget >= offered,
            "the budget fell to {lowest_budget:.0}/s, below the {offered}/s the shards carry easily"
        );
        assert_eq!(denied, 0, "an under-budget workload was shed or deferred");
        broker.shutdown();
    }
}
