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
//! A second test checks wire compatibility: a pre-flow client (no Hello,
//! original opcodes only) round-trips unchanged against a flow-enabled
//! server — same response opcodes, no credit frames.

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
    // the FlowConfig defaults. Extra headroom keeps the admitted-traffic
    // target comfortably inside the asserted objective.
    let config = FlowConfig::default().w99_objective(0.010).headroom(1.5).producer_share(1.0);
    let objective = config.w99_objective;
    let gate = FlowGate::new(config);
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

mod wire_compat {
    //! A flow-enabled server must leave pre-flow clients byte-compatible:
    //! original opcodes in, original opcodes out, no credit frames.

    use rjms::broker::{FlowConfig, Message};
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
        // CreditGrant (0x86) or PublishDenied (0x87) frame may appear on
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
}
