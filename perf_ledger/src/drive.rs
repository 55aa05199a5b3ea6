//! The load generators: a closed loop that keeps a window of messages in
//! flight, an open loop that sends on a Poisson schedule, and the
//! two-thread TCP publisher/consumer pair. Each checks every copy it
//! receives and marks window boundaries with a `/proc` sample.
//!
//! There are no stop flags: a loop ends when its own clock passes the
//! last window boundary, and threads hand their results back through
//! their `JoinHandle`.

use crate::inputs::{MessageFactory, PoissonSchedule, SEQ_PROPERTY};
use crate::procfs::{self, ProcSample};
use crate::workloads::{Env, TOPIC};
use rjms_broker::{Message, Publisher, Subscriber};
use rjms_net::{RemoteBroker, RemoteSubscriber};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Messages a closed loop keeps in flight; it refills in bursts of
/// `BURST` whenever that many slots are free.
pub const WINDOW: u64 = 512;
pub const BURST: u64 = 256;
/// One benchmark-side span per this many calls, in traced phases.
pub const SPAN_EVERY: u64 = 64;
/// How long a finished loop waits for copies still in flight.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Name prefix of load-generator threads, for CPU accounting.
pub const GEN_THREAD: &str = "ledger-gen";

/// How long a phase runs and what it records.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub windows: usize,
    pub window: Duration,
    /// Record benchmark-side spans around publish and receive calls.
    pub spans: bool,
    pub latency_every: u64,
}

impl Plan {
    /// `seconds` of measurement cut into windows of about four seconds.
    pub fn new(seconds: f64, warmup: f64, spans: bool, latency_every: u64) -> Plan {
        let windows = ((seconds / 4.0).round() as usize).max(1);
        Plan {
            warmup: Duration::from_secs_f64(warmup),
            windows,
            window: Duration::from_secs_f64(seconds / windows as f64),
            spans,
            latency_every,
        }
    }

    fn total(&self) -> Duration {
        self.warmup + self.window * self.windows as u32
    }
}

/// A window boundary: when it was crossed, how many messages had fully
/// arrived, and the process accounting at that instant.
#[derive(Debug, Clone)]
pub struct Mark {
    pub at: Instant,
    pub completed: u64,
    pub process: ProcSample,
}

/// Crosses the plan's boundaries as the loop's clock passes them.
struct Sampler {
    start: Instant,
    plan: Plan,
    marks: Vec<Mark>,
}

impl Sampler {
    fn new(plan: Plan, start: Instant) -> Self {
        Sampler { start, plan, marks: Vec::with_capacity(plan.windows + 1) }
    }

    fn done(&self) -> bool {
        self.marks.len() > self.plan.windows
    }

    /// Records a mark if `now` is past the next boundary; true once the
    /// last window is closed.
    fn poll(&mut self, now: Instant, completed: u64) -> bool {
        if !self.done() {
            let boundary =
                self.start + self.plan.warmup + self.plan.window * self.marks.len() as u32;
            if now >= boundary {
                self.marks.push(Mark { at: now, completed, process: procfs::sample() });
            }
        }
        self.done()
    }

    /// The open window, if measurement has begun and not ended.
    fn window(&self) -> Option<usize> {
        (!self.marks.is_empty() && !self.done()).then(|| self.marks.len() - 1)
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub marks: Vec<Mark>,
    /// How long the loop waited for each sampled message, per window, ns:
    /// publish to last matching copy on closed loops, due time to last
    /// matching copy on paced ones, `publish()` entry to ack on
    /// `tcp_pubsub`.
    pub latency_ns: Vec<Vec<u32>>,
    /// `tcp_pubsub` only: `publish()` entry to last matching copy, ns.
    pub delivery_ns: Vec<u32>,
    /// Paced only: how long after its due time each message was sent, ns.
    pub late_ns: Vec<u32>,
    /// Span: duration of a `Publisher::publish` call, ns.
    pub publish_call_ns: Vec<u32>,
    /// Span: duration of a receive call per message it returned, ns.
    pub receive_call_ns: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    fn new(plan: &Plan) -> Phase {
        Phase { latency_ns: vec![Vec::new(); plan.windows], ..Phase::default() }
    }
}

fn ns_u32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Checks every copy: on one subscription the sequence numbers of one
/// producer go up without a gap, and the body is the one the message was
/// published with. Producer `p` of `lanes` numbers its messages `p`,
/// `p + lanes`, `p + 2·lanes`, …, so a single producer counts 0, 1, 2, ….
struct Checker<'a> {
    factory: &'a MessageFactory,
    lanes: u64,
    /// Next sequence number expected, by subscription and lane.
    expected: Vec<Vec<u64>>,
    failed: u64,
}

impl<'a> Checker<'a> {
    fn new(factory: &'a MessageFactory, subscriptions: usize, lanes: u64) -> Self {
        Checker { factory, lanes, expected: vec![(0..lanes).collect(); subscriptions], failed: 0 }
    }

    /// Returns the copy's sequence number, if it carries one.
    fn check(&mut self, subscription: usize, copy: &Message) -> Option<u64> {
        let Some(seq) = copy.property(SEQ_PROPERTY).and_then(|v| v.numeric()).map(|s| s as u64)
        else {
            self.failed += 1;
            return None;
        };
        let expected = &mut self.expected[subscription][(seq % self.lanes) as usize];
        if seq != *expected || copy.body()[..] != *self.factory.body_of(seq) {
            self.failed += 1;
        }
        *expected = (*expected).max(seq + self.lanes);
        Some(seq)
    }

    /// Messages whose every copy has arrived.
    fn completed(&self) -> u64 {
        let arrived = |lanes: &Vec<u64>| lanes.iter().map(|e| e / self.lanes).sum::<u64>();
        self.expected.iter().map(arrived).min().unwrap_or(0)
    }

    /// Copies still missing, when lane `p` published every number below
    /// `next[p]`.
    fn missing(&self, next: &[u64]) -> u64 {
        let of = |lanes: &Vec<u64>| {
            lanes.iter().zip(next).map(|(e, n)| n.saturating_sub(*e) / self.lanes).sum::<u64>()
        };
        self.expected.iter().map(of).sum()
    }

    /// Everything wrong at the end of a run.
    fn failures(&self, next: &[u64]) -> u64 {
        self.failed + self.missing(next)
    }
}

/// How a closed loop hands messages over and takes copies back.
pub trait Transport {
    type Copy: Borrow<Message>;
    /// False when the program refused the message.
    fn publish(&self, message: Message) -> bool;
    /// Every copy now waiting on matching subscription `index`.
    fn drain(&self, index: usize) -> Vec<Self::Copy>;
    fn subscriptions(&self) -> usize;
    /// Called when the window is full and nothing was waiting.
    fn wait(&self);
}

pub struct InprocTransport<'a> {
    pub publisher: &'a Publisher,
    pub matching: &'a [Subscriber],
}

impl Transport for InprocTransport<'_> {
    type Copy = Arc<Message>;

    fn publish(&self, message: Message) -> bool {
        self.publisher.publish(message).is_ok()
    }

    fn drain(&self, index: usize) -> Vec<Arc<Message>> {
        self.matching[index].drain()
    }

    fn subscriptions(&self) -> usize {
        self.matching.len()
    }

    /// The dispatcher has the other core to itself, so spin.
    fn wait(&self) {
        std::hint::spin_loop();
    }
}

pub struct TcpDeliveryTransport<'a> {
    pub publisher: &'a Publisher,
    pub matching: &'a [RemoteSubscriber],
}

impl Transport for TcpDeliveryTransport<'_> {
    type Copy = Message;

    fn publish(&self, message: Message) -> bool {
        self.publisher.publish(message).is_ok()
    }

    fn drain(&self, index: usize) -> Vec<Message> {
        std::iter::from_fn(|| self.matching[index].try_receive()).collect()
    }

    fn subscriptions(&self) -> usize {
        self.matching.len()
    }

    /// The server and client threads outnumber the cores; spinning here
    /// would take CPU from the path being measured.
    fn wait(&self) {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Saturating closed loop on the calling thread: at most `WINDOW`
/// messages in flight, held back only by the program's own push-back.
pub fn closed_loop<T: Transport>(transport: &T, factory: &MessageFactory, plan: Plan) -> Phase {
    let start = Instant::now();
    let mut sampler = Sampler::new(plan, start);
    let mut checker = Checker::new(factory, transport.subscriptions(), 1);
    let mut phase = Phase::new(&plan);
    // Send times of sampled messages; a slot is reused only after more
    // than a window of later messages, so it is read before it is lost.
    let slots = (WINDOW / plan.latency_every + 1) as usize;
    let mut sent_at = vec![start; slots];
    let slot = |seq: u64| (seq / plan.latency_every) as usize % slots;
    let last = transport.subscriptions() - 1;
    let (mut published, mut completed, mut drains) = (0u64, 0u64, 0u64);
    let mut drain_until = None;

    loop {
        if drain_until.is_none() && published - completed <= WINDOW - BURST {
            for _ in 0..BURST {
                let message = factory.message(published);
                let sampled = published % plan.latency_every == 0;
                let span = plan.spans && published % SPAN_EVERY == 0;
                let entry = (sampled || span).then(Instant::now);
                if let (true, Some(t)) = (sampled, entry) {
                    sent_at[slot(published)] = t;
                }
                if !transport.publish(message) {
                    phase.failed += 1;
                }
                if let (true, Some(t)) = (span, entry) {
                    phase.publish_call_ns.push(ns_u32(t.elapsed()));
                }
                published += 1;
            }
        }
        let mut received = 0;
        for index in 0..=last {
            drains += 1;
            let span = (plan.spans && drains % SPAN_EVERY == 0).then(Instant::now);
            let copies = transport.drain(index);
            if let (Some(t), false) = (span, copies.is_empty()) {
                phase.receive_call_ns.push(ns_u32(t.elapsed()) / copies.len() as u32);
            }
            received += copies.len();
            for copy in &copies {
                let sampled = checker
                    .check(index, copy.borrow())
                    .filter(|seq| index == last && seq % plan.latency_every == 0);
                if let (Some(seq), Some(w)) = (sampled, sampler.window()) {
                    phase.latency_ns[w].push(ns_u32(sent_at[slot(seq)].elapsed()));
                }
            }
        }
        completed = checker.completed();
        let now = Instant::now();
        match drain_until {
            None if sampler.poll(now, completed) => drain_until = Some(now + DRAIN_TIMEOUT),
            Some(deadline) if completed >= published || now > deadline => break,
            _ => {}
        }
        let full = published - completed > WINDOW - BURST;
        if received == 0 && (full || drain_until.is_some()) {
            transport.wait();
        }
    }
    phase.marks = sampler.marks;
    phase.attempted = published;
    phase.failed += checker.failures(&[published]);
    phase
}

/// Open loop on the calling thread: sends on the seeded Poisson schedule
/// and polls the subscriptions in between. Latency runs from the time a
/// message was due, so a stalled generator does not hide queueing.
pub fn paced_loop(
    publisher: &Publisher,
    matching: &[Subscriber],
    factory: &MessageFactory,
    plan: Plan,
    seed: u64,
    rate: f64,
) -> Phase {
    let start = Instant::now();
    let since_start = || start.elapsed().as_nanos() as u64;
    let mut sampler = Sampler::new(plan, start);
    let mut checker = Checker::new(factory, matching.len(), 1);
    let mut phase = Phase::new(&plan);
    let mut schedule = PoissonSchedule::new(seed, rate);
    let end_ns = plan.total().as_nanos() as u64;
    // Due times by sequence number; the backlog stays far below the ring.
    const RING: usize = 1 << 16;
    let mut due_ring = vec![0u64; RING];
    let last = matching.len() - 1;
    let (mut published, mut polls) = (0u64, 0u64);
    let mut next_due = schedule.next();
    let mut drain_until = None;

    loop {
        let now = Instant::now();
        let now_ns = (now - start).as_nanos() as u64;
        if let Some(due) = next_due.filter(|due| *due <= now_ns) {
            due_ring[published as usize % RING] = due;
            if published % plan.latency_every == 0 && sampler.window().is_some() {
                phase.late_ns.push((now_ns - due).min(u64::from(u32::MAX)) as u32);
            }
            let message = factory.message(published);
            let span = (plan.spans && published % SPAN_EVERY == 0).then(Instant::now);
            if publisher.publish(message).is_err() {
                phase.failed += 1;
            }
            if let Some(t) = span {
                phase.publish_call_ns.push(ns_u32(t.elapsed()));
            }
            published += 1;
            next_due = schedule.next().filter(|due| *due < end_ns);
        }
        for (index, subscriber) in matching.iter().enumerate() {
            polls += 1;
            let span = (plan.spans && polls % SPAN_EVERY == 0).then(Instant::now);
            let Some(copy) = subscriber.try_receive() else { continue };
            if let Some(t) = span {
                phase.receive_call_ns.push(ns_u32(t.elapsed()));
            }
            let sampled = checker
                .check(index, &copy)
                .filter(|seq| index == last && seq % plan.latency_every == 0);
            if let (Some(seq), Some(w)) = (sampled, sampler.window()) {
                let latency = since_start().saturating_sub(due_ring[seq as usize % RING]);
                phase.latency_ns[w].push(latency.min(u64::from(u32::MAX)) as u32);
            }
        }
        sampler.poll(now, checker.completed());
        match drain_until {
            None if next_due.is_none() => drain_until = Some(now + DRAIN_TIMEOUT),
            // A schedule the generator cannot keep ends with unsent
            // messages; they count as failed below.
            None if now > start + plan.total() + DRAIN_TIMEOUT => break,
            Some(deadline) if checker.completed() >= published || now > deadline => break,
            _ => {}
        }
    }
    // Scheduled but never sent, because the generator fell too far behind.
    let unsent = next_due.map_or(0, |_| 1 + schedule.take_while(|due| *due < end_ns).count());
    // A run that ends before its last boundary (empty schedule tail)
    // closes the window where it stands.
    while !sampler.poll(Instant::now(), checker.completed()) {
        std::thread::sleep(Duration::from_millis(1));
    }
    phase.marks = sampler.marks;
    phase.attempted = published + unsent as u64;
    phase.failed += checker.failures(&[published]) + unsent as u64;
    phase
}

/// Producer threads of `tcp_pubsub`, all on one connection, each with
/// one synchronous `publish()` outstanding. A single one makes the run a
/// chain of a dozen thread wake-ups on two cores, and its 4 s windows
/// differ by a quarter; four keep the connection busy while the threads
/// themselves are parked on the reply nearly all the time.
pub const PUBLISHERS: u64 = 4;
/// Messages `tcp_pubsub` lets the consumer fall behind the producers: it
/// bounds the server's unbounded outbound queue, and with it the memory
/// a run peaks at.
const PUBSUB_LAG: u64 = 64;

/// `tcp_pubsub`: the loop closes on the acknowledgement, as it does for a
/// user of `rjms-pub`, so `latency_ns` is `publish()` entry to ack. This
/// thread consumes from the second connection, checks every copy and
/// marks the windows; delivery runs behind the acks by a varying amount
/// (the server does not set TCP_NODELAY), which `delivery_ns` records.
pub fn pubsub_loop(
    publisher: &RemoteBroker,
    matching: &[RemoteSubscriber],
    factory: &MessageFactory,
    plan: Plan,
) -> Phase {
    let start = Instant::now();
    let end = start + plan.total();
    // Publish-entry times of sampled messages.
    let (entry_tx, entry_rx) = mpsc::channel::<(u64, Instant)>();
    // Messages fully consumed, for the producers' `PUBSUB_LAG` check.
    let consumed = Mutex::new(0u64);

    let produce = |lane: u64, entry_tx: mpsc::Sender<(u64, Instant)>| {
        let mut rtt: Vec<Vec<u32>> = vec![Vec::new(); plan.windows];
        let (mut seq, mut failed) = (lane, 0u64);
        loop {
            if (seq / PUBLISHERS).is_multiple_of(4) {
                if Instant::now() >= end {
                    break;
                }
                while seq.saturating_sub(*consumed.lock().expect("consumer panicked")) > PUBSUB_LAG
                    && Instant::now() < end
                {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            let message = factory.message(seq);
            let entry = Instant::now();
            if seq % plan.latency_every == 0 {
                let _ = entry_tx.send((seq, entry));
            }
            if publisher.publish(TOPIC, &message).is_err() {
                failed += 1;
            }
            let acked = Instant::now();
            let measured = acked.checked_duration_since(start + plan.warmup);
            let window = measured.map(|d| (d.as_nanos() / plan.window.as_nanos()) as usize);
            if let Some(w) = window.filter(|w| *w < plan.windows) {
                rtt[w].push(ns_u32(acked - entry));
            }
            seq += PUBLISHERS;
        }
        (seq, failed, rtt)
    };

    std::thread::scope(|scope| {
        let producers: Vec<_> = (0..PUBLISHERS)
            .map(|lane| {
                let entry_tx = entry_tx.clone();
                std::thread::Builder::new()
                    .name(format!("{GEN_THREAD}-pub{lane}"))
                    .spawn_scoped(scope, move || produce(lane, entry_tx))
                    .expect("spawn producer thread")
            })
            .collect();

        let mut sampler = Sampler::new(plan, start);
        let mut checker = Checker::new(factory, matching.len(), PUBLISHERS);
        let mut phase = Phase::new(&plan);
        let last = matching.len() - 1;
        let mut entries = HashMap::new();
        let mut reported = 0;
        let mut producers = Some(producers);
        // Once the producers are done: the number each lane stopped at,
        // and how long to wait for copies still on their way.
        let mut finished: Option<(Vec<u64>, Instant)> = None;
        loop {
            // Take whatever is there without blocking; park on the first
            // subscription only when all of them are empty.
            let mut copies: Vec<(usize, Message)> = Vec::new();
            for (index, subscriber) in matching.iter().enumerate() {
                copies.extend(std::iter::from_fn(|| subscriber.try_receive()).map(|c| (index, c)));
            }
            if copies.is_empty() {
                copies
                    .extend(matching[0].receive_timeout(Duration::from_millis(20)).map(|c| (0, c)));
            }
            for (index, copy) in &copies {
                let sampled = checker
                    .check(*index, copy)
                    .filter(|seq| *index == last && seq % plan.latency_every == 0);
                if let Some(seq) = sampled {
                    entries.extend(entry_rx.try_iter());
                    if let (Some(entry), Some(_)) = (entries.remove(&seq), sampler.window()) {
                        phase.delivery_ns.push(ns_u32(entry.elapsed()));
                    }
                }
            }
            let completed = checker.completed();
            if completed >= reported + 4 {
                *consumed.lock().expect("producer panicked") = completed;
                reported = completed;
            }
            let now = Instant::now();
            sampler.poll(now, completed);
            if producers.as_ref().is_some_and(|all| all.iter().all(|p| p.is_finished())) {
                let mut next = Vec::new();
                for producer in producers.take().expect("checked above") {
                    let (seq, failed, rtt) = producer.join().expect("producer thread panicked");
                    next.push(seq);
                    phase.failed += failed;
                    for (all, own) in phase.latency_ns.iter_mut().zip(rtt) {
                        all.extend(own);
                    }
                }
                finished = Some((next, now + DRAIN_TIMEOUT));
            }
            if let Some((next, deadline)) = &finished {
                if sampler.done() && (checker.missing(next) == 0 || now > *deadline) {
                    break;
                }
            }
        }
        let (next, _) = finished.expect("the loop ends after the producers");
        phase.marks = sampler.marks;
        phase.attempted = next.iter().zip(0..).map(|(seq, lane)| (seq - lane) / PUBLISHERS).sum();
        phase.failed += checker.failures(&next);
        phase
    })
}

/// Runs `w`'s measurement phase on a named generator thread.
pub fn run_phase(
    env: &Env,
    factory: &MessageFactory,
    plan: Plan,
    seed: u64,
    rate: Option<f64>,
) -> Phase {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name(format!("{GEN_THREAD}-0"))
            .spawn_scoped(scope, || match env {
                Env::Inproc { publisher, matching, .. } => match rate {
                    Some(rate) => paced_loop(publisher, matching, factory, plan, seed, rate),
                    None => closed_loop(&InprocTransport { publisher, matching }, factory, plan),
                },
                Env::TcpDelivery { publisher, matching, .. } => {
                    closed_loop(&TcpDeliveryTransport { publisher, matching }, factory, plan)
                }
                Env::TcpPubsub { publisher, matching, .. } => {
                    pubsub_loop(publisher, matching, factory, plan)
                }
            })
            .expect("spawn generator thread")
            .join()
            .expect("generator thread panicked")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{CORRELATION_ID, KEY_PROPERTY};

    #[test]
    fn plan_cuts_seconds_into_windows_of_about_four() {
        let plan = Plan::new(12.0, 1.0, false, 16);
        assert_eq!((plan.windows, plan.window), (3, Duration::from_secs(4)));
        assert_eq!(plan.total(), Duration::from_secs(13));
        assert_eq!(Plan::new(0.5, 0.1, false, 16).windows, 1);
        assert_eq!(Plan::new(10.0, 1.0, false, 16).window, Duration::from_secs_f64(10.0 / 3.0));
    }

    #[test]
    fn sampler_marks_each_boundary_once() {
        let plan = Plan::new(8.0, 1.0, false, 16);
        let start = Instant::now();
        let mut sampler = Sampler::new(plan, start);
        assert!(!sampler.poll(start, 0));
        assert_eq!(sampler.window(), None, "warm-up is not a window");
        assert!(!sampler.poll(start + Duration::from_secs(1), 10));
        assert_eq!(sampler.window(), Some(0));
        assert!(!sampler.poll(start + Duration::from_secs(2), 20));
        assert!(!sampler.poll(start + Duration::from_secs(5), 50));
        assert_eq!(sampler.window(), Some(1));
        assert!(sampler.poll(start + Duration::from_secs(9), 90));
        assert_eq!(sampler.window(), None);
        assert!(sampler.poll(start + Duration::from_secs(20), 200), "no mark after the last");
        let completed: Vec<u64> = sampler.marks.iter().map(|m| m.completed).collect();
        assert_eq!(completed, [10, 50, 90]);
    }

    #[test]
    fn checker_accepts_each_message_once_in_order_on_every_subscription() {
        let factory = MessageFactory::new(1, 64);
        let mut checker = Checker::new(&factory, 2, 1);
        for seq in 0..5 {
            assert_eq!(checker.check(0, &factory.message(seq)), Some(seq));
        }
        assert_eq!(checker.completed(), 0, "the second subscription has nothing yet");
        for seq in 0..3 {
            checker.check(1, &factory.message(seq));
        }
        assert_eq!(checker.completed(), 3);
        assert_eq!(checker.failures(&[5]), 2, "two copies still missing");
        assert_eq!(checker.failed, 0);
    }

    #[test]
    fn checker_counts_loss_duplicates_reordering_and_damage() {
        let factory = MessageFactory::new(1, 64);
        let mut checker = Checker::new(&factory, 1, 1);
        checker.check(0, &factory.message(0));
        checker.check(0, &factory.message(2)); // 1 is lost
        assert_eq!(checker.failed, 1);
        checker.check(0, &factory.message(2)); // duplicate
        assert_eq!(checker.failed, 2);
        checker.check(0, &factory.message(1)); // late
        assert_eq!(checker.failed, 3);
        checker.check(0, &factory.message(3));
        assert_eq!(checker.failed, 3, "back in step");
        let wrong_body = Message::builder()
            .correlation_id(CORRELATION_ID)
            .property(KEY_PROPERTY, 0i64)
            .property(SEQ_PROPERTY, 4i64)
            .body(factory.body_of(5).to_vec())
            .build();
        checker.check(0, &wrong_body);
        assert_eq!(checker.failed, 4);
        assert_eq!(checker.check(0, &Message::builder().build()), None, "no sequence number");
        assert_eq!(checker.failed, 5);
    }

    #[test]
    fn checker_follows_each_producer_lane_on_its_own() {
        let factory = MessageFactory::new(1, 64);
        let mut checker = Checker::new(&factory, 1, 4);
        // Producers 0..4 number their messages p, p + 4, p + 8, …; the
        // lanes interleave in any order.
        for seq in [1, 0, 5, 2, 4, 3, 9, 8] {
            checker.check(0, &factory.message(seq));
        }
        assert_eq!(checker.failed, 0);
        assert_eq!(checker.completed(), 8);
        assert_eq!(checker.failures(&[12, 13, 6, 7]), 0);
        assert_eq!(checker.failures(&[16, 13, 6, 7]), 1, "lane 0 published 12, which is missing");
        checker.check(0, &factory.message(17)); // lane 1 skips 13
        assert_eq!(checker.failed, 1);
    }
}
