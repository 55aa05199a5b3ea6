//! The overhead gates: what each layer of telemetry may cost the dispatcher.
//!
//! Telemetry rides the dispatch path, so its cost is a `t_*` term of its
//! own in the paper's service-time model (Eq. 1). Each row of [`GATES`]
//! bounds one such term: the same broker runs with the feature off and on,
//! and the feature may add at most the row's budget, in nanoseconds per
//! message.
//!
//! **Workload.** The broker as shipped, with no cost model: 64
//! correlation-ID filters per topic, one of which matches. A message costs
//! the dispatch machinery alone, about a microsecond, so a feature's fixed
//! per-message cost is not hidden under synthetic service time.
//!
//! **One measurement** ([`saturated_run`]) publishes a fixed count from
//! the bench thread and times until the broker has received all of it — a
//! fixed amount of work, unlike a duration window, which on a one- or
//! two-CPU host measures the scheduler. The bounded publish queue
//! back-pressures the publisher, so once it fills the elapsed time is the
//! dispatcher's service time. Nothing drains the subscriber queues: they
//! hold every copy of a run, so throughput never depends on consumer
//! scheduling.
//!
//! **One pairing** ([`paired`]) alternates which arm runs first from one
//! repetition to the next, so that slow drift (thermal, background load)
//! cancels, and the estimate is the median of the per-repetition
//! differences in time per message, `1e9/on − 1e9/off`
//! ([`Pair::ns_per_msg`]): the feature's own `t_feature`.
//!
//! `ext_overhead [gate…] [--smoke]` runs the named gates (all when none is
//! named), prints each one's `feature cost … ns/msg [GATE: budget …]` line,
//! and exits non-zero when a feature is over budget, so CI runs it as a
//! regression gate. `--smoke` runs fewer pairs per gate than a full run.

use crate::{experiment_header, Table};
use rjms_broker::{
    Broker, BrokerConfig, BrokerConfigBuilder, Filter, FlowConfig, Message, MetricsConfig,
    OverflowPolicy, Publisher, TopicObsConfig, TraceConfig,
};
use rjms_core::CostParams;
use rjms_obs::{ForecastConfig, ObsConfig, ObsCore, ObsRuntime};
use std::any::Any;
use std::time::{Duration, Instant};

/// Filters installed per bench topic (one of them matches).
const N_FILTERS: u32 = 64;

/// One saturated fixed-count run; returns received msgs/s.
///
/// Warms up with `n / 10` messages, then publishes `n` round-robin over
/// `publishers` and spins until the broker has received them all. Every
/// message carries the correlation ID `#0`, the one the gates' topology
/// matches; unfiltered subscriptions ignore it. The broker is left running.
pub fn saturated_run(broker: &Broker, publishers: &[Publisher], n: u64) -> f64 {
    let publish = |i: u64| {
        publishers[i as usize % publishers.len()]
            .publish(Message::builder().correlation_id("#0").build())
            .unwrap();
    };
    let warmup = n / 10;
    (0..warmup).for_each(publish);
    while broker.snapshot().messages.received < warmup {
        std::thread::sleep(Duration::from_millis(1));
    }
    let t0 = Instant::now();
    (0..n).for_each(publish);
    let total = warmup + n;
    while broker.snapshot().messages.received < total {
        std::thread::yield_now();
    }
    n as f64 / t0.elapsed().as_secs_f64()
}

/// One repetition's two throughputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pair {
    /// msgs/s with the feature off.
    pub off: f64,
    /// msgs/s with the feature on.
    pub on: f64,
}

impl Pair {
    /// What the feature added to each message, in nanoseconds (negative:
    /// the `on` arm was faster).
    pub fn ns_per_msg(&self) -> f64 {
        1e9 / self.on - 1e9 / self.off
    }
}

/// Runs `measure(on)` for both arms `reps` times, alternating which arm
/// goes first.
pub fn paired(reps: usize, mut measure: impl FnMut(bool) -> f64) -> Vec<Pair> {
    (0..reps)
        .map(|rep| {
            if rep % 2 == 0 {
                let off = measure(false);
                Pair { off, on: measure(true) }
            } else {
                let on = measure(true);
                Pair { off: measure(false), on }
            }
        })
        .collect()
}

/// The median (the upper one of an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("throughputs are not NaN"));
    values[values.len() / 2]
}

/// Messages per run, about 0.2 s at native speed. A run and its warm-up
/// publish 220 k copies to a topic's matching subscriber, which its queue
/// holds: a copy dropped on a full queue is freed on the dispatcher, and
/// runs of 400 k and 800 k that reached that regime lost 40–50 % of their
/// throughput.
const MESSAGES: u64 = 200_000;

/// Holds every copy a run delivers.
const SUBSCRIBER_QUEUE: usize = 1 << 18;
const _: () = assert!(MESSAGES + MESSAGES / 10 <= SUBSCRIBER_QUEUE as u64);

/// Paired repetitions under `--smoke`, CI's gate. Single pairs spread by
/// ±100–300 ns on a shared 2-vCPU host, the median of 11 by about 45 ns.
const SMOKE_REPS: usize = 11;

/// Paired repetitions without `--smoke`.
const FULL_REPS: usize = 21;

/// A reading taken from the broker of the `on` arm after its run, shown as
/// one more column.
#[derive(Debug, Clone, Copy)]
pub struct After {
    /// Checks the broker and returns the reading; `rate` is the run's
    /// msgs/s.
    pub check: fn(&Broker, rate: f64) -> f64,
    /// The table column's header.
    pub column: &'static str,
    /// The summary line; `{}` is the largest reading.
    pub summary: &'static str,
}

/// One overhead gate.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Short name: the command-line argument, and `ext_<name>_overhead` is
    /// the header id.
    pub name: &'static str,
    /// The EXPERIMENTS.md section.
    pub section: &'static str,
    /// One line on what is compared.
    pub description: &'static str,
    /// What the off/on table columns are labelled with.
    pub label: &'static str,
    /// The PASS/FAIL line; `{}` is "is within" or "exceeds".
    pub verdict: &'static str,
    /// Largest accepted cost of the feature, in nanoseconds per message.
    pub budget_ns: f64,
    /// Topics the traffic is spread over, each with its own 64 filters.
    pub topics: usize,
    /// What the baseline is, printed under the workload line.
    pub note: &'static str,
    /// Adds what the arm (`on` or off) runs with to the shared builder.
    pub configure: fn(BrokerConfigBuilder, on: bool) -> BrokerConfigBuilder,
    /// Starts what runs beside the broker; dropped before shutdown.
    pub attach: fn(&Broker, on: bool) -> Option<Box<dyn Any>>,
    /// A post-run check and reading of the `on` arm.
    pub after: Option<After>,
}

fn with_metrics(builder: BrokerConfigBuilder) -> BrokerConfigBuilder {
    builder.metrics(MetricsConfig::default())
}

/// The sampler runs 40× as often as the production default of 1 s, so the
/// gate bounds a deliberately adversarial configuration: at the default
/// interval the true cost is ~1/40 of what is measured.
const SAMPLE_EVERY: Duration = Duration::from_millis(25);

/// The SLO engine sampling `broker`'s registry, forecasting or not.
fn sampler(broker: &Broker, forecast: bool) -> Box<dyn Any> {
    let config = ObsConfig {
        forecast: ForecastConfig { enabled: forecast, ..ForecastConfig::default() },
        ..ObsConfig::default()
    };
    let registry = broker.metrics().expect("both arms run with metrics");
    Box::new(ObsRuntime::start(ObsCore::new(config), registry, None, SAMPLE_EVERY, Vec::new))
}

/// The flow gate's seed model, a native-speed message: with 64 filters and
/// one copy `E[B]` = 30 + 64 × 1.25 + 40 ns = 0.15 µs, under a fifth of the
/// 0.8–1.3 µs the workload takes, so `λ_max` sits at least 4× above the
/// broker's dispatch capacity and the one publisher's half of it at least
/// 2×: a broker twice as fast still sees no producer-bucket defer.
const NATIVE_SEED: CostParams =
    CostParams { t_rcv: 30e-9, t_fltr: 1.25e-9, t_tx: 40e-9, t_store: 0.0 };

fn flow_gate(builder: BrokerConfigBuilder, on: bool) -> BrokerConfigBuilder {
    if !on {
        return with_metrics(builder);
    }
    // Long refresh interval: no dispatcher may re-invert its lane's
    // budget mid-measurement. The one producer may take half of `λ_max`,
    // still above what the broker can dispatch.
    with_metrics(builder).flow(
        FlowConfig::default()
            .params(NATIVE_SEED)
            .filters(N_FILTERS)
            .w99_objective(0.010)
            .refresh_interval_ms(60_000),
    )
}

/// Budget utilization of the run; panics if the gate deferred or shed
/// anything, because the pairing would then compare unequal work.
fn flow_utilization(broker: &Broker, rate: f64) -> f64 {
    let snap = broker.flow().expect("the `on` arm runs the gate").snapshot();
    let (deferred, shed): (u64, u64) =
        snap.per_class.iter().fold((0, 0), |(d, s), c| (d + c.deferred, s + c.shed));
    assert_eq!(
        (deferred, shed),
        (0, 0),
        "the gate interfered below budget (deferred {deferred}, shed {shed}): \
         the off/on pairing would compare unequal work"
    );
    rate / snap.lambda_max
}

/// The six gates. Each budget is the largest median of 25 rounds on a
/// shared 2-vCPU host plus about 60 ns, rounded up to a multiple of 50 ns;
/// EXPERIMENTS.md has the rounds.
pub static GATES: [Gate; 6] = [
    // The metrics layer (per-message waiting/service/sojourn histograms
    // plus the sampled Eq. 1 stage decomposition) sits directly on the
    // dispatcher hot path. The baseline is a broker with no telemetry at
    // all. Per message: two clock reads (publish stamp + fan-out end; the
    // dispatch start reuses the previous end; a stage-sampled message adds
    // one per stage boundary), a backlog read and three staged samples.
    Gate {
        name: "observer",
        section: "extension (observability)",
        description: "per-message cost of the metrics layer: dispatch with it on vs off",
        label: "metrics",
        verdict: "metrics layer {} its budget",
        budget_ns: 500.0,
        topics: 1,
        note: "",
        configure: |builder, on| if on { with_metrics(builder) } else { builder },
        attach: |_, _| None,
        after: None,
    },
    // Tracing arms the stage stopwatch for *every* message (the tail
    // decision is post-hoc, so durations must exist before the verdict):
    // four TSC reads here, one per stage boundary. It adds a threshold
    // comparison, a periodic quantile refresh, and — for kept messages —
    // four ring writes. Metrics are on in both arms, because tracing
    // requires the sojourn histogram: the difference isolates the recorder,
    // not the instruments underneath it. Default tail quantile and uniform
    // baseline, so the kept fraction is production's.
    Gate {
        name: "trace",
        section: "extension (observability)",
        description: "per-message cost of the flight recorder: dispatch with it on vs off",
        label: "trace",
        verdict: "flight recorder {} its budget",
        budget_ns: 650.0,
        topics: 1,
        note: "baseline is metrics-on in both: the diff isolates the recorder",
        configure: |builder, on| {
            let builder = with_metrics(builder);
            if on {
                builder.trace(TraceConfig::default())
            } else {
                builder
            }
        },
        attach: |_, _| None,
        after: None,
    },
    // The SLO engine never touches the dispatcher: a sampling thread
    // snapshots the registry, folds the delta into the history rings and
    // evaluates the burn-rate objectives. Its dispatch-path footprint is
    // registry *contention* — the snapshot reads every counter cell and
    // histogram bucket while the dispatcher writes them. Metrics on in
    // both arms (the engine requires them); sampler at `SAMPLE_EVERY`.
    Gate {
        name: "obs",
        section: "extension (observability)",
        description: "per-message cost of the SLO engine: dispatch with it sampling vs not",
        label: "obs",
        verdict: "SLO engine {} its budget",
        budget_ns: 150.0,
        topics: 1,
        note: "baseline is metrics-on in both; sampler at 25 ms (production default 1 s)",
        configure: |builder, _| with_metrics(builder),
        attach: |broker, on| on.then(|| sampler(broker, false)),
        after: None,
    },
    // One token-bucket check under a mutex on every publish, plus a
    // decision-latency histogram sample. Measured with the gate's budget
    // *above* the offered load (`NATIVE_SEED`), the production regime:
    // below budget, admission control must shed nothing
    // (`flow_utilization` asserts it) and cost little.
    Gate {
        name: "flow",
        section: "extension (flow control)",
        description: "per-message cost of the admission gate below budget: publish with it on \
                      vs off",
        label: "flow",
        verdict: "admission gate {} its budget below lambda_max",
        budget_ns: 200.0,
        topics: 1,
        note: "gate seeded with E[B] = 0.15 us (t_rcv 30 ns, t_fltr 1.25 ns, t_tx 40 ns), so \
               lambda_max sits >= 4x above capacity",
        configure: flow_gate,
        attach: |_, _| None,
        after: Some(After {
            check: flow_utilization,
            column: "rho (budget)",
            summary: "peak budget utilization across reps: rho = {} (regime: rho <= 0.25)",
        }),
    },
    // One uncontended lock of the topic's observatory account and ten
    // floating-point accumulations into its regression sums per message.
    // Traffic is spread over eight topics so that eight accounts are
    // written. Metrics on in both arms (the observatory implies them).
    Gate {
        name: "topic_obs",
        section: "extension (observability)",
        description: "per-message cost of the per-topic observatory: dispatch with it recording \
                      vs not",
        label: "obs",
        verdict: "per-topic observatory {} its budget",
        budget_ns: 200.0,
        topics: 8,
        note: "baseline is metrics-on in both; observatory at its default cap",
        configure: |builder, on| {
            let builder = with_metrics(builder);
            if on {
                builder.topic_obs(TopicObsConfig::default())
            } else {
                builder
            }
        },
        attach: |_, _| None,
        after: None,
    },
    // The forecaster is sampler-side arithmetic: each engine tick fits an
    // arrival-rate trend over the history rings, moment-matches the
    // measured service distribution and inverts Eq. 1 + M/GI/1 for the
    // saturation and W99-breach rates. Metrics *and* the SLO engine run in
    // both arms, so the difference isolates the forecast stage: registry
    // contention plus the tick-thread CPU it takes from the broker's
    // cores, at `SAMPLE_EVERY`.
    Gate {
        name: "forecast",
        section: "extension (observability)",
        description: "per-message cost of the saturation forecaster: dispatch with it on vs off",
        label: "forecast",
        verdict: "the forecaster {} its budget",
        budget_ns: 200.0,
        topics: 1,
        note: "baseline is metrics + SLO engine in both; sampler at 25 ms \
               (production default 1 s)",
        configure: |builder, _| with_metrics(builder),
        attach: |broker, on| Some(sampler(broker, on)),
        after: None,
    },
];

impl Gate {
    /// One arm's run on a broker of its own: msgs/s, and the `after`
    /// reading of an `on` arm.
    fn measure(&self, on: bool) -> (f64, Option<f64>) {
        let builder = BrokerConfig::builder()
            .publish_queue_capacity(256)
            .subscriber_queue_capacity(SUBSCRIBER_QUEUE)
            .overflow_policy(OverflowPolicy::DropNew);
        let broker = Broker::start((self.configure)(builder, on).build());
        // Per topic one matching subscriber and 63 that do not match: the
        // dispatcher scans all 64 filters per message and copies once.
        let mut publishers = Vec::with_capacity(self.topics);
        let mut subscribers = Vec::new();
        for t in 0..self.topics {
            let topic = format!("bench-{t}");
            broker.create_topic(&topic).unwrap();
            for i in 0..N_FILTERS {
                let filter = Filter::correlation_id(&format!("#{i}")).unwrap();
                subscribers.push(broker.subscription(&topic).filter(filter).open().unwrap());
            }
            publishers.push(broker.publisher(&topic).unwrap());
        }
        let side_car = (self.attach)(&broker, on);
        let rate = saturated_run(&broker, &publishers, MESSAGES);
        let reading = self.after.filter(|_| on).map(|after| (after.check)(&broker, rate));
        drop(side_car); // joins its thread before the broker goes away
        broker.shutdown();
        (rate, reading)
    }

    /// The feature's cost, the median of the pairs' ns per message, and
    /// whether it is within the budget.
    fn judge(&self, pairs: &[Pair]) -> (f64, bool) {
        let cost = median(pairs.iter().map(Pair::ns_per_msg).collect());
        (cost, cost <= self.budget_ns)
    }

    /// Runs the gate and prints its table; `true` when the feature's cost
    /// is within the budget.
    pub fn run(&self, smoke: bool) -> bool {
        let id = format!("ext_{}_overhead", self.name);
        let reps = if smoke { SMOKE_REPS } else { FULL_REPS };
        experiment_header(&id, self.section, self.description);
        if smoke {
            println!("smoke mode: fewer repetitions, CI regression gate\n");
        }
        let spread = match self.topics {
            1 => String::new(),
            topics => format!(" x {topics} topics"),
        };
        println!(
            "workload: no cost model, {N_FILTERS} filters{spread}, {MESSAGES} messages per run"
        );
        if !self.note.is_empty() {
            println!("{}", self.note);
        }
        println!();

        let label = self.label;
        let mut headers = vec![
            "rep".to_owned(),
            format!("{label} off (msg/s)"),
            format!("{label} on (msg/s)"),
            "ns/msg".to_owned(),
        ];
        headers.extend(self.after.map(|after| after.column.to_owned()));
        let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(&headers);
        let mut readings = Vec::new();
        let pairs = paired(reps, |on| {
            let (rate, reading) = self.measure(on);
            readings.extend(reading);
            rate
        });
        for (rep, pair) in pairs.iter().enumerate() {
            let mut cells = vec![
                (rep + 1).to_string(),
                format!("{:.0}", pair.off),
                format!("{:.0}", pair.on),
                format!("{:+.1}", pair.ns_per_msg()),
            ];
            cells.extend(readings.get(rep).map(|reading| format!("{reading:.2}")));
            table.row_strings(cells);
        }
        table.print();

        let (cost, pass) = self.judge(&pairs);
        println!();
        println!(
            "feature cost (median of paired diffs): {cost:+.1} ns/msg  [GATE: budget {:.0} ns/msg]",
            self.budget_ns
        );
        let peak = readings.iter().copied().fold(0.0, f64::max);
        if let Some(after) = self.after {
            println!("{}", after.summary.replace("{}", &format!("{peak:.2}")));
        }

        let outcome = if pass { "is within" } else { "exceeds" };
        println!("{}: {}", if pass { "PASS" } else { "FAIL" }, self.verdict.replace("{}", outcome));
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_alternates_which_arm_runs_first() {
        let mut order = Vec::new();
        let pairs = paired(4, |on| {
            order.push(on);
            if on {
                90.0
            } else {
                100.0
            }
        });
        assert_eq!(order, [false, true, true, false, false, true, true, false]);
        assert_eq!(pairs, vec![Pair { off: 100.0, on: 90.0 }; 4]);
        assert!(paired(0, |_| unreachable!()).is_empty());
    }

    #[test]
    fn ns_per_msg_is_the_time_the_feature_adds_to_a_message() {
        // 1 M msgs/s is 1000 ns a message, 800 k is 1250.
        let slower = Pair { off: 1e6, on: 8e5 };
        assert!((slower.ns_per_msg() - 250.0).abs() < 1e-9);
        let faster = Pair { off: 8e5, on: 1e6 };
        assert!((faster.ns_per_msg() + 250.0).abs() < 1e-9);
        assert_eq!(Pair { off: 1e6, on: 1e6 }.ns_per_msg(), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![0.03, 0.01, 0.02]), 0.02);
        assert_eq!(median(vec![0.04, 0.01, 0.03, 0.02]), 0.03, "the upper of the middle two");
        assert_eq!(median(vec![0.5]), 0.5);
    }

    /// Against a 1 µs message, a feature 10 ns over its row's budget fails
    /// and one 10 ns under passes.
    #[test]
    fn ten_ns_over_a_budget_fails_and_ten_under_passes() {
        let pairs = |added_ns: f64| paired(5, |on| if on { 1e9 / (1e3 + added_ns) } else { 1e6 });
        for gate in &GATES {
            let (over, pass) = gate.judge(&pairs(gate.budget_ns + 10.0));
            assert!(!pass && over > gate.budget_ns, "{}: {over} ns must fail", gate.name);
            let (under, pass) = gate.judge(&pairs(gate.budget_ns - 10.0));
            assert!(pass && under < gate.budget_ns, "{}: {under} ns must pass", gate.name);
        }
    }

    #[test]
    fn saturated_run_ends_on_exactly_warmup_plus_n_receipts() {
        let broker = Broker::start(BrokerConfig::builder().build());
        let mut publishers = Vec::new();
        for topic in ["a", "b", "c"] {
            broker.create_topic(topic).unwrap();
            publishers.push(broker.publisher(topic).unwrap());
        }
        let rate = saturated_run(&broker, &publishers, 250);
        assert!(rate > 0.0 && rate.is_finite());
        let snapshot = broker.snapshot();
        assert_eq!(snapshot.messages.received, 25 + 250);
        let per_topic: Vec<u64> = snapshot.per_topic.values().map(|t| t.received).collect();
        assert_eq!(per_topic.iter().sum::<u64>(), 275);
        assert!(per_topic.iter().all(|n| (91..=93).contains(n)), "round robin: {per_topic:?}");
        broker.shutdown();
    }
}
