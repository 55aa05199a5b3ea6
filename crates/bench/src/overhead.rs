//! The overhead gates: what each layer of telemetry may cost the dispatcher.
//!
//! Telemetry rides the dispatch path, so its cost is a `t_*` term of its
//! own in the paper's service-time model (Eq. 1). Each row of [`GATES`]
//! bounds one such term: the same broker runs with the feature off and on,
//! and the feature may take at most the row's budget of throughput.
//!
//! **Workloads.** *calibrated* — 64 correlation-ID filters, one of which
//! matches, with the paper's Table I cost constants scaled by 1/32 (the
//! unscaled constants give ~2k msg/s, minutes per run): the regime the
//! model describes, tens of microseconds of service per message. This is
//! the workload the gate is on. *null-work* — the same topology without a
//! cost model, so a message costs only the dispatch machinery (~2 µs) and
//! a feature's fixed per-message cost is as visible as it can be; reported
//! for transparency, never gated.
//!
//! **One measurement** ([`saturated_run`]) publishes a fixed count from
//! the bench thread and times until the broker has received all of it — a
//! fixed amount of work, unlike a duration window, which on a one- or
//! two-CPU host measures the scheduler. The bounded publish queue
//! back-pressures the publisher, so once it fills the elapsed time is the
//! dispatcher's service time. Nothing drains the subscriber queues: they
//! hold the whole count and overflow drops new copies, so throughput never
//! depends on consumer scheduling.
//!
//! **One pairing** ([`paired`]) alternates which arm runs first from one
//! repetition to the next, so that slow drift (thermal, background load)
//! cancels, and the estimate is the median of the per-repetition relative
//! differences `1 − on/off`.
//!
//! `ext_overhead [gate…] [--smoke]` runs the named gates (all when none is
//! named), writes one `BENCH_ext_<gate>_overhead.json` each, and exits
//! non-zero when a calibrated workload is over budget, so CI runs it as a
//! regression gate. `--smoke` uses the rows' smaller counts; the full
//! counts are large enough for stable numbers on an idle machine.

use crate::{experiment_header, BenchReport, Table};
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

/// Table I correlation-ID constants are divided by this for the calibrated
/// workload.
const COST_SCALE: f64 = 32.0;

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
    /// The share of throughput the feature cost (negative: it was faster).
    pub fn diff(&self) -> f64 {
        1.0 - self.on / self.off
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

/// Repetitions and message counts of one mode (smoke or full).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Paired repetitions per workload.
    pub reps: usize,
    /// Messages per run of the calibrated workload.
    pub calibrated: u64,
    /// Messages per run of the null-work workload; `None`: not run.
    pub null_work: Option<u64>,
}

const SMOKE_3: Counts = Counts { reps: 3, calibrated: 12_000, null_work: Some(40_000) };
/// 3-rep medians on small counts swing several points on a noisy CI host;
/// 5 reps over 25k messages keep a smoke gate's spread well inside the 5%
/// budget where the true overhead sits near zero.
const SMOKE_5: Counts = Counts { reps: 5, calibrated: 25_000, null_work: Some(60_000) };
const FULL: Counts = Counts { reps: 7, calibrated: 50_000, null_work: Some(100_000) };

/// A reading taken from the broker of the `on` arm after its run, shown as
/// one more column.
#[derive(Debug, Clone, Copy)]
pub struct After {
    /// Checks the broker and returns the reading; `rate` is the run's
    /// msgs/s.
    pub check: fn(&Broker, rate: f64) -> f64,
    /// The table column's header.
    pub column: &'static str,
    /// The artifact field that takes the largest reading.
    pub field: &'static str,
    /// The summary line; `{}` is the largest reading.
    pub summary: &'static str,
}

/// One overhead gate.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Short name: the command-line argument, and `ext_<name>_overhead` is
    /// the header id and the artifact's name.
    pub name: &'static str,
    /// The EXPERIMENTS.md section.
    pub section: &'static str,
    /// One line on what is compared.
    pub description: &'static str,
    /// What the off/on table columns are labelled with.
    pub label: &'static str,
    /// The PASS/FAIL line; `{}` is "is within" or "exceeds".
    pub verdict: &'static str,
    /// Largest accepted calibrated overhead, as a share of throughput.
    pub budget: f64,
    /// Counts under `--smoke`.
    pub smoke: Counts,
    /// Counts without it.
    pub full: Counts,
    /// Topics the traffic is spread over, each with its own 64 filters.
    pub topics: usize,
    /// What the baseline is, printed under the workload lines.
    pub note: &'static str,
    /// Constants of the set-up recorded in the artifact.
    pub fields: &'static [(&'static str, f64)],
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

/// The flow gate's seed model is the calibrated workload scaled by this,
/// so `λ_max` sits ~1.5× above the broker's dispatch capacity and the
/// offered load near `ρ ≈ 0.65` of the budget.
const GATE_SCALE: f64 = 0.65;

fn flow_gate(builder: BrokerConfigBuilder, on: bool) -> BrokerConfigBuilder {
    if !on {
        return with_metrics(builder);
    }
    let table1 = CostParams::CORRELATION_ID;
    let seed = CostParams::new(
        table1.t_rcv / COST_SCALE * GATE_SCALE,
        table1.t_fltr / COST_SCALE * GATE_SCALE,
        table1.t_tx / COST_SCALE * GATE_SCALE,
    );
    // Long refresh interval: the drift loop must not recalibrate the
    // budget mid-measurement. One producer, so no per-producer cap.
    with_metrics(builder).flow(
        FlowConfig::default()
            .params(seed)
            .filters(N_FILTERS)
            .w99_objective(0.010)
            .producer_share(1.0)
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

/// The six gates. All six share the 5% budget today; the column stays so
/// that each row says what it is held to.
pub static GATES: [Gate; 6] = [
    // The metrics layer (per-message waiting/service/sojourn histograms
    // plus the sampled Eq. 1 stage decomposition) sits directly on the
    // dispatcher hot path. The baseline is a broker with no telemetry at
    // all. On null-work its two clock reads per message (publish stamp +
    // fan-out end; the dispatch start reuses the previous end) are a fixed
    // ~100–150 ns made maximally visible.
    Gate {
        name: "observer",
        section: "extension (observability)",
        description: "dispatch throughput with the metrics layer on vs off; gate at 5%",
        label: "metrics",
        verdict: "metrics layer {} the overhead budget on the calibrated workload",
        budget: 0.05,
        smoke: SMOKE_3,
        full: FULL,
        topics: 1,
        note: "",
        fields: &[],
        configure: |builder, on| if on { with_metrics(builder) } else { builder },
        attach: |_, _| None,
        after: None,
    },
    // Tracing arms the per-stage stopwatches for *every* message (the tail
    // decision is post-hoc, so durations must exist before the verdict) and
    // adds a threshold comparison, an occasional quantile refresh, and —
    // for kept messages — four ring writes. Metrics are on in both arms,
    // because tracing requires the sojourn histogram: the difference
    // isolates the recorder, not the instruments underneath it. Default
    // tail quantile and uniform baseline, so the kept fraction is
    // production's.
    Gate {
        name: "trace",
        section: "extension (observability)",
        description: "dispatch throughput with the flight recorder on vs off; gate at 5%",
        label: "trace",
        verdict: "flight recorder {} the overhead budget on the calibrated workload",
        budget: 0.05,
        smoke: SMOKE_3,
        full: FULL,
        topics: 1,
        note: "baseline is metrics-on in both: the diff isolates the recorder",
        fields: &[],
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
        description: "dispatch throughput with the SLO engine sampling vs not; gate at 5%",
        label: "obs",
        verdict: "SLO engine {} the overhead budget on the calibrated workload",
        budget: 0.05,
        smoke: SMOKE_5,
        full: FULL,
        topics: 1,
        note: "baseline is metrics-on in both; sampler at 25 ms (production default 1 s)",
        fields: &[("sample_interval_ms", SAMPLE_EVERY.as_millis() as f64)],
        configure: |builder, _| with_metrics(builder),
        attach: |broker, on| on.then(|| sampler(broker, false)),
        after: None,
    },
    // One token-bucket check under a mutex on every publish, plus a
    // decision-latency histogram sample. Measured with the gate's budget
    // *above* the offered load (`GATE_SCALE`), the production regime:
    // at or below ρ ≈ 0.7 of the budget, admission control must cost less
    // than 5% and shed nothing (`flow_utilization` asserts the latter).
    // Without a cost model there is no budget to sit below, so no
    // null-work workload.
    Gate {
        name: "flow",
        section: "extension (flow control)",
        description: "publish throughput with the admission gate on vs off below budget; \
                      gate at 5%",
        label: "flow",
        verdict: "admission gate {} the overhead budget below lambda_max",
        budget: 0.05,
        smoke: Counts { null_work: None, ..SMOKE_5 },
        full: Counts { null_work: None, ..FULL },
        topics: 1,
        note: "gate budget: same constants x 0.65, so lambda_max sits ~1.5x above capacity",
        fields: &[],
        configure: flow_gate,
        attach: |_, _| None,
        after: Some(After {
            check: flow_utilization,
            column: "rho (budget)",
            field: "peak_budget_utilization",
            summary: "peak budget utilization across reps: rho = {} (regime: rho <= 0.7)",
        }),
    },
    // One thread-local `HashMap` upsert per message (ten floating-point
    // accumulations into the staged regression sums) plus a mutex-guarded
    // merge into the shared table every `FLUSH_EVERY` messages or on idle.
    // Traffic is spread over eight topics so that the staging map holds
    // more than one entry and the merge path sees contention. Metrics on in
    // both arms (the observatory implies them).
    Gate {
        name: "topic_obs",
        section: "extension (observability)",
        description: "dispatch throughput with the per-topic observatory recording vs not; \
                      gate at 5%",
        label: "obs",
        verdict: "per-topic observatory {} the overhead budget",
        budget: 0.05,
        smoke: SMOKE_5,
        full: FULL,
        topics: 8,
        note: "baseline is metrics-on in both; observatory at its default cap",
        fields: &[],
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
        description: "dispatch throughput with the saturation forecaster on vs off; gate at 5%",
        label: "forecast",
        verdict: "the forecaster {} the overhead budget on the calibrated workload",
        budget: 0.05,
        smoke: SMOKE_5,
        full: FULL,
        topics: 1,
        note: "baseline is metrics + SLO engine in both; sampler at 25 ms \
               (production default 1 s)",
        fields: &[("sample_interval_ms", SAMPLE_EVERY.as_millis() as f64)],
        configure: |builder, _| with_metrics(builder),
        attach: |broker, on| Some(sampler(broker, on)),
        after: None,
    },
];

impl Gate {
    /// One arm's run on a broker of its own: msgs/s, and the `after`
    /// reading of an `on` arm.
    fn measure(&self, on: bool, cost: Option<CostParams>, n: u64) -> (f64, Option<f64>) {
        let mut builder = BrokerConfig::builder()
            .publish_queue_capacity(256)
            .subscriber_queue_capacity(1 << 18)
            .overflow_policy(OverflowPolicy::DropNew);
        builder = (self.configure)(builder, on);
        if let Some(cost) = cost {
            builder = builder.cost_model(cost);
        }
        let broker = Broker::start(builder.build());
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
        let rate = saturated_run(&broker, &publishers, n);
        let reading = self.after.filter(|_| on).map(|after| (after.check)(&broker, rate));
        drop(side_car); // joins its thread before the broker goes away
        broker.shutdown();
        (rate, reading)
    }

    /// Runs the gate, prints its tables, writes its artifact; `true` when
    /// the calibrated overhead is within the budget.
    pub fn run(&self, smoke: bool) -> bool {
        let id = format!("ext_{}_overhead", self.name);
        let mut report = BenchReport::new(&id);
        let counts = if smoke { self.smoke } else { self.full };
        experiment_header(&id, self.section, self.description);
        if smoke {
            println!("smoke mode: reduced counts and repetitions, CI regression gate\n");
        }

        let table1 = CostParams::CORRELATION_ID;
        let calibrated = CostParams::new(
            table1.t_rcv / COST_SCALE,
            table1.t_fltr / COST_SCALE,
            table1.t_tx / COST_SCALE,
        );
        let spread = match self.topics {
            1 => String::new(),
            topics => format!(" x {topics} topics"),
        };
        println!(
            "calibrated workload: Table I (correlation ID) / {COST_SCALE:.0}, \
             {N_FILTERS} filters{spread} -> E[B] = {:.1} us/msg",
            calibrated.mean_service_time(N_FILTERS, 1.0) * 1e6
        );
        if counts.null_work.is_some() {
            println!("null-work workload:  no cost model, dispatch machinery only");
        }
        if !self.note.is_empty() {
            println!("{}", self.note);
        }
        println!();

        let label = self.label;
        let mut headers = vec![
            "rep".to_owned(),
            format!("{label} off (msg/s)"),
            format!("{label} on (msg/s)"),
            "overhead".to_owned(),
        ];
        if counts.null_work.is_some() {
            headers.insert(0, "workload".to_owned());
        }
        headers.extend(self.after.map(|after| after.column.to_owned()));
        let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(&headers);
        let mut readings = Vec::new();
        let mut workload = |name: &str, cost: Option<CostParams>, n: u64| {
            let first = readings.len();
            let pairs = paired(counts.reps, |on| {
                let (rate, reading) = self.measure(on, cost, n);
                readings.extend(reading);
                rate
            });
            for (rep, pair) in pairs.iter().enumerate() {
                let mut cells = vec![
                    (rep + 1).to_string(),
                    format!("{:.0}", pair.off),
                    format!("{:.0}", pair.on),
                    format!("{:+.2}%", pair.diff() * 100.0),
                ];
                if counts.null_work.is_some() {
                    cells.insert(0, name.to_owned());
                }
                cells.extend(readings.get(first + rep).map(|reading| format!("{reading:.2}")));
                table.row_strings(cells);
            }
            median(pairs.iter().map(Pair::diff).collect())
        };
        let gated = workload("calibrated", Some(calibrated), counts.calibrated);
        let null = counts.null_work.map(|n| workload("null-work", None, n));
        table.print();

        println!();
        println!(
            "calibrated overhead (median of paired diffs): {:+.2}%  [GATE: budget {:.0}%]",
            gated * 100.0,
            self.budget * 100.0
        );
        if let Some(null) = null {
            println!(
                "null-work overhead (median of paired diffs): {:+.2}%  [informational]",
                null * 100.0
            );
        }
        let peak = readings.iter().copied().fold(0.0, f64::max);
        if let Some(after) = self.after {
            println!("{}", after.summary.replace("{}", &format!("{peak:.2}")));
        }

        let pass = gated <= self.budget;
        report.flag("smoke", smoke).uint("reps", counts.reps as u64);
        for (field, value) in self.fields {
            report.num(field, *value);
        }
        if self.topics > 1 {
            report.uint("topics", self.topics as u64);
        }
        match null {
            Some(null) => report.num("calibrated_overhead", gated).num("null_work_overhead", null),
            None => report.uint("messages", counts.calibrated).num("overhead", gated),
        };
        report.num("budget", self.budget);
        if let Some(after) = self.after {
            report.num(after.field, peak);
        }
        report.flag("pass", pass);
        report.emit();

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
        assert!((pairs[0].diff() - 0.10).abs() < 1e-12);
        assert!(paired(0, |_| unreachable!()).is_empty());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![0.03, 0.01, 0.02]), 0.02);
        assert_eq!(median(vec![0.04, 0.01, 0.03, 0.02]), 0.03, "the upper of the middle two");
        assert_eq!(median(vec![0.5]), 0.5);
    }

    #[test]
    fn six_percent_fails_a_five_percent_budget_and_four_passes() {
        let overhead = |on_rate: f64| {
            let pairs = paired(5, |on| if on { on_rate } else { 100.0 });
            median(pairs.iter().map(Pair::diff).collect())
        };
        for gate in &GATES {
            assert!(overhead(94.0) > gate.budget, "{}: 6% must fail", gate.name);
            assert!(overhead(96.0) <= gate.budget, "{}: 4% must pass", gate.name);
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
