//! The metrics: their names, units and bounds, and how each is computed
//! from what a phase recorded. `BENCHMARK.json` lists the same names; a
//! test keeps the two in step.

use crate::drive::{Mark, Phase, GEN_THREAD};
use crate::stats::{median_f64, median_of, quantile_sorted, tail_quantile};
use crate::workloads::{Route, Workload};
use rjms_broker::{BrokerSnapshot, MetricsRegistry};
use rjms_metrics::RegistrySnapshot;

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before it is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

/// Measured with tracing off. `msgs_per_s` and `cpu_us_per_msg` are the
/// median over the run's windows, `setup_s` the median over repeated
/// set-ups.
///
/// One bound covers a metric on every gated workload, so the noisiest one
/// sets it, and the bounds are what this shared 2-vCPU VM can resolve:
/// over ten seeds the interquartile spread of the noisiest gated workload
/// was 11 % (`msgs_per_s`) and 12 % (`cpu_us_per_msg`), and medians of
/// ten taken hours apart differed by up to 18 %. README.md has the table.
pub const END_TO_END: [Metric; 3] = [
    e2e("msgs_per_s", "1/s", "higher", 0.25),
    e2e("cpu_us_per_msg", "us", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Measured in the traced run. A layer that is not on a workload's path
/// reports 0 there.
pub const PER_LAYER: [Metric; 58] = [
    layer("broker.dispatcher_cpu_ns_per_msg", "ns", "lower"),
    layer("broker.dispatcher_busy_pct", "%", "lower"),
    layer("broker.dispatcher_runq_wait_pct", "%", "lower"),
    layer("broker.filter_evals_per_msg", "count", "lower"),
    layer("broker.copies_per_msg", "count", "lower"),
    layer("broker.dropped", "count", "lower"),
    layer("broker.expired", "count", "lower"),
    layer("broker.publish_call_ns_p50", "ns", "lower"),
    layer("broker.receive_call_ns_p50", "ns", "lower"),
    layer("broker.waiting_ns_mean", "ns", "lower"),
    layer("broker.service_ns_mean", "ns", "lower"),
    layer("broker.sojourn_ns_mean", "ns", "lower"),
    layer("broker.backlog_mean", "count", "lower"),
    layer("broker.stage.rcv_ns_mean", "ns", "lower"),
    layer("broker.stage.journal_ns_mean", "ns", "lower"),
    layer("broker.stage.filter_ns_mean", "ns", "lower"),
    layer("broker.stage.fanout_ns_mean", "ns", "lower"),
    layer("broker.metrics_overhead_pct", "%", "lower"),
    layer("selector.match_ns", "ns", "lower"),
    layer("selector.corrid_match_ns", "ns", "lower"),
    layer("crossbeam.send_recv_ns", "ns", "lower"),
    layer("crossbeam.pingpong_ns", "ns", "lower"),
    layer("journal.append_ns", "ns", "lower"),
    layer("journal.bytes_per_msg", "B", "lower"),
    layer("journal.append_ns_mean", "ns", "lower"),
    layer("journal.io_syscalls_per_msg", "count", "lower"),
    layer("net.encode_publish_ns.64b", "ns", "lower"),
    layer("net.decode_publish_ns.64b", "ns", "lower"),
    layer("net.encode_delivery_ns.64b", "ns", "lower"),
    layer("net.decode_delivery_ns.64b", "ns", "lower"),
    layer("net.encode_publish_ns.1k", "ns", "lower"),
    layer("net.decode_publish_ns.1k", "ns", "lower"),
    layer("net.encode_delivery_ns.1k", "ns", "lower"),
    layer("net.decode_delivery_ns.1k", "ns", "lower"),
    layer("net.wakeups_per_msg", "count", "lower"),
    layer("net.writer_cpu_ns_per_frame", "ns", "lower"),
    layer("net.fwd_cpu_ns_per_frame", "ns", "lower"),
    layer("net.conn_cpu_ns_per_msg", "ns", "lower"),
    layer("net.client_reader_cpu_ns_per_frame", "ns", "lower"),
    layer("net.ping_rtt_ns_p50", "ns", "lower"),
    layer("net.rtt_ns_p50", "ns", "lower"),
    layer("net.delivery_lat_p50_us", "us", "lower"),
    layer("metrics.histogram_record_ns", "ns", "lower"),
    layer("metrics.clock_now_ns", "ns", "lower"),
    layer("model.t_rcv_ns", "ns", "lower"),
    layer("model.t_fltr_ns", "ns", "lower"),
    layer("model.t_tx_ns", "ns", "lower"),
    layer("model.fit_residual_pct", "%", "lower"),
    layer("gen.cpu_ns_per_msg", "ns", "lower"),
    layer("gen.late_p99_us", "us", "lower"),
    layer("gen.late_samples", "count", "higher"),
    layer("lat_p50_us", "us", "lower"),
    layer("lat_p99_us", "us", "lower"),
    layer("lat_tail_percentile", "%", "higher"),
    layer("lat_samples", "count", "higher"),
    layer("traced.msgs_per_s", "1/s", "higher"),
    layer("traced.lat_p50_us", "us", "lower"),
    layer("peak_rss_mb", "MiB", "lower"),
];

pub type Values = Vec<(&'static str, f64)>;

/// One phase with everything read from the program before tear-down.
pub struct Measured {
    pub phase: Phase,
    pub snapshot: BrokerSnapshot,
    /// The broker's own instruments, when the phase ran with them on.
    pub registry: Option<RegistrySnapshot>,
    /// Median of the TCP client's always-on `net.rtt_ns`, if any.
    pub client_rtt_p50_ns: f64,
}

impl Measured {
    pub fn client_rtt_p50(clients: &[MetricsRegistry]) -> f64 {
        let mut merged = None;
        for snapshot in clients.iter().map(MetricsRegistry::snapshot) {
            if let Some(h) = snapshot.histogram("net.rtt_ns") {
                match &mut merged {
                    None => merged = Some(h.clone()),
                    Some(m) => m.merge(h),
                }
            }
        }
        merged.and_then(|h| h.quantile(0.5)).unwrap_or(0) as f64
    }
}

fn wall_s(a: &Mark, b: &Mark) -> f64 {
    (b.at - a.at).as_secs_f64()
}

fn msgs(a: &Mark, b: &Mark) -> f64 {
    (b.completed - a.completed).max(1) as f64
}

fn on_cpu_ns(a: &Mark, b: &Mark, prefix: &str) -> f64 {
    b.process.since(&a.process, prefix).on_cpu_ns as f64
}

fn p50(samples: &[u32]) -> f64 {
    median_of(&mut samples.to_vec()).map_or(0.0, f64::from)
}

/// `value(start, end, index)` for each of the phase's windows.
fn per_window(phase: &Phase, value: impl Fn(&Mark, &Mark, usize) -> f64) -> Vec<f64> {
    phase.marks.windows(2).enumerate().map(|(i, m)| value(&m[0], &m[1], i)).collect()
}

/// What is taken window by window; the value reported for a run is the
/// median window.
pub struct Windows {
    pub msgs_per_s: Vec<f64>,
    /// On-CPU time of the whole process per message. An open-loop
    /// generator busy-waits for its next due time by design, so on paced
    /// workloads its thread is left out and the figure is the program's
    /// threads alone.
    pub cpu_us_per_msg: Vec<f64>,
    /// A diagnostic: printed with the untraced run, a per-layer metric of
    /// the traced one.
    pub lat_p50_us: Vec<f64>,
}

impl Windows {
    pub fn of(w: &Workload, phase: &Phase) -> Windows {
        Windows {
            msgs_per_s: per_window(phase, |a, b, _| msgs(a, b) / wall_s(a, b)),
            cpu_us_per_msg: per_window(phase, |a, b, _| {
                let mut ns = on_cpu_ns(a, b, "");
                if w.paced_rate.is_some() {
                    ns -= on_cpu_ns(a, b, GEN_THREAD);
                }
                ns / msgs(a, b) / 1e3
            }),
            lat_p50_us: per_window(phase, |_, _, i| p50(&phase.latency_ns[i]) / 1e3),
        }
    }
}

pub fn end_to_end(windows: &Windows, setup_s: f64) -> Values {
    vec![
        ("msgs_per_s", median_f64(&windows.msgs_per_s)),
        ("cpu_us_per_msg", median_f64(&windows.cpu_us_per_msg)),
        ("setup_s", setup_s),
    ]
}

fn histogram_mean(registry: Option<&RegistrySnapshot>, name: &str) -> f64 {
    registry.and_then(|r| r.histogram(name)).map_or(0.0, |h| h.mean())
}

/// The per-layer values of a traced run: `plain` ran with the program
/// configured as in the end-to-end run and benchmark-side spans on,
/// `metered` with the broker's own instruments on as well.
pub fn per_layer(
    w: &Workload,
    plain: &Measured,
    metered: &Measured,
    micro: Values,
    model: Values,
) -> Values {
    let phase = &plain.phase;
    let (first, last) = (&phase.marks[0], &phase.marks[phase.marks.len() - 1]);
    let wall_ns = wall_s(first, last) * 1e9;
    let n = msgs(first, last);
    let copies = n * f64::from(w.replication);
    // Frames on the wire: one delivery per copy, and on `tcp_pubsub` one
    // acknowledgement per publish.
    let frames = match w.route {
        Route::Inproc => 0.0,
        Route::TcpDelivery => copies,
        Route::TcpPubsub => copies + n,
    };
    let per = |ns: f64, count: f64| if count > 0.0 { ns / count } else { 0.0 };
    let cpu = |prefix: &str| on_cpu_ns(first, last, prefix);
    let dispatcher = last.process.since(&first.process, "rjms-dispatcher");

    let counters = &plain.snapshot.messages;
    let received = counters.received.max(1) as f64;
    let journal_bytes = plain.snapshot.journal.map_or(0, |j| j.bytes_appended);

    let all_latency: Vec<u32> = {
        let mut all: Vec<u32> = phase.latency_ns.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    };
    let tail = tail_quantile(all_latency.len());
    let late: Vec<u32> = {
        let mut late = phase.late_ns.clone();
        late.sort_unstable();
        late
    };
    let late_tail = tail_quantile(late.len());

    let registry = metered.registry.as_ref();
    // What the broker's own instruments cost: throughput lost on closed
    // loops, median latency gained on open ones.
    let (windows, metered_windows) = (Windows::of(w, phase), Windows::of(w, &metered.phase));
    let (rate, metered_rate) =
        (median_f64(&windows.msgs_per_s), median_f64(&metered_windows.msgs_per_s));
    let (latency, metered_latency) =
        (median_f64(&windows.lat_p50_us), median_f64(&metered_windows.lat_p50_us));
    let overhead = if w.paced_rate.is_some() {
        100.0 * (metered_latency / latency - 1.0)
    } else {
        100.0 * (1.0 - metered_rate / rate)
    };

    let mut values: Values = vec![
        ("broker.dispatcher_cpu_ns_per_msg", dispatcher.on_cpu_ns as f64 / n),
        ("broker.dispatcher_busy_pct", 100.0 * dispatcher.on_cpu_ns as f64 / wall_ns),
        ("broker.dispatcher_runq_wait_pct", 100.0 * dispatcher.runq_wait_ns as f64 / wall_ns),
        ("broker.filter_evals_per_msg", counters.filter_evaluations as f64 / received),
        ("broker.copies_per_msg", counters.dispatched as f64 / received),
        ("broker.dropped", counters.dropped as f64),
        ("broker.expired", counters.expired as f64),
        ("broker.publish_call_ns_p50", p50(&phase.publish_call_ns)),
        ("broker.receive_call_ns_p50", p50(&phase.receive_call_ns)),
        ("broker.waiting_ns_mean", histogram_mean(registry, "broker.waiting_ns")),
        ("broker.service_ns_mean", histogram_mean(registry, "broker.service_ns")),
        ("broker.sojourn_ns_mean", histogram_mean(registry, "broker.sojourn_ns")),
        ("broker.backlog_mean", histogram_mean(registry, "broker.backlog")),
        ("broker.stage.rcv_ns_mean", histogram_mean(registry, "broker.stage.rcv_ns")),
        ("broker.stage.journal_ns_mean", histogram_mean(registry, "broker.stage.journal_ns")),
        ("broker.stage.filter_ns_mean", histogram_mean(registry, "broker.stage.filter_ns")),
        ("broker.stage.fanout_ns_mean", histogram_mean(registry, "broker.stage.fanout_ns")),
        ("broker.metrics_overhead_pct", overhead),
        ("journal.bytes_per_msg", journal_bytes as f64 / received),
        ("journal.append_ns_mean", histogram_mean(registry, "journal.append_ns")),
        (
            "journal.io_syscalls_per_msg",
            last.process.io_syscalls.saturating_sub(first.process.io_syscalls) as f64 / n,
        ),
        (
            "net.wakeups_per_msg",
            last.process.since(&first.process, "rjms-net").timeslices as f64 / n,
        ),
        ("net.writer_cpu_ns_per_frame", per(cpu("rjms-net-writer"), frames)),
        (
            "net.fwd_cpu_ns_per_frame",
            per(cpu("rjms-net-fwd"), if frames > 0.0 { copies } else { 0.0 }),
        ),
        (
            "net.conn_cpu_ns_per_msg",
            per(cpu("rjms-net-conn"), if w.route == Route::TcpPubsub { n } else { 0.0 }),
        ),
        ("net.client_reader_cpu_ns_per_frame", per(cpu("rjms-net-client"), frames)),
        ("net.rtt_ns_p50", plain.client_rtt_p50_ns),
        ("net.delivery_lat_p50_us", p50(&phase.delivery_ns) / 1e3),
        ("gen.cpu_ns_per_msg", cpu(GEN_THREAD) / n),
        ("gen.late_p99_us", late_tail.map_or(0.0, |q| f64::from(quantile_sorted(&late, q)) / 1e3)),
        ("gen.late_samples", late.len() as f64),
        ("lat_p50_us", latency),
        ("lat_p99_us", tail.map_or(0.0, |q| f64::from(quantile_sorted(&all_latency, q)) / 1e3)),
        ("lat_tail_percentile", tail.map_or(0.0, |q| q * 100.0)),
        ("lat_samples", all_latency.len() as f64),
        ("traced.msgs_per_s", metered_rate),
        ("traced.lat_p50_us", metered_latency),
    ];
    values.extend(micro);
    values.extend(model);
    values
}

/// The result line of the benchmark contract: one JSON object.
pub fn result_line(attempted: u64, failed: u64, table: &[Metric], values: &Values) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("metric {} was not computed", m.name))
                .1;
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted,
        failed,
        metrics.join(", ")
    )
}

/// JSON has no NaN or infinity; a measurement that produced one is a
/// defect to look at, and 0 never passes for a real value.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// A result line read back: what a child process of this program said.
#[derive(Debug, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(String, f64)>,
}

impl ResultLine {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|v| v.1)
    }
}

/// Reads the values back from a result line this program printed.
pub fn parse_result_line(line: &str) -> Option<ResultLine> {
    let after = |text: &str, key: &str| -> Option<String> {
        let rest = &text[text.find(key)? + key.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_owned())
    };
    let correct = after(line, "\"correct\":")? == "true";
    let attempted = after(line, "\"attempted\":")?.parse().ok()?;
    let failed = after(line, "\"failed\":")?.parse().ok()?;
    let body = &line[line.find("\"metrics\":")? + "\"metrics\":".len()..];
    let mut values = Vec::new();
    for entry in body.split("\"unit\"") {
        let Some(value_at) = entry.find("{\"value\":") else { continue };
        let head = &entry[..value_at];
        let name_end = head.rfind('"')?;
        let name_start = head[..name_end].rfind('"')? + 1;
        let value = after(entry, "{\"value\":")?.parse().ok()?;
        values.push((head[name_start..name_end].to_owned(), value));
    }
    Some(ResultLine { correct, attempted, failed, values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn result_line_round_trips() {
        let values: Values =
            END_TO_END.iter().enumerate().map(|(i, m)| (m.name, i as f64 + 0.25)).collect();
        let line = result_line(1000, 0, &END_TO_END, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"msgs_per_s\": {\"value\": 0.25, \"unit\": \"1/s\"}"));
        let parsed = parse_result_line(&line).unwrap();
        let values_read = values.iter().map(|(n, v)| ((*n).to_owned(), *v)).collect();
        let expected =
            ResultLine { correct: true, attempted: 1000, failed: 0, values: values_read };
        assert_eq!(parsed, expected);
        assert_eq!(parsed.value("setup_s"), Some(2.25));
        assert!(result_line(5, 2, &END_TO_END, &values).starts_with("{\"correct\": false"));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|o| o.name != m.name), "{} repeats", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.better == "higher" || m.better == "lower");
            assert!(m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END.iter().find(|m| m.name == "setup_s").unwrap().bound, largest);
    }

    /// `BENCHMARK.json` as the tables above define it.
    fn benchmark_json() -> String {
        let rows = |rows: Vec<String>| rows.join(",\n");
        let workloads = rows(
            WORKLOADS
                .iter()
                .filter(|w| w.gated)
                .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect(),
        );
        let end_to_end = rows(
            END_TO_END
                .iter()
                .map(|m| {
                    format!(
                        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                        m.name, m.unit, m.better, m.bound
                    )
                })
                .collect(),
        );
        let per_layer = rows(
            PER_LAYER
                .iter()
                .map(|m| {
                    format!(
                        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                        m.name, m.unit, m.better
                    )
                })
                .collect(),
        );
        format!(
            "{{\n  \"command\": [\"bash\", \"perf_ledger/run.sh\"],\n  \"paths\": [\"perf_ledger\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n",
            crate::RUN_SECONDS
        )
    }

    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        let expected = benchmark_json();
        assert!(committed == expected, "BENCHMARK.json should read:\n{expected}");
    }
}
