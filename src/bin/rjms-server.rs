//! `rjms-server` — run a standalone broker listening on TCP.
//!
//! `rjms-server --help` lists every flag with its key in a `--config`
//! file, its default and the feature it implies. That text, the flag
//! parser and the file loader are generated from one table,
//! `rjms::settings`, whose docs hold the file schema and the precedence
//! rules: flags over file over defaults; `enabled = false` keeps a
//! section's tuning and leaves its feature off; a tuning *flag* switches
//! its feature on, a tuning key in a file does not. README.md's operator
//! guide walks through the features; below is only what neither says.
//!
//! **Sharding.** Topics hash onto the `--shards` dispatcher threads
//! (`rjms::broker::shard_of`) and each shard is modeled as its own M/GI/1
//! server — the clustered scenario of the paper's §V applied to one
//! process.
//!
//! **The model as a runtime check.** With `--cost-model` the broker burns
//! the paper's Table I per-message CPU costs, and those constants anchor
//! its per-shard model check; without it each shard is anchored on its own
//! online Eq. 1 fit, once that has 256 observations, with the measured
//! service spread (a fit has none of its own). The check sets the
//! measured waiting/service distributions against the Eq. 1 + M/GI/1
//! prediction at each shard's measured arrival rate, filter count and
//! replication grade (the paper's Figs. 10–12, live). `/model` and
//! `/shards` compute it on request, and with `--metrics-interval` each
//! instrument report ends with it. The flow gate budgets each shard from
//! that shard's measured service time; until then a lane's budget is the
//! cost model's cheapest message, or unbounded without `--cost-model`. On a
//! DRIFT verdict the `--trace` flight recorder is dumped, so the span
//! chains of the slow tail that produced the anomaly survive. The `--slo`
//! engine's `model` objective judges only against `--cost-model`.
//! `--topic-obs` judges each topic's fitted costs against its shard's
//! anchor.
//!
//! **Forecasting** rides on the SLO engine and runs whenever the engine
//! does. Because it is already the default, `--forecast` and its tuning
//! flags can only mean "I want this", so they switch the engine on; only
//! `[forecast] enabled = false` in a file switches forecasting off.
//!
//! **Reports** go to stderr, each as one pre-built buffer written with a
//! single `write_all`, so concurrent stats and metrics reports never
//! interleave mid-line and stdout stays machine-parseable.

use rjms::broker::{
    BrokerConfig, FlowConfig, MetricsConfig, ThroughputProbe, TopicObsConfig, TraceConfig,
    PER_TOPIC_SERIES,
};
use rjms::http::{HttpServer, HttpState};
use rjms::model::params::CostParams;
use rjms::net::server::BrokerServer;
use rjms::obs::{
    Confidence, ForecastConfig, ObsConfig, ObsCore, ObsRuntime, StderrSink, WebhookSink,
};
use rjms::settings::{self, Key, Values, SETTINGS};
use std::io::Write as _;
use std::time::Duration;

/// Why a getter of a key the settings table defaults cannot come back empty.
const DEFAULTED: &str = "the settings table gives this key a default";

/// The Table I constants `--cost-model` names: what the dispatcher burns
/// and what the flow model is seeded with.
fn cost_model(values: &Values) -> Option<CostParams> {
    values.text(Key::CostPreset).map(|name| match name {
        "corr" => CostParams::CORRELATION_ID,
        _ => CostParams::APPLICATION_PROPERTY,
    })
}

/// Maps the effective settings onto the library's own config types: the
/// broker's, and the SLO engine's with its sampling interval when that is
/// on.
fn configs(values: &Values) -> (BrokerConfig, Option<(ObsConfig, Duration)>) {
    let count = |key| values.count(key).expect(DEFAULTED);
    let secs = |key| Duration::from_secs(count(key));
    let cost = cost_model(values);

    let shards = usize::try_from(count(Key::Shards)).unwrap_or(usize::MAX);
    let mut builder = BrokerConfig::builder().shards(shards);
    if values.count(Key::MetricsInterval).is_some() || values.on(Key::Slo) {
        // The SLO engine samples the broker's registry, so it needs the
        // dispatch instruments even without a periodic text report.
        builder = builder.metrics(MetricsConfig::default());
    }
    if values.on(Key::Trace) {
        // Trace implies metrics: the tail threshold needs the sojourn
        // histogram, and Broker::start enables a default MetricsConfig.
        let quantile = values.number(Key::TraceQuantile).expect(DEFAULTED);
        builder = builder.trace(TraceConfig::default().tail_quantile(quantile));
    }
    if let Some(cost) = cost {
        builder = builder.cost_model(cost);
    }
    if values.on(Key::Flow) {
        let flow = FlowConfig::default()
            .w99_objective(count(Key::FlowW99) as f64 / 1e3)
            .classes(u8::try_from(count(Key::FlowClasses)).expect("checked to be in 1..=10"));
        builder = builder.flow(flow);
    }
    if values.on(Key::TopicObs) {
        builder = builder.topic_obs(TopicObsConfig::default());
    }

    let obs = values.on(Key::Slo).then(|| {
        let forecast = ForecastConfig {
            enabled: values.on(Key::Forecast),
            horizon: secs(Key::ForecastHorizon),
            trend_window: secs(Key::ForecastTrendWindow),
            min_confidence: values
                .text(Key::ForecastConfidence)
                .and_then(Confidence::parse)
                .expect(DEFAULTED),
        };
        (ObsConfig { forecast, ..ObsConfig::default() }, secs(Key::History))
    });
    (builder.build(), obs)
}

/// Writes a pre-built report to stderr in one `write_all`: reports from
/// the stats and metrics threads never interleave mid-line.
fn report(text: &str) {
    let stderr = std::io::stderr();
    let mut handle = stderr.lock();
    let _ = handle.write_all(text.as_bytes());
    let _ = handle.flush();
}

fn main() {
    // Flags over the `--config` file over the built-in defaults.
    let flags = settings::command_line("rjms-server", &SETTINGS, settings::SERVER_NOTES);
    let file = flags.text(Key::Config).map(settings::load).transpose();
    let file = file.unwrap_or_else(|e| settings::usage_error(e));
    let values = flags.over(file.unwrap_or_else(|| Values::new(&SETTINGS)));
    let (config, obs_config) = configs(&values);
    let listen = values.text(Key::Listen).expect(DEFAULTED);
    let shards = config.shards;
    let topics = values.list(Key::Topics);

    let server = match BrokerServer::start(config, listen) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot listen on {listen}: {e}");
            std::process::exit(1);
        }
    };
    for topic in topics {
        if let Err(e) = server.broker().create_topic(topic) {
            eprintln!("error: cannot create topic `{topic}`: {e}");
            std::process::exit(1);
        }
    }
    println!("rjms-server listening on {}", server.local_addr());
    if !topics.is_empty() {
        println!("topics: {}", topics.join(", "));
    }
    if shards > 1 {
        println!("sharded dispatch: {shards} dispatcher threads (topics hash onto shards)");
    }
    if let Some(gate) = server.broker().flow() {
        println!(
            "flow control on (lambda_max {:.0}/s for W99 <= {:.1} ms, {} classes)",
            gate.lambda_max(),
            gate.config().w99_objective * 1e3,
            gate.config().classes,
        );
    }
    if server.broker().observer().topic_observatory().is_some() {
        println!("topic observatory on (cap {PER_TOPIC_SERIES} topics, /topics)");
    }

    // SLO engine: background sampler + burn-rate alerting over the
    // broker's dispatch instruments.
    let obs_runtime = obs_config.map(|(obs_config, interval)| {
        let registry = server.broker().metrics().expect("metrics enabled with the SLO engine");
        let forecast = obs_config.forecast;
        let mut core = ObsCore::new(obs_config);
        core.add_sink(Box::new(StderrSink));
        for sink in values.list(Key::AlertSinks) {
            // `stderr` is always attached above; the rest are webhooks.
            if let Some(rest) = sink.strip_prefix("webhook:") {
                let (addr, path) = match rest.find('/') {
                    Some(i) => (rest[..i].to_owned(), rest[i..].to_owned()),
                    None => (rest.to_owned(), "/".to_owned()),
                };
                core.add_sink(Box::new(WebhookSink { addr, path }));
            }
        }
        // One model per dispatcher shard, each at its measured operating
        // point: the drift and ρ objectives and the forecast judge servers.
        let observer = server.broker().observer();
        let monitors = move || observer.shard_monitors();
        let runtime =
            ObsRuntime::start(core, registry, server.broker().tracer(), interval, monitors);
        if forecast.enabled {
            println!(
                "slo engine on ({}s sampling, forecast horizon {}s at >= {} confidence)",
                interval.as_secs(),
                forecast.horizon.as_secs(),
                forecast.min_confidence.name(),
            );
        } else {
            println!("slo engine on ({}s sampling, forecasting off)", interval.as_secs());
        }
        runtime
    });

    // HTTP exposition: /metrics, /snapshot.json, /traces, /model, and the
    // SLO surfaces when the engine is on.
    let mut http_state = HttpState::new().observer(server.broker().observer());
    if let Some(m) = server.broker().metrics() {
        http_state = http_state.registry(m);
    }
    http_state = http_state.registry(server.metrics());
    if let Some(recorder) = server.broker().tracer() {
        http_state = http_state.recorder(recorder);
    }
    if let Some(runtime) = &obs_runtime {
        http_state = http_state.obs(runtime.core());
    }
    if let Some(gate) = server.broker().flow() {
        http_state = http_state.flow(gate);
    }
    let _http = values.text(Key::Http).map(|addr| match HttpServer::start(http_state, addr) {
        Ok(h) => {
            println!("http exposition on http://{}/", h.local_addr());
            h
        }
        Err(e) => {
            eprintln!("error: cannot bind http endpoint {addr}: {e}");
            std::process::exit(1);
        }
    });

    // Metrics exporter: dumps every instrument (broker-side dispatch
    // histograms + wire-side gauges) as an aligned text report, closed by
    // the per-shard model check.
    if let Some(secs) = values.count(Key::MetricsInterval) {
        let broker_metrics = server.broker().metrics().expect("metrics enabled above");
        let wire_metrics = server.metrics();
        let observer = server.broker().observer();
        std::thread::Builder::new()
            .name("rjms-export".to_owned())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_secs(secs));
                let mut out = String::from("--- metrics ---\n");
                out.push_str(&broker_metrics.snapshot().render_text());
                out.push_str(&wire_metrics.snapshot().render_text());
                out.push_str(&observer.model_text());
                report(&out);
            })
            .expect("failed to spawn metrics exporter");
    }

    match values.count(Key::StatsEvery) {
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
        Some(secs) => loop {
            let probe = ThroughputProbe::begin(server.broker());
            std::thread::sleep(Duration::from_secs(secs));
            let t = probe.end(server.broker());
            report(&format!(
                "received {:.1}/s  dispatched {:.1}/s  overall {:.1}/s  (R = {:.2})\n",
                t.received_per_sec,
                t.dispatched_per_sec,
                t.overall_per_sec(),
                t.replication_grade().unwrap_or(0.0),
            ));
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configs_for(argv: &[&str]) -> (BrokerConfig, Option<(ObsConfig, Duration)>) {
        let flags = settings::parse_flags(&SETTINGS, argv.iter().map(|s| (*s).to_owned())).unwrap();
        configs(&flags.over(Values::new(&SETTINGS)))
    }

    /// The table restates the library's defaults so that `--help` can
    /// print them; switching a feature on without tuning it must give the
    /// library's own default config.
    #[test]
    fn table_defaults_are_the_librarys() {
        let (broker, obs) = configs_for(&["--trace", "--slo", "--flow", "--topic-obs"]);
        assert_eq!(broker.shards, BrokerConfig::default().shards);
        assert_eq!(broker.metrics, Some(MetricsConfig::default()));
        assert_eq!(broker.trace, Some(TraceConfig::default()));
        assert_eq!(broker.flow, Some(FlowConfig::default()));
        assert_eq!(broker.topic_obs, Some(TopicObsConfig::default()));
        let (obs, interval) = obs.expect("--slo");
        assert_eq!(interval, Duration::from_secs(1), "one history slot a second");
        assert_eq!(obs.forecast, ForecastConfig::default());
    }

    #[test]
    fn nothing_runs_unless_asked_for_and_tuning_reaches_the_configs() {
        let (broker, obs) = configs_for(&[]);
        assert!(broker.metrics.is_none() && broker.trace.is_none() && broker.flow.is_none());
        assert!(broker.topic_obs.is_none() && broker.cost_model.is_none() && obs.is_none());

        let (broker, obs) = configs_for(&[
            "--shards",
            "2",
            "--cost-model",
            "app",
            "--trace-quantile",
            "0.5",
            "--flow-w99",
            "5",
            "--flow-classes",
            "4",
            "--history",
            "3",
            "--forecast-horizon",
            "60",
            "--forecast-confidence",
            "high",
        ]);
        assert_eq!(broker.shards, 2);
        assert_eq!(broker.cost_model, Some(CostParams::APPLICATION_PROPERTY));
        assert!(broker.trace.is_none(), "a trace tuning flag implies nothing, as at the parent");
        let flow = broker.flow.expect("--flow-w99 implies --flow");
        assert_eq!((flow.w99_objective, flow.classes), (0.005, 4));
        let (obs, interval) = obs.expect("--history implies --slo");
        assert_eq!(interval, Duration::from_secs(3));
        assert_eq!(obs.forecast.horizon, Duration::from_secs(60));
        assert_eq!(obs.forecast.min_confidence, Confidence::High);
        assert!(obs.forecast.enabled);
    }
}
