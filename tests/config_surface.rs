//! Pins the configuration surface: the `Debug` text of every public config
//! type at its defaults, and of a broker config with every section on at
//! its default. It is the config counterpart of `crates/broker/tests/
//! metric_surface.rs`: a new public knob or a changed default shows up here
//! as a one-line golden diff, to be reviewed like any other change of the
//! surface. Values the broker keeps as constants are not on it.

use rjms::broker::{
    BrokerConfig, FlowConfig, JournalConfig, MetricsConfig, PersistenceConfig, TopicObsConfig,
    TraceConfig,
};
use rjms::obs::{ForecastConfig, ObsConfig};

/// Asserts that `value`'s pretty `Debug` text is `golden` (minus its
/// leading newline).
fn assert_surface(value: &impl std::fmt::Debug, golden: &str) {
    let actual = format!("{value:#?}");
    assert_eq!(actual, golden.trim_start_matches('\n'), "surface changed; actual:\n{actual}\n");
}

#[test]
fn broker_config_with_every_section_at_its_default() {
    let config = BrokerConfig::builder()
        .persistence(PersistenceConfig::new("journal"))
        .metrics(MetricsConfig::default())
        .trace(TraceConfig::default())
        .flow(FlowConfig::default())
        .topic_obs(TopicObsConfig::default())
        .build();
    assert_surface(&config, BROKER);
}

#[test]
fn section_defaults() {
    assert_surface(&FlowConfig::default(), FLOW);
    assert_surface(&TopicObsConfig::default(), TOPIC_OBS);
    assert_surface(&TraceConfig::default(), TRACE);
    assert_surface(&JournalConfig::new("journal"), JOURNAL);
    assert_surface(&ObsConfig::default(), OBS);
    assert_surface(&ForecastConfig::default(), FORECAST);
}

const BROKER: &str = r#"
BrokerConfig {
    shards: 1,
    publish_queue_capacity: 1024,
    subscriber_queue_capacity: 4096,
    overflow_policy: Block,
    cost_model: None,
    persistence: Some(
        PersistenceConfig {
            journal: JournalConfig {
                dir: "journal",
                segment_max_bytes: 8388608,
                fsync: EveryN(
                    64,
                ),
                max_sealed_segments: None,
            },
        },
    ),
    metrics: Some(
        MetricsConfig,
    ),
    trace: Some(
        TraceConfig {
            tail_quantile: 0.99,
        },
    ),
    flow: Some(
        FlowConfig {
            w99_objective: 0.01,
            classes: 3,
            params: CostParams {
                t_rcv: 8.52e-7,
                t_fltr: 7.02e-6,
                t_tx: 1.7e-5,
                t_store: 0.0,
            },
            filters: 100,
            refresh_interval_ms: 1000,
        },
    ),
    topic_obs: Some(
        TopicObsConfig,
    ),
}"#;

const FLOW: &str = r#"
FlowConfig {
    w99_objective: 0.01,
    classes: 3,
    params: CostParams {
        t_rcv: 8.52e-7,
        t_fltr: 7.02e-6,
        t_tx: 1.7e-5,
        t_store: 0.0,
    },
    filters: 100,
    refresh_interval_ms: 1000,
}"#;

const TOPIC_OBS: &str = r#"
TopicObsConfig"#;

const TRACE: &str = r#"
TraceConfig {
    tail_quantile: 0.99,
}"#;

const JOURNAL: &str = r#"
JournalConfig {
    dir: "journal",
    segment_max_bytes: 8388608,
    fsync: EveryN(
        64,
    ),
    max_sealed_segments: None,
}"#;

const OBS: &str = r#"
ObsConfig {
    slos: [
        SloSpec {
            name: "w99",
            objective: LatencyQuantile {
                metric: "broker.waiting_ns",
                quantile: 0.99,
                limit_ns: 10000000,
            },
            fast_window: 300s,
            slow_window: 3600s,
            burn_threshold: 2.0,
        },
        SloSpec {
            name: "w9999",
            objective: LatencyQuantile {
                metric: "broker.waiting_ns",
                quantile: 0.9999,
                limit_ns: 100000000,
            },
            fast_window: 300s,
            slow_window: 3600s,
            burn_threshold: 2.0,
        },
        SloSpec {
            name: "rho",
            objective: UtilizationCeiling {
                ceiling: 0.9,
            },
            fast_window: 300s,
            slow_window: 3600s,
            burn_threshold: 1.0,
        },
        SloSpec {
            name: "model",
            objective: DriftHealth,
            fast_window: 300s,
            slow_window: 3600s,
            burn_threshold: 1.0,
        },
    ],
    forecast: ForecastConfig {
        enabled: true,
        horizon: 900s,
        trend_window: 300s,
        min_confidence: Medium,
    },
}"#;

const FORECAST: &str = r#"
ForecastConfig {
    enabled: true,
    horizon: 900s,
    trend_window: 300s,
    min_confidence: Medium,
}"#;
