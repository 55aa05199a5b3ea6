//! The command lines of the rjms tools, declared once.
//!
//! Each tool's surface is a table with one [`Row`] per setting:
//! [`SETTINGS`] for `rjms-server`, [`PUB`], [`SUB`] and [`TOP`] for
//! `rjms-pub`, `rjms-sub` and `rjms-top`. The row gives the command-line
//! flag, the `--config` file's `section.key` (the server's rows only), the
//! kind of value with its one range check, the built-in default, the
//! toggle a tuning flag switches on, and the `--help` line.
//! [`parse_flags`], [`parse_file`], [`usage`] and [`command_line`] walk a
//! table; adding a setting is adding a row (and reading it where the tool
//! builds its configs).
//!
//! Precedence is [`Values::over`]: flags over file over built-in defaults.
//! A scalar takes the flag's value when the flag was given; a list is the
//! file's entries followed by the flags' new ones; a feature is on when its
//! flag was given, or when the file has its section and the section does
//! not say `enabled = false` — which keeps the section's tuning while
//! leaving the feature off. A tuning *flag* (`--flow-w99`, `--history`, …)
//! also switches its feature on; a tuning *key in a file* never does.
//! Forecasting rides on the SLO engine: it runs whenever the engine does
//! unless `[forecast]` says `enabled = false`, and asking for it
//! (`--forecast`, a forecast tuning flag, an enabled `[forecast]` section)
//! switches the engine on.
//!
//! `rjms-server`'s file is a small, dependency-free TOML subset: `key =
//! value` pairs one per line, `[section]` headers, values that are
//! `"strings"`, `true`/`false`, integers, floats or single-line arrays of
//! strings, `#` comments (outside strings) and blank lines.
//!
//! ```toml
//! # rjms-server.toml
//! listen = "127.0.0.1:7670"
//! topics = ["orders", "audit"]
//! shards = 4
//! stats_every = 10        # seconds
//! metrics_interval = 30   # seconds
//! cost_model = "corr"     # corr | app
//! http = "127.0.0.1:9100"
//!
//! [trace]
//! tail_quantile = 0.99
//!
//! [slo]
//! history_secs = 2
//! alert_sinks = ["stderr", "webhook:127.0.0.1:9200/alerts"]
//!
//! [forecast]
//! horizon_secs = 600
//! trend_window_secs = 120
//! min_confidence = "high"   # low | medium | high
//!
//! [flow]
//! enabled = false   # keep the tuning below, leave admission control off
//! w99_ms = 5
//! classes = 4
//!
//! [topic_obs]   # a bare section switches its feature on
//! ```

use std::fmt::Write as _;

/// Names one setting of `rjms-server`, in [`SETTINGS`] order.
#[allow(missing_docs)] // each variant is documented by its row's help text
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    Config,
    Listen,
    Topics,
    Shards,
    StatsEvery,
    MetricsInterval,
    CostPreset,
    Http,
    Trace,
    TraceQuantile,
    Slo,
    History,
    AlertSinks,
    Forecast,
    ForecastHorizon,
    ForecastTrendWindow,
    ForecastConfidence,
    Flow,
    FlowW99,
    FlowClasses,
    TopicObs,
}

/// What a setting's value may be. Each kind has its range check in
/// [`check`] and nowhere else.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Any string.
    Text,
    /// One of the listed strings.
    Choice(&'static [&'static str]),
    /// Strings, each accepted by the item check: a repeatable flag, an
    /// array in the file.
    List(fn(&str) -> Result<(), String>),
    /// A non-negative integer in `min..=max`.
    Count {
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value (`u64::MAX`: unbounded).
        max: u64,
    },
    /// A number (an integer is coerced) accepted by the predicate; the text
    /// names the range in error messages.
    Number(fn(f64) -> bool, &'static str),
    /// A feature switch: a flag without argument; in the file the section
    /// header, or `enabled = bool` under it.
    Toggle,
}

/// One setting of a tool whose settings are named by `K`.
#[derive(Debug, Clone, Copy)]
pub struct Row<K: 'static = Key> {
    /// The setting's name in code.
    pub key: K,
    /// The flag and its argument's placeholder (`"--shards N"`); empty for
    /// a file-only setting.
    pub flag: &'static str,
    /// The file spelling, `key` at top level or `section.key`; empty for a
    /// flag-only setting.
    pub file: &'static str,
    /// The value kind and its range.
    pub kind: Kind,
    /// The built-in default as it would be written on the command line;
    /// empty when the setting is simply absent by default.
    pub default: &'static str,
    /// The toggle this setting switches on: for a tuning setting when it
    /// is given *as a flag*, for a toggle whenever it is explicitly on.
    pub implies: Option<K>,
    /// The `--help` text.
    pub help: &'static str,
}

impl<K> Row<K> {
    /// The flag without its placeholder.
    fn flag_name(&self) -> &'static str {
        self.flag.split(' ').next().unwrap_or("")
    }

    /// `(section, key)` of the file spelling; the section is empty at top
    /// level.
    fn file_path(&self) -> (&'static str, &'static str) {
        self.file.split_once('.').unwrap_or(("", self.file))
    }
}

const fn row<K>(
    key: K,
    flag: &'static str,
    file: &'static str,
    kind: Kind,
    default: &'static str,
    implies: Option<K>,
    help: &'static str,
) -> Row<K> {
    Row { key, flag, file, kind, default, implies, help }
}

const ROWS: usize = 21;
const ANY: u64 = u64::MAX;
const AT_LEAST_1: Kind = Kind::Count { min: 1, max: ANY };

fn any_name(_: &str) -> Result<(), String> {
    Ok(())
}

fn alert_sink(sink: &str) -> Result<(), String> {
    if sink == "stderr" || sink.starts_with("webhook:") {
        Ok(())
    } else {
        Err(format!("bad alert sink `{sink}` (stderr|webhook:ADDR/PATH)"))
    }
}

fn open_unit_interval(q: f64) -> bool {
    q > 0.0 && q < 1.0
}

/// Every setting of `rjms-server`, in [`Key`] order. `--config` is the one
/// flag-only row and `forecast.trend_window_secs` the one file-only row.
/// The defaults of the tuning rows restate the library's own
/// (`FlowConfig::default()` and friends); a test in `rjms-server` holds
/// the two together.
#[rustfmt::skip]
pub static SETTINGS: [Row; ROWS] = [
    //  key, flag, file key, kind, default, implies, help
    row(Key::Config, "--config FILE", "", Kind::Text, "", None,
        "read settings from a TOML-subset file (schema: the rjms::settings docs)"),
    row(Key::Listen, "--listen ADDR", "listen", Kind::Text, "127.0.0.1:7670", None,
        "the broker's TCP listen address"),
    row(Key::Topics, "--topic NAME", "topics", Kind::List(any_name), "", None,
        "create this topic at startup (repeatable)"),
    row(Key::Shards, "--shards N", "shards", AT_LEAST_1, "1", None,
        "dispatcher threads; topics hash onto shards"),
    row(Key::StatsEvery, "--stats-every SECS", "stats_every", Kind::Count { min: 0, max: ANY }, "", None,
        "print a throughput line to stderr at this interval"),
    row(Key::MetricsInterval, "--metrics-interval SECS", "metrics_interval", Kind::Count { min: 0, max: ANY }, "", None,
        "enable the dispatch instruments and print the full report at this interval"),
    row(Key::CostPreset, "--cost-model MODEL", "cost_model", Kind::Choice(&["corr", "app"]), "", None,
        "burn the paper's Table I per-message costs (corr|app) and check the model against them"),
    row(Key::Http, "--http ADDR", "http", Kind::Text, "", None,
        "serve /metrics, /snapshot.json and the other rjms::http routes here"),
    row(Key::Trace, "--trace", "trace.enabled", Kind::Toggle, "", None,
        "keep span chains of the slowest messages in the flight recorder"),
    row(Key::TraceQuantile, "--trace-quantile Q", "trace.tail_quantile", Kind::Number(open_unit_interval, "in (0, 1)"), "0.99", None,
        "sojourn-time quantile above which a chain is kept"),
    row(Key::Slo, "--slo", "slo.enabled", Kind::Toggle, "", None,
        "run the waiting-time SLO engine (metric history, burn-rate alerts)"),
    row(Key::History, "--history SECS", "slo.history_secs", AT_LEAST_1, "1", Some(Key::Slo),
        "the engine's sampling interval"),
    row(Key::AlertSinks, "--alert-sink SINK", "slo.alert_sinks", Kind::List(alert_sink), "", None,
        "deliver alert transitions here too: stderr, or webhook:HOST:PORT/PATH (repeatable)"),
    row(Key::Forecast, "--forecast", "forecast.enabled", Kind::Toggle, "true", Some(Key::Slo),
        "project time-to-breach from the arrival trend; runs whenever the SLO engine does"),
    row(Key::ForecastHorizon, "--forecast-horizon SECS", "forecast.horizon_secs", AT_LEAST_1, "900", Some(Key::Forecast),
        "a projected breach inside this look-ahead raises `pending`"),
    row(Key::ForecastTrendWindow, "", "forecast.trend_window_secs", AT_LEAST_1, "300", None,
        "trailing window the arrival-rate trend is fitted over"),
    row(Key::ForecastConfidence, "--forecast-confidence LEVEL", "forecast.min_confidence", Kind::Choice(&["low", "medium", "high"]), "medium", Some(Key::Forecast),
        "confidence a forecast needs to raise `pending` (low|medium|high)"),
    row(Key::Flow, "--flow", "flow.enabled", Kind::Toggle, "", None,
        "model-driven admission control: token buckets per priority class under lambda_max"),
    row(Key::FlowW99, "--flow-w99 MS", "flow.w99_ms", AT_LEAST_1, "10", Some(Key::Flow),
        "the W99 waiting-time objective lambda_max is inverted from"),
    row(Key::FlowClasses, "--flow-classes N", "flow.classes", Kind::Count { min: 1, max: 10 }, "3", Some(Key::Flow),
        "priority classes, 1..=10"),
    row(Key::TopicObs, "--topic-obs", "topic_obs.enabled", Kind::Toggle, "", None,
        "per-topic accounting with fitted Eq. 1 costs and the shard-skew measurement"),
];

/// Names one flag of `rjms-pub`.
#[allow(missing_docs)] // each variant is documented by its row's help text
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pub {
    Connect,
    Topic,
    Count,
    Rate,
    CorrId,
    Prop,
    Body,
    CreateTopic,
    PrintTraceIds,
}

fn key_value(prop: &str) -> Result<(), String> {
    prop.contains('=').then_some(()).ok_or_else(|| format!("property `{prop}` must be key=value"))
}

fn finite_positive(r: f64) -> bool {
    r > 0.0 && r.is_finite()
}

/// `rjms-pub`'s flags. `--topic` is required; `rjms-pub` reads each
/// `--prop` value as the first of int, float, bool, string it parses as.
#[rustfmt::skip]
pub static PUB: [Row<Pub>; 9] = [
    row(Pub::Connect, "--connect ADDR", "", Kind::Text, "127.0.0.1:7670", None, "the broker's address"),
    row(Pub::Topic, "--topic NAME", "", Kind::Text, "", None, "the topic to publish to (required)"),
    row(Pub::Count, "--count N", "", Kind::Count { min: 0, max: ANY }, "1", None, "messages to publish"),
    row(Pub::Rate, "--rate MSGS_PER_SEC", "", Kind::Number(finite_positive, "finite and > 0"), "", None,
        "publish at this fixed rate; without it, as fast as the broker takes them"),
    row(Pub::CorrId, "--corr-id ID", "", Kind::Text, "", None, "the messages' correlation ID"),
    row(Pub::Prop, "--prop KEY=VALUE", "", Kind::List(key_value), "", None,
        "a property: int, float, bool, else string (repeatable)"),
    row(Pub::Body, "--body TEXT", "", Kind::Text, "", None, "the message body"),
    row(Pub::CreateTopic, "--create-topic", "", Kind::Toggle, "", None, "create the topic first"),
    row(Pub::PrintTraceIds, "--print-trace-ids", "", Kind::Toggle, "", None,
        "print `trace <id>` for each message, as /traces names it"),
];

/// Names one flag of `rjms-sub`.
#[allow(missing_docs)] // each variant is documented by its row's help text
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sub {
    Connect,
    Topic,
    Selector,
    CorrId,
    Pattern,
    Count,
    Quiet,
}

/// `rjms-sub`'s flags. `--topic` is required; `--selector` and
/// `--corr-id` are alternatives.
#[rustfmt::skip]
pub static SUB: [Row<Sub>; 7] = [
    row(Sub::Connect, "--connect ADDR", "", Kind::Text, "127.0.0.1:7670", None, "the broker's address"),
    row(Sub::Topic, "--topic NAME", "", Kind::Text, "", None, "the topic to subscribe to (required)"),
    row(Sub::Selector, "--selector EXPR", "", Kind::Text, "", None, "a JMS message selector"),
    row(Sub::CorrId, "--corr-id PAT", "", Kind::Text, "", None, "a correlation-ID pattern, instead of --selector"),
    row(Sub::Pattern, "--pattern", "", Kind::Toggle, "", None, "read --topic as a wildcard pattern (sensors.>)"),
    row(Sub::Count, "--count N", "", AT_LEAST_1, "", None, "exit after N messages; without it, run until killed"),
    row(Sub::Quiet, "--quiet", "", Kind::Toggle, "", None, "do not print each message"),
];

/// Names one flag of `rjms-top`.
#[allow(missing_docs)] // each variant is documented by its row's help text
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Top {
    Url,
    Interval,
    Once,
}

/// `rjms-top`'s flags.
#[rustfmt::skip]
pub static TOP: [Row<Top>; 3] = [
    row(Top::Url, "--url HOST:PORT", "", Kind::Text, "127.0.0.1:7881", None, "rjms-server's --http address"),
    row(Top::Interval, "--interval SECS", "", AT_LEAST_1, "2", None, "redraw at this interval"),
    row(Top::Once, "--once", "", Kind::Toggle, "", None, "draw one frame and exit with its status"),
];

/// `rjms-top --help`'s closing paragraph.
pub const TOP_NOTES: &str = "\n--once exit codes:\n  \
     0  all objectives healthy\n  \
     1  an objective is firing, or pending with a high-confidence forecast\n  \
     2  transport or usage error\n";

/// One checked value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Text(String),
    List(Vec<String>),
    Count(u64),
    Number(f64),
    On(bool),
}

/// Checked values of one table's settings: what the flags said, what the
/// file said, or — after [`Values::over`] — what the tool runs with.
#[derive(Debug, Clone)]
pub struct Values<K: 'static = Key> {
    rows: &'static [Row<K>],
    /// By row index.
    slots: Vec<Option<Value>>,
}

impl<K: Copy + PartialEq> Values<K> {
    /// No value yet for any row of `rows`.
    pub fn new(rows: &'static [Row<K>]) -> Self {
        Self { rows, slots: vec![None; rows.len()] }
    }

    fn slot(&mut self, key: K) -> &mut Option<Value> {
        let index = self.index(key);
        &mut self.slots[index]
    }

    fn get(&self, key: K) -> Option<&Value> {
        self.slots[self.index(key)].as_ref()
    }

    fn index(&self, key: K) -> usize {
        self.rows.iter().position(|row| row.key == key).expect("the key names a row of the table")
    }

    /// The whole precedence contract (see the [module docs](self)):
    /// `self` holds the flags, `file` the file's values.
    pub fn over(mut self, file: Values<K>) -> Values<K> {
        for (slot, below) in self.slots.iter_mut().zip(file.slots) {
            *slot = match (slot.take(), below) {
                (Some(Value::List(new)), below) => {
                    let mut items = match below {
                        Some(Value::List(items)) => items,
                        _ => Vec::new(),
                    };
                    for item in new {
                        if !items.contains(&item) {
                            items.push(item);
                        }
                    }
                    Some(Value::List(items))
                }
                (given, below) => given.or(below),
            };
        }
        let rows = self.rows;
        for row in rows {
            if let (Kind::Toggle, Some(toggle)) = (row.kind, row.implies) {
                if self.on(row.key) {
                    *self.slot(toggle) = Some(Value::On(true));
                }
            }
        }
        for row in rows.iter().filter(|row| !row.default.is_empty()) {
            self.slot(row.key).get_or_insert_with(|| {
                check(&row.kind, "default", bare(&row.kind, row.default))
                    .expect("the table's defaults pass their own checks")
            });
        }
        self
    }

    /// Whether a toggle is on.
    pub fn on(&self, key: K) -> bool {
        self.get(key) == Some(&Value::On(true))
    }

    /// A `Text` or `Choice` setting, when it has a value.
    pub fn text(&self, key: K) -> Option<&str> {
        match self.get(key) {
            Some(Value::Text(text)) => Some(text),
            _ => None,
        }
    }

    /// A `Count` setting, when it has a value.
    pub fn count(&self, key: K) -> Option<u64> {
        match self.get(key) {
            Some(&Value::Count(n)) => Some(n),
            _ => None,
        }
    }

    /// A `Number` setting, when it has a value.
    pub fn number(&self, key: K) -> Option<f64> {
        match self.get(key) {
            Some(&Value::Number(x)) => Some(x),
            _ => None,
        }
    }

    /// A `List` setting; empty when nothing was given.
    pub fn list(&self, key: K) -> &[String] {
        match self.get(key) {
            Some(Value::List(items)) => items,
            _ => &[],
        }
    }
}

/// One lexed right-hand side, before it is checked against a [`Kind`].
#[derive(Debug, Clone, PartialEq)]
enum Raw {
    Str(String),
    Bool(bool),
    Int(i64),
    Float(f64),
    StrArray(Vec<String>),
}

impl Raw {
    fn type_name(&self) -> &'static str {
        match self {
            Raw::Str(_) => "string",
            Raw::Bool(_) => "bool",
            Raw::Int(_) => "integer",
            Raw::Float(_) => "float",
            Raw::StrArray(_) => "string array",
        }
    }
}

/// The one type and range check of every setting. `spelled` is how the
/// user wrote the setting (`--shards` or `` `shards` ``), so the message
/// points at what they typed.
fn check(kind: &Kind, spelled: &str, raw: Raw) -> Result<Value, String> {
    let wrong_type = |expects: &str, raw: Raw| {
        Err(format!("{spelled} expects {expects}, got {}", raw.type_name()))
    };
    match kind {
        Kind::Text => match raw {
            Raw::Str(text) => Ok(Value::Text(text)),
            other => wrong_type("a string", other),
        },
        Kind::Choice(options) => match raw {
            Raw::Str(text) if options.contains(&text.as_str()) => Ok(Value::Text(text)),
            Raw::Str(text) => {
                Err(format!("{spelled} must be one of {}, got `{text}`", options.join("|")))
            }
            other => wrong_type("a string", other),
        },
        Kind::List(item) => match raw {
            Raw::StrArray(items) => {
                items.iter().try_for_each(|i| item(i)).map_err(|e| format!("{spelled}: {e}"))?;
                Ok(Value::List(items))
            }
            other => wrong_type("a string array", other),
        },
        &Kind::Count { min, max } => match raw {
            Raw::Int(i) if i >= 0 => match i as u64 {
                n if (min..=max).contains(&n) => Ok(Value::Count(n)),
                _ if max == ANY => Err(format!("{spelled} must be at least {min}")),
                n => Err(format!("{spelled} must be in {min}..={max}, got {n}")),
            },
            other => wrong_type("a non-negative integer", other),
        },
        Kind::Number(accepts, range) => {
            let x = match raw {
                Raw::Int(i) => i as f64,
                Raw::Float(x) => x,
                other => return wrong_type("a number", other),
            };
            if accepts(x) {
                Ok(Value::Number(x))
            } else {
                Err(format!("{spelled} must be {range}, got {x}"))
            }
        }
        Kind::Toggle => match raw {
            Raw::Bool(on) => Ok(Value::On(on)),
            other => wrong_type("true/false", other),
        },
    }
}

/// Lexes text that carries no TOML quoting — a flag's argument or a
/// default of the table — the way `kind` reads it.
fn bare(kind: &Kind, text: &str) -> Raw {
    match kind {
        Kind::Text | Kind::Choice(_) => Raw::Str(text.to_owned()),
        Kind::List(_) => Raw::StrArray(vec![text.to_owned()]),
        Kind::Count { .. } | Kind::Number(..) | Kind::Toggle => {
            parse_value(text).unwrap_or_else(|_| Raw::Str(text.to_owned()))
        }
    }
}

/// Reads command-line flags (without the program name) against `rows`.
///
/// # Errors
///
/// An unknown flag, a missing argument, or a value its row's kind rejects.
pub fn parse_flags<K: Copy + PartialEq>(
    rows: &'static [Row<K>],
    args: impl IntoIterator<Item = String>,
) -> Result<Values<K>, String> {
    let mut values = Values::new(rows);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let row = rows
            .iter()
            .find(|row| !row.flag.is_empty() && row.flag_name() == flag)
            .ok_or_else(|| format!("unknown flag `{flag}` (try --help)"))?;
        let value = if let Kind::Toggle = row.kind {
            Value::On(true)
        } else {
            let arg = args.next().ok_or_else(|| format!("{} needs its argument", row.flag))?;
            let value = check(&row.kind, &flag, bare(&row.kind, &arg))?;
            if let Some(toggle) = row.implies {
                *values.slot(toggle) = Some(Value::On(true));
            }
            value
        };
        match (values.slot(row.key), value) {
            (Some(Value::List(items)), Value::List(new)) => items.extend(new),
            (slot, value) => *slot = Some(value),
        }
    }
    Ok(values)
}

/// The process's command line read against `rows`, for a tool's `main`:
/// with `--help` or `-h` anywhere it prints the tool's [`usage`] and exits
/// 0, and a flag the table rejects is a [`usage_error`].
pub fn command_line<K: Copy + PartialEq>(
    program: &str,
    rows: &'static [Row<K>],
    notes: &str,
) -> Values<K> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        print!("{}", usage(program, rows, notes));
        std::process::exit(0);
    }
    parse_flags(rows, args).unwrap_or_else(|e| usage_error(e))
}

/// Ends the process the way a bad command line does: the message on
/// stderr, exit status 2.
pub fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Reads and parses a settings file.
///
/// # Errors
///
/// A message naming the file, and the offending line for what
/// [`parse_file`] rejects.
pub fn load(path: &str) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    parse_file(&text).map_err(|e| format!("{path}: {e}"))
}

/// Parses settings-file text (see the [module docs](self) for the
/// grammar).
///
/// # Errors
///
/// A message naming the offending line number on malformed syntax, an
/// unknown section or key, or a value its row's kind rejects.
pub fn parse_file(text: &str) -> Result<Values, String> {
    let mut values = Values::new(&SETTINGS);
    let mut section = "";
    for (index, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", index + 1);
        if let Some(inner) = line.strip_prefix('[') {
            let name = inner
                .strip_suffix(']')
                .ok_or_else(|| at("unterminated section header".to_owned()))?
                .trim();
            let toggle = SETTINGS
                .iter()
                .find(|row| row.file_path() == (name, "enabled"))
                .ok_or_else(|| at(format!("unknown section `[{name}]` ({})", sections())))?;
            *values.slot(toggle.key) = Some(Value::On(true));
            section = toggle.file_path().0;
            continue;
        }
        let (key, rest) =
            line.split_once('=').ok_or_else(|| at("expected `key = value`".to_owned()))?;
        let key = key.trim();
        let value = parse_value(rest.trim()).map_err(at)?;
        let row = SETTINGS
            .iter()
            .find(|row| !row.file.is_empty() && row.file_path() == (section, key))
            .ok_or_else(|| {
                at(match section {
                    "" => format!("unknown key `{key}` at top level"),
                    _ => format!("unknown key `{key}` in [{section}]"),
                })
            })?;
        *values.slot(row.key) = Some(check(&row.kind, &format!("`{key}`"), value).map_err(at)?);
    }
    Ok(values)
}

/// The file's section names, `a|b|c`, in table order.
fn sections() -> String {
    let names: Vec<&str> = SETTINGS
        .iter()
        .filter(|row| matches!(row.kind, Kind::Toggle))
        .map(|row| row.file_path().0)
        .collect();
    names.join("|")
}

/// `rjms-server --help`'s closing paragraph.
pub const SERVER_NOTES: &str =
    "\nFlags override the --config file, which overrides the defaults; a repeatable flag\n\
     adds to the file's list; a [section] switches its feature on unless it says\n\
     `enabled = false`. A file-only key: forecast.trend_window_secs.\n";

/// `program`'s `--help` text: one line per flag of `rows`, then `notes`.
pub fn usage<K: PartialEq>(program: &str, rows: &[Row<K>], notes: &str) -> String {
    let mut out = format!("usage: {program} [FLAG]...\n\n");
    for row in rows.iter().filter(|row| !row.flag.is_empty()) {
        let _ = write!(out, "  {:<28} {}", row.flag, row.help);
        if !row.file.is_empty() {
            let _ = write!(out, " [file: {}]", row.file);
        }
        if !row.default.is_empty() {
            let _ = write!(out, " [default: {}]", row.default);
        }
        if let Some(toggle) = &row.implies {
            let implied = rows.iter().find(|other| other.key == *toggle);
            let _ = write!(out, " [implies {}]", implied.map_or("", Row::flag_name));
        }
        out.push('\n');
    }
    let _ = writeln!(out, "  {:<28} print this text", "--help");
    out.push_str(notes);
    out
}

/// Removes a trailing `#` comment, honoring `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses one right-hand side: string, bool, array, or number.
fn parse_value(raw: &str) -> Result<Raw, String> {
    if raw.is_empty() {
        return Err("missing value".to_owned());
    }
    if raw.starts_with('"') {
        return Ok(Raw::Str(parse_string(raw)?.0));
    }
    if raw == "true" {
        return Ok(Raw::Bool(true));
    }
    if raw == "false" {
        return Ok(Raw::Bool(false));
    }
    if let Some(inner) = raw.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array (arrays must be single-line)".to_owned())?
            .trim();
        let mut items = Vec::new();
        let mut rest = inner;
        while !rest.is_empty() {
            if !rest.starts_with('"') {
                return Err(format!("array items must be quoted strings, got `{rest}`"));
            }
            let (item, remainder) = parse_string(rest)?;
            items.push(item);
            rest = remainder.trim_start();
            if let Some(after_comma) = rest.strip_prefix(',') {
                rest = after_comma.trim_start();
            } else if !rest.is_empty() {
                return Err(format!("expected `,` between array items, got `{rest}`"));
            }
        }
        return Ok(Raw::StrArray(items));
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Ok(Raw::Int(i));
    }
    if let Ok(f) = raw.parse::<f64>() {
        return Ok(Raw::Float(f));
    }
    Err(format!("cannot parse value `{raw}`"))
}

/// Parses a leading quoted string, returning it and the unconsumed rest.
fn parse_string(raw: &str) -> Result<(String, &str), String> {
    let mut out = String::new();
    let mut escaped = false;
    for (i, c) in raw.char_indices().skip(1) {
        match c {
            _ if escaped => {
                out.push(match c {
                    'n' => '\n',
                    't' => '\t',
                    other => other, // \" and \\ pass through
                });
                escaped = false;
            }
            '\\' => escaped = true,
            '"' => return Ok((out, &raw[i + c.len_utf8()..])),
            _ => out.push(c),
        }
    }
    Err(format!("unterminated string in `{raw}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(argv: &[&str]) -> Result<Values, String> {
        parse_flags(&SETTINGS, argv.iter().map(|s| (*s).to_owned()))
    }

    /// What `rjms-server` runs with, given this command line and file.
    fn effective(argv: &[&str], file: &str) -> Values {
        flags(argv).unwrap().over(parse_file(file).unwrap())
    }

    /// A slot as the expectations below spell it.
    fn show(values: &Values, key: Key) -> String {
        match &values.slots[key as usize] {
            None => "-".to_owned(),
            Some(Value::Text(text)) => text.clone(),
            Some(Value::List(items)) => items.join(","),
            Some(Value::Count(n)) => n.to_string(),
            Some(Value::Number(x)) => x.to_string(),
            Some(Value::On(on)) => if *on { "on" } else { "off" }.to_owned(),
        }
    }

    fn row_of(key: Key) -> &'static Row {
        &SETTINGS[key as usize]
    }

    /// `value` as the file spells it under `key`'s row: section header,
    /// then `key = value` quoted the way the kind wants it.
    fn file_text(key: Key, value: &str) -> String {
        let row = row_of(key);
        let (section, name) = row.file_path();
        let literal = match bare(&row.kind, value) {
            Raw::Str(text) => format!("{text:?}"),
            Raw::StrArray(items) => format!("{items:?}"),
            _ => value.to_owned(),
        };
        match section {
            "" => format!("{name} = {literal}\n"),
            _ => format!("[{section}]\n{name} = {literal}\n"),
        }
    }

    /// The ```toml block of the module docs.
    fn schema_example() -> String {
        include_str!("settings.rs")
            .lines()
            .skip_while(|line| *line != "//! ```toml")
            .skip(1)
            .take_while(|line| *line != "//! ```")
            .map(|line| line.trim_start_matches("//!").to_owned() + "\n")
            .collect()
    }

    #[test]
    fn table_is_in_key_order_and_its_spellings_are_unique() {
        for (index, row) in SETTINGS.iter().enumerate() {
            assert_eq!(row.key as usize, index, "{:?} is out of place", row.key);
            assert!(!row.flag.is_empty() || !row.file.is_empty(), "{:?} has no spelling", row.key);
            for other in &SETTINGS[index + 1..] {
                assert!(row.flag.is_empty() || row.flag_name() != other.flag_name());
                assert!(row.file.is_empty() || row.file != other.file);
            }
            if let Some(toggle) = row.implies {
                assert!(matches!(row_of(toggle).kind, Kind::Toggle), "{:?}", row.key);
            }
        }
    }

    /// A table's flags, `--help` included, space-separated.
    fn flag_list<K>(rows: &[Row<K>]) -> String {
        let flags: Vec<&str> = rows.iter().map(Row::flag_name).filter(|f| !f.is_empty()).collect();
        flags.join(" ") + " --help"
    }

    /// The surface of the parent commit: nothing added, renamed or removed.
    #[test]
    fn flag_set_and_file_schema_are_pinned() {
        assert_eq!(
            flag_list(&SETTINGS),
            "--config --listen --topic --shards --stats-every --metrics-interval --cost-model \
             --http --trace --trace-quantile --slo --history --alert-sink --forecast \
             --forecast-horizon --forecast-confidence --flow --flow-w99 --flow-classes \
             --topic-obs --help",
            "21 flags"
        );
        assert_eq!(
            flag_list(&PUB),
            "--connect --topic --count --rate --corr-id --prop --body --create-topic \
             --print-trace-ids --help"
        );
        assert_eq!(
            flag_list(&SUB),
            "--connect --topic --selector --corr-id --pattern --count --quiet --help"
        );
        assert_eq!(flag_list(&TOP), "--url --interval --once --help");
        let keys: Vec<&str> = SETTINGS.iter().map(|row| row.file).collect();
        assert_eq!(
            keys.join(" ").split_whitespace().collect::<Vec<_>>().join(" "),
            "listen topics shards stats_every metrics_interval cost_model http \
             trace.enabled trace.tail_quantile \
             slo.enabled slo.history_secs slo.alert_sinks \
             forecast.enabled forecast.horizon_secs forecast.trend_window_secs \
             forecast.min_confidence \
             flow.enabled flow.w99_ms flow.classes \
             topic_obs.enabled",
            "7 top-level keys, 5 sections"
        );
        assert_eq!(sections(), "trace|slo|forecast|flow|topic_obs");
        let client_rows = PUB.iter().map(|r| (r.file, r.implies.is_some()));
        let client_rows = client_rows
            .chain(SUB.iter().map(|r| (r.file, r.implies.is_some())))
            .chain(TOP.iter().map(|r| (r.file, r.implies.is_some())));
        for (file, implies) in client_rows {
            assert!(file.is_empty() && !implies, "a client tool's row is a flag and nothing else");
        }
    }

    /// Every kind's rejections, once per spelling the row has: the same
    /// check answers the flag and the file key, and names what was typed.
    #[test]
    fn each_kind_rejects_out_of_range_values_under_either_spelling() {
        const REJECTED: &[(Key, &str, &str)] = &[
            (Key::Shards, "0", "at least 1"),
            (Key::Shards, "four", "non-negative integer"),
            (Key::Shards, "-1", "non-negative integer"),
            (Key::StatsEvery, "2.5", "non-negative integer"),
            (Key::CostPreset, "fast", "corr"),
            (Key::TraceQuantile, "1.5", "(0, 1)"),
            (Key::TraceQuantile, "0", "(0, 1)"),
            (Key::TraceQuantile, "high", "a number"),
            (Key::History, "0", "at least 1"),
            (Key::AlertSinks, "smoke-signal", "bad alert sink"),
            (Key::ForecastHorizon, "0", "at least 1"),
            (Key::ForecastTrendWindow, "0", "at least 1"),
            (Key::ForecastConfidence, "sure", "low|medium|high"),
            (Key::FlowW99, "0", "at least 1"),
            (Key::FlowClasses, "0", "1..=10"),
            (Key::FlowClasses, "11", "1..=10"),
        ];
        for &(key, value, expected) in REJECTED {
            let row = row_of(key);
            if !row.flag.is_empty() {
                let err = flags(&[row.flag_name(), value]).unwrap_err();
                assert!(err.contains(expected), "{:?} = {value}: {err}", row.flag);
                assert!(err.contains(row.flag_name()), "{err}");
            }
            if !row.file.is_empty() {
                let text = file_text(key, value);
                let err = parse_file(&text).unwrap_err();
                assert!(err.contains(expected), "{text:?}: {err}");
                assert!(err.contains(&format!("`{}`", row.file_path().1)), "{err}");
                assert!(err.contains(&format!("line {}", text.lines().count())), "{err}");
            }
        }
        // Wrong TOML types, which a flag cannot express.
        for (text, expected) in [
            ("listen = 7670\n", "`listen` expects a string, got integer"),
            ("topics = \"orders\"\n", "`topics` expects a string array, got string"),
            ("[flow]\nenabled = 1\n", "`enabled` expects true/false, got integer"),
            ("cost_model = true\n", "`cost_model` expects a string, got bool"),
        ] {
            assert!(parse_file(text).unwrap_err().contains(expected), "{text:?}");
        }
        assert!(flags(&["--bogus"]).unwrap_err().contains("unknown flag `--bogus`"));
        assert!(flags(&[""]).unwrap_err().contains("unknown flag"), "no row's missing flag");
        assert!(flags(&["--shards"]).unwrap_err().contains("--shards N needs its argument"));
    }

    /// What the lexer and the schema reject, with the line it happened on.
    #[test]
    fn malformed_files_name_the_line() {
        for (text, expected) in [
            ("frobnicate = 1\n", &["line 1", "unknown key `frobnicate` at top level"][..]),
            ("[nope]\n", &["line 1", "unknown section `[nope]`"]),
            ("[topics_obs]\n", &["line 1", "unknown section", "topic_obs"]),
            (
                "[topic_obs]\ntarget_ratio = 1.1\n",
                &["line 2", "unknown key `target_ratio` in [topic_obs]"],
            ),
            ("[forecast]\neta = 5\n", &["line 2", "unknown key `eta` in [forecast]"]),
            ("[topic_obs]\n\ncap 64\n", &["line 3", "key = value"]),
            ("listen = \"ok\"\nbad line\n", &["line 2", "key = value"]),
            ("[topic_obs\ncap = 64\n", &["line 1", "unterminated section"]),
            ("[topic_obs]\ncap =\n", &["line 2", "missing value"]),
            ("listen = \"unterminated\n", &["line 1", "unterminated"]),
            ("topics = [\"a\" \"b\"]\n", &["line 1", "expected `,`"]),
            ("topics = [a]\n", &["line 1", "quoted strings"]),
            ("shards = 4x\n", &["line 1", "cannot parse value"]),
        ] {
            let err = parse_file(text).unwrap_err();
            for part in expected {
                assert!(err.contains(part), "{text:?}: `{err}` lacks `{part}`");
            }
        }
        assert_eq!(
            load("/nonexistent/rjms.toml").unwrap_err().split(':').next(),
            Some("cannot read `/nonexistent/rjms.toml`")
        );
    }

    #[test]
    fn comments_blank_lines_and_escapes() {
        for empty in ["", "# only comments\n\n"] {
            assert!(parse_file(empty).unwrap().slots.iter().all(Option::is_none), "{empty:?}");
        }
        let v = parse_file("listen = \"host#port\" # trailing comment\n").unwrap();
        assert_eq!(v.text(Key::Listen), Some("host#port"));
        let v = parse_file("topics = [\"a\\\"b\", \"tab\\tbed\"]\n").unwrap();
        assert_eq!(v.list(Key::Topics), ["a\"b", "tab\tbed"]);
    }

    /// Flag only / file only / both / neither, one scalar row of each kind
    /// with and without a default.
    #[test]
    fn scalar_precedence_is_flag_then_file_then_default() {
        const SCALARS: &[(Key, &str, &str)] = &[
            (Key::Listen, "10.0.0.1:1", "10.0.0.2:2"),
            (Key::Http, "10.0.0.1:3", "10.0.0.2:4"),
            (Key::Shards, "2", "4"),
            (Key::StatsEvery, "5", "0"),
            (Key::CostPreset, "app", "corr"),
            (Key::ForecastConfidence, "high", "low"),
            (Key::TraceQuantile, "0.9", "0.5"),
        ];
        for &(key, by_flag, by_file) in SCALARS {
            let row = row_of(key);
            let argv = [row.flag_name(), by_flag];
            let file = file_text(key, by_file);
            let built_in = if row.default.is_empty() { "-" } else { row.default };
            // "1.10" and "1.1" are one number; compare what was parsed.
            let same = |shown: String, expected: &str| match shown.parse::<f64>() {
                Ok(x) => Ok(x) == expected.parse::<f64>(),
                Err(_) => shown == expected,
            };
            assert!(same(show(&effective(&argv, &file), key), by_flag), "{key:?} both");
            assert!(same(show(&effective(&argv, ""), key), by_flag), "{key:?} flag only");
            assert!(same(show(&effective(&[], &file), key), by_file), "{key:?} file only");
            assert!(same(show(&effective(&[], ""), key), built_in), "{key:?} neither");
        }
    }

    #[test]
    fn lists_are_the_files_entries_then_the_flags_new_ones() {
        for (key, file, in_file, by_flag, union) in [
            (Key::Topics, "topics = [\"a\", \"b\"]\n", "a,b", ["b", "c"], "a,b,c"),
            (
                Key::AlertSinks,
                "[slo]\nalert_sinks = [\"stderr\", \"webhook:h:1/x\"]\n",
                "stderr,webhook:h:1/x",
                ["webhook:h:2/y", "stderr"],
                "stderr,webhook:h:1/x,webhook:h:2/y",
            ),
        ] {
            let name = row_of(key).flag_name();
            let argv = [name, by_flag[0], name, by_flag[1]];
            assert_eq!(show(&effective(&argv, file), key), union, "{key:?} both");
            assert_eq!(show(&effective(&argv, ""), key), by_flag.join(","), "{key:?} flag only");
            assert_eq!(show(&effective(&[], file), key), in_file, "{key:?} file only");
            assert!(effective(&[], "").list(key).is_empty(), "{key:?} neither");
            // A flag repeated with one value adds it once.
            let twice = [name, by_flag[0], name, by_flag[0]];
            assert_eq!(show(&effective(&twice, ""), key), by_flag[0]);
        }
    }

    /// Toggles: off by default, on by flag or by section, `enabled = false`
    /// beats the section header but not the flag.
    #[test]
    fn toggle_precedence() {
        for key in [Key::Trace, Key::Slo, Key::Flow, Key::TopicObs] {
            let row = row_of(key);
            let section = format!("[{}]\n", row.file_path().0);
            let disabled = format!("{section}enabled = false\n");
            assert!(!effective(&[], "").on(key), "{key:?} neither");
            assert!(effective(&[row.flag_name()], "").on(key), "{key:?} flag only");
            assert!(effective(&[], &section).on(key), "{key:?} section only");
            assert!(effective(&[], &format!("{section}enabled = true\n")).on(key));
            assert!(!effective(&[], &disabled).on(key), "{key:?} section switched off");
            assert!(effective(&[row.flag_name()], &disabled).on(key), "{key:?} flag over file");
        }
    }

    /// The bug this table fixed: at the parent `main` re-derived "feature
    /// on" from the merged tuning values, so a switched-off section with a
    /// tuning key switched the feature on.
    #[test]
    fn enabled_false_means_off_and_only_a_tuning_flag_implies_its_feature() {
        const TUNING: &[(Key, Key, &str, &str)] = &[
            (Key::Flow, Key::FlowW99, "5", "7"),
            (Key::Flow, Key::FlowClasses, "2", "4"),
            (Key::Slo, Key::History, "2", "3"),
        ];
        for &(toggle, tuning, in_file, by_flag) in TUNING {
            let toggle_flag = row_of(toggle).flag_name();
            let tuning_flag = row_of(tuning).flag_name();
            let tuned = file_text(tuning, in_file);
            let off = tuned.replacen('\n', "\nenabled = false\n", 1);

            let v = effective(&[], &off);
            assert!(!v.on(toggle), "{tuning:?}: `enabled = false` leaves the feature off");
            assert_eq!(show(&v, tuning), in_file, "{tuning:?}: and keeps the tuning");

            let v = effective(&[toggle_flag], &off);
            assert!(v.on(toggle), "{tuning:?}: the toggle flag wins over the file");
            assert_eq!(show(&v, tuning), in_file, "{tuning:?}: with the file's tuning");

            assert!(effective(&[], &tuned).on(toggle), "{tuning:?}: the section's presence");
            let v = effective(&[tuning_flag, by_flag], "");
            assert!(v.on(toggle), "{tuning:?}: a tuning flag alone implies its feature");
            assert_eq!(show(&v, tuning), by_flag);
            let v = effective(&[tuning_flag, by_flag], &off);
            assert!(v.on(toggle), "{tuning:?}: also over a switched-off section");
            assert_eq!(show(&v, tuning), by_flag, "{tuning:?}: flag beats file");
        }
    }

    /// Fixed command lines and files against the values the parent
    /// computed for them (its `Settings` after `merge`, plus the
    /// `*_enabled` it derived in `main`); cases 7–8 are the intended
    /// differences, where the parent switched the feature on.
    #[test]
    fn effective_values_match_the_parents() {
        let example = schema_example();
        // (command line, file, `Key=value` pairs in `show`'s spelling)
        let cases: &[(&str, &str, &str)] = &[
            // 1: nothing given
            (
                "",
                "",
                "Listen=127.0.0.1:7670 Topics=- Shards=1 StatsEvery=- MetricsInterval=- \
                 CostPreset=- Http=- Trace=- TraceQuantile=0.99 Slo=- AlertSinks=- Forecast=on \
                 Flow=- TopicObs=-",
            ),
            // 2: the schema example of the module docs
            (
                "",
                &example,
                "Listen=127.0.0.1:7670 Topics=orders,audit Shards=4 StatsEvery=10 \
                 MetricsInterval=30 CostPreset=corr Http=127.0.0.1:9100 Trace=on \
                 TraceQuantile=0.99 Slo=on History=2 \
                 AlertSinks=stderr,webhook:127.0.0.1:9200/alerts Forecast=on \
                 ForecastHorizon=600 ForecastTrendWindow=120 ForecastConfidence=high Flow=off \
                 FlowW99=5 FlowClasses=4 TopicObs=on",
            ),
            // 3: flags over the full file
            (
                "--listen 0.0.0.0:1 --topic audit --topic new --shards 2 --cost-model app \
                 --trace-quantile 0.5 --alert-sink stderr --forecast-confidence low \
                 --flow-classes 5",
                &example,
                "Listen=0.0.0.0:1 Topics=orders,audit,new Shards=2 CostPreset=app \
                 TraceQuantile=0.5 AlertSinks=stderr,webhook:127.0.0.1:9200/alerts \
                 ForecastConfidence=low ForecastHorizon=600 Flow=on FlowClasses=5 FlowW99=5",
            ),
            // 4: the command line of scripts/http_smoke.sh
            (
                "--listen 127.0.0.1:7871 --http 127.0.0.1:7881 --trace --slo --forecast --flow \
                 --shards 2 --topic-obs --topic smoke",
                "",
                "Trace=on Slo=on Forecast=on Flow=on TopicObs=on Shards=2 Topics=smoke \
                 Http=127.0.0.1:7881",
            ),
            // 5: `--topic-obs` re-enables over `enabled = false`
            ("--topic-obs", "[topic_obs]\nenabled = false\n", "TopicObs=on"),
            // 6: a bare section enables its feature with default tuning
            ("", "[flow]\n[trace]\n", "Flow=on FlowW99=10 Trace=on Slo=-"),
            // 7–8: switched-off sections keep their tuning and stay off
            ("", "[flow]\nenabled = false\nw99_ms = 5\n", "Flow=off FlowW99=5"),
            ("", "[slo]\nenabled = false\nhistory_secs = 2\n", "Slo=off History=2"),
            // 9: forecasting asked for by flag switches the engine on
            ("--forecast-horizon 60", "", "Forecast=on Slo=on ForecastHorizon=60"),
            // 10: and so does an enabled [forecast] section
            ("", "[forecast]\nhorizon_secs = 300\n", "Forecast=on Slo=on ForecastHorizon=300"),
            // 11: a switched-off one turns forecasting off and asks for nothing
            (
                "",
                "[forecast]\nenabled = false\nhorizon_secs = 300\n",
                "Forecast=off Slo=- ForecastHorizon=300",
            ),
            // 12: with the engine on by its own flag, forecasting stays off
            ("--slo", "[forecast]\nenabled = false\n", "Forecast=off Slo=on"),
            // 13: `--forecast` wins over the file's `enabled = false`
            ("--forecast", "[forecast]\nenabled = false\n", "Forecast=on Slo=on"),
            // 14: `--history` implies the engine; forecasting defaults on
            ("--history 5", "", "Slo=on History=5 Forecast=on"),
        ];
        for (number, (argv, file, expected)) in cases.iter().enumerate() {
            let argv: Vec<&str> = argv.split_whitespace().collect();
            let values = effective(&argv, file);
            for pair in expected.split_whitespace() {
                let (name, shown) = pair.split_once('=').unwrap();
                let row = SETTINGS.iter().find(|row| format!("{:?}", row.key) == name).unwrap();
                assert_eq!(show(&values, row.key), shown, "case {}: {name}", number + 1);
            }
        }
    }

    /// `--[a-z-]+` tokens on the command lines that start at each
    /// occurrence of one of `programs` (backslash-continued lines joined).
    fn flags_following(text: &str, programs: &[&str]) -> Vec<String> {
        let joined = text.replace("\\\n", " ");
        let mut found = Vec::new();
        for line in joined.lines() {
            let Some(start) = programs.iter().filter_map(|p| line.find(p)).min() else { continue };
            for word in line[start..]
                .split(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
            {
                if word.len() > 2 && word.starts_with("--") && !found.iter().any(|f| f == word) {
                    found.push(word.to_owned());
                }
            }
        }
        found
    }

    /// Every flag of `rows` is on its own line of the tool's `--help`.
    fn help_lists_every_row<K: PartialEq>(program: &str, rows: &[Row<K>], notes: &str) {
        let help = usage(program, rows, notes);
        for flag in flag_list(rows).split(' ') {
            assert!(
                help.contains(&format!("\n  {flag} ")),
                "{flag} is missing from {program} --help"
            );
        }
    }

    /// The flags the docs and the smoke script use exist, each tool's
    /// `--help` lists every flag it has, and the schema example above is
    /// the real schema.
    #[test]
    fn docs_script_and_help_agree_with_the_table() {
        let readme = include_str!("../README.md");
        let smoke = include_str!("../scripts/http_smoke.sh");
        let tools = [
            ("rjms-server", flag_list(&SETTINGS), "\"$SERVER\" ", 10, 8),
            ("rjms-pub", flag_list(&PUB), "\"$PUB\" ", 4, 3),
            ("rjms-sub", flag_list(&SUB), "\"$SUB\" ", 2, 4),
            ("rjms-top", flag_list(&TOP), "\"$TOP\" ", 2, 2),
        ];
        for (program, known, in_smoke, readme_min, smoke_min) in tools {
            let known: Vec<&str> = known.split(' ').collect();
            let readme = flags_following(readme, &[format!("{program} -- ").as_str()]);
            let smoke = flags_following(smoke, &[in_smoke]);
            assert!(
                readme.len() >= readme_min && smoke.len() >= smoke_min,
                "extraction broke for {program}: {readme:?} {smoke:?}"
            );
            for flag in readme.iter().chain(&smoke) {
                assert!(known.contains(&flag.as_str()), "{program} {flag} is used but is no row");
            }
        }
        help_lists_every_row("rjms-server", &SETTINGS, SERVER_NOTES);
        help_lists_every_row("rjms-pub", &PUB, "");
        help_lists_every_row("rjms-sub", &SUB, "");
        help_lists_every_row("rjms-top", &TOP, TOP_NOTES);

        let values = parse_file(&schema_example()).expect("the schema example parses");
        for row in SETTINGS.iter().filter(|row| !row.file.is_empty()) {
            assert!(values.slots[row.key as usize].is_some(), "the example lacks {}", row.file);
        }
    }
}
