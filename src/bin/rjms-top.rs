//! `rjms-top` — a dependency-free terminal dashboard for the rjms SLO
//! engine.
//!
//! `rjms-top --help` lists the flags, the rows of `rjms::settings::TOP`.
//! Polls the broker's HTTP exposition endpoint (`rjms-server --http ADDR
//! --slo`) and redraws one screen per interval:
//!
//! * a **waiting-time pane**: sparkline of the per-slot W99 over the last
//!   ten minutes plus the merged-window quantile summary,
//! * a **throughput pane**: sparkline of messages per slot,
//! * a **flow pane** (when the server runs `--flow`): the live `λ_max`
//!   budget and its calibration source, the shards' bucket fill, the
//!   granted/deferred/shed admission counters, and a **sheds timeline**
//!   — granted- and shed-rate sparklines on the same ten-minute window
//!   as the waiting-time pane, so an operator sees *when* the gate
//!   started rejecting load relative to the W99 excursion it protects,
//! * a **forecast pane** (when the server runs `--forecast`): the fitted
//!   arrival-rate trend, the model-derived saturation and W99-breach
//!   rates, an ETA countdown with its confidence band for the soonest
//!   projected breach, and the Little's-law self-check verdict backing
//!   the forecast's confidence grade,
//! * a **topic pane** (when the server runs `--topic-obs`): a skew gauge
//!   from the `/shards` rebalance block (the max/mean shard-load ratio
//!   and whether it passes the flag ratio), then the hottest
//!   topics from `/topics` with their arrival rate, fitted Eq. 1 filter
//!   and replication costs, and the regression verdict against the
//!   configured cost model,
//! * an **SLO table**: per objective, the alert state, fast/slow burn
//!   rates against the threshold, and an error-budget gauge,
//! * an **alert feed**: the most recent state transitions with their
//!   burn rates.
//!
//! The header, the forecast pane, the SLO table and the alert feed all
//! come from one `/slo` fetch per frame.
//!
//! `--once` renders a single frame without clearing the screen and exits
//! with a scriptable status code:
//!
//! * `0` — every objective is healthy,
//! * `1` — an objective is **firing**, or one is **pending** (forecast
//!   predicts a breach inside the horizon) while the forecaster reports
//!   **high** confidence,
//! * `2` — transport or usage error (server unreachable, bad flag).
//!
//! Everything is plain `std`: the HTTP client is a blocking
//! `TcpStream`, the JSON reader is [`rjms::obs::minijson`].

use rjms::obs::minijson::{self, Value};
use rjms::settings::{self, Top, Values, TOP};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

const SPARK: [char; 8] = [
    '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}', '\u{2588}',
];
const SPARK_WIDTH: usize = 60;
const FEED_LINES: usize = 8;
const TOPIC_LINES: usize = 6;

/// One blocking HTTP/1.1 GET; returns the body of a 200 response.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(5))))
        .map_err(|e| format!("socket setup: {e}"))?;
    let mut stream = stream;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("recv: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").ok_or("malformed response")?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200 ") {
        return Err(format!("{path}: {status}"));
    }
    Ok(body.to_owned())
}

fn get_json(addr: &str, path: &str) -> Result<Value, String> {
    let body = http_get(addr, path)?;
    minijson::parse(&body).map_err(|e| format!("{path}: {e}"))
}

/// Renders `points` (a `/history` points array) as a sparkline scaled to
/// the window maximum, downsampled to at most [`SPARK_WIDTH`] cells.
fn sparkline(points: &[f64]) -> (String, f64) {
    if points.is_empty() {
        return ("(no data)".to_owned(), 0.0);
    }
    // Downsample by max within each cell so spikes survive.
    let cells = points.len().min(SPARK_WIDTH);
    let per = points.len().div_ceil(cells);
    let reduced: Vec<f64> =
        points.chunks(per).map(|c| c.iter().cloned().fold(0.0, f64::max)).collect();
    let top = reduced.iter().cloned().fold(0.0, f64::max);
    let line = reduced
        .iter()
        .map(|&v| {
            if top <= 0.0 {
                SPARK[0]
            } else {
                let i = ((v / top) * (SPARK.len() - 1) as f64).round() as usize;
                SPARK[i.min(SPARK.len() - 1)]
            }
        })
        .collect();
    (line, top)
}

fn series_values(history: &Value) -> Vec<f64> {
    history
        .get("points")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|p| p.get("v").and_then(Value::as_f64))
        .collect()
}

/// `[########........]  63% budget` — the slow-window error budget.
fn budget_gauge(remaining: f64) -> String {
    let filled = (remaining.clamp(0.0, 1.0) * 16.0).round() as usize;
    let bar: String = (0..16).map(|i| if i < filled { '#' } else { '.' }).collect();
    format!("[{bar}] {:>4.0}%", remaining.clamp(0.0, 1.0) * 100.0)
}

/// Colors a regression verdict kind from the `/topics` payload.
fn verdict_tag(kind: Option<&str>) -> &'static str {
    match kind {
        Some("stable") => "\x1b[32mstable\x1b[0m",
        Some("drift") => "\x1b[31mDRIFT\x1b[0m",
        Some("insufficient") => "warming",
        Some("unidentifiable") => "\x1b[33mdegenerate\x1b[0m",
        Some(_) => "?",
        None => "-",
    }
}

fn state_tag(state: &str) -> &'static str {
    // ANSI colors: green ok, yellow warning, magenta pending (forecast),
    // red firing, cyan resolved.
    match state {
        "ok" => "\x1b[32mok      \x1b[0m",
        "warning" => "\x1b[33mwarning \x1b[0m",
        "pending" => "\x1b[35mpending \x1b[0m",
        "firing" => "\x1b[31mFIRING  \x1b[0m",
        "resolved" => "\x1b[36mresolved\x1b[0m",
        _ => "?       ",
    }
}

fn fmt_ms(ns: f64) -> String {
    format!("{:.2}ms", ns / 1e6)
}

fn fmt_elapsed(ms: u64) -> String {
    let s = ms / 1000;
    format!("{:02}:{:02}:{:02}", s / 3600, (s / 60) % 60, s % 60)
}

/// Builds one full frame; returns the text and the `--once` exit code:
/// `1` when an objective is firing, or pending while the forecaster
/// reports high confidence; `0` otherwise.
fn render_frame(addr: &str) -> Result<(String, i32), String> {
    // One fetch feeds the header, the forecast pane, the SLO table and the
    // alert feed.
    let slo = get_json(addr, "/slo")?;
    let w99 = get_json(addr, "/history?metric=broker.waiting_ns&window=10m&reduce=q99")?;
    let load = get_json(addr, "/history?metric=broker.waiting_ns&window=10m&reduce=count")?;

    let mut out = String::new();
    let elapsed = slo.get("elapsed_ms").and_then(Value::as_u64).unwrap_or(0);
    let verdict = slo.get("model_verdict").and_then(Value::as_str).unwrap_or("-").to_owned();
    out.push_str(&format!(
        "rjms-top \u{2014} {addr}   up {}   model {verdict}\n\n",
        fmt_elapsed(elapsed)
    ));

    // Waiting-time pane.
    let (spark, top) = sparkline(&series_values(&w99));
    out.push_str(&format!("  W99 (10m)   {spark}  peak {}\n", fmt_ms(top)));
    if let Some(summary) = w99.get("summary") {
        let q50 = summary.get("q50_ns").and_then(Value::as_u64).unwrap_or(0);
        let q99 = summary.get("q99_ns").and_then(Value::as_u64).unwrap_or(0);
        let q9999 = summary.get("q9999_ns").and_then(Value::as_u64).unwrap_or(0);
        let count = summary.get("count").and_then(Value::as_u64).unwrap_or(0);
        out.push_str(&format!(
            "              window: n={count}  q50 {}  q99 {}  q99.99 {}\n",
            fmt_ms(q50 as f64),
            fmt_ms(q99 as f64),
            fmt_ms(q9999 as f64),
        ));
    }
    let (spark, top) = sparkline(&series_values(&load));
    out.push_str(&format!("  msgs/slot   {spark}  peak {top:.0}\n\n"));

    // Forecast pane: the model-driven time-to-breach projection, when the
    // server runs --forecast.
    let mut forecast_high = false;
    let forecasting = slo.get("forecast_config").and_then(|c| c.get("enabled"));
    if matches!(forecasting, Some(Value::Bool(true))) {
        match slo.get("forecast") {
            Some(f) if !matches!(f, Value::Null) => {
                let lambda = f.get("lambda_now").and_then(Value::as_f64).unwrap_or(0.0);
                let slope = f.get("lambda_slope_per_s").and_then(Value::as_f64).unwrap_or(0.0);
                let rho = f.get("rho_now").and_then(Value::as_f64).unwrap_or(0.0);
                let confidence =
                    f.get("confidence").and_then(Value::as_str).unwrap_or("?").to_owned();
                forecast_high = confidence == "high";
                let lambda_sat = f.get("lambda_saturation").and_then(Value::as_f64).unwrap_or(0.0);
                out.push_str(&format!(
                        "  forecast    lambda {lambda:.0}/s  trend {slope:+.2}/s\u{00b2}  rho {rho:.3}  confidence {confidence}\n"
                    ));
                let breach = match f.get("lambda_breach").and_then(Value::as_f64) {
                    Some(v) => format!("{v:.0}/s"),
                    None => "-".to_owned(),
                };
                out.push_str(&format!(
                    "              breach rates: w99 {breach}  saturation {lambda_sat:.0}/s\n"
                ));
                // ETA countdowns with their confidence bands; an open
                // late edge means the slope's error bars reach zero.
                let fmt_band = |band: &Value| {
                    let eta = band.get("eta_ms").and_then(Value::as_u64).unwrap_or(0);
                    let early = band.get("early_ms").and_then(Value::as_u64).unwrap_or(eta);
                    match band.get("late_ms").and_then(Value::as_u64) {
                        Some(late) => format!(
                            "{} in {} (band {}..{})",
                            if eta == 0 { "BREACHED" } else { "breach" },
                            fmt_elapsed(eta),
                            fmt_elapsed(early),
                            fmt_elapsed(late)
                        ),
                        None => format!(
                            "breach in {} (band {}..\u{221e})",
                            fmt_elapsed(eta),
                            fmt_elapsed(early)
                        ),
                    }
                };
                for (label, key) in [("w99-breach", "eta_breach"), ("saturation", "eta_saturation")]
                {
                    if let Some(band) = f.get(key).filter(|b| !matches!(b, Value::Null)) {
                        let line = format!("              ETA {label:<11} {}", fmt_band(band));
                        if forecast_high {
                            out.push_str(&format!("\x1b[31m{line}\x1b[0m\n"));
                        } else {
                            out.push_str(&line);
                            out.push('\n');
                        }
                    }
                }
                // The Little's-law self-check backing the grade.
                if let Some(ll) = f.get("littles_law").filter(|v| !matches!(v, Value::Null)) {
                    let measured = ll.get("measured_l").and_then(Value::as_f64).unwrap_or(0.0);
                    let predicted = ll.get("predicted_l").and_then(Value::as_f64).unwrap_or(0.0);
                    let err = ll.get("error").and_then(Value::as_f64).unwrap_or(0.0);
                    let tag = if matches!(ll.get("consistent"), Some(Value::Bool(true))) {
                        "\x1b[32mconsistent\x1b[0m"
                    } else {
                        "\x1b[33mDISAGREES\x1b[0m"
                    };
                    out.push_str(&format!(
                            "              littles-law L {measured:.1} vs lambda*E[W] {predicted:.1} (err {:.0}%) {tag}\n",
                            err * 100.0
                        ));
                }
                out.push('\n');
            }
            _ => {
                out.push_str("  forecast    (warming up \u{2014} not enough trend history)\n\n");
            }
        }
    }

    // Flow pane: admission-control state, when the server runs --flow.
    // /flow is 404 on a flow-less server; skip the pane quietly.
    if let Ok(flow) = get_json(addr, "/flow") {
        // null: an unseeded lane's infinite budget and buckets.
        let unbounded = |key| flow.get(key).and_then(Value::as_f64).unwrap_or(f64::INFINITY);
        let (lambda, level, burst) =
            (unbounded("lambda_max"), unbounded("bucket_level"), unbounded("bucket_burst"));
        let w99 = flow.get("w99_objective").and_then(Value::as_f64).unwrap_or(0.0);
        let source = flow.get("source").and_then(Value::as_str).unwrap_or("?");
        let fill = if level >= burst { 1.0 } else { level / burst };
        out.push_str(&format!(
            "  flow        lambda_max {lambda:.0}/s ({source})  W99 obj {}  bucket {}\n",
            fmt_ms(w99 * 1e9),
            budget_gauge(fill),
        ));
        let mut granted = 0;
        let mut deferred = 0;
        let mut shed = 0;
        for c in flow.get("per_class").map(Value::items).unwrap_or_default() {
            granted += c.get("granted").and_then(Value::as_u64).unwrap_or(0);
            deferred += c.get("deferred").and_then(Value::as_u64).unwrap_or(0);
            shed += c.get("shed").and_then(Value::as_u64).unwrap_or(0);
        }
        let tag = if shed > 0 { "\x1b[31mshedding\x1b[0m" } else { "\x1b[32mopen\x1b[0m" };
        out.push_str(&format!(
            "              granted {granted}  deferred {deferred}  shed {shed}  gate {tag}\n"
        ));
        // Sheds timeline: admission rates from the same history rings as
        // the W99 sparkline, so the panes line up slot for slot.
        if let Ok(granted) = get_json(addr, "/history?metric=flow.granted&window=10m&reduce=rate") {
            let (spark, top) = sparkline(&series_values(&granted));
            out.push_str(&format!("  granted/s   {spark}  peak {top:.0}\n"));
        }
        if let Ok(shed) = get_json(addr, "/history?metric=flow.shed&window=10m&reduce=rate") {
            let values = series_values(&shed);
            let shedding = values.iter().any(|&v| v > 0.0);
            let (spark, top) = sparkline(&values);
            let line = format!("  shed/s      {spark}  peak {top:.0}\n");
            if shedding {
                out.push_str(&format!("\x1b[31m{}\x1b[0m", line.trim_end()));
                out.push('\n');
            } else {
                out.push_str(&line);
            }
        }
        out.push('\n');
    }

    // Topic pane: the per-topic workload observatory, when the server
    // runs --topic-obs. /topics is 404 on an observatory-less server;
    // skip the pane quietly.
    if let Ok(obs) = get_json(addr, "/topics") {
        let cap = obs.get("per_topic_cap").and_then(Value::as_u64).unwrap_or(0);
        let overflowed = obs.get("overflowed_topics").and_then(Value::as_u64).unwrap_or(0);
        let all = obs.get("topics").map(Value::items).unwrap_or_default();
        out.push_str(&format!("  topics      {} tracked (cap {cap})", all.len()));
        if overflowed > 0 {
            out.push_str(&format!("  \x1b[33m{overflowed} overflowed into __other__\x1b[0m"));
        }
        // Skew gauge: the /shards rebalance block measures the same table.
        if let Ok(shards) = get_json(addr, "/shards") {
            if let Some(reb) = shards.get("rebalance") {
                if let Some(ratio) = reb.get("max_mean_ratio").and_then(Value::as_f64) {
                    let skewed = matches!(reb.get("skewed"), Some(Value::Bool(true)));
                    let tag =
                        if skewed { "\x1b[31mSKEWED\x1b[0m" } else { "\x1b[32mbalanced\x1b[0m" };
                    out.push_str(&format!("  shard skew {ratio:.2}x mean {tag}"));
                }
            }
        }
        out.push('\n');
        let mut rows: Vec<&Value> = all.iter().collect();
        rows.sort_by(|a, b| {
            let ra = a.get("arrival_rate").and_then(Value::as_f64).unwrap_or(0.0);
            let rb = b.get("arrival_rate").and_then(Value::as_f64).unwrap_or(0.0);
            rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal)
        });
        if !rows.is_empty() {
            out.push_str(
                "              topic                shard     msg/s  t_fltr    t_tx    fit\n",
            );
        }
        for row in rows.iter().take(TOPIC_LINES) {
            let name = row.get("name").and_then(Value::as_str).unwrap_or("?");
            let shard = row.get("shard").and_then(Value::as_u64).unwrap_or(0);
            let rate = row.get("arrival_rate").and_then(Value::as_f64).unwrap_or(0.0);
            let fitted = row.get("fitted");
            let (t_fltr, t_tx) = match fitted {
                Some(f) => {
                    (f.get("t_fltr").and_then(Value::as_f64), f.get("t_tx").and_then(Value::as_f64))
                }
                None => (None, None),
            };
            let fmt_cost = |c: Option<f64>| match c {
                Some(v) => format!("{:>6.2}us", v * 1e6),
                None => "       -".to_owned(),
            };
            out.push_str(&format!(
                "              {name:<20} {shard:>5} {rate:>9.1}  {}  {}  {}\n",
                fmt_cost(t_fltr),
                fmt_cost(t_tx),
                verdict_tag(row.get("verdict").and_then(|v| v.get("kind")).and_then(Value::as_str)),
            ));
        }
        out.push('\n');
    }

    // SLO table.
    out.push_str(
        "  objective                 state     fast-burn  slow-burn  thresh  error budget\n",
    );
    let mut firing = false;
    let mut pending = false;
    for obj in slo.get("objectives").map(Value::items).unwrap_or_default() {
        let name = obj.get("name").and_then(Value::as_str).unwrap_or("?");
        let state = obj.get("state").and_then(Value::as_str).unwrap_or("?");
        firing |= state == "firing";
        pending |= state == "pending";
        let fast = obj.get("fast_burn").and_then(Value::as_f64).unwrap_or(0.0);
        let slow = obj.get("slow_burn").and_then(Value::as_f64).unwrap_or(0.0);
        let thresh = obj.get("threshold").and_then(Value::as_f64).unwrap_or(0.0);
        let budget = obj.get("budget_remaining").and_then(Value::as_f64).unwrap_or(0.0);
        out.push_str(&format!(
            "  {name:<25} {} {fast:>9.2} {slow:>10.2} {thresh:>7.1}  {}\n",
            state_tag(state),
            budget_gauge(budget),
        ));
    }

    // Alert feed, newest last in the payload; show the tail.
    out.push_str("\n  recent transitions\n");
    let events = slo.get("events").map(Value::items).unwrap_or_default();
    if events.is_empty() {
        out.push_str("    (none)\n");
    }
    for event in events.iter().rev().take(FEED_LINES).rev() {
        let at = event.get("at_ms").and_then(Value::as_u64).unwrap_or(0);
        let name = event.get("name").and_then(Value::as_str).unwrap_or("?");
        let from = event.get("from").and_then(Value::as_str).unwrap_or("?");
        let to = event.get("to").and_then(Value::as_str).unwrap_or("?");
        let fast = event.get("fast_burn").and_then(Value::as_f64).unwrap_or(0.0);
        let mut line =
            format!("    {}  {name:<25} {from} -> {to}  fast-burn {fast:.2}", fmt_elapsed(at));
        // Firing evidence carries the model's opinion of the same load.
        if let Some(p) = event.get("evidence").and_then(|e| e.get("prediction")) {
            if let (Some(rho), Some(q99)) = (
                p.get("utilization").and_then(Value::as_f64),
                p.get("q99_s").and_then(Value::as_f64),
            ) {
                line.push_str(&format!("  (model: rho {rho:.3}, W99 {})", fmt_ms(q99 * 1e9)));
            }
        }
        line.push('\n');
        out.push_str(&line);
    }
    // Exit-code policy: firing is always actionable; a pending objective
    // only is when the forecaster stands behind its projection.
    let code = if firing || (pending && forecast_high) { 1 } else { 0 };
    Ok((out, code))
}

fn main() {
    let flags =
        settings::command_line("rjms-top", &TOP, settings::TOP_NOTES).over(Values::new(&TOP));
    let url = flags.text(Top::Url).expect("defaulted");
    let url = url.trim_start_matches("http://").trim_end_matches('/');
    let interval = flags.count(Top::Interval).expect("defaulted");
    if flags.on(Top::Once) {
        match render_frame(url) {
            Ok((frame, code)) => {
                print!("{frame}");
                std::process::exit(code);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    loop {
        match render_frame(url) {
            // Clear screen + home, then the frame: one flicker-free redraw.
            Ok((frame, _)) => print!("\x1b[2J\x1b[H{frame}"),
            Err(e) => eprintln!("rjms-top: {e} (retrying)"),
        }
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_secs(interval));
    }
}
