//! Prometheus/OpenMetrics text exposition of a [`RegistrySnapshot`].
//!
//! The registry keys instruments by flat dotted names; labeled series are
//! encoded directly in the name with a `{key="value"}` suffix (built with
//! [`labeled`]). The renderer splits the suffix back off, sanitizes the
//! base name into the Prometheus charset, groups series sharing a base
//! under one `# TYPE` line, and renders histograms with **cumulative**
//! monotone `_bucket` series.
//!
//! Unit convention: the workspace records all latency histograms in
//! nanoseconds under `*_ns` names. Prometheus convention is base-unit
//! seconds, so the renderer rewrites a trailing `_ns` to `_seconds` and
//! divides histogram bounds and sums by 1e9. Counters and gauges pass
//! through unconverted. Only non-empty source buckets are emitted (the
//! log-linear geometry has 1920 of them) plus the mandatory `+Inf` bound —
//! cumulative counts stay monotone regardless.

use crate::histogram::HistogramSnapshot;
use crate::registry::RegistrySnapshot;
use std::fmt::Write;

/// Builds a registry instrument name carrying Prometheus-style labels,
/// e.g. `labeled("broker.topic.received", &[("topic", "stocks")])` →
/// `broker.topic.received{topic="stocks"}`. Label values are escaped per
/// the exposition format (backslash, double quote, newline).
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// The name of dispatcher shard `shard`'s series of `base` on a broker of
/// `shards` dispatchers: `base` itself when there is one (that dispatcher's
/// series *is* the aggregate, and no labeled series is published), the
/// `{shard="i"}` series otherwise.
pub fn shard_series(base: &str, shard: usize, shards: usize) -> String {
    if shards == 1 {
        base.to_owned()
    } else {
        labeled(base, &[("shard", &shard.to_string())])
    }
}

/// Splits a registry name into its sanitized Prometheus base name and the
/// verbatim label suffix (without braces), if any.
fn split_name(name: &str) -> (String, Option<&str>) {
    let (base, labels) = match name.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}')),
        None => (name, None),
    };
    let mut sanitized = String::with_capacity(base.len());
    for (i, c) in base.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => sanitized.push(c),
            '0'..='9' if i > 0 => sanitized.push(c),
            _ => sanitized.push('_'),
        }
    }
    (sanitized, labels)
}

/// Formats a nanosecond quantity as seconds with enough precision to keep
/// distinct log-linear bucket bounds distinct.
fn seconds(ns: u64) -> String {
    let s = format!("{:.9}", ns as f64 / 1e9);
    // Trim trailing zeros but keep at least one decimal ("0.0").
    let trimmed = s.trim_end_matches('0');
    let trimmed = if trimmed.ends_with('.') { &s[..trimmed.len() + 1] } else { trimmed };
    trimmed.to_string()
}

/// Merges the optional stored label suffix with an extra label (for
/// histogram `le`).
fn label_block(labels: Option<&str>, extra: Option<(&str, &str)>) -> String {
    match (labels, extra) {
        (None, None) => String::new(),
        (Some(l), None) => format!("{{{l}}}"),
        (None, Some((k, v))) => format!("{{{k}=\"{v}\"}}"),
        (Some(l), Some((k, v))) => format!("{{{l},{k}=\"{v}\"}}"),
    }
}

fn render_histogram(
    out: &mut String,
    base: &str,
    labels: Option<&str>,
    h: &HistogramSnapshot,
    convert_ns: bool,
) {
    let mut cumulative = 0u64;
    for bucket in &h.buckets {
        cumulative += bucket.count;
        let le = if convert_ns { seconds(bucket.upper) } else { bucket.upper.to_string() };
        let _ =
            writeln!(out, "{base}_bucket{} {cumulative}", label_block(labels, Some(("le", &le))));
    }
    let _ = writeln!(out, "{base}_bucket{} {}", label_block(labels, Some(("le", "+Inf"))), h.count);
    let sum = if convert_ns { seconds(h.sum) } else { h.sum.to_string() };
    let _ = writeln!(out, "{base}_sum{} {sum}", label_block(labels, None));
    let _ = writeln!(out, "{base}_count{} {}", label_block(labels, None), h.count);
}

impl RegistrySnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4, also parseable as OpenMetrics): counters and gauges
    /// as single samples, histograms as cumulative `_bucket`/`_sum`/`_count`
    /// families. Latency families named `*_ns` are converted to seconds
    /// and renamed `*_seconds` (see module docs).
    pub fn render_prometheus(&self) -> String {
        use std::collections::BTreeMap;
        let mut out = String::with_capacity(1024);

        // The spec allows at most one `# TYPE` line per metric family, with
        // every series of the family directly below it. Registry iteration
        // order interleaves families (`t.received` sorts before
        // `t.received2`, which sorts before `t.received{topic=...}`), so
        // group series by sanitized base name first, then emit each family
        // as one contiguous block.
        // Family name -> (TYPE keyword, [(label pair, rendered value)]).
        type ScalarFamilies<'a> = BTreeMap<String, (&'static str, Vec<(Option<&'a str>, String)>)>;
        let mut scalar_families: ScalarFamilies = BTreeMap::new();
        for (name, value) in &self.counters {
            let (base, labels) = split_name(name);
            let entry = scalar_families.entry(base).or_insert_with(|| ("counter", Vec::new()));
            entry.1.push((labels, value.to_string()));
        }
        for (name, value) in &self.gauges {
            let (base, labels) = split_name(name);
            let entry = scalar_families.entry(base).or_insert_with(|| ("gauge", Vec::new()));
            entry.1.push((labels, value.to_string()));
        }
        for (base, (kind, series)) in &scalar_families {
            let _ = writeln!(out, "# TYPE {base} {kind}");
            for (labels, value) in series {
                let _ = writeln!(out, "{base}{} {value}", label_block(*labels, None));
            }
        }

        // Family name -> [(label pair, snapshot, ns-to-seconds flag)].
        type HistogramFamilies<'a> =
            BTreeMap<String, Vec<(Option<&'a str>, &'a HistogramSnapshot, bool)>>;
        let mut histogram_families: HistogramFamilies = BTreeMap::new();
        for (name, h) in &self.histograms {
            let (base, labels) = split_name(name);
            let (base, convert_ns) = match base.strip_suffix("_ns") {
                Some(stem) => (format!("{stem}_seconds"), true),
                None => (base, false),
            };
            histogram_families.entry(base).or_default().push((labels, h, convert_ns));
        }
        for (base, series) in &histogram_families {
            let _ = writeln!(out, "# TYPE {base} histogram");
            for (labels, h, convert_ns) in series {
                render_histogram(&mut out, base, *labels, h, *convert_ns);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn labeled_builds_and_escapes() {
        assert_eq!(labeled("a.b", &[("topic", "stocks")]), "a.b{topic=\"stocks\"}");
        assert_eq!(
            labeled("a", &[("k", "q\"u\\o\nte"), ("j", "x")]),
            "a{k=\"q\\\"u\\\\o\\nte\",j=\"x\"}"
        );
        assert_eq!(shard_series("a.b", 0, 1), "a.b");
        assert_eq!(shard_series("a.b", 2, 4), "a.b{shard=\"2\"}");
    }

    #[test]
    fn counters_and_gauges_render_with_sanitized_names() {
        let r = MetricsRegistry::new();
        r.counter("broker.messages.received").add(10);
        r.counter(&labeled("broker.topic.received", &[("topic", "stocks")])).add(3);
        r.gauge("net.connections.active").set(-2);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE broker_messages_received counter\n"));
        assert!(text.contains("broker_messages_received 10\n"));
        assert!(text.contains("broker_topic_received{topic=\"stocks\"} 3\n"));
        assert!(text.contains("# TYPE net_connections_active gauge\n"));
        assert!(text.contains("net_connections_active -2\n"));
    }

    #[test]
    fn labeled_series_share_one_type_line() {
        let r = MetricsRegistry::new();
        r.counter(&labeled("t.received", &[("topic", "a")])).add(1);
        r.counter(&labeled("t.received", &[("topic", "b")])).add(2);
        let text = r.snapshot().render_prometheus();
        assert_eq!(text.matches("# TYPE t_received counter").count(), 1);
        assert!(text.contains("t_received{topic=\"a\"} 1\n"));
        assert!(text.contains("t_received{topic=\"b\"} 2\n"));
    }

    #[test]
    fn interleaved_families_emit_one_type_line_each() {
        // In BTreeMap order `t.received` < `t.received2` < `t.received{...}`
        // ('2' = 0x32 sorts before '{' = 0x7b), so a naive in-order renderer
        // splits the t_received family around t_received2 and emits its
        // `# TYPE` line twice — forbidden by the text format.
        let r = MetricsRegistry::new();
        r.counter("t.received").add(1);
        r.counter("t.received2").add(2);
        r.counter(&labeled("t.received", &[("topic", "a")])).add(3);
        let text = r.snapshot().render_prometheus();
        assert_eq!(text.matches("# TYPE t_received counter").count(), 1);
        assert_eq!(text.matches("# TYPE t_received2 counter").count(), 1);
        // The family block is contiguous: its labeled series sits directly
        // under the TYPE line, before any other family's TYPE line.
        let lines: Vec<&str> = text.lines().collect();
        let type_idx = lines.iter().position(|l| *l == "# TYPE t_received counter").unwrap();
        assert_eq!(lines[type_idx + 1], "t_received 1");
        assert_eq!(lines[type_idx + 2], "t_received{topic=\"a\"} 3");
    }

    /// Parses a label value back out of an exposition line, undoing the
    /// text-format escapes — the consumer half of the round trip.
    fn unescape_label_value(line: &str) -> String {
        let raw = line.split("topic=\"").nth(1).unwrap();
        // The value ends at the first unescaped quote.
        let mut value = String::new();
        let mut chars = raw.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => break,
                '\\' => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => panic!("invalid escape \\{other:?} in {line}"),
                },
                c => value.push(c),
            }
        }
        value
    }

    #[test]
    fn hostile_topic_name_round_trips_through_exposition() {
        // A topic name exercising every escape the spec defines (backslash,
        // double quote, newline) plus braces and a comma, which must pass
        // through verbatim without confusing the name/label split.
        let topic = "a\\b\"c\nd{e=\"f\",g}";
        let r = MetricsRegistry::new();
        r.counter(&labeled("broker.topic.received", &[("topic", topic)])).add(5);
        let text = r.snapshot().render_prometheus();
        assert_eq!(text.matches("# TYPE broker_topic_received counter").count(), 1);
        let line = text
            .lines()
            .find(|l| l.starts_with("broker_topic_received{"))
            .expect("labeled series missing");
        assert!(line.ends_with(" 5"));
        // No raw newline may survive inside the sample line.
        assert!(!line.contains('\n'));
        assert_eq!(unescape_label_value(line), topic);
    }

    #[test]
    fn histogram_buckets_are_cumulative_monotone_in_seconds() {
        let r = MetricsRegistry::new();
        let h = r.histogram("broker.waiting_ns");
        for ns in [100u64, 1_000, 1_000, 50_000, 2_000_000, 900_000_000] {
            h.record(ns);
        }
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE broker_waiting_seconds histogram\n"));
        assert!(!text.contains("waiting_ns"));
        // Parse the bucket lines back: cumulative counts must be monotone
        // and le bounds strictly increasing, ending at +Inf = count.
        let mut last_cum = 0u64;
        let mut last_le = -1.0f64;
        let mut inf_seen = false;
        for line in text.lines().filter(|l| l.starts_with("broker_waiting_seconds_bucket")) {
            let le_raw = line.split("le=\"").nth(1).unwrap().split('"').next().unwrap();
            let cum: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(cum >= last_cum, "non-monotone cumulative count in {line}");
            last_cum = cum;
            if le_raw == "+Inf" {
                inf_seen = true;
                assert_eq!(cum, 6);
            } else {
                let le: f64 = le_raw.parse().unwrap();
                assert!(le > last_le, "non-increasing le in {line}");
                last_le = le;
            }
        }
        assert!(inf_seen, "missing +Inf bucket");
        assert!(text.contains("broker_waiting_seconds_count 6\n"));
        let sum_line = text.lines().find(|l| l.starts_with("broker_waiting_seconds_sum")).unwrap();
        let sum: f64 = sum_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!((sum - 0.902052100).abs() < 1e-6, "sum {sum} not in seconds");
    }

    #[test]
    fn non_ns_histograms_pass_through_unconverted() {
        let r = MetricsRegistry::new();
        r.histogram("queue.depth").record(7);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE queue_depth histogram\n"));
        assert!(text.contains("queue_depth_sum 7\n"));
    }

    #[test]
    fn empty_histogram_renders_inf_only() {
        let r = MetricsRegistry::new();
        r.histogram("idle_ns");
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("idle_seconds_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("idle_seconds_count 0\n"));
    }
}
