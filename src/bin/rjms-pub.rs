//! `rjms-pub` — publish messages to a remote broker.
//!
//! `rjms-pub --help` lists the flags, the rows of `rjms::settings::PUB`.
//! With `--rate`, publishes at that Poisson-free fixed rate; without it,
//! publishes as fast as the broker's push-back allows (the paper's
//! saturated-publisher mode). `--print-trace-ids` prints each published
//! message's trace id (`trace <decimal-id>`, one per line, matching the
//! `trace_id` values in the server's `/traces` JSON) so a script can look
//! up the matching span chain on the exposition endpoint.
//!
//! Against a flow-enabled server (`rjms-server --flow`) the publisher is
//! a well-behaved flow citizen: a deferred publish sleeps out the
//! server's `retry_after` hint and retries, so a burst above the
//! admission budget is paced down instead of failing; a shed publish
//! (the gate protecting higher classes) is a hard error.

use rjms::broker::{Error, Message};
use rjms::net::client::RemoteBroker;
use rjms::selector::Value;
use rjms::settings::{self, Pub, Values, PUB};
use std::time::{Duration, Instant};

/// `key=value` with the value's typed literal: int, float, bool, else
/// string. The table has checked the `=`.
fn property(prop: &str) -> (String, Value) {
    let (k, v) = prop.split_once('=').unwrap_or((prop, ""));
    let value = if let Ok(i) = v.parse::<i64>() {
        Value::Int(i)
    } else if let Ok(f) = v.parse::<f64>() {
        Value::Float(f)
    } else if v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("false") {
        Value::Bool(v.eq_ignore_ascii_case("true"))
    } else {
        Value::Str(v.to_owned())
    };
    (k.to_owned(), value)
}

fn main() {
    let flags = settings::command_line("rjms-pub", &PUB, "").over(Values::new(&PUB));
    let topic = flags.text(Pub::Topic).filter(|topic| !topic.is_empty());
    let topic = topic.unwrap_or_else(|| settings::usage_error("--topic is required"));
    let connect = flags.text(Pub::Connect).expect("defaulted");
    let count = flags.count(Pub::Count).expect("defaulted");
    let props: Vec<(String, Value)> = flags.list(Pub::Prop).iter().map(|p| property(p)).collect();
    let body = flags.text(Pub::Body).unwrap_or_default().as_bytes().to_vec();

    let client = match RemoteBroker::connect(connect) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {connect}: {e}");
            std::process::exit(1);
        }
    };
    if flags.on(Pub::CreateTopic) {
        // Ignore "already exists".
        let _ = client.create_topic(topic);
    }

    let started = Instant::now();
    let mut deferrals = 0u64;
    for i in 0..count {
        let mut b = Message::builder().body(body.clone());
        if let Some(c) = flags.text(Pub::CorrId) {
            b = b.correlation_id(c);
        }
        for (k, v) in &props {
            b = b.property(k.clone(), v.clone());
        }
        let message = b.build();
        if flags.on(Pub::PrintTraceIds) {
            println!("trace {}", message.trace_id());
        }
        loop {
            match client.publish(topic, &message) {
                Ok(()) => break,
                Err(Error::PublishDeferred { retry_after_ms, .. }) => {
                    deferrals += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                }
                Err(e) => {
                    eprintln!("error: publish {i} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(rate) = flags.number(Pub::Rate) {
            let due = started + Duration::from_secs_f64((i + 1) as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "published {} message(s) in {elapsed:.3}s ({:.1}/s)",
        count,
        count as f64 / elapsed.max(1e-9)
    );
    if deferrals > 0 {
        eprintln!("admission control deferred {deferrals} publish attempt(s); all retried");
    }
}
