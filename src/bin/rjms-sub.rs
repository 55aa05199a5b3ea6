//! `rjms-sub` — subscribe to a remote broker and print received messages.
//!
//! `rjms-sub --help` lists the flags, the rows of `rjms::settings::SUB`.
//! `--pattern` treats `--topic` as a wildcard pattern (`sensors.>`).
//! With `--count N` the process exits after N messages (useful in scripts);
//! otherwise it runs until killed.

use rjms::net::client::{RemoteBroker, RemoteSubscriber};
use rjms::net::wire::WireFilter;
use rjms::settings::{self, Sub, Values, SUB};
use std::time::Duration;

fn main() {
    let flags = settings::command_line("rjms-sub", &SUB, "").over(Values::new(&SUB));
    let topic = flags.text(Sub::Topic).filter(|topic| !topic.is_empty());
    let topic = topic.unwrap_or_else(|| settings::usage_error("--topic is required"));
    let connect = flags.text(Sub::Connect).expect("defaulted");
    let filter = match (flags.text(Sub::Selector), flags.text(Sub::CorrId)) {
        (None, None) => WireFilter::None,
        (Some(selector), None) => WireFilter::Selector(selector.to_owned()),
        (None, Some(pattern)) => WireFilter::CorrelationId(pattern.to_owned()),
        (Some(_), Some(_)) => settings::usage_error("give --selector or --corr-id, not both"),
    };
    let client = match RemoteBroker::connect(connect) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {connect}: {e}");
            std::process::exit(1);
        }
    };
    let sub: RemoteSubscriber = {
        let result = if flags.on(Sub::Pattern) {
            client.subscribe_pattern(topic, filter)
        } else {
            client.subscribe(topic, filter)
        };
        match result {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: subscribe failed: {e}");
                std::process::exit(1);
            }
        }
    };
    eprintln!("subscribed to {topic} — waiting for messages");

    let mut received = 0u64;
    loop {
        match sub.receive_timeout(Duration::from_millis(500)) {
            Some(m) => {
                received += 1;
                if !flags.on(Sub::Quiet) {
                    let props: Vec<String> =
                        m.properties().map(|(k, v)| format!("{k}={v}")).collect();
                    println!(
                        "[{}] corr={} props={{{}}} body={}B trace={:016x}",
                        received,
                        m.correlation_id().unwrap_or("-"),
                        props.join(", "),
                        m.body().len(),
                        m.trace_id()
                    );
                }
                if Some(received) == flags.count(Sub::Count) {
                    break;
                }
            }
            None => {
                // Timeout: keep waiting, unless the broker has gone and nothing can follow.
                if client.ping().is_err() {
                    eprintln!("error: connection lost");
                    std::process::exit(1);
                }
            }
        }
    }
    println!("received {received} message(s)");
}
