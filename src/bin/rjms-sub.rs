//! `rjms-sub` — subscribe to a remote broker and print received messages.
//!
//! ```text
//! rjms-sub --topic NAME [--connect ADDR] [--selector EXPR | --corr-id PAT]
//!          [--pattern] [--count N] [--quiet]
//! ```
//!
//! `--pattern` treats `--topic` as a wildcard pattern (`sensors.>`).
//! With `--count N` the process exits after N messages (useful in scripts);
//! otherwise it runs until killed.

use rjms::net::client::{RemoteBroker, RemoteSubscriber};
use rjms::net::wire::WireFilter;
use std::time::Duration;

struct Args {
    connect: String,
    topic: String,
    filter: WireFilter,
    pattern: bool,
    count: Option<u64>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        connect: "127.0.0.1:7670".to_owned(),
        topic: String::new(),
        filter: WireFilter::None,
        pattern: false,
        count: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut next = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--connect" => args.connect = next("--connect")?,
            "--topic" => args.topic = next("--topic")?,
            "--selector" => args.filter = WireFilter::Selector(next("--selector")?),
            "--corr-id" => args.filter = WireFilter::CorrelationId(next("--corr-id")?),
            "--pattern" => args.pattern = true,
            "--count" => {
                args.count =
                    Some(next("--count")?.parse().map_err(|e| format!("bad --count: {e}"))?)
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: rjms-sub --topic NAME [--connect ADDR] \
                     [--selector EXPR | --corr-id PAT] [--pattern] [--count N] [--quiet]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if args.topic.is_empty() {
        return Err("--topic is required".to_owned());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let client = match RemoteBroker::connect(args.connect.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {}: {e}", args.connect);
            std::process::exit(1);
        }
    };
    let sub: RemoteSubscriber = {
        let result = if args.pattern {
            client.subscribe_pattern(&args.topic, args.filter.clone())
        } else {
            client.subscribe(&args.topic, args.filter.clone())
        };
        match result {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: subscribe failed: {e}");
                std::process::exit(1);
            }
        }
    };
    eprintln!("subscribed to {} — waiting for messages", args.topic);

    let mut received = 0u64;
    loop {
        match sub.receive_timeout(Duration::from_millis(500)) {
            Some(m) => {
                received += 1;
                if !args.quiet {
                    let props: Vec<String> =
                        m.properties().iter().map(|(k, v)| format!("{k}={v}")).collect();
                    println!(
                        "[{}] corr={} props={{{}}} body={}B trace={:016x}",
                        received,
                        m.correlation_id().unwrap_or("-"),
                        props.join(", "),
                        m.body().len(),
                        m.trace_id()
                    );
                }
                if Some(received) == args.count {
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
