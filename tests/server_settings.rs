//! `rjms-server` as a process: what a `--config` file switches on is what
//! the running server reports, not what an intermediate struct says — and
//! what `rjms-sub` does when that process goes away.

use rjms::broker::Message;
use rjms::net::client::RemoteBroker;
use rjms::net::wire::WireFilter;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Three sections, each switched off; `[flow]` and `[slo]` keep a tuning key.
const SWITCHED_OFF: &str = "\
[flow]
enabled = false
w99_ms = 5

[topic_obs]
enabled = false

[slo]
enabled = false
history_secs = 2
";

/// A running server and its start-up lines; killed when dropped.
struct Server {
    process: Child,
    lines: Vec<String>,
}

impl Drop for Server {
    fn drop(&mut self) {
        self.process.kill().unwrap();
        self.process.wait().unwrap();
    }
}

/// Starts the server on ephemeral ports with `config` and `flags`. The HTTP
/// line is printed after every feature's line, so reading up to it sees
/// them all.
fn start(test: &str, config: &str, flags: &[&str]) -> Server {
    let path = std::env::temp_dir().join(format!("rjms-{test}-{}.toml", std::process::id()));
    std::fs::write(&path, config).unwrap();
    let mut process = Command::new(env!("CARGO_BIN_EXE_rjms-server"))
        .args(["--listen", "127.0.0.1:0", "--http", "127.0.0.1:0", "--config"])
        .arg(&path)
        .args(flags)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = Vec::new();
    for line in BufReader::new(process.stdout.take().unwrap()).lines() {
        lines.push(line.unwrap());
        if lines.last().unwrap().starts_with("http exposition on") {
            break;
        }
    }
    std::fs::remove_file(path).unwrap();
    assert!(lines.iter().any(|l| l.starts_with("http exposition on")), "no start-up: {lines:?}");
    Server { process, lines }
}

impl Server {
    /// What follows `prefix` on the start-up line that begins with it.
    fn address(&self, prefix: &str) -> String {
        let line = self.lines.iter().find(|l| l.starts_with(prefix)).expect("start-up line");
        line[prefix.len()..].trim_end_matches('/').to_owned()
    }
}

fn startup_lines(test: &str, config: &str, flags: &[&str]) -> Vec<String> {
    start(test, config, flags).lines.clone()
}

#[test]
fn a_switched_off_section_with_tuning_leaves_its_feature_off() {
    let lines = startup_lines("off", SWITCHED_OFF, &[]);
    for feature in ["flow control on", "topic observatory on", "slo engine on"] {
        assert!(!lines.iter().any(|l| l.starts_with(feature)), "`{feature}` in {lines:?}");
    }
}

#[test]
fn the_toggle_flag_switches_it_on_with_the_files_tuning() {
    let lines = startup_lines("on", SWITCHED_OFF, &["--flow", "--topic-obs", "--slo"]);
    for line in [
        "W99 <= 5.0 ms, 3 classes)",
        "topic observatory on (cap 64 topics, /topics)",
        "slo engine on (2s sampling",
    ] {
        assert!(lines.iter().any(|l| l.contains(line)), "`{line}` not in {lines:?}");
    }
}

/// Fifty paced publishes on `t` (under the default gate's per-producer
/// burst), all delivered, and the dispatcher idle again so that its
/// histograms are flushed.
fn traffic(server: &Server) {
    let client = RemoteBroker::connect(server.address("rjms-server listening on ")).unwrap();
    let sub = client.subscribe("t", WireFilter::None).unwrap();
    for _ in 0..50 {
        client.publish("t", &Message::builder().build()).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    for _ in 0..50 {
        sub.receive_timeout(Duration::from_secs(5)).expect("delivery");
    }
    std::thread::sleep(Duration::from_millis(200));
}

/// The body the server's HTTP endpoint answers `GET path` with.
fn get(server: &Server, path: &str) -> String {
    let mut http = TcpStream::connect(server.address("http exposition on http://")).unwrap();
    write!(http, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    response.split_once("\r\n\r\n").expect("header/body split").1.to_owned()
}

/// `/model` is computed from the broker's shard reports at request time:
/// flow control alone gives the model its anchor, and no report thread
/// (`--metrics-interval`) or `--cost-model` has to be on for it to answer.
#[test]
fn model_endpoint_answers_with_flow_control_alone() {
    let server = start("model", "", &["--slo", "--flow", "--topic", "t"]);
    traffic(&server);
    let body = get(&server, "/model");
    assert!(body.starts_with("model check: "), "/model after traffic: {body:?}");
}

/// The SLO engine's sampling thread fetches the model monitor itself: with
/// the engine on and the report thread (`--metrics-interval`) off, `/slo`
/// carries a model verdict once two of its samples have traffic between
/// them (the first sample, a second after start-up, is only the baseline).
#[test]
fn slo_engine_has_a_model_verdict_without_the_report_thread() {
    let server = start("slo-verdict", "", &["--slo", "--flow", "--topic", "t"]);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        traffic(&server);
        let body = get(&server, "/slo");
        if body.contains("\"model_verdict\":\"") {
            break;
        }
        assert!(Instant::now() < deadline, "/slo never showed a verdict: {body}");
    }
}

/// `rjms-sub --count 2` has printed one message when the broker dies: no
/// second one can come, so it says so and exits 1 instead of waiting on.
#[test]
fn rjms_sub_exits_when_the_broker_dies_short_of_its_count() {
    let server = start("sub", "", &["--topic", "t"]);
    let broker = server.address("rjms-server listening on ");
    let mut sub = Command::new(env!("CARGO_BIN_EXE_rjms-sub"))
        .args(["--connect", &broker, "--topic", "t", "--count", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = BufReader::new(sub.stderr.take().unwrap());
    let mut stdout = BufReader::new(sub.stdout.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    assert!(line.starts_with("subscribed to t"), "{line:?}");
    let client = RemoteBroker::connect(broker.as_str()).unwrap();
    client.publish("t", &Message::builder().correlation_id("only").build()).unwrap();
    line.clear();
    stdout.read_line(&mut line).unwrap();
    assert!(line.starts_with("[1] corr=only"), "{line:?}");

    drop(server);
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = sub.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            sub.kill().unwrap();
            sub.wait().unwrap();
            panic!("rjms-sub still waiting 10 s after the broker died");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).unwrap();
    assert_eq!(status.code(), Some(1), "stderr: {rest:?}");
    assert!(rest.contains("connection lost"), "stderr: {rest:?}");
}

/// A client tool run with `args` against a port nothing listens on: its
/// exit status and stderr. A bad command line must be refused (exit 2)
/// before the tool tries to connect (which would exit 1).
fn refused(program: &str, args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(program)
        .args(["--connect", "127.0.0.1:1", "--topic", "t"])
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap();
    (output.status.code(), String::from_utf8_lossy(&output.stderr).into_owned())
}

/// `--rate` takes a finite rate above zero: the pacing after each publish
/// divides by it and hands the quotient to `Duration::from_secs_f64`,
/// which panics on a negative or non-finite value.
#[test]
fn rjms_pub_refuses_a_rate_that_is_not_finite_and_positive() {
    for rate in ["0", "-5", "nan", "inf"] {
        let (code, stderr) = refused(env!("CARGO_BIN_EXE_rjms-pub"), &["--rate", rate]);
        assert_eq!(code, Some(2), "--rate {rate}: {stderr:?}");
        assert!(stderr.contains("--rate"), "--rate {rate}: {stderr:?}");
    }
}

/// `--selector` and `--corr-id` are alternatives (a subscription has one
/// filter), and `--count 0` is refused: the count is checked after each
/// message received, so zero would never be reached.
#[test]
fn rjms_sub_refuses_two_filters_and_a_zero_count() {
    let sub = env!("CARGO_BIN_EXE_rjms-sub");
    let (code, stderr) = refused(sub, &["--selector", "color = 'red'", "--corr-id", "7"]);
    assert_eq!(code, Some(2), "{stderr:?}");
    assert!(stderr.contains("--selector") && stderr.contains("--corr-id"), "{stderr:?}");
    let (code, stderr) = refused(sub, &["--count", "0"]);
    assert_eq!(code, Some(2), "{stderr:?}");
    assert!(stderr.contains("--count"), "{stderr:?}");
}
