//! `rjms-server` as a process: what a `--config` file switches on is what
//! the running server reports, not what an intermediate struct says.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Three sections, each switched off, each with a tuning key.
const SWITCHED_OFF: &str = "\
[flow]
enabled = false
w99_ms = 5

[topic_obs]
enabled = false
cap = 32

[slo]
enabled = false
history_secs = 2
";

/// Starts the server on ephemeral ports with `config` and `flags`, and
/// returns its start-up lines. The HTTP line is printed after every
/// feature's line, so reading up to it sees them all.
fn startup_lines(test: &str, config: &str, flags: &[&str]) -> Vec<String> {
    let path = std::env::temp_dir().join(format!("rjms-{test}-{}.toml", std::process::id()));
    std::fs::write(&path, config).unwrap();
    let mut server = Command::new(env!("CARGO_BIN_EXE_rjms-server"))
        .args(["--listen", "127.0.0.1:0", "--http", "127.0.0.1:0", "--config"])
        .arg(&path)
        .args(flags)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = Vec::new();
    for line in BufReader::new(server.stdout.take().unwrap()).lines() {
        lines.push(line.unwrap());
        if lines.last().unwrap().starts_with("http exposition on") {
            break;
        }
    }
    server.kill().unwrap();
    server.wait().unwrap();
    std::fs::remove_file(path).unwrap();
    assert!(lines.iter().any(|l| l.starts_with("http exposition on")), "no start-up: {lines:?}");
    lines
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
        "topic observatory on (cap 32 topics",
        "slo engine on (2s sampling",
    ] {
        assert!(lines.iter().any(|l| l.contains(line)), "`{line}` not in {lines:?}");
    }
}
