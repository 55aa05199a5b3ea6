//! The threads a broker runs, counted from `/proc`: flow control adds none,
//! because each dispatcher refreshes its own shard's admission lane.
#![cfg(target_os = "linux")]

use rjms_broker::config::FlowConfig;
use rjms_broker::{Broker, BrokerConfig};
use std::time::{Duration, Instant};

/// The names of this process's threads that start with `rjms-`, sorted
/// (the kernel keeps 15 bytes of each, so `rjms-dispatcher-0` and
/// `rjms-dispatcher-1` both read `rjms-dispatcher`).
fn broker_threads() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("task directory");
    let name = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm")).ok();
    // A thread may exit between the listing and the read.
    let mut names: Vec<String> = tasks
        .filter_map(|task| name(task.ok()?))
        .map(|name| name.trim_end().to_owned())
        .filter(|name| name.starts_with("rjms-"))
        .collect();
    names.sort();
    names
}

#[test]
fn a_two_shard_broker_with_flow_control_runs_its_two_dispatchers_and_nothing_else() {
    let config = BrokerConfig::builder().shards(2).flow(FlowConfig::default()).build();
    let broker = Broker::start(config);
    // A spawned thread names itself once it runs.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let names = broker_threads();
        if names == ["rjms-dispatcher", "rjms-dispatcher"] {
            break;
        }
        assert!(Instant::now() < deadline, "two shards, flow on: {names:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    broker.shutdown();
}
