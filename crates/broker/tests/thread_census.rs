//! The threads a broker runs, counted from `/proc`: flow control adds none,
//! because each dispatcher refreshes its own shard's admission lane, and
//! every dispatcher's name survives the kernel's 15 bytes.
#![cfg(target_os = "linux")]

use rjms_broker::config::FlowConfig;
use rjms_broker::{Broker, BrokerConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The census reads the whole process, so one broker runs at a time.
static CENSUS: Mutex<()> = Mutex::new(());

/// The names of this process's threads that start with `rjms-`, sorted, as
/// the kernel keeps them (15 bytes of each).
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

/// Starts `config`'s broker and waits until its threads are `expected`.
fn census(config: BrokerConfig, expected: &[String]) {
    let _one_at_a_time = CENSUS.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut expected = expected.to_vec();
    expected.sort();
    let broker = Broker::start(config);
    // A spawned thread names itself once it runs.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let names = broker_threads();
        if names == expected {
            break;
        }
        assert!(Instant::now() < deadline, "expected {expected:?}, found {names:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    broker.shutdown();
}

fn dispatchers(shards: usize) -> Vec<String> {
    (0..shards).map(|shard| format!("rjms-disp-{shard}")).collect()
}

#[test]
fn a_two_shard_broker_with_flow_control_runs_its_two_dispatchers_and_nothing_else() {
    let config = BrokerConfig::builder().shards(2).flow(FlowConfig::default()).build();
    census(config, &dispatchers(2));
}

/// One shard keeps the name the benchmark's CPU accounting matches; twelve
/// show twelve distinct names.
#[test]
fn every_dispatcher_name_fits_in_the_kernels_fifteen_bytes() {
    census(BrokerConfig::default(), &["rjms-dispatcher".to_owned()]);
    let twelve = dispatchers(12);
    assert!(twelve.iter().all(|name| name.len() <= 15), "{twelve:?}");
    census(BrokerConfig::builder().shards(12).build(), &twelve);
}
