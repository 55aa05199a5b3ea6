//! What a connection costs the server process, counted from `/proc`: its
//! threads while it lives, its file descriptors once it is gone. The counts
//! are the whole process's, so the tests of this binary take turns.
#![cfg(target_os = "linux")]

use rjms_broker::BrokerConfig;
use rjms_net::client::RemoteBroker;
use rjms_net::server::BrokerServer;
use rjms_net::wire::WireFilter;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static PROCESS: Mutex<()> = Mutex::new(());

fn server() -> BrokerServer {
    let server = BrokerServer::start(BrokerConfig::default(), "127.0.0.1:0").expect("bind");
    server.broker().create_topic("t").unwrap();
    server
}

/// The names of this process's threads (the kernel keeps 15 bytes of each).
fn thread_names() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("task directory");
    let name = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm")).ok();
    // A thread may exit between the listing and the read.
    tasks.filter_map(|task| name(task.ok()?)).map(|name| name.trim_end().to_owned()).collect()
}

#[test]
fn a_connection_runs_two_threads_however_many_subscriptions_it_has() {
    let _turn = PROCESS.lock().unwrap_or_else(|e| e.into_inner());
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    let subscribers: Vec<_> =
        (0..8).map(|_| client.subscribe("t", WireFilter::None).unwrap()).collect();
    client.ping().unwrap();

    // Connections of the test before this one may still be on their way out.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let names = thread_names();
        let count = |name: &str| names.iter().filter(|n| n.as_str() == name).count();
        let forwarders = names.iter().filter(|n| n.starts_with("rjms-net-fwd")).count();
        if (count("rjms-net-conn"), count("rjms-net-writer"), forwarders) == (1, 1, 0) {
            break;
        }
        assert!(Instant::now() < deadline, "one connection, 8 subscriptions: {names:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(subscribers);
    server.shutdown();
}

#[test]
fn a_closed_connection_leaves_no_file_descriptor_behind() {
    let _turn = PROCESS.lock().unwrap_or_else(|e| e.into_inner());
    let server = server();
    let open_descriptors = || std::fs::read_dir("/proc/self/fd").expect("fd directory").count();
    let before = open_descriptors();
    for _ in 0..300 {
        let client = RemoteBroker::connect(server.local_addr()).unwrap();
        drop(client.subscribe("t", WireFilter::None).unwrap());
    }
    // The handlers notice their closed sockets on their own time.
    let deadline = Instant::now() + Duration::from_secs(5);
    while open_descriptors() > before + 4 {
        let now = open_descriptors();
        assert!(
            Instant::now() < deadline,
            "{before} descriptors before, {now} after 300 connections"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
