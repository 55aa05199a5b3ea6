//! The connection writer sleeps on one channel and is rung by the
//! dispatcher when one of its subscriptions gets a copy. This drives the
//! moment the protocol has to get right — a copy arriving as the writer
//! goes idle — several thousand times, and the full-batch path behind it.
//! CI also runs it under ThreadSanitizer and twenty times in release.

use rjms_broker::{BrokerConfig, Message};
use rjms_net::client::{RemoteBroker, RemoteSubscriber};
use rjms_net::server::BrokerServer;
use rjms_net::wire::WireFilter;
use std::time::Duration;

const SUBSCRIPTIONS: usize = 4;
const MESSAGES: i64 = 50_000;

#[test]
fn no_wakeup_is_lost_between_bursts() {
    let server = BrokerServer::start(BrokerConfig::default(), "127.0.0.1:0").expect("bind");
    server.broker().create_topic("t").unwrap();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    let subscribers: Vec<RemoteSubscriber> =
        (0..SUBSCRIPTIONS).map(|_| client.subscribe("t", WireFilter::None).unwrap()).collect();
    let publisher = server.broker().publisher("t").unwrap();

    // Bursts of 1 to 61 messages, so that a burst's last copy is queued at
    // every point of the writer's way back to sleep (it is woken by the
    // first and drains while the dispatcher still delivers the rest); then
    // the consumer catches up, the writer is idle, and the next burst's
    // first copy has to wake it. Every hundredth burst fills a batch
    // several times over instead, so that the writer has to come back for
    // what it left behind. A lost wake-up leaves a copy in a server queue
    // that nothing will ever write.
    let (mut published, mut received) = (0i64, 0i64);
    for trial in 0.. {
        let burst = if trial % 100 == 99 { 5_000 } else { 1 + trial % 61 };
        let until = (published + burst).min(MESSAGES);
        for seq in published..until {
            publisher.publish(Message::builder().property("seq", seq).build()).unwrap();
        }
        published = until;
        for (at, subscriber) in subscribers.iter().enumerate() {
            for seq in received..published {
                let Some(message) = subscriber.receive_timeout(Duration::from_secs(1)) else {
                    let depths = server.metrics().snapshot().gauges;
                    panic!(
                        "subscription {at} is 1 s behind at seq {seq} of {published}: {depths:?}"
                    );
                };
                assert_eq!(message.property("seq"), Some(&seq.into()), "subscription {at}");
            }
        }
        received = published;
        if published == MESSAGES {
            break;
        }
    }
    assert_eq!(server.broker().snapshot().messages.dropped, 0);
    server.shutdown();
}
