//! The paper's saturated measurement grid (§III-A, §III-B.2), run on the
//! broker itself.
//!
//! The paper saturated its server and counted the messages it received and
//! dispatched. Here each point runs [`MESSAGES`] messages through a real
//! dispatcher at native speed and prices the work it counted — messages
//! received, filters evaluated, copies made — at the given constants:
//! busy time `received·t_rcv + filter_evaluations·t_fltr +
//! dispatched·t_tx`. A saturated server is never idle, so that busy time is
//! the run's duration, and the counts are exact on any host.

use rjms_broker::{Broker, BrokerConfig, Filter, Message, MessageCounters, OverflowPolicy};
use rjms_core::params::CostParams;

/// Messages published per point.
pub const MESSAGES: u32 = 1_000;

/// One saturated operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Installed filters.
    pub n_fltr: u32,
    /// Copies per received message.
    pub mean_replication: f64,
    /// Received throughput, messages/s.
    pub received_per_sec: f64,
    /// Dispatched throughput, copies/s.
    pub dispatched_per_sec: f64,
}

impl Measurement {
    /// Received plus dispatched throughput, the paper's Fig. 4 y-axis.
    pub fn overall_per_sec(&self) -> f64 {
        self.received_per_sec + self.dispatched_per_sec
    }
}

/// Runs one point and prices its counted work at `cost`.
///
/// # Panics
///
/// Panics if the dispatcher lost, dropped or expired a message: a point
/// whose work was not all counted has no throughput.
pub fn measure(cost: &CostParams, n_fltr: u32, copies: impl Fn(u32) -> u32) -> Measurement {
    let counted = count(n_fltr, copies);
    let busy = counted.received as f64 * cost.t_rcv
        + counted.filter_evaluations as f64 * cost.t_fltr
        + counted.dispatched as f64 * cost.t_tx;
    Measurement {
        n_fltr,
        mean_replication: counted.dispatched as f64 / counted.received as f64,
        received_per_sec: counted.received as f64 / busy,
        dispatched_per_sec: counted.dispatched as f64 / busy,
    }
}

/// Publishes [`MESSAGES`] on a one-dispatcher broker with `n_fltr`
/// correlation-ID range filters, subscription `j` taking `[j;n_fltr]`:
/// message `i` carries ID `#copies(i)`, so it is copied to exactly
/// `copies(i)` subscriptions (at most `n_fltr`), and every filter is
/// evaluated for it.
fn count(n_fltr: u32, copies: impl Fn(u32) -> u32) -> MessageCounters {
    let config = BrokerConfig::builder()
        .subscriber_queue_capacity(MESSAGES as usize)
        .overflow_policy(OverflowPolicy::Block)
        .build();
    let broker = Broker::start(config);
    broker.create_topic("grid").expect("a fresh broker takes a topic");
    // Held until shutdown: a dropped subscription leaves the scan.
    let _subscribers: Vec<_> = (1..=n_fltr)
        .map(|j| {
            let filter = Filter::correlation_id(&format!("[{j};{n_fltr}]")).expect("a range");
            broker.subscription("grid").filter(filter).open().expect("subscribe")
        })
        .collect();
    let publisher = broker.publisher("grid").expect("publisher");
    for i in 0..MESSAGES {
        let id = format!("#{}", copies(i));
        publisher.publish(Message::builder().correlation_id(id).build()).expect("publish");
    }
    let observer = broker.observer();
    // The dispatcher drains its queue before shutdown returns.
    broker.shutdown();
    let counted = observer.snapshot().messages;
    assert_eq!(
        (counted.received, counted.dropped, counted.expired),
        (u64::from(MESSAGES), 0, 0),
        "(received, dropped, expired) at n_fltr = {n_fltr}"
    );
    counted
}

/// The paper's grid: `R ∈ {1, 2, 5, 10, 20, 40}` crossed with
/// `n ∈ {5, 10, 20, 40, 80, 160}` non-matching filters, so
/// `n_fltr = n + R`, each message copied `R` times.
pub fn paper_grid(cost: &CostParams) -> Vec<Measurement> {
    let mut out = Vec::with_capacity(36);
    for r in [1u32, 2, 5, 10, 20, 40] {
        for n in [5u32, 10, 20, 40, 80, 160] {
            out.push(measure(cost, n + r, |_| r));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const COST: CostParams = CostParams::CORRELATION_ID;

    #[test]
    fn a_point_counts_every_filter_and_every_copy() {
        let counted = count(45, |_| 5);
        let per_point = |n: u32| u64::from(n * MESSAGES);
        assert_eq!(
            (counted.received, counted.filter_evaluations, counted.dispatched),
            (per_point(1), per_point(45), per_point(5))
        );
        let m = measure(&COST, 45, |_| 5);
        assert!((m.received_per_sec * COST.mean_service_time(45, 5.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_mixed_point_reports_its_exact_mean_replication() {
        let n_fltr = 20;
        let m = measure(&COST, n_fltr, |i| i % (n_fltr + 1));
        let copies: u32 = (0..MESSAGES).map(|i| i % (n_fltr + 1)).sum();
        assert_eq!(m.mean_replication, f64::from(copies) / f64::from(MESSAGES));
    }
}
