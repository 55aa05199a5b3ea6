//! Integration of the analytic pipeline across crates: scenario →
//! calibration → waiting time → distributed architectures, with the
//! simulator and the broker's saturated grid as referees.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rjms::desim::mg1sim::{simulate_lindley, Mg1SimConfig};
use rjms::desim::random::{sample_replication, ReplicationService};
use rjms::model::architecture::DistributedScenario;
use rjms::model::params::{CostParams, FilterType};
use rjms::model::scenario::ApplicationScenario;
use rjms::queueing::replication::ReplicationModel;
use rjms_bench::grid::{measure, MESSAGES};

/// A scenario's waiting-time report is consistent with a direct M/G/1
/// simulation of the same workload.
#[test]
fn scenario_report_matches_simulation() {
    let scenario = ApplicationScenario::builder(FilterType::CorrelationId)
        .subscribers(100)
        .filters_per_subscriber(2)
        .match_probability(0.05)
        .offered_load(500.0)
        .build();
    assert!(scenario.is_feasible());
    let report = scenario.waiting_time_at_offered_load().unwrap();

    let service = ReplicationService {
        deterministic: scenario.params().deterministic_part(scenario.total_filters()),
        t_tx: scenario.params().t_tx,
        replication: scenario.replication_model(),
    };
    let sim = simulate_lindley(
        &Mg1SimConfig { arrival_rate: 500.0, samples: 200_000, warmup: 20_000, seed: 5 },
        &service,
    );
    let rel =
        (sim.waiting.mean() - report.mean_waiting_time).abs() / report.mean_waiting_time.max(1e-12);
    assert!(
        rel < 0.1,
        "scenario E[W] {} vs simulated {}",
        report.mean_waiting_time,
        sim.waiting.mean()
    );
}

/// The broker's saturated throughput, the scenario capacity formula and
/// the raw model agree on where saturation sits. Each message's grade is a
/// seeded binomial draw, so the point's mean R is the sample's, not E[R].
#[test]
fn capacity_formula_matches_saturated_testbed() {
    let params = CostParams::APPLICATION_PROPERTY;
    let scenario = ApplicationScenario::builder(FilterType::ApplicationProperty)
        .subscribers(50)
        .filters_per_subscriber(1)
        .match_probability(0.1)
        .build();
    // The saturated broker's throughput is the rho = 1 capacity.
    let mut rng = StdRng::seed_from_u64(42);
    let replication = scenario.replication_model();
    let grades: Vec<u32> =
        (0..MESSAGES).map(|_| sample_replication(&mut rng, &replication)).collect();
    let m = measure(&params, scenario.total_filters(), |i| grades[i as usize]);
    let cap_full = scenario.capacity(1.0);
    let rel = (m.received_per_sec - cap_full).abs() / cap_full;
    assert!(rel < 0.03, "broker {} vs capacity {}", m.received_per_sec, cap_full);
    // And the 90% budget is exactly 0.9 of it.
    assert!((scenario.capacity(0.9) - 0.9 * cap_full).abs() / cap_full < 1e-12);
}

/// PSR/SSR capacities are consistent with single-server scenario capacity:
/// an SSR broker *is* a single-server scenario with one subscriber's
/// filters.
#[test]
fn ssr_capacity_equals_single_server_scenario() {
    let d = DistributedScenario {
        params: CostParams::CORRELATION_ID,
        publishers: 7,
        subscribers: 300,
        filters_per_subscriber: 10,
        mean_replication: 1.0,
        rho: 0.9,
    };
    // Single-server with 10 filters and E[R] = 1:
    let e_b = CostParams::CORRELATION_ID.mean_service_time(10, 1.0);
    assert!((d.ssr_capacity() - 0.9 / e_b).abs() < 1e-9);

    // PSR with one publisher and one subscriber's worth of filters per
    // subscriber reduces to the same service time scaled by m filters.
    let e_b_psr = CostParams::CORRELATION_ID.mean_service_time(3000, 1.0);
    assert!((d.psr_per_server_capacity() - 0.9 / e_b_psr).abs() < 1e-9);
}

/// The deterministic, Bernoulli and binomial replication models with equal
/// means produce ordered waiting times (more variance → longer waits), and
/// the scenario glue preserves that ordering.
#[test]
fn replication_variability_orders_waiting_times() {
    let params = CostParams::CORRELATION_ID;
    let n_fltr = 50u32;
    let e_r = 5.0;
    let rho = 0.9;

    let models = [
        ReplicationModel::deterministic(e_r),
        ReplicationModel::binomial(n_fltr as f64, e_r / n_fltr as f64),
        ReplicationModel::scaled_bernoulli(n_fltr as f64, e_r / n_fltr as f64),
    ];
    let mut waits = Vec::new();
    for m in models {
        let service = rjms::queueing::service::ServiceTime::new(
            params.deterministic_part(n_fltr),
            params.t_tx,
            m,
        );
        let q = rjms::queueing::mg1::Mg1::with_utilization(rho, service.moments()).unwrap();
        waits.push(q.mean_waiting_time());
    }
    assert!(waits[0] < waits[1], "binomial must wait longer than deterministic");
    assert!(waits[1] < waits[2], "Bernoulli must wait longer than binomial");
    // All three share the same mean service time, hence the same capacity.
    for m in [
        ReplicationModel::deterministic(e_r),
        ReplicationModel::binomial(n_fltr as f64, e_r / n_fltr as f64),
    ] {
        assert!(
            (rjms::queueing::service::ServiceTime::new(
                params.deterministic_part(n_fltr),
                params.t_tx,
                m
            )
            .mean()
                - params.mean_service_time(n_fltr, e_r))
            .abs()
                < 1e-15
        );
    }
}
