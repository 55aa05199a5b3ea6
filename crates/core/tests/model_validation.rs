//! Validation of the performance model against simulation: the analytic
//! M/G/1 waiting-time results (mean, quantiles, CDF) must agree with
//! discrete-event simulation (the paper cites [23] for the Gamma
//! approximation's accuracy; we verify it). The calibration against the
//! paper's measurement grid runs on the broker itself
//! (`crates/bench/tests/paper_grid.rs`).

use rjms_core::model::ServerModel;
use rjms_core::params::CostParams;
use rjms_core::waiting::WaitingTimeAnalysis;
use rjms_desim::mg1sim::{simulate_lindley, Mg1SimConfig};
use rjms_desim::random::ReplicationService;
use rjms_queueing::replication::ReplicationModel;

#[test]
fn analytic_mean_waiting_matches_simulation() {
    let params = CostParams::CORRELATION_ID;
    let model = ServerModel::new(params, 60);
    let replication = ReplicationModel::binomial(60.0, 0.25);
    for rho in [0.5, 0.8, 0.9] {
        let analysis = WaitingTimeAnalysis::for_model(&model, replication, rho).unwrap();
        let report = analysis.report();

        let service = ReplicationService {
            deterministic: params.deterministic_part(60),
            t_tx: params.t_tx,
            replication,
        };
        let sim_cfg = Mg1SimConfig {
            arrival_rate: report.arrival_rate,
            samples: 150_000,
            warmup: 20_000,
            seed: 1234,
        };
        let sim = simulate_lindley(&sim_cfg, &service);

        let rel = (sim.waiting.mean() - report.mean_waiting_time).abs() / report.mean_waiting_time;
        assert!(
            rel < 0.08,
            "rho={rho}: sim E[W]={} vs analytic {}",
            sim.waiting.mean(),
            report.mean_waiting_time
        );
        // The waiting probability approaches ρ.
        assert!((sim.waiting_probability - rho).abs() < 0.03);
    }
}

#[test]
fn gamma_approximation_matches_simulated_quantiles() {
    // Fig. 12's quantiles: analytic (Gamma) vs empirical quantiles.
    let params = CostParams::CORRELATION_ID;
    let model = ServerModel::new(params, 40);
    let replication = ReplicationModel::binomial(40.0, 0.3);
    let rho = 0.9;

    let analysis = WaitingTimeAnalysis::for_model(&model, replication, rho).unwrap();
    let report = analysis.report();

    let service = ReplicationService {
        deterministic: params.deterministic_part(40),
        t_tx: params.t_tx,
        replication,
    };
    let sim_cfg = Mg1SimConfig {
        arrival_rate: report.arrival_rate,
        samples: 500_000,
        warmup: 50_000,
        seed: 99,
    };
    let mut sim = simulate_lindley(&sim_cfg, &service);

    let q99_sim = sim.waiting_samples.quantile(0.99);
    let rel99 = (q99_sim - report.q99).abs() / report.q99;
    assert!(rel99 < 0.1, "Q99: sim {} vs gamma {}", q99_sim, report.q99);

    // The deep tail is noisier; allow 20%.
    let q9999_sim = sim.waiting_samples.quantile(0.9999);
    let rel9999 = (q9999_sim - report.q9999).abs() / report.q9999;
    assert!(rel9999 < 0.2, "Q99.99: sim {} vs gamma {}", q9999_sim, report.q9999);
}

#[test]
fn gamma_ccdf_matches_empirical_ccdf() {
    // Fig. 11's complementary CDF comparison at ρ = 0.9.
    let params = CostParams::CORRELATION_ID;
    let model = ServerModel::new(params, 40);
    let replication = ReplicationModel::binomial(40.0, 0.3);
    let analysis = WaitingTimeAnalysis::for_model(&model, replication, 0.9).unwrap();
    let dist = analysis.distribution();
    let e_b = analysis.service().mean();

    let service = ReplicationService {
        deterministic: params.deterministic_part(40),
        t_tx: params.t_tx,
        replication,
    };
    let sim_cfg = Mg1SimConfig {
        arrival_rate: analysis.queue().arrival_rate(),
        samples: 300_000,
        warmup: 30_000,
        seed: 7,
    };
    let mut sim = simulate_lindley(&sim_cfg, &service);

    // Compare P(W > t) on the normalized grid t/E[B] ∈ {5, 10, 20, 30}.
    for mult in [5.0, 10.0, 20.0, 30.0] {
        let t = mult * e_b;
        let analytic = dist.ccdf(t);
        let empirical = sim.waiting_samples.ccdf(t);
        assert!(
            (analytic - empirical).abs() < 0.01 + 0.25 * empirical,
            "t = {mult}·E[B]: analytic {analytic} vs empirical {empirical}"
        );
    }
}
