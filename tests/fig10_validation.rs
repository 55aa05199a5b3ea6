//! Fig. 10 validation: the normalized mean-waiting-time lookup diagram
//! (`E[W]/E[B]` vs ρ per `c_var[B]`) against discrete-event simulation.

use rjms::desim::mg1sim::{simulate_lindley, Mg1SimConfig};
use rjms::desim::random::ReplicationService;
use rjms::queueing::mg1::Mg1;
use rjms::queueing::moments::Moments3;
use rjms::queueing::replication::ReplicationModel;
use rjms::queueing::service::ServiceTime;

/// `E[W]/E[B]` by Pollaczek–Khinchine for a unit-mean service of the given
/// c_var, as `fig10_mean_waiting` computes it (the third moment does not
/// enter the mean).
fn normalized_mean_waiting(rho: f64, cvar: f64) -> f64 {
    let m2 = 1.0 + cvar * cvar;
    Mg1::with_utilization(rho, Moments3::new(1.0, m2, m2 * m2)).unwrap().mean_waiting_time()
}

#[test]
fn normalized_mean_waiting_matches_simulation() {
    // Build a *real* sampleable workload per target cvar: unit-ish E[B]
    // via a scaled-Bernoulli replication grade with integer support.
    let d = 0.3f64;
    let t_tx = 0.01f64;

    for &(target_cvar, rho) in &[(0.0f64, 0.5f64), (0.2, 0.8), (0.4, 0.8)] {
        // Moments for the target (E[B] = 1, cvar = target).
        let (m1, m2) =
            ServiceTime::replication_moments_for_target(d, t_tx, 1.0, target_cvar).unwrap();
        let replication = if target_cvar == 0.0 {
            ReplicationModel::deterministic(m1.round())
        } else {
            // Round the Bernoulli fit to integer support for sampling.
            match ReplicationModel::scaled_bernoulli_from_moments(m1, m2).unwrap() {
                ReplicationModel::ScaledBernoulli { n_fltr, p_match } => {
                    ReplicationModel::scaled_bernoulli(n_fltr.round(), p_match)
                }
                other => other,
            }
        };
        let service = ServiceTime::new(d, t_tx, replication);
        let e_b = service.mean();
        let cvar = service.cvar();

        // Analytic point of the Fig. 10 diagram.
        let analytic = normalized_mean_waiting(rho, cvar);

        // Simulated point.
        let sampler = ReplicationService { deterministic: d, t_tx, replication };
        let sim = simulate_lindley(
            &Mg1SimConfig { arrival_rate: rho / e_b, samples: 200_000, warmup: 20_000, seed: 321 },
            &sampler,
        );
        let simulated = sim.waiting.mean() / e_b;

        let rel = (analytic - simulated).abs() / analytic.max(1e-9);
        assert!(
            rel < 0.08,
            "cvar={cvar:.3} rho={rho}: analytic {analytic:.3} vs simulated {simulated:.3}"
        );
    }
}

#[test]
fn fig10_series_monotone_in_both_axes() {
    let rhos = [0.1, 0.3, 0.5, 0.7, 0.9];
    let cvars = [0.0, 0.2, 0.4, 0.65];
    let series: Vec<Vec<f64>> = cvars
        .iter()
        .map(|&c| rhos.iter().map(|&rho| normalized_mean_waiting(rho, c)).collect())
        .collect();
    // Monotone in rho within each series.
    for (s, c) in series.iter().zip(cvars) {
        for w in s.windows(2) {
            assert!(w[1] > w[0], "series cvar={c} not increasing in rho");
        }
    }
    // Monotone in cvar at fixed rho.
    for (i, rho) in rhos.iter().enumerate() {
        for j in 1..series.len() {
            assert!(series[j][i] > series[j - 1][i], "not increasing in cvar at rho={rho}");
        }
    }
}
