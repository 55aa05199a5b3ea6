//! The paper's §III-B.2 workflow on the broker's saturated grid: the
//! calibration recovers Table I from the priced counts, and the model
//! predicts every point. Both hold only if the dispatcher evaluates every
//! installed filter and makes every copy once per message.

use rjms_bench::grid::paper_grid;
use rjms_core::calibrate::{fit_cost_params, Observation};
use rjms_core::model::ServerModel;
use rjms_core::params::CostParams;

#[test]
fn calibration_recovers_table_one_from_the_broker_grid() {
    for (label, truth) in [
        ("correlation-ID", CostParams::CORRELATION_ID),
        ("application-property", CostParams::APPLICATION_PROPERTY),
    ] {
        let observations: Vec<Observation> = paper_grid(&truth)
            .iter()
            .map(|m| Observation {
                n_fltr: m.n_fltr,
                mean_replication: m.mean_replication,
                received_per_sec: m.received_per_sec,
            })
            .collect();
        let cal = fit_cost_params(&observations).expect("calibration succeeds");
        for (name, fitted, paper) in [
            ("t_rcv", cal.params.t_rcv, truth.t_rcv),
            ("t_fltr", cal.params.t_fltr, truth.t_fltr),
            ("t_tx", cal.params.t_tx, truth.t_tx),
        ] {
            assert!((fitted - paper).abs() / paper < 1e-6, "{label}: {name} {fitted} vs {paper}");
        }
        assert!(cal.r_squared > 0.999, "{label}: R² = {}", cal.r_squared);
    }
}

#[test]
fn model_predicts_the_broker_grid() {
    // Fig. 4's agreement between solid (measured) and dashed (model) lines.
    let truth = CostParams::CORRELATION_ID;
    for m in paper_grid(&truth) {
        let predicted = ServerModel::new(truth, m.n_fltr).predict_throughput(m.mean_replication);
        let rel = (predicted.received_per_sec - m.received_per_sec).abs() / m.received_per_sec;
        assert!(
            rel < 1e-9,
            "n_fltr={} R={}: model {} vs measured {}",
            m.n_fltr,
            m.mean_replication,
            predicted.received_per_sec,
            m.received_per_sec
        );
    }
}
