//! Calibrating the cost model from measurements — the paper's §III-B
//! workflow on the broker's saturated grid, its counted work priced at the
//! Table I constants.
//!
//! Run with: `cargo run --release --example calibrate_from_measurements`

use rjms::model::calibrate::{fit_cost_params, Observation};
use rjms::model::model::ServerModel;
use rjms::model::params::CostParams;
use rjms_bench::grid::{measure, paper_grid};

fn main() {
    // Ground truth: the Table I constants, the price of each counted unit
    // of work.
    let truth = CostParams::CORRELATION_ID;
    println!("ground truth        : {truth}");

    // 1. Run the paper's 36-point measurement grid on the broker: each
    //    point counts what its dispatcher received, evaluated and copied.
    let grid = paper_grid(&truth);
    println!("measured {} operating points; examples:", grid.len());
    for m in grid.iter().step_by(13) {
        println!(
            "  n_fltr = {:>3}, R = {:>4.1}: received {:>8.1} msg/s, overall {:>9.1} msg/s",
            m.n_fltr,
            m.mean_replication,
            m.received_per_sec,
            m.overall_per_sec()
        );
    }

    // 2. Fit the three cost constants by least squares.
    let observations: Vec<Observation> = grid
        .iter()
        .map(|m| Observation {
            n_fltr: m.n_fltr,
            mean_replication: m.mean_replication,
            received_per_sec: m.received_per_sec,
        })
        .collect();
    let calibration = fit_cost_params(&observations).expect("grid is well conditioned");
    println!("\nfitted              : {}", calibration.params);
    println!(
        "fit quality         : R² = {:.6}, rms residual = {:.2e} s over {} points",
        calibration.r_squared, calibration.residual_rms, calibration.observations
    );

    // 3. Use the freshly calibrated model for a prediction and compare it
    //    with a new measurement at an unseen operating point.
    let n_fltr = 64u32;
    let r = 8u32;
    let predicted = ServerModel::new(calibration.params, n_fltr).predict_throughput(f64::from(r));
    let measured = measure(&truth, n_fltr, |_| r);
    println!("\nhold-out check at n_fltr = {n_fltr}, R = {r}:");
    println!("  model    : {:>9.1} msg/s received", predicted.received_per_sec);
    println!("  measured : {:>9.1} msg/s received", measured.received_per_sec);
    let rel =
        (predicted.received_per_sec - measured.received_per_sec).abs() / measured.received_per_sec;
    println!("  rel. err : {:.2}%", rel * 100.0);
}
