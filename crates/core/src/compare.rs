//! OPERA vs Monte Carlo accuracy metrics (the error columns of Table 1).
//!
//! The paper reports, per grid, the average and maximum percentage errors of
//! the mean (µ) and standard deviation (σ) of the voltage response "for data
//! obtained from simulation across all nodes and all time points". We use:
//!
//! * mean error: `|µ_OPERA − µ_MC| / VDD × 100` — the mean voltages are within
//!   a few percent of VDD of each other, so normalising by VDD reproduces the
//!   order of magnitude (hundredths of a percent) of the paper's µ column;
//! * σ error: `|σ_OPERA − σ_MC| / σ_MC × 100`, restricted to nodes/times where
//!   `σ_MC` is significant (above a small fraction of its maximum) so the
//!   relative error is well defined.

use crate::monte_carlo::MonteCarloResult;
use crate::stochastic::StochasticSolution;

/// Aggregate accuracy of an OPERA run against a Monte Carlo reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracySummary {
    /// Average error in the mean voltage, as a percentage of VDD.
    pub avg_mean_error_percent: f64,
    /// Maximum error in the mean voltage, as a percentage of VDD.
    pub max_mean_error_percent: f64,
    /// Average relative error in the standard deviation, in percent.
    pub avg_std_error_percent: f64,
    /// Maximum relative error in the standard deviation, in percent.
    pub max_std_error_percent: f64,
    /// Number of (node, time) pairs contributing to the σ statistics.
    pub sigma_comparisons: usize,
}

/// Compares an OPERA solution with a Monte Carlo result over all nodes and
/// time points.
///
/// # Panics
///
/// Panics if the two results do not share the same time axis and node count.
pub fn compare(opera: &StochasticSolution, mc: &MonteCarloResult, vdd: f64) -> AccuracySummary {
    assert_eq!(
        opera.times().len(),
        mc.times.len(),
        "OPERA and Monte Carlo use different time axes"
    );
    assert_eq!(
        opera.node_count(),
        mc.mean[0].len(),
        "OPERA and Monte Carlo use different node counts"
    );
    let times = opera.times().len();
    let nodes = opera.node_count();

    // Threshold below which σ_MC is considered too small for a relative error.
    let sigma_max = mc
        .variance
        .iter()
        .flat_map(|row| row.iter())
        .fold(0.0f64, |acc, &v| acc.max(v))
        .sqrt();
    let sigma_floor = 0.05 * sigma_max;

    let mut sum_mean = 0.0;
    let mut max_mean = 0.0f64;
    let mut count_mean = 0usize;
    let mut sum_std = 0.0;
    let mut max_std = 0.0f64;
    let mut count_std = 0usize;

    for k in 0..times {
        for n in 0..nodes {
            let mean_err = 100.0 * (opera.mean_at(k, n) - mc.mean[k][n]).abs() / vdd;
            sum_mean += mean_err;
            max_mean = max_mean.max(mean_err);
            count_mean += 1;

            let sigma_mc = mc.variance[k][n].sqrt();
            if sigma_mc > sigma_floor && sigma_floor > 0.0 {
                let sigma_opera = opera.std_dev_at(k, n);
                let err = 100.0 * (sigma_opera - sigma_mc).abs() / sigma_mc;
                sum_std += err;
                max_std = max_std.max(err);
                count_std += 1;
            }
        }
    }
    AccuracySummary {
        avg_mean_error_percent: sum_mean / count_mean.max(1) as f64,
        max_mean_error_percent: max_mean,
        avg_std_error_percent: sum_std / count_std.max(1) as f64,
        max_std_error_percent: max_std,
        sigma_comparisons: count_std,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OperaEngine;
    use crate::monte_carlo::{run, MonteCarloOptions};
    use opera_grid::GridSpec;

    /// An order-2 engine on `spec` with the transient `(h, end)`.
    fn engine(spec: GridSpec, h: f64, end: f64) -> OperaEngine {
        OperaEngine::for_grid(spec)
            .unwrap()
            .time_step(h)
            .end_time(end)
            .build()
            .unwrap()
    }

    #[test]
    fn opera_agrees_with_monte_carlo_within_table1_tolerances() {
        let engine = engine(GridSpec::small_test(100).with_seed(31), 0.2e-9, 1.0e-9);
        let opera = engine.solve().unwrap();
        let mc = run(
            engine.model(),
            &MonteCarloOptions::new(300, 7, *engine.transient()),
        )
        .unwrap();
        let summary = compare(&opera, &mc, engine.grid().vdd());
        // The paper reports µ errors of hundredths of a percent and σ errors
        // of a few percent (with 1000 samples); with 300 samples the Monte
        // Carlo noise dominates, so accept a slightly looser bound.
        assert!(
            summary.avg_mean_error_percent < 0.5,
            "avg µ error {}",
            summary.avg_mean_error_percent
        );
        assert!(summary.max_mean_error_percent < 2.0);
        assert!(
            summary.avg_std_error_percent < 25.0,
            "avg σ error {}",
            summary.avg_std_error_percent
        );
        assert!(summary.sigma_comparisons > 0);
    }

    #[test]
    fn identical_statistics_give_zero_error() {
        // Build a Monte Carlo result that copies the OPERA statistics.
        let engine = engine(GridSpec::small_test(60).with_seed(1), 0.25e-9, 0.5e-9);
        let opera = engine.solve().unwrap();
        let times = opera.times().to_vec();
        let mean: Vec<Vec<f64>> = (0..times.len())
            .map(|k| {
                (0..opera.node_count())
                    .map(|n| opera.mean_at(k, n))
                    .collect()
            })
            .collect();
        let variance: Vec<Vec<f64>> = (0..times.len())
            .map(|k| {
                (0..opera.node_count())
                    .map(|n| opera.variance_at(k, n))
                    .collect()
            })
            .collect();
        let mc = MonteCarloResult {
            times,
            mean,
            variance,
            probe_nodes: vec![],
            probe_traces: vec![],
            samples: 1,
        };
        let summary = compare(&opera, &mc, engine.grid().vdd());
        assert!(summary.avg_mean_error_percent < 1e-12);
        assert!(summary.max_std_error_percent < 1e-9);
    }

    #[test]
    #[should_panic]
    fn mismatched_shapes_panic() {
        let opera = engine(GridSpec::small_test(60), 0.25e-9, 0.5e-9)
            .solve()
            .unwrap();
        let mc = MonteCarloResult {
            times: vec![0.0],
            mean: vec![vec![0.0; 3]],
            variance: vec![vec![0.0; 3]],
            probe_nodes: vec![],
            probe_traces: vec![],
            samples: 1,
        };
        let _ = compare(&opera, &mc, 1.2);
    }
}
