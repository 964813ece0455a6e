//! Voltage-drop statistics, summaries and histograms.
//!
//! These are the quantities the paper reports: the ±3σ spread of the voltage
//! drops relative to the nominal drop (≈ ±35 % in Table 1), the negligible
//! shift of the mean with respect to the nominal analysis, and the
//! distribution of the voltage drop at selected nodes (Figures 1–2).
//! [`ExperimentReport`] bundles them into one row of Table 1, as
//! [`OperaEngine::run_scenario`](crate::engine::OperaEngine::run_scenario)
//! returns it.

use opera_pce::sampling;

use crate::compare::AccuracySummary;
use crate::monte_carlo::MonteCarloResult;
use crate::stochastic::StochasticSolution;
use crate::transient::TransientSolution;
use crate::{OperaError, Result};

/// A histogram over equal-width bins, reported in percentages of occurrences
/// (the y-axis of the paper's Figures 1 and 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<usize>,
    total: usize,
}

impl Histogram {
    /// Builds a histogram of `values` with `bins` equal-width bins spanning
    /// `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn with_range(values: &[f64], bins: usize, lo: f64, hi: f64) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        let width = (hi - lo) / bins as f64;
        let edges: Vec<f64> = (0..=bins).map(|i| lo + width * i as f64).collect();
        let mut counts = vec![0usize; bins];
        for &v in values {
            if v < lo || v > hi {
                continue;
            }
            let mut idx = ((v - lo) / width) as usize;
            if idx >= bins {
                idx = bins - 1;
            }
            counts[idx] += 1;
        }
        Histogram {
            edges,
            counts,
            total: values.len(),
        }
    }

    /// Builds a histogram spanning the min/max of the data (with a small
    /// margin so the extremes fall inside the outer bins).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or `bins == 0`.
    pub fn from_values(values: &[f64], bins: usize) -> Self {
        assert!(!values.is_empty(), "histogram needs at least one value");
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(1e-12);
        Histogram::with_range(values, bins, lo - 0.01 * span, hi + 0.01 * span)
    }

    /// Bin edges (length `bins + 1`).
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Raw counts per bin.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Bin centres.
    pub fn centers(&self) -> Vec<f64> {
        self.edges.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
    }

    /// Percentage of occurrences per bin (0–100, the paper's y-axis).
    pub fn percentages(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| 100.0 * c as f64 / self.total as f64)
            .collect()
    }

    /// Number of values the histogram was built from.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Index of the fullest bin.
    pub fn mode_bin(&self) -> usize {
        self.counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Summary of the stochastic voltage-drop behaviour of a grid — one Table 1
/// row's worth of response statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DropSummary {
    /// Largest mean voltage drop over all nodes and time points, in volts.
    pub worst_mean_drop: f64,
    /// Node attaining the worst mean drop.
    pub worst_node: usize,
    /// Time index attaining the worst mean drop.
    pub worst_time_index: usize,
    /// Standard deviation of the drop at the worst node/time, in volts.
    pub sigma_at_worst: f64,
    /// Average over loaded nodes of `3σ / µ₀ × 100` (the paper's "±3σ
    /// variation as % of nominal drop µ₀", ≈ 30–46 %).
    pub avg_three_sigma_percent_of_nominal: f64,
    /// Maximum over loaded nodes of `3σ / µ₀ × 100`.
    pub max_three_sigma_percent_of_nominal: f64,
    /// Average of `|µ − µ₀| / VDD × 100` over loaded nodes — the paper
    /// observes this is negligible.
    pub avg_mean_shift_percent_of_vdd: f64,
    /// Number of nodes included in the averages (nodes whose nominal drop is
    /// at least 10 % of the worst drop, so that the ratio is meaningful).
    pub loaded_nodes: usize,
}

/// Computes the drop summary of a stochastic solution.
///
/// `nominal` is the deterministic (no-variation) transient solution used as
/// `µ₀`; when it is `None`, the stochastic mean itself is used as the
/// reference (the paper notes the two are nearly identical).
///
/// # Panics
///
/// Panics if `nominal` is given but has a different shape than `solution`.
pub fn drop_summary(
    solution: &StochasticSolution,
    vdd: f64,
    nominal: Option<&TransientSolution>,
) -> DropSummary {
    if let Some(nom) = nominal {
        assert_eq!(nom.times.len(), solution.times().len(), "time axes differ");
        assert_eq!(
            nom.node_count(),
            solution.node_count(),
            "node counts differ"
        );
    }
    let (worst_node, worst_time_index, worst_mean_drop) = solution.worst_mean_drop(vdd);
    let sigma_at_worst = solution.std_dev_at(worst_time_index, worst_node);

    // Per node: evaluate at the node's own worst (mean-drop) time.
    let threshold = 0.10 * worst_mean_drop.max(1e-12);
    let mut ratios = Vec::new();
    let mut mean_shifts = Vec::new();
    for node in 0..solution.node_count() {
        let (k, _) = solution.worst_mean_drop_of_node(vdd, node);
        let mu = vdd - solution.mean_at(k, node);
        let mu0 = match nominal {
            Some(nom) => vdd - nom.state_at(k)[node],
            None => mu,
        };
        if mu0 < threshold {
            continue;
        }
        let sigma = solution.std_dev_at(k, node);
        ratios.push(300.0 * sigma / mu0);
        mean_shifts.push(100.0 * (mu - mu0).abs() / vdd);
    }
    let loaded_nodes = ratios.len();
    let avg = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    DropSummary {
        worst_mean_drop,
        worst_node,
        worst_time_index,
        sigma_at_worst,
        avg_three_sigma_percent_of_nominal: avg(&ratios),
        max_three_sigma_percent_of_nominal: ratios.iter().copied().fold(0.0, f64::max),
        avg_mean_shift_percent_of_vdd: avg(&mean_shifts),
        loaded_nodes,
    }
}

/// Converts node voltages at one time point into voltage drops expressed as a
/// percentage of VDD (the x-axis of the paper's Figures 1–2).
pub fn drops_as_percent_of_vdd(voltages: &[f64], vdd: f64) -> Vec<f64> {
    voltages.iter().map(|&v| 100.0 * (vdd - v) / vdd).collect()
}

/// Higher moments and a Gram–Charlier density of one node voltage at one time
/// point, computed directly from the explicit expansion (the paper's remark
/// that once higher-order moments are available "expansions like
/// Gram-Charlier series … could be used to obtain the probability density
/// function of x(t, ξ) directly").
#[derive(Debug, Clone)]
pub struct NodeDensity {
    /// The first four moments of the node voltage.
    pub moments: opera_pce::moments::Moments,
    /// The Gram–Charlier type-A density built from those moments.
    pub density: opera_pce::gram_charlier::GramCharlierPdf,
}

/// Computes the moments and Gram–Charlier density of `node` at time index `k`
/// of a stochastic solution.
///
/// # Errors
///
/// Propagates expansion/quadrature errors; returns
/// [`crate::OperaError::InvalidOptions`] when the voltage has (numerically)
/// zero variance, in which case a density is not defined.
pub fn node_density(
    solution: &StochasticSolution,
    k: usize,
    node: usize,
) -> crate::Result<NodeDensity> {
    let series = solution.node_series(k, node)?;
    let moments = opera_pce::moments::moments(&series)?;
    if moments.variance <= 0.0 {
        return Err(crate::OperaError::InvalidOptions {
            reason: format!("node {node} has zero variance at time index {k}"),
        });
    }
    let density = opera_pce::gram_charlier::GramCharlierPdf::from_moments(&moments);
    Ok(NodeDensity { moments, density })
}

/// Distributions of the voltage drop (as % of VDD) at a probe node — the
/// content of the paper's Figures 1 and 2.
#[derive(Debug, Clone)]
pub struct ProbeDistribution {
    /// Node the distribution was taken at.
    pub node: usize,
    /// Time index the distribution was taken at (worst mean drop).
    pub time_index: usize,
    /// Histogram of the drop predicted by sampling the OPERA expansion.
    pub opera: Histogram,
    /// Histogram of the drop observed in the Monte Carlo samples.
    pub monte_carlo: Histogram,
}

/// Everything one OPERA-vs-Monte-Carlo scenario produces: one row of Table 1
/// plus the data of Figures 1–2.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Number of nodes of the generated grid.
    pub node_count: usize,
    /// Voltage-drop statistics of the OPERA solution.
    pub opera: DropSummary,
    /// OPERA-vs-Monte-Carlo accuracy (the µ and σ error columns).
    pub errors: AccuracySummary,
    /// Wall-clock seconds of the OPERA solve. The engine's one-time setup is
    /// not included: it is shared by every scenario and reported by
    /// [`OperaEngine::setup_seconds`](crate::engine::OperaEngine::setup_seconds).
    pub opera_seconds: f64,
    /// Wall-clock seconds of the Monte Carlo baseline.
    pub monte_carlo_seconds: f64,
    /// Speed-up `monte_carlo_seconds / opera_seconds`.
    pub speedup: f64,
    /// Number of Monte Carlo samples used.
    pub mc_samples: usize,
    /// Distribution of the drop at the worst node (Figures 1–2).
    pub distribution: ProbeDistribution,
}

/// Builds the OPERA and Monte Carlo drop histograms at a probe node/time
/// (the paper's Figures 1–2). The OPERA histogram is obtained by sampling the
/// explicit expansion — no further circuit solves are needed, which is the
/// point the figures make.
///
/// # Errors
///
/// Returns [`OperaError::InvalidOptions`] when `node` is not a probe node of
/// `mc` and propagates expansion-evaluation errors.
pub fn probe_distributions(
    opera: &StochasticSolution,
    mc: &MonteCarloResult,
    vdd: f64,
    node: usize,
    time_index: usize,
    bins: usize,
    seed: u64,
) -> Result<ProbeDistribution> {
    // Monte Carlo drops at the probe.
    let mc_voltages =
        mc.probe_samples_at(node, time_index)
            .ok_or_else(|| OperaError::InvalidOptions {
                reason: format!("node {node} is not a Monte Carlo probe node"),
            })?;
    let mc_drops = drops_as_percent_of_vdd(&mc_voltages, vdd);

    // OPERA drops: evaluate the expansion at freshly drawn standard samples.
    let series = opera.node_series(time_index, node)?;
    let samples = sampling::sample_standard(series.basis(), mc_voltages.len().max(1000), seed);
    let opera_voltages = sampling::evaluate_at_samples(&series, &samples)?;
    let opera_drops = drops_as_percent_of_vdd(&opera_voltages, vdd);

    // Shared histogram range so the two distributions are directly comparable.
    let lo = mc_drops
        .iter()
        .chain(opera_drops.iter())
        .copied()
        .fold(f64::INFINITY, f64::min);
    let hi = mc_drops
        .iter()
        .chain(opera_drops.iter())
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-9);
    let lo = lo - 0.02 * span;
    let hi = hi + 0.02 * span;

    Ok(ProbeDistribution {
        node,
        time_index,
        opera: Histogram::with_range(&opera_drops, bins, lo, hi),
        monte_carlo: Histogram::with_range(&mc_drops, bins, lo, hi),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OperaEngine;
    use crate::transient::solve_transient;
    use opera_grid::GridSpec;

    /// An order-2 engine on `spec` with the transient `(h, 1 ns)`.
    fn engine(spec: GridSpec, h: f64) -> OperaEngine {
        OperaEngine::for_grid(spec)
            .unwrap()
            .time_step(h)
            .end_time(1.0e-9)
            .build()
            .unwrap()
    }

    #[test]
    fn histogram_counts_and_percentages() {
        let values = [1.0, 1.1, 1.2, 2.0, 2.1, 3.0, 3.0, 3.0];
        let h = Histogram::with_range(&values, 3, 1.0, 4.0);
        assert_eq!(h.counts(), &[3, 2, 3]);
        let pct = h.percentages();
        assert!((pct[0] - 37.5).abs() < 1e-12);
        assert_eq!(h.total(), 8);
        assert_eq!(h.centers().len(), 3);
        assert!(h.mode_bin() == 0 || h.mode_bin() == 2);
    }

    #[test]
    fn histogram_from_values_covers_all_data() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let h = Histogram::from_values(&values, 10);
        assert_eq!(h.counts().iter().sum::<usize>(), 100);
        assert!((h.percentages().iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_values_are_ignored() {
        let h = Histogram::with_range(&[0.5, 1.5, 9.0], 2, 1.0, 2.0);
        assert_eq!(h.counts().iter().sum::<usize>(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_bins_panics() {
        let _ = Histogram::with_range(&[1.0], 0, 0.0, 1.0);
    }

    #[test]
    fn drop_summary_reports_sensible_percentages() {
        let engine = engine(GridSpec::small_test(120).with_seed(17), 0.1e-9);
        let grid = engine.grid();
        let sol = engine.solve().unwrap();
        let nominal = solve_transient(
            &grid.conductance_matrix(),
            &grid.capacitance_matrix(),
            |t| grid.excitation(t),
            engine.transient(),
        )
        .unwrap();
        let summary = drop_summary(&sol, grid.vdd(), Some(&nominal));
        assert!(summary.worst_mean_drop > 0.0);
        assert!(summary.sigma_at_worst > 0.0);
        assert!(summary.loaded_nodes > 0);
        // The ±3σ spread should be a two-digit percentage of the nominal drop
        // for the paper's variation magnitudes.
        assert!(
            summary.avg_three_sigma_percent_of_nominal > 5.0
                && summary.avg_three_sigma_percent_of_nominal < 120.0,
            "±3σ = {}%",
            summary.avg_three_sigma_percent_of_nominal
        );
        assert!(
            summary.max_three_sigma_percent_of_nominal
                >= summary.avg_three_sigma_percent_of_nominal
        );
        // Mean shift vs nominal is small (paper: negligible).
        assert!(summary.avg_mean_shift_percent_of_vdd < 1.0);
    }

    #[test]
    fn node_density_matches_sampled_histogram_statistics() {
        let engine = engine(GridSpec::small_test(100).with_seed(23), 0.2e-9);
        let grid = engine.grid();
        let sol = engine.solve().unwrap();
        let (node, k, _) = sol.worst_mean_drop(grid.vdd());
        let nd = node_density(&sol, k, node).unwrap();
        assert!((nd.moments.mean - sol.mean_at(k, node)).abs() < 1e-10);
        assert!((nd.moments.variance - sol.variance_at(k, node)).abs() < 1e-10);
        // The Gram–Charlier density integrates to ≈ 1 over ±5σ.
        let sigma = nd.moments.std_dev();
        let total = nd.density.cdf(
            nd.moments.mean - 5.0 * sigma,
            nd.moments.mean + 5.0 * sigma,
            2000,
        );
        assert!((total - 1.0).abs() < 5e-3, "density integrates to {total}");
        // A node/time with zero variance is rejected (t = 0, unloaded node).
        let quiet = node_density(&sol, 0, grid.pad_nodes()[0]);
        assert!(quiet.is_err() || sol.std_dev_at(0, grid.pad_nodes()[0]) > 0.0);
    }

    #[test]
    fn drops_as_percent_conversion() {
        let drops = drops_as_percent_of_vdd(&[1.2, 1.14, 1.08], 1.2);
        assert!((drops[0] - 0.0).abs() < 1e-12);
        assert!((drops[1] - 5.0).abs() < 1e-12);
        assert!((drops[2] - 10.0).abs() < 1e-12);
    }
}
