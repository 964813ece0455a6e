//! End-to-end experiment drivers.
//!
//! [`ExperimentConfig`] is a thin, validated front end over the
//! [`OperaEngine`]: [`run_experiment`] builds an
//! engine from the configuration and runs one baseline
//! [`Scenario`] through it, reproducing one row of
//! the paper's Table 1 (accuracy, ±3σ spread, wall-clock times, speed-up)
//! plus the Figure 1–2 distributions. For serving many scenarios against one
//! grid, build the engine once and use
//! [`run_batch`](crate::engine::OperaEngine::run_batch) instead — the
//! assembly and factorisation are then shared across all of them.

use opera_grid::{GridSpec, PAPER_GRID_NODE_COUNTS};
use opera_pce::sampling;
use opera_variation::VariationSpec;

use crate::compare::AccuracySummary;
use crate::engine::{CollocationConfig, GridKind, OperaEngine, Scenario};
use crate::monte_carlo::MonteCarloResult;
use crate::parallel::Parallelism;
use crate::response::{drops_as_percent_of_vdd, DropSummary, Histogram};
use crate::solver::{backend_by_name, BLOCK_JACOBI_CG, DIRECT_CHOLESKY};
use crate::stochastic::StochasticSolution;
use crate::transient::TransientOptions;
use crate::{OperaError, Result};

/// How the stochastic solution of an experiment is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisMethod {
    /// The paper's intrusive Galerkin spectral-stochastic solve (one
    /// augmented system). The default.
    #[default]
    Galerkin,
    /// Non-intrusive stochastic collocation: a quadrature-grid sweep of
    /// deterministic solves sharing one symbolic analysis, projected onto
    /// the same polynomial-chaos basis.
    ///
    /// Note that [`run_experiment`] still builds a full [`OperaEngine`]
    /// (including its one-time Galerkin assembly and factorisation, which
    /// this method does not use) so both methods validate against the exact
    /// same Monte Carlo pipeline; that setup cost is *not* billed to the
    /// collocation timing. For a pure collocation workload on a large grid,
    /// drive `opera_collocation::solve_collocation` directly.
    Collocation {
        /// Refinement level of the quadrature grid (`≥ 1`).
        level: u32,
        /// Smolyak sparse grid or full tensor product.
        grid: GridKind,
    },
}

impl AnalysisMethod {
    /// A Smolyak-grid collocation method at the given level.
    pub fn collocation(level: u32) -> Self {
        AnalysisMethod::Collocation {
            level,
            grid: GridKind::Smolyak,
        }
    }
}

/// Configuration of one OPERA-vs-Monte-Carlo experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Grid to generate.
    pub grid_spec: GridSpec,
    /// Process-variation magnitudes.
    pub variation: VariationSpec,
    /// Expansion order (2 in the paper's Table 1).
    pub order: u32,
    /// Monte Carlo sample count (1000 in the paper).
    pub mc_samples: usize,
    /// Transient time step in seconds.
    pub time_step: f64,
    /// Transient end time; `None` uses the grid's waveform end time.
    pub end_time: Option<f64>,
    /// Seed for the Monte Carlo sampler.
    pub mc_seed: u64,
    /// Number of histogram bins for the distribution figures.
    pub histogram_bins: usize,
    /// Registered name of the solver backend for the augmented system (see
    /// [`crate::solver::available_backends`]). The block-preconditioned CG
    /// backend is recommended for large grids (the paper's §5.2 remark on
    /// iterative block solvers).
    pub solver: String,
    /// Worker-thread budget for the Monte Carlo baseline. Statistics are
    /// bit-identical for every setting (per-sample RNG streams, ordered
    /// accumulation); only wall-clock time changes.
    pub parallelism: Parallelism,
    /// How the stochastic solution is computed: the intrusive Galerkin solve
    /// (the paper's method, the default) or a stochastic-collocation sweep.
    pub method: AnalysisMethod,
}

impl ExperimentConfig {
    /// A configuration mirroring one row of Table 1 at full scale: paper grid
    /// `index` (0-based), order-2 expansion, 1000 Monte Carlo samples.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] if `index` is not one of the
    /// paper's seven grids.
    pub fn table1_row(index: usize) -> Result<Self> {
        if index >= PAPER_GRID_NODE_COUNTS.len() {
            return Err(OperaError::InvalidOptions {
                reason: format!(
                    "Table 1 has {} rows, got index {index}",
                    PAPER_GRID_NODE_COUNTS.len()
                ),
            });
        }
        Ok(ExperimentConfig {
            grid_spec: GridSpec::paper_grid(index)?,
            variation: VariationSpec::paper_defaults(),
            order: 2,
            mc_samples: 1000,
            time_step: 0.05e-9,
            end_time: None,
            mc_seed: 42 + index as u64,
            histogram_bins: 30,
            solver: BLOCK_JACOBI_CG.to_string(),
            parallelism: Parallelism::Max,
            method: AnalysisMethod::Galerkin,
        })
    }

    /// The same experiment with the grid size and sample count scaled down so
    /// it finishes quickly on a laptop (`scale` ≤ 1 scales the node count,
    /// `samples` overrides the Monte Carlo sample count).
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] if `index` is not one of the
    /// paper's seven grids.
    pub fn table1_row_scaled(index: usize, scale: f64, samples: usize) -> Result<Self> {
        let mut config = ExperimentConfig::table1_row(index)?;
        config.grid_spec = config.grid_spec.scaled_nodes(scale);
        config.mc_samples = samples;
        Ok(config)
    }

    /// A deliberately tiny configuration for doc-tests and smoke tests.
    pub fn quick_demo(nodes: usize) -> Self {
        ExperimentConfig {
            grid_spec: GridSpec::small_test(nodes),
            variation: VariationSpec::paper_defaults(),
            order: 2,
            mc_samples: 40,
            time_step: 0.2e-9,
            end_time: Some(1.0e-9),
            mc_seed: 7,
            histogram_bins: 12,
            solver: DIRECT_CHOLESKY.to_string(),
            parallelism: Parallelism::Max,
            method: AnalysisMethod::Galerkin,
        }
    }

    /// Returns the same configuration with a different parallelism setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Returns the same configuration with a different solver backend name.
    pub fn with_solver(mut self, name: &str) -> Self {
        self.solver = name.to_string();
        self
    }

    /// Returns the same configuration with a different analysis method.
    pub fn with_method(mut self, method: AnalysisMethod) -> Self {
        self.method = method;
        self
    }

    /// Validates the configuration without building anything: expansion
    /// order, sample and bin counts, solver-backend name and transient
    /// settings.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] describing the first problem.
    pub fn validate(&self) -> Result<()> {
        if self.order == 0 {
            return Err(OperaError::InvalidOptions {
                reason: "expansion order must be at least 1".to_string(),
            });
        }
        if self.mc_samples == 0 {
            return Err(OperaError::InvalidOptions {
                reason: "mc_samples must be at least 1".to_string(),
            });
        }
        if self.histogram_bins == 0 {
            return Err(OperaError::InvalidOptions {
                reason: "histogram_bins must be at least 1".to_string(),
            });
        }
        if let AnalysisMethod::Collocation { level, .. } = self.method {
            if level == 0 {
                return Err(OperaError::InvalidOptions {
                    reason: "collocation level must be at least 1".to_string(),
                });
            }
        }
        backend_by_name(&self.solver)?.validate()?;
        match self.end_time {
            // The full transient contract (finite positive step/end, step not
            // exceeding the horizon) lives in TransientOptions::validate.
            Some(end) => TransientOptions::new(self.time_step, end).validate(),
            // Without an explicit end time the horizon comes from the grid's
            // waveform at engine-build time; only the step can be checked.
            None => TransientOptions::new(self.time_step, f64::MAX).validate(),
        }
    }
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

/// Everything produced by one experiment: one row of Table 1 plus the data of
/// Figures 1–2.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Number of nodes of the generated grid.
    pub node_count: usize,
    /// Voltage-drop statistics of the OPERA solution.
    pub opera: DropSummary,
    /// OPERA-vs-Monte-Carlo accuracy (the µ and σ error columns).
    pub errors: AccuracySummary,
    /// Wall-clock seconds of the OPERA analysis. For [`run_experiment`] this
    /// covers assembly + factorisation + solve; for
    /// [`run_batch`](crate::engine::OperaEngine::run_batch) reports it covers
    /// the solve only (setup is shared, see
    /// [`OperaEngine::setup_seconds`](crate::engine::OperaEngine::setup_seconds)).
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

/// Runs a full OPERA-vs-Monte-Carlo experiment: builds an
/// [`OperaEngine`] from the configuration and
/// runs the baseline scenario through it. For the Galerkin method the
/// reported `opera_seconds` includes the engine setup (assembly +
/// factorisation), matching the paper's cost accounting for a single
/// one-shot analysis; for the collocation method it covers the sweep itself
/// (grid build + node solves + projection) — the engine's Galerkin setup is
/// not part of the collocation algorithm and is not billed to it.
///
/// # Errors
///
/// Propagates configuration-validation, grid-generation, assembly and solver
/// errors.
pub fn run_experiment(config: &ExperimentConfig) -> Result<ExperimentReport> {
    let engine = OperaEngine::from_config(config)?;
    let (scenario_report, setup_seconds) = match config.method {
        AnalysisMethod::Galerkin => (
            engine.run_scenario(&Scenario::default())?,
            engine.setup_seconds(),
        ),
        AnalysisMethod::Collocation { level, grid } => (
            engine.run_collocation_scenario(
                &Scenario::default(),
                &CollocationConfig { level, grid },
            )?,
            0.0,
        ),
    };
    let mut report = scenario_report.report;
    report.opera_seconds += setup_seconds;
    report.speedup = if report.opera_seconds > 0.0 {
        report.monte_carlo_seconds / report.opera_seconds
    } else {
        f64::INFINITY
    };
    Ok(report)
}

/// Builds the OPERA and Monte Carlo drop histograms at a probe node/time
/// (the paper's Figures 1–2). The OPERA histogram is obtained by sampling the
/// explicit expansion — no further circuit solves are needed, which is the
/// point the figures make.
///
/// # Errors
///
/// Propagates expansion-evaluation errors.
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

    /// `cholesky.numeric` spans under the test's `analysis.test` span (spans
    /// of tests running concurrently have other roots), split into those
    /// inside a Monte Carlo run (`mc.run`) and the rest: `(OPERA, MC)`.
    fn numeric_factorizations(snapshot: &opera_trace::TraceSnapshot) -> (usize, usize) {
        let root = snapshot.spans.iter().find(|s| s.name == "analysis.test");
        let root_id = root
            .map(|s| s.id)
            .expect("the test's root span was recorded");
        let ancestors = |mut id: u64| {
            std::iter::from_fn(move || {
                let span = snapshot.spans.iter().find(|s| s.id == id)?;
                id = span.parent;
                Some(span)
            })
        };
        let (mut monte_carlo, mut opera) = (0, 0);
        for span in snapshot
            .spans
            .iter()
            .filter(|s| s.name == "cholesky.numeric")
        {
            if !ancestors(span.parent).any(|a| a.id == root_id) {
                continue;
            }
            if ancestors(span.parent).any(|a| a.name == "mc.run") {
                monte_carlo += 1;
            } else {
                opera += 1;
            }
        }
        (opera, monte_carlo)
    }

    #[test]
    fn quick_experiment_produces_consistent_report() {
        // The cost claim is asserted on factorisation counts, not wall
        // clock: at 120 nodes the measured speed-up scatters around 1.
        let _guard = opera_trace::test_guard();
        opera_trace::reset();
        opera_trace::enable();
        let root = opera_trace::span("analysis.test");
        let report = run_experiment(&ExperimentConfig::quick_demo(120)).unwrap();
        drop(root);
        let snapshot = opera_trace::drain();
        opera_trace::disable();
        let (opera, monte_carlo) = numeric_factorizations(&snapshot);
        println!(
            "numeric factorisations: OPERA {opera}, Monte Carlo {monte_carlo}; speed-up {:.2}",
            report.speedup
        );
        // Each sample factors its own `G` and companion matrix.
        assert_eq!(monte_carlo, 2 * report.mc_samples);
        assert!(opera < monte_carlo, "{opera} OPERA vs {monte_carlo} MC");
        assert!(report.speedup.is_finite() && report.speedup > 0.0);

        assert!(report.node_count >= 100);
        assert!(report.opera.worst_mean_drop > 0.0);
        assert!(report.opera.sigma_at_worst > 0.0);
        assert!(report.errors.avg_mean_error_percent < 1.0);
        assert!(report.opera_seconds > 0.0);
        assert!(report.monte_carlo_seconds > 0.0);
        assert_eq!(report.mc_samples, 40);
        // Histograms cover the same range and contain all samples.
        assert_eq!(
            report.distribution.opera.edges(),
            report.distribution.monte_carlo.edges()
        );
        assert_eq!(report.distribution.monte_carlo.total(), report.mc_samples);
    }

    #[test]
    fn distributions_overlap_between_opera_and_monte_carlo() {
        let report = run_experiment(&ExperimentConfig::quick_demo(150)).unwrap();
        // The modal bins of the two histograms should be close (the paper's
        // figures show nearly coincident distributions).
        let mode_opera = report.distribution.opera.mode_bin() as i64;
        let mode_mc = report.distribution.monte_carlo.mode_bin() as i64;
        assert!(
            (mode_opera - mode_mc).abs() <= 3,
            "modes {mode_opera} vs {mode_mc}"
        );
    }

    #[test]
    fn collocation_method_axis_produces_a_comparable_report() {
        let galerkin = run_experiment(&ExperimentConfig::quick_demo(120)).unwrap();
        let config = ExperimentConfig::quick_demo(120).with_method(AnalysisMethod::collocation(2));
        assert!(config.validate().is_ok());
        let colloc = run_experiment(&config).unwrap();
        // Both methods expand the same response in the same basis, so the
        // summary statistics nearly coincide and both validate against the
        // identical Monte Carlo baseline.
        assert!(colloc.errors.avg_mean_error_percent < 1.0);
        let rel = (colloc.opera.worst_mean_drop - galerkin.opera.worst_mean_drop).abs()
            / galerkin.opera.worst_mean_drop;
        assert!(rel < 1e-3, "worst drops differ by {rel}");
        assert_eq!(colloc.distribution.node, galerkin.distribution.node);

        // Level 0 fails validation before any work happens.
        let bad = ExperimentConfig::quick_demo(100).with_method(AnalysisMethod::Collocation {
            level: 0,
            grid: GridKind::Smolyak,
        });
        assert!(bad.validate().is_err());
        assert!(run_experiment(&bad).is_err());
    }

    #[test]
    fn table1_row_scaled_shrinks_the_grid() {
        let config = ExperimentConfig::table1_row_scaled(0, 0.05, 25).unwrap();
        assert_eq!(config.mc_samples, 25);
        assert!(config.grid_spec.target_nodes < 1_000);
        assert_eq!(ExperimentConfig::table1_row(3).unwrap().mc_samples, 1000);
    }

    #[test]
    fn out_of_range_table1_rows_are_errors_not_panics() {
        assert!(matches!(
            ExperimentConfig::table1_row(7),
            Err(OperaError::InvalidOptions { .. })
        ));
        assert!(matches!(
            ExperimentConfig::table1_row_scaled(99, 0.1, 10),
            Err(OperaError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn invalid_configs_fail_validation_with_clear_errors() {
        let ok = ExperimentConfig::quick_demo(100);
        assert!(ok.validate().is_ok());

        let mut bad = ok.clone();
        bad.mc_samples = 0;
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("mc_samples"), "{err}");

        let mut bad = ok.clone();
        bad.histogram_bins = 0;
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("histogram_bins"), "{err}");

        let mut bad = ok.clone();
        bad.solver = "warp-drive".to_string();
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("warp-drive"), "{err}");

        let mut bad = ok.clone();
        bad.end_time = Some(f64::NAN);
        assert!(bad.validate().is_err());

        let mut bad = ok.clone();
        bad.end_time = Some(0.5 * bad.time_step);
        assert!(bad.validate().is_err(), "step exceeding the horizon");

        let mut bad = ok;
        bad.order = 0;
        assert!(bad.validate().is_err());
    }
}
