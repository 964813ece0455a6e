//! Monte Carlo baseline for stochastic power-grid analysis.
//!
//! The paper validates OPERA against plain Monte Carlo with 1000 samples per
//! grid: each sample draws a value of the process variables, realises the
//! perturbed `G`, `C` and excitation, and runs a full deterministic transient
//! analysis. Mean and variance are accumulated per node and time point with
//! Welford's algorithm; full sample traces are kept only for a small set of
//! probe nodes (used for the distribution plots of Figures 1–2).
//!
//! # Parallelism and determinism
//!
//! Samples are independent, so they run on a `rayon` pool bounded by the
//! installed [`Parallelism`](crate::parallel::Parallelism), in groups of up
//! to four through the ordered fan-out of [`opera_collocation::fan_out`].
//! Each sample draws from its own RNG stream seeded by
//! [`sample_seed`]`(options.seed, index)`, and every state is folded into
//! the Welford accumulator of its (time, node) *in sample order*, so the
//! statistics are bit-identical for every thread count (serial included).
//! States fold as the workers produce them: no sample's full trace is kept,
//! and with several workers a state waits only until the same time row of
//! the samples before it has folded.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::SeedableRng;

use opera_collocation::{fan_out, sample_points, PointSink, SweepTrace, TransientSpec};
use opera_grid::PowerGrid;
use opera_sparse::SolveWorkspace;
use opera_variation::{Excitation, LeakageModel, StochasticGridModel};

use crate::parallel::sample_seed;
use crate::solver::DirectPrepared;
use crate::special_case::check_leakage_nodes;
use crate::transient::{integrate_fixed_step, CompanionFamily, TransientOptions};
use crate::{OperaError, Result};

/// Options for a Monte Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloOptions {
    /// Number of samples (the paper uses 1000).
    pub samples: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Transient analysis options (shared with the OPERA run being compared).
    pub transient: TransientOptions,
    /// Nodes whose full per-sample voltage traces are recorded.
    pub probe_nodes: Vec<usize>,
    /// Multiplier applied to the switching currents (`1.0` = as modelled):
    /// the per-sample excitation is scaled around its quiescent `t = 0`
    /// value, mirroring the engine's
    /// [`Scenario::current_scale`](crate::engine::Scenario). With the default
    /// `1.0` the excitation path is bit-identical to the unscaled code.
    pub current_scale: f64,
}

impl MonteCarloOptions {
    /// Creates options with no probes and unscaled currents.
    pub fn new(samples: usize, seed: u64, transient: TransientOptions) -> Self {
        MonteCarloOptions {
            samples,
            seed,
            transient,
            probe_nodes: Vec::new(),
            current_scale: 1.0,
        }
    }

    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for zero samples, a negative or
    /// non-finite current scale, or invalid transient options.
    pub fn validate(&self) -> Result<()> {
        if self.samples == 0 {
            return Err(OperaError::InvalidOptions {
                reason: "Monte Carlo needs at least one sample".to_string(),
            });
        }
        if !self.current_scale.is_finite() || self.current_scale < 0.0 {
            return Err(OperaError::InvalidOptions {
                reason: format!(
                    "current_scale must be finite and non-negative, got {}",
                    self.current_scale
                ),
            });
        }
        self.transient.validate()
    }

    /// [`validate`](Self::validate), plus every probe node must be one of
    /// the `nodes` grid nodes.
    fn validate_for(&self, nodes: usize) -> Result<()> {
        self.validate()?;
        match self.probe_nodes.iter().find(|&&node| node >= nodes) {
            Some(node) => Err(OperaError::InvalidOptions {
                reason: format!("probe node {node} is out of range for a {nodes}-node grid"),
            }),
            None => Ok(()),
        }
    }
}

/// Accumulated Monte Carlo statistics.
#[derive(Debug, Clone)]
pub struct MonteCarloResult {
    /// Time points of the transient analyses.
    pub times: Vec<f64>,
    /// Per time point and node: sample mean of the voltage.
    pub mean: Vec<Vec<f64>>,
    /// Per time point and node: unbiased sample variance of the voltage.
    pub variance: Vec<Vec<f64>>,
    /// Probe nodes whose full traces were recorded.
    pub probe_nodes: Vec<usize>,
    /// `probe_traces[p][s][k]`: voltage of probe `p` in sample `s` at time
    /// index `k`.
    pub probe_traces: Vec<Vec<Vec<f64>>>,
    /// Number of samples that were run.
    pub samples: usize,
}

impl MonteCarloResult {
    /// Standard deviation at a time index and node.
    pub fn std_dev_at(&self, k: usize, node: usize) -> f64 {
        self.variance[k][node].sqrt()
    }

    /// The node, time index and value of the worst mean voltage drop.
    pub fn worst_mean_drop(&self, vdd: f64) -> (usize, usize, f64) {
        let mut best = (0usize, 0usize, f64::NEG_INFINITY);
        for (k, row) in self.mean.iter().enumerate() {
            for (n, &v) in row.iter().enumerate() {
                let drop = vdd - v;
                if drop > best.2 {
                    best = (n, k, drop);
                }
            }
        }
        best
    }

    /// Per-sample voltages of a probe node at one time index, or `None`
    /// when the node was not among the probe nodes of the run.
    pub fn probe_samples_at(&self, node: usize, k: usize) -> Option<Vec<f64>> {
        let p = self.probe_nodes.iter().position(|&n| n == node)?;
        Some(self.probe_traces[p].iter().map(|trace| trace[k]).collect())
    }
}

/// Welford statistics over (time, node) and the probe traces, fed each
/// time row in sample order by the ordered fan-out.
struct WelfordFold {
    mean: Vec<Vec<f64>>,
    m2: Vec<Vec<f64>>,
    probe_nodes: Vec<usize>,
    /// `probe_traces[p][s][k]`, filled as the states fold.
    probe_traces: Vec<Vec<Vec<f64>>>,
    samples: usize,
}

impl WelfordFold {
    fn new(times: usize, nodes: usize, options: &MonteCarloOptions) -> Self {
        let probes = options.probe_nodes.len();
        WelfordFold {
            mean: vec![vec![0.0; nodes]; times],
            m2: vec![vec![0.0; nodes]; times],
            probe_nodes: options.probe_nodes.clone(),
            probe_traces: vec![vec![vec![0.0; times]; options.samples]; probes],
            samples: options.samples,
        }
    }

    /// One Welford step of row `k` with the state of `sample`, the row's
    /// `sample + 1`-th.
    fn fold(&mut self, k: usize, sample: usize, state: &[f64]) {
        for (traces, &node) in self.probe_traces.iter_mut().zip(&self.probe_nodes) {
            traces[sample][k] = state[node];
        }
        let count = (sample + 1) as f64;
        let (mean, m2) = (&mut self.mean[k], &mut self.m2[k]);
        opera_simd::welford_update(mean, m2, state, count, opera_simd::active());
    }

    /// The statistics over `times`, once every state has folded: the
    /// mean, the unbiased variance and the probe traces.
    fn finish(self, times: Vec<f64>) -> MonteCarloResult {
        let denom = (self.samples.max(2) - 1) as f64;
        let variance = self
            .m2
            .into_iter()
            .map(|row| row.into_iter().map(|m2| m2 / denom).collect())
            .collect();
        MonteCarloResult {
            times,
            mean: self.mean,
            variance,
            probe_nodes: self.probe_nodes,
            probe_traces: self.probe_traces,
            samples: self.samples,
        }
    }
}

/// The Monte Carlo trace names: an `mc.sample_group` span per group under
/// `mc.run`, `mc.samples` counting the samples, and each group's
/// `transient.stepping` loop inside its group span.
const MC_TRACE: SweepTrace = SweepTrace {
    group: Some("mc.sample_group"),
    points: "mc.samples",
    point: None,
    stepping: "transient.stepping",
};

/// Runs the Monte Carlo baseline for an inter-die variation model: the
/// lock-step sampler of [`opera_collocation::sample_points`] at the
/// samples' draws, with the Welford statistics and the probe traces as its
/// fold. Every sample factors against one analysis of the nominal pattern
/// and steps in a lock-step group of four, and each column performs
/// exactly the single-sample arithmetic, so every sample is bit-identical
/// to a [`solve_transient`](crate::transient::solve_transient) of its own
/// matrices; a sample on the counted Cholesky→LU fallback steps alone.
///
/// # Errors
///
/// Returns [`OperaError::InvalidOptions`] for invalid options or a probe
/// node outside the grid, and propagates sampling or factorisation errors.
pub fn run(model: &StochasticGridModel, options: &MonteCarloOptions) -> Result<MonteCarloResult> {
    let _span = opera_trace::span("mc.run");
    let n = model.node_count();
    options.validate_for(n)?;
    let times = options.transient.time_points();
    let families = model.families();
    let draws: Vec<Vec<f64>> = (0..options.samples)
        .map(|sample| {
            let mut rng = StdRng::seed_from_u64(sample_seed(options.seed, sample as u64));
            families.iter().map(|f| f.sample(&mut rng)).collect()
        })
        .collect();
    let spec = TransientSpec {
        time_step: options.transient.time_step,
        end_time: options.transient.end_time,
        scheme: options.transient.method,
        current_scale: options.current_scale,
    };
    let mut statistics = WelfordFold::new(times.len(), n, options);
    sample_points(model, &draws, &spec, MC_TRACE, |k, sample, state| {
        statistics.fold(k, sample, state);
    })?;
    Ok(statistics.finish(times))
}

/// Runs the Monte Carlo baseline for the RHS-only leakage variation of the
/// paper's special case: the matrices stay nominal, only the excitation is
/// resampled, so a single factorisation is shared by all samples — and the
/// samples of each group of the ordered fan-out
/// ([`opera_collocation::fan_out`], four samples per group) advance in lock
/// step through **one blocked panel solve** per time step instead of one
/// scalar solve per sample per step. Each panel column performs exactly the
/// scalar arithmetic, so the statistics are bit-identical to the per-sample
/// path for every thread count.
///
/// # Errors
///
/// Returns [`OperaError::InvalidOptions`] for invalid options, a probe node
/// outside the grid or a leakage model of another node count, and
/// propagates factorisation errors.
pub fn run_leakage(
    grid: &PowerGrid,
    leakage: &LeakageModel,
    options: &MonteCarloOptions,
) -> Result<MonteCarloResult> {
    let _span = opera_trace::span("mc.run");
    let n = grid.node_count();
    options.validate_for(n)?;
    check_leakage_nodes(grid, leakage)?;
    let times = options.transient.time_points();
    let families = leakage.families();

    let method = options.transient.method;
    let prepared = DirectPrepared::new(
        CompanionFamily::new(&grid.conductance_matrix(), &grid.capacitance_matrix())?,
        options.transient.time_step,
        method,
    )?;

    // The waveform scaling is anchored at t = 0, so it rescales only the
    // switching currents; the (time-independent) leakage is untouched. The
    // switching excitation is shared by every sample — only the subtracted
    // leakage differs — so each group's evaluator evaluates the waveforms
    // once per time point.
    let switching = Excitation::for_grid(grid, options.current_scale);

    let mut statistics = WelfordFold::new(times.len(), n, options);
    let run_group = |range: Range<usize>, _, sink: &PointSink<'_>| {
        let first = range.start;
        // Per-sample leakage draws, from each sample's own RNG stream.
        let leaks: Vec<Vec<f64>> = range
            .map(|sample_index| {
                let mut rng = StdRng::seed_from_u64(sample_seed(options.seed, sample_index as u64));
                let xi: Vec<f64> = families.iter().map(|f| f.sample(&mut rng)).collect();
                leakage.sample_leakage(&xi)
            })
            .collect();
        let w = leaks.len();
        let mut excitation = switching.clone();

        // Shared-factor panel transient (the factors are shared across
        // groups *and* threads; they are only read). One workspace per
        // group: the steady-state loop allocates nothing.
        integrate_fixed_step(
            &prepared,
            method,
            &times,
            (n, w),
            &mut SolveWorkspace::with_capacity(n * w),
            |t, u_panel| {
                for (j, leak) in leaks.iter().enumerate() {
                    let column = u_panel.col_mut(j);
                    excitation.nominal_into(t, column);
                    for (u_n, l_n) in column.iter_mut().zip(leak) {
                        *u_n -= l_n;
                    }
                }
                Ok(())
            },
            |k, state| {
                for (j, col) in state.columns().enumerate() {
                    sink(k, first + j, col);
                }
            },
        )
    };
    fan_out(
        options.samples,
        times.len(),
        MC_TRACE,
        run_group,
        |k, sample, state| statistics.fold(k, sample, state),
    )?;
    Ok(statistics.finish(times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OperaEngine;
    use opera_grid::GridSpec;
    use opera_variation::{StochasticGridModel, VariationSpec};

    fn setup() -> (opera_grid::PowerGrid, StochasticGridModel) {
        let grid = GridSpec::small_test(80).with_seed(21).build().unwrap();
        let model =
            StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults()).unwrap();
        (grid, model)
    }

    #[test]
    fn monte_carlo_matches_opera_mean_and_variance() {
        let (grid, model) = setup();
        let topts = TransientOptions::new(0.2e-9, 1.0e-9);
        let opera = OperaEngine::for_model(model.clone())
            .time_step(topts.time_step)
            .end_time(topts.end_time)
            .build()
            .unwrap()
            .solve()
            .unwrap();
        let mc = run(&model, &MonteCarloOptions::new(200, 1, topts)).unwrap();
        let (node, k, _) = opera.worst_mean_drop(grid.vdd());
        let mean_err = (opera.mean_at(k, node) - mc.mean[k][node]).abs() / grid.vdd();
        assert!(mean_err < 5e-3, "mean error {mean_err}");
        let sigma_opera = opera.std_dev_at(k, node);
        let sigma_mc = mc.std_dev_at(k, node);
        assert!(sigma_mc > 0.0);
        let rel = (sigma_opera - sigma_mc).abs() / sigma_mc;
        assert!(rel < 0.25, "sigma mismatch: {sigma_opera} vs {sigma_mc}");
    }

    #[test]
    fn probe_traces_have_expected_shape() {
        let (_grid, model) = setup();
        let topts = TransientOptions::new(0.25e-9, 1.0e-9);
        let mut opts = MonteCarloOptions::new(5, 3, topts);
        opts.probe_nodes = vec![0, 7];
        let mc = run(&model, &opts).unwrap();
        assert_eq!(mc.probe_traces.len(), 2);
        assert_eq!(mc.probe_traces[0].len(), 5);
        assert_eq!(mc.probe_traces[0][0].len(), mc.times.len());
        let samples = mc.probe_samples_at(7, 1).expect("probe node");
        assert_eq!(samples.len(), 5);
        assert_eq!(mc.samples, 5);
    }

    #[test]
    fn leakage_monte_carlo_records_probe_traces_and_matches_nominal_without_variation() {
        use opera_variation::LeakageModel;
        let grid = GridSpec::small_test(70).with_seed(19).build().unwrap();
        let topts = TransientOptions::new(0.25e-9, 0.5e-9);
        // Zero Vth sigma: every sample is identical, so the variance must be
        // (numerically) zero and the probes all coincide.
        let leakage =
            LeakageModel::uniform_slices(grid.node_count(), 2, 1.0e-5, 0.0, 23.0).unwrap();
        let mut opts = MonteCarloOptions::new(8, 4, topts);
        opts.probe_nodes = vec![3];
        let mc = run_leakage(&grid, &leakage, &opts).unwrap();
        assert_eq!(mc.probe_traces[0].len(), 8);
        let k = mc.times.len() - 1;
        let samples = mc.probe_samples_at(3, k).expect("probe node");
        for s in &samples {
            assert!((s - samples[0]).abs() < 1e-12);
        }
        for n in 0..grid.node_count() {
            assert!(mc.std_dev_at(k, n) < 1e-10);
        }
        let (_, _, worst) = mc.worst_mean_drop(grid.vdd());
        assert!(worst >= 0.0);
    }

    #[test]
    fn leakage_models_of_another_node_count_are_rejected() {
        use opera_variation::LeakageModel;
        let grid = GridSpec::small_test(63).with_seed(19).build().unwrap();
        let n = grid.node_count();
        let leakage = LeakageModel::uniform_slices(n - 1, 2, 1.0e-5, 0.03, 23.0).unwrap();
        let opts = MonteCarloOptions::new(4, 1, TransientOptions::new(0.25e-9, 0.5e-9));
        assert!(matches!(
            run_leakage(&grid, &leakage, &opts),
            Err(OperaError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let (_grid, model) = setup();
        let topts = TransientOptions::new(0.25e-9, 0.5e-9);
        let a = run(&model, &MonteCarloOptions::new(10, 11, topts)).unwrap();
        let b = run(&model, &MonteCarloOptions::new(10, 11, topts)).unwrap();
        let c = run(&model, &MonteCarloOptions::new(10, 12, topts)).unwrap();
        assert_eq!(a.mean, b.mean);
        assert_ne!(a.mean, c.mean);
    }

    #[test]
    fn zero_samples_is_rejected() {
        let (_grid, model) = setup();
        let opts = MonteCarloOptions::new(0, 1, TransientOptions::new(0.1e-9, 1.0e-9));
        assert!(matches!(
            run(&model, &opts),
            Err(OperaError::InvalidOptions { .. })
        ));
    }
}
