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
//! Samples are independent, so the loop runs on a `rayon` pool bounded by
//! the installed [`Parallelism`](crate::parallel::Parallelism). Each sample
//! draws from its own RNG stream seeded by
//! [`sample_seed`]`(options.seed, index)`, and
//! batches of traces are folded into the Welford accumulator *in sample
//! order*, so the statistics are bit-identical for every thread count
//! (serial included). Memory stays bounded: at most one batch of traces
//! (a small multiple of the worker count) is alive at a time.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use opera_grid::PowerGrid;
use opera_sparse::{MatrixFactor, SolveWorkspace, SymbolicCholesky};
use opera_variation::{LeakageModel, StochasticGridModel};

use crate::parallel::sample_seed;
use crate::solver::DirectPrepared;
use crate::transient::{
    analyze_companion_pattern, integrate_fixed_step, rescale_around_anchor, CompanionSystem,
    TransientOptions,
};
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

/// Welford accumulator over vectors indexed by (time, node).
struct WelfordGrid {
    count: usize,
    mean: Vec<Vec<f64>>,
    m2: Vec<Vec<f64>>,
}

impl WelfordGrid {
    fn new(times: usize, nodes: usize) -> Self {
        WelfordGrid {
            count: 0,
            mean: vec![vec![0.0; nodes]; times],
            m2: vec![vec![0.0; nodes]; times],
        }
    }

    fn update(&mut self, sample: &[Vec<f64>]) {
        self.count += 1;
        let c = self.count as f64;
        let backend = opera_simd::active();
        for (k, row) in sample.iter().enumerate() {
            opera_simd::welford_update(&mut self.mean[k], &mut self.m2[k], row, c, backend);
        }
    }

    fn finish(self) -> (Vec<Vec<f64>>, Vec<Vec<f64>>, usize) {
        let denom = (self.count.max(2) - 1) as f64;
        let variance = self
            .m2
            .into_iter()
            .map(|row| row.into_iter().map(|m2| m2 / denom).collect())
            .collect();
        (self.mean, variance, self.count)
    }
}

/// Runs the Monte Carlo baseline for an inter-die variation model.
///
/// A sample only re-weights nominal branches, so nominal `G` and `G + C` are
/// analysed once, before the fan-out, and every sample factors numerically
/// against them — bit-identical to a
/// [`solve_transient`](crate::transient::solve_transient) of its own
/// matrices, since the ordering reads only the pattern.
///
/// # Errors
///
/// Returns [`OperaError::InvalidOptions`] for invalid options, and propagates
/// sampling or factorisation errors.
pub fn run(model: &StochasticGridModel, options: &MonteCarloOptions) -> Result<MonteCarloResult> {
    let _span = opera_trace::span("mc.run");
    options.validate()?;
    let times = options.transient.time_points();
    let n = model.node_count();
    let families = model.families();

    let scale = options.current_scale;
    let (method, h) = (options.transient.method, options.transient.time_step);
    let g_nominal = model.nominal_conductance();
    let dc_analysis = SymbolicCholesky::analyze(g_nominal)?;
    let step_analysis = analyze_companion_pattern(g_nominal, model.nominal_capacitance())?;
    let sample_trace = |sample_index: usize| -> Result<Vec<Vec<f64>>> {
        let mut rng = StdRng::seed_from_u64(sample_seed(options.seed, sample_index as u64));
        let xi: Vec<f64> = families.iter().map(|f| f.sample(&mut rng)).collect();
        let g = model.sample_conductance(&xi)?;
        let c = model.sample_capacitance(&xi)?;
        // Anchor the waveform scaling at the quiescent excitation of *this*
        // sample, so only the switching currents are rescaled.
        let anchor = if scale != 1.0 {
            Some(model.sample_excitation(0.0, &xi)?)
        } else {
            None
        };
        let prepared = DirectPrepared::new(
            MatrixFactor::from_cholesky_attempt(dc_analysis.factor_numeric(&g), &g)?,
            CompanionSystem::factored(&g, &c, h, method, Some(&step_analysis))?,
        );
        // The output rows are allocated up front; each step's state is
        // copied into its row.
        let mut voltages = vec![vec![0.0; n]; times.len()];
        integrate_fixed_step(
            &prepared,
            method,
            &times,
            (n, 1),
            &mut SolveWorkspace::with_capacity(n),
            |t, u| {
                u.data_mut()
                    .copy_from_slice(&model.sample_excitation(t, &xi)?);
                if let Some(u0) = &anchor {
                    rescale_around_anchor(u.data_mut(), u0, scale);
                }
                Ok(())
            },
            |k, state| voltages[k].copy_from_slice(state.data()),
        )?;
        Ok(voltages)
    };
    // One sample per group: every sample has its own matrices.
    accumulate_sample_groups(options, times.clone(), n, 1, |samples| {
        samples.map(sample_trace).collect()
    })
}

/// Width of the sample panels in shared-factor Monte Carlo runs: each worker
/// advances this many samples in lock step through one blocked panel solve
/// per time step. The partition into groups is fixed (independent of the
/// thread count), so statistics stay bit-identical for every setting.
const MC_PANEL_WIDTH: usize = 4;

/// Runs the per-group closure over contiguous groups of `group_width`
/// samples on the installed `rayon` pool — one worker produces all traces of
/// a group (e.g. by stepping them as one panel) — and folds the traces into
/// the Welford statistics strictly in sample order. Batching keeps at most
/// ~2 groups per worker alive, bounding memory on paper-scale grids while
/// keeping every worker busy.
fn accumulate_sample_groups(
    options: &MonteCarloOptions,
    times: Vec<f64>,
    n: usize,
    group_width: usize,
    group_traces: impl Fn(std::ops::Range<usize>) -> Result<Vec<Vec<Vec<f64>>>> + Sync,
) -> Result<MonteCarloResult> {
    let mut stats = WelfordGrid::new(times.len(), n);
    let mut probe_traces: Vec<Vec<Vec<f64>>> =
        vec![Vec::with_capacity(options.samples); options.probe_nodes.len()];

    let total_groups = options.samples.div_ceil(group_width.max(1)).max(1);
    let batch = (rayon::current_num_threads().max(1) * 2).min(total_groups);
    // Captured before the fan-out: worker threads attach their group spans
    // to the span that spawned the sweep, not to a thread-local root.
    let parent = opera_trace::current_span();
    let mut group = 0;
    while group < total_groups {
        let end = (group + batch).min(total_groups);
        let results: Vec<Result<Vec<Vec<Vec<f64>>>>> = (group..end)
            .into_par_iter()
            .map(|g| {
                let start = g * group_width;
                let stop = (start + group_width).min(options.samples);
                let _span = opera_trace::span_under(parent, "mc.sample_group");
                opera_trace::count("mc.samples", (stop - start) as u64);
                group_traces(start..stop)
            })
            .collect();
        for group_result in results {
            for voltages in group_result? {
                stats.update(&voltages);
                for (p, &node) in options.probe_nodes.iter().enumerate() {
                    probe_traces[p].push(voltages.iter().map(|row| row[node]).collect());
                }
            }
        }
        group = end;
    }
    let (mean, variance, samples) = stats.finish();
    Ok(MonteCarloResult {
        times,
        mean,
        variance,
        probe_nodes: options.probe_nodes.clone(),
        probe_traces,
        samples,
    })
}

/// Runs the Monte Carlo baseline for the RHS-only leakage variation of the
/// paper's special case: the matrices stay nominal, only the excitation is
/// resampled, so a single factorisation is shared by all samples — and the
/// samples of each worker's group advance in lock step through **one blocked
/// panel solve** per time step (groups of `MC_PANEL_WIDTH` = 4 samples)
/// instead of one scalar solve per sample per step. Each panel column
/// performs exactly
/// the scalar arithmetic, so the statistics are bit-identical to the
/// per-sample path for every thread count.
///
/// # Errors
///
/// Returns [`OperaError::InvalidOptions`] for invalid options and propagates
/// factorisation errors.
pub fn run_leakage(
    grid: &PowerGrid,
    leakage: &LeakageModel,
    options: &MonteCarloOptions,
) -> Result<MonteCarloResult> {
    let _span = opera_trace::span("mc.run");
    options.validate()?;
    let times = options.transient.time_points();
    let n = grid.node_count();
    let families = leakage.families();

    let g = grid.conductance_matrix();
    let c = grid.capacitance_matrix();
    let method = options.transient.method;
    let prepared = DirectPrepared::new(
        MatrixFactor::cholesky_or_lu(&g)?,
        CompanionSystem::new(&g, &c, options.transient.time_step, method)?,
    );
    let scale = options.current_scale;

    // The waveform scaling is anchored at t = 0, so it rescales only the
    // switching currents; the (time-independent) leakage is untouched. The
    // switching excitation is shared by every sample — only the subtracted
    // leakage differs — so each group evaluates it once per time point.
    let anchor = (scale != 1.0).then(|| grid.excitation(0.0));

    accumulate_sample_groups(options, times.clone(), n, MC_PANEL_WIDTH, |range| {
        // Per-sample leakage draws, from each sample's own RNG stream.
        let leaks: Vec<Vec<f64>> = range
            .map(|sample_index| {
                let mut rng = StdRng::seed_from_u64(sample_seed(options.seed, sample_index as u64));
                let xi: Vec<f64> = families.iter().map(|f| f.sample(&mut rng)).collect();
                leakage.sample_leakage(&xi)
            })
            .collect();
        let w = leaks.len();

        // Shared-factor panel transient (the factors are shared across
        // groups *and* threads; they are only read). One workspace per
        // group: the steady-state loop allocates only its output traces.
        let mut traces: Vec<Vec<Vec<f64>>> =
            (0..w).map(|_| Vec::with_capacity(times.len())).collect();
        integrate_fixed_step(
            &prepared,
            method,
            &times,
            (n, w),
            &mut SolveWorkspace::with_capacity(n * w),
            |t, u_panel| {
                let mut base = grid.excitation(t);
                if let Some(u0) = &anchor {
                    rescale_around_anchor(&mut base, u0, scale);
                }
                for (j, leak) in leaks.iter().enumerate() {
                    for ((u_n, &b), l_n) in u_panel.col_mut(j).iter_mut().zip(&base).zip(leak) {
                        *u_n = b - l_n;
                    }
                }
                Ok(())
            },
            |_, state| {
                for (series, col) in traces.iter_mut().zip(state.columns()) {
                    series.push(col.to_vec());
                }
            },
        )?;
        Ok(traces)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stochastic::{solve, OperaOptions};
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
        let opera = solve(&model, &OperaOptions::order2(topts)).unwrap();
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
