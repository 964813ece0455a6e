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
//! every state is folded into the Welford accumulator of its (time, node)
//! *in sample order*, so the statistics are bit-identical for every thread
//! count (serial included). States fold as the workers produce them: no
//! sample's full trace is kept, and with several workers a state waits
//! only until the same time row of the samples before it has folded.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use opera_grid::PowerGrid;
use opera_simd::scalar::LOCKSTEP_LANES;
use opera_sparse::{
    CholeskyFactor, CholeskyGroup, MatrixFactor, Panel, SolveWorkspace, SymbolicCholesky,
};
use opera_variation::{LeakageModel, NominalPatterns, SampleValues, StochasticGridModel};

use crate::parallel::sample_seed;
use crate::solver::{check_scheme, DirectPrepared, PreparedSolver};
use crate::special_case::check_leakage_nodes;
use crate::transient::{
    assert_same_columns, companion_scale, dc_analysis, integrate_fixed_step, rescale_around_anchor,
    CompanionFamily, CompanionSystem, IntegrationMethod, StepRhs, TransientOptions,
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

/// Welford statistics over (time, node), fed one state at a time from any
/// worker. Row `k` of sample `s` folds once row `k` of every sample before
/// `s` has, so each accumulator sees the samples in sample order whatever
/// the thread schedule; a state that arrives early waits in `pending`.
struct OrderedFold {
    mean: Vec<Vec<f64>>,
    m2: Vec<Vec<f64>>,
    /// Per time row: the next sample to fold.
    next: Vec<usize>,
    /// States that arrived before their predecessors, by (row, sample).
    pending: BTreeMap<(usize, usize), Vec<f64>>,
    probe_nodes: Vec<usize>,
    /// `probe_traces[p][s][k]`, filled as the states arrive.
    probe_traces: Vec<Vec<Vec<f64>>>,
    samples: usize,
}

impl OrderedFold {
    fn new(times: usize, nodes: usize, options: &MonteCarloOptions) -> Self {
        let probes = options.probe_nodes.len();
        OrderedFold {
            mean: vec![vec![0.0; nodes]; times],
            m2: vec![vec![0.0; nodes]; times],
            next: vec![0; times],
            pending: BTreeMap::new(),
            probe_nodes: options.probe_nodes.clone(),
            probe_traces: vec![vec![vec![0.0; times]; options.samples]; probes],
            samples: options.samples,
        }
    }

    /// Takes the state of `sample` at time row `k`.
    fn push(&mut self, k: usize, sample: usize, state: &[f64]) {
        for (traces, &node) in self.probe_traces.iter_mut().zip(&self.probe_nodes) {
            traces[sample][k] = state[node];
        }
        if self.next[k] != sample {
            self.pending.insert((k, sample), state.to_vec());
            return;
        }
        self.fold(k, state);
        while let Some(state) = self.pending.remove(&(k, self.next[k])) {
            self.fold(k, &state);
        }
    }

    /// One Welford step of row `k` with its next sample's state.
    fn fold(&mut self, k: usize, state: &[f64]) {
        self.next[k] += 1;
        let count = self.next[k] as f64;
        let (mean, m2) = (&mut self.mean[k], &mut self.m2[k]);
        opera_simd::welford_update(mean, m2, state, count, opera_simd::active());
    }

    /// The statistics over `times`, once every state has folded: the
    /// mean, the unbiased variance and the probe traces.
    fn finish(self, times: Vec<f64>) -> MonteCarloResult {
        debug_assert!(self.pending.is_empty() && self.next.iter().all(|&c| c == self.samples));
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

/// Runs the Monte Carlo baseline for an inter-die variation model.
///
/// A sample only re-weights nominal branches, so nominal `G + C` is
/// analysed once, before the fan-out — grounded capacitors give it `G`'s
/// pattern, so `G` shares that analysis — and every sample factors
/// numerically against it — bit-identical to a
/// [`solve_transient`](crate::transient::solve_transient) of its own
/// matrices, since the ordering reads only the pattern.
///
/// Samples advance in lock step, `MC_PANEL_WIDTH` (= 4) per group: their
/// companion factors share the one analysis, so a group interleaves them
/// into one [`CholeskyGroup`] and each time step runs one lock-step solve
/// over the shared pattern for the whole group, column `j` on sample `j`'s
/// own `G`, `C` and factor. A sample's `G` and `s·C` are value arrays on
/// the nominal patterns ([`NominalPatterns::realise`]), so no group builds
/// a matrix of its own. Each column performs exactly the single-sample
/// arithmetic, so every sample stays bit-identical to its one-shot
/// transient. A sample whose companion needs the counted Cholesky→LU
/// fallback gets CSR matrices of its own and steps alone.
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

    let scale = options.current_scale;
    let (method, h) = (options.transient.method, options.transient.time_step);
    let c_scale = companion_scale(method, h);
    let patterns = NominalPatterns::new(model)?;
    let step_analysis = SymbolicCholesky::analyze(patterns.companion())?;
    let dc_analysis = dc_analysis(patterns.conductance(), &step_analysis)?;
    let run_group = |range: Range<usize>, sink: &SampleSink<'_>| -> Result<()> {
        let first = range.start;
        let draws: Vec<Vec<f64>> = range
            .map(|sample_index| {
                let mut rng = StdRng::seed_from_u64(sample_seed(options.seed, sample_index as u64));
                families.iter().map(|f| f.sample(&mut rng)).collect()
            })
            .collect();
        // Anchor the waveform scaling at the quiescent excitation of each
        // sample, so only the switching currents are rescaled.
        let mut anchors = Vec::with_capacity(draws.len());
        for xi in &draws {
            anchors.push(if scale != 1.0 {
                Some(model.sample_excitation(0.0, xi)?)
            } else {
                None
            });
        }
        // Each sample is realised as values on the nominal patterns; its
        // companion factor is interleaved into the group as soon as it
        // exists and then dropped, so one sample's factor is the only
        // single factor alive at a time.
        let mut lockstep =
            LockstepSamples::new(&patterns, &dc_analysis, &step_analysis, method, draws.len());
        let mut alone: Vec<(usize, DirectPrepared)> = Vec::new();
        let mut members = Vec::with_capacity(draws.len());
        let mut values = SampleValues::default();
        for (j, xi) in draws.iter().enumerate() {
            patterns.realise(xi, c_scale, &mut values)?;
            let companion = patterns.companion().with_values(&values.companion);
            match step_analysis.factor_values(companion) {
                Ok(factor) => {
                    lockstep.push(
                        factor,
                        std::mem::take(&mut values.conductance),
                        std::mem::take(&mut values.scaled_capacitance),
                    )?;
                    members.push(j);
                }
                Err(err) => {
                    // The counted LU fallback: this sample alone gets
                    // matrices of its own and steps by itself.
                    let companion = MatrixFactor::from_cholesky_attempt(Err(err), companion)?;
                    let g = patterns.conductance().with_values(&values.conductance);
                    let dc = MatrixFactor::from_cholesky_attempt(dc_analysis.factor_values(g), g)?;
                    let system = CompanionSystem::from_parts(
                        companion,
                        Arc::new(g.to_csr()),
                        Arc::new(patterns.capacitance().clone()),
                        std::mem::take(&mut values.scaled_capacitance),
                        method,
                        h,
                    );
                    alone.push((j, DirectPrepared::new(dc, system)));
                }
            }
        }
        let lockstep_run =
            (!members.is_empty()).then_some((members.as_slice(), &lockstep as &dyn PreparedSolver));
        let alone_runs = alone
            .iter()
            .map(|(j, p)| (std::slice::from_ref(j), p as &dyn PreparedSolver));
        // The drain-current scratch of every excitation the group writes.
        let mut drain = Vec::new();
        for (samples, prepared) in lockstep_run.into_iter().chain(alone_runs) {
            integrate_fixed_step(
                prepared,
                method,
                &times,
                (n, samples.len()),
                &mut SolveWorkspace::with_capacity(n * MC_PANEL_WIDTH),
                |t, u| {
                    for (col, &j) in samples.iter().enumerate() {
                        let u_j = u.col_mut(col);
                        model.sample_excitation_into(t, &draws[j], u_j, &mut drain)?;
                        if let Some(u0) = &anchors[j] {
                            rescale_around_anchor(u_j, u0, scale);
                        }
                    }
                    Ok(())
                },
                |k, state| {
                    for (col, &j) in samples.iter().enumerate() {
                        sink(k, first + j, state.col(col));
                    }
                },
            )?;
        }
        Ok(())
    };
    accumulate_sample_groups(options, times.clone(), n, MC_PANEL_WIDTH, run_group)
}

/// Up to `MC_PANEL_WIDTH` inter-die samples stepped in lock step by
/// [`run`]: column `j` of every panel is member `j`, which steps on its own
/// `G`, `s·C` and companion factor (lane `j` of one [`CholeskyGroup`]). A
/// member's matrices are value arrays on the nominal patterns. Each column
/// performs exactly the arithmetic of a one-column [`DirectPrepared`] over
/// that sample's own factors.
struct LockstepSamples<'a> {
    method: IntegrationMethod,
    patterns: &'a NominalPatterns<'a>,
    /// The analysis of the nominal `G` that each member's DC factor is
    /// computed against.
    dc_analysis: &'a SymbolicCholesky,
    /// Per member: the values of `G` and `s·C`, the matrices its stage
    /// right-hand sides read.
    values: Vec<(Vec<f64>, Vec<f64>)>,
    companions: CholeskyGroup,
}

impl<'a> LockstepSamples<'a> {
    fn new(
        patterns: &'a NominalPatterns<'a>,
        dc_analysis: &'a SymbolicCholesky,
        step_analysis: &SymbolicCholesky,
        method: IntegrationMethod,
        lanes: usize,
    ) -> Self {
        LockstepSamples {
            method,
            patterns,
            dc_analysis,
            values: Vec::with_capacity(lanes),
            companions: CholeskyGroup::new(step_analysis, lanes),
        }
    }

    /// Adds a member: its companion factor and its `G` and `s·C` values.
    fn push(
        &mut self,
        factor: CholeskyFactor,
        conductance: Vec<f64>,
        scaled_capacitance: Vec<f64>,
    ) -> Result<()> {
        self.companions.push(factor)?;
        self.values.push((conductance, scaled_capacitance));
        Ok(())
    }

    /// Member `j`'s stage right-hand-side builder.
    fn rhs(&self, j: usize) -> StepRhs<'_> {
        let (g, c_over_h) = &self.values[j];
        StepRhs {
            c: self.patterns.capacitance().with_values(c_over_h),
            c_scale: 1.0,
            g: self.patterns.conductance().with_values(g),
        }
    }
}

impl PreparedSolver for LockstepSamples<'_> {
    /// Factors each member's `G` when its DC solve comes and drops the
    /// factor after that one solve: only the companion factors stay alive
    /// for the transient.
    fn solve_dc_panel(&self, u0: &Panel, out: &mut Panel, ws: &mut SolveWorkspace) -> Result<()> {
        out.data_mut().copy_from_slice(u0.data());
        for (j, (g, _)) in self.values.iter().enumerate() {
            let g = self.patterns.conductance().with_values(g);
            let dc = MatrixFactor::from_cholesky_attempt(self.dc_analysis.factor_values(g), g)?;
            dc.solve_columns(out.col_mut(j), ws);
        }
        Ok(())
    }

    fn step_panel_into(
        &self,
        state: &Panel,
        u_prev: &Panel,
        u_next: &Panel,
        out: &mut Panel,
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        check_scheme(self.method, false)?;
        assert_same_columns(&[state, u_prev, u_next], out);
        for j in 0..out.ncols() {
            self.rhs(j).single_stage(
                self.method,
                state.col(j),
                u_prev.col(j),
                u_next.col(j),
                out.col_mut(j),
            );
        }
        self.companions.solve_panel(out, ws);
        Ok(())
    }

    fn step_tr_bdf2_panel_into(
        &self,
        state: &Panel,
        u_prev: &Panel,
        u_mid: &Panel,
        u_next: &Panel,
        stage: &mut Panel,
        out: &mut Panel,
        ws: &mut SolveWorkspace,
    ) -> Result<()> {
        check_scheme(self.method, true)?;
        assert_same_columns(&[state, u_prev, u_mid, u_next, stage], out);
        for j in 0..out.ncols() {
            self.rhs(j)
                .trapezoidal(state.col(j), u_prev.col(j), u_mid.col(j), stage.col_mut(j));
        }
        self.companions.solve_panel(stage, ws);
        for j in 0..out.ncols() {
            self.rhs(j)
                .bdf2(state.col(j), stage.col(j), u_next.col(j), out.col_mut(j));
        }
        self.companions.solve_panel(out, ws);
        Ok(())
    }

    /// Monte Carlo samples step the run's fixed grid; no controller asks
    /// them for an error estimate.
    fn tr_bdf2_error_panel_into(
        &self,
        _states: [&Panel; 3],
        _excitations: [&Panel; 3],
        _err: &mut Panel,
        _ws: &mut SolveWorkspace,
    ) -> Result<()> {
        Err(OperaError::InvalidOptions {
            reason: "lock-step Monte Carlo samples take fixed steps only".to_string(),
        })
    }

    fn companion_family(&self) -> Option<&CompanionFamily> {
        None
    }

    fn with_time_step(&self, _time_step: f64) -> Result<Option<Box<dyn PreparedSolver>>> {
        Ok(None)
    }
}

/// Width of the sample groups of both Monte Carlo runs: each worker
/// advances this many samples in lock step through one panel solve per
/// time step (a blocked solve on the leakage run's shared factor, a
/// lock-step [`CholeskyGroup`] solve on the inter-die samples' own
/// factors). The partition into groups is fixed (independent of the thread
/// count), so statistics stay bit-identical for every setting.
const MC_PANEL_WIDTH: usize = LOCKSTEP_LANES;

/// Where a sample group delivers its states: `sink(k, sample, state)` hands
/// over the state of sample `sample` (a run-wide index) at time index `k`.
type SampleSink<'a> = dyn Fn(usize, usize, &[f64]) + Sync + 'a;

/// Runs `run_group` over contiguous groups of `group_width` samples on the
/// installed `rayon` pool — one worker steps all samples of a group (e.g.
/// as one panel) and hands every state to the sink as it is computed — and
/// folds the states into the Welford statistics in sample order per time
/// row ([`OrderedFold`]). Nothing holds a sample's full trace: in a serial
/// run every state folds at once, and with more workers a state waits only
/// until the same time row of the samples before it has folded. Batches of
/// one group per worker bound how far a group can run ahead.
fn accumulate_sample_groups(
    options: &MonteCarloOptions,
    times: Vec<f64>,
    n: usize,
    group_width: usize,
    run_group: impl Fn(Range<usize>, &SampleSink<'_>) -> Result<()> + Sync,
) -> Result<MonteCarloResult> {
    let fold = Mutex::new(OrderedFold::new(times.len(), n, options));
    let sink = |k: usize, sample: usize, state: &[f64]| {
        let mut fold = match fold.lock() {
            Ok(fold) => fold,
            Err(poisoned) => poisoned.into_inner(),
        };
        fold.push(k, sample, state);
    };

    let total_groups = options.samples.div_ceil(group_width.max(1)).max(1);
    let batch = rayon::current_num_threads().clamp(1, total_groups);
    // Captured before the fan-out: worker threads attach their group spans
    // to the span that spawned the sweep, not to a thread-local root.
    let parent = opera_trace::current_span();
    let mut group = 0;
    while group < total_groups {
        let end = (group + batch).min(total_groups);
        let results: Vec<Result<()>> = (group..end)
            .into_par_iter()
            .map(|g| {
                let start = g * group_width;
                let stop = (start + group_width).min(options.samples);
                let _span = opera_trace::span_under(parent, "mc.sample_group");
                opera_trace::count("mc.samples", (stop - start) as u64);
                run_group(start..stop, &sink)
            })
            .collect();
        results.into_iter().collect::<Result<()>>()?;
        group = end;
    }
    let fold = match fold.into_inner() {
        Ok(fold) => fold,
        Err(poisoned) => poisoned.into_inner(),
    };
    Ok(fold.finish(times))
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
    let prepared = DirectPrepared::nominal(
        &grid.conductance_matrix(),
        &grid.capacitance_matrix(),
        options.transient.time_step,
        method,
    )?;
    let scale = options.current_scale;

    // The waveform scaling is anchored at t = 0, so it rescales only the
    // switching currents; the (time-independent) leakage is untouched. The
    // switching excitation is shared by every sample — only the subtracted
    // leakage differs — so each group evaluates it once per time point.
    let anchor = (scale != 1.0).then(|| grid.excitation(0.0));

    accumulate_sample_groups(options, times.clone(), n, MC_PANEL_WIDTH, |range, sink| {
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
            |k, state| {
                for (j, col) in state.columns().enumerate() {
                    sink(k, first + j, col);
                }
            },
        )
    })
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
