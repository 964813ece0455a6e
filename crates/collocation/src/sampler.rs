//! The lock-step sampler: deterministic transients of one stochastic grid
//! model at a set of points `ξ_q`, folded in point order.
//!
//! Monte Carlo and collocation do the same work at different points: each
//! point's `G(ξ)`, `s·C(ξ)` and excitation are realised on the model's
//! nominal patterns, factored against one shared symbolic analysis and
//! stepped through a fixed-step transient. The two differ only in where the
//! points come from (random draws, quadrature nodes) and in how the states
//! are folded (Welford statistics, the discrete projection), so both run
//! through [`sample_points`] with their own fold.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rayon::prelude::*;

use opera_sparse::stepping::{companion_scale, IntegrationMethod, StepRhs, TR_BDF2_GAMMA};
use opera_sparse::{
    CholeskyGroup, MatrixFactor, Panel, SolveWorkspace, SymbolicCholesky, LOCKSTEP_LANES,
};
use opera_trace::{SpanGuard, SpanToken};
use opera_variation::{Excitation, NominalPatterns, SampleValues, StochasticGridModel};

use crate::{CollocationStats, Result, TransientSpec};

/// The trace names a sweep records under, so a Monte Carlo run and a
/// collocation sweep each keep their own vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepTrace {
    /// A span per group of points, from its first realisation to its last
    /// state, under the span that launched the sweep.
    pub group: Option<&'static str>,
    /// A counter of the points, bumped by each group's size as it starts.
    pub points: &'static str,
    /// A span per point: its realisation, its two factorisations and its DC
    /// solve.
    pub point: Option<&'static str>,
    /// A span around each group's stepping loop, which counts
    /// `transient.steps` once per step.
    pub stepping: &'static str,
}

/// Where a group hands its states: `sink(k, q, state)` is the state of
/// point `q` (a sweep-wide index) at time row `k`.
pub type PointSink<'a> = dyn Fn(usize, usize, &[f64]) + Sync + 'a;

/// The ordered fan-out behind every sweep: runs `run_group` over the
/// contiguous groups of up to [`LOCKSTEP_LANES`] of `points` points on the
/// ambient `rayon` pool, and folds the states the groups hand to their
/// sink with `fold(k, q, state)`, which sees each time row `k` in point
/// order whatever the thread schedule. A state that arrives before its
/// predecessors waits until they have folded, so nothing holds a full
/// trace; batches of one group per worker bound how far a group can run
/// ahead. The partition into groups does not depend on the thread count,
/// so a fold sees the same states in the same order on every pool.
///
/// `run_group` receives its point range and the span token its own spans
/// nest under: the group span of `trace` when it names one, otherwise the
/// span that launched the sweep.
///
/// # Errors
///
/// Returns the first group error in group order.
pub fn fan_out<E: Send>(
    points: usize,
    rows: usize,
    trace: SweepTrace,
    run_group: impl Fn(Range<usize>, SpanToken, &PointSink<'_>) -> std::result::Result<(), E> + Sync,
    fold: impl FnMut(usize, usize, &[f64]) + Send,
) -> std::result::Result<(), E> {
    let in_order = Mutex::new(InOrder {
        fold,
        next: vec![0; rows],
        pending: BTreeMap::new(),
    });
    let sink = |k: usize, q: usize, state: &[f64]| {
        let mut in_order = match in_order.lock() {
            Ok(in_order) => in_order,
            Err(poisoned) => poisoned.into_inner(),
        };
        in_order.push(k, q, state);
    };
    let groups = points.div_ceil(LOCKSTEP_LANES);
    let batch = rayon::current_num_threads().clamp(1, groups.max(1));
    // Captured before the fan-out: worker spans nest under the span that
    // launched the sweep, not under a thread-local root.
    let launch = opera_trace::current_span();
    let mut group = 0;
    while group < groups {
        let end = (group + batch).min(groups);
        let results: Vec<std::result::Result<(), E>> = (group..end)
            .into_par_iter()
            .map(|g| {
                let start = g * LOCKSTEP_LANES;
                let range = start..(start + LOCKSTEP_LANES).min(points);
                let span = trace
                    .group
                    .map(|name| opera_trace::span_under(launch, name));
                opera_trace::count(trace.points, range.len() as u64);
                run_group(range, span.as_ref().map_or(launch, SpanGuard::token), &sink)
            })
            .collect();
        results
            .into_iter()
            .collect::<std::result::Result<(), E>>()?;
        group = end;
    }
    Ok(())
}

/// The ordering half of a fold: row `k` of point `q` reaches `fold` once
/// row `k` of every point before `q` has. A state that arrives early waits
/// in `pending`.
struct InOrder<F> {
    fold: F,
    /// Per time row: the next point to fold.
    next: Vec<usize>,
    /// States that arrived before their predecessors, by (row, point).
    pending: BTreeMap<(usize, usize), Vec<f64>>,
}

impl<F: FnMut(usize, usize, &[f64])> InOrder<F> {
    fn push(&mut self, k: usize, q: usize, state: &[f64]) {
        if self.next[k] != q {
            self.pending.insert((k, q), state.to_vec());
            return;
        }
        (self.fold)(k, q, state);
        self.next[k] += 1;
        while let Some(state) = self.pending.remove(&(k, self.next[k])) {
            (self.fold)(k, self.next[k], &state);
            self.next[k] += 1;
        }
    }
}

/// Runs the deterministic transient of `model` at every point of `points`
/// on `spec`'s time grid and hands each state to `fold(k, q, state)`, which
/// sees time row `k` in point order (see [`fan_out`]).
///
/// Each point is realised as values on the nominal patterns
/// ([`NominalPatterns::realise`]), solves its DC start on a factor of
/// `G(ξ)` that is dropped before its companion `G(ξ) + s·C(ξ)` is factored
/// against the one shared analysis, and steps in a [`CholeskyGroup`] of up
/// to [`LOCKSTEP_LANES`] points, one group solve per stage. A factor that
/// is not numerically positive definite takes the counted LU fallback of
/// [`MatrixFactor::from_cholesky_attempt`], and a point whose companion
/// does steps alone. Every column performs exactly the arithmetic of
/// `opera::transient::solve_transient` on the point's own matrices.
/// Backward Euler reads only `s·C`, so its points drop `G(ξ)` once both
/// factorisations are done.
///
/// # Errors
///
/// Returns [`CollocationError::InvalidOptions`](crate::CollocationError)
/// for invalid transient options and propagates realisation and
/// factorisation errors (an LU fallback that fails too).
pub fn sample_points(
    model: &StochasticGridModel,
    points: &[Vec<f64>],
    spec: &TransientSpec,
    trace: SweepTrace,
    fold: impl FnMut(usize, usize, &[f64]) + Send,
) -> Result<CollocationStats> {
    spec.validate()?;
    let times = spec.time_points();
    // Every realised matrix lies on the nominal patterns (the perturbations
    // only re-weight existing branches), so one analysis of the nominal
    // companion serves every point's companion, and its DC factor too when
    // grounded capacitors leave the companion on `G`'s own pattern.
    let patterns = NominalPatterns::new(model)?;
    let step = SymbolicCholesky::analyze(patterns.companion())?;
    let own_dc = if step.matches_pattern(patterns.conductance()) {
        None
    } else {
        Some(SymbolicCholesky::analyze(patterns.conductance())?)
    };
    let sweep = Sweep {
        model,
        points,
        spec,
        times: &times,
        c_scale: companion_scale(spec.scheme, spec.time_step),
        patterns: &patterns,
        step: &step,
        dc: own_dc.as_ref().unwrap_or(&step),
        trace,
        factorizations: AtomicUsize::new(0),
    };
    fan_out(
        points.len(),
        times.len(),
        trace,
        |range, parent, sink| sweep.run_group(range, parent, sink),
        fold,
    )?;
    Ok(CollocationStats {
        nodes: points.len(),
        symbolic_analyses: 1 + usize::from(own_dc.is_some()),
        numeric_factorizations: sweep.factorizations.into_inner(),
    })
}

/// What every group of one sweep shares.
struct Sweep<'a> {
    model: &'a StochasticGridModel,
    points: &'a [Vec<f64>],
    spec: &'a TransientSpec,
    times: &'a [f64],
    /// The companion scale `s` of `G + s·C`.
    c_scale: f64,
    patterns: &'a NominalPatterns<'a>,
    /// The analysis of the nominal companion pattern.
    step: &'a SymbolicCholesky,
    /// The analysis every DC factor of `G(ξ)` is computed against.
    dc: &'a SymbolicCholesky,
    trace: SweepTrace,
    factorizations: AtomicUsize,
}

/// Points that step together through one companion solve: column `i` of
/// every panel is point `points[i]` (a sweep-wide index).
#[derive(Default)]
struct Lanes {
    points: Vec<usize>,
    /// Per column: the values of `s·C`, and of `G` for the schemes that
    /// read it.
    c_over_h: Vec<Vec<f64>>,
    g: Vec<Vec<f64>>,
    /// Column-major: the DC states and the excitations at `t₀`.
    state: Vec<f64>,
    u_prev: Vec<f64>,
}

/// The companion solve of one [`Lanes`]: a lock-step group, or a point
/// alone on its LU fallback.
enum Companion {
    Group(CholeskyGroup),
    Alone(MatrixFactor),
}

impl Companion {
    fn solve_panel(&self, b: &mut Panel, ws: &mut SolveWorkspace) {
        match self {
            Companion::Group(group) => group.solve_panel(b, ws),
            Companion::Alone(factor) => factor.solve_panel(b, ws),
        }
    }
}

impl Sweep<'_> {
    /// Realises, factors and steps the points of `range`, handing every
    /// state to `sink` as it is computed.
    fn run_group(
        &self,
        range: Range<usize>,
        parent: SpanToken,
        sink: &PointSink<'_>,
    ) -> Result<()> {
        let (model, n) = (self.model, self.model.node_count());
        let (first, lanes) = (range.start, range.len());
        let xis = &self.points[range];
        let mut excitation = Excitation::for_model(model, self.spec.current_scale);

        let reads_g = self.spec.scheme != IntegrationMethod::BackwardEuler;
        let mut group = CholeskyGroup::new(self.step, lanes);
        let mut lockstep = Lanes {
            state: Vec::with_capacity(n * lanes),
            u_prev: Vec::with_capacity(n * lanes),
            ..Lanes::default()
        };
        let mut alone = Vec::new();
        let mut values = SampleValues::default();
        let mut ws = SolveWorkspace::with_capacity(n * lanes);
        for (q, xi) in (first..).zip(xis) {
            let _span = self
                .trace
                .point
                .map(|name| opera_trace::span_under(parent, name));
            self.patterns.realise(xi, self.c_scale, &mut values)?;
            // The DC start lands in the next lock-step column, on a factor
            // of G(ξ) that is dropped before the companion is factored.
            let at = lockstep.state.len();
            lockstep.state.resize(at + n, 0.0);
            lockstep.u_prev.resize(at + n, 0.0);
            excitation.sample_into(0.0, xi, &mut lockstep.u_prev[at..])?;
            let v0 = &mut lockstep.state[at..];
            v0.copy_from_slice(&lockstep.u_prev[at..]);
            let g = self.patterns.conductance().with_values(&values.conductance);
            MatrixFactor::from_cholesky_attempt(self.dc.factor_values(g), g)?
                .solve_columns(v0, &mut ws);
            let companion = self.patterns.companion().with_values(&values.companion);
            let lanes_j = match self.step.factor_values(companion) {
                Ok(factor) => {
                    group.push(factor)?;
                    &mut lockstep
                }
                Err(err) => {
                    // The counted LU fallback: this point steps alone.
                    let factor = MatrixFactor::from_cholesky_attempt(Err(err), companion)?;
                    let single = Lanes {
                        state: lockstep.state.split_off(at),
                        u_prev: lockstep.u_prev.split_off(at),
                        ..Lanes::default()
                    };
                    let last = alone.len();
                    alone.push((single, Companion::Alone(factor)));
                    &mut alone[last].0
                }
            };
            self.factorizations.fetch_add(2, Ordering::Relaxed);
            sink(0, q, &lanes_j.state[lanes_j.state.len() - n..]);
            lanes_j.points.push(q);
            lanes_j
                .c_over_h
                .push(std::mem::take(&mut values.scaled_capacitance));
            if reads_g {
                lanes_j.g.push(std::mem::take(&mut values.conductance));
            }
        }
        drop(values);
        let lockstep = (!group.is_empty()).then_some((lockstep, Companion::Group(group)));
        for (lanes, companion) in lockstep.into_iter().chain(alone) {
            self.step_lanes(lanes, &companion, &mut excitation, &mut ws, parent, sink)?;
        }
        Ok(())
    }

    /// Steps `lanes` from their DC states over the time grid, handing every
    /// state to `sink`: the sampler's one stepping loop.
    fn step_lanes(
        &self,
        lanes: Lanes,
        companion: &Companion,
        excitation: &mut Excitation<'_>,
        ws: &mut SolveWorkspace,
        parent: SpanToken,
        sink: &PointSink<'_>,
    ) -> Result<()> {
        let Lanes {
            points,
            c_over_h,
            g,
            state,
            u_prev,
        } = lanes;
        let (n, m, method) = (self.model.node_count(), points.len(), self.spec.scheme);
        let (g_pattern, c_pattern) = (self.patterns.conductance(), self.patterns.capacitance());
        let rhs: Vec<StepRhs<'_>> = c_over_h
            .iter()
            .enumerate()
            .map(|(i, c)| StepRhs {
                c: c_pattern.with_values(c),
                c_scale: 1.0,
                g: g.get(i).map(|g| g_pattern.with_values(g)),
            })
            .collect();
        let tr_bdf2 = method == IntegrationMethod::TrBdf2;
        let mut state = Panel::from_vec(n, m, state);
        let mut u_prev = Panel::from_vec(n, m, u_prev);
        let mut out = Panel::zeros(n, m);
        let mut u_next = Panel::zeros(n, m);
        let stage_columns = if tr_bdf2 { m } else { 0 };
        let mut u_mid = Panel::zeros(n, stage_columns);
        let mut stage = Panel::zeros(n, stage_columns);
        let _span = opera_trace::span_under(parent, self.trace.stepping);
        // lint: hot(lockstep-sampler)
        for (k, pair) in self.times.windows(2).enumerate() {
            let (t_prev, t) = (pair[0], pair[1]);
            opera_trace::count("transient.steps", 1);
            for (col, &q) in points.iter().enumerate() {
                excitation.sample_into(t, &self.points[q], u_next.col_mut(col))?;
            }
            if tr_bdf2 {
                let t_mid = t_prev + TR_BDF2_GAMMA * (t - t_prev);
                for (col, &q) in points.iter().enumerate() {
                    excitation.sample_into(t_mid, &self.points[q], u_mid.col_mut(col))?;
                }
                for (col, rhs) in rhs.iter().enumerate() {
                    let (v, u) = (state.col(col), u_prev.col(col));
                    rhs.trapezoidal(v, u, u_mid.col(col), stage.col_mut(col));
                }
                companion.solve_panel(&mut stage, ws);
                for (col, rhs) in rhs.iter().enumerate() {
                    let (v, v_mid) = (state.col(col), stage.col(col));
                    rhs.bdf2(v, v_mid, u_next.col(col), out.col_mut(col));
                }
            } else {
                for (col, rhs) in rhs.iter().enumerate() {
                    let (v, u) = (state.col(col), u_prev.col(col));
                    rhs.single_stage(method, v, u, u_next.col(col), out.col_mut(col));
                }
            }
            companion.solve_panel(&mut out, ws);
            for (col, &q) in points.iter().enumerate() {
                sink(k + 1, q, out.col(col));
            }
            std::mem::swap(&mut state, &mut out);
            std::mem::swap(&mut u_prev, &mut u_next);
        }
        // lint: end-hot
        Ok(())
    }
}
