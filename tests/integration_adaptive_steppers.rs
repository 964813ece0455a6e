//! The adaptive controller's per-solve stepper map.
//!
//! Within one adaptive solve the controller keeps its steppers keyed by the
//! half-octave rung `⌊2·log₂ h⌋` of their step size, at most four of them,
//! dropping the least recently used. On the default CG backend a step-size
//! change to a rung it already holds re-steps that stepper without
//! refactoring (`PreparedSolver::restep_keeping_factor`): the nominal
//! factor only preconditions, and the operator `G̃ + s·C̃` is taken exactly
//! at the new step. The direct backend's factor is the solve, so it
//! refactors at every step-size change, as it always has.
//!
//! * **Agreement.** Adaptive CG and adaptive direct take the same accept and
//!   reject decisions on a small mesh at chaos orders 1 and 2, and their
//!   chaos coefficients agree within [`agreement_vdd`]·Vdd. CG solves the
//!   error estimate to a looser tolerance than its stages; a much looser
//!   one moves the step sizes further and fails this.
//! * **Bounds.** A CG solve refactors no rung twice and never the prepared
//!   solver's own, and never holds more than four factors beyond the ones
//!   the prepared solver owns (an allocation watch on the factor's value
//!   array); a direct solve refactors once per step-size change; and every
//!   stepper a solve steps on reports its own step in `time_step()`.

mod common;

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use common::{watch_allocations, Watched};

use opera::adaptive::{AdaptiveOptions, AdaptiveStats};
use opera::engine::{OperaEngine, Scenario};
use opera::galerkin::GalerkinSystem;
use opera::solver::{BlockJacobiCg, DirectCholesky, PreparedSolver, SolverBackend};
use opera::transient::{CompanionFamily, TransientOptions};
use opera::StochasticSolution;
use opera_grid::GridSpec;
use opera_sparse::cg::GuessBasis;
use opera_sparse::{Panel, SolveWorkspace, SymbolicCholesky};
use opera_variation::{StochasticGridModel, VariationSpec};

/// Largest |Δ coefficient| between adaptive CG and adaptive direct at a
/// chaos order, as a fraction of Vdd. At order 1 the bound is
/// `integration_cg`'s fixed-step 1e-8·Vdd (the runs differ by 2.4e-12 V).
/// At order 2 the step sizes, a continuous function of the error estimate,
/// follow the CG stages' own solve noise (relative residual 1e-10): they
/// move by up to 1e-5 relative and the coefficients by 3.0e-6 V
/// (2.5e-6·Vdd), whether the estimate is solved to 1e-10 or 1e-6. An
/// estimate solved to 1e-3 moves them by 1.4e-5 V.
fn agreement_vdd(order: u32) -> f64 {
    if order == 1 {
        1e-8
    } else {
        5e-6
    }
}

/// Factors an adaptive solve may keep live.
const MAX_LIVE_FACTORS: i64 = 4;

fn options() -> AdaptiveOptions {
    AdaptiveOptions::with_rel_tol(1e-4)
}

/// The mesh and window of the adaptive pins in `regression_fixed_step`.
fn engine(order: u32, solver: Arc<dyn SolverBackend>) -> OperaEngine {
    OperaEngine::for_grid(GridSpec::small_test(60).with_seed(7))
        .unwrap()
        .variation(VariationSpec::paper_defaults())
        .order(order)
        .solver(solver)
        .time_step(0.1e-9)
        .end_time(1.0e-9)
        .adaptive(options())
        .build()
        .unwrap()
}

fn solve(engine: &OperaEngine) -> (StochasticSolution, AdaptiveStats) {
    engine
        .solve_scenario_adaptive(&Scenario::default(), &options())
        .unwrap()
}

/// The half-octave rung of a step size.
fn rung(h: f64) -> i32 {
    (2.0 * h.log2()).floor() as i32
}

/// What the solvers of a [`Recording`] did: the step size of every TR-BDF2
/// step they took, and every step size they factored at.
#[derive(Debug, Default)]
struct Log {
    steps: Vec<f64>,
    factored: Vec<f64>,
}

/// A backend that prepares through `inner` and logs what its solvers do,
/// checking on every TR-BDF2 step that the solver reports the step it was
/// re-stepped to.
#[derive(Debug)]
struct Recording {
    inner: Arc<dyn SolverBackend>,
    log: Arc<Mutex<Log>>,
}

impl Recording {
    fn new(inner: Arc<dyn SolverBackend>) -> Self {
        Recording {
            inner,
            log: Arc::default(),
        }
    }
}

impl SolverBackend for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn prepare(
        &self,
        model: &StochasticGridModel,
        system: &GalerkinSystem,
        transient: &TransientOptions,
    ) -> opera::Result<Box<dyn PreparedSolver>> {
        Ok(Box::new(RecordingPrepared {
            inner: self.inner.prepare(model, system, transient)?,
            requested: transient.time_step,
            log: Arc::clone(&self.log),
        }))
    }
}

struct RecordingPrepared {
    inner: Box<dyn PreparedSolver>,
    /// The step size this solver was prepared or re-stepped for.
    requested: f64,
    log: Arc<Mutex<Log>>,
}

impl RecordingPrepared {
    fn wrap(&self, inner: Box<dyn PreparedSolver>, requested: f64) -> Box<dyn PreparedSolver> {
        Box::new(RecordingPrepared {
            inner,
            requested,
            log: Arc::clone(&self.log),
        })
    }
}

impl PreparedSolver for RecordingPrepared {
    fn solve_dc_panel(
        &self,
        u0: &Panel,
        out: &mut Panel,
        ws: &mut SolveWorkspace,
    ) -> opera::Result<()> {
        self.inner.solve_dc_panel(u0, out, ws)
    }

    fn step_panel_into(
        &self,
        state: &Panel,
        u_prev: &Panel,
        u_next: &Panel,
        out: &mut Panel,
        guesses: &mut [GuessBasis],
        ws: &mut SolveWorkspace,
    ) -> opera::Result<()> {
        self.inner
            .step_panel_into(state, u_prev, u_next, out, guesses, ws)
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
    ) -> opera::Result<()> {
        assert_eq!(
            self.inner.time_step().to_bits(),
            self.requested.to_bits(),
            "a re-stepped solver reports another step than its own"
        );
        self.log.lock().unwrap().steps.push(self.requested);
        self.inner
            .step_tr_bdf2_panel_into(state, u_prev, u_mid, u_next, stage, out, ws)
    }

    fn tr_bdf2_error_panel_into(
        &self,
        states: [&Panel; 3],
        excitations: [&Panel; 3],
        err: &mut Panel,
        ws: &mut SolveWorkspace,
    ) -> opera::Result<()> {
        self.inner
            .tr_bdf2_error_panel_into(states, excitations, err, ws)
    }

    fn time_step(&self) -> f64 {
        self.inner.time_step()
    }

    fn companion_family(&self) -> &CompanionFamily {
        self.inner.companion_family()
    }

    fn with_time_step(&self, time_step: f64) -> opera::Result<Box<dyn PreparedSolver>> {
        self.log.lock().unwrap().factored.push(time_step);
        Ok(self.wrap(self.inner.with_time_step(time_step)?, time_step))
    }

    fn restep_keeping_factor(&self, time_step: f64) -> Option<Box<dyn PreparedSolver>> {
        let inner = self.inner.restep_keeping_factor(time_step)?;
        Some(self.wrap(inner, time_step))
    }
}

/// One adaptive solve through a [`Recording`] of `inner`.
struct Recorded {
    stats: AdaptiveStats,
    log: Log,
    /// The step size the solver was prepared for.
    prepared_step: f64,
    /// The solve's nominal companion factor allocations (only meaningful
    /// for CG, whose companion factors are nominal-size).
    factors: Watched,
}

fn recorded_solve(order: u32, inner: Arc<dyn SolverBackend>) -> Recorded {
    let recording = Arc::new(Recording::new(inner));
    let engine = engine(order, Arc::clone(&recording) as Arc<dyn SolverBackend>);
    let model = engine.model();
    let nominal = model
        .nominal_conductance()
        .add_scaled(model.nominal_capacitance(), 1.0)
        .unwrap();
    let nnz_l = SymbolicCholesky::analyze(&nominal).unwrap().nnz_l();
    let (n, dim) = (engine.system().node_count(), engine.system().dim());
    assert!(
        ![n, dim, nominal.nnz()].contains(&nnz_l),
        "another vector could match the watched factor size"
    );
    let mut stats = None;
    let factors = watch_allocations(nnz_l * std::mem::size_of::<f64>(), || {
        stats = Some(solve(&engine).1);
    });
    let log = std::mem::take(&mut *recording.log.lock().unwrap());
    Recorded {
        stats: stats.unwrap(),
        log,
        prepared_step: engine.transient().time_step,
        factors,
    }
}

fn max_coefficient_difference(a: &StochasticSolution, b: &StochasticSolution) -> f64 {
    assert_eq!(a.times(), b.times());
    let mut worst = 0.0f64;
    for k in 0..a.times().len() {
        for i in 0..a.basis_size() {
            for node in 0..a.node_count() {
                worst = worst.max((a.coefficient(k, i, node) - b.coefficient(k, i, node)).abs());
            }
        }
    }
    worst
}

#[test]
fn adaptive_cg_and_direct_take_the_same_steps_and_agree_within_the_step_noise() {
    let mut rejected = 0;
    for order in [1, 2] {
        let cg = engine(order, Arc::new(BlockJacobiCg::default()));
        let direct = engine(order, Arc::new(DirectCholesky));
        let ((cg_solution, cg_stats), (direct_solution, direct_stats)) =
            (solve(&cg), solve(&direct));
        rejected += direct_stats.steps_rejected;
        assert_eq!(
            (cg_stats.steps_accepted, cg_stats.steps_rejected),
            (direct_stats.steps_accepted, direct_stats.steps_rejected),
            "order {order}: accepted and rejected steps"
        );
        let vdd = cg.grid().vdd();
        let worst = max_coefficient_difference(&cg_solution, &direct_solution);
        assert!(
            worst <= agreement_vdd(order) * vdd,
            "order {order}: max |Δ coefficient| = {worst:.3e} V"
        );
    }
    assert!(rejected > 0, "the runs must exercise the reject branch");
}

#[test]
fn cg_adaptive_solves_refactor_once_per_rung_and_hold_at_most_four_factors() {
    let mut saved = 0;
    for order in [1, 2] {
        let Recorded {
            stats,
            log,
            prepared_step,
            factors,
        } = recorded_solve(order, Arc::new(BlockJacobiCg::default()));
        assert_eq!(log.steps.len() as u64, stats.steps_attempted);
        assert_eq!(log.factored.len() as u64, stats.refactorizations);
        let mut factored = BTreeSet::from([rung(prepared_step)]);
        for &h in &log.factored {
            assert!(
                factored.insert(rung(h)),
                "order {order}: rung {} factored twice (prepared on {}, factored {:?})",
                rung(h),
                rung(prepared_step),
                log.factored.iter().map(|&h| rung(h)).collect::<Vec<_>>()
            );
        }
        // The watch sees every factorisation and nothing else.
        assert_eq!(factors.made, stats.refactorizations, "order {order}");
        assert!(
            factors.peak_live <= MAX_LIVE_FACTORS,
            "order {order}: {} factors live at once",
            factors.peak_live
        );
        let changes = step_size_changes(prepared_step, &log.steps);
        assert!(stats.refactorizations <= changes, "order {order}");
        saved += changes - stats.refactorizations;
    }
    // A change back to a rung the map holds refactors nothing.
    assert!(saved > 0, "the map saved no factorisation");
}

/// Attempts whose step size differs from the one before (the first from
/// the prepared step).
fn step_size_changes(prepared_step: f64, steps: &[f64]) -> u64 {
    let mut previous = prepared_step;
    let mut changes = 0;
    for &h in steps {
        changes += u64::from(h.to_bits() != previous.to_bits());
        previous = h;
    }
    changes
}

#[test]
fn direct_adaptive_solves_refactor_at_every_step_size_change() {
    for order in [1, 2] {
        let Recorded {
            stats,
            log,
            prepared_step,
            ..
        } = recorded_solve(order, Arc::new(DirectCholesky));
        assert_eq!(log.steps.len() as u64, stats.steps_attempted);
        let changes = step_size_changes(prepared_step, &log.steps);
        assert!(changes > 0);
        assert_eq!(stats.refactorizations, changes, "order {order}");
        assert_eq!(log.factored.len() as u64, changes, "order {order}");
    }
}
