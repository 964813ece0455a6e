//! The reusable OPERA session engine: set up once, solve many times.
//!
//! The paper's core economics (Eqs. 19–23) are that one Galerkin-augmented
//! assembly plus one symbolic+numeric factorisation amortise over everything
//! downstream. [`OperaEngine`] makes that the default shape of the public
//! API: a typed builder performs grid generation, stochastic-model
//! construction, Galerkin assembly and the solver preparation exactly once,
//! and the resulting engine then serves any number of
//! [scenarios](Scenario) — waveform rescalings, different transient horizons,
//! Monte Carlo validations — without repeating the setup.
//!
//! ```
//! use opera::engine::{OperaEngine, Scenario};
//! use opera_grid::GridSpec;
//! use opera_variation::VariationSpec;
//!
//! # fn main() -> Result<(), opera::OperaError> {
//! let engine = OperaEngine::for_grid(GridSpec::small_test(120))?
//!     .variation(VariationSpec::paper_defaults())
//!     .order(2)
//!     .time_step(0.2e-9)
//!     .end_time(1.0e-9)
//!     .build()?;
//! let solution = engine.solve()?;
//! let heavy = engine.solve_scenario(&Scenario::named("heavy").with_current_scale(1.25))?;
//! let (node, k, drop) = solution.worst_mean_drop(engine.grid().vdd());
//! let (_, _, heavy_drop) = heavy.worst_mean_drop(engine.grid().vdd());
//! assert!(heavy_drop > drop && drop > 0.0);
//! // Both solves shared one assembly and one factorisation.
//! assert_eq!(engine.assembly_count(), 1);
//! assert_eq!(engine.factorization_count(), 1);
//! # let _ = (node, k);
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use opera_trace::Counter;

pub use opera_collocation::GridKind;
use opera_collocation::{build_grid, solve_collocation, TransientSpec};
use opera_grid::{GridSpec, NodeMap, PowerGrid};
use opera_netlist::LoweredNetlist;
use opera_pce::OrthogonalBasis;
use opera_variation::{Excitation, StochasticGridModel, VariationSpec};
use rayon::prelude::*;

use crate::adaptive::{AdaptiveOptions, AdaptiveStats};
use crate::compare::compare;
use crate::galerkin::GalerkinSystem;
use crate::monte_carlo::{run as run_monte_carlo, MonteCarloOptions, MonteCarloResult};
use crate::parallel::Parallelism;
use crate::response::{drop_summary, probe_distributions, ExperimentReport};
use crate::solver::{default_backend, PreparedSolver, SolverBackend};
use crate::stochastic::{run_prepared_adaptive, run_prepared_panel, StochasticSolution};
use crate::transient::{
    integrate_fixed_step, solve_transient, IntegrationMethod, TransientOptions,
};
use crate::{OperaError, Result};

/// One scenario served by a prepared [`OperaEngine`]: overrides of the
/// engine's defaults that do *not* require re-assembling the Galerkin system.
///
/// * `current_scale` rescales all switching (drain) currents around the
///   quiescent excitation — a pure right-hand-side change that shares the
///   engine's factorisation.
/// * `end_time` extends or shortens the transient horizon — more or fewer
///   steps with the same factors.
/// * `time_step` changes the companion matrix `G̃ + C̃/h`, so the engine
///   transparently prepares a fresh factorisation for that scenario (counted
///   by [`OperaEngine::factorization_count`]); the assembly is still shared.
/// * `mc_samples` / `mc_seed` only affect the Monte Carlo validation half of
///   [`OperaEngine::run_scenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Label carried through to the [`ScenarioReport`].
    pub label: String,
    /// Multiplier applied to the switching currents (`1.0` = as modelled).
    /// The pad (supply) injection is left untouched: the excitation is scaled
    /// around its quiescent `t = 0` value.
    pub current_scale: f64,
    /// Transient time-step override; `None` uses the engine's step.
    pub time_step: Option<f64>,
    /// Transient end-time override; `None` uses the engine's horizon.
    pub end_time: Option<f64>,
    /// Monte Carlo sample-count override for [`OperaEngine::run_scenario`].
    pub mc_samples: Option<usize>,
    /// Monte Carlo seed override for [`OperaEngine::run_scenario`].
    pub mc_seed: Option<u64>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            label: String::new(),
            current_scale: 1.0,
            time_step: None,
            end_time: None,
            mc_samples: None,
            mc_seed: None,
        }
    }
}

impl Scenario {
    /// A default scenario with a label.
    pub fn named(label: impl Into<String>) -> Self {
        Scenario {
            label: label.into(),
            ..Scenario::default()
        }
    }

    /// Sets the switching-current scale.
    pub fn with_current_scale(mut self, scale: f64) -> Self {
        self.current_scale = scale;
        self
    }

    /// Overrides the transient time step.
    pub fn with_time_step(mut self, time_step: f64) -> Self {
        self.time_step = Some(time_step);
        self
    }

    /// Overrides the transient end time.
    pub fn with_end_time(mut self, end_time: f64) -> Self {
        self.end_time = Some(end_time);
        self
    }

    /// Overrides the Monte Carlo sample count.
    pub fn with_mc_samples(mut self, samples: usize) -> Self {
        self.mc_samples = Some(samples);
        self
    }

    /// Overrides the Monte Carlo seed.
    pub fn with_mc_seed(mut self, seed: u64) -> Self {
        self.mc_seed = Some(seed);
        self
    }
}

/// The result of running one [`Scenario`] through
/// [`OperaEngine::run_scenario`] or [`OperaEngine::run_batch`].
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario's label.
    pub label: String,
    /// The switching-current scale the scenario ran at.
    pub current_scale: f64,
    /// The full OPERA-vs-Monte-Carlo report. Its `opera_seconds` covers the
    /// solve only — the engine's one-time setup is amortised across the batch
    /// and reported by [`OperaEngine::setup_seconds`].
    pub report: ExperimentReport,
}

/// Monte Carlo configuration for [`OperaEngine::monte_carlo`].
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// Number of samples.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Nodes whose full per-sample traces are recorded.
    pub probe_nodes: Vec<usize>,
}

impl McConfig {
    /// Creates a configuration with no probes.
    pub fn new(samples: usize, seed: u64) -> Self {
        McConfig {
            samples,
            seed,
            probe_nodes: Vec::new(),
        }
    }
}

/// Configuration of one stochastic-collocation sweep served by
/// [`OperaEngine::collocation`]: the quadrature-grid kind and its refinement
/// level. The engine supplies everything else (model, basis, transient
/// settings, parallelism) from its own state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollocationConfig {
    /// Refinement level of the quadrature grid (`≥ 1`). A Smolyak grid at
    /// level `L` integrates total polynomial degree `2L + 1` exactly, so
    /// `level == order` of the engine's expansion is the natural pairing.
    pub level: u32,
    /// Which grid to build (Smolyak sparse grid or full tensor product).
    pub grid: GridKind,
}

impl CollocationConfig {
    /// A Smolyak sparse-grid sweep at the given level.
    pub fn smolyak(level: u32) -> Self {
        CollocationConfig {
            level,
            grid: GridKind::Smolyak,
        }
    }

    /// A full tensor-product sweep at the given level.
    pub fn tensor(level: u32) -> Self {
        CollocationConfig {
            level,
            grid: GridKind::Tensor,
        }
    }
}

impl Default for CollocationConfig {
    fn default() -> Self {
        CollocationConfig::smolyak(2)
    }
}

/// The result of one [`OperaEngine::collocation`] sweep: the polynomial-chaos
/// solution (the same shape [`OperaEngine::solve`] produces) plus the
/// work counters proving the shared-symbolic contract.
#[derive(Debug, Clone)]
pub struct CollocationReport {
    /// The projected polynomial-chaos solution.
    pub solution: StochasticSolution,
    /// The grid kind the sweep ran on.
    pub grid: GridKind,
    /// The refinement level the sweep ran at.
    pub level: u32,
    /// Number of quadrature nodes solved.
    pub nodes: usize,
    /// Symbolic analyses performed (always 1: shared across all nodes).
    pub symbolic_analyses: usize,
    /// Numeric-only factorisations performed (two per node).
    pub numeric_factorizations: usize,
    /// Wall-clock seconds of the sweep (grid build + node solves +
    /// projection).
    pub seconds: f64,
}

enum ModelSource {
    Grid {
        grid: Box<PowerGrid>,
        variation: VariationSpec,
    },
    Model(Box<StochasticGridModel>),
}

/// Typed builder for [`OperaEngine`]. Obtained from
/// [`OperaEngine::for_grid`] or [`OperaEngine::for_model`].
pub struct EngineBuilder {
    source: ModelSource,
    node_names: Option<Arc<NodeMap>>,
    order: u32,
    solver: Arc<dyn SolverBackend>,
    time_step: f64,
    end_time: Option<f64>,
    method: IntegrationMethod,
    adaptive: Option<AdaptiveOptions>,
    mc_samples: usize,
    mc_seed: u64,
    histogram_bins: usize,
    parallelism: Parallelism,
    simd: Option<opera_simd::Backend>,
}

impl EngineBuilder {
    fn new(source: ModelSource) -> Self {
        EngineBuilder {
            source,
            node_names: None,
            order: 2,
            solver: default_backend(),
            time_step: 0.05e-9,
            end_time: None,
            method: IntegrationMethod::BackwardEuler,
            adaptive: None,
            mc_samples: 200,
            mc_seed: 42,
            histogram_bins: 30,
            parallelism: Parallelism::Max,
            simd: None,
        }
    }

    /// Sets the process-variation magnitudes (ignored when the builder was
    /// created from an explicit model via [`OperaEngine::for_model`]).
    pub fn variation(mut self, variation: VariationSpec) -> Self {
        if let ModelSource::Grid {
            variation: ref mut v,
            ..
        } = self.source
        {
            *v = variation;
        }
        self
    }

    /// Attaches a node-name ↔ index mapping so reports can name nodes
    /// ([`OperaEngine::for_netlist`] does this automatically from the deck).
    pub fn node_names(mut self, names: NodeMap) -> Self {
        self.node_names = Some(Arc::new(names));
        self
    }

    /// Sets the truncation order of the polynomial-chaos expansion.
    pub fn order(mut self, order: u32) -> Self {
        self.order = order;
        self
    }

    /// Sets the solver backend for the augmented system. The default is
    /// [`crate::solver::default_backend`], the Kronecker-preconditioned CG
    /// ([`BlockJacobiCg`](crate::solver::BlockJacobiCg)), which factors only
    /// nominal-size matrices; pass
    /// [`DirectCholesky`](crate::solver::DirectCholesky) for the bit-pinned
    /// direct reference. A custom [`SolverBackend`] plugs in the same way,
    /// by value.
    pub fn solver(mut self, solver: Arc<dyn SolverBackend>) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the default transient time step in seconds.
    pub fn time_step(mut self, time_step: f64) -> Self {
        self.time_step = time_step;
        self
    }

    /// Sets the default transient end time; the default is the grid's
    /// waveform end time.
    pub fn end_time(mut self, end_time: f64) -> Self {
        self.end_time = Some(end_time);
        self
    }

    /// Sets the time-integration scheme.
    pub fn integration_method(mut self, method: IntegrationMethod) -> Self {
        self.method = method;
        self
    }

    /// Switches the engine's Galerkin transients to LTE-driven adaptive
    /// TR-BDF2 stepping (see [`crate::adaptive`]): the `.tran` grid becomes
    /// the *output* grid while the controller chooses the internal steps, and
    /// the integration method is forced to
    /// [`IntegrationMethod::TrBdf2`]. Runs on every built-in backend under
    /// a single symbolic analysis: on
    /// [`DirectCholesky`](crate::solver::DirectCholesky) (select it with
    /// [`EngineBuilder::solver`]) each step-size change is one numeric
    /// refactorisation of the augmented companion; on the default CG
    /// backend a change refactors the nominal companion only when the
    /// controller holds no factor within a half octave of the new step.
    /// `docs/TRANSIENT.md` compares the two backends' adaptive runs and
    /// `docs/PERFORMANCE.md` their measured cost.
    pub fn adaptive(mut self, adaptive: AdaptiveOptions) -> Self {
        self.adaptive = Some(adaptive);
        self.method = IntegrationMethod::TrBdf2;
        self
    }

    /// Sets the default Monte Carlo sample count for scenario reports.
    pub fn mc_samples(mut self, samples: usize) -> Self {
        self.mc_samples = samples;
        self
    }

    /// Sets the default Monte Carlo seed for scenario reports.
    pub fn mc_seed(mut self, seed: u64) -> Self {
        self.mc_seed = seed;
        self
    }

    /// Sets the number of histogram bins for distribution reports.
    pub fn histogram_bins(mut self, bins: usize) -> Self {
        self.histogram_bins = bins;
        self
    }

    /// Sets the worker-thread budget for batched scenarios and Monte Carlo.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Selects the process-wide SIMD backend for the vectorised hot-loop
    /// kernels (panel triangular solves, supernodal updates, step assembly,
    /// Welford folds). The default is [`crate::SimdBackend::Scalar`] unless
    /// the `OPERA_SIMD` environment variable opted in; every backend is
    /// bit-identical to scalar, so this is purely a performance knob.
    /// [`EngineBuilder::build`] rejects backends the running CPU lacks.
    pub fn simd(mut self, backend: crate::SimdBackend) -> Self {
        self.simd = Some(backend);
        self
    }

    /// Performs the one-time setup: stochastic-model construction, Galerkin
    /// assembly of `G̃`/`C̃` and the solver's symbolic+numeric factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for invalid settings (order 0,
    /// zero Monte Carlo samples, zero histogram bins, bad transient options)
    /// and propagates assembly/factorisation errors.
    pub fn build(self) -> Result<OperaEngine> {
        if self.order == 0 {
            return Err(OperaError::InvalidOptions {
                reason: "expansion order must be at least 1".to_string(),
            });
        }
        if self.mc_samples == 0 {
            return Err(OperaError::InvalidOptions {
                reason: "Monte Carlo sample count must be at least 1".to_string(),
            });
        }
        if self.histogram_bins == 0 {
            return Err(OperaError::InvalidOptions {
                reason: "histogram bin count must be at least 1".to_string(),
            });
        }
        self.solver.validate()?;
        if let Some(backend) = self.simd {
            opera_simd::set_active(backend)
                .map_err(|reason| OperaError::InvalidOptions { reason })?;
        }

        let trace_span = opera_trace::span("engine.build");
        let started = Instant::now();
        let model = match self.source {
            ModelSource::Grid { grid, variation } => {
                StochasticGridModel::inter_die(&grid, &variation)?
            }
            ModelSource::Model(model) => *model,
        };
        let end_time = self
            .end_time
            .unwrap_or_else(|| model.grid().waveform_end_time().max(self.time_step));
        let transient = TransientOptions {
            time_step: self.time_step,
            end_time,
            method: self.method,
        };
        transient.validate()?;
        if let Some(adaptive) = &self.adaptive {
            adaptive.validate()?;
        }

        let basis =
            OrthogonalBasis::total_order_mixed(model.families(), model.n_vars(), self.order)?;
        let system = GalerkinSystem::assemble(&model, &basis)?;
        let prepared = self.solver.prepare(&model, &system, &transient)?;
        let setup_seconds = started.elapsed().as_secs_f64();
        drop(trace_span);

        // The build above performed exactly one assembly and one solver
        // preparation; start the engine's counters accordingly.
        let assemblies = Counter::new("engine.assemblies");
        assemblies.incr();
        let factorizations = Counter::new("engine.factorizations");
        factorizations.incr();

        Ok(OperaEngine {
            model,
            node_names: self.node_names,
            system,
            solver: self.solver,
            prepared,
            transient,
            adaptive: self.adaptive,
            mc_samples: self.mc_samples,
            mc_seed: self.mc_seed,
            histogram_bins: self.histogram_bins,
            parallelism: self.parallelism,
            setup_seconds,
            assemblies,
            factorizations,
            collocation_symbolics: Counter::new("engine.collocation_symbolic_analyses"),
            collocation_factorizations: Counter::new("engine.collocation_factorizations"),
        })
    }
}

/// A long-lived OPERA session: the generated grid, the stochastic model, the
/// assembled Galerkin system and the prepared solver factorisation, reusable
/// across arbitrarily many solves, scenarios and Monte Carlo validations.
pub struct OperaEngine {
    model: StochasticGridModel,
    node_names: Option<Arc<NodeMap>>,
    system: GalerkinSystem,
    solver: Arc<dyn SolverBackend>,
    prepared: Box<dyn PreparedSolver>,
    transient: TransientOptions,
    adaptive: Option<AdaptiveOptions>,
    mc_samples: usize,
    mc_seed: u64,
    histogram_bins: usize,
    parallelism: Parallelism,
    setup_seconds: f64,
    assemblies: Counter,
    factorizations: Counter,
    collocation_symbolics: Counter,
    collocation_factorizations: Counter,
}

impl fmt::Debug for OperaEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OperaEngine")
            .field("nodes", &self.node_count())
            .field("basis_size", &self.basis_size())
            .field("solver", &self.solver.name())
            .field("transient", &self.transient)
            .finish_non_exhaustive()
    }
}

impl OperaEngine {
    /// Starts a builder that will generate the grid from `spec` (the grid is
    /// elaborated eagerly, so spec errors surface here).
    ///
    /// # Errors
    ///
    /// Propagates grid-generation errors.
    pub fn for_grid(spec: GridSpec) -> Result<EngineBuilder> {
        let grid = spec.build()?;
        Ok(EngineBuilder::new(ModelSource::Grid {
            grid: Box::new(grid),
            variation: VariationSpec::paper_defaults(),
        }))
    }

    /// Starts a builder from an already constructed stochastic model (e.g.
    /// the three-variable inter-die model or an intra-die model).
    pub fn for_model(model: StochasticGridModel) -> EngineBuilder {
        EngineBuilder::new(ModelSource::Model(Box::new(model)))
    }

    /// Starts a builder from a SPICE-style deck file: the deck is parsed
    /// and lowered eagerly (so netlist errors surface here, with line
    /// spans), the deck's `.tran` window becomes the engine's default
    /// transient settings, and the deck's node names are attached so every
    /// report can name real nodes (see [`OperaEngine::node_name`]).
    ///
    /// The accepted grammar is documented in `docs/NETLIST.md`. Note that
    /// deck waveforms are materialised over the deck's `.tran` window:
    /// periodic `PULSE` sources hold their final value beyond it, so widen
    /// the deck's `.tran` (rather than overriding `end_time`) when a longer
    /// driven horizon is needed.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::Netlist`] for I/O, parse and lowering errors.
    pub fn for_netlist(path: impl AsRef<std::path::Path>) -> Result<EngineBuilder> {
        Ok(Self::for_lowered_netlist(opera_netlist::load(path)?))
    }

    /// Like [`OperaEngine::for_netlist`], but parses deck text directly.
    ///
    /// ```
    /// use opera::engine::OperaEngine;
    ///
    /// # fn main() -> Result<(), opera::OperaError> {
    /// let engine = OperaEngine::for_netlist_str(
    ///     "VDD p 0 1.2\n\
    ///      Rpad p n1 0.05\n\
    ///      Rw1 n1 n2 0.2\n\
    ///      C1 n1 0 10f class=gate\n\
    ///      C2 n2 0 10f\n\
    ///      I1 n2 0 PWL(0 0 0.4n 5m 0.8n 0)\n\
    ///      .tran 0.2n 0.8n\n",
    /// )?
    /// .mc_samples(10)
    /// .build()?;
    /// let solution = engine.solve()?;
    /// let (node, _, drop) = solution.worst_mean_drop(engine.grid().vdd());
    /// assert_eq!(engine.node_name(node), Some("n2"));
    /// assert!(drop > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::Netlist`] for parse and lowering errors.
    pub fn for_netlist_str(text: &str) -> Result<EngineBuilder> {
        Ok(Self::for_lowered_netlist(
            opera_netlist::parse(text)?.lower()?,
        ))
    }

    /// Starts a builder from an already lowered netlist, attaching its node
    /// names and adopting its `.tran` window (and `method=` scheme, when the
    /// deck named one) as the transient defaults.
    pub fn for_lowered_netlist(lowered: LoweredNetlist) -> EngineBuilder {
        let LoweredNetlist { grid, nodes, tran } = lowered;
        let mut builder = EngineBuilder::new(ModelSource::Grid {
            grid: Box::new(grid),
            variation: VariationSpec::paper_defaults(),
        });
        builder.node_names = Some(Arc::new(nodes));
        if let Some(tran) = tran {
            builder.time_step = tran.time_step;
            builder.end_time = Some(tran.end_time);
            if let Some(method) = tran.method {
                builder.method = match method {
                    opera_netlist::TranMethod::BackwardEuler => IntegrationMethod::BackwardEuler,
                    opera_netlist::TranMethod::Trapezoidal => IntegrationMethod::Trapezoidal,
                    opera_netlist::TranMethod::TrBdf2 => IntegrationMethod::TrBdf2,
                };
            }
        }
        builder
    }

    /// The power grid the engine was built for.
    pub fn grid(&self) -> &PowerGrid {
        self.model.grid()
    }

    /// The stochastic grid model.
    pub fn model(&self) -> &StochasticGridModel {
        &self.model
    }

    /// The node-name ↔ index mapping, when the engine was built from a
    /// netlist (or a mapping was attached via [`EngineBuilder::node_names`]).
    pub fn node_map(&self) -> Option<&NodeMap> {
        self.node_names.as_deref()
    }

    /// The deck name of node `index`, when known.
    pub fn node_name(&self, index: usize) -> Option<&str> {
        self.node_names.as_deref().and_then(|m| m.name(index))
    }

    /// The index of the node named `name` in the deck, when known.
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.node_names.as_deref().and_then(|m| m.index(name))
    }

    /// A display label for node `index`: its deck name, or `#index` for
    /// grids without names.
    pub fn node_label(&self, index: usize) -> String {
        match self.node_name(index) {
            Some(name) => name.to_string(),
            None => format!("#{index}"),
        }
    }

    /// The assembled Galerkin system.
    pub fn system(&self) -> &GalerkinSystem {
        &self.system
    }

    /// The solver backend.
    pub fn solver(&self) -> &dyn SolverBackend {
        self.solver.as_ref()
    }

    /// The adaptive-stepping options the engine was built with, if any.
    pub fn adaptive_options(&self) -> Option<&AdaptiveOptions> {
        self.adaptive.as_ref()
    }

    /// The engine's default transient options.
    pub fn transient(&self) -> &TransientOptions {
        &self.transient
    }

    /// Number of grid nodes.
    pub fn node_count(&self) -> usize {
        self.model.node_count()
    }

    /// Number of basis functions `N + 1`.
    pub fn basis_size(&self) -> usize {
        self.system.basis_size()
    }

    /// Wall-clock seconds of the one-time setup (model construction,
    /// assembly, factorisation).
    pub fn setup_seconds(&self) -> f64 {
        self.setup_seconds
    }

    /// Changes the worker-thread budget of later batched scenarios, Monte
    /// Carlo validations and collocation sweeps. Purely a wall-clock knob:
    /// every statistic is bit-identical for every setting (see
    /// `tests/integration_smoke.rs`), so benchmarks can sweep thread counts
    /// against one prepared engine instead of rebuilding it.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    /// How many Galerkin assemblies the engine has performed (one at build
    /// time; scenarios never re-assemble). Test hook for the
    /// setup-once/solve-many contract — a thin shim over the engine's
    /// `engine.assemblies` [`Counter`] (see `docs/OBSERVABILITY.md`).
    pub fn assembly_count(&self) -> usize {
        self.assemblies.get() as usize
    }

    /// How many solver preparations (symbolic+numeric factorisations or
    /// preconditioner setups) the engine has performed: one at build time,
    /// plus one per scenario that overrides the time step. A thin shim over
    /// the `engine.factorizations` [`Counter`].
    pub fn factorization_count(&self) -> usize {
        self.factorizations.get() as usize
    }

    /// How many *symbolic* Cholesky analyses (ordering + elimination tree)
    /// the engine's collocation sweeps have performed — one per
    /// [`collocation`](Self::collocation) call, shared by every quadrature
    /// node of that sweep. Test hook for the shared-symbolic contract — a
    /// thin shim over the `engine.collocation_symbolic_analyses` [`Counter`].
    pub fn collocation_symbolic_count(&self) -> usize {
        self.collocation_symbolics.get() as usize
    }

    /// How many numeric-only factorisations the engine's collocation sweeps
    /// have performed against their shared symbolic analyses (two per
    /// quadrature node: the DC matrix and the companion matrix). A thin shim
    /// over the `engine.collocation_factorizations` [`Counter`].
    pub fn collocation_factorization_count(&self) -> usize {
        self.collocation_factorizations.get() as usize
    }

    /// Test hook for the allocation-free hot-loop contract: warms one
    /// [`SolveWorkspace`](opera_sparse::SolveWorkspace) with a one-step
    /// augmented transient against the engine's prepared solver, then runs
    /// a four-step transient (DC start included) on the warm workspace and
    /// returns how many buffer growths that second run performed. Both runs
    /// go through the shared fixed-step loop. For every built-in backend
    /// this is `0`: every steady-state step — a direct solve or a whole CG
    /// iteration with its preconditioner — borrows all solver scratch from
    /// the warm workspace and never touches the allocator. CI asserts
    /// exactly that, and `tests/integration_perf.rs` re-checks it with a
    /// counting global allocator.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn steady_state_step_allocations(&self) -> Result<usize> {
        let dim = self.system.dim();
        let h = self.transient.time_step;
        let mut excitation = Excitation::for_model(&self.model, 1.0);
        let mut run = |steps: usize, ws: &mut opera_sparse::SolveWorkspace| {
            let times: Vec<f64> = (0..=steps).map(|k| k as f64 * h).collect();
            integrate_fixed_step(
                self.prepared.as_ref(),
                self.transient.method,
                &times,
                (dim, 1),
                ws,
                |t, u| {
                    excitation.stacked_into(t, self.system.coupling(), u.data_mut());
                    Ok(())
                },
                |_, _| {},
            )
        };
        let mut ws = opera_sparse::SolveWorkspace::new();
        // Warm-up: the workspace may grow here, once.
        run(1, &mut ws)?;
        let warm = ws.allocation_count();
        run(4, &mut ws)?;
        Ok(ws.allocation_count() - warm)
    }

    /// Solves the engine's baseline configuration (the default
    /// [`Scenario`]), reusing the prepared factorisation.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn solve(&self) -> Result<StochasticSolution> {
        self.solve_scenario(&Scenario::default())
    }

    /// Solves one scenario. Right-hand-side overrides (`current_scale`,
    /// `end_time`) reuse the engine's factorisation; a `time_step` override
    /// prepares a fresh factorisation for the scenario but still shares the
    /// assembled system.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for invalid overrides and
    /// propagates solver errors.
    pub fn solve_scenario(&self, scenario: &Scenario) -> Result<StochasticSolution> {
        match &self.adaptive {
            Some(adaptive) => self
                .solve_scenario_adaptive(scenario, adaptive)
                .map(|(solution, _)| solution),
            None => {
                let transient = self.scenario_transient(scenario)?;
                let fresh = self.prepare_if_needed(&transient)?;
                let prepared = fresh.as_deref().unwrap_or(self.prepared.as_ref());
                run_prepared_panel(
                    prepared,
                    &self.system,
                    &self.model,
                    &[scenario.current_scale],
                    transient.time_points(),
                    transient.method,
                )?
                .pop()
                .ok_or_else(|| OperaError::InvalidOptions {
                    reason: "a one-column transient produced no solution".to_string(),
                })
            }
        }
    }

    /// Solves one scenario with LTE-driven adaptive TR-BDF2 stepping and
    /// returns the controller statistics alongside the solution. The solution
    /// is reported on the scenario's `.tran` grid (dense interpolated
    /// output), exactly like [`solve_scenario`](Self::solve_scenario) when
    /// the engine was [built adaptive](EngineBuilder::adaptive).
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for invalid overrides and when
    /// the controller cannot meet its tolerance; propagates solver errors.
    pub fn solve_scenario_adaptive(
        &self,
        scenario: &Scenario,
        adaptive: &AdaptiveOptions,
    ) -> Result<(StochasticSolution, AdaptiveStats)> {
        let transient = self.scenario_transient(scenario)?;
        let mut excitation = Excitation::for_model(&self.model, scenario.current_scale);
        run_prepared_adaptive(
            self.prepared.as_ref(),
            &self.system,
            |t, u| excitation.stacked_into(t, self.system.coupling(), u),
            transient.time_points(),
            adaptive,
        )
    }

    /// Runs a stochastic-collocation sweep on the engine's model, the
    /// non-intrusive cross-check of the Galerkin path: every node of a
    /// Smolyak (or tensor) quadrature grid gets its own *deterministic*
    /// transient solve at that parameter realisation, all node
    /// factorisations share **one** symbolic analysis (no re-assembly of the
    /// pattern, no re-ordering), and the node results are projected onto the
    /// engine's polynomial-chaos basis.
    ///
    /// Node solves fan out over the engine's [`Parallelism`] pool with a
    /// deterministic reduction order, so the returned statistics are
    /// bit-identical for every worker-thread count.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for a zero level and propagates
    /// grid-construction, realisation and factorisation errors.
    pub fn collocation(&self, config: &CollocationConfig) -> Result<CollocationReport> {
        self.parallelism
            .install(|| self.collocation_in_pool(config))?
    }

    /// The collocation sweep proper, run on the ambient pool.
    fn collocation_in_pool(&self, config: &CollocationConfig) -> Result<CollocationReport> {
        if config.level == 0 {
            return Err(OperaError::InvalidOptions {
                reason: "collocation level must be at least 1 \
                         (level 0 degenerates to the single mean node)"
                    .to_string(),
            });
        }
        let transient = &self.transient;
        let spec = TransientSpec {
            time_step: transient.time_step,
            end_time: transient.end_time,
            scheme: transient.method,
            current_scale: 1.0,
        };
        let started = Instant::now();
        let trace_span = opera_trace::span("collocation.sweep");
        let quadrature = build_grid(config.grid, &self.model.families(), config.level)
            .map_err(OperaError::from)?;
        let run = solve_collocation(&self.model, self.system.basis(), &quadrature, &spec)
            .map_err(OperaError::from)?;
        drop(trace_span);
        let seconds = started.elapsed().as_secs_f64();
        self.collocation_symbolics
            .add(run.stats.symbolic_analyses as u64);
        self.collocation_factorizations
            .add(run.stats.numeric_factorizations as u64);
        let solution = StochasticSolution::new(
            self.system.basis().clone(),
            run.times,
            run.node_count,
            run.coefficients,
        );
        Ok(CollocationReport {
            solution,
            grid: config.grid,
            level: config.level,
            nodes: run.stats.nodes,
            symbolic_analyses: run.stats.symbolic_analyses,
            numeric_factorizations: run.stats.numeric_factorizations,
            seconds,
        })
    }

    /// Runs the Monte Carlo baseline on the engine's model and default
    /// transient configuration, on the engine's
    /// [`Parallelism`] pool.
    ///
    /// # Errors
    ///
    /// Returns [`OperaError::InvalidOptions`] for zero samples or a probe
    /// node outside the grid, and propagates sampling/factorisation errors.
    pub fn monte_carlo(&self, config: &McConfig) -> Result<MonteCarloResult> {
        let options = MonteCarloOptions {
            samples: config.samples,
            seed: config.seed,
            transient: self.transient,
            probe_nodes: config.probe_nodes.clone(),
            current_scale: 1.0,
        };
        self.parallelism
            .install(|| run_monte_carlo(&self.model, &options))?
    }

    /// Runs one scenario end to end — OPERA solve, Monte Carlo validation,
    /// accuracy comparison and drop distribution — on the engine's pool.
    ///
    /// # Errors
    ///
    /// Propagates solver and sampling errors.
    pub fn run_scenario(&self, scenario: &Scenario) -> Result<ScenarioReport> {
        self.parallelism
            .install(|| self.run_scenario_in_pool(scenario))?
    }

    /// Runs a batch of independent scenarios, sharing the engine's single
    /// assembly and factorisation across all of them.
    ///
    /// Scenarios that reuse the engine's prepared factors *and* its time grid
    /// (no `time_step`/`end_time` override) are solved together as **one
    /// panel-batched transient**: at every time step their augmented states
    /// form the columns of a dense panel and advance through a single blocked
    /// multi-RHS solve, streaming the factor once per step instead of once
    /// per scenario per step. The remaining scenarios fall back to individual
    /// solves distributed over the engine's [`Parallelism`] pool, which also
    /// runs every scenario's Monte Carlo validation.
    ///
    /// Statistics are bit-identical to running each scenario alone (each
    /// panel column performs exactly the scalar solve's arithmetic, and the
    /// Monte Carlo accumulation is thread-count neutral). Per-scenario
    /// wall-clock fields (`opera_seconds`, `monte_carlo_seconds`, `speedup`)
    /// are approximate in a batch: panel-solved scenarios report an equal
    /// share of the panel's wall-clock time, and the rest are timed while
    /// other scenarios run concurrently — use
    /// [`run_scenario`](Self::run_scenario) when a scenario's isolated timing
    /// matters.
    ///
    /// # Errors
    ///
    /// Propagates the first scenario error.
    pub fn run_batch(&self, scenarios: &[Scenario]) -> Result<Vec<ScenarioReport>> {
        self.parallelism.install(|| {
            // Validate every scenario up front (the panel path must reject
            // bad overrides exactly like the scalar path would).
            for scenario in scenarios {
                self.scenario_transient(scenario)?;
            }
            // Scenarios without transient overrides share the engine's
            // factors and time grid: solve them as one panel. Adaptive
            // engines skip the panel path — each scenario's controller picks
            // its own step sequence, so there is no shared grid to batch on.
            let batchable: Vec<usize> = (0..scenarios.len())
                .filter(|&i| {
                    self.adaptive.is_none()
                        && scenarios[i].time_step.is_none()
                        && scenarios[i].end_time.is_none()
                })
                .collect();
            let mut solutions: Vec<Option<(StochasticSolution, f64)>> =
                (0..scenarios.len()).map(|_| None).collect();
            if batchable.len() > 1 {
                let scales: Vec<f64> = batchable
                    .iter()
                    .map(|&i| scenarios[i].current_scale)
                    .collect();
                let t0 = Instant::now();
                let panel_solutions = run_prepared_panel(
                    self.prepared.as_ref(),
                    &self.system,
                    &self.model,
                    &scales,
                    self.transient.time_points(),
                    self.transient.method,
                )?;
                let share = t0.elapsed().as_secs_f64() / batchable.len() as f64;
                for (&i, solution) in batchable.iter().zip(panel_solutions) {
                    solutions[i] = Some((solution, share));
                }
            }
            let work: Vec<(usize, Option<(StochasticSolution, f64)>)> =
                solutions.into_iter().enumerate().collect();
            // Captured before the fan-out: each worker's scenario span
            // attaches to the span that launched the batch, not to whatever
            // the worker thread happened to run last.
            let parent = opera_trace::current_span();
            work.into_par_iter()
                .map(|(i, solution)| {
                    let _span = opera_trace::span_under(parent, "batch.scenario");
                    match solution {
                        Some((solution, seconds)) => {
                            self.finish_scenario_report(&scenarios[i], solution, seconds)
                        }
                        None => self.run_scenario_in_pool(&scenarios[i]),
                    }
                })
                .collect::<Result<Vec<_>>>()
        })?
    }

    fn scenario_transient(&self, scenario: &Scenario) -> Result<TransientOptions> {
        if !scenario.current_scale.is_finite() || scenario.current_scale < 0.0 {
            return Err(OperaError::InvalidOptions {
                reason: format!(
                    "scenario current_scale must be finite and non-negative, got {}",
                    scenario.current_scale
                ),
            });
        }
        let transient = TransientOptions {
            time_step: scenario.time_step.unwrap_or(self.transient.time_step),
            end_time: scenario.end_time.unwrap_or(self.transient.end_time),
            method: self.transient.method,
        };
        transient.validate()?;
        Ok(transient)
    }

    /// Returns the engine's solver re-stepped to `transient`'s time step
    /// when it differs from the engine's, `None` when the shared preparation
    /// can be reused. A re-step is one numeric refactorisation against the
    /// shared symbolic analysis ([`PreparedSolver::with_time_step`]) and
    /// counts towards [`factorization_count`](Self::factorization_count).
    /// The scheme is always the engine's ([`Self::scenario_transient`]
    /// copies it).
    fn prepare_if_needed(
        &self,
        transient: &TransientOptions,
    ) -> Result<Option<Box<dyn PreparedSolver>>> {
        if transient.time_step == self.transient.time_step {
            return Ok(None);
        }
        let restepped = self.prepared.with_time_step(transient.time_step)?;
        self.factorizations.incr();
        Ok(Some(restepped))
    }

    fn run_scenario_in_pool(&self, scenario: &Scenario) -> Result<ScenarioReport> {
        // --- OPERA (timed; setup is amortised and reported separately).
        let t0 = Instant::now();
        let opera_solution = self.solve_scenario(scenario)?;
        let opera_seconds = t0.elapsed().as_secs_f64();
        self.finish_scenario_report(scenario, opera_solution, opera_seconds)
    }

    /// The second half of a scenario run: given the scenario's stochastic
    /// solution and the seconds it took, runs the Monte Carlo validation,
    /// accuracy comparison and drop distribution.
    fn finish_scenario_report(
        &self,
        scenario: &Scenario,
        opera_solution: StochasticSolution,
        opera_seconds: f64,
    ) -> Result<ScenarioReport> {
        let transient = self.scenario_transient(scenario)?;
        let grid = self.model.grid();
        let vdd = grid.vdd();
        let mc_samples = scenario.mc_samples.unwrap_or(self.mc_samples);
        let mc_seed = scenario.mc_seed.unwrap_or(self.mc_seed);

        // Probe node: worst mean drop of the OPERA solution.
        let (probe_node, probe_time, _) = opera_solution.worst_mean_drop(vdd);

        // --- Monte Carlo (timed) on the ambient pool.
        let mc_options = MonteCarloOptions {
            samples: mc_samples,
            seed: mc_seed,
            transient,
            probe_nodes: vec![probe_node],
            current_scale: scenario.current_scale,
        };
        let t1 = Instant::now();
        let mc_result = run_monte_carlo(&self.model, &mc_options)?;
        let monte_carlo_seconds = t1.elapsed().as_secs_f64();

        // --- Nominal (no-variation) transient for the µ₀ reference, with the
        // scenario's waveform scaling applied around the quiescent point.
        let scale = scenario.current_scale;
        let mut excitation = Excitation::for_grid(grid, scale);
        let nominal = solve_transient(
            &grid.conductance_matrix(),
            &grid.capacitance_matrix(),
            |t| {
                let mut u = vec![0.0; grid.node_count()];
                excitation.nominal_into(t, &mut u);
                u
            },
            &transient,
        )?;

        let summary = drop_summary(&opera_solution, vdd, Some(&nominal));
        let errors = compare(&opera_solution, &mc_result, vdd);
        let distribution = probe_distributions(
            &opera_solution,
            &mc_result,
            vdd,
            probe_node,
            probe_time,
            self.histogram_bins,
            mc_seed ^ 0x5eed,
        )?;

        Ok(ScenarioReport {
            label: scenario.label.clone(),
            current_scale: scale,
            report: ExperimentReport {
                node_count: grid.node_count(),
                opera: summary,
                errors,
                opera_seconds,
                monte_carlo_seconds,
                speedup: if opera_seconds > 0.0 {
                    monte_carlo_seconds / opera_seconds
                } else {
                    f64::INFINITY
                },
                mc_samples,
                distribution,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{BlockJacobiCg, DirectCholesky, BLOCK_JACOBI_CG};

    fn quick_engine() -> OperaEngine {
        OperaEngine::for_grid(GridSpec::small_test(110))
            .unwrap()
            .variation(VariationSpec::paper_defaults())
            .time_step(0.25e-9)
            .end_time(1.0e-9)
            .mc_samples(20)
            .mc_seed(7)
            .histogram_bins(10)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_invalid_settings() {
        let builder = |f: fn(EngineBuilder) -> EngineBuilder| {
            f(OperaEngine::for_grid(GridSpec::small_test(80)).unwrap()).build()
        };
        assert!(matches!(
            builder(|b| b.order(0)),
            Err(OperaError::InvalidOptions { .. })
        ));
        assert!(matches!(
            builder(|b| b.mc_samples(0)),
            Err(OperaError::InvalidOptions { .. })
        ));
        assert!(matches!(
            builder(|b| b.histogram_bins(0)),
            Err(OperaError::InvalidOptions { .. })
        ));
        assert!(matches!(
            builder(|b| b.time_step(-1.0)),
            Err(OperaError::InvalidOptions { .. })
        ));
        assert!(matches!(
            builder(|b| b.end_time(f64::NAN)),
            Err(OperaError::InvalidOptions { .. })
        ));
        assert!(
            matches!(
                builder(|b| b.time_step(0.5e-9).end_time(0.25e-9)),
                Err(OperaError::InvalidOptions { .. })
            ),
            "step exceeding the horizon"
        );
        assert!(matches!(
            builder(|b| b.solver(Arc::new(BlockJacobiCg {
                tolerance: 0.0,
                max_iterations: 10,
            }))),
            Err(OperaError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn scenario_overrides_share_or_refresh_the_factorisation() {
        let engine = quick_engine();
        assert_eq!(engine.assembly_count(), 1);
        assert_eq!(engine.factorization_count(), 1);

        // RHS-only overrides reuse the factors.
        engine.solve().unwrap();
        engine
            .solve_scenario(&Scenario::default().with_current_scale(1.5))
            .unwrap();
        engine
            .solve_scenario(&Scenario::default().with_end_time(0.5e-9))
            .unwrap();
        assert_eq!(engine.factorization_count(), 1);

        // A time-step override needs a fresh companion factorisation, but
        // never a re-assembly.
        engine
            .solve_scenario(&Scenario::default().with_time_step(0.5e-9))
            .unwrap();
        assert_eq!(engine.factorization_count(), 2);
        assert_eq!(engine.assembly_count(), 1);
    }

    #[test]
    fn current_scale_one_is_bit_identical_to_the_baseline() {
        let engine = quick_engine();
        let base = engine.solve().unwrap();
        let scaled = engine
            .solve_scenario(&Scenario::default().with_current_scale(1.0))
            .unwrap();
        let k = base.times().len() - 1;
        for n in 0..base.node_count() {
            assert_eq!(base.mean_at(k, n), scaled.mean_at(k, n));
            assert_eq!(base.variance_at(k, n), scaled.variance_at(k, n));
        }
    }

    #[test]
    fn current_scale_scales_the_drop_but_not_the_supply_level() {
        let engine = quick_engine();
        let vdd = engine.grid().vdd();
        let base = engine.solve().unwrap();
        let heavy = engine
            .solve_scenario(&Scenario::default().with_current_scale(2.0))
            .unwrap();
        let (node, k, base_drop) = base.worst_mean_drop(vdd);
        let (_, _, heavy_drop) = heavy.worst_mean_drop(vdd);
        assert!(base_drop > 0.0);
        // Doubling the switching currents should roughly double the dynamic
        // part of the drop (the DC pad level is unchanged, so not exactly).
        assert!(
            heavy_drop > 1.3 * base_drop,
            "drop did not scale: {base_drop} -> {heavy_drop}"
        );
        // At t = 0 (quiescence) the two scenarios coincide exactly.
        for n in (0..base.node_count()).step_by(11) {
            assert!((base.mean_at(0, n) - heavy.mean_at(0, n)).abs() < 1e-12);
        }
        let _ = (node, k);
    }

    #[test]
    fn invalid_scenarios_are_rejected() {
        let engine = quick_engine();
        assert!(matches!(
            engine.solve_scenario(&Scenario::default().with_current_scale(f64::NAN)),
            Err(OperaError::InvalidOptions { .. })
        ));
        assert!(matches!(
            engine.solve_scenario(&Scenario::default().with_time_step(0.0)),
            Err(OperaError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn monte_carlo_and_run_scenario_work_from_the_engine() {
        let engine = quick_engine();
        let mc = engine.monte_carlo(&McConfig::new(8, 3)).unwrap();
        assert_eq!(mc.samples, 8);
        let report = engine
            .run_scenario(&Scenario::named("demo").with_mc_samples(12))
            .unwrap();
        assert_eq!(report.label, "demo");
        assert_eq!(report.report.mc_samples, 12);
        assert!(report.report.errors.avg_mean_error_percent < 1.0);
    }

    #[test]
    fn out_of_range_probe_nodes_are_errors_not_panics() {
        use crate::monte_carlo::{run_leakage, MonteCarloOptions};
        use opera_variation::LeakageModel;
        let engine = OperaEngine::for_grid(GridSpec::small_test(60))
            .unwrap()
            .time_step(0.25e-9)
            .end_time(0.5e-9)
            .build()
            .unwrap();
        let n = engine.node_count();
        let config = McConfig {
            probe_nodes: vec![0, n + 5],
            ..McConfig::new(4, 1)
        };
        assert!(matches!(
            engine.monte_carlo(&config),
            Err(OperaError::InvalidOptions { .. })
        ));
        // `n` itself is the first node past the end.
        let mut options = MonteCarloOptions::new(4, 1, *engine.transient());
        options.probe_nodes = vec![n];
        let leakage = LeakageModel::uniform_slices(n, 2, 1.0e-5, 0.04, 23.0).unwrap();
        let err = run_leakage(engine.grid(), &leakage, &options).unwrap_err();
        assert!(
            matches!(err, OperaError::InvalidOptions { .. }),
            "expected InvalidOptions, got {err}"
        );
        // The last node is a valid probe.
        options.probe_nodes = vec![n - 1];
        assert!(run_leakage(engine.grid(), &leakage, &options).is_ok());
    }

    #[test]
    fn scaled_scenarios_keep_opera_and_monte_carlo_consistent() {
        // If the engine scaled the Galerkin excitation but the Monte Carlo
        // baseline did not (or vice versa), the mean error would blow up.
        let engine = quick_engine();
        let report = engine
            .run_scenario(
                &Scenario::named("heavy")
                    .with_current_scale(1.5)
                    .with_mc_samples(25),
            )
            .unwrap();
        assert!(
            report.report.errors.avg_mean_error_percent < 1.0,
            "scaled scenario disagrees with its Monte Carlo baseline: {} %VDD",
            report.report.errors.avg_mean_error_percent
        );
        assert_eq!(report.current_scale, 1.5);
    }

    #[test]
    fn collocation_agrees_with_the_galerkin_solve() {
        let engine = quick_engine();
        let vdd = engine.grid().vdd();
        let galerkin = engine.solve().unwrap();
        let report = engine.collocation(&CollocationConfig::smolyak(2)).unwrap();
        assert_eq!(report.level, 2);
        assert_eq!(report.grid, GridKind::Smolyak);
        assert!(report.nodes > 1);
        assert_eq!(report.symbolic_analyses, 1);
        assert_eq!(engine.collocation_symbolic_count(), 1);
        assert_eq!(engine.collocation_factorization_count(), 2 * report.nodes);
        let colloc = &report.solution;
        assert_eq!(colloc.times(), galerkin.times());
        let (node, k, drop) = galerkin.worst_mean_drop(vdd);
        assert!(drop > 0.0);
        let mean_diff = (colloc.mean_at(k, node) - galerkin.mean_at(k, node)).abs();
        assert!(mean_diff < 1e-4 * vdd, "mean differs by {mean_diff}");
        let sigma_g = galerkin.std_dev_at(k, node);
        let sigma_c = colloc.std_dev_at(k, node);
        assert!(sigma_g > 0.0);
        assert!(
            (sigma_g - sigma_c).abs() < 0.05 * sigma_g,
            "sigma {sigma_g} vs {sigma_c}"
        );
    }

    #[test]
    fn collocation_rejects_level_zero_and_tensor_matches_smolyak() {
        let engine = quick_engine();
        assert!(matches!(
            engine.collocation(&CollocationConfig::smolyak(0)),
            Err(OperaError::InvalidOptions { .. })
        ));
        let smolyak = engine.collocation(&CollocationConfig::smolyak(2)).unwrap();
        let tensor = engine.collocation(&CollocationConfig::tensor(2)).unwrap();
        assert!(tensor.nodes >= smolyak.nodes);
        let k = smolyak.solution.times().len() - 1;
        for n in (0..smolyak.solution.node_count()).step_by(17) {
            let d = (smolyak.solution.mean_at(k, n) - tensor.solution.mean_at(k, n)).abs();
            assert!(d < 1e-6, "smolyak and tensor means differ by {d}");
        }
    }

    /// The small direct-Cholesky engine of the scenario-report checks: 40
    /// Monte Carlo samples, 12 histogram bins.
    fn demo_engine(nodes: usize) -> OperaEngine {
        OperaEngine::for_grid(GridSpec::small_test(nodes))
            .unwrap()
            .solver(Arc::new(DirectCholesky))
            .time_step(0.2e-9)
            .end_time(1.0e-9)
            .mc_samples(40)
            .mc_seed(7)
            .histogram_bins(12)
            .build()
            .unwrap()
    }

    /// `cholesky.numeric` spans under the test's `scenario.test` span (spans
    /// of tests running concurrently have other roots), split into those
    /// inside a Monte Carlo run (`mc.run`) and the rest: `(OPERA, MC)`.
    fn numeric_factorizations(snapshot: &opera_trace::TraceSnapshot) -> (usize, usize) {
        let root = snapshot.spans.iter().find(|s| s.name == "scenario.test");
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
    fn scenario_report_is_consistent() {
        // The cost claim is asserted on factorisation counts, not wall
        // clock: at 120 nodes the measured speed-up scatters around 1.
        let _guard = opera_trace::test_guard();
        opera_trace::reset();
        opera_trace::enable();
        let root = opera_trace::span("scenario.test");
        let engine = demo_engine(120);
        let report = engine.run_scenario(&Scenario::default()).unwrap().report;
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
        let report = demo_engine(150)
            .run_scenario(&Scenario::default())
            .unwrap()
            .report;
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
    fn netlist_engines_carry_node_names_and_deck_transients() {
        let deck = "\
* star of four nodes behind one pad
VDD p 0 1.0
Rpad p hub 0.1
Rw1 hub leaf_a 0.5
Rw2 hub leaf_b 0.5
Rv3 hub leaf_c 0.5
C1 hub 0 4f class=gate
C2 leaf_a 0 2f
C3 leaf_b 0 2f
C4 leaf_c 0 2f
I1 leaf_c 0 PWL(0 0 0.5n 2m 1n 0) block=1
.tran 0.25n 1n method=trbdf2
";
        let engine = OperaEngine::for_netlist_str(deck)
            .unwrap()
            .mc_samples(5)
            .build()
            .unwrap();
        // Deck `.tran` became the engine defaults, including the scheme.
        assert_eq!(engine.transient().time_step, 0.25e-9);
        assert_eq!(engine.transient().end_time, 1e-9);
        assert_eq!(engine.transient().method, IntegrationMethod::TrBdf2);
        // Names round-trip both ways; the unnamed fallback label works too.
        assert_eq!(engine.node_count(), 4);
        assert_eq!(engine.node_index("leaf_c"), Some(3));
        assert_eq!(engine.node_name(0), Some("hub"));
        assert_eq!(engine.node_label(3), "leaf_c");
        assert_eq!(engine.node_name(99), None);
        assert_eq!(engine.node_label(99), "#99");
        // The worst drop is at the loaded leaf, by name.
        let solution = engine.solve().unwrap();
        let (node, _, drop) = solution.worst_mean_drop(engine.grid().vdd());
        assert_eq!(engine.node_label(node), "leaf_c");
        assert!(drop > 0.0);
        // Grid-built engines have no names.
        let plain = quick_engine();
        assert!(plain.node_map().is_none());
        assert_eq!(plain.node_label(0), "#0");
    }

    #[test]
    fn netlist_errors_surface_with_spans() {
        let Err(err) = OperaEngine::for_netlist_str("VDD p 0 1.2\nR1 p n1 bogus\n") else {
            panic!("a malformed deck must not build");
        };
        let OperaError::Netlist(inner) = &err else {
            panic!("expected a netlist error, got {err}");
        };
        assert_eq!(inner.line(), Some(2));
        assert!(OperaEngine::for_netlist("/no/such/deck.sp").is_err());
    }

    #[test]
    fn engine_can_be_built_from_a_prebuilt_model_and_a_solver_value() {
        let grid = GridSpec::small_test(90).with_seed(3).build().unwrap();
        let model =
            StochasticGridModel::inter_die_three_variable(&grid, &VariationSpec::paper_defaults())
                .unwrap();
        let engine = OperaEngine::for_model(model)
            .time_step(0.25e-9)
            .end_time(1.0e-9)
            .solver(Arc::new(BlockJacobiCg::default()))
            .build()
            .unwrap();
        assert_eq!(engine.solver().name(), BLOCK_JACOBI_CG);
        // Three variables at order 2: C(3+2, 2) = 10 basis functions.
        assert_eq!(engine.basis_size(), 10);
        let sol = engine.solve().unwrap();
        let (_, k, drop) = sol.worst_mean_drop(engine.grid().vdd());
        assert!(drop > 0.0 && k > 0);
    }
}
