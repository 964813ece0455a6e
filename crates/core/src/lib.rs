//! OPERA — Orthogonal Polynomial Expansions for Response Analysis.
//!
//! This crate is the core of the reproduction of *"Stochastic Power Grid
//! Analysis Considering Process Variations"* (DATE 2005): it computes the
//! stochastic voltage response of an RC power grid whose electrical
//! parameters vary with manufacturing process parameters.
//!
//! The pieces are:
//!
//! * [`engine`] — the reusable [`OperaEngine`] session, the one way to
//!   configure and run a stochastic analysis:
//!   grid generation, stochastic-model construction, Galerkin assembly and
//!   the solver factorisation happen **once** at build time, then any number
//!   of [scenarios](engine::Scenario) (waveform rescalings, transient
//!   overrides, Monte Carlo validations, whole batches) reuse them. Engines
//!   are built either from a synthetic [`GridSpec`](opera_grid::GridSpec)
//!   ([`OperaEngine::for_grid`]) or from a SPICE-style deck
//!   ([`OperaEngine::for_netlist`], grammar in `docs/NETLIST.md`) — netlist
//!   engines name their nodes in every report.
//! * [`solver`] — pluggable [`SolverBackend`]s for the
//!   augmented system: the default Kronecker-preconditioned CG and direct
//!   Cholesky (the bit-pinned reference). A custom
//!   backend is passed to the engine builder by value
//!   ([`EngineBuilder::solver`](engine::EngineBuilder::solver)).
//! * [`transient`] — deterministic transient MNA solver (backward Euler,
//!   trapezoidal or L-stable TR-BDF2) used both for nominal analysis and
//!   inside the Monte Carlo baseline.
//! * [`adaptive`] — LTE-driven adaptive TR-BDF2 stepping with dense
//!   interpolated output on the requested `.tran` grid, sharing one symbolic
//!   analysis across all step sizes.
//! * [`galerkin`] — assembly of the spectral (Galerkin) augmented system
//!   `(G̃ + sC̃) a(s) = Ũ(s)` of paper Eqs. (19)–(22).
//! * [`stochastic`] — the [`StochasticSolution`] and the augmented
//!   transient loop behind [`OperaEngine::solve`]: one augmented transient
//!   solve yields the full polynomial-chaos representation of every node
//!   voltage at every time step.
//! * [`special_case`] — the Section 5.1 special case (variations only in the
//!   excitation, e.g. per-region leakage): a single factorisation of the
//!   nominal matrix plus `N + 1` independent solves.
//! * [`monte_carlo`] — the Monte Carlo baseline the paper compares against.
//! * [`engine::CollocationConfig`] / [`OperaEngine::collocation`] — the
//!   stochastic-collocation cross-check: a Smolyak (or tensor) sweep of
//!   independent deterministic node solves sharing one symbolic
//!   factorisation analysis (driver in the `opera_collocation` crate),
//!   projected onto the same polynomial-chaos basis.
//! * [`parallel`] — the [`Parallelism`] knob and deterministic per-sample
//!   seeding that let the Monte Carlo, special-case and batched-scenario
//!   loops use all cores without changing any statistic.
//! * [`response`] — node-voltage statistics, voltage-drop summaries,
//!   histograms (paper Figures 1–2, the ±3σ column of Table 1) and the
//!   [`ExperimentReport`](response::ExperimentReport) of one scenario.
//! * [`compare`] — OPERA-vs-Monte-Carlo error metrics (the accuracy columns
//!   of Table 1).
//!
//! # Quickstart
//!
//! Build an engine once, then serve as many scenarios as you like — the
//! assembly and factorisation are shared across all of them:
//!
//! ```
//! use opera::engine::{OperaEngine, Scenario};
//! use opera_grid::GridSpec;
//! use opera_variation::VariationSpec;
//!
//! # fn main() -> Result<(), opera::OperaError> {
//! // Deliberately tiny so the doc-test runs in milliseconds.
//! let engine = OperaEngine::for_grid(GridSpec::small_test(140))?
//!     .variation(VariationSpec::paper_defaults())
//!     .order(2)
//!     .time_step(0.2e-9)
//!     .end_time(1.0e-9)
//!     .mc_samples(25)
//!     .build()?;
//!
//! // A batch of scenarios: nominal, light and heavy switching activity.
//! let scenarios = [
//!     Scenario::named("nominal"),
//!     Scenario::named("light").with_current_scale(0.5),
//!     Scenario::named("heavy").with_current_scale(1.5),
//! ];
//! let reports = engine.run_batch(&scenarios)?;
//! assert_eq!(reports.len(), 3);
//! assert!(reports.iter().all(|r| r.report.opera.worst_mean_drop > 0.0));
//!
//! // The whole batch shared one assembly and one factorisation.
//! assert_eq!(engine.assembly_count(), 1);
//! assert_eq!(engine.factorization_count(), 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;

pub mod adaptive;
pub mod compare;
pub mod engine;
pub mod galerkin;
pub mod monte_carlo;
pub mod parallel;
pub mod response;
pub mod solver;
pub mod special_case;
pub mod stochastic;
pub mod transient;

pub use adaptive::{AdaptiveOptions, AdaptiveStats, AdaptiveTransientSolution};
pub use engine::{
    CollocationConfig, CollocationReport, GridKind as CollocationGridKind, McConfig, OperaEngine,
    Scenario, ScenarioReport,
};
pub use error::OperaError;
pub use galerkin::GalerkinSystem;
pub use opera_simd::Backend as SimdBackend;
pub use parallel::Parallelism;
pub use solver::{BlockJacobiCg, DirectCholesky, SolverBackend};
pub use stochastic::StochasticSolution;
pub use transient::{IntegrationMethod, TransientOptions, TransientSolution};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, OperaError>;
