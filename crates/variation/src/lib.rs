//! Process-variation models for stochastic power-grid analysis.
//!
//! The OPERA paper models manufacturing variations in interconnect width
//! (`W`), interconnect thickness (`T`) and device channel length (`Leff`) as
//! Gaussian random variables that perturb the grid's electrical parameters:
//!
//! * the conductance matrix `G` varies with `W` and `T` (combined into a
//!   single variable `ξ_G`, paper Eq. 14),
//! * 40 % of the grid capacitance (the gate capacitance) varies with `Leff`
//!   (`ξ_L`),
//! * the drain currents — and therefore the excitation — vary with `Leff`,
//!   and the pad portion of the excitation varies with `ξ_G`.
//!
//! This crate turns a deterministic [`opera_grid::PowerGrid`] plus a
//! [`VariationSpec`] into a [`StochasticGridModel`]: the collection of
//! nominal and perturbation matrices/vectors of paper Eq. (13)–(14), ready
//! for either the spectral Galerkin solver or Monte Carlo sampling.
//!
//! The special case of Section 5.1 of the paper — variations only in the
//! right-hand side caused by per-region threshold-voltage (leakage)
//! variations — is covered by [`LeakageModel`].
//!
//! # Example
//!
//! ```
//! use opera_grid::GridSpec;
//! use opera_variation::{StochasticGridModel, VariationSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = GridSpec::small_test(200).build()?;
//! let model = StochasticGridModel::inter_die(&grid, &VariationSpec::paper_defaults())?;
//! assert_eq!(model.n_vars(), 2); // ξ_G and ξ_L
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod excitation;
mod leakage;
mod model;
mod spec;

pub mod correlation;

pub use error::VariationError;
pub use excitation::Excitation;
pub use leakage::LeakageModel;
pub use model::{NominalPatterns, SampleValues, StochasticGridModel, VariationVariable};
pub use spec::VariationSpec;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, VariationError>;
