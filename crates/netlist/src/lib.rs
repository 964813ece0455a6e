//! SPICE-style power-grid netlist front end for the OPERA reproduction.
//!
//! The paper's Table 1 runs on industrial netlists; this crate opens that
//! input path: it lexes and parses IBM-power-grid-benchmark-style decks —
//! `R`/`C`/`I`/`V` cards, `.tran`, PWL and PULSE current waveforms,
//! comments, continuation lines, SI value suffixes — into a validated
//! [`Netlist`] IR, and lowers it to an [`opera_grid::PowerGrid`] with a
//! stable node-name ↔ index [`NodeMap`](opera_grid::NodeMap) so reports can
//! name real nodes instead of raw indices. The full grammar, the dialect
//! conventions and the error taxonomy are documented in `docs/NETLIST.md`.
//!
//! The reverse direction is [`export_grid`]: any grid (in particular the
//! synthetic [`GridSpec`](opera_grid::GridSpec) meshes) can be written out
//! as a deck and re-imported with *bit-identical* stamping, which is what
//! ties the two input paths together and is proven by this crate's
//! round-trip property tests.
//!
//! # Quickstart
//!
//! ```
//! use opera_netlist::parse;
//!
//! # fn main() -> Result<(), opera_netlist::NetlistError> {
//! let deck = "\
//! * 2x2 mesh behind two pads
//! VDD p 0 1.2
//! Rpad1 p n1_0_0 0.05
//! Rpad2 p n1_1_1 0.05
//! Rw1 n1_0_0 n1_0_1 0.4
//! Rw2 n1_1_0 n1_1_1 0.4
//! Rv1 n1_0_0 n1_1_0 0.6
//! Rv2 n1_0_1 n1_1_1 0.6
//! C1 n1_0_1 0 5f class=gate
//! C2 n1_1_0 0 5f
//! I1 n1_1_0 0 PWL(0 0 0.2n 8m 0.5n 0)
//! .tran 10p 0.5n
//! .end
//! ";
//! let lowered = parse(deck)?.lower()?;
//! assert_eq!(lowered.grid.node_count(), 4);
//! assert_eq!(lowered.nodes.index("n1_1_0"), Some(3));
//! assert_eq!(lowered.grid.pad_nodes().len(), 2);
//! assert_eq!(lowered.tran.unwrap().end_time, 0.5e-9);
//! # Ok(())
//! # }
//! ```
//!
//! To run a full stochastic analysis on a deck, hand it to the engine:
//! `opera::engine::OperaEngine::for_netlist("grid.sp")` (or
//! `for_netlist_str`) — grid lowering, variation model, Galerkin assembly
//! and factorisation happen once, and every report can translate node
//! indices back to deck names.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod deck;
mod error;
mod export;
mod lexer;
mod lower;
mod parser;
mod value;

pub use deck::{
    CapacitorCard, Card, CurrentSourceCard, ElementName, Netlist, ResistorCard, SourceWaveform,
    SupplyCard, TranMethod, TranSpec,
};
pub use error::NetlistError;
pub use export::export_grid;
pub use lower::LoweredNetlist;
pub use parser::{is_ground, parse, GROUND_NAMES};
pub use value::{format_value, parse_value};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NetlistError>;

/// Reads and parses a deck file.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] if the file cannot be read, otherwise
/// whatever [`parse`] returns.
///
/// # Example
///
/// ```no_run
/// let deck = opera_netlist::parse_file("tests/fixtures/ibmpg_style.sp")?;
/// let lowered = deck.lower()?;
/// println!("{} nodes", lowered.grid.node_count());
/// # Ok::<(), opera_netlist::NetlistError>(())
/// ```
pub fn parse_file(path: impl AsRef<std::path::Path>) -> Result<Netlist> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| NetlistError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    parse(&text)
}

/// Convenience: [`parse_file`] followed by [`Netlist::lower`].
///
/// # Errors
///
/// Propagates I/O, parse and lowering errors.
///
/// # Example
///
/// ```no_run
/// let lowered = opera_netlist::load("tests/fixtures/ibmpg_style.sp")?;
/// assert!(lowered.grid.node_count() > 0);
/// # Ok::<(), opera_netlist::NetlistError>(())
/// ```
pub fn load(path: impl AsRef<std::path::Path>) -> Result<LoweredNetlist> {
    parse_file(path)?.lower()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_file_reports_io_error() {
        let err = load("/no/such/deck.sp").unwrap_err();
        assert!(matches!(err, NetlistError::Io { .. }));
        assert!(err.to_string().contains("/no/such/deck.sp"));
    }
}
