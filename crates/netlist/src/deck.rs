//! The validated netlist IR: typed cards in deck order.
//!
//! [`parse`](crate::parse) produces a [`Netlist`] — a list of [`Card`]s in
//! the order they appeared — after per-card validation (arity, numeric
//! values, duplicate names). Whole-circuit semantics (supply consistency,
//! node indexing, connectivity) are checked when the netlist is
//! [lowered](Netlist::lower) to a [`PowerGrid`](opera_grid::PowerGrid).
//!
//! Deck order is load-bearing: it defines both the node-index assignment
//! (first appearance) and the stamping order of branches, capacitors and
//! sources, which is what makes the exporter's round trip bit-identical.
//!
//! Node names are interned as the cards are parsed: [`Netlist::nodes`]
//! holds each name once, in first-appearance order, and the cards refer to
//! their terminals by index into it. Element names are stored in the card
//! itself ([`ElementName`]), so an R, C or V card owns no heap memory
//! unless its name is long.

use std::fmt;
use std::ops::Deref;

use opera_grid::{CapacitorClass, NodeMap};

/// The transient analysis window from a `.tran tstep tstop [tstart]
/// [method=be|trap|trbdf2]` directive.
///
/// ```
/// use opera_netlist::{parse, TranMethod};
///
/// let deck = parse("VDD s 0 1.2\nR1 s a 1\n.tran 10p 2n method=trbdf2\n").unwrap();
/// let tran = deck.tran.unwrap();
/// assert_eq!(tran.time_step, 10e-12);
/// assert_eq!(tran.end_time, 2e-9);
/// assert_eq!(tran.method, Some(TranMethod::TrBdf2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranSpec {
    /// Suggested time step in seconds (`tstep`).
    pub time_step: f64,
    /// End of the transient window in seconds (`tstop`).
    pub end_time: f64,
    /// The requested integration scheme (`method=…`), when the deck named
    /// one; `None` leaves the consumer's default in place.
    pub method: Option<TranMethod>,
}

/// The integration scheme named by a `.tran … method=…` parameter. The
/// netlist crate only records the request; the engine maps it onto its own
/// `IntegrationMethod` when it adopts the deck's transient window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranMethod {
    /// `method=be` — backward Euler.
    BackwardEuler,
    /// `method=trap` — trapezoidal.
    Trapezoidal,
    /// `method=trbdf2` — the L-stable TR-BDF2 composite.
    TrBdf2,
}

/// A current-source waveform as written in the deck, before expansion to a
/// piecewise-linear [`Waveform`](opera_grid::Waveform) at lowering time.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceWaveform {
    /// A constant (DC) current in amperes: `I1 n 0 1m` or `I1 n 0 DC 1m`.
    Dc(f64),
    /// `PWL(t1 v1 t2 v2 …)` breakpoints, times non-decreasing.
    Pwl(Vec<(f64, f64)>),
    /// `PULSE(i1 i2 td tr tf pw per)` — SPICE argument order: base value,
    /// pulse value, delay, rise time, fall time, pulse width, period.
    Pulse {
        /// Base current `i1` in amperes.
        base: f64,
        /// Pulsed current `i2` in amperes.
        peak: f64,
        /// Delay `td` before the first pulse, seconds.
        delay: f64,
        /// Rise time `tr`, seconds.
        rise: f64,
        /// Fall time `tf`, seconds.
        fall: f64,
        /// Pulse width `pw`, seconds.
        width: f64,
        /// Period `per`, seconds (`0` = a single pulse).
        period: f64,
    },
}

/// An element name (lower-cased), stored inline when it fits in 22 bytes,
/// as nearly every deck's names do, so a card needs no allocation for it.
///
/// ```
/// use opera_netlist::ElementName;
///
/// let name = ElementName::from("rpad12");
/// assert_eq!(name.as_str(), "rpad12");
/// assert!(name.starts_with("rpad"));
/// ```
#[derive(Clone)]
pub struct ElementName(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Box<str>),
}

/// The longest element name stored without a heap allocation, in bytes.
const INLINE: usize = 22;

impl ElementName {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                // lint: allow(L001, the inline bytes are a whole `str`'s, copied by `from`)
                std::str::from_utf8(&bytes[..usize::from(*len)]).expect("a whole str's bytes")
            }
            Repr::Heap(name) => name,
        }
    }
}

impl From<&str> for ElementName {
    fn from(name: &str) -> Self {
        if name.len() <= INLINE {
            let mut bytes = [0; INLINE];
            bytes[..name.len()].copy_from_slice(name.as_bytes());
            ElementName(Repr::Inline {
                len: name.len() as u8,
                bytes,
            })
        } else {
            ElementName(Repr::Heap(name.into()))
        }
    }
}

impl Deref for ElementName {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for ElementName {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl fmt::Debug for ElementName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for ElementName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A resistor card `Rname a b value`.
///
/// The stored value is always a *conductance*: plain values are ohms and
/// are reciprocated once at parse time; values with the dialect's `S`
/// suffix (`25S`, `1.5kS`) are siemens verbatim, which is what lets the
/// exporter round-trip conductances bit-exactly (see `docs/NETLIST.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct ResistorCard {
    /// Element name (lower-cased, unique). Names starting with `rvia`, or
    /// `rv` followed by a digit (`rv12`), lower to
    /// [`BranchKind::Via`](opera_grid::BranchKind::Via); everything else
    /// between two grid nodes is a metal wire, and any resistor touching a
    /// supply node becomes a package pad.
    pub name: ElementName,
    /// 1-based deck line of the card.
    pub line: usize,
    /// First terminal, an index into [`Netlist::nodes`].
    pub a: usize,
    /// Second terminal, an index into [`Netlist::nodes`].
    pub b: usize,
    /// Branch conductance in siemens (always positive and finite).
    pub conductance: f64,
}

/// A grounded-capacitor card `Cname node 0 value [class=…]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitorCard {
    /// Element name (lower-cased, unique).
    pub name: ElementName,
    /// 1-based deck line of the card.
    pub line: usize,
    /// The grid node the capacitor hangs off (the other terminal is
    /// ground), an index into [`Netlist::nodes`].
    pub node: usize,
    /// Capacitance in farads (non-negative, finite).
    pub capacitance: f64,
    /// Physical origin, from the optional `class=gate|diffusion|interconnect`
    /// field; defaults to [`CapacitorClass::Diffusion`] (treated as fixed by
    /// the variation models).
    pub class: CapacitorClass,
}

/// A current-source card `Iname node 0 <waveform> [block=k]`, drawing
/// current from `node` to ground.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentSourceCard {
    /// Element name (lower-cased, unique).
    pub name: ElementName,
    /// 1-based deck line of the card.
    pub line: usize,
    /// The grid node the source draws from (the other terminal is ground),
    /// an index into [`Netlist::nodes`].
    pub node: usize,
    /// The waveform as written.
    pub waveform: SourceWaveform,
    /// Functional-block id from the optional `block=k` field (default `0`);
    /// used by intra-die variation models.
    pub block: usize,
}

/// A supply card `Vname node 0 value`, pinning `node` to the external VDD.
#[derive(Debug, Clone, PartialEq)]
pub struct SupplyCard {
    /// Element name (lower-cased, unique).
    pub name: ElementName,
    /// 1-based deck line of the card.
    pub line: usize,
    /// The supply node, an index into [`Netlist::nodes`]. Resistors
    /// touching it become package pads.
    pub node: usize,
    /// Supply voltage in volts (positive, finite; all supplies must agree).
    pub volts: f64,
}

/// One card of the deck, in deck order.
#[derive(Debug, Clone, PartialEq)]
pub enum Card {
    /// A resistor (`R…`).
    Resistor(ResistorCard),
    /// A grounded capacitor (`C…`).
    Capacitor(CapacitorCard),
    /// A transient current source (`I…`), boxed: its waveform would
    /// otherwise double the size of every card.
    Current(Box<CurrentSourceCard>),
    /// An ideal VDD supply (`V…`).
    Supply(SupplyCard),
}

impl Card {
    /// The card's element name.
    pub fn name(&self) -> &str {
        match self {
            Card::Resistor(c) => &c.name,
            Card::Capacitor(c) => &c.name,
            Card::Current(c) => &c.name,
            Card::Supply(c) => &c.name,
        }
    }

    /// The 1-based deck line the card started on.
    pub fn line(&self) -> usize {
        match self {
            Card::Resistor(c) => c.line,
            Card::Capacitor(c) => c.line,
            Card::Current(c) => c.line,
            Card::Supply(c) => c.line,
        }
    }
}

/// A parsed deck: validated cards in deck order, the node names they
/// refer to and the optional `.tran` window.
///
/// ```
/// use opera_netlist::{parse, Card};
///
/// let deck = parse(
///     "VDD s 0 1.2\nRp1 s n1 0.1\nRw1 n1 n2 0.5\nC1 n2 0 1f\nI1 n2 0 1m\n.end\n",
/// )
/// .unwrap();
/// assert_eq!(deck.cards.len(), 5);
/// assert!(matches!(deck.cards[0], Card::Supply(_)));
/// assert_eq!(deck.resistors().count(), 2);
/// let wire = deck.resistors().nth(1).unwrap();
/// assert_eq!(deck.nodes.name(wire.b), Some("n2"));
/// let lowered = deck.lower().unwrap();
/// assert_eq!(lowered.grid.node_count(), 2); // n1, n2 — `s` is the supply
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    /// All element cards, in deck order.
    pub cards: Vec<Card>,
    /// Every node name the cards refer to — ground and supply nodes
    /// included — once each, in order of first appearance. Card terminals
    /// are indices into it.
    pub nodes: NodeMap,
    /// The `.tran` directive, when present.
    pub tran: Option<TranSpec>,
}

impl Netlist {
    /// Iterates over the resistor cards in deck order.
    pub fn resistors(&self) -> impl Iterator<Item = &ResistorCard> + '_ {
        self.cards.iter().filter_map(|c| match c {
            Card::Resistor(r) => Some(r),
            _ => None,
        })
    }

    /// Iterates over the capacitor cards in deck order.
    pub fn capacitors(&self) -> impl Iterator<Item = &CapacitorCard> + '_ {
        self.cards.iter().filter_map(|c| match c {
            Card::Capacitor(r) => Some(r),
            _ => None,
        })
    }

    /// Iterates over the current-source cards in deck order.
    pub fn current_sources(&self) -> impl Iterator<Item = &CurrentSourceCard> + '_ {
        self.cards.iter().filter_map(|c| match c {
            Card::Current(r) => Some(&**r),
            _ => None,
        })
    }

    /// Iterates over the supply cards in deck order.
    pub fn supplies(&self) -> impl Iterator<Item = &SupplyCard> + '_ {
        self.cards.iter().filter_map(|c| match c {
            Card::Supply(r) => Some(r),
            _ => None,
        })
    }
}
