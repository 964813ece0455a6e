//! Lowering: [`Netlist`] IR → [`PowerGrid`] + [`NodeMap`].
//!
//! Whole-circuit semantics live here:
//!
//! * **Supply extraction** — every `V` card pins its node to the external
//!   VDD; all supplies must agree on the voltage. Resistors touching a
//!   supply node lower to package pads (the Norton equivalent the MNA
//!   formulation uses), so supply nodes carry no unknown.
//! * **Node indexing** — every other non-ground node gets an index at its
//!   first appearance, in deck order; the mapping is returned as a
//!   [`NodeMap`] so reports can name real nodes.
//! * **Stamping order** — branches, capacitors and sources are added in
//!   deck order, which is what makes export → parse → stamp round trips
//!   bit-identical.
//! * **Connectivity** — every grid node must have a resistive path to a
//!   pad, otherwise the conductance matrix would be singular; the error
//!   names the offending node.
//!
//! The parser has already interned every node name in first-appearance
//! order ([`Netlist::nodes`]), so no name is hashed here: one pass over the
//! deck's node indices sorts each into ground, supply or the next grid
//! index, and the stamping pass looks terminals up by index.

use opera_grid::{BranchKind, NodeMap, PowerGrid, Waveform};

use crate::deck::{Card, Netlist, SourceWaveform, TranSpec};
use crate::parser::is_ground;
use crate::{NetlistError, Result};

/// Hard cap on the breakpoints a single `PULSE` source may expand to.
const MAX_PULSE_BREAKPOINTS: usize = 100_000;

/// A lowered deck: the stamped grid, the node-name mapping and the deck's
/// transient window.
///
/// ```
/// use opera_netlist::parse;
///
/// let lowered = parse(
///     "VDD s 0 1.2\nRp s a 0.1\nRw a b 0.2\nC1 b 0 1f\nI1 b 0 1m\n.tran 10p 1n\n",
/// )
/// .unwrap()
/// .lower()
/// .unwrap();
/// assert_eq!(lowered.grid.node_count(), 2);
/// assert_eq!(lowered.nodes.name(0), Some("a"));
/// assert_eq!(lowered.nodes.index("b"), Some(1));
/// assert_eq!(lowered.grid.pad_nodes(), vec![0]);
/// assert_eq!(lowered.tran.unwrap().end_time, 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct LoweredNetlist {
    /// The stamped power grid (VDD net, Norton pad equivalents).
    pub grid: PowerGrid,
    /// Node-name ↔ node-index mapping (first appearance in deck order).
    pub nodes: NodeMap,
    /// The deck's `.tran` window, when it had one.
    pub tran: Option<TranSpec>,
}

/// What a deck node lowers to.
#[derive(Clone, Copy)]
enum Role {
    /// The reference net (`0`, `gnd`).
    Ground,
    /// A node pinned to VDD by a supply card.
    Supply,
    /// Grid node `k`.
    Grid(usize),
}

impl Netlist {
    /// Lowers the deck to a [`PowerGrid`] plus its [`NodeMap`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Deck`] for a deck with no supply or no grid
    /// nodes, [`NetlistError::Lowering`] for electrically meaningless cards
    /// (resistor to ground, element on a supply node, conflicting
    /// supplies, …) and [`NetlistError::Connectivity`] for nodes with no
    /// resistive path to a pad.
    pub fn lower(&self) -> Result<LoweredNetlist> {
        let _span = opera_trace::span("netlist.lower");
        let name = |id: usize| self.nodes.name(id).unwrap_or("?");
        // --- Supplies: the line of the card pinning each deck node.
        let mut pinned: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut vdd: Option<(f64, usize)> = None;
        for s in self.supplies() {
            let pin = pinned
                .get_mut(s.node)
                .ok_or_else(|| unknown_node(s.node, s.line))?;
            if let Some(previous) = *pin {
                return Err(NetlistError::Lowering {
                    line: s.line,
                    message: format!(
                        "node `{}` is already pinned by the supply on line {previous}",
                        name(s.node)
                    ),
                });
            }
            if let Some((volts, line)) = vdd {
                if volts != s.volts {
                    return Err(NetlistError::Lowering {
                        line: s.line,
                        message: format!(
                            "conflicting supply voltages: {volts} V (line {line}) vs {} V; \
                             the VDD-net model needs a single supply level",
                            s.volts
                        ),
                    });
                }
            } else {
                vdd = Some((s.volts, s.line));
            }
            *pin = Some(s.line);
        }
        let Some((vdd, _)) = vdd else {
            return Err(NetlistError::Deck {
                message: "no V supply card: at least one node must be pinned to VDD".to_string(),
            });
        };

        // --- Roles: the deck's nodes are in first-appearance order, so the
        // grid nodes among them are too.
        let mut nodes = NodeMap::new();
        let roles: Vec<Role> = self
            .nodes
            .iter()
            .zip(&pinned)
            .map(|((_, node), pin)| match pin {
                Some(_) => Role::Supply,
                None if is_ground(node) => Role::Ground,
                None => Role::Grid(nodes.get_or_insert(node)),
            })
            .collect();
        if nodes.is_empty() {
            return Err(NetlistError::Deck {
                message: "deck defines no grid nodes (every node is a supply or ground)"
                    .to_string(),
            });
        }

        // --- Stamp, in deck order.
        let mut grid = PowerGrid::new(nodes.len(), vdd).map_err(|e| NetlistError::Deck {
            message: e.to_string(),
        })?;
        let element = |line: usize| {
            move |e: opera_grid::GridError| NetlistError::Lowering {
                line,
                message: e.to_string(),
            }
        };
        let role =
            |id: usize, line: usize| roles.get(id).copied().ok_or_else(|| unknown_node(id, line));
        // The grid index of a capacitor's or source's node, rejecting supply
        // nodes (and ground, which only an edited `Netlist` can hold here).
        let grid_node = |id: usize, line: usize, what: &str| match role(id, line)? {
            Role::Grid(k) => Ok(k),
            Role::Supply => Err(NetlistError::Lowering {
                line,
                message: format!(
                    "{what} on supply node `{}`: the node is pinned to VDD, so the \
                     element has no effect; remove it or insert a pad resistor",
                    name(id)
                ),
            }),
            Role::Ground => Err(NetlistError::Syntax {
                line,
                message: format!("{what} has both terminals grounded"),
            }),
        };
        for card in &self.cards {
            match card {
                Card::Resistor(r) => match (role(r.a, r.line)?, role(r.b, r.line)?) {
                    (Role::Ground, _) | (_, Role::Ground) => {
                        return Err(NetlistError::Lowering {
                            line: r.line,
                            message: format!(
                                "resistor `{}` to ground is not representable in the \
                                 VDD-net model; connect it through a supply (V) node instead",
                                r.name
                            ),
                        });
                    }
                    (Role::Supply, Role::Supply) => {
                        return Err(NetlistError::Lowering {
                            line: r.line,
                            message: format!(
                                "resistor `{}` connects two supply nodes; it carries no \
                                 information about the grid",
                                r.name
                            ),
                        });
                    }
                    (Role::Supply, Role::Grid(node)) | (Role::Grid(node), Role::Supply) => {
                        grid.add_pad(node, r.conductance).map_err(element(r.line))?;
                    }
                    (Role::Grid(a), Role::Grid(b)) => {
                        let kind = if is_via_name(&r.name) {
                            BranchKind::Via
                        } else {
                            BranchKind::MetalWire
                        };
                        grid.add_wire(a, b, r.conductance, kind)
                            .map_err(element(r.line))?;
                    }
                },
                Card::Capacitor(c) => {
                    let node = grid_node(c.node, c.line, "capacitor")?;
                    grid.add_capacitor(node, c.capacitance, c.class)
                        .map_err(element(c.line))?;
                }
                Card::Current(i) => {
                    let node = grid_node(i.node, i.line, "current source")?;
                    let horizon = self.tran.map(|t| t.end_time);
                    let waveform = expand_waveform(&i.waveform, horizon, i.line)?;
                    grid.add_current_source(node, waveform, i.block)
                        .map_err(element(i.line))?;
                }
                Card::Supply(_) => {}
            }
        }

        check_connectivity(&grid, &nodes)?;
        Ok(LoweredNetlist {
            grid,
            nodes,
            tran: self.tran,
        })
    }
}

/// The error for a card terminal that is not an index into the deck's node
/// table, which only a hand-built or edited [`Netlist`] can have.
fn unknown_node(id: usize, line: usize) -> NetlistError {
    NetlistError::Lowering {
        line,
        message: format!("node index {id} is not in the deck's node table"),
    }
}

/// Expands a parsed waveform to the piecewise-linear form the grid model
/// uses. `horizon` (the `.tran` end time) bounds PULSE repetition; without
/// it a periodic PULSE is expanded for a single period.
fn expand_waveform(
    waveform: &SourceWaveform,
    horizon: Option<f64>,
    line: usize,
) -> Result<Waveform> {
    match waveform {
        SourceWaveform::Dc(value) => Ok(Waveform::constant(*value)),
        SourceWaveform::Pwl(points) => Ok(Waveform::from_points(points.clone())),
        SourceWaveform::Pulse {
            base,
            peak,
            delay,
            rise,
            fall,
            width,
            period,
        } => {
            let cycle = rise + width + fall;
            if *period > 0.0 && *period < cycle {
                return Err(NetlistError::Lowering {
                    line,
                    message: format!(
                        "PULSE period {period} is shorter than tr+pw+tf = {cycle}; \
                         consecutive pulses would overlap"
                    ),
                });
            }
            // Compare in f64 before any usize cast: a tiny period over a
            // long window yields astronomically many cycles, and a saturating
            // cast would wrap the arithmetic below instead of erroring.
            let cycles_f = match horizon {
                Some(horizon) if *period > 0.0 && horizon > *delay => {
                    ((horizon - delay) / period).ceil() + 1.0
                }
                // No .tran: a single period, as documented.
                _ => 1.0,
            };
            if !(cycles_f.is_finite() && 4.0 * cycles_f + 1.0 <= MAX_PULSE_BREAKPOINTS as f64) {
                return Err(NetlistError::Lowering {
                    line,
                    message: format!(
                        "PULSE expands to {cycles_f:.0} cycles over the .tran window; \
                         shorten .tran or increase the period"
                    ),
                });
            }
            let cycles = cycles_f as usize;
            let mut points = Vec::with_capacity(4 * cycles + 1);
            points.push((0.0, *base));
            for k in 0..cycles {
                let t0 = delay + k as f64 * period;
                points.push((t0, *base));
                points.push((t0 + rise, *peak));
                points.push((t0 + rise + width, *peak));
                points.push((t0 + rise + width + fall, *base));
            }
            Ok(Waveform::from_points(points))
        }
    }
}

/// `true` for resistor names that follow the via naming convention:
/// `rvia…` or `rv` immediately followed by a digit (`rv12`). A bare
/// `rv` prefix would be too greedy — rail names like `rvdd_m2_7` are
/// metal wires, not vias.
fn is_via_name(name: &str) -> bool {
    name.starts_with("rvia")
        || name
            .strip_prefix("rv")
            .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
}

/// Pad reachability via [`PowerGrid::first_unreached_node`]; errors with
/// the *name* of the first unreached node.
fn check_connectivity(grid: &PowerGrid, nodes: &NodeMap) -> Result<()> {
    match grid.first_unreached_node() {
        None => Ok(()),
        Some(idx) => Err(NetlistError::Connectivity {
            node: nodes.name(idx).unwrap_or("?").to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use opera_grid::CapacitorClass;

    const DECK: &str = "\
* 1x3 chain behind one pad
VDD vdd 0 1.2
Rpad vdd n0 0.1
Rw0 n0 n1 0.2
Rv1 n1 n2 0.2
C0 n1 0 1f class=gate
C1 n2 0 2f
I0 n2 0 PWL(0 0 0.5n 1m 1n 0)
.tran 0.1n 1n
.end
";

    #[test]
    fn lowers_the_reference_chain() {
        let lowered = parse(DECK).unwrap().lower().unwrap();
        let grid = &lowered.grid;
        assert_eq!(grid.node_count(), 3);
        assert_eq!(grid.vdd(), 1.2);
        assert_eq!(lowered.nodes.name(0), Some("n0"));
        assert_eq!(lowered.nodes.index("n2"), Some(2));
        assert_eq!(grid.pad_nodes(), vec![0]);
        let kinds: Vec<_> = grid.branches().iter().map(|b| b.kind).collect();
        assert_eq!(
            kinds,
            vec![
                BranchKind::PackagePad,
                BranchKind::MetalWire,
                BranchKind::Via
            ]
        );
        assert_eq!(grid.capacitors()[0].class, CapacitorClass::Gate);
        assert_eq!(grid.capacitors()[1].class, CapacitorClass::Diffusion);
        let g = grid.conductance_matrix();
        assert!(g.is_symmetric(0.0));
        assert_eq!(grid.sources().len(), 1);
        assert_eq!(grid.waveform_end_time(), 1e-9);
    }

    #[test]
    fn pulse_expansion_covers_the_tran_window() {
        let deck =
            parse("VDD s 0 1.0\nRp s a 1\nI1 a 0 PULSE(0 1m 0 0.1n 0.1n 0.3n 1n)\n.tran 0.1n 3n\n")
                .unwrap();
        let grid = deck.lower().unwrap().grid;
        let w = &grid.sources()[0].waveform;
        // Peaks repeat once per period across the whole window.
        assert!((w.value_at(0.2e-9) - 1e-3).abs() < 1e-18);
        assert!((w.value_at(1.2e-9) - 1e-3).abs() < 1e-18);
        assert!((w.value_at(2.2e-9) - 1e-3).abs() < 1e-18);
        assert_eq!(w.value_at(0.8e-9), 0.0);
        assert!(w.end_time() >= 3e-9);
    }

    #[test]
    fn via_naming_is_rvia_or_rv_digit_only() {
        // `rvdd…` is a rail name, not a via; `rvia…`/`rv<digit>` are vias.
        let deck =
            parse("VDD s 0 1.0\nRp s a 1\nRvdd_m2 a b 1\nRvia3 b c 1\nRv7 c d 1\nRw d e 1\n")
                .unwrap();
        let kinds: Vec<_> = deck
            .lower()
            .unwrap()
            .grid
            .branches()
            .iter()
            .map(|b| b.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                BranchKind::PackagePad,
                BranchKind::MetalWire, // rvdd_m2
                BranchKind::Via,       // rvia3
                BranchKind::Via,       // rv7
                BranchKind::MetalWire, // rw
            ]
        );
    }

    #[test]
    fn pulse_without_tran_expands_a_single_period() {
        let deck =
            parse("VDD s 0 1.0\nRp s a 1\nI1 a 0 PULSE(0 1m 0 0.1n 0.1n 0.3n 1n)\n").unwrap();
        let grid = deck.lower().unwrap().grid;
        let w = &grid.sources()[0].waveform;
        assert!((w.value_at(0.2e-9) - 1e-3).abs() < 1e-18);
        // Exactly one period of breakpoints: 1 leading + 4 per cycle.
        assert_eq!(w.points().len(), 5);
        assert!((w.end_time() - 0.5e-9).abs() < 1e-18);
    }

    #[test]
    fn runaway_pulse_expansion_errors_instead_of_overflowing() {
        // A 1e-30 s period over a 1 ns window is ~1e21 cycles: must be a
        // structured error, not an overflow panic (debug) or a silently
        // flat source (release).
        let deck = parse("VDD s 0 1.0\nRp s a 1\nI1 a 0 PULSE(0 1m 0 0 0 0 1e-30)\n.tran 1n 1n\n")
            .unwrap();
        let err = deck.lower().unwrap_err();
        assert!(
            matches!(err, NetlistError::Lowering { line: 3, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("cycles"), "{err}");
    }

    #[test]
    fn an_edited_terminal_outside_the_node_table_is_an_error() {
        // (card, its deck line): the pad resistor and the supply.
        for (card, line) in [(1, 3), (0, 2)] {
            let mut deck = parse(DECK).unwrap();
            match &mut deck.cards[card] {
                Card::Resistor(r) => r.b = 99,
                Card::Supply(s) => s.node = 99,
                other => panic!("unexpected card {other:?}"),
            }
            let err = deck.lower().unwrap_err();
            assert!(
                matches!(err, NetlistError::Lowering { line: l, .. } if l == line),
                "{err}"
            );
            assert!(err.to_string().contains("node index 99"), "{err}");
        }
    }

    #[test]
    fn dangling_node_is_named() {
        let err = parse("VDD s 0 1.0\nRp s a 1\nC1 floaty 0 1f\n")
            .unwrap()
            .lower()
            .unwrap_err();
        assert_eq!(
            err,
            NetlistError::Connectivity {
                node: "floaty".to_string()
            }
        );
    }
}
