//! Circuit-level power-grid model and MNA stamping.

use opera_sparse::{CsrMatrix, TripletMatrix};

use crate::{GridError, Result, Waveform};

/// Classification of a resistive branch — used by the variation models to
/// decide which branches are affected by which process parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// An on-chip metal stripe segment (width/thickness variation applies).
    MetalWire,
    /// A via between metal layers.
    Via,
    /// A package/C4 pad connection to the external VDD supply.
    PackagePad,
}

/// Classification of a grounded capacitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CapacitorClass {
    /// Gate capacitance of driven transistors — varies with `Leff`
    /// (about 40 % of the total grid capacitance in the paper's model).
    Gate,
    /// Source/drain diffusion capacitance — treated as fixed.
    Diffusion,
    /// Interconnect (wire-to-ground) capacitance — treated as fixed; the
    /// paper notes it is only ~5 % of the total.
    Interconnect,
}

/// A two-terminal conductance. `b == None` means the branch connects node `a`
/// to the external VDD supply (a package pad): the ideal source is folded
/// into the MNA formulation as a Norton equivalent, contributing `g` to the
/// diagonal and `g·VDD` to the excitation vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ResistiveBranch {
    /// Kind of physical structure this branch models.
    pub kind: BranchKind,
    /// First node.
    pub a: usize,
    /// Second node, or `None` for a connection to the VDD supply.
    pub b: Option<usize>,
    /// Branch conductance in siemens (must be positive).
    pub conductance: f64,
}

/// A grounded capacitor attached to a grid node.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    /// Node the capacitor is attached to.
    pub node: usize,
    /// Physical origin of the capacitance.
    pub class: CapacitorClass,
    /// Capacitance in farads (must be non-negative).
    pub capacitance: f64,
}

/// A transient drain-current source drawing current from a grid node to
/// ground (a functional block's switching current).
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentSource {
    /// Node the block draws current from.
    pub node: usize,
    /// Current waveform in amperes.
    pub waveform: Waveform,
    /// Identifier of the functional block this source belongs to (used by
    /// intra-die variation models that assign different random variables to
    /// different chip regions).
    pub block: usize,
}

/// An RC model of an on-chip power distribution grid.
///
/// See the crate-level documentation for the modelling assumptions. All
/// matrices are stamped over the grid nodes only (the VDD net is eliminated
/// via Norton equivalents of the pad connections), so the conductance matrix
/// is symmetric positive definite as long as every node has a resistive path
/// to some pad.
#[derive(Debug, Clone)]
pub struct PowerGrid {
    node_count: usize,
    vdd: f64,
    branches: Vec<ResistiveBranch>,
    capacitors: Vec<Capacitor>,
    sources: Vec<CurrentSource>,
}

impl PowerGrid {
    /// Creates an empty grid with `node_count` nodes and the given supply
    /// voltage.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::InvalidSpec`] if `node_count == 0` or `vdd <= 0`.
    pub fn new(node_count: usize, vdd: f64) -> Result<Self> {
        if node_count == 0 {
            return Err(GridError::InvalidSpec {
                reason: "a grid needs at least one node".to_string(),
            });
        }
        if crate::is_not_positive(vdd) {
            return Err(GridError::InvalidSpec {
                reason: format!("supply voltage must be positive, got {vdd}"),
            });
        }
        Ok(PowerGrid {
            node_count,
            vdd,
            branches: Vec::new(),
            capacitors: Vec::new(),
            sources: Vec::new(),
        })
    }

    /// Number of grid nodes (unknown voltages).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Supply voltage in volts.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// All resistive branches.
    pub fn branches(&self) -> &[ResistiveBranch] {
        &self.branches
    }

    /// All grounded capacitors.
    pub fn capacitors(&self) -> &[Capacitor] {
        &self.capacitors
    }

    /// All drain-current sources.
    pub fn sources(&self) -> &[CurrentSource] {
        &self.sources
    }

    /// Nodes that have a pad (supply) connection.
    pub fn pad_nodes(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self
            .branches
            .iter()
            .filter(|b| b.b.is_none())
            .map(|b| b.a)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    fn check_node(&self, node: usize) -> Result<()> {
        if node >= self.node_count {
            return Err(GridError::UnknownNode {
                node,
                node_count: self.node_count,
            });
        }
        Ok(())
    }

    /// Adds a metal wire or via between two distinct nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::UnknownNode`] for out-of-range nodes and
    /// [`GridError::InvalidElement`] for non-positive conductance or `a == b`.
    pub fn add_wire(
        &mut self,
        a: usize,
        b: usize,
        conductance: f64,
        kind: BranchKind,
    ) -> Result<()> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(GridError::InvalidElement {
                reason: format!("wire endpoints must differ (both are node {a})"),
            });
        }
        if conductance <= 0.0 || !conductance.is_finite() {
            return Err(GridError::InvalidElement {
                reason: format!("wire conductance must be positive and finite, got {conductance}"),
            });
        }
        self.branches.push(ResistiveBranch {
            kind,
            a,
            b: Some(b),
            conductance,
        });
        Ok(())
    }

    /// Adds a package pad: a conductance from `node` to the external VDD
    /// supply.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::UnknownNode`] or [`GridError::InvalidElement`].
    pub fn add_pad(&mut self, node: usize, conductance: f64) -> Result<()> {
        self.check_node(node)?;
        if conductance <= 0.0 || !conductance.is_finite() {
            return Err(GridError::InvalidElement {
                reason: format!("pad conductance must be positive and finite, got {conductance}"),
            });
        }
        self.branches.push(ResistiveBranch {
            kind: BranchKind::PackagePad,
            a: node,
            b: None,
            conductance,
        });
        Ok(())
    }

    /// Adds a grounded capacitor.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::UnknownNode`] or [`GridError::InvalidElement`].
    pub fn add_capacitor(
        &mut self,
        node: usize,
        capacitance: f64,
        class: CapacitorClass,
    ) -> Result<()> {
        self.check_node(node)?;
        if capacitance < 0.0 || !capacitance.is_finite() {
            return Err(GridError::InvalidElement {
                reason: format!("capacitance must be non-negative and finite, got {capacitance}"),
            });
        }
        self.capacitors.push(Capacitor {
            node,
            class,
            capacitance,
        });
        Ok(())
    }

    /// Adds a transient drain-current source belonging to functional block
    /// `block`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::UnknownNode`] for an out-of-range node.
    pub fn add_current_source(
        &mut self,
        node: usize,
        waveform: Waveform,
        block: usize,
    ) -> Result<()> {
        self.check_node(node)?;
        self.sources.push(CurrentSource {
            node,
            waveform,
            block,
        });
        Ok(())
    }

    /// Scales every current waveform by `alpha` (used to calibrate the peak
    /// IR drop to a fraction of VDD, as the paper does).
    pub fn scale_currents(&mut self, alpha: f64) {
        for s in &mut self.sources {
            s.waveform = s.waveform.scaled(alpha);
        }
    }

    /// Nominal conductance matrix `G` (all branch weights 1).
    pub fn conductance_matrix(&self) -> CsrMatrix {
        self.conductance_matrix_weighted(|_| 1.0)
    }

    /// Conductance matrix with a per-branch multiplier: each branch is
    /// stamped with `weight(branch) · branch.conductance`. Used to build the
    /// perturbation matrices `G_g` (only metal wires affected by `ξ_G`) and
    /// sensitivity/ablation variants.
    pub fn conductance_matrix_weighted(
        &self,
        weight: impl Fn(&ResistiveBranch) -> f64,
    ) -> CsrMatrix {
        let mut t =
            TripletMatrix::with_capacity(self.node_count, self.node_count, 4 * self.branches.len());
        for branch in &self.branches {
            let g = branch.conductance * weight(branch);
            if g == 0.0 {
                continue;
            }
            match branch.b {
                Some(b) => t.add_symmetric_pair(branch.a, b, g),
                None => t.add_to_ground(branch.a, g),
            }
        }
        t.to_csr()
    }

    /// Nominal (diagonal) capacitance matrix `C`.
    pub fn capacitance_matrix(&self) -> CsrMatrix {
        self.capacitance_matrix_weighted(|_| 1.0)
    }

    /// Capacitance matrix with a per-capacitor multiplier; used to build the
    /// `C_c` perturbation matrix (only gate capacitance varies with `Leff`).
    pub fn capacitance_matrix_weighted(&self, weight: impl Fn(&Capacitor) -> f64) -> CsrMatrix {
        let mut diag = vec![0.0; self.node_count];
        for cap in &self.capacitors {
            diag[cap.node] += cap.capacitance * weight(cap);
        }
        CsrMatrix::from_diagonal(&diag)
    }

    /// The constant part of the excitation coming from the pad connections:
    /// `u_pad[n] = Σ_{pads at n} g_pad · VDD`.
    pub fn pad_injection_vector(&self) -> Vec<f64> {
        self.pad_injection_weighted(|_| 1.0)
    }

    /// Pad injection with a per-branch multiplier (pads whose conductance
    /// varies also perturb the excitation, paper Eq. 13).
    pub fn pad_injection_weighted(&self, weight: impl Fn(&ResistiveBranch) -> f64) -> Vec<f64> {
        let mut u = vec![0.0; self.node_count];
        for branch in &self.branches {
            if branch.b.is_none() {
                u[branch.a] += branch.conductance * weight(branch) * self.vdd;
            }
        }
        u
    }

    /// The full excitation vector `u(t) = u_pad − i(t)` of the MNA system
    /// `G·v + C·dv/dt = u(t)`.
    pub fn excitation(&self, t: f64) -> Vec<f64> {
        let mut u = vec![0.0; self.node_count];
        self.excitation_into(t, &self.pad_injection_vector(), &mut u, &mut []);
        u
    }

    /// [`excitation`](Self::excitation) written into `u` from the pad
    /// injection `pad` (the [`pad_injection_vector`](Self::pad_injection_vector)),
    /// one evaluation per source waveform; unless `drain` is empty, the
    /// drain currents `i(t)` are summed into it too.
    ///
    /// # Panics
    ///
    /// Panics if `pad` and `u` differ in length or are shorter than the
    /// node count, or if `drain` is neither empty nor of `u`'s length.
    pub fn excitation_into(&self, t: f64, pad: &[f64], u: &mut [f64], drain: &mut [f64]) {
        assert!(
            drain.is_empty() || drain.len() == u.len(),
            "drain length mismatch"
        );
        u.copy_from_slice(pad);
        drain.fill(0.0);
        for source in &self.sources {
            let value = source.waveform.value_at(t);
            u[source.node] -= value;
            if let Some(i_n) = drain.get_mut(source.node) {
                *i_n += value;
            }
        }
    }

    /// Total grid capacitance in farads.
    pub fn total_capacitance(&self) -> f64 {
        self.capacitors.iter().map(|c| c.capacitance).sum()
    }

    /// Total capacitance of one class in farads.
    pub fn capacitance_of_class(&self, class: CapacitorClass) -> f64 {
        self.capacitors
            .iter()
            .filter(|c| c.class == class)
            .map(|c| c.capacitance)
            .sum()
    }

    /// Sum of the peak currents of all sources (a pessimistic bound on the
    /// total instantaneous current).
    pub fn peak_total_current(&self) -> f64 {
        self.sources.iter().map(|s| s.waveform.peak()).sum()
    }

    /// Latest breakpoint over all source waveforms — a natural end time for
    /// transient analysis.
    pub fn waveform_end_time(&self) -> f64 {
        self.sources
            .iter()
            .map(|s| s.waveform.end_time())
            .fold(0.0, f64::max)
    }

    /// The lowest-indexed node with no resistive path to any pad, or `None`
    /// when the grid is fully pad-connected (which is what makes the
    /// conductance matrix positive definite). The netlist front end uses
    /// this to report unreachable nodes by *name*.
    pub fn first_unreached_node(&self) -> Option<usize> {
        // The wire adjacency in CSR form, from a degree count, a prefix sum
        // and one fill that walks each node's cursor back to its row start.
        let n = self.node_count;
        let wires = || self.branches.iter().filter_map(|w| w.b.map(|b| (w.a, b)));
        let mut start = vec![0usize; n + 1];
        for (a, b) in wires() {
            start[a] += 1;
            start[b] += 1;
        }
        for node in 0..n {
            start[node + 1] += start[node];
        }
        let mut neighbours = vec![0usize; start[n]];
        for (a, b) in wires() {
            start[a] -= 1;
            neighbours[start[a]] = b;
            start[b] -= 1;
            neighbours[start[b]] = a;
        }
        // Search from the pads; each node is pushed at most once.
        let mut reached = vec![false; n];
        let mut pending = Vec::with_capacity(n);
        for pad in self.branches.iter().filter(|branch| branch.b.is_none()) {
            if !reached[pad.a] {
                reached[pad.a] = true;
                pending.push(pad.a);
            }
        }
        while let Some(u) = pending.pop() {
            for &v in &neighbours[start[u]..start[u + 1]] {
                if !reached[v] {
                    reached[v] = true;
                    pending.push(v);
                }
            }
        }
        reached.iter().position(|&r| !r)
    }

    /// Checks that every node has a resistive path to at least one pad, which
    /// is what makes the conductance matrix positive definite.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::InvalidSpec`] naming one unreachable node.
    pub fn validate_connectivity(&self) -> Result<()> {
        match self.first_unreached_node() {
            None => Ok(()),
            Some(node) => Err(GridError::InvalidSpec {
                reason: format!("node {node} has no resistive path to any pad"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-node chain: pad — n0 — n1 — n2, caps and one source on n2.
    fn small_grid() -> PowerGrid {
        let mut g = PowerGrid::new(3, 1.2).unwrap();
        g.add_pad(0, 10.0).unwrap();
        g.add_wire(0, 1, 5.0, BranchKind::MetalWire).unwrap();
        g.add_wire(1, 2, 5.0, BranchKind::MetalWire).unwrap();
        g.add_capacitor(1, 1.0e-15, CapacitorClass::Gate).unwrap();
        g.add_capacitor(2, 2.0e-15, CapacitorClass::Diffusion)
            .unwrap();
        g.add_current_source(2, Waveform::constant(1.0e-3), 0)
            .unwrap();
        g
    }

    #[test]
    fn conductance_matrix_is_spd_stamped() {
        let g = small_grid();
        let gm = g.conductance_matrix();
        assert_eq!(gm.nrows(), 3);
        assert!(gm.is_symmetric(0.0));
        assert_eq!(gm.get(0, 0), 15.0); // pad 10 + wire 5
        assert_eq!(gm.get(0, 1), -5.0);
        assert_eq!(gm.get(1, 1), 10.0);
        assert_eq!(gm.get(2, 2), 5.0);
    }

    #[test]
    fn weighted_conductance_selects_branch_kinds() {
        let g = small_grid();
        let wires_only = g.conductance_matrix_weighted(|b| {
            if b.kind == BranchKind::MetalWire {
                1.0
            } else {
                0.0
            }
        });
        assert_eq!(wires_only.get(0, 0), 5.0); // pad excluded
        assert_eq!(wires_only.get(0, 1), -5.0);
    }

    #[test]
    fn capacitance_matrix_is_diagonal_by_class() {
        let g = small_grid();
        let c = g.capacitance_matrix();
        assert_eq!(c.get(1, 1), 1.0e-15);
        assert_eq!(c.get(2, 2), 2.0e-15);
        assert_eq!(c.get(0, 0), 0.0);
        let gate_only = g.capacitance_matrix_weighted(|cap| {
            if cap.class == CapacitorClass::Gate {
                1.0
            } else {
                0.0
            }
        });
        assert_eq!(gate_only.get(2, 2), 0.0);
        assert_eq!(gate_only.get(1, 1), 1.0e-15);
        assert!((g.capacitance_of_class(CapacitorClass::Gate) - 1.0e-15).abs() < 1e-30);
        assert!((g.total_capacitance() - 3.0e-15).abs() < 1e-30);
    }

    #[test]
    fn excitation_combines_pads_and_drains() {
        let g = small_grid();
        let u = g.excitation(0.0);
        assert!((u[0] - 12.0).abs() < 1e-12); // 10 S × 1.2 V
        assert_eq!(u[1], 0.0);
        assert!((u[2] + 1.0e-3).abs() < 1e-15);
        assert_eq!(g.pad_nodes(), vec![0]);
        assert!((g.peak_total_current() - 1.0e-3).abs() < 1e-15);
    }

    #[test]
    fn dc_solution_matches_hand_computation() {
        // Solve G v = u at t = 0 and check the voltage drop at node 2:
        // current 1 mA flows through pad (0.1 Ω) + two 0.2 Ω wires.
        let g = small_grid();
        let gm = g.conductance_matrix();
        let u = g.excitation(0.0);
        let v = opera_sparse::cholesky_solve(&gm, &u).unwrap();
        let drop2 = g.vdd() - v[2];
        let expected = 1.0e-3 * (1.0 / 10.0 + 1.0 / 5.0 + 1.0 / 5.0);
        assert!((drop2 - expected).abs() < 1e-12);
    }

    #[test]
    fn validation_detects_floating_nodes() {
        let mut g = PowerGrid::new(3, 1.0).unwrap();
        g.add_pad(0, 1.0).unwrap();
        g.add_wire(0, 1, 1.0, BranchKind::MetalWire).unwrap();
        // Node 2 is floating.
        assert!(matches!(
            g.validate_connectivity(),
            Err(GridError::InvalidSpec { .. })
        ));
        g.add_wire(1, 2, 1.0, BranchKind::Via).unwrap();
        assert!(g.validate_connectivity().is_ok());
    }

    #[test]
    fn invalid_elements_are_rejected() {
        let mut g = PowerGrid::new(2, 1.0).unwrap();
        assert!(g.add_wire(0, 0, 1.0, BranchKind::MetalWire).is_err());
        assert!(g.add_wire(0, 5, 1.0, BranchKind::MetalWire).is_err());
        assert!(g.add_wire(0, 1, -1.0, BranchKind::MetalWire).is_err());
        assert!(g.add_pad(0, 0.0).is_err());
        assert!(g.add_capacitor(0, -1.0, CapacitorClass::Gate).is_err());
        assert!(g.add_current_source(9, Waveform::constant(0.0), 0).is_err());
        assert!(PowerGrid::new(0, 1.0).is_err());
        assert!(PowerGrid::new(5, 0.0).is_err());
    }

    #[test]
    fn scaling_currents_scales_excitation() {
        let mut g = small_grid();
        let before = g.excitation(0.0)[2];
        g.scale_currents(2.0);
        let after = g.excitation(0.0)[2];
        assert!((after - 2.0 * before).abs() < 1e-15);
    }
}
