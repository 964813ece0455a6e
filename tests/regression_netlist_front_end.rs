//! Pins of the netlist front end (`parse` + `lower`): what it hands the
//! engine, bit for bit, and how little it allocates per card.
//!
//! The hashes were recorded before node names were interned at parse time;
//! any change to node indices, stamping order, values, names or the `.tran`
//! window moves them. Run with
//! `cargo test --release --test regression_netlist_front_end`.

mod common;

use common::allocations_so_far;

use opera_grid::{BranchKind, CapacitorClass, GridSpec};
use opera_netlist::{export_grid, parse, LoweredNetlist, TranMethod};

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }
}

/// Hashes the grid's node count, supply, branch, pad, capacitor and source
/// arrays (value bits included), the node names in index order and the
/// `.tran` window.
fn fingerprint(lowered: &LoweredNetlist) -> u64 {
    let grid = &lowered.grid;
    let mut h = Fnv::new();
    h.word(grid.node_count() as u64);
    h.float(grid.vdd());
    h.word(grid.branches().len() as u64);
    for branch in grid.branches() {
        h.word(match branch.kind {
            BranchKind::MetalWire => 0,
            BranchKind::Via => 1,
            BranchKind::PackagePad => 2,
        });
        h.word(branch.a as u64);
        h.word(branch.b.map_or(u64::MAX, |b| b as u64));
        h.float(branch.conductance);
    }
    let pads = grid.pad_nodes();
    h.word(pads.len() as u64);
    for pad in pads {
        h.word(pad as u64);
    }
    h.word(grid.capacitors().len() as u64);
    for cap in grid.capacitors() {
        h.word(cap.node as u64);
        h.word(match cap.class {
            CapacitorClass::Gate => 0,
            CapacitorClass::Diffusion => 1,
            CapacitorClass::Interconnect => 2,
        });
        h.float(cap.capacitance);
    }
    h.word(grid.sources().len() as u64);
    for source in grid.sources() {
        h.word(source.node as u64);
        h.word(source.block as u64);
        let points = source.waveform.points();
        h.word(points.len() as u64);
        for &(t, v) in points {
            h.float(t);
            h.float(v);
        }
    }
    h.word(lowered.nodes.len() as u64);
    for (index, name) in lowered.nodes.iter() {
        h.word(index as u64);
        h.word(name.len() as u64);
        h.bytes(name.as_bytes());
    }
    match lowered.tran {
        None => h.word(0),
        Some(tran) => {
            h.word(1);
            h.float(tran.time_step);
            h.float(tran.end_time);
            h.word(match tran.method {
                None => 0,
                Some(TranMethod::BackwardEuler) => 1,
                Some(TranMethod::Trapezoidal) => 2,
                Some(TranMethod::TrBdf2) => 3,
            });
        }
    }
    h.0
}

#[test]
fn lowered_decks_are_bit_identical_to_the_pins() {
    let grid = GridSpec::paper_grid(0)
        .unwrap()
        .scaled_nodes(0.1)
        .build()
        .unwrap();
    let exported = export_grid(&grid, None).unwrap();
    let golden = std::fs::read_to_string(fixture("ibmpg_style.sp")).unwrap();
    for (label, deck, pinned) in [
        (
            "exported paper grid 0 at 10 %",
            &exported,
            0x0523_cce4_407a_e615u64,
        ),
        ("ibmpg_style.sp", &golden, 0x4690_16b7_f905_ffbd),
    ] {
        let lowered = parse(deck).unwrap().lower().unwrap();
        let hash = fingerprint(&lowered);
        assert_eq!(
            hash, pinned,
            "{label}: front-end output moved ({hash:#018x})"
        );
    }
}

/// Heap allocations `parse` + `lower` make on this thread for `deck`.
fn front_end_allocations(deck: &str) -> u64 {
    let before = allocations_so_far();
    let lowered = parse(deck).unwrap().lower().unwrap();
    let made = allocations_so_far() - before;
    drop(lowered);
    made
}

#[test]
fn extra_cards_on_known_nodes_allocate_almost_nothing() {
    let grid = GridSpec::small_test(120).build().unwrap();
    let deck = export_grid(&grid, None).unwrap();
    let body = deck
        .strip_suffix(".end\n")
        .expect("exported decks end with .end");
    let mut extended = body.to_string();
    for k in 0..1_000 {
        extended.push_str(&format!(
            "cextra{k} n{} 0 1f class=gate\n",
            k % grid.node_count()
        ));
    }
    extended.push_str(".end\n");
    // Warm up anything the first parse initialises lazily.
    front_end_allocations(&deck);
    let base = front_end_allocations(&deck);
    let more = front_end_allocations(&extended);
    assert!(
        more < base + 50,
        "1 000 extra capacitor cards cost {} allocations ({base} → {more})",
        more.saturating_sub(base)
    );
}

/// The connectivity check every lowering runs builds its wire adjacency in
/// CSR form: a handful of allocations, the same for a grid ten times
/// larger, and the same first unreached node on a disconnected grid.
#[test]
fn connectivity_check_allocates_a_handful_whatever_the_node_count() {
    let allocations = |grid: &opera_grid::PowerGrid| {
        let before = allocations_so_far();
        assert_eq!(grid.first_unreached_node(), None);
        allocations_so_far() - before
    };
    let small = GridSpec::small_test(120).build().unwrap();
    let large = GridSpec::small_test(1_200).build().unwrap();
    let (few, many) = (allocations(&small), allocations(&large));
    assert!(few <= 6, "the check made {few} allocations");
    assert_eq!(
        many,
        few,
        "{} nodes took {many} allocations, {} nodes {few}",
        large.node_count(),
        small.node_count()
    );

    let mut split = opera_grid::PowerGrid::new(5, 1.0).unwrap();
    split.add_pad(3, 1.0).unwrap();
    split.add_wire(3, 4, 1.0, BranchKind::MetalWire).unwrap();
    split.add_wire(0, 1, 1.0, BranchKind::Via).unwrap();
    split.add_wire(1, 2, 1.0, BranchKind::MetalWire).unwrap();
    assert_eq!(split.first_unreached_node(), Some(0));
    split.add_wire(2, 4, 1.0, BranchKind::MetalWire).unwrap();
    assert_eq!(split.first_unreached_node(), None);
}
