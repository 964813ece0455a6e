//! Edge cases of the streaming lexer: line endings, continuations across
//! comments and blank lines, case folding, inline comments inside waveform
//! lists, and which error wins when a deck has several — plus a full-scale
//! round trip of the paper's first Table-1 grid (`#[ignore]`d: run it with
//! `cargo test --release -p opera-netlist --test streaming_lexer --
//! --ignored`).

use opera_grid::GridSpec;
use opera_netlist::{export_grid, parse, Card, NetlistError, SourceWaveform};

const DECK: &str = "* chain\n\
                    VDD p 0 1.2\n\
                    Rpad p n1 0.1\n\
                    Rw1 n1 n2 0.2\n\
                    C1 n2 0 1f class=gate\n\
                    I1 n2 0 PWL(0 0 1n 2m 2n 0) block=2\n\
                    .tran 10p 2n\n\
                    .end\n";

#[test]
fn crlf_line_endings_parse_like_lf() {
    let crlf = DECK.replace('\n', "\r\n");
    assert_eq!(parse(&crlf).unwrap(), parse(DECK).unwrap());
    // Error lines count CRLF lines the same way.
    let err = parse("V1 p 0 1.2\r\nR1 p n1 0.1\r\n\r\nR1 n1 n2 0.1\r\n").unwrap_err();
    assert_eq!(
        err,
        NetlistError::Duplicate {
            line: 4,
            previous_line: 2,
            name: "r1".to_string(),
        }
    );
}

#[test]
fn continuations_skip_comments_and_blank_lines() {
    let deck = parse(
        "VDD p 0 1.2\n\
         I1 p 0 PWL(0 0\n\
         \n\
         * a comment between a card and its continuation\n\
         \t\n\
         + 1n 2m\n\
         ; a comment-only line\n\
         + 2n 0)\n\
         R1 p n1 0.1\n",
    )
    .unwrap();
    let Card::Current(source) = &deck.cards[1] else {
        panic!("expected the current source second: {:?}", deck.cards[1]);
    };
    assert_eq!(source.line, 2);
    assert_eq!(
        source.waveform,
        SourceWaveform::Pwl(vec![(0.0, 0.0), (1e-9, 2e-3), (2e-9, 0.0)])
    );
    assert_eq!(deck.cards[2].line(), 9);
}

#[test]
fn a_continuation_on_line_one_is_an_error_at_line_one() {
    for deck in ["+ R1 a b 1\nV1 a 0 1\n", "  + 1n 2m\n", "+\n"] {
        let err = parse(deck).unwrap_err();
        assert!(
            matches!(err, NetlistError::Syntax { line: 1, .. }),
            "{deck:?}: {err}"
        );
    }
    // After leading comments and blank lines the line number still counts
    // them.
    let err = parse("* title\n\n+ 1 2\n").unwrap_err();
    assert!(matches!(err, NetlistError::Syntax { line: 3, .. }), "{err}");
}

#[test]
fn mixed_case_folds_to_lower_case() {
    let upper = DECK.to_ascii_uppercase();
    let mixed = "* Chain\nvDd P 0 1.2\nRPad P N1 0.1\nrW1 N1 n2 0.2\nC1 n2 0 1F Class=Gate\n\
                 i1 N2 0 pwl(0 0 1N 2M 2n 0) BLOCK=2\n.Tran 10P 2n\n.END\n";
    let reference = parse(DECK).unwrap();
    assert_eq!(parse(&upper).unwrap(), reference);
    assert_eq!(parse(mixed).unwrap(), reference);
    assert_eq!(reference.cards[1].name(), "rpad");
}

#[test]
fn inline_comments_inside_waveform_lists_end_the_line() {
    let deck = parse(
        "VDD p 0 1.2\n\
         I1 p 0 PWL(0 0 $ the first point\n\
         + 1n 2m ; the second point, 5n 9m is commented out\n\
         + 2n 0) $ closing\n\
         I2 p 0 PULSE(0 1m 0.1n 0.1n 0.1n 0.3n 1n) ; block=7 is a comment\n",
    )
    .unwrap();
    let sources: Vec<_> = deck.current_sources().collect();
    assert_eq!(
        sources[0].waveform,
        SourceWaveform::Pwl(vec![(0.0, 0.0), (1e-9, 2e-3), (2e-9, 0.0)])
    );
    assert_eq!(sources[1].block, 0);
    // A comment that cuts a PWL short leaves an odd value count.
    let err = parse("I1 p 0 PWL(0 0 1n $ 2m 2n 0)\n").unwrap_err();
    assert!(matches!(err, NetlistError::Syntax { line: 1, .. }), "{err}");
    assert!(err.to_string().contains("even"), "{err}");
}

#[test]
fn duplicate_names_report_both_lines_case_insensitively() {
    // The duplicate's own line is its first physical line, even when the
    // first occurrence spans continuations.
    let err = parse(
        "V1 p 0 1.2\n\
         R1 p\n\
         + n1 0.1\n\
         * between\n\
         r1 n1 n2 0.1\n",
    )
    .unwrap_err();
    assert_eq!(
        err,
        NetlistError::Duplicate {
            line: 5,
            previous_line: 2,
            name: "r1".to_string(),
        }
    );
    // Names are unique across element kinds too.
    let err = parse("V1 p 0 1.2\nRx p n1 0.1\nC1 n1 0 1f\nc1 n1 0 2f\n").unwrap_err();
    assert_eq!(
        err,
        NetlistError::Duplicate {
            line: 4,
            previous_line: 3,
            name: "c1".to_string(),
        }
    );
}

#[test]
fn the_first_error_in_deck_order_wins() {
    // A duplicate before a malformed card.
    let err = parse("V1 p 0 1.2\nR1 p n1 0.1\nR1 n1 n2 0.1\nR2 n1\n").unwrap_err();
    assert!(
        matches!(err, NetlistError::Duplicate { line: 3, .. }),
        "{err}"
    );
    // A malformed card before a duplicate.
    let err = parse("V1 p 0 1.2\nR1 p n1 0.1\nR2 n1\nR1 n1 n2 0.1\n").unwrap_err();
    assert!(matches!(err, NetlistError::Syntax { line: 3, .. }), "{err}");
    // A card completed by a later continuation is judged whole, before the
    // next card.
    let err = parse("V1 p 0 1.2\nR1 p n1\n+ 0.1 extra\nR1 n1 n2 0.1\n").unwrap_err();
    assert!(matches!(err, NetlistError::Syntax { line: 2, .. }), "{err}");
    // Nothing after `.end` is read, not even a malformed card.
    let netlist = parse("V1 p 0 1.2\nR1 p n1 0.1\n.end\n+ stray\nR1 bogus\n").unwrap();
    assert_eq!(netlist.cards.len(), 2);
}

/// The paper's first Table-1 grid (19 239 nodes) survives export → parse →
/// lower with bit-identical stamps.
#[test]
#[ignore = "full-scale grid: run in release with --ignored"]
fn paper_grid_round_trips_with_bit_identical_stamps() {
    let grid = GridSpec::paper_grid(0).unwrap().build().unwrap();
    let deck = export_grid(&grid, None).unwrap();
    let lowered = parse(&deck).unwrap().lower().unwrap();
    let again = &lowered.grid;
    assert_eq!(again.node_count(), grid.node_count());
    assert_eq!(again.branches(), grid.branches());
    assert_eq!(again.capacitors(), grid.capacitors());
    assert_eq!(again.sources(), grid.sources());
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    for (a, b) in [
        (again.conductance_matrix(), grid.conductance_matrix()),
        (again.capacitance_matrix(), grid.capacitance_matrix()),
    ] {
        assert_eq!((a.indptr(), a.indices()), (b.indptr(), b.indices()));
        assert_eq!(bits(a.data().to_vec()), bits(b.data().to_vec()));
    }
    assert_eq!(
        bits(again.pad_injection_vector()),
        bits(grid.pad_injection_vector())
    );
    let end = grid.waveform_end_time();
    for k in 0..=8 {
        let t = end * k as f64 / 8.0;
        assert_eq!(
            bits(again.excitation(t)),
            bits(grid.excitation(t)),
            "t = {t}"
        );
    }
}
