//! Card-level parsing: the lexer's cards → the [`Netlist`] IR, one card
//! at a time.

use std::hash::{BuildHasher, RandomState};

use crate::deck::{
    CapacitorCard, Card, CurrentSourceCard, Netlist, ResistorCard, SourceWaveform, SupplyCard,
    TranMethod, TranSpec,
};
use crate::lexer::{Fields, Lexer};
use crate::value::parse_value;
use crate::{NetlistError, Result};
use opera_grid::{CapacitorClass, NodeMap};

/// Node names that mean "ground" (the reference net of the VDD-net model).
pub const GROUND_NAMES: [&str; 2] = ["0", "gnd"];

/// `true` when `name` (lower-cased) denotes the ground net.
///
/// ```
/// use opera_netlist::is_ground;
///
/// assert!(is_ground("0") && is_ground("gnd"));
/// assert!(!is_ground("n1_0_0"));
/// ```
pub fn is_ground(name: &str) -> bool {
    GROUND_NAMES.contains(&name)
}

/// Parses deck text into a validated [`Netlist`].
///
/// Per-card validation happens here (grammar, arity, numeric values,
/// duplicate element names); whole-circuit checks happen in
/// [`Netlist::lower`]. Node names are interned into [`Netlist::nodes`] as
/// each card is parsed, so the cards carry node indices. See
/// `docs/NETLIST.md` for the accepted grammar.
///
/// # Errors
///
/// Returns the first [`NetlistError`] encountered, with the deck line it
/// points at.
///
/// # Example
///
/// ```
/// use opera_netlist::parse;
///
/// let deck = parse(
///     "* two-node chain\n\
///      VDD vddnode 0 1.8\n\
///      Rpad vddnode n1 0.05\n\
///      Rw1 n1 n2 0.2\n\
///      C1 n2 0 10f class=gate\n\
///      I1 n2 0 PWL(0 0 1n 5m 2n 0)\n\
///      .tran 50p 2n\n\
///      .end\n",
/// )
/// .unwrap();
/// assert_eq!(deck.cards.len(), 5);
/// assert!(deck.tran.is_some());
/// ```
pub fn parse(text: &str) -> Result<Netlist> {
    let _span = opera_trace::span("netlist.parse");
    let mut deck = Netlist {
        cards: Vec::new(),
        nodes: NodeMap::new(),
        tran: None,
    };
    let parsed = parse_cards(text, &mut deck);
    // A repeated element name is an error of the card that repeats it, so
    // it wins over whatever stopped the parse further down the deck.
    if let Some((card, first)) = first_duplicate(&deck.cards) {
        let (card, first) = (&deck.cards[card], &deck.cards[first]);
        return Err(NetlistError::Duplicate {
            line: card.line(),
            previous_line: first.line(),
            name: card.name().to_string(),
        });
    }
    parsed.map(|()| deck)
}

/// Parses cards into `deck` until `.end`, the end of the text or the
/// first error, interning node names as it goes.
fn parse_cards(text: &str, deck: &mut Netlist) -> Result<()> {
    let mut lexer = Lexer::new(text);
    let nodes = &mut deck.nodes;
    while let Some(ll) = lexer.next_card()? {
        let first = ll.get(0);
        if let Some(directive) = first.strip_prefix('.') {
            match directive {
                "tran" => {
                    if deck.tran.is_some() {
                        return Err(NetlistError::Syntax {
                            line: ll.line,
                            message: "multiple .tran directives (only one is allowed)".to_string(),
                        });
                    }
                    deck.tran = Some(parse_tran(ll)?);
                }
                // `.op` is accepted for IBM-benchmark compatibility: the
                // engine always solves the t = 0 operating point anyway.
                "op" => {}
                "end" => break,
                _ => {
                    return Err(NetlistError::Unsupported {
                        line: ll.line,
                        what: first.to_string(),
                        hint: "only .tran, .op and .end directives are supported".to_string(),
                    });
                }
            }
            continue;
        }

        let card = match first.chars().next() {
            Some('r') => Card::Resistor(parse_resistor(ll, nodes)?),
            Some('c') => Card::Capacitor(parse_capacitor(ll, nodes)?),
            Some('i') => Card::Current(Box::new(parse_current(ll, nodes)?)),
            Some('v') => Card::Supply(parse_supply(ll, nodes)?),
            Some(
                c @ ('l' | 'd' | 'q' | 'm' | 'x' | 'k' | 'e' | 'f' | 'g' | 'h' | 'b' | 's' | 'w'
                | 't' | 'u' | 'o' | 'j' | 'z'),
            ) => {
                return Err(NetlistError::Unsupported {
                    line: ll.line,
                    what: first.to_string(),
                    hint: format!(
                        "`{c}` elements are outside the power-grid subset; \
                         only R, C, I and V cards are supported"
                    ),
                });
            }
            _ => {
                return Err(NetlistError::Syntax {
                    line: ll.line,
                    message: format!(
                        "unrecognised card `{first}` (expected an R/C/I/V element \
                         or a .tran/.op/.end directive)"
                    ),
                });
            }
        };

        deck.cards.push(card);
    }
    Ok(())
}

/// The first card, in deck order, whose element name an earlier card
/// already has, with that earlier card: `(repeat, first)` card indices.
///
/// Each card becomes one sort key: its name's hash with the low bits
/// replaced by the card's index. Sorting the keys puts equal names next to
/// each other, in deck order, without a hash table the size of the deck;
/// names are compared only within a run of equal hash bits. The hash keys
/// are random per call, so a deck cannot be crafted to make names collide.
fn first_duplicate(cards: &[Card]) -> Option<(usize, usize)> {
    let state = RandomState::new();
    let index_bits = usize::BITS - cards.len().leading_zeros();
    let index = 1u64.checked_shl(index_bits).map_or(u64::MAX, |bit| bit - 1);
    let mut keys: Vec<u64> = cards
        .iter()
        .enumerate()
        .map(|(k, card)| state.hash_one(card.name()) & !index | k as u64)
        .collect();
    keys.sort_unstable();
    let card = |key: u64| (key & index) as usize;
    let mut found: Option<(usize, usize)> = None;
    for run in keys.chunk_by(|x, y| (x ^ y) & !index == 0) {
        for (j, &key) in run.iter().enumerate().skip(1) {
            let repeat = card(key);
            if found.is_some_and(|(earliest, _)| earliest < repeat) {
                break;
            }
            let name = cards[repeat].name();
            let mut earlier = run[..j].iter().map(|&key| card(key));
            if let Some(first) = earlier.find(|&i| cards[i].name() == name) {
                found = Some((repeat, first));
                break;
            }
        }
    }
    found
}

/// Trailing `key=value` parameters of a card, in order: the card's last
/// fields, checked to be `key "=" value` triples with distinct keys.
#[derive(Clone, Copy)]
struct Params<'a>(Fields<'a>);

impl<'a> Params<'a> {
    /// The `(key, value)` pairs.
    fn iter(self) -> impl Iterator<Item = (&'a str, &'a str)> {
        (0..self.0.len())
            .step_by(3)
            .map(move |k| (self.0.get(k), self.0.get(k + 2)))
    }
}

/// Splits off the trailing `key=value` parameters (tokenised as
/// `key "=" value` triples) and returns `(positional, params)`.
fn split_params(fields: Fields<'_>) -> Result<(Fields<'_>, Params<'_>)> {
    let line = fields.line;
    let Some(first_eq) = fields.iter().position(|f| f == "=") else {
        return Ok((fields, Params(fields.tail(fields.len()))));
    };
    if first_eq == 0 {
        return Err(NetlistError::Syntax {
            line,
            message: "`=` with no parameter name before it".to_string(),
        });
    }
    let split = first_eq - 1;
    let (positional, tail) = (fields.head(split), fields.tail(split));
    let mut k = 0;
    while k + 3 <= tail.len() {
        let (key, eq, value) = (tail.get(k), tail.get(k + 1), tail.get(k + 2));
        if eq != "=" || key == "=" || value == "=" {
            return Err(NetlistError::Syntax {
                line,
                message: "parameters must be trailing `key=value` pairs".to_string(),
            });
        }
        if Params(tail.head(k))
            .iter()
            .any(|(earlier, _)| earlier == key)
        {
            return Err(NetlistError::Syntax {
                line,
                message: format!("parameter `{key}` is given more than once"),
            });
        }
        k += 3;
    }
    if k != tail.len() {
        return Err(NetlistError::Syntax {
            line,
            message: "incomplete trailing `key=value` parameter".to_string(),
        });
    }
    Ok((positional, Params(tail)))
}

fn expect_arity(positional: Fields<'_>, n: usize, usage: &str) -> Result<()> {
    if positional.len() != n {
        return Err(NetlistError::Syntax {
            line: positional.line,
            message: format!(
                "expected `{usage}`, got {} field(s): `{}`",
                positional.len(),
                positional.joined()
            ),
        });
    }
    Ok(())
}

fn require_positive(value: f64, token: &str, line: usize, what: &str) -> Result<()> {
    if value > 0.0 {
        Ok(())
    } else {
        Err(NetlistError::Value {
            line,
            token: token.to_string(),
            message: format!("{what} must be positive, got {value}"),
        })
    }
}

fn parse_resistor(ll: Fields<'_>, nodes: &mut NodeMap) -> Result<ResistorCard> {
    let (positional, params) = split_params(ll)?;
    reject_params(ll.line, params, &[])?;
    expect_arity(positional, 4, "Rname a b value")?;
    let token = positional.get(3);
    // The dialect's exact-interchange extension: a trailing `s` marks the
    // value as a conductance in siemens (`25S`, `1.5kS`); plain values are
    // ohms and are reciprocated here, once.
    let conductance = match token.strip_suffix('s') {
        Some(siemens) if !siemens.is_empty() => {
            let g = parse_value(siemens, ll.line)?;
            require_positive(g, token, ll.line, "conductance")?;
            g
        }
        _ => {
            let ohms = parse_value(token, ll.line)?;
            require_positive(ohms, token, ll.line, "resistance")?;
            1.0 / ohms
        }
    };
    Ok(ResistorCard {
        name: positional.get(0).into(),
        line: ll.line,
        a: nodes.get_or_insert(positional.get(1)),
        b: nodes.get_or_insert(positional.get(2)),
        conductance,
    })
}

fn parse_capacitor(ll: Fields<'_>, nodes: &mut NodeMap) -> Result<CapacitorCard> {
    let (positional, params) = split_params(ll)?;
    expect_arity(positional, 4, "Cname node 0 value [class=…]")?;
    let node = grounded_terminal(ll.line, positional.get(1), positional.get(2), "capacitor")?;
    let capacitance = parse_value(positional.get(3), ll.line)?;
    if capacitance < 0.0 {
        return Err(NetlistError::Value {
            line: ll.line,
            token: positional.get(3).to_string(),
            message: "capacitance must be non-negative".to_string(),
        });
    }
    let mut class = CapacitorClass::Diffusion;
    for (key, value) in reject_params(ll.line, params, &["class"])?.iter() {
        debug_assert_eq!(key, "class");
        class = match value {
            "gate" => CapacitorClass::Gate,
            "diffusion" => CapacitorClass::Diffusion,
            "interconnect" => CapacitorClass::Interconnect,
            other => {
                return Err(NetlistError::Syntax {
                    line: ll.line,
                    message: format!(
                        "unknown capacitor class `{other}` \
                         (expected gate, diffusion or interconnect)"
                    ),
                });
            }
        };
    }
    Ok(CapacitorCard {
        name: positional.get(0).into(),
        line: ll.line,
        node: nodes.get_or_insert(node),
        capacitance,
        class,
    })
}

fn parse_current(ll: Fields<'_>, nodes: &mut NodeMap) -> Result<CurrentSourceCard> {
    let (positional, params) = split_params(ll)?;
    if positional.len() < 4 {
        return Err(NetlistError::Syntax {
            line: ll.line,
            message: "expected `Iname node 0 <value | PWL …| PULSE …> [block=k]`".to_string(),
        });
    }
    let node = grounded_terminal(
        ll.line,
        positional.get(1),
        positional.get(2),
        "current source",
    )?;
    let waveform = parse_waveform(positional.tail(3))?;
    let mut block = 0usize;
    for (key, value) in reject_params(ll.line, params, &["block"])?.iter() {
        debug_assert_eq!(key, "block");
        block = value.parse().map_err(|_| NetlistError::Value {
            line: ll.line,
            token: value.to_string(),
            message: "block id must be a non-negative integer".to_string(),
        })?;
    }
    Ok(CurrentSourceCard {
        name: positional.get(0).into(),
        line: ll.line,
        node: nodes.get_or_insert(node),
        waveform,
        block,
    })
}

fn parse_supply(ll: Fields<'_>, nodes: &mut NodeMap) -> Result<SupplyCard> {
    let (positional, params) = split_params(ll)?;
    reject_params(ll.line, params, &[])?;
    // Accept both `Vname node 0 value` and `Vname node 0 DC value`.
    let value = match positional.len() {
        4 => positional.get(3),
        5 if positional.get(3) == "dc" => positional.get(4),
        _ => {
            return Err(NetlistError::Syntax {
                line: ll.line,
                message: "expected `Vname node 0 value` (optionally `… 0 DC value`)".to_string(),
            });
        }
    };
    let (node, gnd) = (positional.get(1), positional.get(2));
    if !is_ground(gnd) {
        return Err(NetlistError::Syntax {
            line: ll.line,
            message: format!(
                "a supply must connect a node to ground with the node first \
                 (`Vname node 0 value`); got terminals `{node}` and `{gnd}`"
            ),
        });
    }
    if is_ground(node) {
        return Err(NetlistError::Syntax {
            line: ll.line,
            message: "supply node cannot be ground".to_string(),
        });
    }
    let volts = parse_value(value, ll.line)?;
    if volts <= 0.0 {
        return Err(NetlistError::Lowering {
            line: ll.line,
            message: format!(
                "supply voltage must be positive, got {volts}; this front end \
                 analyzes the VDD net only (model ground-net decks separately)"
            ),
        });
    }
    Ok(SupplyCard {
        name: positional.get(0).into(),
        line: ll.line,
        node: nodes.get_or_insert(node),
        volts,
    })
}

/// The waveform fields of a current source, from its kind (or bare value)
/// on.
fn parse_waveform(fields: Fields<'_>) -> Result<SourceWaveform> {
    let line = fields.line;
    let values = |from: usize| -> Result<Vec<f64>> {
        fields
            .tail(from)
            .iter()
            .map(|f| parse_value(f, line))
            .collect()
    };
    match fields.get(0) {
        "pwl" => {
            let values = values(1)?;
            if values.is_empty() || !values.len().is_multiple_of(2) {
                return Err(NetlistError::Syntax {
                    line,
                    message: format!(
                        "PWL needs an even, non-zero number of values \
                         (t1 v1 t2 v2 …), got {}",
                        values.len()
                    ),
                });
            }
            let points: Vec<(f64, f64)> = values.chunks_exact(2).map(|p| (p[0], p[1])).collect();
            if points.windows(2).any(|w| w[1].0 < w[0].0) {
                return Err(NetlistError::Syntax {
                    line,
                    message: "PWL breakpoint times must be non-decreasing".to_string(),
                });
            }
            Ok(SourceWaveform::Pwl(points))
        }
        "pulse" => {
            if fields.len() != 8 {
                return Err(NetlistError::Syntax {
                    line,
                    message: format!(
                        "PULSE takes exactly 7 values (i1 i2 td tr tf pw per), got {}",
                        fields.len() - 1
                    ),
                });
            }
            let v = values(1)?;
            for (label, &t) in ["td", "tr", "tf", "pw", "per"].iter().zip(&v[2..]) {
                if t < 0.0 {
                    return Err(NetlistError::Syntax {
                        line,
                        message: format!("PULSE {label} must be non-negative, got {t}"),
                    });
                }
            }
            Ok(SourceWaveform::Pulse {
                base: v[0],
                peak: v[1],
                delay: v[2],
                rise: v[3],
                fall: v[4],
                width: v[5],
                period: v[6],
            })
        }
        "dc" if fields.len() == 2 => Ok(SourceWaveform::Dc(parse_value(fields.get(1), line)?)),
        _ if fields.len() == 1 => Ok(SourceWaveform::Dc(parse_value(fields.get(0), line)?)),
        other => Err(NetlistError::Syntax {
            line,
            message: format!(
                "expected a DC value, `PWL(t v …)` or `PULSE(i1 i2 td tr tf pw per)`, \
                 got `{other} …`"
            ),
        }),
    }
}

fn parse_tran(ll: Fields<'_>) -> Result<TranSpec> {
    let (fields, params) = split_params(ll)?;
    if !(3..=4).contains(&fields.len()) {
        return Err(NetlistError::Syntax {
            line: ll.line,
            message: "expected `.tran tstep tstop [tstart] [method=be|trap|trbdf2]`".to_string(),
        });
    }
    let params = reject_params(ll.line, params, &["method"])?;
    let mut method = None;
    for (key, value) in params.iter() {
        debug_assert_eq!(key, "method");
        method = Some(match value.to_ascii_lowercase().as_str() {
            "be" => TranMethod::BackwardEuler,
            "trap" => TranMethod::Trapezoidal,
            "trbdf2" => TranMethod::TrBdf2,
            other => {
                return Err(NetlistError::Syntax {
                    line: ll.line,
                    message: format!(
                        "unknown integration method `{other}` (supported: be, trap, trbdf2)"
                    ),
                })
            }
        });
    }
    let time_step = parse_value(fields.get(1), ll.line)?;
    let end_time = parse_value(fields.get(2), ll.line)?;
    if fields.len() == 4 && parse_value(fields.get(3), ll.line)? != 0.0 {
        return Err(NetlistError::Unsupported {
            line: ll.line,
            what: ".tran tstart".to_string(),
            hint: "a non-zero tstart is not supported; the transient always starts at 0"
                .to_string(),
        });
    }
    if !(time_step > 0.0 && end_time > 0.0 && time_step <= end_time) {
        return Err(NetlistError::Syntax {
            line: ll.line,
            message: format!(
                "need 0 < tstep <= tstop, got tstep = {time_step}, tstop = {end_time}"
            ),
        });
    }
    Ok(TranSpec {
        time_step,
        end_time,
        method,
    })
}

/// Validates that every parameter key is in `allowed`; returns the params.
fn reject_params<'a>(line: usize, params: Params<'a>, allowed: &[&str]) -> Result<Params<'a>> {
    for (key, _) in params.iter() {
        if !allowed.contains(&key) {
            return Err(NetlistError::Syntax {
                line,
                message: if allowed.is_empty() {
                    format!("this card takes no `key=value` parameters, got `{key}=…`")
                } else {
                    format!(
                        "unknown parameter `{key}` (supported: {})",
                        allowed.join(", ")
                    )
                },
            });
        }
    }
    Ok(params)
}

/// For two-terminal-to-ground elements: exactly one terminal must be
/// ground; returns the other (the grid node), which must come first.
fn grounded_terminal<'a>(line: usize, a: &'a str, b: &str, what: &str) -> Result<&'a str> {
    match (is_ground(a), is_ground(b)) {
        (false, true) => Ok(a),
        (true, false) => Err(NetlistError::Syntax {
            line,
            message: format!(
                "write the grid node first (`…name {b} 0 …`): a {what}'s \
                 second terminal must be ground"
            ),
        }),
        (true, true) => Err(NetlistError::Syntax {
            line,
            message: format!("{what} has both terminals grounded"),
        }),
        (false, false) => Err(NetlistError::Lowering {
            line,
            message: format!(
                "{what} between two grid nodes (`{a}`, `{b}`) is not supported; \
                 the second terminal must be ground (`0`)"
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_deck() {
        let deck = parse(
            "VDD p 0 1.2\n\
             Rp p n1 10s\n\
             Rv1 n1 n2 0.5\n\
             C1 n1 0 1f\n\
             I1 n2 0 2m block=3\n",
        )
        .unwrap();
        assert_eq!(deck.cards.len(), 5);
        let r: Vec<_> = deck.resistors().collect();
        assert_eq!(r[0].conductance, 10.0);
        assert_eq!(r[1].conductance, 1.0 / 0.5);
        let i = deck.current_sources().next().unwrap();
        assert_eq!(i.block, 3);
        assert_eq!(i.waveform, SourceWaveform::Dc(2e-3));
    }

    #[test]
    fn dc_keyword_and_pulse_parse() {
        let deck = parse(
            "V1 p 0 DC 1.8\n\
             I1 n 0 DC 5m\n\
             I2 n 0 PULSE(0 1m 0.1n 0.1n 0.1n 0.3n 1n)\n",
        )
        .unwrap();
        assert_eq!(deck.supplies().next().unwrap().volts, 1.8);
        let sources: Vec<_> = deck.current_sources().collect();
        assert_eq!(sources[0].waveform, SourceWaveform::Dc(5e-3));
        assert!(matches!(
            sources[1].waveform,
            SourceWaveform::Pulse { peak, .. } if peak == 1e-3
        ));
    }

    #[test]
    fn spans_point_at_the_offending_card() {
        let err = parse("V1 p 0 1.2\nR1 p n1 0.1\nR1 n1 n2 0.1\n").unwrap_err();
        assert_eq!(
            err,
            NetlistError::Duplicate {
                line: 3,
                previous_line: 2,
                name: "r1".to_string()
            }
        );
    }

    #[test]
    fn the_earliest_repeat_is_reported_with_its_first_card() {
        let deck = "V1 p 0 1.2\nR1 p n1 0.1\nR2 n1 n2 0.1\nR3 n2 n3 0.1\n\
                    r2 n3 n4 0.1\nR1 n4 n5 0.1\nr3 n5 n6 0.1\nR9 bogus\n";
        assert_eq!(
            parse(deck).unwrap_err(),
            NetlistError::Duplicate {
                line: 5,
                previous_line: 3,
                name: "r2".to_string()
            }
        );
        // Names are compared whole, not by prefix or hash alone.
        let deck = parse("V1 p 0 1.2\nR1 p n1 0.1\nR10 n1 n2 0.1\nR100 n2 n3 0.1\n").unwrap();
        assert_eq!(deck.cards.len(), 4);
    }

    #[test]
    fn tran_is_validated() {
        assert!(parse(".tran 1n 10n\n").unwrap().tran.is_some());
        assert!(parse(".tran 1n 10n 0\n").is_ok());
        assert!(parse(".tran 1n 10n 1n\n").is_err());
        assert!(parse(".tran 10n 1n\n").is_err());
        assert!(parse(".tran 1n\n").is_err());
        assert!(parse(".tran 1n 2n\n.tran 1n 2n\n").is_err());
    }

    #[test]
    fn tran_method_parameter_is_parsed_and_validated() {
        let tran = parse(".tran 1n 10n\n").unwrap().tran.unwrap();
        assert_eq!(tran.method, None);
        for (spelling, expected) in [
            ("be", TranMethod::BackwardEuler),
            ("trap", TranMethod::Trapezoidal),
            ("trbdf2", TranMethod::TrBdf2),
            ("TRBDF2", TranMethod::TrBdf2),
        ] {
            let deck = format!(".tran 1n 10n method={spelling}\n");
            let tran = parse(&deck).unwrap().tran.unwrap();
            assert_eq!(tran.method, Some(expected), "method={spelling}");
        }
        let tran = parse(".tran 1n 10n 0 method=be\n").unwrap().tran.unwrap();
        assert_eq!(tran.method, Some(TranMethod::BackwardEuler));

        let err = parse(".tran 1n 10n method=gear2\n").unwrap_err();
        assert!(err.to_string().contains("unknown integration method"));
        let err = parse(".tran 1n 10n order=2\n").unwrap_err();
        assert!(err.to_string().contains("unknown parameter `order`"));
    }
}
