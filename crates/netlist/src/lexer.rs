//! Line-level preprocessing: comments, continuations, field splitting.
//!
//! SPICE decks are line-oriented. The lexer streams the raw text as
//! *logical lines* — each one card — by:
//!
//! * dropping blank lines and full-line comments (first non-blank character
//!   `*`),
//! * stripping inline comments (`$` or `;` to end of line),
//! * joining continuation lines (first non-blank character `+`) onto the
//!   previous logical line,
//! * lower-casing everything (SPICE is case-insensitive; names are reported
//!   lower-cased),
//! * treating `(`, `)`, `,` and `=` as field separators (`=` is kept as its
//!   own token so `block=3` parses as a key/value pair), so
//!   `PWL(0 0, 1n 2m)` and `pwl 0 0 1n 2m` tokenise identically.
//!
//! Nothing is collected for the whole deck: one reused buffer holds the
//! lower-cased text of the card being assembled and its fields are byte
//! ranges into it, so a card costs no allocation of its own. A card is
//! handed to the parser as soon as the next card's first line shows that it
//! is complete. Each card remembers the 1-based physical line it started
//! on, which is what every parse error reports.

use std::str::Lines;

use crate::{NetlistError, Result};

/// Streams a deck's cards, one [`Fields`] view at a time.
pub(crate) struct Lexer<'t> {
    lines: std::iter::Enumerate<Lines<'t>>,
    /// The lower-cased text of the card being assembled, continuations
    /// appended.
    text: String,
    /// The card's fields as byte ranges into `text`.
    spans: Vec<(usize, usize)>,
    /// The first line of the next card — its line number and its trimmed,
    /// comment-stripped body — read while looking for continuations of the
    /// current one.
    next: Option<(usize, &'t str)>,
}

impl<'t> Lexer<'t> {
    pub(crate) fn new(deck: &'t str) -> Self {
        Lexer {
            lines: deck.lines().enumerate(),
            text: String::new(),
            spans: Vec::new(),
            next: None,
        }
    }

    /// The next complete card, or `None` at the end of the deck.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Syntax`] for a continuation line (`+ …`) with
    /// no preceding card.
    pub(crate) fn next_card(&mut self) -> Result<Option<Fields<'_>>> {
        self.text.clear();
        self.spans.clear();
        let mut line = None;
        if let Some((line_no, body)) = self.next.take() {
            line = Some(line_no);
            push_line(&mut self.text, &mut self.spans, body);
        }
        for (i, raw) in self.lines.by_ref() {
            let line_no = i + 1;
            let body = strip_comment(raw).trim();
            if body.is_empty() || body.starts_with('*') {
                continue;
            }
            if let Some(rest) = body.strip_prefix('+') {
                if line.is_none() {
                    return Err(NetlistError::Syntax {
                        line: line_no,
                        message: "continuation line (`+ …`) with no card to continue".to_string(),
                    });
                }
                push_line(&mut self.text, &mut self.spans, rest);
            } else if body.bytes().any(|b| !is_separator(b)) {
                if line.is_some() {
                    self.next = Some((line_no, body));
                    break;
                }
                line = Some(line_no);
                push_line(&mut self.text, &mut self.spans, body);
            }
        }
        Ok(line.map(|line| Fields {
            line,
            text: &self.text,
            spans: &self.spans,
        }))
    }
}

/// `line` without its inline comment (`$` or `;` to the end of the line).
fn strip_comment(line: &str) -> &str {
    // A byte search: `$` and `;` are ASCII, so the first such byte is a
    // character boundary.
    let cut = line.bytes().position(|b| b == b'$' || b == b';');
    &line[..cut.unwrap_or(line.len())]
}

/// Appends one physical line's body to the card in `text`: lower-cased,
/// its fields recorded in `spans` as byte ranges.
fn push_line(text: &mut String, spans: &mut Vec<(usize, usize)>, body: &str) {
    let start = text.len();
    text.push_str(body);
    text[start..].make_ascii_lowercase();
    let mut field: Option<usize> = None;
    for (k, &b) in text.as_bytes().iter().enumerate().skip(start) {
        if is_separator(b) || b == b'=' {
            if let Some(begin) = field.take() {
                spans.push((begin, k));
            }
            if b == b'=' {
                spans.push((k, k + 1));
            }
        } else if field.is_none() {
            field = Some(k);
        }
    }
    if let Some(begin) = field {
        spans.push((begin, text.len()));
    }
}

/// Bytes that only separate fields (`=` separates too, but is a field of
/// its own).
fn is_separator(b: u8) -> bool {
    matches!(b, b'(' | b')' | b',' | b' ' | b'\t')
}

/// One card's fields (or a run of them): lower-cased, never empty for a
/// whole card, borrowed from the lexer's buffer.
#[derive(Clone, Copy)]
pub(crate) struct Fields<'a> {
    /// 1-based physical line number of the card's first line.
    pub(crate) line: usize,
    text: &'a str,
    spans: &'a [(usize, usize)],
}

impl<'a> Fields<'a> {
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Field `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub(crate) fn get(&self, i: usize) -> &'a str {
        let (lo, hi) = self.spans[i];
        &self.text[lo..hi]
    }

    /// The fields from `i` on.
    pub(crate) fn tail(&self, i: usize) -> Self {
        Fields {
            spans: &self.spans[i..],
            ..*self
        }
    }

    /// The first `i` fields.
    pub(crate) fn head(&self, i: usize) -> Self {
        Fields {
            spans: &self.spans[..i],
            ..*self
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &'a str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The fields joined by single spaces, for error messages.
    pub(crate) fn joined(&self) -> String {
        self.iter().collect::<Vec<_>>().join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every card of `deck` as `(line, fields)`.
    fn cards(deck: &str) -> Result<Vec<(usize, Vec<String>)>> {
        let mut lexer = Lexer::new(deck);
        let mut out = Vec::new();
        while let Some(card) = lexer.next_card()? {
            out.push((card.line, card.iter().map(str::to_string).collect()));
        }
        Ok(out)
    }

    #[test]
    fn comments_blanks_and_case_are_normalised() {
        let lines = cards("* title-ish comment\n\n  VDD Vdd 0 1.2 ; trailing\n*last\n").unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].0, 3);
        assert_eq!(lines[0].1, ["vdd", "vdd", "0", "1.2"]);
    }

    #[test]
    fn continuations_join_with_the_first_line_number() {
        let lines = cards("I1 n1 0 PWL(0 0\n* interleaved comment\n+ 1n 2m)\nR1 a b 5\n").unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].0, 1);
        assert_eq!(lines[0].1, ["i1", "n1", "0", "pwl", "0", "0", "1n", "2m"]);
        assert_eq!(lines[1].0, 4);
    }

    #[test]
    fn equals_becomes_its_own_token() {
        let lines = cards("C1 n1 0 2f class=gate\n").unwrap();
        assert_eq!(lines[0].1, ["c1", "n1", "0", "2f", "class", "=", "gate"]);
    }

    #[test]
    fn separator_only_lines_start_no_card() {
        let lines = cards("R1 a b 5\n( , )\n+ extra\n").unwrap();
        assert_eq!(
            lines,
            [(1, ["r1", "a", "b", "5", "extra"].map(String::from).to_vec())]
        );
    }

    #[test]
    fn dangling_continuation_is_an_error() {
        let err = cards("+ 1 2 3\n").unwrap_err();
        assert_eq!(err.line(), Some(1));
    }
}
