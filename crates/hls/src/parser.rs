//! A small straight-line expression language — the front door of the
//! compiler flow, standing in for Nymble's C input.
//!
//! Grammar (semicolon-terminated statements):
//!
//! ```text
//! program :=  stmt*
//! stmt    :=  "in" decl ("," decl)* ";"
//!          |  ["out"] ident "=" expr ";"
//! decl    :=  ident ["[" snum "," snum "]"]
//! expr    :=  term  (("+" | "-") term)*
//! term    :=  factor (("*" | "/") factor)*
//! factor  :=  "-" factor | ident | number | "(" expr ")"
//! snum    :=  ["-"] number
//! ```
//!
//! Identifiers read before being assigned become datapath inputs;
//! statements prefixed with `out` become outputs. Listing 1 of the paper
//! is literally:
//!
//! ```text
//! x1 = a*b + c*d;
//! x2 = e*f + g*x1;
//! out x3 = h*i + k*x2;
//! ```
//!
//! A program may declare its inputs explicitly with `in a, b;`
//! statements. The presence of **any** `in` declaration makes the whole
//! program *strict*: implicit input creation is disabled, and reading an
//! identifier that is neither a declared input nor a previously assigned
//! variable is a positioned parse error ("undefined input name") instead
//! of silently growing the input row. Declared-but-unused inputs still
//! appear in the graph (and the compiled tape's row layout), in
//! declaration order.
//!
//! An `in` declaration may bound an input with `in a [lo, hi];` — a
//! closed interval the caller promises every supplied value lies in.
//! Bounds do not change the compiled graph; [`parse_program_with_ranges`]
//! surfaces them as [`RangeDecl`]s for the `R*` value-range analysis
//! (`csfma-lint --ranges`) and for range-proved fast-path promotion.
//! [`parse_program`] accepts and discards them, so bounded sources stay
//! runnable everywhere. Bound *semantics* (`lo <= hi`, finiteness) are
//! checked by rule `R003`, not the parser.

use crate::cdfg::{Cdfg, NodeId};
use csfma_verify::RangeDecl;
use std::collections::HashMap;
use std::fmt;

/// Parse error with source position.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Byte offset into the source.
    pub pos: usize,
    /// 1-based source line (0 until located against the source).
    pub line: u32,
    /// 1-based source column (0 until located against the source).
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    fn new(pos: usize, message: impl Into<String>) -> Self {
        ParseError {
            pos,
            line: 0,
            col: 0,
            message: message.into(),
        }
    }

    /// Fill in `line`/`col` from the byte offset. [`parse_program`] does
    /// this before returning, so callers always see located errors.
    pub fn locate(mut self, src: &str) -> Self {
        let pos = self.pos.min(src.len());
        let before = &src[..pos];
        self.line = before.matches('\n').count() as u32 + 1;
        self.col = (pos - before.rfind('\n').map_or(0, |i| i + 1)) as u32 + 1;
        self
    }

    /// View the error as a `P001` checker diagnostic with a
    /// [`Span::Source`](csfma_verify::Span::Source) position.
    pub fn to_diagnostic(&self) -> csfma_verify::Diagnostic {
        csfma_verify::Diagnostic::error(
            csfma_verify::Rule::ParseError,
            csfma_verify::Span::Source {
                line: self.line,
                col: self.col,
            },
            self.message.clone(),
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "parse error at {}:{}: {}",
                self.line, self.col, self.message
            )
        } else {
            write!(f, "parse error at byte {}: {}", self.pos, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// A token. Identifiers borrow their text from the source, so
/// tokenizing allocates nothing per token.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tok<'s> {
    Ident(&'s str),
    Number(f64),
    Plus,
    Minus,
    Star,
    Slash,
    Eq,
    Semi,
    Comma,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Out,
    In,
}

fn tokenize(src: &str) -> Result<Vec<(usize, Tok<'_>)>, ParseError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '#' => {
                // comment to end of line
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '+' => {
                toks.push((i, Tok::Plus));
                i += 1;
            }
            '-' => {
                toks.push((i, Tok::Minus));
                i += 1;
            }
            '*' => {
                toks.push((i, Tok::Star));
                i += 1;
            }
            '/' => {
                toks.push((i, Tok::Slash));
                i += 1;
            }
            '=' => {
                toks.push((i, Tok::Eq));
                i += 1;
            }
            ';' => {
                toks.push((i, Tok::Semi));
                i += 1;
            }
            ',' => {
                toks.push((i, Tok::Comma));
                i += 1;
            }
            '(' => {
                toks.push((i, Tok::LParen));
                i += 1;
            }
            ')' => {
                toks.push((i, Tok::RParen));
                i += 1;
            }
            '[' => {
                toks.push((i, Tok::LBracket));
                i += 1;
            }
            ']' => {
                toks.push((i, Tok::RBracket));
                i += 1;
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &src[start..i];
                toks.push((
                    start,
                    match word {
                        "out" => Tok::Out,
                        "in" => Tok::In,
                        _ => Tok::Ident(word),
                    },
                ));
            }
            _ if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && i > start
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    i += 1;
                }
                let text = &src[start..i];
                let v: f64 = text.parse().map_err(|_| {
                    ParseError::new(start, format!("invalid number literal {text:?}"))
                })?;
                toks.push((start, Tok::Number(v)));
            }
            _ => {
                // every arm above steps over ASCII bytes or stops at a
                // '\n', so `i` starts a character: name all of it, not
                // its first UTF-8 byte
                let c = src[i..].chars().next().unwrap_or_default();
                return Err(ParseError::new(i, format!("unexpected character {c:?}")));
            }
        }
    }
    Ok(toks)
}

struct Parser<'a, 's> {
    toks: &'a [(usize, Tok<'s>)],
    idx: usize,
    g: Cdfg,
    vars: HashMap<&'s str, NodeId>,
    // the program carries `in` declarations: undefined names are errors
    strict: bool,
    // `in a [lo, hi];` bounds, in declaration order
    ranges: Vec<RangeDecl>,
}

impl<'s> Parser<'_, 's> {
    fn peek(&self) -> Option<Tok<'s>> {
        self.toks.get(self.idx).map(|&(_, t)| t)
    }

    fn pos(&self) -> usize {
        self.toks
            .get(self.idx)
            .map(|(p, _)| *p)
            .unwrap_or(usize::MAX)
    }

    fn bump(&mut self) -> Option<Tok<'s>> {
        let t = self.peek();
        self.idx += 1;
        t
    }

    fn expect(&mut self, want: Tok<'s>, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.idx += 1;
            Ok(())
        } else {
            Err(ParseError::new(self.pos(), format!("expected {what}")))
        }
    }

    fn lookup(&mut self, pos: usize, name: &'s str) -> Result<NodeId, ParseError> {
        if let Some(&id) = self.vars.get(name) {
            return Ok(id);
        }
        if self.strict {
            return Err(ParseError::new(
                pos,
                format!(
                    "undefined input name '{name}': this program declares its \
                     inputs with 'in', and '{name}' is neither declared nor assigned"
                ),
            ));
        }
        let id = self.g.input(name);
        self.vars.insert(name, id);
        Ok(id)
    }

    fn factor(&mut self) -> Result<NodeId, ParseError> {
        let start = self.pos();
        match self.bump() {
            Some(Tok::Minus) => {
                let f = self.factor()?;
                Ok(self.g.push(crate::cdfg::Op::Neg, vec![f]))
            }
            Some(Tok::Ident(name)) => self.lookup(start, name),
            Some(Tok::Number(v)) => Ok(self.g.constant(v)),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(e)
            }
            _ => Err(ParseError::new(
                self.pos(),
                "expected identifier, number, '-' or '('",
            )),
        }
    }

    fn term(&mut self) -> Result<NodeId, ParseError> {
        let mut lhs = self.factor()?;
        loop {
            match self.peek() {
                Some(Tok::Star) => {
                    self.idx += 1;
                    let rhs = self.factor()?;
                    lhs = self.g.mul(lhs, rhs);
                }
                Some(Tok::Slash) => {
                    self.idx += 1;
                    let rhs = self.factor()?;
                    lhs = self.g.div(lhs, rhs);
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn expr(&mut self) -> Result<NodeId, ParseError> {
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.idx += 1;
                    let rhs = self.term()?;
                    lhs = self.g.add(lhs, rhs);
                }
                Some(Tok::Minus) => {
                    self.idx += 1;
                    let rhs = self.term()?;
                    lhs = self.g.sub(lhs, rhs);
                }
                _ => return Ok(lhs),
            }
        }
    }

    /// A possibly-negated number literal (range bounds admit `-1.5`).
    fn signed_number(&mut self) -> Result<f64, ParseError> {
        let neg = if self.peek() == Some(Tok::Minus) {
            self.idx += 1;
            true
        } else {
            false
        };
        match self.bump() {
            Some(Tok::Number(v)) => Ok(if neg { -v } else { v }),
            _ => Err(ParseError::new(
                self.pos(),
                "expected number in range bound",
            )),
        }
    }

    fn stmt(&mut self) -> Result<(), ParseError> {
        if self.peek() == Some(Tok::In) {
            self.idx += 1;
            loop {
                let pos = self.pos();
                match self.bump() {
                    Some(Tok::Ident(n)) => {
                        if self.vars.contains_key(n) {
                            return Err(ParseError::new(
                                pos,
                                format!("duplicate declaration of input '{n}'"),
                            ));
                        }
                        let id = self.g.input(n);
                        self.vars.insert(n, id);
                        if self.peek() == Some(Tok::LBracket) {
                            self.idx += 1;
                            let lo = self.signed_number()?;
                            self.expect(Tok::Comma, "',' between range bounds")?;
                            let hi = self.signed_number()?;
                            self.expect(Tok::RBracket, "']' after range bounds")?;
                            self.ranges.push(RangeDecl {
                                name: n.to_string(),
                                lo,
                                hi,
                            });
                        }
                    }
                    _ => return Err(ParseError::new(pos, "expected input name after 'in'")),
                }
                if self.peek() == Some(Tok::Comma) {
                    self.idx += 1;
                } else {
                    break;
                }
            }
            return self.expect(Tok::Semi, "';'");
        }
        let is_out = if self.peek() == Some(Tok::Out) {
            self.idx += 1;
            true
        } else {
            false
        };
        let name = match self.bump() {
            Some(Tok::Ident(n)) => n,
            _ => {
                return Err(ParseError::new(
                    self.pos(),
                    "expected identifier on the left of '='",
                ))
            }
        };
        self.expect(Tok::Eq, "'='")?;
        let value = self.expr()?;
        self.expect(Tok::Semi, "';'")?;
        self.vars.insert(name, value);
        if is_out {
            self.g.output(name, value);
        }
        Ok(())
    }
}

/// Parse a straight-line program into a [`Cdfg`].
///
/// ```
/// use csfma_hls::{asap_schedule, parse_program, OpTiming};
/// let g = parse_program("x1 = a*b + c*d; out y = e*x1 + f;").unwrap();
/// let len = asap_schedule(&g, &OpTiming::default()).length;
/// assert_eq!(len, 18); // two dependent multiply-add links at 5+4 cycles
/// ```
pub fn parse_program(src: &str) -> Result<Cdfg, ParseError> {
    parse_program_with_ranges(src).map(|(g, _)| g)
}

/// [`parse_program`], additionally returning the `in a [lo, hi];` bound
/// declarations in declaration order. The graph is identical to what
/// [`parse_program`] builds; the bounds are side-band facts for the
/// `R*` value-range analysis ([`crate::lint::lint_ranges`]).
pub fn parse_program_with_ranges(src: &str) -> Result<(Cdfg, Vec<RangeDecl>), ParseError> {
    parse_inner(src).map_err(|e| e.locate(src))
}

fn parse_inner(src: &str) -> Result<(Cdfg, Vec<RangeDecl>), ParseError> {
    let toks = tokenize(src)?;
    // any `in` declaration anywhere makes the whole program strict, so
    // a use *before* the declaration cannot silently mint an input
    let strict = toks.iter().any(|&(_, t)| t == Tok::In);
    let mut p = Parser {
        toks: &toks,
        idx: 0,
        g: Cdfg::new(),
        vars: HashMap::new(),
        strict,
        ranges: Vec::new(),
    };
    while p.peek().is_some() {
        p.stmt()?;
    }
    if p.g.outputs().is_empty() {
        return Err(ParseError::new(src.len(), "program has no 'out' statement"));
    }
    // The parser only builds via checked `push`, so this cannot fail; keep
    // the non-panicking path anyway so a parser bug surfaces as an error.
    if let Err(diags) = p.g.validate_diagnostics() {
        return Err(ParseError::new(
            src.len(),
            format!(
                "parser produced an invalid graph:\n{}",
                csfma_verify::render_report(&diags)
            ),
        ));
    }
    Ok((p.g, p.ranges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdfg::Op;
    use crate::interp::eval_f64;
    use crate::sched::{asap_schedule, OpTiming};

    #[test]
    fn listing1_parses() {
        let g = parse_program("x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;").unwrap();
        assert_eq!(g.count_ops(|o| matches!(o, Op::Mul)), 6);
        assert_eq!(g.count_ops(|o| matches!(o, Op::Add)), 3);
        assert_eq!(asap_schedule(&g, &OpTiming::default()).length, 27);
    }

    #[test]
    fn precedence_and_parens() {
        let g = parse_program("out y = a + b * (c - d) / e;").unwrap();
        let ins: std::collections::HashMap<String, f64> =
            [("a", 1.0), ("b", 6.0), ("c", 5.0), ("d", 3.0), ("e", 4.0)]
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect();
        assert_eq!(eval_f64(&g, &ins)["y"], 1.0 + 6.0 * (5.0 - 3.0) / 4.0);
    }

    #[test]
    fn unary_minus_and_constants() {
        let g = parse_program("out y = -x * 2.5 + 1e-3;").unwrap();
        let ins = [("x".to_string(), 4.0)].into_iter().collect();
        assert_eq!(eval_f64(&g, &ins)["y"], -10.0 + 1e-3);
    }

    #[test]
    fn comments_and_reassignment() {
        let g = parse_program("# accumulate twice\nacc = a * b;\nacc = acc + c;\nout y = acc;")
            .unwrap();
        let ins: std::collections::HashMap<String, f64> = [("a", 2.0), ("b", 3.0), ("c", 1.0)]
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        assert_eq!(eval_f64(&g, &ins)["y"], 7.0);
    }

    #[test]
    fn errors_are_positioned() {
        let e = parse_program("out y = a + ;").unwrap_err();
        assert!(e.message.contains("expected identifier"));
        assert_eq!((e.line, e.col), (1, 14));
        assert!(parse_program("y = a;")
            .unwrap_err()
            .message
            .contains("no 'out'"));
        assert!(parse_program("out y = a $ b;").is_err());
        assert!(parse_program("out y = 1.2.3;").is_err());
    }

    #[test]
    fn errors_locate_lines_and_convert_to_diagnostics() {
        // the parser reports at the token after the offending one ('2')
        let e = parse_program("x = a*b;\nout y = x + * 2;").unwrap_err();
        assert_eq!((e.line, e.col), (2, 15));
        assert!(e.to_string().contains("2:15"), "{e}");
        let d = e.to_diagnostic();
        assert_eq!(d.rule, csfma_verify::Rule::ParseError);
        assert_eq!(d.span, csfma_verify::Span::Source { line: 2, col: 15 });
        // EOF errors clamp to one past the last line's end
        let eof = parse_program("out y = a").unwrap_err();
        assert_eq!((eof.line, eof.col), (1, 10));
    }

    #[test]
    fn in_declarations_enable_strict_mode() {
        // declared-but-unused inputs still appear, in declaration order
        let g = parse_program("in a, b, unused;\nout y = a + b;").unwrap();
        let names: Vec<&str> = g
            .nodes()
            .iter()
            .filter_map(|n| match &n.op {
                Op::Input(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, ["a", "b", "unused"]);
        // an undefined name is a positioned error, not a fresh input
        let e = parse_program("in a, b;\nout y = a * c;").unwrap_err();
        assert!(e.message.contains("undefined input name 'c'"), "{e}");
        assert_eq!((e.line, e.col), (2, 13));
        // assigned intermediates stay referencable under strictness
        assert!(parse_program("in a;\nt = a * a;\nout y = t + a;").is_ok());
        // declaring twice is an error
        let dup = parse_program("in a, a;\nout y = a;").unwrap_err();
        assert!(dup.message.contains("duplicate declaration"), "{dup}");
        // strictness applies even to uses before the declaration
        let early = parse_program("out y = a * c;\nin a;").unwrap_err();
        assert!(
            early.message.contains("undefined input name 'a'"),
            "{early}"
        );
        // without declarations the legacy auto-input behavior is intact
        assert!(parse_program("out y = a * c;").is_ok());
    }

    #[test]
    fn range_declarations_parse_and_are_side_band() {
        let (g, ranges) =
            parse_program_with_ranges("in a [0.5, 2.0], b, c [-1e3, 1e3];\nout y = a*b + c;")
                .unwrap();
        assert_eq!(ranges.len(), 2);
        assert_eq!(
            (ranges[0].name.as_str(), ranges[0].lo, ranges[0].hi),
            ("a", 0.5, 2.0)
        );
        assert_eq!(
            (ranges[1].name.as_str(), ranges[1].lo, ranges[1].hi),
            ("c", -1e3, 1e3)
        );
        // bounds never change the graph
        let plain = parse_program("in a, b, c;\nout y = a*b + c;").unwrap();
        assert_eq!(g.len(), plain.len());
        // parse_program accepts and discards bounds
        assert!(parse_program("in a [0.5, 2.0];\nout y = a;").is_ok());
        // inverted / non-finite bounds are R003's job, not the parser's
        let (_, r) = parse_program_with_ranges("in a [2.0, -2.0];\nout y = a;").unwrap();
        assert_eq!((r[0].lo, r[0].hi), (2.0, -2.0));
        // malformed bounds are positioned parse errors
        assert!(parse_program("in a [0.5;\nout y = a;").is_err());
        assert!(parse_program("in a [0.5, b];\nout y = a;").is_err());
        assert!(parse_program("in a [, 1.0];\nout y = a;").is_err());
    }

    #[test]
    fn parsed_program_fuses() {
        use crate::cdfg::FmaKind;
        use crate::fuse::{fuse_critical_paths, FusionConfig};
        let g = parse_program("x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;").unwrap();
        let rep = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs));
        assert!(rep.final_length < rep.initial_length);
        assert!(rep.fma_nodes >= 2);
    }
}
