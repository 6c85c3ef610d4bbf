//! The text front end against a reference parser.
//!
//! `reference` is the parser as first written: its tokenizer allocates a
//! `String` for every identifier token, the parser clones each token it
//! consumes, and variables are keyed by owned names. It is kept verbatim
//! but for one fix: an unexpected non-ASCII character is named whole, not
//! by its first UTF-8 byte. `hls::parser` borrows identifiers from the
//! source instead. On every source here the two must build the same graph
//! node for node, the same `RangeDecl`s, and the same `ParseError` (byte
//! offset, line, column and message).
//!
//! The sources are the example datapaths, the filetest corpus, the parser
//! fuzz corpus, the printed ldlsolve kernels, the sources of the parser's
//! unit tests, and seeded one-character mutants of all of them. Tier-1
//! runs 20,000 mutants; the ignored case, which `ci.sh` runs, runs 10^6.

use csfma::hls::{parse_program, parse_program_with_ranges, to_source, Cdfg, Op, ParseError};
use csfma::solvers::{generate_ldlsolve, solver_suite, KktSystem, LdlFactors};
use csfma::verify::RangeDecl;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::Path;

mod reference {
    use csfma::hls::{Cdfg, NodeId, Op, ParseError};
    use csfma::verify::RangeDecl;
    use std::collections::HashMap;

    /// `ParseError::new`, which is private to the parser.
    fn parse_error(pos: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            pos,
            line: 0,
            col: 0,
            message: message.into(),
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Tok {
        Ident(String),
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

    fn tokenize(src: &str) -> Result<Vec<(usize, Tok)>, ParseError> {
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
                            _ => Tok::Ident(word.to_string()),
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
                        parse_error(start, format!("invalid number literal {text:?}"))
                    })?;
                    toks.push((start, Tok::Number(v)));
                }
                _ => {
                    // the one change from the original: name the whole
                    // character at `i`, not its first UTF-8 byte as Latin-1
                    let c = src[i..].chars().next().unwrap_or_default();
                    return Err(parse_error(i, format!("unexpected character {c:?}")));
                }
            }
        }
        Ok(toks)
    }

    struct Parser<'a> {
        toks: &'a [(usize, Tok)],
        idx: usize,
        g: Cdfg,
        vars: HashMap<String, NodeId>,
        // the program carries `in` declarations: undefined names are errors
        strict: bool,
        // `in a [lo, hi];` bounds, in declaration order
        ranges: Vec<RangeDecl>,
    }

    impl<'a> Parser<'a> {
        fn peek(&self) -> Option<&Tok> {
            self.toks.get(self.idx).map(|(_, t)| t)
        }

        fn pos(&self) -> usize {
            self.toks
                .get(self.idx)
                .map(|(p, _)| *p)
                .unwrap_or(usize::MAX)
        }

        fn bump(&mut self) -> Option<Tok> {
            let t = self.toks.get(self.idx).map(|(_, t)| t.clone());
            self.idx += 1;
            t
        }

        fn expect(&mut self, want: &Tok, what: &str) -> Result<(), ParseError> {
            if self.peek() == Some(want) {
                self.idx += 1;
                Ok(())
            } else {
                Err(parse_error(self.pos(), format!("expected {what}")))
            }
        }

        fn lookup(&mut self, pos: usize, name: &str) -> Result<NodeId, ParseError> {
            if let Some(&id) = self.vars.get(name) {
                return Ok(id);
            }
            if self.strict {
                return Err(parse_error(
                    pos,
                    format!(
                        "undefined input name '{name}': this program declares its \
                         inputs with 'in', and '{name}' is neither declared nor assigned"
                    ),
                ));
            }
            let id = self.g.input(name);
            self.vars.insert(name.to_string(), id);
            Ok(id)
        }

        fn factor(&mut self) -> Result<NodeId, ParseError> {
            let start = self.pos();
            match self.bump() {
                Some(Tok::Minus) => {
                    let f = self.factor()?;
                    Ok(self.g.push(Op::Neg, vec![f]))
                }
                Some(Tok::Ident(name)) => self.lookup(start, &name),
                Some(Tok::Number(v)) => Ok(self.g.constant(v)),
                Some(Tok::LParen) => {
                    let e = self.expr()?;
                    self.expect(&Tok::RParen, "')'")?;
                    Ok(e)
                }
                _ => Err(parse_error(
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
            let neg = if self.peek() == Some(&Tok::Minus) {
                self.idx += 1;
                true
            } else {
                false
            };
            match self.bump() {
                Some(Tok::Number(v)) => Ok(if neg { -v } else { v }),
                _ => Err(parse_error(self.pos(), "expected number in range bound")),
            }
        }

        fn stmt(&mut self) -> Result<(), ParseError> {
            if self.peek() == Some(&Tok::In) {
                self.idx += 1;
                loop {
                    let pos = self.pos();
                    match self.bump() {
                        Some(Tok::Ident(n)) => {
                            if self.vars.contains_key(&n) {
                                return Err(parse_error(
                                    pos,
                                    format!("duplicate declaration of input '{n}'"),
                                ));
                            }
                            let id = self.g.input(n.clone());
                            self.vars.insert(n.clone(), id);
                            if self.peek() == Some(&Tok::LBracket) {
                                self.idx += 1;
                                let lo = self.signed_number()?;
                                self.expect(&Tok::Comma, "',' between range bounds")?;
                                let hi = self.signed_number()?;
                                self.expect(&Tok::RBracket, "']' after range bounds")?;
                                self.ranges.push(RangeDecl { name: n, lo, hi });
                            }
                        }
                        _ => return Err(parse_error(pos, "expected input name after 'in'")),
                    }
                    if self.peek() == Some(&Tok::Comma) {
                        self.idx += 1;
                    } else {
                        break;
                    }
                }
                return self.expect(&Tok::Semi, "';'");
            }
            let is_out = if self.peek() == Some(&Tok::Out) {
                self.idx += 1;
                true
            } else {
                false
            };
            let name = match self.bump() {
                Some(Tok::Ident(n)) => n,
                _ => {
                    return Err(parse_error(
                        self.pos(),
                        "expected identifier on the left of '='",
                    ))
                }
            };
            self.expect(&Tok::Eq, "'='")?;
            let value = self.expr()?;
            self.expect(&Tok::Semi, "';'")?;
            self.vars.insert(name.clone(), value);
            if is_out {
                self.g.output(name, value);
            }
            Ok(())
        }
    }

    /// `parse_program_with_ranges` as first written.
    pub fn parse_program_with_ranges(src: &str) -> Result<(Cdfg, Vec<RangeDecl>), ParseError> {
        parse_inner(src).map_err(|e| e.locate(src))
    }

    fn parse_inner(src: &str) -> Result<(Cdfg, Vec<RangeDecl>), ParseError> {
        let toks = tokenize(src)?;
        // any `in` declaration anywhere makes the whole program strict, so
        // a use *before* the declaration cannot silently mint an input
        let strict = toks.iter().any(|(_, t)| *t == Tok::In);
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
            return Err(parse_error(src.len(), "program has no 'out' statement"));
        }
        // The parser only builds via checked `push`, so this cannot fail; keep
        // the non-panicking path anyway so a parser bug surfaces as an error.
        if let Err(diags) = p.g.validate_diagnostics() {
            return Err(parse_error(
                src.len(),
                format!(
                    "parser produced an invalid graph:\n{}",
                    csfma::verify::render_report(&diags)
                ),
            ));
        }
        Ok((p.g, p.ranges))
    }
}

/// The sources of the parser's unit tests (`crates/hls/src/parser.rs`),
/// which tier-1 does not run, plus number-literal, comment, non-ASCII and
/// repeated-implicit-input cases.
const UNIT_SOURCES: &[&str] = &[
    "x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;",
    "out y = a + b * (c - d) / e;",
    "out y = -x * 2.5 + 1e-3;",
    "# accumulate twice\nacc = a * b;\nacc = acc + c;\nout y = acc;",
    "out y = a + ;",
    "y = a;",
    "out y = a $ b;",
    "out y = 1.2.3;",
    "x = a*b;\nout y = x + * 2;",
    "out y = a",
    "in a, b, unused;\nout y = a + b;",
    "in a, b;\nout y = a * c;",
    "in a;\nt = a * a;\nout y = t + a;",
    "in a, a;\nout y = a;",
    "out y = a * c;\nin a;",
    "out y = a * c;",
    "in a [0.5, 2.0], b, c [-1e3, 1e3];\nout y = a*b + c;",
    "in a, b, c;\nout y = a*b + c;",
    "in a [0.5, 2.0];\nout y = a;",
    "in a [2.0, -2.0];\nout y = a;",
    "in a [0.5;\nout y = a;",
    "in a [0.5, b];\nout y = a;",
    "in a [, 1.0];\nout y = a;",
    "out y = 1e5 + 2.5E-3 + .5 + 7. + 1e+2 + 1e999 + 0e-0;",
    "out y = 1e + 2;",
    "out y = 1-2;",
    "# only a comment\n# and another\nout y = a; # trailing\n",
    "out y = a * a + a;\nout z = a / b - b;",
    "out y = a é b;",
    "out y = a ∗ b;",
    "out y = a\u{a0}b;",
    "# café in a comment is fine\nout y = a;",
];

/// One source per file of `dir` (sorted), for files ending in `ext`
/// (every file when `ext` is empty).
fn files(dir: &str, ext: &str) -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(ext))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).unwrap();
            (p.display().to_string(), src)
        })
        .collect()
}

fn ldlsolve_source(solver: usize) -> String {
    let kkt = KktSystem::assemble(&solver_suite()[solver]);
    to_source(&generate_ldlsolve(&LdlFactors::factor(&kkt.matrix)).cdfg)
}

/// Every source of the oracle, named.
fn corpus() -> Vec<(String, String)> {
    let mut all = files("examples/datapaths", ".csfma");
    all.extend(files("tests/filetests", ".csfma"));
    all.extend(files("fuzz/corpus/parser_round_trip", ""));
    for s in 0..3 {
        all.push((format!("ldlsolve-s{}", s + 1), ldlsolve_source(s)));
    }
    for (i, src) in UNIT_SOURCES.iter().enumerate() {
        all.push((format!("unit source {i}"), src.to_string()));
    }
    all
}

fn same_op(a: &Op, b: &Op) -> bool {
    match (a, b) {
        (Op::Const(x), Op::Const(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn summary(r: &Result<(Cdfg, Vec<RangeDecl>), ParseError>) -> String {
    match r {
        Ok((g, ranges)) => format!("{} nodes, {} ranges", g.len(), ranges.len()),
        Err(e) => format!("{:?} at byte {}: {e}", e.message, e.pos),
    }
}

/// `Err` describes the first difference between the parser and the
/// reference on `src`.
fn check(src: &str) -> Result<(), String> {
    let got = parse_program_with_ranges(src);
    let want = reference::parse_program_with_ranges(src);
    match (&got, &want) {
        (Ok((g, ranges)), Ok((wg, wranges))) => {
            if g.len() != wg.len() {
                return Err(format!("{}\nreference {}", summary(&got), summary(&want)));
            }
            for (i, (n, w)) in g.nodes().iter().zip(wg.nodes()).enumerate() {
                if !same_op(&n.op, &w.op) || n.args != w.args {
                    return Err(format!("node {i}: {n:?}, reference {w:?}"));
                }
            }
            let key = |r: &RangeDecl| (r.name.clone(), r.lo.to_bits(), r.hi.to_bits());
            if ranges.iter().map(key).ne(wranges.iter().map(key)) {
                return Err(format!("ranges {ranges:?}, reference {wranges:?}"));
            }
            Ok(())
        }
        (Err(e), Err(w)) if e == w => Ok(()),
        _ => Err(format!("{}\nreference {}", summary(&got), summary(&want))),
    }
}

/// What a mutant may insert: keywords, bracket and list punctuation, the
/// comment marker, number-literal characters and one multibyte character.
const ALPHABET: &[&str] = &[
    "in", "out", "[", "]", ",", ";", "#", "e", "-", ".", "0", "1", "2", "3", "4", "5", "6", "7",
    "8", "9", "é",
];

/// Delete, insert or replace one character of `src` at a seeded position.
fn mutant(src: &str, rng: &mut StdRng) -> String {
    let starts: Vec<usize> = src.char_indices().map(|(i, _)| i).collect();
    let piece = ALPHABET[rng.gen_range(0..ALPHABET.len())];
    let op = if starts.is_empty() {
        1
    } else {
        rng.gen_range(0..3)
    };
    let mut out = String::with_capacity(src.len() + piece.len());
    if op == 1 {
        let at = rng.gen_range(0..=starts.len());
        let at = starts.get(at).copied().unwrap_or(src.len());
        out.push_str(&src[..at]);
        out.push_str(piece);
        out.push_str(&src[at..]);
    } else {
        let at = starts[rng.gen_range(0..starts.len())];
        let next = src[at..].chars().next().map_or(at, |c| at + c.len_utf8());
        out.push_str(&src[..at]);
        if op == 2 {
            out.push_str(piece);
        }
        out.push_str(&src[next..]);
    }
    out
}

/// Check `count` mutants drawn over `sources`, source `k % len` for the
/// `k`-th; panics with the first mismatch.
fn check_mutants(sources: &[(String, String)], count: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..count {
        let (name, src) = &sources[k % sources.len()];
        let m = mutant(src, &mut rng);
        if let Err(e) = check(&m) {
            panic!("mutant {k} of {name} differs: {e}\nmutant source:\n{m}");
        }
    }
}

#[test]
fn every_corpus_source_matches_the_reference() {
    for (name, src) in corpus() {
        if let Err(e) = check(&src) {
            panic!("{name} differs: {e}");
        }
    }
}

#[test]
fn seeded_mutants_match_the_reference() {
    check_mutants(&corpus(), 20_000, 0x9a25_e11e);
}

#[test]
#[ignore = "a million mutants: ci.sh runs it in release with --include-ignored"]
fn a_million_mutants_match_the_reference() {
    check_mutants(&corpus(), 1_000_000, 0x5eed_0001);
}

#[test]
fn non_ascii_characters_are_named_whole() {
    let e = parse_program("out y = a é b;").unwrap_err();
    assert_eq!(e.message, "unexpected character 'é'");
    assert_eq!((e.pos, e.line, e.col), (10, 1, 11));
    let e = parse_program("out y = a ∗ b;").unwrap_err();
    assert_eq!(e.message, "unexpected character '∗'");
    let e = parse_program("x = a;\nout y = a\u{a0}b;").unwrap_err();
    // `{:?}` escapes a no-break space, as it does any whitespace
    assert_eq!(e.message, r"unexpected character '\u{a0}'");
    assert_eq!((e.pos, e.line, e.col), (16, 2, 10));
}
