//! Structured diagnostics: severity, rule id, span, rendered report.
//!
//! Every analysis pass in this crate — and the `Cdfg` validator and text
//! parser in `csfma-hls` — reports violations as [`Diagnostic`] values
//! instead of panicking, so tools can filter by rule, assert specific
//! rules in tests, and render human-readable reports.

use std::fmt;

/// How severe a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not value-corrupting (e.g. a conversion the
    /// elimination pass should have cancelled).
    Warning,
    /// A violated invariant: the datapath, schedule or format would
    /// compute wrong values or deadlock.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Identity of the violated rule. The short id (`D…`/`S…`/`W…`/`P…`) is
/// stable and what mutation tests assert on; the kebab-case name is for
/// humans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// D001: node argument count differs from the operation's arity.
    ArityMismatch,
    /// D002: an argument refers to a later (or nonexistent) node — the
    /// graph is cyclic or dangling.
    EdgeOrder,
    /// D003: an edge crosses value domains (IEEE vs carry-save) without
    /// a conversion.
    DomainMismatch,
    /// D004: a format conversion that cancels against its producer or
    /// duplicates a sibling — the Fig. 12c elimination missed it.
    RedundantConversion,
    /// D005: an interior node no output depends on (dead code survived
    /// `eliminate_dead`).
    DeadNode,
    /// D006: the graph computes no output at all.
    NoSink,
    /// S001: a node starts before an argument's latency has elapsed.
    PrematureStart,
    /// S002: a node never received a start cycle.
    Unscheduled,
    /// S003: more operations start in one cycle than the resource class
    /// has units.
    ResourceOverflow,
    /// S004: the schedule's recorded length understates the real
    /// makespan.
    LengthUnderstated,
    /// W001: the addition window lacks the redundant-sign guard
    /// positions the 3:2 compressors need (DESIGN.md §7.2).
    GuardHeadroom,
    /// W002: the explicit-carry spacing does not divide the block width
    /// (DESIGN.md §7.4).
    CarrySpacing,
    /// W003: block-granular normalization cannot guarantee enough
    /// significant digits for the significand (the 55→58 widening rule).
    SignificandCoverage,
    /// W004: no rounding-data block exists below the kept mantissa.
    RoundingBlock,
    /// W005: a degenerate carry spacing (every digit explicit) — use the
    /// full carry-save format instead.
    DegenerateSpacing,
    /// W006: a fused format's `B` significand differs from the binary64
    /// significand the tape feeds every `B` operand with.
    BWidthMismatch,
    /// P001: the textual datapath source failed to parse.
    ParseError,
    /// X001: the tape compiler panicked; the graph is rejected and the
    /// poisoned compilation is never cached.
    CompilerPanic,
    /// F001: a datapath self-check (mod-3 residue or recompute-compare,
    /// DESIGN.md §10) detected a hardware fault during execution.
    FaultDetected,
    /// O001: profiling was requested but the observability layer is
    /// compiled out (`obs` feature disabled) — the run proceeds, the
    /// profile is empty.
    ObsDisabled,
    /// O002: the profiler observed unbalanced stage spans (a span was
    /// force-closed or never exited) — the timings are suspect, the
    /// computed values are not.
    ObsSpanImbalance,
    /// T001: a tape instruction reads a register slot that no earlier
    /// instruction wrote (or indexes past the declared register file).
    TapeUninitializedSlot,
    /// T002: a tape instruction's `source_nodes` provenance is missing,
    /// out of range, or names a source node of an incompatible op class.
    TapeProvenanceBroken,
    /// T003: the tape's input/output layout (names, declared order, or
    /// arity) disagrees with the source graph, or an output is stored
    /// zero or multiple times.
    TapeIoMismatch,
    /// T004: a carry-save register is produced in one CS format (PCS vs
    /// FCS) and consumed as another.
    TapeCsKindMismatch,
    /// T005: symbolic replay found an operand whose value ancestry
    /// differs from the source graph — an operand swap, slot clobber, or
    /// read-after-free under dead-slot reuse.
    TapeValueFlowMismatch,
    /// T006: a folded constant in the tape's pool is not bit-identical
    /// to re-evaluating the all-constant source subtree it replaced.
    TapeConstMismatch,
    /// R001: an effective subtraction whose bounded operand intervals
    /// overlap — catastrophic cancellation is reachable.
    CancellationRisk,
    /// R002: overflow, NaN, or a subnormal is reachable at a node even
    /// though every transitive input carries declared bounds.
    RangeOverflow,
    /// R003: an `in x [lo, hi];` declaration is invalid (NaN bound, or
    /// `lo > hi`).
    InvalidRange,
    /// SV001: a client frame declared a length beyond the connection's
    /// frame-size limit; the frame is refused before its body is read.
    ServeFrameTooLarge,
    /// SV002: a client frame could not be decoded (unknown type tag,
    /// truncated body, or malformed UTF-8 in a text field).
    ServeFrameMalformed,
    /// SV003: a well-formed `SUBMIT` was rejected — unparseable graph,
    /// compile refusal, unknown backend tag, or row data whose length is
    /// not a whole number of input vectors.
    ServeBadRequest,
    /// SV004: the admission gate shed the request (queue full or
    /// in-flight byte budget exhausted); the `SHED` response carries a
    /// retry-after hint and the server did no work on the request.
    ServeOverloadShed,
    /// SV005: the request's deadline expired at a chunk boundary; all
    /// partial work was discarded and no result bytes were produced.
    ServeDeadlineExceeded,
    /// SV006: the server is draining (graceful shutdown) and accepts no
    /// new work; in-flight requests still complete or deadline out.
    ServeDraining,
    /// J001: more than half the rows sent to the native JIT backend
    /// would bail out to the interpreter (advisory; the result is still
    /// bit-exact, only the speedup is gone).
    JitBailoutRate,
}

impl Rule {
    /// Every rule the workspace can emit, in catalogue order. New rules
    /// must be added here — `docs/DIAGNOSTICS.md` is tested against this
    /// list, so forgetting one fails the build's registry-walk test.
    pub const ALL: [Rule; 37] = [
        Rule::ArityMismatch,
        Rule::EdgeOrder,
        Rule::DomainMismatch,
        Rule::RedundantConversion,
        Rule::DeadNode,
        Rule::NoSink,
        Rule::PrematureStart,
        Rule::Unscheduled,
        Rule::ResourceOverflow,
        Rule::LengthUnderstated,
        Rule::GuardHeadroom,
        Rule::CarrySpacing,
        Rule::SignificandCoverage,
        Rule::RoundingBlock,
        Rule::DegenerateSpacing,
        Rule::BWidthMismatch,
        Rule::ParseError,
        Rule::CompilerPanic,
        Rule::FaultDetected,
        Rule::ObsDisabled,
        Rule::ObsSpanImbalance,
        Rule::TapeUninitializedSlot,
        Rule::TapeProvenanceBroken,
        Rule::TapeIoMismatch,
        Rule::TapeCsKindMismatch,
        Rule::TapeValueFlowMismatch,
        Rule::TapeConstMismatch,
        Rule::CancellationRisk,
        Rule::RangeOverflow,
        Rule::InvalidRange,
        Rule::ServeFrameTooLarge,
        Rule::ServeFrameMalformed,
        Rule::ServeBadRequest,
        Rule::ServeOverloadShed,
        Rule::ServeDeadlineExceeded,
        Rule::ServeDraining,
        Rule::JitBailoutRate,
    ];

    /// Stable short id.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::ArityMismatch => "D001",
            Rule::EdgeOrder => "D002",
            Rule::DomainMismatch => "D003",
            Rule::RedundantConversion => "D004",
            Rule::DeadNode => "D005",
            Rule::NoSink => "D006",
            Rule::PrematureStart => "S001",
            Rule::Unscheduled => "S002",
            Rule::ResourceOverflow => "S003",
            Rule::LengthUnderstated => "S004",
            Rule::GuardHeadroom => "W001",
            Rule::CarrySpacing => "W002",
            Rule::SignificandCoverage => "W003",
            Rule::RoundingBlock => "W004",
            Rule::DegenerateSpacing => "W005",
            Rule::BWidthMismatch => "W006",
            Rule::ParseError => "P001",
            Rule::CompilerPanic => "X001",
            Rule::FaultDetected => "F001",
            Rule::ObsDisabled => "O001",
            Rule::ObsSpanImbalance => "O002",
            Rule::TapeUninitializedSlot => "T001",
            Rule::TapeProvenanceBroken => "T002",
            Rule::TapeIoMismatch => "T003",
            Rule::TapeCsKindMismatch => "T004",
            Rule::TapeValueFlowMismatch => "T005",
            Rule::TapeConstMismatch => "T006",
            Rule::CancellationRisk => "R001",
            Rule::RangeOverflow => "R002",
            Rule::InvalidRange => "R003",
            Rule::ServeFrameTooLarge => "SV001",
            Rule::ServeFrameMalformed => "SV002",
            Rule::ServeBadRequest => "SV003",
            Rule::ServeOverloadShed => "SV004",
            Rule::ServeDeadlineExceeded => "SV005",
            Rule::ServeDraining => "SV006",
            Rule::JitBailoutRate => "J001",
        }
    }

    /// Human-readable kebab-case name.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::ArityMismatch => "arity-mismatch",
            Rule::EdgeOrder => "edge-order",
            Rule::DomainMismatch => "domain-mismatch",
            Rule::RedundantConversion => "redundant-conversion",
            Rule::DeadNode => "dead-node",
            Rule::NoSink => "no-sink",
            Rule::PrematureStart => "premature-start",
            Rule::Unscheduled => "unscheduled",
            Rule::ResourceOverflow => "resource-overflow",
            Rule::LengthUnderstated => "length-understated",
            Rule::GuardHeadroom => "guard-headroom",
            Rule::CarrySpacing => "carry-spacing",
            Rule::SignificandCoverage => "significand-coverage",
            Rule::RoundingBlock => "rounding-block",
            Rule::DegenerateSpacing => "degenerate-spacing",
            Rule::BWidthMismatch => "b-width-mismatch",
            Rule::ParseError => "parse-error",
            Rule::CompilerPanic => "compiler-panic",
            Rule::FaultDetected => "fault-detected",
            Rule::ObsDisabled => "obs-disabled",
            Rule::ObsSpanImbalance => "obs-span-imbalance",
            Rule::TapeUninitializedSlot => "tape-uninitialized-slot",
            Rule::TapeProvenanceBroken => "tape-provenance-broken",
            Rule::TapeIoMismatch => "tape-io-mismatch",
            Rule::TapeCsKindMismatch => "tape-cs-kind-mismatch",
            Rule::TapeValueFlowMismatch => "tape-value-flow-mismatch",
            Rule::TapeConstMismatch => "tape-const-mismatch",
            Rule::CancellationRisk => "cancellation-risk",
            Rule::RangeOverflow => "range-overflow",
            Rule::InvalidRange => "invalid-range",
            Rule::ServeFrameTooLarge => "serve-frame-too-large",
            Rule::ServeFrameMalformed => "serve-frame-malformed",
            Rule::ServeBadRequest => "serve-bad-request",
            Rule::ServeOverloadShed => "serve-overload-shed",
            Rule::ServeDeadlineExceeded => "serve-deadline-exceeded",
            Rule::ServeDraining => "serve-draining",
            Rule::JitBailoutRate => "jit-bailout-rate",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.id(), self.name())
    }
}

/// Where in the artifact the finding points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Span {
    /// A single graph node.
    Node(usize),
    /// A single tape instruction (post-lowering program position).
    Instr(usize),
    /// The edge from `user`'s argument slot `arg` to its producer.
    Edge {
        /// Consuming node.
        user: usize,
        /// Argument position within the consumer.
        arg: usize,
    },
    /// One schedule cycle (for capacity findings).
    Cycle(u32),
    /// A position in textual source.
    Source {
        /// 1-based line.
        line: u32,
        /// 1-based column.
        col: u32,
    },
    /// A named unit format.
    Format(String),
    /// The whole artifact.
    Global,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Node(id) => write!(f, "node {id}"),
            Span::Instr(i) => write!(f, "instr {i}"),
            Span::Edge { user, arg } => write!(f, "node {user}, arg {arg}"),
            Span::Cycle(c) => write!(f, "cycle {c}"),
            Span::Source { line, col } => write!(f, "{line}:{col}"),
            Span::Format(name) => write!(f, "format {name:?}"),
            Span::Global => write!(f, "graph"),
        }
    }
}

/// One finding of an analysis pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Which invariant.
    pub rule: Rule,
    /// Where.
    pub span: Span,
    /// Specifics: the concrete nodes, cycles, widths involved.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity finding.
    pub fn error(rule: Rule, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            rule,
            span,
            message: message.into(),
        }
    }

    /// A warning-severity finding.
    pub fn warning(rule: Rule, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            rule,
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {} ({})",
            self.severity,
            self.rule.id(),
            self.rule.name(),
            self.message,
            self.span
        )
    }
}

/// True if any finding is error severity.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Render findings as a line-per-finding report with a summary footer.
pub fn render_report(diags: &[Diagnostic]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(out, "{d}");
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    let _ = writeln!(out, "{errors} error(s), {warnings} warning(s)");
    out
}

/// Render findings as a JSON array for machine consumers
/// (`csfma-lint --json`). Each element carries `severity`, `rule`,
/// `name`, `span` (the same text the human report prints), and
/// `message`. Emitted by hand so the verify crate stays
/// dependency-free; strings are escaped per RFC 8259.
pub fn render_json(diags: &[Diagnostic]) -> String {
    use std::fmt::Write as _;
    fn escape(s: &str, out: &mut String) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    }
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"severity\":\"{}\",\"rule\":\"{}\",\"name\":\"{}\",\"span\":\"",
            d.severity,
            d.rule.id(),
            d.rule.name()
        );
        escape(&d.span.to_string(), &mut out);
        out.push_str("\",\"message\":\"");
        escape(&d.message, &mut out);
        out.push_str("\"}");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_contains_rule_and_span() {
        let d = Diagnostic::error(
            Rule::DomainMismatch,
            Span::Edge { user: 7, arg: 1 },
            "Add consumes a CS value",
        );
        let s = d.to_string();
        assert!(s.contains("D003"), "{s}");
        assert!(s.contains("domain-mismatch"), "{s}");
        assert!(s.contains("node 7, arg 1"), "{s}");
        assert!(s.starts_with("error"), "{s}");
    }

    #[test]
    fn report_counts_severities() {
        let diags = vec![
            Diagnostic::error(Rule::PrematureStart, Span::Node(3), "x"),
            Diagnostic::warning(Rule::DeadNode, Span::Node(4), "y"),
            Diagnostic::warning(Rule::RedundantConversion, Span::Node(5), "z"),
        ];
        assert!(has_errors(&diags));
        let rep = render_report(&diags);
        assert!(rep.contains("1 error(s), 2 warning(s)"), "{rep}");
        assert_eq!(rep.lines().count(), 4);
    }

    #[test]
    fn json_rendering_escapes_and_lists_all_fields() {
        let diags = vec![
            Diagnostic::error(Rule::TapeValueFlowMismatch, Span::Instr(3), "a \"b\"\nc"),
            Diagnostic::warning(Rule::CancellationRisk, Span::Node(1), "plain"),
        ];
        let j = render_json(&diags);
        assert!(j.starts_with('[') && j.ends_with(']'), "{j}");
        assert!(j.contains("\"rule\":\"T005\""), "{j}");
        assert!(j.contains("\"span\":\"instr 3\""), "{j}");
        assert!(j.contains("a \\\"b\\\"\\nc"), "{j}");
        assert!(j.contains("\"severity\":\"warning\""), "{j}");
        assert_eq!(render_json(&[]), "[]");
    }

    #[test]
    fn rule_ids_are_unique() {
        let mut ids: Vec<_> = Rule::ALL.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Rule::ALL.len());
        let mut names: Vec<_> = Rule::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Rule::ALL.len());
    }

    /// The registry walk of ISSUE 5: every rule the workspace can emit
    /// must be documented in `docs/DIAGNOSTICS.md` — by stable id as a
    /// section heading and by kebab-case name — so the published
    /// catalogue cannot silently rot when a rule is added.
    #[test]
    fn every_rule_is_documented_in_diagnostics_md() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/DIAGNOSTICS.md");
        let doc = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("docs/DIAGNOSTICS.md must exist ({e})"));
        let mut missing = Vec::new();
        for rule in Rule::ALL {
            let heading = format!("## {}", rule.id());
            if !doc.contains(&heading) {
                missing.push(format!("{} (no `{heading}` heading)", rule.id()));
            } else if !doc.contains(rule.name()) {
                missing.push(format!("{} (name `{}` absent)", rule.id(), rule.name()));
            }
        }
        assert!(
            missing.is_empty(),
            "diagnostic codes missing from docs/DIAGNOSTICS.md: {missing:?}"
        );
    }
}
