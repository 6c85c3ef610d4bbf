//! # csfma-obs — stage spans and report counters
//!
//! The batch engine's pipeline (parse → gate → optimize → lower → eval)
//! is a black box at runtime without instrumentation, and the paper's own
//! methodology (per-architecture latency/schedule tables, Secs. IV–V)
//! only works because every stage is measured. This crate is the one
//! instrumentation substrate the whole workspace shares: a [`Profiler`]
//! records hierarchical stage **spans** with monotonic wall times and
//! named counters into a [`PipelineReport`] (flattened pre-order tree:
//! each [`StageRecord`] carries its nesting depth).
//!
//! The crate holds no process-wide state. A profiler belongs to one
//! pipeline run, and the counters it reports come from that run's own
//! plain-data stats (`csfma_hls::EvalStats`, `csfma_hls::BatchReport`),
//! so concurrent runs cannot count each other's work.
//!
//! ## The determinism contract
//!
//! Instrumentation observes; it never participates. Nothing in this
//! crate feeds back into compiled tapes or evaluated values, so output
//! bytes are identical with a recording profiler or a disabled one —
//! `tests/observability.rs` in the workspace root enforces this with
//! byte-identity proptests.
//!
//! ## Disabled profilers
//!
//! A [`Profiler::disabled`] instance is the runtime no-op: every entry
//! point is one branch on an empty `Option`, and its report says it
//! recorded nothing ([`PipelineReport::recorded`]).

#![warn(missing_docs)]

use std::fmt;
use std::time::Instant;

/// Measure the wall time of `f` in microseconds (monotonic clock). This
/// is the shared stopwatch of the bench harnesses and the CLI.
pub fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e6)
}

// ---------------------------------------------------------------------
// spans & reports
// ---------------------------------------------------------------------

/// One completed pipeline stage: a node of the span tree, flattened in
/// pre-order with its nesting `depth` (children follow their parent and
/// carry `depth + 1`).
#[derive(Clone, Debug, PartialEq)]
pub struct StageRecord {
    /// Stage name (`"parse"`, `"gate"`, `"lower"`, …).
    pub name: &'static str,
    /// Nesting depth: `0` for top-level stages.
    pub depth: usize,
    /// Monotonic wall time spent inside the span, microseconds.
    pub wall_us: f64,
}

/// Handle returned by [`Profiler::enter`]; pass it back to
/// [`Profiler::exit`]. Tokens are affine by convention (enter/exit in
/// LIFO order); a leaked token surfaces as a warning in the report, not
/// as a panic.
#[derive(Debug)]
#[must_use = "pass the token back to Profiler::exit to close the span"]
pub struct SpanToken(usize);

const TOKEN_NONE: usize = usize::MAX;

#[derive(Debug)]
struct ProfilerInner {
    records: Vec<StageRecord>,
    /// Per-record start instant (taken at `enter`, consumed at `exit`).
    starts: Vec<Option<Instant>>,
    /// Indices of currently-open records, innermost last.
    stack: Vec<usize>,
    counters: Vec<(&'static str, f64)>,
    warnings: Vec<String>,
}

/// Collects hierarchical stage spans and named counters into a
/// [`PipelineReport`]. One profiler instruments one pipeline run; it is
/// deliberately not global, so concurrent compilations cannot bleed into
/// each other's reports.
///
/// A [`Profiler::disabled`] instance records nothing and costs one
/// branch per call.
#[derive(Debug, Default)]
pub struct Profiler {
    inner: Option<ProfilerInner>,
}

impl Profiler {
    /// A recording profiler.
    pub fn new() -> Self {
        Profiler {
            inner: Some(ProfilerInner {
                records: Vec::new(),
                starts: Vec::new(),
                stack: Vec::new(),
                counters: Vec::new(),
                warnings: Vec::new(),
            }),
        }
    }

    /// A profiler that records nothing, for callers that want the
    /// profiled code path without the bookkeeping.
    pub fn disabled() -> Self {
        Profiler::default()
    }

    /// True when this instance is actually recording.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span named `name`, nested inside the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> SpanToken {
        if let Some(inner) = &mut self.inner {
            let idx = inner.records.len();
            inner.records.push(StageRecord {
                name,
                depth: inner.stack.len(),
                wall_us: 0.0,
            });
            inner.starts.push(Some(Instant::now()));
            inner.stack.push(idx);
            return SpanToken(idx);
        }
        SpanToken(TOKEN_NONE)
    }

    /// Close a span. Spans close innermost-first; exiting an outer span
    /// force-closes anything still open inside it (recorded with the
    /// time observed at this exit, plus a report warning).
    #[inline]
    pub fn exit(&mut self, token: SpanToken) {
        if let Some(inner) = &mut self.inner {
            if token.0 == TOKEN_NONE {
                return;
            }
            while let Some(open) = inner.stack.pop() {
                if let Some(start) = inner.starts[open].take() {
                    inner.records[open].wall_us = start.elapsed().as_secs_f64() * 1e6;
                }
                if open == token.0 {
                    return;
                }
                inner.warnings.push(format!(
                    "span {:?} force-closed by an outer exit",
                    inner.records[open].name
                ));
            }
            inner
                .warnings
                .push("span token exited twice (or out of order)".to_string());
        }
    }

    /// Run `f` inside a span named `name`.
    #[inline]
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let tok = self.enter(name);
        let r = f(self);
        self.exit(tok);
        r
    }

    /// Record (or overwrite) a named report counter.
    #[inline]
    pub fn set_counter(&mut self, name: &'static str, value: f64) {
        if let Some(inner) = &mut self.inner {
            if let Some(slot) = inner.counters.iter_mut().find(|(n, _)| *n == name) {
                slot.1 = value;
                return;
            }
            inner.counters.push((name, value));
        }
    }

    /// Add `value` to a named report counter (creating it at zero).
    #[inline]
    pub fn add_counter(&mut self, name: &'static str, value: f64) {
        if let Some(inner) = &mut self.inner {
            if let Some(slot) = inner.counters.iter_mut().find(|(n, _)| *n == name) {
                slot.1 += value;
                return;
            }
            inner.counters.push((name, value));
        }
    }

    /// Attach a free-form warning to the report.
    pub fn warn(&mut self, message: impl Into<String>) {
        if let Some(inner) = &mut self.inner {
            inner.warnings.push(message.into());
        }
    }

    /// Close any spans still open and produce the report. A profiler
    /// that never recorded returns [`PipelineReport::empty`].
    pub fn finish(self) -> PipelineReport {
        if let Some(mut inner) = self.inner {
            while let Some(open) = inner.stack.pop() {
                if let Some(start) = inner.starts[open].take() {
                    inner.records[open].wall_us = start.elapsed().as_secs_f64() * 1e6;
                }
                inner.warnings.push(format!(
                    "span {:?} never exited; closed at finish",
                    inner.records[open].name
                ));
            }
            return PipelineReport {
                recorded: true,
                stages: inner.records,
                counters: inner.counters,
                warnings: inner.warnings,
            };
        }
        PipelineReport::empty()
    }
}

/// The machine-readable product of one profiled pipeline run: stage
/// spans (pre-order, depth-annotated), named counters, and any
/// instrumentation self-diagnostics. Produced by [`Profiler::finish`];
/// serialized by [`PipelineReport::to_json`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineReport {
    /// Whether a recording profiler produced this report. `false` means
    /// a [`Profiler::disabled`] ran — the report is structurally valid
    /// but empty.
    pub recorded: bool,
    /// Completed spans in pre-order (parents before children).
    pub stages: Vec<StageRecord>,
    /// Named scalar counters, in insertion order.
    pub counters: Vec<(&'static str, f64)>,
    /// Instrumentation self-diagnostics (unbalanced spans, …). These
    /// describe the *measurement*, never the computation.
    pub warnings: Vec<String>,
}

impl PipelineReport {
    /// The report of a run nobody measured.
    pub fn empty() -> Self {
        PipelineReport::default()
    }

    /// The first stage with this name, if any.
    pub fn stage(&self, name: &str) -> Option<&StageRecord> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Value of a named counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Merge another report into this one: stages append (re-based at
    /// top level relative depth is preserved), counters from `other`
    /// overwrite same-named counters here. Used to stitch the compile
    /// and eval halves of a CLI run into one document.
    pub fn absorb(&mut self, other: PipelineReport) {
        self.recorded |= other.recorded;
        self.stages.extend(other.stages);
        for (name, value) in other.counters {
            if let Some(slot) = self.counters.iter_mut().find(|(n, _)| *n == name) {
                slot.1 = value;
            } else {
                self.counters.push((name, value));
            }
        }
        self.warnings.extend(other.warnings);
    }

    /// Serialize as a self-contained JSON object:
    /// `{"recorded": …, "stages": [{"name","depth","wall_us"}…],
    /// "counters": {…}, "warnings": […]}`. Hand-rolled — the workspace
    /// has no JSON dependency — with round-trip-precision numbers.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"recorded\": {},", self.recorded);
        let _ = writeln!(s, "  \"stages\": [");
        for (i, st) in self.stages.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"depth\": {}, \"wall_us\": {:.3}}}{}",
                st.name,
                st.depth,
                st.wall_us,
                if i + 1 < self.stages.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"counters\": {{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            // counters are logically integers or rates; print either way
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            if v.fract() == 0.0 && v.abs() < 9e15 {
                let _ = writeln!(s, "    \"{name}\": {}{comma}", *v as i64);
            } else {
                let _ = writeln!(s, "    \"{name}\": {v:.4}{comma}");
            }
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"warnings\": [");
        for (i, w) in self.warnings.iter().enumerate() {
            let _ = writeln!(
                s,
                "    \"{}\"{}",
                w.replace('\\', "\\\\").replace('"', "\\\""),
                if i + 1 < self.warnings.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = write!(s, "}}");
        s
    }
}

impl fmt::Display for PipelineReport {
    /// Human-readable stage tree plus counters (the `--profile` text
    /// form).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.recorded {
            return writeln!(f, "profile: observability disabled (nothing recorded)");
        }
        writeln!(f, "profile:")?;
        for st in &self.stages {
            writeln!(
                f,
                "  {:indent$}{:<12} {:>10.1} us",
                "",
                st.name,
                st.wall_us,
                indent = st.depth * 2
            )?;
        }
        for (name, v) in &self.counters {
            if v.fract() == 0.0 && v.abs() < 9e15 {
                writeln!(f, "  {name} = {}", *v as i64)?;
            } else {
                writeln!(f, "  {name} = {v:.4}")?;
            }
        }
        for w in &self.warnings {
            writeln!(f, "  warning: {w}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_preorder_with_depth() {
        let mut p = Profiler::new();
        let outer = p.enter("compile");
        let inner = p.enter("gate");
        std::thread::sleep(std::time::Duration::from_micros(200));
        p.exit(inner);
        let inner2 = p.enter("lower");
        p.exit(inner2);
        p.exit(outer);
        let rep = p.finish();
        assert!(rep.recorded);
        let names: Vec<_> = rep.stages.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(names, vec![("compile", 0), ("gate", 1), ("lower", 1)]);
        let parent = rep.stage("compile").unwrap().wall_us;
        let children: f64 = rep.stages.iter().skip(1).map(|s| s.wall_us).sum();
        assert!(
            children <= parent * 1.0000001,
            "children {children} exceed parent {parent}"
        );
        assert!(rep.warnings.is_empty(), "{:?}", rep.warnings);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        let t = p.enter("x");
        p.set_counter("c", 3.0);
        p.exit(t);
        let rep = p.finish();
        assert!(!rep.recorded);
        assert!(rep.stages.is_empty());
        assert!(rep.counter("c").is_none());
        assert_eq!(rep, PipelineReport::empty());
    }

    #[test]
    fn unbalanced_spans_warn_instead_of_panicking() {
        let mut p = Profiler::new();
        let outer = p.enter("outer");
        let _leaked = p.enter("leaked");
        p.exit(outer); // force-closes "leaked"
        let rep = p.finish();
        assert!(rep.recorded);
        assert_eq!(rep.stages.len(), 2);
        assert!(rep.warnings.iter().any(|w| w.contains("leaked")), "{rep:?}");
    }

    #[test]
    fn counters_set_add_and_serialize() {
        let mut p = Profiler::new();
        p.add_counter("rows", 10.0);
        p.add_counter("rows", 5.0);
        p.set_counter("rate", 2.5);
        p.set_counter("rate", 3.5);
        let rep = p.finish();
        assert!(rep.recorded);
        assert_eq!(rep.counter("rows"), Some(15.0));
        assert_eq!(rep.counter("rate"), Some(3.5));
        let json = rep.to_json();
        assert!(json.contains("\"rows\": 15"), "{json}");
        assert!(json.contains("\"rate\": 3.5"), "{json}");
        assert!(json.contains("\"recorded\": true"), "{json}");
    }

    #[test]
    fn absorb_merges_counters_and_stages() {
        let mut a = Profiler::new();
        let t = a.enter("compile");
        a.exit(t);
        a.set_counter("x", 1.0);
        let mut ra = a.finish();

        let mut b = Profiler::new();
        let t = b.enter("eval");
        b.exit(t);
        b.set_counter("x", 9.0);
        b.set_counter("y", 2.0);
        let rb = b.finish();

        ra.absorb(rb);
        assert!(ra.recorded);
        assert!(ra.stage("compile").is_some() && ra.stage("eval").is_some());
        assert_eq!(ra.counter("x"), Some(9.0));
        assert_eq!(ra.counter("y"), Some(2.0));
    }

    #[test]
    fn time_us_measures_even_when_disabled() {
        let (value, us) = time_us(|| {
            std::thread::sleep(std::time::Duration::from_micros(300));
            42
        });
        assert_eq!(value, 42);
        assert!(us >= 100.0, "stopwatch must be real: {us}");
    }
}
