//! # csfma-verify — static datapath, schedule and format checking
//!
//! The HLS pass (Sec. III-I, Fig. 12) repeatedly rewrites a scheduled
//! datapath: multiply→add pairs fuse into carry-save FMA units, format
//! conversions are inserted and cancelled, and the graph is rescheduled.
//! Every one of those rewrites must preserve three families of invariants
//! that are *statically decidable* — no simulation needed:
//!
//! 1. [`dataflow`] — every edge of the graph is domain-consistent
//!    (IEEE 754 vs the carry-save transport format), conversions are
//!    legal and non-redundant, arities match, and the node order is
//!    acyclic;
//! 2. [`hazard`] — a computed schedule never fires a node before all of
//!    its arguments' latencies have completed, and never exceeds a
//!    resource class's per-cycle start capacity — a race detector for
//!    ASAP and list schedules;
//! 3. [`widths`] — a carry-save FMA format keeps enough guard and
//!    redundant-sign headroom that the compressor tree, carry reduction
//!    and block-granular normalization are exact where the paper requires
//!    exactness (the two bug classes of DESIGN.md §7.2/§7.4 become lint
//!    failures here instead of `2^k`-scale runtime corruption);
//! 4. [`tape`] — a compiled instruction tape is a faithful translation
//!    of its source graph: slots are defined before use, the positional
//!    input/output layout survives, carry-save formats are consumed as
//!    produced, and every operand's value ancestry matches what the
//!    per-instruction provenance promises (the `T*` rules — a
//!    translation validator in the `verify_function` tradition);
//! 5. [`range`] — an interval abstract interpretation over declared
//!    input ranges that flags reachable cancellation and overflow, and
//!    refines the worst-case width bounds of [`widths`] into
//!    datapath-specific proofs (the `R*` rules).
//!
//! All passes report through the structured [`Diagnostic`] type instead
//! of panicking, so callers (the fusion pass, the `csfma-lint` CLI, CI)
//! can render, filter, count and test individual rules.
//!
//! The crate deliberately sits *below* `csfma-hls` in the dependency
//! graph: the graph passes operate on a normalized [`graph::Graph`] view
//! that `csfma-hls` adapts its `Cdfg` into, which lets the fusion pass
//! itself re-run the checker after every trial rewrite.

#![warn(missing_docs)]

pub mod dataflow;
pub mod diag;
pub mod graph;
pub mod hazard;
pub mod range;
pub mod tape;
pub mod widths;

pub use dataflow::check_dataflow;
pub use diag::{has_errors, render_json, render_report, Diagnostic, Rule, Severity, Span};
pub use graph::{Conversion, Domain, Graph, Node, Role, ScheduleView};
pub use hazard::check_schedule;
pub use range::{analyze_ranges, Interval, RangeDecl, RangeReport};
pub use tape::{check_tape, CsKind, SourceView, SrcNode, SrcOp, TapeInstr, TapeView};
pub use widths::{check_format, check_standard_formats, window_plan, WindowPlan};
