//! # csfma-hls — Nymble-style datapath compilation with automatic
//! P/FCS-FMA insertion (Sec. III-I, Fig. 12)
//!
//! The paper integrates its FMA units into the Nymble C-to-hardware
//! compiler: the datapath is first assembled from IEEE 754 operators and
//! scheduled; then multiply→add pairs **on the critical path** are
//! greedily replaced by carry-save FMA units wrapped in format
//! conversions; redundant back-to-back conversions between chained FMAs
//! are removed; the datapath is rescheduled; and the procedure repeats
//! until no further insertion helps.
//!
//! This crate provides the pieces of that flow:
//!
//! * [`Cdfg`] — a control-data-flow-graph IR for straight-line
//!   floating-point datapaths (the shape CVXGEN solvers compile to),
//! * [`interp`] — reference (f64) and bit-accurate (soft-float +
//!   behavioral FMA) interpreters, used to prove the pass preserves
//!   semantics,
//! * [`compile`](mod@compile) — the batch execution engine: a one-time lowering of a
//!   validated graph to a flat register-slot instruction [`Tape`]
//!   (cached by graph identity) with bit-accurate, oracle and JIT
//!   backends and deterministic parallel [`Tape::eval_batch`],
//! * [`sched`] — ASAP / resource-constrained list scheduling with the
//!   200 MHz operator latency table,
//! * [`fuse`] — the Fig. 12 fusion pass,
//! * [`lint`] — the adapter into `csfma-verify`'s static checker; the
//!   rewrite passes re-run the checker after every trial rewrite in
//!   debug builds.

#![warn(missing_docs)]

pub mod cdfg;
pub mod compile;
pub mod fuse;
pub mod interp;
pub mod jit;
pub mod lint;
pub mod mutate;
pub mod opt;
pub mod parser;
pub mod printer;
pub mod profile;
pub mod robust;
pub mod sched;

pub use cdfg::{Cdfg, Domain, FmaKind, NodeId, Op};
pub use compile::{
    clear_tape_cache, compile, compile_cached, compile_cached_with, compile_with,
    graph_fingerprint, set_tape_cache_capacity, set_tape_cache_shards, tape_cache_shards,
    tape_cache_stats, CompileError, CompileOptions, Instr, Tape, TapeBackend, TapeCacheStats,
    DEFAULT_TAPE_CACHE_CAPACITY, MAX_TAPE_CACHE_SHARDS,
};
pub use fuse::{fuse_critical_paths, FusionConfig, FusionReport};
pub use jit::{
    compile_module, jit_available, jit_listing, jit_refusal, lint_jit, JitModule, JitRefusal,
    JitSemantics,
};
pub use lint::{
    capacity_list, debug_assert_tape_clean, lint_dataflow, lint_ranges, lint_schedule,
    promotion_mask, schedule_view, to_check_graph, to_source_view, to_tape_view, verify_tape,
};
pub use mutate::{apply_mutation, ALL_MUTATIONS};
pub use opt::OptStats;
pub use parser::{parse_program, parse_program_with_ranges, ParseError};
pub use printer::{to_source, to_source_with_ranges};
pub use profile::{EvalStats, PipelineReport, Profiler, StageRecord};
pub use robust::{BatchReport, RobustOptions, RowOutcome};
pub use sched::{
    asap_schedule, critical_path, list_schedule, occupancy_chart, OpTiming, ResourceKind,
    ResourceLimits, Schedule,
};

#[cfg(test)]
mod tests;
