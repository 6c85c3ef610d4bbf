//! Pipeline observability: the glue between the engine and `csfma-obs`.
//!
//! Every profiled entry point in this crate
//! ([`compile_with`](crate::compile_with),
//! [`compile_cached_with`](crate::compile_cached_with),
//! [`Tape::eval_batch_profiled`](crate::Tape::eval_batch_profiled),
//! [`Tape::eval_batch_robust_profiled`](crate::Tape::eval_batch_robust_profiled))
//! takes a `&mut` [`Profiler`] and records hierarchical stage spans
//! (`compile` → `gate`/`optimize`/`lower`, `eval`) plus counters; the
//! caller finishes the profiler into a [`PipelineReport`]. The
//! non-profiled entry points delegate to the profiled ones with
//! [`Profiler::disabled`], so there is exactly one code path and the
//! byte-identity contract (`tests/observability.rs`) holds by
//! construction.
//!
//! This module also owns the process-wide executor counters that are too
//! hot to thread a profiler through: hosted-FPU op totals (tallied once
//! per instruction per chunk, not per lane) and the SoA chunk-occupancy
//! histogram (one record per chunk).

use crate::compile::Instr;
use csfma_obs::{Counter, Histogram};

pub use csfma_obs::{PipelineReport, Profiler, SpanToken, StageRecord};

/// Hosted-FPU-eligible scalar ops (add/sub/mul/div/neg) executed by the
/// bit-accurate backend. Together with
/// [`csfma_softfloat::batch::softfloat_fallbacks`] this gives the
/// fast-path hit rate: `1 - fallbacks / hosted_ops`.
static HOSTED_OPS: Counter = Counter::new();

/// SoA chunk occupancy by decile of `CHUNK_ROWS`: bucket 9 is a full
/// chunk, lower buckets are the ragged tail of a batch.
static CHUNK_OCCUPANCY: Histogram<10> = Histogram::new();

/// Process-wide hosted-FPU-eligible op total (see [`hosted_ops`]
/// internals; `0` when the `obs` feature is compiled out).
pub fn hosted_ops() -> u64 {
    HOSTED_OPS.get()
}

/// Snapshot of the SoA chunk-occupancy histogram: bucket `i` counts
/// chunks with occupancy in `[i*10%, (i+1)*10%)` of `CHUNK_ROWS`
/// (bucket 9 includes exactly-full chunks).
pub fn chunk_occupancy() -> [u64; 10] {
    CHUNK_OCCUPANCY.snapshot()
}

/// Tally the hosted-FPU-eligible work of one chunk: one atomic add per
/// chunk covering `lanes` rows across every scalar IEEE instruction.
#[inline]
pub(crate) fn count_hosted_chunk(instrs: &[Instr], lanes: usize) {
    if !cfg!(feature = "obs") {
        return;
    }
    let scalar_ops = instrs
        .iter()
        .filter(|i| {
            matches!(
                i,
                Instr::Add { .. }
                    | Instr::Sub { .. }
                    | Instr::Mul { .. }
                    | Instr::Div { .. }
                    | Instr::Neg { .. }
            )
        })
        .count();
    HOSTED_OPS.add((scalar_ops * lanes) as u64);
}

/// Record one chunk's occupancy (`lanes` of `capacity` rows used).
#[inline]
pub(crate) fn record_chunk_occupancy(lanes: usize, capacity: usize) {
    if !cfg!(feature = "obs") {
        return;
    }
    CHUNK_OCCUPANCY.record(lanes * 10 / capacity.max(1));
}

// Robust-executor tallies, incremented inside `robust_chunk` — i.e. on
// whichever stealing worker actually ran the chunk — so the counters
// follow the work through the scheduler rather than being derived from
// the merged report afterwards. `tests/scheduler.rs` asserts the two
// views agree under stealing.
static ROBUST_DETECTIONS: Counter = Counter::new();
static ROBUST_ROWS_RECOVERED: Counter = Counter::new();
static ROBUST_ROWS_QUARANTINED: Counter = Counter::new();

/// Snapshot of the robust executor's process-wide fault tallies (all
/// zeros when the `obs` feature is compiled out). Unlike the per-call
/// [`BatchReport`](crate::BatchReport), these accumulate across every
/// `eval_batch_robust` call in the process and are recorded on the
/// worker that executed each chunk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RobustCounts {
    /// Self-check detections across all ladder rungs.
    pub detections: u64,
    /// Rows recovered by a fallback rung.
    pub rows_recovered: u64,
    /// Rows quarantined (every rung failed).
    pub rows_quarantined: u64,
}

/// Read the process-wide robust-executor counters.
pub fn robust_counts() -> RobustCounts {
    RobustCounts {
        detections: ROBUST_DETECTIONS.get(),
        rows_recovered: ROBUST_ROWS_RECOVERED.get(),
        rows_quarantined: ROBUST_ROWS_QUARANTINED.get(),
    }
}

/// Tally one robust chunk's outcome counts (called by the worker that
/// ran the chunk).
#[inline]
pub(crate) fn count_robust_chunk(detections: u64, recovered: u64, quarantined: u64) {
    if !cfg!(feature = "obs") {
        return;
    }
    ROBUST_DETECTIONS.add(detections);
    ROBUST_ROWS_RECOVERED.add(recovered);
    ROBUST_ROWS_QUARANTINED.add(quarantined);
}
