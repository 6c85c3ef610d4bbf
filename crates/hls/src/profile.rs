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
//! The evaluation counters come from [`EvalStats`], which belongs to one
//! batch call: there is no process-wide tally to take deltas of, so a
//! profile counts its own call and nothing that runs beside it.

use csfma_core::batch::CHUNK_ROWS;
use csfma_core::{PlaneStats, SchedStats, PLANE_STAGES};

pub use csfma_obs::{PipelineReport, Profiler, SpanToken, StageRecord};

/// Profile counter names of the plane kernel's stage timers,
/// `plane_<stage>_us` for each of [`PLANE_STAGES`] in order.
pub(crate) const PLANE_STAGE_COUNTERS: [&str; PLANE_STAGES.len()] = [
    "plane_preamble_us",
    "plane_transpose_in_us",
    "plane_multiplier_us",
    "plane_alignment_us",
    "plane_window_us",
    "plane_normalize_us",
    "plane_writeback_us",
];

/// What one [`Tape::eval_batch_with_stats`](crate::Tape::eval_batch_with_stats)
/// call did, counted for that call alone.
///
/// Counts fixed by the tape and the chunk length (hosted ops, FMA ops
/// per architecture, chunk fullness) are per-tape instruction counts
/// times the rows each interpreter ran. Data-dependent counts (plane
/// vs exception lanes, soft-float fallbacks, JIT bailouts) are reported
/// by the code that incurred them, summed on the worker that ran each
/// chunk, and merged when the workers join. No process-global,
/// thread-local or per-lane atomic state is involved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Rows evaluated.
    pub rows: u64,
    /// Chunks of exactly [`CHUNK_ROWS`] rows.
    pub chunks_full: u64,
    /// Ragged-tail chunks (`0` or `1`).
    pub chunks_partial: u64,
    /// Hosted-FPU-eligible scalar ops (add/sub/mul/div/neg) the
    /// bit-accurate interpreter executed, promoted ones included.
    pub hosted_ops: u64,
    /// Hosted results the trust guard recomputed with soft-float; the
    /// fast-path hit rate is `1 - softfloat_fallbacks / hosted_ops`.
    pub softfloat_fallbacks: u64,
    /// Behavioral FMA ops on a partial carry-save (PCS) unit.
    pub fma_ops_pcs: u64,
    /// Behavioral FMA ops on a full carry-save (FCS) unit.
    pub fma_ops_fcs: u64,
    /// FMA lanes the bit-plane kernel evaluated.
    pub plane_lanes: u64,
    /// Lanes of plane chunks resolved on the scalar exception path.
    pub plane_exception_lanes: u64,
    /// FMA lanes the bit-accurate interpreter ran scalar: ragged-tail
    /// chunks, JIT bailout rows, and instructions not plane-eligible.
    pub plane_fallback_lanes: u64,
    /// Nanoseconds the plane kernel spent transposing.
    pub plane_transpose_ns: u64,
    /// Nanoseconds the plane kernel spent per stage, indexed like
    /// [`PLANE_STAGES`].
    pub plane_stage_ns: [u64; PLANE_STAGES.len()],
    /// Nanoseconds the bit-accurate interpreter spent in `IeeeToCs`
    /// instructions of full chunks, timed once per instruction per
    /// chunk like the plane stages.
    pub cs_from_ieee_ns: u64,
    /// Nanoseconds spent in `CsToIeee` instructions of full chunks,
    /// timed the same way.
    pub cs_to_ieee_ns: u64,
    /// Rows dispatched to native code ([`TapeBackend::Jit`](crate::TapeBackend::Jit) only).
    pub jit_rows: u64,
    /// JIT rows the interpreter re-ran: a guard fired, or no module
    /// could be built.
    pub jit_bailouts: u64,
    /// The scheduler's view of the call.
    pub sched: SchedStats,
}

impl EvalStats {
    /// The per-call totals of a batch of `rows` rows; the chunk counts
    /// follow from the row count alone.
    pub(crate) fn for_rows(rows: usize) -> Self {
        EvalStats {
            rows: rows as u64,
            chunks_full: (rows / CHUNK_ROWS) as u64,
            chunks_partial: u64::from(!rows.is_multiple_of(CHUNK_ROWS)),
            ..EvalStats::default()
        }
    }

    /// Add another share's work counts (`rows`, chunk counts and
    /// `sched` describe the whole call and are left alone).
    pub(crate) fn merge(&mut self, o: &EvalStats) {
        self.hosted_ops += o.hosted_ops;
        self.softfloat_fallbacks += o.softfloat_fallbacks;
        self.fma_ops_pcs += o.fma_ops_pcs;
        self.fma_ops_fcs += o.fma_ops_fcs;
        self.plane_lanes += o.plane_lanes;
        self.plane_exception_lanes += o.plane_exception_lanes;
        self.plane_fallback_lanes += o.plane_fallback_lanes;
        self.plane_transpose_ns += o.plane_transpose_ns;
        for (t, o) in self.plane_stage_ns.iter_mut().zip(o.plane_stage_ns) {
            *t += o;
        }
        self.cs_from_ieee_ns += o.cs_from_ieee_ns;
        self.cs_to_ieee_ns += o.cs_to_ieee_ns;
        self.jit_rows += o.jit_rows;
        self.jit_bailouts += o.jit_bailouts;
    }

    /// Add one plane-kernel call.
    pub(crate) fn add_plane(&mut self, p: PlaneStats) {
        self.plane_lanes += p.lanes;
        self.plane_exception_lanes += p.exception_lanes;
        self.plane_transpose_ns += p.transpose_ns;
        for (t, p) in self.plane_stage_ns.iter_mut().zip(p.stage_ns) {
            *t += p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_counters_follow_the_kernel_stage_names() {
        for (name, stage) in PLANE_STAGE_COUNTERS.iter().zip(PLANE_STAGES) {
            assert_eq!(*name, format!("plane_{stage}_us"));
        }
    }
}
