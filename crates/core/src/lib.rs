//! # csfma-core — the paper's fused multiply-add units
//!
//! Bit-accurate behavioral models of the three FMA architectures explored
//! in the paper, plus the operand formats and conversions that let a
//! high-level-synthesis pass chain them:
//!
//! * [`ClassicFma`] — the Hokenek/Montoye baseline (Fig. 4): IEEE 754
//!   operands and result, internal carry-save product, LZA-guided
//!   normalization, one rounding at the end.
//! * [`CsFmaUnit`] with [`CsFmaFormat::PCS_55_ZD`] — the **PCS-FMA**
//!   (Fig. 9): 110b+10b partial carry-save mantissa in 55-bit blocks,
//!   carry spacing 11, Zero-Detector normalization, 192-bit operands.
//! * [`CsFmaUnit`] with [`CsFmaFormat::PCS_58_LZA`] — the early
//!   leading-zero-anticipation variant (Sec. III-G): 58-bit blocks absorb
//!   the ≤3-bit anticipation error.
//! * [`CsFmaUnit`] with [`CsFmaFormat::FCS_29_LZA`] — the **FCS-FMA**
//!   (Fig. 11): full carry-save 87c mantissa in 29-digit blocks, 13-block
//!   alignment window, 11:1 result mux, DSP-pre-adder-enabled.
//!
//! Every unit computes `R = A + B * C` where `B` is a standard binary64
//! [`SoftFloat`](csfma_softfloat::SoftFloat) and `A`, `C`, `R` are
//! [`CsOperand`]s in the unit's custom format, carrying unrounded
//! mantissas plus one block of rounding data between operators
//! (Sec. III-C).

pub mod batch;
mod chain;
mod classic;
mod dot;
pub mod fault;
mod format;
mod operand;
mod pipeline;
pub mod plane;
mod reference;
mod trace;
mod unit;

pub use batch::{adaptive_grain, par_chunks_indexed, steal_indexed, IndexDeque, SchedStats};
pub use chain::{run_recurrence_exact, run_recurrence_softfloat, ChainEvaluator, RecurrenceCase};
pub use classic::ClassicFma;
pub use dot::CsDotUnit;
pub use format::{CsFmaFormat, Normalizer};
pub use operand::CsOperand;
pub use pipeline::PipelinedFma;
pub use plane::PlaneStrike;
pub use plane::{plane_fma_chunk, PlaneScratch, PlaneStats, PLANE_STAGES};
pub use reference::{exact_fma, ulp_error_vs_exact};
pub use trace::{NopSink, TraceSink, VecSink};
pub use unit::{CsFmaUnit, FmaReport, FmaScratch};

#[cfg(test)]
mod tests;
