//! Batch-friendly binary64 entry points.
//!
//! The scalar [`SoftFloat`] operators allocate nothing, but they carry a
//! per-value class/sign/exp/frac decomposition through every call, which
//! costs ~50× a hardware multiply when a batch engine streams millions of
//! operands. This module provides the hot-loop contract the compiled
//! tape executor (`csfma-hls::compile`) is built on:
//!
//! Every binary64 workspace value is a **canonical FTZ double** — the
//! image of `SoftFloat::from_f64` followed by `to_f64`:
//!
//! * no subnormals (they flush to signed zero, like the operators do),
//! * a single NaN representation (`f64::NAN`, no payloads, no sign),
//! * all other values (±0, ±Inf, normals) exactly as IEEE encodes them.
//!
//! On that domain the map `f64 ↔ SoftFloat(BINARY64)` is a bijection
//! (`SoftFloat::from_f64` and `to_f64` unpack and pack the binary64
//! fields directly, without an exact intermediate), so an operator may
//! be evaluated *on the host FPU* whenever the host and the soft-float
//! model provably agree, falling back to the soft-float operator in the
//! narrow window where they can differ:
//!
//! * results that are NaN: the host NaN bit pattern is platform-defined,
//!   and the model has exactly one NaN. On canonical operands the host
//!   gives a NaN exactly when the model does (a NaN operand, `inf - inf`,
//!   `0 * inf`, `0 / 0`, `inf / inf`; no subnormal operand exists to
//!   break that), so the guarded operators return `f64::NAN` directly:
//!   soft float would compute that same NaN, and
//! * results in `(0, MIN_POSITIVE]` — the flush-to-zero boundary, where
//!   the host rounds on the subnormal grid but the model rounds on its
//!   own finer `emin-1` grid before flushing (`x = MIN_POSITIVE` itself
//!   is included because the host can reach it by rounding *across* the
//!   boundary from below, e.g. ties at `MIN_POSITIVE - 2^-1075`).
//!
//! Everywhere else both sides round the same exact value to the same
//! normal-range grid, so the results are bit-identical; the differential
//! suites (`softfloat::tests`, `tests/exec_differential.rs`) enforce
//! this on random and special operands.
//!
//! The guarded operators report each result the guard flagged (a NaN
//! they canonicalized or a boundary result they recomputed in soft
//! float) to their caller by incrementing its `fallbacks` tally, so a
//! batch engine can attribute the slow path to the evaluation that took
//! it.

use crate::format::FpFormat;
use crate::value::SoftFloat;

const F: FpFormat = FpFormat::BINARY64;

/// Canonicalize a host double into the workspace value domain: subnormals
/// flush to signed zero, every NaN collapses to `f64::NAN`. This is
/// exactly `SoftFloat::from_f64(BINARY64, v).to_f64()`, computed without
/// building the intermediate.
#[inline]
pub fn canonicalize(v: f64) -> f64 {
    if v.is_nan() {
        f64::NAN
    } else if v.is_subnormal() {
        if v.is_sign_negative() {
            -0.0
        } else {
            0.0
        }
    } else {
        v
    }
}

/// True when a host-computed result cannot be trusted to match the
/// soft-float operator bit-for-bit and must be recomputed: the guard of
/// every `hosted_*` operator, exported so a chunk evaluator can check a
/// whole buffer of host results at once. The operators are `|` and `&`,
/// not `||` and `&&`, so such a loop compiles to vector compares instead
/// of a branch per value.
#[inline]
pub fn needs_softfloat(r: f64) -> bool {
    r.is_nan() | ((r != 0.0) & (r.abs() <= f64::MIN_POSITIVE))
}

#[inline]
fn sf(v: f64) -> SoftFloat {
    SoftFloat::from_f64(F, v)
}

/// The guarded slow path of a host result `r` the trust guard flagged:
/// a NaN is the model's one NaN as it stands, anything else is
/// recomputed by `soft`. Either way it counts as one fallback.
#[inline]
fn flagged(r: f64, fallbacks: &mut u64, soft: impl FnOnce() -> SoftFloat) -> f64 {
    *fallbacks += 1;
    if r.is_nan() {
        f64::NAN
    } else {
        soft().to_f64()
    }
}

/// `a + b` with soft-float binary64 semantics at host speed.
/// Operands must be canonical (see [`canonicalize`]); the result is.
/// A result the trust guard flags adds one to `*fallbacks` (likewise
/// for the other guarded operators): a NaN comes back as `f64::NAN`,
/// a result at the flush-to-zero boundary is recomputed in soft float.
#[inline]
pub fn hosted_add(a: f64, b: f64, fallbacks: &mut u64) -> f64 {
    let r = a + b;
    if needs_softfloat(r) {
        flagged(r, fallbacks, || sf(a).add(&sf(b)))
    } else {
        r
    }
}

/// `a - b` with soft-float binary64 semantics at host speed.
#[inline]
pub fn hosted_sub(a: f64, b: f64, fallbacks: &mut u64) -> f64 {
    let r = a - b;
    if needs_softfloat(r) {
        flagged(r, fallbacks, || sf(a).sub(&sf(b)))
    } else {
        r
    }
}

/// `a * b` with soft-float binary64 semantics at host speed.
#[inline]
pub fn hosted_mul(a: f64, b: f64, fallbacks: &mut u64) -> f64 {
    let r = a * b;
    if needs_softfloat(r) {
        flagged(r, fallbacks, || sf(a).mul(&sf(b)))
    } else {
        r
    }
}

/// `a / b` with soft-float binary64 semantics at host speed.
#[inline]
pub fn hosted_div(a: f64, b: f64, fallbacks: &mut u64) -> f64 {
    let r = a / b;
    if needs_softfloat(r) {
        flagged(r, fallbacks, || sf(a).div(&sf(b)))
    } else {
        r
    }
}

/// `-a` with soft-float binary64 semantics. Negation never rounds, so the
/// only divergence is the NaN representation (the model's NaN is
/// sign-less; the host flips the sign bit).
#[inline]
pub fn hosted_neg(a: f64) -> f64 {
    if a.is_nan() {
        f64::NAN
    } else {
        -a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_maps_into_from_f64_image() {
        for v in [
            0.0,
            -0.0,
            1.5,
            -2.5e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0, // subnormal
            -4.9e-324,               // smallest subnormal
        ] {
            let via_soft = SoftFloat::from_f64(F, v).to_f64();
            assert_eq!(canonicalize(v).to_bits(), via_soft.to_bits(), "v={v:e}");
        }
    }

    #[test]
    fn hosted_ops_agree_with_softfloat_on_underflow_boundary() {
        // exactly the divergence window the guard exists for: a product
        // that lands between the largest subnormal and MIN_POSITIVE
        let mut fallbacks = 0;
        let a = f64::MIN_POSITIVE * 1.999999;
        let b = 0.5;
        assert_eq!(
            hosted_mul(a, b, &mut fallbacks).to_bits(),
            sf(a).mul(&sf(b)).to_f64().to_bits()
        );
        // and straight into the subnormal range
        let c = f64::MIN_POSITIVE * 0.3;
        assert_eq!(
            hosted_mul(c, 0.5, &mut fallbacks).to_bits(),
            sf(c).mul(&sf(0.5)).to_f64().to_bits()
        );
        // both results took the soft-float path, and said so
        assert_eq!(fallbacks, 2);
        hosted_add(1.5, 2.25, &mut fallbacks);
        assert_eq!(fallbacks, 2, "an ordinary result stays on the host");
    }

    #[test]
    fn hosted_nan_is_canonical() {
        let mut fallbacks = 0;
        let r = hosted_mul(0.0, f64::INFINITY, &mut fallbacks);
        assert_eq!(r.to_bits(), f64::NAN.to_bits());
        assert_eq!(hosted_neg(f64::NAN).to_bits(), f64::NAN.to_bits());
        assert_eq!(
            hosted_div(0.0, 0.0, &mut fallbacks).to_bits(),
            f64::NAN.to_bits()
        );
    }
}
