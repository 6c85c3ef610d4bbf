//! Exhaustive plane == scalar check on toy formats (DESIGN.md §13.3).
//!
//! Every `(A, B, C)` triple of a minifloat goes through the scalar
//! carry-save unit (`CsFmaUnit::fma`) and through the bit-plane chunk
//! kernel (`plane_fma_chunk`), 64 triples per chunk, and the two results
//! must agree bit for bit: class, sign, exponent and all four carry-save
//! words. The values are every normal of the format, both zeros, both
//! infinities and NaN (subnormals flush to zero on input).
//!
//! The units are a PCS unit with the zero detector and an FCS unit with
//! early LZA, both with 4-digit blocks: narrow enough that results round
//! (with 6-digit blocks every 6-bit result is exact), and wide enough to
//! pass every width rule. The 6-bit `B` format (53 values, 148,877
//! triples per unit) runs in tier 1; the 7-bit one (117 values, about
//! 1.6M triples per unit) is `#[ignore]`d and run by `ci.sh` in release.

use csfma::core::{plane_fma_chunk, CsFmaFormat, CsFmaUnit, CsOperand, Normalizer, PlaneScratch};
use csfma::softfloat::{FpClass, FpFormat, SoftFloat};

/// PCS with the zero detector: two 4-digit mantissa blocks, an explicit
/// carry every 2nd digit.
const TOY_PCS: CsFmaFormat = CsFmaFormat {
    name: "toy PCS (4b blocks, ZD)",
    block_bits: 4,
    mant_blocks: 2,
    left_blocks: 2,
    right_blocks: 2,
    carry_spacing: Some(2),
    normalizer: Normalizer::ZeroDetect,
    b_sig_bits: 3,
};

/// FCS with early LZA: three 4-digit mantissa blocks, which leave
/// `2 * 4 + 1 - 3 = 6` guaranteed digits for the 3-bit significand.
const TOY_FCS: CsFmaFormat = CsFmaFormat {
    name: "toy FCS (4c blocks, early LZA)",
    block_bits: 4,
    mant_blocks: 3,
    left_blocks: 3,
    right_blocks: 3,
    carry_spacing: None,
    normalizer: Normalizer::EarlyLza,
    b_sig_bits: 3,
};

/// NaN, both zeros, both infinities and every normal of `fmt`.
fn values(fmt: FpFormat) -> Vec<SoftFloat> {
    let mut v = vec![SoftFloat::nan(fmt)];
    for sign in [false, true] {
        v.push(SoftFloat::zero(fmt, sign));
        v.push(SoftFloat::inf(fmt, sign));
        for exp in fmt.emin()..=fmt.emax() {
            for frac in 0..1u64 << fmt.frac_bits {
                v.push(SoftFloat::from_parts(fmt, sign, exp, frac));
            }
        }
    }
    v
}

/// Run every triple of `b_fmt` values through both paths of `fmt`'s
/// unit; returns the number of triples and how many finite results
/// differ from the exact `A + B * C` (the unit rounded them).
fn exhaust(fmt: CsFmaFormat, b_fmt: FpFormat) -> (usize, usize) {
    let diags = csfma::verify::check_format(&fmt);
    assert!(diags.is_empty(), "{}: {diags:?}", fmt.name);
    assert_eq!(fmt.b_sig_bits as u32, b_fmt.frac_bits + 1);
    let unit = CsFmaUnit::new(fmt);
    let vals = values(b_fmt);
    let ops: Vec<CsOperand> = vals.iter().map(|v| CsOperand::from_ieee(v, fmt)).collect();
    let n = vals.len();
    let total = n * n * n;
    // bank slots: A at 0..64, C at 64..128, results at 128..192
    let mut bank = vec![CsOperand::zero(fmt, false); 3 * 64];
    let mut b = Vec::with_capacity(64);
    let mut scratch = PlaneScratch::default();
    let mut inexact = 0;
    for start in (0..total).step_by(64) {
        let len = (total - start).min(64);
        b.clear();
        for k in 0..len {
            let t = start + k;
            bank[k] = ops[t / (n * n)].clone();
            b.push(vals[t / n % n]);
            bank[64 + k] = ops[t % n].clone();
        }
        plane_fma_chunk(&unit, &mut bank, 0, 64, 128, &b, len, &mut scratch);
        for k in 0..len {
            let (a, c, got) = (&bank[k], &bank[64 + k], &bank[128 + k]);
            let (av, cv) = (&vals[(start + k) / (n * n)], &vals[(start + k) % n]);
            let want = unit.fma(a, &b[k], c);
            let same = want.class() == got.class()
                && want.sign_hint() == got.sign_hint()
                && want.exp() == got.exp()
                && want.mant().sum() == got.mant().sum()
                && want.mant().carry() == got.mant().carry()
                && want.round().sum() == got.round().sum()
                && want.round().carry() == got.round().carry();
            assert!(
                same,
                "{}: A={} B={} C={}: plane {got:?} vs scalar {want:?}",
                fmt.name,
                av.to_f64(),
                b[k].to_f64(),
                cv.to_f64(),
            );
            let finite = |v: &SoftFloat| !matches!(v.class(), FpClass::Nan | FpClass::Inf);
            if want.class() == FpClass::Normal && finite(av) && finite(&b[k]) && finite(cv) {
                let exact = av.to_exact().add(&b[k].to_exact().mul(&cv.to_exact()));
                inexact += !want.exact_value().sub(&exact).is_zero() as usize;
            }
        }
    }
    (total, inexact)
}

/// `exhaust` over `b_fmt` with `fmt`, requiring `triples` triples and
/// at least one rounded result (an all-exact run checks no rounding).
fn check(fmt: CsFmaFormat, b_fmt: FpFormat, triples: usize) {
    let (total, inexact) = exhaust(fmt, b_fmt);
    assert_eq!(total, triples, "{}", fmt.name);
    assert!(inexact > 0, "{}: every result was exact", fmt.name);
}

#[test]
fn toy_pcs_plane_matches_scalar_on_every_6bit_triple() {
    check(TOY_PCS, FpFormat::new(3, 2), 53 * 53 * 53);
}

#[test]
fn toy_fcs_plane_matches_scalar_on_every_6bit_triple() {
    check(TOY_FCS, FpFormat::new(3, 2), 53 * 53 * 53);
}

/// The 7-bit format: 114 finite values plus both infinities and NaN.
#[test]
#[ignore = "about 1.6M triples per unit; ci.sh runs it in release"]
fn toy_units_plane_match_scalar_on_every_7bit_triple() {
    for fmt in [TOY_PCS, TOY_FCS] {
        check(fmt, FpFormat::new(4, 2), 117 * 117 * 117);
    }
}
