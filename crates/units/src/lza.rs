//! Leading-zero anticipation (LZA) over carry-save pairs.
//!
//! The early-anticipation variant of the FMA (Sec. III-G) must know, from
//! the *inputs alone*, a safe bound on how many leading non-significant
//! bits the sum will have — before the carry-propagating addition runs.
//! This module implements the two-sided (sign-agnostic) indicator of
//! Schmookler & Nowka \[23\]: a per-position boolean string `f` whose
//! leading one falls on the leading significant bit of `a + b`, or one
//! position above it.
//!
//! The exported [`anticipate_leading`] is clamped to the *safe* side: it
//! never reports more skippable bits than the sum actually has, and
//! undershoots by at most [`LZA_MAX_ERROR`] — the "error of up to one bit
//! position" the paper budgets for (Sec. III-G).

use csfma_bits::Bits;
use csfma_carrysave::CsNumber;

/// Maximum undershoot of [`anticipate_leading`] versus the true number of
/// redundant leading bits (excluding the all-cancel case, which the caller
/// must detect separately — the paper's "reliably detect all-0 mantissas").
pub const LZA_MAX_ERROR: usize = 1;

/// Limb reader of `x` sign-extended without bound: positions at and
/// above the width replicate the sign bit. The width and the sign are
/// read once, when the reader is made.
#[inline]
fn sext_limbs(x: &Bits) -> impl Fn(usize) -> u64 + '_ {
    let (w, l) = (x.width(), x.limbs());
    let fill = if x.sign_bit() { !0u64 } else { 0 };
    move |j| {
        let lo = j * 64;
        if lo >= w {
            fill
        } else if w - lo < 64 {
            l[j] | (fill << (w - lo))
        } else {
            l[j]
        }
    }
}

/// The indicator string of `a + b` a 64-bit limb at a time, from the top
/// limb down: `(j, f)` with `f` holding bits `64j .. 64j + 63`.
///
/// Per position `i`, with `t = a^b`, `g = a&b`, `z = !(a|b)` over the
/// sign-extended operands:
/// `f(i) = t(i+1) & (g(i) & !z(i-1) | z(i) & !g(i-1))
///       | !t(i+1) & (z(i) & !z(i-1) | g(i) & !g(i-1))`.
/// The neighbour terms are whole-limb shifts: `t(i+1)` takes bit 63 from
/// the limb above, `g(i-1)`/`z(i-1)` take bit 0 from the limb below.
/// Each operand limb is sign-extended once: the limb below becomes the
/// next step's own limb, and `t` is carried down from the limb above.
/// Below position 0 neither `g` nor `z` holds (a carry-in of unknown
/// value is conservatively assumed possible), which the pair `(0, !0)`
/// supplies. Above the top the sign extension replicates `t`, so no
/// position needs a special case.
#[inline]
fn indicator_limbs<'a>(a: &'a Bits, b: &'a Bits) -> impl Iterator<Item = (usize, u64)> + 'a {
    let (sa, sb) = (sext_limbs(a), sext_limbs(b));
    let n = a.width().div_ceil(64);
    let mut t_above = sa(n) ^ sb(n);
    let top = n.saturating_sub(1);
    let (mut x, mut y) = (sa(top), sb(top));
    (0..n).rev().map(move |j| {
        let (xl, yl) = if j > 0 {
            (sa(j - 1), sb(j - 1))
        } else {
            (0, !0)
        };
        let (t, g, z) = (x ^ y, x & y, !(x | y));
        let t_up = (t >> 1) | (t_above << 63);
        let g_dn = (g << 1) | ((xl & yl) >> 63);
        let z_dn = (z << 1) | (!(xl | yl) >> 63);
        let f = (t_up & ((g & !z_dn) | (z & !g_dn))) | (!t_up & ((z & !z_dn) | (g & !g_dn)));
        (t_above, x, y) = (t, xl, yl);
        (j, f)
    })
}

/// Raw Schmookler/Nowka general-case indicator string for `a + b` (two's
/// complement, equal widths), `w + 2` bits wide for `w`-bit inputs: the
/// leading one falls on the leading significant bit of the exact sum or
/// one position above it.
///
/// Evaluated a 64-bit limb at a time. Positions `w` and `w + 1` never
/// fire: there both a position and its lower neighbour are sign bits,
/// so `f` reduces to `t & 0 | !t & 0`. Only the limbs covering bits
/// below `w` are computed.
pub fn lza_indicator(a: &Bits, b: &Bits) -> Bits {
    assert_eq!(a.width(), b.width(), "lza width mismatch");
    let w = a.width();
    if w == 0 {
        return Bits::zero(0);
    }
    let mut f = vec![0u64; w.div_ceil(64)];
    for (j, limb) in indicator_limbs(a, b) {
        f[j] = limb;
    }
    Bits::from_limbs(w + 2, &f)
}

/// Anticipated count of leading *non-significant* bits of the **exact**
/// (non-wrapping) sum of two `w`-bit two's-complement operands, evaluated
/// in `w + 2` bits — leading zeros of a positive sum, leading ones of a
/// negative one, beyond the single sign bit.
///
/// The FMA adders are sized with headroom (Sec. III-D derives the 385-bit
/// window precisely so alignment can never overflow), so the exact sum is
/// the quantity whose normalization the unit anticipates.
///
/// Finds the leading one of [`lza_indicator`] limb by limb from the top,
/// without building the string.
///
/// Guarantees (enforced by exhaustive tests, with
/// `truth = redundant_sign_bits(sext(a, w+2) + sext(b, w+2))`):
/// * `anticipate_leading(a,b) <= truth` (safe side: never skip real bits),
/// * `truth - anticipate_leading(a,b) <= LZA_MAX_ERROR`,
///   unless the exact sum is `0` or `-1` (full cancellation — no
///   significant bit exists and the indicator may undershoot arbitrarily;
///   the FMA handles that case with an explicit zero check,
///   cf. Sec. III-G "reliably detect all-0 input mantissas").
pub fn anticipate_leading(a: &Bits, b: &Bits) -> usize {
    assert_eq!(a.width(), b.width(), "lza width mismatch");
    let w = a.width();
    for (j, f) in indicator_limbs(a, b) {
        if f != 0 {
            let pos_f = j * 64 + 63 - f.leading_zeros() as usize;
            // a (w+2)-bit word with first significant bit at `p` has
            // `w - p` redundant sign bits; the indicator may overshoot p
            // by one, which only makes this smaller (safe)
            return w.saturating_sub(pos_f);
        }
    }
    // no significant bit anticipated anywhere: full cancellation; report
    // the maximum redundancy of a (w+2)-bit word
    w + 1
}

/// Anticipated leading non-significant bits for a carry-save value: the
/// CS pair *is* an unfinished addition, which is exactly what the LZA
/// consumes.
pub fn anticipate_leading_cs(v: &CsNumber) -> usize {
    anticipate_leading(v.sum(), v.carry())
}

/// True number of redundant leading bits of a two's complement value: how
/// many MSBs merely replicate the sign (the quantity LZA anticipates).
pub fn true_redundant(v: &Bits) -> usize {
    v.redundant_sign_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact (non-wrapping) sum and its redundancy — the LZA contract's
    /// ground truth.
    fn exact_sum_redundant(a: &Bits, b: &Bits) -> (Bits, usize) {
        let we = a.width() + 2;
        let sum = a.sext(we).wrapping_add(&b.sext(we));
        let r = true_redundant(&sum);
        (sum, r)
    }

    fn check_contract(a: &Bits, b: &Bits) {
        let (sum, truth) = exact_sum_redundant(a, b);
        if sum.is_zero() || sum.is_all_ones() {
            return; // full cancellation: no significant bit exists
        }
        let ant = anticipate_leading(a, b);
        assert!(
            ant <= truth,
            "unsafe anticipation: a={a:?} b={b:?} ant={ant} truth={truth}"
        );
        assert!(
            truth - ant <= LZA_MAX_ERROR,
            "too pessimistic: a={a:?} b={b:?} ant={ant} truth={truth}"
        );
    }

    /// Exhaustive check of the LZA contract on all 8-bit pairs.
    #[test]
    fn exhaustive_8bit_contract() {
        for av in 0u64..256 {
            for bv in 0u64..256 {
                check_contract(&Bits::from_u64(8, av), &Bits::from_u64(8, bv));
            }
        }
    }

    #[test]
    fn positive_example() {
        // 12 + 4 = 16 = 0b0000010000 in 10 bits: 5 redundant sign bits
        let a = Bits::from_u64(8, 12);
        let b = Bits::from_u64(8, 4);
        let (_, truth) = exact_sum_redundant(&a, &b);
        assert_eq!(truth, 4); // 0b0000010000: 4 redundant zeros past the sign
        let ant = anticipate_leading(&a, &b);
        assert!(ant <= truth && truth - ant <= 1, "ant={ant}");
    }

    #[test]
    fn negative_example() {
        let a = Bits::from_i128(8, -3);
        let b = Bits::from_i128(8, -4);
        let (_, truth) = exact_sum_redundant(&a, &b); // -7 = 0b1111111001
        assert_eq!(truth, 6);
        let ant = anticipate_leading(&a, &b);
        assert!(ant <= truth && truth - ant <= 1, "ant={ant}");
    }

    #[test]
    fn cs_wrapper_consistent() {
        let cs = CsNumber::new(Bits::from_u64(16, 0x00f0), Bits::from_u64(16, 0x0010));
        let ant = anticipate_leading_cs(&cs);
        let (_, truth) = exact_sum_redundant(cs.sum(), cs.carry());
        assert!(ant <= truth && truth - ant <= LZA_MAX_ERROR);
    }

    #[test]
    fn full_cancellation_is_out_of_contract_but_bounded() {
        // x + (-x) = 0: the indicator may fire anywhere (the unit detects
        // this case separately); the report must still be in range
        let a = Bits::from_i128(8, 42);
        let b = Bits::from_i128(8, -42);
        assert!(anticipate_leading(&a, &b) <= 9); // <= w + 1
    }

    #[test]
    fn wide_words() {
        // spot-check the contract at FMA-like widths
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..2000 {
            let a = Bits::from_limbs(116, &[next(), next()]);
            let b = Bits::from_limbs(116, &[next(), next()]);
            check_contract(&a, &b);
        }
    }
}
