//! The classic fused multiply-add (Fig. 4) — the Hokenek/Montoye 1990
//! architecture the paper uses as the baseline for its optimizations.
//!
//! IEEE 754 operands in, IEEE 754 result out: the unit keeps the product
//! in carry-save form, pre-shifts the addend in parallel with the
//! multiply, then pays for what the P/FCS units avoid — a full-width
//! (161-bit) carry-propagating addition, a leading-zero-anticipator-guided
//! variable-distance normalization shift, rounding, and a conditional
//! post-normalization shift.
//!
//! Arithmetically a classic FMA is simply the correctly rounded fused
//! operation; this model computes exactly that (via the exact-intermediate
//! soft-float path) while exposing the *structural* facts — CSA-tree
//! shape, adder width, shifter width — that the fabric model prices. The
//! structural constants below are the Fig. 4 datapath for binary64.

use csfma_softfloat::{FpFormat, Round, SoftFloat};

/// Structural parameters of the classic double-precision FMA datapath,
/// used by `csfma-fabric` to price the baseline.
#[derive(Clone, Copy, Debug)]
pub struct ClassicFmaStructure {
    /// Width of the carry-propagating adder that resolves the CS product
    /// plus aligned addend (the paper quotes 161 bits).
    pub adder_bits: usize,
    /// Width of the variable-distance normalization shifter input.
    pub shifter_bits: usize,
    /// Partial-product rows of the 53x53 multiplier.
    pub multiplier_rows: usize,
    /// Whether a leading-zero anticipator runs in parallel with the add.
    pub has_lza: bool,
    /// Whether a post-normalization 1-bit shift is needed after rounding.
    pub has_post_normalize: bool,
}

/// The classic FMA unit: `R = A + B * C`, correctly rounded once.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassicFma {
    mode: Round,
}

impl ClassicFma {
    /// Unit rounding in the given mode (IEEE default is nearest-even).
    pub fn new(mode: Round) -> Self {
        ClassicFma { mode }
    }

    /// `A + B * C` with one rounding at the end (the defining property of
    /// the fused operation: no intermediate normalization, Fig. 3/4).
    pub fn fma(&self, a: &SoftFloat, b: &SoftFloat, c: &SoftFloat) -> SoftFloat {
        // B*C + A: SoftFloat::fma_r computes product-exact, adds exact,
        // rounds once — the value semantics of the Fig. 4 datapath.
        b.fma_r(c, a, self.mode)
    }

    /// The same computation executed *structurally* along the Fig. 4
    /// datapath at bit level: CS mantissa product, addend pre-shift with
    /// sticky collection, one wide two's-complement addition, conditional
    /// complement, leading-zero-count normalization shift, rounding and
    /// conditional post-normalization. Must agree with [`ClassicFma::fma`]
    /// bit for bit (property-tested) — the classic FMA *is* the correctly
    /// rounded fused operation; it just pays for it in latency.
    ///
    /// Round-to-nearest-even only (the IEEE operator the comparison units
    /// implement).
    pub fn fma_structural(a: &SoftFloat, b: &SoftFloat, c: &SoftFloat) -> SoftFloat {
        use csfma_bits::Bits;

        let fmt = a.format();
        assert_eq!(
            fmt,
            FpFormat::BINARY64,
            "structural model is the binary64 instance"
        );
        // exception classes resolve exactly as in the value model
        if a.is_nan()
            || b.is_nan()
            || c.is_nan()
            || b.is_inf()
            || c.is_inf()
            || a.is_inf()
            || b.is_zero()
            || c.is_zero()
            || a.is_zero()
        {
            return b.fma_r(c, a, Round::NearestEven);
        }

        // ---- geometry: 164-bit window, product anchored 56 bits up ----
        const W: usize = 168;
        const P_OFF: i64 = 56;
        let e_p = b.exp() as i64 + c.exp() as i64;
        // window LSB weight: product integer has its ulp at 2^(eP - 104)
        let mut wls = (e_p - 104) - P_OFF;

        let shift_a_raw = (a.exp() as i64 - 52) - wls;
        let max_shift = W as i64 - 58;
        let extra = (shift_a_raw - max_shift).max(0);
        let p_shift = P_OFF - extra;
        let a_shift = shift_a_raw - extra;
        wls += extra;

        // ---- CS product (53x53 -> 106b + headroom) ----
        let prod = (b.significand() as u128) * (c.significand() as u128);
        let psign = b.sign() ^ c.sign();

        // Place both addends in the window with sticky collection. The
        // magnitude truncation direction is safe here: an operand only
        // drops bits when it sits ≥ 56 positions below the product ULP,
        // while the result's guard bit never falls below the product ULP
        // minus 2 — so dropped fractions can never convert an exact tie
        // into a non-tie (they are > 2^54 below the guard weight) and
        // sticky-only treatment is exact. The property test below checks
        // bit-exactness against the correctly rounded reference.
        let mut sticky = false;
        let mut place = |mag: u128, width: usize, shift: i64, neg: bool| -> Bits {
            let v = Bits::from_u128(width, mag);
            let placed = if shift >= 0 {
                v.zext(W).shl(shift as usize)
            } else {
                let sh = (-shift) as usize;
                if sh >= width {
                    sticky |= mag != 0;
                    Bits::zero(W)
                } else {
                    sticky |= !v.extract(0, sh).is_zero();
                    v.shr(sh).zext(W)
                }
            };
            if neg {
                placed.wrapping_neg()
            } else {
                placed
            }
        };
        let pa = place(prod, 108, p_shift, psign);
        let aa = place(a.significand() as u128, 54, a_shift, a.sign());

        // ---- the wide carry-propagating addition (the classic unit's
        // 161b adder) + conditional complement ----
        let sum = pa.wrapping_add(&aa);
        if sum.is_zero() && !sticky {
            return SoftFloat::zero(fmt, false);
        }
        let rsign = sum.sign_bit();
        let mag = if rsign { sum.wrapping_neg() } else { sum };

        // ---- LZC-guided normalization ----
        let lz = mag.leading_zeros();
        if mag.is_zero() {
            // only sticky survives: magnitude below every window bit
            return SoftFloat::zero(fmt, rsign);
        }
        let msb = W - 1 - lz; // leading one position
        let exp = msb as i64 + wls;

        // ---- round to nearest even with guard + sticky ----
        let keep = 53usize;
        let (mut sig, guard, low_sticky) = if msb < keep {
            (
                mag.extract(0, msb + 1).shl(keep - msb - 1).to_u128(),
                false,
                false,
            )
        } else {
            let cut = msb + 1 - keep;
            let sig = mag.extract(cut, keep).to_u128();
            let guard = mag.bit(cut - 1);
            let ls = cut >= 2 && !mag.extract(0, cut - 1).is_zero();
            (sig, guard, ls)
        };
        let st = sticky || low_sticky;
        let mut exp = exp;
        if guard && (st || sig & 1 == 1) {
            sig += 1;
            if sig >> keep != 0 {
                // post-normalization right shift (the step Sec. III-B
                // removes by widening the mantissa)
                sig >>= 1;
                exp += 1;
            }
        }
        if exp > fmt.emax() as i64 {
            return SoftFloat::inf(fmt, rsign);
        }
        if exp < fmt.emin() as i64 {
            return SoftFloat::zero(fmt, rsign);
        }
        SoftFloat::from_parts(fmt, rsign, exp as i32, (sig as u64) & ((1u64 << 52) - 1))
    }

    /// Structural description of the binary64 instance for the fabric
    /// cost model.
    pub fn structure() -> ClassicFmaStructure {
        ClassicFmaStructure {
            adder_bits: 161, // Sec. III-A: "a 161b adder followed by a conditional complement"
            shifter_bits: 162,
            multiplier_rows: 53,
            has_lza: true,
            has_post_normalize: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csfma_softfloat::FpFormat;
    use proptest::prelude::*;

    fn sf(v: f64) -> SoftFloat {
        SoftFloat::from_f64(FpFormat::BINARY64, v)
    }

    #[test]
    fn matches_host_fused_multiply_add() {
        let u = ClassicFma::new(Round::NearestEven);
        for (a, b, c) in [(3.3, 1.1, 2.2), (-1.0, 1e8, 1e-8), (1.0, 0.1, 10.0)] {
            assert_eq!(
                u.fma(&sf(a), &sf(b), &sf(c)).to_f64().to_bits(),
                b.mul_add(c, a).to_bits(),
                "fma({b},{c},{a})"
            );
        }
    }

    #[test]
    fn single_rounding_beats_discrete_mul_add() {
        let u = ClassicFma::new(Round::NearestEven);
        let x = 1.0 + 2f64.powi(-30);
        let fused = u.fma(&sf(-1.0 - 2f64.powi(-29)), &sf(x), &sf(x));
        assert_eq!(fused.to_f64(), 2f64.powi(-60));
    }

    #[test]
    fn structural_matches_value_model_on_cases() {
        for (a, b, c) in [
            (3.3, 1.1, 2.2),
            (-1.0, 1e8, 1e-8),
            (1.0, 0.1, 10.0),
            (0.5, -0.5, 1.0),
            (1e300, 1e-300, 1e300),
            (-2.75, 3.25, -1.125),
            (1.0, 1.0 + 2f64.powi(-30), -(1.0 + 2f64.powi(-29))),
        ] {
            let want = ClassicFma::new(Round::NearestEven).fma(&sf(a), &sf(b), &sf(c));
            let got = ClassicFma::fma_structural(&sf(a), &sf(b), &sf(c));
            assert_eq!(
                got.to_f64().to_bits(),
                want.to_f64().to_bits(),
                "structural mismatch for ({a},{b},{c})"
            );
        }
    }

    #[test]
    fn structural_exact_cancellation() {
        // a = -b*c exactly: sum cancels to zero through the whole window
        let got = ClassicFma::fma_structural(&sf(-6.0), &sf(2.0), &sf(3.0));
        assert!(got.is_zero());
        // near-cancellation keeps the tiny residue exactly (Sterbenz-like)
        let b = 1.0 + 2f64.powi(-26);
        let got = ClassicFma::fma_structural(&sf(-1.0), &sf(b), &sf(1.0));
        assert_eq!(got.to_f64(), 2f64.powi(-26));
    }

    #[test]
    fn structure_matches_paper() {
        let s = ClassicFma::structure();
        assert_eq!(s.adder_bits, 161);
        assert!(s.has_lza && s.has_post_normalize);
    }

    fn normal_f64() -> impl Strategy<Value = f64> {
        (any::<bool>(), 0u64..(1u64 << 52), -300i32..=300).prop_map(|(s, m, e)| {
            let v = f64::from_bits(((1023 + e) as u64) << 52 | m);
            if s {
                -v
            } else {
                v
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        /// The structural datapath must be bit-identical to the correctly
        /// rounded fused op on every input (incl. negative-addend sticky
        /// cases and deep cancellation).
        #[test]
        fn prop_structural_bit_exact(a in normal_f64(), b in normal_f64(), c in normal_f64()) {
            let want = ClassicFma::new(Round::NearestEven).fma(&sf(a), &sf(b), &sf(c));
            let got = ClassicFma::fma_structural(&sf(a), &sf(b), &sf(c));
            prop_assert_eq!(
                got.to_f64().to_bits(),
                want.to_f64().to_bits(),
                "({},{},{})", a, b, c
            );
        }
    }
}
