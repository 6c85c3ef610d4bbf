//! Property tests: soft-float binary64 against the host's IEEE 754
//! hardware, on inputs/outputs that avoid the (unsupported) subnormal range.

use crate::{FpFormat, Round, SoftFloat};
use proptest::prelude::*;

const F: FpFormat = FpFormat::BINARY64;

/// A finite, normal-range f64 whose magnitude keeps products/sums of two
/// operands well inside the normal range.
fn normal_f64() -> impl Strategy<Value = f64> {
    // sign * mantissa in [1,2) * 2^e with |e| <= 400
    (any::<bool>(), 0u64..(1u64 << 52), -400i32..=400).prop_map(|(s, m, e)| {
        let v = f64::from_bits(((1023 + e) as u64) << 52 | m);
        if s {
            -v
        } else {
            v
        }
    })
}

fn sf(v: f64) -> SoftFloat {
    SoftFloat::from_f64(F, v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn prop_add_matches_host(a in normal_f64(), b in normal_f64()) {
        let want = a + b;
        prop_assume!(want == 0.0 || !want.is_subnormal());
        let got = sf(a).add(&sf(b)).to_f64();
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} + {}", a, b);
    }

    #[test]
    fn prop_mul_matches_host(a in normal_f64(), b in normal_f64()) {
        let want = a * b;
        prop_assume!(want.is_finite() && (want == 0.0 || !want.is_subnormal()));
        let got = sf(a).mul(&sf(b)).to_f64();
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} * {}", a, b);
    }

    #[test]
    fn prop_fma_matches_host(a in normal_f64(), b in normal_f64(), c in normal_f64()) {
        let want = a.mul_add(b, c);
        prop_assume!(want.is_finite() && (want == 0.0 || !want.is_subnormal()));
        let got = sf(a).fma(&sf(b), &sf(c)).to_f64();
        // the host fma produces -0.0 for exact cancellation in some cases we
        // canonicalize to +0.0 (round-to-nearest zero-sum rule); compare values
        if want == 0.0 {
            prop_assert_eq!(got, 0.0);
        } else {
            prop_assert_eq!(got.to_bits(), want.to_bits(), "fma({},{},{})", a, b, c);
        }
    }

    #[test]
    fn prop_sub_antisymmetric(a in normal_f64(), b in normal_f64()) {
        let x = sf(a).sub(&sf(b));
        let y = sf(b).sub(&sf(a));
        prop_assert_eq!(x.to_f64(), -y.to_f64());
    }

    #[test]
    fn prop_directed_modes_bracket(a in normal_f64(), b in normal_f64()) {
        // round-down <= exact-ish (RNE) <= round-up
        let dn = sf(a).add_r(&sf(b), Round::TowardNegInf).to_f64();
        let ne = sf(a).add_r(&sf(b), Round::NearestEven).to_f64();
        let up = sf(a).add_r(&sf(b), Round::TowardPosInf).to_f64();
        prop_assert!(dn <= ne && ne <= up, "{} {} {}", dn, ne, up);
    }

    #[test]
    fn prop_widen_narrow_roundtrip(a in normal_f64()) {
        let w = sf(a).convert(FpFormat::B75, Round::NearestEven);
        prop_assert_eq!(w.convert(F, Round::NearestEven).to_f64(), a);
    }

    #[test]
    fn prop_mul_in_b75_at_least_as_accurate(a in normal_f64(), b in normal_f64()) {
        // computing in the widened format then rounding back never loses
        // more than direct binary64 computation... they are equal except
        // double rounding; check the wide result is within 1 ulp of host
        let wa = SoftFloat::from_f64(FpFormat::B75, a);
        let wb = SoftFloat::from_f64(FpFormat::B75, b);
        let wide = wa.mul(&wb).to_f64();
        let host = a * b;
        prop_assume!(host.is_finite() && (host == 0.0 || !host.is_subnormal()));
        let ulp = (host.abs() * 2f64.powi(-52)).max(f64::MIN_POSITIVE);
        prop_assert!((wide - host).abs() <= ulp);
    }

    #[test]
    fn prop_encode_decode(a in normal_f64()) {
        let s = sf(a);
        let back = SoftFloat::decode(F, s.class(), &s.encode());
        prop_assert_eq!(back, s);
    }
}

/// binary32 operations against host f32 hardware (subnormal-free range).
mod binary32 {
    use super::*;

    fn normal_f32() -> impl Strategy<Value = f32> {
        (any::<bool>(), 0u32..(1u32 << 23), -60i32..=60).prop_map(|(s, m, e)| {
            let v = f32::from_bits(((127 + e) as u32) << 23 | m);
            if s {
                -v
            } else {
                v
            }
        })
    }

    fn s32(v: f32) -> SoftFloat {
        SoftFloat::from_f64(FpFormat::BINARY32, v as f64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_add_matches_f32(a in normal_f32(), b in normal_f32()) {
            let want = a + b;
            prop_assume!(want == 0.0 || !want.is_subnormal());
            prop_assert_eq!(s32(a).add(&s32(b)).to_f64() as f32, want);
        }

        #[test]
        fn prop_mul_matches_f32(a in normal_f32(), b in normal_f32()) {
            let want = a * b;
            prop_assume!(want.is_finite() && (want == 0.0 || !want.is_subnormal()));
            prop_assert_eq!(s32(a).mul(&s32(b)).to_f64() as f32, want);
        }

        #[test]
        fn prop_fma_matches_f32(a in normal_f32(), b in normal_f32(), c in normal_f32()) {
            let want = a.mul_add(b, c);
            prop_assume!(want.is_finite() && want != 0.0 && !want.is_subnormal());
            prop_assert_eq!(s32(a).fma(&s32(b), &s32(c)).to_f64() as f32, want);
        }
    }
}

/// Tie cases for every rounding mode, exhaustively at small magnitudes.
mod tie_semantics {
    use super::*;
    use crate::ExactFloat;

    #[test]
    fn all_modes_on_exact_ties() {
        // value = (2k+1) * 2^-53: exactly between k*2^-52 neighbors of 1.x
        for k in 0..32u64 {
            let mag = ((1u128 << 53) + 2 * k as u128 + 1) << 1; // guard set, sticky clear
            let e = ExactFloat::from_u128(false, mag, -54);
            let ne = e.round(FpFormat::BINARY64, Round::NearestEven);
            assert_eq!(ne.frac % 2, 0, "nearest-even lands on even at k={k}");
            let up = e.round(FpFormat::BINARY64, Round::HalfAwayFromZero);
            assert_eq!(up.frac, k + 1, "half-away rounds up at k={k}");
            let tz = e.round(FpFormat::BINARY64, Round::TowardZero);
            assert_eq!(tz.frac, k, "truncation keeps k at k={k}");
        }
    }

    #[test]
    fn negative_directed_modes() {
        let e = ExactFloat::from_u128(true, (1u128 << 53) + 1, -53);
        let down = e.round(FpFormat::BINARY64, Round::TowardNegInf);
        let up = e.round(FpFormat::BINARY64, Round::TowardPosInf);
        assert_eq!(
            down.frac, 1,
            "toward -inf grows the magnitude of a negative"
        );
        assert_eq!(up.frac, 0, "toward +inf truncates a negative");
        assert!(down.sign && up.sign);
    }
}

mod special_value_matrix {
    //! Exhaustive special-value matrix for the batch module's hosted
    //! fast path: for every pair drawn from the IEEE special classes
    //! (NaN, ±Inf, ±0, subnormals, underflow-boundary and extreme
    //! normals), `hosted_*` over canonicalized inputs must agree **bit
    //! for bit** with the soft-float operators — the equivalence the
    //! compiled tape's bit-accurate backend stands on.

    use crate::batch::{canonicalize, hosted_add, hosted_div, hosted_mul, hosted_neg, hosted_sub};
    use crate::{FpFormat, SoftFloat};

    fn specials() -> Vec<f64> {
        vec![
            f64::NAN,
            -f64::NAN, // host-negative NaN: canonicalize must erase the sign
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
            -f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE, // smallest normal
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE * 1.999, // just above the boundary
            f64::MAX,
            -f64::MAX,
            1.5,
            -2.25,
            1e-300,
            -1e308,
        ]
    }

    fn sf(v: f64) -> SoftFloat {
        SoftFloat::from_f64(FpFormat::BINARY64, v)
    }

    #[test]
    fn hosted_ops_match_softfloat_on_full_matrix() {
        for &ra in &specials() {
            for &rb in &specials() {
                // the tape canonicalizes on load, so the hosted ops see
                // only canonical-FTZ values — same as from_f64 would give
                let (a, b) = (canonicalize(ra), canonicalize(rb));
                let fb = &mut 0;
                let cases = [
                    ("add", hosted_add(a, b, fb), sf(ra).add(&sf(rb))),
                    ("sub", hosted_sub(a, b, fb), sf(ra).sub(&sf(rb))),
                    ("mul", hosted_mul(a, b, fb), sf(ra).mul(&sf(rb))),
                    ("div", hosted_div(a, b, fb), sf(ra).div(&sf(rb))),
                ];
                for (op, got, want) in cases {
                    assert_eq!(
                        got.to_bits(),
                        want.to_f64().to_bits(),
                        "{op}({ra:e}, {rb:e}): hosted {got:e} vs softfloat {:e}",
                        want.to_f64()
                    );
                }
            }
            let a = canonicalize(ra);
            assert_eq!(
                hosted_neg(a).to_bits(),
                sf(ra).neg().to_f64().to_bits(),
                "neg({ra:e})"
            );
        }
    }

    #[test]
    fn canonicalize_is_idempotent_and_ftz_on_matrix() {
        for &v in &specials() {
            let c = canonicalize(v);
            assert_eq!(
                c.to_bits(),
                canonicalize(c).to_bits(),
                "idempotent on {v:e}"
            );
            // image contains no subnormals and only the canonical NaN
            assert!(c.is_nan() || c == 0.0 || c.abs() >= f64::MIN_POSITIVE);
            if c.is_nan() {
                assert_eq!(c.to_bits(), f64::NAN.to_bits());
            }
        }
    }
}
