//! Cross-module accuracy tests: every FMA format against the exact
//! reference, single ops and chains, random and adversarial inputs.

use crate::reference::{exact_fma, ulp_error_vs_exact};
use crate::{ChainEvaluator, CsFmaFormat, CsFmaUnit, CsOperand};
use csfma_softfloat::{FpFormat, Round, SoftFloat};
use proptest::prelude::*;

const B64: FpFormat = FpFormat::BINARY64;

const ALL_FORMATS: [CsFmaFormat; 3] = [
    CsFmaFormat::PCS_55_ZD,
    CsFmaFormat::PCS_58_LZA,
    CsFmaFormat::FCS_29_LZA,
];

fn sf(v: f64) -> SoftFloat {
    SoftFloat::from_f64(B64, v)
}

/// One `A + B*C` through the unit, starting from IEEE operands; returns
/// the ulp error of the exact transported value vs the exact result.
fn single_op_error(fmt: CsFmaFormat, a: f64, b: f64, c: f64) -> f64 {
    let unit = CsFmaUnit::new(fmt);
    let (a, b, c) = (sf(a), sf(b), sf(c));
    let ao = CsOperand::from_ieee(&a, fmt);
    let co = CsOperand::from_ieee(&c, fmt);
    let r = unit.fma(&ao, &b, &co);
    let exact = exact_fma(&a, &b, &c);
    if exact.is_zero() && r.exact_value().is_zero() {
        return 0.0;
    }
    ulp_error_vs_exact(&r.exact_value(), &exact)
}

#[test]
fn simple_values_all_formats() {
    for fmt in ALL_FORMATS {
        for (a, b, c) in [
            (0.0, 1.0, 1.0),
            (1.0, 1.0, 1.0),
            (3.0, 2.0, 0.5),
            (-4.0, 2.0, 2.0),
            (1.5, -3.25, 2.0),
            (1e10, 1e-10, 1e10),
            (1.0, 1e200, 1e200),
            (-1e-200, 1e-200, 1e-200),
        ] {
            let err = single_op_error(fmt, a, b, c);
            assert!(
                err < 1e-9,
                "{}: fma({b},{c})+{a} err {err} ulp (should be ~exact: inputs are short)",
                fmt.name
            );
        }
    }
}

#[test]
fn irrational_style_values() {
    // full-width mantissas: transported result must stay well below a
    // double ulp from exact (the formats carry 110/116/87-digit mantissas)
    for fmt in ALL_FORMATS {
        for (a, b, c) in [
            (
                std::f64::consts::PI,
                std::f64::consts::E,
                std::f64::consts::SQRT_2,
            ),
            (1.0 / 3.0, 2.0 / 7.0, 9.0 / 11.0),
            (-0.1, 0.7, 0.3),
        ] {
            let err = single_op_error(fmt, a, b, c);
            assert!(err < 1e-6, "{}: err {err} ulp for ({a},{b},{c})", fmt.name);
        }
    }
}

#[test]
fn catastrophic_cancellation_stays_in_double_envelope() {
    // a ~ -b*c: the result is tiny; the error must stay below one double
    // ulp *at the operand scale* (the paper's "never more inaccurate than
    // IEEE 754 double precision" criterion for the LZA variants)
    for fmt in ALL_FORMATS {
        let b = 1.0 + 2f64.powi(-30);
        let c = 1.0 - 2f64.powi(-31);
        let prod = b * c;
        let a = -prod; // cancels to ~2^-61 residue scale
        let unit = CsFmaUnit::new(fmt);
        let ao = CsOperand::from_ieee(&sf(a), fmt);
        let co = CsOperand::from_ieee(&sf(c), fmt);
        let r = unit.fma(&ao, &sf(b), &co);
        let exact = exact_fma(&sf(a), &sf(b), &sf(c));
        let diff = r.exact_value().sub(&exact);
        if !diff.is_zero() {
            // operand scale is ~2^0: double would commit up to 2^-53 here
            assert!(
                diff.msb_exp() <= -53,
                "{}: cancellation error 2^{} above the double envelope",
                fmt.name,
                diff.msb_exp()
            );
        }
    }
}

#[test]
fn exact_zero_result() {
    for fmt in ALL_FORMATS {
        let unit = CsFmaUnit::new(fmt);
        let a = CsOperand::from_ieee(&sf(-6.0), fmt);
        let c = CsOperand::from_ieee(&sf(3.0), fmt);
        let r = unit.fma(&a, &sf(2.0), &c);
        assert!(r.exact_value().is_zero(), "{}", fmt.name);
        let back = r.to_ieee(B64, Round::NearestEven);
        assert!(back.is_zero());
    }
}

#[test]
fn special_class_handling() {
    for fmt in ALL_FORMATS {
        let unit = CsFmaUnit::new(fmt);
        let num = CsOperand::from_ieee(&sf(1.0), fmt);
        let nan = CsOperand::nan(fmt);
        let inf = CsOperand::inf(fmt, false);
        let zero = CsOperand::zero(fmt, false);

        // NaN propagates
        let r = unit.fma(&nan, &sf(1.0), &num);
        assert!(r.to_ieee(B64, Round::NearestEven).is_nan());
        // inf * 0 = NaN
        let r = unit.fma(&num, &SoftFloat::inf(B64, false), &zero);
        assert!(r.to_ieee(B64, Round::NearestEven).is_nan());
        // inf + finite product = inf
        let r = unit.fma(&inf, &sf(2.0), &num);
        assert!(r.to_ieee(B64, Round::NearestEven).is_inf());
        // inf - inf = NaN
        let r = unit.fma(&inf, &sf(-1.0), &inf);
        assert!(r.to_ieee(B64, Round::NearestEven).is_nan());
        // zero product passes A through
        let r = unit.fma(&num, &SoftFloat::zero(B64, false), &num);
        assert_eq!(r.to_ieee(B64, Round::NearestEven).to_f64(), 1.0);
        // A zero: result is the product
        let r = unit.fma(&zero, &sf(3.0), &num);
        assert_eq!(r.to_ieee(B64, Round::NearestEven).to_f64(), 3.0);
    }
}

#[test]
fn dominant_addend_is_exact() {
    // |A| >> |B*C|: A must pass through unharmed (product only contributes
    // rounding data, possibly dropped)
    for fmt in ALL_FORMATS {
        let unit = CsFmaUnit::new(fmt);
        let a = sf(1e250);
        let ao = CsOperand::from_ieee(&a, fmt);
        let co = CsOperand::from_ieee(&sf(1e-200), fmt);
        let r = unit.fma(&ao, &sf(1e-30), &co);
        let back = r.to_ieee(B64, Round::NearestEven);
        assert_eq!(back.to_f64(), 1e250, "{}", fmt.name);
    }
}

#[test]
fn dominant_product_is_exact() {
    for fmt in ALL_FORMATS {
        let unit = CsFmaUnit::new(fmt);
        let ao = CsOperand::from_ieee(&sf(1e-250), fmt);
        let co = CsOperand::from_ieee(&sf(1e200), fmt);
        let r = unit.fma(&ao, &sf(1e100), &co);
        let back = r.to_ieee(B64, Round::NearestEven);
        assert_eq!(back.to_f64(), 1e300, "{}", fmt.name);
    }
}

#[test]
fn chained_recurrence_beats_discrete_double() {
    // the Sec. IV-B experiment in miniature: 20 steps, fixed seeds; the
    // fused chain must land closer to the exact value than the discrete
    // binary64 evaluation
    for fmt in ALL_FORMATS {
        let unit = CsFmaUnit::new(fmt);
        let chain = ChainEvaluator::new(unit);
        let (b1, b2) = (1.75, -0.3125);
        let seeds = [0.3, -0.7, 1.1];
        let exact = crate::chain::run_recurrence_exact(b1, b2, seeds, 20);
        let fused = chain.run_recurrence(
            &sf(b1),
            &sf(b2),
            [&sf(seeds[0]), &sf(seeds[1]), &sf(seeds[2])],
            20,
        );
        let discrete =
            crate::chain::run_recurrence_softfloat(B64, Round::NearestEven, b1, b2, seeds, 20);
        let err_fused = ulp_error_vs_exact(&fused.exact_value(), &exact);
        let err_discrete = ulp_error_vs_exact(&discrete.to_exact(), &exact);
        assert!(
            err_fused <= err_discrete.max(0.5),
            "{}: fused {err_fused} ulp vs discrete {err_discrete} ulp",
            fmt.name
        );
    }
}

#[test]
fn report_structure_sane() {
    let fmt = CsFmaFormat::PCS_55_ZD;
    let unit = CsFmaUnit::new(fmt);
    let a = CsOperand::from_ieee(&sf(2.5), fmt);
    let c = CsOperand::from_ieee(&sf(1.5), fmt);
    let mut sink = crate::trace::VecSink::default();
    let (r, rep) = unit.fma_traced(&a, &sf(3.0), &c, &mut sink);
    assert!(rep.multiplier_rows <= 2 * 53 + 1);
    assert!(rep.skip < fmt.mux_ways());
    assert!(!sink.events.is_empty());
    assert_eq!(r.to_ieee(B64, Round::NearestEven).to_f64(), 3.0 * 1.5 + 2.5);
}

fn normal_input() -> impl Strategy<Value = f64> {
    (any::<bool>(), 0u64..(1u64 << 52), -200i32..=200).prop_map(|(s, m, e)| {
        let v = f64::from_bits(((1023 + e) as u64) << 52 | m);
        if s {
            -v
        } else {
            v
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Single op, random inputs: error vs exact bounded by one double ulp
    /// at the dominant-term scale (the "at least double precision" claim).
    #[test]
    fn prop_single_op_double_envelope(a in normal_input(), b in normal_input(), c in normal_input()) {
        for fmt in ALL_FORMATS {
            let unit = CsFmaUnit::new(fmt);
            let (a, b, c) = (sf(a), sf(b), sf(c));
            let ao = CsOperand::from_ieee(&a, fmt);
            let co = CsOperand::from_ieee(&c, fmt);
            let r = unit.fma(&ao, &b, &co);
            let exact = exact_fma(&a, &b, &c);
            let diff = r.exact_value().sub(&exact);
            if diff.is_zero() {
                continue;
            }
            // dominant-term magnitude
            let dom = {
                let p = b.to_exact().mul(&c.to_exact());
                let ae = a.to_exact();
                if ae.cmp_magnitude(&p) == std::cmp::Ordering::Greater { ae } else { p }
            };
            let envelope = dom.msb_exp() - 52;
            prop_assert!(
                diff.msb_exp() <= envelope,
                "{}: error 2^{} above double envelope 2^{} for ({:?},{:?},{:?})",
                fmt.name, diff.msb_exp(), envelope, a.to_f64(), b.to_f64(), c.to_f64()
            );
        }
    }

    /// Transport roundtrip through to_ieee is within one ulp of the
    /// correctly rounded fused op.
    #[test]
    fn prop_to_ieee_close_to_fused(a in normal_input(), b in normal_input(), c in normal_input()) {
        for fmt in ALL_FORMATS {
            let unit = CsFmaUnit::new(fmt);
            let (a, b, c) = (sf(a), sf(b), sf(c));
            let ao = CsOperand::from_ieee(&a, fmt);
            let co = CsOperand::from_ieee(&c, fmt);
            let r = unit.fma(&ao, &b, &co).to_ieee(B64, Round::NearestEven);
            let want = b.fma_r(&c, &a, Round::NearestEven);
            if want.is_zero() {
                prop_assert!(r.is_zero() || r.to_f64().abs() < 1e-290);
                continue;
            }
            let rv = r.to_f64();
            let wv = want.to_f64();
            let ulp = (wv.abs() * 2f64.powi(-52)).max(f64::MIN_POSITIVE);
            prop_assert!((rv - wv).abs() <= ulp, "{}: {} vs {}", fmt.name, rv, wv);
        }
    }

    /// Five chained ops stay inside the double envelope at every link.
    #[test]
    fn prop_chain_double_envelope(
        vals in prop::collection::vec(normal_input(), 11),
    ) {
        for fmt in ALL_FORMATS {
            let unit = CsFmaUnit::new(fmt);
            // acc = fma(acc, b_i, c_i) chain, all through CS transport
            let mut acc = CsOperand::from_ieee(&sf(vals[0]), fmt);
            let mut exact = sf(vals[0]).to_exact();
            for i in 0..5 {
                let b = sf(vals[1 + 2 * i]);
                let cv = sf(vals[2 + 2 * i]);
                let c = CsOperand::from_ieee(&cv, fmt);
                acc = unit.fma(&acc, &b, &c);
                exact = exact.add(&b.to_exact().mul(&cv.to_exact()));
            }
            let diff = acc.exact_value().sub(&exact);
            if diff.is_zero() {
                continue;
            }
            // envelope: one double ulp at the largest intermediate scale,
            // times the chain length budget
            let dom = if exact.is_zero() { acc.exact_value() } else { exact.clone() };
            if dom.is_zero() {
                continue;
            }
            let envelope = dom.msb_exp().max(0) - 49; // 8x slack over 1 ulp at result scale
            prop_assert!(
                diff.msb_exp() <= envelope.max(diff.msb_exp().min(-1000)),
                "{}: chained error 2^{} vs envelope 2^{}",
                fmt.name, diff.msb_exp(), envelope
            );
        }
    }
}

#[test]
fn pcs_outputs_keep_carry_spacing() {
    // the transport format's 192-bit packing relies on carries sitting
    // only at segment bases; every FMA output must keep that invariant
    for fmt in [CsFmaFormat::PCS_55_ZD, CsFmaFormat::PCS_58_LZA] {
        let unit = CsFmaUnit::new(fmt);
        let mut acc = CsOperand::from_ieee(&sf(0.37), fmt);
        for i in 0..24 {
            let b = sf(1.1 + 0.07 * i as f64 * if i % 2 == 0 { 1.0 } else { -1.0 });
            let c = CsOperand::from_ieee(&sf(0.9 - 0.03 * i as f64), fmt);
            acc = unit.fma(&acc, &b, &c);
            assert!(acc.spacing_holds(), "{} step {i}", fmt.name);
        }
    }
}

#[test]
fn conversion_all_rounding_modes() {
    // CS -> IEEE honors every rounding mode like the soft-float reference
    let fmt = CsFmaFormat::PCS_55_ZD;
    let unit = CsFmaUnit::new(fmt);
    let a = CsOperand::from_ieee(&sf(0.1), fmt);
    let c = CsOperand::from_ieee(&sf(1.0 / 3.0), fmt);
    let r = unit.fma(&a, &sf(0.7), &c); // irrational-ish mantissa
    let exact = r.exact_value();
    for mode in [
        Round::NearestEven,
        Round::HalfAwayFromZero,
        Round::TowardZero,
        Round::TowardPosInf,
        Round::TowardNegInf,
    ] {
        let got = r.to_ieee(B64, mode);
        let want = SoftFloat::from_rounded(B64, exact.round(B64, mode));
        assert_eq!(got, want, "{mode:?}");
    }
    // directed modes bracket the value
    let dn = r.to_ieee(B64, Round::TowardNegInf).to_f64();
    let up = r.to_ieee(B64, Round::TowardPosInf).to_f64();
    assert!(dn < up);
}

#[test]
fn pack_is_deterministic_and_value_stable() {
    let fmt = CsFmaFormat::FCS_29_LZA;
    let unit = CsFmaUnit::new(fmt);
    let a = CsOperand::from_ieee(&sf(2.5), fmt);
    let c = CsOperand::from_ieee(&sf(-1.25), fmt);
    let r1 = unit.fma(&a, &sf(3.0), &c);
    let r2 = unit.fma(&a, &sf(3.0), &c);
    assert_eq!(r1.pack(), r2.pack(), "evaluation must be deterministic");
    assert_eq!(
        r1.pack().width(),
        fmt.operand_bits(),
        "pack width matches the declared transport width"
    );
}

#[test]
fn b_input_narrower_formats() {
    // B stays in standard format (Sec. III-D); a binary32 B input also
    // works through the same engine
    let fmt = CsFmaFormat::PCS_55_ZD;
    let unit = CsFmaUnit::new(fmt);
    let b32 = SoftFloat::from_f64(FpFormat::BINARY32, 1.5);
    let a = CsOperand::from_ieee(&sf(1.0), fmt);
    let c = CsOperand::from_ieee(&sf(2.0), fmt);
    let r = unit.fma(&a, &b32, &c);
    assert_eq!(r.to_ieee(B64, Round::NearestEven).to_f64(), 4.0);
}

#[test]
fn deep_chain_exponent_walks_stay_exact() {
    // march the exponent up and down across hundreds of octaves; block
    // renormalization must track it without drift
    let fmt = CsFmaFormat::FCS_29_LZA;
    let unit = CsFmaUnit::new(fmt);
    let mut acc = CsOperand::from_ieee(&sf(1.0), fmt);
    let zero_c = CsOperand::from_ieee(&sf(1.0), fmt);
    for _ in 0..200 {
        acc = unit.fma(
            &CsOperand::zero(fmt, false),
            &acc.to_ieee(B64, Round::NearestEven),
            &zero_c,
        );
        acc = unit.fma(&acc, &sf(4.0), &CsOperand::from_ieee(&sf(0.0), fmt));
    }
    // acc = 1 * 4^0 ... all the mul-by-zero-added terms: acc stays 1.0
    // through 400 unit passes
    assert_eq!(acc.to_ieee(B64, Round::NearestEven).to_f64(), 1.0);
}

/// Dense sweep over a miniature geometry: a 16-digit mantissa in two
/// 8-digit blocks with a 5-bit `B` significand is small enough to cover
/// every fraction pattern and a grid of exponents/signs exhaustively —
/// strong evidence the engine's window/normalization algebra is right for
/// *any* parameters, not just the paper's three design points.
mod mini_format {
    use super::*;
    use crate::Normalizer;
    use csfma_softfloat::ExactFloat;

    const B_FMT: FpFormat = FpFormat {
        exp_bits: 5,
        frac_bits: 4,
    };

    fn mini(spacing: Option<usize>, normalizer: Normalizer, name: &'static str) -> CsFmaFormat {
        CsFmaFormat {
            name,
            block_bits: 8,
            mant_blocks: 2,
            left_blocks: 2,
            right_blocks: 2,
            carry_spacing: spacing,
            normalizer,
            b_sig_bits: 5,
        }
    }

    fn sweep(fmt: CsFmaFormat) {
        let unit = CsFmaUnit::new(fmt);
        let mk = |sign: bool, frac: u64, exp: i32| SoftFloat::from_parts(B_FMT, sign, exp, frac);
        let mut cases = 0usize;
        for a_sign in [false, true] {
            for a_frac in 0..16u64 {
                for a_exp in [-5, 0, 4] {
                    let a = mk(a_sign, a_frac, a_exp);
                    let ao = CsOperand::from_ieee(&a, fmt);
                    for c_frac in (0..16u64).step_by(3) {
                        for c_exp in [-4, 2] {
                            let c = mk(c_frac % 2 == 1, c_frac, c_exp);
                            let co = CsOperand::from_ieee(&c, fmt);
                            for b_frac in (0..16u64).step_by(5) {
                                let b = mk(b_frac % 3 == 0, b_frac, 1);
                                let r = unit.fma(&ao, &b, &co);
                                let exact = a.to_exact().add(&b.to_exact().mul(&c.to_exact()));
                                let diff = r.exact_value().sub(&exact);
                                cases += 1;
                                if diff.is_zero() {
                                    continue;
                                }
                                // dominant scale
                                let p = b.to_exact().mul(&c.to_exact());
                                let dom: ExactFloat = if a.to_exact().cmp_magnitude(&p)
                                    == std::cmp::Ordering::Greater
                                {
                                    a.to_exact()
                                } else {
                                    p
                                };
                                // envelope: better than the 5-bit input
                                // significand's ULP at the dominant scale
                                assert!(
                                    diff.msb_exp() <= dom.msb_exp() - 5,
                                    "{}: err 2^{} vs dom 2^{} for a={} b={} c={}",
                                    fmt.name,
                                    diff.msb_exp(),
                                    dom.msb_exp(),
                                    a.to_f64(),
                                    b.to_f64(),
                                    c.to_f64()
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(cases > 4000, "swept {cases} cases");
    }

    #[test]
    fn mini_pcs_zero_detect() {
        sweep(mini(Some(4), Normalizer::ZeroDetect, "mini PCS/ZD"));
    }

    #[test]
    fn mini_pcs_early_lza() {
        sweep(mini(Some(4), Normalizer::EarlyLza, "mini PCS/LZA"));
    }

    #[test]
    fn mini_fcs_zero_detect() {
        sweep(mini(None, Normalizer::ZeroDetect, "mini FCS/ZD"));
    }

    #[test]
    fn mini_fcs_early_lza() {
        sweep(mini(None, Normalizer::EarlyLza, "mini FCS/LZA"));
    }
}

/// Sec. III-E's accepted misrounding, reproduced concretely: a value just
/// above one half ULP whose excess lives entirely in the *discarded*
/// blocks reads as "below half" from the rounding block alone and is
/// erroneously rounded down. The paper quotes 0.5000000000000000083 as
/// the largest such number for the 55-bit block.
#[test]
fn documented_misrounding_boundary() {
    use csfma_bits::Bits;
    use csfma_carrysave::CsNumber;
    use csfma_units::rounding::round_up_from_block;

    // fraction = 0.0111…1 (54 ones) in the rounding block, plus ones in
    // the discarded lower blocks: true fraction > 1/2 by ~2^-55, but the
    // block's resolved value is 2^54 - 1 < 2^54 -> rounds down.
    let block = CsNumber::new(Bits::from_u128(55, (1u128 << 54) - 1), Bits::zero(55));
    assert!(
        !round_up_from_block(&block),
        "the block alone reads below half: misrounded down (accepted)"
    );
    // the block encodes (2^54 - 1)/2^55 = 1/2 - 2^-55: the largest
    // fraction the decision sees below half. True fractions up to just
    // under 1/2 + 2^-55·(carried tail) can therefore be misrounded —
    // a deviation of order 2^-55 ≈ 2.8e-17, the magnitude behind the
    // paper's 0.5000000000000000083 example.
    assert!(2f64.powi(-55) < 1e-16);

    // one more carried bit tips the decision correctly
    let exactly_half = CsNumber::new(Bits::one_hot(55, 54), Bits::zero(55));
    assert!(round_up_from_block(&exactly_half));

    // and a redundant CS encoding of >half also rounds up (0.0220…cs case)
    let redundant = CsNumber::new(Bits::one_hot(55, 53), Bits::one_hot(55, 53));
    assert!(round_up_from_block(&redundant));
}

mod contract_violations {
    use super::*;

    #[test]
    fn mixed_operand_formats_panic() {
        let unit = CsFmaUnit::new(CsFmaFormat::PCS_55_ZD);
        let a = CsOperand::from_f64(1.0, CsFmaFormat::PCS_55_ZD);
        let wrong = CsOperand::from_f64(1.0, CsFmaFormat::FCS_29_LZA);
        let b = sf(1.0);
        assert!(std::panic::catch_unwind(|| unit.fma(&wrong, &b, &a)).is_err());
        assert!(std::panic::catch_unwind(|| unit.fma(&a, &b, &wrong)).is_err());
    }

    #[test]
    fn dot_rejects_empty_terms() {
        let unit = crate::CsDotUnit::new(CsFmaFormat::FCS_29_LZA);
        assert!(std::panic::catch_unwind(|| unit.dot(&[])).is_err());
    }
}

/// Single-precision instances of the same engine: the accuracy envelope
/// scales with the `B` significand width (binary32's 24 bits).
mod single_precision {
    use super::*;

    const B32: FpFormat = FpFormat::BINARY32;

    fn s32(v: f64) -> SoftFloat {
        SoftFloat::from_f64(B32, v)
    }

    #[test]
    fn sp_formats_compute_correctly() {
        for fmt in [CsFmaFormat::PCS_27_SP, CsFmaFormat::FCS_15_SP] {
            let unit = CsFmaUnit::new(fmt);
            for (a, b, c) in [
                (1.0, 2.0, 3.0),
                (-0.5, 4.0, 0.25),
                (0.1, 0.7, -0.3),
                (1e10, 1e-5, 2e4),
            ] {
                let (av, bv, cv) = (s32(a), s32(b), s32(c));
                let ao = CsOperand::from_ieee(&av, fmt);
                let co = CsOperand::from_ieee(&cv, fmt);
                let r = unit.fma(&ao, &bv, &co);
                let exact = exact_fma(&av, &bv, &cv);
                let diff = r.exact_value().sub(&exact);
                if diff.is_zero() {
                    continue;
                }
                let p = bv.to_exact().mul(&cv.to_exact());
                let dom = if av.to_exact().cmp_magnitude(&p) == std::cmp::Ordering::Greater {
                    av.to_exact()
                } else {
                    p
                };
                assert!(
                    diff.msb_exp() <= dom.msb_exp() - 23,
                    "{}: err 2^{} vs dom 2^{} (binary32 envelope)",
                    fmt.name,
                    diff.msb_exp(),
                    dom.msb_exp()
                );
            }
        }
    }

    #[test]
    fn sp_chains_beat_discrete_binary32() {
        let fmt = CsFmaFormat::FCS_15_SP;
        let chain = ChainEvaluator::new(CsFmaUnit::new(fmt));
        let (b1, b2) = (1.75f64, -0.3125);
        let seeds = [0.3, -0.7, 1.1];
        let exact = crate::chain::run_recurrence_exact(b1, b2, seeds, 16);
        // discrete binary32
        let d32 =
            crate::chain::run_recurrence_softfloat(B32, Round::NearestEven, b1, b2, seeds, 16);
        let fused = chain.run_recurrence(
            &s32(b1),
            &s32(b2),
            [&s32(seeds[0]), &s32(seeds[1]), &s32(seeds[2])],
            16,
        );
        let e32 = ulp_error_vs_exact(&d32.to_exact(), &exact);
        let ef = ulp_error_vs_exact(&fused.exact_value(), &exact);
        // errors here are in binary64 ulps: binary32 is ~2^29 coarser
        assert!(ef < e32, "fused {ef} vs discrete {e32}");
    }
}

mod special_value_fma_matrix {
    //! Special-value matrices through the classic FMA datapath and the
    //! carry-save chains: NaN, ±Inf, ±0 and (flushed) subnormals must
    //! follow IEEE 754 semantics at every link, not just in single ops.

    use super::{sf, B64};
    use crate::{ClassicFma, CsFmaFormat, CsFmaUnit, CsOperand};
    use csfma_softfloat::Round;

    fn specials() -> Vec<f64> {
        vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::from_bits(0x000F_FFFF_FFFF_FFFF), // subnormal: flushes to 0
            -f64::from_bits(1),
            1.5,
            -2.25,
        ]
    }

    /// The structural Fig. 4 datapath must equal the value-level fused
    /// operation on the complete special matrix, bit for bit.
    #[test]
    fn classic_structural_matches_reference_on_matrix() {
        let unit = ClassicFma::new(Round::NearestEven);
        for &a in &specials() {
            for &b in &specials() {
                for &c in &specials() {
                    let want = unit.fma(&sf(a), &sf(b), &sf(c));
                    let got = ClassicFma::fma_structural(&sf(a), &sf(b), &sf(c));
                    assert_eq!(
                        got.to_f64().to_bits(),
                        want.to_f64().to_bits(),
                        "classic structural vs reference on ({a:e}) + ({b:e})*({c:e})"
                    );
                }
            }
        }
    }

    /// Single carry-save FMA on the matrix: `A + B*C` through the unit
    /// must match the soft-float fused operation bit for bit — every
    /// finite result in this value set is exact, so no unit misrounding
    /// can excuse a difference.
    #[test]
    fn cs_units_match_softfloat_fma_on_matrix() {
        for fmt in [CsFmaFormat::PCS_55_ZD, CsFmaFormat::FCS_29_LZA] {
            let unit = CsFmaUnit::new(fmt);
            for &a in &specials() {
                for &b in &specials() {
                    for &c in &specials() {
                        let r = unit.fma(
                            &CsOperand::from_f64(a, fmt),
                            &sf(b),
                            &CsOperand::from_f64(c, fmt),
                        );
                        let got = r.to_ieee(B64, Round::NearestEven).to_f64();
                        let want = sf(b).fma(&sf(c), &sf(a)).to_f64();
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{}: ({a:e}) + ({b:e})*({c:e}) -> {got:e}, want {want:e}",
                            fmt.name
                        );
                    }
                }
            }
        }
    }

    /// Chained (unrounded) links: a special injected anywhere in a
    /// PCS/FCS chain must propagate to the resolved result, and a
    /// subnormal injection must behave exactly like injecting zero
    /// (flush-to-zero is part of the format contract).
    #[test]
    fn specials_propagate_through_cs_chains() {
        for fmt in [CsFmaFormat::PCS_55_ZD, CsFmaFormat::FCS_29_LZA] {
            let unit = CsFmaUnit::new(fmt);
            let chain = |addends: [f64; 3], bs: [f64; 3], x0: f64| {
                let mut x = CsOperand::from_f64(x0, fmt);
                for k in 0..3 {
                    x = unit.fma(&CsOperand::from_f64(addends[k], fmt), &sf(bs[k]), &x);
                }
                x.to_ieee(B64, Round::NearestEven).to_f64()
            };

            for k in 0..3 {
                // NaN addend at link k -> NaN out
                let mut adds = [1.5, -0.25, 2.0];
                adds[k] = f64::NAN;
                assert!(chain(adds, [1.1, 0.9, 1.2], 0.5).is_nan(), "{}", fmt.name);
                // NaN B-multiplicand at link k -> NaN out
                let mut bs = [1.1, 0.9, 1.2];
                bs[k] = f64::NAN;
                assert!(chain([1.5, -0.25, 2.0], bs, 0.5).is_nan(), "{}", fmt.name);
                // +Inf addend with all-positive links -> +Inf out
                let mut adds = [1.5, 0.25, 2.0];
                adds[k] = f64::INFINITY;
                let r = chain(adds, [1.1, 0.9, 1.2], 0.5);
                assert!(r.is_infinite() && r > 0.0, "{}: got {r:e}", fmt.name);
            }

            // Inf * 0 inside the chain -> NaN at the end
            let inf_chain = chain([f64::INFINITY, 0.0, 1.0], [1.0, 0.0, 1.0], 1.0);
            assert!(inf_chain.is_nan(), "{}", fmt.name);

            // subnormal injection == zero injection, bit for bit
            let sub = f64::from_bits(0x000F_FFFF_FFFF_FFFF);
            for k in 0..3 {
                let mut with_sub = [1.5, -0.25, 2.0];
                let mut with_zero = with_sub;
                with_sub[k] = sub;
                with_zero[k] = 0.0;
                let a = chain(with_sub, [1.1, 0.9, 1.2], 0.5);
                let b = chain(with_zero, [1.1, 0.9, 1.2], 0.5);
                assert_eq!(a.to_bits(), b.to_bits(), "{}", fmt.name);
                let mut bs_sub = [1.1, 0.9, 1.2];
                let mut bs_zero = bs_sub;
                bs_sub[k] = -sub;
                bs_zero[k] = -0.0;
                let a = chain([1.5, -0.25, 2.0], bs_sub, 0.5);
                let b = chain([1.5, -0.25, 2.0], bs_zero, 0.5);
                assert_eq!(a.to_bits(), b.to_bits(), "{}", fmt.name);
            }
        }
    }
}

/// The self-checking datapath (DESIGN.md §10): no false positives on the
/// clean path, bit-identical results, and guaranteed detection of every
/// single-bit flip class the residue/recompute checks cover — including
/// the Fig. 10 block idiosyncrasies (all-0 and all-1 leading blocks under
/// cancellation).
mod self_checking {
    use super::{sf, ALL_FORMATS, B64};
    use crate::fault::{
        CheckKind, FaultDetected, FaultHook, FaultPlan, FaultSite, FaultStage, FmaCtl,
    };
    use crate::{CsFmaFormat, CsFmaUnit, CsOperand, FmaScratch};
    use csfma_softfloat::Round;

    /// Value triples spanning the normalizer's regimes: plain values,
    /// deep cancellation with a positive residue (all-0 leading blocks)
    /// and with a negative residue (all-1 leading blocks, the
    /// two's-complement sign-block case of Fig. 10).
    const CASES: [(f64, f64, f64); 5] = [
        (1.5, -3.25, 2.0),
        (1e10, 1e-10, 1e10),
        (-6.0 + 1e-12, 2.0, 3.0),
        (-6.0 - 1e-12, 2.0, 3.0),
        (-1.0, 1.0 + 9.313_225_746_154_785e-10, 1.0), // 1 + 2^-30
    ];

    fn run(
        fmt: CsFmaFormat,
        (a, b, c): (f64, f64, f64),
        hook: Option<&dyn FaultHook>,
    ) -> (u64, Vec<FaultDetected>) {
        let unit = CsFmaUnit::new(fmt);
        let ao = CsOperand::from_ieee(&sf(a), fmt);
        let co = CsOperand::from_ieee(&sf(c), fmt);
        let mut det = Vec::new();
        let mut ctl = FmaCtl {
            hook,
            detections: Some(&mut det),
        };
        let (r, _) = unit.fma_checked_with(&ao, &sf(b), &co, &mut FmaScratch::default(), &mut ctl);
        (r.to_ieee(B64, Round::NearestEven).to_f64().to_bits(), det)
    }

    #[test]
    fn clean_path_has_no_false_positives_and_identical_bits() {
        for fmt in ALL_FORMATS {
            for case in CASES {
                let (bits, det) = run(fmt, case, None);
                assert!(det.is_empty(), "{}: false positive {det:?}", fmt.name);
                let unit = CsFmaUnit::new(fmt);
                let plain = unit
                    .fma(
                        &CsOperand::from_ieee(&sf(case.0), fmt),
                        &sf(case.1),
                        &CsOperand::from_ieee(&sf(case.2), fmt),
                    )
                    .to_ieee(B64, Round::NearestEven)
                    .to_f64()
                    .to_bits();
                assert_eq!(bits, plain, "{}: checked path diverged", fmt.name);
            }
        }
    }

    /// A hook that flips one fixed bit at one site — the exhaustive
    /// mutation-by-position driver.
    struct FlipBit {
        site: FaultSite,
        pos: usize,
    }

    impl FaultHook for FlipBit {
        fn tamper_bits(&self, site: FaultSite, word: &mut csfma_bits::Bits) {
            if site == self.site {
                let p = self.pos % word.width();
                word.set_bit(p, !word.bit(p));
            }
        }
        fn tamper_index(&self, _site: FaultSite, _index: &mut u64, _modulus: u64) {}
    }

    /// Every single-bit flip in the multiplier CS output and the PCS
    /// carry lanes is detected, at every position, in every regime —
    /// including flips landing in all-0 / all-1 skippable blocks.
    #[test]
    fn single_bit_flips_are_always_detected() {
        for fmt in ALL_FORMATS {
            for case in CASES {
                for site in [FaultSite::MulSum, FaultSite::MulCarry, FaultSite::PcsCarry] {
                    if site == FaultSite::PcsCarry && fmt.carry_spacing.is_none() {
                        continue; // FCS keeps full carry-save: no Carry Reduce
                    }
                    // positions reduce mod the word width inside the hook;
                    // 512 steps of 3 covers every bit of every tamper word
                    for pos in (0..512).step_by(3) {
                        let hook = FlipBit { site, pos };
                        let (_, det) = run(fmt, case, Some(&hook));
                        assert!(
                            !det.is_empty(),
                            "{}: undetected {site} flip at {pos} for {case:?}",
                            fmt.name
                        );
                    }
                }
            }
        }
    }

    /// Plan-driven strikes on the select and exponent paths are detected
    /// for any seed (the tamper guarantees a changed legal value).
    #[test]
    fn select_and_exponent_strikes_are_detected() {
        for fmt in ALL_FORMATS {
            for (site, check) in [
                (FaultSite::BlockSelect, CheckKind::BlockSelect),
                (FaultSite::ExpField, CheckKind::ExponentPath),
            ] {
                for seed in 0..25u64 {
                    let plan = FaultPlan::single(seed, site, 0);
                    let hook = plan.for_row(0, FaultStage::Primary).unwrap();
                    let (_, det) = run(fmt, CASES[0], Some(&hook));
                    assert_eq!(plan.fired(0), 1, "{}: seed {seed} did not strike", fmt.name);
                    assert!(
                        det.iter().any(|d| d.check == check),
                        "{}: undetected {site} strike, seed {seed}: {det:?}",
                        fmt.name
                    );
                }
            }
        }
    }
}
