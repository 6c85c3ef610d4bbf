//! The binary64 ↔ carry-save conversions against the routes they replaced.
//!
//! `SoftFloat::from_f64`/`to_f64` into and out of binary64, and
//! `CsOperand::from_ieee`/`to_ieee`, work directly on machine words.
//! The routes in `reference` are the earlier ones, kept verbatim over the
//! public API: every binary64 conversion went through an exact
//! intermediate (`ExactFloat`) and rounded it, and the transport mantissa
//! was built with `Bits` shifts and a `Bits` negation. These tests
//! require the two to agree bit for bit: on every binary64 class and NaN
//! payload, every biased exponent, `to_f64` from narrower and wider
//! formats, every transport format, `to_ieee` in all five rounding modes
//! on scalar and bit-plane FMA chains of depth 0 to 4, and crafted edges
//! (ties both ways, a round-up into the next binade, the overflow edge,
//! the `emin` flush edge, a rounding block that carries into the
//! mantissa, sticky bits in the lowest limb, and exact cancellation).
//!
//! The plane kernel and the scalar oracle share these conversions, so
//! neither the plane/scalar differential nor the tape-vs-oracle suites
//! can see a fault in them; this file and the absolute bits in
//! `tests/golden/*.json` do.

use csfma::bits::Bits;
use csfma::core::{plane_fma_chunk, CsFmaFormat, CsFmaUnit, CsOperand, FmaScratch, PlaneScratch};
use csfma::softfloat::{FpClass, FpFormat, Round, SoftFloat};

mod reference {
    use csfma::bits::Bits;
    use csfma::core::CsOperand;
    use csfma::softfloat::{ExactFloat, FpClass, FpFormat, Round, SoftFloat};

    /// `SoftFloat::from_f64`: specials by class, subnormals flushed, a
    /// normal rounded exactly into `format`.
    pub fn from_f64(format: FpFormat, v: f64) -> SoftFloat {
        if v.is_nan() {
            return SoftFloat::nan(format);
        }
        if v.is_infinite() {
            return SoftFloat::inf(format, v < 0.0);
        }
        if v == 0.0 || v.is_subnormal() {
            return SoftFloat::zero(format, v.is_sign_negative());
        }
        let e = ExactFloat::from_f64(v);
        SoftFloat::from_rounded(format, e.round(format, Round::NearestEven))
    }

    /// `SoftFloat::to_f64`: a normal through its exact value.
    pub fn to_f64(x: &SoftFloat) -> f64 {
        match x.class() {
            FpClass::Nan => f64::NAN,
            FpClass::Inf if x.sign() => f64::NEG_INFINITY,
            FpClass::Inf => f64::INFINITY,
            FpClass::Zero if x.sign() => -0.0,
            FpClass::Zero => 0.0,
            FpClass::Normal => x.to_exact().to_f64_lossy(),
        }
    }

    /// The mantissa sum word `CsOperand::from_ieee` builds for a normal:
    /// the significand shifted to the transport anchor, two's-complemented
    /// when negative (the carry word and rounding block are zero).
    pub fn from_ieee_mant(value: &SoftFloat, m: usize, frac_bits: usize) -> Bits {
        let shift = frac_bits - value.format().frac_bits as usize;
        let mant = Bits::from_u64(m, value.significand()).shl(shift);
        if value.sign() {
            mant.wrapping_neg()
        } else {
            mant
        }
    }

    /// `CsOperand::to_ieee`: a normal rounds its exact value; an exact
    /// zero gives `+0`.
    pub fn to_ieee(op: &CsOperand, target: FpFormat, mode: Round) -> SoftFloat {
        match op.class() {
            FpClass::Zero => SoftFloat::zero(target, op.sign_hint()),
            FpClass::Inf => SoftFloat::inf(target, op.sign_hint()),
            FpClass::Nan => SoftFloat::nan(target),
            FpClass::Normal => {
                let e = op.exact_value();
                if e.is_zero() {
                    return SoftFloat::zero(target, false);
                }
                SoftFloat::from_rounded(target, e.round(target, mode))
            }
        }
    }
}

const MODES: [Round; 5] = [
    Round::NearestEven,
    Round::HalfAwayFromZero,
    Round::TowardZero,
    Round::TowardPosInf,
    Round::TowardNegInf,
];

const FORMATS: [CsFmaFormat; 5] = [
    CsFmaFormat::PCS_55_ZD,
    CsFmaFormat::PCS_58_LZA,
    CsFmaFormat::FCS_29_LZA,
    CsFmaFormat::PCS_27_SP,
    CsFmaFormat::FCS_15_SP,
];

/// The `B` input format of a transport format.
fn b_format(fmt: &CsFmaFormat) -> FpFormat {
    if fmt.b_sig_bits == 24 {
        FpFormat::BINARY32
    } else {
        FpFormat::BINARY64
    }
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A double with the given sign and biased exponent and a random
    /// fraction.
    fn with_exp(&mut self, biased: u64) -> f64 {
        let sign = self.next() & 1;
        f64::from_bits(sign << 63 | biased << 52 | (self.next() & ((1 << 52) - 1)))
    }

    /// FMA operand stimulus: specials, extreme exponents, few-bit values
    /// (ties and exact cancellation), and ordinary random doubles.
    fn operand(&mut self) -> f64 {
        const SPECIAL: [f64; 10] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::MAX,
            1.9999999999999998,
            1.0,
            -1.0,
        ];
        match self.below(16) {
            0 => SPECIAL[self.below(SPECIAL.len() as u64) as usize],
            1 => f64::from_bits(self.next()),
            // near the top and bottom of the exponent range
            2 => {
                let e = 1 + self.below(40);
                self.with_exp(e)
            }
            3 => {
                let e = 2046 - self.below(40);
                self.with_exp(e)
            }
            // few significant bits: exact sums, ties, cancellation
            4..=6 => {
                let v = (self.below(64) as f64 - 32.0) * 0.125;
                v * 2f64.powi(self.below(120) as i32 - 60)
            }
            _ => {
                let e = 1023 - 30 + self.below(60);
                self.with_exp(e)
            }
        }
    }
}

fn same_float(got: &SoftFloat, want: &SoftFloat, what: &str) {
    assert_eq!(got, want, "{what}");
    assert_eq!(
        got.to_f64().to_bits(),
        reference::to_f64(want).to_bits(),
        "{what}: to_f64"
    );
}

/// `to_ieee` into binary64 in every mode, against the reference.
fn check_to_ieee(op: &CsOperand, what: &str) {
    for mode in MODES {
        let got = op.to_ieee(FpFormat::BINARY64, mode);
        let want = reference::to_ieee(op, FpFormat::BINARY64, mode);
        same_float(&got, &want, &format!("{what} {mode:?}"));
    }
}

/// `from_f64` into `format` and `to_f64` back, against the reference.
fn check_f64(format: FpFormat, v: f64) {
    let got = SoftFloat::from_f64(format, v);
    let want = reference::from_f64(format, v);
    assert_eq!(got, want, "from_f64({v:e} = {:#018x})", v.to_bits());
    assert_eq!(
        got.to_f64().to_bits(),
        reference::to_f64(&want).to_bits(),
        "to_f64 of {v:e} in {format:?}"
    );
}

/// `from_ieee` into `fmt`, field by field, against the reference.
fn check_from_ieee(value: &SoftFloat, fmt: CsFmaFormat) {
    let op = CsOperand::from_ieee(value, fmt);
    let what = format!("{} from {value:?}", fmt.name);
    assert_eq!(op.class(), value.class(), "{what}: class");
    assert_eq!(op.sign_hint(), value.sign(), "{what}: sign hint");
    let m = fmt.mant_bits();
    let want = match value.class() {
        FpClass::Normal => reference::from_ieee_mant(value, m, fmt.frac_bits()),
        _ => Bits::zero(m),
    };
    assert_eq!(op.mant().sum(), &want, "{what}: mantissa sum");
    assert!(op.mant().carry().is_zero(), "{what}: mantissa carry");
    assert!(op.round().is_canonical_zero(), "{what}: rounding block");
    if value.class() == FpClass::Normal {
        assert_eq!(op.exp().unbiased(), value.exp(), "{what}: exponent");
    }
    check_to_ieee(&op, &what);
}

/// Every binary64 class and NaN payload, then every biased exponent
/// with `per_exp` random fractions, through `from_f64` and `to_f64`.
fn binary64_round_trips(per_exp: usize, seed: u64) -> usize {
    let mut rng = Rng(seed);
    let mut cases = 0;
    let mut payloads = vec![
        0x7ff8_0000_0000_0000u64, // the canonical quiet NaN
        0xfff8_0000_0000_0000,
        0x7ff0_0000_0000_0001, // signalling, smallest payload
        0xfff0_0000_0000_0001,
        0x7fff_ffff_ffff_ffff,
        0xffff_ffff_ffff_ffff,
        0x7ff4_0000_0000_0000,
    ];
    payloads.extend((0..16).map(|_| 0x7ff0_0000_0000_0001 | rng.next() & 0x800f_ffff_ffff_ffff));
    let classes = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        1.0,
        -1.0,
        5e-324,
        -5e-324,
        f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
    ];
    for v in payloads.into_iter().map(f64::from_bits).chain(classes) {
        check_f64(FpFormat::BINARY64, v);
        cases += 1;
    }
    for biased in 0..2048u64 {
        for _ in 0..per_exp {
            check_f64(FpFormat::BINARY64, rng.with_exp(biased));
            cases += 1;
        }
    }
    cases
}

/// `to_f64` (and `from_f64`) on formats narrower and wider than
/// binary64: binary32 and a half-precision-like format pack directly,
/// B68 and B75 keep the exact route.
fn other_format_round_trips(n: usize, seed: u64) -> usize {
    let mut rng = Rng(seed);
    let half = FpFormat::new(5, 10);
    let mut cases = 0;
    for fmt in [FpFormat::BINARY32, half, FpFormat::B68, FpFormat::B75] {
        for _ in 0..n / 2 {
            check_f64(fmt, rng.operand());
            // every exponent of the format, random fraction
            let span = (fmt.emax() - fmt.emin() + 1) as u64;
            let exp = fmt.emin() + rng.below(span) as i32;
            let frac = rng.next() & ((1u64 << fmt.frac_bits) - 1);
            let x = SoftFloat::from_parts(fmt, rng.next() & 1 == 1, exp, frac);
            assert_eq!(
                x.to_f64().to_bits(),
                reference::to_f64(&x).to_bits(),
                "to_f64 of {x:?}"
            );
            cases += 2;
        }
    }
    cases
}

/// `from_ieee` on every transport format, from its `B` format and, for
/// the double-precision formats, from binary32 as well.
fn transport_conversions(n: usize, seed: u64) -> usize {
    let mut rng = Rng(seed);
    let mut cases = 0;
    for fmt in FORMATS {
        let sources: &[FpFormat] = if b_format(&fmt) == FpFormat::BINARY64 {
            &[FpFormat::BINARY64, FpFormat::BINARY32]
        } else {
            &[FpFormat::BINARY32]
        };
        for &src in sources {
            for _ in 0..n {
                check_from_ieee(&SoftFloat::from_f64(src, rng.operand()), fmt);
                cases += 1;
            }
        }
    }
    cases
}

/// Scalar FMA chains of depth 0 to 4 on every format: each link feeds
/// the carry-save result back in as `A` or `C`, and `to_ieee` of every
/// link is checked in every mode.
fn scalar_chains(chains: usize, seed: u64) -> usize {
    let mut rng = Rng(seed);
    let mut scratch = FmaScratch::default();
    let mut cases = 0;
    for fmt in FORMATS {
        let unit = CsFmaUnit::new(fmt);
        let bf = b_format(&fmt);
        for c in 0..chains {
            let mut acc = CsOperand::from_ieee(&SoftFloat::from_f64(bf, rng.operand()), fmt);
            let mut mulc = CsOperand::from_ieee(&SoftFloat::from_f64(bf, rng.operand()), fmt);
            check_to_ieee(&acc, &format!("{} chain {c} depth 0", fmt.name));
            for depth in 1..=4 {
                let b = SoftFloat::from_f64(bf, rng.operand());
                let r = unit.fma_with(&acc, &b, &mulc, &mut scratch);
                check_to_ieee(&r, &format!("{} chain {c} depth {depth}", fmt.name));
                cases += 1;
                if rng.next() & 1 == 0 {
                    acc = r;
                } else {
                    mulc = r;
                }
            }
            cases += 1;
        }
    }
    cases
}

/// Bit-plane chains of depth 1 to 4 on every format over full 64-lane
/// chunks, writing each link over its own accumulator or multiplicand
/// (the kernel's aliasing case). Each lane must equal the scalar unit's
/// result, and `to_ieee` of every lane is checked in every mode.
fn plane_chains(chunks: usize, seed: u64) -> usize {
    const L: usize = 64;
    let mut rng = Rng(seed);
    let mut ps = PlaneScratch::default();
    let mut fs = FmaScratch::default();
    let mut cases = 0;
    for fmt in FORMATS {
        let unit = CsFmaUnit::new(fmt);
        let bf = b_format(&fmt);
        for chunk in 0..chunks {
            let mut bank: Vec<CsOperand> = (0..2 * L)
                .map(|_| CsOperand::from_ieee(&SoftFloat::from_f64(bf, rng.operand()), fmt))
                .collect();
            for depth in 1..=4 {
                let b: Vec<SoftFloat> = (0..L)
                    .map(|_| SoftFloat::from_f64(bf, rng.operand()))
                    .collect();
                let want: Vec<CsOperand> = (0..L)
                    .map(|k| unit.fma_with(&bank[k], &b[k], &bank[L + k], &mut fs))
                    .collect();
                let dst = if depth % 2 == 1 { 0 } else { L };
                plane_fma_chunk(&unit, &mut bank, 0, L, dst, &b, L, &mut ps);
                for (k, w) in want.iter().enumerate() {
                    let got = &bank[dst + k];
                    let what = format!("{} plane chunk {chunk} depth {depth} lane {k}", fmt.name);
                    assert_eq!(got.class(), w.class(), "{what}: class");
                    assert_eq!(got.sign_hint(), w.sign_hint(), "{what}: sign hint");
                    assert_eq!(got.pack(), w.pack(), "{what}: transport word");
                    check_to_ieee(got, &what);
                    cases += 1;
                }
            }
        }
    }
    cases
}

/// `a + b * c` on the FCS unit, scalar.
fn fma(a: f64, b: f64, c: f64) -> CsOperand {
    let fmt = CsFmaFormat::FCS_29_LZA;
    let sf = |v: f64| SoftFloat::from_f64(FpFormat::BINARY64, v);
    CsFmaUnit::new(fmt).fma(
        &CsOperand::from_f64(a, fmt),
        &sf(b),
        &CsOperand::from_f64(c, fmt),
    )
}

/// Crafted edges, each checked in every mode; the expected RNE result
/// is pinned too, so each edge is known to be reached.
#[test]
fn crafted_edges_match_in_every_mode() {
    let p = |e: i32| 2f64.powi(e);
    let rne = |op: &CsOperand| op.to_ieee(FpFormat::BINARY64, Round::NearestEven).to_f64();
    let edges: [(&str, CsOperand, f64); 14] = [
        // 1 + 2^-53 is a tie with an even neighbour below
        ("tie to even, down", fma(1.0, p(-53), 1.0), 1.0),
        // (1 + 2^-52) + 2^-53 is a tie with an odd neighbour below
        (
            "tie to even, up",
            fma(1.0 + p(-52), p(-53), 1.0),
            1.0 + p(-51),
        ),
        ("negative tie, down", fma(-1.0, p(-53), -1.0), -1.0),
        // a tie broken by a sticky bit 80 places down, in the lowest limb
        (
            "tie broken by a low sticky bit",
            fma(1.0, p(-53), 1.0 + p(-27)),
            1.0 + p(-52),
        ),
        // the all-ones significand plus half an ulp: a new binade
        (
            "round-up into the next binade",
            fma(1.9999999999999998, p(-53), 1.0),
            2.0,
        ),
        // f64::MAX plus half an ulp ties away to infinity under RNE
        (
            "overflow edge, tie",
            fma(f64::MAX, p(970), 1.0),
            f64::INFINITY,
        ),
        ("overflow edge, below", fma(f64::MAX, p(969), 1.0), f64::MAX),
        (
            "overflow far out",
            fma(-f64::MAX, f64::MAX, -2.0),
            f64::NEG_INFINITY,
        ),
        // 2^-1022 exactly stays normal; 2^-1023 flushes
        (
            "emin, exact",
            fma(0.0, f64::MIN_POSITIVE, 1.0),
            f64::MIN_POSITIVE,
        ),
        ("below emin", fma(0.0, f64::MIN_POSITIVE, -0.5), -0.0),
        // 2^-1023 * (2 - 2^-53) is a tie that RNE rounds up onto emin
        (
            "tie rounds up onto emin",
            fma(f64::MIN_POSITIVE, f64::MIN_POSITIVE, -p(-54)),
            f64::MIN_POSITIVE,
        ),
        // 2^-1023 * (2 - 2^-52) is exact one binade below emin
        (
            "stays below emin",
            fma(f64::MIN_POSITIVE, f64::MIN_POSITIVE, -p(-53)),
            0.0,
        ),
        ("exact cancellation", fma(-0.3, 1.0, 0.3), 0.0),
        ("exact cancellation, negative", fma(-0.75, 0.5, 1.5), 0.0),
    ];
    for (what, op, want) in &edges {
        check_to_ieee(op, what);
        assert_eq!(
            rne(op).to_bits(),
            want.to_bits(),
            "{what}: pinned RNE result"
        );
    }

    // a single sticky bit swept across every position below the guard:
    // `1 + 2^-k` and `1 + 2^-53 + 2^-k` in every mode, on every format
    let sf = |v: f64| SoftFloat::from_f64(FpFormat::BINARY64, v);
    for fmt in FORMATS.into_iter().filter(|f| f.b_sig_bits == 53) {
        let unit = CsFmaUnit::new(fmt);
        for k in 54..=160 {
            for (a, bias) in [(1.0, 0.0), (-1.0, 0.0), (1.0, p(-53)), (1.5, -p(-53))] {
                let a = CsOperand::from_f64(a, fmt);
                let mid = unit.fma(&a, &sf(1.0), &CsOperand::from_f64(bias, fmt));
                let r = unit.fma(
                    &mid,
                    &sf(p(-k / 2)),
                    &CsOperand::from_f64(p(k / 2 - k), fmt),
                );
                check_to_ieee(&r, &format!("{} sticky at 2^-{k}", fmt.name));
            }
        }
    }
}

/// A rounding block whose two words sum past its width carries into the
/// mantissa; the random FCS chains must reach that case.
#[test]
fn rounding_block_carries_into_the_mantissa() {
    let fmt = CsFmaFormat::FCS_29_LZA;
    let unit = CsFmaUnit::new(fmt);
    let mut rng = Rng(29);
    let mut scratch = FmaScratch::default();
    let mut carried = 0;
    for _ in 0..400 {
        let mut acc = CsOperand::from_f64(rng.operand(), fmt);
        let c = CsOperand::from_f64(rng.operand(), fmt);
        for _ in 0..3 {
            let b = SoftFloat::from_f64(FpFormat::BINARY64, rng.operand());
            acc = unit.fma_with(&acc, &b, &c, &mut scratch);
            if acc.class() == FpClass::Normal && acc.round().resolve_extended().bit(fmt.block_bits)
            {
                carried += 1;
                check_to_ieee(&acc, "rounding block carry");
            }
        }
    }
    assert!(carried > 0, "no rounding block carried into the mantissa");
}

/// The checks of one run, sized by `scale` (1 is tier-1's 20,000
/// cases).
fn run(scale: usize, seed: u64) -> usize {
    binary64_round_trips(4 * scale, seed)
        + other_format_round_trips(1000 * scale, seed ^ 1)
        + transport_conversions(300 * scale, seed ^ 2)
        + scalar_chains(120 * scale, seed ^ 3)
        + plane_chains(3 * scale, seed ^ 4)
}

#[test]
fn conversions_match_the_exact_routes() {
    let cases = run(1, 0xc0de_2023);
    assert!(cases >= 20_000, "only {cases} cases");
}

#[test]
#[ignore = "10^6 cases: ci.sh runs it in release with --include-ignored"]
fn a_million_conversions_match_the_exact_routes() {
    let cases = run(50, 0x5eed_0064);
    assert!(cases >= 1_000_000, "only {cases} cases");
}
