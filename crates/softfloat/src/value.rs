//! The [`SoftFloat`] value type: a number in a specific [`FpFormat`]
//! together with its FloPoCo-style exception class.

use crate::exact::{ExactFloat, RoundedParts};
use crate::format::{FpClass, FpFormat, Round};
use csfma_bits::Bits;

/// A floating-point value in a parametric format, with the exception class
/// carried beside the number (two-wire signalling, Sec. III-B).
///
/// ```
/// use csfma_softfloat::{FpFormat, SoftFloat};
/// let a = SoftFloat::from_f64(FpFormat::BINARY64, 0.1);
/// let b = SoftFloat::from_f64(FpFormat::BINARY64, 0.2);
/// // correctly rounded, matching host IEEE 754 hardware
/// assert_eq!(a.add(&b).to_f64(), 0.1 + 0.2);
/// // a true fused multiply-add rounds once
/// let c = SoftFloat::from_f64(FpFormat::BINARY64, -0.02);
/// assert_eq!(a.fma(&b, &c).to_f64(), 0.1f64.mul_add(0.2, -0.02));
/// ```
///
/// Invariants for `class == Normal`:
/// * `emin <= exp <= emax` for the format,
/// * `frac < 2^frac_bits` (the implied leading one is not stored).
///
/// For other classes `exp` and `frac` are zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SoftFloat {
    format: FpFormat,
    class: FpClass,
    sign: bool,
    exp: i32,
    frac: u64,
}

impl SoftFloat {
    /// Signed zero.
    pub fn zero(format: FpFormat, sign: bool) -> Self {
        SoftFloat {
            format,
            class: FpClass::Zero,
            sign,
            exp: 0,
            frac: 0,
        }
    }

    /// Signed infinity.
    pub fn inf(format: FpFormat, sign: bool) -> Self {
        SoftFloat {
            format,
            class: FpClass::Inf,
            sign,
            exp: 0,
            frac: 0,
        }
    }

    /// Canonical NaN.
    pub fn nan(format: FpFormat) -> Self {
        SoftFloat {
            format,
            class: FpClass::Nan,
            sign: false,
            exp: 0,
            frac: 0,
        }
    }

    /// The value 1.0.
    pub fn one(format: FpFormat) -> Self {
        SoftFloat {
            format,
            class: FpClass::Normal,
            sign: false,
            exp: 0,
            frac: 0,
        }
    }

    /// Construct a normal number from parts.
    ///
    /// # Panics
    /// If `exp` or `frac` are outside the format's range.
    pub fn from_parts(format: FpFormat, sign: bool, exp: i32, frac: u64) -> Self {
        assert!(
            exp >= format.emin() && exp <= format.emax(),
            "exponent out of range"
        );
        assert!(
            frac < (1u64 << format.frac_bits),
            "fraction wider than format"
        );
        SoftFloat {
            format,
            class: FpClass::Normal,
            sign,
            exp,
            frac,
        }
    }

    /// Construct from the result of rounding an exact value.
    pub fn from_rounded(format: FpFormat, r: RoundedParts) -> Self {
        match r.class {
            FpClass::Zero => SoftFloat::zero(format, r.sign),
            FpClass::Inf => SoftFloat::inf(format, r.sign),
            FpClass::Nan => SoftFloat::nan(format),
            FpClass::Normal => SoftFloat::from_parts(format, r.sign, r.exp, r.frac),
        }
    }

    /// Convert a host `f64` into this format (round to nearest even).
    /// Subnormal `f64` inputs flush to zero; NaN/Inf map to their classes.
    /// Into [`FpFormat::BINARY64`] a normal is its own sign, unbiased
    /// exponent and fraction fields, unpacked directly.
    pub fn from_f64(format: FpFormat, v: f64) -> Self {
        if v.is_nan() {
            return SoftFloat::nan(format);
        }
        if v.is_infinite() {
            return SoftFloat::inf(format, v < 0.0);
        }
        if v == 0.0 || v.is_subnormal() {
            return SoftFloat::zero(format, v.is_sign_negative());
        }
        if format == FpFormat::BINARY64 {
            let bits = v.to_bits();
            return SoftFloat {
                format,
                class: FpClass::Normal,
                sign: bits >> 63 != 0,
                exp: ((bits >> 52) & 0x7ff) as i32 - 1023,
                frac: bits & ((1u64 << 52) - 1),
            };
        }
        let e = ExactFloat::from_f64(v);
        SoftFloat::from_rounded(format, e.round(format, Round::NearestEven))
    }

    /// Convert to a host `f64` (round to nearest even; exact whenever the
    /// format fits inside binary64). A normal of a format that fits
    /// (`frac_bits <= 52`, `emin >= -1022`, `emax <= 1023`) packs
    /// directly into the binary64 fields.
    pub fn to_f64(&self) -> f64 {
        match self.class {
            FpClass::Nan => f64::NAN,
            FpClass::Inf => {
                if self.sign {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            }
            FpClass::Zero => {
                if self.sign {
                    -0.0
                } else {
                    0.0
                }
            }
            FpClass::Normal => {
                let f = self.format;
                if f.frac_bits <= 52 && f.emin() >= -1022 && f.emax() <= 1023 {
                    let biased = (self.exp + 1023) as u64;
                    let frac = self.frac << (52 - f.frac_bits);
                    f64::from_bits((self.sign as u64) << 63 | biased << 52 | frac)
                } else {
                    self.to_exact().to_f64_lossy()
                }
            }
        }
    }

    /// Exact value of a finite number.
    ///
    /// # Panics
    /// On Inf/NaN.
    pub fn to_exact(&self) -> ExactFloat {
        match self.class {
            FpClass::Zero => {
                let mut z = ExactFloat::zero();
                if self.sign {
                    z = z.neg();
                }
                z
            }
            FpClass::Normal => ExactFloat::from_u128(
                self.sign,
                self.significand() as u128,
                self.exp as i64 - self.format.frac_bits as i64,
            ),
            _ => panic!("to_exact on {:?}", self.class),
        }
    }

    /// Full significand including the implied leading one
    /// (`1.frac` scaled to an integer). Zero for class Zero.
    pub fn significand(&self) -> u64 {
        match self.class {
            FpClass::Normal => (1u64 << self.format.frac_bits) | self.frac,
            _ => 0,
        }
    }

    /// Format of this value.
    pub fn format(&self) -> FpFormat {
        self.format
    }

    /// Exception class.
    pub fn class(&self) -> FpClass {
        self.class
    }

    /// Sign bit (true = negative).
    pub fn sign(&self) -> bool {
        self.sign
    }

    /// Unbiased exponent (only meaningful for normals).
    pub fn exp(&self) -> i32 {
        self.exp
    }

    /// Stored fraction bits (below the implied one).
    pub fn frac(&self) -> u64 {
        self.frac
    }

    /// True for NaN.
    pub fn is_nan(&self) -> bool {
        self.class == FpClass::Nan
    }

    /// True for ±Inf.
    pub fn is_inf(&self) -> bool {
        self.class == FpClass::Inf
    }

    /// True for ±0.
    pub fn is_zero(&self) -> bool {
        self.class == FpClass::Zero
    }

    /// True for a finite nonzero number.
    pub fn is_normal(&self) -> bool {
        self.class == FpClass::Normal
    }

    /// Negation (sign flip; NaN unaffected).
    pub fn neg(&self) -> Self {
        let mut out = *self;
        if out.class != FpClass::Nan {
            out.sign = !out.sign;
        }
        out
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        let mut out = *self;
        if out.class != FpClass::Nan {
            out.sign = false;
        }
        out
    }

    /// One unit in the last place at this value's exponent, as an exact
    /// value (`2^(exp - frac_bits)`); meaningful for normals.
    pub fn ulp(&self) -> ExactFloat {
        assert!(self.is_normal(), "ulp of non-normal");
        ExactFloat::from_u128(false, 1, self.exp as i64 - self.format.frac_bits as i64)
    }

    /// Pack into the conventional bit layout `sign | biased exp | frac`
    /// (the class travels separately, as in FloPoCo). Used for register
    /// toggle accounting in the fabric energy model.
    pub fn encode(&self) -> Bits {
        let f = self.format;
        let total = f.total_bits() as usize;
        let mut out = Bits::zero(total);
        match self.class {
            FpClass::Normal => {
                let biased = (self.exp + f.bias()) as u64;
                out = Bits::from_u64(total, self.frac)
                    .wrapping_add(&Bits::from_u64(total, biased).shl(f.frac_bits as usize));
            }
            FpClass::Inf | FpClass::Zero | FpClass::Nan => {}
        }
        if self.sign {
            out.set_bit(total - 1, true);
        }
        out
    }

    /// Decode a value packed by [`SoftFloat::encode`] with a separate class.
    pub fn decode(format: FpFormat, class: FpClass, bits: &Bits) -> Self {
        assert_eq!(bits.width(), format.total_bits() as usize);
        let sign = bits.bit(format.total_bits() as usize - 1);
        match class {
            FpClass::Normal => {
                let frac = bits.extract(0, format.frac_bits as usize).to_u64();
                let biased = bits
                    .extract(format.frac_bits as usize, format.exp_bits as usize)
                    .to_u64();
                SoftFloat::from_parts(format, sign, biased as i32 - format.bias(), frac)
            }
            FpClass::Zero => SoftFloat::zero(format, sign),
            FpClass::Inf => SoftFloat::inf(format, sign),
            FpClass::Nan => SoftFloat::nan(format),
        }
    }
}

impl std::fmt::Display for SoftFloat {
    /// Human-readable rendering: the numeric value plus class markers for
    /// the specials (`inf`, `-inf`, `NaN`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.class {
            FpClass::Nan => write!(f, "NaN"),
            FpClass::Inf => write!(f, "{}inf", if self.sign { "-" } else { "" }),
            FpClass::Zero => write!(f, "{}0.0", if self.sign { "-" } else { "" }),
            FpClass::Normal => write!(f, "{}", self.to_f64()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip_binary64() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            std::f64::consts::PI,
            1e-300,
            1e300,
            f64::INFINITY,
        ] {
            let s = SoftFloat::from_f64(FpFormat::BINARY64, v);
            assert_eq!(s.to_f64().to_bits(), v.to_bits(), "roundtrip of {v}");
        }
        assert!(SoftFloat::from_f64(FpFormat::BINARY64, f64::NAN)
            .to_f64()
            .is_nan());
    }

    #[test]
    fn subnormal_input_flushes() {
        let s = SoftFloat::from_f64(FpFormat::BINARY64, 5e-324);
        assert!(s.is_zero());
    }

    #[test]
    fn significand_has_implied_one() {
        let s = SoftFloat::from_f64(FpFormat::BINARY64, 1.5);
        assert_eq!(s.significand(), (1u64 << 52) | (1u64 << 51));
        assert_eq!(s.exp(), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        for v in [1.0, -2.75, 6.02e23, -1e-200] {
            let s = SoftFloat::from_f64(FpFormat::BINARY64, v);
            let d = SoftFloat::decode(FpFormat::BINARY64, s.class(), &s.encode());
            assert_eq!(d, s);
        }
    }

    #[test]
    fn encode_matches_ieee754_for_binary64() {
        // Our packing must agree with the native IEEE 754 binary64 layout.
        for v in [1.0f64, -2.5, 0.1, 1e308, -4e-300] {
            let s = SoftFloat::from_f64(FpFormat::BINARY64, v);
            assert_eq!(s.encode().to_u64(), v.to_bits());
        }
    }

    #[test]
    fn widened_format_roundtrips_doubles_exactly() {
        // every binary64 value is exactly representable in B68/B75
        for v in [0.1, 2.0 / 3.0, -1.0e-17] {
            for fmt in [FpFormat::B68, FpFormat::B75] {
                let s = SoftFloat::from_f64(fmt, v);
                assert_eq!(s.to_f64(), v);
            }
        }
    }

    #[test]
    fn display_renders() {
        assert_eq!(
            format!("{}", SoftFloat::from_f64(FpFormat::BINARY64, 1.5)),
            "1.5"
        );
        assert_eq!(
            format!("{}", SoftFloat::inf(FpFormat::BINARY64, true)),
            "-inf"
        );
        assert_eq!(format!("{}", SoftFloat::nan(FpFormat::BINARY64)), "NaN");
        assert_eq!(
            format!("{}", SoftFloat::zero(FpFormat::BINARY64, true)),
            "-0.0"
        );
    }

    #[test]
    fn neg_abs() {
        let s = SoftFloat::from_f64(FpFormat::BINARY64, -2.0);
        assert_eq!(s.neg().to_f64(), 2.0);
        assert_eq!(s.abs().to_f64(), 2.0);
        assert!(SoftFloat::nan(FpFormat::BINARY64).neg().is_nan());
    }
}
