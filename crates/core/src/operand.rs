//! Operands of the carry-save FMA units (Figs. 8 / 9 / 11).
//!
//! A [`CsOperand`] is what travels between chained FMA operators on the
//! critical path: an *unrounded*, *non-normalized* two's-complement
//! mantissa in (partial) carry-save form, one block of rounding data, and
//! a 12-bit excess-2047 exponent, with the exception class on separate
//! wires. For the PCS format this packs into the paper's 192-bit word.
//!
//! ## Value semantics
//!
//! For a finite operand:
//!
//! ```text
//! value = ( sext(mant.sum) + sext(mant.carry)
//!           + (round.sum + round.carry) / 2^block_bits )
//!         * 2^(exp - frac_bits)
//! ```
//!
//! i.e. the mantissa is the *signed sum of its two words* — exactly how
//! the datapath consumes it (the multiplier and the aligner sign-extend
//! each word separately) — and the rounding block is an unsigned fraction
//! one block below it. `frac_bits = mant_bits - 3` anchors a converted
//! IEEE significand three positions below the mantissa MSB (sign + guard +
//! integer bit, Sec. III-D).

use crate::format::CsFmaFormat;
use csfma_bits::Bits;
use csfma_carrysave::CsNumber;
use csfma_softfloat::{ExactFloat, FpClass, FpFormat, Round, SoftFloat};
use csfma_units::exponent::BiasedExp;

/// A number in a carry-save FMA transport format.
#[derive(Clone, Debug)]
pub struct CsOperand {
    format: CsFmaFormat,
    class: FpClass,
    sign_hint: bool,
    mant: CsNumber,
    round: CsNumber,
    exp: BiasedExp,
}

impl CsOperand {
    /// Exact zero (class wire `Zero`, empty mantissa).
    pub fn zero(format: CsFmaFormat, sign: bool) -> Self {
        CsOperand {
            format,
            class: FpClass::Zero,
            sign_hint: sign,
            mant: CsNumber::zero(format.mant_bits()),
            round: CsNumber::zero(format.block_bits),
            exp: BiasedExp::from_unbiased(0),
        }
    }

    /// Signed infinity (class wire only).
    pub fn inf(format: CsFmaFormat, sign: bool) -> Self {
        let mut v = Self::zero(format, sign);
        v.class = FpClass::Inf;
        v
    }

    /// NaN (class wire only).
    pub fn nan(format: CsFmaFormat) -> Self {
        let mut v = Self::zero(format, false);
        v.class = FpClass::Nan;
        v
    }

    /// Assemble from raw parts (used by the FMA unit's output stage).
    pub(crate) fn from_raw(
        format: CsFmaFormat,
        class: FpClass,
        sign_hint: bool,
        mant: CsNumber,
        round: CsNumber,
        exp: BiasedExp,
    ) -> Self {
        debug_assert_eq!(mant.width(), format.mant_bits());
        debug_assert_eq!(round.width(), format.block_bits);
        CsOperand {
            format,
            class,
            sign_hint,
            mant,
            round,
            exp,
        }
    }

    /// Convert an IEEE-style [`SoftFloat`] into the transport format —
    /// the `IEEE 754 → CS` conversion box the HLS pass inserts (Fig. 12):
    /// a zero operand followed by [`assign_ieee`](Self::assign_ieee).
    pub fn from_ieee(value: &SoftFloat, format: CsFmaFormat) -> Self {
        let mut op = CsOperand::zero(format, false);
        op.assign_ieee(value, &format);
        op
    }

    /// Convenience: convert a host double straight into the transport
    /// format (binary64 on the `B`-side semantics).
    pub fn from_f64(value: f64, format: CsFmaFormat) -> Self {
        Self::from_ieee(&SoftFloat::from_f64(FpFormat::BINARY64, value), format)
    }

    /// Overwrite this operand in place with `value` converted into
    /// `format` — the one implementation of the `IEEE 754 → CS` box.
    /// Every field is written, so the result equals a freshly built
    /// operand whatever the slot held before; a slot of another width
    /// is rebuilt first.
    ///
    /// The significand (with its implied one) lands with its integer bit
    /// at `frac_bits`; negative numbers are two's-complemented. This is
    /// pure wiring plus one optional negation — the cheap direction.
    pub fn assign_ieee(&mut self, value: &SoftFloat, format: &CsFmaFormat) {
        self.fit(format);
        let class = value.class();
        self.class = class;
        self.sign_hint = class != FpClass::Nan && value.sign();
        self.round.assign_limbs(&[], &[]);
        if class != FpClass::Normal {
            self.mant.assign_limbs(&[], &[]);
            self.exp = BiasedExp::from_unbiased(0);
            return;
        }
        let m = format.mant_bits();
        let shift = format.frac_bits() - value.format().frac_bits as usize;
        if m <= 128 {
            // the significand's integer bit lands at frac_bits < 128
            let sig = (value.significand() as u128) << shift;
            let sig = if value.sign() {
                sig.wrapping_neg()
            } else {
                sig
            };
            self.mant
                .assign_limbs(&[sig as u64, (sig >> 64) as u64], &[]);
        } else {
            let sig = Bits::from_u64(m, value.significand()).shl(shift);
            let sig = if value.sign() {
                sig.wrapping_neg()
            } else {
                sig
            };
            self.mant.assign_limbs(sig.limbs(), &[]);
        }
        self.exp = BiasedExp::from_unbiased(value.exp());
    }

    /// Overwrite this operand in place with a normal result of `format`:
    /// the mantissa and rounding words as little-endian limbs, the sign
    /// hint and the exponent — what the plane kernel's writeback would
    /// otherwise assemble into a fresh operand. Every field is written;
    /// a slot of another width is rebuilt first.
    pub(crate) fn assign_normal(
        &mut self,
        format: &CsFmaFormat,
        sign_hint: bool,
        mant: [&[u64]; 2],
        round: [&[u64]; 2],
        exp: BiasedExp,
    ) {
        self.fit(format);
        self.class = FpClass::Normal;
        self.sign_hint = sign_hint;
        self.mant.assign_limbs(mant[0], mant[1]);
        self.round.assign_limbs(round[0], round[1]);
        self.exp = exp;
    }

    /// Give this slot `format`, rebuilding its words when their widths
    /// differ (a recycled slot of another format): two width compares,
    /// and a plain copy of the format.
    #[inline]
    fn fit(&mut self, format: &CsFmaFormat) {
        if self.mant.width() != format.mant_bits() || self.round.width() != format.block_bits {
            *self = CsOperand::zero(*format, false);
        }
        self.format = *format;
    }

    /// Convert back to an IEEE-style format — the `CS → IEEE 754` box:
    /// resolve the carries, detect the sign, normalize at single-bit
    /// granularity and round. This is the expensive direction the fusion
    /// pass tries to keep off the critical path.
    ///
    /// Into binary64 the box works on three 64-bit limbs (see
    /// `to_binary64`); other targets round the [`exact_value`](Self::exact_value).
    /// An exact zero gives `+0` either way.
    pub fn to_ieee(&self, target: FpFormat, mode: Round) -> SoftFloat {
        match self.class {
            FpClass::Zero => SoftFloat::zero(target, self.sign_hint),
            FpClass::Inf => SoftFloat::inf(target, self.sign_hint),
            FpClass::Nan => SoftFloat::nan(target),
            FpClass::Normal
                if target == FpFormat::BINARY64
                    && self.mant.width() + self.format.block_bits + 2 <= 64 * 3 =>
            {
                self.to_binary64(mode)
            }
            FpClass::Normal => {
                let e = self.exact_value();
                if e.is_zero() {
                    return SoftFloat::zero(target, false);
                }
                SoftFloat::from_rounded(target, e.round(target, mode))
            }
        }
    }

    /// `to_ieee` of a normal operand into binary64, on three 64-bit
    /// limbs: the signed two-word mantissa sum, one block up, plus the
    /// unsigned rounding block is the exact value at `2^scale`; its
    /// magnitude is rounded at its leading one with guard and sticky.
    /// Overflow goes to infinity or the largest finite value per `mode`,
    /// and a result below `emin` flushes to signed zero.
    fn to_binary64(&self, mode: Round) -> SoftFloat {
        const F: FpFormat = FpFormat::BINARY64;
        let bb = self.format.block_bits;
        let mant = add3(sext3(self.mant.sum()), sext3(self.mant.carry()));
        let rnd = add3(limbs3(self.round.sum()), limbs3(self.round.carry()));
        let total = add3(shl3(mant, bb), rnd);
        let sign = total[2] >> 63 != 0;
        let mag = if sign { neg3(total) } else { total };
        let Some(lead) = leading_one3(&mag) else {
            return SoftFloat::zero(F, false);
        };
        let scale = self.exp.unbiased() as i64 - self.format.frac_bits() as i64 - bb as i64;
        let mut exp = lead as i64 + scale;
        let (mut sig, guard, sticky) = if lead <= 52 {
            (mag[0] << (52 - lead), false, false)
        } else {
            let drop = lead - 52;
            let guard = (mag[(drop - 1) / 64] >> ((drop - 1) % 64)) & 1 != 0;
            (shr3(mag, drop)[0], guard, any_below3(&mag, drop - 1))
        };
        if round_up(mode, sign, sig & 1 != 0, guard, sticky) {
            sig += 1;
            if sig >> 53 != 0 {
                sig >>= 1;
                exp += 1;
            }
        }
        if exp > F.emax() as i64 {
            let to_inf = match mode {
                Round::NearestEven | Round::HalfAwayFromZero => true,
                Round::TowardZero => false,
                Round::TowardPosInf => !sign,
                Round::TowardNegInf => sign,
            };
            return if to_inf {
                SoftFloat::inf(F, sign)
            } else {
                SoftFloat::from_parts(F, sign, F.emax(), (1u64 << 52) - 1)
            };
        }
        if exp < F.emin() as i64 {
            return SoftFloat::zero(F, sign);
        }
        SoftFloat::from_parts(F, sign, exp as i32, sig & ((1u64 << 52) - 1))
    }

    /// The exact real value this operand denotes (mantissa and rounding
    /// block resolved jointly, so no inter-slice carry is lost).
    ///
    /// # Panics
    /// On Inf/NaN.
    pub fn exact_value(&self) -> ExactFloat {
        match self.class {
            FpClass::Zero => {
                let z = ExactFloat::zero();
                if self.sign_hint {
                    z.neg()
                } else {
                    z
                }
            }
            FpClass::Normal => {
                let bb = self.format.block_bits;
                let w = self.mant.width() + bb + 2;
                // signed two-word sum of the mantissa, unsigned fragment below
                let mant_val = self.mant.resolve_signed_extended().sext(w).shl(bb);
                let round_val = self.round.resolve_extended().zext(w);
                let total = mant_val.wrapping_add(&round_val);
                let sign = total.sign_bit();
                let mag = if sign {
                    total.wrapping_neg().zext(w + 1)
                } else {
                    total.zext(w + 1)
                };
                let scale = self.exp.unbiased() as i64 - self.format.frac_bits() as i64 - bb as i64;
                ExactFloat::from_parts(sign, mag, scale)
            }
            _ => panic!("exact_value on {:?}", self.class),
        }
    }

    /// Transport format of this operand.
    pub fn format(&self) -> &CsFmaFormat {
        &self.format
    }

    /// Exception class (separate wires, FloPoCo-style).
    pub fn class(&self) -> FpClass {
        self.class
    }

    /// Mantissa (two's complement CS, `mant_bits` wide).
    pub fn mant(&self) -> &CsNumber {
        &self.mant
    }

    /// Rounding-data block (`block_bits` wide).
    pub fn round(&self) -> &CsNumber {
        &self.round
    }

    /// 12-bit excess-2047 exponent.
    pub fn exp(&self) -> BiasedExp {
        self.exp
    }

    /// Sign hint used for the zero/inf classes (the numeric sign of a
    /// normal operand lives in the two's-complement mantissa).
    pub fn sign_hint(&self) -> bool {
        self.sign_hint
    }

    /// Fault-injection support: flip one raw bit of the mantissa **sum**
    /// word (position taken modulo the width), modeling a register-plane
    /// upset in a stored carry-save operand. The exception class is left
    /// alone — a flip under a `Zero`/`Inf` class flag is architecturally
    /// masked, exactly as in a real register file with separate
    /// exception wires.
    pub fn fault_flip_mant_bit(&mut self, pos: usize) {
        let w = self.mant.width();
        if w == 0 {
            return;
        }
        let p = pos % w;
        let mut sum = self.mant.sum().clone();
        sum.set_bit(p, !sum.bit(p));
        self.mant = CsNumber::new(sum, self.mant.carry().clone());
    }

    /// Check the PCS carry-sparsity invariant: for `carry_spacing =
    /// Some(k)`, explicit carries may only sit at positions ≡ 0 (mod k)
    /// of the mantissa and rounding words.
    pub fn spacing_holds(&self) -> bool {
        let Some(k) = self.format.carry_spacing else {
            return true;
        };
        let check = |w: &CsNumber| (0..w.width()).all(|p| !w.carry().bit(p) || p % k == 0);
        check(&self.mant) && check(&self.round)
    }

    /// Pack into the transport word (mantissa sum, sparse carry bits,
    /// rounding sum, sparse rounding carries, 12-bit exponent) — the
    /// register image used for switching-activity accounting. Width is
    /// [`CsFmaFormat::operand_bits`] (192 for PCS).
    pub fn pack(&self) -> Bits {
        let gather = |word: &CsNumber, step: usize| -> Bits {
            let n = word.width() / step;
            let mut out = Bits::zero(n.max(1));
            for i in 0..n {
                if word.carry().bit(i * step) {
                    out.set_bit(i, true);
                }
            }
            out
        };
        let step = self.format.carry_spacing.unwrap_or(1);
        let exp = Bits::from_u64(12, self.exp.field() as u64);
        let mut packed = self.mant.sum().clone();
        packed = packed.concat(&gather(&self.mant, step));
        packed = packed.concat(self.round.sum());
        packed = packed.concat(&gather(&self.round, step));
        packed = packed.concat(&exp);
        packed
    }
}

/// Whether `mode` increments a significand with the given sign, least
/// significant kept bit, guard bit and sticky bit: one 16-entry truth
/// table per mode, indexed by `sign | lsb | guard | sticky`.
fn round_up(mode: Round, sign: bool, lsb: bool, guard: bool, sticky: bool) -> bool {
    const fn table(mode: Round) -> u16 {
        let mut t = 0u16;
        let mut i = 0;
        while i < 16 {
            let (sign, lsb, guard, sticky) = (i & 8 != 0, i & 4 != 0, i & 2 != 0, i & 1 != 0);
            let up = match mode {
                Round::NearestEven => guard && (sticky || lsb),
                Round::HalfAwayFromZero => guard,
                Round::TowardZero => false,
                Round::TowardPosInf => (guard || sticky) && !sign,
                Round::TowardNegInf => (guard || sticky) && sign,
            };
            t |= (up as u16) << i;
            i += 1;
        }
        t
    }
    let t = match mode {
        Round::NearestEven => const { table(Round::NearestEven) },
        Round::HalfAwayFromZero => const { table(Round::HalfAwayFromZero) },
        Round::TowardZero => const { table(Round::TowardZero) },
        Round::TowardPosInf => const { table(Round::TowardPosInf) },
        Round::TowardNegInf => const { table(Round::TowardNegInf) },
    };
    let i = (sign as u32) << 3 | (lsb as u32) << 2 | (guard as u32) << 1 | sticky as u32;
    (t >> i) & 1 != 0
}

/// A value of at most three limbs, zero-extended to exactly three.
fn limbs3(b: &Bits) -> [u64; 3] {
    let mut x = [0u64; 3];
    x[..b.limbs().len()].copy_from_slice(b.limbs());
    x
}

/// A two's-complement value of at most three limbs, sign-extended from
/// its width to 192 bits.
fn sext3(b: &Bits) -> [u64; 3] {
    let mut x = limbs3(b);
    if b.sign_bit() {
        let w = b.width();
        for (i, l) in x.iter_mut().enumerate() {
            if w <= 64 * i {
                *l = !0;
            } else if w < 64 * (i + 1) {
                *l |= !0u64 << (w - 64 * i);
            }
        }
    }
    x
}

/// 192-bit wrapping sum.
fn add3(a: [u64; 3], b: [u64; 3]) -> [u64; 3] {
    let mut out = [0u64; 3];
    let mut carry = false;
    for i in 0..3 {
        let (s, c1) = a[i].overflowing_add(b[i]);
        let (s, c2) = s.overflowing_add(carry as u64);
        out[i] = s;
        carry = c1 | c2;
    }
    out
}

/// 192-bit two's-complement negation.
fn neg3(x: [u64; 3]) -> [u64; 3] {
    add3([!x[0], !x[1], !x[2]], [1, 0, 0])
}

/// 192-bit left shift by `n < 192`.
fn shl3(x: [u64; 3], n: usize) -> [u64; 3] {
    let (q, r) = (n / 64, n % 64);
    let mut out = [0u64; 3];
    for i in q..3 {
        out[i] = x[i - q] << r;
        if r > 0 && i > q {
            out[i] |= x[i - q - 1] >> (64 - r);
        }
    }
    out
}

/// 192-bit logical right shift by `n < 192`.
fn shr3(x: [u64; 3], n: usize) -> [u64; 3] {
    let (q, r) = (n / 64, n % 64);
    let mut out = [0u64; 3];
    for i in 0..3 - q {
        out[i] = x[i + q] >> r;
        if r > 0 && i + q + 1 < 3 {
            out[i] |= x[i + q + 1] << (64 - r);
        }
    }
    out
}

/// Position of the leading one, `None` for zero.
fn leading_one3(x: &[u64; 3]) -> Option<usize> {
    (0..3)
        .rev()
        .find(|&i| x[i] != 0)
        .map(|i| 64 * i + 63 - x[i].leading_zeros() as usize)
}

/// Whether any of bits `0..n` is set: one mask per limb.
fn any_below3(x: &[u64; 3], n: usize) -> bool {
    let mut any = 0u64;
    for (i, &l) in x.iter().enumerate() {
        let lo = 64 * i;
        if n >= lo + 64 {
            any |= l;
        } else if n > lo {
            any |= l & ((1u64 << (n - lo)) - 1);
        }
    }
    any != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: CsFmaFormat = CsFmaFormat::PCS_55_ZD;

    #[test]
    fn ieee_roundtrip_exact() {
        for v in [1.0, -2.5, 0.1, 6.02e23, -3.3e-200, 1.0 / 3.0] {
            let sf = SoftFloat::from_f64(FpFormat::BINARY64, v);
            let op = CsOperand::from_ieee(&sf, F);
            assert!(op.spacing_holds());
            let back = op.to_ieee(FpFormat::BINARY64, Round::NearestEven);
            assert_eq!(back.to_f64(), v, "roundtrip of {v}");
        }
    }

    #[test]
    fn roundtrip_all_formats() {
        for f in [
            CsFmaFormat::PCS_55_ZD,
            CsFmaFormat::PCS_58_LZA,
            CsFmaFormat::FCS_29_LZA,
        ] {
            let sf = SoftFloat::from_f64(FpFormat::BINARY64, -std::f64::consts::FRAC_PI_4);
            let op = CsOperand::from_ieee(&sf, f);
            assert_eq!(
                op.to_ieee(FpFormat::BINARY64, Round::NearestEven).to_f64(),
                sf.to_f64()
            );
        }
    }

    #[test]
    fn specials_travel_on_class_wires() {
        let nan = CsOperand::from_ieee(&SoftFloat::nan(FpFormat::BINARY64), F);
        assert!(nan.to_ieee(FpFormat::BINARY64, Round::NearestEven).is_nan());
        let inf = CsOperand::from_ieee(&SoftFloat::inf(FpFormat::BINARY64, true), F);
        let b = inf.to_ieee(FpFormat::BINARY64, Round::NearestEven);
        assert!(b.is_inf() && b.sign());
        let z = CsOperand::from_ieee(&SoftFloat::zero(FpFormat::BINARY64, true), F);
        assert!(z.to_ieee(FpFormat::BINARY64, Round::NearestEven).is_zero());
    }

    #[test]
    fn exact_value_matches_ieee() {
        let sf = SoftFloat::from_f64(FpFormat::BINARY64, 2.75);
        let op = CsOperand::from_ieee(&sf, F);
        assert!(op.exact_value().sub(&sf.to_exact()).is_zero());
        let neg = CsOperand::from_ieee(&sf.neg(), F);
        assert!(neg.exact_value().sub(&sf.to_exact().neg()).is_zero());
    }

    #[test]
    fn pack_width_is_192_for_pcs() {
        let op = CsOperand::from_ieee(&SoftFloat::one(FpFormat::BINARY64), F);
        assert_eq!(op.pack().width(), 192);
    }

    #[test]
    fn wide_exponent_survives_transport() {
        // an intermediate exponent beyond IEEE 754's range stays exact in
        // the operand and only clamps at the final conversion
        let op = CsOperand::from_raw(
            F,
            FpClass::Normal,
            false,
            CsNumber::from_binary(Bits::one_hot(110, 107)),
            CsNumber::zero(55),
            BiasedExp::from_unbiased(1500),
        );
        let back = op.to_ieee(FpFormat::BINARY64, Round::NearestEven);
        assert!(back.is_inf()); // clamped only here
        let e = op.exact_value();
        assert_eq!(e.msb_exp(), 1500); // exact inside the chain
    }
}
