//! Block-granular rounding decision (Secs. III-C / III-E).
//!
//! Between chained FMA operators the mantissa travels *unrounded*; the
//! consumer decides "round half away from zero" by examining only the
//! single rounding-data block attached to the operand. Because that block
//! is in carry-save form and the blocks below it were discarded, the
//! decision is inexact in two bounded ways the paper accepts:
//!
//! * a carry that would ripple through the entire block from discarded
//!   lower data is lost — the largest value erroneously rounded *down*
//!   differs from one half by less than `2^-53` for the 55-bit block
//!   (the paper quotes 0.50000000000000083 decimal);
//! * an exact tie cannot be distinguished from "just above half", so
//!   negative ties round toward zero instead of away (IEEE half-away
//!   would need the discarded sticky information).

use csfma_carrysave::CsNumber;

/// Decide whether the mantissa should be incremented by one ULP, from its
/// rounding-data block alone.
///
/// Hardware view: the block's sum and carry words are added by the short
/// segment adders (constant time); the mantissa rounds up iff the resolved
/// block value is at least half an ULP (`>= 2^(b-1)`), including the case
/// where the CS digits overflow the block (value `>= 2^b`).
///
/// Evaluated as one carry-propagating add over the words' limbs: the
/// limbs below the top one contribute only their carry, and bits `b - 1`
/// and `b` of the `(b + 1)`-bit sum are read off the top limb's 65-bit
/// sum.
pub fn round_up_from_block(round_data: &CsNumber) -> bool {
    let b = round_data.width();
    if b == 0 {
        return false;
    }
    let (s, c) = (round_data.sum().limbs(), round_data.carry().limbs());
    let top = (b - 1) / 64;
    let mut carry = false;
    for i in 0..top {
        let (v, c1) = s[i].overflowing_add(c[i]);
        let (_, c2) = v.overflowing_add(carry as u64);
        carry = c1 | c2;
    }
    let v = s[top] as u128 + c[top] as u128 + carry as u128;
    (v >> ((b - 1) % 64)) & 0b11 != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use csfma_bits::Bits;
    use proptest::prelude::*;

    fn cs(w: usize, s: u64, c: u64) -> CsNumber {
        CsNumber::new(Bits::from_u64(w, s), Bits::from_u64(w, c))
    }

    #[test]
    fn plain_half_rounds_up() {
        assert!(round_up_from_block(&cs(8, 0x80, 0)));
        assert!(!round_up_from_block(&cs(8, 0x7f, 0)));
    }

    #[test]
    fn cs_overflow_still_rounds_up() {
        // digits 2 0 ... : value 2^b, ULP-and-a-bit — must round up even
        // though neither word alone has its MSB pattern look like half
        let block = cs(8, 0x80, 0x80);
        assert!(round_up_from_block(&block));
    }

    #[test]
    fn redundant_half_detected() {
        // 0.5 represented as 0.0200cs (Sec. III-E): sum 0b0100000,
        // carry 0b0100000 at the next lower digit — resolved = 0x80
        assert!(round_up_from_block(&cs(8, 0x40, 0x40)));
    }

    #[test]
    fn misrounding_case_documented() {
        // A value just over one half whose excess lived in the *discarded*
        // lower blocks: this block alone reads exactly half-minus-epsilon
        // and rounds down. This is the accepted inaccuracy of Sec. III-E.
        let just_under_half_in_block = cs(8, 0x7f, 0);
        assert!(!round_up_from_block(&just_under_half_in_block));
    }

    proptest! {
        #[test]
        fn prop_matches_resolved_threshold(w in 1usize..24, s: u64, c: u64) {
            let m = if w >= 64 { !0u64 } else { (1u64 << w) - 1 };
            let block = cs(w, s & m, c & m);
            let v = (s & m) as u128 + (c & m) as u128;
            let want = v >= (1u128 << (w - 1));
            prop_assert_eq!(round_up_from_block(&block), want);
        }
    }
}
