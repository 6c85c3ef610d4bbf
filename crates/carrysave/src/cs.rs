//! Full carry-save numbers.

use csfma_bits::Bits;

/// A number in (full) carry-save representation: the value is
/// `sum + carry`, both words `width` bits wide, with wrap-around at
/// `2^width` exactly like a hardware register pair.
///
/// ```
/// use csfma_bits::Bits;
/// use csfma_carrysave::{csa3_2, CsNumber};
/// // three addends compress to a CS pair in one full-adder delay
/// let cs = csa3_2(
///     &Bits::from_u64(16, 1000),
///     &Bits::from_u64(16, 2000),
///     &Bits::from_u64(16, 3000),
/// );
/// assert_eq!(cs.resolve().to_u64(), 6000);
/// // partial carry-save: explicit carries only every 11th position
/// let pcs = cs.carry_reduce(11);
/// assert_eq!(pcs.resolve().to_u64(), 6000);
/// ```
///
/// Carry bits are stored *at their weight*: a compressor that generates a
/// carry out of position `i` stores it at position `i+1` of the carry word.
/// Each digit position `i` holds `sum[i] + carry[i] ∈ {0, 1, 2}` — the
/// redundant digit set of Sec. II.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsNumber {
    sum: Bits,
    carry: Bits,
}

impl CsNumber {
    /// Zero in CS form.
    pub fn zero(width: usize) -> Self {
        CsNumber {
            sum: Bits::zero(width),
            carry: Bits::zero(width),
        }
    }

    /// Wrap a plain binary value (empty carry word).
    pub fn from_binary(sum: Bits) -> Self {
        let carry = Bits::zero(sum.width());
        CsNumber { sum, carry }
    }

    /// Assemble from a sum and carry word of equal width.
    pub fn new(sum: Bits, carry: Bits) -> Self {
        assert_eq!(sum.width(), carry.width(), "CS sum/carry width mismatch");
        CsNumber { sum, carry }
    }

    /// Word width.
    pub fn width(&self) -> usize {
        self.sum.width()
    }

    /// Sum word.
    pub fn sum(&self) -> &Bits {
        &self.sum
    }

    /// Carry word.
    pub fn carry(&self) -> &Bits {
        &self.carry
    }

    /// Overwrite both words in place from little-endian limbs, keeping
    /// the width (see [`Bits::assign_limbs`]).
    #[inline]
    pub fn assign_limbs(&mut self, sum: &[u64], carry: &[u64]) {
        self.sum.assign_limbs(sum);
        self.carry.assign_limbs(carry);
    }

    /// Deconstruct into the `(sum, carry)` words without cloning.
    pub fn into_words(self) -> (Bits, Bits) {
        (self.sum, self.carry)
    }

    /// The redundant digit at position `i`: `0`, `1` or `2`.
    pub fn digit(&self, i: usize) -> u8 {
        self.sum.bit(i) as u8 + self.carry.bit(i) as u8
    }

    /// True iff both words are all-zero (the canonical zero; note that CS
    /// zero representations are *not* unique once wrap-around is involved).
    pub fn is_canonical_zero(&self) -> bool {
        self.sum.is_zero() && self.carry.is_zero()
    }

    /// Resolve to plain binary: `sum + carry mod 2^width`. This is the
    /// expensive carry-propagating step the CS format exists to avoid; in
    /// hardware it appears only at fused-region boundaries.
    pub fn resolve(&self) -> Bits {
        self.sum.wrapping_add(&self.carry)
    }

    /// Resolve into a wider word (no wrap): `sum + carry` in
    /// `width + 1` bits, both inputs zero-extended.
    pub fn resolve_extended(&self) -> Bits {
        let w = self.width() + 1;
        self.sum.zext(w).wrapping_add(&self.carry.zext(w))
    }

    /// Resolve interpreting both words as two's complement signed values of
    /// `width` bits, into a `width + 1`-bit signed result.
    pub fn resolve_signed_extended(&self) -> Bits {
        let w = self.width() + 1;
        self.sum.sext(w).wrapping_add(&self.carry.sext(w))
    }

    /// Zero-extend both words.
    pub fn zext(&self, new_width: usize) -> Self {
        CsNumber {
            sum: self.sum.zext(new_width),
            carry: self.carry.zext(new_width),
        }
    }

    /// Sign-extend both words (two's complement CS).
    pub fn sext(&self, new_width: usize) -> Self {
        CsNumber {
            sum: self.sum.sext(new_width),
            carry: self.carry.sext(new_width),
        }
    }

    /// Shift both words left (weights increase; bits drop off the top).
    pub fn shl(&self, n: usize) -> Self {
        CsNumber {
            sum: self.sum.shl(n),
            carry: self.carry.shl(n),
        }
    }

    /// Extract a digit block `[lo, lo+len)` as a CS pair of width `len`.
    pub fn extract(&self, lo: usize, len: usize) -> Self {
        CsNumber {
            sum: self.sum.extract(lo, len),
            carry: self.carry.extract(lo, len),
        }
    }

    /// Split into `count` blocks of `block_width` digits, MSB block first.
    pub fn blocks(&self, block_width: usize, count: usize) -> Vec<CsNumber> {
        assert_eq!(
            self.width(),
            block_width * count,
            "CS blocks width mismatch"
        );
        (0..count)
            .rev()
            .map(|i| self.extract(i * block_width, block_width))
            .collect()
    }

    /// Reassemble from MSB-first blocks.
    pub fn from_blocks(blocks: &[CsNumber]) -> Self {
        let mut sums = Vec::with_capacity(blocks.len());
        let mut carries = Vec::with_capacity(blocks.len());
        for b in blocks {
            sums.push(b.sum.clone());
            carries.push(b.carry.clone());
        }
        CsNumber {
            sum: Bits::from_blocks(&sums),
            carry: Bits::from_blocks(&carries),
        }
    }

    /// Two's-complement negation kept in CS form: `-(s + c) = !s + !c + 2`,
    /// folded back to a pair with one 3:2 compression (constant time, no
    /// carry propagation). The value is exact modulo `2^width`.
    pub fn negate(&self) -> Self {
        let w = self.width();
        let two = Bits::from_u64(w, 2);
        crate::compress::csa3_2(&!(&self.sum), &!(&self.carry), &two)
    }

    /// Reduce to *partial* carry-save with explicit carries only at
    /// positions that are multiples of `spacing` (Sec. III-E, "Carry
    /// Reduction" in Fig. 9).
    ///
    /// Hardware interpretation: the word is cut into `spacing`-bit
    /// segments; each segment adds its own sum and carry bits with a short
    /// ripple adder (constant time — 11b in the paper, 1.742 ns), emitting
    /// a single carry-out at the base of the next segment. The carry-out of
    /// the top segment wraps away, exactly like the `2^width` wrap of the
    /// register pair.
    pub fn carry_reduce(&self, spacing: usize) -> crate::pcs::PcsNumber {
        crate::pcs::PcsNumber::reduce_from(self, spacing)
    }
}
