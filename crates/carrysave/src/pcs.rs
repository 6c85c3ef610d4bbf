//! Partial carry-save numbers (Sec. III-E).
//!
//! A PCS number stores explicit carry bits only at every `spacing`-th
//! position. The paper evaluates spacings 5, 11 and 55 for its 55-bit
//! blocks and picks 11: the delay difference between a 5b and an 11b
//! segment adder is negligible (1.650 ns vs 1.742 ns) while the carry
//! storage shrinks (385b of sum + 35b of carries instead of 384b).

use crate::cs::CsNumber;
use csfma_bits::Bits;

/// A number in partial carry-save form: value = `sum + carry mod 2^width`,
/// with the invariant that `carry` may be nonzero only at positions that
/// are nonzero multiples of `spacing`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcsNumber {
    sum: Bits,
    carry: Bits,
    spacing: usize,
}

impl PcsNumber {
    /// Zero in PCS form.
    pub fn zero(width: usize, spacing: usize) -> Self {
        assert!(spacing >= 1);
        PcsNumber {
            sum: Bits::zero(width),
            carry: Bits::zero(width),
            spacing,
        }
    }

    /// Wrap a plain binary value (no explicit carries).
    pub fn from_binary(sum: Bits, spacing: usize) -> Self {
        assert!(spacing >= 1);
        let carry = Bits::zero(sum.width());
        PcsNumber {
            sum,
            carry,
            spacing,
        }
    }

    /// Assemble from words, validating the carry-position invariant.
    ///
    /// # Panics
    /// If `carry` has a bit set at a position that is not a nonzero
    /// multiple of `spacing`.
    pub fn new(sum: Bits, carry: Bits, spacing: usize) -> Self {
        assert_eq!(sum.width(), carry.width(), "PCS sum/carry width mismatch");
        for pos in 0..carry.width() {
            if carry.bit(pos) {
                assert!(
                    pos != 0 && pos % spacing == 0,
                    "PCS carry bit at illegal position {pos} (spacing {spacing})"
                );
            }
        }
        PcsNumber {
            sum,
            carry,
            spacing,
        }
    }

    /// The constant-time carry-reduction step (Fig. 9, "Carry Reduction"):
    /// cut the FCS input into `spacing`-bit segments, add each segment's
    /// sum and carry bits with a short adder, and emit one carry-out at the
    /// base of the next segment. The top segment's carry-out wraps away
    /// (mod `2^width`), like any register overflow.
    pub fn reduce_from(cs: &CsNumber, spacing: usize) -> Self {
        assert!(spacing >= 1);
        let width = cs.width();
        let mut sum = Bits::zero(width);
        let mut carry = Bits::zero(width);
        let mut lo = 0;
        while lo < width {
            let len = spacing.min(width - lo);
            let seg_s = cs.sum().extract(lo, len).zext(len + 1);
            let seg_c = cs.carry().extract(lo, len).zext(len + 1);
            let seg = seg_s.wrapping_add(&seg_c);
            for b in 0..len {
                if seg.bit(b) {
                    sum.set_bit(lo + b, true);
                }
            }
            if seg.bit(len) && lo + len < width {
                carry.set_bit(lo + len, true);
            }
            lo += len;
        }
        PcsNumber {
            sum,
            carry,
            spacing,
        }
    }

    /// Word width.
    pub fn width(&self) -> usize {
        self.sum.width()
    }

    /// Carry spacing `k`.
    pub fn spacing(&self) -> usize {
        self.spacing
    }

    /// Sum word.
    pub fn sum(&self) -> &Bits {
        &self.sum
    }

    /// Carry word (sparse; see the type invariant).
    pub fn carry(&self) -> &Bits {
        &self.carry
    }

    /// Number of storage bits for carries (`floor((width-1)/spacing)`) —
    /// the quantity behind the paper's "385b sum + 35b of carries".
    pub fn carry_storage_bits(&self) -> usize {
        if self.width() == 0 {
            0
        } else {
            (self.width() - 1) / self.spacing
        }
    }

    /// View as a full CS pair (forgetting the sparsity invariant).
    pub fn to_cs(&self) -> CsNumber {
        CsNumber::new(self.sum.clone(), self.carry.clone())
    }

    /// Resolve to plain binary, `mod 2^width`.
    pub fn resolve(&self) -> Bits {
        self.to_cs().resolve()
    }

    /// Replace the carry word wholesale (fault-injection plumbing; the
    /// caller guarantees only legal lane positions are set — see
    /// `fault::tamper_carry_lanes`, which builds the word from lanes).
    pub(crate) fn set_carry_lanes(&mut self, carry: Bits) {
        debug_assert_eq!(carry.width(), self.width());
        self.carry = carry;
    }

    /// Extract digits `[lo, lo+len)` as a PCS number of width `len`.
    /// `lo` must be a multiple of `spacing` so the invariant is kept.
    pub fn extract(&self, lo: usize, len: usize) -> Self {
        assert!(
            lo.is_multiple_of(self.spacing),
            "PCS extract must start on a segment base"
        );
        let mut carry = self.carry.extract(lo, len);
        // a carry that sat exactly at `lo` has position 0 in the slice,
        // which the invariant forbids — it belongs to this slice's value,
        // so fold it into the sum via the segment adder.
        if carry.bit(0) {
            carry.set_bit(0, false);
            let cs = CsNumber::new(self.sum.extract(lo, len).wrapping_add_u64(1), carry);
            return PcsNumber::reduce_from(&cs, self.spacing);
        }
        PcsNumber {
            sum: self.sum.extract(lo, len),
            carry,
            spacing: self.spacing,
        }
    }
}
