//! Core [`Bits`] type: construction, access, conversion, formatting.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Limbs kept inline before spilling to the heap. 8 limbs = 512 bits,
/// which covers every width the binary64 carry-save datapaths touch
/// (the widest is the 440-bit multiplier output plus compressor
/// headroom); wider values still work, they just allocate.
const INLINE_LIMBS: usize = 8;

/// Little-endian limb storage with a small-vector layout: values up to
/// `INLINE_LIMBS` limbs live inline (no heap traffic — the batch
/// engine's hot loops clone and rebuild `Bits` millions of times), wider
/// values spill to a `Vec`.
#[derive(Clone)]
pub(crate) enum LimbVec {
    Inline { len: u8, buf: [u64; INLINE_LIMBS] },
    Heap(Vec<u64>),
}

impl LimbVec {
    #[inline]
    pub(crate) fn zeros(n: usize) -> Self {
        if n <= INLINE_LIMBS {
            LimbVec::Inline {
                len: n as u8,
                buf: [0; INLINE_LIMBS],
            }
        } else {
            LimbVec::Heap(vec![0; n])
        }
    }

    #[inline]
    pub(crate) fn filled(n: usize, v: u64) -> Self {
        if n <= INLINE_LIMBS {
            LimbVec::Inline {
                len: n as u8,
                buf: [v; INLINE_LIMBS],
            }
        } else {
            LimbVec::Heap(vec![v; n])
        }
    }
}

impl Deref for LimbVec {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            LimbVec::Inline { len, buf } => &buf[..*len as usize],
            LimbVec::Heap(v) => v,
        }
    }
}

impl DerefMut for LimbVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            LimbVec::Inline { len, buf } => &mut buf[..*len as usize],
            LimbVec::Heap(v) => v,
        }
    }
}

impl PartialEq for LimbVec {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for LimbVec {}

impl std::hash::Hash for LimbVec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Debug for LimbVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl FromIterator<u64> for LimbVec {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        let mut buf = [0u64; INLINE_LIMBS];
        let mut len = 0usize;
        for v in it.by_ref() {
            if len < INLINE_LIMBS {
                buf[len] = v;
                len += 1;
            } else {
                let mut vec = Vec::with_capacity(len + 1 + it.size_hint().0);
                vec.extend_from_slice(&buf);
                vec.push(v);
                vec.extend(it);
                return LimbVec::Heap(vec);
            }
        }
        LimbVec::Inline {
            len: len as u8,
            buf,
        }
    }
}

/// An arbitrary-width bit vector with two's-complement semantics.
///
/// ```
/// use csfma_bits::Bits;
/// // a 385-bit adder input, as in the PCS-FMA window
/// let a = Bits::one_hot(385, 384);
/// let b = Bits::from_u64(385, 1);
/// let (sum, carry_out) = a.carrying_add(&b);
/// assert!(sum.bit(384) && sum.bit(0) && !carry_out);
/// assert_eq!(sum.leading_zeros(), 0);
/// ```
///
/// Stored as little-endian `u64` limbs. Invariants:
/// * `limbs.len() == max(1, ceil(width / 64))`,
/// * all bits at positions `>= width` are zero.
///
/// A zero-width `Bits` is permitted (it models an empty wire bundle) and
/// always has value 0 with a single all-zero limb.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bits {
    pub(crate) width: usize,
    pub(crate) limbs: LimbVec,
}

pub(crate) fn limbs_for(width: usize) -> usize {
    width.div_ceil(64).max(1)
}

impl Bits {
    /// All-zero value of the given width.
    pub fn zero(width: usize) -> Self {
        Bits {
            width,
            limbs: LimbVec::zeros(limbs_for(width)),
        }
    }

    /// All-ones value of the given width (i.e. `2^width - 1`, or `-1` signed).
    pub fn ones(width: usize) -> Self {
        let mut b = Bits {
            width,
            limbs: LimbVec::filled(limbs_for(width), !0u64),
        };
        b.mask_top();
        b
    }

    /// Value with a single `1` at position `pos` (weight `2^pos`).
    ///
    /// # Panics
    /// If `pos >= width`.
    pub fn one_hot(width: usize, pos: usize) -> Self {
        assert!(pos < width, "one_hot position {pos} out of width {width}");
        let mut b = Bits::zero(width);
        b.set_bit(pos, true);
        b
    }

    /// Build from a `u64`, truncating to `width`.
    pub fn from_u64(width: usize, value: u64) -> Self {
        let mut b = Bits::zero(width);
        b.limbs[0] = value;
        b.mask_top();
        b
    }

    /// Build from a `u128`, truncating to `width`.
    pub fn from_u128(width: usize, value: u128) -> Self {
        let mut b = Bits::zero(width);
        b.limbs[0] = value as u64;
        if b.limbs.len() > 1 {
            b.limbs[1] = (value >> 64) as u64;
        }
        b.mask_top();
        b
    }

    /// Build from an `i128` in two's complement, truncating to `width`.
    pub fn from_i128(width: usize, value: i128) -> Self {
        let mut b = Bits::zero(width);
        let uv = value as u128;
        b.limbs[0] = uv as u64;
        if b.limbs.len() > 1 {
            b.limbs[1] = (uv >> 64) as u64;
        }
        // sign-extend into higher limbs
        if value < 0 {
            for l in b.limbs.iter_mut().skip(2) {
                *l = !0u64;
            }
        }
        b.mask_top();
        b
    }

    /// Build from little-endian limbs, truncating/padding to `width`.
    pub fn from_limbs(width: usize, limbs: &[u64]) -> Self {
        let mut b = Bits::zero(width);
        b.assign_limbs(limbs);
        b
    }

    /// Overwrite the value in place from little-endian limbs, keeping
    /// the width: limbs past it are ignored, missing ones read as zero,
    /// and bits above the width are cleared.
    #[inline]
    pub fn assign_limbs(&mut self, limbs: &[u64]) {
        let rem = self.width % 64;
        let dst: &mut [u64] = &mut self.limbs;
        // a plain loop: the words are a few limbs, too short to pay for
        // a `memcpy` and a `memset` call
        for (i, d) in dst.iter_mut().enumerate() {
            *d = limbs.get(i).copied().unwrap_or(0);
        }
        // the top limb keeps only the bits below the width (a zero-width
        // value keeps none)
        let top = dst.len() - 1;
        if self.width == 0 {
            dst[top] = 0;
        } else if rem != 0 {
            dst[top] &= (1u64 << rem) - 1;
        }
    }

    /// Parse from a binary string (MSB first); `_` separators are ignored.
    ///
    /// # Panics
    /// If the string contains characters other than `0`, `1`, `_`, or has
    /// more significant bits than `width`.
    pub fn from_bin_str(width: usize, s: &str) -> Self {
        let mut b = Bits::zero(width);
        let digits: Vec<bool> = s
            .chars()
            .filter(|&c| c != '_')
            .map(|c| match c {
                '0' => false,
                '1' => true,
                _ => panic!("invalid binary digit {c:?}"),
            })
            .collect();
        assert!(digits.len() <= width, "binary literal wider than {width}");
        for (i, &d) in digits.iter().rev().enumerate() {
            b.set_bit(i, d);
        }
        b
    }

    /// Bit width of this value.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Little-endian limb view.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Read the bit at `pos` (weight `2^pos`). Positions `>= width` read 0.
    #[inline]
    pub fn bit(&self, pos: usize) -> bool {
        if pos >= self.width {
            return false;
        }
        (self.limbs[pos / 64] >> (pos % 64)) & 1 == 1
    }

    /// Set the bit at `pos` (weight `2^pos`).
    ///
    /// # Panics
    /// If `pos >= width`.
    #[inline]
    pub fn set_bit(&mut self, pos: usize, value: bool) {
        assert!(
            pos < self.width,
            "set_bit {pos} out of width {}",
            self.width
        );
        let limb = pos / 64;
        let off = pos % 64;
        if value {
            self.limbs[limb] |= 1u64 << off;
        } else {
            self.limbs[limb] &= !(1u64 << off);
        }
    }

    /// The most significant bit (the sign bit under two's complement).
    /// Zero-width values report `false`.
    #[inline]
    pub fn sign_bit(&self) -> bool {
        if self.width == 0 {
            false
        } else {
            self.bit(self.width - 1)
        }
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// True iff every bit within `width` is one (i.e. `-1` signed).
    pub fn is_all_ones(&self) -> bool {
        if self.width == 0 {
            return false;
        }
        *self == Bits::ones(self.width)
    }

    /// Number of leading zero bits, counted from the MSB. Full width if zero.
    pub fn leading_zeros(&self) -> usize {
        // limb-at-a-time: bits above `width` are zero by invariant, so the
        // highest set bit of the highest nonzero limb is the answer
        for i in (0..self.limbs.len()).rev() {
            let l = self.limbs[i];
            if l != 0 {
                let pos = i * 64 + (63 - l.leading_zeros() as usize);
                return self.width - 1 - pos;
            }
        }
        self.width
    }

    /// Number of leading one bits, counted from the MSB.
    pub fn leading_ones(&self) -> usize {
        if self.width == 0 {
            return 0;
        }
        // complement within the width and find its highest set bit
        let rem = self.width % 64;
        for i in (0..self.limbs.len()).rev() {
            let mask = if rem != 0 && i == self.limbs.len() - 1 {
                (1u64 << rem) - 1
            } else {
                !0u64
            };
            let inv = !self.limbs[i] & mask;
            if inv != 0 {
                let pos = i * 64 + (63 - inv.leading_zeros() as usize);
                return self.width - 1 - pos;
            }
        }
        self.width
    }

    /// Number of redundant sign bits: leading bits equal to the sign bit,
    /// *excluding* the sign bit itself. A two's-complement value can be
    /// narrowed by this many bits without changing its value.
    pub fn redundant_sign_bits(&self) -> usize {
        if self.width <= 1 {
            return 0;
        }
        let run = if self.sign_bit() {
            self.leading_ones()
        } else {
            self.leading_zeros()
        };
        run.saturating_sub(1).min(self.width - 1)
    }

    /// Population count.
    pub fn count_ones(&self) -> usize {
        self.limbs.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// Value as `u64`.
    ///
    /// # Panics
    /// If the value does not fit.
    pub fn to_u64(&self) -> u64 {
        assert!(
            self.limbs.iter().skip(1).all(|&l| l == 0),
            "Bits value does not fit in u64"
        );
        self.limbs[0]
    }

    /// Value as `u128`.
    ///
    /// # Panics
    /// If the value does not fit.
    pub fn to_u128(&self) -> u128 {
        assert!(
            self.limbs.iter().skip(2).all(|&l| l == 0),
            "Bits value does not fit in u128"
        );
        let lo = self.limbs[0] as u128;
        let hi = *self.limbs.get(1).unwrap_or(&0) as u128;
        lo | (hi << 64)
    }

    /// Two's-complement signed value as `i128`.
    ///
    /// # Panics
    /// If the signed value does not fit in an `i128`.
    pub fn to_i128(&self) -> i128 {
        let se = self.sext(self.width.max(128));
        let lo = se.limbs[0] as u128;
        let hi = se.limbs[1] as u128;
        let value = (lo | (hi << 64)) as i128;
        assert!(
            *self == Bits::from_i128(self.width, value),
            "Bits signed value does not fit in i128"
        );
        value
    }

    /// Clear any bits at positions `>= width` in the top limb.
    pub(crate) fn mask_top(&mut self) {
        if self.width == 0 {
            self.limbs[0] = 0;
            return;
        }
        let rem = self.width % 64;
        if rem != 0 {
            let last = self.limbs.len() - 1;
            self.limbs[last] &= (1u64 << rem) - 1;
        }
        // limbs beyond the width (only possible for width == 0 handled above)
        for i in limbs_for(self.width)..self.limbs.len() {
            self.limbs[i] = 0;
        }
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bits<{}>(0x", self.width)?;
        for (i, l) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{l:x}")?;
            } else {
                write!(f, "{l:016x}")?;
            }
        }
        write!(f, ")")
    }
}

impl fmt::Display for Bits {
    /// Binary, MSB first, with `_` every 8 bits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width == 0 {
            return write!(f, "<empty>");
        }
        for pos in (0..self.width).rev() {
            write!(f, "{}", if self.bit(pos) { '1' } else { '0' })?;
            if pos != 0 && pos % 8 == 0 {
                write!(f, "_")?;
            }
        }
        Ok(())
    }
}
