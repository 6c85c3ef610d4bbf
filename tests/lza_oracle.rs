//! The early-LZA anticipator against a reference implementation.
//!
//! `reference::lza_indicator` is the Schmookler/Nowka indicator as first
//! written: one bit position at a time over `w + 2`-bit sign-extended
//! copies of the operands, with the `t` term replicated above the top.
//! It is slow and obviously faithful to the formula. `units::lza`
//! evaluates the same indicator a 64-bit limb at a time, with the
//! neighbour terms carried across limb boundaries. These tests require
//! the two to agree exactly, and both to meet the LZA contract against
//! the exact sum.
//!
//! The plane kernel and the scalar `CsFmaUnit` both call the anticipator,
//! so the plane/scalar differential of `tests/plane_equivalence.rs`
//! cannot see a fault in it; this file and the absolute bits in
//! `tests/golden/*.json` do.

use csfma::bits::Bits;
use csfma::units::lza::{anticipate_leading, lza_indicator, LZA_MAX_ERROR};

mod reference {
    use csfma::bits::Bits;

    /// Raw Schmookler/Nowka general-case indicator string for `a + b` (two's
    /// complement, equal widths), computed over the inputs sign-extended by
    /// two bits so the top positions need no special-case boundary. The
    /// leading one of the indicator falls on the leading significant bit of
    /// the sum or one position above it.
    pub fn lza_indicator(a: &Bits, b: &Bits) -> Bits {
        assert_eq!(a.width(), b.width(), "lza width mismatch");
        let w = a.width();
        if w == 0 {
            return Bits::zero(0);
        }
        let we = w + 2;
        let ax = a.sext(we);
        let bx = b.sext(we);
        let t = |i: usize| {
            let i = i.min(we - 1); // positions above the top replicate the sign
            ax.bit(i) ^ bx.bit(i)
        };
        let g = |i: usize| ax.bit(i) && bx.bit(i);
        let z = |i: usize| !ax.bit(i) && !bx.bit(i);
        let mut f = Bits::zero(we);
        for i in 0..we {
            // neighbor below position 0: neither generate nor zero (a carry-in
            // of unknown value is conservatively assumed possible)
            let (gi_1, zi_1) = if i == 0 {
                (false, false)
            } else {
                (g(i - 1), z(i - 1))
            };
            let ti1 = t(i + 1);
            let fi = (ti1 && ((g(i) && !zi_1) || (z(i) && !gi_1)))
                || (!ti1 && ((z(i) && !zi_1) || (g(i) && !gi_1)));
            if fi {
                f.set_bit(i, true);
            }
        }
        f
    }

    /// The leading-position read of the indicator, as first written.
    pub fn anticipate_leading(a: &Bits, b: &Bits) -> usize {
        let w = a.width();
        let f = lza_indicator(a, b);
        if f.is_zero() {
            return w + 1;
        }
        let pos_f = f.width() - 1 - f.leading_zeros();
        w.saturating_sub(pos_f)
    }
}

/// Require both exported functions to equal the reference on `(a, b)`,
/// and the anticipation to meet the LZA contract against the exact sum.
fn check(a: &Bits, b: &Bits) {
    let want = reference::lza_indicator(a, b);
    assert_eq!(
        lza_indicator(a, b),
        want,
        "indicator: w={} a={a:?} b={b:?}",
        a.width()
    );
    let ant = anticipate_leading(a, b);
    assert_eq!(
        ant,
        reference::anticipate_leading(a, b),
        "leading position: w={} a={a:?} b={b:?}",
        a.width()
    );

    let we = a.width() + 2;
    let sum = a.sext(we).wrapping_add(&b.sext(we));
    if sum.is_zero() || sum.is_all_ones() {
        return; // full cancellation: no significant bit exists
    }
    let truth = sum.redundant_sign_bits();
    assert!(
        ant <= truth,
        "unsafe anticipation: a={a:?} b={b:?} ant={ant} truth={truth}"
    );
    assert!(
        truth - ant <= LZA_MAX_ERROR,
        "too pessimistic: a={a:?} b={b:?} ant={ant} truth={truth}"
    );
}

fn exhaustive(w: usize) {
    for av in 0..1u64 << w {
        let a = Bits::from_u64(w, av);
        for bv in 0..1u64 << w {
            check(&a, &Bits::from_u64(w, bv));
        }
    }
}

/// splitmix64: a seeded stream with no dependency on the `rand` stand-in.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn uniform(&mut self, w: usize) -> Bits {
        let limbs: Vec<u64> = (0..w.div_ceil(64).max(1)).map(|_| self.next()).collect();
        Bits::from_limbs(w, &limbs)
    }

    /// A `w`-bit word biased toward the shapes that stress the indicator's
    /// limb seams: long sign runs, all-ones words and one-hot words.
    fn word(&mut self, w: usize) -> Bits {
        match self.below(6) {
            0 | 1 => self.uniform(w),
            2 => {
                let x = self.uniform(w);
                x.sar(self.below(w))
            }
            3 => Bits::ones(w),
            4 => Bits::one_hot(w, self.below(w)),
            _ => !&Bits::one_hot(w, self.below(w)),
        }
    }

    /// A partner for `a`: independent, its exact or near negation, its
    /// complement, or `a` itself.
    fn partner(&mut self, a: &Bits) -> Bits {
        let w = a.width();
        match self.below(6) {
            0 | 1 => self.word(w),
            2 => a.wrapping_neg(),
            3 => !a,
            4 => {
                let d = self.word(w).sar(w.saturating_sub(3));
                a.wrapping_neg().wrapping_add(&d)
            }
            _ => a.clone(),
        }
    }
}

fn seeded(w: usize, pairs: usize, seed: u64) {
    let mut rng = Rng(seed ^ ((w as u64) << 32));
    for _ in 0..pairs {
        let a = rng.word(w);
        let b = rng.partner(&a);
        check(&a, &b);
        check(&b, &a);
    }
}

#[test]
fn every_pair_up_to_eight_bits_matches_the_reference() {
    for w in 0..=8 {
        exhaustive(w);
    }
}

#[test]
fn transport_mantissa_widths_match_the_reference() {
    // the carry-save mantissa widths `anticipated_skip` passes for the
    // five standard formats
    for w in [110, 116, 87, 54, 45] {
        seeded(w, 2000, 0x1a2a);
    }
}

#[test]
fn limb_boundary_widths_match_the_reference() {
    for w in (61..=66).chain(125..=130) {
        seeded(w, 2000, 0x1a2b);
    }
}

#[test]
#[ignore = "about 6.5M pairs: ci.sh runs it in release with --include-ignored"]
fn every_pair_to_eleven_bits_and_a_million_random_pairs() {
    for w in 9..=11 {
        exhaustive(w);
    }
    let mut rng = Rng(0x1a2c);
    for _ in 0..1_000_000 {
        let w = 1 + rng.below(200);
        let a = rng.word(w);
        let b = rng.partner(&a);
        check(&a, &b);
    }
}
