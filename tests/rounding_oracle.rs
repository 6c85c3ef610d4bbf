//! The block rounding decision against the route it replaced.
//!
//! `units::rounding::round_up_from_block` decides whether a carry-save
//! mantissa rounds up from its rounding-data block alone: up iff the
//! block's resolved value is at least half an ULP, `2^(b-1)`, including
//! when its digits overflow the block. It used to build the `(b + 1)`-bit
//! sum through `CsNumber::resolve_extended` and read its top two bits; it
//! now makes one carry-propagating add over the words' limbs. `reference`
//! keeps the first route. These tests require the two to agree on every
//! `(sum, carry)` pair up to 8 bits, and on biased pairs at the block
//! widths of the transport formats and at the limb seams: carries out of
//! the block, all-ones words, every pattern of the top two bits, and sums
//! one off half an ULP.
//!
//! The plane kernel and the scalar `CsFmaUnit` share the decision, so the
//! plane/scalar differential cannot see a fault in it; this file and the
//! absolute bits in `tests/golden/*.json` do.

use csfma::bits::Bits;
use csfma::carrysave::CsNumber;
use csfma::units::rounding::round_up_from_block;

/// `round_up_from_block` as first written: resolve the block into
/// `b + 1` bits and read bits `b` and `b - 1`.
fn reference(block: &CsNumber) -> bool {
    let b = block.width();
    if b == 0 {
        return false;
    }
    let resolved = block.resolve_extended();
    resolved.bit(b) || resolved.bit(b - 1)
}

/// Require agreement on `(s, c)`; returns the reference verdict.
fn check(s: &Bits, c: &Bits) -> bool {
    let block = CsNumber::new(s.clone(), c.clone());
    let want = reference(&block);
    assert_eq!(
        round_up_from_block(&block),
        want,
        "w={} sum={s:?} carry={c:?}",
        s.width()
    );
    want
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

    /// A small signed offset, `-2..=2`, as a `w`-bit word.
    fn nudge(&mut self, w: usize) -> Bits {
        Bits::from_i128(w, self.below(5) as i128 - 2)
    }

    /// A `w`-bit word: uniform, all ones, zero, one-hot, or uniform with
    /// its top two bits forced to a drawn pattern.
    fn word(&mut self, w: usize) -> Bits {
        match self.below(6) {
            0 | 1 => self.uniform(w),
            2 => Bits::ones(w),
            3 => Bits::zero(w),
            4 => Bits::one_hot(w, self.below(w)),
            _ => {
                let mut x = self.uniform(w);
                let pattern = self.below(4);
                x.set_bit(w - 1, pattern & 2 != 0);
                if w >= 2 {
                    x.set_bit(w - 2, pattern & 1 != 0);
                }
                x
            }
        }
    }

    /// A carry word for `s`: independent; `s`'s complement (every digit
    /// 1, one short of a carry out of the block); the partner that makes
    /// the value exactly `2^w` (the carry out) or exactly half, each
    /// nudged by up to two; or `s` itself.
    fn partner(&mut self, s: &Bits) -> Bits {
        let w = s.width();
        let half = Bits::one_hot(w, w - 1);
        match self.below(6) {
            0 | 1 => self.word(w),
            2 => !s,
            3 => s.wrapping_neg().wrapping_add(&self.nudge(w)),
            4 => half.wrapping_sub(s).wrapping_add(&self.nudge(w)),
            _ => s.clone(),
        }
    }
}

/// What one biased run reached, to show the generator covers the cases
/// the limb add must get right.
#[derive(Default)]
struct Reach {
    up: usize,
    down: usize,
    carry_out: usize,
    all_ones: usize,
    top_two: [usize; 4],
}

fn biased(w: usize, pairs: usize, seed: u64) -> Reach {
    let mut rng = Rng(seed ^ ((w as u64) << 32));
    let mut reach = Reach::default();
    for _ in 0..pairs {
        let s = rng.word(w);
        let c = rng.partner(&s);
        let up = check(&s, &c);
        check(&c, &s);
        if up {
            reach.up += 1;
        } else {
            reach.down += 1;
        }
        let (_, out) = s.carrying_add(&c);
        reach.carry_out += out as usize;
        reach.all_ones += (s.is_all_ones() || c.is_all_ones()) as usize;
        if w >= 2 {
            let top = (s.bit(w - 1) as usize) << 1 | s.bit(w - 2) as usize;
            reach.top_two[top] += 1;
        }
    }
    reach
}

#[test]
fn every_pair_up_to_eight_bits_matches_the_reference() {
    for w in 1..=8 {
        for sv in 0..1u64 << w {
            let s = Bits::from_u64(w, sv);
            for cv in 0..1u64 << w {
                check(&s, &Bits::from_u64(w, cv));
            }
        }
    }
}

#[test]
fn block_and_limb_seam_widths_match_the_reference() {
    // the block widths of the transport formats (29, 55, 58) and the
    // seams of one and two limbs
    for w in [29, 55, 58, 63, 64, 65, 120] {
        let r = biased(w, 100_000, 0x5eed_0b10);
        let min = 5_000;
        assert!(
            r.up >= min && r.down >= min,
            "w={w}: {} up, {} down",
            r.up,
            r.down
        );
        assert!(r.carry_out >= min, "w={w}: {} carries out", r.carry_out);
        assert!(r.all_ones >= min, "w={w}: {} all-ones words", r.all_ones);
        assert!(
            r.top_two.iter().all(|&n| n >= min),
            "w={w}: top-two patterns {:?}",
            r.top_two
        );
    }
}

#[test]
fn cs_overflow_still_rounds_up() {
    // digits 2 0 ... : value 2^b, which neither word's top bit shows
    let s = Bits::from_u64(8, 0x80);
    assert!(check(&s, &s));
}

#[test]
#[ignore = "10^7 cases: ci.sh runs them in release with --include-ignored"]
fn ten_million_biased_pairs_match_the_reference() {
    let mut rng = Rng(0x0dd_ba11);
    let mut done = 0;
    while done < 10_000_000 {
        let w = 1 + rng.below(200);
        biased(w, 10_000, rng.next());
        done += 10_000;
    }
}
