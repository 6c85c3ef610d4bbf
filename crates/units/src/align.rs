//! Addend alignment (pre-shift) into the wide addition window.
//!
//! The classic FMA (Fig. 4) and both P/FCS units pre-shift the additive
//! input `A` in parallel with the multiplication. The behavioral model
//! places a two's-complement CS addend into a `window`-bit frame at a
//! signed bit offset; bits pushed below the frame are wired away exactly
//! like hardware (they would only ever influence rounding data, whose
//! bounded inaccuracy Sec. III-E accepts).

use csfma_carrysave::CsNumber;

/// An aligned addend with diagnostics about what fell off the frame.
#[derive(Clone, Debug)]
pub struct AlignedAddend {
    /// The addend placed in the window, still in CS form.
    pub value: CsNumber,
    /// True iff nonzero low bits were dropped (right shift past the LSB).
    pub dropped_low: bool,
    /// True iff significant high bits were lost (should never happen when
    /// the window is sized per Sec. III-D; kept as a checked diagnostic).
    pub dropped_high: bool,
}

/// Place the signed CS addend `a` into a `window`-bit frame, shifted so
/// that `a`'s bit 0 lands at window position `shift` (which may be
/// negative).
///
/// Value contract (per CS word, as in hardware): each word is
/// sign-extended to the window and shifted arithmetically; for negative
/// shifts each word drops its low bits independently, so the aligned value
/// may differ from the ideally shifted value by at most 1 window ULP —
/// the same truncation a wired shifter performs.
pub fn align_addend(a: &CsNumber, window: usize, shift: i64) -> AlignedAddend {
    if shift >= 0 {
        let sh = shift as usize;
        if sh >= window {
            // the whole addend is above the frame: saturate (diagnostic)
            return AlignedAddend {
                value: CsNumber::zero(window),
                dropped_low: false,
                dropped_high: !a.sum().is_zero() || !a.carry().is_zero(),
            };
        }
        let sum = a.sum().sext(window).shl(sh);
        let carry = a.carry().sext(window).shl(sh);
        // high loss check: shifting must not change the signed value
        let dropped_high =
            sum.sar(sh) != a.sum().sext(window) || carry.sar(sh) != a.carry().sext(window);
        AlignedAddend {
            value: CsNumber::new(sum, carry),
            dropped_low: false,
            dropped_high,
        }
    } else {
        let sh = (-shift) as usize;
        let dropped_low = if sh >= a.width() {
            !a.sum().is_zero() || !a.carry().is_zero()
        } else {
            !a.sum().extract(0, sh).is_zero() || !a.carry().extract(0, sh).is_zero()
        };
        let sum = a
            .sum()
            .sext(window.max(a.width()))
            .sar(sh)
            .sext(window)
            .trunc(window);
        let carry = a
            .carry()
            .sext(window.max(a.width()))
            .sar(sh)
            .sext(window)
            .trunc(window);
        AlignedAddend {
            value: CsNumber::new(sum, carry),
            dropped_low,
            dropped_high: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csfma_bits::Bits;
    use proptest::prelude::*;

    fn cs(width: usize, v: i128, split: u64) -> CsNumber {
        CsNumber::new(
            Bits::from_i128(width, v.wrapping_sub(split as i128)),
            Bits::from_u64(width, split).zext(width),
        )
    }

    #[test]
    fn left_shift_exact() {
        let a = cs(16, -100, 7);
        let al = align_addend(&a, 64, 10);
        assert_eq!(al.value.resolve().to_i128(), -100 * 1024);
        assert!(!al.dropped_low && !al.dropped_high);
    }

    #[test]
    fn right_shift_truncates_like_hardware() {
        let a = cs(16, 0b110111, 0b1010);
        let al = align_addend(&a, 64, -3);
        // per-word truncation: (s >> 3) + (c >> 3); at most 1 ULP below ideal
        let ideal = 0b110111i128 >> 3;
        let got = al.value.resolve().to_i128();
        assert!(ideal - got <= 1 && got <= ideal, "got {got}, ideal {ideal}");
        assert!(al.dropped_low);
    }

    #[test]
    fn full_right_shift_vanishes() {
        let a = cs(16, 12345, 11);
        let al = align_addend(&a, 32, -40);
        assert!(al.value.resolve().is_zero());
        assert!(al.dropped_low);
    }

    #[test]
    fn overflow_left_is_flagged() {
        let a = cs(16, 30000, 0);
        let al = align_addend(&a, 20, 8);
        assert!(al.dropped_high);
    }

    /// The plane-form aligner (`align_planes`) must place each lane
    /// exactly like `align_addend` places a scalar word: same sign
    /// extension, same frame truncation, for any per-lane signed shift.
    /// The shift sets cover a shared shift (no lane-masked stage), small
    /// spreads (a few stages) and shifts anywhere in and around the
    /// frame (every stage).
    #[test]
    fn plane_alignment_matches_align_addend_per_lane() {
        use csfma_carrysave::plane::{align_planes, planes_to_lane_limbs, PLANE_LANES};

        let mut state = 0x51ab_17e5u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for &(src_w, w) in &[
            (110usize, 385usize),
            (165, 385),
            (70, 90),
            (64, 128),
            (33, 61),
            (1, 7),
        ] {
            let sg = src_w.div_ceil(64);
            // `Some(0)`: one shared shift; `Some(s)`: within `s` below a
            // shared base; `None`: anywhere in and around the frame
            for spread in [Some(0u64), Some(1), Some(2), Some(8), Some(128), None] {
                let mut src = vec![0u64; src_w];
                let mut shifts = vec![0i64; PLANE_LANES];
                let mut active = 0u64;
                let mut lanes: Vec<Bits> = Vec::new();
                let base = (next() % (w as u64 + 16)) as i64 - 8;
                for (l, shift) in shifts.iter_mut().enumerate() {
                    let limbs: Vec<u64> = (0..sg).map(|_| next()).collect();
                    let lane = Bits::from_limbs(src_w, &limbs);
                    for (j, p) in src.iter_mut().enumerate() {
                        *p |= (lane.bit(j) as u64) << l;
                    }
                    lanes.push(lane);
                    *shift = match spread {
                        None => (next() % (2 * (w as u64 + 8))) as i64 - (w as i64 + 8),
                        Some(0) => base,
                        Some(s) => base - (next() % s) as i64,
                    };
                    if next() % 8 != 0 {
                        active |= 1 << l;
                    }
                }
                let (mut planes, mut got) = (Vec::new(), Vec::new());
                align_planes(&src, &shifts, active, w, &mut planes);
                assert_eq!(planes.len(), w);
                planes_to_lane_limbs(&planes, w, &mut got);
                let wg = w.div_ceil(64);
                for l in 0..PLANE_LANES {
                    let want = if active & (1 << l) == 0 {
                        Bits::zero(w)
                    } else {
                        // the frame placement applies per CS word; use the
                        // lane value as the sum word of a zero-carry pair
                        let cs = CsNumber::new(lanes[l].clone(), Bits::zero(src_w));
                        align_addend(&cs, w, shifts[l]).value.into_words().0
                    };
                    assert_eq!(
                        &got[l * wg..(l + 1) * wg],
                        want.limbs(),
                        "src_w {src_w} w {w} spread {spread:?} lane {l} shift {}",
                        shifts[l]
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_alignment_error_bounded(v in -(1i128<<30)..(1i128<<30), split in 0u64..256, shift in -40i64..40) {
            let a = cs(34, v, split);
            let al = align_addend(&a, 128, shift);
            if !al.dropped_high {
                let got = al.value.resolve().to_i128();
                let ideal = if shift >= 0 {
                    v << shift
                } else if (-shift) as u32 >= 127 {
                    if v < 0 { -1 } else { 0 }
                } else {
                    v >> (-shift)
                };
                prop_assert!(ideal - got <= 1 && got <= ideal, "got {} ideal {}", got, ideal);
            }
        }
    }
}
