//! Unit and property tests for `Bits`, checked against `u128`/`i128`
//! reference semantics.

use crate::Bits;
use proptest::prelude::*;
use std::cmp::Ordering;

#[test]
fn zero_and_ones_basics() {
    let z = Bits::zero(385);
    assert!(z.is_zero());
    assert_eq!(z.width(), 385);
    assert_eq!(z.leading_zeros(), 385);
    let o = Bits::ones(385);
    assert!(o.is_all_ones());
    assert_eq!(o.leading_ones(), 385);
    assert_eq!(o.count_ones(), 385);
}

#[test]
fn from_u64_truncates() {
    let b = Bits::from_u64(4, 0xff);
    assert_eq!(b.to_u64(), 0xf);
}

#[test]
fn from_i128_negative_wide() {
    let b = Bits::from_i128(200, -5);
    assert!(b.sign_bit());
    assert_eq!(b.to_i128(), -5);
    assert_eq!(b.leading_ones(), 197); // -5 = ...11111011
}

#[test]
fn assign_limbs_keeps_width_and_masks_the_top() {
    // a dirty 110-bit word takes a shorter and a longer limb slice in
    // place, and ends up equal to the freshly built value each time
    let mut b = Bits::ones(110);
    b.assign_limbs(&[0x1234]);
    assert_eq!(b, Bits::from_u64(110, 0x1234));
    b.assign_limbs(&[!0, !0, !0]);
    assert_eq!(b, Bits::ones(110));
    let mut z = Bits::ones(0);
    z.assign_limbs(&[7]);
    assert_eq!(z, Bits::zero(0));
}

#[test]
fn one_hot_positions() {
    let b = Bits::one_hot(130, 128);
    assert!(b.bit(128));
    assert_eq!(b.count_ones(), 1);
    assert_eq!(b.leading_zeros(), 1);
}

#[test]
#[should_panic]
fn one_hot_out_of_range_panics() {
    let _ = Bits::one_hot(8, 8);
}

#[test]
fn from_bin_str_msb_first() {
    let b = Bits::from_bin_str(8, "1010_0001");
    assert_eq!(b.to_u64(), 0xA1);
}

#[test]
fn carrying_add_carry_out_at_width() {
    // Carry must be observed at the logical width, not at the limb edge.
    let a = Bits::from_u64(5, 0b11111);
    let b = Bits::from_u64(5, 1);
    let (sum, carry) = a.carrying_add(&b);
    assert!(sum.is_zero());
    assert!(carry);
}

#[test]
fn carrying_add_carry_out_at_limb_boundary() {
    let a = Bits::ones(64);
    let b = Bits::from_u64(64, 1);
    let (sum, carry) = a.carrying_add(&b);
    assert!(sum.is_zero());
    assert!(carry);
}

#[test]
fn neg_is_additive_inverse() {
    let a = Bits::from_u128(100, 0xdead_beef_cafe);
    let s = a.wrapping_add(&a.wrapping_neg());
    assert!(s.is_zero());
}

#[test]
fn mul_full_never_wraps() {
    let a = Bits::ones(53);
    let b = Bits::ones(110);
    let p = a.mul_full(&b);
    assert_eq!(p.width(), 163);
    // (2^53-1)(2^110-1) = 2^163 - 2^110 - 2^53 + 1
    let expect = Bits::one_hot(164, 163)
        .wrapping_sub(&Bits::one_hot(164, 110))
        .wrapping_sub(&Bits::one_hot(164, 53))
        .wrapping_add(&Bits::from_u64(164, 1));
    assert_eq!(p.zext(164), expect);
}

#[test]
fn mul_full_signed_signs() {
    let a = Bits::from_i128(60, -7);
    let b = Bits::from_i128(60, 9);
    assert_eq!(a.mul_full_signed(&b).to_i128(), -63);
    let c = Bits::from_i128(60, -7);
    let d = Bits::from_i128(60, -9);
    assert_eq!(c.mul_full_signed(&d).to_i128(), 63);
}

#[test]
fn shifts_cross_limbs() {
    let a = Bits::one_hot(200, 0);
    assert!(a.shl(150).bit(150));
    assert!(a.shl(150).shr(150).bit(0));
    assert!(a.shl(200).is_zero());
    assert!(a.shr(1).is_zero());
}

#[test]
fn sar_fills_sign() {
    let a = Bits::from_i128(100, -256);
    assert_eq!(a.sar(4).to_i128(), -16);
    assert_eq!(a.sar(100).to_i128(), -1); // saturates to all-ones
    let p = Bits::from_i128(100, 256);
    assert_eq!(p.sar(4).to_i128(), 16);
}

#[test]
fn redundant_sign_bits_examples() {
    assert_eq!(Bits::from_i128(8, -1).redundant_sign_bits(), 7);
    assert_eq!(Bits::from_i128(8, 1).redundant_sign_bits(), 6);
    assert_eq!(Bits::from_i128(8, -128).redundant_sign_bits(), 0);
    assert_eq!(Bits::zero(8).redundant_sign_bits(), 7);
}

#[test]
fn display_groups_bytes() {
    let b = Bits::from_u64(16, 0xA1B2);
    assert_eq!(format!("{b}"), "10100001_10110010");
}

#[test]
fn zero_width_value_is_inert() {
    let z = Bits::zero(0);
    assert!(z.is_zero());
    assert!(!z.sign_bit());
    let z2 = z.wrapping_add(&Bits::zero(0));
    assert!(z2.is_zero());
    assert_eq!(z.concat(&Bits::from_u64(4, 5)).to_u64(), 5);
}

fn bits_of_u128(w: usize, v: u128) -> Bits {
    Bits::from_u128(w, v)
}

fn mask(w: usize) -> u128 {
    if w >= 128 {
        !0
    } else {
        (1u128 << w) - 1
    }
}

proptest! {
    #[test]
    fn prop_add_matches_u128(w in 1usize..=120, a: u128, b: u128) {
        let a = a & mask(w);
        let b = b & mask(w);
        let got = bits_of_u128(w, a).wrapping_add(&bits_of_u128(w, b));
        prop_assert_eq!(got.to_u128(), a.wrapping_add(b) & mask(w));
    }

    #[test]
    fn prop_sub_matches_u128(w in 1usize..=120, a: u128, b: u128) {
        let a = a & mask(w);
        let b = b & mask(w);
        let got = bits_of_u128(w, a).wrapping_sub(&bits_of_u128(w, b));
        prop_assert_eq!(got.to_u128(), a.wrapping_sub(b) & mask(w));
    }

    #[test]
    fn prop_mul_matches_u128(w in 1usize..=60, a: u64, b: u64) {
        let a = (a as u128) & mask(w);
        let b = (b as u128) & mask(w);
        let got = bits_of_u128(w, a).mul_full(&bits_of_u128(w, b));
        prop_assert_eq!(got.to_u128(), a * b);
    }

    #[test]
    fn prop_shl_matches_u128(w in 1usize..=120, a: u128, n in 0usize..130) {
        let a = a & mask(w);
        let expect = if n >= w { 0 } else { (a << n) & mask(w) };
        prop_assert_eq!(bits_of_u128(w, a).shl(n).to_u128(), expect);
    }

    #[test]
    fn prop_shr_matches_u128(w in 1usize..=120, a: u128, n in 0usize..130) {
        let a = a & mask(w);
        let expect = if n >= w { 0 } else { a >> n };
        prop_assert_eq!(bits_of_u128(w, a).shr(n).to_u128(), expect);
    }

    #[test]
    fn prop_sar_matches_i128(w in 2usize..=120, a: i128, n in 0usize..130) {
        let v = Bits::from_i128(w, a);
        let signed = v.to_i128();
        let expect = if n >= w {
            if signed < 0 { -1 } else { 0 }
        } else {
            signed >> n
        };
        prop_assert_eq!(v.sar(n).to_i128(), expect);
    }

    #[test]
    fn prop_cmp_matches(w in 1usize..=120, a: u128, b: u128) {
        let a = a & mask(w);
        let b = b & mask(w);
        prop_assert_eq!(bits_of_u128(w, a).unsigned_cmp(&bits_of_u128(w, b)), a.cmp(&b));
    }

    #[test]
    fn prop_signed_cmp_matches(w in 2usize..=120, a: i128, b: i128) {
        let va = Bits::from_i128(w, a);
        let vb = Bits::from_i128(w, b);
        let expect: Ordering = va.to_i128().cmp(&vb.to_i128());
        prop_assert_eq!(va.signed_cmp(&vb), expect);
    }

    #[test]
    fn prop_sext_preserves_signed_value(w in 2usize..=100, a: i128, extra in 0usize..200) {
        let v = Bits::from_i128(w, a);
        prop_assert_eq!(v.sext(w + extra).to_i128(), v.to_i128());
    }

    #[test]
    fn prop_zext_preserves_unsigned_value(w in 1usize..=120, a: u128, extra in 0usize..200) {
        let a = a & mask(w);
        let v = bits_of_u128(w, a);
        prop_assert_eq!(v.zext(w + extra).to_u128(), a);
    }

    #[test]
    fn prop_leading_zeros_matches(w in 1usize..=120, a: u128) {
        let a = a & mask(w);
        let expect = if a == 0 { w } else { w - (128 - a.leading_zeros() as usize) };
        prop_assert_eq!(bits_of_u128(w, a).leading_zeros(), expect);
    }

    #[test]
    fn prop_blocks_roundtrip(bw in 1usize..=60, count in 1usize..=6, seed: u64) {
        let w = bw * count;
        let mut v = Bits::zero(w);
        let mut s = seed;
        for i in 0..w {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            v.set_bit(i, s >> 63 == 1);
        }
        let blocks = v.blocks(bw, count);
        prop_assert_eq!(Bits::from_blocks(&blocks), v);
    }

    #[test]
    fn prop_mul_signed_matches_i128(a in -(1i128<<50)..(1i128<<50), b in -(1i128<<50)..(1i128<<50)) {
        let va = Bits::from_i128(55, a);
        let vb = Bits::from_i128(55, b);
        prop_assert_eq!(va.mul_full_signed(&vb).to_i128(), a * b);
    }
}

mod bitops_and_formatting {
    use super::*;

    #[test]
    fn bit_logic_ops() {
        let a = Bits::from_u64(8, 0b1100_1010);
        let b = Bits::from_u64(8, 0b1010_0110);
        assert_eq!((&a & &b).to_u64(), 0b1000_0010);
        assert_eq!((&a | &b).to_u64(), 0b1110_1110);
        assert_eq!((&a ^ &b).to_u64(), 0b0110_1100);
        assert_eq!((!&a).to_u64(), 0b0011_0101);
    }

    #[test]
    fn debug_format_hex() {
        let b = Bits::from_u128(72, 0xAB_1234_5678_9ABC_DEF0);
        let s = format!("{b:?}");
        assert!(s.starts_with("Bits<72>(0x"), "{s}");
        assert!(s.contains("ab"), "{s}");
    }

    #[test]
    fn carrying_add_mixed_widths_panics() {
        let a = Bits::zero(8);
        let b = Bits::zero(9);
        assert!(std::panic::catch_unwind(|| a.carrying_add(&b)).is_err());
    }

    #[test]
    fn from_bin_str_rejects_garbage() {
        assert!(std::panic::catch_unwind(|| Bits::from_bin_str(4, "10x1")).is_err());
        assert!(std::panic::catch_unwind(|| Bits::from_bin_str(2, "101")).is_err());
    }

    proptest! {
        #[test]
        fn prop_xor_is_add_without_carry(w in 1usize..100, a: u128, b: u128) {
            let m = if w >= 128 { !0u128 } else { (1u128 << w) - 1 };
            let (a, b) = (a & m, b & m);
            // a + b == (a ^ b) + 2*(a & b): the identity every CSA uses
            let x = Bits::from_u128(w, a);
            let y = Bits::from_u128(w, b);
            let sum = x.wrapping_add(&y);
            let via_csa = (&x ^ &y).wrapping_add(&(&x & &y).shl(1));
            prop_assert_eq!(sum, via_csa);
        }

        #[test]
        fn prop_not_not_identity(w in 1usize..150, a: u128) {
            let m = if w >= 128 { !0u128 } else { (1u128 << w) - 1 };
            let x = Bits::from_u128(w, a & m);
            prop_assert_eq!(!&(!&x), x);
        }

        #[test]
        fn prop_display_parse_roundtrip(w in 1usize..80, a: u128) {
            let m = if w >= 128 { !0u128 } else { (1u128 << w) - 1 };
            let x = Bits::from_u128(w, a & m);
            let s = format!("{}", x);
            let back = Bits::from_bin_str(w, &s);
            prop_assert_eq!(back, x);
        }
    }
}
