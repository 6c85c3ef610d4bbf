//! Mantissa multiplier with integrated rounding correction (Fig. 6).
//!
//! The multiplier computes `B_M * C_M` where `C_M` arrives as a *signed
//! carry-save* mantissa (two's complement, the time-critical chained input)
//! and `B_M` is an unsigned IEEE-style significand (the non-critical
//! input). Because `C_M` is the unrounded output of the previous FMA, the
//! rounding decision for `C` is folded into the CSA tree: the product is
//! formed with the unrounded `C_M` and, when rounding would have
//! incremented `C_M` by one ULP, one extra `B_M` row corrects the result
//! (`B*(C+1) = B*C + B`), adding at most one level to the tree.

use csfma_bits::Bits;
use csfma_carrysave::{
    reduce_to_cs, reduce_to_cs_with, CsNumber, FaultHook, FaultSite, ReduceScratch,
    COMPRESSOR_HEADROOM_BITS,
};

/// Output of the mantissa multiplier: the CS product plus the structural
/// facts the fabric timing model charges for.
#[derive(Clone, Debug)]
pub struct MultiplierOutput {
    /// Product in carry-save form, `c_width + b_width + 2` bits (two
    /// headroom bits keep the signed two-word sum exact through the
    /// compressors), two's complement (sign of `C` embedded; the caller
    /// applies `B`'s sign).
    pub product: CsNumber,
    /// Number of partial-product rows fed to the CSA tree.
    pub rows: usize,
    /// 3:2 compressor levels on the tree's critical path.
    pub tree_levels: usize,
}

/// Multiply a signed CS mantissa `c` by an unsigned significand `b`,
/// optionally adding the rounding-correction row (`+ b`, i.e. one ULP of
/// `c`).
///
/// Value contract (signed two-word sum, the convention of the whole
/// datapath): `sext(product.sum) + sext(product.carry) = (sext(c.sum) +
/// sext(c.carry)) * b + (round_increment ? b : 0)`, exact.
///
/// The output is two bits wider than the nominal `c.width() + b.width()`
/// product: a 3:2 compressor preserves the signed two-word sum only while
/// every word keeps at least one redundant sign bit (the `majority << 1`
/// drops the top weight otherwise), so the tree runs with two bits of
/// headroom. Hardware keeps the same guard bits in its CSA tree wiring.
///
/// Structurally faithful: one AND-row per set bit position of `b` for each
/// of the two CS words of `c` (the paper's point in Sec. III-D — the *row
/// count* depends only on the width of the smaller operand `B_M`), reduced
/// by a 3:2 tree.
pub fn multiply_cs_by_binary(c: &CsNumber, b: &Bits, round_increment: bool) -> MultiplierOutput {
    multiply_cs_by_binary_with(
        c,
        b,
        round_increment,
        &mut Vec::new(),
        &mut ReduceScratch::default(),
    )
}

/// [`multiply_cs_by_binary`] with caller-provided working storage — the
/// batch-friendly entry point. `rows` holds the partial-product rows and
/// `scratch` the Wallace-tree layers; a batch evaluator keeps one of
/// each per worker so millions of multiplies allocate nothing. Results
/// are identical to [`multiply_cs_by_binary`].
pub fn multiply_cs_by_binary_with(
    c: &CsNumber,
    b: &Bits,
    round_increment: bool,
    rows: &mut Vec<Bits>,
    scratch: &mut ReduceScratch,
) -> MultiplierOutput {
    let out_width = c.width() + b.width() + COMPRESSOR_HEADROOM_BITS;
    // sign-extend the two's complement multiplicand words once
    let c_sum = c.sum().sext(out_width);
    let c_carry = c.carry().sext(out_width);

    rows.clear();
    rows.reserve(2 * b.width() + 1);
    let zero = Bits::zero(out_width);
    for i in 0..b.width() {
        if b.bit(i) {
            rows.push(c_sum.shl(i));
            rows.push(c_carry.shl(i));
        } else {
            // fixed-shape tree: clear multiplier bits contribute all-zero
            // rows so the reduction network's wiring is independent of the
            // operand value — hardware CSA trees are fixed wiring, and the
            // bit-plane kernel evaluates 64 lanes through one such tree in
            // lockstep, so every lane must take the same shape
            rows.push(zero.clone());
            rows.push(zero.clone());
        }
    }
    rows.push(if round_increment {
        b.zext(out_width)
    } else {
        zero
    });
    let reduced = reduce_to_cs_with(rows, out_width, scratch);
    MultiplierOutput {
        product: reduced.cs,
        rows: rows.len(),
        tree_levels: reduced.levels,
    }
}

/// Apply a sign to a CS product without resolving carries: negation stays
/// in CS form via one extra compression (`-(s+c) = !s + !c + 2`).
///
/// The non-negating case must leave the pair *untouched* — an extra
/// `csa3_2(s, c, 0)` stage is not value-safe here because the product
/// words are not guaranteed a redundant sign bit each, so the dropped
/// top majority bit can shift the signed two-word sum by `2^w`. The
/// bit-plane kernel reproduces the conditional with a per-lane select
/// between the negation stage's output and the original words.
pub fn apply_sign(product: CsNumber, negate: bool) -> CsNumber {
    if negate {
        product.negate()
    } else {
        product
    }
}

/// Fault-injection hook point at the multiplier output: let `hook`
/// strike the product's sum ([`FaultSite::MulSum`]) and carry
/// ([`FaultSite::MulCarry`]) words. The mod-3 residue check in the FMA
/// engine (`csfma-core`) runs over the returned pair, so a strike here
/// propagates into the datapath exactly like a CSA-tree upset would.
pub fn tamper_product(product: CsNumber, hook: &dyn FaultHook) -> CsNumber {
    let mut s = product.sum().clone();
    let mut c = product.carry().clone();
    hook.tamper_bits(FaultSite::MulSum, &mut s);
    hook.tamper_bits(FaultSite::MulCarry, &mut c);
    CsNumber::new(s, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cs_from_i128(width: usize, v: i128, split: u64) -> CsNumber {
        // split a value into a (sum, carry) pair deterministically
        let s = Bits::from_i128(width, v.wrapping_sub(split as i128));
        let c = Bits::from_u64(width, split).zext(width);
        CsNumber::new(s, c)
    }

    #[test]
    fn small_product_with_correction() {
        // C = 5 (as CS 3+2), B = 7: product 35; with correction 42
        let c = CsNumber::new(Bits::from_u64(8, 3), Bits::from_u64(8, 2));
        let b = Bits::from_u64(4, 7);
        let out = multiply_cs_by_binary(&c, &b, false);
        assert_eq!(out.product.resolve().to_u64(), 35);
        let out2 = multiply_cs_by_binary(&c, &b, true);
        assert_eq!(out2.product.resolve().to_u64(), 42);
    }

    #[test]
    fn negative_multiplicand() {
        let c = cs_from_i128(12, -9, 5);
        let b = Bits::from_u64(4, 3);
        let out = multiply_cs_by_binary(&c, &b, false);
        assert_eq!(out.product.resolve().to_i128(), -27);
    }

    #[test]
    fn row_count_depends_on_b_only() {
        // Sec. III-D: widening C must not increase the row count.
        let b = Bits::ones(53);
        let narrow = CsNumber::zero(54);
        let wide = CsNumber::zero(110);
        let r1 = multiply_cs_by_binary(&narrow, &b, false);
        let r2 = multiply_cs_by_binary(&wide, &b, false);
        assert_eq!(r1.rows, r2.rows);
        assert_eq!(r1.tree_levels, r2.tree_levels);
    }

    #[test]
    fn apply_sign_negates_mod_2w() {
        let c = CsNumber::new(Bits::from_u64(10, 100), Bits::from_u64(10, 23));
        let n = apply_sign(c.clone(), true);
        assert_eq!(n.resolve().to_i128(), -123);
        let p = apply_sign(c, false);
        assert_eq!(p.resolve().to_u64(), 123);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn prop_product_value(cv in -(1i128<<40)..(1i128<<40), split in 0u64..1024, bv in 0u64..(1<<20), inc: bool) {
            let c = cs_from_i128(44, cv, split);
            let b = Bits::from_u64(20, bv);
            let out = multiply_cs_by_binary(&c, &b, inc);
            let want = cv * bv as i128 + if inc { bv as i128 } else { 0 };
            prop_assert_eq!(out.product.resolve().to_i128(), want);
            // the signed two-word sum (what downstream sign extension sees)
            // must match too — this is where the +2 headroom matters
            prop_assert_eq!(out.product.resolve_signed_extended().to_i128(), want);
        }

        #[test]
        fn prop_sign_application_signed_sum(cv in -(1i128<<40)..(1i128<<40), split in 0u64..1024, bv in 0u64..(1<<20), neg: bool) {
            let c = cs_from_i128(44, cv, split);
            let b = Bits::from_u64(20, bv);
            let out = apply_sign(multiply_cs_by_binary(&c, &b, false).product, neg);
            let want = cv * bv as i128 * if neg { -1 } else { 1 };
            prop_assert_eq!(out.resolve_signed_extended().to_i128(), want);
        }

        #[test]
        fn prop_rows_bound(bv in 0u64..(1<<16), inc: bool) {
            let c = CsNumber::zero(32);
            let b = Bits::from_u64(16, bv);
            let out = multiply_cs_by_binary(&c, &b, inc);
            prop_assert!(out.rows <= 2 * 16 + 1);
        }
    }
}

/// Radix-4 Booth recoding of the unsigned multiplier `b`: digits in
/// {-2,-1,0,1,2}, one per bit pair — halving the partial-product rows and
/// therefore the CSA-tree height (the alternative the DSP48E1's internal
/// 25x18 cores make moot on Virtex-6, but the classic exploration axis
/// for LUT-based multipliers).
pub fn booth_digits(b: &Bits) -> Vec<i8> {
    let n = b.width().div_ceil(2);
    let mut out = Vec::with_capacity(n);
    let bit = |i: i64| i >= 0 && b.bit(i as usize);
    for k in 0..n {
        let i = 2 * k as i64;
        // classic radix-4 table over the triple b[i+1] b[i] b[i-1]
        let code = (bit(i + 1) as i8, bit(i) as i8, bit(i - 1) as i8);
        let d = match code {
            (0, 0, 0) => 0,
            (0, 0, 1) => 1,
            (0, 1, 0) => 1,
            (0, 1, 1) => 2,
            (1, 0, 0) => -2,
            (1, 0, 1) => -1,
            (1, 1, 0) => -1,
            (1, 1, 1) => 0,
            _ => unreachable!(),
        };
        out.push(d);
    }
    // an unsigned multiplier whose top pair encodes a negative digit needs
    // one extra correction digit
    if b.width().is_multiple_of(2) && b.bit(b.width() - 1) {
        out.push(1);
    }
    out
}

/// Booth-recoded variant of [`multiply_cs_by_binary`]: identical value
/// contract, roughly half the partial-product rows.
pub fn multiply_cs_by_binary_booth(
    c: &CsNumber,
    b: &Bits,
    round_increment: bool,
) -> MultiplierOutput {
    // booth digits can overshoot by one pair beyond the plain headroom
    let out_width = c.width() + b.width() + COMPRESSOR_HEADROOM_BITS + 2;
    let c_sum = c.sum().sext(out_width);
    let c_carry = c.carry().sext(out_width);
    let neg = |v: &Bits| v.wrapping_neg();

    let mut rows: Vec<Bits> = Vec::new();
    for (k, &d) in booth_digits(b).iter().enumerate() {
        if d == 0 {
            continue;
        }
        let shift = 2 * k + usize::from(d.abs() == 2);
        for word in [&c_sum, &c_carry] {
            let row = if d < 0 { neg(word) } else { (*word).clone() };
            rows.push(row.shl(shift));
        }
    }
    if round_increment {
        rows.push(b.zext(out_width));
    }
    let reduced = reduce_to_cs(&rows, out_width);
    MultiplierOutput {
        product: reduced.cs,
        rows: rows.len(),
        tree_levels: reduced.levels,
    }
}

#[cfg(test)]
mod booth_tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn booth_digit_values() {
        // 0b0110 = 6 -> digits (LSB pair first): b1b0|b-1 = 10|0 -> -2,
        // b3b2|b1 = 01|1 -> 2 : 6 = -2 + 2*4
        let d = booth_digits(&Bits::from_u64(4, 6));
        let val: i64 = d
            .iter()
            .enumerate()
            .map(|(k, &x)| (x as i64) << (2 * k))
            .sum();
        assert_eq!(val, 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_booth_digits_reconstruct(w in 1usize..24, bv: u64) {
            let m = if w >= 64 { !0u64 } else { (1u64 << w) - 1 };
            let b = Bits::from_u64(w, bv & m);
            let val: i64 = booth_digits(&b)
                .iter()
                .enumerate()
                .map(|(k, &d)| (d as i64) << (2 * k))
                .sum();
            prop_assert_eq!(val as u64, bv & m);
        }

        #[test]
        fn prop_booth_matches_plain(cv in -(1i128<<30)..(1i128<<30), split in 0u64..512, bv in 0u64..(1u64<<16), inc: bool) {
            let c = CsNumber::new(
                Bits::from_i128(34, cv.wrapping_sub(split as i128)),
                Bits::from_u64(34, split),
            );
            let b = Bits::from_u64(16, bv);
            let plain = multiply_cs_by_binary(&c, &b, inc);
            let booth = multiply_cs_by_binary_booth(&c, &b, inc);
            prop_assert_eq!(
                booth.product.resolve_signed_extended().to_i128(),
                plain.product.resolve_signed_extended().to_i128()
            );
            // the architectural payoff is on the worst case: at most one
            // digit per bit pair (plus correction digit and inc row)
            prop_assert!(booth.rows <= 2 * (16 / 2 + 1) + 1, "{}", booth.rows);
        }
    }

    #[test]
    fn booth_halves_tree_depth_at_fma_scale() {
        let c = CsNumber::zero(110);
        let b = Bits::ones(53);
        let plain = multiply_cs_by_binary(&c, &b, false);
        let booth = multiply_cs_by_binary_booth(&c, &b, false);
        assert!(booth.rows < plain.rows / 2 + 4);
        assert!(booth.tree_levels < plain.tree_levels);
    }
}
