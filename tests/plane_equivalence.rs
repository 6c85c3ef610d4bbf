//! Plane/scalar equivalence: the bit-plane chunk kernel (DESIGN.md §13)
//! must be a bit-exact drop-in for the scalar behavioral units — same
//! packed transport words, same exponents, same classes — on every
//! format, every special value, and every batch shape.
//!
//! Two layers of evidence:
//!
//! * a deterministic special-value matrix straight at the kernel
//!   (NaN / ±Inf / ±0 / subnormal / all-ones mantissas that ripple
//!   carries across PCS segment boundaries), chained so non-canonical
//!   carry-save operands flow back in as inputs;
//! * proptests over full-chunk, partial-chunk and single-row batches,
//!   both at the kernel and through the compiled tape.

use csfma::core::{plane_fma_chunk, CsFmaFormat, CsFmaUnit, CsOperand, FmaScratch, PlaneScratch};
use csfma::prelude::{FmaKind, FusionConfig, Round, SoftFloat, TapeBackend};
use csfma::softfloat::FpFormat;
use proptest::prelude::*;

const FORMATS: [CsFmaFormat; 5] = [
    CsFmaFormat::PCS_55_ZD,
    CsFmaFormat::PCS_58_LZA,
    CsFmaFormat::FCS_29_LZA,
    CsFmaFormat::PCS_27_SP,
    CsFmaFormat::FCS_15_SP,
];

fn b_format(fmt: &CsFmaFormat) -> FpFormat {
    if fmt.b_sig_bits == 24 {
        FpFormat::BINARY32
    } else {
        FpFormat::BINARY64
    }
}

/// The adversarial operand menu. `0x3fffffffffffffff` (1.999…) and its
/// kin carry all-ones mantissas: multiplying and accumulating them
/// ripples carries through every PCS segment boundary.
const MATRIX: [f64; 14] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,               // minimal subnormal
    1.0e-310,             // mid subnormal
    f64::MIN_POSITIVE,    // normal/subnormal border
    1.9999999999999998,   // all-ones mantissa
    -1.9999999999999998,  // …negated
    6.805646932770577e38, // all-ones mantissa, high exponent
    1.0,
    -1.5,
    0.0078125,
];

fn assert_lane(fmt: &CsFmaFormat, lane: usize, scalar: &CsOperand, plane: &CsOperand) {
    assert_eq!(
        scalar.class(),
        plane.class(),
        "{}: lane {lane} class diverged",
        fmt.name
    );
    assert_eq!(
        scalar.sign_hint(),
        plane.sign_hint(),
        "{}: lane {lane} sign diverged",
        fmt.name
    );
    assert_eq!(
        scalar.exp(),
        plane.exp(),
        "{}: lane {lane} exponent diverged",
        fmt.name
    );
    assert_eq!(
        scalar.pack(),
        plane.pack(),
        "{}: lane {lane} packed transport word diverged",
        fmt.name
    );
}

/// Run `links` chained FMA rounds over a 64-lane chunk on both paths
/// and require every lane bit-identical after every link.
fn chain_and_compare(fmt: CsFmaFormat, vals: &[f64], len: usize, links: usize) {
    let unit = CsFmaUnit::new(fmt);
    let bfmt = b_format(&fmt);
    let pick = |i: usize| vals[i % vals.len()];

    // bank layout: slot 0 = acc, slot 1 = mulc, slot 2 = dst
    let mut bank = vec![CsOperand::zero(fmt, false); 3 * 64];
    let mut scalar: Vec<CsOperand> = Vec::new();
    let mut scalar_acc: Vec<CsOperand> = Vec::new();
    let mut scalar_mulc: Vec<CsOperand> = Vec::new();
    for k in 0..len {
        let a = CsOperand::from_ieee(&SoftFloat::from_f64(bfmt, pick(3 * k)), fmt);
        let c = CsOperand::from_ieee(&SoftFloat::from_f64(bfmt, pick(3 * k + 2)), fmt);
        bank[k] = a.clone();
        bank[64 + k] = c.clone();
        scalar_acc.push(a);
        scalar_mulc.push(c);
    }
    let mut ps = PlaneScratch::default();
    let mut fs = FmaScratch::default();
    for link in 0..links {
        let b: Vec<SoftFloat> = (0..len)
            .map(|k| SoftFloat::from_f64(bfmt, pick(3 * k + 1 + link)))
            .collect();
        scalar.clear();
        for k in 0..len {
            scalar.push(unit.fma_with(&scalar_acc[k], &b[k], &scalar_mulc[k], &mut fs));
        }
        plane_fma_chunk(&unit, &mut bank, 0, 64, 128, &b, len, &mut ps);
        for k in 0..len {
            assert_lane(&fmt, k, &scalar[k], &bank[128 + k]);
        }
        // feed the (non-canonical) results back in as the accumulator
        for k in 0..len {
            bank[k] = bank[128 + k].clone();
            scalar_acc[k] = scalar[k].clone();
        }
    }
}

/// Deterministic special-value matrix: every format, every pairing from
/// the menu, three chained links so segment-boundary carries and
/// non-canonical operands appear.
#[test]
fn special_value_matrix_matches_scalar_on_all_formats() {
    for fmt in FORMATS {
        chain_and_compare(fmt, &MATRIX, 64, 3);
    }
}

/// Segment-carry boundary focus: saturating mantissas only, so the PCS
/// carry-reduction segments all produce pending carries.
#[test]
fn segment_carry_boundaries_match_scalar() {
    let vals = [
        1.9999999999999998,
        -1.9999999999999998,
        1.9999999999999996,
        3.9999999999999996,
        0.9999999999999999,
        -0.9999999999999999,
    ];
    for fmt in FORMATS {
        chain_and_compare(fmt, &vals, 64, 4);
    }
}

/// Run one chunk of per-lane `(a, b, c)` triples through the kernel and
/// the scalar unit, for two links: the second feeds every result back
/// as its lane's addend.
fn compare_lanes(fmt: CsFmaFormat, triples: &[(f64, f64, f64)]) {
    let unit = CsFmaUnit::new(fmt);
    let bfmt = b_format(&fmt);
    let sf = |v: f64| SoftFloat::from_f64(bfmt, v);
    let len = triples.len();
    let mut bank = vec![CsOperand::zero(fmt, false); 3 * 64];
    for (k, &(a, _, c)) in triples.iter().enumerate() {
        bank[k] = CsOperand::from_ieee(&sf(a), fmt);
        bank[64 + k] = CsOperand::from_ieee(&sf(c), fmt);
    }
    let b: Vec<SoftFloat> = triples.iter().map(|t| sf(t.1)).collect();
    let (mut ps, mut fs) = (PlaneScratch::default(), FmaScratch::default());
    for _ in 0..2 {
        let want: Vec<CsOperand> = (0..len)
            .map(|k| unit.fma_with(&bank[k], &b[k], &bank[64 + k], &mut fs))
            .collect();
        plane_fma_chunk(&unit, &mut bank, 0, 64, 128, &b, len, &mut ps);
        for (k, w) in want.iter().enumerate() {
            assert_lane(&fmt, k, w, &bank[128 + k]);
            bank[k] = bank[128 + k].clone();
        }
    }
}

/// Lanes whose addend dominates the product (|A| far above |B·C|, so
/// the window plan pulls the product down by `extra > 0`, by a
/// different amount per lane) mixed with ordinary lanes: only then do
/// the product planes need the aligner's lane-masked stages, which a
/// chunk with one shared product shift never runs. Also a chunk with a
/// single datapath lane and one where every lane takes the exception
/// path.
#[test]
fn mixed_product_shifts_match_scalar() {
    // 2^(160 + k) against |B·C| < 2: past every binary64 format's
    // window headroom, so `extra` grows with `k`
    let dominant = |k: usize| (-(2f64.powi(160 + k as i32)), 1.5, 1.25 + k as f64 / 64.0);
    let ordinary = |k: usize| (0.75 + k as f64, -1.5, 2.0 - k as f64 / 32.0);
    let exception = |k: usize| match k % 3 {
        0 => (f64::NAN, 1.0, 2.0),
        1 => (1.0, 0.0, 2.0),
        _ => (1.0, 3.0, f64::INFINITY),
    };
    let mixed: Vec<_> = (0..64)
        .map(|k| match k % 5 {
            0 | 3 => dominant(k),
            1 => ordinary(k),
            2 => (0.0, 1.5, 2.5 + k as f64), // zero addend
            _ => exception(k),
        })
        .collect();
    let single: Vec<_> = (0..64)
        .map(|k| if k == 37 { dominant(k) } else { exception(k) })
        .collect();
    let all_exceptions: Vec<_> = (0..64).map(exception).collect();
    for fmt in [
        CsFmaFormat::PCS_55_ZD,
        CsFmaFormat::PCS_58_LZA,
        CsFmaFormat::FCS_29_LZA,
    ] {
        compare_lanes(fmt, &mixed);
        compare_lanes(fmt, &mixed[..23]);
        compare_lanes(fmt, &single);
        compare_lanes(fmt, &all_exceptions);
    }
}

fn stimulus() -> impl Strategy<Value = f64> {
    (0usize..10, any::<u64>(), -1.0e6f64..1.0e6).prop_map(|(class, bits, x)| match class {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::from_bits(bits % (1u64 << 52)),
        6 => -f64::from_bits(bits % (1u64 << 52)),
        7 => f64::from_bits(bits),
        8 => f64::MIN_POSITIVE * (1.0 + (bits % 8) as f64),
        _ => x,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel-level equivalence at every batch shape: single row,
    /// ragged partial chunk, full chunk — with chained links.
    #[test]
    fn plane_kernel_matches_scalar_at_any_length(
        fmt_pick in 0usize..FORMATS.len(),
        len_pick in 0usize..5,
        vals in prop::collection::vec(stimulus(), 8..24),
    ) {
        let len = [1usize, 2, 17, 63, 64][len_pick];
        chain_and_compare(FORMATS[fmt_pick], &vals, len, 2);
    }

    /// Tape-level equivalence: the bit backend (plane kernel on full
    /// chunks, scalar tail) against the all-scalar oracle backend, for
    /// batch sizes straddling the chunk boundary.
    #[test]
    fn tape_bit_backend_matches_oracle_at_any_batch_size(
        rows_pick in 0usize..6,
        kind_pick: bool,
        vals in prop::collection::vec(stimulus(), 4..16),
    ) {
        let g = csfma::hls::parse_program(
            "x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;",
        ).unwrap();
        let n_rows = [1usize, 63, 64, 65, 127, 130][rows_pick];
        let kind = if kind_pick { FmaKind::Pcs } else { FmaKind::Fcs };
        let fused = csfma::hls::fuse_critical_paths(&g, &FusionConfig::new(kind)).fused;
        let tape = csfma::hls::compile(&fused).unwrap();
        let ni = tape.num_inputs();
        let rows: Vec<f64> = (0..n_rows * ni).map(|i| vals[i % vals.len()]).collect();
        let bit = tape.eval_batch(TapeBackend::BitAccurate, &rows, 2);
        let oracle = tape.eval_batch(TapeBackend::Oracle, &rows, 1);
        for (i, (x, y)) in bit.iter().zip(oracle.iter()).enumerate() {
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "{:?} rows={}: flat output {} diverged ({:e} vs {:e})",
                kind, n_rows, i, x, y
            );
        }
    }
}

/// The transport-format round data survives the plane path too: convert
/// the chained results back to IEEE and require equality with the
/// scalar chain's conversion (a weaker but user-visible invariant,
/// checked on top of the packed-word equality above).
#[test]
fn plane_results_convert_to_identical_ieee() {
    let fmt = CsFmaFormat::PCS_55_ZD;
    let unit = CsFmaUnit::new(fmt);
    let mut bank = vec![CsOperand::zero(fmt, false); 3 * 64];
    let mut fs = FmaScratch::default();
    let mut ps = PlaneScratch::default();
    let vals: Vec<f64> = (0..64).map(|k| (k as f64 - 31.5) * 0.3125).collect();
    for k in 0..64 {
        bank[k] = CsOperand::from_f64(vals[k], fmt);
        bank[64 + k] = CsOperand::from_f64(vals[63 - k], fmt);
    }
    let b: Vec<SoftFloat> = vals
        .iter()
        .map(|v| SoftFloat::from_f64(FpFormat::BINARY64, v * 1.75))
        .collect();
    plane_fma_chunk(&unit, &mut bank, 0, 64, 128, &b, 64, &mut ps);
    for k in 0..64 {
        let scalar = unit.fma_with(
            &CsOperand::from_f64(vals[k], fmt),
            &b[k],
            &CsOperand::from_f64(vals[63 - k], fmt),
            &mut fs,
        );
        assert_eq!(
            scalar
                .to_ieee(FpFormat::BINARY64, Round::NearestEven)
                .to_f64()
                .to_bits(),
            bank[128 + k]
                .to_ieee(FpFormat::BINARY64, Round::NearestEven)
                .to_f64()
                .to_bits(),
            "lane {k} IEEE conversion diverged"
        );
    }
}
