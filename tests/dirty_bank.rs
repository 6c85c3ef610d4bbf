//! In-place writes into a dirty carry-save register bank.
//!
//! The plane kernel's writeback and the `IeeeToCs` conversion overwrite
//! a register slot in place instead of building a fresh operand. A
//! pooled `ChunkScratch` is recycled across jobs and tapes with its banks
//! left dirty (DESIGN.md §14.4), which is sound only if every write
//! defines every field of the slot, whatever the slot held: an operand
//! of another format or width, or an exception class. These tests fill
//! banks with such slots and require every written slot to equal a
//! freshly built operand field for field: format, class, sign hint,
//! exponent, and both words of the mantissa and of the rounding data.
//! Then three fused tapes of different formats run back to back on one
//! thread, so the pooled scratch is recycled across formats and widths,
//! and their bytes must equal the oracle backend's.

use csfma::core::{plane_fma_chunk, CsFmaFormat, CsFmaUnit, CsOperand, Normalizer, PlaneScratch};
use csfma::hls::{
    compile_with, fuse_critical_paths, parse_program, CompileOptions, FmaKind, FusionConfig,
    Profiler, Tape, TapeBackend,
};
use csfma::softfloat::{FpClass, FpFormat, SoftFloat};

/// The toy PCS unit of `tests/toy_exhaustive.rs`: 4-digit blocks, a
/// carry every 2nd digit, a 3-bit `B` significand.
const TOY_PCS: CsFmaFormat = CsFmaFormat {
    name: "toy PCS (4b blocks, ZD)",
    block_bits: 4,
    mant_blocks: 2,
    left_blocks: 2,
    right_blocks: 2,
    carry_spacing: Some(2),
    normalizer: Normalizer::ZeroDetect,
    b_sig_bits: 3,
};

/// The toy FCS unit of `tests/toy_exhaustive.rs`: three 4-digit blocks,
/// early LZA.
const TOY_FCS: CsFmaFormat = CsFmaFormat {
    name: "toy FCS (4c blocks, early LZA)",
    block_bits: 4,
    mant_blocks: 3,
    left_blocks: 3,
    right_blocks: 3,
    carry_spacing: None,
    normalizer: Normalizer::EarlyLza,
    b_sig_bits: 3,
};

/// The 6-bit minifloat the toy units take as `B`.
fn toy_b() -> FpFormat {
    FpFormat::new(3, 2)
}

const F64: FpFormat = FpFormat::BINARY64;

/// The transport formats a tape can use (binary64 `B`).
const TAPE_FORMATS: [CsFmaFormat; 3] = [
    CsFmaFormat::PCS_55_ZD,
    CsFmaFormat::FCS_29_LZA,
    CsFmaFormat::PCS_58_LZA,
];

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

    /// A binary64 value: mostly moderate normals of both signs, with
    /// every class mixed in.
    fn f64(&mut self) -> f64 {
        match self.below(16) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            5 => f64::MIN_POSITIVE / 4.0, // subnormal: flushed to zero
            _ => (self.below(4001) as f64 - 2000.0) * 0.0137,
        }
    }

    /// A normal binary64 value of either sign.
    fn normal(&mut self) -> f64 {
        (1 + self.below(4000)) as f64 * if self.below(2) == 0 { 0.019 } else { -0.023 }
    }

    /// A normal value of the toy `B` format.
    fn toy(&mut self) -> SoftFloat {
        let f = toy_b();
        let exp = f.emin() + self.below((f.emax() - f.emin() + 1) as usize) as i32;
        let frac = self.next() & ((1 << f.frac_bits) - 1);
        SoftFloat::from_parts(f, self.below(2) == 1, exp, frac)
    }
}

/// A result of `fmt`'s unit in genuine carry-save form (non-zero carry
/// and rounding words, as far as the values give them): two chained
/// FMAs over normal inputs.
fn cs_result(fmt: CsFmaFormat, rng: &mut Rng) -> CsOperand {
    let unit = CsFmaUnit::new(fmt);
    let value = |r: &mut Rng| {
        if fmt.b_sig_bits == 53 {
            SoftFloat::from_f64(F64, r.normal())
        } else {
            r.toy()
        }
    };
    let mut acc = CsOperand::from_ieee(&value(rng), fmt);
    for _ in 0..2 {
        let c = CsOperand::from_ieee(&value(rng), fmt);
        acc = unit.fma(&acc, &value(rng), &c);
    }
    acc
}

/// One dirty slot for a bank that `target` will write: carry-save
/// results of the other formats and of the toy units, same-format
/// results, and the exception classes of several formats.
fn dirty_slot(target: CsFmaFormat, i: usize, rng: &mut Rng) -> CsOperand {
    let others: Vec<CsFmaFormat> = TAPE_FORMATS.into_iter().filter(|f| *f != target).collect();
    let other = others[i % others.len()];
    match i % 10 {
        0 => cs_result(other, rng),
        1 => cs_result(TOY_PCS, rng),
        2 => cs_result(TOY_FCS, rng),
        3 => cs_result(target, rng),
        4 => CsOperand::nan(target),
        5 => CsOperand::nan(other),
        6 => CsOperand::inf(target, i % 4 == 2),
        7 => CsOperand::inf(TOY_FCS, true),
        8 => CsOperand::zero(target, true),
        _ => CsOperand::zero(other, i.is_multiple_of(3)),
    }
}

fn dirty_bank(target: CsFmaFormat, n: usize, rng: &mut Rng) -> Vec<CsOperand> {
    (0..n).map(|i| dirty_slot(target, i, rng)).collect()
}

/// Field-for-field equality with a freshly built operand.
fn assert_fresh(got: &CsOperand, want: &CsOperand, what: &str) {
    assert_eq!(got.format(), want.format(), "{what}: format");
    assert_eq!(got.class(), want.class(), "{what}: class");
    assert_eq!(got.sign_hint(), want.sign_hint(), "{what}: sign hint");
    assert_eq!(got.exp(), want.exp(), "{what}: exponent");
    assert_eq!(got.mant().sum(), want.mant().sum(), "{what}: mantissa sum");
    assert_eq!(
        got.mant().carry(),
        want.mant().carry(),
        "{what}: mantissa carry"
    );
    assert_eq!(
        got.round().sum(),
        want.round().sum(),
        "{what}: rounding sum"
    );
    assert_eq!(
        got.round().carry(),
        want.round().carry(),
        "{what}: rounding carry"
    );
}

/// The dirty banks must hold what the in-place writes have to clear:
/// non-zero carry and rounding words, and slots of other widths.
fn assert_really_dirty(bank: &[CsOperand], target: CsFmaFormat) {
    let carries = bank.iter().filter(|o| !o.mant().carry().is_zero()).count();
    let rounds = bank.iter().filter(|o| !o.round().sum().is_zero()).count();
    let widths = bank
        .iter()
        .filter(|o| o.mant().width() != target.mant_bits())
        .count();
    let specials = bank.iter().filter(|o| o.class() != FpClass::Normal).count();
    assert!(
        carries >= 8 && rounds >= 4 && widths >= 16 && specials >= 16,
        "{}: bank not dirty enough ({carries} carry words, {rounds} rounding words, \
         {widths} other widths, {specials} specials)",
        target.name
    );
}

/// `plane_fma_chunk` into a dirty destination, exception lanes mixed
/// in: every lane must equal the scalar unit's freshly built result.
#[test]
fn plane_writeback_defines_every_field_of_a_dirty_slot() {
    for fmt in TAPE_FORMATS {
        let unit = CsFmaUnit::new(fmt);
        let mut rng = Rng(0xd127 ^ fmt.mant_bits() as u64);
        let mut scratch = PlaneScratch::default();
        for len in [64usize, 37] {
            // A at 0..64 (carry-save results and IEEE conversions of every
            // class), C at 64..128, the dirty destination at 128..192
            let mut bank = Vec::with_capacity(192);
            for k in 0..128 {
                bank.push(if k % 3 == 0 && k < 64 {
                    cs_result(fmt, &mut rng)
                } else {
                    CsOperand::from_f64(rng.f64(), fmt)
                });
            }
            bank.extend(dirty_bank(fmt, 64, &mut rng));
            assert_really_dirty(&bank[128..], fmt);
            let b: Vec<SoftFloat> = (0..len)
                .map(|_| SoftFloat::from_f64(F64, rng.f64()))
                .collect();
            let want: Vec<CsOperand> = (0..len)
                .map(|k| unit.fma(&bank[k], &b[k], &bank[64 + k]))
                .collect();
            let untouched: Vec<CsOperand> = bank[128 + len..].to_vec();
            let stats = plane_fma_chunk(&unit, &mut bank, 0, 64, 128, &b, len, &mut scratch);
            assert!(
                stats.lanes > 0 && stats.exception_lanes > 0,
                "{}: {stats:?}",
                fmt.name
            );
            for (k, w) in want.iter().enumerate() {
                assert_fresh(
                    &bank[128 + k],
                    w,
                    &format!("{} len {len} lane {k}", fmt.name),
                );
            }
            for (k, w) in untouched.iter().enumerate() {
                let what = format!("{} len {len} lane {} (not written)", fmt.name, len + k);
                assert_fresh(&bank[128 + len + k], w, &what);
            }
        }
    }
}

/// The in-place `IeeeToCs` conversion into dirty slots, on every tape
/// format and both toy formats: every slot must equal `from_ieee`'s
/// freshly built operand, with empty carry and rounding words.
#[test]
fn ieee_to_cs_in_place_defines_every_field_of_a_dirty_slot() {
    let toys = [TOY_PCS, TOY_FCS];
    for fmt in TAPE_FORMATS.iter().chain(&toys) {
        let mut rng = Rng(0x1eee ^ fmt.mant_bits() as u64);
        let mut bank = dirty_bank(*fmt, 200, &mut rng);
        assert_really_dirty(&bank, *fmt);
        for (i, slot) in bank.iter_mut().enumerate() {
            let v = if fmt.b_sig_bits == 53 {
                SoftFloat::from_f64(F64, rng.f64())
            } else {
                match i % 8 {
                    0 => SoftFloat::nan(toy_b()),
                    1 => SoftFloat::inf(toy_b(), i % 16 == 1),
                    2 => SoftFloat::zero(toy_b(), i % 16 == 2),
                    _ => rng.toy(),
                }
            };
            slot.assign_ieee(&v, fmt);
            let want = CsOperand::from_ieee(&v, *fmt);
            let what = format!("{} slot {i} <- {v:?}", fmt.name);
            assert_fresh(slot, &want, &what);
            assert!(slot.mant().carry().is_zero(), "{what}: carry word");
            assert!(slot.round().sum().is_zero(), "{what}: rounding word");
        }
    }
}

/// Horner's rule, fused with `kind`.
fn horner(kind: FmaKind) -> csfma::hls::Cdfg {
    let src = "p1 = c8*x + c7;\n p2 = p1*x + c6;\n p3 = p2*x + c5;\n p4 = p3*x + c4;\n\
               p5 = p4*x + c3;\n p6 = p5*x + c2;\n p7 = p6*x + c1;\n out y = p7*x + c0;";
    let g = parse_program(src).unwrap();
    fuse_critical_paths(&g, &FusionConfig::new(kind)).fused
}

fn compile_fmt(g: &csfma::hls::Cdfg, pcs_format: CsFmaFormat) -> Tape {
    let opts = CompileOptions {
        pcs_format,
        ..CompileOptions::default()
    };
    compile_with(g, opts, &mut Profiler::disabled()).unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Three fused tapes of three transport formats back to back on one
/// thread: each evaluation recycles the pooled chunk scratch the one
/// before left behind, so the plane kernel and `IeeeToCs` write into
/// slots of another format and width. Bytes must equal the oracle's.
#[test]
fn fused_tapes_of_three_formats_share_a_recycled_scratch() {
    let tapes = [
        (
            "PCS",
            compile_fmt(&horner(FmaKind::Pcs), CsFmaFormat::PCS_55_ZD),
        ),
        (
            "FCS",
            compile_fmt(&horner(FmaKind::Fcs), CsFmaFormat::PCS_55_ZD),
        ),
        (
            "PCS-58",
            compile_fmt(&horner(FmaKind::Pcs), CsFmaFormat::PCS_58_LZA),
        ),
    ];
    for (name, t) in &tapes {
        assert!(t.plane_eligible_count() > 0, "{name}: no fused instruction");
    }
    let mut rng = Rng(0x7a9e);
    let ni = tapes[0].1.num_inputs();
    // four full chunks (the plane kernel) and a ragged tail
    let rows: Vec<f64> = (0..(4 * 64 + 9) * ni).map(|_| rng.f64()).collect();
    let want: Vec<Vec<u64>> = tapes
        .iter()
        .map(|(_, t)| bits(&t.eval_batch(TapeBackend::Oracle, &rows, 1)))
        .collect();
    // twice around, so the first tape also runs on the last one's scratch
    for round in 0..2 {
        for ((name, t), w) in tapes.iter().zip(&want) {
            let got = bits(&t.eval_batch(TapeBackend::BitAccurate, &rows, 1));
            assert!(
                got == *w,
                "{name} (round {round}): bit backend differs from the oracle"
            );
        }
    }
}
