//! The generic carry-save FMA engine: `R = A + B * C` (Figs. 9 and 11).
//!
//! One engine implements all three design points — PCS with Zero-Detector
//! normalization, PCS with early LZA, and FCS — because they share the
//! datapath skeleton and differ only in the [`CsFmaFormat`] parameters:
//!
//! 1. rounding decisions for the incoming `A` and `C` from their rounding
//!    blocks (Sec. III-C; the `C` correction folds into the multiplier);
//! 2. mantissa multiply `B_M * C_M` in carry-save (Fig. 6);
//! 3. alignment of `A` and the product into the wide window in parallel
//!    (385 bits for PCS, 377 digits for FCS);
//! 4. carry-save compression of all rows (never a full-width carry
//!    propagation);
//! 5. optional Carry Reduce to the partial carry-save spacing (PCS only —
//!    the FCS format keeps full carry-save, which the DSP pre-adders
//!    absorb in the *next* multiplier, Sec. III-H);
//! 6. block-granular normalization: Zero Detector or early LZA selects
//!    which `mant_blocks` blocks of the window survive, and the block
//!    below them becomes the rounding data of the result.

use crate::fault::{CheckKind, FaultSite, FmaCtl};
use crate::format::{CsFmaFormat, Normalizer};
use crate::operand::CsOperand;
use crate::trace::{NopSink, TraceSink};
use csfma_bits::Bits;
use csfma_carrysave::{reduce_to_cs_with, CsNumber, ReduceScratch};
use csfma_softfloat::{FpClass, SoftFloat};
use csfma_units::align::align_addend;
use csfma_units::block_mux::select_blocks;
use csfma_units::exponent::BiasedExp;
use csfma_units::lza::anticipate_leading_cs;
use csfma_units::multiplier::{apply_sign, multiply_cs_by_binary_with};
use csfma_units::residue;
use csfma_units::rounding::round_up_from_block;
use csfma_units::zero_detect::leading_skippable_blocks;

/// Reusable working storage for [`CsFmaUnit::fma_with`]: the
/// partial-product row buffers and Wallace-tree layers of the multiplier
/// and the window compression. One scratch per batch-engine worker
/// amortizes every per-FMA allocation over millions of evaluations;
/// results are bit-identical with and without it.
#[derive(Clone, Debug, Default)]
pub struct FmaScratch {
    mul_rows: Vec<Bits>,
    mul_reduce: ReduceScratch,
    win_rows: Vec<Bits>,
    win_reduce: ReduceScratch,
}

/// A carry-save FMA unit of a specific format.
///
/// ```
/// use csfma_core::{CsFmaFormat, CsFmaUnit, CsOperand};
/// use csfma_softfloat::{FpFormat, Round, SoftFloat};
///
/// let unit = CsFmaUnit::new(CsFmaFormat::FCS_29_LZA);
/// let sf = |v: f64| SoftFloat::from_f64(FpFormat::BINARY64, v);
/// let a = CsOperand::from_ieee(&sf(0.5), *unit.format());
/// let c = CsOperand::from_ieee(&sf(3.0), *unit.format());
/// // R = A + B*C, result still in the carry-save transport format
/// let r = unit.fma(&a, &sf(2.0), &c);
/// assert_eq!(r.to_ieee(FpFormat::BINARY64, Round::NearestEven).to_f64(), 6.5);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CsFmaUnit {
    format: CsFmaFormat,
}

/// Structural diagnostics of one FMA evaluation, consumed by tests and by
/// the fabric timing/energy models.
#[derive(Clone, Copy, Debug, Default)]
pub struct FmaReport {
    /// Leading blocks skipped by the normalizer.
    pub skip: usize,
    /// Whether `A`'s rounding block requested an increment.
    pub round_up_a: bool,
    /// Whether `C`'s rounding block requested an increment (folded into
    /// the multiplier as an extra `B_M` row).
    pub round_up_c: bool,
    /// Partial-product rows fed to the multiplier CSA tree.
    pub multiplier_rows: usize,
    /// 3:2 levels of the multiplier tree.
    pub multiplier_levels: usize,
    /// 3:2 levels of the final window compression.
    pub window_levels: usize,
    /// Nonzero bits of `A` fell below the window (alignment truncation).
    pub dropped_low_a: bool,
    /// Nonzero bits of the product fell below the window (dominant-`A`
    /// case: the product was shifted down instead of `A` up).
    pub dropped_low_p: bool,
}

impl CsFmaUnit {
    /// Create a unit with the given format.
    pub fn new(format: CsFmaFormat) -> Self {
        CsFmaUnit { format }
    }

    /// The unit's transport format.
    pub fn format(&self) -> &CsFmaFormat {
        &self.format
    }

    /// Compute `A + B * C`.
    pub fn fma(&self, a: &CsOperand, b: &SoftFloat, c: &CsOperand) -> CsOperand {
        self.fma_traced(a, b, c, &mut NopSink).0
    }

    /// Compute `A + B * C` with caller-provided working storage — the
    /// batch-friendly entry point (see [`FmaScratch`]).
    pub fn fma_with(
        &self,
        a: &CsOperand,
        b: &SoftFloat,
        c: &CsOperand,
        scratch: &mut FmaScratch,
    ) -> CsOperand {
        self.fma_traced_with(a, b, c, &mut NopSink, scratch).0
    }

    /// Compute `A + B * C`, recording datapath activity into `sink` and
    /// returning structural diagnostics.
    pub fn fma_traced(
        &self,
        a: &CsOperand,
        b: &SoftFloat,
        c: &CsOperand,
        sink: &mut dyn TraceSink,
    ) -> (CsOperand, FmaReport) {
        self.fma_traced_with(a, b, c, sink, &mut FmaScratch::default())
    }

    /// [`CsFmaUnit::fma_traced`] with caller-provided working storage.
    pub fn fma_traced_with(
        &self,
        a: &CsOperand,
        b: &SoftFloat,
        c: &CsOperand,
        sink: &mut dyn TraceSink,
        scratch: &mut FmaScratch,
    ) -> (CsOperand, FmaReport) {
        self.fma_ctl_with(a, b, c, sink, scratch, &mut FmaCtl::default())
    }

    /// Self-checking / fault-injecting evaluation (DESIGN.md §10): the
    /// same datapath with the mod-3 residue and recompute self-checks
    /// armed through `ctl.detections`, and the tamper hooks driven by
    /// `ctl.hook`. With a default `ctl` this is exactly
    /// [`CsFmaUnit::fma_with`], bit for bit.
    pub fn fma_checked_with(
        &self,
        a: &CsOperand,
        b: &SoftFloat,
        c: &CsOperand,
        scratch: &mut FmaScratch,
        ctl: &mut FmaCtl,
    ) -> (CsOperand, FmaReport) {
        self.fma_ctl_with(a, b, c, &mut NopSink, scratch, ctl)
    }

    /// The engine behind every public entry point: trace sink plus the
    /// fault/check control block.
    fn fma_ctl_with(
        &self,
        a: &CsOperand,
        b: &SoftFloat,
        c: &CsOperand,
        sink: &mut dyn TraceSink,
        scratch: &mut FmaScratch,
        ctl: &mut FmaCtl,
    ) -> (CsOperand, FmaReport) {
        let f = &self.format;
        assert_eq!(a.format(), f, "A operand format mismatch");
        assert_eq!(c.format(), f, "C operand format mismatch");

        // ---- exception classes (separate wires, resolved up front) ----
        if a.class() == FpClass::Nan || b.is_nan() || c.class() == FpClass::Nan {
            return (CsOperand::nan(*f), FmaReport::default());
        }
        let c_sign = match c.class() {
            FpClass::Normal => c.mant().resolve_signed_extended().sign_bit(),
            _ => c.sign_hint(),
        };
        let psign = b.sign() ^ c_sign;
        let prod_class = match (b.class(), c.class()) {
            (FpClass::Inf, FpClass::Zero) | (FpClass::Zero, FpClass::Inf) => {
                return (CsOperand::nan(*f), FmaReport::default())
            }
            (FpClass::Inf, _) | (_, FpClass::Inf) => FpClass::Inf,
            (FpClass::Zero, _) | (_, FpClass::Zero) => FpClass::Zero,
            _ => FpClass::Normal,
        };
        match (prod_class, a.class()) {
            (FpClass::Inf, FpClass::Inf) => {
                return if psign == a.sign_hint() {
                    (CsOperand::inf(*f, psign), FmaReport::default())
                } else {
                    (CsOperand::nan(*f), FmaReport::default())
                };
            }
            (FpClass::Inf, _) => return (CsOperand::inf(*f, psign), FmaReport::default()),
            (_, FpClass::Inf) => return (CsOperand::inf(*f, a.sign_hint()), FmaReport::default()),
            (FpClass::Zero, FpClass::Zero) => {
                let sign = psign && a.sign_hint();
                return (CsOperand::zero(*f, sign), FmaReport::default());
            }
            (FpClass::Zero, FpClass::Normal) => return (a.clone(), FmaReport::default()),
            _ => {}
        }
        let a_zero = a.class() == FpClass::Zero;

        // ---- geometry ----
        let m = f.mant_bits();
        let bb = f.block_bits;
        let w = f.window_bits();
        let nb = f.window_blocks();
        let fc = f.frac_bits() as i64;
        let fb_b = b.format().frac_bits as i64;
        let right_off = (f.right_blocks * bb) as i64;
        // two guard positions above a fully-left addend: the two-word
        // signed sum can use one bit more than the word width, and the
        // final addition one more
        let max_shift = (w - m) as i64 - 2;

        // ---- rounding decisions (Sec. III-C) ----
        let up_c = round_up_from_block(c.round());
        let up_a = !a_zero && round_up_from_block(a.round());

        // ---- multiplier with integrated rounding (Fig. 6) ----
        let b_sig = Bits::from_u64(f.b_sig_bits, b.significand());
        let mul = multiply_cs_by_binary_with(
            c.mant(),
            &b_sig,
            up_c,
            &mut scratch.mul_rows,
            &mut scratch.mul_reduce,
        );
        // Residue prediction for the multiplier check, taken from the
        // *inputs* before any tamper can strike: the signed product value
        // is exactly ±(C_signed·B + up_c·B), and the CS output's signed
        // two-word sum equals it (the multiplier's headroom contract).
        let want_mul = if ctl.checking() {
            let rb = residue::mod3(&b_sig);
            let mut r = residue::mod3_mul(residue::mod3_cs_signed(c.mant()), rb);
            if up_c {
                r = residue::mod3_add(r, rb);
            }
            if b.sign() {
                r = residue::mod3_neg(r);
            }
            Some(r)
        } else {
            None
        };
        let mut product = apply_sign(mul.product, b.sign());
        if let Some(hook) = ctl.hook {
            product = csfma_units::multiplier::tamper_product(product, hook);
        }
        if let Some(want) = want_mul {
            let got = residue::mod3_cs_signed(&product);
            if got != want {
                ctl.detect(
                    CheckKind::MulResidue,
                    format!("multiplier product residue {got}, predicted {want}"),
                );
            }
        }
        sink.record("mul.sum", product.sum());
        sink.record("mul.carry", product.carry());

        // ---- exponent plan / window placement ----
        let e_p = b.exp() as i64 + c.exp().unbiased() as i64;
        // window LSB weight: product sits `right_blocks` blocks above it
        let mut wls = e_p - fc - fb_b - right_off;
        let shift_a_raw = if a_zero {
            0
        } else {
            a.exp().unbiased() as i64 - fc - wls
        };
        // dominant-A: instead of pushing A past the window top, pull the
        // product (and the whole weight plan) down
        let extra = (shift_a_raw - max_shift).max(0);
        let p_shift = right_off - extra;
        let a_shift = shift_a_raw - extra;
        wls += extra;

        sink.record("reg.in_a", &a.pack());
        sink.record("reg.in_c", &c.pack());
        let aligned_p = align_addend(&product, w, p_shift);
        debug_assert!(!aligned_p.dropped_high, "window too small for product");
        let aligned_a = if a_zero {
            align_addend(&CsNumber::zero(m), w, 0)
        } else {
            align_addend(a.mant(), w, a_shift)
        };
        debug_assert!(!aligned_a.dropped_high, "window too small for addend");
        sink.record("fab.align_sum", aligned_a.value.sum());
        sink.record("fab.align_carry", aligned_a.value.carry());

        // ---- one big carry-save compression ----
        let rows = &mut scratch.win_rows;
        rows.clear();
        rows.push(aligned_p.value.sum().clone());
        rows.push(aligned_p.value.carry().clone());
        rows.push(aligned_a.value.sum().clone());
        rows.push(aligned_a.value.carry().clone());
        if up_a && (0..w as i64).contains(&a_shift) {
            rows.push(Bits::one_hot(w, a_shift as usize));
        }
        // Window-compression residue: the compressed pair must preserve
        // the wrapping (mod 2^w) sum of the rows it swallowed.
        let want_win = if ctl.checking() {
            let mut acc = Bits::zero(w);
            for r in rows.iter() {
                acc = acc.wrapping_add(r);
            }
            Some(residue::mod3(&acc))
        } else {
            None
        };
        let reduced = reduce_to_cs_with(rows, w, &mut scratch.win_reduce);
        let window = reduced.cs;
        if let Some(want) = want_win {
            let got = residue::mod3(&window.resolve());
            if got != want {
                ctl.detect(
                    CheckKind::WindowResidue,
                    format!("window residue {got}, predicted {want}"),
                );
            }
        }
        sink.record("win.sum", window.sum());
        sink.record("win.carry", window.carry());

        // ---- Carry Reduce (PCS only) ----
        let window = match f.carry_spacing {
            Some(k) => {
                let mut pcs = window.carry_reduce(k);
                // Carry Reduce check: recompute-and-compare against the
                // pre-reduce window value. A residue would be unsound
                // here — a carry-lane flip changes the resolved value by
                // 2^i − 2^w (mod 2^w), and when `i` and `w` have equal
                // parity that difference is ≡ 0 (mod 3): a wrap-crossing
                // flip the residue can never see.
                let want_cr = if ctl.checking() {
                    Some(window.resolve())
                } else {
                    None
                };
                if let Some(hook) = ctl.hook {
                    pcs.tamper_carry_lanes(FaultSite::PcsCarry, hook);
                }
                if let Some(want) = want_cr {
                    if pcs.resolve() != want {
                        ctl.detect(
                            CheckKind::CarryReduce,
                            "carry-reduced pair disagrees with the window value".to_string(),
                        );
                    }
                }
                sink.record("cr.sum", pcs.sum());
                sink.record("cr.carry", pcs.carry());
                pcs.to_cs()
            }
            None => window,
        };

        // ---- block-granular normalization ----
        let blocks = window.blocks(bb, nb);
        let clean_skip = match f.normalizer {
            Normalizer::ZeroDetect => leading_skippable_blocks(&blocks, f.mant_blocks),
            Normalizer::EarlyLza => {
                let anticipated = self.anticipated_skip(a, c, a_zero, a_shift, p_shift);
                // Clamp by the block-pattern-validated skip: every prefix
                // of the Zero Detector's skip chain preserves the slice
                // value, and the per-block flags it needs are computed in
                // parallel with the Carry Reduce — only the *selection*
                // comes from the anticipator, which is what removes the
                // ZD's priority chain from the critical path (Sec. III-G).
                // Under heavy cancellation the anticipator would point
                // below the validated region; the clamp then keeps high
                // blocks whose digits cancel — the paper's admitted
                // relative-inaccuracy case for the LZA variant.
                anticipated.min(leading_skippable_blocks(&blocks, f.mant_blocks))
            }
        };
        let mut skip = clean_skip;
        if let Some(hook) = ctl.hook {
            let mut sel_idx = skip as u64;
            let legal = (nb - f.mant_blocks) as u64 + 1;
            hook.tamper_index(FaultSite::BlockSelect, &mut sel_idx, legal);
            skip = sel_idx as usize;
        }
        // Block-select check: the mux select recomputed by an independent
        // copy of the skip logic, compared against the one driving the mux.
        if ctl.checking() && skip != clean_skip {
            ctl.detect(
                CheckKind::BlockSelect,
                format!("block mux skip {skip}, recomputed {clean_skip}"),
            );
        }
        let sel = select_blocks(&blocks, f.mant_blocks, skip);
        sink.record("res.sum", sel.result.sum());
        sink.record("res.carry", sel.result.carry());

        // ---- result exponent ----
        let e_r = (nb - sel.skip - f.mant_blocks) as i64 * bb as i64 + wls + fc;
        let mut exp = BiasedExp::from_unbiased_saturating(e_r);
        if let Some(hook) = ctl.hook {
            let mut field = exp.field() as u64;
            hook.tamper_index(FaultSite::ExpField, &mut field, 1 << 12);
            exp = BiasedExp::from_field(field as u16);
        }
        // Exponent-path check: a duplicated excess-2047 adder, compared.
        if ctl.checking() && exp != BiasedExp::from_unbiased_saturating(e_r) {
            ctl.detect(
                CheckKind::ExponentPath,
                format!(
                    "exponent field {}, recomputed {}",
                    exp.field(),
                    BiasedExp::from_unbiased_saturating(e_r).field()
                ),
            );
        }
        sink.record("res.exp", &Bits::from_u64(12, exp.field() as u64));

        let sign_hint = sel.result.resolve_signed_extended().sign_bit();
        let out = CsOperand::from_raw(
            *f,
            FpClass::Normal,
            sign_hint,
            sel.result,
            sel.round_data,
            exp,
        );
        let report = FmaReport {
            skip: sel.skip,
            round_up_a: up_a,
            round_up_c: up_c,
            multiplier_rows: mul.rows,
            multiplier_levels: mul.tree_levels,
            window_levels: reduced.levels,
            dropped_low_a: aligned_a.dropped_low,
            dropped_low_p: aligned_p.dropped_low,
        };
        (out, report)
    }

    /// Early leading-zero anticipation (Sec. III-G): bound the window MSB
    /// of the sum from the *inputs*, before the wide sum exists — one
    /// Schmookler/Nowka LZA per CS input (≤1 bit of error each), the
    /// known `1 ≤ B_M < 2` range of the standard-format input, one bit
    /// for the product and one for the addition: the paper's ≤3-bit
    /// anticipation budget, absorbed by the widened blocks.
    ///
    /// Canonically zero mantissas are excluded explicitly ("the early LZA
    /// logic must reliably detect all-0 input mantissas"); if everything
    /// is zero the bottom-most blocks are selected.
    pub(crate) fn anticipated_skip(
        &self,
        a: &CsOperand,
        c: &CsOperand,
        a_zero: bool,
        a_shift: i64,
        p_shift: i64,
    ) -> usize {
        let f = &self.format;
        let m = f.mant_bits() as i64;
        let bb = f.block_bits as i64;
        let nb = f.window_blocks() as i64;

        let mut bound: Option<i64> = None;
        let mut push = |msb: i64| {
            bound = Some(bound.map_or(msb, |b: i64| b.max(msb)));
        };

        if !a_zero && !a.mant().is_canonical_zero() {
            // exact A (m+2-bit two-word sum) has magnitude < 2^(m+1-red)
            let red_a = anticipate_leading_cs(a.mant()) as i64;
            push(a_shift + m - red_a);
        }
        if !c.mant().is_canonical_zero() {
            let red_c = anticipate_leading_cs(c.mant()) as i64;
            // |C| < 2^(m+1-red), |B_M| < 2^(b_sig); +1 for the correction row
            push(p_shift + (m - red_c) + f.b_sig_bits as i64);
        }

        let Some(bound) = bound else {
            return (nb - f.mant_blocks as i64) as usize; // all zero: bottom blocks
        };
        // +1 for the addition carry, +1 for the sign bit
        let sign_pos = (bound + 2).clamp(0, nb * bb - 1);
        let jb = sign_pos / bb; // block index from the LSB
        let skip = (nb - 1 - jb).clamp(0, nb - f.mant_blocks as i64);
        skip as usize
    }
}
