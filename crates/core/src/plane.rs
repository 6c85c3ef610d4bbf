//! Bit-plane (bit-sliced) chunk evaluation of the carry-save FMA.
//!
//! [`plane_fma_chunk`] computes `R = A + B * C` for up to
//! [`PLANE_LANES`] rows of a SoA chunk at once by transposing the
//! carry-save words into *bit planes* (`csfma_carrysave::plane`): plane
//! word `j` holds bit `j` of all lanes, so every fixed-wiring datapath
//! stage — the multiplier's CSA tree, the window compression, the PCS
//! segment adders, the block classifier and the result mux — runs as
//! word-parallel boolean algebra, one machine operation per gate level
//! for all 64 lanes.
//!
//! The kernel is bit-exact versus [`CsFmaUnit::fma_with`] per lane. The
//! structure mirrors the scalar engine stage by stage:
//!
//! * **Scalar preamble** — exception classes, rounding decisions and the
//!   window placement arithmetic are per-lane control logic, evaluated
//!   as such, on machine words: the rounding decision is one
//!   carry-propagating limb add (`round_up_from_block`), and the FCS
//!   early-LZA cap reads each operand limb once. Lanes that take an
//!   exception early-return (NaN/Inf/Zero products) are resolved by the
//!   scalar engine — they never reach the datapath in hardware either —
//!   kept in a sparse `(lane, result)` list and merged back at writeback.
//! * **Writeback in place** — each datapath lane overwrites its
//!   destination slot's class, sign hint, exponent and digit words from
//!   the untransposed limbs; no operand is built per lane.
//! * **Plane multiplier** — the scalar multiplier feeds a *fixed*
//!   `2·b_sig + 1` rows to its tree regardless of `B`'s bit pattern
//!   (zero rows for clear bits), so all lanes share one tree shape and
//!   the input rows are `ext_plane[j−i] & b_bit_mask[i]`, read in place.
//!   The same tree is evaluated depth first, with at most three pending
//!   rows per level (`plane_reduce_to_cs`).
//! * **Per-lane selects replace per-lane branches** — the sign stage
//!   and the conditional fifth window row (the `A` rounding one-hot)
//!   have data-dependent *outcomes* but fixed gate shapes, so the plane
//!   kernel computes both arms and muxes per lane with a lane-mask word,
//!   keeping the CS pairs bitwise identical to the scalar branches.
//! * **Per-lane alignment** — the aligner is a per-lane variable shift
//!   (the one stage whose wiring depends on lane data), done in plane
//!   form (`align_planes`): the source planes are placed once at the
//!   largest shift with the scalar `align_addend`'s sign-extend-and-place
//!   frame semantics, then one lane-masked stage per bit of the shift
//!   spread moves the other lanes down. The product never leaves plane
//!   form; the addend is transposed once, from the bank's limbs. Lanes
//!   that share a shift — all of them, for the product of an ordinary
//!   chunk — need no stage.
//! * **Plane normalization** — block classes (Fig. 10) come from
//!   sequential per-block mask scans, the skip chain is resolved per
//!   lane over those masks, and the result/rounding blocks are selected
//!   by OR-ing windows under per-skip lane masks.
//!
//! The residue self-checks of DESIGN.md §10 stay on the scalar path:
//! this kernel computes no residues, and the oracle backend never calls
//! it. Plane-path faults are covered differently (DESIGN.md §10.5): the
//! [`PlaneStrike`] tamper points below model upsets in the kernel's own
//! stages, and the robust executor runs this kernel as a *shadow* of
//! its scalar evaluation, detecting any lane disagreement via the
//! scalar differential oracle — its output always comes from the scalar
//! engine, so a plane-path fault is contained by construction.

use crate::format::Normalizer;
use crate::operand::CsOperand;
use crate::unit::{CsFmaUnit, FmaScratch};
use csfma_carrysave::plane::{
    align_planes, plane_carry_reduce, plane_csa3_2, plane_reduce_to_cs, planes_to_lane_limbs,
    transpose64, PLANE_LANES,
};
use csfma_softfloat::{FpClass, SoftFloat};
use csfma_units::exponent::BiasedExp;
use csfma_units::rounding::round_up_from_block;

/// One armed plane-kernel fault, consumed by the next
/// [`plane_fma_chunk`] call with the scratch it is armed on
/// (DESIGN.md §10.5).
///
/// Each strike flips exactly one bit — bit `lane` of one plane word —
/// so it corrupts exactly one lane of the chunk, mirroring how a real
/// single-event upset in a plane register is confined to the physical
/// bit it hits. The struck word is derived from `sel` at each tamper
/// point, biased toward the value-significant planes of the stage (a
/// flip that final rounding discards is architecturally masked; fault
/// campaigns report those as benign strikes).
#[derive(Clone, Copy, Debug)]
pub struct PlaneStrike {
    /// Which plane-path population to hit (one of
    /// [`FaultSite::PLANE`](crate::fault::FaultSite::PLANE); strikes
    /// naming other sites never fire).
    pub site: crate::fault::FaultSite,
    /// The struck lane (`0..PLANE_LANES`).
    pub lane: usize,
    /// Raw selector for the struck word within the stage.
    pub sel: u64,
}

/// Per-lane control state produced by the scalar preamble.
#[derive(Clone, Copy, Debug)]
struct LanePrep {
    normal: bool,
    a_zero: bool,
    up_c: bool,
    up_a: bool,
    negate: bool,
    b_sig: u64,
    p_shift: i64,
    a_shift: i64,
    wls: i64,
    /// Early-LZA anticipated skip (`usize::MAX` on the ZD path: no cap).
    skip_cap: usize,
}

impl Default for LanePrep {
    fn default() -> Self {
        LanePrep {
            normal: false,
            a_zero: true,
            up_c: false,
            up_a: false,
            negate: false,
            b_sig: 0,
            p_shift: 0,
            a_shift: 0,
            wls: 0,
            skip_cap: usize::MAX,
        }
    }
}

/// Reusable working storage for [`plane_fma_chunk`] — plane arenas, the
/// multiplier tree's pending rows, the writeback's lane-major limb
/// matrices and the scalar-fallback scratch. One per batch-engine
/// worker, like [`FmaScratch`].
#[derive(Clone, Debug, Default)]
pub struct PlaneScratch {
    /// Plane-kernel strikes armed for the next [`plane_fma_chunk`] call
    /// with this scratch, which consumes all of them at once (a chunk
    /// with several fused instructions is struck on its first, like an
    /// upset that hits while the first wave of the chunk is in flight).
    /// Clear it after a run that may not have taken the plane path, so
    /// no strike outlives the evaluation it was armed for.
    pub strikes: Vec<PlaneStrike>,
    /// Test-only sabotage switch: when armed, the next [`plane_fma_chunk`]
    /// call with this scratch flips one bit of one result bit-plane word
    /// (lane 0, mantissa sum bit 0) after the block select, and disarms
    /// it. The golden-vector suite arms this to prove it would catch a
    /// plane-kernel defect; never set in production code.
    #[doc(hidden)]
    pub corrupt_next_plane_word: bool,
    fma: FmaScratch,
    prep: Vec<LanePrep>,
    /// The exception lanes' results, `(lane, result)` in lane order.
    early: Vec<(usize, CsOperand)>,
    skips: Vec<usize>,
    ext_s: Vec<u64>,
    ext_c: Vec<u64>,
    corr: Vec<u64>,
    tree: Vec<u64>,
    prod_s: Vec<u64>,
    prod_c: Vec<u64>,
    add_s: Vec<u64>,
    add_c: Vec<u64>,
    win: [Vec<u64>; 5],
    red_a: Vec<u64>,
    red_b: Vec<u64>,
    red_c: Vec<u64>,
    red_d: Vec<u64>,
    red_e: Vec<u64>,
    red_f: Vec<u64>,
    res_s: Vec<u64>,
    res_c: Vec<u64>,
    rnd_s: Vec<u64>,
    rnd_c: Vec<u64>,
    /// The result words untransposed into lane-major limb matrices
    /// (mantissa sum and carry, rounding sum and carry), read by the
    /// writeback.
    out: [Vec<u64>; 4],
}

/// The kernel's stages in datapath order, named as
/// [`PlaneStats::stage_ns`] indexes them: the scalar preamble, the
/// transpose of `C` and `B` into planes, the multiplier (level 0, the
/// Wallace tree and the sign stage), the per-lane alignment, the window
/// (compression and Carry Reduce), normalization (block classes, skip
/// chain and result mux) and the writeback (untranspose and operand
/// assembly).
pub const PLANE_STAGES: [&str; 7] = [
    "preamble",
    "transpose_in",
    "multiplier",
    "alignment",
    "window",
    "normalize",
    "writeback",
];

const PREAMBLE: usize = 0;
const TRANSPOSE_IN: usize = 1;
const MULTIPLIER: usize = 2;
const ALIGNMENT: usize = 3;
const WINDOW: usize = 4;
const NORMALIZE: usize = 5;
const WRITEBACK: usize = 6;

/// What one [`plane_fma_chunk`] call did, returned to its caller: the
/// batch engine sums these into the evaluation's own stats, so nothing
/// is tallied process-wide or left behind in a recycled scratch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// Lanes the plane datapath evaluated.
    pub lanes: u64,
    /// Lanes resolved by the scalar exception path (NaN / Inf / zero
    /// products never reach the datapath).
    pub exception_lanes: u64,
    /// Nanoseconds spent transposing between lane-major and plane-major
    /// form. These transposes also count toward their stages in
    /// `stage_ns`.
    pub transpose_ns: u64,
    /// Nanoseconds per stage, indexed like [`PLANE_STAGES`]. Each stage
    /// is timed once per call.
    pub stage_ns: [u64; PLANE_STAGES.len()],
}

/// Run `f`, adding its wall time to `ns`.
#[inline]
fn timed<R>(ns: &mut u64, f: impl FnOnce() -> R) -> R {
    let t0 = std::time::Instant::now();
    let r = f();
    *ns += t0.elapsed().as_nanos() as u64;
    r
}

/// Transpose the mantissa sum words (`carry`: the carry words) of `ops`
/// into `out`'s plane words (`out[j]` bit `l` = bit `j` of lane `l`'s
/// word), reading the bank's limbs. Lanes `ops.len()..` read as zero.
fn gather_planes(ops: &[CsOperand], carry: bool, out: &mut [u64]) {
    let width = out.len();
    let mut m = [0u64; PLANE_LANES];
    for g in 0..width.div_ceil(64) {
        for (l, w) in m.iter_mut().enumerate() {
            *w = ops.get(l).map_or(0, |op| {
                let mant = op.mant();
                if carry { mant.carry() } else { mant.sum() }.limbs()[g]
            });
        }
        transpose64(&mut m);
        let hi = (width - g * 64).min(64);
        out[g * 64..g * 64 + hi].copy_from_slice(&m[..hi]);
    }
}

/// Sign of `sext(sum) + sext(carry)` for two `width`-bit words given as
/// little-endian limbs — what `CsNumber::resolve_signed_extended`'s top
/// bit reads, without building the words.
fn two_word_sign(sum: &[u64], carry: &[u64], width: usize) -> bool {
    let (top, bit) = ((width - 1) / 64, (width - 1) % 64);
    // limb `i` of a word sign-extended from `width` bits
    let sext = |x: &[u64], i: usize| -> u64 {
        let fill = if (x[top] >> bit) & 1 != 0 { !0u64 } else { 0 };
        match i.cmp(&top) {
            std::cmp::Ordering::Less => x[i],
            std::cmp::Ordering::Equal => x[top] | (fill << bit),
            std::cmp::Ordering::Greater => fill,
        }
    };
    let mut carry_in = false;
    for i in 0..=top {
        let (v, c1) = sext(sum, i).overflowing_add(sext(carry, i));
        let (_, c2) = v.overflowing_add(carry_in as u64);
        carry_in = c1 | c2;
    }
    // the sum fits in `width + 1` bits, so the next limb holds its sign
    let ext = sext(sum, top + 1)
        .wrapping_add(sext(carry, top + 1))
        .wrapping_add(carry_in as u64);
    ext >> 63 != 0
}

/// Evaluate one FMA instruction over a SoA chunk in bit-plane form:
/// `bank[dst + k] = bank[acc + k] + b[k] * bank[mulc + k]` for
/// `k < len`, bit-identical to calling [`CsFmaUnit::fma_with`] per
/// lane, including when `dst` aliases `acc` or `mulc`: every read of
/// the bank happens before the writeback. Returns the call's
/// [`PlaneStats`].
///
/// # Panics
/// If `len > PLANE_LANES`, `b.len() < len`, or the bank slices are out
/// of bounds.
#[allow(clippy::too_many_arguments)] // mirrors the tape executor's operand frame
pub fn plane_fma_chunk(
    unit: &CsFmaUnit,
    bank: &mut [CsOperand],
    acc: usize,
    mulc: usize,
    dst: usize,
    b: &[SoftFloat],
    len: usize,
    s: &mut PlaneScratch,
) -> PlaneStats {
    assert!(len <= PLANE_LANES, "chunk wider than a plane word");
    let strikes: Vec<PlaneStrike> = std::mem::take(&mut s.strikes);
    let f = *unit.format();
    let m = f.mant_bits();
    let bw = f.b_sig_bits;
    let out_w = m + bw + 2; // multiplier width incl. compressor headroom
    let w = f.window_bits();
    let bb = f.block_bits;
    let nb = f.window_blocks();
    let keep = f.mant_blocks;
    let fc = f.frac_bits() as i64;
    let right_off = (f.right_blocks * bb) as i64;
    let max_shift = (w - m) as i64 - 2;
    let mut ns = [0u64; PLANE_STAGES.len()];
    let mut transpose_ns = 0u64;
    let a_ops = &bank[acc..acc + len];
    let c_ops = &bank[mulc..mulc + len];

    // ---- scalar preamble: exceptions, rounding, window placement ----
    let n_plane = timed(&mut ns[PREAMBLE], || {
        s.prep.clear();
        s.prep.resize(len, LanePrep::default());
        s.early.clear();
        let mut n_plane = 0u64;
        #[allow(clippy::needless_range_loop)] // k indexes four parallel lane arrays
        for k in 0..len {
            let (a, c, bv) = (&a_ops[k], &c_ops[k], &b[k]);
            let normal = a.class() != FpClass::Nan
                && a.class() != FpClass::Inf
                && bv.class() == FpClass::Normal
                && c.class() == FpClass::Normal;
            if !normal {
                // exception lanes never reach the datapath; the scalar
                // engine's early-return ladder resolves them bit-exactly
                s.early.push((k, unit.fma_with(a, bv, c, &mut s.fma)));
                continue;
            }
            n_plane += 1;
            let a_zero = a.class() == FpClass::Zero;
            let up_c = round_up_from_block(c.round());
            let up_a = !a_zero && round_up_from_block(a.round());
            let e_p = bv.exp() as i64 + c.exp().unbiased() as i64;
            let fb_b = bv.format().frac_bits as i64;
            let mut wls = e_p - fc - fb_b - right_off;
            let shift_a_raw = if a_zero {
                0
            } else {
                a.exp().unbiased() as i64 - fc - wls
            };
            let extra = (shift_a_raw - max_shift).max(0);
            let p_shift = right_off - extra;
            let a_shift = shift_a_raw - extra;
            wls += extra;
            let skip_cap = match f.normalizer {
                Normalizer::ZeroDetect => usize::MAX,
                Normalizer::EarlyLza => unit.anticipated_skip(a, c, a_zero, a_shift, p_shift),
            };
            s.prep[k] = LanePrep {
                normal: true,
                a_zero,
                up_c,
                up_a,
                negate: bv.sign(),
                b_sig: bv.significand(),
                p_shift,
                a_shift,
                wls,
                skip_cap,
            };
        }
        n_plane
    });

    // lane masks driving the per-lane selects
    let mut up_c_mask = 0u64;
    let mut neg_mask = 0u64;
    for (k, p) in s.prep.iter().enumerate() {
        if p.up_c {
            up_c_mask |= 1 << k;
        }
        if p.negate {
            neg_mask |= 1 << k;
        }
    }

    // ---- transpose in: C's mantissa words and B's significands ----
    // Level-0 rows read `ext[j - i]` for shifts `i < bw`, so each `ext`
    // arena carries `pad = bw - 1` zero planes below bit 0: a row is then
    // a plain `out_w`-word slice starting at `pad - i`, zeros included.
    let pad = bw - 1;
    let bm = timed(&mut ns[TRANSPOSE_IN], || {
        timed(&mut transpose_ns, || {
            for (ext, carry) in [(&mut s.ext_s, false), (&mut s.ext_c, true)] {
                ext.clear();
                ext.resize(pad + out_w, 0);
                gather_planes(c_ops, carry, &mut ext[pad..pad + m]);
                // sign extension is plane replication: bit j >= m reads
                // the sign plane
                let sign = ext[pad + m - 1];
                ext[pad + m..].fill(sign);
            }
        });
        // B-significand bit masks: one 64x64 transpose of the lane values
        let mut bm = [0u64; PLANE_LANES];
        for (k, p) in s.prep.iter().enumerate() {
            bm[k] = p.b_sig;
        }
        transpose64(&mut bm);
        bm
    });

    // ---- plane multiplier (Fig. 6, fixed 2·b_sig+1-row tree) ----
    timed(&mut ns[MULTIPLIER], || {
        let mut bm = bm;
        for st in &strikes {
            if st.site == crate::fault::FaultSite::TransposeOut {
                // strike one of the top 16 B-significand planes: the
                // flipped bit feeds a wrong row mask to every Wallace
                // level of the struck lane, and a high partial product
                // survives rounding
                let j = bw - 1 - (st.sel as usize % bw.min(16));
                bm[j] ^= 1u64 << (st.lane % PLANE_LANES);
            }
        }
        // The tree's input rows are read straight off the two padded
        // `ext` arenas instead of being materialized: row `r` is
        // `ext_{s,c}[j - r/2] & bm[r/2]`, and the final row is the +B
        // rounding correction (`bm[j] & up_c_mask` below bit `bw`).
        let n_rows = 2 * bw + 1;
        let corr_row = 2 * bw;
        s.corr.clear();
        s.corr.extend(bm[..bw].iter().map(|&x| x & up_c_mask));
        s.corr.resize(out_w, 0);
        let (ext_s, ext_c, corr) = (&s.ext_s, &s.ext_c, &s.corr);
        let row = |r: usize| -> (&[u64], u64) {
            if r == corr_row {
                return (corr, !0);
            }
            let i = r >> 1;
            let ext = if r & 1 == 0 { ext_s } else { ext_c };
            (&ext[pad - i..pad - i + out_w], bm[i])
        };
        plane_reduce_to_cs(
            n_rows,
            out_w,
            row,
            &mut s.tree,
            &mut s.prod_s,
            &mut s.prod_c,
        );
        for st in &strikes {
            if st.site == crate::fault::FaultSite::PlaneCsaWord {
                // strike one of the top 32 product-sum planes — within the
                // 53 bits the final rounding keeps, so the flip is visible
                let top = s.prod_s.len();
                let j = top - 1 - (st.sel as usize % top.min(32));
                s.prod_s[j] ^= 1u64 << (st.lane % PLANE_LANES);
            }
        }

        // ---- sign stage: compute the negation arm, select per lane ----
        // negate() = csa3_2(!sum, !carry, 2); the non-negating arm must
        // pass the pair through untouched (see `apply_sign`)
        if neg_mask != 0 {
            let mut prev_maj = 0u64; // maj plane j-1 (the scalar `<< 1`)
            for j in 0..out_w {
                let (ps, pc) = (s.prod_s[j], s.prod_c[j]);
                let two = if j == 1 { !0u64 } else { 0 };
                let neg_s = ps ^ pc ^ two;
                let (x, y) = (!ps, !pc);
                let maj = (x & y) | (two & (x | y));
                let neg_c = prev_maj;
                prev_maj = maj;
                s.prod_s[j] = (neg_s & neg_mask) | (ps & !neg_mask);
                s.prod_c[j] = (neg_c & neg_mask) | (pc & !neg_mask);
            }
        }
    });

    // ---- per-lane alignment (the one variable-shift stage) ----
    // in plane form: the product is placed straight from its planes, the
    // addend after one transpose from the bank's limbs; lanes that share
    // a shift cost one copy, a spread adds one lane-masked stage per bit
    timed(&mut ns[ALIGNMENT], || {
        let mut p_shifts = [0i64; PLANE_LANES];
        let mut a_shifts = [0i64; PLANE_LANES];
        let mut act_p = 0u64; // lanes with a product in the window
        let mut act_a = 0u64; // lanes with a nonzero addend in the window
        for (k, p) in s.prep.iter().enumerate() {
            if !p.normal {
                continue;
            }
            act_p |= 1 << k;
            p_shifts[k] = p.p_shift;
            if !p.a_zero {
                act_a |= 1 << k;
                a_shifts[k] = p.a_shift;
            }
        }
        align_planes(&s.prod_s, &p_shifts[..len], act_p, w, &mut s.win[0]);
        align_planes(&s.prod_c, &p_shifts[..len], act_p, w, &mut s.win[1]);
        timed(&mut transpose_ns, || {
            for (planes, carry) in [(&mut s.add_s, false), (&mut s.add_c, true)] {
                planes.clear();
                planes.resize(m, 0);
                gather_planes(a_ops, carry, planes);
            }
        });
        align_planes(&s.add_s, &a_shifts[..len], act_a, w, &mut s.win[2]);
        align_planes(&s.add_c, &a_shifts[..len], act_a, w, &mut s.win[3]);
    });

    // ---- window compression with the A-rounding one-hot select ----
    timed(&mut ns[WINDOW], || {
        s.win[4].clear();
        s.win[4].resize(w, 0);
        let mut m5 = 0u64; // lanes whose fifth row (A round one-hot) exists
        for (k, p) in s.prep.iter().enumerate() {
            if p.normal && p.up_a && (0..w as i64).contains(&p.a_shift) {
                m5 |= 1 << k;
                s.win[4][p.a_shift as usize] |= 1 << k;
            }
        }
        // shared tree prefix: csa(r0,r1,r2) -> csa(.,r3) is the 4-row
        // result; one more csa over the one-hot is the 5-row result
        for v in [
            &mut s.red_a,
            &mut s.red_b,
            &mut s.red_c,
            &mut s.red_d,
            &mut s.red_e,
            &mut s.red_f,
        ] {
            v.clear();
            v.resize(w, 0);
        }
        plane_csa3_2(&s.win[0], &s.win[1], &s.win[2], &mut s.red_a, &mut s.red_b);
        plane_csa3_2(&s.red_a, &s.red_b, &s.win[3], &mut s.red_c, &mut s.red_d);
        plane_csa3_2(&s.red_c, &s.red_d, &s.win[4], &mut s.red_e, &mut s.red_f);
        // win_s/win_c live in red_a/red_b from here on
        for j in 0..w {
            s.red_a[j] = (s.red_e[j] & m5) | (s.red_c[j] & !m5);
            s.red_b[j] = (s.red_f[j] & m5) | (s.red_d[j] & !m5);
        }

        // ---- Carry Reduce (PCS only) ----
        if let Some(k) = f.carry_spacing {
            plane_carry_reduce(&mut s.red_a, &mut s.red_b, k);
        }
    });

    let rw = keep * bb;
    timed(&mut ns[NORMALIZE], || {
        let win_s = &s.red_a;
        let win_c = &s.red_b;

        // ---- block classification (Fig. 10) over digit planes ----
        let is0 = |ws: &[u64], wc: &[u64], p: usize| !ws[p] & !wc[p];
        let is1 = |ws: &[u64], wc: &[u64], p: usize| ws[p] ^ wc[p];
        let is2 = |ws: &[u64], wc: &[u64], p: usize| ws[p] & wc[p];
        // MSB-first block k covers digits [(nb-1-k)*bb, (nb-k)*bb)
        let mut az = [0u64; 16];
        let mut ao = [0u64; 16];
        let mut rz = [0u64; 16];
        let mut top0 = [0u64; 16];
        let mut top1 = [0u64; 16];
        assert!(nb <= 16, "window block count exceeds classifier arrays");
        for k in 0..nb {
            let base = (nb - 1 - k) * bb;
            let top = base + bb - 1;
            let (mut all0, mut all1) = (!0u64, !0u64);
            for p in base..=top {
                all0 &= is0(win_s, win_c, p);
                all1 &= is1(win_s, win_c, p);
            }
            // ripple-zero: a leading run of 1s closed by a 2, zeros below
            let mut in_run = is1(win_s, win_c, top);
            let mut await0 = 0u64;
            for p in (base..top).rev() {
                let next_await = (await0 & is0(win_s, win_c, p)) | (in_run & is2(win_s, win_c, p));
                in_run &= is1(win_s, win_c, p);
                await0 = next_await;
            }
            az[k] = all0;
            ao[k] = all1;
            rz[k] = await0 & !all1;
            top0[k] = is0(win_s, win_c, top);
            top1[k] = is1(win_s, win_c, top);
        }
        for st in &strikes {
            if st.site == crate::fault::FaultSite::PlaneClassifyMask {
                // strike an all-zero mask the struck lane's skip chain will
                // actually consume: a flip below the chain's stop point is
                // architecturally masked and tells a campaign nothing, so
                // walk the skippable range (starting from the seeded block)
                // for a flip that changes the lane's resolved skip — halting
                // the chain early (low mantissa bits fall out of the kept
                // slice) or driving it past a live block (leading bits lost)
                let k = st.lane % PLANE_LANES;
                let range = (nb - keep).max(1);
                let lane_skip = |az: &[u64; 16]| -> usize {
                    if k >= len || !s.prep[k].normal {
                        return 0;
                    }
                    let lane = 1u64 << k;
                    let mut skip = 0usize;
                    while nb - skip > keep {
                        let ok = if (az[skip] | rz[skip]) & lane != 0 {
                            top0[skip + 1] & lane != 0
                        } else if ao[skip] & lane != 0 {
                            top1[skip + 1] & lane != 0
                        } else {
                            false
                        };
                        if !ok {
                            break;
                        }
                        skip += 1;
                    }
                    skip.min(s.prep[k].skip_cap)
                };
                let clean = lane_skip(&az);
                let mut j = st.sel as usize % range;
                for off in 0..range {
                    let cand = (st.sel as usize + off) % range;
                    let mut flipped = az;
                    flipped[cand] ^= 1u64 << k;
                    if lane_skip(&flipped) != clean {
                        j = cand;
                        break;
                    }
                }
                az[j] ^= 1u64 << k;
            }
        }

        // ---- per-lane skip chain over the block-class masks ----
        s.skips.clear();
        s.skips.resize(len, 0);
        for (k, p) in s.prep.iter().enumerate() {
            if !p.normal {
                continue;
            }
            let lane = 1u64 << k;
            let mut skip = 0usize;
            while nb - skip > keep {
                let ok = if (az[skip] | rz[skip]) & lane != 0 {
                    top0[skip + 1] & lane != 0
                } else if ao[skip] & lane != 0 {
                    top1[skip + 1] & lane != 0
                } else {
                    false
                };
                if !ok {
                    break;
                }
                skip += 1;
            }
            s.skips[k] = skip.min(p.skip_cap);
        }

        // ---- result block mux: OR the windows under per-skip lane masks ----
        let mut sel = [0u64; 16];
        for (k, p) in s.prep.iter().enumerate() {
            if p.normal {
                sel[s.skips[k]] |= 1 << k;
            }
        }
        s.res_s.clear();
        s.res_s.resize(rw, 0);
        s.res_c.clear();
        s.res_c.resize(rw, 0);
        s.rnd_s.clear();
        s.rnd_s.resize(bb, 0);
        s.rnd_c.clear();
        s.rnd_c.resize(bb, 0);
        #[allow(clippy::needless_range_loop)] // sk also derives the window base offset
        for sk in 0..=(nb - keep) {
            let mask = sel[sk];
            if mask == 0 {
                continue;
            }
            let base = (nb - keep - sk) * bb;
            for r in 0..rw {
                s.res_s[r] |= win_s[base + r] & mask;
                s.res_c[r] |= win_c[base + r] & mask;
            }
            if sk + keep < nb {
                // the block below the selected slice is the rounding data
                for r in 0..bb {
                    s.rnd_s[r] |= win_s[base - bb + r] & mask;
                    s.rnd_c[r] |= win_c[base - bb + r] & mask;
                }
            }
        }
        if std::mem::take(&mut s.corrupt_next_plane_word) {
            s.res_s[0] ^= 1;
        }
    });

    // ---- untranspose + writeback in place: the bank's first write ----
    timed(&mut ns[WRITEBACK], || {
        timed(&mut transpose_ns, || {
            let words = [
                (&s.res_s, rw),
                (&s.res_c, rw),
                (&s.rnd_s, bb),
                (&s.rnd_c, bb),
            ];
            for (out, (planes, width)) in s.out.iter_mut().zip(words) {
                planes_to_lane_limbs(planes, width, out);
            }
        });
        let (rg, bg) = (rw.div_ceil(64), bb.div_ceil(64));
        let [res_s, res_c, rnd_s, rnd_c] = &s.out;
        for (k, p) in s.prep.iter().enumerate() {
            if !p.normal {
                continue;
            }
            let (ms, mc) = (&res_s[k * rg..][..rg], &res_c[k * rg..][..rg]);
            let (rs, rc) = (&rnd_s[k * bg..][..bg], &rnd_c[k * bg..][..bg]);
            let e_r = (nb - s.skips[k] - keep) as i64 * bb as i64 + p.wls + fc;
            bank[dst + k].assign_normal(
                &f,
                two_word_sign(ms, mc, rw),
                [ms, mc],
                [rs, rc],
                BiasedExp::from_unbiased_saturating(e_r),
            );
        }
        for (k, r) in s.early.drain(..) {
            bank[dst + k] = r;
        }
    });
    PlaneStats {
        lanes: n_plane,
        exception_lanes: len as u64 - n_plane,
        transpose_ns,
        stage_ns: ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::CsFmaFormat;
    use csfma_softfloat::FpFormat;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn gen_f64(state: &mut u64) -> f64 {
        let r = splitmix(state);
        match r % 12 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::NAN,
            5 => f64::MIN_POSITIVE / 2.0, // subnormal (flushed on input)
            6 => 1.0,
            7 => -1.0,
            _ => {
                let mag = ((r >> 8) % 2001) as f64 - 1000.0;
                mag * 1.5e-2
            }
        }
    }

    fn assert_same(lhs: &CsOperand, rhs: &CsOperand, what: &str) {
        assert_eq!(lhs.class(), rhs.class(), "{what}: class");
        assert_eq!(lhs.sign_hint(), rhs.sign_hint(), "{what}: sign hint");
        assert_eq!(lhs.exp(), rhs.exp(), "{what}: exponent");
        assert_eq!(lhs.mant().sum(), rhs.mant().sum(), "{what}: mant sum");
        assert_eq!(lhs.mant().carry(), rhs.mant().carry(), "{what}: mant carry");
        assert_eq!(lhs.round().sum(), rhs.round().sum(), "{what}: round sum");
        assert_eq!(
            lhs.round().carry(),
            rhs.round().carry(),
            "{what}: round carry"
        );
    }

    /// Chain three FMAs per lane so the plane kernel sees operands in
    /// genuine (non-canonical) carry-save form, with the full special-
    /// value mix, and compare every link against the scalar engine.
    #[test]
    fn plane_chunk_matches_scalar_on_all_formats() {
        for fmt in [
            CsFmaFormat::PCS_55_ZD,
            CsFmaFormat::PCS_58_LZA,
            CsFmaFormat::FCS_29_LZA,
            CsFmaFormat::PCS_27_SP,
            CsFmaFormat::FCS_15_SP,
        ] {
            let unit = CsFmaUnit::new(fmt);
            let bfmt = if fmt.b_sig_bits == 24 {
                FpFormat::BINARY32
            } else {
                FpFormat::BINARY64
            };
            let mut plane_scratch = PlaneScratch::default();
            let mut fma_scratch = FmaScratch::default();
            for &len in &[64usize, 17, 1] {
                let mut state = 0xc0ff_ee00 ^ fmt.mant_bits() as u64 ^ (len as u64) << 32;
                let mut plane_bank: Vec<CsOperand> = (0..3 * len)
                    .map(|_| {
                        CsOperand::from_ieee(&SoftFloat::from_f64(bfmt, gen_f64(&mut state)), fmt)
                    })
                    .collect();
                let mut scalar_bank = plane_bank.clone();
                for link in 0..3 {
                    let b: Vec<SoftFloat> = (0..len)
                        .map(|_| SoftFloat::from_f64(bfmt, gen_f64(&mut state)))
                        .collect();
                    // acc = previous dst, so CS-form results feed back in
                    let stats = plane_fma_chunk(
                        &unit,
                        &mut plane_bank,
                        0,
                        len,
                        0,
                        &b,
                        len,
                        &mut plane_scratch,
                    );
                    assert_eq!(stats.lanes + stats.exception_lanes, len as u64);
                    for k in 0..len {
                        let r = unit.fma_with(
                            &scalar_bank[k].clone(),
                            &b[k],
                            &scalar_bank[len + k],
                            &mut fma_scratch,
                        );
                        scalar_bank[k] = r;
                        assert_same(
                            &plane_bank[k],
                            &scalar_bank[k],
                            &format!("{} len {len} link {link} lane {k}", fmt.name),
                        );
                    }
                }
            }
        }
    }

    /// The armed corruption hook must change exactly the targeted lane.
    #[test]
    fn corruption_hook_flips_lane_zero() {
        let fmt = CsFmaFormat::PCS_55_ZD;
        let unit = CsFmaUnit::new(fmt);
        let mut scratch = PlaneScratch::default();
        let mk = |v: f64| CsOperand::from_f64(v, fmt);
        let mut bank = vec![mk(1.5), mk(0.25), mk(3.0), mk(2.0), mk(0.0), mk(0.0)];
        let b = vec![SoftFloat::from_f64(FpFormat::BINARY64, 1.25); 2];
        let clean = {
            let mut bank = bank.clone();
            plane_fma_chunk(&unit, &mut bank, 0, 2, 4, &b, 2, &mut scratch);
            (bank[4].clone(), bank[5].clone())
        };
        scratch.corrupt_next_plane_word = true;
        plane_fma_chunk(&unit, &mut bank, 0, 2, 4, &b, 2, &mut scratch);
        assert_ne!(
            bank[4].mant().sum(),
            clean.0.mant().sum(),
            "lane 0 must be corrupted"
        );
        assert_eq!(bank[5].mant().sum(), clean.1.mant().sum());
    }
}
