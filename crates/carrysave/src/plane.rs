//! Bit-plane (bit-sliced) carry-save primitives.
//!
//! A *plane* view transposes up to [`PLANE_LANES`] independent values of
//! the same width: plane word `j` holds bit `j` of every lane, one lane
//! per bit of the `u64`. Boolean datapath stages — CSA compression, the
//! partial-carry-save segment adders, block classification — then run as
//! word-parallel logic: one machine operation advances all 64 lanes
//! through one gate level. This is the software analogue of the fact that
//! the paper's units are *fixed wiring*: every lane takes the same tree,
//! so the tree can be evaluated once over lane-mask words.
//!
//! Data stays in plane form between stages. The Wallace reduction
//! ([`plane_reduce_to_cs`]) runs depth first over at most three pending
//! rows per tree level and reads its input rows straight from the
//! caller's planes under a lane mask. The window aligner
//! ([`align_planes`]) copies its source planes once and moves lanes with
//! different shifts by lane-masked stages, so a chunk whose lanes share
//! one shift costs one copy. Transposes ([`transpose64`]) are needed only
//! where values enter or leave lane-major form.
//!
//! The contract of every routine here is bit-exactness versus its scalar
//! counterpart ([`csa3_2`](crate::csa3_2),
//! [`reduce_to_cs_with`](crate::reduce_to_cs_with),
//! [`CsNumber::carry_reduce`](crate::CsNumber::carry_reduce) in this
//! crate, `align_addend` in `csfma-units`) — enforced lane-by-lane by the
//! tests at the bottom of this module and, for the aligner, in
//! `csfma-units`.

/// Lanes carried by one plane word (bits of a `u64`).
pub const PLANE_LANES: usize = 64;

/// In-place 64×64 bit-matrix transpose (recursive delta-swap, after
/// Hacker's Delight 7-3 with the quadrant exchange mirrored for the
/// bit-`0`-is-column-`0` convention): afterwards, bit `l` of `a[j]` is
/// what bit `j` of `a[l]` was.
///
/// Six rounds, one per block size `2^r` (32 down to 1). Round `r`
/// exchanges the off-diagonal `2^r`-bit quadrants of every aligned
/// `2^(r+1)`-word block, pairing word `k` with word `k + 2^r`; within a
/// block those pairs form two contiguous runs, so each round is a plain
/// loop the compiler can keep in vector registers.
pub fn transpose64(a: &mut [u64; 64]) {
    #[inline(always)]
    fn round<const J: usize>(a: &mut [u64; 64], m: u64) {
        for block in a.chunks_exact_mut(2 * J) {
            let (lo, hi) = block.split_at_mut(J);
            for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                let t = ((*x >> J) ^ *y) & m;
                *x ^= t << J;
                *y ^= t;
            }
        }
    }
    round::<32>(a, 0x0000_0000_FFFF_FFFF);
    round::<16>(a, 0x0000_FFFF_0000_FFFF);
    round::<8>(a, 0x00FF_00FF_00FF_00FF);
    round::<4>(a, 0x0F0F_0F0F_0F0F_0F0F);
    round::<2>(a, 0x3333_3333_3333_3333);
    round::<1>(a, 0x5555_5555_5555_5555);
}

/// Transpose plane-major words into a flat lane-major limb matrix:
/// `out[l * groups + g]` is limb `g` of lane `l`'s value, where
/// `groups = width.div_ceil(64)`. All [`PLANE_LANES`] lanes are
/// produced; bits above `width` read zero.
///
/// # Panics
/// If `planes.len() < width`.
pub fn planes_to_lane_limbs(planes: &[u64], width: usize, out: &mut Vec<u64>) {
    assert!(planes.len() >= width, "plane set narrower than width");
    let groups = width.div_ceil(64);
    out.clear();
    out.resize(PLANE_LANES * groups, 0);
    let mut m = [0u64; PLANE_LANES];
    for g in 0..groups {
        let hi = (width - g * 64).min(64);
        m[..hi].copy_from_slice(&planes[g * 64..g * 64 + hi]);
        m[hi..].fill(0);
        transpose64(&mut m);
        for (l, w) in m.iter().enumerate() {
            out[l * groups + g] = *w;
        }
    }
}

/// Per-lane window alignment in plane form, bit-exact with
/// [`align_addend`](../../csfma_units/align/fn.align_addend.html)'s
/// frame placement per lane: output plane `j` of lane `l` reads
/// `src_ext(j - shifts[l])`, where `src_ext` is zero below bit 0, the
/// lane's source bits on `[0, src.len())` and the lane's sign bit (the
/// top source plane) above — i.e. each lane is sign-extended and placed
/// at its own signed offset, bits falling outside the `w`-bit frame
/// wired away. Lanes not set in `active` produce all-zero columns.
///
/// The source planes are copied once at the largest active shift, with
/// zero planes below and the sign plane above. Each lane `l` then still
/// has to move down by its distance `d_l` from that shift, which one
/// lane-masked stage per bit of the spread does: stage `s` sets
/// `x[j] = x[j + 2^s]` in the lanes whose `d_l` has bit `s`. When every
/// active lane shares one shift there are no stages; shifts are clamped
/// to `[1 - src.len(), w]` first, which changes no output bit (a lane at
/// or above `w` places nothing in the frame, one at or below
/// `1 - src.len()` only its sign) and bounds the spread.
///
/// # Panics
/// If `src` is empty or `shifts` covers more than [`PLANE_LANES`] lanes.
pub fn align_planes(src: &[u64], shifts: &[i64], active: u64, w: usize, out: &mut Vec<u64>) {
    let src_w = src.len();
    assert!(src_w > 0, "empty alignment source");
    assert!(shifts.len() <= PLANE_LANES, "too many lanes");
    let active = active
        & (!0u64)
            .checked_shl(shifts.len() as u32)
            .map_or(!0, |hi| !hi);
    let clamp = |sh: i64| sh.clamp(1 - src_w as i64, w as i64);
    let lanes = || {
        shifts
            .iter()
            .enumerate()
            .filter(move |&(l, _)| active >> l & 1 != 0)
            .map(|(l, &sh)| (l, clamp(sh)))
    };
    let top = lanes().map(|(_, sh)| sh).max().unwrap_or(0);
    let mut masks = [0u64; 64]; // masks[s]: lanes moved down by 2^s
    let mut spread = 0u64;
    for (l, sh) in lanes() {
        let mut d = (top - sh) as u64;
        spread |= d;
        while d != 0 {
            masks[d.trailing_zeros() as usize] |= 1 << l;
            d &= d - 1;
        }
    }
    let stages = (64 - spread.leading_zeros()) as usize;
    let mut len = w + (1 << stages) - 1;
    // the copy at `top`: zeros, the source planes, then the sign plane
    let lo = top.clamp(0, len as i64) as usize;
    let hi = (top + src_w as i64).clamp(0, len as i64) as usize;
    let first = (lo as i64 - top) as usize;
    out.clear();
    out.resize(len, 0);
    for (x, &v) in out[lo..hi].iter_mut().zip(&src[first..]) {
        *x = v & active;
    }
    out[hi..].fill(src[src_w - 1] & active);
    // planes below `band` are zero and planes from `hi` up are the sign
    // fill in every lane, before and after each stage: only the band moves
    let mut band = lo;
    let mut ahead = [0u64; 32];
    for (s, &m) in masks[..stages].iter().enumerate() {
        let d = 1 << s;
        len -= d;
        if m == 0 {
            continue;
        }
        band = band.saturating_sub(d);
        // `x[j + d]` is read before `x[j]` is written, a block at a time
        let end = hi.min(len);
        for j in (band..end).step_by(ahead.len()) {
            let n = (end - j).min(ahead.len());
            ahead[..n].copy_from_slice(&out[j + d..j + d + n]);
            for (x, &y) in out[j..j + n].iter_mut().zip(&ahead[..n]) {
                *x = (*x & !m) | (y & m);
            }
        }
    }
    out.truncate(w);
}

/// One row of a plane reduction: `width` plane words read from the
/// slice, each ANDed with the lane mask.
type PlaneRow<'a> = (&'a [u64], u64);

/// Row `r` of `rows` at plane `j`, under the row's lane mask.
#[inline(always)]
fn at(rows: &[PlaneRow; 3], r: usize, j: usize) -> u64 {
    let (x, m) = rows[r];
    x[j] & m
}

/// One 3:2 compression of three masked rows into a `sum` and a `carry`
/// row of the same width: `sum = a ^ b ^ c`, and the majority of plane `j`
/// lands in carry plane `j + 1`, written as an offset slice so no plane
/// waits on the one below it (the scalar `majority << 1`).
#[inline]
fn csa(rows: [PlaneRow; 3], sum: &mut [u64], carry: &mut [u64]) {
    let n = sum.len();
    let Some((k0, up)) = carry[..n].split_first_mut() else {
        return;
    };
    *k0 = 0;
    let rows = rows.map(|(x, m)| (&x[..n], m));
    for (j, k) in up.iter_mut().enumerate() {
        let (x, y, z) = (at(&rows, 0, j), at(&rows, 1, j), at(&rows, 2, j));
        let t = x ^ y;
        sum[j] = t ^ z;
        *k = (x & y) | (z & t);
    }
    sum[n - 1] = at(&rows, 0, n - 1) ^ at(&rows, 1, n - 1) ^ at(&rows, 2, n - 1);
}

/// The `sum` half of [`csa`].
#[inline]
fn csa_sum(rows: [PlaneRow; 3], sum: &mut [u64]) {
    let n = sum.len();
    let rows = rows.map(|(x, m)| (&x[..n], m));
    for (j, s) in sum.iter_mut().enumerate() {
        *s = at(&rows, 0, j) ^ at(&rows, 1, j) ^ at(&rows, 2, j);
    }
}

/// The `carry` half of [`csa`].
#[inline]
fn csa_carry(rows: [PlaneRow; 3], carry: &mut [u64]) {
    let Some((k0, up)) = carry.split_first_mut() else {
        return;
    };
    *k0 = 0;
    let rows = rows.map(|(x, m)| (&x[..up.len()], m));
    for (j, k) in up.iter_mut().enumerate() {
        let (x, y, z) = (at(&rows, 0, j), at(&rows, 1, j), at(&rows, 2, j));
        *k = (x & y) | (z & (x ^ y));
    }
}

/// Plane-parallel 3:2 compressor, bit-exact with
/// [`csa3_2`](crate::csa3_2) per lane: `sum[j] = a[j] ^ b[j] ^ c[j]`,
/// `carry[j] = maj(a, b, c)[j-1]` (the `majority << 1` of the scalar
/// compressor; the top majority plane is dropped by the width, exactly
/// like the scalar `shl`).
///
/// # Panics
/// If the five slices do not all have the same length.
pub fn plane_csa3_2(a: &[u64], b: &[u64], c: &[u64], sum: &mut [u64], carry: &mut [u64]) {
    let w = a.len();
    assert!(
        b.len() == w && c.len() == w && sum.len() == w && carry.len() == w,
        "plane width mismatch"
    );
    csa([(a, !0), (b, !0), (c, !0)], sum, carry);
}

/// Plane-parallel Wallace reduction with exactly the tree shape of
/// [`reduce_to_cs_with`](crate::reduce_to_cs_with) for the same row
/// count: at every level, rows are consumed three at a time in order,
/// each chunk's sum/carry pair goes to the next level in order, and the
/// `< 3` remainder follows the level's chunk outputs. Bit-exactness per
/// lane follows because the shape depends only on `n_rows` — which is
/// why the scalar multiplier feeds a *fixed* number of rows regardless
/// of operand values.
///
/// The tree is evaluated depth first: a level compresses as soon as
/// three rows are pending, and the remainder of a level moves up once
/// every row below has arrived — the same chunks, met in a different
/// order. Each level above the inputs holds at most three rows of
/// `width` plane words in `pending`, so the working set stays small
/// whatever `n_rows` is.
///
/// Input row `r` is `row(r)`: the first `width` words of its slice,
/// ANDed with its lane mask (the multiplier's AND gates). The reduced
/// pair lands in `sum`/`carry` (resized to `width`).
///
/// # Panics
/// If `n_rows == 0` or a row slice is shorter than `width`.
pub fn plane_reduce_to_cs<'a>(
    n_rows: usize,
    width: usize,
    row: impl Fn(usize) -> PlaneRow<'a>,
    pending: &mut Vec<u64>,
    sum: &mut Vec<u64>,
    carry: &mut Vec<u64>,
) {
    assert!(n_rows > 0, "reduction of zero rows");
    let row = |r: usize| {
        let (x, m) = row(r);
        (&x[..width], m)
    };
    let masked = |(x, m): PlaneRow<'a>| x.iter().map(move |&v| v & m);
    // the levels above the inputs: the last one holds the final <= 2 rows
    let mut levels = 0;
    let mut n = n_rows;
    while n > 2 {
        n = 2 * (n / 3) + n % 3;
        levels += 1;
    }
    sum.clear();
    carry.clear();
    if levels == 0 {
        sum.extend(masked(row(0)));
        match n_rows {
            2 => carry.extend(masked(row(1))),
            _ => carry.resize(width, 0),
        }
        return;
    }
    let mut tree = Tree {
        width,
        count: vec![0; levels],
    };
    pending.clear();
    pending.resize(levels * 3 * width, 0);
    let chunks = n_rows / 3;
    for t in 0..chunks {
        tree.feed(0, [row(3 * t), row(3 * t + 1), row(3 * t + 2)], pending);
    }
    for r in 3 * chunks..n_rows {
        tree.push(0, row(r), pending);
    }
    // each level's remainder follows its chunk outputs up
    for lv in 0..levels - 1 {
        let (below, above) = pending.split_at_mut((lv + 1) * 3 * width);
        for q in 0..std::mem::take(&mut tree.count[lv]) as usize {
            let r = &below[(lv * 3 + q) * width..][..width];
            tree.push(lv + 1, (r, !0), above);
        }
    }
    let last = &pending[(levels - 1) * 3 * width..];
    sum.extend_from_slice(&last[..width]);
    match tree.count[levels - 1] {
        2 => carry.extend_from_slice(&last[width..2 * width]),
        _ => carry.resize(width, 0),
    }
}

/// Pending-row counts of a depth-first plane reduction. Level `lv`'s
/// three row slots are the first `3 * width` words of the arena slice
/// its methods receive, the levels above it follow.
struct Tree {
    width: usize,
    count: Vec<u8>,
}

impl Tree {
    /// Append one row to level `lv`.
    fn push(&mut self, lv: usize, (x, m): PlaneRow, level: &mut [u64]) {
        let w = self.width;
        let p = self.count[lv] as usize;
        for (d, &v) in level[p * w..(p + 1) * w].iter_mut().zip(x) {
            *d = v & m;
        }
        self.count[lv] += 1;
        if self.count[lv] == 3 {
            self.compress(lv, level);
        }
    }

    /// Compress `rows` from the level below into level `lv`. With two
    /// rows already pending, the sum completes this level's chunk before
    /// the carry becomes the first row of its next one.
    fn feed(&mut self, lv: usize, rows: [PlaneRow; 3], level: &mut [u64]) {
        let w = self.width;
        let p = self.count[lv] as usize;
        if p < 2 {
            let (s, k) = level[p * w..(p + 2) * w].split_at_mut(w);
            csa(rows, s, k);
            self.count[lv] += 2;
            if self.count[lv] == 3 {
                self.compress(lv, level);
            }
        } else {
            csa_sum(rows, &mut level[2 * w..3 * w]);
            self.compress(lv, level);
            csa_carry(rows, &mut level[..w]);
            self.count[lv] = 1;
        }
    }

    /// Level `lv` holds three rows: compress them into level `lv + 1`.
    fn compress(&mut self, lv: usize, level: &mut [u64]) {
        let w = self.width;
        assert!(lv + 1 < self.count.len(), "the top level never compresses");
        self.count[lv] = 0;
        let (this, above) = level.split_at_mut(3 * w);
        let (a, rest) = this.split_at(w);
        let (b, c) = rest.split_at(w);
        self.feed(lv + 1, [(a, !0), (b, !0), (c, !0)], above);
    }
}

/// Plane-parallel Carry Reduce (Sec. III-E), bit-exact with
/// [`CsNumber::carry_reduce`](crate::CsNumber::carry_reduce) per lane:
/// each `spacing`-digit segment is summed by a ripple of full adders
/// (constant depth in hardware — the segments are narrow by design), the
/// sum bits replace `sum`, and the segment carry-out becomes the single
/// explicit carry bit at the next segment's base. The final segment's
/// carry-out falls off the window top, exactly like the scalar code.
pub fn plane_carry_reduce(sum: &mut [u64], carry: &mut [u64], spacing: usize) {
    let width = sum.len();
    assert_eq!(carry.len(), width, "plane width mismatch");
    assert!(spacing > 0, "carry spacing must be positive");
    let mut pending = 0u64; // carry-out plane owed to the next segment base
    let mut lo = 0;
    while lo < width {
        let len = spacing.min(width - lo);
        let mut cin = 0u64;
        for b in 0..len {
            let p = lo + b;
            let (s, c) = (sum[p], carry[p]);
            sum[p] = s ^ c ^ cin;
            let cout = (s & c) | (c & cin) | (s & cin);
            carry[p] = if b == 0 { pending } else { 0 };
            cin = cout;
        }
        pending = cin;
        lo += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{csa3_2, reduce_to_cs_with, CsNumber, ReduceScratch};
    use csfma_bits::Bits;

    /// Transpose lane-major values into plane-major words: `out[j]` bit
    /// `l` equals `lanes[l].bit(j)`; lanes beyond `lanes.len()` read zero.
    fn lanes_to_planes(lanes: &[Bits], width: usize, out: &mut Vec<u64>) {
        out.clear();
        out.resize(width, 0);
        let mut m = [0u64; PLANE_LANES];
        for g in 0..width.div_ceil(64) {
            for (l, w) in m.iter_mut().enumerate() {
                *w = lanes.get(l).map_or(0, |b| b.limbs()[g]);
            }
            transpose64(&mut m);
            let hi = (width - g * 64).min(64);
            out[g * 64..g * 64 + hi].copy_from_slice(&m[..hi]);
        }
    }

    /// The first `n_lanes` lanes of plane words, rebuilt as values
    /// through [`planes_to_lane_limbs`].
    fn planes_to_lanes(planes: &[u64], width: usize, n_lanes: usize, out: &mut Vec<Bits>) {
        let mut limbs = Vec::new();
        planes_to_lane_limbs(planes, width, &mut limbs);
        let g = width.div_ceil(64);
        out.clear();
        out.extend((0..n_lanes).map(|l| Bits::from_limbs(width, &limbs[l * g..(l + 1) * g])));
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_bits(width: usize, state: &mut u64) -> Bits {
        let limbs: Vec<u64> = (0..width.div_ceil(64)).map(|_| splitmix(state)).collect();
        Bits::from_limbs(width, &limbs)
    }

    #[test]
    fn transpose_round_trips_and_matches_bit_lookup() {
        let mut state = 7u64;
        let mut a = [0u64; 64];
        for w in a.iter_mut() {
            *w = splitmix(&mut state);
        }
        let orig = a;
        transpose64(&mut a);
        for (j, w) in a.iter().enumerate() {
            for (l, o) in orig.iter().enumerate() {
                assert_eq!((w >> l) & 1, (o >> j) & 1, "({j},{l})");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn lane_plane_round_trip() {
        for &(width, n_lanes) in &[(1usize, 1usize), (63, 64), (64, 17), (165, 64), (385, 37)] {
            let mut state = width as u64 ^ (n_lanes as u64) << 32;
            let lanes: Vec<Bits> = (0..n_lanes)
                .map(|_| random_bits(width, &mut state))
                .collect();
            let mut planes = Vec::new();
            lanes_to_planes(&lanes, width, &mut planes);
            for (j, p) in planes.iter().enumerate() {
                for (l, lane) in lanes.iter().enumerate() {
                    assert_eq!((p >> l) & 1 == 1, lane.bit(j), "plane {j} lane {l}");
                }
            }
            let mut back = Vec::new();
            planes_to_lanes(&planes, width, n_lanes, &mut back);
            assert_eq!(back, lanes);
        }
    }

    #[test]
    fn plane_csa_matches_scalar_per_lane() {
        let width = 97;
        let mut state = 11u64;
        let a: Vec<Bits> = (0..64).map(|_| random_bits(width, &mut state)).collect();
        let b: Vec<Bits> = (0..64).map(|_| random_bits(width, &mut state)).collect();
        let c: Vec<Bits> = (0..64).map(|_| random_bits(width, &mut state)).collect();
        let (mut pa, mut pb, mut pc) = (Vec::new(), Vec::new(), Vec::new());
        lanes_to_planes(&a, width, &mut pa);
        lanes_to_planes(&b, width, &mut pb);
        lanes_to_planes(&c, width, &mut pc);
        let (mut ps, mut pk) = (vec![0; width], vec![0; width]);
        plane_csa3_2(&pa, &pb, &pc, &mut ps, &mut pk);
        let (mut ls, mut lk) = (Vec::new(), Vec::new());
        planes_to_lanes(&ps, width, 64, &mut ls);
        planes_to_lanes(&pk, width, 64, &mut lk);
        for l in 0..64 {
            let cs = csa3_2(&a[l], &b[l], &c[l]);
            assert_eq!(&ls[l], cs.sum(), "lane {l} sum");
            assert_eq!(&lk[l], cs.carry(), "lane {l} carry");
        }
    }

    /// The depth-first reduction against the scalar level-by-level tree
    /// at every row count from 1 to 107 (the PCS/FCS multipliers feed
    /// 107), with a random lane mask on every input row: a lane whose
    /// mask bit is clear sees that row as zero.
    #[test]
    fn plane_reduce_matches_scalar_tree_shape() {
        let width = 70;
        let (mut pending, mut sum, mut carry) = (Vec::new(), Vec::new(), Vec::new());
        let mut scratch = ReduceScratch::default();
        for n_rows in 1usize..=107 {
            let mut state = n_rows as u64;
            let masks: Vec<u64> = (0..n_rows).map(|_| splitmix(&mut state)).collect();
            // per-lane row sets share the row count, not the values
            let rows: Vec<Vec<Bits>> = (0..64)
                .map(|_| {
                    (0..n_rows)
                        .map(|_| random_bits(width, &mut state))
                        .collect()
                })
                .collect();
            let mut layer = vec![0u64; n_rows * width];
            for r in 0..n_rows {
                let lane_row: Vec<Bits> = rows.iter().map(|lane| lane[r].clone()).collect();
                let mut planes = Vec::new();
                lanes_to_planes(&lane_row, width, &mut planes);
                layer[r * width..(r + 1) * width].copy_from_slice(&planes);
            }
            let row = |r: usize| (&layer[r * width..(r + 1) * width], masks[r]);
            plane_reduce_to_cs(n_rows, width, row, &mut pending, &mut sum, &mut carry);
            let (mut ls, mut lk) = (Vec::new(), Vec::new());
            planes_to_lanes(&sum, width, 64, &mut ls);
            planes_to_lanes(&carry, width, 64, &mut lk);
            for (l, lane_rows) in rows.iter().enumerate() {
                let rs: Vec<Bits> = lane_rows
                    .iter()
                    .zip(&masks)
                    .map(|(v, m)| {
                        if m >> l & 1 != 0 {
                            v.clone()
                        } else {
                            Bits::zero(width)
                        }
                    })
                    .collect();
                let scalar = reduce_to_cs_with(&rs, width, &mut scratch);
                assert_eq!(&ls[l], scalar.cs.sum(), "rows {n_rows} lane {l} sum");
                assert_eq!(&lk[l], scalar.cs.carry(), "rows {n_rows} lane {l} carry");
            }
        }
    }

    #[test]
    fn plane_carry_reduce_matches_scalar_per_lane() {
        for &(width, spacing) in &[(385usize, 11usize), (406, 29), (60, 11), (33, 33), (5, 2)] {
            let mut state = (width * 31 + spacing) as u64;
            let s: Vec<Bits> = (0..64).map(|_| random_bits(width, &mut state)).collect();
            let c: Vec<Bits> = (0..64).map(|_| random_bits(width, &mut state)).collect();
            let (mut ps, mut pc) = (Vec::new(), Vec::new());
            lanes_to_planes(&s, width, &mut ps);
            lanes_to_planes(&c, width, &mut pc);
            plane_carry_reduce(&mut ps, &mut pc, spacing);
            let (mut ls, mut lk) = (Vec::new(), Vec::new());
            planes_to_lanes(&ps, width, 64, &mut ls);
            planes_to_lanes(&pc, width, 64, &mut lk);
            for l in 0..64 {
                let pcs = CsNumber::new(s[l].clone(), c[l].clone()).carry_reduce(spacing);
                assert_eq!(&ls[l], pcs.sum(), "w{width}/k{spacing} lane {l} sum");
                assert_eq!(&lk[l], pcs.carry(), "w{width}/k{spacing} lane {l} carry");
            }
        }
    }
}
