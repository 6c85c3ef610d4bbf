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
//! The contract of every routine here is bit-exactness versus its scalar
//! counterpart in this crate ([`csa3_2`](crate::csa3_2),
//! [`reduce_to_cs_with`](crate::reduce_to_cs_with),
//! [`CsNumber::carry_reduce`](crate::CsNumber::carry_reduce)) — enforced
//! lane-by-lane by the tests at the bottom of this module.

/// Lanes carried by one plane word (bits of a `u64`).
pub const PLANE_LANES: usize = 64;

/// In-place 64×64 bit-matrix transpose (recursive delta-swap, after
/// Hacker's Delight 7-3 with the quadrant exchange mirrored for the
/// bit-`0`-is-column-`0` convention): afterwards, bit `l` of `a[j]` is
/// what bit `j` of `a[l]` was.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
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

/// Per-lane window alignment straight to plane-major form, bit-exact
/// with [`align_addend`](../../csfma_units/align/fn.align_addend.html)'s
/// frame placement per lane: output plane `j` of lane `l` reads
/// `src_ext(j - shifts[l])`, where `src_ext` is zero below bit 0, the
/// lane's limb bits on `[0, src_w)` and the lane's sign bit (`src_w-1`)
/// above — i.e. each lane is sign-extended and placed at its own signed
/// offset, bits falling outside the `w`-bit frame wired away. Lanes not
/// set in `active` produce all-zero columns.
///
/// `lane_limbs` is the flat lane-major matrix of [`planes_to_lane_limbs`]
/// (`PLANE_LANES * src_w.div_ceil(64)` words); `scratch` is reusable
/// working storage; `out` is resized to `w` plane words.
///
/// # Panics
/// If `lane_limbs` is too small, `shifts` covers more than
/// [`PLANE_LANES`] lanes, or `src_w == 0`.
pub fn align_lanes_to_planes(
    lane_limbs: &[u64],
    src_w: usize,
    shifts: &[i64],
    active: u64,
    w: usize,
    scratch: &mut Vec<u64>,
    out: &mut Vec<u64>,
) {
    assert!(src_w > 0, "empty alignment source");
    assert!(shifts.len() <= PLANE_LANES, "too many lanes");
    let sg = src_w.div_ceil(64);
    let wg = w.div_ceil(64);
    assert!(
        lane_limbs.len() >= PLANE_LANES * sg,
        "lane matrix too small"
    );
    scratch.clear();
    scratch.resize(PLANE_LANES * wg, 0);
    let top_bit = (src_w - 1) % 64;
    let top_g = (src_w - 1) / 64;
    let used_top = src_w - (sg - 1) * 64; // bits of the top source limb in use
    for (l, &sh) in shifts.iter().enumerate() {
        if active & (1 << l) == 0 {
            continue;
        }
        let lane = &lane_limbs[l * sg..(l + 1) * sg];
        let fill = if (lane[top_g] >> top_bit) & 1 != 0 {
            !0u64
        } else {
            0
        };
        // sign-extended source limb, limb indices beyond either end
        // clamped to zero (below) or the sign fill (above)
        let ext = |k: i64| -> u64 {
            if k < 0 {
                0
            } else if (k as usize) < sg {
                let mut v = lane[k as usize];
                if k as usize == sg - 1 && used_top < 64 {
                    v &= (1u64 << used_top) - 1;
                    v |= fill << used_top;
                }
                v
            } else {
                fill
            }
        };
        for g in 0..wg {
            // funnel-gather the 64 source bits starting at j0 = 64g - sh
            let j0 = (64 * g) as i64 - sh;
            let (q, r) = (j0.div_euclid(64), j0.rem_euclid(64) as u32);
            scratch[l * wg + g] = if r == 0 {
                ext(q)
            } else {
                (ext(q) >> r) | (ext(q + 1) << (64 - r))
            };
        }
    }
    out.clear();
    out.resize(w, 0);
    let mut m = [0u64; PLANE_LANES];
    for g in 0..wg {
        for (l, mw) in m.iter_mut().enumerate() {
            *mw = scratch[l * wg + g];
        }
        transpose64(&mut m);
        let hi = (w - g * 64).min(64);
        out[g * 64..g * 64 + hi].copy_from_slice(&m[..hi]);
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
    if w == 0 {
        return;
    }
    sum[0] = a[0] ^ b[0] ^ c[0];
    carry[0] = 0;
    for j in 1..w {
        sum[j] = a[j] ^ b[j] ^ c[j];
        let (x, y, z) = (a[j - 1], b[j - 1], c[j - 1]);
        carry[j] = (x & y) | (y & z) | (x & z);
    }
}

/// Plane-parallel Wallace reduction with exactly the tree shape of
/// [`reduce_to_cs_with`](crate::reduce_to_cs_with) for the same row
/// count: rows are consumed three at a time in order, each chunk's
/// sum/carry pair is emitted in order, the `< 3` remainder rides along
/// to the next level. Bit-exactness per lane follows because the shape
/// depends only on `n_rows` — which is why the scalar multiplier feeds a
/// *fixed* number of rows regardless of operand values.
///
/// `layer` holds `n_rows` rows of `width` plane words each, row-major;
/// it is consumed as working storage. `spare` is the ping-pong buffer.
/// The reduced pair lands in `sum`/`carry` (resized to `width`).
///
/// # Panics
/// If `layer` is shorter than `n_rows * width` or `n_rows == 0`.
pub fn plane_reduce_to_cs(
    layer: &mut Vec<u64>,
    n_rows: usize,
    width: usize,
    spare: &mut Vec<u64>,
    sum: &mut Vec<u64>,
    carry: &mut Vec<u64>,
) {
    assert!(n_rows > 0, "reduction of zero rows");
    assert!(layer.len() >= n_rows * width, "layer arena too small");
    layer.truncate(n_rows * width);
    let mut n = n_rows;
    while n > 2 {
        let chunks = n / 3;
        let rem = n % 3;
        // every word of the spare level is written below (compressor
        // outputs plus the copied remainder), so no zero-fill is needed;
        // resize only adjusts the length
        spare.resize((2 * chunks + rem) * width, 0);
        for t in 0..chunks {
            let base = 3 * t * width;
            let (a, rest) = layer[base..].split_at(width);
            let (b, rest) = rest.split_at(width);
            let c = &rest[..width];
            let (s, k) = spare[2 * t * width..(2 * t + 2) * width].split_at_mut(width);
            plane_csa3_2(a, b, c, s, k);
        }
        spare[2 * chunks * width..].copy_from_slice(&layer[3 * chunks * width..n * width]);
        std::mem::swap(layer, spare);
        n = 2 * chunks + rem;
    }
    sum.clear();
    carry.clear();
    sum.extend_from_slice(&layer[..width]);
    if n == 2 {
        carry.extend_from_slice(&layer[width..2 * width]);
    } else {
        carry.resize(width, 0);
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

    #[test]
    fn plane_reduce_matches_scalar_tree_shape() {
        let width = 70;
        for n_rows in [1usize, 2, 3, 4, 5, 7, 12, 49, 107] {
            let mut state = n_rows as u64;
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
            let (mut spare, mut sum, mut carry) = (Vec::new(), Vec::new(), Vec::new());
            plane_reduce_to_cs(&mut layer, n_rows, width, &mut spare, &mut sum, &mut carry);
            let (mut ls, mut lk) = (Vec::new(), Vec::new());
            planes_to_lanes(&sum, width, 64, &mut ls);
            planes_to_lanes(&carry, width, 64, &mut lk);
            let mut scratch = ReduceScratch::default();
            for (l, lane_rows) in rows.iter().enumerate() {
                let rs = lane_rows.clone();
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
