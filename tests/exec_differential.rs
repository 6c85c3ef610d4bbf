//! Differential testing of the batch execution engine: for randomly
//! generated datapaths and adversarial stimulus (NaN, infinities, signed
//! zeros, subnormals, arbitrary bit patterns), the compiled tape must
//! reproduce the scalar reference interpreter **bit for bit** —
//! `TapeBackend::BitAccurate` against `eval_bit_accurate`, on discrete
//! graphs and on graphs rewritten by the Fig. 12 fusion pass. Full 64-row chunks with
//! one lane in the soft-float guard's window pin the bit backend's
//! chunk-wide guard.

use csfma::hls::interp::eval_bit_accurate;
use csfma::hls::{
    compile, compile_with, fuse_critical_paths, Cdfg, CompileOptions, FmaKind, FusionConfig, Instr,
    Profiler, RobustOptions, Tape, TapeBackend,
};
use proptest::prelude::*;
use std::collections::HashMap;

mod common;
use common::random_graph;

/// Adversarial stimulus: every IEEE special class plus raw bit noise.
fn stimulus() -> impl Strategy<Value = f64> {
    (0usize..10, any::<u64>(), -1.0e6f64..1.0e6).prop_map(|(class, bits, x)| match class {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::from_bits(bits % (1u64 << 52)), // +subnormal
        6 => -f64::from_bits(bits % (1u64 << 52)), // -subnormal
        7 => f64::from_bits(bits),                // anything at all
        8 => f64::MIN_POSITIVE * (1.0 + (bits % 8) as f64), // underflow border
        _ => x,
    })
}

fn input_map(g: &Cdfg, tape: &Tape, vals: &[f64]) -> (Vec<f64>, HashMap<String, f64>) {
    let _ = g;
    let row: Vec<f64> = tape
        .input_names()
        .iter()
        .enumerate()
        .map(|(k, _)| vals[k % vals.len()])
        .collect();
    let map = tape
        .input_names()
        .iter()
        .cloned()
        .zip(row.iter().copied())
        .collect();
    (row, map)
}

fn assert_tape_matches(g: &Cdfg, vals: &[f64]) {
    let tape = compile(g).expect("generated graphs are valid");
    let (row, map) = input_map(g, &tape, vals);
    let mut got = vec![0.0; tape.num_outputs()];

    tape.eval_row(TapeBackend::BitAccurate, &row, &mut got);
    let want = eval_bit_accurate(g, &map);
    for (name, v) in tape.output_names().iter().zip(&got) {
        prop_assert_eq!(
            v.to_bits(),
            want[name].to_bits(),
            "bit backend diverged on {} ({} vs {})",
            name,
            v,
            want[name]
        );
    }
}

/// Compile `g` with and without the post-gate optimizer and require the
/// two tapes to be **byte-identical observables**: same positional input
/// and output layout, and bitwise-equal batch results on the bit backend.
/// This is the contract that lets `--no-opt` serve as a live oracle for
/// the optimizer.
fn assert_optimizer_equivalent(g: &Cdfg, vals: &[f64]) {
    let opt = compile(g).expect("generated graphs are valid");
    let plain = compile_with(
        g,
        CompileOptions {
            optimize: false,
            ..CompileOptions::default()
        },
        &mut Profiler::disabled(),
    )
    .expect("same gate, same graph");
    prop_assert_eq!(opt.input_names(), plain.input_names());
    prop_assert_eq!(opt.output_names(), plain.output_names());
    let ni = opt.num_inputs();
    let n_rows = 7usize;
    let rows: Vec<f64> = (0..n_rows * ni).map(|i| vals[i % vals.len()]).collect();
    let backend = TapeBackend::BitAccurate;
    let a = opt.eval_batch(backend, &rows, 2);
    let b = plain.eval_batch(backend, &rows, 2);
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{:?}: optimized tape diverged at flat output {} ({} vs {})",
            backend,
            i,
            x,
            y
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Discrete graphs: every IEEE operator, adversarial values.
    #[test]
    fn tape_matches_oracles_on_random_graphs(
        n_inputs in 1usize..5,
        consts in prop::collection::vec(stimulus(), 0..3),
        ops in prop::collection::vec((0usize..5, any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..40),
        extra_out: prop::sample::Index,
        vals in prop::collection::vec(stimulus(), 1..8),
    ) {
        let g = random_graph(n_inputs, &consts, &ops, extra_out);
        assert_tape_matches(&g, &vals);
    }

    /// The same graphs pushed through the fusion pass: Fma, IeeeToCs and
    /// CsToIeee nodes now appear in the tape. Finite stimulus here — the
    /// carry-save chain's special-value contract is pinned separately by
    /// the unit-level matrix tests.
    #[test]
    fn tape_matches_oracles_on_fused_graphs(
        n_inputs in 1usize..5,
        ops in prop::collection::vec((0usize..5, any::<prop::sample::Index>(), any::<prop::sample::Index>()), 4..30),
        extra_out: prop::sample::Index,
        kind_pick: bool,
        vals in prop::collection::vec(-1.0e4f64..1.0e4, 1..8),
    ) {
        let g = random_graph(n_inputs, &[], &ops, extra_out);
        let kind = if kind_pick { FmaKind::Pcs } else { FmaKind::Fcs };
        let fused = fuse_critical_paths(&g, &FusionConfig::new(kind)).fused;
        assert_tape_matches(&fused, &vals);
    }

    /// Optimizer equivalence on discrete graphs under full adversarial
    /// stimulus: random constants exercise the fold guard (NaN-producing
    /// and non-canonical constants must NOT fold), repeated argument
    /// sampling exercises CSE, and the unsampled tail of the node list
    /// exercises DCE + dead-slot elimination.
    #[test]
    fn optimizer_preserves_bytes_on_random_graphs(
        n_inputs in 1usize..5,
        consts in prop::collection::vec(stimulus(), 0..4),
        ops in prop::collection::vec((0usize..5, any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..40),
        extra_out: prop::sample::Index,
        vals in prop::collection::vec(stimulus(), 1..8),
    ) {
        let g = random_graph(n_inputs, &consts, &ops, extra_out);
        assert_optimizer_equivalent(&g, &vals);
    }

    /// Optimizer equivalence on fused graphs: Fma / conversion nodes go
    /// through CSE and reordering too, and the carry-save slot banks must
    /// come out byte-compatible.
    #[test]
    fn optimizer_preserves_bytes_on_fused_graphs(
        n_inputs in 1usize..5,
        ops in prop::collection::vec((0usize..5, any::<prop::sample::Index>(), any::<prop::sample::Index>()), 4..30),
        extra_out: prop::sample::Index,
        kind_pick: bool,
        vals in prop::collection::vec(stimulus(), 1..8),
    ) {
        let g = random_graph(n_inputs, &[], &ops, extra_out);
        let kind = if kind_pick { FmaKind::Pcs } else { FmaKind::Fcs };
        let fused = fuse_critical_paths(&g, &FusionConfig::new(kind)).fused;
        assert_optimizer_equivalent(&fused, &vals);
    }

    /// Fused Listing 1 under full adversarial stimulus: the FMA units'
    /// special-value handling must agree between tape and oracle too.
    #[test]
    fn fused_listing1_matches_on_special_values(
        vals in prop::collection::vec(stimulus(), 10),
        kind_pick: bool,
    ) {
        let g = csfma::hls::parse_program(
            "x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;",
        ).unwrap();
        let kind = if kind_pick { FmaKind::Pcs } else { FmaKind::Fcs };
        let fused = fuse_critical_paths(&g, &FusionConfig::new(kind)).fused;
        assert_tape_matches(&fused, &vals);
    }
}

/// Operands `(a, b)` of `a op b` whose host result the soft-float guard
/// flags: `kind` 0 gives NaN, 1 a result inside `(0, MIN_POSITIVE)`, and
/// 2 the boundary `MIN_POSITIVE` itself, reached by `*` and `/` through
/// the round-to-even tie at `MIN_POSITIVE - 2^-1075`. Every operand is
/// normal, so input canonicalization keeps it.
fn flagged_operands(op: char, kind: usize) -> (f64, f64) {
    const MIN: f64 = f64::MIN_POSITIVE;
    let below_one = 1.0 - f64::EPSILON / 2.0; // 1 - 2^-53
    match (op, kind) {
        ('+', 0) => (f64::INFINITY, f64::NEG_INFINITY),
        ('-', 0) => (f64::INFINITY, f64::INFINITY),
        ('*', 0) => (0.0, f64::INFINITY),
        ('/', 0) => (0.0, 0.0),
        ('+', 1) => (1.5 * MIN, -MIN),
        ('-', 1) => (1.5 * MIN, MIN),
        ('*', 1) => (1.999999 * MIN, 0.5),
        ('/', 1) => (MIN, 3.0),
        ('+', _) => (3.0 * MIN, -2.0 * MIN),
        ('-', _) => (3.0 * MIN, 2.0 * MIN),
        ('*', _) => (below_one, MIN),
        _ => (2.0 * below_one * MIN, 2.0),
    }
}

fn host(op: char, a: f64, b: f64) -> f64 {
    match op {
        '+' => a + b,
        '-' => a - b,
        '*' => a * b,
        _ => a / b,
    }
}

/// A batch of `chunks` full chunks of `a op b` rows: `flags` lists
/// `(row, kind)` pairs of [`flagged_operands`]; every other row gives a
/// normal result.
fn guard_batch(op: char, chunks: usize, flags: &[(usize, usize)]) -> Vec<f64> {
    let mut rows = Vec::new();
    for r in 0..chunks * 64 {
        let (a, b) = match flags.iter().find(|&&(row, _)| row == r) {
            Some(&(_, kind)) => flagged_operands(op, kind),
            None => (1.5 + r as f64, 0.75),
        };
        let v = host(op, a, b);
        let flagged = csfma::softfloat::batch::needs_softfloat(v);
        assert_eq!(flagged, flags.iter().any(|&(row, _)| row == r), "row {r}");
        if flags.iter().any(|&(row, kind)| row == r && kind == 2) {
            assert_eq!(v, f64::MIN_POSITIVE, "{op}: the boundary case");
        }
        rows.extend([a, b]);
    }
    rows
}

/// Panics at the first row where `got` and `want` differ in any bit.
fn same_bits(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}");
    if let Some(r) = (0..got.len()).find(|&r| got[r].to_bits() != want[r].to_bits()) {
        panic!("{ctx}: row {r} gives {:e}, want {:e}", got[r], want[r]);
    }
}

/// The bit backend's hosted IEEE arms compute a whole chunk on the host
/// and check the soft-float guard once per chunk. One flagged lane among
/// 63 clean ones must still take the soft-float path, bit for bit as the
/// oracles, and count exactly one fallback; a promoted instruction takes
/// no guard at all.
#[test]
fn one_flagged_lane_per_chunk_takes_the_softfloat_path() {
    for op in ['+', '-', '*', '/'] {
        let g = csfma::hls::parse_program(&format!("out y = a {op} b;")).unwrap();
        let tape = compile(&g).unwrap();
        let mut promoted = compile(&g).unwrap();
        let ieee = |i: &Instr| {
            matches!(
                i,
                Instr::Add { .. } | Instr::Sub { .. } | Instr::Mul { .. } | Instr::Div { .. }
            )
        };
        let mask: Vec<bool> = promoted.instrs().iter().map(ieee).collect();
        assert_eq!(mask.iter().filter(|&&m| m).count(), 1);
        promoted.set_promoted(mask);

        let mut batches: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
        for lane in [0, 31, 63] {
            for kind in 0..3 {
                batches.push((1, vec![(lane, kind)]));
            }
        }
        batches.push((2, vec![(0, 0), (31, 1), (63, 2), (64 + 63, 1)]));
        for (chunks, flags) in batches {
            let rows = guard_batch(op, chunks, &flags);
            let ctx = format!("{op} with flagged rows {flags:?}");
            let want = tape.eval_batch(TapeBackend::Oracle, &rows, 1);
            let interp: Vec<f64> = rows
                .chunks(2)
                .map(|p| {
                    eval_bit_accurate(&g, &[("a".into(), p[0]), ("b".into(), p[1])].into())["y"]
                })
                .collect();
            same_bits(&interp, &want, &format!("{ctx}, the two oracles"));
            for threads in [1, 2] {
                let run = format!("{ctx}, {threads} thread(s)");
                let (got, st) =
                    tape.eval_batch_with_stats(TapeBackend::BitAccurate, &rows, threads);
                same_bits(&got, &want, &run);
                assert_eq!(st.softfloat_fallbacks, flags.len() as u64, "{run}");
                let opts = RobustOptions {
                    threads,
                    ..RobustOptions::default()
                };
                for t in [&tape, &promoted] {
                    let (got, _) = t.eval_batch_robust(TapeBackend::BitAccurate, &rows, &opts);
                    same_bits(&got, &want, &format!("{run}, robust"));
                }
                // promoted: the host result in every lane, flagged or not
                let (got, st) =
                    promoted.eval_batch_with_stats(TapeBackend::BitAccurate, &rows, threads);
                let raw: Vec<f64> = rows.chunks(2).map(|p| host(op, p[0], p[1])).collect();
                same_bits(&got, &raw, &format!("{run}, promoted"));
                assert_eq!(st.softfloat_fallbacks, 0, "{run}, promoted");
            }
        }
    }
}

/// The guarded host operators on every ordered pair of a special set
/// (signed zeros and infinities, NaN, the normal-range edges, and
/// operands whose products or quotients underflow): every result must
/// carry the soft-float operator's bits, and the fallback tally must
/// count each result the trust guard flags, NaN results included — the
/// per-operator totals are those of the implementation that recomputed
/// every flagged result in soft float.
#[test]
fn hosted_ops_match_softfloat_on_special_pairs() {
    use csfma::prelude::{FpFormat, SoftFloat};
    use csfma::softfloat::batch::{hosted_add, hosted_div, hosted_mul, hosted_sub};
    const SPECIALS: [f64; 21] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        -f64::MAX,
        1.0,
        -1.0,
        1.0e-200,
        -1.0e-200,
        1.0e200,
        -1.0e200,
        1.5e-154,
        -1.5e-154,
        0.75,
        -3.0,
        f64::MIN_POSITIVE * 1.5,
        2.0e-308 * 4.0,
    ];
    type Hosted = fn(f64, f64, &mut u64) -> f64;
    type Soft = fn(&SoftFloat, &SoftFloat) -> SoftFloat;
    let ops: [(&str, Hosted, Soft); 4] = [
        ("add", hosted_add, SoftFloat::add),
        ("sub", hosted_sub, SoftFloat::sub),
        ("mul", hosted_mul, SoftFloat::mul),
        ("div", hosted_div, SoftFloat::div),
    ];
    let sf = |v: f64| SoftFloat::from_f64(FpFormat::BINARY64, v);
    let mut fallbacks = [0u64; 4];
    for ((name, hosted, soft), fb) in ops.iter().zip(&mut fallbacks) {
        for &a in &SPECIALS {
            for &b in &SPECIALS {
                let got = hosted(a, b, fb);
                let want = soft(&sf(a), &sf(b)).to_f64();
                assert_eq!(got.to_bits(), want.to_bits(), "{name}({a:e}, {b:e})");
            }
        }
    }
    assert_eq!(fallbacks, [53, 53, 61, 64], "fallbacks per add/sub/mul/div");
}
