//! Differential testing of the native JIT backend (`hls::jit`): for the
//! example datapaths, randomly generated IEEE graphs, and adversarial
//! stimulus (NaN, infinities, signed zeros, subnormals, arbitrary bit
//! patterns), `TapeBackend::Jit` must reproduce the bit-accurate
//! interpreter **bit for bit** at every row count and thread count —
//! whether a row ran native, bailed to the interpreter on a guard, or
//! the whole tape fell back because no module could be built.
//!
//! The suite is valid on every host: where the platform (or
//! `CSFMA_JIT=off`, which `ci.sh` exercises explicitly) forbids native
//! code, the jit backend degrades to the interpreter and the identity
//! becomes trivial. Assertions about the module itself are therefore
//! conditional on [`jit_available`].

use csfma::hls::jit::{jit_available, LANES};
use csfma::hls::{
    compile, fuse_critical_paths, lint_ranges, parse_program, parse_program_with_ranges,
    promotion_mask, Cdfg, FmaKind, FusionConfig, NodeId, Op, Profiler, Tape, TapeBackend,
};
use proptest::prelude::*;

type OpPick = (usize, prop::sample::Index, prop::sample::Index);

/// Build a random straight-line IEEE graph (same construction as
/// `tests/exec_differential.rs`): `n_inputs` inputs, arithmetic nodes
/// whose arguments sample everything built so far, outputs on the last
/// node and one sampled node.
fn random_graph(
    n_inputs: usize,
    consts: &[f64],
    ops: &[OpPick],
    extra_out: prop::sample::Index,
) -> Cdfg {
    let mut g = Cdfg::new();
    let mut nodes: Vec<NodeId> = (0..n_inputs).map(|i| g.input(format!("i{i}"))).collect();
    for &c in consts {
        nodes.push(g.constant(c));
    }
    for (pick, a, b) in ops {
        let x = nodes[a.index(nodes.len())];
        let y = nodes[b.index(nodes.len())];
        let n = match pick % 5 {
            0 => g.add(x, y),
            1 => g.sub(x, y),
            2 => g.mul(x, y),
            3 => g.div(x, y),
            _ => g.push(Op::Neg, vec![x]),
        };
        nodes.push(n);
    }
    g.output("last", *nodes.last().unwrap());
    let pick = nodes[extra_out.index(nodes.len())];
    g.output("extra", pick);
    g
}

/// Adversarial stimulus: specials, subnormals, raw bit patterns and
/// ordinary magnitudes in one distribution.
fn stimulus() -> impl Strategy<Value = f64> {
    (0usize..10, any::<u64>(), -1.0e6f64..1.0e6).prop_map(|(class, bits, x)| match class {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::from_bits(bits % (1u64 << 52)), // +subnormal
        6 => 1e-310,                              // mid-window subnormal
        7 => f64::from_bits(bits),                // anything at all
        8 => f64::MIN_POSITIVE * (1.0 + (bits % 8) as f64), // guard-window border
        _ => x,
    })
}

/// The identity every test asserts: `Jit` output equals `BitAccurate`
/// output bit-for-bit at 1 and 4 threads over the same batch.
fn assert_jit_matches_interpreter(g: &Cdfg, vals: &[f64], n_rows: usize) {
    let tape = compile(g).expect("test graphs compile");
    let ni = tape.num_inputs();
    let rows: Vec<f64> = (0..n_rows * ni).map(|i| vals[i % vals.len()]).collect();
    let want = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
    for threads in [1usize, 4] {
        let got = tape.eval_batch(TapeBackend::Jit, &rows, threads);
        assert_eq!(want.len(), got.len());
        for (i, (x, y)) in want.iter().zip(got.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "jit({threads}t) diverged from interpreter at flat output {i} ({x:e} vs {y:e})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random IEEE graphs, adversarial values, row counts straddling the
    /// 64-row chunk boundary: native rows, guard bailouts and spilled
    /// register files all under one identity.
    #[test]
    fn jit_matches_interpreter_on_random_ieee_graphs(
        n_inputs in 1usize..5,
        consts in prop::collection::vec(stimulus(), 0..3),
        ops in prop::collection::vec((0usize..5, any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..40),
        extra_out: prop::sample::Index,
        vals in prop::collection::vec(stimulus(), 1..12),
        n_rows in 1usize..150,
    ) {
        let g = random_graph(n_inputs, &consts, &ops, extra_out);
        assert_jit_matches_interpreter(&g, &vals, n_rows);
    }

    /// The same graphs through the fusion pass: fused tapes refuse a
    /// native module, so this pins the whole-tape fallback (including
    /// the bit-plane kernel on full chunks) under the jit label.
    #[test]
    fn jit_matches_interpreter_on_fused_graphs(
        n_inputs in 1usize..5,
        ops in prop::collection::vec((0usize..5, any::<prop::sample::Index>(), any::<prop::sample::Index>()), 4..30),
        extra_out: prop::sample::Index,
        kind_pick: bool,
        vals in prop::collection::vec(stimulus(), 1..12),
        n_rows in 60usize..70,
    ) {
        let g = random_graph(n_inputs, &[], &ops, extra_out);
        let kind = if kind_pick { FmaKind::Pcs } else { FmaKind::Fcs };
        let fused = fuse_critical_paths(&g, &FusionConfig::new(kind)).fused;
        assert_jit_matches_interpreter(&fused, &vals, n_rows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The random-graph identity above at 20,000 cases.
    #[test]
    #[ignore = "20,000 cases: ci.sh runs them with --include-ignored"]
    fn jit_matches_interpreter_on_random_ieee_graphs_at_20000_cases(
        n_inputs in 1usize..5,
        consts in prop::collection::vec(stimulus(), 0..3),
        ops in prop::collection::vec((0usize..5, any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..40),
        extra_out: prop::sample::Index,
        vals in prop::collection::vec(stimulus(), 1..12),
        n_rows in 1usize..150,
    ) {
        let g = random_graph(n_inputs, &consts, &ops, extra_out);
        assert_jit_matches_interpreter(&g, &vals, n_rows);
    }
}

/// Every example datapath (the acceptance surface of ISSUE 10), both
/// unfused and PCS-fused, over an adversarial deterministic batch.
#[test]
fn jit_matches_interpreter_on_example_datapaths() {
    let mut checked = 0;
    for entry in std::fs::read_dir("examples/datapaths").expect("examples/datapaths exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "csfma") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let (g, _) = parse_program_with_ranges(&src).expect("example datapaths parse");
        let fused = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused;
        for g in [&g, &fused] {
            let vals: Vec<f64> = (0..37)
                .map(|i| {
                    let k = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    match k % 7 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => 1e-310,
                        3 => -0.0,
                        _ => ((k % 4001) as f64 - 2000.0) * 0.73,
                    }
                })
                .collect();
            assert_jit_matches_interpreter(g, &vals, 193);
            checked += 1;
        }
    }
    assert!(checked >= 8, "example corpus shrank to {checked} variants");
}

/// Range-promoted tapes: `in x [lo, hi];` bounds license guard-free
/// native instructions. Within the declared bounds the promoted module
/// must agree with the promoted interpreter (which is itself pinned to
/// the unpromoted one by the R* analysis).
#[test]
fn jit_matches_interpreter_on_promoted_tape() {
    let src = std::fs::read_to_string("examples/datapaths/dot6_bounded.csfma").unwrap();
    let (g, decls) = parse_program_with_ranges(&src).unwrap();
    let tape = compile(&g).unwrap();
    let report = lint_ranges(&g, &decls);
    let mask = promotion_mask(&tape, &report);
    assert!(
        mask.iter().any(|&p| p),
        "bounded example must license promotions"
    );
    let mut promoted = tape.clone();
    promoted.set_promoted(mask);

    let ni = promoted.num_inputs();
    let n_rows = 193;
    // stimulus inside every declared bound, the promotion hypothesis
    let rows: Vec<f64> = (0..n_rows * ni)
        .map(|i| {
            let k = (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
            let name = promoted.input_names()[i % ni].clone();
            let d = decls.iter().find(|d| d.name == name).unwrap();
            d.lo + (d.hi - d.lo) * ((k % 1_000_001) as f64 / 1_000_000.0)
        })
        .collect();
    let want = promoted.eval_batch(TapeBackend::BitAccurate, &rows, 1);
    let got = promoted.eval_batch(TapeBackend::Jit, &rows, 2);
    for (i, (x, y)) in want.iter().zip(got.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "promoted jit diverged at flat output {i}"
        );
    }
    if jit_available() {
        let m = promoted.jit_module().expect("IEEE tape builds a module");
        let unpromoted = tape.jit_module().expect("IEEE tape builds a module");
        assert!(
            m.guard_count() < unpromoted.guard_count(),
            "promotion must shed result guards ({} vs {})",
            m.guard_count(),
            unpromoted.guard_count()
        );
    }
}

/// Evaluate `rows` on the JIT backend through the profiled entry point,
/// require bit-identity with the bit-accurate interpreter, and return
/// this call's own `(jit_rows, jit_bailouts)` report counters.
fn jit_counts(tape: &Tape, rows: &[f64], threads: usize) -> (f64, f64) {
    let want = tape.eval_batch(TapeBackend::BitAccurate, rows, threads);
    let mut prof = Profiler::new();
    let got = tape.eval_batch_profiled(TapeBackend::Jit, rows, threads, &mut prof);
    assert!(want
        .iter()
        .zip(got.iter())
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    let report = prof.finish();
    let counter = |name: &str| report.counter(name).unwrap_or(0.0);
    (counter("jit_rows"), counter("jit_bailouts"))
}

/// Bailout accounting: a batch saturated with NaN rows must run (and
/// match) with every row bailing; an ordinary batch must not bail at
/// all. Counter assertions need the obs feature and a real module.
#[test]
fn nan_rows_bail_and_ordinary_rows_do_not() {
    let g = parse_program("x1 = a*b + c*d;\nx2 = e*f + g*x1;\nout x3 = h*i + k*x2;\n").unwrap();
    let tape = compile(&g).unwrap();
    let ni = tape.num_inputs();
    if !jit_available() || tape.jit_module().is_none() {
        return;
    }
    let nan_rows: Vec<f64> = vec![f64::NAN; 70 * ni];
    let ok_rows: Vec<f64> = (0..70 * ni).map(|i| (i % 97) as f64 * 0.5 - 24.0).collect();

    let (rows, bailouts) = jit_counts(&tape, &nan_rows, 1);
    if cfg!(feature = "obs") {
        assert_eq!(rows, 70.0, "every row goes through the jit dispatcher");
        assert_eq!(bailouts, 70.0, "every NaN row must bail on a load guard");
    }

    let (rows, bailouts) = jit_counts(&tape, &ok_rows, 1);
    if cfg!(feature = "obs") {
        assert_eq!(rows, 70.0);
        assert_eq!(bailouts, 0.0, "ordinary rows must run native");
    }
}

/// The program the lane tests evaluate: a product, a quotient and a
/// difference, so a trigger can sit in a load or in any of the three
/// results.
const LANE_PROGRAM: &str = "in a, b, c, d;\nout p = a * b;\nout q = c / d;\nout r = c - d;\n";

/// A row of `LANE_PROGRAM` that runs native end to end.
const CLEAN: [f64; 4] = [1.5, 2.0, 3.0, 4.0];

/// Rows whose lane must bail: a NaN input, a subnormal input, a result
/// in `(0, MIN_POSITIVE)`, a result of exactly ±`MIN_POSITIVE`, `0/0`
/// and `inf - inf`.
const MUST_BAIL: [(&str, [f64; 4]); 7] = [
    ("NaN input", [f64::NAN, 2.0, 3.0, 4.0]),
    ("subnormal input", [1.5, 2.0, 3.0, -5e-324]),
    ("subnormal product", [1e-200, 1e-110, 3.0, 4.0]),
    (
        "product of +MIN_POSITIVE",
        [f64::MIN_POSITIVE, 1.0, 3.0, 4.0],
    ),
    (
        "product of -MIN_POSITIVE",
        [f64::MIN_POSITIVE, -1.0, 3.0, 4.0],
    ),
    ("0/0", [1.5, 2.0, 0.0, 0.0]),
    ("inf - inf", [1.5, 2.0, f64::INFINITY, f64::INFINITY]),
];

/// Rows whose lane must run native: an input of exactly `MIN_POSITIVE`,
/// ±0 results, `x/0` → ±inf, a product that underflows to a clean 0, and
/// infinite inputs and results.
const MUST_NOT_BAIL: [(&str, [f64; 4]); 6] = [
    ("MIN_POSITIVE input", [f64::MIN_POSITIVE, 4.0, 3.0, 4.0]),
    ("±0 results", [0.0, -2.0, 3.0, 3.0]),
    ("x/0 = +inf", [1.5, 2.0, 3.0, 0.0]),
    ("x/-0 = -inf", [1.5, 2.0, 3.0, -0.0]),
    ("product underflowing to 0", [1e-200, 1e-200, 3.0, 4.0]),
    ("infinite input", [f64::NEG_INFINITY, 2.0, 3.0, 4.0]),
];

/// Evaluate `rows` on the JIT at `threads`, require every byte to equal
/// the bit-accurate interpreter's and the batch to bail exactly
/// `bailed` rows — or every row, where no module runs.
fn assert_jit_bails(tape: &Tape, rows: &[f64], threads: usize, bailed: u64, what: &str) {
    let n = (rows.len() / tape.num_inputs()) as u64;
    let want = tape.eval_batch(TapeBackend::BitAccurate, rows, 1);
    let (got, st) = tape.eval_batch_with_stats(TapeBackend::Jit, rows, threads);
    for (i, (x, y)) in want.iter().zip(&got).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: jit({threads}t) diverged at flat output {i} ({x:e} vs {y:e})"
        );
    }
    let bailed = if tape.jit_module().is_some() {
        bailed
    } else {
        n
    };
    assert_eq!(st.jit_rows, n, "{what}: jit rows");
    assert_eq!(st.jit_bailouts, bailed, "{what}: jit bailouts");
}

/// Lane isolation: a trigger in any one lane of a block bails exactly
/// that lane's row — not its neighbours in the block, not the blocks
/// around it — and a value on the right side of each guard's edge bails
/// nothing.
#[test]
fn a_trigger_in_any_lane_bails_exactly_its_own_row() {
    let tape = compile(&parse_program(LANE_PROGRAM).unwrap()).unwrap();
    if jit_available() {
        assert!(tape.jit_module().is_some(), "IEEE tape builds a module");
    }
    let cases = MUST_BAIL
        .iter()
        .map(|c| (c, 1))
        .chain(MUST_NOT_BAIL.iter().map(|c| (c, 0)));
    for ((what, trigger), bailed) in cases {
        for lane in 0..LANES {
            // three blocks; the trigger sits in the middle one
            let mut rows = CLEAN.repeat(3 * LANES);
            let k = LANES + lane;
            rows[k * 4..(k + 1) * 4].copy_from_slice(trigger);
            assert_jit_bails(&tape, &rows, 1, bailed, &format!("{what} in lane {lane}"));
        }
    }
}

/// Ragged tails: at every row count around a block, a chunk and two
/// chunks, the padded lanes of the last block copy its last real row —
/// here always a bailing one — yet never store and never count.
#[test]
fn ragged_tails_pad_without_storing_or_counting() {
    let tape = compile(&parse_program(LANE_PROGRAM).unwrap()).unwrap();
    let trigger = MUST_BAIL[2].1; // its native product is a subnormal
    for n in (1..=9).chain(63..=65).chain(127..=129) {
        // every fifth row and the last row bail
        let bails = |k: usize| k % 5 == 4 || k == n - 1;
        let rows: Vec<f64> = (0..n)
            .flat_map(|k| {
                let mut row = if bails(k) { trigger } else { CLEAN };
                row[2] += k as f64; // distinct rows
                row
            })
            .collect();
        let bailed = (0..n).filter(|&k| bails(k)).count() as u64;
        for threads in [1, 2] {
            assert_jit_bails(&tape, &rows, threads, bailed, &format!("{n} rows"));
        }
    }
}
