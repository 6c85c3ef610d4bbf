//! The observability layer's determinism contract (DESIGN.md §11):
//! instrumentation must never change what the engine computes.
//!
//! * **Byte identity** — for randomly generated datapaths (discrete and
//!   fused) and adversarial stimulus, compiling and evaluating with a
//!   recording [`Profiler`] must produce bitwise-identical tapes and
//!   output bytes to the unprofiled entry points. The profiled paths are
//!   the *only* implementation (the unprofiled ones delegate with a
//!   disabled profiler), so this test pins the contract that the extra
//!   plumbing — span tokens, counters, histogram records — is invisible
//!   to the datapath.
//! * **Span nesting sanity** — stage spans form a tree: each parent's
//!   wall time must be at least the sum of its direct children (a child
//!   runs strictly inside its parent's enter/exit window), and the
//!   pre-order flattening must keep depths consistent.
//! * **Counter sanity** — the report's row/op counters must equal what
//!   the call executed, exactly, even while other calls evaluate at the
//!   same time.

use csfma::hls::{
    compile, compile_with, fuse_critical_paths, jit_available, parse_program, Cdfg, CompileOptions,
    FmaKind, FusionConfig, NodeId, Op, PipelineReport, Profiler, Tape, TapeBackend,
};
use proptest::prelude::*;

type OpPick = (usize, prop::sample::Index, prop::sample::Index);

/// Random straight-line graph, same shape as `exec_differential.rs`.
fn random_graph(n_inputs: usize, consts: &[f64], ops: &[OpPick]) -> Cdfg {
    let mut g = Cdfg::new();
    let mut nodes: Vec<NodeId> = (0..n_inputs).map(|i| g.input(format!("i{i}"))).collect();
    for &c in consts {
        nodes.push(g.constant(c));
    }
    for (op, ia, ib) in ops {
        let a = nodes[ia.index(nodes.len())];
        let b = nodes[ib.index(nodes.len())];
        let id = match op % 5 {
            0 => g.add(a, b),
            1 => g.sub(a, b),
            2 => g.mul(a, b),
            3 => g.div(a, b),
            _ => g.push(Op::Neg, vec![a]),
        };
        nodes.push(id);
    }
    g.output("last", *nodes.last().unwrap());
    g
}

/// Adversarial stimulus: IEEE specials plus raw bit noise.
fn stimulus() -> impl Strategy<Value = f64> {
    (0usize..8, any::<u64>(), -1.0e6f64..1.0e6).prop_map(|(class, bits, x)| match class {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::from_bits(bits % (1u64 << 52)),
        5 => f64::from_bits(bits),
        6 => f64::MIN_POSITIVE * (1.0 + (bits % 8) as f64),
        _ => x,
    })
}

/// Compile + batch-evaluate `g` twice — once through the profiled entry
/// points with a recording profiler, once through the plain ones — and
/// require byte-identical tapes and outputs on the bit and JIT backends.
fn assert_obs_invisible(g: &Cdfg, vals: &[f64]) -> PipelineReport {
    let mut prof = Profiler::new();
    let profiled =
        compile_with(g, CompileOptions::default(), &mut prof).expect("generated graphs are valid");
    let plain = compile(g).expect("generated graphs are valid");

    // The compiled artifacts themselves must be identical.
    prop_assert_eq!(
        format!("{:?}", profiled.instrs()),
        format!("{:?}", plain.instrs())
    );
    prop_assert_eq!(profiled.input_names(), plain.input_names());
    prop_assert_eq!(profiled.output_names(), plain.output_names());

    let ni = profiled.num_inputs().max(1);
    let n_rows = 9usize; // not a multiple of the chunk size on purpose
    let rows: Vec<f64> = (0..n_rows * ni).map(|i| vals[i % vals.len()]).collect();

    for backend in [TapeBackend::BitAccurate, TapeBackend::Jit] {
        let a = profiled.eval_batch_profiled(backend, &rows, 2, &mut prof);
        let b = plain.eval_batch(backend, &rows, 2);
        prop_assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            prop_assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{:?}: profiled eval diverged at flat output {} ({} vs {})",
                backend,
                i,
                x,
                y
            );
        }
    }
    prof.finish()
}

/// Each span's wall time must cover the sum of its direct children.
/// `stages` is a pre-order flattening with depths, so a span's children
/// are the depth+1 records before the next record at its own depth.
fn assert_nesting_sane(report: &PipelineReport) {
    let stages = &report.stages;
    for (i, s) in stages.iter().enumerate() {
        let mut child_sum = 0.0;
        for c in &stages[i + 1..] {
            if c.depth <= s.depth {
                break;
            }
            if c.depth == s.depth + 1 {
                child_sum += c.wall_us;
            }
        }
        // Timer quantisation can make a child's reading exceed its
        // parent's by a hair; allow a microsecond of slack per child.
        assert!(
            child_sum <= s.wall_us + 1.0 * (s.depth + 1) as f64 + 1e-9,
            "span {:?} ({} us) narrower than its children ({} us): {:?}",
            s.name,
            s.wall_us,
            child_sum,
            stages
        );
        if i + 1 < stages.len() {
            // Pre-order flattening never jumps more than one level down.
            assert!(stages[i + 1].depth <= s.depth + 1, "{stages:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Discrete random graphs: obs on == obs off, byte for byte.
    #[test]
    fn profiling_never_changes_output_bytes(
        n_inputs in 1usize..4,
        consts in prop::collection::vec(stimulus(), 0..3),
        ops in prop::collection::vec(
            (0usize..5, any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            1..24,
        ),
        vals in prop::collection::vec(stimulus(), 1..8),
    ) {
        let g = random_graph(n_inputs, &consts, &ops);
        let report = assert_obs_invisible(&g, &vals);
        prop_assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    /// Fused graphs (carry-save FMA datapaths): same contract.
    #[test]
    fn profiling_never_changes_fused_output_bytes(
        n_inputs in 2usize..4,
        ops in prop::collection::vec(
            (0usize..5, any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            2..16,
        ),
        pcs in any::<bool>(),
        vals in prop::collection::vec(stimulus(), 1..6),
    ) {
        let kind = if pcs { FmaKind::Pcs } else { FmaKind::Fcs };
        let g = random_graph(n_inputs, &[], &ops);
        let fused = fuse_critical_paths(&g, &FusionConfig::new(kind)).fused;
        let report = assert_obs_invisible(&fused, &vals);
        prop_assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }
}

#[test]
fn span_tree_is_nested_and_counters_match() {
    let g = csfma::hls::parse_program("x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;")
        .expect("listing1 parses");
    let fused = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused;

    // ragged, just-short-of-full, full, and multi-chunk batches
    for rows in [50usize, 60, 64, 100, 129] {
        let mut prof = Profiler::new();
        let tape = compile_with(&fused, CompileOptions::default(), &mut prof)
            .expect("fused listing1 compiles");
        let stim: Vec<f64> = (0..rows * tape.num_inputs())
            .map(|i| (i % 13) as f64 - 6.0)
            .collect();
        let out = tape.eval_batch_profiled(TapeBackend::BitAccurate, &stim, 1, &mut prof);
        assert_eq!(out.len(), rows * tape.num_outputs());
        let report = prof.finish();

        assert!(report.recorded);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert_nesting_sane(&report);
        for stage in ["compile", "gate", "optimize", "lower", "eval"] {
            assert!(report.stage(stage).is_some(), "missing stage {stage:?}");
        }
        // gate/optimize/lower are children of compile; eval is a root span.
        assert_eq!(report.stage("compile").unwrap().depth, 0);
        assert_eq!(report.stage("gate").unwrap().depth, 1);
        assert_eq!(report.stage("eval").unwrap().depth, 0);

        assert_eq!(report.counter("rows"), Some(rows as f64));
        assert_eq!(report.counter("threads"), Some(1.0));

        // Expected op counts fall out of the tape structure: each FMA /
        // hosted arithmetic instruction executes once per row, and the
        // chunk counts follow from the row count.
        use csfma::hls::Instr;
        let fma_instrs = tape
            .instrs()
            .iter()
            .filter(|i| matches!(i, Instr::Fma { .. }))
            .count();
        let hosted_instrs = tape
            .instrs()
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::Add { .. }
                        | Instr::Sub { .. }
                        | Instr::Mul { .. }
                        | Instr::Div { .. }
                        | Instr::Neg { .. }
                )
            })
            .count();
        assert!(fma_instrs >= 2, "fused listing1 should contain FMA chain");
        let counter = |name: &str| report.counter(name).unwrap_or(-1.0);
        let (full, tail) = (rows / 64, rows % 64);
        let expect = [
            ("fma_ops_pcs", fma_instrs * rows),
            ("hosted_ops", hosted_instrs * rows),
            ("chunks_full", full),
            ("chunks_partial", usize::from(tail != 0)),
            // full chunks take the plane kernel, the ragged tail does not
            ("plane_fallback_lanes", fma_instrs * tail),
        ];
        for (name, want) in expect {
            assert_eq!(
                counter(name),
                want as f64,
                "{name} at {rows} rows: {:?}",
                report.counters
            );
        }
        assert_eq!(
            counter("plane_lanes") + counter("plane_exception_lanes"),
            (fma_instrs * 64 * full) as f64,
            "plane kernel lanes at {rows} rows: {:?}",
            report.counters
        );
    }
}

/// One profiled call's count counters: everything but timings, rates and
/// the scheduler's timing-dependent claim/steal traffic.
fn profiled_counts(tape: &Tape, backend: TapeBackend, rows: &[f64]) -> Vec<(&'static str, f64)> {
    let mut prof = Profiler::new();
    tape.eval_batch_profiled(backend, rows, 2, &mut prof);
    let report = prof.finish();
    report
        .counters
        .into_iter()
        .filter(|(name, _)| {
            !(name.starts_with("sched_") || name.ends_with("_us") || *name == "rows_per_sec")
        })
        .collect()
}

/// Run `calls` alone, then all at once for `rounds` rounds; every
/// concurrent call's count counters must equal its solo run's exactly.
/// Returns the solo counts.
fn assert_counts_are_per_call(
    calls: &[(&Tape, TapeBackend, &[f64])],
    rounds: usize,
) -> Vec<Vec<(&'static str, f64)>> {
    let solo: Vec<_> = calls
        .iter()
        .map(|&(t, b, rows)| profiled_counts(t, b, rows))
        .collect();
    for round in 0..rounds {
        // every call starts together, so their chunks overlap in time
        let start = std::sync::Barrier::new(calls.len());
        let together: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = calls
                .iter()
                .map(|&(t, b, rows)| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        profiled_counts(t, b, rows)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, (alone, beside)) in solo.iter().zip(&together).enumerate() {
            assert_eq!(alone, beside, "call {i}, round {round}: concurrent != solo");
        }
    }
    solo
}

/// Per-call counts: two threads evaluate two different graphs at the
/// same time, and each call's profile counts exactly its own work —
/// nothing of the other's. One pair runs on the JIT backend (NaN rows
/// bail), one on the bit backend: fused-PCS listing1 with NaN rows
/// (soft-float fallbacks and plane exception lanes) beside a discrete
/// IEEE graph.
#[test]
fn concurrent_calls_report_their_own_counts() {
    let listing1 = "x1 = a*b + c*d;\nx2 = e*f + g*x1;\nout x3 = h*i + k*x2;\n";
    let g1 = parse_program(listing1).unwrap();
    let g2 = parse_program("out y = (a + b) * (a - b) / c;\n").unwrap();
    let fused = fuse_critical_paths(&g1, &FusionConfig::new(FmaKind::Pcs)).fused;
    let (t1, t2, tf) = (
        compile(&g1).unwrap(),
        compile(&g2).unwrap(),
        compile(&fused).unwrap(),
    );
    // g1: every 3rd row NaN; g2: ordinary rows
    let nan_every_third = |tape: &Tape, n: usize| -> Vec<f64> {
        let ni = tape.num_inputs();
        (0..n * ni)
            .map(|i| {
                if (i / ni).is_multiple_of(3) {
                    f64::NAN
                } else {
                    (i % 89) as f64 * 0.25 - 11.0
                }
            })
            .collect()
    };
    let ordinary = |tape: &Tape, n: usize| -> Vec<f64> {
        (0..n * tape.num_inputs())
            .map(|i| (i % 53) as f64 * 0.5 + 1.0)
            .collect()
    };

    // JIT pair: rows and bailouts are exact per call
    let (n1, n2) = (300usize, 517usize);
    let (rows1, rows2) = (nan_every_third(&t1, n1), ordinary(&t2, n2));
    let solo = assert_counts_are_per_call(
        &[
            (&t1, TapeBackend::Jit, &rows1),
            (&t2, TapeBackend::Jit, &rows2),
        ],
        8,
    );
    let count = |counts: &[(&str, f64)], name: &str| {
        counts.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    };
    if jit_available() && t1.jit_module().is_some() && t2.jit_module().is_some() {
        let jit = |c: &[(&str, f64)]| (count(c, "jit_rows"), count(c, "jit_bailouts"));
        assert_eq!(jit(&solo[0]), (Some(n1 as f64), Some((n1 / 3) as f64)));
        assert_eq!(jit(&solo[1]), (Some(n2 as f64), Some(0.0)));
    }

    // bit pair: fused listing1 with NaN rows beside a long discrete batch
    let (nf, n2) = (1000usize, 20_000usize);
    let (rows_f, rows2) = (nan_every_third(&tf, nf), ordinary(&t2, n2));
    let solo = assert_counts_are_per_call(
        &[
            (&tf, TapeBackend::BitAccurate, &rows_f),
            (&t2, TapeBackend::BitAccurate, &rows2),
        ],
        4,
    );
    for name in [
        "softfloat_fallbacks",
        "plane_exception_lanes",
        "plane_lanes",
    ] {
        assert!(count(&solo[0], name) > Some(0.0), "{name}: {:?}", solo[0]);
    }
    assert_eq!(count(&solo[1], "fma_ops_pcs"), Some(0.0));
    assert_eq!(count(&solo[1], "hosted_ops"), Some(4.0 * n2 as f64));
}

#[test]
fn disabled_profiler_records_nothing() {
    let g = csfma::hls::parse_program("out y = a*b + c;").expect("parses");
    let mut prof = Profiler::disabled();
    let tape = compile_with(&g, CompileOptions::default(), &mut prof).expect("compiles");
    let _ = tape.eval_batch_profiled(TapeBackend::BitAccurate, &[1.0, 2.0, 3.0], 1, &mut prof);
    let report = prof.finish();
    assert!(!report.recorded);
    assert!(report.stages.is_empty());
    assert!(report.counters.is_empty());
}
