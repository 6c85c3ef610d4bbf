//! The tape translation validator (`T*`) and value-range analysis
//! (`R*`) against real pipelines:
//!
//! * every named mutation of `csfma::hls::mutate` is caught with the
//!   rule `docs/DIAGNOSTICS.md` pins it to, on tapes the compiler
//!   actually builds (seeded-defect sensitivity);
//! * every tape the real pipeline produces — all example datapaths,
//!   fused and unfused, optimizer on and off, plus a proptest corpus of
//!   random IEEE graphs — verifies completely clean (specificity);
//! * range-proved fast-path promotion is bit-identical to the guarded
//!   backend on in-range stimulus, and the range analysis proves a
//!   strictly tighter alignment-shift bound than the format worst case.

use csfma::hls::{
    apply_mutation, compile_with, fuse_critical_paths, lint_ranges, parse_program,
    parse_program_with_ranges, promotion_mask, verify_tape, Cdfg, CompileOptions, FmaKind,
    FusionConfig, Profiler, Tape, TapeBackend, ALL_MUTATIONS,
};
use csfma::verify::{has_errors, window_plan};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn compile_opts(g: &Cdfg, optimize: bool) -> Tape {
    compile_with(
        g,
        CompileOptions {
            optimize,
            ..CompileOptions::default()
        },
        &mut Profiler::disabled(),
    )
    .expect("fixture graph must compile")
}

/// IEEE-only fixture: ≥2 inputs, 2 outputs, an unfoldable constant, all
/// four binary operators — a site for every non-fused mutation.
fn ieee_fixture() -> (Cdfg, Tape) {
    let g = parse_program("in a, b, c;\ns = a*b;\nout y = s + 1.5;\nout z = a - c/b;").unwrap();
    let tape = compile_opts(&g, false);
    (g, tape)
}

/// Fused fixture: carries `Fma`/`IeeeToCs`/`CsToIeee` instructions for
/// the carry-save mutations.
fn fused_fixture() -> (Cdfg, Tape) {
    let g = parse_program("m = a*b;\nout y = c + m;").unwrap();
    let rep = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs));
    assert!(rep.fma_nodes >= 1, "fixture must actually fuse");
    let tape = compile_opts(&rep.fused, false);
    (rep.fused, tape)
}

#[test]
fn every_mutation_is_caught_with_its_documented_rule() {
    assert!(ALL_MUTATIONS.len() >= 10);
    for &(name, rule) in ALL_MUTATIONS {
        let fused = matches!(name, "mistag-cs" | "swap-fma-operands" | "flip-fma-negate");
        let (g, mut tape) = if fused {
            fused_fixture()
        } else {
            ieee_fixture()
        };
        assert!(verify_tape(&tape, &g).is_empty(), "{name}: dirty fixture");
        assert!(apply_mutation(&mut tape, name), "{name}: found no site");
        let diags = verify_tape(&tape, &g);
        assert!(
            diags.iter().any(|d| d.rule.id() == rule),
            "{name}: expected {rule}, got {:?}",
            diags.iter().map(|d| d.rule.id()).collect::<Vec<_>>()
        );
        assert!(has_errors(&diags), "{name}: diagnostics must be errors");
    }
}

#[test]
#[should_panic(expected = "unknown mutation")]
fn unknown_mutation_names_panic_with_the_valid_list() {
    let (_, mut tape) = ieee_fixture();
    apply_mutation(&mut tape, "no-such-mutation");
}

#[test]
fn every_example_datapath_tape_verifies_clean() {
    for entry in std::fs::read_dir("examples/datapaths").unwrap() {
        let path = entry.unwrap().path();
        let src = std::fs::read_to_string(&path).unwrap();
        let g = parse_program(&src).unwrap();
        for optimize in [false, true] {
            let tape = compile_opts(&g, optimize);
            let diags = verify_tape(&tape, &g);
            assert!(diags.is_empty(), "{path:?} opt={optimize}: {diags:?}");
            for kind in [FmaKind::Pcs, FmaKind::Fcs] {
                let rep = fuse_critical_paths(&g, &FusionConfig::new(kind));
                let tape = compile_opts(&rep.fused, optimize);
                let diags = verify_tape(&tape, &rep.fused);
                assert!(
                    diags.is_empty(),
                    "{path:?} fused {kind:?} opt={optimize}: {diags:?}"
                );
            }
        }
    }
}

#[test]
fn slots_reclaimed_counter_reports_allocator_reuse() {
    // the dot-product reduction reuses slots heavily: products die into
    // the adder tree, so linear scan must reclaim at least one slot
    let src = std::fs::read_to_string("examples/datapaths/dot6.csfma").unwrap();
    let g = parse_program(&src).unwrap();
    let tape = compile_opts(&g, true);
    assert!(
        tape.opt_stats().slots_reclaimed > 0,
        "expected slot reuse, stats: {:?}",
        tape.opt_stats()
    );
    assert!(tape.num_f64_regs() < tape.instrs().len());
}

#[test]
fn range_proof_is_strictly_tighter_than_format_worst_case() {
    let src = std::fs::read_to_string("examples/datapaths/dot6_bounded.csfma").unwrap();
    let (g, decls) = parse_program_with_ranges(&src).unwrap();
    assert!(!decls.is_empty());
    let report = lint_ranges(&g, &decls);
    assert!(
        report.diagnostics.is_empty(),
        "bounded example must lint clean: {:?}",
        report.diagnostics
    );
    let bound = report
        .datapath_shift_bound()
        .expect("every node of the bounded example has a finite range");
    for kind in [FmaKind::Pcs, FmaKind::Fcs] {
        let plan = window_plan(&csfma::hls::interp::format_of(kind));
        assert!(
            bound < plan.max_shift,
            "datapath bound {bound} must beat worst-case max_shift {}",
            plan.max_shift
        );
    }
    // unbounded programs prove nothing — the refinement never lies
    let plain = parse_program("out y = a + b;").unwrap();
    assert_eq!(lint_ranges(&plain, &[]).datapath_shift_bound(), None);
}

#[test]
fn range_promotion_is_bitwise_identical_and_nonempty() {
    let src = std::fs::read_to_string("examples/datapaths/dot6_bounded.csfma").unwrap();
    let (g, decls) = parse_program_with_ranges(&src).unwrap();
    let report = lint_ranges(&g, &decls);
    let baseline = compile_opts(&g, true);
    let mask = promotion_mask(&baseline, &report);
    let mut promoted = baseline.clone();
    promoted.set_promoted(mask);
    assert!(
        promoted.promoted_count() > 0,
        "bounded dot product must promote at least one IEEE node"
    );
    assert_eq!(baseline.promoted_count(), 0);

    // stimulus respecting the declared ranges (the proof's hypothesis)
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_ca5e);
    let spans: Vec<(f64, f64)> = promoted
        .input_names()
        .iter()
        .map(|n| {
            let d = decls.iter().find(|d| &d.name == n).expect("all bounded");
            (d.lo, d.hi)
        })
        .collect();
    let n_rows = 4096;
    let mut rows = Vec::with_capacity(n_rows * spans.len());
    for _ in 0..n_rows {
        for &(lo, hi) in &spans {
            rows.push(rng.gen_range(lo..=hi));
        }
    }
    for threads in [1, 4] {
        let want = baseline.eval_batch(TapeBackend::BitAccurate, &rows, threads);
        let got = promoted.eval_batch(TapeBackend::BitAccurate, &rows, threads);
        assert_eq!(want.len(), got.len());
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "row {i} (threads={threads}): promoted {g:?} != guarded {w:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Specificity: every tape the real compiler produces from a random
    /// IEEE graph — optimizer on and off, fused and unfused — passes
    /// the translation validator with zero diagnostics.
    #[test]
    fn prop_real_pipeline_tapes_verify_clean(
        ops in prop::collection::vec((0usize..5, 0usize..16, 0usize..16), 2..24),
        consts in prop::collection::vec(-4.0f64..4.0, 1..3),
        fuse_kind in 0usize..3,
    ) {
        let mut g = Cdfg::new();
        let mut pool: Vec<csfma::hls::NodeId> =
            (0..3).map(|i| g.input(format!("v{i}"))).collect();
        for &c in &consts {
            pool.push(g.constant(c));
        }
        for &(op, i1, i2) in &ops {
            let x = pool[i1 % pool.len()];
            let y = pool[i2 % pool.len()];
            pool.push(match op {
                0 => g.add(x, y),
                1 => g.sub(x, y),
                2 => g.mul(x, y),
                3 => g.div(x, y),
                _ => g.push(csfma::hls::Op::Neg, vec![x]),
            });
        }
        g.output("y", *pool.last().unwrap());
        let g = match fuse_kind {
            0 => g,
            1 => fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused,
            _ => fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs)).fused,
        };
        for optimize in [false, true] {
            let tape = compile_opts(&g, optimize);
            let diags = verify_tape(&tape, &g);
            prop_assert!(diags.is_empty(), "opt={optimize}: {diags:?}");
        }
    }
}
