//! End-to-end robustness contract of the graceful-degradation executor
//! (DESIGN.md §10): for *any* fault plan, the robust batch engine must
//! stay deterministic across worker counts, recover flagged rows
//! bit-identically to a clean run, quarantine only what it cannot
//! recover, and never let one row's fault corrupt a neighbor.
//!
//! The per-site detection guarantees (every single-bit flip in every
//! normalizer regime, including the Fig. 10 all-0/all-1 skippable
//! blocks) are pinned at unit level in `csfma-core`'s `self_checking`
//! suite; the fault *campaign* sweep lives in `csfma-bench::fault`.

use csfma::core::fault::{FaultPlan, FaultSite, FaultSpec};
use csfma::hls::{
    compile, fuse_critical_paths, parse_program, FmaKind, FusionConfig, RobustOptions, RowOutcome,
    Tape, TapeBackend,
};
use proptest::prelude::*;

const ROWS: usize = 200;

fn fused_listing1() -> Tape {
    let g = parse_program("x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;")
        .expect("listing1 parses");
    let fused = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused;
    compile(&fused).expect("fused listing1 compiles")
}

fn stimulus(tape: &Tape, rows: usize) -> Vec<f64> {
    (0..rows * tape.num_inputs())
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 * 0.125 - 1000.0)
        .collect()
}

/// Quarantined rows are the only ones allowed to differ from a clean
/// run, and they must be NaN-poisoned; everything else is bit-identical.
/// Rows in `skip` are exempt: a `TapeReg` strike corrupts a stored
/// register plane, which the datapath checks cannot see — that class is
/// the documented ECC coverage boundary (DESIGN.md §10), so such a row
/// may legitimately end `Ok` with corrupted bits.
fn assert_contained(
    tape: &Tape,
    clean: &[f64],
    got: &[f64],
    outcomes: &[RowOutcome],
    skip: &[u64],
) {
    let no = tape.num_outputs();
    for (r, outcome) in outcomes.iter().enumerate() {
        if skip.contains(&(r as u64)) {
            continue;
        }
        for k in 0..no {
            let (c, g) = (clean[r * no + k], got[r * no + k]);
            match outcome {
                RowOutcome::Quarantined { .. } => {
                    assert!(g.is_nan(), "row {r}: quarantined output not poisoned")
                }
                _ => assert_eq!(
                    c.to_bits(),
                    g.to_bits(),
                    "row {r} ({outcome:?}): output differs from clean run"
                ),
            }
        }
    }
}

/// Pins the order in which the robust executor claims faults: the
/// panicking attempt claims the faults of the rows before the panicking
/// row (so row 3's strike and row 5's register flip land in the
/// discarded attempt), the retry claims the rest, and only rows 20 and
/// 40 need the row rung.
#[test]
fn fault_claims_follow_row_order_across_a_chunk_retry() {
    let tape = fused_listing1();
    let rows = stimulus(&tape, 64);
    let plan = FaultPlan::new(5)
        .with_fault(FaultSpec::transient(FaultSite::MulSum, 3))
        .with_fault(FaultSpec::transient(FaultSite::ExecPanic, 9))
        .with_fault(FaultSpec::transient(FaultSite::MulSum, 20))
        .with_fault(FaultSpec::transient(FaultSite::TapeReg, 5))
        .with_fault(FaultSpec::transient(FaultSite::TapeReg, 40));
    let opts = RobustOptions {
        threads: 1,
        chunk_retries: 2,
        fault: Some(&plan),
    };
    let fired = |plan: &FaultPlan| (0..5).map(|i| plan.fired(i)).collect::<Vec<_>>();

    let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
    let (got, report) = tape.eval_batch_robust(TapeBackend::BitAccurate, &rows, &opts);
    for (r, outcome) in report.outcomes.iter().enumerate() {
        let want = if r == 20 || r == 40 {
            RowOutcome::Recovered { backend: "row-bit" }
        } else {
            RowOutcome::Ok
        };
        assert_eq!(*outcome, want, "row {r}");
    }
    assert_eq!(report.detections, 2, "{report}");
    assert_eq!(report.chunk_panics, 1, "{report}");
    assert_eq!(report.chunk_retries, 1, "{report}");
    assert_eq!(fired(&plan), [1, 1, 1, 1, 1]);
    assert_contained(&tape, &clean, &got, &report.outcomes, &[]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any plan of up to 4 single-bit faults: byte-identical outputs and
    /// outcome vectors at 1, 4 and 8 worker threads, and no containment
    /// violations at any of them.
    #[test]
    fn any_fault_plan_is_thread_invariant_and_contained(
        seed in any::<u64>(),
        specs in prop::collection::vec(
            (0usize..FaultSite::ALL.len(), 0u64..ROWS as u64, any::<bool>()),
            0..=4,
        ),
    ) {
        let tape = fused_listing1();
        let rows = stimulus(&tape, ROWS);
        let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);

        let mut plan = FaultPlan::new(seed);
        for &(site, row, sticky) in &specs {
            let site = FaultSite::ALL[site];
            plan = plan.with_fault(if sticky {
                FaultSpec::stuck(site, row)
            } else {
                FaultSpec::transient(site, row)
            });
        }

        let run = |threads: usize| {
            plan.reset();
            tape.eval_batch_robust(
                TapeBackend::BitAccurate,
                &rows,
                &RobustOptions { threads, chunk_retries: 2, fault: Some(&plan) },
            )
        };
        let unchecked_rows: Vec<u64> = specs
            .iter()
            .filter(|&&(site, _, _)| FaultSite::ALL[site] == FaultSite::TapeReg)
            .map(|&(_, row, _)| row)
            .collect();

        let (out1, rep1) = run(1);
        assert_contained(&tape, &clean, &out1, &rep1.outcomes, &unchecked_rows);
        for threads in [4usize, 8] {
            let (out, rep) = run(threads);
            prop_assert!(
                out1.iter().zip(out.iter()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "outputs diverged at {} threads", threads
            );
            prop_assert_eq!(&rep1.outcomes, &rep.outcomes, "outcomes diverged at {} threads", threads);
            prop_assert_eq!(rep1.detections, rep.detections);
            assert_contained(&tape, &clean, &out, &rep.outcomes, &unchecked_rows);
        }

        // rows no spec targets are never quarantined. (They may still be
        // `Recovered`: a sticky-panic chunk-mate drags the whole chunk
        // down the per-row ladder — but always back to the clean bits,
        // which assert_contained has already verified.)
        let targeted: Vec<u64> = specs.iter().map(|&(_, r, _)| r).collect();
        for (r, o) in rep1.outcomes.iter().enumerate() {
            if !targeted.contains(&(r as u64)) {
                prop_assert!(
                    !matches!(o, RowOutcome::Quarantined { .. }),
                    "untargeted row {} quarantined", r
                );
            }
        }
    }
}

/// Every mantissa-path site, struck transiently on one row: the row is
/// flagged, recovered on the isolated-row rung, and bit-identical.
#[test]
fn every_mantissa_site_recovers_bit_identically() {
    let tape = fused_listing1();
    let rows = stimulus(&tape, ROWS);
    let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
    for site in FaultSite::MANTISSA {
        let plan = FaultPlan::single(0xFEED, site, 42);
        let (got, report) = tape.eval_batch_robust(
            TapeBackend::BitAccurate,
            &rows,
            &RobustOptions::with_fault(&plan),
        );
        assert_eq!(plan.fired(0), 1, "{site:?}: fault must strike");
        assert!(report.detections >= 1, "{site:?}: strike went undetected");
        assert_eq!(
            report.outcomes[42],
            RowOutcome::Recovered { backend: "row-bit" },
            "{site:?}"
        );
        assert!(
            clean
                .iter()
                .zip(got.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{site:?}: recovery not bit-identical"
        );
    }
}

/// Every plane-kernel site (CSA product word, transpose output,
/// classify mask), struck transiently on one row of a full chunk: the
/// scalar-vs-plane differential oracle flags exactly that row, the
/// ladder recovers it bit-identically, and no neighbor is disturbed.
/// This is the §10.5 plane-residue gap closed at the containment level:
/// the plane kernel runs no residue checks of its own, so the robust
/// executor re-derives every committed bit on the scalar path and uses
/// the plane result only as a cross-check.
#[test]
fn every_plane_site_is_caught_by_the_differential_oracle() {
    let tape = fused_listing1();
    let rows = stimulus(&tape, ROWS);
    let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
    for site in FaultSite::PLANE {
        // row 42 sits in the first full 64-row chunk, where the plane
        // kernel (and therefore the strike) is live
        let plan = FaultPlan::single(0xFEED, site, 42);
        let (got, report) = tape.eval_batch_robust(
            TapeBackend::BitAccurate,
            &rows,
            &RobustOptions::with_fault(&plan),
        );
        assert_eq!(plan.fired(0), 1, "{site:?}: fault must strike");
        assert!(report.detections >= 1, "{site:?}: strike went undetected");
        assert_eq!(
            report.outcomes[42],
            RowOutcome::Recovered { backend: "row-bit" },
            "{site:?}"
        );
        for (r, o) in report.outcomes.iter().enumerate() {
            if r != 42 {
                assert!(
                    matches!(o, RowOutcome::Ok),
                    "{site:?}: neighbor row {r} disturbed: {o:?}"
                );
            }
        }
        assert!(
            clean
                .iter()
                .zip(got.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{site:?}: recovery not bit-identical"
        );
    }
}

/// Even a *sticky* plane fault cannot force a quarantine: the committed
/// output never flows through the plane kernel in robust mode, so the
/// worst a permanently-broken plane path can do is demote every full
/// chunk's rows to `Recovered` — still bit-identical to a clean run.
#[test]
fn sticky_plane_fault_degrades_to_recovered_never_quarantined() {
    let tape = fused_listing1();
    let rows = stimulus(&tape, ROWS);
    let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
    let plan = FaultPlan::new(11).with_fault(FaultSpec::stuck(FaultSite::TransposeOut, 7));
    let (got, report) = tape.eval_batch_robust(
        TapeBackend::BitAccurate,
        &rows,
        &RobustOptions::with_fault(&plan),
    );
    assert!(
        report.quarantined().is_empty(),
        "plane fault quarantined a row"
    );
    assert!(report.detections >= 1);
    assert!(
        clean
            .iter()
            .zip(got.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "sticky plane fault leaked into committed output"
    );
}

/// The oracle backend is a real backend: bit-identical to bit-accurate
/// through the public batch entry point.
#[test]
fn oracle_backend_matches_bit_accurate_end_to_end() {
    let tape = fused_listing1();
    let rows = stimulus(&tape, ROWS);
    let bit = tape.eval_batch(TapeBackend::BitAccurate, &rows, 2);
    let oracle = tape.eval_batch(TapeBackend::Oracle, &rows, 2);
    assert!(
        bit.iter()
            .zip(oracle.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "oracle diverged from bit-accurate"
    );
}

/// A sticky executor panic exhausts the ladder for its row and only its
/// row; the quarantine diagnostic is structured (rule F001).
#[test]
fn sticky_panic_is_contained_and_structured() {
    let tape = fused_listing1();
    let rows = stimulus(&tape, ROWS);
    let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
    let plan = FaultPlan::new(3).with_fault(FaultSpec::stuck(FaultSite::ExecPanic, 100));
    let (got, report) = tape.eval_batch_robust(
        TapeBackend::BitAccurate,
        &rows,
        &RobustOptions::with_fault(&plan),
    );
    let quarantined = report.quarantined();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].0, 100);
    assert!(quarantined[0].1.to_string().contains("F001"));
    assert_contained(&tape, &clean, &got, &report.outcomes, &[]);
    assert!(report.has_faults());
}
