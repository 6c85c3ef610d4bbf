//! Scheduler-torture suite for the work-stealing deterministic executor
//! (`csfma_core::batch`, DESIGN.md §14).
//!
//! The scheduler's contract is brutal and simple: **steal order must not
//! exist** as far as output bytes are concerned. Every test here attacks
//! that contract from a different angle — thread-count sweeps over the
//! rows × threads grid, fault plans that make chunks panic mid-steal,
//! a pathologically skewed mix of tapes, and direct claim/steal races
//! on the [`IndexDeque`] itself — and accepts nothing short of
//! byte-identical results against the 1-thread oracle.

use csfma::hls::{
    compile, fuse_critical_paths, parse_program, Cdfg, FmaKind, FusionConfig, RobustOptions,
    RowOutcome, Tape, TapeBackend,
};
use csfma_core::batch::{adaptive_grain, steal_indexed, IndexDeque, CHUNK_ROWS};
use csfma_core::fault::{FaultPlan, FaultSite, FaultSpec};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};

/// The rows × threads grid the ISSUE pins: chunk-edge sizes (63/64/65),
/// a single row, a multi-chunk ragged batch and a large batch.
const ROW_SET: [usize; 6] = [1, 63, 64, 65, 127, 4096];
const THREAD_SET: [usize; 4] = [1, 2, 4, 8];

/// The listing-1 source used throughout the repo's suites.
const LISTING1: &str = "x1 = a*b + c*d;\nx2 = e*f + g*x1;\nout x3 = h*i + k*x2;\n";

fn graph(pick: usize) -> Cdfg {
    let g = parse_program(LISTING1).unwrap();
    match pick % 3 {
        0 => g,
        1 => fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused,
        _ => fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs)).fused,
    }
}

fn tape(pick: usize) -> Tape {
    compile(&graph(pick)).expect("torture graphs compile")
}

/// splitmix64-driven stimulus: mostly finite values in a wide range,
/// with the occasional special (the engines' special-value semantics are
/// pinned by their own suites; here they only have to be *deterministic*).
fn stimulus(n_vals: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..n_vals)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            match z % 64 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -0.0,
                3 => f64::from_bits(z >> 12), // subnormal-ish
                _ => ((z >> 40) as f64) * 0.0625 - 524_288.0,
            }
        })
        .collect()
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (graph, rows, threads, backend, seed) combination is
    /// byte-identical to the 1-thread oracle.
    #[test]
    fn any_combination_matches_single_thread_oracle(
        graph_pick in 0usize..3,
        rows_idx in 0usize..6,
        threads_idx in 0usize..4,
        bit_backend: bool,
        seed: u64,
    ) {
        let tape = tape(graph_pick);
        let n = ROW_SET[rows_idx];
        let threads = THREAD_SET[threads_idx];
        let backend = if bit_backend { TapeBackend::BitAccurate } else { TapeBackend::Jit };
        let rows = stimulus(n * tape.num_inputs(), seed);
        let oracle = tape.eval_batch(backend, &rows, 1);
        let got = tape.eval_batch(backend, &rows, threads);
        prop_assert!(bits_equal(&oracle, &got),
            "graph {graph_pick} backend {backend:?} rows {n} threads {threads} diverged");
    }

    /// The robust executor under an active fault plan: outputs, per-row
    /// outcomes and detection counts are all thread-invariant even when
    /// chunks panic and retry on stealing workers.
    #[test]
    fn robust_with_fault_plan_is_thread_invariant(
        graph_pick in 1usize..3, // fused graphs: the checked FMA path
        rows_idx in 0usize..5,   // the 4096 ladder would dominate runtime
        seed: u64,
    ) {
        let tape = tape(graph_pick);
        let n = ROW_SET[rows_idx];
        let rows = stimulus(n * tape.num_inputs(), seed);
        let plan = FaultPlan::new(seed)
            .with_fault(FaultSpec::transient(FaultSite::MulCarry, seed % n as u64))
            .with_fault(FaultSpec::stuck(FaultSite::PcsCarry, seed / 3 % n as u64))
            .with_fault(FaultSpec::stuck(FaultSite::ExecPanic, seed / 7 % n as u64));
        let run = |threads: usize| {
            plan.reset();
            tape.eval_batch_robust(
                TapeBackend::BitAccurate,
                &rows,
                &RobustOptions { threads, chunk_retries: 2, fault: Some(&plan) },
            )
        };
        let (out1, rep1) = run(1);
        for &threads in &THREAD_SET[1..] {
            let (out, rep) = run(threads);
            prop_assert!(bits_equal(&out1, &out), "outputs diverged at {threads} threads");
            prop_assert_eq!(&rep1.outcomes, &rep.outcomes);
            prop_assert_eq!(rep1.detections, rep.detections);
        }
    }
}

/// Exhaustive sweep: the full rows × threads grid on the JIT backend for
/// all three graphs (the bit-backend grid is sampled by the proptest
/// above). The discrete graph runs native code and bails its special
/// rows; the fused graphs have no module and run every row on the bit
/// interpreter, so both paths face every thread count.
#[test]
fn jit_grid_is_byte_identical_at_every_thread_count() {
    for pick in 0..3 {
        let tape = tape(pick);
        for &n in &ROW_SET {
            let rows = stimulus(n * tape.num_inputs(), 0xA5A5 + n as u64);
            let oracle = tape.eval_batch(TapeBackend::Jit, &rows, 1);
            for &threads in &THREAD_SET {
                let got = tape.eval_batch(TapeBackend::Jit, &rows, threads);
                assert!(
                    bits_equal(&oracle, &got),
                    "graph {pick} rows {n} threads {threads}"
                );
            }
        }
    }
}

/// Pathological skew straight through `steal_indexed`: one heavy item
/// (2,048 rows of PCS-fused listing1 on the bit backend) beside 16 tiny
/// JIT items, each writing its own output slot. The call must complete
/// (no starvation, no deadlock) at 8 workers and at 1, and every slot's
/// bytes must equal its standalone `eval_batch`.
#[test]
fn pathological_skew_through_steal_indexed_matches_standalone_bytes() {
    let heavy = tape(1); // pcs-fused listing1
    let tiny = tape(0); // discrete listing1
    let ni = tiny.num_inputs(); // fusion preserves the input set
    let mut items = vec![(
        &heavy,
        TapeBackend::BitAccurate,
        stimulus(2048 * ni, 0xBEEF),
    )];
    for i in 0..16 {
        items.push((&tiny, TapeBackend::Jit, stimulus(64 * ni, 0x1000 + i)));
    }
    let want: Vec<Vec<f64>> = items
        .iter()
        .map(|(t, backend, rows)| t.eval_batch(*backend, rows, 1))
        .collect();
    for threads in [8, 1] {
        let slots: Vec<OnceLock<Vec<f64>>> = items.iter().map(|_| OnceLock::new()).collect();
        steal_indexed(
            items.len(),
            threads,
            || (),
            |_, i| {
                let (t, backend, rows) = &items[i];
                let out = t.eval_batch(*backend, rows, 1);
                assert!(slots[i].set(out).is_ok(), "item {i} claimed twice");
            },
        );
        for (i, (slot, want)) in slots.iter().zip(&want).enumerate() {
            let got = slot.get().unwrap_or_else(|| panic!("item {i} never ran"));
            assert!(
                bits_equal(want, got),
                "{threads} worker(s): item {i} diverged from its standalone eval_batch"
            );
        }
    }
}

/// Satellite-4 mutation test: rows poisoned by a sticky executor panic
/// must quarantine identically under stealing (8 threads) and under the
/// fixed-chunk in-order oracle (1 thread) — same rows, same poison, same
/// neighbors untouched — and each call's own `BatchReport` must count
/// exactly the poisoned rows on both paths.
#[test]
fn poisoned_chunk_quarantines_same_rows_under_stealing() {
    let tape = tape(1);
    let n = 4 * CHUNK_ROWS + 17;
    let rows = stimulus(n * tape.num_inputs(), 0xD00D);
    // sticky ExecPanic rows spread over distinct chunks, incl. the tail
    let poisoned = [5usize, 130, 200, 4 * CHUNK_ROWS + 3];
    let mut plan = FaultPlan::new(0x5EED);
    for &r in &poisoned {
        plan = plan.with_fault(FaultSpec::stuck(FaultSite::ExecPanic, r as u64));
    }
    let run = |threads: usize| {
        plan.reset();
        tape.eval_batch_robust(
            TapeBackend::BitAccurate,
            &rows,
            &RobustOptions {
                threads,
                chunk_retries: 1,
                fault: Some(&plan),
            },
        )
    };
    let (out_fixed, rep_fixed) = run(1);
    let (out_steal, rep_steal) = run(8);

    let rows_of = |rep: &csfma::hls::BatchReport| -> Vec<usize> {
        rep.quarantined().iter().map(|(r, _)| *r).collect()
    };
    let fixed_rows = rows_of(&rep_fixed);
    assert_eq!(
        fixed_rows,
        poisoned.to_vec(),
        "fixed-chunk oracle quarantined the wrong rows"
    );
    assert_eq!(
        fixed_rows,
        rows_of(&rep_steal),
        "stealing quarantined different rows than fixed-chunk"
    );
    assert!(bits_equal(&out_fixed, &out_steal));
    for &r in &poisoned {
        assert!(out_steal[r].is_nan(), "row {r} must be poisoned");
        assert!(matches!(
            rep_steal.outcomes[r],
            RowOutcome::Quarantined { .. }
        ));
    }
    // the per-call tallies agree exactly, whichever worker ran a chunk
    let quarantined = |rep: &csfma::hls::BatchReport| rep.counts().2;
    assert_eq!(quarantined(&rep_fixed), poisoned.len(), "fixed path");
    assert_eq!(quarantined(&rep_steal), poisoned.len(), "stealing path");
    assert_eq!(rep_fixed.counts(), rep_steal.counts());
    assert_eq!(rep_fixed.detections, rep_steal.detections);
}

/// Barrier-forced interleaving on one deque: an owner popping from the
/// front in lockstep with a thief stealing from the back, every round
/// synchronized, must partition the index space exactly.
#[test]
fn deque_claim_steal_race_is_exactly_once() {
    const N: usize = 240;
    for grain in [1usize, 2, 7] {
        let deque = IndexDeque::new(0, N);
        let start = Barrier::new(2);
        let round = Barrier::new(2);
        let hits: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        // one drained-flag per party, monotone (the deque only shrinks,
        // so a party that once saw None sees None forever); both parties
        // read BOTH flags after the barrier, so they exit the lockstep
        // loop on the same round — neither can strand the other mid-wait
        let drained = [
            std::sync::atomic::AtomicBool::new(false),
            std::sync::atomic::AtomicBool::new(false),
        ];
        let party = |me: usize, claim: &dyn Fn() -> Option<(usize, usize)>| {
            start.wait();
            loop {
                match claim() {
                    Some((s, l)) => {
                        for h in &hits[s..s + l] {
                            h.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    None => drained[me].store(true, Ordering::SeqCst),
                }
                round.wait();
                if drained[0].load(Ordering::SeqCst) && drained[1].load(Ordering::SeqCst) {
                    break;
                }
                round.wait();
            }
        };
        std::thread::scope(|scope| {
            // owner pops the front in lockstep with the thief stealing
            // the back: every round the two CAS loops race on one word
            scope.spawn(|| party(0, &|| deque.pop_front(grain)));
            scope.spawn(|| party(1, &|| deque.steal_back()));
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "grain {grain}: index {i} claimed {} times",
                h.load(Ordering::Relaxed)
            );
        }
    }
}

/// Unsynchronized hammer: 8 threads racing pop/steal as fast as they
/// can on one shared deque must still claim every index exactly once.
#[test]
fn deque_hammer_partitions_under_free_running_contention() {
    const N: usize = 10_000;
    for trial in 0..8u64 {
        let deque = IndexDeque::new(0, N);
        let hits: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let deque = &deque;
                let hits = &hits;
                scope.spawn(move || loop {
                    // even threads act as owners, odd threads as thieves
                    let got = if t % 2 == 0 {
                        deque.pop_front(3 + (trial as usize % 5))
                    } else {
                        deque.steal_back()
                    };
                    match got {
                        Some((s, l)) => {
                            for h in &hits[s..s + l] {
                                h.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        None => break,
                    }
                });
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "trial {trial}: index {i}");
        }
    }
}

/// `steal_indexed` exactly-once under repeated forced contention, plus
/// sanity of the stats it reports.
#[test]
fn steal_indexed_is_exactly_once_and_stats_are_sane() {
    for round in 0..20usize {
        let n = 64 + round * 37;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let stats = steal_indexed(
            n,
            8,
            || (),
            |_, i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "round {round}: item {i}");
        }
        assert_eq!(stats.items, n as u64);
        assert!(stats.workers >= 1 && stats.workers <= 8);
        assert!(stats.grain >= 1);
        assert!(stats.claims >= 1);
    }
}

/// The grain policy is a pure function (cannot perturb output bytes) and
/// respects its documented bounds.
#[test]
fn adaptive_grain_is_pure_and_never_starves_small_batches() {
    for n in 0..300 {
        for w in 1..=16 {
            let g = adaptive_grain(n, w);
            assert_eq!(g, adaptive_grain(n, w), "policy must be deterministic");
            assert!(g >= 1);
            if w > 1 && n > 0 {
                // small batches: enough claimable units for every worker
                // the scheduler will actually field
                let fielded = w.min(n.div_ceil(g));
                assert!(fielded * g <= n.max(g), "n={n} w={w} g={g}");
            }
        }
    }
}
