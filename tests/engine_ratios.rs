//! Engine speed-ups over the scalar oracle: the compiled tape against
//! `interp::eval_bit_accurate`, which walks the graph once per input
//! row with `HashMap` plumbing and defines the semantics every backend
//! must reproduce bit for bit.
//!
//! Five datapaths (Listing 1 discrete and fused both ways, the PCS-fused
//! degree-8 Horner chain and the `ldlsolve` kernel of the smallest
//! trajectory solver), 10,000 seeded rows each, the oracle on the first
//! 1,024 of them. Every time is the median of five repetitions of at
//! least 20 ms; every row the oracle ran must be bitwise equal. The
//! gates, at one thread:
//!
//! * the best bit-backend graph is at least 5x the oracle;
//! * the PCS graphs, where the bit-plane kernel (DESIGN.md §13) does the
//!   work, are at least 10x;
//! * every JIT graph is at least 5x, on hosts that build native code
//!   (DESIGN.md §16);
//! * the fused graphs are at least 1.5x faster per row than the engine
//!   before the SoA layout and the tape optimizer ([`BASELINE_US`]).
//!
//! Scaling runs at `available_parallelism()` threads: every bit graph
//! keeps at least its one-thread speed-up on hosts with 8 or more
//! hardware threads, and at least 0.75x of it below that; a one-thread
//! host skips the check. Timing needs the optimized build:
//!
//! ```sh
//! cargo test --release -q --test engine_ratios -- --include-ignored --nocapture
//! ```

use csfma::hls::{
    compile, fuse_critical_paths, interp::eval_bit_accurate, jit_available, parse_program, Cdfg,
    FmaKind, FusionConfig, Tape, TapeBackend,
};
use csfma::solvers::{generate_ldlsolve, solver_suite, KktSystem, LdlFactors};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 10_000;
const ORACLE_ROWS: usize = 1024;
const SEED: u64 = 42;
const REPS: usize = 5;
const MIN_REP_S: f64 = 0.020;

/// One-thread bit-backend microseconds per row of the fused graphs,
/// measured before the SoA layout and the tape optimizer landed.
const BASELINE_US: [(&str, f64); 3] = [
    ("listing1-pcs", 69.9340),
    ("listing1-fcs", 88.0146),
    ("horner8-pcs", 303.2365),
];
/// Graphs the bit-plane kernel must lift past 10x the oracle.
const PLANE_GRAPHS: [&str; 2] = ["listing1-pcs", "horner8-pcs"];

fn graphs() -> Vec<(&'static str, Cdfg)> {
    let listing1 = parse_program("x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;")
        .expect("listing1 parses");
    let horner = parse_program(
        "p1 = c8*x + c7;\n p2 = p1*x + c6;\n p3 = p2*x + c5;\n p4 = p3*x + c4;\n \
         p5 = p4*x + c3;\n p6 = p5*x + c2;\n p7 = p6*x + c1;\n out y = p7*x + c0;",
    )
    .expect("horner parses");
    let kkt = KktSystem::assemble(&solver_suite()[0]);
    let ldl = generate_ldlsolve(&LdlFactors::factor(&kkt.matrix)).cdfg;
    let fuse = |g: &Cdfg, kind| fuse_critical_paths(g, &FusionConfig::new(kind)).fused;
    vec![
        ("listing1", listing1.clone()),
        ("listing1-pcs", fuse(&listing1, FmaKind::Pcs)),
        ("listing1-fcs", fuse(&listing1, FmaKind::Fcs)),
        ("horner8-pcs", fuse(&horner, FmaKind::Pcs)),
        ("ldlsolve-s1", ldl),
    ]
}

/// Median microseconds per row of `eval`, which evaluates `rows` rows:
/// each repetition calls it back to back until 20 ms have passed.
fn median_us_per_row(rows: usize, mut eval: impl FnMut()) -> f64 {
    let mut reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let (t0, mut calls) = (Instant::now(), 0usize);
            while t0.elapsed().as_secs_f64() < MIN_REP_S {
                eval();
                calls += 1;
            }
            t0.elapsed().as_secs_f64() * 1e6 / (calls * rows) as f64
        })
        .collect();
    reps.sort_by(f64::total_cmp);
    reps[REPS / 2]
}

/// The scalar oracle over the first [`ORACLE_ROWS`] rows of `stim`.
fn run_oracle(g: &Cdfg, tape: &Tape, stim: &[f64]) -> Vec<HashMap<String, f64>> {
    let ni = tape.num_inputs();
    (0..ORACLE_ROWS)
        .map(|r| {
            let m: HashMap<String, f64> = tape
                .input_names()
                .iter()
                .enumerate()
                .map(|(k, n)| (n.clone(), stim[r * ni + k]))
                .collect();
            eval_bit_accurate(g, &m)
        })
        .collect()
}

#[test]
#[ignore = "timing gate: run in release (see the module docs)"]
fn tape_beats_the_scalar_oracle_by_the_stated_ratios() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut failures: Vec<String> = Vec::new();
    let mut gate = |ok: bool, what: String| {
        println!("{what}: {}", if ok { "ok" } else { "FAIL" });
        if !ok {
            failures.push(what);
        }
    };
    let mut best_bit = 0.0f64;
    for (name, g) in graphs() {
        let tape = compile(&g).expect("ratio graphs compile");
        let (ni, no) = (tape.num_inputs(), tape.num_outputs());
        let mut rng = StdRng::seed_from_u64(SEED);
        let stim: Vec<f64> = (0..ROWS * ni)
            .map(|_| rng.gen_range(-100.0..100.0))
            .collect();
        let want = run_oracle(&g, &tape, &stim);
        let oracle_us = median_us_per_row(ORACLE_ROWS, || {
            black_box(run_oracle(&g, &tape, &stim));
        });

        let mut backends = vec![("bit", TapeBackend::BitAccurate)];
        if tape.jit_module().is_some() {
            backends.push(("jit", TapeBackend::Jit));
        }
        for (label, backend) in backends {
            let out = tape.eval_batch(backend, &stim, 1);
            let equal = (0..ORACLE_ROWS).all(|r| {
                tape.output_names()
                    .iter()
                    .enumerate()
                    .all(|(k, n)| out[r * no + k].to_bits() == want[r][n].to_bits())
            });
            gate(
                equal,
                format!("{name} {label}: {ORACLE_ROWS} oracle rows bitwise equal"),
            );
            let us_1t = median_us_per_row(ROWS, || {
                black_box(tape.eval_batch(backend, &stim, 1));
            });
            let ratio = oracle_us / us_1t;
            println!(
                "{name} {label}: oracle {oracle_us:.4} us/row, tape 1t {us_1t:.4} us/row, \
                 {ratio:.2}x"
            );
            if label == "jit" {
                if jit_available() {
                    gate(ratio >= 5.0, format!("{name} jit {ratio:.2}x >= 5x"));
                }
                continue;
            }
            best_bit = best_bit.max(ratio);
            if PLANE_GRAPHS.contains(&name) {
                gate(ratio >= 10.0, format!("{name} bit {ratio:.2}x >= 10x"));
            }
            if let Some(&(_, base)) = BASELINE_US.iter().find(|(b, _)| *b == name) {
                let gain = base / us_1t;
                gate(
                    gain >= 1.5,
                    format!(
                        "{name} bit {us_1t:.4} us/row vs baseline {base:.4}: {gain:.2}x >= 1.5x"
                    ),
                );
            }
            if threads < 2 {
                println!("{name} bit: scaling check skipped on a 1-thread host");
                continue;
            }
            let us_nt = median_us_per_row(ROWS, || {
                black_box(tape.eval_batch(backend, &stim, threads));
            });
            let ratio_nt = oracle_us / us_nt;
            let floor = if threads >= 8 { ratio } else { 0.75 * ratio };
            gate(
                ratio_nt >= floor,
                format!(
                    "{name} bit at {threads} threads: tape {us_nt:.4} us/row, {ratio_nt:.2}x \
                     >= {floor:.2}x"
                ),
            );
        }
    }
    gate(
        best_bit >= 5.0,
        format!("best bit graph {best_bit:.2}x >= 5x"),
    );
    assert!(
        failures.is_empty(),
        "engine ratio gates failed: {failures:#?}"
    );
}
