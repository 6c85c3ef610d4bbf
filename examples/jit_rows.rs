//! Microseconds per row of the paper's three `ldlsolve()` kernels
//! (Sec. IV-D, in their discrete IEEE form) on the bit-accurate
//! interpreter and on the native JIT. Each kernel runs single-threaded
//! 1024-row batches of three kinds: ordinary rows (the kernel's real
//! factors and a random right-hand side), rows whose first right-hand-side
//! element is subnormal, and rows where it is NaN. Every row of the last
//! two kinds bails the JIT to the interpreter. Each cell is the median
//! and the quartiles of `reps` timed batches, and every batch must match
//! the interpreter bit for bit.
//!
//! ```sh
//! cargo run --release --example jit_rows -- [reps]
//! ```

use std::time::Instant;

use csfma::hls::{compile, jit_available, parse_program, to_source, Tape, TapeBackend};
use csfma::solvers::{generate_ldlsolve, solver_suite, KktSystem, LdlFactors};
use rand::{rngs::StdRng, Rng, SeedableRng};

const ROWS: usize = 1024;

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .map_or(31, |s| s.parse().expect("reps is a count"));
    println!(
        "jit available: {} | {ROWS}-row batches, 1 thread, {reps} reps | \
         us/row: median [q1, q3]",
        jit_available()
    );
    println!(
        "{:<12} {:<10} {:>26} {:>26}",
        "kernel", "rows", "bit", "jit"
    );
    let mut rng = StdRng::seed_from_u64(42);
    for (i, problem) in solver_suite().iter().take(3).enumerate() {
        let kkt = KktSystem::assemble(problem);
        let factors = LdlFactors::factor(&kkt.matrix);
        let prog = generate_ldlsolve(&factors);
        // through the printer and parser, as the benchmark's kernels are
        let g = parse_program(&to_source(&prog.cdfg)).expect("printed kernels re-parse");
        let tape = compile(&g).expect("the ldlsolve kernels compile");
        tape.jit_module(); // built before, not inside, the timed batches
        for (kind, poison) in [
            ("ordinary", None),
            ("subnormal", Some(1e-310)),
            ("NaN", Some(f64::NAN)),
        ] {
            let mut rows = Vec::with_capacity(ROWS * tape.num_inputs());
            for _ in 0..ROWS {
                let mut rhs: Vec<f64> = (0..prog.dim).map(|_| rng.gen_range(-10.0..10.0)).collect();
                if let Some(v) = poison {
                    rhs[0] = v;
                }
                let bound = prog.inputs_for(&factors, &rhs);
                rows.extend(tape.input_names().iter().map(|name| bound[name]));
            }
            let [bit, jit] = [TapeBackend::BitAccurate, TapeBackend::Jit]
                .map(|backend| quartiles(&tape, backend, &rows, reps));
            let kernel = format!("ldlsolve-s{}", i + 1);
            println!("{kernel:<12} {kind:<10} {bit:>26} {jit:>26}");
        }
    }
}

/// `median [q1, q3]` of the µs per row of `reps` timed batches.
fn quartiles(tape: &Tape, backend: TapeBackend, rows: &[f64], reps: usize) -> String {
    let want = tape.eval_batch(TapeBackend::BitAccurate, rows, 1);
    let mut us: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let got = tape.eval_batch(backend, std::hint::black_box(rows), 1);
            let us = t.elapsed().as_secs_f64() * 1e6 / ROWS as f64;
            assert!(
                want.iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{backend:?} diverged from the interpreter"
            );
            us
        })
        .collect();
    us.sort_by(f64::total_cmp);
    let q = |p: usize| us[(us.len() - 1) * p / 4];
    format!("{:.3} [{:.3}, {:.3}]", q(2), q(1), q(3))
}
