//! Inputs shared by the workloads: the paper's `ldlsolve()` kernels as
//! `.csfma` text, seeded stimulus rows, and the bitwise audit against the
//! independent graph interpreter.

use std::collections::HashMap;

use csfma_hls::interp::eval_bit_accurate;
use csfma_hls::{asap_schedule, to_source, Cdfg, OpTiming, Tape, TapeBackend};
use csfma_solvers::codegen::rhs_name;
use csfma_solvers::{generate_ldlsolve, solver_suite, KktSystem, LdlFactors, LdlSolveProgram};

/// SplitMix64: the benchmark's only randomness, so a seed fixes every
/// generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// True with probability `1 / n`.
    pub fn one_in(&mut self, n: u64) -> bool {
        self.next_u64().is_multiple_of(n)
    }
}

/// One solver's `ldlsolve()` kernel: the generated program, its real
/// LDLᵀ factors, and the kernel printed to `.csfma` text.
pub struct Kernel {
    pub name: String,
    pub source: String,
    pub prog: LdlSolveProgram,
    pub factors: LdlFactors,
}

/// The `ldlsolve()` kernels of the first `count` `solver_suite()`
/// solvers (540, 1140 and 1740 nodes), printed once.
pub fn ldl_kernels(count: usize) -> Vec<Kernel> {
    solver_suite()
        .iter()
        .take(count)
        .enumerate()
        .map(|(i, p)| {
            let kkt = KktSystem::assemble(p);
            let factors = LdlFactors::factor(&kkt.matrix);
            let prog = generate_ldlsolve(&factors);
            Kernel {
                name: format!("ldlsolve-s{}", i + 1),
                source: to_source(&prog.cdfg),
                prog,
                factors,
            }
        })
        .collect()
}

impl Kernel {
    /// `n` row-major rows in `input_names` order: the kernel's real
    /// factors bound through `LdlSolveProgram::inputs_for`, with a
    /// seeded right-hand side per row.
    pub fn rows(&self, input_names: &[String], n: usize, rng: &mut Rng) -> Vec<f64> {
        let template = self
            .prog
            .inputs_for(&self.factors, &vec![0.0; self.prog.dim]);
        let base: Vec<f64> = input_names.iter().map(|name| template[name]).collect();
        let rhs_slots: Vec<usize> = (0..self.prog.dim)
            .map(|i| {
                let name = rhs_name(i);
                input_names
                    .iter()
                    .position(|n| *n == name)
                    .expect("every right-hand-side element is a kernel input")
            })
            .collect();
        let mut rows = Vec::with_capacity(n * base.len());
        for _ in 0..n {
            let start = rows.len();
            rows.extend_from_slice(&base);
            for &slot in &rhs_slots {
                rows[start + slot] = rng.uniform(-10.0, 10.0);
            }
        }
        rows
    }
}

/// `n` rows of uniform stimulus in `[-100, 100)`.
pub fn uniform_rows(num_inputs: usize, n: usize, rng: &mut Rng) -> Vec<f64> {
    (0..n * num_inputs)
        .map(|_| rng.uniform(-100.0, 100.0))
        .collect()
}

/// ASAP schedule length at the 200 MHz latency table.
pub fn cycles(g: &Cdfg) -> u32 {
    asap_schedule(g, &OpTiming::default()).length
}

/// Bitwise equality of two output vectors.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Evaluate `audit` rows (indices into `rows`) on `tape` with `backend`
/// and compare each output bitwise with `eval_bit_accurate` walking
/// `graph`, never the tape under test. Returns the mismatching rows.
pub fn audit(
    graph: &Cdfg,
    tape: &Tape,
    backend: TapeBackend,
    rows: &[f64],
    audit: &[usize],
) -> usize {
    let ni = tape.num_inputs();
    let mut picked = Vec::with_capacity(audit.len() * ni);
    for &r in audit {
        picked.extend_from_slice(&rows[r * ni..(r + 1) * ni]);
    }
    let got = tape.eval_batch(backend, &picked, 1);
    let no = tape.num_outputs();
    let mut bad = 0;
    for (k, row) in picked.chunks(ni).enumerate() {
        let inputs: HashMap<String, f64> = tape
            .input_names()
            .iter()
            .cloned()
            .zip(row.iter().copied())
            .collect();
        let want = eval_bit_accurate(graph, &inputs);
        let expect: Vec<f64> = tape.output_names().iter().map(|n| want[n]).collect();
        if !same_bits(&expect, &got[k * no..(k + 1) * no]) {
            bad += 1;
        }
    }
    bad
}

/// Evenly spread audit row indices: `count` of `n` rows, first and last
/// included.
pub fn audit_rows(n: usize, count: usize) -> Vec<usize> {
    if n <= count {
        return (0..n).collect();
    }
    (0..count).map(|k| k * (n - 1) / (count - 1)).collect()
}

/// A fixed unit of work that shares no code with the program: hash-map
/// inserts and lookups, a sort and allocation churn (the kinds of work
/// the compiler passes do) and a dependent floating-point chain (the
/// kind the evaluators do). Returns its wall time in milliseconds.
pub fn probe_ms() -> f64 {
    let t = std::time::Instant::now();
    let mut rng = Rng::new(0x9E37, 7);
    let keys: Vec<u64> = (0..20_000).map(|_| rng.next_u64()).collect();
    let map: HashMap<u64, usize> = keys.iter().enumerate().map(|(i, k)| (*k, i)).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let mut acc = 0usize;
    for k in &sorted {
        acc = acc.wrapping_add(map[k]);
    }
    let churn: Vec<Vec<u64>> = sorted.chunks(16).map(|c| c.to_vec()).collect();
    acc = acc.wrapping_add(churn.iter().map(Vec::len).sum::<usize>());
    let mut x = std::hint::black_box(0.5f64);
    for _ in 0..200_000 {
        x = x.mul_add(0.999_999, 1e-9);
    }
    std::hint::black_box((acc, x));
    t.elapsed().as_secs_f64() * 1e3
}
