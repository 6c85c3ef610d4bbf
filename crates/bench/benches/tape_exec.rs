//! Criterion benchmarks of the batch execution engine: the scalar
//! interpreters vs the compiled tape on the bit backend, plus compile and
//! cache-hit cost.

use criterion::{criterion_group, criterion_main, Criterion};
use csfma_bench::throughput::bench_graphs;
use csfma_hls::{
    compile, compile_cached,
    interp::{eval_bit_accurate, eval_f64},
    TapeBackend,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;

const ROWS: usize = 256;

fn bench_eval(c: &mut Criterion) {
    for (name, g) in bench_graphs() {
        let tape = compile(&g).expect("bench graphs compile");
        let ni = tape.num_inputs();
        let mut rng = StdRng::seed_from_u64(7);
        let stim: Vec<f64> = (0..ROWS * ni)
            .map(|_| rng.gen_range(-100.0..100.0))
            .collect();
        let one_row: HashMap<String, f64> = tape
            .input_names()
            .iter()
            .enumerate()
            .map(|(k, n)| (n.clone(), stim[k]))
            .collect();

        let mut grp = c.benchmark_group(format!("tape/{name}"));
        grp.sample_size(10);
        grp.bench_function("scalar_bit_1row", |b| {
            b.iter(|| black_box(eval_bit_accurate(black_box(&g), &one_row)))
        });
        grp.bench_function("scalar_f64_1row", |b| {
            b.iter(|| black_box(eval_f64(black_box(&g), &one_row)))
        });
        grp.bench_function("tape_bit_batch", |b| {
            b.iter(|| black_box(tape.eval_batch(TapeBackend::BitAccurate, black_box(&stim), 1)))
        });
        grp.finish();
    }
}

fn bench_compile(c: &mut Criterion) {
    let (_, g) = bench_graphs().pop().expect("ldlsolve graph");
    let mut grp = c.benchmark_group("tape/compile");
    grp.sample_size(10);
    grp.bench_function("cold_ldlsolve", |b| {
        b.iter(|| black_box(compile(&g).unwrap()))
    });
    grp.bench_function("cached_ldlsolve", |b| {
        let _ = compile_cached(&g).unwrap();
        b.iter(|| black_box(compile_cached(&g).unwrap()))
    });
    grp.finish();
}

criterion_group!(benches, bench_eval, bench_compile);
criterion_main!(benches);
