//! Criterion benchmarks of the HLS flow: solver generation, scheduling
//! and the Fig. 12 fusion pass.

use criterion::{criterion_group, criterion_main, Criterion};
use csfma_hls::{asap_schedule, fuse_critical_paths, FmaKind, FusionConfig, OpTiming};
use csfma_solvers::{generate_ldlsolve, solver_suite, KktSystem, LdlFactors};
use std::hint::black_box;

fn bench_solver_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver_generation");
    g.sample_size(20);
    for p in solver_suite() {
        g.bench_function(p.name, |bch| {
            bch.iter(|| {
                let k = KktSystem::assemble(black_box(&p));
                let f = LdlFactors::factor(&k.matrix);
                black_box(generate_ldlsolve(&f))
            })
        });
    }
    g.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduling");
    let p = &solver_suite()[1];
    let k = KktSystem::assemble(p);
    let f = LdlFactors::factor(&k.matrix);
    let prog = generate_ldlsolve(&f);
    let t = OpTiming::default();
    g.bench_function("asap/solver2", |bch| {
        bch.iter(|| black_box(asap_schedule(black_box(&prog.cdfg), &t)))
    });
    g.finish();
}

fn bench_fusion_pass(c: &mut Criterion) {
    let mut g = c.benchmark_group("fusion_pass");
    g.sample_size(10);
    let p = &solver_suite()[0];
    let k = KktSystem::assemble(p);
    let f = LdlFactors::factor(&k.matrix);
    let prog = generate_ldlsolve(&f);
    for kind in [FmaKind::Pcs, FmaKind::Fcs] {
        g.bench_function(format!("{kind:?}/solver1"), |bch| {
            bch.iter(|| {
                black_box(fuse_critical_paths(
                    black_box(&prog.cdfg),
                    &FusionConfig::new(kind),
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_solver_generation,
    bench_scheduling,
    bench_fusion_pass
);
criterion_main!(benches);
