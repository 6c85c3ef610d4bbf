//! Batch-execution throughput experiment: compiled instruction tape
//! versus the scalar reference interpreters.
//!
//! For each benchmark datapath the experiment measures
//!
//! * the **scalar oracle** (`eval_bit_accurate`) walking the
//!   graph per input vector with `HashMap` plumbing — the semantics
//!   definition, and the baseline every speedup is quoted against;
//! * the **compiled tape** ([`mod@csfma_hls::compile`]) at 1, 2 and 8 worker
//!   threads via [`Tape::eval_batch`];
//! * one-time costs: cold compile versus a [`compile_cached`] hit;
//! * a **bitwise-equality audit** of tape output against the scalar
//!   oracle on every row the oracle evaluated — a speedup only counts if
//!   the bits agree.
//!
//! The scalar oracle is evaluated on a capped subset of rows (it is the
//! slow side — that is the point) and its per-row cost extrapolated;
//! [`ThroughputRow::scalar_rows_measured`] records the subset size so
//! the JSON never silently pretends full coverage.

use csfma_hls::{
    compile_cached, compile_with, eval_many_profiled, fuse_critical_paths,
    interp::eval_bit_accurate, parse_program, tape_cache_stats, Cdfg, CompileOptions,
    EvalManyRequest, FmaKind, FusionConfig, Profiler, Tape, TapeBackend,
};
use csfma_obs::time_us;
use csfma_solvers::{generate_ldlsolve, solver_suite, KktSystem, LdlFactors};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;

/// Measurement for one (datapath, backend) pair.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// Datapath label.
    pub graph: String,
    /// Node count of the compiled graph.
    pub nodes: usize,
    /// `"bit"` (soft-float + behavioral FMA) or `"jit"` (native code).
    pub backend: &'static str,
    /// Batch size the tape evaluated.
    pub rows: usize,
    /// Rows the scalar oracle actually evaluated (time-capped subset).
    pub scalar_rows_measured: usize,
    /// Scalar interpreter cost per input vector, microseconds.
    pub scalar_us_per_row: f64,
    /// `(worker_threads, microseconds_per_row)` for the tape.
    pub tape_us_per_row: Vec<(usize, f64)>,
    /// Scalar cost / tape cost at 1 thread.
    pub speedup_1t: f64,
    /// Scalar cost / tape cost at 8 threads.
    pub speedup_8t: f64,
    /// Tape output matched the oracle bit-for-bit on every audited row.
    pub bitwise_equal: bool,
    /// Cold `compile()` wall time, microseconds (includes the optimizer).
    pub compile_us: f64,
    /// Of which: post-gate optimizer wall time, microseconds.
    pub optimize_us: f64,
    /// `compile_cached()` hit wall time, microseconds.
    pub cached_compile_us: f64,
    /// Graph nodes entering the post-gate optimizer.
    pub opt_nodes_before: usize,
    /// Graph nodes after folding / CSE / DCE.
    pub opt_nodes_after: usize,
    /// Instructions in the lowered tape (after dead-slot elimination).
    pub instrs: usize,
    /// Adaptive scheduler grain at 8 threads, in rows (`grain · 64`).
    pub chunk_size: usize,
    /// Workers the 8-thread run actually fielded (capped by batch size).
    pub steal_workers: u64,
    /// Deque claims (owner pops + steals) during the 8-thread run.
    pub steal_claims: u64,
    /// Of which: successful steals from another worker's deque.
    pub steal_steals: u64,
}

/// The benchmark datapaths: Listing 1 discrete and fused both ways, the
/// deep Horner chain fused, and the unrolled `ldlsolve` kernel of the
/// paper's smallest trajectory solver (540-node class).
pub fn bench_graphs() -> Vec<(String, Cdfg)> {
    let listing1 = parse_program("x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;")
        .expect("listing1 parses");
    let horner = parse_program(
        "p1 = c8*x + c7;\n p2 = p1*x + c6;\n p3 = p2*x + c5;\n p4 = p3*x + c4;\n \
         p5 = p4*x + c3;\n p6 = p5*x + c2;\n p7 = p6*x + c1;\n out y = p7*x + c0;",
    )
    .expect("horner parses");
    let problem = &solver_suite()[0];
    let kkt = KktSystem::assemble(problem);
    let factors = LdlFactors::factor(&kkt.matrix);
    let ldl = generate_ldlsolve(&factors).cdfg;

    let fuse = |g: &Cdfg, kind: FmaKind| fuse_critical_paths(g, &FusionConfig::new(kind)).fused;
    vec![
        ("listing1".into(), listing1.clone()),
        ("listing1-pcs".into(), fuse(&listing1, FmaKind::Pcs)),
        ("listing1-fcs".into(), fuse(&listing1, FmaKind::Fcs)),
        ("horner8-pcs".into(), fuse(&horner, FmaKind::Pcs)),
        ("ldlsolve-s1".into(), ldl),
    ]
}

/// Run the experiment: `rows` input vectors per datapath, oracle audited
/// on at most `scalar_cap` of them, stimulus from `seed`.
pub fn throughput(rows: usize, scalar_cap: usize, seed: u64) -> Vec<ThroughputRow> {
    let mut out = Vec::new();
    for (name, g) in bench_graphs() {
        // timings come from the engine's own observability layer (the
        // `compile` stage span), not a private stopwatch; the time_us
        // wrapper is the fallback for obs-disabled builds
        let mut prof = Profiler::new();
        let (tape, compile_wall_us) =
            time_us(|| compile_with(&g, CompileOptions::default(), &mut prof));
        let tape = tape.expect("benchmark graphs are checker-clean");
        let compile_us = prof
            .finish()
            .stage("compile")
            .map_or(compile_wall_us, |s| s.wall_us);
        let _warm = compile_cached(&g).expect("cache warm-up");
        let (_hit, cached_compile_us) = time_us(|| compile_cached(&g).expect("cache hit"));

        let ni = tape.num_inputs();
        let mut rng = StdRng::seed_from_u64(seed);
        let stim: Vec<f64> = (0..rows * ni)
            .map(|_| rng.gen_range(-100.0..100.0))
            .collect();

        // identical stimulus across backends so the rows per graph
        // describe the same workload; the jit backend only applies to
        // IEEE-node graphs (fused tapes refuse a module and would just
        // re-measure the interpreter under a different label)
        let mut backends = vec![TapeBackend::BitAccurate];
        if tape.jit_module().is_some() {
            backends.push(TapeBackend::Jit);
        }
        for backend in backends {
            let mut row = measure(&name, &g, &tape, backend, &stim, rows, scalar_cap);
            row.compile_us = compile_us;
            row.cached_compile_us = cached_compile_us;
            let o = tape.opt_stats();
            row.optimize_us = o.optimize_us;
            row.opt_nodes_before = o.nodes_before;
            row.opt_nodes_after = o.nodes_after;
            row.instrs = tape.instrs().len();
            out.push(row);
        }
    }
    out
}

/// Timing repetitions per measurement point. Every repetition produces
/// bit-identical output (the engine is deterministic), so taking the
/// minimum wall time is pure noise rejection: scheduler preemption and
/// cache pollution only ever make a run slower, never faster.
const REPS: usize = 3;

/// Evaluation time one repetition of a tape timing point fills, in
/// microseconds: back-to-back `eval_batch` calls until their summed
/// `eval` spans reach it. A cheap graph's whole batch takes well under a
/// millisecond, which a single preemption can double; every call still
/// pays its own scheduling cost, so the per-row figure is unchanged in
/// expectation.
const MIN_REP_US: f64 = 20_000.0;

fn measure(
    name: &str,
    g: &Cdfg,
    tape: &Tape,
    backend: TapeBackend,
    stim: &[f64],
    rows: usize,
    scalar_cap: usize,
) -> ThroughputRow {
    let ni = tape.num_inputs();
    let audit_rows = rows.min(scalar_cap).max(1);

    // scalar oracle over the audited subset, best of REPS; every backend
    // is bit-identical to bit-accurate by construction, so one reference
    // applies
    let mut oracle_out: Vec<HashMap<String, f64>> = Vec::new();
    let mut scalar_total_us = f64::INFINITY;
    for rep in 0..REPS {
        let (got, us) = time_us(|| {
            let mut out: Vec<HashMap<String, f64>> = Vec::with_capacity(audit_rows);
            for r in 0..audit_rows {
                let m: HashMap<String, f64> = tape
                    .input_names()
                    .iter()
                    .enumerate()
                    .map(|(k, n)| (n.clone(), stim[r * ni + k]))
                    .collect();
                out.push(eval_bit_accurate(g, &m));
            }
            out
        });
        scalar_total_us = scalar_total_us.min(us);
        if rep == 0 {
            oracle_out = got;
        }
    }
    let scalar_us = scalar_total_us / audit_rows as f64;

    // compiled tape over the full batch at each worker count; per-call
    // wall time is the engine's own `eval` stage span (time_us is the
    // obs-disabled fallback), summed over the calls of a repetition
    // (MIN_REP_US), best of REPS
    let mut tape_us = Vec::new();
    let mut batch_out = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut dt = f64::INFINITY;
        for _ in 0..REPS {
            let (mut calls, mut total_us) = (0usize, 0.0);
            while total_us < MIN_REP_US {
                let mut prof = Profiler::new();
                let (got, wall_us) =
                    time_us(|| tape.eval_batch_profiled(backend, stim, threads, &mut prof));
                total_us += prof.finish().stage("eval").map_or(wall_us, |s| s.wall_us);
                calls += 1;
                if batch_out.is_empty() {
                    batch_out = got;
                } else {
                    assert!(
                        got.iter()
                            .zip(batch_out.iter())
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "thread-count variance in {name}"
                    );
                }
            }
            dt = dt.min(total_us / (calls * rows) as f64);
        }
        tape_us.push((threads, dt));
    }

    let no = tape.num_outputs();
    let bitwise_equal = (0..audit_rows).all(|r| {
        tape.output_names()
            .iter()
            .enumerate()
            .all(|(k, n)| batch_out[r * no + k].to_bits() == oracle_out[r][n].to_bits())
    });

    // one un-timed 8-thread pass to capture the scheduler's own view of
    // the workload (grain, fielded workers, claim/steal mix)
    let sched = tape.eval_batch_with_stats(backend, stim, 8).1.sched;

    let tape_1t = tape_us[0].1;
    let tape_8t = tape_us[2].1;
    ThroughputRow {
        graph: name.to_string(),
        nodes: g.len(),
        backend: match backend {
            TapeBackend::BitAccurate => "bit",
            TapeBackend::Oracle => "oracle",
            TapeBackend::Jit => "jit",
        },
        rows,
        scalar_rows_measured: audit_rows,
        scalar_us_per_row: scalar_us,
        tape_us_per_row: tape_us,
        speedup_1t: scalar_us / tape_1t,
        speedup_8t: scalar_us / tape_8t,
        bitwise_equal,
        compile_us: 0.0,
        optimize_us: 0.0,
        cached_compile_us: 0.0,
        opt_nodes_before: 0,
        opt_nodes_after: 0,
        instrs: tape.instrs().len(),
        chunk_size: sched.grain as usize * csfma_core::batch::CHUNK_ROWS,
        steal_workers: sched.workers,
        steal_claims: sched.claims,
        steal_steals: sched.steals,
    }
}

/// Measurement of the multi-graph [`csfma_hls::eval_many`] scenario: every
/// benchmark datapath as one request (fused graphs on the bit-accurate
/// backend, the rest on the JIT) behind a single 8-thread stealing deque,
/// against the sequential baseline of per-request `eval_batch` calls.
#[derive(Clone, Debug)]
pub struct EvalManyScenario {
    /// Requests in the batch (one per benchmark datapath).
    pub requests: usize,
    /// Total rows across all requests.
    pub rows_total: usize,
    /// One `eval_many` call at 8 threads, microseconds (best of reps).
    pub many_us: f64,
    /// Sequential per-request `eval_batch` at 1 thread, microseconds.
    pub sequential_us: f64,
    /// `sequential_us / many_us`.
    pub speedup_vs_sequential: f64,
    /// Every request bitwise identical to its standalone evaluation.
    pub bitwise_equal: bool,
    /// Workers the stealing pass fielded.
    pub workers: u64,
    /// Deque claims across the whole request set.
    pub claims: u64,
    /// Of which: successful steals.
    pub steals: u64,
}

/// Run the [`csfma_hls::eval_many`] scenario: `rows` rows for the heavy fused
/// requests and `rows / 4` for the JIT ones (deliberate skew, so the
/// deque has something to rebalance), stimulus from `seed`.
pub fn eval_many_scenario(rows: usize, seed: u64) -> EvalManyScenario {
    let graphs = bench_graphs();
    let backends: Vec<TapeBackend> = graphs
        .iter()
        .map(|(name, _)| {
            if name.contains("pcs") || name.contains("fcs") {
                TapeBackend::BitAccurate
            } else {
                TapeBackend::Jit
            }
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let rows_by_req: Vec<Vec<f64>> = graphs
        .iter()
        .zip(&backends)
        .map(|((_, g), b)| {
            let ni = compile_cached(g)
                .expect("benchmark graphs compile")
                .num_inputs();
            let n = match b {
                TapeBackend::BitAccurate => rows,
                _ => (rows / 4).max(1),
            };
            (0..n * ni).map(|_| rng.gen_range(-100.0..100.0)).collect()
        })
        .collect();
    let reqs: Vec<EvalManyRequest> = graphs
        .iter()
        .zip(&backends)
        .zip(&rows_by_req)
        .map(|(((_, g), &backend), rows)| EvalManyRequest::new(g, backend, rows))
        .collect();

    let mut many_us = f64::INFINITY;
    let mut results = Vec::new();
    let mut workers = 0u64;
    let mut claims = 0u64;
    let mut steals = 0u64;
    for rep in 0..REPS {
        let mut prof = Profiler::new();
        let (got, us) = time_us(|| eval_many_profiled(&reqs, 8, &mut prof));
        let report = prof.finish();
        many_us = many_us.min(report.stage("eval_many").map_or(us, |s| s.wall_us));
        if rep == 0 {
            workers = report.counter("sched_workers").unwrap_or(0.0) as u64;
            claims = report.counter("sched_claims").unwrap_or(0.0) as u64;
            steals = report.counter("sched_steals").unwrap_or(0.0) as u64;
            results = got;
        }
    }

    let mut sequential_us = f64::INFINITY;
    for _ in 0..REPS {
        let (_, us) = time_us(|| {
            for (((_, g), &backend), rows) in graphs.iter().zip(&backends).zip(&rows_by_req) {
                let tape = compile_cached(g).expect("benchmark graphs compile");
                std::hint::black_box(tape.eval_batch(backend, rows, 1));
            }
        });
        sequential_us = sequential_us.min(us);
    }

    let bitwise_equal = results.iter().enumerate().all(|(i, res)| {
        let out = res.as_ref().expect("benchmark graphs compile");
        let want = out.tape.eval_batch(backends[i], &rows_by_req[i], 1);
        want.len() == out.outputs.len()
            && want
                .iter()
                .zip(&out.outputs)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    let rows_total = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|o| o.outputs.len() / o.tape.num_outputs().max(1))
        .sum();
    EvalManyScenario {
        requests: reqs.len(),
        rows_total,
        many_us,
        sequential_us,
        speedup_vs_sequential: sequential_us / many_us,
        bitwise_equal,
        workers,
        claims,
        steals,
    }
}

/// Render rows plus the [`csfma_hls::eval_many`] scenario as the
/// `BENCH_throughput.json` document. Hand-rolled (the workspace has no
/// JSON dependency); numbers use enough digits to round-trip.
pub fn to_json(
    rows: &[ThroughputRow],
    many: &EvalManyScenario,
    rows_per_graph: usize,
    seed: u64,
) -> String {
    use std::fmt::Write as _;
    let threads_avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"throughput\",");
    let _ = writeln!(s, "  \"rows_per_graph\": {rows_per_graph},");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"hardware_threads\": {threads_avail},");
    let c = tape_cache_stats();
    let hit_rate = if c.hits + c.misses > 0 {
        c.hits as f64 / (c.hits + c.misses) as f64
    } else {
        0.0
    };
    let _ = writeln!(
        s,
        "  \"tape_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
         \"entries\": {}, \"capacity\": {}, \"hit_rate\": {hit_rate:.4}}},",
        c.hits, c.misses, c.evictions, c.entries, c.capacity
    );
    let _ = writeln!(
        s,
        "  \"eval_many\": {{\"requests\": {}, \"rows_total\": {}, \"many_us\": {:.2}, \
         \"sequential_us\": {:.2}, \"speedup_vs_sequential\": {:.2}, \"bitwise_equal\": {}, \
         \"steal\": {{\"workers\": {}, \"claims\": {}, \"steals\": {}}}}},",
        many.requests,
        many.rows_total,
        many.many_us,
        many.sequential_us,
        many.speedup_vs_sequential,
        many.bitwise_equal,
        many.workers,
        many.claims,
        many.steals
    );
    let _ = writeln!(s, "  \"entries\": [");
    for (i, r) in rows.iter().enumerate() {
        let tape: Vec<String> = r
            .tape_us_per_row
            .iter()
            .map(|(t, us)| format!("\"{t}\": {us:.4}"))
            .collect();
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"graph\": \"{}\",", r.graph);
        let _ = writeln!(s, "      \"nodes\": {},", r.nodes);
        let _ = writeln!(s, "      \"backend\": \"{}\",", r.backend);
        let _ = writeln!(s, "      \"rows\": {},", r.rows);
        let _ = writeln!(
            s,
            "      \"scalar_rows_measured\": {},",
            r.scalar_rows_measured
        );
        let _ = writeln!(
            s,
            "      \"scalar_us_per_row\": {:.4},",
            r.scalar_us_per_row
        );
        let _ = writeln!(s, "      \"tape_us_per_row\": {{{}}},", tape.join(", "));
        let _ = writeln!(s, "      \"speedup_1t\": {:.2},", r.speedup_1t);
        let _ = writeln!(s, "      \"speedup_8t\": {:.2},", r.speedup_8t);
        let _ = writeln!(s, "      \"compile_us\": {:.2},", r.compile_us);
        let _ = writeln!(s, "      \"optimize_us\": {:.2},", r.optimize_us);
        let _ = writeln!(
            s,
            "      \"cached_compile_us\": {:.2},",
            r.cached_compile_us
        );
        let _ = writeln!(s, "      \"opt_nodes_before\": {},", r.opt_nodes_before);
        let _ = writeln!(s, "      \"opt_nodes_after\": {},", r.opt_nodes_after);
        let _ = writeln!(s, "      \"instrs\": {},", r.instrs);
        let _ = writeln!(s, "      \"chunk_size\": {},", r.chunk_size);
        let _ = writeln!(
            s,
            "      \"steal\": {{\"workers\": {}, \"claims\": {}, \"steals\": {}}},",
            r.steal_workers, r.steal_claims, r.steal_steals
        );
        let _ = writeln!(s, "      \"bitwise_equal\": {}", r.bitwise_equal);
        let _ = writeln!(s, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]");
    let _ = write!(s, "}}");
    s
}
