//! Multi-graph batch evaluation: one scheduler invocation across many
//! independent `(graph, rows)` requests.
//!
//! [`eval_many`] pipelines compile → cache lookup → eval through the
//! work-stealing scheduler (`csfma_core::batch`): first every request's
//! compile/cache probe runs as its own work item, then the row chunks of
//! *all* requests are flattened into a single item list driven by one
//! stealing deque per worker. A pathologically heavy request (a deep PCS
//! graph on the bit backend, say) therefore cannot serialize the batch:
//! its chunks sit in the same index space as everyone else's and get
//! stolen like any other work.
//!
//! Determinism: each request's output buffer is written by chunk index,
//! exactly as [`Tape::eval_batch`] writes it, so every per-request
//! result is byte-identical to a standalone `eval_batch` call at any
//! thread count — `tests/scheduler.rs` locks this down with digest
//! comparisons under forced skew.

use crate::cdfg::Cdfg;
use crate::compile::{
    compile_cached_with, CompileError, CompileOptions, PooledChunkScratch, Tape, TapeBackend,
};
use csfma_core::batch::{par_chunks_indexed, steal_indexed, CHUNK_ROWS};
use csfma_core::SchedStats;
use csfma_obs::Profiler;
use std::collections::HashMap;
use std::sync::Arc;

/// One `(graph, rows)` request for [`eval_many`].
#[derive(Clone, Copy, Debug)]
pub struct EvalManyRequest<'a> {
    /// The datapath graph to compile (through the process tape cache).
    pub graph: &'a Cdfg,
    /// Evaluation backend for this request.
    pub backend: TapeBackend,
    /// Row-major stimulus, `n · num_inputs` long.
    pub rows: &'a [f64],
    /// Compile options (cache key includes them).
    pub options: CompileOptions,
}

impl<'a> EvalManyRequest<'a> {
    /// A request with default [`CompileOptions`].
    pub fn new(graph: &'a Cdfg, backend: TapeBackend, rows: &'a [f64]) -> Self {
        EvalManyRequest {
            graph,
            backend,
            rows,
            options: CompileOptions::default(),
        }
    }
}

/// One request's result: the compiled (cached) tape and its row-major
/// outputs, byte-identical to `tape.eval_batch(backend, rows, _)`.
#[derive(Clone, Debug)]
pub struct EvalManyOutput {
    /// Row-major outputs, `n · num_outputs` long.
    pub outputs: Vec<f64>,
    /// The tape the request compiled to (shared via the process cache).
    pub tape: Arc<Tape>,
}

/// Evaluate many independent `(graph, rows)` requests with up to
/// `threads` workers (module docs). Returns one result per request, in
/// request order; a request whose graph fails the compile gate carries
/// its [`CompileError`] without disturbing its neighbors.
///
/// # Panics
/// If a successfully compiled request violates the [`Tape::eval_batch`]
/// row contract: a tape with no inputs, or `rows.len()` not a multiple
/// of its `num_inputs()`.
pub fn eval_many(
    reqs: &[EvalManyRequest],
    threads: usize,
) -> Vec<Result<EvalManyOutput, CompileError>> {
    eval_many_with_stats(reqs, threads).0
}

/// [`eval_many`] wrapped in an `eval_many` stage span, with request,
/// row and scheduler claim/steal counters recorded into `prof`. The
/// results are byte-identical to the unprofiled call.
pub fn eval_many_profiled(
    reqs: &[EvalManyRequest],
    threads: usize,
    prof: &mut Profiler,
) -> Vec<Result<EvalManyOutput, CompileError>> {
    let tok = prof.enter("eval_many");
    let ((results, sched), wall_us) = csfma_obs::time_us(|| eval_many_with_stats(reqs, threads));
    prof.exit(tok);
    let rows_total: usize = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|o| o.outputs.len() / o.tape.num_outputs().max(1))
        .sum();
    prof.set_counter("requests", reqs.len() as f64);
    prof.set_counter(
        "compile_errors",
        results.iter().filter(|r| r.is_err()).count() as f64,
    );
    prof.set_counter("rows", rows_total as f64);
    if wall_us > 0.0 {
        prof.set_counter("rows_per_sec", rows_total as f64 / (wall_us * 1e-6));
    }
    prof.set_counter("threads", threads as f64);
    prof.set_counter("sched_workers", sched.workers as f64);
    prof.set_counter(
        "sched_grain_rows",
        (sched.grain as usize * CHUNK_ROWS) as f64,
    );
    prof.set_counter("sched_claims", sched.claims as f64);
    prof.set_counter("sched_steals", sched.steals as f64);
    prof.set_counter("sched_steal_misses", sched.steal_misses as f64);
    results
}

fn eval_many_with_stats(
    reqs: &[EvalManyRequest],
    threads: usize,
) -> (Vec<Result<EvalManyOutput, CompileError>>, SchedStats) {
    // ---- stage 1: compile / cache-probe, one work item per request ----
    let mut tapes: Vec<Option<Result<Arc<Tape>, CompileError>>> = vec![None; reqs.len()];
    par_chunks_indexed(
        &mut tapes,
        1,
        threads,
        || (),
        |_, i, slot| {
            slot[0] = Some(compile_cached_with(
                reqs[i].graph,
                reqs[i].options,
                &mut Profiler::disabled(),
            ));
        },
    );
    let tapes: Vec<Result<Arc<Tape>, CompileError>> = tapes
        .into_iter()
        .map(|t| t.expect("compile stage skipped a request"))
        .collect();

    // ---- stage 2: every request's chunks through one stealing deque ----
    // request-major item order, so the initial per-worker segments are
    // contiguous runs of work and stealing only kicks in under skew
    let mut outs: Vec<Vec<f64>> = Vec::with_capacity(reqs.len());
    let mut items: Vec<(u32, u32)> = Vec::new();
    for (r, (req, tape)) in reqs.iter().zip(tapes.iter()).enumerate() {
        let Ok(tape) = tape else {
            outs.push(Vec::new());
            continue;
        };
        let ni = tape.num_inputs();
        assert!(ni > 0, "eval_many request {r}: tape has no inputs");
        assert_eq!(
            req.rows.len() % ni,
            0,
            "eval_many request {r}: rows not a multiple of num_inputs"
        );
        let n = req.rows.len() / ni;
        let no = tape.num_outputs();
        outs.push(vec![0.0f64; n * no]);
        if no > 0 {
            for c in 0..n.div_ceil(CHUNK_ROWS) {
                items.push((r as u32, c as u32));
            }
        }
    }
    let bases: Vec<usize> = outs.iter_mut().map(|o| o.as_mut_ptr() as usize).collect();

    let stats = steal_indexed(
        items.len(),
        threads,
        HashMap::<usize, PooledChunkScratch>::new,
        |scratch_by_req, k| {
            let (r, c) = items[k];
            let (r, c) = (r as usize, c as usize);
            let req = &reqs[r];
            let tape = tapes[r].as_ref().expect("item for failed request");
            let no = tape.num_outputs();
            let n = req.rows.len() / tape.num_inputs();
            let base_row = c * CHUNK_ROWS;
            let len = CHUNK_ROWS.min(n - base_row);
            // SAFETY: items are claimed exactly once (`steal_indexed`),
            // distinct items address disjoint `[base_row·no, …)` windows
            // of distinct per-request buffers, and `outs` is neither
            // moved nor resized while the scheduler runs.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut((bases[r] as *mut f64).add(base_row * no), len * no)
            };
            let scratch = scratch_by_req
                .entry(r)
                .or_insert_with(|| tape.chunk_scratch());
            tape.eval_chunk(req.backend, req.rows, base_row, len, chunk, scratch);
        },
    );

    let results = tapes
        .into_iter()
        .zip(outs)
        .map(|(tape, outputs)| tape.map(|tape| EvalManyOutput { outputs, tape }))
        .collect();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::{fuse_critical_paths, FusionConfig};
    use crate::parse_program;
    use crate::FmaKind;

    fn stimulus(n_vals: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (0..n_vals)
            .map(|_| {
                s ^= s >> 27;
                s = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
                ((s >> 40) as f64) * 0.125 - 1_048_576.0
            })
            .collect()
    }

    #[test]
    fn matches_individual_eval_batch_bitwise() {
        let g1 = parse_program("in a, b, c, d;\nout x = a*b + c*d;\n").unwrap();
        let g2 = parse_program("in a, b;\nout y = a + b * 3.5;\n").unwrap();
        let fused = fuse_critical_paths(&g1, &FusionConfig::new(FmaKind::Pcs)).fused;
        let rows1 = stimulus(4 * 97, 1);
        let rows2 = stimulus(2 * 130, 2);
        let rows3 = stimulus(4 * 65, 3);
        let reqs = [
            EvalManyRequest::new(&g1, TapeBackend::BitAccurate, &rows1),
            EvalManyRequest::new(&g2, TapeBackend::BitAccurate, &rows2),
            EvalManyRequest::new(&fused, TapeBackend::BitAccurate, &rows3),
        ];
        for threads in [1, 4, 8] {
            let results = eval_many(&reqs, threads);
            for (req, res) in reqs.iter().zip(&results) {
                let out = &res.as_ref().unwrap().outputs;
                let tape = &res.as_ref().unwrap().tape;
                let want = tape.eval_batch(req.backend, req.rows, 1);
                assert_eq!(want.len(), out.len());
                assert!(
                    want.iter()
                        .zip(out.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "eval_many diverged from eval_batch at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn compile_error_is_isolated_to_its_request() {
        use crate::Op;
        let good = parse_program("in a, b;\nout x = a * b;\n").unwrap();
        // D001: one-armed adder planted behind the validator's back
        let mut bad = crate::Cdfg::new();
        let a = bad.input("a");
        bad.push_unchecked(Op::Add, vec![a]);
        let rows = stimulus(2 * 10, 7);
        let bad_rows = stimulus(10, 8);
        let reqs = [
            EvalManyRequest::new(&good, TapeBackend::BitAccurate, &rows),
            EvalManyRequest::new(&bad, TapeBackend::BitAccurate, &bad_rows),
            EvalManyRequest::new(&good, TapeBackend::BitAccurate, &rows),
        ];
        let results = eval_many(&reqs, 4);
        assert!(results[0].is_ok());
        assert!(results[1].is_err(), "gate failure must surface per-request");
        assert!(results[2].is_ok());
        let tape = results[0].as_ref().unwrap().tape.clone();
        let want = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
        assert_eq!(results[0].as_ref().unwrap().outputs, want);
    }

    #[test]
    fn empty_request_list_is_fine() {
        assert!(eval_many(&[], 8).is_empty());
    }
}
