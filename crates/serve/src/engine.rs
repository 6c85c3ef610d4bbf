//! The evaluation engine behind a `SUBMIT` frame.
//!
//! One request flows: parse → compile through the sharded tape cache →
//! slab-wise robust evaluation with the deadline checked at every slab
//! boundary (slabs are whole numbers of scheduler chunks, so "chunk
//! boundary" in the protocol spec is literal) → FNV digest over the
//! output doubles, the same formula `csfma-run` prints, so a client can
//! cross-check a served digest against a local run bit-for-bit.
//!
//! Failure ladder (DESIGN.md §15): a check firing inside a chunk is the
//! robust executor's business and ends, at worst, in a quarantined NaN
//! row; a panic that escapes the executor is caught here and retried
//! with backoff; a slab that exhausts its retries degrades to a fully
//! quarantined slab — never a dropped connection, never a torn result.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use csfma_core::batch::CHUNK_ROWS;
use csfma_core::fault::{FaultPlan, FaultSite, FaultSpec};
use csfma_hls::{compile_cached, parse_program, RobustOptions, RowOutcome, TapeBackend};

use crate::frame::{backend, Frame};
use crate::stats::ServeStats;

/// How many times a slab whose evaluation *panicked through* the robust
/// executor is retried before it degrades to quarantined NaN rows.
pub const SLAB_RETRIES: u32 = 3;

/// Initial backoff after a contained slab panic; doubles per retry.
const RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// The FNV-1a digest `csfma-run` prints: byte-fold of each output
/// double, little-endian.
pub fn digest(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Map a wire backend tag to the engine backend.
pub fn backend_from_tag(tag: u8) -> Option<TapeBackend> {
    match tag {
        backend::BIT => Some(TapeBackend::BitAccurate),
        backend::ORACLE => Some(TapeBackend::Oracle),
        _ => None,
    }
}

/// Engine knobs, fixed at server construction.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads handed to the robust executor.
    pub workers: usize,
    /// Chunk-level retries inside the robust executor.
    pub chunk_retries: u32,
    /// Seed for server-side fault injection (`None` = run clean). Each
    /// request derives its own plan, so campaigns are reproducible per
    /// request id.
    pub fault_seed: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            chunk_retries: 2,
            fault_seed: None,
        }
    }
}

fn request_fault_plan(seed: u64, request_id: u64, rows: usize) -> FaultPlan {
    // a sparse transient sprinkle across sites and rows: enough to
    // exercise every rung under load without drowning the engine. Only
    // checker-covered sites are struck — TapeReg (a register-file upset)
    // is outside the self-checking envelope and needs ECC, so injecting
    // it server-side would manufacture silent corruption the protocol's
    // digest contract forbids (the fault campaign sweeps and reports it
    // honestly instead).
    let mut plan = FaultPlan::new(seed ^ request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let covered: Vec<FaultSite> = FaultSite::ALL
        .iter()
        .copied()
        .filter(|s| *s != FaultSite::TapeReg)
        .collect();
    let mut r = (seed.wrapping_add(request_id) % 13) as usize;
    let mut k = 0usize;
    while r < rows && k < 16 {
        let site = covered[(request_id as usize + k) % covered.len()];
        plan = plan.with_fault(FaultSpec::transient(site, r as u64));
        r += 13;
        k += 1;
    }
    plan
}

/// Outcome of one `SUBMIT`, already shaped as the response frame.
// the argument list mirrors the SUBMIT frame plus the connection's
// clock context; bundling them into a struct would just rename the
// same nine fields
#[allow(clippy::too_many_arguments)]
pub fn process_submit(
    cfg: &EngineConfig,
    stats: &ServeStats,
    request_id: u64,
    backend_tag: u8,
    rows: u32,
    graph: &str,
    data: &[f64],
    deadline: Instant,
    started: Instant,
) -> Frame {
    let bad = |msg: String| Frame::Error {
        code: 3,
        message: msg,
    };

    let Some(backend) = backend_from_tag(backend_tag) else {
        return bad(format!("SV003: unknown backend tag {backend_tag}"));
    };
    let g = match parse_program(graph) {
        Ok(g) => g,
        Err(e) => return bad(format!("SV003: graph does not parse: {e}")),
    };
    let tape = match compile_cached(&g) {
        Ok(t) => t,
        Err(e) => return bad(format!("SV003: graph refused by the compiler: {e}")),
    };
    let ni = tape.num_inputs();
    let no = tape.num_outputs();
    let rows = rows as usize;
    if ni == 0 || data.len() != rows * ni {
        return bad(format!(
            "SV003: row data holds {} doubles, expected rows*num_inputs = {}*{}",
            data.len(),
            rows,
            ni
        ));
    }

    let plan = cfg
        .fault_seed
        .map(|seed| request_fault_plan(seed, request_id, rows));

    // slabs are whole chunks so the deadline lands exactly on the
    // scheduler's chunk boundaries
    let slab_rows = CHUNK_ROWS * cfg.workers.max(1);
    let mut out = Vec::with_capacity(rows * no);
    let mut quarantined = 0u64;
    let mut base = 0usize;
    while base < rows {
        if Instant::now() >= deadline {
            // discard partial work deterministically: the response
            // carries nothing of the slabs already computed
            stats
                .deadline
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Frame::Deadline {
                elapsed_ms: started.elapsed().as_millis() as u32,
            };
        }
        let len = slab_rows.min(rows - base);
        let slab = &data[base * ni..(base + len) * ni];
        let opts = RobustOptions {
            threads: cfg.workers,
            chunk_retries: cfg.chunk_retries,
            fault: plan.as_ref(),
        };
        let mut backoff = RETRY_BACKOFF;
        let mut attempt = 0u32;
        let slab_result = loop {
            match catch_unwind(AssertUnwindSafe(|| {
                tape.eval_batch_robust(backend, slab, &opts)
            })) {
                Ok(r) => break Some(r),
                Err(_) if attempt < SLAB_RETRIES => {
                    attempt += 1;
                    stats
                        .retries
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
                Err(_) => break None,
            }
        };
        match slab_result {
            Some((vals, report)) => {
                let q = report
                    .outcomes
                    .iter()
                    .filter(|o| matches!(o, RowOutcome::Quarantined { .. }))
                    .count() as u64;
                quarantined += q;
                out.extend_from_slice(&vals);
            }
            None => {
                // retries exhausted: the slab degrades to quarantined
                // NaN rows instead of dropping the connection
                quarantined += len as u64;
                out.resize(out.len() + len * no, f64::NAN);
            }
        }
        base += len;
    }

    stats
        .quarantined_rows
        .fetch_add(quarantined, std::sync::atomic::Ordering::Relaxed);
    Frame::Result {
        digest: digest(&out),
        rows: rows as u32,
        quarantined: quarantined as u32,
        data: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::backend;

    const GRAPH: &str = "x1 = a*b + c;\nout y = x1*x1 + a;";

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    #[test]
    fn submit_round_trip_matches_local_eval() {
        let cfg = EngineConfig::default();
        let stats = ServeStats::default();
        let rows = 10usize;
        let g = parse_program(GRAPH).unwrap();
        let tape = compile_cached(&g).unwrap();
        let data: Vec<f64> = (0..rows * tape.num_inputs())
            .map(|i| i as f64 * 0.5 - 2.0)
            .collect();
        let t0 = Instant::now();
        let got = process_submit(
            &cfg,
            &stats,
            0,
            backend::BIT,
            rows as u32,
            GRAPH,
            &data,
            far(),
            t0,
        );
        let local = tape.eval_batch(TapeBackend::BitAccurate, &data, 1);
        match got {
            Frame::Result {
                digest: d,
                rows: r,
                quarantined,
                data: out,
            } => {
                assert_eq!(r, rows as u32);
                assert_eq!(quarantined, 0);
                assert_eq!(d, digest(&local));
                assert!(out
                    .iter()
                    .zip(local.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            other => panic!("expected Result, got {other:?}"),
        }
    }

    #[test]
    fn bad_requests_are_sv003_not_panics() {
        let cfg = EngineConfig::default();
        let stats = ServeStats::default();
        let t0 = Instant::now();
        for (tag, rows, graph, data) in [
            (backend::BIT, 1u32, "out y = ;", vec![1.0]),
            (backend::BIT, 2, GRAPH, vec![1.0]), // wrong data length
            (0x7F, 1, GRAPH, vec![1.0, 2.0, 3.0]),
            (1, 1, GRAPH, vec![1.0, 2.0, 3.0]), // unassigned backend tag
        ] {
            match process_submit(&cfg, &stats, 0, tag, rows, graph, &data, far(), t0) {
                Frame::Error { code: 3, message } => {
                    assert!(message.starts_with("SV003"), "{message}")
                }
                other => panic!("expected SV003 error, got {other:?}"),
            }
        }
    }

    #[test]
    fn expired_deadline_returns_deadline_frame_with_no_partial_data() {
        let cfg = EngineConfig::default();
        let stats = ServeStats::default();
        let rows = 4 * CHUNK_ROWS;
        let g = parse_program(GRAPH).unwrap();
        let tape = compile_cached(&g).unwrap();
        let data = vec![1.5f64; rows * tape.num_inputs()];
        let t0 = Instant::now();
        let got = process_submit(
            &cfg,
            &stats,
            0,
            backend::BIT,
            rows as u32,
            GRAPH,
            &data,
            t0, // already expired
            t0,
        );
        assert!(matches!(got, Frame::Deadline { .. }), "{got:?}");
        assert_eq!(stats.snapshot().deadline, 1);
    }

    #[test]
    fn injected_faults_degrade_to_quarantine_or_recover_bit_identically() {
        let cfg = EngineConfig {
            fault_seed: Some(0xFA57),
            ..EngineConfig::default()
        };
        let stats = ServeStats::default();
        let rows = 2 * CHUNK_ROWS;
        let g = parse_program(GRAPH).unwrap();
        let tape = compile_cached(&g).unwrap();
        let data: Vec<f64> = (0..rows * tape.num_inputs())
            .map(|i| (i % 97) as f64 - 48.0)
            .collect();
        let t0 = Instant::now();
        let got = process_submit(
            &cfg,
            &stats,
            1,
            backend::BIT,
            rows as u32,
            GRAPH,
            &data,
            far(),
            t0,
        );
        let clean = tape.eval_batch(TapeBackend::BitAccurate, &data, 1);
        match got {
            Frame::Result {
                quarantined,
                data: out,
                ..
            } => {
                // every non-NaN output is bit-identical to a clean run;
                // quarantined rows are the only casualties
                let no = tape.num_outputs();
                let mut nan_rows = 0u32;
                for r in 0..rows {
                    let poisoned = (0..no).any(|k| out[r * no + k].is_nan());
                    if poisoned {
                        nan_rows += 1;
                    } else {
                        for k in 0..no {
                            assert_eq!(
                                out[r * no + k].to_bits(),
                                clean[r * no + k].to_bits(),
                                "row {r} differs from clean run"
                            );
                        }
                    }
                }
                assert_eq!(nan_rows, quarantined);
            }
            other => panic!("expected Result, got {other:?}"),
        }
    }
}
