//! Graceful-degradation batch execution: self-checking evaluation with a
//! per-row fallback ladder.
//!
//! [`Tape::eval_batch`] is the fast path — it trusts the datapath. This
//! module is the *robust* path for runs where the datapath may be faulty
//! (fault-injection campaigns, or hardware under test): every FMA runs
//! with the mod-3 residue / recompute-and-compare checks of
//! `csfma_core::fault` enabled, every chunk runs under `catch_unwind`
//! with bounded retry, and a row whose checks fire is re-evaluated down a
//! ladder of increasingly conservative engines:
//!
//! 1. **chunk** — the chunk interpreter with the checked hook: every FMA
//!    lane on the checked unit entry point, instruction by instruction
//!    over the whole chunk. A panicking chunk is retried up to
//!    [`RobustOptions::chunk_retries`] times (transient faults have been
//!    claimed, so the retry runs clean). On full bit-accurate chunks the
//!    plane kernel then runs as a shadow differential (DESIGN.md §10.5).
//! 2. **row** — the flagged row alone, a one-row chunk through the same
//!    checked interpreter (`Recovered { backend: "row-bit" | "row-oracle"
//!    | "row-jit" }`).
//!    Transient faults cannot strike twice; only sticky faults re-arm.
//! 3. **oracle** — the [`TapeBackend::Oracle`] chunk interpreter on the
//!    one row: the pure soft-float operator stack plus the allocating
//!    behavioral units, structurally independent of the scratch-based
//!    executors (`Recovered { backend: "oracle" }`).
//! 4. **quarantine** — the row's outputs are poisoned with NaN and a
//!    structured `F001` [`Diagnostic`] names the offending source-graph
//!    node (via [`Tape::source_node_of`]). One bad row never corrupts or
//!    aborts its neighbors.
//!
//! Recovered outputs are bit-identical to a fault-free evaluation: chunk
//! lanes are independent, so rung 2 replays the exact row semantics, and
//! rung 3 is bit-identical to the bit-accurate backend by construction.
//! Chunking follows `par_chunks_indexed`, so the filled buffer — and the
//! whole [`BatchReport`] — is byte-identical for any worker count.
//!
//! Coverage boundary: the residue and duplicate-compute checks guard the
//! *arithmetic datapath* (multiplier words, PCS carry lanes, block-mux
//! selects, the exponent path). A [`FaultSite::TapeReg`](csfma_core::fault::FaultSite::TapeReg) upset corrupts a
//! stored register plane *between* operations, which none of them sees;
//! on a full bit-accurate chunk the plane shadow still catches it, on a
//! partial chunk nothing does (DESIGN.md §10.4).

use crate::compile::{ChunkHook, ChunkScratch, Instr, Tape, TapeBackend};
use csfma_core::batch::{par_chunks_indexed, CHUNK_ROWS};
use csfma_core::fault::{
    CheckKind, FaultDetected, FaultHook, FaultPlan, FaultStage, FmaCtl, RowFaults,
};
use csfma_core::CsOperand;
use csfma_verify::{Diagnostic, Rule, Span};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Knobs for [`Tape::eval_batch_robust`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RobustOptions<'a> {
    /// Worker threads (same semantics as [`Tape::eval_batch`]; `0`/`1`
    /// runs inline). The result is byte-identical for any value.
    pub threads: usize,
    /// How many times a panicking chunk is re-run before every row in it
    /// falls back to the per-row ladder.
    pub chunk_retries: u32,
    /// Fault plan to inject while evaluating (`None` = run clean with
    /// checks enabled).
    pub fault: Option<&'a FaultPlan>,
}

impl<'a> RobustOptions<'a> {
    /// Defaults (1 thread, 2 chunk retries) with a fault plan attached.
    pub fn with_fault(plan: &'a FaultPlan) -> Self {
        RobustOptions {
            threads: 1,
            chunk_retries: 2,
            fault: Some(plan),
        }
    }
}

/// What happened to one batch row.
#[derive(Clone, Debug, PartialEq)]
pub enum RowOutcome {
    /// Computed by the primary chunked executor, no check fired.
    Ok,
    /// A check (or chunk panic) fired; the row was re-computed cleanly
    /// by the named fallback engine. The value is bit-identical to a
    /// fault-free evaluation.
    Recovered {
        /// Ladder rung that produced the value: `"row-bit"`,
        /// `"row-oracle"`, `"row-jit"` or `"oracle"`.
        backend: &'static str,
    },
    /// Every rung failed; the row's outputs are NaN and the diagnostic
    /// names the offending source-graph node.
    Quarantined {
        /// The structured `F001` finding.
        diag: Diagnostic,
    },
}

/// Per-row outcomes and aggregate counters of one
/// [`Tape::eval_batch_robust`] run.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Rows evaluated.
    pub rows: usize,
    /// One outcome per row, in row order.
    pub outcomes: Vec<RowOutcome>,
    /// Self-check detections observed across all rungs (a sticky fault
    /// detected on two rungs counts twice).
    pub detections: usize,
    /// Chunk evaluations that panicked.
    pub chunk_panics: usize,
    /// Chunk-level retries performed after a panic.
    pub chunk_retries: usize,
}

impl BatchReport {
    /// `(ok, recovered, quarantined)` row counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0usize, 0usize, 0usize);
        for o in &self.outcomes {
            match o {
                RowOutcome::Ok => c.0 += 1,
                RowOutcome::Recovered { .. } => c.1 += 1,
                RowOutcome::Quarantined { .. } => c.2 += 1,
            }
        }
        c
    }

    /// True when anything at all went wrong (detection, panic, non-`Ok`
    /// outcome).
    pub fn has_faults(&self) -> bool {
        self.detections != 0
            || self.chunk_panics != 0
            || self.outcomes.iter().any(|o| !matches!(o, RowOutcome::Ok))
    }

    /// The quarantined rows' diagnostics, with their row indices.
    pub fn quarantined(&self) -> Vec<(usize, &Diagnostic)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                RowOutcome::Quarantined { diag } => Some((i, diag)),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ok, recovered, quarantined) = self.counts();
        write!(
            f,
            "rows={} ok={ok} recovered={recovered} quarantined={quarantined} \
             detections={} chunk_panics={} chunk_retries={}",
            self.rows, self.detections, self.chunk_panics, self.chunk_retries
        )
    }
}

/// What one chunk contributed to the report (only non-`Ok` rows are
/// recorded; `outcomes` carries absolute row indices).
#[derive(Default)]
struct ChunkRecord {
    outcomes: Vec<(usize, RowOutcome)>,
    detections: usize,
    panics: usize,
    retries: usize,
}

impl ChunkRecord {
    fn nontrivial(&self) -> bool {
        !self.outcomes.is_empty() || self.detections != 0 || self.panics != 0 || self.retries != 0
    }
}

impl Tape {
    /// Evaluate a batch with self-checks, fault injection and the
    /// per-row fallback ladder (module docs). Same layout contract as
    /// [`Tape::eval_batch`]; additionally returns a [`BatchReport`] with
    /// one [`RowOutcome`] per row. Both the buffer and the report are
    /// byte-identical for any `opts.threads`.
    ///
    /// # Panics
    /// As [`Tape::eval_batch`]: no inputs, or `rows.len()` not a
    /// multiple of `num_inputs()`.
    pub fn eval_batch_robust(
        &self,
        backend: TapeBackend,
        rows: &[f64],
        opts: &RobustOptions,
    ) -> (Vec<f64>, BatchReport) {
        let ni = self.num_inputs();
        assert!(ni > 0, "eval_batch_robust on a tape with no inputs");
        assert_eq!(rows.len() % ni, 0, "rows not a multiple of num_inputs");
        let n = rows.len() / ni;
        let no = self.num_outputs();
        let mut out = vec![0.0f64; n * no];
        let mut report = BatchReport {
            rows: n,
            outcomes: vec![RowOutcome::Ok; n],
            ..Default::default()
        };
        if no == 0 || n == 0 {
            return (out, report);
        }
        let records: Mutex<Vec<ChunkRecord>> = Mutex::new(Vec::new());
        // The stealing scheduler hands chunks to whichever worker claims
        // them; records are pushed in completion order and then merged
        // below by absolute row index, so the report — like the output
        // buffer — is independent of steal timing.
        par_chunks_indexed(
            &mut out,
            CHUNK_ROWS * no,
            opts.threads,
            || self.chunk_scratch(),
            |scratch, chunk_idx, chunk| {
                let base = chunk_idx * CHUNK_ROWS;
                let len = chunk.len() / no;
                let rec = self.robust_chunk(backend, rows, base, len, chunk, scratch, opts);
                if rec.nontrivial() {
                    records.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
                }
            },
        );
        for rec in records.into_inner().unwrap_or_else(|e| e.into_inner()) {
            report.detections += rec.detections;
            report.chunk_panics += rec.panics;
            report.chunk_retries += rec.retries;
            for (row, outcome) in rec.outcomes {
                report.outcomes[row] = outcome;
            }
        }
        (out, report)
    }

    /// [`Tape::eval_batch_robust`] wrapped in an `eval_robust` stage
    /// span, with the [`BatchReport`]'s fault tallies (detections, chunk
    /// panics/retries, recovered and quarantined row counts) recorded as
    /// `fault_*` counters into `prof`. Buffer and report are
    /// byte-identical to the unprofiled call.
    pub fn eval_batch_robust_profiled(
        &self,
        backend: TapeBackend,
        rows: &[f64],
        opts: &RobustOptions,
        prof: &mut csfma_obs::Profiler,
    ) -> (Vec<f64>, BatchReport) {
        let tok = prof.enter("eval_robust");
        let ((out, report), wall_us) =
            csfma_obs::time_us(|| self.eval_batch_robust(backend, rows, opts));
        prof.exit(tok);
        let (ok, recovered, quarantined) = report.counts();
        prof.set_counter("rows", report.rows as f64);
        prof.set_counter("threads", opts.threads as f64);
        if wall_us > 0.0 {
            prof.set_counter("rows_per_sec", report.rows as f64 / (wall_us * 1e-6));
        }
        prof.set_counter("rows_ok", ok as f64);
        prof.set_counter("fault_detections", report.detections as f64);
        prof.set_counter("fault_chunk_panics", report.chunk_panics as f64);
        prof.set_counter("fault_chunk_retries", report.chunk_retries as f64);
        prof.set_counter("fault_rows_recovered", recovered as f64);
        prof.set_counter("fault_rows_quarantined", quarantined as f64);
        (out, report)
    }

    /// One chunk of the robust executor: checked evaluation with bounded
    /// retry, then the ladder for every flagged lane.
    #[allow(clippy::too_many_arguments)]
    fn robust_chunk(
        &self,
        backend: TapeBackend,
        rows: &[f64],
        base: usize,
        len: usize,
        chunk_out: &mut [f64],
        s: &mut ChunkScratch,
        opts: &RobustOptions,
    ) -> ChunkRecord {
        let no = self.num_outputs();
        let mut rec = ChunkRecord::default();
        let mut lane_findings: Vec<Vec<(usize, FaultDetected)>> = vec![Vec::new(); len];

        // rung 1: the whole chunk, checks on, catch_unwind + retry. A
        // transient fault claimed during a panicked attempt stays
        // claimed, so the retry runs clean.
        let mut attempts = 0u32;
        let chunk_ok = loop {
            for fl in &mut lane_findings {
                fl.clear();
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                self.checked_chunk(
                    rows,
                    base,
                    chunk_out,
                    s,
                    opts.fault,
                    FaultStage::Primary,
                    &mut lane_findings,
                );
            }));
            match result {
                Ok(()) => break true,
                Err(_) => {
                    rec.panics += 1;
                    if attempts >= opts.chunk_retries {
                        break false;
                    }
                    attempts += 1;
                    rec.retries += 1;
                }
            }
        };

        // rung 1.5: the scalar-vs-plane differential oracle (§10.5). Run
        // the production bit-plane kernel as a *shadow* of the scalar
        // evaluation above and flag any lane whose bits disagree. The
        // committed output always comes from the scalar engine, so a
        // plane-path fault — injected via the `PlaneStrike` tamper
        // points, or a genuine kernel defect — is contained by
        // construction; the differential turns that into a detection.
        if chunk_ok
            && backend == TapeBackend::BitAccurate
            && len == CHUNK_ROWS
            && self.plane_eligible_count() > 0
        {
            #[cfg(feature = "fault-inject")]
            if let Some(plan) = opts.fault {
                for k in 0..len {
                    if let Some(rf) = plan.for_row((base + k) as u64, FaultStage::Primary) {
                        if let Some((site, sel)) = rf.plane_strike() {
                            let strike = csfma_core::PlaneStrike { site, lane: k, sel };
                            s.plane.strikes.push(strike);
                        }
                    }
                }
            }
            let mut shadow = vec![0.0f64; len * no];
            let ran = catch_unwind(AssertUnwindSafe(|| {
                self.eval_chunk(backend, rows, base, len, &mut shadow, s);
            }));
            // the scratch outlives this chunk: no strike may leak past it
            #[cfg(feature = "fault-inject")]
            s.plane.strikes.clear();
            match ran {
                Ok(()) => {
                    let instr_idx = self
                        .instrs()
                        .iter()
                        .position(|i| matches!(i, Instr::Fma { .. }))
                        .unwrap_or(0);
                    for k in 0..len {
                        let differs = (0..no).any(|o| {
                            shadow[k * no + o].to_bits() != chunk_out[k * no + o].to_bits()
                        });
                        if differs {
                            lane_findings[k].push((
                                instr_idx,
                                FaultDetected {
                                    check: CheckKind::PlaneDifferential,
                                    message: format!(
                                        "plane kernel disagrees with the scalar engine \
                                         at row {}",
                                        base + k
                                    ),
                                },
                            ));
                        }
                    }
                }
                // a panicking shadow never touches the committed output;
                // record it like any other absorbed chunk panic
                Err(_) => rec.panics += 1,
            }
        }

        // rungs 2..4 for every lane the chunk could not vouch for
        for k in 0..len {
            if chunk_ok && lane_findings[k].is_empty() {
                continue;
            }
            let row_idx = base + k;
            let findings = std::mem::take(&mut lane_findings[k]);
            rec.detections += findings.len();
            let outcome = self.ladder_row(
                backend,
                rows,
                row_idx,
                &mut chunk_out[k * no..(k + 1) * no],
                s,
                opts,
                findings,
                &mut rec,
            );
            rec.outcomes.push((row_idx, outcome));
        }
        rec
    }

    /// Rungs 2 (isolated row on the primary backend), 3 (oracle) and 4
    /// (quarantine) for one flagged row.
    #[allow(clippy::too_many_arguments)]
    fn ladder_row(
        &self,
        backend: TapeBackend,
        rows: &[f64],
        row_idx: usize,
        out: &mut [f64],
        s: &mut ChunkScratch,
        opts: &RobustOptions,
        mut findings: Vec<(usize, FaultDetected)>,
        rec: &mut ChunkRecord,
    ) -> RowOutcome {
        // rung 2: the row alone, same backend. Only sticky faults re-arm
        // at this stage, so a transiently-hit row recovers here.
        let label = match backend {
            TapeBackend::BitAccurate => "row-bit",
            TapeBackend::Oracle => "row-oracle",
            TapeBackend::Jit => "row-jit",
        };
        let mut retry_findings = Vec::new();
        let retried = catch_unwind(AssertUnwindSafe(|| {
            self.checked_chunk(
                rows,
                row_idx,
                out,
                s,
                opts.fault,
                FaultStage::Fallback,
                std::slice::from_mut(&mut retry_findings),
            );
        }));
        rec.detections += retry_findings.len();
        match retried {
            Ok(()) if retry_findings.is_empty() => return RowOutcome::Recovered { backend: label },
            Ok(()) => findings.append(&mut retry_findings),
            Err(_) => {}
        }

        // rung 3: the oracle stack. Only a sticky ExecPanic fault still
        // arms here — a sticky datapath fault cannot reach it.
        let oracle = catch_unwind(AssertUnwindSafe(|| {
            if let Some(h) = opts
                .fault
                .and_then(|p| p.for_row(row_idx as u64, FaultStage::Oracle))
            {
                if h.wants_panic() {
                    panic!("injected executor panic at row {row_idx} (oracle)");
                }
            }
            self.eval_chunk_oracle(rows, row_idx, 1, out, s);
        }));
        if oracle.is_ok() {
            return RowOutcome::Recovered { backend: "oracle" };
        }

        // rung 4: quarantine — poison the outputs, name the node
        out.fill(f64::NAN);
        let diag = match findings.last() {
            Some((instr_idx, det)) => {
                let span = self
                    .source_node_of(*instr_idx)
                    .map(Span::Node)
                    .unwrap_or(Span::Global);
                Diagnostic::error(
                    Rule::FaultDetected,
                    span,
                    format!(
                        "row {row_idx}: {} ({} check, instruction {instr_idx})",
                        det.message,
                        det.check.name()
                    ),
                )
            }
            None => Diagnostic::error(
                Rule::FaultDetected,
                Span::Global,
                format!("row {row_idx}: executor panicked and the oracle retry also panicked"),
            ),
        };
        RowOutcome::Quarantined { diag }
    }

    /// Rungs 1 and 2: the rows from `base` that `out` and `findings`
    /// cover, through the bit chunk interpreter with the [`Checked`]
    /// hook, every row's faults armed for `stage`. A JIT or oracle row
    /// runs it too: same bits by the bailout contract, and the tamper
    /// points stay armed for the differential. Fault claims match a
    /// row-by-row evaluation exactly: every spec targets one row and each
    /// lane runs the tape in program order, so only an injected panic
    /// needs care — the rows before the first row that wants one run (as
    /// one chunk) and claim their faults, then the chunk panics. With no
    /// plan this computes exactly what the backend's fast path computes,
    /// bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn checked_chunk(
        &self,
        rows: &[f64],
        base: usize,
        out: &mut [f64],
        s: &mut ChunkScratch,
        plan: Option<&FaultPlan>,
        stage: FaultStage,
        findings: &mut [Vec<(usize, FaultDetected)>],
    ) {
        let mut lanes: Vec<Option<RowFaults>> = Vec::with_capacity(findings.len());
        let mut panic_row = None;
        for k in 0..findings.len() {
            let hook = plan.and_then(|p| p.for_row((base + k) as u64, stage));
            if hook.as_ref().is_some_and(|h| h.wants_panic()) {
                panic_row = Some(base + k);
                break;
            }
            lanes.push(hook);
        }
        let strikes = lanes
            .iter()
            .enumerate()
            .filter_map(|(k, h)| {
                let (i, bit) = h.as_ref()?.tape_fault(self.instrs.len())?;
                let (in_cs, dst) = dst_plane(&self.instrs[i])?;
                Some((i, in_cs, dst as usize * CHUNK_ROWS + k, bit))
            })
            .collect();
        let run = lanes.len();
        let mut hook = Checked {
            lanes,
            strikes,
            findings,
        };
        if run > 0 {
            self.eval_chunk_bit(rows, base, run, out, s, &mut hook);
        }
        if let Some(row) = panic_row {
            panic!("injected executor panic at row {row}");
        }
    }
}

/// The robust executor's [`ChunkHook`]: each lane's FMAs run the checked
/// unit entry point with the lane's own fault hook, and the
/// register-plane strikes claimed for the chunk flip their lane's
/// destination bit right after the struck instruction.
struct Checked<'a, 'p> {
    /// Armed faults per lane (`None`: checks only).
    lanes: Vec<Option<RowFaults<'p>>>,
    /// Register-plane strikes as `(instruction, in the CS bank, plane
    /// index, bit)`.
    strikes: Vec<(usize, bool, usize, u32)>,
    /// Detections per lane, tagged with the instruction that raised them.
    findings: &'a mut [Vec<(usize, FaultDetected)>],
}

impl ChunkHook for Checked<'_, '_> {
    const CHECKED: bool = true;

    fn fma(&mut self, i: usize, k: usize, run: impl FnOnce(&mut FmaCtl) -> CsOperand) -> CsOperand {
        let mut dets: Vec<FaultDetected> = Vec::new();
        let mut ctl = match &self.lanes[k] {
            Some(h) => FmaCtl::with_hook(h, &mut dets),
            None => FmaCtl::checked(&mut dets),
        };
        let r = run(&mut ctl);
        self.findings[k].extend(dets.into_iter().map(|d| (i, d)));
        r
    }

    fn after_bit(&mut self, i: usize, f: &mut [f64], cs: &mut [CsOperand]) {
        for &(at, in_cs, p, bit) in &self.strikes {
            if at == i && !in_cs {
                flip_f64(&mut f[p], bit);
            }
            #[cfg(feature = "fault-inject")]
            if at == i && in_cs {
                cs[p].fault_flip_mant_bit(bit as usize);
            }
        }
        #[cfg(not(feature = "fault-inject"))]
        let _ = cs;
    }
}

/// The register plane instruction `ins` writes, as `(in the CS bank,
/// slot)`. `None` for a `Store`: it writes memory the caller owns, not a
/// register plane, so a strike there lands on committed data and is
/// masked.
fn dst_plane(ins: &Instr) -> Option<(bool, u32)> {
    match *ins {
        Instr::Store { .. } => None,
        Instr::Fma { dst, .. } | Instr::IeeeToCs { dst, .. } => Some((true, dst)),
        Instr::LoadInput { dst, .. }
        | Instr::LoadConst { dst, .. }
        | Instr::Add { dst, .. }
        | Instr::Sub { dst, .. }
        | Instr::Mul { dst, .. }
        | Instr::Div { dst, .. }
        | Instr::Neg { dst, .. }
        | Instr::CsToIeee { dst, .. } => Some((false, dst)),
    }
}

fn flip_f64(v: &mut f64, bit: u32) {
    *v = f64::from_bits(v.to_bits() ^ (1u64 << (bit % 64)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::fuse::{fuse_critical_paths, FusionConfig};
    use crate::parse_program;
    use crate::FmaKind;
    use csfma_core::fault::{FaultSite, FaultSpec};

    fn fused_listing1() -> Tape {
        let src = "x1 = a*b + c*d;\nx2 = e*f + g*x1;\nout x3 = h*i + k*x2;\n";
        let g = parse_program(src).unwrap();
        let fused = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused;
        compile(&fused).unwrap()
    }

    fn stimulus(tape: &Tape, n: usize) -> Vec<f64> {
        (0..n * tape.num_inputs())
            .map(|i| ((i * 2654435761) % 1000) as f64 * 0.31 - 155.0)
            .collect()
    }

    #[test]
    fn clean_robust_run_matches_eval_batch_bitwise() {
        let tape = fused_listing1();
        let n = 2 * CHUNK_ROWS + 11;
        let rows = stimulus(&tape, n);
        let want = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
        let (got, report) = tape.eval_batch_robust(
            TapeBackend::BitAccurate,
            &rows,
            &RobustOptions {
                threads: 2,
                chunk_retries: 2,
                fault: None,
            },
        );
        assert!(
            want.iter()
                .zip(got.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "robust run diverged from eval_batch"
        );
        assert!(!report.has_faults(), "{report}");
        assert_eq!(report.counts(), (n, 0, 0));
    }

    #[test]
    fn transient_mantissa_fault_recovers_bit_identically() {
        let tape = fused_listing1();
        let n = CHUNK_ROWS + 5;
        let rows = stimulus(&tape, n);
        let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
        for site in FaultSite::MANTISSA {
            let plan = FaultPlan::single(0xC0FFEE, site, 7);
            let (got, report) = tape.eval_batch_robust(
                TapeBackend::BitAccurate,
                &rows,
                &RobustOptions::with_fault(&plan),
            );
            assert!(
                clean
                    .iter()
                    .zip(got.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{site:?}: recovered output not bit-identical"
            );
            assert!(report.detections >= 1, "{site:?}: no detection");
            assert_eq!(
                report.outcomes[7],
                RowOutcome::Recovered { backend: "row-bit" },
                "{site:?}"
            );
            // neighbors untouched
            assert_eq!(report.outcomes[6], RowOutcome::Ok, "{site:?}");
            assert_eq!(report.outcomes[8], RowOutcome::Ok, "{site:?}");
        }
    }

    #[test]
    fn sticky_datapath_fault_falls_back_to_oracle() {
        let tape = fused_listing1();
        let n = CHUNK_ROWS;
        let rows = stimulus(&tape, n);
        let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
        let plan = FaultPlan::new(7).with_fault(FaultSpec::stuck(FaultSite::MulSum, 3));
        let (got, report) = tape.eval_batch_robust(
            TapeBackend::BitAccurate,
            &rows,
            &RobustOptions::with_fault(&plan),
        );
        assert_eq!(
            report.outcomes[3],
            RowOutcome::Recovered { backend: "oracle" }
        );
        assert!(
            clean
                .iter()
                .zip(got.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "oracle recovery must be bit-identical"
        );
        // detected on the primary rung and again on the row rung
        assert!(report.detections >= 2, "{report}");
    }

    #[test]
    fn sticky_panic_quarantines_one_row_and_names_a_node() {
        let tape = fused_listing1();
        let n = CHUNK_ROWS + 3;
        let rows = stimulus(&tape, n);
        let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
        let plan = FaultPlan::new(11).with_fault(FaultSpec::stuck(FaultSite::ExecPanic, 5));
        let (got, report) = tape.eval_batch_robust(
            TapeBackend::BitAccurate,
            &rows,
            &RobustOptions::with_fault(&plan),
        );
        assert!(matches!(report.outcomes[5], RowOutcome::Quarantined { .. }));
        assert!(got[5].is_nan(), "quarantined row must be poisoned");
        assert!(report.chunk_panics >= 1);
        // every other row in the batch still carries the clean value
        for r in 0..n {
            if r == 5 {
                continue;
            }
            assert_eq!(
                got[r].to_bits(),
                clean[r].to_bits(),
                "row {r} corrupted by a neighbor's quarantine"
            );
        }
        if let RowOutcome::Quarantined { diag } = &report.outcomes[5] {
            assert_eq!(diag.rule, Rule::FaultDetected);
        }
    }

    #[test]
    fn transient_panic_recovers_via_chunk_retry() {
        let tape = fused_listing1();
        let n = CHUNK_ROWS;
        let rows = stimulus(&tape, n);
        let clean = tape.eval_batch(TapeBackend::BitAccurate, &rows, 1);
        let plan = FaultPlan::single(99, FaultSite::ExecPanic, 9);
        let (got, report) = tape.eval_batch_robust(
            TapeBackend::BitAccurate,
            &rows,
            &RobustOptions::with_fault(&plan),
        );
        assert!(report.chunk_panics >= 1, "{report}");
        assert!(report.chunk_retries >= 1, "{report}");
        assert!(
            clean
                .iter()
                .zip(got.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "retried chunk must be bit-identical"
        );
    }

    #[test]
    fn report_is_thread_invariant() {
        let tape = fused_listing1();
        let n = 3 * CHUNK_ROWS + 17;
        let rows = stimulus(&tape, n);
        let plan = FaultPlan::new(0xDEAD)
            .with_fault(FaultSpec::transient(FaultSite::MulCarry, 2))
            .with_fault(FaultSpec::stuck(FaultSite::PcsCarry, 70))
            .with_fault(FaultSpec::stuck(FaultSite::ExecPanic, 140));
        let run = |threads: usize| {
            plan.reset();
            tape.eval_batch_robust(
                TapeBackend::BitAccurate,
                &rows,
                &RobustOptions {
                    threads,
                    chunk_retries: 2,
                    fault: Some(&plan),
                },
            )
        };
        let (out1, rep1) = run(1);
        for threads in [4, 8] {
            let (out, rep) = run(threads);
            assert!(
                out1.iter()
                    .zip(out.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "outputs diverged at {threads} threads"
            );
            assert_eq!(
                rep1.outcomes, rep.outcomes,
                "outcomes diverged at {threads}"
            );
            assert_eq!(rep1.detections, rep.detections);
        }
    }
}
