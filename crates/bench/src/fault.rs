//! Fault-injection campaign: sweep every [`FaultSite`] over a batch,
//! one single-bit transient fault per row, and audit what the robust
//! executor did about each strike (DESIGN.md §10).
//!
//! For each site the campaign runs the fused `listing1-pcs` datapath
//! through [`Tape::eval_batch_robust`] with a seeded [`FaultPlan`]
//! striking every row, then classifies each struck row against a clean
//! [`Tape::eval_batch`] reference:
//!
//! * **recovered** — a checker (or panic) flagged the row and the
//!   fallback ladder reproduced the clean bits;
//! * **quarantined** — every rung failed; the row is NaN-poisoned and
//!   carries a structured diagnostic (cannot happen with transient
//!   faults, but the classifier does not assume that);
//! * **benign** — the fault fired but the output still matches the
//!   clean bits and no checker fired (architecturally masked);
//! * **silent** — the output differs from the clean reference and the
//!   row was not quarantined. This is the failure mode the whole
//!   self-checking apparatus exists to prevent: the campaign **gate**
//!   requires zero of these on every checker-covered site, plus a
//!   ≥ 90% detection rate there.
//!
//! [`FaultSite::TapeReg`] is swept too but reported with
//! `checked: false`: a register-plane upset between operations is
//! invisible to datapath checks (it corrupts a value, not a
//! computation). The plane shadow catches it on full 64-row chunks,
//! but nothing does on a partial chunk, so the campaign reports its
//! silent rate instead of gating on it (DESIGN.md §10.4).
//!
//! Every site is additionally re-run at 4 worker threads (after
//! [`FaultPlan::reset`]) and the outputs and outcomes compared — the
//! robustness machinery must not cost the engine its determinism.

use csfma_core::fault::{FaultPlan, FaultSite, FaultSpec};
use csfma_hls::{
    compile, fuse_critical_paths, parse_program, FmaKind, FusionConfig, Profiler, RobustOptions,
    RowOutcome, Tape, TapeBackend,
};

/// What one site's sweep did, row by row.
#[derive(Clone, Debug)]
pub struct SiteReport {
    /// The swept site.
    pub site: FaultSite,
    /// Rows struck by the plan (one transient single-bit fault each).
    pub rows_struck: usize,
    /// Specs that actually fired (a transient claims exactly once; a
    /// spec whose row never reaches the tamper point stays unclaimed).
    pub fired: usize,
    /// Fired rows the executor flagged and recovered bit-identically.
    pub recovered: usize,
    /// Fired rows that ended NaN-poisoned with a diagnostic.
    pub quarantined: usize,
    /// Fired rows whose output matched the clean reference with no
    /// checker involvement (masked strikes).
    pub benign: usize,
    /// Fired rows whose output silently differs from the clean
    /// reference — must be zero on every `checked` site.
    pub silent: usize,
    /// Individual checker findings across all rungs.
    pub checker_findings: usize,
    /// Chunk-level panics the executor absorbed.
    pub chunk_panics: usize,
    /// Whether the self-checkers claim coverage of this site (the gate
    /// only applies to covered sites).
    pub checked: bool,
    /// Outputs and outcomes were identical at 1 and 4 worker threads.
    pub thread_invariant: bool,
    /// Single-threaded robust-executor wall time per row, microseconds —
    /// read from the engine's `eval_robust` observability span, the same
    /// instrumentation `csfma-run --profile` consumes.
    pub eval_us_per_row: f64,
}

impl SiteReport {
    /// Flagged (recovered or quarantined) fraction of the fired strikes.
    pub fn detection_rate(&self) -> f64 {
        if self.fired == 0 {
            return 1.0;
        }
        (self.recovered + self.quarantined) as f64 / self.fired as f64
    }

    /// The per-site gate: covered sites must detect ≥ 90% of strikes
    /// and corrupt nothing silently; uncovered sites are report-only.
    pub fn passes(&self) -> bool {
        !self.checked || (self.silent == 0 && self.detection_rate() >= 0.9)
    }
}

/// A full campaign: every site swept over the same batch.
#[derive(Clone, Debug)]
pub struct FaultCampaign {
    /// Rows per sweep.
    pub rows: usize,
    /// Plan seed (bit positions derive from `(seed, site, row)`).
    pub seed: u64,
    /// Benchmark datapath label.
    pub graph: &'static str,
    /// One report per site, in [`FaultSite::ALL`] order.
    pub sites: Vec<SiteReport>,
}

impl FaultCampaign {
    /// The campaign gate (see [`SiteReport::passes`]), plus thread
    /// invariance everywhere.
    pub fn passes(&self) -> bool {
        self.sites.iter().all(|s| s.passes() && s.thread_invariant)
    }

    /// Silent corruptions on checker-covered sites (the headline gate).
    pub fn silent_on_checked(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.checked)
            .map(|s| s.silent)
            .sum()
    }
}

/// The campaign datapath: Listing 1 fused with PCS FMAs — three chained
/// checked FMA units per row, every mantissa-path site exercised thrice.
fn campaign_tape() -> Tape {
    let g = parse_program("x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;")
        .expect("listing1 parses");
    let fused = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused;
    compile(&fused).expect("campaign graph is checker-clean")
}

/// Deterministic stimulus (no RNG dependency needed for the sweep).
fn stimulus(tape: &Tape, rows: usize, seed: u64) -> Vec<f64> {
    (0..rows * tape.num_inputs())
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed);
            ((h >> 11) % 200_000) as f64 * 0.01 - 1000.0
        })
        .collect()
}

/// Run the full sweep: `rows` rows per site, faults seeded from `seed`.
pub fn run_campaign(rows: usize, seed: u64) -> FaultCampaign {
    let tape = campaign_tape();
    let stim = stimulus(&tape, rows, seed);
    let clean = tape.eval_batch(TapeBackend::BitAccurate, &stim, 1);
    let no = tape.num_outputs();

    let mut sites = Vec::new();
    for site in FaultSite::ALL {
        let mut plan = FaultPlan::new(seed);
        for row in 0..rows as u64 {
            plan = plan.with_fault(FaultSpec::transient(site, row));
        }
        let run = |threads: usize| {
            plan.reset();
            let mut prof = Profiler::new();
            let (out, report) = tape.eval_batch_robust_profiled(
                TapeBackend::BitAccurate,
                &stim,
                &RobustOptions {
                    threads,
                    chunk_retries: 2,
                    fault: Some(&plan),
                },
                &mut prof,
            );
            let eval_us = prof
                .finish()
                .stage("eval_robust")
                .expect("a recording profiler records the eval_robust span")
                .wall_us;
            (out, report, eval_us)
        };
        let (out, report, eval_us) = run(1);
        let fired_rows: Vec<bool> = (0..rows).map(|r| plan.fired(r) > 0).collect();
        let (out4, report4, _) = run(4);
        let thread_invariant = out
            .iter()
            .zip(out4.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits())
            && report.outcomes == report4.outcomes;

        let mut s = SiteReport {
            site,
            rows_struck: rows,
            fired: fired_rows.iter().filter(|&&f| f).count(),
            recovered: 0,
            quarantined: 0,
            benign: 0,
            silent: 0,
            checker_findings: report.detections,
            chunk_panics: report.chunk_panics,
            checked: site != FaultSite::TapeReg,
            thread_invariant,
            eval_us_per_row: eval_us / rows as f64,
        };
        for r in 0..rows {
            if !fired_rows[r] {
                continue;
            }
            let equal = (0..no).all(|k| out[r * no + k].to_bits() == clean[r * no + k].to_bits());
            match &report.outcomes[r] {
                RowOutcome::Quarantined { .. } => s.quarantined += 1,
                RowOutcome::Recovered { .. } if equal => s.recovered += 1,
                RowOutcome::Ok if equal => s.benign += 1,
                // recovered-but-wrong counts as silent too: the ladder
                // vouched for bits that do not match the clean run
                _ => s.silent += 1,
            }
        }
        sites.push(s);
    }
    FaultCampaign {
        rows,
        seed,
        graph: "listing1-pcs",
        sites,
    }
}

/// Render the campaign as the `BENCH_faults.json` document (hand-rolled;
/// the workspace has no JSON dependency).
pub fn to_json(c: &FaultCampaign) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"faults\",");
    let _ = writeln!(s, "  \"graph\": \"{}\",", c.graph);
    let _ = writeln!(s, "  \"rows\": {},", c.rows);
    let _ = writeln!(s, "  \"seed\": {},", c.seed);
    let _ = writeln!(s, "  \"fault_model\": \"single-bit transient per row\",");
    let _ = writeln!(s, "  \"sites\": [");
    for (i, r) in c.sites.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"site\": \"{}\",", r.site.name());
        let _ = writeln!(s, "      \"checked\": {},", r.checked);
        let _ = writeln!(s, "      \"rows_struck\": {},", r.rows_struck);
        let _ = writeln!(s, "      \"fired\": {},", r.fired);
        let _ = writeln!(s, "      \"recovered\": {},", r.recovered);
        let _ = writeln!(s, "      \"quarantined\": {},", r.quarantined);
        let _ = writeln!(s, "      \"benign\": {},", r.benign);
        let _ = writeln!(s, "      \"silent\": {},", r.silent);
        let _ = writeln!(s, "      \"detection_rate\": {:.4},", r.detection_rate());
        let _ = writeln!(s, "      \"checker_findings\": {},", r.checker_findings);
        let _ = writeln!(s, "      \"chunk_panics\": {},", r.chunk_panics);
        let _ = writeln!(s, "      \"eval_us_per_row\": {:.4},", r.eval_us_per_row);
        let _ = writeln!(s, "      \"thread_invariant\": {}", r.thread_invariant);
        let _ = writeln!(s, "    }}{}", if i + 1 < c.sites.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(
        s,
        "  \"note\": \"tape-reg is outside the datapath checkers: the plane \
         shadow catches its strikes on full 64-row chunks, nothing does on a \
         partial chunk; it is swept and reported but not gated\","
    );
    let _ = writeln!(s, "  \"silent_on_checked\": {},", c.silent_on_checked());
    let _ = writeln!(s, "  \"pass\": {}", c.passes());
    let _ = write!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_passes_and_serializes() {
        let c = run_campaign(96, 7);
        assert_eq!(c.sites.len(), FaultSite::ALL.len());
        assert!(c.passes(), "{c:?}");
        assert_eq!(c.silent_on_checked(), 0);
        for s in &c.sites {
            assert!(s.thread_invariant, "{:?}", s.site);
            // the mantissa-path checkers are exact on single-bit flips
            if FaultSite::MANTISSA.contains(&s.site) {
                assert!(s.detection_rate() >= 0.9, "{:?}: {s:?}", s.site);
            }
        }
        let json = to_json(&c);
        assert!(json.contains("\"pass\": true"), "{json}");
        assert!(json.contains("\"site\": \"mul-sum\""));
        assert!(json.contains("\"site\": \"tape-reg\""));
    }
}
