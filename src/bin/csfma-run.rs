//! `csfma-run` — compile a textual datapath to an instruction tape and
//! execute it over a batch of input vectors.
//!
//! The front half mirrors `csfma-lint` (parse, optionally fuse); the
//! back half is the batch execution engine: `csfma_hls::compile_cached`
//! lowers the graph once, then `Tape::eval_batch` streams pseudo-random
//! input rows through the chosen backend with deterministic chunked
//! parallelism. Because generation is seeded and the engine is
//! thread-invariant, the printed output digest is reproducible down to
//! the bit on any machine with the same backend.
//!
//! ```text
//! usage: csfma-run [options] [FILE]
//!
//!   FILE           program file; '-' or none reads stdin
//!   --backend B    bit | oracle | jit   evaluator semantics
//!                  (default: bit); `jit` runs native code on the IEEE
//!                  fast path and bails per-row to the bit-accurate
//!                  interpreter, so its digests match `bit` exactly
//!   --fuse KIND    pcs | fcs        run the Fig. 12 fusion pass first
//!   --batch N      evaluate N random input rows (default: 1)
//!   --threads T    worker threads for the batch (default: 1)
//!   --seed S       stimulus RNG seed (default: 42)
//!   --range LO HI  uniform stimulus range (default: -1000 1000)
//!   --fault-seed N run the robust self-checking executor with a seeded
//!                  demo fault campaign (see DESIGN.md §10)
//!   --no-opt       compile without the post-gate tape optimizer
//!   --verify-tape  run the T* tape translation validator on the compiled
//!                  tape and refuse to execute a tape that fails it
//!   --promote-ranges  promote IEEE instructions whose `in x [lo, hi];`
//!                  bounds prove the soft-float guard can never fire to
//!                  the raw host fast path (bit-identical by construction;
//!                  stimulus always respects declared bounds)
//!   --profile[=json] append a stage/counter breakdown of the run
//!                  (parse → gate → optimize → lower → codegen → eval,
//!                  tape-cache, jit and fault counters); `=json` emits
//!                  the machine-readable PipelineReport document
//!                  instead of text
//!   --dump-jit     print the native code listing the JIT emitted for
//!                  this tape (or why no module could be built); see
//!                  docs/JIT.md for how to read it
//!   --verbose      print the compiled tape before running
//! ```
//!
//! Exit status: 0 on success, 1 when compilation is refused by the
//! static checker, 2 on usage/IO/parse errors, 3 when the robust
//! executor observed faults during execution (detections, panics, or
//! quarantined rows — the `BatchReport` summary goes to stderr).

use std::io::Read as _;
use std::process::ExitCode;

use csfma_core::fault::{FaultPlan, FaultSite, FaultSpec};
use csfma_hls::{
    compile_cached_with, fuse_critical_paths, lint_ranges, parse_program_with_ranges,
    promotion_mask, verify_tape, CompileOptions, FmaKind, FusionConfig, Instr, PipelineReport,
    Profiler, RobustOptions, RowOutcome, Tape, TapeBackend,
};
use csfma_verify::{has_errors, render_report, Diagnostic, RangeDecl, Rule, Span};
use rand::{rngs::StdRng, Rng, SeedableRng};

#[derive(Clone, Copy, PartialEq, Eq)]
enum ProfileFormat {
    Text,
    Json,
}

struct Options {
    file: Option<String>,
    backend: TapeBackend,
    fuse: Option<FmaKind>,
    batch: usize,
    threads: usize,
    seed: u64,
    lo: f64,
    hi: f64,
    optimize: bool,
    verbose: bool,
    fault_seed: Option<u64>,
    profile: Option<ProfileFormat>,
    verify: bool,
    promote: bool,
    dump_jit: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: csfma-run [--backend bit|oracle|jit] [--fuse pcs|fcs] [--batch N] \
         [--threads T] [--seed S] [--range LO HI] [--fault-seed N] [--no-opt] \
         [--verify-tape] [--promote-ranges] [--profile[=json]] [--dump-jit] \
         [--verbose] [FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        file: None,
        backend: TapeBackend::BitAccurate,
        fuse: None,
        batch: 1,
        threads: 1,
        seed: 42,
        lo: -1000.0,
        hi: 1000.0,
        optimize: true,
        verbose: false,
        fault_seed: None,
        profile: None,
        verify: false,
        promote: false,
        dump_jit: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> f64 {
            match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => n,
                None => usage(),
            }
        };
        match arg.as_str() {
            "--backend" => {
                opts.backend = match args.next().as_deref() {
                    Some("bit") => TapeBackend::BitAccurate,
                    Some("oracle") => TapeBackend::Oracle,
                    Some("jit") => TapeBackend::Jit,
                    _ => usage(),
                }
            }
            "--fuse" => {
                opts.fuse = match args.next().as_deref() {
                    Some("pcs") => Some(FmaKind::Pcs),
                    Some("fcs") => Some(FmaKind::Fcs),
                    _ => usage(),
                }
            }
            "--batch" => opts.batch = num(&mut args) as usize,
            "--threads" => opts.threads = (num(&mut args) as usize).max(1),
            "--seed" => opts.seed = num(&mut args) as u64,
            "--range" => {
                opts.lo = num(&mut args);
                opts.hi = num(&mut args);
                if opts.lo >= opts.hi || opts.lo.is_nan() || opts.hi.is_nan() {
                    usage();
                }
            }
            "--fault-seed" => opts.fault_seed = Some(num(&mut args) as u64),
            "--no-opt" => opts.optimize = false,
            "--verify-tape" => opts.verify = true,
            "--promote-ranges" => opts.promote = true,
            "--dump-jit" => opts.dump_jit = true,
            "--profile" => opts.profile = Some(ProfileFormat::Text),
            "--profile=json" => opts.profile = Some(ProfileFormat::Json),
            "--verbose" => opts.verbose = true,
            "--help" | "-h" => usage(),
            _ if arg.starts_with("--") => usage(),
            _ if opts.file.is_none() => opts.file = Some(arg),
            _ => usage(),
        }
    }
    if opts.batch == 0 {
        usage();
    }
    opts
}

/// FNV-1a over the output bit patterns — the reproducibility receipt.
fn digest(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn describe(tape: &Tape) {
    println!(
        "compiled: {} instrs over {} source nodes | {} inputs -> {} outputs | \
         regs: {} f64 + {} cs | fingerprint {:#018x}",
        tape.instrs().len(),
        tape.source_nodes(),
        tape.num_inputs(),
        tape.num_outputs(),
        tape.num_f64_regs(),
        tape.num_cs_regs(),
        tape.fingerprint(),
    );
    let o = tape.opt_stats();
    if o.consts_folded + o.cse_merged + o.dead_removed + o.dead_slots_removed > 0 {
        println!(
            "optimized: {} -> {} nodes | folded {} | cse {} | dead {} | dead slots {} | {:.1} us",
            o.nodes_before,
            o.nodes_after,
            o.consts_folded,
            o.cse_merged,
            o.dead_removed,
            o.dead_slots_removed,
            o.optimize_us,
        );
    }
}

fn dump(tape: &Tape) {
    for (i, ins) in tape.instrs().iter().enumerate() {
        let text = match ins {
            Instr::LoadInput { dst, input } => {
                format!("r{dst} = input {:?}", tape.input_names()[*input as usize])
            }
            Instr::LoadConst { dst, idx } => format!("r{dst} = const #{idx}"),
            Instr::Add { dst, a, b } => format!("r{dst} = r{a} + r{b}"),
            Instr::Sub { dst, a, b } => format!("r{dst} = r{a} - r{b}"),
            Instr::Mul { dst, a, b } => format!("r{dst} = r{a} * r{b}"),
            Instr::Div { dst, a, b } => format!("r{dst} = r{a} / r{b}"),
            Instr::Neg { dst, a } => format!("r{dst} = -r{a}"),
            Instr::Fma {
                kind,
                negate_b,
                dst,
                acc,
                b,
                mulc,
            } => {
                let sign = if *negate_b { "-" } else { "" };
                format!("c{dst} = {kind:?}-fma(c{acc}, {sign}r{b}, c{mulc})")
            }
            Instr::IeeeToCs { kind, dst, src } => format!("c{dst} = to_{kind:?}(r{src})"),
            Instr::CsToIeee { dst, src } => format!("r{dst} = to_ieee(c{src})"),
            Instr::Store { output, src } => {
                format!("out {:?} = r{src}", tape.output_names()[*output as usize])
            }
        };
        println!("  [{i:3}] {text}");
    }
}

/// When `--profile` was given, emit the finished report: the JSON
/// document or the indented text tree on stdout, plus `O002`
/// unbalanced-span diagnostics on stderr. A run without `--profile`
/// prints nothing.
fn emit_profile(report: PipelineReport, format: Option<ProfileFormat>) {
    let Some(format) = format else { return };
    for w in &report.warnings {
        eprintln!(
            "csfma-run: {}",
            Diagnostic::warning(Rule::ObsSpanImbalance, Span::Global, w.clone())
        );
    }
    match format {
        ProfileFormat::Json => println!("{}", report.to_json()),
        ProfileFormat::Text => print!("{report}"),
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    // recording even without --profile: the J001 advisory reads this
    // run's own JIT counters from the report
    let mut prof = Profiler::new();

    let src = match &opts.file {
        Some(f) if f != "-" => match std::fs::read_to_string(f) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("csfma-run: {f}: {e}");
                return ExitCode::from(2);
            }
        },
        _ => {
            let mut buf = String::new();
            if std::io::stdin().read_to_string(&mut buf).is_err() {
                eprintln!("csfma-run: cannot read stdin");
                return ExitCode::from(2);
            }
            buf
        }
    };

    let parse_tok = prof.enter("parse");
    let (g, decls) = match parse_program_with_ranges(&src) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("csfma-run: {e}");
            return ExitCode::from(2);
        }
    };
    let g = match opts.fuse {
        Some(kind) => fuse_critical_paths(&g, &FusionConfig::new(kind)).fused,
        None => g,
    };
    prof.exit(parse_tok);

    let tape = match compile_cached_with(
        &g,
        CompileOptions {
            optimize: opts.optimize,
            ..CompileOptions::default()
        },
        &mut prof,
    ) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("csfma-run: {e}");
            return ExitCode::FAILURE;
        }
    };

    if opts.verify {
        let diags = verify_tape(&tape, &g);
        if has_errors(&diags) {
            eprint!(
                "csfma-run: tape translation check failed\n{}",
                render_report(&diags)
            );
            return ExitCode::FAILURE;
        }
        println!(
            "tape verified: {} instruction(s), T* rules clean",
            tape.instrs().len()
        );
    }

    let tape = if opts.promote {
        // the promotion proof's hypothesis is the declared bounds; the
        // stimulus generator below respects them, so bit-identity to
        // the guarded backend is guaranteed by the R* analysis
        let report = lint_ranges(&g, &decls);
        let mask = promotion_mask(&tape, &report);
        let mut promoted = (*tape).clone();
        promoted.set_promoted(mask);
        println!(
            "promoted: {} of {} instruction(s) to the host fast path",
            promoted.promoted_count(),
            promoted.instrs().len()
        );
        std::sync::Arc::new(promoted)
    } else {
        tape
    };
    describe(&tape);
    if opts.verbose {
        dump(&tape);
    }
    if opts.dump_jit {
        match tape.jit_module() {
            Some(m) => {
                println!(
                    "jit module: bit semantics | {} native instr(s) | {} guard(s) | {} code byte(s)",
                    m.native_instr_count(),
                    m.guard_count(),
                    m.code_len(),
                );
                print!("{}", csfma_hls::jit_listing(&tape).unwrap_or_default());
            }
            None if !csfma_hls::jit_available() => {
                println!(
                    "jit module: none (the JIT needs x86-64 unix with AVX, \
                     or CSFMA_JIT disabled it)"
                );
            }
            None => match csfma_hls::jit_refusal(&tape) {
                Some(r) => println!("jit module: none ({r})"),
                None => println!("jit module: none (emitter refused this tape)"),
            },
        }
    }
    if tape.num_inputs() == 0 {
        // constant graph: a single row is the whole story
        let mut out = vec![0.0; tape.num_outputs()];
        tape.eval_row(opts.backend, &[], &mut out);
        for (name, v) in tape.output_names().iter().zip(&out) {
            println!("{name} = {v:?}");
        }
        emit_profile(prof.finish(), opts.profile);
        return ExitCode::SUCCESS;
    }

    let ni = tape.num_inputs();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    // declared `in x [lo, hi];` bounds override the global --range for
    // their input: stimulus must inhabit the hypothesis every
    // range-derived fact (and fast-path promotion) was proved under
    let spans: Vec<Option<(f64, f64)>> = tape
        .input_names()
        .iter()
        .map(|n| {
            decls
                .iter()
                .find(|d: &&RangeDecl| &d.name == n && d.lo <= d.hi)
                .map(|d| (d.lo, d.hi))
        })
        .collect();
    let rows: Vec<f64> = (0..opts.batch * ni)
        .map(|i| match spans[i % ni] {
            Some((lo, hi)) => rng.gen_range(lo..=hi),
            None => rng.gen_range(opts.lo..opts.hi),
        })
        .collect();

    // fault counters default to zero so every profile carries them; a
    // robust run below overwrites with the real tallies
    for c in [
        "fault_detections",
        "fault_chunk_panics",
        "fault_chunk_retries",
        "fault_rows_recovered",
        "fault_rows_quarantined",
    ] {
        prof.set_counter(c, 0.0);
    }

    let t0 = std::time::Instant::now();
    let (out, faulted) = match opts.fault_seed {
        None => (
            tape.eval_batch_profiled(opts.backend, &rows, opts.threads, &mut prof),
            false,
        ),
        Some(fseed) => {
            let plan = demo_fault_plan(fseed, opts.batch as u64);
            // injected ExecPanic faults are caught and recovered by the
            // robust executor; keep their backtraces off the terminal
            let default_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let (out, report) = tape.eval_batch_robust_profiled(
                opts.backend,
                &rows,
                &RobustOptions {
                    threads: opts.threads,
                    chunk_retries: 2,
                    fault: Some(&plan),
                },
                &mut prof,
            );
            std::panic::set_hook(default_hook);
            eprintln!(
                "fault campaign: seed {fseed}, {} fault(s) armed, {} strike(s)",
                plan.specs().len(),
                plan.total_fired(),
            );
            eprintln!("batch report: {report}");
            for (row, diag) in report.quarantined() {
                eprintln!("quarantined row {row}: {diag}");
            }
            let recovered = report
                .outcomes
                .iter()
                .filter(|o| matches!(o, RowOutcome::Recovered { .. }))
                .count();
            if recovered > 0 {
                eprintln!("{recovered} row(s) recovered bit-identically via the fallback ladder");
            }
            let faulted = report.has_faults();
            (out, faulted)
        }
    };
    let dt = t0.elapsed();
    let report = prof.finish();

    // advisory only — the bailed rows were interpreted bit-exactly, the
    // run just did not get the native speedup it asked for
    if opts.backend == TapeBackend::Jit {
        let jit_rows = report.counter("jit_rows").unwrap_or(0.0) as u64;
        let jit_bails = report.counter("jit_bailouts").unwrap_or(0.0) as u64;
        if jit_rows > 0 && jit_bails * 2 > jit_rows {
            eprintln!(
                "csfma-run: {}",
                Diagnostic::warning(
                    Rule::JitBailoutRate,
                    Span::Global,
                    format!(
                        "{jit_bails} of {jit_rows} row(s) bailed from the JIT to the \
                         interpreter (> the 50% advisory threshold); see docs/JIT.md"
                    ),
                )
            );
        }
    }

    // show the first row symbolically, then the digest of everything
    for (name, v) in tape.output_names().iter().zip(&out) {
        println!("row 0: {name} = {v:?}");
    }
    let per_row = dt.as_secs_f64() / opts.batch as f64;
    println!(
        "batch: {} rows | backend {:?} | {} thread(s) | {:.3} ms total, {:.3} us/row | digest {:#018x}",
        opts.batch,
        opts.backend,
        opts.threads,
        dt.as_secs_f64() * 1e3,
        per_row * 1e6,
        digest(&out),
    );
    emit_profile(report, opts.profile);
    if faulted {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// The `--fault-seed` demo campaign: one single-bit transient fault about
/// every 13th row, cycling through the mantissa-datapath sites plus the
/// exponent path and an executor panic — enough to exercise every rung
/// of the degradation ladder on a modest batch.
fn demo_fault_plan(seed: u64, rows: u64) -> FaultPlan {
    const SITES: [FaultSite; 6] = [
        FaultSite::MulSum,
        FaultSite::MulCarry,
        FaultSite::PcsCarry,
        FaultSite::BlockSelect,
        FaultSite::ExpField,
        FaultSite::ExecPanic,
    ];
    let mut plan = FaultPlan::new(seed);
    let mut row = seed % 13;
    let mut k = seed as usize;
    while row < rows {
        plan = plan.with_fault(FaultSpec::transient(SITES[k % SITES.len()], row));
        k += 1;
        row += 13;
    }
    plan
}
