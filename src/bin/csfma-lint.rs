//! `csfma-lint` — static checker CLI for textual datapaths.
//!
//! Parses straight-line datapath programs (the `csfma-hls` expression
//! language), runs the `csfma-verify` passes, and renders a diagnostic
//! report.
//!
//! ```text
//! usage: csfma-lint [options] [FILE...]
//!
//!   FILE             program file(s) to lint; '-' or none reads stdin
//!   --fuse KIND      run the Fig. 12 fusion pass (pcs|fcs) and lint the result
//!   --mul N          declare N multiplier units (N >= 1) for the hazard check
//!   --add N          declare N adder units
//!   --div N          declare N divider units
//!   --fma N          declare N carry-save FMA units
//!   --formats        also lint the standard carry-save FMA formats
//!   --tape           compile (optimizer on and off) and run the T* tape
//!                    translation validator on the result
//!   --jit            with --tape: also run the J* native-codegen lint
//!                    (J001 warns when a `--backend jit` run of this tape
//!                    would bail >50% of rows to the interpreter)
//!   --ranges         run the R* value-range analysis over `in x [lo, hi];`
//!                    bounds and print the datapath-specific shift-bound proof
//!   --json           emit one RFC 8259 JSON array of all findings instead of
//!                    the human-readable report
//!   --deny-warnings  exit 1 on any finding, warnings included
//! ```
//!
//! Exit status contract (stable, for CI): **0** — no findings (with
//! `--deny-warnings`: not even warnings); **1** — at least one
//! error-severity finding (with `--deny-warnings`: any finding);
//! **2** — usage, I/O or argument errors.

use std::io::Read as _;
use std::process::ExitCode;

use csfma_hls::{
    asap_schedule, compile_with, fuse_critical_paths, interp::format_of, lint_ranges,
    list_schedule, parse_program_with_ranges, verify_tape, CompileOptions, FmaKind, FusionConfig,
    OpTiming, Profiler, ResourceLimits,
};
use csfma_verify::{
    check_standard_formats, has_errors, render_json, render_report, window_plan, Diagnostic,
};

struct Options {
    files: Vec<String>,
    fuse: Option<FmaKind>,
    limits: ResourceLimits,
    formats: bool,
    tape: bool,
    jit: bool,
    ranges: bool,
    json: bool,
    deny_warnings: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: csfma-lint [--fuse pcs|fcs] [--mul N] [--add N] [--div N] \
         [--fma N] [--formats] [--tape] [--jit] [--ranges] [--json] \
         [--deny-warnings] [FILE...]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        files: Vec::new(),
        fuse: None,
        limits: ResourceLimits::default(),
        formats: false,
        tape: false,
        jit: false,
        ranges: false,
        json: false,
        deny_warnings: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let count_for = |slot: &mut Option<usize>, args: &mut dyn Iterator<Item = String>| {
            // 0 units of a demanded resource makes every schedule
            // infeasible — reject it here instead of diverging later
            match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => *slot = Some(n),
                _ => {
                    eprintln!("csfma-lint: resource counts must be >= 1");
                    usage()
                }
            }
        };
        match arg.as_str() {
            "--fuse" => {
                opts.fuse = match args.next().as_deref() {
                    Some("pcs") => Some(FmaKind::Pcs),
                    Some("fcs") => Some(FmaKind::Fcs),
                    _ => usage(),
                }
            }
            "--mul" => count_for(&mut opts.limits.mul, &mut args),
            "--add" => count_for(&mut opts.limits.add, &mut args),
            "--div" => count_for(&mut opts.limits.div, &mut args),
            "--fma" => count_for(&mut opts.limits.fma, &mut args),
            "--formats" => opts.formats = true,
            "--tape" => opts.tape = true,
            "--jit" => opts.jit = true,
            "--ranges" => opts.ranges = true,
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--help" | "-h" => usage(),
            _ if arg.starts_with("--") => usage(),
            _ => opts.files.push(arg),
        }
    }
    opts
}

/// Lint one source: parse, optionally fuse, run the dataflow and
/// schedule passes, then (on request) the tape translation validator
/// and the value-range analysis. Returns all findings plus the
/// human-readable range-proof summary line, if one was computed.
fn lint_source(src: &str, opts: &Options) -> (Vec<Diagnostic>, Option<String>) {
    let t = OpTiming::default();
    let (g, decls) = match parse_program_with_ranges(src) {
        Ok(pair) => pair,
        Err(e) => return (vec![e.to_diagnostic()], None),
    };
    let g = match opts.fuse {
        Some(kind) => fuse_critical_paths(&g, &FusionConfig::new(kind)).fused,
        None => g,
    };
    let mut diags = csfma_hls::lint_dataflow(&g, &t);
    let limited = [
        opts.limits.mul,
        opts.limits.add,
        opts.limits.div,
        opts.limits.fma,
    ]
    .iter()
    .any(Option::is_some);
    // under declared resource limits, lint the list schedule those limits
    // produce; otherwise lint the unconstrained dataflow schedule
    let s = if limited {
        list_schedule(&g, &t, &opts.limits)
    } else {
        asap_schedule(&g, &t)
    };
    diags.extend(csfma_hls::lint_schedule(&g, &t, &s, &opts.limits));

    if opts.tape && !has_errors(&diags) {
        // both optimizer settings: an optimizer bug must not hide
        // behind the default, and vice versa
        for optimize in [false, true] {
            let c = CompileOptions {
                optimize,
                ..CompileOptions::default()
            };
            match compile_with(&g, c, &mut Profiler::disabled()) {
                Ok(tape) => {
                    diags.extend(verify_tape(&tape, &g));
                    // opt-in: fused tapes legitimately refuse the JIT, so
                    // J001 only fires when the caller asked about it
                    if opts.jit && optimize {
                        diags.extend(csfma_hls::lint_jit(&tape));
                    }
                }
                Err(e) => diags.extend(e.diagnostics),
            }
        }
    }

    let mut summary = None;
    if opts.ranges {
        let report = lint_ranges(&g, &decls);
        summary = Some(match report.datapath_shift_bound() {
            Some(bound) => {
                let worst = [FmaKind::Pcs, FmaKind::Fcs]
                    .map(|k| window_plan(&format_of(k)).max_shift)
                    .into_iter()
                    .max()
                    .unwrap_or(0);
                format!(
                    "range proof: alignment shift <= {bound} \
                     (format worst case {worst}, span {})",
                    report.exponent_span().unwrap_or(0)
                )
            }
            None => "range proof: none (some node is unbounded)".to_string(),
        });
        diags.extend(report.diagnostics);
    }
    (diags, summary)
}

fn main() -> ExitCode {
    let opts = parse_args();
    let mut failed = false;

    // `--formats` alone checks only the format descriptions; reading
    // stdin too would hang an interactive `csfma-lint --formats`. Pass
    // '-' explicitly to lint a piped program as well.
    let sources: Vec<(String, String)> = if opts.files.is_empty() && opts.formats {
        Vec::new()
    } else if opts.files.is_empty() {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("csfma-lint: cannot read stdin");
            return ExitCode::from(2);
        }
        vec![("<stdin>".to_string(), buf)]
    } else {
        opts.files
            .iter()
            .map(|f| {
                if f == "-" {
                    let mut buf = String::new();
                    let _ = std::io::stdin().read_to_string(&mut buf);
                    ("<stdin>".to_string(), buf)
                } else {
                    match std::fs::read_to_string(f) {
                        Ok(s) => (f.clone(), s),
                        Err(e) => {
                            eprintln!("csfma-lint: {f}: {e}");
                            std::process::exit(2);
                        }
                    }
                }
            })
            .collect()
    };

    // with --json every finding across all sources lands in one array
    // (machine consumers lint one file per invocation for attribution)
    let mut all: Vec<Diagnostic> = Vec::new();

    for (name, src) in &sources {
        let (diags, summary) = lint_source(src, &opts);
        failed |= has_errors(&diags) || (opts.deny_warnings && !diags.is_empty());
        if opts.json {
            all.extend(diags);
            continue;
        }
        if diags.is_empty() {
            println!("{name}: clean");
        } else {
            print!("{name}:\n{}", render_report(&diags));
        }
        if let Some(summary) = summary {
            println!("{name}: {summary}");
        }
    }

    if opts.formats {
        let diags = check_standard_formats();
        failed |= has_errors(&diags) || (opts.deny_warnings && !diags.is_empty());
        if opts.json {
            all.extend(diags);
        } else if diags.is_empty() {
            println!("standard formats: clean");
        } else {
            print!("standard formats:\n{}", render_report(&diags));
        }
    }

    if opts.json {
        println!("{}", render_json(&all));
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
