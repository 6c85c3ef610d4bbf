//! Filetest runner: every `tests/filetests/*.csfma` is a datapath
//! program plus expectation directives in leading `;` comment lines
//! (stripped before parsing — the language itself uses `#` comments):
//!
//! ```text
//! ; lint: T005            expect rule T005 among the findings (repeatable)
//! ; lint-clean            expect zero findings
//! ; fuse: pcs|fcs         run the fusion pass before checking
//! ; mutate: swap-operands corrupt the compiled tape first (see
//!                         csfma::hls::mutate) — how T* defects are seeded,
//!                         since a clean compiler never produces them
//! ; run: <backend> <in...> == <hex-bits...>
//!                         execute one input row on a backend and pin the
//!                         output bit patterns. Backends: softfloat (the
//!                         scalar graph interpreter), bit, oracle, jit.
//!                         Inputs are decimal floats or nan/inf/-inf/-0.0;
//!                         expectations are one 0x-prefixed binary64 bit
//!                         pattern per program output, in output order.
//!                         Tape backends replicate the row to a full
//!                         64-lane chunk so `bit` exercises the bit-plane
//!                         kernel (DESIGN.md §13) and every lane must
//!                         reproduce the pinned bits.
//! ; run-differential: <backendA> <backendB>
//!                         evaluate a deterministic 193-row adversarial
//!                         batch (3 full chunks + a ragged tail) on both
//!                         backends — A on 1 thread, B on 4 — and require
//!                         bitwise-identical outputs. Any two of softfloat,
//!                         bit, oracle and jit share one semantics.
//! ; run-jit:              evaluate the 193-row adversarial batch on the
//!                         `jit` backend at 1 and 4 threads and require
//!                         bitwise identity with the 1-thread bit-accurate
//!                         interpreter. The adversarial mix (NaN, ±inf,
//!                         subnormals, bit noise) drives rows down the
//!                         guard-bailout path; on hosts where no native
//!                         module can be built (non-x86-64/aarch64, or
//!                         CSFMA_JIT=off) the jit backend degrades to the
//!                         interpreter and the identity is trivial — the
//!                         directive is valid everywhere.
//! ```
//!
//! Each new `T*`/`R*` rule keeps one minimal reproducer here, so a rule
//! regression fails a named file instead of a synthetic unit test, and
//! each fused datapath shape keeps a `run_*` file so a numeric regression
//! in any backend fails on pinned bits.

use csfma::hls::{
    apply_mutation, compile, compile_with, fuse_critical_paths, interp, lint_ranges,
    parse_program_with_ranges, verify_tape, Cdfg, CompileOptions, FmaKind, FusionConfig, OpTiming,
    Profiler, Tape, TapeBackend,
};
use csfma::verify::Diagnostic;
use std::collections::HashMap;

struct RunCase {
    backend: String,
    inputs: Vec<f64>,
    expect_bits: Vec<u64>,
}

#[derive(Default)]
struct Directives {
    expect_rules: Vec<String>,
    expect_clean: bool,
    fuse: Option<FmaKind>,
    mutate: Option<String>,
    runs: Vec<RunCase>,
    run_differentials: Vec<(String, String)>,
    run_jit: bool,
}

fn parse_input_value(tok: &str) -> f64 {
    match tok {
        "nan" => f64::NAN,
        "inf" | "+inf" => f64::INFINITY,
        "-inf" => f64::NEG_INFINITY,
        _ => tok
            .parse()
            .unwrap_or_else(|_| panic!("bad run input {tok:?}")),
    }
}

fn parse_run(rest: &str) -> RunCase {
    let (lhs, rhs) = rest
        .split_once("==")
        .unwrap_or_else(|| panic!("run directive needs `== <hex-bits...>`: {rest:?}"));
    let mut lhs_toks = lhs.split_whitespace();
    let backend = lhs_toks
        .next()
        .expect("run directive needs a backend")
        .to_string();
    let inputs: Vec<f64> = lhs_toks.map(parse_input_value).collect();
    let expect_bits: Vec<u64> = rhs
        .split_whitespace()
        .map(|t| {
            let hex = t.strip_prefix("0x").unwrap_or(t);
            u64::from_str_radix(hex, 16).unwrap_or_else(|_| panic!("bad bit pattern {t:?}"))
        })
        .collect();
    assert!(!expect_bits.is_empty(), "run directive with no expectation");
    RunCase {
        backend,
        inputs,
        expect_bits,
    }
}

fn parse_directives(src: &str) -> Directives {
    let mut d = Directives::default();
    for line in src.lines() {
        let Some(rest) = line.trim_start().strip_prefix(';') else {
            continue;
        };
        let rest = rest.trim();
        if let Some(rule) = rest.strip_prefix("lint:") {
            d.expect_rules.push(rule.trim().to_string());
        } else if rest == "lint-clean" {
            d.expect_clean = true;
        } else if let Some(kind) = rest.strip_prefix("fuse:") {
            d.fuse = Some(match kind.trim() {
                "pcs" => FmaKind::Pcs,
                "fcs" => FmaKind::Fcs,
                other => panic!("bad fuse directive {other:?}"),
            });
        } else if let Some(name) = rest.strip_prefix("mutate:") {
            d.mutate = Some(name.trim().to_string());
        } else if let Some(spec) = rest.strip_prefix("run:") {
            d.runs.push(parse_run(spec));
        } else if let Some(tail) = rest.strip_prefix("run-jit:") {
            assert!(tail.trim().is_empty(), "run-jit takes no arguments");
            d.run_jit = true;
        } else if let Some(pair) = rest.strip_prefix("run-differential:") {
            let mut toks = pair.split_whitespace();
            let a = toks.next().expect("run-differential needs two backends");
            let b = toks.next().expect("run-differential needs two backends");
            assert!(toks.next().is_none(), "run-differential takes two backends");
            d.run_differentials.push((a.to_string(), b.to_string()));
        } else {
            panic!("unknown directive {rest:?}");
        }
    }
    let has_lint = d.expect_clean || !d.expect_rules.is_empty();
    let has_run = !d.runs.is_empty() || !d.run_differentials.is_empty() || d.run_jit;
    assert!(
        has_lint || has_run,
        "a filetest needs `; lint: <RULE>` / `; lint-clean` or `; run:` directives"
    );
    if has_lint {
        assert!(
            d.expect_clean ^ !d.expect_rules.is_empty(),
            "a filetest needs `; lint: <RULE>` lines or `; lint-clean` (not both)"
        );
    }
    d
}

/// Deterministic per-file stimulus stream (splitmix64).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Adversarial differential stimulus: specials, subnormals, raw bit
/// noise, and ordinary magnitudes — the same mix as the proptest
/// differential suites, but replayable from a fixed seed.
fn adversarial_value(r: u64) -> f64 {
    match r % 12 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::from_bits(r >> 12), // +subnormal
        6 => -f64::from_bits(r >> 12),
        7 => f64::from_bits(r), // anything at all
        8 => f64::MIN_POSITIVE * ((r % 8) as f64 + 1.0),
        _ => ((r % 2_000_001) as f64 - 1_000_000.0) * 1.0e-3,
    }
}

/// Evaluate `n_rows` rows on one named backend. Tape backends go through
/// the chunked batch executor (so `bit` takes the plane kernel on full
/// chunks); `softfloat` is the scalar graph interpreter, the reference
/// the tape backends are differentials against.
fn eval_backend(backend: &str, g: &Cdfg, tape: &Tape, rows: &[f64], threads: usize) -> Vec<f64> {
    match backend {
        "bit" => tape.eval_batch(TapeBackend::BitAccurate, rows, threads),
        "oracle" => tape.eval_batch(TapeBackend::Oracle, rows, threads),
        "jit" => tape.eval_batch(TapeBackend::Jit, rows, threads),
        "softfloat" => {
            let ni = tape.num_inputs();
            let mut out = Vec::new();
            for row in rows.chunks(ni) {
                let map: HashMap<String, f64> = tape
                    .input_names()
                    .iter()
                    .cloned()
                    .zip(row.iter().copied())
                    .collect();
                let vals = interp::eval_bit_accurate(g, &map);
                for name in tape.output_names() {
                    out.push(vals[name]);
                }
            }
            out
        }
        other => panic!("unknown run backend {other:?} (softfloat|bit|oracle|jit)"),
    }
}

/// Execute the `; run:` / `; run-differential:` directives of one file.
fn run_directives(path: &std::path::Path, d: &Directives, g: &Cdfg) {
    let tape = compile(g)
        .unwrap_or_else(|e| panic!("{path:?}: run directives need a compilable program: {e:?}"));
    let ni = tape.num_inputs();
    let no = tape.num_outputs();
    const LANES: usize = 64;
    for (ci, case) in d.runs.iter().enumerate() {
        assert_eq!(
            case.inputs.len(),
            ni,
            "{path:?} run #{ci}: program takes {ni} inputs {:?}",
            tape.input_names()
        );
        assert_eq!(
            case.expect_bits.len(),
            no,
            "{path:?} run #{ci}: program has {no} outputs {:?}",
            tape.output_names()
        );
        // replicate the row to a full chunk: the bit backend must take
        // the plane kernel and reproduce the pinned bits on every lane
        let mut rows = Vec::with_capacity(ni * LANES);
        for _ in 0..LANES {
            rows.extend_from_slice(&case.inputs);
        }
        let got = eval_backend(&case.backend, g, &tape, &rows, 1);
        for lane in 0..LANES {
            for (j, name) in tape.output_names().iter().enumerate() {
                let bits = got[lane * no + j].to_bits();
                assert_eq!(
                    bits, case.expect_bits[j],
                    "{path:?} run #{ci} ({}): output {name} lane {lane}: got {bits:#018x}, \
                     directive pins {:#018x}",
                    case.backend, case.expect_bits[j]
                );
            }
        }
    }
    if d.run_jit {
        let mut seed = 0x1117_0000_0000_0000 ^ (ni as u64);
        let n_rows = 3 * LANES + 1; // 3 full chunks + a ragged tail
        let rows: Vec<f64> = (0..n_rows * ni)
            .map(|_| adversarial_value(splitmix(&mut seed)))
            .collect();
        let want = eval_backend("bit", g, &tape, &rows, 1);
        for threads in [1usize, 4] {
            let got = eval_backend("jit", g, &tape, &rows, threads);
            for (i, (x, y)) in want.iter().zip(got.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{path:?} run-jit ({threads}t): flat output {i} diverged from the \
                     bit-accurate interpreter ({x:e} vs {y:e})"
                );
            }
        }
    }
    for (a, b) in &d.run_differentials {
        let mut seed = 0x5EED_0000_0000_0000 ^ (ni as u64);
        let n_rows = 3 * LANES + 1; // 3 full chunks + a ragged tail
        let rows: Vec<f64> = (0..n_rows * ni)
            .map(|_| adversarial_value(splitmix(&mut seed)))
            .collect();
        let va = eval_backend(a, g, &tape, &rows, 1);
        let vb = eval_backend(b, g, &tape, &rows, 4);
        for (i, (x, y)) in va.iter().zip(vb.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{path:?} run-differential {a}(1t) vs {b}(4t): flat output {i} \
                 diverged ({x:e} vs {y:e})"
            );
        }
    }
}

fn run_filetest(path: &std::path::Path) -> Vec<Diagnostic> {
    let raw = std::fs::read_to_string(path).unwrap();
    let d = parse_directives(&raw);
    let program: String = raw
        .lines()
        .filter(|l| !l.trim_start().starts_with(';'))
        .collect::<Vec<_>>()
        .join("\n");
    let (g, decls) = match parse_program_with_ranges(&program) {
        Ok(pair) => pair,
        Err(e) => return vec![e.to_diagnostic()],
    };
    let g = match d.fuse {
        Some(kind) => fuse_critical_paths(&g, &FusionConfig::new(kind)).fused,
        None => g,
    };
    run_directives(path, &d, &g);
    let mut diags = Vec::new();
    if let Some(name) = &d.mutate {
        // a correct compiler never emits a T*-dirty tape, so T* rule
        // reproducers seed their defect with a named mutation
        let mut tape = compile_with(
            &g,
            CompileOptions {
                optimize: false,
                ..CompileOptions::default()
            },
            &mut Profiler::disabled(),
        )
        .expect("must compile");
        assert!(
            apply_mutation(&mut tape, name),
            "{path:?}: no mutation site"
        );
        diags.extend(verify_tape(&tape, &g));
    } else {
        diags.extend(csfma::hls::lint_dataflow(&g, &OpTiming::default()));
        for optimize in [false, true] {
            if let Ok(tape) = compile_with(
                &g,
                CompileOptions {
                    optimize,
                    ..CompileOptions::default()
                },
                &mut Profiler::disabled(),
            ) {
                diags.extend(verify_tape(&tape, &g));
            }
        }
        diags.extend(lint_ranges(&g, &decls).diagnostics);
    }

    let ids: Vec<&str> = diags.iter().map(|d| d.rule.id()).collect();
    if d.expect_clean {
        assert!(diags.is_empty(), "{path:?}: expected clean, got {diags:?}");
    }
    for rule in &d.expect_rules {
        assert!(
            ids.contains(&rule.as_str()),
            "{path:?}: expected {rule}, got {ids:?}"
        );
    }
    diags
}

#[test]
fn filetests() {
    let mut paths: Vec<_> = std::fs::read_dir("tests/filetests")
        .expect("tests/filetests must exist")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "csfma"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 10,
        "corpus shrank: every T*/R* rule keeps a reproducer"
    );
    let run_files = paths
        .iter()
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("run_"))
        })
        .count();
    assert!(
        run_files >= 6,
        "executable corpus shrank: every fused datapath shape keeps a run_* file"
    );
    for path in paths {
        run_filetest(&path);
    }
}

/// Expectation regenerator: prints a corrected `; run:` line for every
/// run directive in the corpus (actual bits on the directive's backend).
/// Run after an intentional semantics change and paste the output back:
///
/// ```sh
/// cargo test -q --test filetests -- --ignored --nocapture regen
/// ```
#[test]
#[ignore = "prints refreshed run-directive expectations"]
fn regen_run_expectations() {
    let mut paths: Vec<_> = std::fs::read_dir("tests/filetests")
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "csfma"))
        .collect();
    paths.sort();
    for path in paths {
        let raw = std::fs::read_to_string(&path).unwrap();
        let d = parse_directives(&raw);
        if d.runs.is_empty() {
            continue;
        }
        let program: String = raw
            .lines()
            .filter(|l| !l.trim_start().starts_with(';'))
            .collect::<Vec<_>>()
            .join("\n");
        let (g, _) = parse_program_with_ranges(&program).unwrap();
        let g = match d.fuse {
            Some(kind) => fuse_critical_paths(&g, &FusionConfig::new(kind)).fused,
            None => g,
        };
        let tape = compile(&g).unwrap();
        println!("--- {}", path.display());
        for case in &d.runs {
            let got = eval_backend(&case.backend, &g, &tape, &case.inputs, 1);
            let ins: Vec<String> = case
                .inputs
                .iter()
                .map(|v| format!("{v:?}").to_lowercase())
                .collect();
            let outs: Vec<String> = got
                .iter()
                .map(|v| format!("{:#018x}", v.to_bits()))
                .collect();
            println!(
                "; run: {} {} == {}",
                case.backend,
                ins.join(" "),
                outs.join(" ")
            );
        }
    }
}
