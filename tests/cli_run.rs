//! End-to-end tests of the `csfma-run` binary: exit codes, the
//! structured diagnostics contract, and the `--no-opt` oracle mode.
//!
//! The library-level suites cover the parser and engine directly; these
//! run the installed binary (`CARGO_BIN_EXE_csfma-run`) to pin what a
//! *driver* (the experiment scripts, ci.sh) actually observes — exit 2
//! for usage/parse problems with a positioned message on stderr, exit 1
//! when the D*/S*/W* gate refuses a graph, and bit-identical digests
//! with and without the post-gate optimizer.

use std::process::{Command, Output, Stdio};

fn run(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_csfma-run"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn csfma-run");
    use std::io::Write as _;
    // a usage error exits before reading stdin, so losing the pipe
    // mid-write is a legal outcome, not a test failure; tests that do
    // need their graph delivered assert on the output downstream
    let _ = child.stdin.take().unwrap().write_all(stdin.as_bytes());
    child.wait_with_output().expect("csfma-run exits")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn digest_of(text: &str) -> &str {
    let line = text
        .lines()
        .find(|l| l.contains("digest"))
        .expect("batch summary line with digest");
    line.split("digest ").nth(1).expect("digest value").trim()
}

#[test]
fn undefined_input_in_strict_program_is_a_structured_parse_error() {
    let out = run(&[], "in a, b;\nout y = a * bee;\n");
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("undefined input name 'bee'"),
        "diagnostic must name the offending identifier: {err}"
    );
    assert!(
        err.contains("2:"),
        "diagnostic must carry the source position: {err}"
    );
}

#[test]
fn legacy_programs_still_treat_free_names_as_inputs() {
    // no `in` declaration anywhere -> non-strict: `bee` becomes an input
    let out = run(&[], "out y = a * bee;\n");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("2 inputs"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn no_opt_digest_matches_the_optimized_run() {
    // constant subtree + repeated subexpression + dead assignment: every
    // optimizer pass fires, and the digest must not move
    let src = "unused = u * u;\nscale = 2.0 * 2.0 + 1.0;\nout y = a*b + a*b + scale;\n";
    let args_base = ["--batch", "257", "--threads", "2", "--seed", "7"];
    let opt = run(&args_base, src);
    let mut args_noopt = args_base.to_vec();
    args_noopt.push("--no-opt");
    let plain = run(&args_noopt, src);
    assert_eq!(opt.status.code(), Some(0), "stderr: {}", stderr(&opt));
    assert_eq!(plain.status.code(), Some(0), "stderr: {}", stderr(&plain));

    let opt_out = stdout(&opt);
    let plain_out = stdout(&plain);
    assert_eq!(
        digest_of(&opt_out),
        digest_of(&plain_out),
        "optimizer changed observable output bits"
    );
    assert!(
        opt_out.contains("optimized:"),
        "optimized run should report pass counters: {opt_out}"
    );
    assert!(
        !plain_out.contains("optimized:"),
        "--no-opt run must not report optimizer work: {plain_out}"
    );
}

#[test]
fn syntax_error_exits_two_with_position() {
    let out = run(&[], "out y = a + ;\n");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stdout: {} stderr: {}",
        stdout(&out),
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.starts_with("csfma-run:") && err.contains("1:"),
        "parse failures go to stderr with a position: {err}"
    );
}

/// Unknown flags and values, the removed `--many`, and a second FILE
/// are all refused at parse time.
#[test]
fn unknown_flag_is_a_usage_error() {
    for args in [
        &["--frobnicate"][..],
        &["--backend", "f64"],
        &["--many"],
        &["a.csfma", "b.csfma"],
    ] {
        let out = run(args, "out y = a + b;\n");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("usage:"), "{args:?}");
    }
}

#[test]
fn oracle_backend_digest_matches_bit_accurate() {
    let src = "x1 = a*b + c*d;\nout y = e*f + g*x1;\n";
    let bit = run(&["--fuse", "pcs", "--batch", "64", "--backend", "bit"], src);
    let oracle = run(
        &["--fuse", "pcs", "--batch", "64", "--backend", "oracle"],
        src,
    );
    assert_eq!(bit.status.code(), Some(0), "stderr: {}", stderr(&bit));
    assert_eq!(oracle.status.code(), Some(0), "stderr: {}", stderr(&oracle));
    assert_eq!(
        digest_of(&stdout(&bit)),
        digest_of(&stdout(&oracle)),
        "oracle backend must be bit-identical to bit-accurate"
    );
}

/// Minimal recursive-descent JSON reader — just enough to round-trip the
/// `--profile=json` document (the workspace deliberately has no JSON
/// dependency, so the test parses what the CLI hand-rolls).
mod json {
    #[derive(Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn as_arr(&self) -> &[Value] {
            match self {
                Value::Arr(v) => v,
                other => panic!("expected array, got {other:?}"),
            }
        }
        pub fn as_str(&self) -> &str {
            match self {
                Value::Str(s) => s,
                other => panic!("expected string, got {other:?}"),
            }
        }
        pub fn as_num(&self) -> f64 {
            match self {
                Value::Num(n) => *n,
                other => panic!("expected number, got {other:?}"),
            }
        }
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                let mut kv = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(Value::Obj(kv));
                }
                loop {
                    skip_ws(b, i);
                    let k = match value(b, i)? {
                        Value::Str(s) => s,
                        other => return Err(format!("non-string key {other:?}")),
                    };
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    *i += 1;
                    kv.push((k, value(b, i)?));
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(Value::Obj(kv));
                        }
                        other => return Err(format!("expected ',' or '}}', got {other:?}")),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                let mut vs = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(Value::Arr(vs));
                }
                loop {
                    vs.push(value(b, i)?);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(Value::Arr(vs));
                        }
                        other => return Err(format!("expected ',' or ']', got {other:?}")),
                    }
                }
            }
            Some(b'"') => {
                *i += 1;
                let mut s = String::new();
                while let Some(&c) = b.get(*i) {
                    *i += 1;
                    match c {
                        b'"' => return Ok(Value::Str(s)),
                        b'\\' => {
                            let e = *b.get(*i).ok_or("eof in escape")?;
                            *i += 1;
                            s.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                b'\\' => '\\',
                                b'"' => '"',
                                b'/' => '/',
                                other => return Err(format!("escape \\{}", other as char)),
                            });
                        }
                        c => s.push(c as char),
                    }
                }
                Err("unterminated string".into())
            }
            Some(b't') if b[*i..].starts_with(b"true") => {
                *i += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*i..].starts_with(b"false") => {
                *i += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*i..].starts_with(b"null") => {
                *i += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *i += 1;
                }
                std::str::from_utf8(&b[start..*i])
                    .unwrap()
                    .parse()
                    .map(Value::Num)
                    .map_err(|e| format!("bad number at {start}: {e}"))
            }
            None => Err("unexpected eof".into()),
        }
    }
}

/// The profile JSON document starts at the first stdout line beginning
/// with `{` (normal summary lines never do).
fn profile_json_of(text: &str) -> &str {
    let start = text.find("\n{").expect("profile JSON after summary") + 1;
    &text[start..]
}

#[test]
fn profile_json_round_trips_with_full_stage_breakdown() {
    let src = "x1 = a*b + c*d;\nout y = e*f + g*x1;\n";
    let args = ["--fuse", "pcs", "--batch", "100", "--threads", "2"];
    let mut args_prof = args.to_vec();
    args_prof.push("--profile=json");
    let prof = run(&args_prof, src);
    assert_eq!(prof.status.code(), Some(0), "stderr: {}", stderr(&prof));

    let out = stdout(&prof);
    let doc = json::parse(profile_json_of(&out))
        .unwrap_or_else(|e| panic!("profile JSON must parse: {e}\n{out}"));

    assert_eq!(doc.get("recorded"), Some(&json::Value::Bool(true)));

    // Stage breakdown covers the whole pipeline, with positive timings
    // and gate/optimize/lower nested inside compile.
    let stages = doc.get("stages").expect("stages array").as_arr();
    let stage = |name: &str| {
        stages
            .iter()
            .find(|s| s.get("name").map(json::Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("stage {name:?} missing: {stages:?}"))
    };
    for name in [
        "parse",
        "cache_lookup",
        "compile",
        "gate",
        "optimize",
        "lower",
        "eval",
    ] {
        let s = stage(name);
        assert!(s.get("wall_us").expect("wall_us").as_num() >= 0.0);
    }
    assert_eq!(stage("compile").get("depth").unwrap().as_num(), 0.0);
    assert_eq!(stage("gate").get("depth").unwrap().as_num(), 1.0);
    assert_eq!(stage("lower").get("depth").unwrap().as_num(), 1.0);

    // Cache and fault counters are present; this is a fresh process, so
    // the compile was a miss and the un-faulted run detected nothing.
    let counters = doc.get("counters").expect("counters object");
    let counter = |name: &str| {
        counters
            .get(name)
            .unwrap_or_else(|| panic!("counter {name:?} missing"))
            .as_num()
    };
    assert_eq!(counter("tape_cache_misses"), 1.0);
    assert_eq!(counter("tape_cache_hits"), 0.0);
    assert!(
        counter("tape_cache_shards") >= 1.0,
        "shard count (PR 9) is part of the stable profile schema"
    );
    assert_eq!(counter("rows"), 100.0);
    assert_eq!(counter("threads"), 2.0);
    assert_eq!(counter("fault_detections"), 0.0);
    assert_eq!(counter("fault_rows_quarantined"), 0.0);
    assert!(counter("fma_ops_pcs") > 0.0);
    // Translation-validator counters: the gate's wall time (0 in release
    // builds, where the debug gate is compiled out) and the allocator's
    // slot reuse, both part of the stable profile schema.
    assert!(counter("tape_verify_us") >= 0.0);
    assert!(counter("slots_reclaimed") >= 0.0);

    assert_eq!(doc.get("warnings"), Some(&json::Value::Arr(Vec::new())));

    // Determinism contract, end to end: the profiled run's digest equals
    // the plain run's.
    let plain = run(&args, src);
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(
        digest_of(&out),
        digest_of(&stdout(&plain)),
        "--profile must not change output bytes"
    );
}

#[test]
fn profile_text_mode_prints_stage_tree() {
    let out = run(&["--profile", "--batch", "32"], "out y = a*b + c;\n");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for needle in ["parse", "compile", "eval", "rows"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn fault_seed_reports_campaign_and_exits_three() {
    let src = "x1 = a*b + c*d;\nout y = e*f + g*x1;\n";
    let out = run(
        &["--fuse", "pcs", "--batch", "200", "--fault-seed", "7"],
        src,
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "execution faults must exit 3; stderr: {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(err.contains("fault campaign: seed 7"), "{err}");
    assert!(err.contains("batch report:"), "{err}");
    assert!(err.contains("recovered"), "{err}");

    // recovered outputs are bit-identical: the digest matches a clean run
    let clean = run(&["--fuse", "pcs", "--batch", "200"], src);
    assert_eq!(clean.status.code(), Some(0));
    assert_eq!(
        digest_of(&stdout(&out)),
        digest_of(&stdout(&clean)),
        "fallback ladder must reproduce clean bits"
    );
}
