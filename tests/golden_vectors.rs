//! Golden-vector regression suite: pinned bit patterns for the FMA units
//! and the compiled datapaths.
//!
//! The differential suites (`exec_differential.rs`, the in-crate matrix
//! tests) prove *internal* consistency — tape vs oracle, optimized vs
//! unoptimized. They cannot catch a change that shifts every evaluator
//! the same way. The corpus under `tests/golden/*.json` pins the actual
//! output bits of
//!
//! * the behavioral FMA units (classic, PCS, FCS; single operations and
//!   three-link carry-save chains) on recorded operands, including IEEE
//!   special values,
//! * the batch engine's outputs on the bit backend for every example
//!   datapath × fusion mode on recorded input rows, and
//! * the bit-plane chunk kernel (DESIGN.md §13): full packed transport
//!   words for 64-lane chained chunks on every carry-save format — a
//!   companion mutation test arms the kernel's corruption hook and
//!   proves this corpus catches a single flipped plane word,
//!
//! so any change to rounding, normalization, transport-format geometry
//! or tape lowering that alters even one result bit fails here with the
//! exact case identified.
//!
//! Regenerate after an *intentional* semantics change with:
//!
//! ```sh
//! cargo test --test golden_vectors -- --ignored regenerate_golden_files
//! ```
//!
//! and review the resulting JSON diff like any other code change. Values
//! are stored as hex `f64` bit patterns — the files survive any
//! formatting of decimal floats.

use csfma::core::{plane_fma_chunk, ClassicFma, CsFmaFormat, CsFmaUnit, CsOperand, PlaneScratch};
use csfma::hls::{compile, fuse_critical_paths, parse_program, FmaKind, FusionConfig, TapeBackend};
use csfma::softfloat::{FpFormat, Round, SoftFloat};
use std::fmt::Write as _;
use std::path::PathBuf;

const F: FpFormat = FpFormat::BINARY64;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn example_source(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/datapaths")
        .join(format!("{name}.csfma"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// Minimal JSON subset parser (objects, arrays, strings without escapes,
// numbers, true/false/null) — the workspace deliberately has no serde.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("expected object with key {key:?}, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected array, got {other:?}"),
        }
    }

    fn str_(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    /// Decode a `"0x…"` hex bit-pattern string into the f64 it encodes.
    fn bits(&self) -> f64 {
        let s = self.str_();
        let hex = s
            .strip_prefix("0x")
            .unwrap_or_else(|| panic!("bad bits {s:?}"));
        f64::from_bits(
            u64::from_str_radix(hex, 16).unwrap_or_else(|e| panic!("bad bits {s:?}: {e}")),
        )
    }
}

struct JsonParser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> JsonParser<'a> {
    fn parse(text: &'a str) -> Json {
        let mut p = JsonParser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert!(p.i == p.b.len(), "trailing garbage at byte {}", p.i);
        v
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && (self.b[self.i] as char).is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert!(
            self.i < self.b.len() && self.b[self.i] == c,
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Json::Obj(fields);
                        }
                        other => panic!("expected ',' or '}}', got {other:?}"),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Json::Arr(items);
                        }
                        other => panic!("expected ',' or ']', got {other:?}"),
                    }
                }
            }
            Some(b'"') => Json::Str(self.string()),
            Some(b't') => {
                self.keyword("true");
                Json::Bool(true)
            }
            Some(b'f') => {
                self.keyword("false");
                Json::Bool(false)
            }
            Some(b'n') => {
                self.keyword("null");
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.b.len()
                    && matches!(
                        self.b[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|e| panic!("bad number {text:?}: {e}")),
                )
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'"' {
            assert!(
                self.b[self.i] != b'\\',
                "escapes unsupported (byte {})",
                self.i
            );
            self.i += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.i])
            .unwrap()
            .to_string();
        self.eat(b'"');
        s
    }

    fn keyword(&mut self, kw: &str) {
        assert!(
            self.b[self.i..].starts_with(kw.as_bytes()),
            "byte {}",
            self.i
        );
        self.i += kw.len();
    }
}

fn load(file: &str) -> Json {
    let path = golden_dir().join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden corpus {}: {e}\n\
             regenerate with: cargo test --test golden_vectors -- --ignored regenerate_golden_files",
            path.display()
        )
    });
    JsonParser::parse(&text)
}

fn hex(v: f64) -> String {
    format!("0x{:016x}", v.to_bits())
}

// ---------------------------------------------------------------------
// The functions under pin
// ---------------------------------------------------------------------

const UNIT_KINDS: &[&str] = &["classic", "pcs", "fcs", "pcs-chain3", "fcs-chain3"];

fn cs_format(unit: &str) -> CsFmaFormat {
    if unit.starts_with("pcs") {
        CsFmaFormat::PCS_55_ZD
    } else {
        CsFmaFormat::FCS_29_LZA
    }
}

/// Evaluate one unit-level golden case: `r = a + b*c` through the named
/// unit, rounded back to binary64 at the end (after three chained links
/// for the `*-chain3` variants, which keep the accumulator in the
/// carry-save transport format in between, Sec. III-C).
fn run_unit_case(unit: &str, a: f64, b: f64, c: f64) -> f64 {
    if unit == "classic" {
        let fma = ClassicFma::new(Round::NearestEven);
        return fma
            .fma(
                &SoftFloat::from_f64(F, a),
                &SoftFloat::from_f64(F, b),
                &SoftFloat::from_f64(F, c),
            )
            .to_f64();
    }
    let fmt = cs_format(unit);
    let cs_unit = CsFmaUnit::new(fmt);
    let bv = SoftFloat::from_f64(F, b);
    let mulc = CsOperand::from_f64(c, fmt);
    let mut acc = CsOperand::from_f64(a, fmt);
    let links = if unit.ends_with("chain3") { 3 } else { 1 };
    for _ in 0..links {
        acc = cs_unit.fma(&acc, &bv, &mulc);
    }
    acc.to_ieee(F, Round::NearestEven).to_f64()
}

const DATAPATHS: &[&str] = &["listing1", "horner8", "dot6"];
const FUSIONS: &[&str] = &["none", "pcs", "fcs"];
const GOLDEN_ROWS: usize = 8;

fn build_graph(name: &str, fuse: &str) -> csfma::hls::Cdfg {
    let g = parse_program(&example_source(name)).expect("example programs parse");
    match fuse {
        "none" => g,
        "pcs" => fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused,
        "fcs" => fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs)).fused,
        other => panic!("unknown fusion {other:?}"),
    }
}

fn backend_of(name: &str) -> TapeBackend {
    match name {
        "bit" => TapeBackend::BitAccurate,
        other => panic!("unknown backend {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Bit-plane kernel vectors: 64-lane chunks chained through two links,
// full packed transport words pinned per lane (DESIGN.md §13)
// ---------------------------------------------------------------------

const PLANE_FORMATS: &[(&str, CsFmaFormat)] = &[
    ("pcs-55-zd", CsFmaFormat::PCS_55_ZD),
    ("pcs-58-lza", CsFmaFormat::PCS_58_LZA),
    ("fcs-29-lza", CsFmaFormat::FCS_29_LZA),
    ("pcs-27-sp", CsFmaFormat::PCS_27_SP),
    ("fcs-15-sp", CsFmaFormat::FCS_15_SP),
];
const PLANE_CHUNK: usize = 64;
const PLANE_LINKS: usize = 2;

fn plane_format(name: &str) -> CsFmaFormat {
    PLANE_FORMATS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| *f)
        .unwrap_or_else(|| panic!("unknown plane format {name:?}"))
}

fn plane_b_format(fmt: &CsFmaFormat) -> FpFormat {
    if fmt.b_sig_bits == 24 {
        FpFormat::BINARY32
    } else {
        FpFormat::BINARY64
    }
}

/// Hex-encode a packed transport word (arbitrary width), MSB nibble
/// first — the pinned representation of a whole lane result.
fn bits_hex(b: &csfma::bits::Bits) -> String {
    let w = b.width();
    let mut s = String::from("0x");
    for n in (0..w.div_ceil(4)).rev() {
        let mut v = 0u32;
        for i in 0..4 {
            let pos = n * 4 + i;
            if pos < w && b.bit(pos) {
                v |= 1 << i;
            }
        }
        s.push(char::from_digit(v, 16).unwrap());
    }
    s
}

/// Evaluate one plane-kernel golden case on `scratch`: a 64-lane chunk
/// chained through the bit-plane kernel (results feed back as the
/// accumulator), returning the packed transport word of every lane after
/// the final link plus the lane exponents.
fn run_plane_case(
    fmt: CsFmaFormat,
    a: &[f64],
    b: &[f64],
    c: &[f64],
    scratch: &mut PlaneScratch,
) -> Vec<String> {
    let unit = CsFmaUnit::new(fmt);
    let bfmt = plane_b_format(&fmt);
    // bank layout: slot 0 = acc, slot 1 = mulc, slot 2 = dst
    let mut bank = vec![CsOperand::zero(fmt, false); 3 * PLANE_CHUNK];
    for k in 0..PLANE_CHUNK {
        bank[k] = CsOperand::from_ieee(&SoftFloat::from_f64(bfmt, a[k]), fmt);
        bank[PLANE_CHUNK + k] = CsOperand::from_ieee(&SoftFloat::from_f64(bfmt, c[k]), fmt);
    }
    let bv: Vec<SoftFloat> = b.iter().map(|&v| SoftFloat::from_f64(bfmt, v)).collect();
    for _ in 0..PLANE_LINKS {
        plane_fma_chunk(
            &unit,
            &mut bank,
            0,
            PLANE_CHUNK,
            2 * PLANE_CHUNK,
            &bv,
            PLANE_CHUNK,
            scratch,
        );
        for k in 0..PLANE_CHUNK {
            bank[k] = bank[2 * PLANE_CHUNK + k].clone();
        }
    }
    (0..PLANE_CHUNK)
        .map(|k| {
            let r = &bank[2 * PLANE_CHUNK + k];
            format!("{}|e{}", bits_hex(&r.pack()), r.exp().unbiased())
        })
        .collect()
}

/// Recompute every plane-kernel case on `scratch` and report mismatches
/// against the pinned corpus (empty = corpus holds). Factored out so the
/// mutation test below can assert the corpus *fails* under a seeded
/// defect armed on the scratch.
fn plane_golden_mismatches(doc: &Json, scratch: &mut PlaneScratch) -> Vec<String> {
    let mut mismatches = Vec::new();
    for case in doc.get("cases").arr() {
        let name = case.get("format").str_();
        let fmt = plane_format(name);
        let a: Vec<f64> = case.get("a").arr().iter().map(Json::bits).collect();
        let b: Vec<f64> = case.get("b").arr().iter().map(Json::bits).collect();
        let c: Vec<f64> = case.get("c").arr().iter().map(Json::bits).collect();
        let want: Vec<&str> = case.get("packed").arr().iter().map(Json::str_).collect();
        let got = run_plane_case(fmt, &a, &b, &c, scratch);
        assert_eq!(got.len(), want.len(), "{name}: lane count drifted");
        for (k, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            if g != w {
                mismatches.push(format!("{name} lane {k}: got {g}, pinned {w}"));
            }
        }
    }
    mismatches
}

/// Deterministic per-format stimulus for the plane corpus: lane 0 stays
/// a plain normal triple (the corruption hook flips a lane-0 mantissa
/// bit, which must never be masked by the exception path), the rest mix
/// specials, subnormals and wide-exponent normals.
fn plane_stimulus(fmt_name: &str) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut state = 0x91a9_e000_0000_0000u64 ^ fmt_name.len() as u64;
    let mut lane = |fixed: f64| -> Vec<f64> {
        let mut v = vec![fixed];
        v.extend((1..PLANE_CHUNK).map(|_| gen_f64(&mut state)));
        v
    };
    (lane(1.5), lane(-2.25), lane(3.0625))
}

// ---------------------------------------------------------------------
// Deterministic stimulus for regeneration (recorded into the corpus, so
// the checks never depend on this generator staying fixed)
// ---------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn gen_f64(state: &mut u64) -> f64 {
    let r = splitmix(state);
    match r % 12 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::from_bits(splitmix(state) % (1u64 << 52)), // +subnormal
        6 => -f64::from_bits(splitmix(state) % (1u64 << 52)), // -subnormal
        7 => f64::MIN_POSITIVE * ((r >> 32) % 7 + 1) as f64, // underflow border
        _ => {
            // finite normal in a ±2^100 exponent band
            let m = splitmix(state);
            let sign = m & (1u64 << 63);
            let exp = 923 + splitmix(state) % 200;
            let frac = m & ((1u64 << 52) - 1);
            f64::from_bits(sign | (exp << 52) | frac)
        }
    }
}

// ---------------------------------------------------------------------
// The tests
// ---------------------------------------------------------------------

#[test]
fn golden_fma_unit_vectors_hold() {
    let doc = load("fma_units.json");
    let cases = doc.get("cases").arr();
    assert!(
        cases.len() >= 100,
        "suspiciously small corpus: {}",
        cases.len()
    );
    for (i, case) in cases.iter().enumerate() {
        let unit = case.get("unit").str_();
        let (a, b, c) = (
            case.get("a").bits(),
            case.get("b").bits(),
            case.get("c").bits(),
        );
        let want = case.get("r").bits();
        let got = run_unit_case(unit, a, b, c);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "golden case {i} ({unit}): fma(a={a:e}, b={b:e}, c={c:e}) = {got:e}, pinned {want:e}"
        );
    }
}

#[test]
fn golden_datapath_vectors_hold() {
    let doc = load("datapaths.json");
    for case in doc.get("cases").arr() {
        let name = case.get("name").str_();
        let fuse = case.get("fuse").str_();
        let backend = backend_of(case.get("backend").str_());
        let tape = compile(&build_graph(name, fuse)).expect("examples are checker-clean");
        let inputs: Vec<f64> = case.get("inputs").arr().iter().map(Json::bits).collect();
        let want: Vec<f64> = case.get("outputs").arr().iter().map(Json::bits).collect();
        assert_eq!(
            inputs.len(),
            GOLDEN_ROWS * tape.num_inputs(),
            "{name}/{fuse}: row layout drifted"
        );
        let got = tape.eval_batch(backend, &inputs, 1);
        assert_eq!(got.len(), want.len(), "{name}/{fuse}: output arity drifted");
        for (k, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{name} fuse={fuse} backend={backend:?}: flat output {k} = {g:e}, pinned {w:e}"
            );
        }
    }
}

#[test]
fn golden_plane_kernel_vectors_hold() {
    let doc = load("plane_kernel.json");
    let mismatches = plane_golden_mismatches(&doc, &mut PlaneScratch::default());
    assert!(
        mismatches.is_empty(),
        "plane-kernel corpus violated:\n{}",
        mismatches.join("\n")
    );
}

/// Mutation coverage of the corpus itself: arm the one-shot corruption
/// hook of the kernel scratch (flips a single bit-plane word — lane 0,
/// mantissa sum bit 0 — after the block select) and require the golden
/// suite to notice. If this test fails, the corpus has a blind spot.
#[test]
fn golden_suite_catches_plane_word_corruption() {
    let doc = load("plane_kernel.json");
    let mut scratch = PlaneScratch::default();
    scratch.corrupt_next_plane_word = true;
    let mismatches = plane_golden_mismatches(&doc, &mut scratch);
    // one-shot hook: consumed by the first chunk evaluation
    assert!(
        !scratch.corrupt_next_plane_word,
        "corruption hook was never consumed"
    );
    assert!(
        !mismatches.is_empty(),
        "golden plane corpus failed to catch a flipped bit-plane word"
    );
    assert!(
        mismatches.iter().any(|m| m.contains("lane 0")),
        "corruption flips lane 0, but the mismatch landed elsewhere: {mismatches:?}"
    );
}

/// Rebuild `tests/golden/*.json` from the current implementation. Kept
/// `#[ignore]`d so a routine `cargo test` can never silently re-pin the
/// corpus; run it explicitly after an intentional semantics change.
#[test]
#[ignore = "regenerates the golden corpus from the current implementation"]
fn regenerate_golden_files() {
    std::fs::create_dir_all(golden_dir()).expect("create tests/golden");

    // --- unit vectors ---
    let mut s = String::from("{\n  \"cases\": [\n");
    let mut state = 0x5eed_0fcf_517a_2026u64;
    let mut first = true;
    for &unit in UNIT_KINDS {
        for _ in 0..40 {
            let (a, b, c) = (
                gen_f64(&mut state),
                gen_f64(&mut state),
                gen_f64(&mut state),
            );
            let r = run_unit_case(unit, a, b, c);
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "    {{\"unit\": \"{unit}\", \"a\": \"{}\", \"b\": \"{}\", \"c\": \"{}\", \"r\": \"{}\"}}",
                hex(a), hex(b), hex(c), hex(r)
            );
        }
    }
    s.push_str("\n  ]\n}\n");
    std::fs::write(golden_dir().join("fma_units.json"), s).expect("write fma_units.json");

    // --- datapath vectors ---
    let mut s = String::from("{\n  \"cases\": [\n");
    let mut first = true;
    for &name in DATAPATHS {
        for &fuse in FUSIONS {
            let tape = compile(&build_graph(name, fuse)).expect("examples are checker-clean");
            let ni = tape.num_inputs();
            let mut state = 0xdead_beef_0000_0000u64 ^ (name.len() as u64) << 8 ^ fuse.len() as u64;
            let inputs: Vec<f64> = (0..GOLDEN_ROWS * ni).map(|_| gen_f64(&mut state)).collect();
            let got = tape.eval_batch(TapeBackend::BitAccurate, &inputs, 1);
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let ins: Vec<String> = inputs.iter().map(|&v| format!("\"{}\"", hex(v))).collect();
            let outs: Vec<String> = got.iter().map(|&v| format!("\"{}\"", hex(v))).collect();
            let _ = write!(
                s,
                "    {{\"name\": \"{name}\", \"fuse\": \"{fuse}\", \"backend\": \"bit\",\n     \"inputs\": [{}],\n     \"outputs\": [{}]}}",
                ins.join(", "),
                outs.join(", ")
            );
        }
    }
    s.push_str("\n  ]\n}\n");
    std::fs::write(golden_dir().join("datapaths.json"), s).expect("write datapaths.json");

    // --- bit-plane kernel vectors ---
    let mut s = String::from("{\n  \"cases\": [\n");
    let mut first = true;
    for &(name, fmt) in PLANE_FORMATS {
        let (a, b, c) = plane_stimulus(name);
        let packed = run_plane_case(fmt, &a, &b, &c, &mut PlaneScratch::default());
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let enc = |v: &[f64]| -> String {
            v.iter()
                .map(|&x| format!("\"{}\"", hex(x)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let outs: Vec<String> = packed.iter().map(|p| format!("\"{p}\"")).collect();
        let _ = write!(
            s,
            "    {{\"format\": \"{name}\",\n     \"a\": [{}],\n     \"b\": [{}],\n     \"c\": [{}],\n     \"packed\": [{}]}}",
            enc(&a),
            enc(&b),
            enc(&c),
            outs.join(", ")
        );
    }
    s.push_str("\n  ]\n}\n");
    std::fs::write(golden_dir().join("plane_kernel.json"), s).expect("write plane_kernel.json");
}
