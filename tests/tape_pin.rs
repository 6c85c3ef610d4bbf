//! Tape identity pinned across commits.
//!
//! Every tape below is digested field by field (instructions, source-node
//! provenance, constant bits, input and output names, both slot counts)
//! and compared, together with its `fingerprint()` and `OptStats` counts,
//! against values recorded when the table was written. A compiler change
//! that is meant to be a pure speed-up must leave this table untouched;
//! other suites compare two compiles of one build (`determinism`), output
//! bits (`golden_vectors`), or both sides lowered by the same `lower`
//! (`reorder_oracle`), so none of them notices a change in tape structure
//! on its own.
//!
//! On a mismatch the test prints the whole table as computed, in the
//! form it is written here. Re-record it only for an intended change to
//! what the compiler emits.

use csfma::hls::lint::to_tape_view;
use csfma::hls::{
    compile_with, fuse_critical_paths, parse_program_with_ranges, Cdfg, CompileOptions, FmaKind,
    FusionConfig, Instr, Profiler, Tape,
};
use csfma::solvers::{generate_ldlsolve, solver_suite, KktSystem, LdlFactors};

/// FNV-1a over an explicit byte encoding: fixed-width little-endian
/// numbers, strings prefixed by their length.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn kind_tag(k: FmaKind) -> u8 {
    match k {
        FmaKind::Pcs => 0,
        FmaKind::Fcs => 1,
    }
}

/// Digest of everything a tape executes with.
fn tape_digest(t: &Tape) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(t.instrs().len() as u64);
    for ins in t.instrs() {
        match *ins {
            Instr::LoadInput { dst, input } => {
                h.u8(0);
                h.u32(dst);
                h.u32(input);
            }
            Instr::LoadConst { dst, idx } => {
                h.u8(1);
                h.u32(dst);
                h.u32(idx);
            }
            Instr::Add { dst, a, b } => {
                h.u8(2);
                h.u32(dst);
                h.u32(a);
                h.u32(b);
            }
            Instr::Sub { dst, a, b } => {
                h.u8(3);
                h.u32(dst);
                h.u32(a);
                h.u32(b);
            }
            Instr::Mul { dst, a, b } => {
                h.u8(4);
                h.u32(dst);
                h.u32(a);
                h.u32(b);
            }
            Instr::Div { dst, a, b } => {
                h.u8(5);
                h.u32(dst);
                h.u32(a);
                h.u32(b);
            }
            Instr::Neg { dst, a } => {
                h.u8(6);
                h.u32(dst);
                h.u32(a);
            }
            Instr::Fma {
                kind,
                negate_b,
                dst,
                acc,
                b,
                mulc,
            } => {
                h.u8(7);
                h.u8(kind_tag(kind));
                h.u8(u8::from(negate_b));
                h.u32(dst);
                h.u32(acc);
                h.u32(b);
                h.u32(mulc);
            }
            Instr::IeeeToCs { kind, dst, src } => {
                h.u8(8);
                h.u8(kind_tag(kind));
                h.u32(dst);
                h.u32(src);
            }
            Instr::CsToIeee { dst, src } => {
                h.u8(9);
                h.u32(dst);
                h.u32(src);
            }
            Instr::Store { output, src } => {
                h.u8(10);
                h.u32(output);
                h.u32(src);
            }
        }
    }
    for i in 0..t.instrs().len() {
        let node = t
            .source_node_of(i)
            .expect("one provenance entry per instruction");
        h.u64(node as u64);
    }
    let consts = to_tape_view(t).consts;
    h.u64(consts.len() as u64);
    for c in consts {
        h.u64(c.to_bits());
    }
    for names in [t.input_names(), t.output_names()] {
        h.u64(names.len() as u64);
        for name in names {
            h.str(name);
        }
    }
    h.u64(t.num_f64_regs() as u64);
    h.u64(t.num_cs_regs() as u64);
    h.0
}

/// One table row, printed the way the table below is written.
fn row((name, digest, fp, s): Pin) -> String {
    format!(
        "    (\"{name}\", 0x{digest:016x}, 0x{fp:016x}, [{}, {}, {}, {}, {}, {}, {}]),",
        s[0], s[1], s[2], s[3], s[4], s[5], s[6]
    )
}

fn pin_line(name: &str, t: &Tape) -> String {
    let s = t.opt_stats();
    let stats = [
        s.nodes_before,
        s.nodes_after,
        s.consts_folded,
        s.cse_merged,
        s.dead_removed,
        s.dead_slots_removed,
        s.slots_reclaimed,
    ];
    row((name, tape_digest(t), t.fingerprint(), stats))
}

/// The rows of `name` unfused, PCS-fused and FCS-fused, each compiled
/// with the optimizer on and off.
fn pin_lines(name: &str, g: &Cdfg) -> Vec<String> {
    let pcs = fuse_critical_paths(g, &FusionConfig::new(FmaKind::Pcs)).fused;
    let fcs = fuse_critical_paths(g, &FusionConfig::new(FmaKind::Fcs)).fused;
    let mut lines = Vec::new();
    for (form, g) in ["", "-pcs", "-fcs"].iter().zip([g, &pcs, &fcs]) {
        for (suffix, optimize) in [("opt", true), ("plain", false)] {
            let opts = CompileOptions {
                optimize,
                ..CompileOptions::default()
            };
            let tape = compile_with(g, opts, &mut Profiler::disabled())
                .unwrap_or_else(|e| panic!("{name}{form}: {e}"));
            lines.push(pin_line(&format!("{name}{form}/{suffix}"), &tape));
        }
    }
    lines
}

fn ldlsolve(solver: usize) -> Cdfg {
    let kkt = KktSystem::assemble(&solver_suite()[solver]);
    generate_ldlsolve(&LdlFactors::factor(&kkt.matrix)).cdfg
}

/// A program the optimizer rewrites: foldable constants, repeated
/// subexpressions, a dead assignment and the inputs only it reads.
const PLANTED: &str = "k = 2.0 * 3.0 + 1.5;
t1 = a * b + k;
t2 = a * b + k;
dead = p * q;
u = c - d * (0.5 - 4.0);
v = c - d * (0.5 - 4.0);
out y = t1 * t2 + u;
out z = v / (4.0 - 0.5) + t1 * c;
";

fn example_lines() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/datapaths");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/datapaths exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "csfma"))
        .collect();
    paths.sort();
    let mut lines = Vec::new();
    for path in paths {
        let src = std::fs::read_to_string(&path).unwrap();
        let (g, _) = parse_program_with_ranges(&src).expect("example datapaths parse");
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        lines.extend(pin_lines(&stem, &g));
    }
    let (g, _) = parse_program_with_ranges(PLANTED).expect("the planted program parses");
    lines.extend(pin_lines("planted", &g));
    lines
}

/// Compare computed rows with the recorded ones, row by row.
fn check(got: Vec<String>, want: &[Pin]) {
    let want: Vec<String> = want.iter().copied().map(row).collect();
    let differ: Vec<&String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|(g, _)| g)
        .collect();
    assert!(
        differ.is_empty() && got.len() == want.len(),
        "{} of {} tape(s) differ from the recorded table ({} recorded); first: {:?}\n\
         computed table:\n{}",
        differ.len(),
        got.len(),
        want.len(),
        differ.first(),
        got.join("\n")
    );
}

/// `(tape, digest, fingerprint, [nodes_before, nodes_after,
/// consts_folded, cse_merged, dead_removed, dead_slots_removed,
/// slots_reclaimed])`
type Pin<'a> = (&'a str, u64, u64, [usize; 7]);

#[rustfmt::skip]
const EXAMPLES: &[Pin<'static>] = &[
    ("dot6/opt", 0x48685dcf875381da, 0x5c034e455e75aeea, [30, 30, 0, 0, 0, 0, 24]),
    ("dot6/plain", 0xa431e66cef5a84bc, 0x5c034e455e75aeea, [30, 30, 0, 0, 0, 0, 23]),
    ("dot6-pcs/opt", 0x48685dcf875381da, 0x5c034e455e75aeea, [30, 30, 0, 0, 0, 0, 24]),
    ("dot6-pcs/plain", 0xa431e66cef5a84bc, 0x5c034e455e75aeea, [30, 30, 0, 0, 0, 0, 23]),
    ("dot6-fcs/opt", 0x48685dcf875381da, 0x5c034e455e75aeea, [30, 30, 0, 0, 0, 0, 24]),
    ("dot6-fcs/plain", 0xa431e66cef5a84bc, 0x5c034e455e75aeea, [30, 30, 0, 0, 0, 0, 23]),
    ("dot6_bounded/opt", 0x96b40ed24e3783e2, 0xbfec06da241ae6cf, [28, 28, 0, 0, 0, 0, 20]),
    ("dot6_bounded/plain", 0xce0fdedb803ddc84, 0xbfec06da241ae6cf, [28, 28, 0, 0, 0, 0, 14]),
    ("dot6_bounded-pcs/opt", 0x96b40ed24e3783e2, 0xbfec06da241ae6cf, [28, 28, 0, 0, 0, 0, 20]),
    ("dot6_bounded-pcs/plain", 0xce0fdedb803ddc84, 0xbfec06da241ae6cf, [28, 28, 0, 0, 0, 0, 14]),
    ("dot6_bounded-fcs/opt", 0x96b40ed24e3783e2, 0xbfec06da241ae6cf, [28, 28, 0, 0, 0, 0, 20]),
    ("dot6_bounded-fcs/plain", 0xce0fdedb803ddc84, 0xbfec06da241ae6cf, [28, 28, 0, 0, 0, 0, 14]),
    ("horner8/opt", 0x9e4424386ae3e469, 0x5f02e8b300f5a3cd, [27, 27, 0, 0, 0, 0, 23]),
    ("horner8/plain", 0x9e4424386ae3e469, 0x5f02e8b300f5a3cd, [27, 27, 0, 0, 0, 0, 23]),
    ("horner8-pcs/opt", 0x80b002c6d45dfa93, 0x199c001045a946b1, [29, 29, 0, 0, 0, 0, 24]),
    ("horner8-pcs/plain", 0xbcc08fce4c0cd079, 0x199c001045a946b1, [29, 29, 0, 0, 0, 0, 23]),
    ("horner8-fcs/opt", 0x0fd04ea08141e12a, 0xa227de52539217f3, [29, 29, 0, 0, 0, 0, 24]),
    ("horner8-fcs/plain", 0x95b212d17fb74e48, 0xa227de52539217f3, [29, 29, 0, 0, 0, 0, 23]),
    ("listing1/opt", 0x0c339ae3dbbece67, 0xe760c1b87959f9e5, [20, 20, 0, 0, 0, 0, 16]),
    ("listing1/plain", 0x0c339ae3dbbece67, 0xe760c1b87959f9e5, [20, 20, 0, 0, 0, 0, 16]),
    ("listing1-pcs/opt", 0xf7c66ee5db6d7b07, 0x815f877c0f01c8fd, [22, 22, 0, 0, 0, 0, 16]),
    ("listing1-pcs/plain", 0x54f55d847fa94f17, 0x815f877c0f01c8fd, [22, 22, 0, 0, 0, 0, 16]),
    ("listing1-fcs/opt", 0x90bb76d51c1a3c21, 0x82b2d5fefad26f98, [22, 22, 0, 0, 0, 0, 16]),
    ("listing1-fcs/plain", 0x8d95d923817f220c, 0x82b2d5fefad26f98, [22, 22, 0, 0, 0, 0, 15]),
    ("planted/opt", 0x3150e6567432bfc3, 0x504b246606c82f74, [36, 20, 5, 9, 7, 2, 12]),
    ("planted/plain", 0x3a3f48fc9f1d4990, 0x504b246606c82f74, [36, 36, 0, 0, 0, 0, 26]),
    ("planted-pcs/opt", 0x4f2b560535b05331, 0xd7a5869a4d5cdc14, [35, 22, 5, 7, 6, 0, 13]),
    ("planted-pcs/plain", 0xe0894cd2a0e13c7b, 0xd7a5869a4d5cdc14, [35, 35, 0, 0, 0, 0, 24]),
    ("planted-fcs/opt", 0x7ff9ac08c000a582, 0x39682aa62f73203e, [35, 22, 5, 7, 6, 0, 13]),
    ("planted-fcs/plain", 0x3351e279fac6b1f0, 0x39682aa62f73203e, [35, 35, 0, 0, 0, 0, 24]),
];

#[rustfmt::skip]
const LDLSOLVE_S1: &[Pin<'static>] = &[
    ("ldlsolve-s1/opt", 0xbfd4b57efedb442f, 0x1c40183ab6be6865, [540, 540, 0, 0, 0, 0, 343]),
    ("ldlsolve-s1/plain", 0x83c46c957eecc8cd, 0x1c40183ab6be6865, [540, 540, 0, 0, 0, 0, 343]),
    ("ldlsolve-s1-pcs/opt", 0xb14d2aa5c5040df9, 0x9a515434c235a8ed, [572, 572, 0, 0, 0, 0, 363]),
    ("ldlsolve-s1-pcs/plain", 0x9da5cb3ada7ff3de, 0x9a515434c235a8ed, [572, 572, 0, 0, 0, 0, 368]),
    ("ldlsolve-s1-fcs/opt", 0xc3f4e1bd040f5457, 0x19fc0a3b16c0e298, [578, 578, 0, 0, 0, 0, 369]),
    ("ldlsolve-s1-fcs/plain", 0x15de54c55f3aee35, 0x19fc0a3b16c0e298, [578, 578, 0, 0, 0, 0, 375]),
];

#[rustfmt::skip]
const LDLSOLVE_S2_S3: &[Pin<'static>] = &[
    ("ldlsolve-s2/opt", 0x70e0c7de1a8e2cdf, 0xfaf6bd8166df06e5, [1140, 1140, 0, 0, 0, 0, 735]),
    ("ldlsolve-s2/plain", 0xd0f803dfbcbbe0bb, 0xfaf6bd8166df06e5, [1140, 1140, 0, 0, 0, 0, 735]),
    ("ldlsolve-s2-pcs/opt", 0x636e145a13e32a23, 0x802cc4d1058a27a6, [1196, 1196, 0, 0, 0, 0, 763]),
    ("ldlsolve-s2-pcs/plain", 0x26c03480580603dd, 0x802cc4d1058a27a6, [1196, 1196, 0, 0, 0, 0, 784]),
    ("ldlsolve-s2-fcs/opt", 0xa8cfbf120e27dec3, 0x3fd24bdbfccba13f, [1202, 1202, 0, 0, 0, 0, 769]),
    ("ldlsolve-s2-fcs/plain", 0x545e1640cfca5fb6, 0x3fd24bdbfccba13f, [1202, 1202, 0, 0, 0, 0, 791]),
    ("ldlsolve-s3/opt", 0x2f71415be61b204c, 0x3f24e8f28bd3223e, [1740, 1740, 0, 0, 0, 0, 1127]),
    ("ldlsolve-s3/plain", 0x2391c892e77ec69c, 0x3f24e8f28bd3223e, [1740, 1740, 0, 0, 0, 0, 1127]),
    ("ldlsolve-s3-pcs/opt", 0x86839f529a67b901, 0x1e858b84f98d42e8, [1820, 1820, 0, 0, 0, 0, 1163]),
    ("ldlsolve-s3-pcs/plain", 0xe8a3ed1a50b9070d, 0x1e858b84f98d42e8, [1820, 1820, 0, 0, 0, 0, 1200]),
    ("ldlsolve-s3-fcs/opt", 0x32d0971823636830, 0xa66b8ad2ce8bf574, [1826, 1826, 0, 0, 0, 0, 1169]),
    ("ldlsolve-s3-fcs/plain", 0x669075b65568a904, 0xa66b8ad2ce8bf574, [1826, 1826, 0, 0, 0, 0, 1207]),
];

#[test]
fn example_datapath_tapes_match_the_recorded_table() {
    check(example_lines(), EXAMPLES);
}

#[test]
fn ldlsolve_s1_tapes_match_the_recorded_table() {
    check(pin_lines("ldlsolve-s1", &ldlsolve(0)), LDLSOLVE_S1);
}

#[test]
#[ignore = "the larger kernels: ci.sh runs them with --include-ignored"]
fn ldlsolve_s2_and_s3_tapes_match_the_recorded_table() {
    let mut lines = pin_lines("ldlsolve-s2", &ldlsolve(1));
    lines.extend(pin_lines("ldlsolve-s3", &ldlsolve(2)));
    check(lines, LDLSOLVE_S2_S3);
}
