//! The compile gate against the two-pass gate it replaced.
//!
//! `reference_gate` is the gate as first written: the structural rules
//! of `Cdfg::validate_diagnostics`, then, once they hold, the
//! error-severity findings of the full dataflow pass (`lint_dataflow`)
//! and of the `W*` rules of the default transport formats the graph
//! uses. `compile` runs the structural rules once; the dataflow pass's
//! error rules are the same three (D001-D003). On every graph, `compile`
//! must reach the reference's verdict, and when it refuses, report the
//! same diagnostics (rule, span, message) in the same order.
//!
//! Graphs come in two shapes: anything `push_unchecked` accepts, in the
//! mix of `fuzz/fuzz_targets/compile_gate.rs` (wrong arities; self,
//! forward and out-of-range edges; domain and kind clashes), and
//! well-formed graphs whose arguments mostly, but not always, come from
//! the domain the port expects.

use csfma::hls::interp::format_of;
use csfma::hls::lint::port_domains;
use csfma::hls::{compile, lint_dataflow, Cdfg, FmaKind, Op, OpTiming};
use csfma::verify::{check_format, Diagnostic, Severity};
use proptest::prelude::*;

fn errors_only(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

/// The two-pass gate, with the default formats.
fn reference_gate(g: &Cdfg) -> Result<(), Vec<Diagnostic>> {
    let mut diags = errors_only(g.validate_diagnostics().err().unwrap_or_default());
    if diags.is_empty() {
        diags.extend(errors_only(lint_dataflow(g, &OpTiming::default())));
        let mut kinds: Vec<FmaKind> = Vec::new();
        for n in g.nodes() {
            if let Op::Fma { kind, .. } | Op::IeeeToCs(kind) | Op::CsToIeee(kind) = &n.op {
                if !kinds.contains(kind) {
                    kinds.push(*kind);
                }
            }
        }
        for kind in kinds {
            diags.extend(errors_only(check_format(&format_of(kind))));
        }
    }
    if diags.is_empty() {
        Ok(())
    } else {
        Err(diags)
    }
}

/// SplitMix64, so a case is a seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One operation of the fuzz target's mix.
fn random_op(rng: &mut Rng) -> Op {
    let kind = [FmaKind::Pcs, FmaKind::Fcs][rng.below(2)];
    match rng.below(11) {
        0 => Op::Input(format!("i{}", rng.below(8))),
        1 => Op::Const(f64::from_bits(rng.next())),
        2 => Op::Add,
        3 => Op::Sub,
        4 => Op::Mul,
        5 => Op::Div,
        6 => Op::Neg,
        7 => Op::Fma {
            kind,
            negate_b: rng.below(2) == 1,
        },
        8 => Op::IeeeToCs(kind),
        9 => Op::CsToIeee(kind),
        _ => Op::Output(format!("o{}", rng.below(8))),
    }
}

/// The fuzz target's graphs: 0-3 arguments per node, each anywhere in
/// `0..id + 3` (so self, forward and out-of-range edges occur).
fn unchecked_graph(rng: &mut Rng) -> Cdfg {
    let mut g = Cdfg::new();
    for id in 0..rng.below(48) + 1 {
        let op = random_op(rng);
        let args = (0..rng.below(4)).map(|_| rng.below(id + 3)).collect();
        g.push_unchecked(op, args);
    }
    g
}

/// Right arity and ordered edges; each argument comes from the port's
/// domain seven times in eight when such a node exists, else from
/// anywhere earlier, so domain and kind clashes stay common.
fn well_formed_graph(rng: &mut Rng) -> Cdfg {
    let mut g = Cdfg::new();
    for id in 0..rng.below(40) + 1 {
        let op = match id {
            0 => Op::Input("i0".into()),
            _ => random_op(rng),
        };
        let ports = port_domains(&op);
        let mut args = Vec::with_capacity(ports.len());
        for want in ports {
            let fitting: Vec<usize> = (0..id)
                .filter(|&a| g.nodes()[a].op.domain() == want)
                .collect();
            let arg = if !fitting.is_empty() && rng.below(8) != 0 {
                fitting[rng.below(fitting.len())]
            } else {
                rng.below(id)
            };
            args.push(arg);
        }
        g.push_unchecked(op, args);
    }
    g
}

fn check_case(seed: u64) {
    let mut rng = Rng(seed);
    let g = if rng.below(2) == 0 {
        unchecked_graph(&mut rng)
    } else {
        well_formed_graph(&mut rng)
    };
    let got = compile(&g).map(|_| ()).map_err(|e| e.diagnostics);
    let want = reference_gate(&g);
    assert!(
        got == want,
        "seed {seed}: compile {} but the reference {}\ncompile: {got:?}\nreference: {want:?}\ngraph: {:?}",
        if got.is_ok() { "accepts" } else { "refuses" },
        if want.is_ok() { "accepts" } else { "refuses" },
        g.nodes()
    );
}

/// The reference leaves out W006 (a format whose `B` significand is not
/// binary64's); it cannot fire on the default formats.
#[test]
fn default_formats_feed_b_from_binary64() {
    for kind in [FmaKind::Pcs, FmaKind::Fcs] {
        assert_eq!(format_of(kind).b_sig_bits, 53, "{kind:?}");
    }
}

/// The fuzz mix is refused nearly always, with many findings per graph;
/// the well-formed shape reaches both verdicts, so the property compares
/// refusals and acceptances alike.
#[test]
fn generators_reach_both_verdicts() {
    let (mut accepted, mut refused) = ([0; 2], [0; 2]);
    for seed in 0..2000 {
        let mut rng = Rng(seed);
        let shape = rng.below(2);
        let g = if shape == 0 {
            unchecked_graph(&mut rng)
        } else {
            well_formed_graph(&mut rng)
        };
        match reference_gate(&g) {
            Ok(()) => accepted[shape] += 1,
            Err(_) => refused[shape] += 1,
        }
    }
    assert!(refused[0] >= 500, "fuzz mix: {refused:?} refused");
    assert!(
        accepted[1] >= 100 && refused[1] >= 100,
        "well-formed: {} accepted, {} refused",
        accepted[1],
        refused[1]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compile_gate_matches_the_two_pass_reference(seed: u64) {
        check_case(seed);
    }
}

#[test]
#[ignore = "100,000 cases: ci.sh runs them in release with --include-ignored"]
fn compile_gate_matches_the_two_pass_reference_at_length() {
    for seed in 0..100_000u64 {
        check_case(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 0x5EED);
    }
}
