//! The Fig. 12 fusion pass against a reference implementation.
//!
//! `reference::fuse` is the pass as first written: every trial rebuilds
//! the whole [`Cdfg`] three times (apply the candidate, cancel and share
//! conversions, drop dead nodes) through the public graph API, and every
//! candidate scan builds a full ASAP and a users-list ALAP schedule. It
//! is slow and obviously faithful to the paper's loop. `fuse_critical_paths` runs
//! the same loop on incremental timing (DESIGN.md §7 item 5); these tests
//! require the two to produce identical [`FusionReport`]s, node for node
//! and with equal trial counts.

use csfma::hls::interp::eval_bit_accurate;
use csfma::hls::{
    compile, fuse_critical_paths, parse_program, Cdfg, Domain, FmaKind, FusionConfig, FusionReport,
    Op, TapeBackend,
};
use csfma::solvers::{generate_ldlsolve, solver_suite, KktSystem, LdlFactors};
use proptest::prelude::*;
use std::collections::HashMap;

mod common;
use common::random_graph;

mod reference {
    use csfma::hls::{asap_schedule, Cdfg, FmaKind, FusionConfig, FusionReport, NodeId, Op};
    use csfma::hls::{OpTiming, Schedule};
    use std::collections::HashMap;

    struct Candidate {
        add_id: NodeId,
        a_arg: NodeId,
        negate_a: bool,
        b_arg: NodeId,
        negate_b: bool,
        c_arg: NodeId,
    }

    /// Latest start of every node that keeps the ASAP length.
    fn alap(g: &Cdfg, t: &OpTiming, asap: &Schedule) -> Vec<u32> {
        let users = g.users();
        let mut start = vec![0u32; g.len()];
        for id in (0..g.len()).rev() {
            let lat = t.latency(&g.nodes()[id].op);
            let mut latest = asap.length - lat;
            for &u in &users[id] {
                latest = latest.min(start[u].saturating_sub(lat));
            }
            start[id] = latest;
        }
        start
    }

    fn find_candidates(g: &Cdfg, t: &OpTiming) -> Vec<Candidate> {
        let s = asap_schedule(g, t);
        let late = alap(g, t, &s);
        let critical = |id: NodeId| s.start[id] == late[id];
        let finish = |id: NodeId| s.start[id] + t.latency(&g.nodes()[id].op);
        let mut out = Vec::new();
        for (add_id, n) in g.nodes().iter().enumerate() {
            let is_sub = match n.op {
                Op::Add => false,
                Op::Sub => true,
                _ => continue,
            };
            if !critical(add_id) {
                continue;
            }
            for (pos, &mul) in n.args.iter().enumerate() {
                if !matches!(g.nodes()[mul].op, Op::Mul) || !critical(mul) {
                    continue;
                }
                let (u, w) = (g.nodes()[mul].args[0], g.nodes()[mul].args[1]);
                let (b_arg, c_arg) = if finish(u) >= finish(w) {
                    (w, u)
                } else {
                    (u, w)
                };
                out.push(Candidate {
                    add_id,
                    a_arg: n.args[1 - pos],
                    negate_a: is_sub && pos == 0,
                    b_arg,
                    negate_b: is_sub && pos == 1,
                    c_arg,
                });
            }
        }
        out
    }

    /// Copy `g` with the candidate replaced by a conversion-wrapped FMA.
    fn apply(g: &Cdfg, c: &Candidate, kind: FmaKind) -> Cdfg {
        let mut out = Cdfg::new();
        let mut map: Vec<NodeId> = Vec::new();
        for (id, n) in g.nodes().iter().enumerate() {
            if id == c.add_id {
                let mut a = map[c.a_arg];
                if c.negate_a {
                    a = out.push(Op::Neg, vec![a]);
                }
                let a_cs = out.push(Op::IeeeToCs(kind), vec![a]);
                let c_cs = out.push(Op::IeeeToCs(kind), vec![map[c.c_arg]]);
                let negate_b = c.negate_b;
                let fma = out.push(Op::Fma { kind, negate_b }, vec![a_cs, map[c.b_arg], c_cs]);
                map.push(out.push(Op::CsToIeee(kind), vec![fma]));
            } else {
                let args = n.args.iter().map(|&a| map[a]).collect();
                map.push(out.push(n.op.clone(), args));
            }
        }
        out
    }

    /// Copy `g`, cancelling `IeeeToCs(CsToIeee(x))` of one kind to `x` and
    /// sharing conversions of one source, kind and direction.
    fn eliminate_conversions(g: &Cdfg) -> Cdfg {
        let mut out = Cdfg::new();
        let mut map: Vec<NodeId> = Vec::new();
        let mut cache: HashMap<(NodeId, FmaKind, bool), NodeId> = HashMap::new();
        for n in g.nodes() {
            let args: Vec<NodeId> = n.args.iter().map(|&a| map[a]).collect();
            let id = match n.op {
                Op::IeeeToCs(k) => match out.nodes()[args[0]].op {
                    Op::CsToIeee(k2) if k2 == k => out.nodes()[args[0]].args[0],
                    _ => *cache
                        .entry((args[0], k, true))
                        .or_insert_with(|| out.push(Op::IeeeToCs(k), args)),
                },
                Op::CsToIeee(k) => *cache
                    .entry((args[0], k, false))
                    .or_insert_with(|| out.push(Op::CsToIeee(k), args)),
                _ => out.push(n.op.clone(), args),
            };
            map.push(id);
        }
        out
    }

    pub fn fuse(g: &Cdfg, cfg: &FusionConfig) -> FusionReport {
        let t = &cfg.timing;
        let initial_length = asap_schedule(g, t).length;
        let mut cur = g.clone();
        let mut cur_length = initial_length;
        let (mut passes, mut trials) = (0, 0);
        'outer: while passes < cfg.max_passes {
            for cand in find_candidates(&cur, t) {
                trials += 1;
                let trial = eliminate_conversions(&apply(&cur, &cand, cfg.kind))
                    .eliminate_dead()
                    .0;
                let len = asap_schedule(&trial, t).length;
                if len <= cur_length {
                    cur = trial;
                    cur_length = len;
                    passes += 1;
                    continue 'outer;
                }
            }
            break;
        }
        FusionReport {
            final_length: asap_schedule(&cur, t).length,
            fma_nodes: cur.count_ops(|o| matches!(o, Op::Fma { .. })),
            fused: cur,
            initial_length,
            passes,
            trials,
        }
    }
}

/// Same op, with constants compared by bit pattern (NaN included).
fn same_op(a: &Op, b: &Op) -> bool {
    match (a, b) {
        (Op::Const(x), Op::Const(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Describe the first difference between two reports, if any.
fn report_diff(got: &FusionReport, want: &FusionReport) -> Option<String> {
    let counts = |r: &FusionReport| {
        (
            r.initial_length,
            r.final_length,
            r.fma_nodes,
            r.passes,
            r.trials,
        )
    };
    if counts(got) != counts(want) {
        return Some(format!(
            "(initial, final, fma_nodes, passes, trials) {:?} vs reference {:?}",
            counts(got),
            counts(want)
        ));
    }
    let (g, w) = (got.fused.nodes(), want.fused.nodes());
    if let Some(i) =
        (0..g.len().min(w.len())).find(|&i| !same_op(&g[i].op, &w[i].op) || g[i].args != w[i].args)
    {
        return Some(format!("node {i}: {:?} vs reference {:?}", g[i], w[i]));
    }
    (g.len() != w.len()).then(|| format!("{} nodes vs reference {}", g.len(), w.len()))
}

fn check_against_reference(g: &Cdfg, kind: FmaKind) -> Result<FusionReport, String> {
    check_config_against_reference(g, &FusionConfig::new(kind))
}

fn check_config_against_reference(g: &Cdfg, cfg: &FusionConfig) -> Result<FusionReport, String> {
    let got = fuse_critical_paths(g, cfg);
    match report_diff(&got, &reference::fuse(g, cfg)) {
        Some(d) => Err(format!(
            "{:?}, max_passes {}: {d}",
            cfg.kind, cfg.max_passes
        )),
        None => Ok(got),
    }
}

/// Both kinds on `g`, then each result re-fused with the other kind.
fn check_all_orders(g: &Cdfg) -> Result<(), String> {
    for (first, second) in [(FmaKind::Pcs, FmaKind::Fcs), (FmaKind::Fcs, FmaKind::Pcs)] {
        let once = check_against_reference(g, first)?;
        check_against_reference(&once.fused, second)
            .map_err(|e| format!("re-fusing the {first:?} result: {e}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random graphs with dead nodes, negations, subtractions with the
    /// multiply on either side, divisions and constants, fused with each
    /// kind and re-fused with the other.
    #[test]
    fn fused_graphs_match_the_reference_node_for_node(
        n_inputs in 1usize..5,
        consts in prop::collection::vec(-4.0f64..4.0, 0..3),
        ops in prop::collection::vec((0usize..5, any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..40),
        extra_out: prop::sample::Index,
    ) {
        let g = random_graph(n_inputs, &consts, &ops, extra_out);
        if let Err(e) = check_all_orders(&g) {
            prop_assert!(false, "{}\n{}", e, csfma::hls::to_source(&g));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The generator above at 20,000 cases. Rare graph shapes, such as
    /// the one in `a_later_conversion_moves_to_the_new_fma`, first show
    /// up at this scale.
    #[test]
    #[ignore = "20,000 cases: ci.sh runs them with --include-ignored"]
    fn fused_graphs_match_the_reference_at_20000_cases(
        n_inputs in 1usize..5,
        consts in prop::collection::vec(-4.0f64..4.0, 0..3),
        ops in prop::collection::vec((0usize..5, any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..40),
        extra_out: prop::sample::Index,
    ) {
        let g = random_graph(n_inputs, &consts, &ops, extra_out);
        if let Err(e) = check_all_orders(&g) {
            prop_assert!(false, "{}\n{}", e, csfma::hls::to_source(&g));
        }
    }
}

/// The dead `t5` chain sets the initial length (69), so `t4` fuses first,
/// in a pass that also drops the chain. Then `t3` fuses, and the
/// conversion of its `C` operand already sits later in the order, where
/// `t4`'s FMA reads it: it moves to just before the new FMA.
const MOVED_CONVERSION: &str = "t0 = i1 / i0; t1 = t0 + t0; t2 = t1 * i1; t3 = i0 + t2; \
    t4 = t1 + t2; t5 = t4 / t0; t12 = t3 * t4; out last = t12;";

#[test]
fn a_later_conversion_moves_to_the_new_fma() {
    check_all_orders(&parse_program(MOVED_CONVERSION).unwrap()).unwrap();
}

/// A hand-built graph may convert a sum to carry-save and straight back.
/// Once `s2` fuses, its `IeeeToCs` cancels, so the `CsToIeee` after it
/// reads the new FMA and must merge into the FMA's own `CsToIeee`, which
/// output `z` keeps alive.
#[test]
fn a_conversion_round_trip_merges_into_the_new_fma() {
    let mut g = Cdfg::new();
    let [a, b, c, d, e] = ["a", "b", "c", "d", "e"].map(|n| g.input(n));
    let m1 = g.mul(a, b);
    let s1 = g.add(m1, c);
    let m2 = g.mul(s1, d);
    let s2 = g.add(m2, e);
    g.output("z", s2);
    let cs = g.push(Op::IeeeToCs(FmaKind::Pcs), vec![s2]);
    let back = g.push(Op::CsToIeee(FmaKind::Pcs), vec![cs]);
    g.output("y", back);
    check_all_orders(&g).unwrap();
}

/// A pass cut short by `max_passes` leaves the reference's graph, node
/// for node, wherever it stops.
#[test]
fn max_passes_stops_mid_way_identically() {
    for g in [ldlsolve(0), parse_program(MOVED_CONVERSION).unwrap()] {
        for kind in [FmaKind::Pcs, FmaKind::Fcs] {
            for max_passes in [0, 1, 2, 17, 61] {
                let cfg = FusionConfig {
                    max_passes,
                    ..FusionConfig::new(kind)
                };
                check_config_against_reference(&g, &cfg).unwrap();
            }
        }
    }
}

fn ldlsolve(solver: usize) -> Cdfg {
    let kkt = KktSystem::assemble(&solver_suite()[solver]);
    generate_ldlsolve(&LdlFactors::factor(&kkt.matrix)).cdfg
}

/// Equal reports with equal trial counts: the pass tried the same
/// candidates in the same order as the reference.
#[test]
fn ldlsolve_s1_matches_the_reference() {
    for (kind, trials) in [(FmaKind::Pcs, 136), (FmaKind::Fcs, 67)] {
        let rep = check_against_reference(&ldlsolve(0), kind).unwrap();
        assert_eq!(rep.trials, trials, "{kind:?}");
    }
}

#[test]
#[ignore = "the larger kernels: ci.sh runs them with --include-ignored"]
fn ldlsolve_s2_and_s3_match_the_reference() {
    for (solver, trials) in [(1, [276, 131]), (2, [416, 195])] {
        for (kind, trials) in [FmaKind::Pcs, FmaKind::Fcs].into_iter().zip(trials) {
            let rep = check_against_reference(&ldlsolve(solver), kind).unwrap();
            assert_eq!(rep.trials, trials, "ldlsolve-s{} {kind:?}", solver + 1);
        }
    }
}

/// Carry-save format of a node's CS result or CS ports.
fn cs_kind(op: &Op) -> Option<FmaKind> {
    match op {
        Op::Fma { kind, .. } | Op::IeeeToCs(kind) | Op::CsToIeee(kind) => Some(*kind),
        _ => None,
    }
}

/// Re-fusing with the other kind used to share one `IeeeToCs` between an
/// FMA of each kind, so one of them read its operand in the wrong
/// carry-save format.
#[test]
fn refusion_never_shares_a_conversion_across_kinds() {
    let src = "t0 = a - b; y1 = t0*b + a*a; y2 = a*t0 - c; out p = y1; out q = y2;";
    let g = parse_program(src).unwrap();
    let ins: HashMap<String, f64> = [("a", 1.75), ("b", -0.625), ("c", 2.5)]
        .iter()
        .map(|&(k, v)| (k.to_string(), v))
        .collect();
    for (first, second) in [(FmaKind::Pcs, FmaKind::Fcs), (FmaKind::Fcs, FmaKind::Pcs)] {
        let once = fuse_critical_paths(&g, &FusionConfig::new(first)).fused;
        let twice = fuse_critical_paths(&once, &FusionConfig::new(second)).fused;
        let nodes = twice.nodes();
        for (id, n) in nodes.iter().enumerate() {
            for &a in &n.args {
                if nodes[a].op.domain() == Domain::Cs {
                    assert_eq!(
                        cs_kind(&n.op),
                        cs_kind(&nodes[a].op),
                        "{first:?} then {second:?}: node {id} {:?} reads node {a} {:?}",
                        n.op,
                        nodes[a].op
                    );
                }
            }
        }
        let tape = compile(&twice).expect("the re-fused graph passes the gate");
        let row: Vec<f64> = tape.input_names().iter().map(|n| ins[n]).collect();
        let mut got = vec![0.0; tape.num_outputs()];
        tape.eval_row(TapeBackend::BitAccurate, &row, &mut got);
        let want = eval_bit_accurate(&twice, &ins);
        for (name, v) in tape.output_names().iter().zip(&got) {
            assert_eq!(
                v.to_bits(),
                want[name].to_bits(),
                "{first:?} then {second:?}: {name}"
            );
        }
    }
}
