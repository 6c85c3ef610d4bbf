//! The tape optimizer's pressure reorder against a reference.
//!
//! `reference::reorder_for_pressure` is the list scheduler as first
//! written: every step rescans all nodes for the ready one with the
//! lowest pressure delta, and all nodes again to retire the emitted
//! node's reads. It is quadratic and obviously faithful to its rule. The
//! optimizer runs the same rule by wake-up/select. On a graph the
//! fold/CSE/DCE fixpoint leaves alone, the reorder is the optimizer's only
//! rewrite, so the optimized tape must equal the unoptimized tape of the
//! reference's reordered graph, instruction for instruction and with the
//! same source-node provenance.

use csfma::hls::{
    compile, compile_with, fuse_critical_paths, parse_program_with_ranges, to_source, Cdfg,
    CompileOptions, FmaKind, FusionConfig, NodeId, Op, Profiler,
};
use csfma::solvers::{generate_ldlsolve, solver_suite, KktSystem, LdlFactors};
use proptest::prelude::*;
use std::collections::HashSet;

mod reference {
    use csfma::hls::{Cdfg, NodeId, Op};

    /// Slot-pressure-aware list scheduling: emit ready nodes in the order
    /// that greedily minimizes the live-value count the linear-scan
    /// allocator will see (an emission frees one slot per dying argument and
    /// allocates one for its own result). Deterministic: ties break on the
    /// original node id, `Input` nodes keep their relative order and so do
    /// `Output` nodes. Also returns the old→new node map.
    pub fn reorder_for_pressure(g: &Cdfg) -> (Cdfg, Vec<NodeId>) {
        let nodes = g.nodes();
        let n = nodes.len();
        // remaining reads of each node's value
        let mut uses = vec![0usize; n];
        for node in nodes {
            for &a in &node.args {
                uses[a] += 1;
            }
        }
        let mut unmet: Vec<usize> = nodes.iter().map(|nd| nd.args.len()).collect();
        let inputs: Vec<NodeId> = (0..n)
            .filter(|&i| matches!(nodes[i].op, Op::Input(_)))
            .collect();
        let outputs: Vec<NodeId> = (0..n)
            .filter(|&i| matches!(nodes[i].op, Op::Output(_)))
            .collect();
        let (mut next_in, mut next_out) = (0usize, 0usize);
        let mut emitted = vec![false; n];
        let mut map = vec![usize::MAX; n];
        let mut out = Cdfg::new();

        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        while order.len() < n {
            // pick the ready node with the best (lowest) pressure delta
            let mut best: Option<(i64, NodeId)> = None;
            for id in 0..n {
                if emitted[id] || unmet[id] != 0 {
                    continue;
                }
                match nodes[id].op {
                    // positional layouts: only the next input/output may go
                    Op::Input(_) if inputs[next_in] != id => continue,
                    Op::Output(_) if outputs[next_out] != id => continue,
                    _ => {}
                }
                let allocs = i64::from(!matches!(nodes[id].op, Op::Output(_)));
                let mut frees = 0i64;
                // count dying arguments; a double-read (e.g. `x * x`) frees
                // its slot only once
                let args = &nodes[id].args;
                for (k, &a) in args.iter().enumerate() {
                    let reads_here = args.iter().filter(|&&b| b == a).count();
                    if args[..k].contains(&a) {
                        continue; // counted at its first occurrence
                    }
                    if uses[a] == reads_here {
                        frees += 1;
                    }
                }
                let delta = allocs - frees;
                if best.is_none_or(|(d, _)| delta < d) {
                    best = Some((delta, id));
                }
            }
            let (_, id) = best.expect("a checker-clean DAG always has a ready node");
            emitted[id] = true;
            for &a in &nodes[id].args {
                uses[a] -= 1;
            }
            for (uid, u) in nodes.iter().enumerate() {
                if !emitted[uid] {
                    unmet[uid] -= u.args.iter().filter(|&&a| a == id).count();
                }
            }
            match nodes[id].op {
                Op::Input(_) => next_in += 1,
                Op::Output(_) => next_out += 1,
                _ => {}
            }
            order.push(id);
        }
        for &id in &order {
            let args = nodes[id].args.iter().map(|&a| map[a]).collect();
            map[id] = out.push(nodes[id].op.clone(), args);
        }
        (out, map)
    }
}

/// Compare `compile(g)` with the unoptimized tape of the reference's
/// reordering of `g`. `Ok(false)` when the optimizer folded, merged or
/// dropped anything, so the reorder was not its only rewrite.
fn matches_reference(g: &Cdfg) -> Result<bool, String> {
    let tape = compile(g).map_err(|e| format!("compile: {e}"))?;
    let s = tape.opt_stats();
    if s.consts_folded + s.cse_merged + s.dead_removed + s.dead_slots_removed > 0 {
        return Ok(false);
    }
    let (reordered, map) = reference::reorder_for_pressure(g);
    let plain = compile_with(
        &reordered,
        CompileOptions {
            optimize: false,
            ..CompileOptions::default()
        },
        &mut Profiler::disabled(),
    )
    .map_err(|e| format!("compile the reference's graph: {e}"))?;
    let (got, want) = (tape.instrs(), plain.instrs());
    if let Some(i) = (0..got.len().min(want.len())).find(|&i| got[i] != want[i]) {
        return Err(format!(
            "instruction {i}: {:?} vs reference {:?}",
            got[i], want[i]
        ));
    }
    if got.len() != want.len() {
        return Err(format!(
            "{} instructions vs reference {}",
            got.len(),
            want.len()
        ));
    }
    let mut source = vec![0; map.len()];
    for (old, &new) in map.iter().enumerate() {
        source[new] = old;
    }
    if let Some(i) = (0..got.len())
        .find(|&i| tape.source_node_of(i) != plain.source_node_of(i).map(|n| source[n]))
    {
        return Err(format!("instruction {i} names a different source node"));
    }
    Ok(true)
}

/// Check `g` unfused and fused with each kind; the fixpoint must leave
/// all three alone.
fn check_all_forms(name: &str, g: Cdfg) {
    let pcs = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused;
    let fcs = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs)).fused;
    for (form, g) in ["", "-pcs", "-fcs"].iter().zip([g, pcs, fcs]) {
        match matches_reference(&g) {
            Ok(true) => {}
            Ok(false) => panic!("{name}{form}: the optimizer did more than reorder"),
            Err(e) => panic!("{name}{form}: {e}"),
        }
    }
}

fn ldlsolve(solver: usize) -> Cdfg {
    let kkt = KktSystem::assemble(&solver_suite()[solver]);
    generate_ldlsolve(&LdlFactors::factor(&kkt.matrix)).cdfg
}

#[test]
fn ldlsolve_s1_matches_the_reference() {
    check_all_forms("ldlsolve-s1", ldlsolve(0));
}

#[test]
#[ignore = "the larger kernels: ci.sh runs them with --include-ignored"]
fn ldlsolve_s2_and_s3_match_the_reference() {
    check_all_forms("ldlsolve-s2", ldlsolve(1));
    check_all_forms("ldlsolve-s3", ldlsolve(2));
}

#[test]
fn example_datapaths_match_the_reference() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/datapaths");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("examples/datapaths exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "csfma") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let (g, _) = parse_program_with_ranges(&src).expect("example datapaths parse");
        check_all_forms(&path.display().to_string(), g);
        checked += 1;
    }
    assert!(checked >= 4, "only {checked} example(s) found");
}

/// One generated step: what to add (an input, an `out`, an operator, a
/// square or a constant) and two picks among the values built so far.
type Step = (usize, prop::sample::Index, prop::sample::Index);

/// A graph in which inputs, constants and `out` nodes interleave with the
/// arithmetic, and every value nothing reads gets an `out` at the end.
/// Repeated operators and all-constant ones are skipped, so the
/// optimizer finds nothing to fold, merge or drop.
fn interleaved_graph(steps: &[Step]) -> Cdfg {
    let mut g = Cdfg::new();
    let mut vals: Vec<NodeId> = vec![g.input("i0")];
    let mut seen = HashSet::new();
    let (mut inputs, mut outs, mut consts) = (1, 0, 0);
    for (kind, ia, ib) in steps {
        let a = vals[ia.index(vals.len())];
        let b = vals[ib.index(vals.len())];
        let (op, args) = match kind % 9 {
            0 => {
                vals.push(g.input(format!("i{inputs}")));
                inputs += 1;
                continue;
            }
            1 => {
                g.output(format!("o{outs}"), a);
                outs += 1;
                continue;
            }
            2 => (Op::Add, vec![a, b]),
            3 => (Op::Sub, vec![a, b]),
            4 => (Op::Mul, vec![a, b]),
            5 => (Op::Div, vec![a, b]),
            6 => (Op::Neg, vec![a]),
            7 => (Op::Mul, vec![a, a]),
            _ => {
                vals.push(g.constant(1.5 + 0.75 * consts as f64));
                consts += 1;
                continue;
            }
        };
        let all_const = args
            .iter()
            .all(|&x| matches!(g.nodes()[x].op, Op::Const(_)));
        if all_const || !seen.insert(format!("{op:?}{args:?}")) {
            continue;
        }
        vals.push(g.push(op, args));
    }
    let mut read = vec![false; g.len()];
    for n in g.nodes() {
        for &a in &n.args {
            read[a] = true;
        }
    }
    for v in vals {
        if !read[v] {
            g.output(format!("o{outs}"), v);
            outs += 1;
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random dead-code-free graphs with interleaved inputs and outputs,
    /// repeated arguments and constants; half of them fused with one kind.
    /// Fusion can leave work for the fixpoint (the `Neg` it inserts for
    /// `b*c - a` folds when `a` is a constant), and such a case is
    /// skipped; an unfused one never is.
    #[test]
    fn random_graphs_match_the_reference(
        steps in prop::collection::vec((0usize..9, any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..60),
        fuse in 0usize..4,
    ) {
        let mut g = interleaved_graph(&steps);
        if fuse >= 2 {
            let kind = [FmaKind::Pcs, FmaKind::Fcs][fuse - 2];
            g = fuse_critical_paths(&g, &FusionConfig::new(kind)).fused;
        }
        match matches_reference(&g) {
            Ok(reordered_only) => prop_assert!(
                reordered_only || fuse >= 2,
                "the optimizer did more than reorder\n{}",
                to_source(&g)
            ),
            Err(e) => prop_assert!(false, "{}\n{}", e, to_source(&g)),
        }
    }
}
