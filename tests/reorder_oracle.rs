//! The tape optimizer against a reference that runs each pass the plain
//! way.
//!
//! `reference::optimize` runs the fold/CSE/DCE fixpoint with every pass
//! rebuilding the graph and CSE keyed by each node's canonical encoding
//! as bytes in a `HashMap<Vec<u8>, NodeId>`, then the pressure reorder
//! as a full rescan: every step scans all nodes for the ready one with
//! the lowest pressure delta, and all nodes again to retire the emitted
//! node's reads. It is quadratic and obviously faithful to its rules.
//! `reference::eliminate_dead_slots` is the dead-slot sweep over
//! `Tape::instrs()` with `HashSet` liveness. The optimized tape
//! (`compile`) must equal the unoptimized tape of the reference's
//! optimized graph after the reference sweep, instruction for
//! instruction, with the same source-node provenance, constant pool,
//! slot counts and optimizer counts.

use csfma::hls::{
    compile, compile_with, fuse_critical_paths, parse_program_with_ranges, to_source, to_tape_view,
    Cdfg, CompileOptions, FmaKind, FusionConfig, NodeId, Op, OptStats, Profiler, Tape,
};
use csfma::solvers::{generate_ldlsolve, solver_suite, KktSystem, LdlFactors};
use proptest::prelude::*;
use std::collections::HashSet;

mod reference {
    use csfma::hls::{Cdfg, FmaKind, Instr, NodeId, Op};
    use csfma::softfloat::batch as sfb;
    use std::collections::{HashMap, HashSet};

    /// What the fixpoint did: (folded, merged, dead) node counts.
    pub type Counts = (usize, usize, usize);

    /// Fold + CSE + DCE to a bounded fixpoint, then the reorder. Returns
    /// the optimized graph, the source node each of its nodes descends
    /// from, and the fixpoint's counts.
    pub fn optimize(g: &Cdfg) -> (Cdfg, Vec<usize>, Counts) {
        let mut cur = g.clone();
        let mut origin: Vec<usize> = (0..g.len()).collect();
        let compose = |origin: &[usize], map: &[NodeId], new_len: usize| -> Vec<usize> {
            let mut next = vec![usize::MAX; new_len];
            for (old, &new) in map.iter().enumerate() {
                if new != usize::MAX && next[new] == usize::MAX {
                    next[new] = origin[old];
                }
            }
            next
        };
        let mut counts = (0, 0, 0);
        for _ in 0..8 {
            let (next, folded, merged, map) = fold_and_cse(&cur);
            origin = compose(&origin, &map, next.len());
            cur = next;
            let (next, removed, map) = eliminate_dead_keep_inputs(&cur);
            origin = compose(&origin, &map, next.len());
            cur = next;
            counts.0 += folded;
            counts.1 += merged;
            counts.2 += removed;
            if folded == 0 && merged == 0 && removed == 0 {
                break;
            }
        }
        let (cur, map) = reorder_for_pressure(&cur);
        let origin = compose(&origin, &map, cur.len());
        (cur, origin, counts)
    }

    fn is_canonical(v: f64) -> bool {
        v.to_bits() == sfb::canonicalize(v).to_bits()
    }

    fn const_of(g: &Cdfg, id: NodeId) -> Option<f64> {
        match g.nodes()[id].op {
            Op::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Fold an all-constant node when the host result is bit-identical
    /// to the hosted soft-float result on canonical operands.
    fn try_fold(out: &Cdfg, op: &Op, args: &[NodeId]) -> Option<f64> {
        let (plain, hosted) = match op {
            Op::Add | Op::Sub | Op::Mul | Op::Div => {
                let a = const_of(out, args[0])?;
                let b = const_of(out, args[1])?;
                if !is_canonical(a) || !is_canonical(b) {
                    return None;
                }
                let fb = &mut 0;
                match op {
                    Op::Add => (a + b, sfb::hosted_add(a, b, fb)),
                    Op::Sub => (a - b, sfb::hosted_sub(a, b, fb)),
                    Op::Mul => (a * b, sfb::hosted_mul(a, b, fb)),
                    _ => (a / b, sfb::hosted_div(a, b, fb)),
                }
            }
            Op::Neg => {
                let a = const_of(out, args[0])?;
                if !is_canonical(a) {
                    return None;
                }
                (-a, sfb::hosted_neg(a))
            }
            _ => return None,
        };
        (plain.to_bits() == hosted.to_bits()).then_some(plain)
    }

    /// The canonical encoding of one node, as the tape cache keys it.
    fn encode_node(buf: &mut Vec<u8>, op: &Op, args: &[NodeId]) {
        let push_str = |buf: &mut Vec<u8>, s: &str| {
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        };
        let kind_tag = |k: FmaKind| match k {
            FmaKind::Pcs => 0u8,
            FmaKind::Fcs => 1u8,
        };
        match op {
            Op::Input(name) => {
                buf.push(0);
                push_str(buf, name);
            }
            Op::Const(v) => {
                buf.push(1);
                buf.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Op::Add => buf.push(2),
            Op::Sub => buf.push(3),
            Op::Mul => buf.push(4),
            Op::Div => buf.push(5),
            Op::Neg => buf.push(6),
            Op::Fma { kind, negate_b } => {
                buf.push(7);
                buf.push(kind_tag(*kind));
                buf.push(*negate_b as u8);
            }
            Op::IeeeToCs(kind) => {
                buf.push(8);
                buf.push(kind_tag(*kind));
            }
            Op::CsToIeee(kind) => {
                buf.push(9);
                buf.push(kind_tag(*kind));
            }
            Op::Output(name) => {
                buf.push(10);
                push_str(buf, name);
            }
        }
        for &a in args {
            buf.extend_from_slice(&(a as u32).to_le_bytes());
        }
    }

    /// One forward pass: fold, then merge nodes with byte-equal
    /// encodings. Always rebuilds the graph.
    fn fold_and_cse(g: &Cdfg) -> (Cdfg, usize, usize, Vec<NodeId>) {
        let mut out = Cdfg::new();
        let mut map: Vec<NodeId> = Vec::with_capacity(g.len());
        let mut seen: HashMap<Vec<u8>, NodeId> = HashMap::new();
        let (mut folded, mut merged) = (0usize, 0usize);
        for n in g.nodes() {
            let mut args: Vec<NodeId> = n.args.iter().map(|&a| map[a]).collect();
            if let Op::Output(_) = n.op {
                map.push(out.push(n.op.clone(), args));
                continue;
            }
            let op = match try_fold(&out, &n.op, &args) {
                Some(v) => {
                    folded += 1;
                    args.clear();
                    Op::Const(v)
                }
                None => n.op.clone(),
            };
            let mut key = Vec::new();
            encode_node(&mut key, &op, &args);
            if let Some(&prev) = seen.get(&key) {
                merged += 1;
                map.push(prev);
                continue;
            }
            let id = out.push(op, args);
            seen.insert(key, id);
            map.push(id);
        }
        (out, folded, merged, map)
    }

    /// Drop nodes neither an output nor an input reaches (`usize::MAX`
    /// in the map). Always rebuilds the graph.
    fn eliminate_dead_keep_inputs(g: &Cdfg) -> (Cdfg, usize, Vec<NodeId>) {
        let mut live = vec![false; g.len()];
        let mut stack: Vec<NodeId> = g.outputs();
        for (id, n) in g.nodes().iter().enumerate() {
            if matches!(n.op, Op::Input(_)) {
                stack.push(id);
            }
        }
        while let Some(id) = stack.pop() {
            if live[id] {
                continue;
            }
            live[id] = true;
            stack.extend(g.nodes()[id].args.iter().copied());
        }
        let mut map = vec![usize::MAX; g.len()];
        let mut out = Cdfg::new();
        for (id, n) in g.nodes().iter().enumerate() {
            if live[id] {
                let args = n.args.iter().map(|&a| map[a]).collect();
                map[id] = out.push(n.op.clone(), args);
            }
        }
        (out, live.iter().filter(|&&l| !l).count(), map)
    }

    /// Backward liveness over a lowered tape: drop every instruction
    /// whose destination is not read before its next definition and that
    /// feeds no `Store`. Returns the removed count.
    pub fn eliminate_dead_slots(instrs: &mut Vec<Instr>, nodes: &mut Vec<usize>) -> usize {
        let mut live_f: HashSet<u32> = HashSet::new();
        let mut live_cs: HashSet<u32> = HashSet::new();
        let before = instrs.len();
        let mut kept: Vec<(Instr, usize)> = Vec::new();
        for (ins, node) in instrs.drain(..).zip(nodes.drain(..)).rev() {
            let live = match ins {
                Instr::Store { .. } => true,
                Instr::Fma { dst, .. } | Instr::IeeeToCs { dst, .. } => live_cs.remove(&dst),
                Instr::LoadInput { dst, .. }
                | Instr::LoadConst { dst, .. }
                | Instr::Add { dst, .. }
                | Instr::Sub { dst, .. }
                | Instr::Mul { dst, .. }
                | Instr::Div { dst, .. }
                | Instr::Neg { dst, .. }
                | Instr::CsToIeee { dst, .. } => live_f.remove(&dst),
            };
            if !live {
                continue;
            }
            match ins {
                Instr::LoadInput { .. } | Instr::LoadConst { .. } => {}
                Instr::Add { a, b, .. }
                | Instr::Sub { a, b, .. }
                | Instr::Mul { a, b, .. }
                | Instr::Div { a, b, .. } => {
                    live_f.insert(a);
                    live_f.insert(b);
                }
                Instr::Neg { a, .. } => {
                    live_f.insert(a);
                }
                Instr::Fma { acc, b, mulc, .. } => {
                    live_cs.insert(acc);
                    live_cs.insert(mulc);
                    live_f.insert(b);
                }
                Instr::IeeeToCs { src, .. } | Instr::Store { src, .. } => {
                    live_f.insert(src);
                }
                Instr::CsToIeee { src, .. } => {
                    live_cs.insert(src);
                }
            }
            kept.push((ins, node));
        }
        kept.reverse();
        let (kept_instrs, kept_nodes): (Vec<_>, Vec<_>) = kept.into_iter().unzip();
        *instrs = kept_instrs;
        *nodes = kept_nodes;
        before - instrs.len()
    }

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

/// The bit patterns of a tape's constant pool.
fn const_bits(t: &Tape) -> Vec<u64> {
    to_tape_view(t).consts.iter().map(|c| c.to_bits()).collect()
}

/// Compare `compile(g)` with the unoptimized tape of the reference's
/// optimized graph after the reference dead-slot sweep. Returns the
/// optimized tape's counts.
fn matches_reference(g: &Cdfg) -> Result<OptStats, String> {
    let tape = compile(g).map_err(|e| format!("compile: {e}"))?;
    let (optimized, origin, (folded, merged, dead)) = reference::optimize(g);
    let plain = compile_with(
        &optimized,
        CompileOptions {
            optimize: false,
            ..CompileOptions::default()
        },
        &mut Profiler::disabled(),
    )
    .map_err(|e| format!("compile the reference's graph: {e}"))?;
    let mut want = plain.instrs().to_vec();
    let mut source: Vec<usize> = (0..want.len())
        .map(|i| origin[plain.source_node_of(i).unwrap()])
        .collect();
    let dead_slots = reference::eliminate_dead_slots(&mut want, &mut source);
    let got = tape.instrs();
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
    if let Some(i) = (0..got.len()).find(|&i| tape.source_node_of(i) != Some(source[i])) {
        return Err(format!("instruction {i} names a different source node"));
    }
    let s = tape.opt_stats();
    let got_counts = (
        s.nodes_after,
        s.consts_folded,
        s.cse_merged,
        s.dead_removed,
        s.dead_slots_removed,
        s.slots_reclaimed,
        tape.num_f64_regs(),
        tape.num_cs_regs(),
        tape.input_names(),
        tape.output_names(),
        const_bits(&tape),
    );
    let want_counts = (
        optimized.len(),
        folded,
        merged,
        dead,
        dead_slots,
        plain.opt_stats().slots_reclaimed,
        plain.num_f64_regs(),
        plain.num_cs_regs(),
        plain.input_names(),
        plain.output_names(),
        const_bits(&plain),
    );
    if got_counts != want_counts {
        return Err(format!(
            "(nodes, folded, merged, dead, dead slots, slots reclaimed, f64 slots, cs slots, \
             inputs, outputs, constant bits) {got_counts:?} vs reference {want_counts:?}"
        ));
    }
    Ok(s)
}

/// Check `g` unfused and fused with each kind.
fn check_all_forms(name: &str, g: Cdfg) {
    let pcs = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused;
    let fcs = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs)).fused;
    for (form, g) in ["", "-pcs", "-fcs"].iter().zip([g, pcs, fcs]) {
        if let Err(e) = matches_reference(&g) {
            panic!("{name}{form}: {e}");
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
/// square, a constant, and in planted mode a repeated operator or an
/// operator over constants) and two picks among the values built so far
/// (taken modulo their count).
type Step = (usize, usize, usize);

/// Constants of the planted mode: ordinary values, signed zeros, an
/// infinity (`0 * inf` must not fold), a subnormal (loaded flushed to
/// zero, so never folded) and a value whose products overflow.
const PLANTED_CONSTS: [f64; 8] = [
    1.5,
    2.0,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::MIN_POSITIVE / 2.0,
    1e300,
    0.1,
];

/// A graph in which inputs, constants and `out` nodes interleave with the
/// arithmetic. By default repeated operators and all-constant ones are
/// skipped and every value nothing reads gets an `out` at the end, so the
/// optimizer finds nothing to fold, merge or drop. `planted` plants work
/// for it instead: input names repeat, constants come from
/// [`PLANTED_CONSTS`], operators are repeated verbatim or applied to
/// constants, and every third value nothing reads stays dead.
fn interleaved_graph(steps: &[Step], planted: bool) -> Cdfg {
    let mut g = Cdfg::new();
    let mut vals: Vec<NodeId> = vec![g.input("i0")];
    let mut operators: Vec<NodeId> = Vec::new();
    let mut seen = HashSet::new();
    let (mut inputs, mut outs, mut consts) = (1, 0, 0);
    for &(kind, ia, ib) in steps {
        let a = vals[ia % vals.len()];
        let b = vals[ib % vals.len()];
        let (op, args) = match kind % if planted { 11 } else { 9 } {
            0 => {
                let name = if planted { ia % (inputs + 1) } else { inputs };
                vals.push(g.input(format!("i{name}")));
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
            8 => {
                let v = if planted {
                    PLANTED_CONSTS[ia % PLANTED_CONSTS.len()]
                } else {
                    1.5 + 0.75 * consts as f64
                };
                vals.push(g.constant(v));
                consts += 1;
                continue;
            }
            9 => {
                if operators.is_empty() {
                    continue;
                }
                let n = &g.nodes()[operators[ia % operators.len()]];
                (n.op.clone(), n.args.clone())
            }
            _ => {
                let cs: Vec<NodeId> = vals
                    .iter()
                    .copied()
                    .filter(|&v| matches!(g.nodes()[v].op, Op::Const(_)))
                    .collect();
                if cs.is_empty() {
                    continue;
                }
                let (x, y) = (cs[ia % cs.len()], cs[ib % cs.len()]);
                match (ia ^ ib) % 5 {
                    0 => (Op::Add, vec![x, y]),
                    1 => (Op::Sub, vec![x, y]),
                    2 => (Op::Mul, vec![x, y]),
                    3 => (Op::Div, vec![x, y]),
                    _ => (Op::Neg, vec![x]),
                }
            }
        };
        if !planted {
            let all_const = args
                .iter()
                .all(|&x| matches!(g.nodes()[x].op, Op::Const(_)));
            if all_const || !seen.insert(format!("{op:?}{args:?}")) {
                continue;
            }
        }
        let id = g.push(op, args);
        vals.push(id);
        operators.push(id);
    }
    let mut read = vec![false; g.len()];
    for n in g.nodes() {
        for &a in &n.args {
            read[a] = true;
        }
    }
    for (k, v) in vals.into_iter().enumerate() {
        let stays_dead = planted && k % 3 == 0;
        if !read[v] && !stays_dead {
            g.output(format!("o{outs}"), v);
            outs += 1;
        }
    }
    g
}

/// SplitMix64 steps for the planted mode, so a case is a seed.
fn seeded_steps(seed: u64) -> Vec<Step> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    };
    let len = 1 + next() % 60;
    (0..len).map(|_| (next() % 11, next(), next())).collect()
}

/// A planted graph, fused with one kind for `fuse` 2 and 3.
fn planted_case(seed: u64, fuse: usize) -> Cdfg {
    let g = interleaved_graph(&seeded_steps(seed), true);
    match fuse {
        2 => fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused,
        3 => fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs)).fused,
        _ => g,
    }
}

/// The planted mode gives every rewrite work: over 400 cases each of
/// folding, merging, dead-node removal and dead-slot removal fires, and
/// is compared with the reference.
#[test]
fn planted_graphs_exercise_every_rewrite() {
    let mut fired = [0usize; 4];
    for seed in 0..400u64 {
        let g = planted_case(seed, (seed % 4) as usize);
        let s = matches_reference(&g).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for (count, hit) in [
            s.consts_folded,
            s.cse_merged,
            s.dead_removed,
            s.dead_slots_removed,
        ]
        .into_iter()
        .zip(&mut fired)
        {
            *hit += usize::from(count > 0);
        }
    }
    assert!(
        fired.iter().all(|&n| n >= 40),
        "cases that folded, merged, removed dead nodes, removed dead slots: {fired:?} of 400"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random dead-code-free graphs with interleaved inputs and outputs,
    /// repeated arguments and constants; half of them fused with one kind.
    /// Fusion can leave work for the fixpoint (the `Neg` it inserts for
    /// `b*c - a` folds when `a` is a constant); such a case is compared
    /// like any other.
    #[test]
    fn random_graphs_match_the_reference(
        steps in prop::collection::vec((0usize..9, any::<usize>(), any::<usize>()), 1..60),
        fuse in 0usize..4,
    ) {
        let mut g = interleaved_graph(&steps, false);
        if fuse >= 2 {
            let kind = [FmaKind::Pcs, FmaKind::Fcs][fuse - 2];
            g = fuse_critical_paths(&g, &FusionConfig::new(kind)).fused;
        }
        match matches_reference(&g) {
            Ok(s) => {
                let rewrites = s.consts_folded + s.cse_merged + s.dead_removed + s.dead_slots_removed;
                prop_assert!(
                    rewrites == 0 || fuse >= 2,
                    "the optimizer did more than reorder an unfused graph\n{}",
                    to_source(&g)
                );
            }
            Err(e) => prop_assert!(false, "{}\n{}", e, to_source(&g)),
        }
    }

    /// Graphs with planted constant subtrees, repeated subexpressions,
    /// repeated input names and dead nodes, half of them fused.
    #[test]
    fn planted_graphs_match_the_reference(seed: u64, fuse in 0usize..4) {
        let g = planted_case(seed, fuse);
        if let Err(e) = matches_reference(&g) {
            prop_assert!(false, "{}\n{}", e, to_source(&g));
        }
    }
}
