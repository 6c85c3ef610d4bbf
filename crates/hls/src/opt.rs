//! Post-gate tape optimizer: constant folding, common-subexpression
//! elimination over the canonical node encoding, dead-node elimination
//! and slot-pressure-aware reordering.
//!
//! [`compile`](crate::compile::compile) runs this pipeline **after** the
//! `D*`/`S*`/`W*` checker gate, so an optimized tape is always derived
//! from a graph the checker accepted, and the optimizer re-validates its
//! own result — optimized tapes stay checker-clean by construction.
//!
//! Every rewrite must preserve the tape's bit semantics bit for bit.
//! All three tape backends share them: loads are canonicalized (flush to
//! zero), IEEE operators round as soft float does, fused nodes run the
//! behavioral carry-save units, and every NaN is the one canonical NaN.
//!
//! * **Constant folding** only fires when the operand bit patterns are
//!   canonical FTZ doubles (the values the backends load, so the fold
//!   reads the same *inputs*) and the host result is bit-identical to the
//!   hosted soft-float result (so the folded constant is the *output* the
//!   backends compute). NaN-producing folds (`0 * inf`, `0/0`) and
//!   flush-to-zero boundary results fail that comparison and stay in the
//!   tape. Algebraic identities (`x * 1.0`, `x + 0.0`) are never applied:
//!   they are not bitwise identities — `-0 + 0` is `+0`, for one.
//! * **CSE** merges nodes whose canonical encodings (operation tag,
//!   constant bits, input name, FMA kind/negation, remapped argument
//!   ids) are byte-equal. Argument order is *not* commuted. With one
//!   canonical NaN, `a + b` and `b + a` give the same bits, so commuting
//!   would be safe; it is not done.
//! * **Dead-node elimination** drops nodes no output depends on but
//!   keeps every `Input` node, so the positional input layout of the
//!   optimized tape is byte-compatible with the unoptimized one.
//! * **Reordering** list-schedules the graph so values die close to
//!   their birth (greedy minimum register-pressure delta). Execution
//!   order of pure operators cannot change any row's value; it only
//!   changes how many slots the linear-scan allocator needs. `Input`
//!   nodes keep their relative order (positional input layout) and so do
//!   `Output` nodes (positional output layout).

use crate::cdfg::{Cdfg, Node, NodeId, Op};
use crate::compile::encode_node;
use csfma_softfloat::batch as sfb;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// What the optimizer did to a graph, recorded on the compiled tape for
/// benchmark attribution (`bench::throughput` emits these).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OptStats {
    /// Node count before optimization.
    pub nodes_before: usize,
    /// Node count after optimization.
    pub nodes_after: usize,
    /// Nodes replaced by a folded constant.
    pub consts_folded: usize,
    /// Nodes merged into an identical earlier node.
    pub cse_merged: usize,
    /// Dead (non-input) nodes removed.
    pub dead_removed: usize,
    /// Tape instructions removed by dead-slot elimination after lowering.
    pub dead_slots_removed: usize,
    /// Register slots the linear-scan allocator reused from the free
    /// list during lowering (each reuse is one slot of peak pressure
    /// avoided; the `T001`/`T005` tape rules prove every reuse safe).
    pub slots_reclaimed: usize,
    /// Wall time of the graph optimizer plus the dead-slot sweep,
    /// microseconds; 0 when the optimizer is off.
    pub optimize_us: f64,
    /// Tape-cache hits at the moment this tape was compiled and cached.
    pub cache_hits: u64,
    /// Tape-cache misses at the moment this tape was compiled and cached.
    pub cache_misses: u64,
    /// Tape-cache LRU evictions at the moment this tape was compiled.
    pub cache_evictions: u64,
}

/// Run the full post-gate pipeline: fold + CSE + DCE to a bounded
/// fixpoint, then one pressure-aware reorder. The input graph must be
/// checker-clean; the output graph is re-validated.
///
/// The third return value is the provenance map: for each node of the
/// optimized graph, the id of the *source-graph* node it descends from
/// (the CSE representative's creator for merged nodes). The compiler
/// threads it onto the tape so executor diagnostics — in particular
/// quarantined rows in the robust batch path — can name the offending
/// source node.
pub(crate) fn optimize_graph(g: &Cdfg) -> (Cdfg, OptStats, Vec<u32>) {
    let mut stats = OptStats {
        nodes_before: g.len(),
        ..Default::default()
    };
    let mut cur = Cow::Borrowed(g);
    // origin[new_id] = source-graph id, composed across every pass
    let mut origin: Vec<u32> = (0..g.len() as u32).collect();
    let compose = |origin: &[u32], map: &[NodeId], new_len: usize| -> Vec<u32> {
        let mut next = vec![u32::MAX; new_len];
        for (old, &new) in map.iter().enumerate() {
            if new != usize::MAX && next[new] == u32::MAX {
                next[new] = origin[old];
            }
        }
        next
    };
    for _ in 0..8 {
        let (next, folded, merged, map) = fold_and_cse(&cur);
        origin = compose(&origin, &map, next.len());
        cur = Cow::Owned(next);
        let mut removed = 0;
        if let Some((next, n, map)) = eliminate_dead_keep_inputs(&cur) {
            origin = compose(&origin, &map, next.len());
            cur = Cow::Owned(next);
            removed = n;
        }
        stats.consts_folded += folded;
        stats.cse_merged += merged;
        stats.dead_removed += removed;
        if folded == 0 && merged == 0 && removed == 0 {
            break;
        }
    }
    let (cur, map) = reorder_for_pressure(&cur);
    let origin = compose(&origin, &map, cur.len());
    // post-gate invariant: the optimized graph must still be checker-clean
    cur.validate();
    crate::lint::debug_assert_dataflow_clean(
        &cur,
        &crate::sched::OpTiming::default(),
        "post-gate optimizer result",
    );
    stats.nodes_after = cur.len();
    debug_assert!(origin.iter().all(|&o| (o as usize) < g.len()));
    (cur, stats, origin)
}

/// True when `v`'s bit pattern is a canonical FTZ double — a constant the
/// tape loads unchanged.
fn is_canonical(v: f64) -> bool {
    v.to_bits() == sfb::canonicalize(v).to_bits()
}

fn const_of(g: &Cdfg, id: NodeId) -> Option<f64> {
    match g.nodes()[id].op {
        Op::Const(v) => Some(v),
        _ => None,
    }
}

/// Try to fold an all-constant node. Returns the folded value only when
/// replacing the computation with a `Const` preserves the bit semantics
/// bit for bit (see module docs for the argument).
fn try_fold(out: &Cdfg, op: &Op, args: &[NodeId]) -> Option<f64> {
    let (plain, hosted) = match op {
        Op::Add | Op::Sub | Op::Mul | Op::Div => {
            let a = const_of(out, args[0])?;
            let b = const_of(out, args[1])?;
            if !is_canonical(a) || !is_canonical(b) {
                return None;
            }
            // the bit comparison below decides; the fallback tally is unused
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

/// One forward rewrite pass: fold all-constant nodes, then merge nodes
/// with byte-equal canonical encodings. Returns the rewritten graph, the
/// (folded, merged) counts, and the old→new node map.
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
        // the CSE identity: the tape-cache key's bytes for this node, with
        // argument ids already remapped into the output graph
        let mut key = Vec::with_capacity(8 + 4 * args.len());
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

/// Dead-node elimination rooted at the outputs **and every input**:
/// removing an unused `Input` would change the tape's positional row
/// layout, which must stay byte-compatible with the unoptimized tape.
/// Returns the pruned graph, the removed count and the old→new node map,
/// or `None` when every node is live.
fn eliminate_dead_keep_inputs(g: &Cdfg) -> Option<(Cdfg, usize, Vec<NodeId>)> {
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
    let removed = live.iter().filter(|&&l| !l).count();
    if removed == 0 {
        return None;
    }
    let mut map = vec![usize::MAX; g.len()];
    let mut out = Cdfg::new();
    for (id, n) in g.nodes().iter().enumerate() {
        if live[id] {
            let args = n.args.iter().map(|&a| map[a]).collect();
            map[id] = out.push(n.op.clone(), args);
        }
    }
    Some((out, removed, map))
}

/// Slot-pressure-aware list scheduling: emit ready nodes in the order
/// that greedily minimizes the live-value count the linear-scan
/// allocator will see (an emission frees one slot per dying argument and
/// allocates one for its own result). Every step emits the ready node
/// with the lowest pressure delta, ties on the lowest original id;
/// `Input` nodes keep their relative order and so do `Output` nodes.
/// Also returns the old→new node map.
///
/// Wake-up/select, O(n log n): emitting a node wakes only its own users,
/// found in a CSR users list, and select pops the lowest `(delta, id)`
/// from a [`ReadySet`]. A ready node's delta only ever falls, when an
/// argument's remaining reads reach its own reads of it (at most 3), so
/// only the ready users of an argument whose remaining reads fall to
/// ≤ 3 are re-keyed.
fn reorder_for_pressure(g: &Cdfg) -> (Cdfg, Vec<NodeId>) {
    let nodes = g.nodes();
    let n = nodes.len();
    // users[first[a]..first[a + 1]] read `a`, one entry per read
    let mut first = vec![0usize; n + 1];
    for node in nodes {
        for &a in &node.args {
            first[a + 1] += 1;
        }
    }
    for i in 0..n {
        first[i + 1] += first[i];
    }
    let mut fill = first.clone();
    let mut users = vec![0; first[n]];
    for (id, node) in nodes.iter().enumerate() {
        for &a in &node.args {
            users[fill[a]] = id;
            fill[a] += 1;
        }
    }
    let users_of = |a: NodeId| &users[first[a]..first[a + 1]];
    // remaining reads of each node's value
    let mut uses: Vec<usize> = (0..n).map(|a| users_of(a).len()).collect();
    let mut unmet: Vec<usize> = nodes.iter().map(|nd| nd.args.len()).collect();
    // positional layouts: each input also waits for the previous input,
    // and each output for the previous output
    let mut after: Vec<Option<NodeId>> = vec![None; n];
    let (mut last_in, mut last_out) = (None, None);
    for (id, node) in nodes.iter().enumerate() {
        let last = match node.op {
            Op::Input(_) => &mut last_in,
            Op::Output(_) => &mut last_out,
            _ => continue,
        };
        if let Some(prev) = last.replace(id) {
            after[prev] = Some(id);
            unmet[id] += 1;
        }
    }
    let mut ready = ReadySet {
        heap: BinaryHeap::new(),
        key: vec![None; n],
    };
    for (id, node) in nodes.iter().enumerate() {
        if unmet[id] == 0 {
            ready.queue(id, pressure_delta(node, &uses));
        }
    }
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    while let Some(id) = ready.pop() {
        order.push(id);
        for &a in &nodes[id].args {
            uses[a] -= 1;
            if uses[a] <= 3 {
                for &u in users_of(a) {
                    if ready.is_queued(u) {
                        ready.queue(u, pressure_delta(&nodes[u], &uses));
                    }
                }
            }
        }
        for u in users_of(id).iter().copied().chain(after[id]) {
            unmet[u] -= 1;
            if unmet[u] == 0 {
                ready.queue(u, pressure_delta(&nodes[u], &uses));
            }
        }
    }
    assert_eq!(
        order.len(),
        n,
        "a checker-clean DAG always has a ready node"
    );
    let mut map = vec![usize::MAX; n];
    let mut out = Cdfg::new();
    for &id in &order {
        let args = nodes[id].args.iter().map(|&a| map[a]).collect();
        map[id] = out.push(nodes[id].op.clone(), args);
    }
    (out, map)
}

/// Slot-pressure change of emitting `node` now: one slot allocated for
/// its result (none for an `Output`), one freed per argument whose
/// remaining reads are all this node's. A double read (`x * x`) frees its
/// slot once.
fn pressure_delta(node: &Node, uses: &[usize]) -> i64 {
    let args = &node.args;
    let mut frees = 0i64;
    for (k, &a) in args.iter().enumerate() {
        if args[..k].contains(&a) {
            continue; // counted at its first occurrence
        }
        if uses[a] == args.iter().filter(|&&b| b == a).count() {
            frees += 1;
        }
    }
    i64::from(!matches!(node.op, Op::Output(_))) - frees
}

/// The ready set of [`reorder_for_pressure`]: a min-heap on
/// `(pressure delta, node id)` with lazy invalidation. Re-keying pushes a
/// fresh entry; a popped entry whose key is no longer current is skipped.
struct ReadySet {
    heap: BinaryHeap<Reverse<(i64, NodeId)>>,
    /// The delta each queued node is keyed by; `None` off the heap.
    key: Vec<Option<i64>>,
}

impl ReadySet {
    fn is_queued(&self, id: NodeId) -> bool {
        self.key[id].is_some()
    }

    /// Queue `id`, or re-key it if it is queued and its delta fell.
    fn queue(&mut self, id: NodeId, delta: i64) {
        if self.key[id].is_none_or(|d| delta < d) {
            self.key[id] = Some(delta);
            self.heap.push(Reverse((delta, id)));
        }
    }

    /// Dequeue the node with the lowest `(delta, id)`.
    fn pop(&mut self) -> Option<NodeId> {
        while let Some(Reverse((delta, id))) = self.heap.pop() {
            if self.key[id] == Some(delta) {
                self.key[id] = None;
                return Some(id);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{eval_bit_accurate, eval_f64};
    use crate::parse_program;

    fn named_inputs(g: &Cdfg, v: f64) -> HashMap<String, f64> {
        g.nodes()
            .iter()
            .filter_map(|n| match &n.op {
                Op::Input(name) => Some((name.clone(), v)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn folds_safe_constant_subtrees() {
        let g = parse_program("out y = x * (2.0 + 3.0 * 4.0);").unwrap();
        let (opt, stats, _) = optimize_graph(&g);
        assert!(stats.consts_folded >= 2, "{stats:?}");
        assert_eq!(opt.count_ops(|o| matches!(o, Op::Const(_))), 1);
        let ins = named_inputs(&g, 1.5);
        assert_eq!(eval_f64(&g, &ins)["y"], eval_f64(&opt, &ins)["y"]);
    }

    #[test]
    fn never_folds_nan_producing_constants() {
        // 0 * inf: the host produces some NaN, the model the canonical
        // one — folding would pin the host's pattern into the tape
        let mut g = Cdfg::new();
        let z = g.constant(0.0);
        let i = g.constant(f64::INFINITY);
        let m = g.mul(z, i);
        g.output("y", m);
        let (opt, stats, _) = optimize_graph(&g);
        assert_eq!(stats.consts_folded, 0);
        let ins = HashMap::new();
        assert_eq!(
            eval_f64(&g, &ins)["y"].to_bits(),
            eval_f64(&opt, &ins)["y"].to_bits()
        );
        assert_eq!(
            eval_bit_accurate(&g, &ins)["y"].to_bits(),
            eval_bit_accurate(&opt, &ins)["y"].to_bits()
        );
    }

    #[test]
    fn never_folds_non_canonical_operands() {
        // subnormal constant: the tape loads it flushed to zero (FTZ),
        // so a host fold would read another value and must not happen
        let mut g = Cdfg::new();
        let s = g.constant(f64::MIN_POSITIVE / 2.0);
        let c = g.constant(1.0);
        let m = g.mul(s, c);
        g.output("y", m);
        let (_, stats, _) = optimize_graph(&g);
        assert_eq!(stats.consts_folded, 0);
    }

    #[test]
    fn cse_merges_repeated_subexpressions() {
        let g = parse_program("out y = a*b + a*b;").unwrap();
        let (opt, stats, _) = optimize_graph(&g);
        assert_eq!(stats.cse_merged, 1);
        assert_eq!(opt.count_ops(|o| matches!(o, Op::Mul)), 1);
        let ins = named_inputs(&g, 2.5);
        assert_eq!(eval_f64(&g, &ins)["y"], eval_f64(&opt, &ins)["y"]);
    }

    #[test]
    fn dce_preserves_inputs() {
        // `dead` never reaches the output but its inputs must survive so
        // the positional row layout is unchanged
        let g = parse_program("dead = p * q;\nout y = a + b;").unwrap();
        let (opt, stats, _) = optimize_graph(&g);
        assert!(stats.dead_removed >= 1, "{stats:?}");
        let names: Vec<&str> = opt
            .nodes()
            .iter()
            .filter_map(|n| match &n.op {
                Op::Input(name) => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, ["p", "q", "a", "b"]);
        assert_eq!(opt.count_ops(|o| matches!(o, Op::Mul)), 0);
    }

    #[test]
    fn reorder_keeps_io_order_and_semantics() {
        let g = parse_program(
            "t1 = a + b;\n t2 = c + d;\n t3 = e + f;\n out y = t1 * t2 + t3;\n out z = t1 - t2;",
        )
        .unwrap();
        let (opt, _, _) = optimize_graph(&g);
        let io = |g: &Cdfg, pick: fn(&Op) -> Option<String>| -> Vec<String> {
            g.nodes().iter().filter_map(|n| pick(&n.op)).collect()
        };
        let in_name = |o: &Op| match o {
            Op::Input(n) => Some(n.clone()),
            _ => None,
        };
        let out_name = |o: &Op| match o {
            Op::Output(n) => Some(n.clone()),
            _ => None,
        };
        assert_eq!(io(&g, in_name), io(&opt, in_name));
        assert_eq!(io(&g, out_name), io(&opt, out_name));
        let ins = named_inputs(&g, 3.25);
        for key in ["y", "z"] {
            assert_eq!(
                eval_f64(&g, &ins)[key].to_bits(),
                eval_f64(&opt, &ins)[key].to_bits()
            );
        }
    }

    #[test]
    fn fused_graphs_survive_optimization() {
        use crate::cdfg::FmaKind;
        use crate::fuse::{fuse_critical_paths, FusionConfig};
        let g = parse_program("x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;").unwrap();
        for kind in [FmaKind::Pcs, FmaKind::Fcs] {
            let fused = fuse_critical_paths(&g, &FusionConfig::new(kind)).fused;
            let (opt, _, _) = optimize_graph(&fused);
            let ins = named_inputs(&fused, -1.75);
            assert_eq!(
                eval_bit_accurate(&fused, &ins)["x3"].to_bits(),
                eval_bit_accurate(&opt, &ins)["x3"].to_bits()
            );
        }
    }
}
