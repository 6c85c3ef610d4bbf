//! Post-gate tape optimizer: constant folding, common-subexpression
//! elimination over the canonical node encoding's fields, dead-node
//! elimination and slot-pressure-aware reordering.
//!
//! [`compile`](crate::compile::compile) runs this pipeline **after** the
//! `D*`/`S*`/`W*` checker gate, so an optimized tape is always derived
//! from a graph the checker accepted, and the optimizer re-validates its
//! own result — optimized tapes stay checker-clean by construction.
//!
//! The passes work on a flat copy of the graph (per node, the operation
//! borrowed from the caller's graph and up to three argument ids).
//! A pass that rewrites nothing returns `None` and the pipeline keeps its
//! input; the optimized [`Cdfg`] is built once, in the reorder's order.
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
//! * **CSE** merges a node into an earlier one with the same identity: an
//!   `Input` by its name, any other node by a fixed-width record holding
//!   the fields of its canonical encoding (operation tag, FMA kind and
//!   negation or constant bits, remapped argument ids), so two nodes merge
//!   exactly when their canonical encodings are byte-equal. Argument order
//!   is *not* commuted. With one canonical NaN, `a + b` and `b + a` give
//!   the same bits, so commuting would be safe; it is not done.
//! * **Dead-node elimination** drops nodes no output depends on but
//!   keeps every `Input` node, so the positional input layout of the
//!   optimized tape is byte-compatible with the unoptimized one.
//! * **Reordering** list-schedules the graph so values die close to
//!   their birth (greedy minimum register-pressure delta). Execution
//!   order of pure operators cannot change any row's value; it only
//!   changes how many slots the linear-scan allocator needs. `Input`
//!   nodes keep their relative order (positional input layout) and so do
//!   `Output` nodes (positional output layout).

use crate::cdfg::{Cdfg, FmaKind, Node, Op};
use csfma_softfloat::batch as sfb;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{Hash, Hasher};

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

/// One node of the optimizer's working graph.
#[derive(Clone, Copy)]
struct WorkNode<'g> {
    op: WorkOp<'g>,
    /// Argument ids; slots past `arity` are 0.
    args: [u32; 3],
    arity: u8,
}

#[derive(Clone, Copy)]
enum WorkOp<'g> {
    /// An operation of the caller's graph.
    Src(&'g Op),
    /// A folded constant.
    Const(f64),
}

impl<'g> WorkNode<'g> {
    fn of(n: &'g Node) -> Self {
        let mut args = [0; 3];
        for (slot, &a) in args.iter_mut().zip(&n.args) {
            *slot = a as u32;
        }
        WorkNode {
            op: WorkOp::Src(&n.op),
            args,
            arity: n.args.len() as u8,
        }
    }

    fn constant(v: f64) -> Self {
        WorkNode {
            op: WorkOp::Const(v),
            args: [0; 3],
            arity: 0,
        }
    }

    fn args(&self) -> &[u32] {
        &self.args[..self.arity as usize]
    }

    fn src(&self) -> Option<&'g Op> {
        match self.op {
            WorkOp::Src(op) => Some(op),
            WorkOp::Const(_) => None,
        }
    }

    fn is_input(&self) -> bool {
        matches!(self.src(), Some(Op::Input(_)))
    }

    fn is_output(&self) -> bool {
        matches!(self.src(), Some(Op::Output(_)))
    }

    fn const_value(&self) -> Option<f64> {
        match self.op {
            WorkOp::Src(Op::Const(v)) => Some(*v),
            WorkOp::Const(v) => Some(v),
            WorkOp::Src(_) => None,
        }
    }

    /// The node's operation as a [`Cdfg`] holds it.
    fn to_op(self) -> Op {
        match self.op {
            WorkOp::Src(op) => op.clone(),
            WorkOp::Const(v) => Op::Const(v),
        }
    }
}

/// The CSE identity of a node other than an `Input` or `Output`: the
/// fields of its canonical encoding (`compile::encode_node`) in a fixed
/// width. `tag` is the encoding's operation tag, `aux` the constant's bits
/// or the FMA kind and negation, `args` the remapped argument ids (slots
/// past the operation's arity are 0). Two nodes have equal keys exactly
/// when their encodings are byte-equal.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    tag: u8,
    aux: u64,
    args: [u32; 3],
}

impl Key {
    fn of(node: &WorkNode) -> Self {
        let kind = |k: &FmaKind| match k {
            FmaKind::Pcs => 0,
            FmaKind::Fcs => 1,
        };
        let (tag, aux) = match node.op {
            WorkOp::Const(v) | WorkOp::Src(&Op::Const(v)) => (1, v.to_bits()),
            WorkOp::Src(op) => match op {
                Op::Add => (2, 0),
                Op::Sub => (3, 0),
                Op::Mul => (4, 0),
                Op::Div => (5, 0),
                Op::Neg => (6, 0),
                Op::Fma { kind: k, negate_b } => (7, kind(k) | u64::from(*negate_b) << 8),
                Op::IeeeToCs(k) => (8, kind(k)),
                Op::CsToIeee(k) => (9, kind(k)),
                Op::Input(_) | Op::Output(_) | Op::Const(_) => {
                    unreachable!("inputs are keyed by name, outputs never merge")
                }
            },
        };
        Key {
            tag,
            aux,
            args: node.args,
        }
    }
}

impl Hash for Key {
    /// Three words, fewer than the derived hash feeds (it adds the
    /// array's length): SipHash's cost grows with the bytes it is fed.
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.aux);
        h.write_u64(u64::from(self.tag) << 32 | u64::from(self.args[0]));
        h.write_u64(u64::from(self.args[1]) << 32 | u64::from(self.args[2]));
    }
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
    let mut cur: Vec<WorkNode> = g.nodes().iter().map(WorkNode::of).collect();
    // origin[new_id] = source-graph id, composed across every pass
    let mut origin: Vec<u32> = (0..g.len() as u32).collect();
    let compose = |origin: &[u32], map: &[u32], new_len: usize| -> Vec<u32> {
        let mut next = vec![u32::MAX; new_len];
        for (old, &new) in map.iter().enumerate() {
            if new != u32::MAX && next[new as usize] == u32::MAX {
                next[new as usize] = origin[old];
            }
        }
        next
    };
    for _ in 0..8 {
        let (mut folded, mut merged, mut removed) = (0, 0, 0);
        if let Some((next, f, m, map)) = fold_and_cse(&cur) {
            origin = compose(&origin, &map, next.len());
            cur = next;
            (folded, merged) = (f, m);
        }
        if let Some((next, n, map)) = eliminate_dead_keep_inputs(&cur) {
            origin = compose(&origin, &map, next.len());
            cur = next;
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

/// Try to fold an all-constant node whose arguments index `built`.
/// Returns the folded value only when replacing the computation with a
/// `Const` preserves the bit semantics bit for bit (see module docs for
/// the argument).
fn try_fold(built: &[WorkNode], node: &WorkNode) -> Option<f64> {
    let arg = |k: usize| built[node.args[k] as usize].const_value();
    let (plain, hosted) = match node.src()? {
        op @ (Op::Add | Op::Sub | Op::Mul | Op::Div) => {
            let a = arg(0)?;
            let b = arg(1)?;
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
            let a = arg(0)?;
            if !is_canonical(a) {
                return None;
            }
            (-a, sfb::hosted_neg(a))
        }
        _ => return None,
    };
    (plain.to_bits() == hosted.to_bits()).then_some(plain)
}

/// One forward rewrite pass: fold all-constant nodes, then merge each
/// node into an earlier one with the same CSE identity. Returns the
/// rewritten graph, the (folded, merged) counts and the old→new node
/// map, or `None` when nothing folds or merges. Up to the first rewrite
/// the output is the input's prefix and the map the identity, so a pass
/// that rewrites nothing copies nothing.
fn fold_and_cse<'g>(nodes: &[WorkNode<'g>]) -> Option<(Vec<WorkNode<'g>>, usize, usize, Vec<u32>)> {
    // std's keyed SipHash: a served graph comes from the network, and an
    // unkeyed hash would let a crafted one collide every lookup
    let mut seen: HashMap<Key, u32> = HashMap::with_capacity(nodes.len());
    let mut inputs: HashMap<&'g str, u32> = HashMap::new();
    // filled from the first rewrite on
    let mut out: Vec<WorkNode<'g>> = Vec::new();
    let mut map: Vec<u32> = Vec::new();
    let mut rewriting = false;
    let (mut folded, mut merged) = (0, 0);
    for (id, n) in nodes.iter().enumerate() {
        let mut node = *n;
        if rewriting {
            for a in &mut node.args[..node.arity as usize] {
                *a = map[*a as usize];
            }
        }
        if node.is_output() {
            if rewriting {
                map.push(out.len() as u32);
                out.push(node);
            }
            continue;
        }
        let fold = try_fold(if rewriting { &out } else { &nodes[..id] }, &node);
        if let Some(v) = fold {
            folded += 1;
            node = WorkNode::constant(v);
        }
        // the id this node gets if it is kept (before the first rewrite,
        // out's length would equal `id`)
        let new_id = if rewriting { out.len() } else { id } as u32;
        let slot = match node.op {
            WorkOp::Src(Op::Input(name)) => match inputs.entry(name) {
                Entry::Occupied(e) => Some(*e.get()),
                Entry::Vacant(e) => {
                    e.insert(new_id);
                    None
                }
            },
            _ => match seen.entry(Key::of(&node)) {
                Entry::Occupied(e) => Some(*e.get()),
                Entry::Vacant(e) => {
                    e.insert(new_id);
                    None
                }
            },
        };
        if !rewriting && (fold.is_some() || slot.is_some()) {
            rewriting = true;
            out = nodes[..id].to_vec();
            map = (0..id as u32).collect();
        }
        if let Some(prev) = slot {
            merged += 1;
            map.push(prev);
        } else if rewriting {
            map.push(new_id);
            out.push(node);
        }
    }
    rewriting.then_some((out, folded, merged, map))
}

/// Dead-node elimination rooted at the outputs **and every input**:
/// removing an unused `Input` would change the tape's positional row
/// layout, which must stay byte-compatible with the unoptimized tape.
/// Returns the pruned graph, the removed count and the old→new node map
/// (`u32::MAX` for a removed node), or `None` when every node is live.
fn eliminate_dead_keep_inputs<'g>(
    nodes: &[WorkNode<'g>],
) -> Option<(Vec<WorkNode<'g>>, usize, Vec<u32>)> {
    // arguments precede their users, so one backward sweep marks every
    // node a root reaches
    let mut live = vec![false; nodes.len()];
    for (id, node) in nodes.iter().enumerate().rev() {
        if live[id] || node.is_output() || node.is_input() {
            live[id] = true;
            for &a in node.args() {
                live[a as usize] = true;
            }
        }
    }
    let removed = live.iter().filter(|&&l| !l).count();
    if removed == 0 {
        return None;
    }
    let mut map = vec![u32::MAX; nodes.len()];
    let mut out = Vec::with_capacity(nodes.len() - removed);
    for (id, node) in nodes.iter().enumerate() {
        if live[id] {
            let mut node = *node;
            for a in &mut node.args[..node.arity as usize] {
                *a = map[*a as usize];
            }
            map[id] = out.len() as u32;
            out.push(node);
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
/// Builds the optimized [`Cdfg`] in that order and returns it with the
/// old→new node map.
///
/// Wake-up/select, O(n log n): emitting a node wakes only its own users,
/// found in a CSR users list, and select pops the lowest `(delta, id)`
/// from a [`ReadySet`]. A ready node's delta only ever falls, when an
/// argument's remaining reads reach its own reads of it (at most 3), so
/// only the ready users of an argument whose remaining reads fall to
/// ≤ 3 are re-keyed.
fn reorder_for_pressure(nodes: &[WorkNode]) -> (Cdfg, Vec<u32>) {
    let n = nodes.len();
    // users[first[a]..first[a + 1]] read `a`, one entry per read
    let mut first = vec![0usize; n + 1];
    for node in nodes {
        for &a in node.args() {
            first[a as usize + 1] += 1;
        }
    }
    for i in 0..n {
        first[i + 1] += first[i];
    }
    let mut fill = first.clone();
    let mut users = vec![0; first[n]];
    for (id, node) in nodes.iter().enumerate() {
        for &a in node.args() {
            users[fill[a as usize]] = id;
            fill[a as usize] += 1;
        }
    }
    let users_of = |a: usize| &users[first[a]..first[a + 1]];
    // remaining reads of each node's value
    let mut uses: Vec<usize> = (0..n).map(|a| users_of(a).len()).collect();
    let mut unmet: Vec<usize> = nodes.iter().map(|nd| nd.args().len()).collect();
    // positional layouts: each input also waits for the previous input,
    // and each output for the previous output
    let mut after: Vec<Option<usize>> = vec![None; n];
    let (mut last_in, mut last_out) = (None, None);
    for (id, node) in nodes.iter().enumerate() {
        let last = if node.is_input() {
            &mut last_in
        } else if node.is_output() {
            &mut last_out
        } else {
            continue;
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
    let mut map = vec![u32::MAX; n];
    let mut out = Cdfg::with_capacity(n);
    while let Some(id) = ready.pop() {
        let args = nodes[id].args().iter().map(|&a| map[a as usize] as usize);
        map[id] = out.push(nodes[id].to_op(), args.collect()) as u32;
        for &a in nodes[id].args() {
            let a = a as usize;
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
    assert_eq!(out.len(), n, "a checker-clean DAG always has a ready node");
    (out, map)
}

/// Slot-pressure change of emitting `node` now: one slot allocated for
/// its result (none for an `Output`), one freed per argument whose
/// remaining reads are all this node's. A double read (`x * x`) frees its
/// slot once.
fn pressure_delta(node: &WorkNode, uses: &[usize]) -> i64 {
    let args = node.args();
    let mut frees = 0i64;
    for (k, &a) in args.iter().enumerate() {
        if args[..k].contains(&a) {
            continue; // counted at its first occurrence
        }
        if uses[a as usize] == args.iter().filter(|&&b| b == a).count() {
            frees += 1;
        }
    }
    i64::from(!node.is_output()) - frees
}

/// The ready set of [`reorder_for_pressure`]: a min-heap on
/// `(pressure delta, node id)` with lazy invalidation. Re-keying pushes a
/// fresh entry; a popped entry whose key is no longer current is skipped.
struct ReadySet {
    heap: BinaryHeap<Reverse<(i64, usize)>>,
    /// The delta each queued node is keyed by; `None` off the heap.
    key: Vec<Option<i64>>,
}

impl ReadySet {
    fn is_queued(&self, id: usize) -> bool {
        self.key[id].is_some()
    }

    /// Queue `id`, or re-key it if it is queued and its delta fell.
    fn queue(&mut self, id: usize, delta: i64) {
        if self.key[id].is_none_or(|d| delta < d) {
            self.key[id] = Some(delta);
            self.heap.push(Reverse((delta, id)));
        }
    }

    /// Dequeue the node with the lowest `(delta, id)`.
    fn pop(&mut self) -> Option<usize> {
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
