//! The automatic FMA insertion pass (Sec. III-I, Fig. 12).
//!
//! Starting from a scheduled IEEE-754 datapath, the pass repeatedly:
//!
//! 1. finds a multiply→add pair where **both** nodes lie on a critical
//!    path (zero slack between ASAP and ALAP schedules),
//! 2. replaces the pair with a carry-save FMA surrounded by the required
//!    `IEEE ↔ CS` conversions (Fig. 12b) — subtractions fold into the
//!    unit via the free sign flip of the `B` input or the addend,
//! 3. cancels back-to-back `CS → IEEE → CS` conversion pairs between
//!    chained FMAs (Fig. 12c) and drops dead nodes,
//! 4. reschedules,
//!
//! until no zero-slack multiply→add pair remains.
//!
//! The loop runs on a private working graph: an arena of nodes with
//! stable ids, kept in position order by a linked list with order labels.
//! Ops are borrowed from the input graph or are the static negation,
//! conversion and FMA ops a rewrite inserts. Each node keeps its users,
//! its conversions, its ASAP `finish` and its `tail` (the longest path
//! from its start to the end, its own latency included); a node is
//! critical when `finish - latency + tail` is the length.
//!
//! Every accepted trial leaves the graph in *normal form*: no dead node,
//! no `IeeeToCs(k)` of a `CsToIeee(k)`, and no two conversions with the
//! same source, kind and direction. On such a graph every path of a trial
//! that avoids the nodes it inserts is a path of the graph, so the trial
//! keeps the length exactly when its longest path through the new FMA
//! does, and `finish` and `tail` give that path in O(1). An accepted trial
//! is spliced in place, and `finish` and `tail` are pushed only through
//! the nodes it changed.
//!
//! The input need not be in normal form, so until the first accepted
//! trial each trial is a streaming rewrite of the whole graph into reused
//! buffers. Debug builds build that rewrite for every trial: the dataflow
//! checker sees each one, and each O(1) decision and each splice is
//! asserted equal to it.

use std::ops::{Index, IndexMut};

use crate::cdfg::{Cdfg, Domain, FmaKind, NodeId, Op};
use crate::lint::{debug_assert_dataflow_clean, lint_schedule};
use crate::sched::{asap_schedule, OpTiming, ResourceLimits};

/// Configuration of the fusion pass.
#[derive(Clone, Copy, Debug)]
pub struct FusionConfig {
    /// Which FMA unit to insert.
    pub kind: FmaKind,
    /// Operator timing used for the schedules.
    pub timing: OpTiming,
    /// Safety bound on fusion iterations.
    pub max_passes: usize,
}

impl FusionConfig {
    /// Default pass for a unit kind.
    pub fn new(kind: FmaKind) -> Self {
        FusionConfig {
            kind,
            timing: OpTiming::default(),
            max_passes: 100_000,
        }
    }
}

/// Outcome of the pass.
#[derive(Clone, Debug)]
pub struct FusionReport {
    /// The transformed datapath.
    pub fused: Cdfg,
    /// Dataflow schedule length before any fusion.
    pub initial_length: u32,
    /// Dataflow schedule length after the pass.
    pub final_length: u32,
    /// Number of FMA nodes in the result (before time-multiplexing),
    /// counting any the input already had.
    pub fma_nodes: usize,
    /// Fusion iterations performed.
    pub passes: usize,
    /// Candidates evaluated, accepted or rejected.
    pub trials: usize,
}

/// One node of a flat graph: its operation and its argument ids (the
/// first `op.arity()` entries; the rest are 0).
type Node<'a> = (&'a Op, [u32; 3]);

/// Marks an absent id (no cached conversion, no neighbour, dead node).
const NONE: u32 = u32::MAX;

/// Spacing of freshly assigned order labels.
const LABEL_GAP: u64 = 1 << 32;

// The operations a rewrite inserts, indexed by `FmaKind as usize`.
static NEG: Op = Op::Neg;
static TO_CS: [Op; 2] = [Op::IeeeToCs(FmaKind::Pcs), Op::IeeeToCs(FmaKind::Fcs)];
static TO_IEEE: [Op; 2] = [Op::CsToIeee(FmaKind::Pcs), Op::CsToIeee(FmaKind::Fcs)];
static FMA: [[Op; 2]; 2] = [
    [
        Op::Fma {
            kind: FmaKind::Pcs,
            negate_b: false,
        },
        Op::Fma {
            kind: FmaKind::Pcs,
            negate_b: true,
        },
    ],
    [
        Op::Fma {
            kind: FmaKind::Fcs,
            negate_b: false,
        },
        Op::Fma {
            kind: FmaKind::Fcs,
            negate_b: true,
        },
    ],
];

/// A conversion's slot in its source's conversion table, `[IeeeToCs(Pcs),
/// IeeeToCs(Fcs), CsToIeee(Pcs), CsToIeee(Fcs)]`.
fn conv_slot(op: &Op) -> Option<usize> {
    match op {
        Op::IeeeToCs(k) => Some(*k as usize),
        Op::CsToIeee(k) => Some(2 + *k as usize),
        _ => None,
    }
}

/// One fusible candidate: an add/sub consuming a multiply, both critical.
struct Candidate {
    add_id: u32,
    /// Addend (IEEE), to be converted; `negate_a` folds `m - x` patterns.
    a_arg: u32,
    negate_a: bool,
    /// IEEE multiplier input `B`; `negate_b` folds `x - m` patterns.
    b_arg: u32,
    negate_b: bool,
    /// Critical multiplier input `C` (goes through the CS port).
    c_arg: u32,
}

/// A trial rewrite before dead-node removal.
#[derive(Default)]
struct Rewrite<'a> {
    nodes: Vec<Node<'a>>,
    /// Per node: the conversions made of it so far, by [`conv_slot`].
    conv: Vec<[u32; 4]>,
}

impl<'a> Rewrite<'a> {
    fn emit(&mut self, op: &'a Op, args: [u32; 3]) -> u32 {
        self.nodes.push((op, args));
        self.conv.push([NONE; 4]);
        (self.nodes.len() - 1) as u32
    }

    /// Convert `src` (Fig. 12c): an `IeeeToCs` of a same-kind `CsToIeee`
    /// takes the carry-save value directly, and a conversion of `src` in
    /// the same direction and kind is made once and shared.
    fn convert(&mut self, op: &'a Op, src: u32) -> u32 {
        if let (Op::IeeeToCs(k), (Op::CsToIeee(k2), args)) = (op, self.nodes[src as usize]) {
            if k2 == k {
                return args[0];
            }
        }
        let slot = conv_slot(op).expect("a conversion");
        let cached = self.conv[src as usize][slot];
        if cached != NONE {
            return cached;
        }
        let id = self.emit(op, [src, 0, 0]);
        self.conv[src as usize][slot] = id;
        id
    }
}

/// One node of the working graph.
struct Slot<'a> {
    op: &'a Op,
    args: [u32; 3],
    /// Readers of this node, one entry per argument that reads it.
    users: Vec<u32>,
    /// This node's conversions, by [`conv_slot`].
    conv: [u32; 4],
    /// Neighbours in position order (`NONE` past either end).
    prev: u32,
    next: u32,
    /// Increases along position order.
    label: u64,
    /// ASAP finish cycle.
    finish: u32,
    /// Longest path from this node's start to the end, its own latency
    /// included.
    tail: u32,
    /// Queued for the running propagation.
    dirty: bool,
}

impl<'a> Slot<'a> {
    /// A node not yet linked into the position order.
    fn new(op: &'a Op, args: [u32; 3], finish: u32, tail: u32) -> Self {
        Slot {
            op,
            args,
            users: Vec::new(),
            conv: [NONE; 4],
            prev: NONE,
            next: NONE,
            label: 0,
            finish,
            tail,
            dirty: false,
        }
    }
}

/// Nodes by stable id; removed nodes keep their slot.
#[derive(Default)]
struct Arena<'a>(Vec<Slot<'a>>);

impl<'a> Index<u32> for Arena<'a> {
    type Output = Slot<'a>;
    fn index(&self, id: u32) -> &Slot<'a> {
        &self.0[id as usize]
    }
}

impl IndexMut<u32> for Arena<'_> {
    fn index_mut(&mut self, id: u32) -> &mut Self::Output {
        &mut self.0[id as usize]
    }
}

/// ASAP `finish` and `tail` of every node of a flat graph; returns the
/// schedule length.
fn sweep(nodes: &[Node], t: &OpTiming, finish: &mut Vec<u32>, tail: &mut Vec<u32>) -> u32 {
    finish.clear();
    for &(op, args) in nodes {
        let s = args[..op.arity()]
            .iter()
            .map(|&a| finish[a as usize])
            .max()
            .unwrap_or(0);
        finish.push(s + t.latency(op));
    }
    // `tail[id]` holds the largest tail of the node's users until the
    // reverse sweep reaches the node
    tail.clear();
    tail.resize(nodes.len(), 0);
    for (id, &(op, args)) in nodes.iter().enumerate().rev() {
        tail[id] += t.latency(op);
        for &a in &args[..op.arity()] {
            tail[a as usize] = tail[a as usize].max(tail[id]);
        }
    }
    finish.iter().copied().max().unwrap_or(0)
}

/// True when every `CsToIeee` of a flat graph reads an FMA. Then a
/// cancelled `IeeeToCs` never has a `CsToIeee` reader that would merge
/// into the new one, so normal form is all a splice needs.
fn conversions_read_fmas(nodes: &[Node]) -> bool {
    nodes.iter().all(|&(op, args)| {
        !matches!(op, Op::CsToIeee(_)) || matches!(nodes[args[0] as usize].0, Op::Fma { .. })
    })
}

/// The working graph and the buffers its trials reuse.
#[derive(Default)]
struct Work<'a> {
    n: Arena<'a>,
    /// First node in position order.
    head: u32,
    /// The adds and subs in position order. A trial never inserts or
    /// moves one, so the candidate walk visits only these.
    adds: Vec<u32>,
    outputs: Vec<u32>,
    /// Schedule length: the largest `finish`.
    length: u32,
    /// True once the graph is in normal form and accepted trials are
    /// spliced in place.
    spliceable: bool,
    /// Dirty nodes the running propagation has not reached yet.
    pending: usize,
    /// Scratch: a copied user list, the kill stack.
    buf: Vec<u32>,
    stack: Vec<u32>,
    /// The last streaming trial, dead nodes removed.
    trial: Vec<Node<'a>>,
    raw: Rewrite<'a>,
    /// Arena → `raw` ids during a rewrite, then `raw` → `trial` ids;
    /// arena → position ids in [`Work::flatten`].
    map: Vec<u32>,
    /// Scratch schedules of flat graphs.
    finish: Vec<u32>,
    tail: Vec<u32>,
}

impl<'a> Work<'a> {
    fn new(g: &'a Cdfg, t: &OpTiming) -> Self {
        // an accepted trial replaces one Add or Sub with at most five
        // nodes, so ids stay below six times the input's node count
        assert!(
            g.len() < (NONE / 8) as usize,
            "graph too large to fuse: {} nodes",
            g.len()
        );
        let nodes: Vec<Node> = g
            .nodes()
            .iter()
            .map(|n| {
                let mut args = [0; 3];
                for (d, &a) in args.iter_mut().zip(&n.args) {
                    *d = a as u32;
                }
                (&n.op, args)
            })
            .collect();
        let mut work = Work::default();
        work.load(&nodes, t);
        work
    }

    /// Replace the working graph with `nodes`, in that order, and
    /// schedule it from scratch.
    fn load(&mut self, nodes: &[Node<'a>], t: &OpTiming) {
        self.length = sweep(nodes, t, &mut self.finish, &mut self.tail);
        self.n.0.clear();
        self.adds.clear();
        self.outputs.clear();
        for (i, &(op, args)) in nodes.iter().enumerate() {
            let id = i as u32;
            let mut s = Slot::new(op, args, self.finish[i], self.tail[i]);
            s.prev = id.checked_sub(1).unwrap_or(NONE);
            s.next = id + 1;
            s.label = u64::from(id) * LABEL_GAP;
            self.n.0.push(s);
            for &a in &args[..op.arity()] {
                self.n[a].users.push(id);
            }
            if let Some(slot) = conv_slot(op) {
                self.n[args[0]].conv[slot] = id;
            }
            match op {
                Op::Add | Op::Sub => self.adds.push(id),
                Op::Output(_) => self.outputs.push(id),
                _ => {}
            }
        }
        self.head = NONE;
        if let Some(last) = self.n.0.last_mut() {
            last.next = NONE;
            self.head = 0;
        }
    }

    /// The working graph in position order, renumbered.
    fn flatten(&mut self, out: &mut Vec<Node<'a>>) {
        let Work { n, head, map, .. } = self;
        out.clear();
        map.clear();
        map.resize(n.0.len(), NONE);
        let mut id = *head;
        while id != NONE {
            let s = &n[id];
            let mut args = [0; 3];
            for (d, &a) in args.iter_mut().zip(&s.args[..s.op.arity()]) {
                *d = map[a as usize];
            }
            map[id as usize] = out.len() as u32;
            out.push((s.op, args));
            id = s.next;
        }
    }

    fn critical(&self, id: u32, t: &OpTiming) -> bool {
        let s = &self.n[id];
        s.finish - t.latency(s.op) + s.tail == self.length
    }

    /// The candidate of the add/sub `add_id` whose multiply is its
    /// argument `pos`, if both are critical.
    fn candidate(&self, add_id: u32, pos: usize, t: &OpTiming) -> Option<Candidate> {
        let add = &self.n[add_id];
        let is_sub = match add.op {
            Op::Add => false,
            Op::Sub => true,
            _ => return None,
        };
        let mul = &self.n[add.args[pos]];
        if !matches!(mul.op, Op::Mul)
            || !self.critical(add_id, t)
            || !self.critical(add.args[pos], t)
        {
            return None;
        }
        // pick the critical (later-finishing) multiplier input as C
        let [u, w, _] = mul.args;
        let (b_arg, c_arg) = if self.n[u].finish >= self.n[w].finish {
            (w, u)
        } else {
            (u, w)
        };
        Some(Candidate {
            add_id,
            a_arg: add.args[1 - pos],
            negate_a: is_sub && pos == 0, // m - x  =  (-x) + b*c
            b_arg,
            negate_b: is_sub && pos == 1, // x - m  =  x + (-b)*c
            c_arg,
        })
    }

    /// Try `cand`: keep it if the trial is no longer than the current
    /// schedule (neutral fusions are kept: they become profitable once
    /// neighboring links fuse and the conversions between them cancel).
    fn try_fuse(&mut self, cand: &Candidate, kind: FmaKind, t: &OpTiming) -> bool {
        // the streaming rewrite decides until the graph is spliceable;
        // debug builds build it for every trial, and every trial must
        // leave the graph domain-consistent, accepted or not
        let streamed = (!self.spliceable || cfg!(debug_assertions)).then(|| {
            let len = self.rewrite(cand, kind, t);
            if cfg!(debug_assertions) {
                debug_assert_dataflow_clean(&raise(&self.trial), t, "fusion trial rewrite");
            }
            len
        });
        if !self.spliceable {
            let accept = streamed.is_some_and(|len| len <= self.length);
            if accept {
                let trial = std::mem::take(&mut self.trial);
                self.load(&trial, t);
                self.spliceable = conversions_read_fmas(&trial);
                self.trial = trial;
            }
            return accept;
        }
        let accept = self.fma_path(cand, kind, t) <= self.length;
        if let Some(len) = streamed {
            assert_eq!(
                accept,
                len <= self.length,
                "O(1) decision disagrees with the streaming trial (length {len})"
            );
        }
        if accept {
            self.splice(cand, kind, t);
            if let Some(len) = streamed {
                self.assert_matches_trial(len, t);
            }
        }
        accept
    }

    /// Longest path through the FMA that would replace `cand`. On a graph
    /// in normal form every other path of the trial is a path of the
    /// graph, so the trial is no longer than the graph exactly when this
    /// is no longer.
    fn fma_path(&self, cand: &Candidate, kind: FmaKind, t: &OpTiming) -> u32 {
        let (n, k) = (&self.n, kind as usize);
        let to_cs = t.latency(&TO_CS[k]);
        // a same-kind CsToIeee operand cancels: the FMA reads its source
        let cs_ready = |x: u32| match n[x].op {
            Op::CsToIeee(k2) if *k2 == kind => n[n[x].args[0]].finish,
            _ => n[x].finish + to_cs,
        };
        // the negated addend never cancels: `Neg` blocks it
        let a_ready = if cand.negate_a {
            n[cand.a_arg].finish + to_cs
        } else {
            cs_ready(cand.a_arg)
        };
        let fma_finish =
            a_ready.max(n[cand.b_arg].finish).max(cs_ready(cand.c_arg)) + t.latency(&FMA[k][0]);
        // a same-kind IeeeToCs reader of the add cancels, and its readers
        // read the FMA; every other reader reads the new CsToIeee
        let out = n[cand.add_id].users.iter().map(|&u| match n[u].op {
            Op::IeeeToCs(k2) if *k2 == kind => n[u].tail - to_cs,
            _ => t.latency(&TO_IEEE[k]) + n[u].tail,
        });
        fma_finish + out.max().unwrap_or(0)
    }

    /// Apply an accepted `cand` in place (normal form only): the result
    /// is the streaming rewrite's, node for node and in the same order.
    fn splice(&mut self, cand: &Candidate, kind: FmaKind, t: &OpTiming) {
        let (add, k) = (cand.add_id, kind as usize);
        self.adds.retain(|&a| a != add);
        let mut a = cand.a_arg;
        if cand.negate_a {
            a = self.insert(&NEG, [a, 0, 0], add, t);
        }
        let a_cs = self.cs_operand(a, kind, add, t);
        let c_cs = self.cs_operand(cand.c_arg, kind, add, t);
        let fma_op = &FMA[k][cand.negate_b as usize];
        let fma = self.insert(fma_op, [a_cs, cand.b_arg, c_cs], add, t);
        let to_ieee = self.insert(&TO_IEEE[k], [fma, 0, 0], add, t);

        // the add's readers read the new CsToIeee, except a same-kind
        // IeeeToCs (normal form has at most one), whose readers read the FMA
        let mut readers = std::mem::take(&mut self.buf);
        readers.clone_from(&self.n[add].users);
        let mut cancelled = NONE;
        for &u in &readers {
            if matches!(self.n[u].op, Op::IeeeToCs(k2) if *k2 == kind) {
                cancelled = u;
            } else {
                self.redirect(u, add, to_ieee);
            }
        }
        if cancelled != NONE {
            readers.clone_from(&self.n[cancelled].users);
            for &w in &readers {
                self.redirect(w, cancelled, fma);
            }
        }
        // drop the add and what only it kept alive (the multiply, a
        // bypassed CsToIeee); the cancelled conversion was its last reader
        self.kill(if cancelled == NONE { add } else { cancelled });
        let last = if self.n[to_ieee].users.is_empty() {
            self.kill(to_ieee);
            fma
        } else {
            to_ieee
        };

        // tails change only at and before the splice, finishes only at
        // the redirected readers and after them
        self.propagate_tails(last, t);
        readers.clear();
        readers.extend(self.n[fma].users.iter().filter(|&&w| w != to_ieee));
        if last == to_ieee {
            readers.extend(&self.n[to_ieee].users);
        }
        for &r in &readers {
            self.mark(r);
        }
        self.buf = readers;
        self.propagate_finishes(self.n[last].next, t);
        self.length = self
            .outputs
            .iter()
            .map(|&o| self.n[o].finish)
            .max()
            .unwrap_or(0);
    }

    /// The carry-save operand made of IEEE node `x` for an FMA inserted
    /// before `add`: the source of a same-kind `CsToIeee`, else the
    /// conversion of `x`. An earlier conversion is reused in place; a
    /// later one moves here (the streaming rewrite makes it here and
    /// merges the later one into it).
    fn cs_operand(&mut self, x: u32, kind: FmaKind, add: u32, t: &OpTiming) -> u32 {
        let k = kind as usize;
        if matches!(self.n[x].op, Op::CsToIeee(k2) if *k2 == kind) {
            return self.n[x].args[0];
        }
        let c = self.n[x].conv[k];
        if c == NONE {
            return self.insert(&TO_CS[k], [x, 0, 0], add, t);
        }
        if self.n[c].label > self.n[add].label {
            self.unlink(c);
            self.link_before(c, add);
        }
        c
    }

    /// Add a node just before `at`, scheduled ASAP, its tail pending.
    fn insert(&mut self, op: &'a Op, args: [u32; 3], at: u32, t: &OpTiming) -> u32 {
        let id = self.n.0.len() as u32;
        let ready = args[..op.arity()].iter().map(|&a| self.n[a].finish).max();
        let finish = ready.unwrap_or(0) + t.latency(op);
        self.n.0.push(Slot::new(op, args, finish, NONE));
        self.link_before(id, at);
        for &a in &args[..op.arity()] {
            self.n[a].users.push(id);
        }
        if let Some(slot) = conv_slot(op) {
            self.n[args[0]].conv[slot] = id;
        }
        self.mark(id);
        id
    }

    /// Place `x` just before `at`, which is never first (it is an add,
    /// and its arguments precede it).
    fn link_before(&mut self, x: u32, at: u32) {
        let prev = self.n[at].prev;
        if self.n[at].label - self.n[prev].label < 2 {
            // the gap has closed: spread every label out again
            let (mut id, mut label) = (self.head, 0);
            while id != NONE {
                self.n[id].label = label;
                label += LABEL_GAP;
                id = self.n[id].next;
            }
        }
        let (lo, hi) = (self.n[prev].label, self.n[at].label);
        let s = &mut self.n[x];
        (s.prev, s.next, s.label) = (prev, at, lo + (hi - lo) / 2);
        self.n[prev].next = x;
        self.n[at].prev = x;
    }

    fn unlink(&mut self, x: u32) {
        let (prev, next) = (self.n[x].prev, self.n[x].next);
        if prev == NONE {
            self.head = next;
        } else {
            self.n[prev].next = next;
        }
        if next != NONE {
            self.n[next].prev = prev;
        }
    }

    fn mark(&mut self, x: u32) {
        if !self.n[x].dirty {
            self.n[x].dirty = true;
            self.pending += 1;
        }
    }

    /// Remove one read of `x` by `u`; true when nothing reads `x` now.
    fn drop_read(&mut self, x: u32, u: u32) -> bool {
        let users = &mut self.n[x].users;
        let i = users
            .iter()
            .position(|&r| r == u)
            .expect("every read is listed");
        users.swap_remove(i);
        users.is_empty()
    }

    /// Make `u` read `new` wherever it reads `old`.
    fn redirect(&mut self, u: u32, old: u32, new: u32) {
        let (op, mut args) = (self.n[u].op, self.n[u].args);
        for arg in &mut args[..op.arity()] {
            if *arg == old {
                *arg = new;
                self.drop_read(old, u);
                self.n[new].users.push(u);
            }
        }
        self.n[u].args = args;
        if let Some(slot) = conv_slot(op) {
            self.n[new].conv[slot] = u;
        }
    }

    /// Remove `x`, which nothing reads, and every node only it kept
    /// alive; the surviving arguments' tails become pending.
    fn kill(&mut self, x: u32) {
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(x);
        while let Some(x) = stack.pop() {
            self.unlink(x);
            if std::mem::take(&mut self.n[x].dirty) {
                self.pending -= 1;
            }
            let (op, args) = (self.n[x].op, self.n[x].args);
            if let Some(slot) = conv_slot(op) {
                let conv = &mut self.n[args[0]].conv[slot];
                if *conv == x {
                    *conv = NONE;
                }
            }
            for &a in &args[..op.arity()] {
                if self.drop_read(a, x) {
                    stack.push(a);
                } else {
                    self.mark(a);
                }
            }
        }
        self.stack = stack;
    }

    /// Recompute the pending tails, walking back from `from` (the last
    /// pending node); a changed tail makes its arguments pending.
    fn propagate_tails(&mut self, from: u32, t: &OpTiming) {
        let mut x = from;
        while self.pending > 0 {
            if std::mem::take(&mut self.n[x].dirty) {
                self.pending -= 1;
                let s = &self.n[x];
                let after = s.users.iter().map(|&u| self.n[u].tail).max();
                let tail = t.latency(s.op) + after.unwrap_or(0);
                if tail != s.tail {
                    self.n[x].tail = tail;
                    let (op, args) = (self.n[x].op, self.n[x].args);
                    for &a in &args[..op.arity()] {
                        self.mark(a);
                    }
                }
            }
            x = self.n[x].prev;
        }
    }

    /// Recompute the pending finishes, walking forward from `from` (the
    /// first pending node or before it); a changed finish makes its
    /// users pending.
    fn propagate_finishes(&mut self, from: u32, t: &OpTiming) {
        let mut x = from;
        while self.pending > 0 {
            if std::mem::take(&mut self.n[x].dirty) {
                self.pending -= 1;
                let s = &self.n[x];
                let ready = s.args[..s.op.arity()]
                    .iter()
                    .map(|&a| self.n[a].finish)
                    .max();
                let finish = ready.unwrap_or(0) + t.latency(s.op);
                if finish != s.finish {
                    self.n[x].finish = finish;
                    for i in 0..self.n[x].users.len() {
                        self.mark(self.n[x].users[i]);
                    }
                }
            }
            x = self.n[x].next;
        }
    }

    /// Debug check after a splice: the graph is the streaming trial of
    /// the same candidate, node for node, and its timing is what
    /// scheduling it from scratch gives.
    fn assert_matches_trial(&mut self, len: u32, t: &OpTiming) {
        let mut flat = Vec::new();
        self.flatten(&mut flat);
        let same = |x: &Node, y: &Node| (std::ptr::eq(x.0, y.0) || x.0 == y.0) && x.1 == y.1;
        assert!(
            flat.len() == self.trial.len() && flat.iter().zip(&self.trial).all(|(x, y)| same(x, y)),
            "the splice differs from the streaming trial"
        );
        assert_eq!(self.length, len, "spliced length");
        let length = sweep(&flat, t, &mut self.finish, &mut self.tail);
        assert_eq!(self.length, length, "spliced length");
        let mut id = self.head;
        for (&finish, &tail) in self.finish.iter().zip(&self.tail) {
            let s = &self.n[id];
            assert_eq!((s.finish, s.tail), (finish, tail), "timing of node {id}");
            id = s.next;
        }
    }

    /// Rewrite the graph into `trial` with one candidate replaced by a
    /// conversion-wrapped FMA (Fig. 12b), conversions cancelled and
    /// shared, and dead nodes dropped; returns the trial's ASAP length.
    fn rewrite(&mut self, cand: &Candidate, kind: FmaKind, t: &OpTiming) -> u32 {
        let Work {
            n,
            head,
            trial,
            raw,
            map,
            finish,
            ..
        } = self;
        let k = kind as usize;
        raw.nodes.clear();
        raw.conv.clear();
        map.clear();
        map.resize(n.0.len(), NONE);
        let mut id = *head;
        while id != NONE {
            let Slot { op, args, .. } = n[id];
            let m = |a: u32| map[a as usize];
            let new = if id == cand.add_id {
                let mut a = m(cand.a_arg);
                if cand.negate_a {
                    a = raw.emit(&NEG, [a, 0, 0]);
                }
                let (b, c) = (m(cand.b_arg), m(cand.c_arg));
                let a_cs = raw.convert(&TO_CS[k], a);
                let c_cs = raw.convert(&TO_CS[k], c);
                let fma = raw.emit(&FMA[k][cand.negate_b as usize], [a_cs, b, c_cs]);
                raw.convert(&TO_IEEE[k], fma)
            } else if conv_slot(op).is_some() {
                raw.convert(op, m(args[0]))
            } else {
                let mut mapped = [0; 3];
                for (d, &a) in mapped.iter_mut().zip(&args[..op.arity()]) {
                    *d = m(a);
                }
                raw.emit(op, mapped)
            };
            map[id as usize] = new;
            id = n[id].next;
        }

        // drop what no output reaches: mark the rest (any value but
        // NONE), then compact in order, renumbering and scheduling ASAP
        map.clear();
        map.resize(raw.nodes.len(), NONE);
        for (id, &(op, args)) in raw.nodes.iter().enumerate().rev() {
            if matches!(op, Op::Output(_)) {
                map[id] = 0;
            }
            if map[id] != NONE {
                for &a in &args[..op.arity()] {
                    map[a as usize] = 0;
                }
            }
        }
        trial.clear();
        finish.clear();
        let mut length = 0;
        for (id, &(op, args)) in raw.nodes.iter().enumerate() {
            if map[id] == NONE {
                continue;
            }
            let mut renumbered = [0; 3];
            let mut s = 0;
            for (d, &a) in renumbered.iter_mut().zip(&args[..op.arity()]) {
                *d = map[a as usize];
                s = s.max(finish[*d as usize]);
            }
            map[id] = trial.len() as u32;
            trial.push((op, renumbered));
            let f = s + t.latency(op);
            finish.push(f);
            length = length.max(f);
        }
        length
    }
}

/// Raise a flat graph to a [`Cdfg`].
fn raise(nodes: &[Node]) -> Cdfg {
    let mut g = Cdfg::new();
    for &(op, args) in nodes {
        let args = args[..op.arity()].iter().map(|&a| a as NodeId).collect();
        g.push(op.clone(), args);
    }
    g
}

/// Run the full Fig. 12 pass.
///
/// ```
/// use csfma_hls::{fuse_critical_paths, parse_program, FmaKind, FusionConfig};
/// let g = parse_program("x1 = a*b + c*d; x2 = e*f + g*x1; out y = h*i + k*x2;").unwrap();
/// let rep = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs));
/// assert!(rep.final_length < rep.initial_length);
/// assert_eq!(rep.fma_nodes, 3); // all three chain links fuse
/// ```
pub fn fuse_critical_paths(g: &Cdfg, cfg: &FusionConfig) -> FusionReport {
    g.validate();
    let t = &cfg.timing;
    let mut work = Work::new(g, t);
    let initial_length = work.length;
    let (mut passes, mut trials) = (0, 0);
    'outer: while passes < cfg.max_passes {
        // try candidates in discovery order (position order, the
        // multiply as first argument before the multiply as second);
        // accept the first that does not lengthen the schedule
        for i in 0..work.adds.len() {
            let id = work.adds[i];
            for pos in 0..2 {
                if let Some(cand) = work.candidate(id, pos, t) {
                    trials += 1;
                    if work.try_fuse(&cand, cfg.kind, t) {
                        passes += 1;
                        continue 'outer;
                    }
                }
            }
        }
        break;
    }
    let mut flat = Vec::new();
    work.flatten(&mut flat);
    let cur = raise(&flat);
    cur.validate();
    debug_assert_dataflow_clean(&cur, t, "fusion result");
    let final_length = asap_schedule(&cur, t).length;
    if cfg!(debug_assertions) {
        // the dataflow schedule of the fused graph must be hazard-free
        let s = asap_schedule(&cur, t);
        let diags = lint_schedule(&cur, t, &s, &ResourceLimits::default());
        assert!(
            diags.is_empty(),
            "fused schedule has hazards:\n{}",
            csfma_verify::render_report(&diags)
        );
    }
    let fma_nodes = cur.count_ops(|o| matches!(o, Op::Fma { .. }));
    FusionReport {
        fused: cur,
        initial_length,
        final_length,
        fma_nodes,
        passes,
        trials,
    }
}

/// Sanity helper for tests and reports: domains of all nodes are
/// consistent and every FMA is conversion-wrapped or chained.
pub fn domains_consistent(g: &Cdfg) -> bool {
    g.nodes().iter().all(|n| match &n.op {
        Op::Fma { .. } => {
            g.nodes()[n.args[0]].op.domain() == Domain::Cs
                && g.nodes()[n.args[1]].op.domain() == Domain::Ieee
                && g.nodes()[n.args[2]].op.domain() == Domain::Cs
        }
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserting again and again at one spot closes the label gap; the
    /// labels are then spread out again and still increase along the
    /// position order.
    #[test]
    fn order_labels_survive_a_closed_gap() {
        let g = crate::parse_program("out y = a*b + c;").unwrap();
        let t = OpTiming::default();
        let mut work = Work::new(&g, &t);
        let add = work.adds[0];
        for _ in 0..70 {
            work.insert(&NEG, [0, 0, 0], add, &t);
        }
        let (mut id, mut labels) = (work.head, Vec::new());
        while id != NONE {
            labels.push(work.n[id].label);
            id = work.n[id].next;
        }
        assert_eq!(labels.len(), g.len() + 70);
        assert!(labels.windows(2).all(|w| w[0] < w[1]), "{labels:?}");
    }
}
