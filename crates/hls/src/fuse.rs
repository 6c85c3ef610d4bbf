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
//! The loop runs on a private flat working graph: one `(&Op, [u32; 3])`
//! per node, whose ops are borrowed from the input graph or are the
//! static negation, conversion and FMA ops a rewrite inserts. A trial
//! (steps 2–4) is one streaming rewrite into buffers reused across
//! trials; the result is raised to a [`Cdfg`] once, at the end — and
//! after every trial in debug builds, so the dataflow checker sees each
//! one.

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
}

/// One node of the working graph: its operation and its argument ids
/// (the first `op.arity()` entries).
type Node<'a> = (&'a Op, [u32; 3]);

/// Marks an absent id (no cached conversion, dead node).
const NONE: u32 = u32::MAX;

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
    /// Per node: the conversions made of it so far, `[IeeeToCs(Pcs),
    /// IeeeToCs(Fcs), CsToIeee(Pcs), CsToIeee(Fcs)]`.
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
        let slot = match op {
            Op::IeeeToCs(k) => {
                if let (Op::CsToIeee(k2), args) = self.nodes[src as usize] {
                    if k2 == k {
                        return args[0];
                    }
                }
                *k as usize
            }
            Op::CsToIeee(k) => 2 + *k as usize,
            _ => unreachable!("{op:?} is not a conversion"),
        };
        let cached = self.conv[src as usize][slot];
        if cached != NONE {
            return cached;
        }
        let id = self.emit(op, [src, 0, 0]);
        self.conv[src as usize][slot] = id;
        id
    }
}

/// The working graph and the buffers its trials and scans reuse.
struct Work<'a> {
    /// The graph as accepted so far.
    cur: Vec<Node<'a>>,
    /// The last trial, dead nodes removed; swapped into `cur` on accept.
    trial: Vec<Node<'a>>,
    raw: Rewrite<'a>,
    /// `cur` → `raw` ids during a rewrite, then `raw` → `trial` ids.
    map: Vec<u32>,
    /// Per node: ASAP finish cycle.
    finish: Vec<u32>,
    /// Per node: ALAP start cycle.
    alap: Vec<u32>,
}

impl<'a> Work<'a> {
    fn new(g: &'a Cdfg) -> Self {
        // an accepted trial replaces one Add or Sub with at most five
        // nodes, so ids stay below six times the input's node count
        assert!(
            g.len() < (NONE / 8) as usize,
            "graph too large to fuse: {} nodes",
            g.len()
        );
        let cur = g
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
        Work {
            cur,
            trial: Vec::new(),
            raw: Rewrite::default(),
            map: Vec::new(),
            finish: Vec::new(),
            alap: Vec::new(),
        }
    }

    /// Fill `out` with the candidates of `cur`, in discovery order.
    fn find_candidates(&mut self, t: &OpTiming, out: &mut Vec<Candidate>) {
        let Work {
            cur, finish, alap, ..
        } = self;
        let mut length = 0;
        finish.clear();
        for &(op, args) in cur.iter() {
            let s = args[..op.arity()]
                .iter()
                .map(|&a| finish[a as usize])
                .max()
                .unwrap_or(0);
            let f = s + t.latency(op);
            finish.push(f);
            length = length.max(f);
        }
        // ALAP by a reverse sweep: `alap[id]` holds the earliest start
        // of the node's users (or the length) until the node is reached
        alap.clear();
        alap.resize(cur.len(), length);
        for (id, &(op, args)) in cur.iter().enumerate().rev() {
            let late = alap[id].saturating_sub(t.latency(op));
            alap[id] = late;
            for &a in &args[..op.arity()] {
                alap[a as usize] = alap[a as usize].min(late);
            }
        }
        let critical = |id: u32| {
            let id = id as usize;
            finish[id] - t.latency(cur[id].0) == alap[id]
        };

        out.clear();
        for (add_id, &(op, args)) in cur.iter().enumerate() {
            let is_sub = match op {
                Op::Add => false,
                Op::Sub => true,
                _ => continue,
            };
            let add_id = add_id as u32;
            if !critical(add_id) {
                continue;
            }
            // find a critical multiply among the arguments
            for pos in 0..2 {
                let (mul_op, [u, w, _]) = cur[args[pos] as usize];
                if !matches!(mul_op, Op::Mul) || !critical(args[pos]) {
                    continue;
                }
                let (negate_a, negate_b) = if !is_sub {
                    (false, false)
                } else if pos == 1 {
                    (false, true) // x - m  =  x + (-b)*c
                } else {
                    (true, false) // m - x  =  (-x) + b*c
                };
                // pick the critical (later-finishing) multiplier input as C
                let (b_arg, c_arg) = if finish[u as usize] >= finish[w as usize] {
                    (w, u)
                } else {
                    (u, w)
                };
                out.push(Candidate {
                    add_id,
                    a_arg: args[1 - pos],
                    negate_a,
                    b_arg,
                    negate_b,
                    c_arg,
                });
            }
        }
    }

    /// Rewrite `cur` into `trial` with one candidate replaced by a
    /// conversion-wrapped FMA (Fig. 12b), conversions cancelled and
    /// shared, and dead nodes dropped; returns the trial's ASAP length.
    fn rewrite(&mut self, cand: &Candidate, kind: FmaKind, t: &OpTiming) -> u32 {
        let Work {
            cur,
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
        for (id, &(op, args)) in cur.iter().enumerate() {
            let m = |a: u32| map[a as usize];
            let new = if id as u32 == cand.add_id {
                let mut a = m(cand.a_arg);
                if cand.negate_a {
                    a = raw.emit(&NEG, [a, 0, 0]);
                }
                let (b, c) = (m(cand.b_arg), m(cand.c_arg));
                let a_cs = raw.convert(&TO_CS[k], a);
                let c_cs = raw.convert(&TO_CS[k], c);
                let fma = raw.emit(&FMA[k][cand.negate_b as usize], [a_cs, b, c_cs]);
                raw.convert(&TO_IEEE[k], fma)
            } else if let Op::IeeeToCs(_) | Op::CsToIeee(_) = op {
                raw.convert(op, m(args[0]))
            } else {
                let mut mapped = [0; 3];
                for (d, &a) in mapped.iter_mut().zip(&args[..op.arity()]) {
                    *d = m(a);
                }
                raw.emit(op, mapped)
            };
            map.push(new);
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

/// Raise a working graph to a [`Cdfg`].
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
    let initial_length = asap_schedule(g, t).length;
    let mut work = Work::new(g);
    let mut cands = Vec::new();
    let mut cur_length = initial_length;
    let mut passes = 0;
    'outer: while passes < cfg.max_passes {
        // try candidates in discovery order; accept the first that does
        // not lengthen the dataflow schedule (neutral fusions are kept:
        // they become profitable once neighboring links fuse and the
        // conversions between them cancel)
        work.find_candidates(t, &mut cands);
        for cand in &cands {
            let len = work.rewrite(cand, cfg.kind, t);
            // every trial rewrite must leave the graph domain-consistent,
            // whether or not it is accepted (debug builds only)
            if cfg!(debug_assertions) {
                debug_assert_dataflow_clean(&raise(&work.trial), t, "fusion trial rewrite");
            }
            if len <= cur_length {
                std::mem::swap(&mut work.cur, &mut work.trial);
                cur_length = len;
                passes += 1;
                continue 'outer;
            }
        }
        break;
    }
    let cur = raise(&work.cur);
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
