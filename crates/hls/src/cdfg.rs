//! The datapath IR: a DAG of floating-point operations.
//!
//! Nodes are stored in topological order (arguments always precede their
//! users), which straight-line solver code produces naturally. Two value
//! domains exist: plain IEEE 754 (`Domain::Ieee`) and the carry-save FMA
//! transport format (`Domain::Cs`); explicit conversion nodes cross
//! between them, exactly like the conversion hardware the fusion pass
//! inserts (Fig. 12b).

/// Index of a node in its [`Cdfg`].
pub type NodeId = usize;

/// Which carry-save FMA unit a fused node targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FmaKind {
    /// PCS-FMA (5 cycles at 200 MHz).
    Pcs,
    /// FCS-FMA (3 cycles at 200 MHz; needs DSP48E1 pre-adders).
    Fcs,
}

/// Value domain of a node's result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Domain {
    /// IEEE 754 binary64.
    Ieee,
    /// Carry-save transport format of the FMA chain.
    Cs,
}

/// Operation of a node. Argument counts and domains are validated by
/// [`Cdfg::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Named external input (IEEE).
    Input(String),
    /// Compile-time constant (IEEE).
    Const(f64),
    /// IEEE addition.
    Add,
    /// IEEE subtraction (`args[0] - args[1]`).
    Sub,
    /// IEEE multiplication.
    Mul,
    /// IEEE division (never fused; stays a discrete operator).
    Div,
    /// IEEE negation (sign flip — zero latency wiring).
    Neg,
    /// Fused multiply-add `args[0] + args[1] * args\[2\]` where `args[0]`
    /// (addend) and `args\[2\]` (chained multiplicand) are in the CS domain
    /// and `args[1]` is IEEE (the non-critical `B` input, Sec. III-D).
    /// `negate_b` folds a subtraction into the unit (`A - B*C`).
    Fma {
        /// Target unit.
        kind: FmaKind,
        /// Negate the IEEE `B` input (free sign flip).
        negate_b: bool,
    },
    /// IEEE → CS conversion (wiring + optional complement; 1 cycle).
    IeeeToCs(FmaKind),
    /// CS → IEEE conversion (carry resolve + normalize + round; 3 cycles).
    CsToIeee(FmaKind),
    /// Named external output (IEEE).
    Output(String),
}

impl Op {
    /// Expected argument count.
    pub fn arity(&self) -> usize {
        match self {
            Op::Input(_) | Op::Const(_) => 0,
            Op::Neg | Op::IeeeToCs(_) | Op::CsToIeee(_) | Op::Output(_) => 1,
            Op::Add | Op::Sub | Op::Mul | Op::Div => 2,
            Op::Fma { .. } => 3,
        }
    }

    /// Result domain.
    pub fn domain(&self) -> Domain {
        match self {
            Op::Fma { .. } | Op::IeeeToCs(_) => Domain::Cs,
            _ => Domain::Ieee,
        }
    }
}

/// One node: an operation applied to earlier nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Argument node ids (all `<` this node's id).
    pub args: Vec<NodeId>,
}

/// A straight-line floating-point datapath.
#[derive(Clone, Debug, Default)]
pub struct Cdfg {
    nodes: Vec<Node>,
}

impl Cdfg {
    /// Empty graph.
    pub fn new() -> Self {
        Cdfg { nodes: Vec::new() }
    }

    /// Empty graph with room for `n` nodes.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Cdfg {
            nodes: Vec::with_capacity(n),
        }
    }

    /// Append a node; returns its id.
    ///
    /// # Panics
    /// If arity is wrong or an argument id is not an earlier node.
    pub fn push(&mut self, op: Op, args: Vec<NodeId>) -> NodeId {
        assert_eq!(args.len(), op.arity(), "arity mismatch for {op:?}");
        let id = self.nodes.len();
        for &a in &args {
            assert!(a < id, "argument {a} must precede node {id}");
        }
        self.nodes.push(Node { op, args });
        id
    }

    /// Append a node **without** the arity/ordering checks of [`push`].
    ///
    /// Exists so tests (and fuzzers) can build deliberately broken graphs
    /// and assert that [`validate_diagnostics`] reports the right rule;
    /// production passes must use [`push`].
    ///
    /// [`push`]: Cdfg::push
    /// [`validate_diagnostics`]: Cdfg::validate_diagnostics
    pub fn push_unchecked(&mut self, op: Op, args: Vec<NodeId>) -> NodeId {
        self.nodes.push(Node { op, args });
        self.nodes.len() - 1
    }

    /// Convenience: named input.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        self.push(Op::Input(name.into()), vec![])
    }

    /// Convenience: constant.
    pub fn constant(&mut self, v: f64) -> NodeId {
        self.push(Op::Const(v), vec![])
    }

    /// Convenience: `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Add, vec![a, b])
    }

    /// Convenience: `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Sub, vec![a, b])
    }

    /// Convenience: `a * b`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Mul, vec![a, b])
    }

    /// Convenience: `a / b`.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Div, vec![a, b])
    }

    /// Convenience: named output.
    pub fn output(&mut self, name: impl Into<String>, v: NodeId) -> NodeId {
        self.push(Op::Output(name.into()), vec![v])
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all `Output` nodes.
    pub fn outputs(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| matches!(self.nodes[i].op, Op::Output(_)))
            .collect()
    }

    /// Count nodes matching a predicate.
    pub fn count_ops(&self, pred: impl Fn(&Op) -> bool) -> usize {
        self.nodes.iter().filter(|n| pred(&n.op)).count()
    }

    /// Users of each node (reverse edges).
    pub fn users(&self) -> Vec<Vec<NodeId>> {
        let mut users = vec![Vec::new(); self.nodes.len()];
        for (id, n) in self.nodes.iter().enumerate() {
            for &a in &n.args {
                users[a].push(id);
            }
        }
        users
    }

    /// Check structural and domain invariants, reporting every violation
    /// as a structured [`Diagnostic`](csfma_verify::Diagnostic):
    /// `D001` (arity), `D002` (edge order / cycle), `D003` (domain
    /// mismatch, or a carry-save port reading the other [`FmaKind`]'s
    /// format). `Ok(())` means the graph is well-formed.
    pub fn validate_diagnostics(&self) -> Result<(), Vec<csfma_verify::Diagnostic>> {
        use csfma_verify::{Diagnostic, Rule, Span};
        let mut diags = Vec::new();
        for (id, n) in self.nodes.iter().enumerate() {
            if n.args.len() != n.op.arity() {
                diags.push(Diagnostic::error(
                    Rule::ArityMismatch,
                    Span::Node(id),
                    format!(
                        "{:?} takes {} argument(s) but has {}",
                        n.op,
                        n.op.arity(),
                        n.args.len()
                    ),
                ));
            }
            let mut ordered = true;
            for (slot, &a) in n.args.iter().enumerate() {
                if a >= id {
                    ordered = false;
                    diags.push(Diagnostic::error(
                        Rule::EdgeOrder,
                        Span::Edge {
                            user: id,
                            arg: slot,
                        },
                        format!("argument refers to node {a}, which does not precede node {id}"),
                    ));
                }
            }
            if !ordered || n.args.len() != n.op.arity() {
                continue; // domain checks need well-formed edges
            }
            let expected: &[Domain] = match &n.op {
                Op::Input(_) | Op::Const(_) => &[],
                Op::Neg | Op::Output(_) | Op::IeeeToCs(_) => &[Domain::Ieee],
                Op::CsToIeee(_) => &[Domain::Cs],
                Op::Add | Op::Sub | Op::Mul | Op::Div => &[Domain::Ieee, Domain::Ieee],
                Op::Fma { .. } => &[Domain::Cs, Domain::Ieee, Domain::Cs],
            };
            for (slot, (&a, &want)) in n.args.iter().zip(expected).enumerate() {
                let got = self.nodes[a].op.domain();
                if got != want {
                    diags.push(Diagnostic::error(
                        Rule::DomainMismatch,
                        Span::Edge {
                            user: id,
                            arg: slot,
                        },
                        format!(
                            "{:?} port {slot} expects {want:?} but node {a} \
                             ({:?}) produces {got:?}",
                            n.op, self.nodes[a].op
                        ),
                    ));
                }
            }
            // PCS and FCS words have different carry geometries, so a
            // carry-save port must read its own unit's format
            if let Op::Fma { kind, .. } | Op::CsToIeee(kind) = n.op {
                for (slot, (&a, &want)) in n.args.iter().zip(expected).enumerate() {
                    let src = &self.nodes[a].op;
                    let other =
                        matches!(src, Op::Fma { kind: k, .. } | Op::IeeeToCs(k) if *k != kind);
                    if want == Domain::Cs && other {
                        diags.push(Diagnostic::error(
                            Rule::DomainMismatch,
                            Span::Edge {
                                user: id,
                                arg: slot,
                            },
                            format!(
                                "{:?} port {slot} reads node {a} ({src:?}), whose \
                                 carry-save value is in the other unit's format",
                                n.op
                            ),
                        ));
                    }
                }
            }
        }
        if diags.is_empty() {
            Ok(())
        } else {
            Err(diags)
        }
    }

    /// Check structural and domain invariants.
    ///
    /// Thin wrapper over [`validate_diagnostics`](Cdfg::validate_diagnostics).
    ///
    /// # Panics
    /// With a rendered report if any invariant is violated.
    #[track_caller]
    pub fn validate(&self) {
        if let Err(diags) = self.validate_diagnostics() {
            panic!("invalid Cdfg:\n{}", csfma_verify::render_report(&diags));
        }
    }

    /// Remove nodes that no output transitively depends on; returns the
    /// compacted graph and the old→new id mapping.
    pub fn eliminate_dead(&self) -> (Cdfg, Vec<Option<NodeId>>) {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.outputs();
        while let Some(id) = stack.pop() {
            if live[id] {
                continue;
            }
            live[id] = true;
            stack.extend(self.nodes[id].args.iter().copied());
        }
        let mut map = vec![None; self.nodes.len()];
        let mut out = Cdfg::new();
        for (id, n) in self.nodes.iter().enumerate() {
            if live[id] {
                let args = n.args.iter().map(|&a| map[a].unwrap()).collect();
                map[id] = Some(out.push(n.op.clone(), args));
            }
        }
        (out, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_listing1() {
        // Listing 1: x1 = a*b + c*d; x2 = e*f + g*x1; x3 = h*i + k*x2
        let mut g = Cdfg::new();
        let names: Vec<NodeId> = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "k"]
            .iter()
            .map(|n| g.input(*n))
            .collect();
        let x1 = {
            let m1 = g.mul(names[0], names[1]);
            let m2 = g.mul(names[2], names[3]);
            g.add(m1, m2)
        };
        let x2 = {
            let m1 = g.mul(names[4], names[5]);
            let m2 = g.mul(names[6], x1);
            g.add(m1, m2)
        };
        let x3 = {
            let m1 = g.mul(names[7], names[8]);
            let m2 = g.mul(names[9], x2);
            g.add(m1, m2)
        };
        g.output("x3", x3);
        g.validate();
        assert_eq!(g.count_ops(|o| matches!(o, Op::Mul)), 6);
        assert_eq!(g.count_ops(|o| matches!(o, Op::Add)), 3);
    }

    #[test]
    #[should_panic]
    fn domain_violation_caught() {
        let mut g = Cdfg::new();
        let a = g.input("a");
        let cs = g.push(Op::IeeeToCs(FmaKind::Pcs), vec![a]);
        g.push(Op::Add, vec![cs, a]); // CS into IEEE add
        g.validate();
    }

    #[test]
    fn dead_elimination() {
        let mut g = Cdfg::new();
        let a = g.input("a");
        let b = g.input("b");
        let dead = g.mul(a, b);
        let live = g.add(a, b);
        let _ = dead;
        g.output("y", live);
        let (g2, map) = g.eliminate_dead();
        g2.validate();
        assert_eq!(g2.count_ops(|o| matches!(o, Op::Mul)), 0);
        assert!(map[dead].is_none());
        assert!(map[live].is_some());
    }

    #[test]
    fn validate_diagnostics_reports_all_violations() {
        use csfma_verify::Rule;
        let mut g = Cdfg::new();
        let a = g.input("a");
        let cs = g.push(Op::IeeeToCs(FmaKind::Pcs), vec![a]);
        g.push_unchecked(Op::Add, vec![cs, a]); // D003 on port 0
        g.push_unchecked(Op::Mul, vec![a]); // D001
        g.push_unchecked(Op::Neg, vec![9]); // D002
        let diags = g.validate_diagnostics().unwrap_err();
        let rules: Vec<Rule> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&Rule::DomainMismatch), "{diags:?}");
        assert!(rules.contains(&Rule::ArityMismatch), "{diags:?}");
        assert!(rules.contains(&Rule::EdgeOrder), "{diags:?}");
    }

    #[test]
    fn valid_graph_has_no_diagnostics() {
        let mut g = Cdfg::new();
        let a = g.input("a");
        let m = g.mul(a, a);
        g.output("y", m);
        assert!(g.validate_diagnostics().is_ok());
    }

    #[test]
    fn users_reverse_edges() {
        let mut g = Cdfg::new();
        let a = g.input("a");
        let m = g.mul(a, a);
        g.output("y", m);
        let users = g.users();
        assert_eq!(users[a], vec![m, m]);
    }
}
