//! Pass 1: domain/format dataflow checking.
//!
//! Walks every edge of a [`Graph`] and reports, as [`Diagnostic`]s:
//!
//! * **D001 arity-mismatch** — a node's argument count differs from its
//!   port count;
//! * **D002 edge-order** — an argument index points at the node itself,
//!   a later node, or past the end of the graph (a cycle or dangling
//!   edge; node order is the topological witness, so any violation
//!   breaks acyclicity);
//! * **D003 domain-mismatch** — a producer's result domain differs from
//!   the consuming port's expected domain (an IEEE adder fed a raw
//!   carry-save value, or a CS-domain FMA port fed a packed IEEE word);
//! * **D004 redundant-conversion** — a conversion that immediately
//!   cancels against the conversion producing its input within the same
//!   unit format, or that duplicates a sibling conversion of the same
//!   value (both should have been removed by the Fig. 12c elimination);
//! * **D005 dead-node** — an interior node no sink transitively uses;
//! * **D006 no-sink** — a non-empty graph with no output at all.

use crate::diag::{Diagnostic, Rule, Span};
use crate::graph::{Domain, Graph, Role};
use std::collections::hash_map::{Entry, HashMap};

/// Run the dataflow pass over `g`. Returns all findings; empty means
/// the graph is domain-consistent, acyclic and fully live.
pub fn check_dataflow(g: &Graph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let n = g.nodes.len();

    for (id, node) in g.nodes.iter().enumerate() {
        if node.args.len() != node.ports.len() {
            diags.push(Diagnostic::error(
                Rule::ArityMismatch,
                Span::Node(id),
                format!(
                    "{} has {} argument(s) but declares {} port(s)",
                    node.label,
                    node.args.len(),
                    node.ports.len()
                ),
            ));
        }
        for (slot, (&arg, port)) in node.args.iter().zip(&node.ports).enumerate() {
            if arg >= id {
                let why = if arg >= n {
                    "a nonexistent node"
                } else if arg == id {
                    "itself"
                } else {
                    "a later node (cycle)"
                };
                diags.push(Diagnostic::error(
                    Rule::EdgeOrder,
                    Span::Edge {
                        user: id,
                        arg: slot,
                    },
                    format!("{} argument {slot} refers to {why}: node {arg}", node.label),
                ));
                continue;
            }
            let producer = &g.nodes[arg];
            if producer.result != *port {
                diags.push(Diagnostic::error(
                    Rule::DomainMismatch,
                    Span::Edge {
                        user: id,
                        arg: slot,
                    },
                    format!(
                        "{} port {slot} expects {} but node {arg} ({}) produces {}",
                        node.label, port, producer.label, producer.result
                    ),
                ));
            }
        }
    }

    check_conversions(g, &mut diags);
    check_liveness(g, &mut diags);
    diags
}

/// D004: conversions that cancel against their producer or duplicate a
/// sibling. Only well-formed edges (in-range, single-argument
/// conversions) are inspected; malformed ones are already reported
/// above. A duplicate names the first earlier conversion of the same
/// source, unit format and direction, found in one table lookup.
fn check_conversions(g: &Graph, diags: &mut Vec<Diagnostic>) {
    let mut seen: HashMap<(usize, &str, Domain), usize> = HashMap::new();
    for (id, node) in g.nodes.iter().enumerate() {
        let Some(conv) = &node.conv else { continue };
        let Some(&src) = node.args.first() else {
            continue;
        };
        if src >= id {
            continue;
        }
        if let Some(prod_conv) = &g.nodes[src].conv {
            if prod_conv.unit == conv.unit && prod_conv.to != conv.to {
                diags.push(Diagnostic::warning(
                    Rule::RedundantConversion,
                    Span::Node(id),
                    format!(
                        "{} cancels against node {src} ({}) within unit format {:?}; \
                         conversion elimination should have removed the pair",
                        node.label, g.nodes[src].label, conv.unit
                    ),
                ));
            }
        }
        match seen.entry((src, conv.unit.as_str(), conv.to)) {
            Entry::Occupied(first) => diags.push(Diagnostic::warning(
                Rule::RedundantConversion,
                Span::Node(id),
                format!(
                    "{} duplicates node {}: same source (node {src}) and \
                     same conversion into {:?}",
                    node.label,
                    first.get(),
                    conv.unit
                ),
            )),
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
        }
    }
}

/// D005/D006: liveness from sinks backwards over well-formed edges.
fn check_liveness(g: &Graph, diags: &mut Vec<Diagnostic>) {
    if g.nodes.is_empty() {
        return;
    }
    let sinks: Vec<usize> = g
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.role == Role::Sink)
        .map(|(i, _)| i)
        .collect();
    if sinks.is_empty() {
        diags.push(Diagnostic::warning(
            Rule::NoSink,
            Span::Global,
            format!("graph has {} node(s) but no output", g.nodes.len()),
        ));
        return;
    }
    let mut live = vec![false; g.nodes.len()];
    let mut stack = sinks;
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut live[id], true) {
            continue;
        }
        for &arg in &g.nodes[id].args {
            if arg < id && !live[arg] {
                stack.push(arg);
            }
        }
    }
    for (id, node) in g.nodes.iter().enumerate() {
        if !live[id] && node.role == Role::Interior {
            diags.push(Diagnostic::warning(
                Rule::DeadNode,
                Span::Node(id),
                format!("{} is not used by any output", node.label),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Domain, Node, Role};

    fn input(g: &mut Graph) -> usize {
        g.push(Node::new("Input", Domain::Ieee).with_role(Role::Source))
    }

    fn clean_graph() -> Graph {
        let mut g = Graph::new();
        let a = input(&mut g);
        let b = input(&mut g);
        let m = g.push(
            Node::new("Mul", Domain::Ieee)
                .with_args(vec![a, b], vec![Domain::Ieee, Domain::Ieee])
                .with_latency(5)
                .with_resource("mul"),
        );
        g.push(
            Node::new("Output", Domain::Ieee)
                .with_args(vec![m], vec![Domain::Ieee])
                .with_role(Role::Sink),
        );
        g
    }

    #[test]
    fn clean_graph_has_no_findings() {
        assert!(check_dataflow(&clean_graph()).is_empty());
    }

    #[test]
    fn domain_mismatch_is_d003() {
        let mut g = Graph::new();
        let a = input(&mut g);
        let cs = g.push(
            Node::new("IeeeToCs", Domain::Cs)
                .with_args(vec![a], vec![Domain::Ieee])
                .with_conversion("pcs-55-zd", Domain::Cs),
        );
        // Add expects IEEE on both ports but gets the raw CS value.
        let s = g.push(
            Node::new("Add", Domain::Ieee).with_args(vec![a, cs], vec![Domain::Ieee, Domain::Ieee]),
        );
        g.push(
            Node::new("Output", Domain::Ieee)
                .with_args(vec![s], vec![Domain::Ieee])
                .with_role(Role::Sink),
        );
        let diags = check_dataflow(&g);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::DomainMismatch
                    && d.span == Span::Edge { user: s, arg: 1 }),
            "{diags:?}"
        );
    }

    #[test]
    fn cycle_and_dangling_are_d002() {
        let mut g = Graph::new();
        let a = input(&mut g);
        g.push(
            Node::new("Add", Domain::Ieee)
                .with_args(vec![a, 99], vec![Domain::Ieee, Domain::Ieee])
                .with_role(Role::Sink),
        );
        let diags = check_dataflow(&g);
        assert!(diags.iter().any(|d| d.rule == Rule::EdgeOrder), "{diags:?}");
    }

    #[test]
    fn arity_mismatch_is_d001() {
        let mut g = Graph::new();
        let a = input(&mut g);
        g.push(
            Node::new("Add", Domain::Ieee)
                .with_args(vec![a], vec![Domain::Ieee, Domain::Ieee])
                .with_role(Role::Sink),
        );
        let diags = check_dataflow(&g);
        assert!(
            diags.iter().any(|d| d.rule == Rule::ArityMismatch),
            "{diags:?}"
        );
    }

    #[test]
    fn cancelling_conversion_pair_is_d004() {
        let mut g = Graph::new();
        let a = input(&mut g);
        let to_cs = g.push(
            Node::new("IeeeToCs", Domain::Cs)
                .with_args(vec![a], vec![Domain::Ieee])
                .with_conversion("pcs-55-zd", Domain::Cs),
        );
        let back = g.push(
            Node::new("CsToIeee", Domain::Ieee)
                .with_args(vec![to_cs], vec![Domain::Cs])
                .with_conversion("pcs-55-zd", Domain::Ieee),
        );
        g.push(
            Node::new("Output", Domain::Ieee)
                .with_args(vec![back], vec![Domain::Ieee])
                .with_role(Role::Sink),
        );
        let diags = check_dataflow(&g);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::RedundantConversion && d.span == Span::Node(back)),
            "{diags:?}"
        );
    }

    /// A conversion of `src` into (`to = Cs`) or out of `unit`.
    fn conversion(g: &mut Graph, src: usize, unit: &str, to: Domain) -> usize {
        let (label, from) = match to {
            Domain::Cs => ("IeeeToCs", Domain::Ieee),
            Domain::Ieee => ("CsToIeee", Domain::Cs),
        };
        g.push(
            Node::new(label, to)
                .with_args(vec![src], vec![from])
                .with_conversion(unit, to),
        )
    }

    fn duplicate_spans(diags: &[Diagnostic]) -> Vec<(Span, String)> {
        diags
            .iter()
            .filter(|d| d.rule == Rule::RedundantConversion && d.message.contains("duplicates"))
            .map(|d| (d.span.clone(), d.message.clone()))
            .collect()
    }

    #[test]
    fn duplicate_sibling_conversion_is_d004_and_names_the_first() {
        let mut g = Graph::new();
        let a = input(&mut g);
        let first = conversion(&mut g, a, "pcs-55-zd", Domain::Cs);
        // another unit format: not a duplicate
        conversion(&mut g, a, "fcs-55-zd", Domain::Cs);
        let second = conversion(&mut g, a, "pcs-55-zd", Domain::Cs);
        let third = conversion(&mut g, a, "pcs-55-zd", Domain::Cs);
        let dups = duplicate_spans(&check_dataflow(&g));
        assert_eq!(
            dups.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>(),
            [Span::Node(second), Span::Node(third)],
            "{dups:?}"
        );
        for (_, message) in &dups {
            assert!(
                message.contains(&format!("duplicates node {first}:")),
                "{message}"
            );
        }
    }

    /// The duplicate half of D004 against the quadratic scan it replaced:
    /// every earlier conversion compared with each new one.
    #[test]
    fn many_conversions_match_a_brute_force_duplicate_scan() {
        let mut g = Graph::new();
        let ieee: Vec<usize> = (0..12).map(|_| input(&mut g)).collect();
        let mut cs = Vec::new();
        let units = ["pcs-55-zd", "fcs-55-zd", "pcs-58"];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for _ in 0..400 {
            let unit = units[next(units.len())];
            if cs.is_empty() || next(2) == 0 {
                let src = ieee[next(ieee.len())];
                cs.push(conversion(&mut g, src, unit, Domain::Cs));
            } else {
                let src = cs[next(cs.len())];
                conversion(&mut g, src, unit, Domain::Ieee);
            }
        }
        let mut want = Vec::new();
        let mut seen: Vec<(usize, &crate::graph::Conversion)> = Vec::new();
        for (id, node) in g.nodes.iter().enumerate() {
            let Some(conv) = &node.conv else { continue };
            let src = node.args[0];
            if let Some(&(dup, _)) = seen
                .iter()
                .find(|(other, c)| g.nodes[*other].args[0] == src && **c == *conv)
            {
                want.push((Span::Node(id), dup));
            }
            seen.push((id, conv));
        }
        assert!(want.len() > 100, "only {} duplicates generated", want.len());
        let got = duplicate_spans(&check_dataflow(&g));
        assert_eq!(got.len(), want.len());
        for ((span, message), (want_span, dup)) in got.iter().zip(&want) {
            assert_eq!(span, want_span);
            assert!(
                message.contains(&format!("duplicates node {dup}:")),
                "{message}"
            );
        }
    }

    #[test]
    fn dead_interior_node_is_d005_but_unused_input_is_not() {
        let mut g = Graph::new();
        let a = input(&mut g);
        let b = input(&mut g); // unused source: fine
        let _ = b;
        let dead = g.push(Node::new("Neg", Domain::Ieee).with_args(vec![a], vec![Domain::Ieee]));
        g.push(
            Node::new("Output", Domain::Ieee)
                .with_args(vec![a], vec![Domain::Ieee])
                .with_role(Role::Sink),
        );
        let diags = check_dataflow(&g);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::DeadNode);
        assert_eq!(diags[0].span, Span::Node(dead));
    }

    #[test]
    fn sinkless_graph_is_d006() {
        let mut g = Graph::new();
        let a = input(&mut g);
        g.push(Node::new("Neg", Domain::Ieee).with_args(vec![a], vec![Domain::Ieee]));
        let diags = check_dataflow(&g);
        assert!(diags.iter().any(|d| d.rule == Rule::NoSink), "{diags:?}");
    }
}
