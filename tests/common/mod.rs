//! Graph generator shared by the integration tests that need random
//! straight-line datapaths.

use csfma::hls::{Cdfg, NodeId, Op};
use proptest::prelude::*;

/// Opcode pick and two argument picks for one generated node.
pub type OpPick = (usize, prop::sample::Index, prop::sample::Index);

/// Build a random straight-line graph: `n_inputs` inputs, then `ops`
/// arithmetic nodes whose arguments are sampled from everything built so
/// far, then outputs on the last node (always) and one sampled node.
/// Nodes neither output reaches stay in the graph as dead code.
pub fn random_graph(
    n_inputs: usize,
    consts: &[f64],
    ops: &[OpPick],
    extra_out: prop::sample::Index,
) -> Cdfg {
    let mut g = Cdfg::new();
    let mut nodes: Vec<NodeId> = (0..n_inputs).map(|i| g.input(format!("i{i}"))).collect();
    for &c in consts {
        nodes.push(g.constant(c));
    }
    for (op, ia, ib) in ops {
        let a = nodes[ia.index(nodes.len())];
        let b = nodes[ib.index(nodes.len())];
        let id = match op % 5 {
            0 => g.add(a, b),
            1 => g.sub(a, b),
            2 => g.mul(a, b),
            3 => g.div(a, b),
            _ => g.push(Op::Neg, vec![a]),
        };
        nodes.push(id);
    }
    g.output("last", *nodes.last().unwrap());
    g.output("probe", nodes[extra_out.index(nodes.len())]);
    g
}
