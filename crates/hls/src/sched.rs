//! Operator timing and scheduling.
//!
//! Latencies are cycles at the 200 MHz system clock the paper targets for
//! all operators (Sec. IV-A/IV-D). All operators are fully pipelined
//! (initiation interval 1), so a *time-multiplexed* unit can start a new
//! operation every cycle — resource constraints bound the number of
//! simultaneous starts per operator class, the way Nymble shares units.

use crate::cdfg::{Cdfg, FmaKind, NodeId, Op};

/// Operator latencies in cycles at 200 MHz.
#[derive(Clone, Copy, Debug)]
pub struct OpTiming {
    /// CoreGen-style discrete multiplier ("low latency", 5 cycles).
    pub mul: u32,
    /// CoreGen-style discrete adder/subtractor (4 cycles).
    pub add: u32,
    /// Discrete divider (CoreGen low-latency double divider).
    pub div: u32,
    /// PCS-FMA (Table I).
    pub fma_pcs: u32,
    /// FCS-FMA (Table I).
    pub fma_fcs: u32,
    /// IEEE → CS conversion: widening wiring plus a registered complement.
    pub ieee_to_cs: u32,
    /// CS → IEEE conversion: carry resolve, normalize, round.
    pub cs_to_ieee: u32,
}

impl Default for OpTiming {
    fn default() -> Self {
        OpTiming {
            mul: 5,
            add: 4,
            div: 28,
            fma_pcs: 5,
            fma_fcs: 3,
            ieee_to_cs: 1,
            cs_to_ieee: 3,
        }
    }
}

impl OpTiming {
    /// Latency of one operation.
    pub fn latency(&self, op: &Op) -> u32 {
        match op {
            Op::Input(_) | Op::Const(_) | Op::Output(_) | Op::Neg => 0,
            Op::Add | Op::Sub => self.add,
            Op::Mul => self.mul,
            Op::Div => self.div,
            Op::Fma {
                kind: FmaKind::Pcs, ..
            } => self.fma_pcs,
            Op::Fma {
                kind: FmaKind::Fcs, ..
            } => self.fma_fcs,
            Op::IeeeToCs(_) => self.ieee_to_cs,
            Op::CsToIeee(_) => self.cs_to_ieee,
        }
    }
}

/// A computed schedule.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Start cycle of each node.
    pub start: Vec<u32>,
    /// Total schedule length in cycles (`max(start + latency)`).
    pub length: u32,
}

/// Unconstrained as-soon-as-possible schedule: the dataflow-limited
/// latency, i.e. the critical-path length in cycles.
pub fn asap_schedule(g: &Cdfg, t: &OpTiming) -> Schedule {
    let mut start = vec![0u32; g.len()];
    let mut length = 0;
    for (id, n) in g.nodes().iter().enumerate() {
        let s = n
            .args
            .iter()
            .map(|&a| start[a] + t.latency(&g.nodes()[a].op))
            .max()
            .unwrap_or(0);
        start[id] = s;
        length = length.max(s + t.latency(&n.op));
    }
    Schedule { start, length }
}

/// Extract one critical path (node ids, source → sink) from an ASAP
/// schedule: walk back from a latest-finishing node through the argument
/// that determined each start time.
pub fn critical_path(g: &Cdfg, t: &OpTiming, s: &Schedule) -> Vec<NodeId> {
    let mut cur = (0..g.len())
        .max_by_key(|&i| s.start[i] + t.latency(&g.nodes()[i].op))
        .unwrap_or(0);
    let mut path = vec![cur];
    loop {
        let n = &g.nodes()[cur];
        let Some(&pred) = n
            .args
            .iter()
            .find(|&&a| s.start[a] + t.latency(&g.nodes()[a].op) == s.start[cur])
        else {
            break;
        };
        path.push(pred);
        cur = pred;
        if s.start[cur] == 0 && g.nodes()[cur].args.is_empty() {
            break;
        }
    }
    path.reverse();
    path
}

/// Resource class of an operation for list scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Discrete multipliers.
    Mul,
    /// Discrete adders/subtractors.
    Add,
    /// Dividers.
    Div,
    /// Carry-save FMA units (both kinds share the pool).
    Fma,
    /// Conversions (cheap, usually unbounded).
    Convert,
    /// Free (inputs, constants, outputs, negation).
    Free,
}

/// Classify an operation.
pub fn resource_kind(op: &Op) -> ResourceKind {
    match op {
        Op::Mul => ResourceKind::Mul,
        Op::Add | Op::Sub => ResourceKind::Add,
        Op::Div => ResourceKind::Div,
        Op::Fma { .. } => ResourceKind::Fma,
        Op::IeeeToCs(_) | Op::CsToIeee(_) => ResourceKind::Convert,
        _ => ResourceKind::Free,
    }
}

/// Resource limits for list scheduling (`None` = unbounded). All units
/// are pipelined with initiation interval 1, so a limit of `k` allows `k`
/// operation *starts* per cycle in that class.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResourceLimits {
    /// Max simultaneous multiplier starts.
    pub mul: Option<usize>,
    /// Max simultaneous adder starts.
    pub add: Option<usize>,
    /// Max simultaneous divider starts.
    pub div: Option<usize>,
    /// Max simultaneous FMA starts (the paper used up to 39 units).
    pub fma: Option<usize>,
}

impl ResourceLimits {
    fn limit(&self, k: ResourceKind) -> Option<usize> {
        match k {
            ResourceKind::Mul => self.mul,
            ResourceKind::Add => self.add,
            ResourceKind::Div => self.div,
            ResourceKind::Fma => self.fma,
            ResourceKind::Convert | ResourceKind::Free => None,
        }
    }
}

/// Latency-weighted list scheduling under resource limits. Priority is
/// the node's remaining critical-path length (computed via ALAP on the
/// unconstrained schedule).
pub fn list_schedule(g: &Cdfg, t: &OpTiming, limits: &ResourceLimits) -> Schedule {
    let n = g.len();
    // priority: longest path from node to any sink
    let users = g.users();
    let mut height = vec![0u32; n];
    for id in (0..n).rev() {
        let lat = t.latency(&g.nodes()[id].op);
        let mut h = lat;
        for &uid in &users[id] {
            h = h.max(lat + height[uid]);
        }
        height[id] = h;
    }

    let mut start = vec![u32::MAX; n];
    let mut unscheduled: Vec<NodeId> = (0..n).collect();
    let mut cycle = 0u32;
    let mut length = 0u32;
    while !unscheduled.is_empty() {
        let mut used: std::collections::HashMap<ResourceKind, usize> = Default::default();
        // fixpoint within the cycle: zero-latency ops (inputs, negation)
        // chain combinationally and may enable users in the same cycle
        loop {
            let mut ready: Vec<NodeId> = unscheduled
                .iter()
                .copied()
                .filter(|&id| {
                    start[id] == u32::MAX
                        && g.nodes()[id].args.iter().all(|&a| {
                            start[a] != u32::MAX && start[a] + t.latency(&g.nodes()[a].op) <= cycle
                        })
                })
                .collect();
            if ready.is_empty() {
                break;
            }
            ready.sort_by_key(|&id| std::cmp::Reverse(height[id]));
            let mut progressed = false;
            for id in ready {
                let kind = resource_kind(&g.nodes()[id].op);
                let in_use = used.entry(kind).or_insert(0);
                if let Some(cap) = limits.limit(kind) {
                    if *in_use >= cap {
                        continue;
                    }
                }
                *in_use += 1;
                start[id] = cycle;
                length = length.max(cycle + t.latency(&g.nodes()[id].op));
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        unscheduled.retain(|&id| start[id] == u32::MAX);
        cycle += 1;
        assert!(cycle < 1_000_000, "list scheduling did not converge");
    }
    Schedule { start, length }
}

/// Render a per-cycle occupancy chart of a schedule: how many operations
/// of each class are *executing* (issued and not yet finished) in every
/// cycle. Text-mode Gantt for reports and debugging.
pub fn occupancy_chart(g: &Cdfg, t: &OpTiming, s: &Schedule, max_rows: usize) -> String {
    use std::fmt::Write as _;
    let classes = [
        (ResourceKind::Mul, 'M'),
        (ResourceKind::Add, 'A'),
        (ResourceKind::Fma, 'F'),
        (ResourceKind::Convert, 'c'),
        (ResourceKind::Div, 'D'),
    ];
    let mut busy = vec![[0usize; 5]; s.length as usize + 1];
    for (id, n) in g.nodes().iter().enumerate() {
        let kind = resource_kind(&n.op);
        let Some(k) = classes.iter().position(|(c, _)| *c == kind) else {
            continue;
        };
        let lat = t.latency(&n.op).max(1);
        for cyc in s.start[id]..s.start[id] + lat {
            if (cyc as usize) < busy.len() {
                busy[cyc as usize][k] += 1;
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "cycle  M  A  F  c  D  |occupancy");
    let step = (busy.len() / max_rows.max(1)).max(1);
    for (cyc, row) in busy.iter().enumerate().step_by(step) {
        let total: usize = row.iter().sum();
        let bar: String = classes
            .iter()
            .enumerate()
            .flat_map(|(k, (_, ch))| std::iter::repeat_n(*ch, row[k].min(30)))
            .collect();
        let _ = writeln!(
            out,
            "{cyc:>5} {:>2} {:>2} {:>2} {:>2} {:>2}  |{bar}",
            row[0], row[1], row[2], row[3], row[4]
        );
        let _ = total;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listing1() -> Cdfg {
        let mut g = Cdfg::new();
        let v: Vec<NodeId> = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "k"]
            .iter()
            .map(|s| g.input(*s))
            .collect();
        let m1 = g.mul(v[0], v[1]);
        let m2 = g.mul(v[2], v[3]);
        let x1 = g.add(m1, m2);
        let m3 = g.mul(v[4], v[5]);
        let m4 = g.mul(v[6], x1);
        let x2 = g.add(m3, m4);
        let m5 = g.mul(v[7], v[8]);
        let m6 = g.mul(v[9], x2);
        let x3 = g.add(m5, m6);
        g.output("x3", x3);
        g
    }

    #[test]
    fn asap_length_of_listing1() {
        // critical path: mul+add, then (mul+add) x2 more links = 3*(5+4)
        let g = listing1();
        let t = OpTiming::default();
        let s = asap_schedule(&g, &t);
        assert_eq!(s.length, 27);
    }

    #[test]
    fn critical_path_follows_the_chain() {
        let g = listing1();
        let t = OpTiming::default();
        let s = asap_schedule(&g, &t);
        let path = critical_path(&g, &t, &s);
        // path visits alternating mul/add nodes of the dependent chain
        let muls = path
            .iter()
            .filter(|&&id| matches!(g.nodes()[id].op, Op::Mul))
            .count();
        let adds = path
            .iter()
            .filter(|&&id| matches!(g.nodes()[id].op, Op::Add))
            .count();
        assert_eq!(muls, 3);
        assert_eq!(adds, 3);
    }

    #[test]
    fn list_schedule_unbounded_matches_asap() {
        let g = listing1();
        let t = OpTiming::default();
        let asap = asap_schedule(&g, &t);
        let ls = list_schedule(&g, &t, &ResourceLimits::default());
        assert_eq!(ls.length, asap.length);
    }

    #[test]
    fn occupancy_chart_renders() {
        let g = listing1();
        let t = OpTiming::default();
        let s = asap_schedule(&g, &t);
        let chart = occupancy_chart(&g, &t, &s, 30);
        assert!(chart.contains("cycle"));
        // six multiplies run in the first cycles
        assert!(chart.lines().nth(1).unwrap().contains("MMMM"));
        assert!(chart.lines().count() >= 10);
    }

    #[test]
    fn resource_pressure_stretches_schedule() {
        let g = listing1();
        let t = OpTiming::default();
        let tight = list_schedule(
            &g,
            &t,
            &ResourceLimits {
                mul: Some(1),
                add: Some(1),
                ..Default::default()
            },
        );
        let loose = list_schedule(&g, &t, &ResourceLimits::default());
        // with II=1 multipliers, one multiplier serializes the 2 parallel
        // muls of the first link by a single cycle each
        assert!(tight.length >= loose.length);
        assert!(tight.length <= loose.length + 4);
    }
}
