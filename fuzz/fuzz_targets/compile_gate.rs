//! Compile-gate robustness target.
//!
//! The first byte picks one of two decodings of the rest:
//!
//! * **malformed** (even byte) — an arbitrary CDFG built with
//!   `push_unchecked`: wrong arities, forward and self-references,
//!   out-of-range argument indices, domain clashes. `compile` must
//!   return `Ok` or a structured `CompileError` without panicking.
//! * **well-formed** (odd byte) — every op takes its arity, every
//!   argument is an earlier value, a conversion is inserted wherever a
//!   port's domain or unit kind demands one, and the graph has at least
//!   one output. The gate accepts most of these, so mutation reaches the
//!   optimizer, lowering and evaluation.
//!
//! On `Ok`, the tape must survive a one-row evaluation on the bit
//! backend, and a full 64-row chunk with byte-derived rows must give the
//! same bytes on the bit backend as on the oracle backend: fused graphs
//! then run the bit-plane kernel and its in-place register writes.

use csfma_hls::{compile, Cdfg, FmaKind, Op, Tape, TapeBackend};
use libfuzzer_sys::fuzz_target;

/// Byte-stream cursor: every decode consumes input and defaults to 0 at
/// the end, so any prefix of any input is a valid program description.
struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn u8(&mut self) -> u8 {
        let v = self.b.get(self.i).copied().unwrap_or(0);
        self.i += 1;
        v
    }

    fn u64(&mut self) -> u64 {
        let mut v = 0u64;
        for _ in 0..8 {
            v = (v << 8) | self.u8() as u64;
        }
        v
    }

    fn kind(&mut self) -> FmaKind {
        if self.u8().is_multiple_of(2) {
            FmaKind::Pcs
        } else {
            FmaKind::Fcs
        }
    }

    /// One op of the fuzz mix.
    fn op(&mut self) -> Op {
        let pick = self.u8();
        let kind = self.kind();
        match pick % 11 {
            0 => Op::Input(format!("i{}", self.u8() % 8)),
            1 => Op::Const(f64::from_bits(self.u64())),
            2 => Op::Add,
            3 => Op::Sub,
            4 => Op::Mul,
            5 => Op::Div,
            6 => Op::Neg,
            7 => Op::Fma {
                kind,
                negate_b: self.u8() % 2 == 1,
            },
            8 => Op::IeeeToCs(kind),
            9 => Op::CsToIeee(kind),
            _ => Op::Output(format!("o{}", self.u8() % 8)),
        }
    }
}

/// Arg counts frequently diverge from the op's arity, and indices roam
/// past the current frontier (self, forward, out of range).
fn malformed(cur: &mut Cur) -> Cdfg {
    let mut g = Cdfg::new();
    let n_nodes = (cur.u8() as usize % 48) + 1;
    for id in 0..n_nodes {
        let op = cur.op();
        let n_args = cur.u8() as usize % 4;
        let args: Vec<usize> = (0..n_args).map(|_| cur.u8() as usize % (id + 3)).collect();
        g.push_unchecked(op, args);
    }
    g
}

/// What a port reads: the IEEE bank, or one unit's carry-save format.
fn ports(op: &Op) -> Vec<Option<FmaKind>> {
    match *op {
        Op::Input(_) | Op::Const(_) => vec![],
        Op::Neg | Op::Output(_) | Op::IeeeToCs(_) => vec![None],
        Op::CsToIeee(k) => vec![Some(k)],
        Op::Add | Op::Sub | Op::Mul | Op::Div => vec![None, None],
        Op::Fma { kind, .. } => vec![Some(kind), None, Some(kind)],
    }
}

/// The carry-save format a node's value is in (`None`: IEEE).
fn kind_of(op: &Op) -> Option<FmaKind> {
    match *op {
        Op::Fma { kind, .. } | Op::IeeeToCs(kind) => Some(kind),
        _ => None,
    }
}

/// Right arity and ordered edges. Each argument is drawn from the
/// earlier values (outputs excluded) and converted until it fits its
/// port: `IeeeToCs` onto a carry-save port, `CsToIeee` onto an IEEE
/// port, both for a carry-save value of the other unit. The last value
/// becomes an output if no output was drawn.
fn well_formed(cur: &mut Cur) -> Cdfg {
    let mut g = Cdfg::new();
    let mut values = vec![g.push(Op::Input("i0".into()), vec![])];
    let n_nodes = (cur.u8() as usize % 48) + 1;
    let mut outputs = 0;
    for _ in 0..n_nodes {
        let op = cur.op();
        let mut args = Vec::new();
        for want in ports(&op) {
            let mut a = values[cur.u8() as usize % values.len()];
            if let Some(have) = kind_of(&g.nodes()[a].op).filter(|&h| want != Some(h)) {
                a = g.push(Op::CsToIeee(have), vec![a]);
            }
            if let (Some(k), None) = (want, kind_of(&g.nodes()[a].op)) {
                a = g.push(Op::IeeeToCs(k), vec![a]);
            }
            args.push(a);
        }
        let is_output = matches!(op, Op::Output(_));
        let id = g.push(op, args);
        if is_output {
            outputs += 1;
        } else {
            values.push(id);
        }
    }
    if outputs == 0 {
        let mut last = *values.last().expect("the graph starts with an input");
        if let Some(k) = kind_of(&g.nodes()[last].op) {
            last = g.push(Op::CsToIeee(k), vec![last]);
        }
        g.push(Op::Output("o0".into()), vec![last]);
    }
    g
}

/// 64 rows from a seed hashed out of the input's unread tail: mostly
/// moderate values, with every special class mixed in.
fn rows(cur: &Cur, ni: usize) -> Vec<f64> {
    let mut s = cur.b[cur.i.min(cur.b.len())..]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
    let mut next = || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..64 * ni)
        .map(|_| {
            let r = next();
            match r % 16 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5 => f64::MIN_POSITIVE / 2.0,
                6 => f64::from_bits(next()),
                _ => ((r >> 8) % 4001) as f64 / 64.0 - 31.25,
            }
        })
        .collect()
}

/// The gate's promise: the tape runs, and its backends agree.
fn run(tape: &Tape, cur: &Cur) {
    let row = vec![1.5f64; tape.num_inputs()];
    let mut out = vec![0.0f64; tape.num_outputs()];
    tape.eval_row(TapeBackend::BitAccurate, &row, &mut out);
    if tape.num_inputs() == 0 {
        return; // a batch needs inputs to count its rows
    }
    let rows = rows(cur, tape.num_inputs());
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
    let bit = bits(tape.eval_batch(TapeBackend::BitAccurate, &rows, 1));
    let oracle = bits(tape.eval_batch(TapeBackend::Oracle, &rows, 1));
    assert!(bit == oracle, "bit backend differs from the oracle");
}

fuzz_target!(|data: &[u8]| {
    let mut cur = Cur { b: data, i: 0 };
    let g = if cur.u8().is_multiple_of(2) {
        malformed(&mut cur)
    } else {
        well_formed(&mut cur)
    };
    match compile(&g) {
        Err(e) => {
            // refusals must render and carry at least one diagnostic
            assert!(!e.diagnostics.is_empty());
            let _ = e.to_string();
        }
        Ok(tape) => run(&tape, &cur),
    }
});
