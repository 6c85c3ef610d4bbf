//! Compile-gate robustness target.
//!
//! Decode the input bytes into an arbitrary — frequently malformed —
//! CDFG built with `push_unchecked` (wrong arities, forward and
//! self-references, out-of-range argument indices, domain clashes), and
//! require `compile` to return `Ok` or a structured `CompileError`
//! without ever panicking. On `Ok`, the tape must also survive a
//! one-row evaluation on the bit backend: the gate admitting a graph is a
//! promise the engine can run it.

use csfma_hls::{compile, Cdfg, FmaKind, Op, TapeBackend};
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
}

fuzz_target!(|data: &[u8]| {
    let mut cur = Cur { b: data, i: 0 };
    let mut g = Cdfg::new();
    let n_nodes = (cur.u8() as usize % 48) + 1;
    for id in 0..n_nodes {
        let pick = cur.u8();
        let kind = if cur.u8().is_multiple_of(2) {
            FmaKind::Pcs
        } else {
            FmaKind::Fcs
        };
        let op = match pick % 11 {
            0 => Op::Input(format!("i{}", cur.u8() % 8)),
            1 => Op::Const(f64::from_bits(cur.u64())),
            2 => Op::Add,
            3 => Op::Sub,
            4 => Op::Mul,
            5 => Op::Div,
            6 => Op::Neg,
            7 => Op::Fma {
                kind,
                negate_b: cur.u8() % 2 == 1,
            },
            8 => Op::IeeeToCs(kind),
            9 => Op::CsToIeee(kind),
            _ => Op::Output(format!("o{}", cur.u8() % 8)),
        };
        // arg count frequently diverges from the op's arity, and indices
        // roam past the current frontier (self, forward, out of range)
        let n_args = cur.u8() as usize % 4;
        let args: Vec<usize> = (0..n_args).map(|_| cur.u8() as usize % (id + 3)).collect();
        g.push_unchecked(op, args);
    }

    match compile(&g) {
        Err(e) => {
            // refusals must render and carry at least one diagnostic
            assert!(!e.diagnostics.is_empty());
            let _ = e.to_string();
        }
        Ok(tape) => {
            let row = vec![1.5f64; tape.num_inputs()];
            let mut out = vec![0.0f64; tape.num_outputs()];
            tape.eval_row(TapeBackend::BitAccurate, &row, &mut out);
        }
    }
});
