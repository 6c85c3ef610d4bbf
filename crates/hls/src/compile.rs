//! One-time compilation of a [`Cdfg`] into a flat instruction tape, plus
//! a batch executor over it.
//!
//! The scalar interpreters in [`interp`](crate::interp) re-walk the graph
//! for every input vector: `String`-keyed `HashMap` lookups per input,
//! a fresh `Vec<Option<Val>>` per call, and the full soft-float operator
//! stack for every IEEE node. That is the right shape for an *oracle* —
//! maximally close to the definition — and exactly the wrong shape for
//! throughput. This module lowers a validated graph **once** into a
//! [`Tape`]:
//!
//! * a topologically-ordered list of [`Instr`]s addressing **dense
//!   register slots** (two banks: binary64 and carry-save), with slots
//!   reused after a value's last read, so the register file stays small
//!   and hot in cache;
//! * input names resolved to positional indices, constants pre-converted
//!   into a pool — no string hashing on the execution path;
//! * a process-wide **tape cache** keyed by the graph's canonical
//!   encoding ([`compile_cached`]), so repeated evaluation requests for
//!   the same datapath skip recompilation entirely.
//!
//! Three backends execute the tape ([`TapeBackend`]), all with the same
//! bit semantics and one canonical NaN:
//!
//! * [`TapeBackend::BitAccurate`] reproduces
//!   [`eval_bit_accurate`](crate::interp::eval_bit_accurate) bit for bit.
//!   IEEE nodes run on the **host FPU** through the guarded fast path of
//!   [`csfma_softfloat::batch`] (soft-float semantics at host speed — see
//!   that module for the equivalence argument); fused nodes run the
//!   bit-plane chunk kernel on full chunks and the behavioral carry-save
//!   units, which *are* the model, otherwise;
//! * [`TapeBackend::Oracle`] replays the same bits on pure soft-float
//!   operators — the trusted last rung of [`crate::robust`];
//! * [`TapeBackend::Jit`] runs native code ([`crate::jit`]) and bails
//!   rows it cannot vouch for to the bit-accurate interpreter.
//!
//! [`Tape::eval_batch`] evaluates many input vectors with deterministic
//! chunked work distribution
//! ([`par_chunks_indexed`]):
//! results are bitwise identical for any worker count.
//!
//! Compilation is **gated on the static checker**: a graph carrying
//! error-severity `D*` (dataflow) or `W*` (the transport formats in
//! [`CompileOptions`]) diagnostics is refused with a structured
//! [`CompileError`] instead of producing a tape that would panic or
//! silently miscompute. Tapes that stand in for hardware running a
//! concrete schedule also check the `S*` hazard rules with
//! [`lint_schedule`](crate::lint_schedule).

use crate::cdfg::{Cdfg, FmaKind, NodeId, Op};
use crate::interp::format_of;
use crate::jit;
use crate::opt::{optimize_graph, OptStats};
use crate::profile::{EvalStats, PLANE_STAGE_COUNTERS};
use csfma_core::batch::{par_chunks_indexed, CHUNK_ROWS};
use csfma_core::fault::FmaCtl;
use csfma_core::{CsFmaFormat, CsFmaUnit, CsOperand, FmaScratch, PlaneScratch};
use csfma_obs::Profiler;
use csfma_softfloat::batch as sfb;
use csfma_softfloat::{FpFormat, Round, SoftFloat};
use csfma_verify::{check_format, Diagnostic, Rule, Severity, Span};
use std::collections::HashMap;
use std::fmt;
use std::ops::{Add as _, Div as _, Mul as _, Sub as _};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

const F: FpFormat = FpFormat::BINARY64;

/// Structured compilation failure: the graph carries outstanding
/// error-severity checker diagnostics (`D*`, `S*` or `W*` rules).
#[derive(Clone, Debug)]
pub struct CompileError {
    /// Every error-severity finding that blocked compilation.
    pub diagnostics: Vec<Diagnostic>,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot compile tape: {} outstanding checker error(s)\n{}",
            self.diagnostics.len(),
            csfma_verify::render_report(&self.diagnostics)
        )
    }
}

impl std::error::Error for CompileError {}

/// Knobs for [`compile_with`] and [`compile_cached_with`]. The default
/// runs the post-gate optimizer ([`crate::opt`]) on the standard
/// transport formats; `optimize: false` lowers the gated graph verbatim
/// (differential suites compare the two tapes byte-for-byte). The tape
/// cache key covers every field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompileOptions {
    /// Run constant folding / CSE / DCE / pressure-aware reordering
    /// between the checker gate and lowering.
    pub optimize: bool,
    /// Transport format of the PCS units (default
    /// [`format_of`]`(FmaKind::Pcs)`). Ablation studies swap in
    /// non-standard geometries; the `W*` width rules run on whichever
    /// formats the graph's fused nodes reference, and a format carrying
    /// `W*` errors refuses to compile. That includes W006: the tape feeds
    /// `B` from binary64, so a used format needs `b_sig_bits == 53`.
    pub pcs_format: CsFmaFormat,
    /// Transport format of the FCS units (default
    /// [`format_of`]`(FmaKind::Fcs)`), gated like `pcs_format`.
    pub fcs_format: CsFmaFormat,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            optimize: true,
            pcs_format: format_of(FmaKind::Pcs),
            fcs_format: format_of(FmaKind::Fcs),
        }
    }
}

/// Which engine executes the tape. All three compute the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TapeBackend {
    /// Soft-float + behavioral carry-save units — bit-identical to
    /// [`eval_bit_accurate`](crate::interp::eval_bit_accurate).
    BitAccurate,
    /// Pure scalar soft-float operators plus the behavioral carry-save
    /// units, with none of the hosted fast paths — the
    /// [`interp`](crate::interp) oracle's operator stack replayed over
    /// the tape. Bit-identical to [`TapeBackend::BitAccurate`] and
    /// several times slower; it is the trusted last rung of the robust
    /// executor's fallback ladder (see [`crate::robust`]).
    Oracle,
    /// Native machine code for the scalar IEEE fast path
    /// ([`crate::jit`]), bit-identical to [`TapeBackend::BitAccurate`]
    /// by construction: rows (or whole tapes) the emitted guards cannot
    /// license fall back to the bit-accurate interpreter, so the only
    /// difference is speed. See `docs/JIT.md`.
    Jit,
}

/// One tape instruction. Register operands index the binary64 bank
/// (`r*`) or the carry-save bank (`c*`); both banks are dense and slots
/// are reused once their value is dead.
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// `r[dst] = row[input]`
    LoadInput {
        /// Destination binary64 slot.
        dst: u32,
        /// Index into the row's input values.
        input: u32,
    },
    /// `r[dst] = consts[idx]`
    LoadConst {
        /// Destination binary64 slot.
        dst: u32,
        /// Index into the tape's constant pool.
        idx: u32,
    },
    /// `r[dst] = r[a] + r[b]`
    Add {
        /// Destination binary64 slot.
        dst: u32,
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
    },
    /// `r[dst] = r[a] - r[b]`
    Sub {
        /// Destination binary64 slot.
        dst: u32,
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
    },
    /// `r[dst] = r[a] * r[b]`
    Mul {
        /// Destination binary64 slot.
        dst: u32,
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
    },
    /// `r[dst] = r[a] / r[b]`
    Div {
        /// Destination binary64 slot.
        dst: u32,
        /// Dividend slot.
        a: u32,
        /// Divisor slot.
        b: u32,
    },
    /// `r[dst] = -r[a]`
    Neg {
        /// Destination binary64 slot.
        dst: u32,
        /// Operand slot.
        a: u32,
    },
    /// `c[dst] = fma(c[acc], ±r[b], c[mulc])` on the unit for `kind`
    Fma {
        /// Target unit.
        kind: FmaKind,
        /// Negate the IEEE `B` input.
        negate_b: bool,
        /// Destination carry-save slot.
        dst: u32,
        /// Addend (carry-save).
        acc: u32,
        /// `B` multiplicand (binary64).
        b: u32,
        /// Chained multiplicand (carry-save).
        mulc: u32,
    },
    /// `c[dst] = ieee_to_cs(r[src])` in `kind`'s transport format
    IeeeToCs {
        /// Carry-save format family to convert into.
        kind: FmaKind,
        /// Destination carry-save slot.
        dst: u32,
        /// Source binary64 slot.
        src: u32,
    },
    /// `r[dst] = cs_to_ieee(c[src])` (resolve + normalize + round)
    CsToIeee {
        /// Destination binary64 slot.
        dst: u32,
        /// Source carry-save slot.
        src: u32,
    },
    /// `out[output] = r[src]`
    Store {
        /// Index into the row's output values.
        output: u32,
        /// Source binary64 slot.
        src: u32,
    },
}

/// A compiled datapath: flat instructions over dense register slots.
/// Build one with [`compile`] (or [`compile_cached`]); evaluate rows
/// with [`Tape::eval_row`] or batches with [`Tape::eval_batch`].
#[derive(Clone, Debug)]
pub struct Tape {
    pub(crate) instrs: Vec<Instr>,
    pub(crate) inputs: Vec<String>,
    pub(crate) outputs: Vec<String>,
    pub(crate) consts: Vec<f64>,
    pub(crate) consts_canonical: Vec<f64>,
    pub(crate) n_f64_regs: usize,
    pub(crate) n_cs_regs: usize,
    pub(crate) pcs_format: CsFmaFormat,
    pub(crate) fcs_format: CsFmaFormat,
    pub(crate) fingerprint: u64,
    pub(crate) source_nodes: usize,
    pub(crate) opt: OptStats,
    /// Per-instruction provenance: `instr_nodes[i]` is the **source**
    /// graph node instruction `i` was lowered from (mapped back through
    /// the optimizer's origin map when the tape was optimized), so
    /// execution-time diagnostics can name the offending node.
    pub(crate) instr_nodes: Vec<u32>,
    /// Per-instruction fast-path promotion mask (empty ⇔ no promotion):
    /// `promoted[i]` lets the bit-accurate backend run IEEE instruction
    /// `i` as the raw host operation, skipping the guarded soft-float
    /// fallback. Only set via [`Tape::set_promoted`] after a value-range
    /// proof that the guard can never fire (see `lint::lint_ranges`), so
    /// promoted evaluation stays bit-identical.
    pub(crate) promoted: Vec<bool>,
    /// Per-row instruction counts behind the fixed part of a batch's
    /// [`EvalStats`].
    pub(crate) row_work: RowWork,
    /// Lazily built native module for [`TapeBackend::Jit`]
    /// ([`crate::jit`], bit-accurate semantics). `None` inside the cell
    /// means module construction was attempted and refused (fused tape,
    /// platform, or `CSFMA_JIT=off`) — the backend then interprets
    /// every row. [`Tape::set_promoted`] resets the cell: the guard set
    /// depends on the promotion mask, so a stale module would break
    /// bit-identity.
    pub(crate) jit: OnceLock<Option<Arc<crate::jit::JitModule>>>,
}

/// Per-worker structure-of-arrays register file for chunked batch
/// execution: each register slot becomes a plane of [`CHUNK_ROWS`]
/// contiguous lanes, evaluated column-wise one instruction at a time.
#[derive(Clone, Debug)]
pub(crate) struct ChunkScratch {
    pub(crate) f: Vec<f64>,
    pub(crate) cs: Vec<CsOperand>,
    pub(crate) pcs: CsFmaUnit,
    pub(crate) fcs: CsFmaUnit,
    pub(crate) fma: FmaScratch,
    // bit-plane kernel working storage + the per-chunk B-lane latch
    pub(crate) plane: PlaneScratch,
    pub(crate) b_lane: Vec<SoftFloat>,
    // one hosted instruction's host results, kept apart from `f` because
    // its destination plane may also be an operand (see `hosted_chunk`);
    // here rather than on the stack, so one-row chunks skip a 512-byte
    // zero fill per instruction
    pub(crate) host: [f64; CHUNK_ROWS],
    // the JIT's lane-major block buffers (`[input][lane]` in,
    // `[output][lane]` out) and the row-major inputs and outputs of the
    // chunk's bailed rows, which the interpreter re-runs as one chunk
    pub(crate) lanes_in: Vec<[f64; jit::LANES]>,
    pub(crate) lanes_out: Vec<[f64; jit::LANES]>,
    pub(crate) bail_in: Vec<f64>,
    pub(crate) bail_out: Vec<f64>,
}

/// The work one row puts on each execution resource, counted once when
/// the tape is built. A batch's fixed [`EvalStats`] counts are these
/// times the rows each interpreter ran, not per-lane tallies.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RowWork {
    /// Hosted-FPU-eligible instructions (add/sub/mul/div/neg).
    hosted: u64,
    /// Fused instructions on the PCS unit.
    fma_pcs: u64,
    /// Fused instructions on the FCS unit.
    fma_fcs: u64,
}

impl RowWork {
    fn of(instrs: &[Instr]) -> Self {
        let mut w = RowWork::default();
        for ins in instrs {
            match ins {
                Instr::Add { .. }
                | Instr::Sub { .. }
                | Instr::Mul { .. }
                | Instr::Div { .. }
                | Instr::Neg { .. } => w.hosted += 1,
                Instr::Fma { kind, .. } => match kind {
                    FmaKind::Pcs => w.fma_pcs += 1,
                    FmaKind::Fcs => w.fma_fcs += 1,
                },
                _ => {}
            }
        }
        w
    }

    /// The FMA ops of `len` rows through the behavioral units.
    fn fma_ops(&self, len: usize) -> EvalStats {
        EvalStats {
            fma_ops_pcs: self.fma_pcs * len as u64,
            fma_ops_fcs: self.fma_fcs * len as u64,
            ..EvalStats::default()
        }
    }
}

/// One worker's state in [`Tape::eval_batch_with_stats`]: its register
/// file and the counts of the chunks it ran, merged into the call's
/// total when the worker finishes (the scheduler drops every worker
/// state before it returns).
struct StatsWorker<'a> {
    scratch: PooledChunkScratch,
    stats: EvalStats,
    total: &'a Mutex<EvalStats>,
}

impl Drop for StatsWorker<'_> {
    fn drop(&mut self) {
        let mut total = self.total.lock().unwrap_or_else(|e| e.into_inner());
        total.merge(&self.stats);
    }
}

/// Process-wide recycling pool for [`ChunkScratch`] register files.
///
/// The work-stealing scheduler builds one scratch per participating
/// worker per job; without a pool that is a fresh set of register-plane
/// and `FmaScratch`/`PlaneScratch` allocations on every `eval_batch`
/// call. The pool caps retained scratches at [`SCRATCH_POOL_CAP`] (a few
/// workers' worth) and hands them back dirty: every tape register is
/// written before it is read (validated by the T001 def-before-use rule,
/// `crates/verify/src/tape.rs`), so stale contents can never reach an
/// output byte — which is also why recycling across *different* tapes is
/// sound. A scratch keeps no counts either (the plane kernel returns its
/// [`PlaneStats`](csfma_core::PlaneStats) per call), so a recycled one
/// cannot carry one call's [`EvalStats`] into the next.
static CHUNK_SCRATCH_POOL: Mutex<Vec<ChunkScratch>> = Mutex::new(Vec::new());

/// Retained-scratch cap: two full worker complements
/// (`2 × csfma_core::batch::MAX_WORKERS`).
const SCRATCH_POOL_CAP: usize = 2 * csfma_core::batch::MAX_WORKERS;

/// A [`ChunkScratch`] on loan from [`CHUNK_SCRATCH_POOL`]; returns
/// itself to the pool on drop (when the pool is below its cap).
pub(crate) struct PooledChunkScratch(Option<ChunkScratch>);

impl std::ops::Deref for PooledChunkScratch {
    type Target = ChunkScratch;
    fn deref(&self) -> &ChunkScratch {
        self.0.as_ref().expect("scratch taken")
    }
}

impl std::ops::DerefMut for PooledChunkScratch {
    fn deref_mut(&mut self) -> &mut ChunkScratch {
        self.0.as_mut().expect("scratch taken")
    }
}

impl Drop for PooledChunkScratch {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            let mut pool = CHUNK_SCRATCH_POOL.lock().unwrap_or_else(|e| e.into_inner());
            if pool.len() < SCRATCH_POOL_CAP {
                pool.push(s);
            }
        }
    }
}

/// The seam through which the robust executor ([`crate::robust`])
/// drives the bit chunk interpreter: checked-unit dispatch and
/// register-plane fault taps. Every other caller passes [`NoHook`],
/// whose `CHECKED = false` removes each hook branch at compile time, so
/// the fast paths' machine code does not change.
pub(crate) trait ChunkHook {
    /// Checked evaluation: every FMA lane runs [`ChunkHook::fma`] (never
    /// the plane kernel), IEEE instructions take the guarded hosted path
    /// even when promoted, and [`ChunkHook::after_bit`] runs after every
    /// instruction.
    const CHECKED: bool;

    /// Lane `k` of FMA instruction `i`: `run` evaluates it on the checked
    /// unit entry point under the lane's own control block.
    fn fma(
        &mut self,
        _i: usize,
        _k: usize,
        _run: impl FnOnce(&mut FmaCtl) -> CsOperand,
    ) -> CsOperand {
        unreachable!("only checked hooks dispatch FMA lanes")
    }

    /// Instruction `i` of the bit interpreter has written its
    /// destination plane (`f` and `cs` are the whole register banks).
    fn after_bit(&mut self, _i: usize, _f: &mut [f64], _cs: &mut [CsOperand]) {}
}

/// The fast paths' [`ChunkHook`]: zero-sized and never consulted.
pub(crate) struct NoHook;

impl ChunkHook for NoHook {
    const CHECKED: bool = false;
}

/// One hosted IEEE instruction of the bit interpreter over a chunk's
/// `len` lanes: plane `dst` gets `op(plane a, plane b)`. The host results
/// of the whole chunk go to the scratch's `host` buffer first (`dst` may
/// share a slot with an operand), and the soft-float guard
/// ([`sfb::needs_softfloat`]) is folded over them in the same pass,
/// without a branch per lane. Only a chunk with a flagged lane re-runs
/// its lanes through the guarded operator, which gives a flagged NaN
/// lane the canonical NaN, recomputes any other flagged lane in soft
/// float, and counts each flagged lane in `fallbacks`. A promoted
/// instruction passes `None`: no guard, host results as they are.
#[inline(always)]
fn hosted_chunk(
    s: &mut ChunkScratch,
    [dst, a, b]: [u32; 3],
    len: usize,
    host: impl Fn(f64, f64) -> f64,
    guarded: impl Fn(f64, f64, &mut u64) -> f64,
    fallbacks: Option<&mut u64>,
) {
    let p = |r: u32| r as usize * CHUNK_ROWS;
    let (f, r) = (&mut s.f, &mut s.host[..len]);
    let (xs, ys) = (&f[p(a)..p(a) + len], &f[p(b)..p(b) + len]);
    let mut flagged = false;
    for ((r, &x), &y) in r.iter_mut().zip(xs).zip(ys) {
        *r = host(x, y);
        flagged |= sfb::needs_softfloat(*r);
    }
    if let Some(fb) = fallbacks.filter(|_| flagged) {
        for ((r, &x), &y) in r.iter_mut().zip(xs).zip(ys) {
            *r = guarded(x, y, fb);
        }
    }
    // a loop, not `copy_from_slice`: on the one-row chunks of `eval_row`
    // and of a JIT chunk with one bailed row, a `memcpy` call costs more
    // than the copy
    for (d, &r) in f[p(dst)..p(dst) + len].iter_mut().zip(r.iter()) {
        *d = r;
    }
}

/// FNV-1a over the canonical graph encoding — the identity the tape
/// cache is keyed by (the full encoding, not just this digest, to make
/// collisions impossible; the digest is for reporting). Hashes the
/// encoding node by node without building all of it.
pub fn graph_fingerprint(g: &Cdfg) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = Vec::new();
    for n in g.nodes() {
        buf.clear();
        encode_node(&mut buf, &n.op, &n.args);
        for &byte in &buf {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Byte-exact structural identity of a graph: operation tags, constant
/// bit patterns, input/output names, FMA kinds and argument edges. Two
/// graphs with equal encodings compile to equal tapes.
fn canonical_encoding(g: &Cdfg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(g.len() * 8);
    for n in g.nodes() {
        encode_node(&mut buf, &n.op, &n.args);
    }
    buf
}

/// Append one node's bytes to a canonical encoding: its operation tag,
/// constant bit pattern, input/output name or FMA kind, then its argument
/// ids. The optimizer's CSE identity (`opt::Key`) holds the same fields
/// in a fixed-width record.
fn encode_node(buf: &mut Vec<u8>, op: &Op, args: &[NodeId]) {
    let push_str = |buf: &mut Vec<u8>, s: &str| {
        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    };
    let kind_tag = |k: FmaKind| match k {
        FmaKind::Pcs => 0u8,
        FmaKind::Fcs => 1u8,
    };
    match op {
        Op::Input(name) => {
            buf.push(0);
            push_str(buf, name);
        }
        Op::Const(v) => {
            buf.push(1);
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Op::Add => buf.push(2),
        Op::Sub => buf.push(3),
        Op::Mul => buf.push(4),
        Op::Div => buf.push(5),
        Op::Neg => buf.push(6),
        Op::Fma { kind, negate_b } => {
            buf.push(7);
            buf.push(kind_tag(*kind));
            buf.push(*negate_b as u8);
        }
        Op::IeeeToCs(kind) => {
            buf.push(8);
            buf.push(kind_tag(*kind));
        }
        Op::CsToIeee(kind) => {
            buf.push(9);
            buf.push(kind_tag(*kind));
        }
        Op::Output(name) => {
            buf.push(10);
            push_str(buf, name);
        }
    }
    for &a in args {
        buf.extend_from_slice(&(a as u32).to_le_bytes());
    }
}

fn errors_only(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

/// Compile a graph into a tape with the default [`CompileOptions`],
/// gating on the `D*` dataflow rules and the `W*` rules of the standard
/// transport formats the graph uses. Runs the post-gate optimizer; see
/// [`compile_with`] to turn it off or swap formats.
pub fn compile(g: &Cdfg) -> Result<Tape, CompileError> {
    compile_with(g, CompileOptions::default(), &mut Profiler::disabled())
}

/// [`compile`] with explicit [`CompileOptions`], recording `compile` →
/// `gate` / `optimize` / `lower` stage spans and optimizer counters into
/// `prof` (pass [`Profiler::disabled`] to record nothing;
/// instrumentation never changes the produced tape). The checker gate
/// always runs on the **caller's** graph; the optimizer (when enabled)
/// runs strictly after it, and the tape's
/// [`fingerprint`](Tape::fingerprint) / [`source_nodes`](Tape::source_nodes)
/// always describe the original graph, not the optimized one.
pub fn compile_with(
    g: &Cdfg,
    opts: CompileOptions,
    prof: &mut Profiler,
) -> Result<Tape, CompileError> {
    #[cfg(test)]
    if PANIC_NEXT_COMPILE.with(|p| p.replace(false)) {
        panic!("injected compiler panic (test hook)");
    }
    let compile_tok = prof.enter("compile");
    let gate_tok = prof.enter("gate");
    let mut diags = errors_only(match g.validate_diagnostics() {
        Ok(()) => Vec::new(),
        Err(d) => d,
    });
    if diags.is_empty() {
        // the format rules run once the structural rules hold. The
        // dataflow pass's error rules (D001-D003) are the ones
        // `validate_diagnostics` just checked, and its other findings are
        // warnings, so `lint_dataflow` is not run here
        let mut kinds: Vec<FmaKind> = Vec::new();
        for n in g.nodes() {
            if let Op::Fma { kind, .. } | Op::IeeeToCs(kind) | Op::CsToIeee(kind) = &n.op {
                if !kinds.contains(kind) {
                    kinds.push(*kind);
                }
            }
        }
        for kind in kinds {
            let fmt = match kind {
                FmaKind::Pcs => &opts.pcs_format,
                FmaKind::Fcs => &opts.fcs_format,
            };
            diags.extend(errors_only(check_format(fmt)));
            // W006: the IEEE bank is binary64, so every `B` operand
            // reaches the unit with a 53-bit significand
            let tape_sig_bits = F.frac_bits as usize + 1;
            if fmt.b_sig_bits != tape_sig_bits {
                diags.push(Diagnostic::error(
                    Rule::BWidthMismatch,
                    Span::Format(fmt.name.to_string()),
                    format!(
                        "the format's B significand is {} bit(s), but the tape feeds \
                         every B operand from its binary64 bank ({tape_sig_bits} bits)",
                        fmt.b_sig_bits
                    ),
                ));
            }
        }
    }
    prof.exit(gate_tok);
    if !diags.is_empty() {
        prof.exit(compile_tok);
        return Err(CompileError { diagnostics: diags });
    }
    let tape = build_tape(g, opts, prof);
    prof.exit(compile_tok);
    Ok(tape)
}

// Test hook: make the next `compile_with` call on this thread panic, to
// exercise the cache's poisoning guard. Thread-local, so a concurrently
// running test's compile can never consume it.
#[cfg(test)]
thread_local! {
    static PANIC_NEXT_COMPILE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Optimize (optionally) and lower a gated graph. The tape identity
/// (fingerprint, source node count) is pinned to the caller's graph so
/// cache bookkeeping and reports stay in source terms.
fn build_tape(g: &Cdfg, opts: CompileOptions, prof: &mut Profiler) -> Tape {
    let mut stats = OptStats {
        nodes_before: g.len(),
        nodes_after: g.len(),
        ..Default::default()
    };
    let optimized;
    let mut origin: Option<Vec<u32>> = None;
    let lowered_from = if opts.optimize {
        let opt_tok = prof.enter("optimize");
        let ((og, s, o), us) = csfma_obs::time_us(|| optimize_graph(g));
        prof.exit(opt_tok);
        stats = s;
        stats.optimize_us = us;
        origin = Some(o);
        optimized = og;
        &optimized
    } else {
        g
    };
    let lower_tok = prof.enter("lower");
    let mut tape = lower(lowered_from, opts.pcs_format, opts.fcs_format);
    if let Some(origin) = &origin {
        // re-express per-instruction provenance in source-graph node ids
        for n in &mut tape.instr_nodes {
            *n = origin[*n as usize];
        }
        let (removed, us) = csfma_obs::time_us(|| eliminate_dead_slots(&mut tape));
        stats.dead_slots_removed = removed;
        stats.optimize_us += us;
    }
    // the per-row counts describe the final instruction list
    tape.row_work = RowWork::of(&tape.instrs);
    prof.exit(lower_tok);
    // `lower` recorded the allocator's slot reuses on its fresh
    // OptStats; carry them over the optimizer-stats overwrite
    stats.slots_reclaimed = tape.opt.slots_reclaimed;
    tape.opt = stats;
    tape.fingerprint = graph_fingerprint(g);
    tape.source_nodes = g.len();
    // debug-build compile gate: the translation validator replays the
    // tape symbolically against the caller's graph (T* rules) — a
    // miscompile panics here instead of corrupting batch results
    let ((), verify_us) = csfma_obs::time_us(|| {
        crate::lint::debug_assert_tape_clean(&tape, g, "post-lowering tape");
    });
    prof.set_counter(
        "tape_verify_us",
        if cfg!(debug_assertions) {
            verify_us
        } else {
            0.0
        },
    );
    prof.set_counter("slots_reclaimed", tape.opt.slots_reclaimed as f64);
    prof.set_counter("opt_nodes_before", tape.opt.nodes_before as f64);
    prof.set_counter("opt_nodes_after", tape.opt.nodes_after as f64);
    prof.set_counter("opt_consts_folded", tape.opt.consts_folded as f64);
    prof.set_counter("opt_cse_merged", tape.opt.cse_merged as f64);
    prof.set_counter("opt_dead_removed", tape.opt.dead_removed as f64);
    prof.set_counter("opt_dead_slots_removed", tape.opt.dead_slots_removed as f64);
    prof.set_counter("tape_instrs", tape.instrs.len() as f64);
    tape
}

/// Backward-liveness sweep over the lowered tape: drop every instruction
/// whose destination slot is never read before its next overwrite (or at
/// all) and that feeds no `Store`. This is the tape-level counterpart of
/// dead-node elimination — it catches the `LoadInput`s the graph pass
/// deliberately keeps (unused `Input` nodes survive so the positional
/// row layout is stable, but nothing forces the tape to *execute* them).
fn eliminate_dead_slots(tape: &mut Tape) -> usize {
    // one live flag per slot of each bank
    let mut live_f = vec![false; tape.n_f64_regs];
    let mut live_cs = vec![false; tape.n_cs_regs];
    let instrs = &mut tape.instrs;
    let before = instrs.len();
    debug_assert_eq!(
        tape.instr_nodes.len(),
        before,
        "provenance table out of sync"
    );
    let mut keep = vec![false; before];
    for (i, ins) in instrs.iter().enumerate().rev() {
        // a definition kills its slot's liveness; if the slot was not
        // live, nothing downstream reads this value and the instruction
        // (side-effect free by construction) can go
        keep[i] = match *ins {
            Instr::Store { .. } => true,
            Instr::Fma { dst, .. } | Instr::IeeeToCs { dst, .. } => {
                std::mem::take(&mut live_cs[dst as usize])
            }
            Instr::LoadInput { dst, .. }
            | Instr::LoadConst { dst, .. }
            | Instr::Add { dst, .. }
            | Instr::Sub { dst, .. }
            | Instr::Mul { dst, .. }
            | Instr::Div { dst, .. }
            | Instr::Neg { dst, .. }
            | Instr::CsToIeee { dst, .. } => std::mem::take(&mut live_f[dst as usize]),
        };
        if !keep[i] {
            continue;
        }
        match *ins {
            Instr::LoadInput { .. } | Instr::LoadConst { .. } => {}
            Instr::Add { a, b, .. }
            | Instr::Sub { a, b, .. }
            | Instr::Mul { a, b, .. }
            | Instr::Div { a, b, .. } => {
                live_f[a as usize] = true;
                live_f[b as usize] = true;
            }
            Instr::Neg { a, .. } => live_f[a as usize] = true,
            Instr::Fma { acc, b, mulc, .. } => {
                live_cs[acc as usize] = true;
                live_cs[mulc as usize] = true;
                live_f[b as usize] = true;
            }
            Instr::IeeeToCs { src, .. } | Instr::Store { src, .. } => live_f[src as usize] = true,
            Instr::CsToIeee { src, .. } => live_cs[src as usize] = true,
        }
    }
    let mut kept = keep.iter();
    instrs.retain(|_| kept.next() == Some(&true));
    let mut kept = keep.iter();
    tape.instr_nodes.retain(|_| kept.next() == Some(&true));
    before - instrs.len()
}

/// Resolve `Output` pass-throughs: the value of an `Output` node is its
/// argument's value.
fn resolve(g: &Cdfg, mut id: usize) -> usize {
    while let Op::Output(_) = &g.nodes()[id].op {
        id = g.nodes()[id].args[0];
    }
    id
}

/// Lower a validated graph. Register allocation is linear-scan over the
/// topological order: a slot is freed at its value's last read and
/// immediately reusable, so `n_*_regs` is the peak number of
/// simultaneously-live values per bank, not the node count.
fn lower(g: &Cdfg, pcs_format: CsFmaFormat, fcs_format: CsFmaFormat) -> Tape {
    let nodes = g.nodes();
    // last position reading each (resolved) value
    let mut last_use = vec![0usize; nodes.len()];
    for (id, n) in nodes.iter().enumerate() {
        for &a in &n.args {
            last_use[resolve(g, a)] = id;
        }
    }

    let mut inputs: Vec<String> = Vec::new();
    let mut input_index: HashMap<&str, u32> = HashMap::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut consts: Vec<f64> = Vec::new();

    let mut free_f64: Vec<u32> = Vec::new();
    let mut free_cs: Vec<u32> = Vec::new();
    let mut n_f64_regs = 0usize;
    let mut n_cs_regs = 0usize;
    let mut slots_reclaimed = 0usize;
    // register of each non-Output node (banks overlap in numbering)
    let mut reg = vec![u32::MAX; nodes.len()];
    let mut instrs = Vec::with_capacity(nodes.len());
    let mut instr_nodes: Vec<u32> = Vec::with_capacity(nodes.len());

    for (id, n) in nodes.iter().enumerate() {
        let arg_reg = |k: usize| reg[resolve(g, n.args[k])];
        if let Op::Output(name) = &n.op {
            outputs.push(name.clone());
            instrs.push(Instr::Store {
                output: (outputs.len() - 1) as u32,
                src: arg_reg(0),
            });
            instr_nodes.push(id as u32);
            continue;
        }
        let mut args_regs = [0u32; 3];
        for (k, r) in args_regs.iter_mut().enumerate().take(n.args.len()) {
            *r = arg_reg(k);
        }
        // free dead argument slots before allocating the destination —
        // an op may legally write the slot one of its sources held
        for &a in &n.args {
            let a = resolve(g, a);
            if last_use[a] == id && reg[a] != u32::MAX {
                match nodes[a].op.domain() {
                    crate::cdfg::Domain::Ieee => free_f64.push(reg[a]),
                    crate::cdfg::Domain::Cs => free_cs.push(reg[a]),
                }
                reg[a] = u32::MAX; // freed exactly once even with two reads
            }
        }
        let dst = match n.op.domain() {
            crate::cdfg::Domain::Ieee => match free_f64.pop() {
                Some(r) => {
                    slots_reclaimed += 1;
                    r
                }
                None => {
                    n_f64_regs += 1;
                    (n_f64_regs - 1) as u32
                }
            },
            crate::cdfg::Domain::Cs => match free_cs.pop() {
                Some(r) => {
                    slots_reclaimed += 1;
                    r
                }
                None => {
                    n_cs_regs += 1;
                    (n_cs_regs - 1) as u32
                }
            },
        };
        reg[id] = dst;
        let a = |k: usize| args_regs[k];
        instrs.push(match &n.op {
            Op::Input(name) => {
                let input = *input_index.entry(name.as_str()).or_insert_with(|| {
                    inputs.push(name.clone());
                    (inputs.len() - 1) as u32
                });
                Instr::LoadInput { dst, input }
            }
            Op::Const(v) => {
                consts.push(*v);
                Instr::LoadConst {
                    dst,
                    idx: (consts.len() - 1) as u32,
                }
            }
            Op::Add => Instr::Add {
                dst,
                a: a(0),
                b: a(1),
            },
            Op::Sub => Instr::Sub {
                dst,
                a: a(0),
                b: a(1),
            },
            Op::Mul => Instr::Mul {
                dst,
                a: a(0),
                b: a(1),
            },
            Op::Div => Instr::Div {
                dst,
                a: a(0),
                b: a(1),
            },
            Op::Neg => Instr::Neg { dst, a: a(0) },
            Op::Fma { kind, negate_b } => Instr::Fma {
                kind: *kind,
                negate_b: *negate_b,
                dst,
                acc: a(0),
                b: a(1),
                mulc: a(2),
            },
            Op::IeeeToCs(kind) => Instr::IeeeToCs {
                kind: *kind,
                dst,
                src: a(0),
            },
            Op::CsToIeee(_) => Instr::CsToIeee { dst, src: a(0) },
            Op::Output(_) => unreachable!("handled above"),
        });
        instr_nodes.push(id as u32);
    }

    let consts_canonical = consts.iter().map(|&c| sfb::canonicalize(c)).collect();
    Tape {
        instrs,
        inputs,
        outputs,
        consts,
        consts_canonical,
        n_f64_regs,
        n_cs_regs,
        pcs_format,
        fcs_format,
        // `build_tape` pins both to the caller's graph
        fingerprint: 0,
        source_nodes: 0,
        opt: OptStats {
            slots_reclaimed,
            ..OptStats::default()
        },
        instr_nodes,
        promoted: Vec::new(),
        // filled by `build_tape` once the instruction list is final
        row_work: RowWork::default(),
        jit: OnceLock::new(),
    }
}

impl Tape {
    /// The instruction stream, in execution order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Positional input names (first-read order); a batch row supplies
    /// one value per name, in this order.
    pub fn input_names(&self) -> &[String] {
        &self.inputs
    }

    /// Positional output names (graph order).
    pub fn output_names(&self) -> &[String] {
        &self.outputs
    }

    /// Values per input row.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Values per output row.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Peak live binary64 values (size of the `r` bank).
    pub fn num_f64_regs(&self) -> usize {
        self.n_f64_regs
    }

    /// Peak live carry-save values (size of the `c` bank).
    pub fn num_cs_regs(&self) -> usize {
        self.n_cs_regs
    }

    /// Node count of the source graph.
    pub fn source_nodes(&self) -> usize {
        self.source_nodes
    }

    /// The **source-graph** node instruction `i` was lowered from,
    /// mapped back through the optimizer's provenance map when the tape
    /// was optimized. `None` only for an out-of-range index. Quarantine
    /// diagnostics use this to name the offending node in source terms.
    pub fn source_node_of(&self, i: usize) -> Option<usize> {
        self.instr_nodes.get(i).map(|&n| n as usize)
    }

    /// What the post-gate optimizer did when this tape was compiled
    /// (all-zero counters for a tape compiled with `optimize: false`).
    pub fn opt_stats(&self) -> OptStats {
        self.opt
    }

    /// FNV-1a digest of the source graph's canonical encoding.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Install a per-instruction fast-path promotion mask (consulted by
    /// the batch executor per instruction). `mask[i]` may only be
    /// `true` for IEEE `Add`/`Sub`/`Mul`/`Div`/`Neg` instructions whose
    /// result range provably keeps the soft-float guard from firing;
    /// callers derive it from `lint::lint_ranges` facts mapped through
    /// [`Tape::source_node_of`].
    ///
    /// # Panics
    /// If `mask.len() != self.instrs().len()`.
    pub fn set_promoted(&mut self, mask: Vec<bool>) {
        assert_eq!(
            mask.len(),
            self.instrs.len(),
            "promotion mask arity mismatch"
        );
        self.promoted = mask;
        // the JIT module's guard set mirrors the promotion mask, so any
        // cached module is stale now — rebuild on next use
        self.jit = OnceLock::new();
    }

    /// The native module backing [`TapeBackend::Jit`], built on first
    /// use (bit-accurate semantics). `None` when the tape cannot be
    /// lowered ([`crate::jit::jit_refusal`]), the platform cannot run
    /// emitted code, or `CSFMA_JIT=off` — the backend then evaluates
    /// every row on the bit-accurate interpreter.
    pub fn jit_module(&self) -> Option<&Arc<crate::jit::JitModule>> {
        self.jit
            .get_or_init(|| {
                crate::jit::compile_module(self, crate::jit::JitSemantics::Bit).map(Arc::new)
            })
            .as_ref()
    }

    /// Number of instructions currently promoted to the raw host fast
    /// path (0 for a tape with no mask installed).
    pub fn promoted_count(&self) -> usize {
        self.promoted.iter().filter(|&&p| p).count()
    }

    /// Number of fused instructions the bit-plane chunk kernel runs
    /// (see DESIGN.md §13): every `Fma`, on every full chunk.
    pub fn plane_eligible_count(&self) -> usize {
        (self.row_work.fma_pcs + self.row_work.fma_fcs) as usize
    }

    /// A structure-of-arrays register file for this tape, recycled from
    /// the process-wide scratch pool when one is available. Sizing the
    /// banks with `resize` keeps a recycled scratch's capacity (and its
    /// `FmaScratch`/`PlaneScratch` working buffers) across jobs and
    /// across tapes; contents are left dirty — see
    /// [`CHUNK_SCRATCH_POOL`] for why that is sound.
    pub(crate) fn chunk_scratch(&self) -> PooledChunkScratch {
        let recycled = CHUNK_SCRATCH_POOL
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop();
        let mut s = recycled.unwrap_or_else(|| ChunkScratch {
            f: Vec::new(),
            cs: Vec::new(),
            pcs: CsFmaUnit::new(self.pcs_format),
            fcs: CsFmaUnit::new(self.fcs_format),
            fma: FmaScratch::default(),
            plane: PlaneScratch::default(),
            b_lane: Vec::new(),
            host: [0.0; CHUNK_ROWS],
            lanes_in: Vec::new(),
            lanes_out: Vec::new(),
            bail_in: Vec::new(),
            bail_out: Vec::new(),
        });
        s.f.resize(self.n_f64_regs * CHUNK_ROWS, 0.0);
        s.cs.resize(
            self.n_cs_regs * CHUNK_ROWS,
            CsOperand::zero(self.pcs_format, false),
        );
        s.pcs = CsFmaUnit::new(self.pcs_format);
        s.fcs = CsFmaUnit::new(self.fcs_format);
        PooledChunkScratch(Some(s))
    }

    /// Evaluate one input row (`row.len() == num_inputs()`) into `out`
    /// (`out.len() == num_outputs()`): a one-row chunk.
    pub fn eval_row(&self, backend: TapeBackend, row: &[f64], out: &mut [f64]) {
        assert_eq!(row.len(), self.inputs.len(), "row arity mismatch");
        assert_eq!(out.len(), self.outputs.len(), "output arity mismatch");
        self.eval_chunk(backend, row, 0, 1, out, &mut self.chunk_scratch());
    }

    /// Evaluate a batch of rows. `rows` is row-major,
    /// `rows.len() = n · num_inputs()`; the result is row-major,
    /// `n · num_outputs()` long. Up to `threads` workers process
    /// fixed-size row chunks; the output is bitwise identical for any
    /// `threads`, including 1 (see `csfma_core::batch`).
    ///
    /// # Panics
    /// If the tape has no inputs (the row count would be ambiguous —
    /// evaluate constant graphs with [`Tape::eval_row`]) or `rows.len()`
    /// is not a multiple of `num_inputs()`.
    pub fn eval_batch(&self, backend: TapeBackend, rows: &[f64], threads: usize) -> Vec<f64> {
        self.eval_batch_with_stats(backend, rows, threads).0
    }

    /// [`Tape::eval_batch`] plus this call's [`EvalStats`]: rows and
    /// chunks, hosted and FMA ops, plane-kernel lanes, JIT rows and
    /// bailouts, and the scheduler's [`SchedStats`](csfma_core::SchedStats).
    /// The counts cover this call alone, however many other evaluations
    /// run at the same time. The output vector is the same — stats only
    /// observe.
    pub fn eval_batch_with_stats(
        &self,
        backend: TapeBackend,
        rows: &[f64],
        threads: usize,
    ) -> (Vec<f64>, EvalStats) {
        let ni = self.inputs.len();
        assert!(ni > 0, "eval_batch on a tape with no inputs");
        assert_eq!(rows.len() % ni, 0, "rows not a multiple of num_inputs");
        let n = rows.len() / ni;
        let no = self.outputs.len();
        let mut out = vec![0.0f64; n * no];
        let mut stats = EvalStats::for_rows(n);
        if no == 0 {
            return (out, stats);
        }
        let total = Mutex::new(EvalStats::default());
        stats.sched = par_chunks_indexed(
            &mut out,
            CHUNK_ROWS * no,
            threads,
            || StatsWorker {
                scratch: self.chunk_scratch(),
                stats: EvalStats::default(),
                total: &total,
            },
            |w, chunk_idx, chunk| {
                let len = chunk.len() / no;
                let base = chunk_idx * CHUNK_ROWS;
                let st = self.eval_chunk(backend, rows, base, len, chunk, &mut w.scratch);
                w.stats.merge(&st);
            },
        );
        stats.merge(&total.into_inner().unwrap_or_else(|e| e.into_inner()));
        (out, stats)
    }

    /// Evaluate one scheduling chunk (`len` rows starting at row `base`)
    /// into `chunk` — the per-chunk dispatch of [`Tape::eval_batch`] and
    /// the robust executor's plane shadow. Returns the chunk's counts
    /// (see [`EvalStats`]); the scratch keeps none.
    pub(crate) fn eval_chunk(
        &self,
        backend: TapeBackend,
        rows: &[f64],
        base: usize,
        len: usize,
        chunk: &mut [f64],
        scratch: &mut ChunkScratch,
    ) -> EvalStats {
        match backend {
            TapeBackend::BitAccurate => {
                self.eval_chunk_bit(rows, base, len, chunk, scratch, &mut NoHook)
            }
            TapeBackend::Oracle => {
                self.eval_chunk_oracle(rows, base, len, chunk, scratch);
                self.row_work.fma_ops(len)
            }
            TapeBackend::Jit => self.eval_chunk_jit(rows, base, len, chunk, scratch),
        }
    }

    /// Chunk evaluation on the native JIT module, bit-identical to
    /// [`Tape::eval_chunk`] with [`TapeBackend::BitAccurate`]. Each call
    /// of the module evaluates a block of [`jit::LANES`] rows: the block
    /// is transposed into lane-major buffers, a ragged tail pads its
    /// lanes with its last real row, and the clean lanes of the returned
    /// mask are transposed back. Padded lanes never store and never
    /// count. The rows of flagged lanes are gathered and re-evaluated as
    /// one chunk on the bit-accurate interpreter (sound because chunk
    /// lanes are independent — lane `j` of any chunk computes exactly
    /// what its row computes alone), then scattered back. With no module
    /// at all the whole chunk keeps the interpreter and every row counts
    /// as a bailout.
    fn eval_chunk_jit(
        &self,
        rows: &[f64],
        base: usize,
        len: usize,
        out: &mut [f64],
        s: &mut ChunkScratch,
    ) -> EvalStats {
        use jit::LANES;
        let Some(module) = self.jit_module() else {
            let mut st = self.eval_chunk_bit(rows, base, len, out, s, &mut NoHook);
            st.jit_rows = len as u64;
            st.jit_bailouts = len as u64;
            return st;
        };
        let ni = self.inputs.len();
        let no = self.outputs.len();
        let row = |k: usize| &rows[(base + k) * ni..(base + k + 1) * ni];
        s.lanes_in.resize(ni, [0.0; LANES]);
        s.lanes_out.resize(no, [0.0; LANES]);
        s.bail_in.clear();
        let mut bailed = [0u8; CHUNK_ROWS];
        let mut nb = 0;
        for first in (0..len).step_by(LANES) {
            let n = LANES.min(len - first);
            for l in 0..LANES {
                for (lane, &v) in s.lanes_in.iter_mut().zip(row(first + l.min(n - 1))) {
                    lane[l] = v;
                }
            }
            let mask = module.run_block(&s.lanes_in, &mut s.lanes_out);
            for l in 0..n {
                let k = first + l;
                if mask & (1 << l) != 0 {
                    bailed[nb] = k as u8;
                    nb += 1;
                    s.bail_in.extend_from_slice(row(k));
                    continue;
                }
                for (d, lane) in out[k * no..(k + 1) * no].iter_mut().zip(&s.lanes_out) {
                    *d = lane[l];
                }
            }
        }
        let mut st = EvalStats {
            jit_rows: len as u64,
            jit_bailouts: nb as u64,
            ..EvalStats::default()
        };
        if nb > 0 {
            let bail_in = std::mem::take(&mut s.bail_in);
            let mut bail_out = std::mem::take(&mut s.bail_out);
            bail_out.resize(nb * no, 0.0);
            st.merge(&self.eval_chunk_bit(&bail_in, 0, nb, &mut bail_out, s, &mut NoHook));
            for (j, &k) in bailed[..nb].iter().enumerate() {
                let k = k as usize;
                out[k * no..(k + 1) * no].copy_from_slice(&bail_out[j * no..(j + 1) * no]);
            }
            s.bail_in = bail_in;
            s.bail_out = bail_out;
        }
        st
    }

    /// [`Tape::eval_batch`] wrapped in an `eval` stage span, with
    /// throughput, chunk, hosted-fast-path, per-FMA-architecture and JIT
    /// counters recorded into `prof`. The output vector is byte-identical
    /// to the unprofiled call — instrumentation only observes.
    ///
    /// Every count comes from this call's [`EvalStats`], so it is exact
    /// even while other threads evaluate: a profile never includes work
    /// it did not run. `jit_compile_us` is the module build the `codegen`
    /// span forced (0 when an earlier evaluation or [`Tape::jit_module`]
    /// call built it).
    pub fn eval_batch_profiled(
        &self,
        backend: TapeBackend,
        rows: &[f64],
        threads: usize,
        prof: &mut Profiler,
    ) -> Vec<f64> {
        let mut jit_compile_us = 0.0;
        if backend == TapeBackend::Jit {
            // force the lazy module build here so its cost lands in a
            // `codegen` span instead of polluting the eval timing
            let codegen_tok = prof.enter("codegen");
            let built_here = self.jit.get().is_none();
            let (native, us) =
                csfma_obs::time_us(|| self.jit_module().map_or(0, |m| m.native_instr_count()));
            prof.exit(codegen_tok);
            prof.set_counter("jit_native_instrs", native as f64);
            if built_here {
                jit_compile_us = us;
            }
        }

        let eval_tok = prof.enter("eval");
        let ((out, st), wall_us) =
            csfma_obs::time_us(|| self.eval_batch_with_stats(backend, rows, threads));
        prof.exit(eval_tok);

        let c = |v: u64| v as f64;
        prof.set_counter("rows", c(st.rows));
        prof.set_counter("threads", threads as f64);
        prof.set_counter("sched_workers", c(st.sched.workers));
        prof.set_counter("sched_grain_rows", c(st.sched.grain * CHUNK_ROWS as u64));
        prof.set_counter("sched_claims", c(st.sched.claims));
        prof.set_counter("sched_steals", c(st.sched.steals));
        prof.set_counter("sched_steal_misses", c(st.sched.steal_misses));
        if wall_us > 0.0 {
            prof.set_counter("rows_per_sec", c(st.rows) / (wall_us * 1e-6));
        }
        prof.set_counter("chunks", c(st.chunks_full + st.chunks_partial));
        prof.set_counter("chunks_full", c(st.chunks_full));
        prof.set_counter("chunks_partial", c(st.chunks_partial));
        prof.set_counter("hosted_ops", c(st.hosted_ops));
        prof.set_counter("softfloat_fallbacks", c(st.softfloat_fallbacks));
        if st.hosted_ops > 0 {
            let missed = st.softfloat_fallbacks.min(st.hosted_ops);
            prof.set_counter("hosted_hit_rate", 1.0 - c(missed) / c(st.hosted_ops));
        }
        prof.set_counter("fma_ops_pcs", c(st.fma_ops_pcs));
        prof.set_counter("fma_ops_fcs", c(st.fma_ops_fcs));
        prof.set_counter("plane_lanes", c(st.plane_lanes));
        prof.set_counter("plane_exception_lanes", c(st.plane_exception_lanes));
        prof.set_counter("plane_fallback_lanes", c(st.plane_fallback_lanes));
        prof.set_counter("plane_transpose_us", c(st.plane_transpose_ns) / 1000.0);
        for (name, ns) in PLANE_STAGE_COUNTERS.into_iter().zip(st.plane_stage_ns) {
            prof.set_counter(name, c(ns) / 1000.0);
        }
        prof.set_counter("cs_from_ieee_us", c(st.cs_from_ieee_ns) / 1000.0);
        prof.set_counter("cs_to_ieee_us", c(st.cs_to_ieee_ns) / 1000.0);
        if backend == TapeBackend::Jit {
            prof.set_counter("jit_rows", c(st.jit_rows));
            prof.set_counter("jit_bailouts", c(st.jit_bailouts));
            prof.set_counter("jit_compile_us", jit_compile_us);
        }
        out
    }

    /// Column-wise chunk evaluation, bit-accurate semantics — the one
    /// interpreter of [`TapeBackend::BitAccurate`], also behind the JIT's
    /// bailouts. IEEE nodes take the guarded host fast path of
    /// [`csfma_softfloat::batch`] a chunk at a time ([`hosted_chunk`]:
    /// one guard pass per chunk, soft-float only for flagged lanes);
    /// fused nodes run the bit-plane kernel on full chunks and otherwise
    /// the behavioral carry-save unit lane by lane with one shared
    /// [`FmaScratch`] — the compressor-tree row and layer buffers are
    /// reused across every lane of every FMA in the chunk instead of
    /// being reallocated per call.
    ///
    /// Returns the chunk's [`EvalStats`]: the hosted and FMA ops of its
    /// `len` rows, the soft-float fallbacks the hosted ops reported, and
    /// the plane-kernel and scalar-fallback lanes.
    ///
    /// In checked mode (`H::CHECKED`, the robust executor) every FMA lane
    /// goes through [`ChunkHook::fma`] instead, IEEE instructions ignore
    /// the promotion mask, and `hook` taps each instruction's result;
    /// the robust executor discards the counts.
    pub(crate) fn eval_chunk_bit<H: ChunkHook>(
        &self,
        rows: &[f64],
        base: usize,
        len: usize,
        out: &mut [f64],
        s: &mut ChunkScratch,
        hook: &mut H,
    ) -> EvalStats {
        let ni = self.inputs.len();
        let no = self.outputs.len();
        const W: usize = CHUNK_ROWS;
        let p = |r: u32| r as usize * W;
        let mut st = EvalStats {
            hosted_ops: self.row_work.hosted * len as u64,
            ..self.row_work.fma_ops(len)
        };
        let fb = &mut 0u64; // soft-float fallbacks, reported by the hosted ops
        let promoted = |i: usize| !H::CHECKED && self.promoted.get(i).copied().unwrap_or(false);
        // the conversions of a full chunk are timed like the plane stages:
        // once per instruction, only when the `obs` feature is on
        let clock = || (cfg!(feature = "obs") && len == W).then(std::time::Instant::now);
        let since =
            |t0: Option<std::time::Instant>| t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        for (i, ins) in self.instrs.iter().enumerate() {
            match *ins {
                Instr::LoadInput { dst, input } => {
                    let d = p(dst);
                    for k in 0..len {
                        s.f[d + k] = sfb::canonicalize(rows[(base + k) * ni + input as usize]);
                    }
                }
                Instr::LoadConst { dst, idx } => {
                    let v = self.consts_canonical[idx as usize];
                    s.f[p(dst)..p(dst) + len].fill(v);
                }
                Instr::Add { dst, a, b } => {
                    let fb = (!promoted(i)).then_some(&mut *fb);
                    hosted_chunk(s, [dst, a, b], len, f64::add, sfb::hosted_add, fb);
                }
                Instr::Sub { dst, a, b } => {
                    let fb = (!promoted(i)).then_some(&mut *fb);
                    hosted_chunk(s, [dst, a, b], len, f64::sub, sfb::hosted_sub, fb);
                }
                Instr::Mul { dst, a, b } => {
                    let fb = (!promoted(i)).then_some(&mut *fb);
                    hosted_chunk(s, [dst, a, b], len, f64::mul, sfb::hosted_mul, fb);
                }
                Instr::Div { dst, a, b } => {
                    let fb = (!promoted(i)).then_some(&mut *fb);
                    hosted_chunk(s, [dst, a, b], len, f64::div, sfb::hosted_div, fb);
                }
                Instr::Neg { dst, a } => {
                    let (d, x) = (p(dst), p(a));
                    if promoted(i) {
                        for k in 0..len {
                            s.f[d + k] = -s.f[x + k];
                        }
                    } else {
                        for k in 0..len {
                            s.f[d + k] = sfb::hosted_neg(s.f[x + k]);
                        }
                    }
                }
                Instr::Fma {
                    kind,
                    negate_b,
                    dst,
                    acc,
                    b,
                    mulc,
                } => {
                    let unit = match kind {
                        FmaKind::Pcs => &s.pcs,
                        FmaKind::Fcs => &s.fcs,
                    };
                    let (d, pa, pb, pm) = (p(dst), p(acc), p(b), p(mulc));
                    if H::CHECKED {
                        for k in 0..len {
                            let mut bv = SoftFloat::from_f64(F, s.f[pb + k]);
                            if negate_b {
                                bv = bv.neg();
                            }
                            let (a, c, fma) = (&s.cs[pa + k], &s.cs[pm + k], &mut s.fma);
                            let r =
                                hook.fma(i, k, |ctl| unit.fma_checked_with(a, &bv, c, fma, ctl).0);
                            s.cs[d + k] = r;
                        }
                    } else if len == W {
                        s.b_lane.clear();
                        for k in 0..len {
                            let mut bv = SoftFloat::from_f64(F, s.f[pb + k]);
                            if negate_b {
                                bv = bv.neg();
                            }
                            s.b_lane.push(bv);
                        }
                        st.add_plane(csfma_core::plane_fma_chunk(
                            unit,
                            &mut s.cs,
                            pa,
                            pm,
                            d,
                            &s.b_lane,
                            len,
                            &mut s.plane,
                        ));
                    } else {
                        st.plane_fallback_lanes += len as u64;
                        for k in 0..len {
                            let mut bv = SoftFloat::from_f64(F, s.f[pb + k]);
                            if negate_b {
                                bv = bv.neg();
                            }
                            let r = unit.fma_with(&s.cs[pa + k], &bv, &s.cs[pm + k], &mut s.fma);
                            s.cs[d + k] = r;
                        }
                    }
                }
                Instr::IeeeToCs { kind, dst, src } => {
                    let fmt = match kind {
                        FmaKind::Pcs => self.pcs_format,
                        FmaKind::Fcs => self.fcs_format,
                    };
                    let (d, x) = (p(dst), p(src));
                    let t0 = clock();
                    for k in 0..len {
                        s.cs[d + k].assign_ieee(&SoftFloat::from_f64(F, s.f[x + k]), &fmt);
                    }
                    st.cs_from_ieee_ns += since(t0);
                }
                Instr::CsToIeee { dst, src } => {
                    let (d, x) = (p(dst), p(src));
                    let t0 = clock();
                    for k in 0..len {
                        s.f[d + k] = s.cs[x + k].to_ieee(F, Round::NearestEven).to_f64();
                    }
                    st.cs_to_ieee_ns += since(t0);
                }
                Instr::Store { output, src } => {
                    let x = p(src);
                    for k in 0..len {
                        out[k * no + output as usize] = s.f[x + k];
                    }
                }
            }
            if H::CHECKED {
                hook.after_bit(i, &mut s.f, &mut s.cs);
            }
        }
        st.softfloat_fallbacks = *fb;
        st
    }

    /// Column-wise chunk evaluation with [`TapeBackend::Oracle`]
    /// semantics — the one interpreter of that backend and the robust
    /// executor's third rung: every IEEE operator runs the full soft-float
    /// stack (no hosted fast paths) and fused nodes call the allocating
    /// [`CsFmaUnit::fma`] entry point (no shared [`FmaScratch`]) — the
    /// slowest, most literal replay of the model, structurally
    /// independent of the scratch-based executors it backstops.
    pub(crate) fn eval_chunk_oracle(
        &self,
        rows: &[f64],
        base: usize,
        len: usize,
        out: &mut [f64],
        s: &mut ChunkScratch,
    ) {
        let ni = self.inputs.len();
        let no = self.outputs.len();
        const W: usize = CHUNK_ROWS;
        let p = |r: u32| r as usize * W;
        let sf = |v: f64| SoftFloat::from_f64(F, v);
        for ins in &self.instrs {
            match *ins {
                Instr::LoadInput { dst, input } => {
                    let d = p(dst);
                    for k in 0..len {
                        s.f[d + k] = sf(rows[(base + k) * ni + input as usize]).to_f64();
                    }
                }
                Instr::LoadConst { dst, idx } => {
                    let v = sf(self.consts[idx as usize]).to_f64();
                    s.f[p(dst)..p(dst) + len].fill(v);
                }
                Instr::Add { dst, a, b } => {
                    let (d, x, y) = (p(dst), p(a), p(b));
                    for k in 0..len {
                        s.f[d + k] = sf(s.f[x + k]).add(&sf(s.f[y + k])).to_f64();
                    }
                }
                Instr::Sub { dst, a, b } => {
                    let (d, x, y) = (p(dst), p(a), p(b));
                    for k in 0..len {
                        s.f[d + k] = sf(s.f[x + k]).sub(&sf(s.f[y + k])).to_f64();
                    }
                }
                Instr::Mul { dst, a, b } => {
                    let (d, x, y) = (p(dst), p(a), p(b));
                    for k in 0..len {
                        s.f[d + k] = sf(s.f[x + k]).mul(&sf(s.f[y + k])).to_f64();
                    }
                }
                Instr::Div { dst, a, b } => {
                    let (d, x, y) = (p(dst), p(a), p(b));
                    for k in 0..len {
                        s.f[d + k] = sf(s.f[x + k]).div(&sf(s.f[y + k])).to_f64();
                    }
                }
                Instr::Neg { dst, a } => {
                    let (d, x) = (p(dst), p(a));
                    for k in 0..len {
                        s.f[d + k] = sf(s.f[x + k]).neg().to_f64();
                    }
                }
                Instr::Fma {
                    kind,
                    negate_b,
                    dst,
                    acc,
                    b,
                    mulc,
                } => {
                    let unit = match kind {
                        FmaKind::Pcs => &s.pcs,
                        FmaKind::Fcs => &s.fcs,
                    };
                    let (d, pa, pb, pm) = (p(dst), p(acc), p(b), p(mulc));
                    for k in 0..len {
                        let mut bv = sf(s.f[pb + k]);
                        if negate_b {
                            bv = bv.neg();
                        }
                        let r = unit.fma(&s.cs[pa + k], &bv, &s.cs[pm + k]);
                        s.cs[d + k] = r;
                    }
                }
                Instr::IeeeToCs { kind, dst, src } => {
                    let fmt = match kind {
                        FmaKind::Pcs => self.pcs_format,
                        FmaKind::Fcs => self.fcs_format,
                    };
                    let (d, x) = (p(dst), p(src));
                    for k in 0..len {
                        s.cs[d + k] = CsOperand::from_ieee(&sf(s.f[x + k]), fmt);
                    }
                }
                Instr::CsToIeee { dst, src } => {
                    let (d, x) = (p(dst), p(src));
                    for k in 0..len {
                        s.f[d + k] = s.cs[x + k].to_ieee(F, Round::NearestEven).to_f64();
                    }
                }
                Instr::Store { output, src } => {
                    let x = p(src);
                    for k in 0..len {
                        out[k * no + output as usize] = s.f[x + k];
                    }
                }
            }
        }
    }
}

/// Default retention bound of the process-wide tape cache; see
/// [`set_tape_cache_capacity`].
pub const DEFAULT_TAPE_CACHE_CAPACITY: usize = 256;

/// Counter snapshot of the process-wide tape cache. `hits`, `misses`
/// and `evictions` are process-wide atomics shared by every shard, so
/// the snapshot stays exact regardless of the shard count; `entries`
/// sums the shard occupancies under their locks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TapeCacheStats {
    /// Lookups served without compiling.
    pub hits: u64,
    /// Lookups that compiled (and inserted) a fresh tape.
    pub misses: u64,
    /// Entries dropped by the LRU bound since process start.
    pub evictions: u64,
    /// Tapes currently resident, summed over all shards.
    pub entries: usize,
    /// Current retention bound (total across shards).
    pub capacity: usize,
    /// Number of LRU shards ([`set_tape_cache_shards`]).
    pub shards: usize,
}

struct TapeCacheState {
    /// Key → (tape, last-touch tick). The tick orders recency; eviction
    /// removes the minimum.
    map: HashMap<Vec<u8>, (Arc<Tape>, u64)>,
    tick: u64,
    capacity: usize,
}

impl TapeCacheState {
    fn evict_to_capacity(&mut self) {
        while self.map.len() > self.capacity {
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.map.remove(&victim);
            CACHE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Hard ceiling on the shard count accepted by [`set_tape_cache_shards`].
pub const MAX_TAPE_CACHE_SHARDS: usize = 64;

static TAPE_CACHE: OnceLock<RwLock<Vec<Mutex<TapeCacheState>>>> = OnceLock::new();
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);
/// Total retention bound across all shards (the public `capacity`).
static CACHE_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_TAPE_CACHE_CAPACITY);

fn new_shard(capacity: usize) -> Mutex<TapeCacheState> {
    Mutex::new(TapeCacheState {
        map: HashMap::new(),
        tick: 0,
        capacity,
    })
}

fn shards() -> &'static RwLock<Vec<Mutex<TapeCacheState>>> {
    TAPE_CACHE.get_or_init(|| RwLock::new(vec![new_shard(DEFAULT_TAPE_CACHE_CAPACITY)]))
}

/// FNV-1a over the cache key selects the shard; a power-of-two shard
/// count makes the reduction a mask.
fn shard_index(key: &[u8], n: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    // fold the high bits in so low-entropy keys still spread
    ((h ^ (h >> 32)) as usize) & (n - 1)
}

fn per_shard_capacity(total: usize, n: usize) -> usize {
    (total / n).max(1)
}

/// Run `f` on the shard owning `key`. The outer read lock only excludes
/// [`set_tape_cache_shards`]' reshard; concurrent lookups with different
/// keys proceed in parallel on distinct shard mutexes.
fn with_shard<R>(key: &[u8], f: impl FnOnce(&mut TapeCacheState) -> R) -> R {
    let guard = shards().read().unwrap_or_else(|e| e.into_inner());
    let idx = shard_index(key, guard.len());
    // the cache never holds partially-updated state across a panic,
    // so a poisoned lock is safe to re-enter
    let mut st = guard[idx].lock().unwrap_or_else(|e| e.into_inner());
    f(&mut st)
}

/// Run `f` on every shard in order (stats, capacity, clear).
fn for_each_shard(mut f: impl FnMut(&mut TapeCacheState)) {
    let guard = shards().read().unwrap_or_else(|e| e.into_inner());
    for shard in guard.iter() {
        let mut st = shard.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut st);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// [`compile`] through the process-wide tape cache, keyed by the graph's
/// full canonical encoding (collision-proof; the [`Tape::fingerprint`]
/// digest is informational). Two calls with structurally identical
/// graphs return the same `Arc` — the second call does no compilation
/// and no checking. The cache is bounded ([`set_tape_cache_capacity`],
/// default [`DEFAULT_TAPE_CACHE_CAPACITY`]) with least-recently-used
/// eviction.
pub fn compile_cached(g: &Cdfg) -> Result<Arc<Tape>, CompileError> {
    compile_cached_with(g, CompileOptions::default(), &mut Profiler::disabled())
}

/// [`compile_cached`] with explicit [`CompileOptions`], recording stage
/// spans and tape-cache counters into `prof`: a `cache_lookup` span for
/// the keyed probe, then (on a miss) the full `compile` span tree of
/// [`compile_with`]. The `tape_cache_*` counters are the process-wide
/// totals after this call. The cache key is the canonical encoding
/// extended with every option field, formats included, so tapes built
/// with different options are distinct entries.
pub fn compile_cached_with(
    g: &Cdfg,
    opts: CompileOptions,
    prof: &mut Profiler,
) -> Result<Arc<Tape>, CompileError> {
    let result = compile_cached_with_inner(g, opts, prof);
    let stats = tape_cache_stats();
    prof.set_counter("tape_cache_hits", stats.hits as f64);
    prof.set_counter("tape_cache_misses", stats.misses as f64);
    prof.set_counter("tape_cache_evictions", stats.evictions as f64);
    prof.set_counter("tape_cache_entries", stats.entries as f64);
    prof.set_counter("tape_cache_shards", stats.shards as f64);
    result
}

fn compile_cached_with_inner(
    g: &Cdfg,
    opts: CompileOptions,
    prof: &mut Profiler,
) -> Result<Arc<Tape>, CompileError> {
    let mut key = canonical_encoding(g);
    // the derived Debug form spells out every field, so a new option can
    // never be left out of the key
    key.extend_from_slice(format!("{opts:?}").as_bytes());
    {
        let lookup_tok = prof.enter("cache_lookup");
        let cached = with_shard(&key, |st| {
            st.tick += 1;
            let tick = st.tick;
            st.map.get_mut(&key).map(|(t, stamp)| {
                *stamp = tick;
                CACHE_HITS.fetch_add(1, Ordering::Relaxed);
                Arc::clone(t)
            })
        });
        prof.exit(lookup_tok);
        if let Some(shared) = cached {
            return Ok(shared);
        }
    }
    // compile outside the lock; a racing duplicate insert is harmless
    // (both tapes are identical) and the first one wins. The compiler
    // runs under `catch_unwind` so an internal bug surfaces as a
    // structured X001 error and the poisoned attempt is never cached.
    let compiled =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| compile_with(g, opts, prof)));
    let mut tape = match compiled {
        Ok(result) => result?,
        Err(payload) => {
            return Err(CompileError {
                diagnostics: vec![Diagnostic::error(
                    Rule::CompilerPanic,
                    Span::Global,
                    format!(
                        "tape compiler panicked: {}",
                        panic_message(payload.as_ref())
                    ),
                )],
            })
        }
    };
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    // snapshot the counters onto the tape so BENCH reports can attribute
    // cache behavior to the compilation that observed it
    tape.opt.cache_hits = CACHE_HITS.load(Ordering::Relaxed);
    tape.opt.cache_misses = CACHE_MISSES.load(Ordering::Relaxed);
    tape.opt.cache_evictions = CACHE_EVICTIONS.load(Ordering::Relaxed);
    let tape = Arc::new(tape);
    let shared = with_shard(&key, |st| {
        st.tick += 1;
        let tick = st.tick;
        // the clone only runs on the miss path, where a full compile
        // already dwarfs it
        let shared = Arc::clone(&st.map.entry(key.clone()).or_insert((tape, tick)).0);
        st.evict_to_capacity();
        shared
    });
    Ok(shared)
}

/// Counters and occupancy of [`compile_cached`]'s tape cache since
/// process start. Exact at any shard count: the event counters are
/// process-wide atomics and `entries` sums shard occupancies.
pub fn tape_cache_stats() -> TapeCacheStats {
    let mut entries = 0usize;
    let mut n_shards = 0usize;
    for_each_shard(|st| {
        entries += st.map.len();
        n_shards += 1;
    });
    TapeCacheStats {
        hits: CACHE_HITS.load(Ordering::Relaxed),
        misses: CACHE_MISSES.load(Ordering::Relaxed),
        evictions: CACHE_EVICTIONS.load(Ordering::Relaxed),
        entries,
        capacity: CACHE_CAPACITY.load(Ordering::Relaxed),
        shards: n_shards,
    }
}

/// Bound the total number of cached tapes (clamped to a minimum of 1).
/// Each of the N shards gets `max(1, capacity / N)`; shrinking below the
/// current occupancy evicts least-recently-used entries immediately,
/// per shard.
pub fn set_tape_cache_capacity(capacity: usize) {
    let capacity = capacity.max(1);
    CACHE_CAPACITY.store(capacity, Ordering::Relaxed);
    let guard = shards().read().unwrap_or_else(|e| e.into_inner());
    let per = per_shard_capacity(capacity, guard.len());
    for shard in guard.iter() {
        let mut st = shard.lock().unwrap_or_else(|e| e.into_inner());
        st.capacity = per;
        st.evict_to_capacity();
    }
}

/// Reshard the tape cache for `workers` concurrent submitters: the
/// shard count becomes `next_power_of_two(workers)` (clamped to
/// 1..=[`MAX_TAPE_CACHE_SHARDS`]), keyed by an FNV-1a hash of the graph
/// encoding. Resident entries are redistributed with their recency
/// stamps intact; the per-shard bound becomes `max(1, capacity / N)`,
/// which may evict if a shard ends up oversubscribed. With one shard
/// (the default) lookup, insert and eviction order are byte-for-byte
/// the pre-sharding behavior.
pub fn set_tape_cache_shards(workers: usize) {
    let n = workers
        .clamp(1, MAX_TAPE_CACHE_SHARDS)
        .next_power_of_two()
        .min(MAX_TAPE_CACHE_SHARDS);
    let mut guard = shards().write().unwrap_or_else(|e| e.into_inner());
    if guard.len() == n {
        return;
    }
    let per = per_shard_capacity(CACHE_CAPACITY.load(Ordering::Relaxed), n);
    let mut next: Vec<Mutex<TapeCacheState>> = (0..n).map(|_| new_shard(per)).collect();
    // carry entries (and the tick high-water mark) over so resharding
    // never cold-starts a warm server
    let mut max_tick = 0u64;
    for shard in guard.drain(..) {
        let st = shard.into_inner().unwrap_or_else(|e| e.into_inner());
        max_tick = max_tick.max(st.tick);
        for (key, entry) in st.map {
            let idx = shard_index(&key, n);
            next[idx].get_mut().unwrap().map.insert(key, entry);
        }
    }
    for shard in next.iter_mut() {
        let st = shard.get_mut().unwrap();
        st.tick = st.tick.max(max_tick);
        st.evict_to_capacity();
    }
    *guard = next;
}

/// Current shard count of the tape cache.
pub fn tape_cache_shards() -> usize {
    shards().read().unwrap_or_else(|e| e.into_inner()).len()
}

/// Drop every cached tape (benchmarks use this to measure cold compiles).
pub fn clear_tape_cache() {
    for_each_shard(|st| st.map.clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdfg::NodeId;
    use crate::fuse::{fuse_critical_paths, FusionConfig};
    use crate::interp::eval_bit_accurate;

    /// Listing 1 of the paper: a three-link multiply-add chain.
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

    fn listing1_row(tape: &Tape) -> (Vec<f64>, HashMap<String, f64>) {
        let vals: HashMap<String, f64> = [
            ("a", 1.5),
            ("b", -2.25),
            ("c", 0.3),
            ("d", 7.0),
            ("e", -0.001),
            ("f", 42.0),
            ("g", 1e10),
            ("h", -3.5),
            ("i", 0.125),
            ("k", 9.9),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let row = tape
            .input_names()
            .iter()
            .map(|n| vals[n.as_str()])
            .collect();
        (row, vals)
    }

    fn run_one(tape: &Tape, backend: TapeBackend, row: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; tape.num_outputs()];
        tape.eval_row(backend, row, &mut out);
        out
    }

    #[test]
    fn tape_matches_the_oracle_on_listing1() {
        let g = listing1();
        let tape = compile(&g).unwrap();
        let (row, vals) = listing1_row(&tape);
        let got = run_one(&tape, TapeBackend::BitAccurate, &row);
        let want = eval_bit_accurate(&g, &vals);
        assert_eq!(got[0].to_bits(), want["x3"].to_bits());
    }

    #[test]
    fn tape_matches_the_oracle_on_fused_graph() {
        for kind in [FmaKind::Pcs, FmaKind::Fcs] {
            let g = fuse_critical_paths(&listing1(), &FusionConfig::new(kind)).fused;
            let tape = compile(&g).unwrap();
            let (row, vals) = listing1_row(&tape);
            let got = run_one(&tape, TapeBackend::BitAccurate, &row);
            let want = eval_bit_accurate(&g, &vals);
            assert_eq!(got[0].to_bits(), want["x3"].to_bits(), "{kind:?}");
        }
    }

    #[test]
    fn register_slots_are_reused() {
        // a long dependent chain keeps only a handful of values live, so
        // linear-scan allocation must stay far below one slot per node
        let mut g = Cdfg::new();
        let mut x = g.input("x0");
        for i in 0..100 {
            let c = g.input(format!("c{i}"));
            let m = g.mul(c, x);
            x = g.add(m, x);
        }
        g.output("y", x);
        let tape = compile(&g).unwrap();
        assert!(
            tape.num_f64_regs() <= 4,
            "peak live registers {} should be tiny for a chain",
            tape.num_f64_regs()
        );
        assert_eq!(tape.source_nodes(), g.len());
    }

    #[test]
    fn eval_batch_matches_row_loop_and_is_thread_invariant() {
        let g = fuse_critical_paths(&listing1(), &FusionConfig::new(FmaKind::Pcs)).fused;
        let tape = compile(&g).unwrap();
        let ni = tape.num_inputs();
        // enough rows for several chunks
        let n = 3 * CHUNK_ROWS + 7;
        let rows: Vec<f64> = (0..n * ni)
            .map(|i| ((i * 2654435761) % 1000) as f64 * 0.17 - 85.0)
            .collect();
        let backend = TapeBackend::BitAccurate;
        let seq: Vec<f64> = {
            let mut out = vec![0.0; n * tape.num_outputs()];
            for r in 0..n {
                let (lo, hi) = (r * ni, (r + 1) * ni);
                tape.eval_row(backend, &rows[lo..hi], &mut out[r..r + 1]);
            }
            out
        };
        for threads in [1usize, 2, 8] {
            let got = tape.eval_batch(backend, &rows, threads);
            assert!(
                got.iter()
                    .zip(seq.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "diverged at {threads} threads"
            );
        }
    }

    /// Serializes tests that mutate the process-wide tape cache (its
    /// capacity or its entry set), so LRU eviction in one test cannot
    /// break `Arc::ptr_eq` assertions in another.
    fn cache_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn cache_returns_shared_tape() {
        let _guard = cache_test_lock();
        let g = listing1();
        let s0 = tape_cache_stats();
        let a = compile_cached(&g).unwrap();
        let b = compile_cached(&g).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s1 = tape_cache_stats();
        assert!(s1.hits > s0.hits, "second compile must hit the cache");
        assert!(s1.misses > s0.misses, "first compile must miss the cache");
        assert!(s1.entries >= 1);
        // the tape snapshots the counters it observed when compiled
        assert!(a.opt_stats().cache_misses >= 1);
        // structurally identical but separately built graph also hits
        let c = compile_cached(&listing1()).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!(a.fingerprint(), graph_fingerprint(&listing1()));
    }

    #[test]
    fn cache_capacity_is_bounded_lru() {
        let _guard = cache_test_lock();
        let s0 = tape_cache_stats();
        set_tape_cache_capacity(4);
        // six structurally distinct graphs through a four-entry cache:
        // at least two must be evicted, oldest first
        let tapes: Vec<_> = (0..6)
            .map(|i| {
                let mut g = listing1();
                g.output(format!("lru_probe_{i}"), g.outputs()[0] - 1);
                compile_cached(&g).unwrap()
            })
            .collect();
        let s1 = tape_cache_stats();
        assert_eq!(s1.capacity, 4);
        assert!(s1.entries <= 4, "{s1:?}");
        assert!(s1.evictions >= s0.evictions + 2, "{s1:?}");
        // the most recent entry is still resident and hits
        let mut g5 = listing1();
        g5.output("lru_probe_5", g5.outputs()[0] - 1);
        let again = compile_cached(&g5).unwrap();
        assert!(Arc::ptr_eq(&tapes[5], &again));
        set_tape_cache_capacity(DEFAULT_TAPE_CACHE_CAPACITY);
    }

    #[test]
    fn compiler_panic_is_structured_and_never_cached() {
        let _guard = cache_test_lock();
        let mut g = listing1();
        g.output("panic_probe", g.outputs()[0] - 1);
        let before = tape_cache_stats();
        PANIC_NEXT_COMPILE.with(|p| p.set(true));
        let err = compile_cached(&g).unwrap_err();
        assert!(
            err.diagnostics
                .iter()
                .any(|d| d.rule == Rule::CompilerPanic),
            "{err}"
        );
        assert!(err.to_string().contains("X001"), "{err}");
        let mid = tape_cache_stats();
        assert_eq!(
            mid.entries, before.entries,
            "poisoned compile must not be cached"
        );
        assert_eq!(mid.misses, before.misses, "a panic is not a miss");
        // a clean retry compiles fresh and succeeds
        let tape = compile_cached(&g).unwrap();
        assert_eq!(tape.fingerprint(), graph_fingerprint(&g));
    }

    #[test]
    fn optimizer_tape_is_byte_identical_to_unoptimized() {
        // foldable constants, a repeated subexpression and a dead input:
        // the optimizer must shrink the tape without changing the row
        // layout or any output bit on either backend
        let src = "unused = u * u;\nscale = 2.0 * 2.0 + 1.0;\nout y = a*b + a*b + scale;\n";
        let g = crate::parse_program(src).unwrap();
        let opt = compile(&g).unwrap();
        let plain = compile_with(
            &g,
            CompileOptions {
                optimize: false,
                ..CompileOptions::default()
            },
            &mut Profiler::disabled(),
        )
        .unwrap();
        assert_eq!(opt.input_names(), plain.input_names());
        assert_eq!(opt.output_names(), plain.output_names());
        assert!(
            opt.instrs().len() < plain.instrs().len(),
            "optimizer removed nothing: {} vs {}",
            opt.instrs().len(),
            plain.instrs().len()
        );
        let stats = opt.opt_stats();
        assert!(stats.consts_folded >= 2, "{stats:?}");
        assert!(stats.cse_merged >= 1, "{stats:?}");
        assert!(stats.dead_removed >= 1, "{stats:?}");
        assert!(
            stats.dead_slots_removed >= 1,
            "the dead input's LoadInput must die at tape level: {stats:?}"
        );
        assert_eq!(plain.opt_stats().consts_folded, 0);
        let ni = opt.num_inputs();
        let n = CHUNK_ROWS + 13;
        let rows: Vec<f64> = (0..n * ni)
            .map(|i| ((i * 48271) % 2000) as f64 * 0.37 - 370.0)
            .collect();
        let a = opt.eval_batch(TapeBackend::BitAccurate, &rows, 2);
        let b = plain.eval_batch(TapeBackend::BitAccurate, &rows, 2);
        assert!(
            a.iter()
                .zip(b.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "optimized tape diverged"
        );
    }

    #[test]
    fn optimize_us_times_the_optimizer_only() {
        // lowering is not optimizing: with the optimizer off nothing is
        // timed, however long the rest of the compile takes
        let g = fuse_critical_paths(&listing1(), &FusionConfig::new(FmaKind::Fcs)).fused;
        let plain = compile_with(
            &g,
            CompileOptions {
                optimize: false,
                ..CompileOptions::default()
            },
            &mut Profiler::disabled(),
        )
        .unwrap();
        assert_eq!(plain.opt_stats().optimize_us, 0.0);
        assert!(compile(&g).unwrap().opt_stats().optimize_us > 0.0);
    }

    #[test]
    fn cache_distinguishes_optimize_flag() {
        let _guard = cache_test_lock();
        // distinct from every other cached graph in this test binary so
        // the hit/miss counters of sibling tests stay undisturbed
        let mut g = listing1();
        g.output("x3_flag_probe", g.outputs()[0] - 1);
        let a = compile_cached(&g).unwrap();
        let b = compile_cached_with(
            &g,
            CompileOptions {
                optimize: false,
                ..CompileOptions::default()
            },
            &mut Profiler::disabled(),
        )
        .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        // but both identify as the same source graph
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.source_nodes(), b.source_nodes());
    }

    #[test]
    fn cache_distinguishes_formats() {
        let _guard = cache_test_lock();
        let g = fuse_critical_paths(&listing1(), &FusionConfig::new(FmaKind::Pcs)).fused;
        let lza = CompileOptions {
            pcs_format: CsFmaFormat::PCS_58_LZA,
            ..CompileOptions::default()
        };
        // the non-default build goes in first: a default request must
        // still never be served its tape
        let b = compile_cached_with(&g, lza, &mut Profiler::disabled()).unwrap();
        let a = compile_cached(&g).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.pcs_format, format_of(FmaKind::Pcs));
        assert_eq!(b.pcs_format, CsFmaFormat::PCS_58_LZA);
        assert!(Arc::ptr_eq(
            &b,
            &compile_cached_with(&g, lza, &mut Profiler::disabled()).unwrap()
        ));
    }

    /// Mutation test for the sharding refactor: a single-shard cache
    /// must reproduce the pre-sharding eviction order exactly — touch
    /// order decides the victim, not insertion order.
    #[test]
    fn single_shard_reproduces_unsharded_eviction_order() {
        let _guard = cache_test_lock();
        set_tape_cache_shards(1);
        assert_eq!(tape_cache_stats().shards, 1);
        clear_tape_cache();
        set_tape_cache_capacity(3);
        let probe = |i: usize| {
            let mut g = listing1();
            g.output(format!("shard1_probe_{i}"), g.outputs()[0] - 1);
            g
        };
        let a = compile_cached(&probe(0)).unwrap();
        let _b = compile_cached(&probe(1)).unwrap();
        let c = compile_cached(&probe(2)).unwrap();
        // touch A so B becomes least-recently-used, then overflow with D:
        // the classic LRU order evicts B and only B
        let a2 = compile_cached(&probe(0)).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        let ev0 = tape_cache_stats().evictions;
        let d = compile_cached(&probe(3)).unwrap();
        assert_eq!(tape_cache_stats().evictions, ev0 + 1);
        // A, C, D resident (hits); B was the victim (miss, fresh tape)
        let m0 = tape_cache_stats().misses;
        assert!(Arc::ptr_eq(&a, &compile_cached(&probe(0)).unwrap()));
        assert!(Arc::ptr_eq(&c, &compile_cached(&probe(2)).unwrap()));
        assert!(Arc::ptr_eq(&d, &compile_cached(&probe(3)).unwrap()));
        assert_eq!(tape_cache_stats().misses, m0, "A/C/D must all hit");
        let b2 = compile_cached(&probe(1)).unwrap();
        assert!(!Arc::ptr_eq(&_b, &b2), "B must have been the LRU victim");
        assert_eq!(tape_cache_stats().misses, m0 + 1);
        set_tape_cache_capacity(DEFAULT_TAPE_CACHE_CAPACITY);
    }

    #[test]
    fn sharded_cache_aggregates_stats_exactly() {
        let _guard = cache_test_lock();
        set_tape_cache_shards(8);
        let s = tape_cache_stats();
        assert_eq!(s.shards, 8);
        assert_eq!(tape_cache_shards(), 8);
        clear_tape_cache();
        assert_eq!(tape_cache_stats().entries, 0);
        let s0 = tape_cache_stats();
        let n = 12usize;
        let tapes: Vec<_> = (0..n)
            .map(|i| {
                let mut g = listing1();
                g.output(format!("shard8_probe_{i}"), g.outputs()[0] - 1);
                compile_cached(&g).unwrap()
            })
            .collect();
        let s1 = tape_cache_stats();
        assert_eq!(s1.misses, s0.misses + n as u64, "one miss per graph");
        assert_eq!(s1.entries, s0.entries + n, "entries sum over shards");
        assert_eq!(s1.evictions, s0.evictions, "no shard may overflow here");
        // every entry hits again, from whichever shard owns it, and the
        // resident Arc is shared
        for (i, t) in tapes.iter().enumerate() {
            let mut g = listing1();
            g.output(format!("shard8_probe_{i}"), g.outputs()[0] - 1);
            assert!(Arc::ptr_eq(t, &compile_cached(&g).unwrap()));
        }
        let s2 = tape_cache_stats();
        assert_eq!(s2.hits, s1.hits + n as u64);
        assert_eq!(s2.misses, s1.misses);
        set_tape_cache_shards(1);
    }

    #[test]
    fn resharding_preserves_resident_entries() {
        let _guard = cache_test_lock();
        set_tape_cache_shards(1);
        let mut g = listing1();
        g.output("reshard_probe", g.outputs()[0] - 1);
        let a = compile_cached(&g).unwrap();
        // shard count requests round up to the next power of two
        set_tape_cache_shards(5);
        assert_eq!(tape_cache_shards(), 8);
        let m0 = tape_cache_stats().misses;
        let b = compile_cached(&g).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "warm entry must survive the reshard migration"
        );
        assert_eq!(tape_cache_stats().misses, m0);
        set_tape_cache_shards(1);
        let c = compile_cached(&g).unwrap();
        assert!(Arc::ptr_eq(&a, &c), "and survive merging back down");
    }

    #[test]
    fn oracle_backend_is_bit_identical_to_bit_accurate() {
        let g = fuse_critical_paths(&listing1(), &FusionConfig::new(FmaKind::Pcs)).fused;
        let tape = compile(&g).unwrap();
        let ni = tape.num_inputs();
        let n = CHUNK_ROWS + 9;
        let mut rows: Vec<f64> = (0..n * ni)
            .map(|i| ((i * 2654435761) % 1000) as f64 * 0.23 - 115.0)
            .collect();
        rows[0] = f64::NAN;
        rows[1] = -0.0;
        rows[2] = f64::INFINITY;
        let bit = tape.eval_batch(TapeBackend::BitAccurate, &rows, 2);
        let oracle = tape.eval_batch(TapeBackend::Oracle, &rows, 2);
        assert!(
            bit.iter()
                .zip(oracle.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "oracle backend diverged from bit-accurate"
        );
        // and through the row entry point
        let mut o1 = vec![0.0; tape.num_outputs()];
        tape.eval_row(TapeBackend::Oracle, &rows[..ni], &mut o1);
        assert_eq!(o1[0].to_bits(), bit[0].to_bits());
    }

    #[test]
    fn instructions_carry_source_node_provenance() {
        // optimizer active: provenance must survive folding, CSE, DCE,
        // reordering and tape-level dead-slot elimination
        let src = "unused = u * u;\nscale = 2.0 * 2.0 + 1.0;\nout y = a*b + a*b + scale;\n";
        let g = crate::parse_program(src).unwrap();
        for opts in [
            CompileOptions {
                optimize: true,
                ..CompileOptions::default()
            },
            CompileOptions {
                optimize: false,
                ..CompileOptions::default()
            },
        ] {
            let tape = compile_with(&g, opts, &mut Profiler::disabled()).unwrap();
            assert_eq!(tape.instrs().len(), tape.instr_nodes.len());
            for i in 0..tape.instrs().len() {
                let node = tape.source_node_of(i).expect("every instr maps to a node");
                assert!(node < g.len(), "node id {node} out of source range");
            }
            let store_idx = tape
                .instrs()
                .iter()
                .position(|i| matches!(i, Instr::Store { .. }))
                .unwrap();
            let node = tape.source_node_of(store_idx).unwrap();
            assert!(
                matches!(g.nodes()[node].op, Op::Output(_)),
                "Store must map back to the source Output node"
            );
        }
    }

    #[test]
    fn compile_rejects_graph_with_checker_errors() {
        let mut g = Cdfg::new();
        let a = g.input("a");
        // D001: Add with one argument, planted behind the validator's back
        g.push_unchecked(Op::Add, vec![a]);
        let err = compile(&g).unwrap_err();
        assert!(!err.diagnostics.is_empty());
        assert!(err
            .diagnostics
            .iter()
            .all(|d| d.severity == Severity::Error));
        let msg = err.to_string();
        assert!(msg.contains("cannot compile"), "{msg}");
    }

    #[test]
    fn warnings_do_not_block_compilation() {
        // dead node (D005) and a no-sink graph (D006) are warnings
        let mut g = Cdfg::new();
        let a = g.input("a");
        let b = g.input("b");
        g.add(a, b); // dead: never reaches an output
        let x = g.mul(a, b);
        g.output("y", x);
        compile(&g).expect("warnings must not gate the tape");
    }
}
