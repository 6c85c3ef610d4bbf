//! Dependency-free native code generation for the IEEE fast path.
//!
//! [`compile_module`] lowers a validated [`Tape`] to executable x86-64
//! machine code (packed AVX `vaddpd`/`vmulpd`/... on `ymm` registers) in
//! an mmap'd W^X code buffer. The emitted function evaluates **four rows**
//! per call ([`LANES`], one row per 64-bit lane) and returns a bail mask;
//! see `docs/JIT.md` for the ABI, the W^X policy and the bailout
//! contract. On a host without AVX, and on any other platform, no module
//! is built and the interpreter runs every row.
//!
//! # Semantics and the bailout contract
//!
//! The emitted code reproduces the bit-accurate interpreter
//! ([`TapeBackend::BitAccurate`](crate::TapeBackend::BitAccurate))
//! exactly, by construction:
//!
//! * only scalar IEEE instructions are lowered — a tape containing any
//!   fused carry-save instruction (`Fma`/`IeeeToCs`/`CsToIeee`) refuses
//!   to build a module and the whole batch keeps the behavioral path;
//! * every `LoadInput` is guarded: a lane whose input canonicalization
//!   would alter (NaN or subnormal input) is flagged;
//! * every **unpromoted** arithmetic result is guarded with exactly the
//!   soft-float fallback window of `csfma_softfloat::batch` (NaN, or
//!   nonzero with magnitude ≤ `f64::MIN_POSITIVE`) — a lane is flagged
//!   precisely when the interpreter would have left the hosted fast
//!   path for its row;
//! * instructions promoted by the value-range analysis
//!   ([`Tape::set_promoted`](crate::Tape::set_promoted), DESIGN.md §16)
//!   run guard-free, which is sound because the range proof shows the
//!   guard can never fire.
//!
//! Guards do not branch: each ORs its flagged lanes into an accumulator,
//! and a flagged lane goes on computing. Packed IEEE operations are
//! lane-wise, so what a flagged lane holds never reaches another lane;
//! the caller discards its outputs and re-runs its row on the
//! interpreter. Every lane that ever holds a NaN or a nonzero subnormal
//! is flagged, so in every kept lane unguarded negation (a raw sign
//! flip) and native ±∞ propagation are exact.
//!
//! # Disabling
//!
//! Setting the environment variable `CSFMA_JIT=off` (or `0`) before the
//! first evaluation disables module construction process-wide;
//! `--backend jit` then falls back to the interpreter for every row.

use crate::compile::{Instr, Tape};
use csfma_verify::{Diagnostic, Rule, Span};
use std::fmt;
use std::sync::OnceLock;

/// Rows one call of the emitted function evaluates: one per 64-bit lane
/// of a 256-bit `ymm` register.
pub const LANES: usize = 4;

/// Which interpreter the emitted code must be bit-identical to. `Bit`
/// is the only mode; the parameter of [`compile_module`] stays only
/// because the benchmark package passes it, and the next change to the
/// benchmark drops it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JitSemantics {
    /// Bit-accurate semantics with per-lane bailout guards; the module
    /// backing [`TapeBackend::Jit`](crate::TapeBackend::Jit).
    Bit,
}

/// True when `CSFMA_JIT` does not disable the JIT (read once, cached).
pub fn jit_env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("CSFMA_JIT").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        )
    })
}

/// True when this build can emit and run native code at all: a unix
/// host on x86-64 whose CPU and OS support AVX, with the JIT not
/// disabled by [`jit_env_enabled`]. When false, `--backend jit` is pure
/// interpreter fallback (still bit-exact, just not faster).
pub fn jit_available() -> bool {
    host_has_avx() && jit_env_enabled()
}

#[cfg(all(unix, target_arch = "x86_64"))]
fn host_has_avx() -> bool {
    std::is_x86_feature_detected!("avx")
}

#[cfg(not(all(unix, target_arch = "x86_64")))]
fn host_has_avx() -> bool {
    false
}

// ---------------------------------------------------------------------
// W^X code buffer
// ---------------------------------------------------------------------

#[cfg(all(unix, target_arch = "x86_64"))]
mod mem {
    //! Raw `mmap`/`mprotect`/`munmap` bindings — the workspace is
    //! dependency-free, and std already links libc on unix.
    use core::ffi::c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const PROT_EXEC: i32 = 4;
    const MAP_PRIVATE: i32 = 2;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const MAP_ANON: i32 = 0x20;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const MAP_ANON: i32 = 0x1000;

    /// An anonymous executable mapping holding one emitted function.
    /// W^X discipline: the page is never writable and executable at the
    /// same time — it is filled while `PROT_READ|PROT_WRITE` and flipped
    /// to `PROT_READ|PROT_EXEC` before the entry pointer ever escapes.
    pub struct CodeBuf {
        ptr: *mut u8,
        len: usize,
    }

    impl CodeBuf {
        /// Map, fill and seal a code buffer. `None` if the kernel
        /// refuses the mapping (e.g. a no-exec mount policy).
        pub fn new(code: &[u8]) -> Option<CodeBuf> {
            if code.is_empty() {
                return None;
            }
            let len = code.len();
            // SAFETY: anonymous private mapping, no fd, no aliasing.
            let ptr = unsafe {
                mmap(
                    core::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANON,
                    -1,
                    0,
                )
            };
            if ptr as isize == -1 || ptr.is_null() {
                return None;
            }
            let ptr = ptr as *mut u8;
            // SAFETY: we own the fresh RW mapping of `len` bytes.
            unsafe { core::ptr::copy_nonoverlapping(code.as_ptr(), ptr, len) };
            // SAFETY: flipping our own mapping to read+exec.
            if unsafe { mprotect(ptr as *mut c_void, len, PROT_READ | PROT_EXEC) } != 0 {
                unsafe { munmap(ptr as *mut c_void, len) };
                return None;
            }
            Some(CodeBuf { ptr, len })
        }

        /// The sealed entry point.
        pub fn entry(&self) -> *const u8 {
            self.ptr
        }

        /// Mapped length in bytes.
        pub fn len(&self) -> usize {
            self.len
        }
    }

    impl Drop for CodeBuf {
        fn drop(&mut self) {
            // SAFETY: unmapping the mapping we created; the module that
            // owns the buffer is the only holder of the entry pointer.
            unsafe { munmap(self.ptr as *mut c_void, self.len) };
        }
    }

    // SAFETY: the mapping is immutable (RX) after construction.
    unsafe impl Send for CodeBuf {}
    // SAFETY: as above — concurrent readers/executors are fine.
    unsafe impl Sync for CodeBuf {}
}

// ---------------------------------------------------------------------
// Module
// ---------------------------------------------------------------------

/// The emitted block entry point: `fn(lanes_in, lanes_out, pool) ->
/// mask`. Bit `l` of the mask is set when a guard flagged lane `l`.
#[cfg(all(unix, target_arch = "x86_64"))]
type BlockFn =
    unsafe extern "C" fn(*const [f64; LANES], *mut [f64; LANES], *const x86::Broadcast) -> u32;

/// A compiled native module for one [`Tape`]: one four-row function in a
/// sealed W^X buffer, plus the constant pool it reads and the
/// pseudo-assembly dump `csfma-run --dump-jit` prints.
#[cfg(all(unix, target_arch = "x86_64"))]
pub struct JitModule {
    buf: mem::CodeBuf,
    /// The guard bounds and the canonicalized tape constants, each
    /// broadcast to every lane. Owned so the module never dangles into a
    /// dropped tape.
    pool: Vec<x86::Broadcast>,
    num_inputs: usize,
    num_outputs: usize,
    native_instrs: usize,
    guards: usize,
    dump: String,
}

#[cfg(all(unix, target_arch = "x86_64"))]
impl JitModule {
    /// Evaluate one block of [`LANES`] rows natively. The buffers are
    /// lane-major: `lanes_in[i][l]` is input `i` of lane `l`'s row, and
    /// `lanes_out[o][l]` receives output `o` of that row. Bit `l` of the
    /// returned mask is set when a guard flagged lane `l`: its outputs
    /// are garbage and the caller must re-evaluate its row on the
    /// interpreter. Every lane whose bit is clear holds outputs
    /// bit-identical to the interpreter's.
    pub(crate) fn run_block(
        &self,
        lanes_in: &[[f64; LANES]],
        lanes_out: &mut [[f64; LANES]],
    ) -> u32 {
        assert_eq!(lanes_in.len(), self.num_inputs, "jit input arity mismatch");
        assert_eq!(
            lanes_out.len(),
            self.num_outputs,
            "jit output arity mismatch"
        );
        // SAFETY: `entry` points at a sealed, immutable function emitted
        // for exactly this tape shape, and a module exists only on a host
        // with AVX (`compile_module` checks `jit_available`). The function
        // reads `num_inputs` entries of `lanes_in` and the whole pool,
        // writes `num_outputs` entries of `lanes_out` and its own stack
        // frame, and nothing else; the asserts above bound both buffers.
        let f: BlockFn = unsafe { std::mem::transmute(self.buf.entry()) };
        unsafe {
            f(
                lanes_in.as_ptr(),
                lanes_out.as_mut_ptr(),
                self.pool.as_ptr(),
            )
        }
    }

    /// Tape instructions lowered to native code.
    pub fn native_instr_count(&self) -> usize {
        self.native_instrs
    }

    /// Bailout guards emitted (load guards + unpromoted result guards).
    pub fn guard_count(&self) -> usize {
        self.guards
    }

    /// Emitted machine-code size in bytes.
    pub fn code_len(&self) -> usize {
        self.buf.len()
    }

    /// The pseudo-assembly dump (`csfma-run --dump-jit`).
    pub fn dump(&self) -> &str {
        &self.dump
    }
}

#[cfg(all(unix, target_arch = "x86_64"))]
impl fmt::Debug for JitModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JitModule")
            .field("native_instrs", &self.native_instrs)
            .field("guards", &self.guards)
            .field("code_len", &self.buf.len())
            .finish()
    }
}

/// Stand-in off x86-64 unix so `Tape` always has the field type; never
/// constructed ([`compile_module`] returns `None`).
#[cfg(not(all(unix, target_arch = "x86_64")))]
#[derive(Debug)]
pub struct JitModule {}

#[cfg(not(all(unix, target_arch = "x86_64")))]
impl JitModule {
    /// Never reachable on this platform.
    pub(crate) fn run_block(&self, _in: &[[f64; LANES]], _out: &mut [[f64; LANES]]) -> u32 {
        (1 << LANES) - 1
    }

    /// Never reachable on this platform.
    pub fn dump(&self) -> &str {
        ""
    }

    /// Never reachable on this platform.
    pub fn native_instr_count(&self) -> usize {
        0
    }

    /// Never reachable on this platform.
    pub fn guard_count(&self) -> usize {
        0
    }

    /// Never reachable on this platform.
    pub fn code_len(&self) -> usize {
        0
    }
}

/// Why a tape cannot be lowered natively (all-rows fallback).
/// Returned by [`jit_refusal`]; `lint_jit` turns it into a J001
/// warning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JitRefusal {
    /// The tape contains fused carry-save instructions
    /// (`Fma`/`IeeeToCs`/`CsToIeee`); bit semantics keep the behavioral
    /// path for them.
    FusedInstrs(usize),
    /// A constant in the pool canonicalizes to NaN — it would flag every
    /// lane of every row, so no row could ever complete natively.
    NanConst,
}

impl fmt::Display for JitRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JitRefusal::FusedInstrs(n) => {
                write!(
                    f,
                    "{n} fused carry-save instruction(s) keep the behavioral path"
                )
            }
            JitRefusal::NanConst => {
                write!(f, "a NaN constant cannot enter the native register file")
            }
        }
    }
}

/// Structural reasons [`compile_module`] refuses, independent of host
/// architecture and environment. `None` means the tape is lowerable
/// (the module may still be absent at runtime if the platform or
/// `CSFMA_JIT` forbids it).
pub fn jit_refusal(tape: &Tape) -> Option<JitRefusal> {
    let fused = tape
        .instrs()
        .iter()
        .filter(|i| {
            matches!(
                i,
                Instr::Fma { .. } | Instr::IeeeToCs { .. } | Instr::CsToIeee { .. }
            )
        })
        .count();
    if fused > 0 {
        return Some(JitRefusal::FusedInstrs(fused));
    }
    if tape.consts_canonical.iter().any(|c| c.is_nan()) {
        return Some(JitRefusal::NanConst);
    }
    None
}

/// J001 lint: warn when a `--backend jit` evaluation of this tape would
/// bail more than half its rows to the interpreter. The static analysis
/// covers the worst case — a tape that refuses to build a module
/// ([`jit_refusal`]) bails 100% of rows by construction.
pub fn lint_jit(tape: &Tape) -> Vec<Diagnostic> {
    match jit_refusal(tape) {
        Some(JitRefusal::FusedInstrs(fused)) => vec![Diagnostic::warning(
            Rule::JitBailoutRate,
            Span::Global,
            format!(
                "every row of a `--backend jit` evaluation would fall back to the \
                 interpreter (100% > the 50% advisory threshold): {fused} fused \
                 carry-save instruction(s) keep the behavioral path"
            ),
        )],
        Some(JitRefusal::NanConst) => vec![Diagnostic::warning(
            Rule::JitBailoutRate,
            Span::Global,
            "every row of a `--backend jit` evaluation would fall back to the \
             interpreter (100% > the 50% advisory threshold): a NaN constant \
             cannot enter the native register file"
                .to_string(),
        )],
        None => Vec::new(),
    }
}

/// Lower `tape` to a native module. `None` when the tape is not
/// lowerable ([`jit_refusal`]), when the host cannot execute emitted
/// code (not x86-64 unix, or no AVX), or when `CSFMA_JIT` disables the
/// JIT. A `None` is never an error: callers fall back to the
/// interpreter, which is always correct.
pub fn compile_module(tape: &Tape, _semantics: JitSemantics) -> Option<JitModule> {
    if !jit_available() || jit_refusal(tape).is_some() {
        return None;
    }
    #[cfg(all(unix, target_arch = "x86_64"))]
    {
        return seal(tape, x86::emit(tape));
    }
    #[allow(unreachable_code)]
    {
        None
    }
}

/// Emitter output: machine code, the constant pool it reads, dump
/// text, native instruction count, guard count.
#[cfg(all(unix, target_arch = "x86_64"))]
struct Emitted {
    code: Vec<u8>,
    pool: Vec<x86::Broadcast>,
    dump: String,
    native_instrs: usize,
    guards: usize,
}

#[cfg(all(unix, target_arch = "x86_64"))]
fn seal(tape: &Tape, e: Emitted) -> Option<JitModule> {
    Some(JitModule {
        buf: mem::CodeBuf::new(&e.code)?,
        pool: e.pool,
        num_inputs: tape.num_inputs(),
        num_outputs: tape.num_outputs(),
        native_instrs: e.native_instrs,
        guards: e.guards,
        dump: e.dump,
    })
}

// ---------------------------------------------------------------------
// x86-64 emitter
// ---------------------------------------------------------------------

#[cfg(all(unix, target_arch = "x86_64"))]
mod x86 {
    //! System-V x86-64 AVX emitter. ABI of the emitted function:
    //! `rdi` = `lanes_in`, `rsi` = `lanes_out`, `rdx` = pool; returns the
    //! bail mask in `eax`. Register plan: tape slots 0..=11 live in
    //! `ymm0`..=`ymm11` and further slots spill to 32-byte frame slots
    //! addressed from `rcx`; `ymm12` is the flag accumulator, `ymm13` and
    //! `ymm14` are guard temporaries and `ymm15` is the working register.
    //! `r11` keeps the caller's `rsp` while the frame is 32-byte aligned.
    //! All of these are caller-saved, so the function saves nothing.
    //!
    //! The three argument pointers and the frame base point [`BIAS`]
    //! bytes past the start of their arrays, so a disp8 operand reaches
    //! the first eight entries of each instead of four.

    use super::{Emitted, LANES};
    use crate::compile::{Instr, Tape};
    use std::fmt::Write as _;

    /// One constant-pool entry: a 64-bit pattern broadcast to every
    /// lane, 32-byte aligned so each packed load from the pool stays
    /// inside one cache line.
    #[derive(Clone, Copy)]
    #[repr(C, align(32))]
    pub(super) struct Broadcast([u64; LANES]);

    /// Pool entries ahead of the tape's constants: the masks and guard
    /// bounds the emitted code reads. Constant `idx` of the tape is pool
    /// entry `POOL_CONSTS + idx`.
    const POOL_ABS: u32 = 0;
    const POOL_SIGN: u32 = 1;
    const POOL_MIN_POSITIVE: u32 = 2;
    const POOL_ZERO: u32 = 3;
    const POOL_CONSTS: u32 = 4;

    /// Slots resident in `ymm` registers; the rest spill.
    const REG_SLOTS: u32 = 12;
    /// The flag accumulator, the guard temporaries, the working register.
    const ACC: u8 = 12;
    const T0: u8 = 13;
    const T1: u8 = 14;
    const WORK: u8 = 15;
    const RCX: u8 = 1;
    const RDX: u8 = 2;
    const RSI: u8 = 6;
    const RDI: u8 = 7;
    /// Bytes per lane-major entry: one f64 per lane.
    const ENTRY: i32 = 8 * LANES as i32;
    const BIAS: i32 = 128;
    /// The stack-probe stride.
    const PAGE: u32 = 4096;

    // VEX.256.66.0F opcodes
    const VMOVUPD_LOAD: u8 = 0x10;
    const VMOVUPD_STORE: u8 = 0x11;
    const VMOVMSKPD: u8 = 0x50;
    const VANDPD: u8 = 0x54;
    const VORPD: u8 = 0x56;
    const VXORPD: u8 = 0x57;
    const VADDPD: u8 = 0x58;
    const VMULPD: u8 = 0x59;
    const VSUBPD: u8 = 0x5C;
    const VDIVPD: u8 = 0x5E;
    const VCMPPD: u8 = 0xC2;

    // vcmppd predicates
    const NEQ_UQ: u8 = 0x04;
    const NGE_US: u8 = 0x09;
    const NGT_US: u8 = 0x0A;

    /// The biased displacement of entry `k` of a lane-major array.
    fn entry(k: u32) -> i32 {
        k as i32 * ENTRY - BIAS
    }

    /// Where a tape register slot lives.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Loc {
        /// A `ymm` register.
        Reg(u8),
        /// A frame slot at `[rcx + disp]`.
        Spill(i32),
    }

    fn loc(slot: u32) -> Loc {
        if slot < REG_SLOTS {
            Loc::Reg(slot as u8)
        } else {
            Loc::Spill(entry(slot - REG_SLOTS))
        }
    }

    /// The r/m operand of a VEX instruction.
    #[derive(Clone, Copy)]
    enum Rm {
        Ymm(u8),
        /// `[base + disp]`, `base` one of the four pointer registers.
        Mem(u8, i32),
    }

    struct Asm {
        code: Vec<u8>,
        guards: usize,
    }

    impl Asm {
        fn put(&mut self, bytes: &[u8]) {
            self.code.extend_from_slice(bytes);
        }

        /// `VEX.256.66.0F op reg, src1, rm`. The two-byte VEX prefix
        /// unless `rm` is `ymm8`..`ymm15`, which needs the three-byte
        /// form's `B` bit. An unused `src1` is 0 (encoded `1111b`).
        fn vex(&mut self, op: u8, reg: u8, src1: u8, rm: Rm) {
            let r = u8::from(reg < 8) << 7;
            let tail = ((!src1 & 0xF) << 3) | 0b101; // L = 256, pp = 66
            match rm {
                Rm::Ymm(x) if x >= 8 => self.put(&[0xC4, r | 0x41, tail]),
                _ => self.put(&[0xC5, r | tail]),
            }
            self.put(&[op]);
            match rm {
                Rm::Ymm(x) => self.put(&[0xC0 | ((reg & 7) << 3) | (x & 7)]),
                Rm::Mem(base, disp) => {
                    debug_assert!(matches!(base, RCX | RDX | RSI | RDI));
                    let modrm = ((reg & 7) << 3) | base;
                    if disp == 0 {
                        self.put(&[modrm]);
                    } else if let Ok(d8) = i8::try_from(disp) {
                        self.put(&[0x40 | modrm, d8 as u8]);
                    } else {
                        self.put(&[0x80 | modrm]);
                        self.put(&disp.to_le_bytes());
                    }
                }
            }
        }

        /// The register holding slot `l` for reading: its own `ymm`, or
        /// the working register after a reload from the frame.
        fn read(&mut self, l: Loc) -> u8 {
            match l {
                Loc::Reg(r) => r,
                Loc::Spill(d) => {
                    self.vex(VMOVUPD_LOAD, WORK, 0, Rm::Mem(RCX, d));
                    WORK
                }
            }
        }

        /// Write the result in `x` (see [`dst`]) back to a spilled slot.
        fn write_back(&mut self, l: Loc, x: u8) {
            if let Loc::Spill(d) = l {
                self.vex(VMOVUPD_STORE, x, 0, Rm::Mem(RCX, d));
            }
        }

        /// OR into the accumulator the lanes of `v` that the guard
        /// flags: NaN, or `0 < |v| <= MIN_POSITIVE` under `NGT_US` (the
        /// interpreter's soft-float fallback window) and
        /// `0 < |v| < MIN_POSITIVE` under `NGE_US` (the values input
        /// canonicalization alters). ±0 and ±∞ pass.
        fn guard(&mut self, v: u8, pred: u8) {
            self.vex(VANDPD, T0, v, Rm::Mem(RDX, entry(POOL_ABS)));
            self.vex(VCMPPD, T0, T0, Rm::Mem(RDX, entry(POOL_MIN_POSITIVE)));
            self.put(&[pred]);
            self.vex(VCMPPD, T1, v, Rm::Mem(RDX, entry(POOL_ZERO)));
            self.put(&[NEQ_UQ]);
            self.vex(VANDPD, T0, T0, Rm::Ymm(T1));
            self.vex(VORPD, ACC, ACC, Rm::Ymm(T0));
            self.guards += 1;
        }
    }

    /// The register an instruction computes slot `l` into: its own
    /// `ymm`, or the working register for a spilled slot.
    fn dst(l: Loc) -> u8 {
        match l {
            Loc::Reg(r) => r,
            Loc::Spill(_) => WORK,
        }
    }

    /// The r/m operand reading slot `l` in place.
    fn rm(l: Loc) -> Rm {
        match l {
            Loc::Reg(r) => Rm::Ymm(r),
            Loc::Spill(d) => Rm::Mem(RCX, d),
        }
    }

    /// Lower `tape` to x86-64 machine code. The caller has checked
    /// [`jit_refusal`](super::jit_refusal): the tape has no fused
    /// instructions and no NaN constants.
    pub(super) fn emit(tape: &Tape) -> Emitted {
        let slots = tape.num_f64_regs() as u32;
        let spill_slots = slots.saturating_sub(REG_SLOTS);
        let frame = spill_slots * ENTRY as u32;

        let mut a = Asm {
            code: Vec::new(),
            guards: 0,
        };
        let mut dump = String::new();
        let _ = writeln!(
            dump,
            "; jit module: x86-64 AVX, {LANES} rows per call, semantics=bit, {} tape \
             instr(s), {slots} slot(s) ({spill_slots} spilled, {frame}-byte frame)",
            tape.instrs().len(),
        );
        let _ = writeln!(
            dump,
            "; abi: fn(lanes_in=rdi, lanes_out=rsi, pool=rdx) -> eax (bit l set = lane l bails)"
        );

        // prologue: aligned spill frame, biased pointers, clear flags
        if frame > 0 {
            a.put(&[0x49, 0x89, 0xE3]); // mov r11, rsp
            a.put(&[0x48, 0x83, 0xE4, 0xE0]); // and rsp, -32

            // touch each page on the way down, so a frame larger than a
            // page reaches the stack's guard page before anything below it
            for _ in 0..frame / PAGE {
                a.put(&[0x48, 0x81, 0xEC]); // sub rsp, PAGE
                a.put(&PAGE.to_le_bytes());
                a.put(&[0x48, 0x83, 0x0C, 0x24, 0x00]); // or qword [rsp], 0
            }
            if !frame.is_multiple_of(PAGE) {
                a.put(&[0x48, 0x81, 0xEC]); // sub rsp, frame % PAGE
                a.put(&(frame % PAGE).to_le_bytes());
            }
            a.put(&[0x48, 0x8D, 0x8C, 0x24]); // lea rcx, [rsp + BIAS]
            a.put(&BIAS.to_le_bytes());
        }
        a.put(&[0x48, 0x83, 0xEF, 0x80]); // sub rdi, -BIAS
        a.put(&[0x48, 0x83, 0xEE, 0x80]); // sub rsi, -BIAS
        a.put(&[0x48, 0x83, 0xEA, 0x80]); // sub rdx, -BIAS
        a.vex(VXORPD, ACC, ACC, Rm::Ymm(ACC));

        let promoted = |i: usize| tape.promoted.get(i).copied().unwrap_or(false);
        let mut native = 0usize;
        for (i, ins) in tape.instrs().iter().enumerate() {
            // straight into the dump: per-instruction `format!` strings
            // cost more than emitting the code
            let _ = write!(dump, "  {i:4}: ");
            match *ins {
                Instr::LoadInput { dst: d, input } => {
                    let x = dst(loc(d));
                    a.vex(VMOVUPD_LOAD, x, 0, Rm::Mem(RDI, entry(input)));
                    a.guard(x, NGE_US);
                    a.write_back(loc(d), x);
                    let _ = writeln!(dump, "r{d} = in[{input}]  ; guard-load");
                }
                Instr::LoadConst { dst: d, idx } => {
                    let x = dst(loc(d));
                    a.vex(VMOVUPD_LOAD, x, 0, Rm::Mem(RDX, entry(POOL_CONSTS + idx)));
                    a.write_back(loc(d), x);
                    let _ = writeln!(dump, "r{d} = consts[{idx}]");
                }
                Instr::Add { dst: d, a: p, b: q }
                | Instr::Sub { dst: d, a: p, b: q }
                | Instr::Mul { dst: d, a: p, b: q }
                | Instr::Div { dst: d, a: p, b: q } => {
                    let (op, sym) = match ins {
                        Instr::Add { .. } => (VADDPD, '+'),
                        Instr::Sub { .. } => (VSUBPD, '-'),
                        Instr::Mul { .. } => (VMULPD, '*'),
                        _ => (VDIVPD, '/'),
                    };
                    let x = a.read(loc(p));
                    let y = dst(loc(d));
                    a.vex(op, y, x, rm(loc(q)));
                    let guard = !promoted(i);
                    if guard {
                        a.guard(y, NGT_US);
                    }
                    a.write_back(loc(d), y);
                    let _ = writeln!(
                        dump,
                        "r{d} = r{p} {sym} r{q}  ; {}",
                        if guard { "guard-result" } else { "promoted" }
                    );
                }
                Instr::Neg { dst: d, a: p } => {
                    let x = a.read(loc(p));
                    let y = dst(loc(d));
                    a.vex(VXORPD, y, x, Rm::Mem(RDX, entry(POOL_SIGN)));
                    a.write_back(loc(d), y);
                    let _ = writeln!(dump, "r{d} = -r{p}");
                }
                Instr::Fma { .. } | Instr::IeeeToCs { .. } | Instr::CsToIeee { .. } => {
                    unreachable!("jit_refusal refuses fused tapes")
                }
                Instr::Store { output, src } => {
                    let x = a.read(loc(src));
                    a.vex(VMOVUPD_STORE, x, 0, Rm::Mem(RSI, entry(output)));
                    let _ = writeln!(dump, "out[{output}] = r{src}");
                }
            }
            native += 1;
        }

        // epilogue: the mask is the accumulator's sign bits
        a.vex(VMOVMSKPD, 0, 0, Rm::Ymm(ACC)); // vmovmskpd eax, ymm12
        if frame > 0 {
            a.put(&[0x4C, 0x89, 0xDC]); // mov rsp, r11
        }
        a.put(&[0xC5, 0xF8, 0x77]); // vzeroupper
        a.put(&[0xC3]); // ret
        let _ = writeln!(
            dump,
            "; {} guard(s), {} byte(s) of code",
            a.guards,
            a.code.len()
        );

        let mut pool = vec![Broadcast([0; LANES]); POOL_CONSTS as usize];
        pool[POOL_ABS as usize] = Broadcast([!(1u64 << 63); LANES]);
        pool[POOL_SIGN as usize] = Broadcast([1u64 << 63; LANES]);
        pool[POOL_MIN_POSITIVE as usize] = Broadcast([f64::MIN_POSITIVE.to_bits(); LANES]);
        let consts = tape.consts_canonical.iter();
        pool.extend(consts.map(|c| Broadcast([c.to_bits(); LANES])));
        Emitted {
            code: a.code,
            pool,
            dump,
            native_instrs: native,
            guards: a.guards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, compile_with, CompileOptions, TapeBackend};
    use crate::parse_program;
    use crate::Profiler;

    fn tape_of(src: &str, optimize: bool) -> Tape {
        let g = parse_program(src).expect("test program parses");
        compile_with(
            &g,
            CompileOptions {
                optimize,
                ..CompileOptions::default()
            },
            &mut Profiler::disabled(),
        )
        .expect("test program compiles")
    }

    /// Run one block whose lane `l` holds `rows[l]`: the mask must be
    /// `want_mask`, and every clean lane must equal the interpreter's row.
    fn assert_clean_lanes_match(tape: &Tape, m: &JitModule, rows: [&[f64]; LANES], want_mask: u32) {
        let lanes_in: Vec<[f64; LANES]> =
            (0..tape.num_inputs()).map(|i| rows.map(|r| r[i])).collect();
        let mut out = vec![[0.0; LANES]; tape.num_outputs()];
        let mask = m.run_block(&lanes_in, &mut out);
        assert_eq!(mask, want_mask, "bail mask");
        for (l, row) in rows.iter().enumerate() {
            if mask & (1 << l) != 0 {
                continue;
            }
            let mut want = vec![0.0f64; tape.num_outputs()];
            tape.eval_row(TapeBackend::BitAccurate, row, &mut want);
            for (o, w) in want.iter().enumerate() {
                assert_eq!(out[o][l].to_bits(), w.to_bits(), "lane {l} output {o}");
            }
        }
    }

    #[test]
    fn ieee_tape_builds_a_module_and_matches_the_interpreter() {
        let tape = tape_of("in a, b, c;\nout y = (a * b + c) / (a - 3.25);\n", true);
        let Some(m) = compile_module(&tape, JitSemantics::Bit) else {
            assert!(!jit_available(), "jit available but module refused");
            return;
        };
        assert!(m.guard_count() > 0, "unpromoted tape must carry guards");
        assert!(m.dump().contains("guard-load"), "{}", m.dump());
        let rows: [&[f64]; LANES] = [
            &[1.0, 2.0, 3.0],
            &[-7.5, 0.125, 1e100],
            &[f64::MAX, 2.0, -1.0],
            &[3.25, 1.0, 1.0], // x / 0 -> +inf, which runs native
        ];
        assert_clean_lanes_match(&tape, &m, rows, 0);
    }

    #[test]
    fn guards_bail_on_nan_and_subnormal_inputs() {
        let tape = tape_of("in a, b;\nout y = a + b;\n", true);
        let Some(m) = compile_module(&tape, JitSemantics::Bit) else {
            return;
        };
        let rows: [&[f64]; LANES] = [&[1.0, 2.0], &[f64::NAN, 1.0], &[0.0, -0.0], &[5e-324, 1.0]];
        assert_clean_lanes_match(&tape, &m, rows, 0b1010);
        // the result window: two tiny normals multiply into the
        // subnormal soft-float fallback region (1e-310; a product below
        // ~4.9e-324 would round clean to zero and rightly not bail)
        let tiny = tape_of("in a, b;\nout y = a * b;\n", true);
        let tm = compile_module(&tiny, JitSemantics::Bit).unwrap();
        let rows: [&[f64]; LANES] = [
            &[1e-200, 1e160],
            &[1e-200, 1e-200],
            &[1e-200, 1e-110],
            &[f64::MIN_POSITIVE, 1.0],
        ];
        assert_clean_lanes_match(&tiny, &tm, rows, 0b1100);
    }

    #[test]
    fn fused_tape_refuses_bit_module_and_lints_j001() {
        use crate::fuse::{fuse_critical_paths, FusionConfig};
        use crate::FmaKind;
        // a single mul+add pair is not length-neutral to fuse; the
        // listing1 chain is, so it reliably produces Fma instructions
        let g = parse_program("x1 = a*b + c*d;\nx2 = e*f + g*x1;\nout x3 = h*i + k*x2;\n").unwrap();
        let fused = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused;
        let tape = compile(&fused).unwrap();
        assert!(matches!(
            jit_refusal(&tape),
            Some(JitRefusal::FusedInstrs(_))
        ));
        assert!(compile_module(&tape, JitSemantics::Bit).is_none());
        let diags = lint_jit(&tape);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::JitBailoutRate);
        assert_eq!(diags[0].rule.id(), "J001");

        // the plain IEEE twin lints clean
        let plain = compile(&g).unwrap();
        assert!(lint_jit(&plain).is_empty());
    }

    #[test]
    fn spilled_slots_evaluate_correctly() {
        // a chain wide enough to overflow the 12-register file, the
        // eight disp8 frame slots and a page of frame (one stack probe)
        let mut src = String::from("in a, b;\n");
        for i in 0..160 {
            src.push_str(&format!("t{i} = a * {}.5 + b;\n", i + 1));
        }
        src.push_str("out y = t0");
        for i in 1..160 {
            src.push_str(&format!(" + t{i}"));
        }
        src.push_str(";\n");
        // optimize: false keeps every intermediate live -> forced spills
        let tape = tape_of(&src, false);
        let Some(m) = compile_module(&tape, JitSemantics::Bit) else {
            return;
        };
        assert!(
            tape.num_f64_regs() > 12 + 4096 / 32,
            "{} slots",
            tape.num_f64_regs()
        );
        let rows: [&[f64]; LANES] = [&[3.5, -1.25], &[0.0, 1.0], &[-2.0, 1e300], &[1e-3, 7.0]];
        assert_clean_lanes_match(&tape, &m, rows, 0);
    }
}
