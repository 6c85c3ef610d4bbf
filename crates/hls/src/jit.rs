//! Dependency-free native code generation for the IEEE fast path.
//!
//! [`compile_module`] lowers a validated [`Tape`] to executable x86-64
//! machine code (SSE2 scalar `movsd`/`addsd`/`mulsd`) in an mmap'd W^X
//! code buffer. The emitted function evaluates **one row** and returns
//! a bail flag; see `docs/JIT.md` for the ABI, the W^X policy and the
//! bailout contract. On any other platform no module is built and the
//! interpreter runs every row.
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
//! * every `LoadInput` is guarded: if canonicalization would alter the
//!   value (NaN or subnormal input) the row bails to the interpreter;
//! * every **unpromoted** arithmetic result is guarded with exactly the
//!   soft-float fallback window of `csfma_softfloat::batch` (NaN, or
//!   nonzero with magnitude ≤ `f64::MIN_POSITIVE`) — the row bails
//!   precisely when the interpreter would have left the hosted fast
//!   path;
//! * instructions promoted by the value-range analysis
//!   ([`Tape::set_promoted`](crate::Tape::set_promoted), DESIGN.md §16)
//!   run guard-free, which is sound because the range proof shows the
//!   guard can never fire.
//!
//! Together these maintain the invariant that no NaN and no nonzero
//! subnormal ever exists in the native register file, so unguarded
//! negation (a raw sign flip) and native ±∞ propagation are exact.
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

/// `2 · f64::MIN_POSITIVE.to_bits()` — the sign-stripped (`bits << 1`)
/// encoding of the smallest normal magnitude. A value `v` with
/// `s = v.to_bits() << 1` is subnormal iff `0 < s < SUB_WINDOW`, and
/// triggers the interpreter's soft-float fallback iff
/// `s != 0 && (s <= SUB_WINDOW || s > INF_WINDOW)`.
const SUB_WINDOW: u64 = 0x0020_0000_0000_0000;
/// `2 · f64::INFINITY.to_bits()` — sign-stripped infinity; anything
/// above is a NaN.
const INF_WINDOW: u64 = 0xFFE0_0000_0000_0000;

/// Which interpreter the emitted code must be bit-identical to. `Bit`
/// is the only mode; the parameter of [`compile_module`] stays only
/// because the benchmark package passes it, and the next change to the
/// benchmark drops it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JitSemantics {
    /// Bit-accurate semantics with per-row bailout guards; the module
    /// backing [`TapeBackend::Jit`](crate::TapeBackend::Jit).
    Bit,
}

/// The emitted per-row entry point: `fn(row, out, consts) -> bail`.
/// Returns 0 when the row completed natively, nonzero when it must be
/// re-evaluated by the interpreter.
type RowFn = unsafe extern "C" fn(*const f64, *mut f64, *const f64) -> u64;

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
/// host on x86-64, with the JIT not disabled by [`jit_env_enabled`].
/// When false, `--backend jit` is pure interpreter fallback (still
/// bit-exact, just not faster).
pub fn jit_available() -> bool {
    cfg!(all(unix, target_arch = "x86_64")) && jit_env_enabled()
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

/// A compiled native module for one [`Tape`]: one per-row function in a
/// sealed W^X buffer, plus the constant pool it reads and the
/// pseudo-assembly dump `csfma-run --dump-jit` prints.
#[cfg(all(unix, target_arch = "x86_64"))]
pub struct JitModule {
    buf: mem::CodeBuf,
    /// The canonicalized constant pool the emitted code indexes. Owned
    /// so the module never dangles into a dropped tape.
    consts: Vec<f64>,
    num_inputs: usize,
    num_outputs: usize,
    native_instrs: usize,
    guards: usize,
    dump: String,
}

#[cfg(all(unix, target_arch = "x86_64"))]
impl JitModule {
    /// Evaluate one row natively. `true` means `out` now holds the
    /// row's outputs, bit-identical to the interpreter; `false` means a
    /// guard fired and the caller must re-evaluate the row on the
    /// interpreter (any partial stores in `out` may be overwritten).
    pub fn run_row(&self, row: &[f64], out: &mut [f64]) -> bool {
        assert_eq!(row.len(), self.num_inputs, "jit row arity mismatch");
        assert_eq!(out.len(), self.num_outputs, "jit output arity mismatch");
        // SAFETY: `entry` points at a sealed, immutable function emitted
        // for exactly this tape shape; the pointers are valid for the
        // asserted lengths and the function writes only `out`.
        let f: RowFn = unsafe { std::mem::transmute(self.buf.entry()) };
        unsafe { f(row.as_ptr(), out.as_mut_ptr(), self.consts.as_ptr()) == 0 }
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
    pub fn run_row(&self, _row: &[f64], _out: &mut [f64]) -> bool {
        false
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
    /// A constant in the pool canonicalizes to NaN — a NaN in the
    /// native register file would break the no-NaN invariant the
    /// guard scheme relies on.
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
/// lowerable ([`jit_refusal`]), when the platform cannot execute emitted
/// code, or when `CSFMA_JIT` disables the JIT. A `None` is never an
/// error: callers fall back to the interpreter, which is always correct.
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

/// Emitter output: machine code, dump text, native instruction count,
/// guard count.
#[cfg(all(unix, target_arch = "x86_64"))]
struct Emitted {
    code: Vec<u8>,
    dump: String,
    native_instrs: usize,
    guards: usize,
}

#[cfg(all(unix, target_arch = "x86_64"))]
fn seal(tape: &Tape, e: Emitted) -> Option<JitModule> {
    Some(JitModule {
        buf: mem::CodeBuf::new(&e.code)?,
        consts: tape.consts_canonical.clone(),
        num_inputs: tape.num_inputs(),
        num_outputs: tape.num_outputs(),
        native_instrs: e.native_instrs,
        guards: e.guards,
        dump: e.dump,
    })
}

/// Where a tape register slot lives in the native frame.
#[cfg(all(unix, target_arch = "x86_64"))]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    /// A hardware FP register (xmm*N*).
    Reg(u8),
    /// A stack spill at `[sp + byte_offset]`.
    Spill(u32),
}

// ---------------------------------------------------------------------
// x86-64 emitter
// ---------------------------------------------------------------------

#[cfg(all(unix, target_arch = "x86_64"))]
mod x86 {
    //! System-V x86-64 emitter. ABI of the emitted function:
    //! `rdi` = row pointer, `rsi` = out pointer, `rdx` = consts pointer;
    //! returns `rax` (0 = ok, 1 = bail). Register plan: tape slots
    //! 0..=12 live in `xmm0`..=`xmm12`, further slots spill to the
    //! stack frame; `xmm14` holds the sign mask, `xmm15` is the working
    //! register every result passes through. `r10`/`r11` hold the guard
    //! window constants and `rax` is the guard scratch. All of these are
    //! caller-saved, so the function needs no save/restore beyond its
    //! `rsp` frame.

    use super::{Emitted, Loc, INF_WINDOW, SUB_WINDOW};
    use crate::compile::{Instr, Tape};
    use std::fmt::Write as _;

    /// Slots resident in xmm registers; the rest spill.
    const REG_SLOTS: u32 = 13;
    const RDI: u8 = 7;
    const RSI: u8 = 6;
    const RDX: u8 = 2;
    const RSP: u8 = 4;

    struct Asm {
        code: Vec<u8>,
        dump: String,
        bail_fixups: Vec<usize>,
        guards: usize,
    }

    impl Asm {
        fn put(&mut self, bytes: &[u8]) {
            self.code.extend_from_slice(bytes);
        }

        /// `modrm(mod=10, reg, rm=base) disp32`, with the SIB byte rsp
        /// addressing requires.
        fn mem(&mut self, reg: u8, base: u8, disp: u32) {
            self.put(&[0x80 | ((reg & 7) << 3) | (base & 7)]);
            if base & 7 == RSP {
                self.put(&[0x24]);
            }
            self.put(&disp.to_le_bytes());
        }

        /// SSE op with a memory operand: `prefix [REX] 0F op reg, [base+disp]`.
        fn sse_mem(&mut self, prefix: u8, op: u8, reg: u8, base: u8, disp: u32) {
            self.put(&[prefix]);
            if reg >= 8 {
                self.put(&[0x44]); // REX.R
            }
            self.put(&[0x0F, op]);
            self.mem(reg, base, disp);
        }

        /// SSE op, register-register: `prefix [REX] 0F op reg, rm`.
        fn sse_rr(&mut self, prefix: u8, op: u8, reg: u8, rm: u8) {
            self.put(&[prefix]);
            let rex = 0x40 | (u8::from(reg >= 8) << 2) | u8::from(rm >= 8);
            if rex != 0x40 {
                self.put(&[rex]);
            }
            self.put(&[0x0F, op, 0xC0 | ((reg & 7) << 3) | (rm & 7)]);
        }

        /// Copy a slot's value into xmm register `x`.
        fn load_slot(&mut self, x: u8, loc: Loc) {
            match loc {
                Loc::Reg(r) if r == x => {}
                Loc::Reg(r) => self.sse_rr(0x66, 0x28, x, r), // movapd x, r
                Loc::Spill(off) => self.sse_mem(0xF2, 0x10, x, RSP, off), // movsd
            }
        }

        /// Copy xmm register `x` into a slot.
        fn store_slot(&mut self, x: u8, loc: Loc) {
            match loc {
                Loc::Reg(r) if r == x => {}
                Loc::Reg(r) => self.sse_rr(0x66, 0x28, r, x),
                Loc::Spill(off) => self.sse_mem(0xF2, 0x11, x, RSP, off),
            }
        }

        /// Arithmetic `op xmm15, <slot>` (addsd/subsd/mulsd/divsd).
        fn arith15(&mut self, op: u8, b: Loc) {
            match b {
                Loc::Reg(r) => self.sse_rr(0xF2, op, 15, r),
                Loc::Spill(off) => self.sse_mem(0xF2, op, 15, RSP, off),
            }
        }

        /// `xorpd xmm15, xmm14` — flip the sign bit.
        fn flip_sign15(&mut self) {
            self.put(&[0x66, 0x45, 0x0F, 0x57, 0xFE]);
        }

        /// Record a 4-byte rel32 to be patched to the bail label.
        fn bail_rel32(&mut self) {
            self.bail_fixups.push(self.code.len());
            self.put(&[0, 0, 0, 0]);
        }

        /// Emit a bailout guard over the value in `xmm15`.
        ///
        /// Computes `s = value_bits << 1` and bails when
        /// `s != 0 && (s <cmp> SUB_WINDOW || s > INF_WINDOW)` where
        /// `<cmp>` is `<` for the load window (canonicalize would alter
        /// the value: subnormal or NaN) and `<=` for the result window
        /// (the interpreter's exact soft-float fallback predicate).
        fn guard15(&mut self, result_window: bool) {
            self.put(&[0x66, 0x4C, 0x0F, 0x7E, 0xF8]); // movq rax, xmm15
            self.put(&[0x48, 0x01, 0xC0]); // add rax, rax
            self.put(&[0x48, 0x85, 0xC0]); // test rax, rax
            self.put(&[0x74, 18]); // je past both compare/branch pairs
            self.put(&[0x4C, 0x39, 0xD0]); // cmp rax, r10
            self.put(&[0x0F, if result_window { 0x86 } else { 0x82 }]); // jbe/jb bail
            self.bail_rel32();
            self.put(&[0x4C, 0x39, 0xD8]); // cmp rax, r11
            self.put(&[0x0F, 0x87]); // ja bail
            self.bail_rel32();
            self.guards += 1;
        }
    }

    /// Lower `tape` to x86-64 machine code. The caller has checked
    /// [`jit_refusal`](super::jit_refusal): the tape has no fused
    /// instructions and no NaN constants.
    pub(super) fn emit(tape: &Tape) -> Emitted {
        let slots = tape.num_f64_regs() as u32;
        let spill_slots = slots.saturating_sub(REG_SLOTS);
        let frame = (spill_slots * 8).div_ceil(16) * 16;
        let f_loc = |r: u32| -> Loc {
            if r < REG_SLOTS {
                Loc::Reg(r as u8)
            } else {
                Loc::Spill((r - REG_SLOTS) * 8)
            }
        };

        let mut a = Asm {
            code: Vec::new(),
            dump: String::new(),
            bail_fixups: Vec::new(),
            guards: 0,
        };
        let _ = writeln!(
            a.dump,
            "; jit module: x86-64, semantics=bit, {} tape instr(s), \
             {slots} slot(s) ({} spilled, {frame}-byte frame)",
            tape.instrs().len(),
            spill_slots,
        );
        let _ = writeln!(
            a.dump,
            "; abi: fn(row=rdi, out=rsi, consts=rdx) -> rax (0=ok, 1=bail)"
        );

        // prologue: frame, guard windows, sign mask
        if frame > 0 {
            a.put(&[0x48, 0x81, 0xEC]); // sub rsp, imm32
            a.put(&frame.to_le_bytes());
        }
        a.put(&[0x49, 0xBA]); // mov r10, SUB_WINDOW
        a.put(&SUB_WINDOW.to_le_bytes());
        a.put(&[0x49, 0xBB]); // mov r11, INF_WINDOW
        a.put(&INF_WINDOW.to_le_bytes());
        a.put(&[0x48, 0xB8]); // mov rax, sign mask
        a.put(&0x8000_0000_0000_0000u64.to_le_bytes());
        a.put(&[0x66, 0x4C, 0x0F, 0x6E, 0xF0]); // movq xmm14, rax

        let promoted = |i: usize| tape.promoted.get(i).copied().unwrap_or(false);
        let mut native = 0usize;
        for (i, ins) in tape.instrs().iter().enumerate() {
            let note = match *ins {
                Instr::LoadInput { dst, input } => {
                    a.sse_mem(0xF2, 0x10, 15, RDI, input * 8);
                    a.guard15(false);
                    a.store_slot(15, f_loc(dst));
                    format!("r{dst} = row[{input}]  ; guard-load")
                }
                Instr::LoadConst { dst, idx } => {
                    a.sse_mem(0xF2, 0x10, 15, RDX, idx * 8);
                    a.store_slot(15, f_loc(dst));
                    format!("r{dst} = consts[{idx}]")
                }
                Instr::Add { dst, a: x, b }
                | Instr::Sub { dst, a: x, b }
                | Instr::Mul { dst, a: x, b }
                | Instr::Div { dst, a: x, b } => {
                    let (op, sym) = match ins {
                        Instr::Add { .. } => (0x58, '+'),
                        Instr::Sub { .. } => (0x5C, '-'),
                        Instr::Mul { .. } => (0x59, '*'),
                        _ => (0x5E, '/'),
                    };
                    a.load_slot(15, f_loc(x));
                    a.arith15(op, f_loc(b));
                    let guard = !promoted(i);
                    if guard {
                        a.guard15(true);
                    }
                    a.store_slot(15, f_loc(dst));
                    format!(
                        "r{dst} = r{x} {sym} r{b}  ; {}",
                        if guard { "guard-result" } else { "promoted" }
                    )
                }
                Instr::Neg { dst, a: x } => {
                    a.load_slot(15, f_loc(x));
                    a.flip_sign15();
                    a.store_slot(15, f_loc(dst));
                    format!("r{dst} = -r{x}")
                }
                Instr::Fma { .. } | Instr::IeeeToCs { .. } | Instr::CsToIeee { .. } => {
                    unreachable!("jit_refusal refuses fused tapes")
                }
                Instr::Store { output, src } => {
                    match f_loc(src) {
                        Loc::Reg(r) => a.sse_mem(0xF2, 0x11, r, RSI, output * 8),
                        Loc::Spill(_) => {
                            a.load_slot(15, f_loc(src));
                            a.sse_mem(0xF2, 0x11, 15, RSI, output * 8);
                        }
                    }
                    format!("out[{output}] = r{src}")
                }
            };
            native += 1;
            let _ = writeln!(a.dump, "  {i:4}: {note}");
        }

        // ok epilogue
        a.put(&[0x31, 0xC0]); // xor eax, eax
        if frame > 0 {
            a.put(&[0x48, 0x81, 0xC4]); // add rsp, imm32
            a.put(&frame.to_le_bytes());
        }
        a.put(&[0xC3]); // ret

        // bail epilogue + fixups
        let bail = a.code.len();
        a.put(&[0xB8, 1, 0, 0, 0]); // mov eax, 1
        if frame > 0 {
            a.put(&[0x48, 0x81, 0xC4]);
            a.put(&frame.to_le_bytes());
        }
        a.put(&[0xC3]);
        for fix in std::mem::take(&mut a.bail_fixups) {
            let rel = (bail as i64 - (fix as i64 + 4)) as i32;
            a.code[fix..fix + 4].copy_from_slice(&rel.to_le_bytes());
        }
        let _ = writeln!(
            a.dump,
            "; {} guard(s), {} byte(s) of code",
            a.guards,
            a.code.len()
        );

        Emitted {
            code: a.code,
            dump: a.dump,
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

    #[test]
    fn ieee_tape_builds_a_module_and_matches_the_interpreter() {
        let tape = tape_of("in a, b, c;\nout y = (a * b + c) / (a - 3.25);\n", true);
        let Some(m) = compile_module(&tape, JitSemantics::Bit) else {
            assert!(!jit_available(), "jit available but module refused");
            return;
        };
        assert!(m.guard_count() > 0, "unpromoted tape must carry guards");
        assert!(m.dump().contains("guard-load"), "{}", m.dump());
        for row in [[1.0, 2.0, 3.0], [-7.5, 0.125, 1e100], [f64::MAX, 2.0, -1.0]] {
            let mut want = [0.0f64];
            tape.eval_row(TapeBackend::BitAccurate, &row, &mut want);
            let mut got = [0.0f64];
            assert!(m.run_row(&row, &mut got), "ordinary row must not bail");
            assert_eq!(got[0].to_bits(), want[0].to_bits());
        }
    }

    #[test]
    fn guards_bail_on_nan_and_subnormal_inputs() {
        let tape = tape_of("in a, b;\nout y = a + b;\n", true);
        let Some(m) = compile_module(&tape, JitSemantics::Bit) else {
            return;
        };
        let mut out = [0.0f64];
        assert!(
            !m.run_row(&[f64::NAN, 1.0], &mut out),
            "NaN input must bail"
        );
        assert!(
            !m.run_row(&[5e-324, 1.0], &mut out),
            "subnormal input must bail"
        );
        // the result window: two tiny normals multiply into the
        // subnormal soft-float fallback region (1e-310; a product below
        // ~4.9e-324 would round clean to zero and rightly not bail)
        let tiny = tape_of("in a, b;\nout y = a * b;\n", true);
        let tm = compile_module(&tiny, JitSemantics::Bit).unwrap();
        assert!(
            !tm.run_row(&[1e-200, 1e-110], &mut out),
            "subnormal-producing row must bail"
        );
        assert!(
            tm.run_row(&[1e-200, 1e160], &mut out),
            "normal-producing row must not bail"
        );
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
        // a chain wide enough to overflow the 13-register file
        let mut src = String::from("in a, b;\n");
        for i in 0..24 {
            src.push_str(&format!("t{i} = a * {}.5 + b;\n", i + 1));
        }
        src.push_str("out y = t0");
        for i in 1..24 {
            src.push_str(&format!(" + t{i}"));
        }
        src.push_str(";\n");
        // optimize: false keeps every intermediate live -> forced spills
        let tape = tape_of(&src, false);
        let Some(m) = compile_module(&tape, JitSemantics::Bit) else {
            return;
        };
        let row = [3.5, -1.25];
        let mut want = [0.0f64];
        tape.eval_row(TapeBackend::BitAccurate, &row, &mut want);
        let mut got = [0.0f64];
        assert!(m.run_row(&row, &mut got));
        assert_eq!(got[0].to_bits(), want[0].to_bits());
    }
}
