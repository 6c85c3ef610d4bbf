//! Fault-injection primitives shared by every layer of the datapath.
//!
//! The robustness story (DESIGN.md §10) needs three small vocabulary
//! types that both the arithmetic crates (`csfma-units`, `csfma-core`)
//! and the execution engine (`csfma-hls`) agree on, without creating a
//! dependency cycle — so they live here, one level above `csfma-bits`:
//!
//! * [`FaultSite`] — the named places a single-event upset can strike;
//! * [`FaultHook`] — the injection interface the datapath consults at
//!   each site (a no-op outside fault campaigns);
//! * [`FaultDetected`] / [`CheckKind`] — the structured finding a
//!   self-checking evaluation reports instead of a silently wrong bit
//!   pattern.
//!
//! The seeded [`FaultPlan`](../../csfma_core/fault/struct.FaultPlan.html)
//! that drives campaigns lives in `csfma-core::fault`, which re-exports
//! everything here.

use csfma_bits::Bits;
use std::fmt;

/// A named place in the datapath where a fault can be injected. The
/// taxonomy follows the FMA pipeline order (Figs. 9/11) plus the batch
/// engine's register planes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Sum word of the multiplier's carry-save product (CSA tree output).
    MulSum,
    /// Carry word of the multiplier's carry-save product.
    MulCarry,
    /// Explicit carry lanes of the PCS number after Carry Reduce.
    PcsCarry,
    /// Skip index chosen by the block-granular normalizer (mux select).
    BlockSelect,
    /// The 12-bit excess-2047 result exponent field.
    ExpField,
    /// A register plane of the batch executor's tape scratch.
    TapeReg,
    /// A worker panic while evaluating a chunk (models a crashed lane).
    ExecPanic,
    /// A word of the bit-plane kernel's CSA product (the plane analogue
    /// of [`FaultSite::MulSum`]: one plane word holds one product bit of
    /// all 64 lanes, so a strike flips one lane's bit of one plane).
    PlaneCsaWord,
    /// An output word of the plane kernel's 64×64 B-significand
    /// transpose — a flipped bit feeds a wrong multiplier row mask to
    /// every level of the Wallace tree for the struck lane.
    TransposeOut,
    /// A block-classify mask word of the plane normalizer (Fig. 10): a
    /// flipped all-zero bit derails the struck lane's skip chain.
    PlaneClassifyMask,
}

impl FaultSite {
    /// Stable lower-case name (campaign JSON keys, CLI output).
    pub fn name(&self) -> &'static str {
        match self {
            FaultSite::MulSum => "mul-sum",
            FaultSite::MulCarry => "mul-carry",
            FaultSite::PcsCarry => "pcs-carry",
            FaultSite::BlockSelect => "block-select",
            FaultSite::ExpField => "exp-field",
            FaultSite::TapeReg => "tape-reg",
            FaultSite::ExecPanic => "exec-panic",
            FaultSite::PlaneCsaWord => "plane-csa-word",
            FaultSite::TransposeOut => "transpose-out",
            FaultSite::PlaneClassifyMask => "plane-classify-mask",
        }
    }

    /// Every site, in pipeline order (scalar datapath, executor, then
    /// the bit-plane kernel's stages).
    pub const ALL: [FaultSite; 10] = [
        FaultSite::MulSum,
        FaultSite::MulCarry,
        FaultSite::PcsCarry,
        FaultSite::BlockSelect,
        FaultSite::ExpField,
        FaultSite::TapeReg,
        FaultSite::ExecPanic,
        FaultSite::PlaneCsaWord,
        FaultSite::TransposeOut,
        FaultSite::PlaneClassifyMask,
    ];

    /// The bit-plane kernel's fault populations. Invisible to the
    /// scalar residue checks (the plane kernel runs none); the robust
    /// executor covers them with its scalar differential oracle instead.
    pub const PLANE: [FaultSite; 3] = [
        FaultSite::PlaneCsaWord,
        FaultSite::TransposeOut,
        FaultSite::PlaneClassifyMask,
    ];

    /// The mantissa-datapath sites the residue/recompute checkers cover
    /// (the campaign's zero-silent-corruption gate runs over these).
    pub const MANTISSA: [FaultSite; 4] = [
        FaultSite::MulSum,
        FaultSite::MulCarry,
        FaultSite::PcsCarry,
        FaultSite::BlockSelect,
    ];
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which checker flagged a mismatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// Mod-3 residue of the multiplier product vs the prediction from
    /// its inputs (exact — the product contract has no truncation).
    MulResidue,
    /// Mod-3 residue of the compressed window vs the wrapping sum of the
    /// rows that fed it (exact mod `2^w` on both sides).
    WindowResidue,
    /// Recompute-and-compare guard over the Carry Reduce step.
    CarryReduce,
    /// Recompute-and-compare guard over the normalizer's block select.
    BlockSelect,
    /// Duplicate computation of the result exponent field.
    ExponentPath,
    /// The robust executor's scalar-vs-plane differential: the bit-plane
    /// kernel's output for a lane disagreed with the scalar engine's.
    PlaneDifferential,
}

impl CheckKind {
    /// Stable lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            CheckKind::MulResidue => "mul-residue",
            CheckKind::WindowResidue => "window-residue",
            CheckKind::CarryReduce => "carry-reduce",
            CheckKind::BlockSelect => "block-select",
            CheckKind::ExponentPath => "exponent-path",
            CheckKind::PlaneDifferential => "plane-differential",
        }
    }
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured checker finding: some check's prediction disagreed with
/// the datapath — the value flowing onward cannot be trusted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultDetected {
    /// Which checker fired.
    pub check: CheckKind,
    /// Specifics (the residues / fields that disagreed).
    pub message: String,
}

impl fmt::Display for FaultDetected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault detected by {} check: {}",
            self.check, self.message
        )
    }
}

/// The injection interface the datapath consults at each [`FaultSite`].
///
/// Implementations decide per call whether to strike (a transient SEU
/// fires once; a stuck-at fault fires every time) and must be cheap when
/// idle: the hook is consulted once per site per evaluation. All methods
/// take `&self` — one hook may be shared across the lanes of a chunk.
pub trait FaultHook {
    /// Flip bits of a datapath word at `site` (multiplier words, PCS
    /// carry lanes gathered into a dense word, …). A no-op when the hook
    /// has no armed fault for the site.
    fn tamper_bits(&self, site: FaultSite, word: &mut Bits);

    /// Corrupt a small control index (block-mux select, exponent field)
    /// at `site`, keeping it inside `0..modulus`.
    fn tamper_index(&self, site: FaultSite, index: &mut u64, modulus: u64);

    /// True when an [`FaultSite::ExecPanic`] fault should strike this
    /// evaluation. The call claims the fault (a transient fires once).
    fn wants_panic(&self) -> bool {
        false
    }

    /// An armed [`FaultSite::TapeReg`] fault: returns the instruction
    /// index (`< n_instrs`) after which to flip a destination-plane bit,
    /// and the raw bit position to flip. The call claims the fault.
    fn tape_fault(&self, n_instrs: usize) -> Option<(usize, u32)> {
        let _ = n_instrs;
        None
    }
}

impl crate::pcs::PcsNumber {
    /// Fault-injection support: expose the explicit carry lanes (the
    /// only legal carry positions — nonzero multiples of the spacing) as
    /// a dense word, let `hook` tamper it, and scatter the result back.
    /// Going through the dense view keeps the type's carry-position
    /// invariant no matter what the hook flips.
    pub fn tamper_carry_lanes(&mut self, site: FaultSite, hook: &dyn FaultHook) {
        let n = self.carry_storage_bits();
        if n == 0 {
            return;
        }
        let mut lanes = Bits::zero(n);
        for i in 0..n {
            lanes.set_bit(i, self.carry().bit((i + 1) * self.spacing()));
        }
        hook.tamper_bits(site, &mut lanes);
        let mut carry = Bits::zero(self.width());
        for i in 0..n {
            carry.set_bit((i + 1) * self.spacing(), lanes.bit(i));
        }
        self.set_carry_lanes(carry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_and_check_names_are_unique() {
        let mut names: Vec<_> = FaultSite::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FaultSite::ALL.len());
        let checks = [
            CheckKind::MulResidue,
            CheckKind::WindowResidue,
            CheckKind::CarryReduce,
            CheckKind::BlockSelect,
            CheckKind::ExponentPath,
            CheckKind::PlaneDifferential,
        ];
        let mut cn: Vec<_> = checks.iter().map(|c| c.name()).collect();
        cn.sort_unstable();
        cn.dedup();
        assert_eq!(cn.len(), checks.len());
    }

    #[test]
    fn pcs_lane_tamper_keeps_the_carry_invariant() {
        use crate::{CsNumber, PcsNumber};

        struct FlipLane(usize);
        impl FaultHook for FlipLane {
            fn tamper_bits(&self, _site: FaultSite, word: &mut Bits) {
                let pos = self.0 % word.width();
                word.set_bit(pos, !word.bit(pos));
            }
            fn tamper_index(&self, _site: FaultSite, _index: &mut u64, _modulus: u64) {}
        }

        let cs = CsNumber::new(Bits::ones(33), Bits::from_u64(33, 0b1010));
        let mut p = PcsNumber::reduce_from(&cs, 11);
        let before = p.resolve();
        p.tamper_carry_lanes(FaultSite::PcsCarry, &FlipLane(1));
        // flipping lane 1 toggles the carry bit at position 22
        assert_ne!(p.resolve(), before);
        // re-validating through the panicking constructor must succeed
        let _ = PcsNumber::new(p.sum().clone(), p.carry().clone(), 11);
    }
}
