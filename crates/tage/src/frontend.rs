//! The front-end target-prediction complex: BTB + return-address stack +
//! ITTAGE, composed the way Table II's core uses them.
//!
//! Direction prediction is handled elsewhere (TAGE-SC-L / LLBP); this
//! module answers a different question per retired branch: *would the
//! front-end have redirected late* — a BTB miss on a taken branch, a
//! return-stack mismatch, or an indirect-target misprediction? Each such
//! event is a pipeline reset, and pipeline resets are what squash LLBP's
//! context prefetches (§VI).

use crate::btb::Btb;
use crate::ittage::Ittage;
use crate::ras::ReturnAddressStack;
use llbp_trace::{BranchKind, BranchRecord};

/// Why the front-end reset, when it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResetReason {
    /// A taken branch missed in the BTB.
    BtbMiss,
    /// A return popped the wrong address (or underflowed).
    RasMismatch,
    /// An indirect call/jump target was mispredicted.
    IndirectTarget,
}

/// Aggregate front-end statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontEndStats {
    /// Branches observed.
    pub branches: u64,
    /// Resets due to BTB misses on taken branches.
    pub btb_resets: u64,
    /// Resets due to return-address mismatches.
    pub ras_resets: u64,
    /// Resets due to indirect-target mispredictions.
    pub indirect_resets: u64,
}

impl FrontEndStats {
    /// Total resets of any kind.
    #[must_use]
    pub fn total_resets(&self) -> u64 {
        self.btb_resets + self.ras_resets + self.indirect_resets
    }

    /// Resets per kilo-branch.
    #[must_use]
    pub fn resets_per_kilo_branch(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.total_resets() as f64 * 1000.0 / self.branches as f64
        }
    }
}

/// The composed front-end model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontEnd {
    btb: Btb,
    ras: ReturnAddressStack,
    ittage: Ittage,
    stats: FrontEndStats,
}

impl FrontEnd {
    /// Creates the Table II front-end: 16K-entry 8-way BTB, 32-deep RAS,
    /// default ITTAGE.
    #[must_use]
    pub fn new() -> Self {
        Self {
            btb: Btb::table2(),
            ras: ReturnAddressStack::new(32),
            ittage: Ittage::new(),
            stats: FrontEndStats::default(),
        }
    }

    /// Empties the BTB, the RAS and ITTAGE and zeroes every count: the
    /// state [`FrontEnd::new`] leaves, in the same storage.
    pub fn reset(&mut self) {
        self.btb.reset();
        self.ras.reset();
        self.ittage.reset();
        self.stats = FrontEndStats::default();
    }

    /// Observes one retired branch; returns the reset reason if the
    /// front-end would have redirected late on it.
    pub fn observe(&mut self, record: &BranchRecord) -> Option<ResetReason> {
        self.stats.branches += 1;
        let reset = match record.kind() {
            BranchKind::Conditional => {
                if record.taken() {
                    let hit = self.btb.lookup_and_update(record.pc(), record.target());
                    (!hit).then_some(ResetReason::BtbMiss)
                } else {
                    None
                }
            }
            BranchKind::DirectJump | BranchKind::DirectCall => {
                let hit = self.btb.lookup_and_update(record.pc(), record.target());
                if record.kind() == BranchKind::DirectCall {
                    self.ras.push(record.pc() + 4);
                }
                (!hit).then_some(ResetReason::BtbMiss)
            }
            BranchKind::IndirectJump | BranchKind::IndirectCall => {
                let lookup = self.ittage.lookup(record.pc());
                let correct = self.ittage.update(&lookup, record.target());
                if record.kind() == BranchKind::IndirectCall {
                    self.ras.push(record.pc() + 4);
                }
                (!correct).then_some(ResetReason::IndirectTarget)
            }
            BranchKind::Return => {
                let correct = self.ras.pop_and_check(record.target());
                (!correct).then_some(ResetReason::RasMismatch)
            }
        };
        // Control-flow redirections feed ITTAGE's path history.
        if record.taken() {
            self.ittage.update_history(record.pc());
        }
        match reset {
            Some(ResetReason::BtbMiss) => self.stats.btb_resets += 1,
            Some(ResetReason::RasMismatch) => self.stats.ras_resets += 1,
            Some(ResetReason::IndirectTarget) => self.stats.indirect_resets += 1,
            None => {}
        }
        reset
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> &FrontEndStats {
        &self.stats
    }

    /// The indirect-target predictor (for probes).
    #[must_use]
    pub fn ittage(&self) -> &Ittage {
        &self.ittage
    }

    /// The branch target buffer (for probes).
    #[must_use]
    pub fn btb(&self) -> &Btb {
        &self.btb
    }
}

impl Default for FrontEnd {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(pc: u64, target: u64) -> BranchRecord {
        BranchRecord::unconditional(pc, target, BranchKind::DirectCall, 2)
    }

    fn ret(pc: u64, target: u64) -> BranchRecord {
        BranchRecord::unconditional(pc, target, BranchKind::Return, 2)
    }

    #[test]
    fn matched_call_return_does_not_reset() {
        let mut fe = FrontEnd::new();
        // Warm the BTB for the call site.
        fe.observe(&call(0x100, 0x2000));
        assert_eq!(fe.observe(&call(0x100, 0x2000)), None);
        assert_eq!(fe.observe(&ret(0x2040, 0x104)), None, "RAS should predict the return");
    }

    #[test]
    fn cold_taken_branch_resets_via_btb() {
        let mut fe = FrontEnd::new();
        let r = BranchRecord::conditional(0x300, 0x400, true, 1);
        assert_eq!(fe.observe(&r), Some(ResetReason::BtbMiss));
        assert_eq!(fe.observe(&r), None, "warm BTB hit");
    }

    #[test]
    fn not_taken_branches_never_touch_the_btb() {
        let mut fe = FrontEnd::new();
        let r = BranchRecord::conditional(0x300, 0x400, false, 1);
        assert_eq!(fe.observe(&r), None);
        assert_eq!(fe.btb().lookups(), 0);
    }

    #[test]
    fn stable_indirect_target_stops_resetting() {
        let mut fe = FrontEnd::new();
        let r = BranchRecord::unconditional(0x500, 0x9000, BranchKind::IndirectCall, 1);
        let first = fe.observe(&r);
        assert_eq!(first, Some(ResetReason::IndirectTarget), "cold indirect resets");
        let mut later_resets = 0;
        for _ in 0..50 {
            if fe.observe(&r).is_some() {
                later_resets += 1;
            }
        }
        assert!(later_resets <= 1, "monomorphic site should stabilise");
    }

    #[test]
    fn mismatched_return_resets() {
        let mut fe = FrontEnd::new();
        fe.observe(&call(0x100, 0x2000));
        assert_eq!(fe.observe(&ret(0x2040, 0xBAD)), Some(ResetReason::RasMismatch));
    }

    #[test]
    fn reset_restores_a_fresh_front_end() {
        let mut fe = FrontEnd::new();
        for i in 0..500u64 {
            fe.observe(&call(0x100 + i % 7 * 16, 0x2000));
            fe.observe(&BranchRecord::unconditional(
                0x500,
                0x9000 + i % 3,
                BranchKind::IndirectCall,
                1,
            ));
            fe.observe(&ret(0x2040, 0x104 + i % 5 * 16));
        }
        fe.reset();
        assert_eq!(fe, FrontEnd::new());
    }

    #[test]
    fn stats_sum_by_reason() {
        let mut fe = FrontEnd::new();
        fe.observe(&BranchRecord::conditional(0x300, 0x400, true, 1)); // BTB miss
        fe.observe(&ret(0x900, 0x111)); // RAS underflow
        let s = fe.stats();
        assert_eq!(s.btb_resets, 1);
        assert_eq!(s.ras_resets, 1);
        assert_eq!(s.total_resets(), 2);
        assert_eq!(s.branches, 2);
    }
}
