//! The Rolling Context Register (RCR).
//!
//! A shift register of the most recently executed unconditional-branch PCs
//! (§V-A). Two context IDs are derived from it (Fig. 8):
//!
//! * the **current context ID (CCID)**, hashed over the window `W` while
//!   *excluding* the `D` most recent branches, indexes the pattern buffer
//!   for predictions;
//! * the **prefetch CID**, hashed over the most recent `W` branches, is
//!   the context that will become current after `D` more unconditional
//!   branches — looking it up in the context directory `D` branches early
//!   is what hides the LLBP access latency.
//!
//! The hash shifts each PC by twice its position before XOR-ing (§V-E3) so
//! repeated addresses (tight loops) do not cancel out.

use bputil::hash::fold_to_bits;
use llbp_trace::BranchRecord;

use crate::params::ContextHistoryKind;

/// A checkpoint of the RCR, for misprediction rollback (§V-E2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RcrCheckpoint {
    pcs: Vec<u64>,
}

/// The rolling context register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollingContextRegister {
    /// Most recent PC first.
    pcs: Vec<u64>,
    window: usize,
    distance: usize,
    cid_bits: u32,
    kind: ContextHistoryKind,
    /// Both CIDs, rehashed whenever `pcs` changes: a context is read on
    /// every prediction but changes only on observed branches.
    current: u64,
    prefetch: u64,
}

impl RollingContextRegister {
    /// Creates an RCR hashing `window` branches, excluding the `distance`
    /// most recent from the current CID, folding to `cid_bits`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `cid_bits` is not in `1..=63`.
    #[must_use]
    pub fn new(window: usize, distance: usize, cid_bits: u32, kind: ContextHistoryKind) -> Self {
        Self::recycle(None, window, distance, cid_bits, kind)
    }

    /// [`RollingContextRegister::new`] in `spare`'s storage when it holds
    /// as many PCs (`window + distance`); otherwise in a new allocation.
    ///
    /// # Panics
    ///
    /// As [`RollingContextRegister::new`].
    #[must_use]
    pub fn recycle(
        spare: Option<Self>,
        window: usize,
        distance: usize,
        cid_bits: u32,
        kind: ContextHistoryKind,
    ) -> Self {
        assert!(window > 0, "window must be non-zero");
        assert!((1..=63).contains(&cid_bits), "cid_bits out of range");
        let pcs = match spare {
            Some(Self { mut pcs, .. }) if pcs.len() == window + distance => {
                pcs.fill(0);
                pcs
            }
            _ => vec![0; window + distance],
        };
        let mut rcr = Self { pcs, window, distance, cid_bits, kind, current: 0, prefetch: 0 };
        rcr.rehash();
        rcr
    }

    /// Whether `record` participates in the context history under this
    /// register's [`ContextHistoryKind`].
    #[must_use]
    pub fn observes(&self, record: &BranchRecord) -> bool {
        match self.kind {
            ContextHistoryKind::Unconditional => record.kind().is_unconditional(),
            ContextHistoryKind::CallReturn => record.kind().is_call_or_return(),
            ContextHistoryKind::All => record.kind().is_unconditional() || record.taken(),
        }
    }

    /// Shifts a new branch PC into the register. Call only for records
    /// where [`RollingContextRegister::observes`] is `true`.
    pub fn push(&mut self, pc: u64) {
        self.pcs.rotate_right(1);
        self.pcs[0] = pc;
        self.rehash();
    }

    fn rehash(&mut self) {
        self.current = self.hash_range(self.distance);
        self.prefetch = self.hash_range(0);
    }

    fn hash_range(&self, start: usize) -> u64 {
        let mut acc = 0u64;
        for (pos, &pc) in self.pcs[start..start + self.window].iter().enumerate() {
            acc ^= (pc >> 1) << (2 * pos as u64 % 48);
        }
        fold_to_bits(acc, self.cid_bits)
    }

    /// The current context ID (excludes the `D` most recent branches).
    #[must_use]
    pub fn current_cid(&self) -> u64 {
        self.current
    }

    /// The prefetch context ID (includes the most recent branches): the
    /// CID that will become current after `D` more observed branches.
    #[must_use]
    pub fn prefetch_cid(&self) -> u64 {
        self.prefetch
    }

    /// Captures the register content for later rollback.
    #[must_use]
    pub fn checkpoint(&self) -> RcrCheckpoint {
        RcrCheckpoint { pcs: self.pcs.clone() }
    }

    /// Restores a previously captured checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint came from a differently-sized register.
    pub fn restore(&mut self, checkpoint: &RcrCheckpoint) {
        assert_eq!(checkpoint.pcs.len(), self.pcs.len(), "checkpoint size mismatch");
        self.pcs.copy_from_slice(&checkpoint.pcs);
        self.rehash();
    }

    /// The configured window `W`.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// The configured prefetch distance `D`.
    #[must_use]
    pub fn distance(&self) -> usize {
        self.distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llbp_trace::BranchKind;

    fn rcr() -> RollingContextRegister {
        RollingContextRegister::new(4, 2, 14, ContextHistoryKind::Unconditional)
    }

    #[test]
    fn prefetch_cid_becomes_current_after_d_pushes() {
        let mut r = rcr();
        for pc in [0x10u64, 0x20, 0x30, 0x40, 0x50, 0x60] {
            r.push(pc);
        }
        let upcoming = r.prefetch_cid();
        r.push(0x70);
        r.push(0x80);
        assert_eq!(r.current_cid(), upcoming, "prefetch CID must become the CCID after D pushes");
    }

    #[test]
    fn repeated_pcs_do_not_cancel() {
        let mut r = rcr();
        // Without position shifting, XOR of an even number of identical
        // PCs would collapse to zero.
        for _ in 0..4 {
            r.push(0xABCD);
        }
        assert_ne!(r.prefetch_cid(), 0);
    }

    #[test]
    fn cid_stays_within_width() {
        let mut r = rcr();
        for i in 0..100u64 {
            r.push(0x4000_0000 + i * 4);
            assert!(r.current_cid() < (1 << 14));
            assert!(r.prefetch_cid() < (1 << 14));
        }
    }

    #[test]
    fn checkpoint_restores_exactly() {
        let mut r = rcr();
        for pc in [1u64, 2, 3, 4, 5] {
            r.push(pc);
        }
        let cp = r.checkpoint();
        let cid = r.current_cid();
        r.push(99);
        r.push(98);
        assert_ne!(r.current_cid(), cid);
        r.restore(&cp);
        assert_eq!(r.current_cid(), cid);
    }

    #[test]
    fn observes_respects_history_kind() {
        use llbp_trace::BranchRecord;
        let uncond = RollingContextRegister::new(4, 0, 14, ContextHistoryKind::Unconditional);
        let callret = RollingContextRegister::new(4, 0, 14, ContextHistoryKind::CallReturn);
        let all = RollingContextRegister::new(4, 0, 14, ContextHistoryKind::All);

        let jump = BranchRecord::unconditional(0x10, 0x20, BranchKind::DirectJump, 0);
        let call = BranchRecord::unconditional(0x10, 0x20, BranchKind::DirectCall, 0);
        let cond_taken = BranchRecord::conditional(0x10, 0x20, true, 0);
        let cond_nt = BranchRecord::conditional(0x10, 0x20, false, 0);

        assert!(uncond.observes(&jump) && uncond.observes(&call));
        assert!(!uncond.observes(&cond_taken));
        assert!(!callret.observes(&jump) && callret.observes(&call));
        assert!(all.observes(&jump) && all.observes(&cond_taken));
        assert!(!all.observes(&cond_nt), "not-taken conditionals do not redirect control flow");
    }

    #[test]
    fn different_windows_give_different_cids() {
        let mut a = RollingContextRegister::new(2, 0, 14, ContextHistoryKind::Unconditional);
        let mut b = RollingContextRegister::new(6, 0, 14, ContextHistoryKind::Unconditional);
        for pc in [0x100u64, 0x200, 0x300, 0x400, 0x500, 0x600] {
            a.push(pc);
            b.push(pc);
        }
        assert_ne!(a.prefetch_cid(), b.prefetch_cid());
    }
}
