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
    /// Most recent PC first.
    pcs: Vec<u64>,
}

/// The two context IDs of an RCR at one point of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContextIds {
    /// The current context ID ([`RollingContextRegister::current_cid`]).
    pub current: u64,
    /// The prefetch context ID ([`RollingContextRegister::prefetch_cid`]).
    pub prefetch: u64,
}

/// Widest window whose hash updates incrementally: every position's shift
/// `2·pos` stays below the hash's 48-bit wrap, so an advance is one shift
/// of the whole sum by 2.
const INCREMENTAL_WINDOW: usize = 24;

/// The rolling context register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollingContextRegister {
    /// A ring of the last `window + distance` PCs: the most recent at
    /// `head`, older ones at the following positions, wrapping.
    pcs: Vec<u64>,
    head: usize,
    window: usize,
    distance: usize,
    cid_bits: u32,
    kind: ContextHistoryKind,
    /// The unfolded sums behind both CIDs (see
    /// [`RollingContextRegister::hash_range`]), kept up to date on every
    /// push: a context is read on every prediction but changes only on
    /// observed branches.
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
        let mut rcr =
            Self { pcs, head: 0, window, distance, cid_bits, kind, current: 0, prefetch: 0 };
        rcr.rehash();
        rcr
    }

    /// Whether `record` participates in the context history under this
    /// register's [`ContextHistoryKind`].
    #[inline]
    #[must_use]
    pub fn observes(&self, record: &BranchRecord) -> bool {
        self.kind.observes(record)
    }

    /// The PC `age` pushes old (0 = the most recent).
    #[inline]
    fn at(&self, age: usize) -> u64 {
        let i = self.head + age;
        self.pcs[if i < self.pcs.len() { i } else { i - self.pcs.len() }]
    }

    /// Shifts a new branch PC into the register. Call only for records
    /// where [`RollingContextRegister::observes`] is `true`.
    ///
    /// Up to a window of [`INCREMENTAL_WINDOW`] branches, each sum loses
    /// the term that leaves its window, moves every other term one
    /// position on (a shift by 2) and takes in the term that enters.
    /// Wider windows are summed again from the ring.
    pub fn push(&mut self, pc: u64) {
        let (w, d) = (self.window, self.distance);
        if w <= INCREMENTAL_WINDOW {
            let top = 2 * (w as u32 - 1);
            // The current window takes in the PC `d` pushes old once `pc`
            // is in (the new PC itself when `d` is 0) and loses the one
            // `w + d - 1` old, which `pc` overwrites in the ring.
            let entering = if d == 0 { pc } else { self.at(d - 1) };
            self.current =
                ((self.current ^ (self.at(w + d - 1) >> 1) << top) << 2) ^ (entering >> 1);
            self.prefetch = ((self.prefetch ^ (self.at(w - 1) >> 1) << top) << 2) ^ (pc >> 1);
        }
        self.head = self.head.checked_sub(1).unwrap_or(self.pcs.len() - 1);
        self.pcs[self.head] = pc;
        if w > INCREMENTAL_WINDOW {
            self.rehash();
        }
    }

    fn rehash(&mut self) {
        self.current = self.hash_range(self.distance);
        self.prefetch = self.hash_range(0);
    }

    /// The unfolded context hash of the `window` PCs from `start` pushes
    /// old: each PC shifted by twice its position in the window (mod 48),
    /// all XOR-ed together.
    fn hash_range(&self, start: usize) -> u64 {
        let mut acc = 0u64;
        for pos in 0..self.window {
            acc ^= (self.at(start + pos) >> 1) << (2 * pos as u64 % 48);
        }
        acc
    }

    /// The current context ID (excludes the `D` most recent branches).
    #[must_use]
    pub fn current_cid(&self) -> u64 {
        fold_to_bits(self.current, self.cid_bits)
    }

    /// The prefetch context ID (includes the most recent branches): the
    /// CID that will become current after `D` more observed branches.
    #[must_use]
    pub fn prefetch_cid(&self) -> u64 {
        fold_to_bits(self.prefetch, self.cid_bits)
    }

    /// Both context IDs.
    #[must_use]
    pub fn cids(&self) -> ContextIds {
        ContextIds { current: self.current_cid(), prefetch: self.prefetch_cid() }
    }

    /// Captures the register content for later rollback.
    #[must_use]
    pub fn checkpoint(&self) -> RcrCheckpoint {
        RcrCheckpoint { pcs: (0..self.pcs.len()).map(|age| self.at(age)).collect() }
    }

    /// Restores a previously captured checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint came from a differently-sized register.
    pub fn restore(&mut self, checkpoint: &RcrCheckpoint) {
        assert_eq!(checkpoint.pcs.len(), self.pcs.len(), "checkpoint size mismatch");
        self.pcs.copy_from_slice(&checkpoint.pcs);
        self.head = 0;
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

    /// Both CIDs by the definition: the PCs of each window, most recent
    /// first, shifted by twice their position (mod 48), XOR-ed and folded.
    fn cids_by_definition(recent_first: &[u64], w: usize, d: usize, bits: u32) -> (u64, u64) {
        let hash = |start: usize| {
            let window = &recent_first[start..start + w];
            let acc = window
                .iter()
                .enumerate()
                .fold(0u64, |acc, (pos, &pc)| acc ^ (pc >> 1) << (2 * pos as u64 % 48));
            fold_to_bits(acc, bits)
        };
        (hash(d), hash(0))
    }

    #[test]
    fn incremental_cids_match_the_definition_after_every_push_and_restore() {
        let mut rng = bputil::rng::SplitMix64::new(0xC1D);
        for w in [1usize, 8, 24, 25, 32] {
            for d in [0usize, 4] {
                let mut r = RollingContextRegister::new(w, d, 14, ContextHistoryKind::All);
                let mut recent_first = vec![0u64; w + d];
                let mut saved = None;
                for step in 0..500 {
                    let pc = match rng.below(4) {
                        // Repeats and full-width PCs, whose top bits the
                        // shifts drop.
                        0 => recent_first[0],
                        1 => rng.next_u64(),
                        _ => 0x40_0000 + rng.below(1 << 12) * 4,
                    };
                    r.push(pc);
                    recent_first.rotate_right(1);
                    recent_first[0] = pc;
                    let want = cids_by_definition(&recent_first, w, d, 14);
                    assert_eq!((r.current_cid(), r.prefetch_cid()), want, "W={w} D={d} {step}");
                    match rng.below(40) {
                        0 => saved = Some((r.checkpoint(), recent_first.clone())),
                        1 => {
                            if let Some((cp, pcs)) = &saved {
                                r.restore(cp);
                                recent_first.clone_from(pcs);
                                let want = cids_by_definition(&recent_first, w, d, 14);
                                assert_eq!(
                                    r.cids(),
                                    ContextIds { current: want.0, prefetch: want.1 }
                                );
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
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
