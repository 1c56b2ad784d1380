//! The statistical corrector (SC) of TAGE-SC-L.
//!
//! TAGE mispredicts statistically biased branches that correlate only
//! weakly with history: it keeps allocating entries that capture noise.
//! The SC is a GEHL-style adder tree ([Seznec'11]): several tables of
//! centered signed counters, indexed by the PC hashed with global history
//! of assorted short lengths plus a bias component, are summed together
//! with TAGE's own vote; when the magnitude of the sum clears an adaptive
//! threshold, the sign of the sum replaces TAGE's prediction.
//!
//! The corrector keeps no history of its own: its folds are registers of
//! the TAGE it corrects, and its component indices
//! ([`bputil::hash::gehl_index`]) are lanes of that TAGE's per-lookup hash
//! loop, delivered in the [`TageLookup`].

use crate::history::TageHistory;
use crate::pool::TablePool;
use crate::tage::{Tage, TageLookup};
use bputil::counter::{CounterWidth, SatCounter};
use bputil::kernel::Lane;
use bputil::table::prefetch;

/// Weight of the TAGE vote inside the SC sum.
const TAGE_VOTE: i32 = 16;
/// Width of the component counters, shared by every table.
const CTR: CounterWidth = CounterWidth::signed(6);

/// Per-lookup SC state, consumed at update time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScLookup {
    /// The adder-tree sum, including the TAGE vote.
    pub sum: i32,
    /// The SC's own direction (sign of the sum).
    pub pred: bool,
    /// Whether the sum cleared the confidence threshold (SC overrides).
    pub confident: bool,
    /// Component indices (bias first, then one per history length).
    indices: [u32; MAX_COMPONENTS],
    num_components: usize,
}

const MAX_COMPONENTS: usize = 16;

/// The statistical corrector.
#[derive(Debug, Clone)]
pub struct StatisticalCorrector {
    /// One table of [`CTR`]-wide counters per component, the first
    /// `components` slots used: `tables[0]` is the bias table indexed by
    /// PC and TAGE direction; the rest are GEHL tables. Zeroes (the
    /// weak-taken state) from a [`TablePool`]: a new table is a zeroed
    /// allocation, so the 2^21-entry tables of `Inf TSL` map zero pages
    /// instead of being written, and a pooled one is re-zeroed. Held
    /// inline, so the corrector allocates nothing beyond its tables.
    tables: [Vec<i8>; MAX_COMPONENTS],
    components: usize,
    /// Position of the bias lanes (not taken, then taken) among the side
    /// lanes of a `TageLookup`; the component lanes follow.
    first_lane: usize,
    /// Adaptive confidence threshold (O-GEHL style).
    threshold: i32,
    /// Smoothing counter for threshold adaptation.
    tc: SatCounter,
    overrides: u64,
}

impl StatisticalCorrector {
    /// Creates a corrector with `2^index_bits` entries per component and
    /// the given GEHL history lengths (length 0 = PC-only component),
    /// registering its folds and hash lanes with `tage`, whose lookups it
    /// then corrects.
    ///
    /// # Panics
    ///
    /// Panics if no history lengths are given, there are more than 15, or
    /// `index_bits` is outside `1..=30`.
    #[must_use]
    pub fn new(index_bits: u32, history_lengths: &[usize], tage: &mut Tage) -> Self {
        Self::with_pool(index_bits, history_lengths, tage, &mut TablePool::new())
    }

    /// [`StatisticalCorrector::new`] on tables from `pool`.
    ///
    /// # Panics
    ///
    /// As [`StatisticalCorrector::new`].
    #[must_use]
    pub(crate) fn with_pool(
        index_bits: u32,
        history_lengths: &[usize],
        tage: &mut Tage,
        pool: &mut TablePool,
    ) -> Self {
        let first_lane = Self::register(index_bits, history_lengths, tage.history_mut());
        let entries = 1usize << index_bits;
        let components = history_lengths.len() + 1;
        let mut tables: [Vec<i8>; MAX_COMPONENTS] = Default::default();
        for table in &mut tables[..components] {
            *table = pool.sc_table(entries);
        }
        Self {
            tables,
            components,
            first_lane,
            threshold: 6,
            tc: SatCounter::new_signed(7),
            overrides: 0,
        }
    }

    /// Registers the folds and hash lanes of a corrector with
    /// `2^index_bits` entries per component and the given GEHL history
    /// lengths in `history`, returning the position of its first lane
    /// among the side lanes.
    ///
    /// # Panics
    ///
    /// As [`StatisticalCorrector::new`].
    pub(crate) fn register(
        index_bits: u32,
        history_lengths: &[usize],
        history: &mut TageHistory,
    ) -> usize {
        assert!(!history_lengths.is_empty(), "SC needs at least one component");
        assert!(history_lengths.len() < MAX_COMPONENTS, "too many SC components");
        assert!((1..=30).contains(&index_bits), "SC index width out of range: {index_bits}");
        // The bias hashes the TAGE direction in place of a fold.
        let first_lane = history.push_side_lane(Lane::gehl(0, None, 0, index_bits));
        history.push_side_lane(Lane::gehl(0, None, 1 << 1, index_bits));
        for (c, &l) in (1..).zip(history_lengths) {
            let fold = (l > 0).then(|| history.register_fold(l, index_bits));
            history.push_side_lane(Lane::gehl(c, fold, 0, index_bits));
        }
        first_lane
    }

    /// Hands the component tables to `pool` for the next corrector built
    /// on it.
    pub(crate) fn into_pool(self, pool: &mut TablePool) {
        for table in self.tables.into_iter().take(self.components) {
            pool.put_sc_table(table);
        }
    }

    /// Times the SC overrode TAGE so far.
    #[must_use]
    pub fn overrides(&self) -> u64 {
        self.overrides
    }

    /// Current adaptive threshold.
    #[must_use]
    pub fn threshold(&self) -> i32 {
        self.threshold
    }

    /// Prefetches every row [`StatisticalCorrector::lookup`] may read for
    /// the branch `tage` hashed: the bias row of each TAGE direction and
    /// each component's row. Issued before TAGE's own probes, so the
    /// corrector's loads overlap them; a 2^21-entry Inf TSL table rarely
    /// has the row in cache.
    #[inline]
    pub(crate) fn prefetch(&self, tage: &TageLookup) {
        let n = self.components;
        let lanes = &tage.side()[self.first_lane..self.first_lane + n + 1];
        prefetch(&self.tables[0], lanes[0] as usize);
        prefetch(&self.tables[0], lanes[1] as usize);
        for (table, &i) in self.tables[1..n].iter().zip(&lanes[2..]) {
            prefetch(table, i as usize);
        }
    }

    /// Computes the SC decision for the branch `tage` looked up, given
    /// the direction `tage_pred` to correct (TAGE's, or one that replaced
    /// it).
    #[must_use]
    pub fn lookup(&self, tage: &TageLookup, tage_pred: bool) -> ScLookup {
        let n = self.components;
        let lanes = &tage.side()[self.first_lane..];
        let mut indices = [0u32; MAX_COMPONENTS];
        indices[0] = lanes[usize::from(tage_pred)];
        // A copy of fixed length, which compiles to a few moves rather
        // than a call; the entries past the `n` components go unread.
        indices[1..].copy_from_slice(&lanes[2..MAX_COMPONENTS + 1]);
        let mut sum: i32 = if tage_pred { TAGE_VOTE } else { -TAGE_VOTE };
        for (&i, table) in indices.iter().zip(&self.tables[..n]) {
            sum += 2 * i32::from(table[i as usize]) + 1;
        }
        ScLookup {
            sum,
            pred: sum >= 0,
            confident: sum.abs() > self.threshold,
            indices,
            num_components: n,
        }
    }

    /// The direction the composition should use.
    #[must_use]
    pub fn arbitrate(&mut self, lookup: &ScLookup, tage_pred: bool) -> bool {
        if lookup.confident && lookup.pred != tage_pred {
            self.overrides += 1;
            lookup.pred
        } else {
            tage_pred
        }
    }

    /// Trains the components and adapts the threshold (O-GEHL rules:
    /// update on a wrong final SC direction or on a low-confidence sum).
    pub fn train(&mut self, lookup: &ScLookup, taken: bool) {
        let correct = lookup.pred == taken;
        if !correct || lookup.sum.abs() <= self.threshold {
            for c in 0..lookup.num_components {
                CTR.update(&mut self.tables[c][lookup.indices[c] as usize], taken);
            }
        }
        // Threshold adaptation, smoothed through `tc`.
        if !correct {
            self.tc.update(true);
            if self.tc.is_saturated() && self.tc.taken() {
                self.threshold = (self.threshold + 1).min(127);
                self.tc.set(0);
            }
        } else if lookup.sum.abs() <= self.threshold {
            self.tc.update(false);
            if self.tc.is_saturated() && !self.tc.taken() {
                self.threshold = (self.threshold - 1).max(4);
                self.tc.set(0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TageConfig;
    use bputil::hash::gehl_index;
    use llbp_trace::BranchRecord;

    /// A small TAGE carrying an SC of three components.
    fn sc() -> (Tage, StatisticalCorrector) {
        let mut tage = Tage::new(TageConfig {
            history_lengths: vec![4, 8, 16, 32],
            tag_bits: vec![9, 9, 11, 11],
            index_bits: 7,
            bimodal_bits: 8,
            ..TageConfig::cbp64k()
        });
        let s = StatisticalCorrector::new(8, &[0, 3, 8], &mut tage);
        (tage, s)
    }

    fn advance(tage: &mut Tage, pc: u64, taken: bool) {
        tage.update_history_fast(&BranchRecord::conditional(pc, pc + 8, taken, 0));
    }

    #[test]
    fn lookup_indices_are_the_gehl_hashes() {
        let (mut tage, s) = sc();
        let mut folds = [bputil::FoldedHistory::new(3, 8), bputil::FoldedHistory::new(8, 8)];
        let mut rng = bputil::rng::SplitMix64::new(2);
        for _ in 0..500 {
            let pc = rng.next_u64() << 2;
            let lookup = tage.lookup(pc);
            for tage_pred in [false, true] {
                let l = s.lookup(&lookup, tage_pred);
                let want = [
                    gehl_index(pc, u32::from(tage_pred) << 1, 0, 8),
                    gehl_index(pc, 0, 1, 8),
                    gehl_index(pc, folds[0].value(), 2, 8),
                    gehl_index(pc, folds[1].value(), 3, 8),
                ];
                assert_eq!(l.indices[..4], want);
                assert_eq!(l.num_components, 4);
            }
            let taken = rng.chance(1, 2);
            for f in &mut folds {
                f.update_before_push(tage.ghr(), taken);
            }
            advance(&mut tage, pc, taken);
        }
    }

    #[test]
    fn corrects_a_biased_branch_tage_gets_wrong() {
        // TAGE keeps saying "taken" for a branch that is 90% not-taken;
        // the SC must learn to override.
        let (mut tage, mut s) = sc();
        let mut rng = bputil::rng::SplitMix64::new(3);
        let mut late_wrong = 0;
        for i in 0..5000 {
            let taken = rng.chance(1, 10);
            let l = s.lookup(&tage.lookup(0x500), true); // TAGE insists on taken
            let final_pred = s.arbitrate(&l, true);
            if i > 2000 && final_pred != taken {
                late_wrong += 1;
            }
            s.train(&l, taken);
            advance(&mut tage, 0x500, taken);
        }
        // Without the SC every not-taken outcome (90%) would mispredict;
        // with it the rate must be near the 10% noise floor.
        assert!(late_wrong < 600, "late_wrong={late_wrong}");
        assert!(s.overrides() > 0);
    }

    #[test]
    fn agrees_with_confident_tage_on_easy_branches() {
        let (mut tage, mut s) = sc();
        let mut disagreements = 0;
        for _ in 0..1000 {
            let l = s.lookup(&tage.lookup(0x600), true);
            if !s.arbitrate(&l, true) {
                disagreements += 1;
            }
            s.train(&l, true);
            advance(&mut tage, 0x600, true);
        }
        assert!(disagreements < 50, "{disagreements} needless overrides");
    }

    #[test]
    fn threshold_stays_in_bounds() {
        let (mut tage, mut s) = sc();
        let mut rng = bputil::rng::SplitMix64::new(4);
        for _ in 0..20_000 {
            let taken = rng.chance(1, 2);
            let pc = rng.next_u64() % 1024;
            let l = s.lookup(&tage.lookup(pc), rng.chance(1, 2));
            s.train(&l, taken);
            advance(&mut tage, pc, taken);
            assert!((4..=127).contains(&s.threshold()));
        }
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_components_panic() {
        let (mut tage, _) = sc();
        let _ = StatisticalCorrector::new(8, &[], &mut tage);
    }
}
