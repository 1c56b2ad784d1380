//! The statistical corrector (SC) of TAGE-SC-L.
//!
//! TAGE mispredicts statistically biased branches that correlate only
//! weakly with history: it keeps allocating entries that capture noise.
//! The SC is a GEHL-style adder tree ([Seznec'11]): several tables of
//! centered signed counters, indexed by the PC hashed with global history
//! of assorted short lengths plus a bias component, are summed together
//! with TAGE's own vote; when the magnitude of the sum clears an adaptive
//! threshold, the sign of the sum replaces TAGE's prediction.

use bputil::counter::{CounterWidth, SatCounter};
use bputil::hash::{fold_to_bits, mix64};
use bputil::history::{FoldedHistory, HistoryBuffer};

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
    /// One table of [`CTR`]-wide counters per component: `tables[0]` is
    /// the bias table indexed by PC and TAGE direction; the rest are GEHL
    /// tables. Allocated as zeroes (the weak-taken state), so the 2^21-entry
    /// tables of `Inf TSL` map zero pages instead of being written.
    tables: Vec<Vec<i8>>,
    folded: Vec<Option<FoldedHistory>>,
    index_bits: u32,
    /// Adaptive confidence threshold (O-GEHL style).
    threshold: i32,
    /// Smoothing counter for threshold adaptation.
    tc: SatCounter,
    overrides: u64,
}

impl StatisticalCorrector {
    /// Creates a corrector with `2^index_bits` entries per component and
    /// the given GEHL history lengths (length 0 = PC-only component).
    ///
    /// # Panics
    ///
    /// Panics if no history lengths are given or there are more than 15.
    #[must_use]
    pub fn new(index_bits: u32, history_lengths: &[usize]) -> Self {
        assert!(!history_lengths.is_empty(), "SC needs at least one component");
        assert!(history_lengths.len() < MAX_COMPONENTS, "too many SC components");
        let entries = 1usize << index_bits;
        let mut tables = vec![vec![0i8; entries]]; // bias
        let mut folded = vec![None]; // bias has no history
        for &l in history_lengths {
            tables.push(vec![0i8; entries]);
            folded.push((l > 0).then(|| FoldedHistory::new(l, index_bits)));
        }
        Self {
            tables,
            folded,
            index_bits,
            threshold: 6,
            tc: SatCounter::new_signed(7),
            overrides: 0,
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

    fn component_index(&self, c: usize, pc: u64, tage_pred: bool) -> u32 {
        let mask = (1u32 << self.index_bits) - 1;
        let fold = self.folded[c].as_ref().map_or(0, FoldedHistory::value);
        let h = if c == 0 {
            // Bias component: PC plus the TAGE direction.
            mix64(pc ^ u64::from(tage_pred) << 1)
        } else {
            mix64(pc.rotate_left(c as u32 * 7) ^ u64::from(fold))
        };
        (fold_to_bits(h, self.index_bits)) as u32 & mask
    }

    /// Computes the SC decision for `pc` given TAGE's direction.
    #[must_use]
    pub fn lookup(&self, pc: u64, tage_pred: bool) -> ScLookup {
        let mut indices = [0u32; MAX_COMPONENTS];
        let mut sum: i32 = if tage_pred { TAGE_VOTE } else { -TAGE_VOTE };
        for (c, (slot, table)) in indices.iter_mut().zip(&self.tables).enumerate() {
            let i = self.component_index(c, pc, tage_pred);
            *slot = i;
            sum += 2 * i32::from(table[i as usize]) + 1;
        }
        ScLookup {
            sum,
            pred: sum >= 0,
            confident: sum.abs() > self.threshold,
            indices,
            num_components: self.tables.len(),
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

    /// Captures the component folded-history values for rollback.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u32> {
        self.folded.iter().map(|f| f.as_ref().map_or(0, FoldedHistory::value)).collect()
    }

    /// Restores folded histories captured by
    /// [`StatisticalCorrector::checkpoint`].
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint came from a different configuration.
    pub fn restore(&mut self, checkpoint: &[u32]) {
        assert_eq!(checkpoint.len(), self.folded.len(), "config mismatch");
        for (f, &v) in self.folded.iter_mut().zip(checkpoint) {
            if let Some(f) = f {
                f.restore(v);
            }
        }
    }

    /// Advances the component folded histories. Must be called with the
    /// global history buffer *before* the new outcome bit is pushed into
    /// it (same contract as [`FoldedHistory::update_before_push`]).
    pub fn update_history(&mut self, ghr: &HistoryBuffer, bit: bool) {
        for f in self.folded.iter_mut().flatten() {
            f.update_before_push(ghr, bit);
        }
    }

    /// [`StatisticalCorrector::update_history`] with branch-free folded
    /// updates ([`FoldedHistory::update_with_out_bit`]). Same contract,
    /// bit-identical results.
    pub fn update_history_fast(&mut self, ghr: &HistoryBuffer, bit: bool) {
        for f in self.folded.iter_mut().flatten() {
            let out = ghr.bit(f.original_len() - 1);
            f.update_with_out_bit(out, bit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc() -> StatisticalCorrector {
        StatisticalCorrector::new(8, &[0, 3, 8])
    }

    #[test]
    fn corrects_a_biased_branch_tage_gets_wrong() {
        // TAGE keeps saying "taken" for a branch that is 90% not-taken;
        // the SC must learn to override.
        let mut s = sc();
        let ghr = HistoryBuffer::new(64);
        let mut rng = bputil::rng::SplitMix64::new(3);
        let mut late_wrong = 0;
        for i in 0..5000 {
            let taken = rng.chance(1, 10);
            let l = s.lookup(0x500, true); // TAGE insists on taken
            let final_pred = s.arbitrate(&l, true);
            if i > 2000 && final_pred != taken {
                late_wrong += 1;
            }
            s.train(&l, taken);
            s.update_history(&ghr, taken);
        }
        // Without the SC every not-taken outcome (90%) would mispredict;
        // with it the rate must be near the 10% noise floor.
        assert!(late_wrong < 600, "late_wrong={late_wrong}");
        assert!(s.overrides() > 0);
    }

    #[test]
    fn agrees_with_confident_tage_on_easy_branches() {
        let mut s = sc();
        let ghr = HistoryBuffer::new(64);
        let mut disagreements = 0;
        for _ in 0..1000 {
            let l = s.lookup(0x600, true);
            if !s.arbitrate(&l, true) {
                disagreements += 1;
            }
            s.train(&l, true);
            s.update_history(&ghr, true);
        }
        assert!(disagreements < 50, "{disagreements} needless overrides");
    }

    #[test]
    fn threshold_stays_in_bounds() {
        let mut s = sc();
        let ghr = HistoryBuffer::new(64);
        let mut rng = bputil::rng::SplitMix64::new(4);
        for _ in 0..20_000 {
            let taken = rng.chance(1, 2);
            let l = s.lookup(rng.next_u64() % 1024, rng.chance(1, 2));
            s.train(&l, taken);
            s.update_history(&ghr, taken);
            assert!((4..=127).contains(&s.threshold()));
        }
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_components_panic() {
        let _ = StatisticalCorrector::new(8, &[]);
    }
}
