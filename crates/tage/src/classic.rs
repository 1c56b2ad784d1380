//! Classic baseline predictors: gshare, a two-level local-history
//! predictor, and the hashed perceptron.
//!
//! None of these appear in the paper's evaluation, but a branch-prediction
//! framework is only useful for new research if the canonical comparators
//! are on hand. All three implement [`Predictor`] and plug straight into
//! the simulator and harness:
//!
//! ```
//! use llbp_tage::classic::Gshare;
//! use llbp_tage::Predictor;
//!
//! let mut p = Gshare::new(14, 12);
//! let _ = p.predict(0x1000);
//! p.train(0x1000, true);
//! ```

use crate::predictor::{Predictor, ProviderKind};
use bputil::counter::CounterWidth;
use bputil::hash::{fold_to_bits, mix64};
use llbp_trace::{BranchKind, BranchRecord};

/// Width of the gshare and two-level pattern-table counters.
const TWO_BIT: CounterWidth = CounterWidth::signed(2);

/// gshare ([McFarling '93]): one table of 2-bit counters indexed by
/// `PC ⊕ global history`.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<i8>,
    history: u64,
    history_bits: u32,
    label: String,
}

impl Gshare {
    /// Creates a gshare with `2^index_bits` counters and `history_bits`
    /// of global history.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` exceeds 28 or `history_bits` exceeds 63.
    #[must_use]
    pub fn new(index_bits: u32, history_bits: u32) -> Self {
        assert!(index_bits <= 28, "table too large");
        assert!(history_bits <= 63, "history too long");
        Self {
            table: vec![0; 1 << index_bits],
            history: 0,
            history_bits,
            label: format!("gshare-{index_bits}b"),
        }
    }

    fn index(&self, pc: u64) -> usize {
        let h = self.history & ((1u64 << self.history_bits) - 1).max(1);
        ((pc >> 2) ^ h) as usize & (self.table.len() - 1)
    }
}

impl Predictor for Gshare {
    fn predict(&mut self, pc: u64) -> bool {
        CounterWidth::taken(self.table[self.index(pc)])
    }

    fn train(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        TWO_BIT.update(&mut self.table[i], taken);
    }

    fn update_history(&mut self, record: &BranchRecord) {
        if record.kind() == BranchKind::Conditional {
            self.history = (self.history << 1) | u64::from(record.taken());
        }
    }

    fn last_provider(&self) -> ProviderKind {
        ProviderKind::Bimodal
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn storage_bits(&self) -> u64 {
        self.table.len() as u64 * 2 + u64::from(self.history_bits)
    }
}

/// A two-level predictor with per-branch local history (PAg flavour,
/// [Yeh & Patt '91]): a table of local history registers selects into a
/// shared pattern table of 2-bit counters.
#[derive(Debug, Clone)]
pub struct TwoLevelLocal {
    histories: Vec<u16>,
    pattern_table: Vec<i8>,
    local_bits: u32,
    label: String,
}

impl TwoLevelLocal {
    /// Creates a predictor with `2^bht_bits` local history registers of
    /// `local_bits` bits and a `2^local_bits`-entry pattern table.
    ///
    /// # Panics
    ///
    /// Panics if `local_bits` is not in `1..=16` or `bht_bits` exceeds 24.
    #[must_use]
    pub fn new(bht_bits: u32, local_bits: u32) -> Self {
        assert!((1..=16).contains(&local_bits), "local history out of range");
        assert!(bht_bits <= 24, "history table too large");
        Self {
            histories: vec![0; 1 << bht_bits],
            pattern_table: vec![0; 1 << local_bits],
            local_bits,
            label: format!("2level-{bht_bits}x{local_bits}"),
        }
    }

    fn history_index(&self, pc: u64) -> usize {
        (mix64(pc >> 2) as usize) & (self.histories.len() - 1)
    }

    fn pattern_index(&self, pc: u64) -> usize {
        let h = self.histories[self.history_index(pc)];
        (h as usize) & (self.pattern_table.len() - 1)
    }
}

impl Predictor for TwoLevelLocal {
    fn predict(&mut self, pc: u64) -> bool {
        CounterWidth::taken(self.pattern_table[self.pattern_index(pc)])
    }

    fn train(&mut self, pc: u64, taken: bool) {
        let pi = self.pattern_index(pc);
        TWO_BIT.update(&mut self.pattern_table[pi], taken);
        let hi = self.history_index(pc);
        let mask = (1u16 << self.local_bits) - 1;
        self.histories[hi] = ((self.histories[hi] << 1) | u16::from(taken)) & mask;
    }

    fn update_history(&mut self, _record: &BranchRecord) {
        // Local histories advance in `train`; no global state.
    }

    fn last_provider(&self) -> ProviderKind {
        ProviderKind::Bimodal
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn storage_bits(&self) -> u64 {
        self.histories.len() as u64 * u64::from(self.local_bits)
            + self.pattern_table.len() as u64 * 2
    }
}

/// The hashed perceptron ([Jiménez & Lin '01], hashed variant): signed
/// weight vectors dotted with the global history; magnitude-thresholded
/// training.
#[derive(Debug, Clone)]
pub struct HashedPerceptron {
    /// `tables[t][index]` = 8-bit weight; each table hashes a different
    /// history segment.
    tables: Vec<Vec<i8>>,
    history: u64,
    segment_bits: u32,
    threshold: i32,
    /// Per-prediction state: the last computed sum and indices.
    last: Option<(i32, Vec<usize>)>,
    label: String,
}

impl HashedPerceptron {
    /// Creates a perceptron with `num_tables` weight tables of
    /// `2^index_bits` 8-bit weights; table `t` hashes history bits
    /// `[t·segment, (t+1)·segment)`.
    ///
    /// # Panics
    ///
    /// Panics if `num_tables` is zero or the geometry exceeds 60 history
    /// bits.
    #[must_use]
    pub fn new(num_tables: usize, index_bits: u32, segment_bits: u32) -> Self {
        assert!(num_tables > 0, "need at least one table");
        assert!(num_tables as u32 * segment_bits <= 60, "history too long");
        // The classic θ = 1.93·h + 14 training threshold.
        let h = num_tables as f64 * f64::from(segment_bits);
        Self {
            tables: vec![vec![0i8; 1 << index_bits]; num_tables],
            history: 0,
            segment_bits,
            threshold: (1.93 * h + 14.0) as i32,
            last: None,
            label: format!("perceptron-{num_tables}x{index_bits}b"),
        }
    }

    fn compute(&self, pc: u64) -> (i32, Vec<usize>) {
        let mut sum = 0i32;
        let mut indices = Vec::with_capacity(self.tables.len());
        for (t, table) in self.tables.iter().enumerate() {
            let seg = (self.history >> (t as u32 * self.segment_bits))
                & ((1u64 << self.segment_bits) - 1);
            let i = fold_to_bits(mix64(pc ^ seg.rotate_left(17) ^ (t as u64) << 40), 30) as usize
                & (table.len() - 1);
            indices.push(i);
            sum += i32::from(table[i]);
        }
        (sum, indices)
    }
}

impl Predictor for HashedPerceptron {
    fn predict(&mut self, pc: u64) -> bool {
        let (sum, indices) = self.compute(pc);
        self.last = Some((sum, indices));
        sum >= 0
    }

    fn train(&mut self, _pc: u64, taken: bool) {
        let (sum, indices) = self.last.take().expect("train() without predict()");
        let correct = (sum >= 0) == taken;
        if !correct || sum.abs() <= self.threshold {
            for (t, &i) in indices.iter().enumerate() {
                let w = &mut self.tables[t][i];
                *w = if taken { w.saturating_add(1) } else { w.saturating_sub(1) };
            }
        }
    }

    fn update_history(&mut self, record: &BranchRecord) {
        if record.kind() == BranchKind::Conditional {
            self.history = (self.history << 1) | u64::from(record.taken());
        }
    }

    fn last_provider(&self) -> ProviderKind {
        ProviderKind::Bimodal
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn storage_bits(&self) -> u64 {
        self.tables.iter().map(|t| t.len() as u64 * 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(p: &mut dyn Predictor, pc: u64, taken: bool) -> bool {
        let pred = p.predict(pc);
        p.train(pc, taken);
        p.update_history(&BranchRecord::conditional(pc, pc + 8, taken, 0));
        pred
    }

    fn late_errors<F: Fn(usize) -> bool>(p: &mut dyn Predictor, pc: u64, f: F, n: usize) -> usize {
        let mut wrong = 0;
        for i in 0..n {
            let taken = f(i);
            if drive(p, pc, taken) != taken && i > n / 2 {
                wrong += 1;
            }
        }
        wrong
    }

    #[test]
    fn gshare_learns_patterns() {
        let mut p = Gshare::new(12, 8);
        let wrong = late_errors(&mut p, 0x100, |i| i % 3 == 0, 3000);
        assert!(wrong < 60, "gshare failed a period-3 pattern: {wrong}");
    }

    #[test]
    fn two_level_learns_local_patterns() {
        let mut p = TwoLevelLocal::new(10, 10);
        // Interleave two branches with different periods: local history
        // separates them without global-history pollution.
        let mut wrong = 0;
        for i in 0..4000 {
            let a = i % 2 == 0;
            let b = i % 5 == 0;
            if drive(&mut p, 0xA00, a) != a && i > 2000 {
                wrong += 1;
            }
            if drive(&mut p, 0xB00, b) != b && i > 2000 {
                wrong += 1;
            }
        }
        assert!(wrong < 120, "two-level failed interleaved patterns: {wrong}");
    }

    #[test]
    fn perceptron_learns_linearly_separable_correlation() {
        // Outcome = previous outcome of the same branch (strong single-bit
        // correlation — exactly what a perceptron weights up).
        let mut p = HashedPerceptron::new(8, 12, 6);
        let mut wrong = 0;
        let mut last = false;
        for i in 0..4000 {
            let taken = last;
            if drive(&mut p, 0xC00, taken) != taken && i > 2000 {
                wrong += 1;
            }
            last = i % 7 < 3; // deterministic driver pattern
        }
        assert!(wrong < 200, "perceptron failed correlation: {wrong}");
    }

    #[test]
    fn storage_accounting() {
        assert_eq!(Gshare::new(10, 10).storage_bits(), 2 * 1024 + 10);
        assert_eq!(TwoLevelLocal::new(10, 10).storage_bits(), 10 * 1024 + 2 * 1024);
        assert_eq!(HashedPerceptron::new(4, 10, 6).storage_bits(), 4 * 1024 * 8);
    }

    #[test]
    fn labels_are_informative() {
        assert!(Gshare::new(10, 8).label().contains("gshare"));
        assert!(TwoLevelLocal::new(8, 8).label().contains("2level"));
        assert!(HashedPerceptron::new(4, 10, 6).label().contains("perceptron"));
    }

    #[test]
    #[should_panic(expected = "train() without predict()")]
    fn perceptron_protocol_enforced() {
        let mut p = HashedPerceptron::new(4, 10, 6);
        p.train(0x100, true);
    }
}
