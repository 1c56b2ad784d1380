//! ITTAGE: an indirect-branch target predictor.
//!
//! Indirect calls/jumps (virtual dispatch, switch tables) have
//! data-dependent targets. ITTAGE applies TAGE's tagged geometric-history
//! idea to *targets*: a base table indexed by PC plus tagged tables
//! indexed by PC ⊕ folded global path history, each entry holding a full
//! target and a confidence counter ([Seznec & Michaud '06]). Mispredicted
//! indirect targets flush the front-end — the other pipeline-reset source
//! that squashes LLBP's prefetches (§VI, the PHPWiki pathology).

use bputil::counter::UnsignedCounter;
use bputil::hash::{fold_to_bits, mix64};
use bputil::history::FoldedHistory;
use bputil::rng::SplitMix64;

const NUM_TABLES: usize = 4;
const HISTORY_LENGTHS: [usize; NUM_TABLES] = [4, 10, 22, 44];
const INDEX_BITS: u32 = 9;
const TAG_BITS: u32 = 10;
const SEED: u64 = 0x0017_7A6E;

// The path register holds the longest history.
const _: () = assert!(HISTORY_LENGTHS[NUM_TABLES - 1] <= u64::BITS as usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    tag: u32,
    target: u64,
    confidence: UnsignedCounter,
    useful: UnsignedCounter,
    valid: bool,
}

impl Entry {
    fn empty() -> Self {
        Self {
            tag: 0,
            target: 0,
            confidence: UnsignedCounter::new(2),
            useful: UnsignedCounter::new(1),
            valid: false,
        }
    }
}

/// Per-lookup state handed back at update time.
#[derive(Debug, Clone, Copy)]
pub struct IttageLookup {
    /// Predicted target, if any component had one.
    pub target: Option<u64>,
    indices: [u64; NUM_TABLES],
    tags: [u32; NUM_TABLES],
    base_index: usize,
    provider: Option<usize>,
}

/// The indirect-target predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ittage {
    base: Vec<Entry>,
    /// The tagged tables in one block: entry `i` of table `t` at
    /// [`Ittage::slot`]`(t, i)`.
    tables: Vec<Entry>,
    folded: [FoldedHistory; NUM_TABLES],
    folded_tag: [FoldedHistory; NUM_TABLES],
    /// Path history of redirecting branches, the newest bit in bit 0.
    /// Every history length is below 64, so one register holds them all.
    path: u64,
    rng: SplitMix64,
    predictions: u64,
    mispredictions: u64,
}

impl Ittage {
    /// Creates an ITTAGE with the default geometry (a 512-entry base table
    /// plus four 512-entry tagged tables).
    #[must_use]
    pub fn new() -> Self {
        Self {
            base: vec![Entry::empty(); 1 << INDEX_BITS],
            tables: vec![Entry::empty(); NUM_TABLES << INDEX_BITS],
            folded: HISTORY_LENGTHS.map(|l| FoldedHistory::new(l, INDEX_BITS)),
            folded_tag: HISTORY_LENGTHS.map(|l| FoldedHistory::new(l, TAG_BITS)),
            path: 0,
            rng: SplitMix64::new(SEED),
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Empties every table and history and zeroes the counts: the state
    /// [`Ittage::new`] leaves, in the same storage.
    pub fn reset(&mut self) {
        self.base.fill(Entry::empty());
        self.tables.fill(Entry::empty());
        self.folded = HISTORY_LENGTHS.map(|l| FoldedHistory::new(l, INDEX_BITS));
        self.folded_tag = HISTORY_LENGTHS.map(|l| FoldedHistory::new(l, TAG_BITS));
        self.path = 0;
        self.rng = SplitMix64::new(SEED);
        self.predictions = 0;
        self.mispredictions = 0;
    }

    /// The position of entry `index` of tagged table `table` in the block.
    fn slot(table: usize, index: u64) -> usize {
        (table << INDEX_BITS) + index as usize
    }

    /// Target predictions made.
    #[must_use]
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Target mispredictions.
    #[must_use]
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Misprediction rate.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// Looks up the predicted target for the indirect branch at `pc`.
    #[must_use]
    pub fn lookup(&self, pc: u64) -> IttageLookup {
        let mut indices = [0u64; NUM_TABLES];
        let mut tags = [0u32; NUM_TABLES];
        let base_index = (mix64(pc >> 1) as usize) & (self.base.len() - 1);
        let mut provider = None;
        for t in (0..NUM_TABLES).rev() {
            indices[t] = fold_to_bits(
                mix64(pc ^ u64::from(self.folded[t].value()) ^ (t as u64) << 33),
                INDEX_BITS,
            );
            tags[t] = fold_to_bits(
                mix64(pc.rotate_left(13) ^ u64::from(self.folded_tag[t].value())),
                TAG_BITS,
            ) as u32;
        }
        for t in (0..NUM_TABLES).rev() {
            let e = &self.tables[Self::slot(t, indices[t])];
            if e.valid && e.tag == tags[t] {
                provider = Some(t);
                break;
            }
        }
        let target = match provider {
            Some(t) => Some(self.tables[Self::slot(t, indices[t])].target),
            None => self.base[base_index].valid.then(|| self.base[base_index].target),
        };
        IttageLookup { target, indices, tags, base_index, provider }
    }

    /// Trains with the resolved target; returns `true` when the prediction
    /// was correct.
    pub fn update(&mut self, lookup: &IttageLookup, actual: u64) -> bool {
        self.predictions += 1;
        let correct = lookup.target == Some(actual);
        if !correct {
            self.mispredictions += 1;
        }

        // Provider (or base) update: confident entries resist target swap.
        let entry = match lookup.provider {
            Some(t) => &mut self.tables[Self::slot(t, lookup.indices[t])],
            None => &mut self.base[lookup.base_index],
        };
        if !entry.valid {
            entry.valid = true;
            entry.target = actual;
            entry.tag = lookup.provider.map_or(0, |t| lookup.tags[t]);
        } else if entry.target == actual {
            entry.confidence.increment();
            if lookup.provider.is_some() {
                entry.useful.increment();
            }
        } else if entry.confidence.is_zero() {
            entry.target = actual;
            entry.useful.reset();
        } else {
            entry.confidence.decrement();
        }

        // Allocate a longer-history entry on a misprediction.
        if !correct {
            let start = lookup.provider.map_or(0, |t| t + 1);
            let mut allocated = false;
            for t in start..NUM_TABLES {
                let e = &mut self.tables[Self::slot(t, lookup.indices[t])];
                if !e.valid || e.useful.is_zero() {
                    *e = Entry {
                        tag: lookup.tags[t],
                        target: actual,
                        confidence: UnsignedCounter::new(2),
                        useful: UnsignedCounter::new(1),
                        valid: true,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated && self.rng.chance(1, 4) {
                for t in start..NUM_TABLES {
                    self.tables[Self::slot(t, lookup.indices[t])].useful.decrement();
                }
            }
        }
        correct
    }

    /// Advances the path history; call for every control-flow-redirecting
    /// branch (unconditional, or taken conditional).
    ///
    /// The index and tag folds of table `t` share `HISTORY_LENGTHS[t]`, so
    /// one outgoing-bit read of the path register serves both, applied
    /// branch-free via [`FoldedHistory::update_with_out_bit`].
    pub fn update_history(&mut self, pc: u64) {
        let bit = (pc >> 2) & 1 == 1;
        for (index, tag) in self.folded.iter_mut().zip(&mut self.folded_tag) {
            let out = (self.path >> (index.original_len() - 1)) & 1 == 1;
            index.update_with_out_bit(out, bit);
            tag.update_with_out_bit(out, bit);
        }
        self.path = self.path << 1 | u64::from(bit);
    }
}

impl Default for Ittage {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomorphic_site_learns_quickly() {
        let mut it = Ittage::new();
        let mut wrong = 0;
        for i in 0..200 {
            let l = it.lookup(0x5000);
            if i > 4 && !it.update(&l, 0x9000) {
                wrong += 1;
            } else if i <= 4 {
                it.update(&l, 0x9000);
            }
            it.update_history(0x5000);
        }
        assert_eq!(wrong, 0, "a monomorphic indirect site must be perfect");
    }

    #[test]
    fn path_correlated_site_is_learned() {
        // Target alternates with the preceding path: reachable only via
        // history-indexed tables.
        let mut it = Ittage::new();
        let mut wrong_late = 0;
        for i in 0..4000 {
            let phase = (i / 2) % 2 == 0;
            // Two different path prefixes.
            let path_pc = if phase { 0x100 } else { 0x204 };
            it.update_history(path_pc);
            it.update_history(path_pc + 8);
            let l = it.lookup(0x7000);
            let actual = if phase { 0xA000 } else { 0xB000 };
            let correct = it.update(&l, actual);
            it.update_history(0x7000);
            if i > 3000 && !correct {
                wrong_late += 1;
            }
        }
        assert!(wrong_late < 100, "wrong_late={wrong_late}");
    }

    #[test]
    fn random_targets_stay_hard() {
        let mut it = Ittage::new();
        let mut rng = SplitMix64::new(3);
        for _ in 0..2000 {
            let l = it.lookup(0x8000);
            it.update(&l, 0x1000 + rng.below(16) * 64);
            it.update_history(0x8000);
        }
        assert!(it.misprediction_rate() > 0.5, "random targets cannot be predicted");
    }

    #[test]
    fn history_advance_matches_reference_folds() {
        // Reference: each register folded with its own outgoing-bit read
        // (`update_before_push`) from a path history buffer.
        use bputil::history::HistoryBuffer;
        let mut it = Ittage::new();
        let mut path = HistoryBuffer::new(128);
        let mut folded: Vec<FoldedHistory> =
            HISTORY_LENGTHS.iter().map(|&l| FoldedHistory::new(l, INDEX_BITS)).collect();
        let mut folded_tag: Vec<FoldedHistory> =
            HISTORY_LENGTHS.iter().map(|&l| FoldedHistory::new(l, TAG_BITS)).collect();
        let mut rng = SplitMix64::new(0x177);
        for step in 0..2_000 {
            let pc = rng.next_u64();
            let bit = (pc >> 2) & 1 == 1;
            for f in folded.iter_mut().chain(folded_tag.iter_mut()) {
                f.update_before_push(&path, bit);
            }
            path.push(bit);
            it.update_history(pc);
            assert_eq!(it.folded[..], folded[..], "index folds diverged at step {step}");
            assert_eq!(it.folded_tag[..], folded_tag[..], "tag folds diverged at step {step}");
            for age in 0..64 {
                let bit = (it.path >> age) & 1 == 1;
                assert_eq!(bit, path.bit(age), "path bit {age} diverged at step {step}");
            }
        }
    }

    #[test]
    fn reset_restores_a_fresh_predictor() {
        let mut it = Ittage::new();
        let mut rng = SplitMix64::new(0x1D);
        for _ in 0..3_000 {
            let pc = 0x5000 + rng.below(64) * 4;
            let l = it.lookup(pc);
            it.update(&l, 0x9000 + rng.below(4) * 64);
            it.update_history(pc);
        }
        it.reset();
        assert_eq!(it, Ittage::new());
    }

    #[test]
    fn stats_accumulate() {
        let mut it = Ittage::new();
        let l = it.lookup(0x100);
        it.update(&l, 0x200);
        assert_eq!(it.predictions(), 1);
    }
}
