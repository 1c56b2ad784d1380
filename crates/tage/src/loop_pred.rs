//! The loop predictor of TAGE-SC-L.
//!
//! Counted loops produce a long run of taken back-edges followed by one
//! not-taken exit. History predictors waste long-history entries learning
//! each trip count; a dedicated loop predictor captures the whole loop
//! with one entry: it tracks the iteration count, gains confidence when
//! the same count repeats, and then predicts the exit exactly.

use bputil::counter::SatCounter;
use bputil::table::SetAssoc;

/// Confidence needed before the loop predictor is allowed to provide.
const CONFIDENT: u16 = 3;
/// Maximum tracked iteration count.
const MAX_ITER: u16 = u16::MAX - 1;

/// One loop table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct LoopEntry {
    /// Trip count observed on the last completed traversal.
    past_iter: u16,
    /// Iterations seen in the current traversal.
    current_iter: u16,
    /// How many consecutive traversals matched `past_iter`.
    confidence: u16,
    /// The repeated (loop-continuing) direction.
    dir: bool,
    /// Replacement age, decremented when unconfident entries linger.
    age: u8,
}

/// Per-lookup state handed back at training time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopLookup {
    /// The prediction, when the entry is confident.
    pub pred: Option<bool>,
    set: u64,
    tag: u64,
}

/// The loop predictor: a small set-associative table keyed by branch PC.
#[derive(Debug, Clone)]
pub struct LoopPredictor {
    table: SetAssoc<LoopEntry>,
    /// Global gate learning whether loop predictions help this workload.
    use_loop: SatCounter,
    provides: u64,
}

impl LoopPredictor {
    /// Creates a loop predictor with `2^index_bits` sets, 4-way.
    #[must_use]
    pub fn new(index_bits: u32) -> Self {
        let mut use_loop = SatCounter::new_signed(7);
        use_loop.set(0);
        Self { table: SetAssoc::new(index_bits, 4), use_loop, provides: 0 }
    }

    /// Times the loop predictor actually provided a direction.
    #[must_use]
    pub fn provides(&self) -> u64 {
        self.provides
    }

    fn key(&self, pc: u64) -> (u64, u64) {
        let h = bputil::hash::mix64(pc >> 2);
        (h & (self.table.num_sets() as u64 - 1).max(1), h >> 40)
    }

    /// Looks up `pc`; returns a prediction only when the entry is
    /// confident and the global gate agrees.
    pub fn lookup(&mut self, pc: u64) -> LoopLookup {
        let (set, tag) = self.key(pc);
        #[allow(clippy::unnecessary_lazy_evaluations)]
        let pred = self.table.peek(set, tag).and_then(|e| {
            (e.confidence >= CONFIDENT && self.use_loop.taken()).then(|| {
                // The next occurrence is the exit once the in-loop count
                // reaches the learned trip count.
                if e.current_iter >= e.past_iter {
                    !e.dir
                } else {
                    e.dir
                }
            })
        });
        if pred.is_some() {
            self.provides += 1;
        }
        LoopLookup { pred, set, tag }
    }

    /// Trains on the resolved direction. `tage_pred` is the baseline
    /// prediction (used to learn the global gate) and `tage_mispredicted`
    /// gates new allocations, as in CBP-5.
    pub fn train(
        &mut self,
        lookup: &LoopLookup,
        taken: bool,
        tage_pred: bool,
        tage_mispredicted: bool,
    ) {
        if let Some(p) = lookup.pred {
            if p != tage_pred {
                // The gate learns from disagreements.
                self.use_loop.update(p == taken);
            }
        }
        if let Some(e) = self.table.get_mut(lookup.set, lookup.tag) {
            if taken == e.dir {
                e.current_iter = e.current_iter.saturating_add(1).min(MAX_ITER);
                if e.current_iter > e.past_iter && e.confidence > 0 {
                    // Ran past the learned trip count: the count changed.
                    e.confidence = 0;
                }
            } else {
                // Loop exit: compare against the learned trip count.
                if e.current_iter == e.past_iter {
                    e.confidence = (e.confidence + 1).min(15);
                    e.age = e.age.saturating_add(1).min(7);
                } else {
                    e.past_iter = e.current_iter;
                    e.confidence = 0;
                }
                e.current_iter = 0;
            }
            return;
        }
        // Allocate on a baseline misprediction. A loop exit mispredicts
        // against the repeated direction, so the repeated direction is the
        // *opposite* of the mispredicted outcome.
        if tage_mispredicted {
            let entry =
                LoopEntry { past_iter: 0, current_iter: 0, confidence: 0, dir: !taken, age: 3 };
            // Prefer the lowest-age way.
            self.table.insert_with(lookup.set, lookup.tag, entry, |_, _, e| e.age);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a fixed-trip loop: `trips - 1` taken back-edges then one
    /// not-taken exit, repeated.
    fn drive_loop(lp: &mut LoopPredictor, pc: u64, trips: usize, rounds: usize) -> (u64, u64) {
        let mut predicted = 0;
        let mut correct_exits = 0;
        for _ in 0..rounds {
            for i in 0..trips {
                let taken = i + 1 < trips;
                let l = lp.lookup(pc);
                if let Some(p) = l.pred {
                    predicted += 1;
                    if !taken && p == taken {
                        correct_exits += 1;
                    }
                }
                // Pretend TAGE always says "taken" (mispredicting exits).
                lp.train(&l, taken, true, !taken);
            }
        }
        (predicted, correct_exits)
    }

    #[test]
    fn learns_fixed_trip_count() {
        let mut lp = LoopPredictor::new(4);
        let (predicted, correct_exits) = drive_loop(&mut lp, 0x100, 7, 60);
        assert!(predicted > 0, "loop predictor never engaged");
        assert!(correct_exits > 30, "only {correct_exits} exits predicted");
    }

    #[test]
    fn stays_quiet_on_varying_trip_counts() {
        let mut lp = LoopPredictor::new(4);
        let mut rng = bputil::rng::SplitMix64::new(17);
        let mut engaged = 0;
        for _ in 0..200 {
            let trips = 2 + rng.below(10) as usize;
            for i in 0..trips {
                let taken = i + 1 < trips;
                let l = lp.lookup(0x200);
                if l.pred.is_some() {
                    engaged += 1;
                }
                lp.train(&l, taken, true, !taken);
            }
        }
        // Varying counts never build confidence, so engagement stays rare.
        assert!(engaged < 100, "engaged {engaged} times on a varying loop");
    }

    #[test]
    fn no_allocation_without_misprediction() {
        let mut lp = LoopPredictor::new(4);
        for _ in 0..100 {
            let l = lp.lookup(0x300);
            lp.train(&l, true, true, false); // baseline correct
        }
        assert_eq!(lp.provides(), 0);
    }
}
