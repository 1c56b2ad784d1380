//! A branch target buffer (Table II: 16K entries, 8-way).
//!
//! The BTB is not a direction predictor; it caches decoded branch targets
//! so the front-end can redirect fetch without waiting for decode. A BTB
//! miss on a taken branch costs a front-end redirect — one of the two
//! pipeline-reset sources that squash LLBP's prefetches (§VI).

use bputil::hash::mix64;
use bputil::table::SetAssoc;

/// A branch target buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Btb {
    table: SetAssoc<u64>,
    lookups: u64,
    misses: u64,
}

impl Btb {
    /// Creates a BTB with `2^index_bits` sets of `ways` entries
    /// (Table II: 11 index bits × 8 ways = 16K entries).
    #[must_use]
    pub fn new(index_bits: u32, ways: usize) -> Self {
        Self { table: SetAssoc::new(index_bits, ways), lookups: 0, misses: 0 }
    }

    /// The Table II configuration.
    #[must_use]
    pub fn table2() -> Self {
        Self::new(11, 8)
    }

    fn key(&self, pc: u64) -> (u64, u64) {
        let h = mix64(pc >> 1);
        (h & (self.table.num_sets() as u64 - 1), h >> 20)
    }

    /// Looks up the cached target for the branch at `pc`.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        self.lookups += 1;
        let (set, tag) = self.key(pc);
        let hit = self.table.get(set, tag).copied();
        if hit.is_none() {
            self.misses += 1;
        }
        hit
    }

    /// Installs or refreshes the target for `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        let (set, tag) = self.key(pc);
        self.table.insert_lru(set, tag, target);
    }

    /// [`Btb::lookup`] of `pc`, then [`Btb::update`] to `target`, in one
    /// scan of the set ([`SetAssoc::get_then_insert_lru`]): the entries,
    /// their LRU ticks and the counts end as the two calls leave them.
    /// Returns whether the lookup hit.
    pub fn lookup_and_update(&mut self, pc: u64, target: u64) -> bool {
        self.lookups += 1;
        let (set, tag) = self.key(pc);
        let hit = self.table.get_then_insert_lru(set, tag, target);
        self.misses += u64::from(!hit);
        hit
    }

    /// Empties the BTB and zeroes its counts: the state [`Btb::new`] of
    /// its geometry leaves.
    pub fn reset(&mut self) {
        self.table.reset();
        self.lookups = 0;
        self.misses = 0;
    }

    /// Lookups so far.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate over all lookups.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups as f64
        }
    }
}

impl Default for Btb {
    fn default() -> Self {
        Self::table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut btb = Btb::table2();
        assert_eq!(btb.lookup(0x1000), None);
        btb.update(0x1000, 0x2000);
        assert_eq!(btb.lookup(0x1000), Some(0x2000));
        assert_eq!(btb.misses(), 1);
        assert_eq!(btb.lookups(), 2);
    }

    #[test]
    fn update_replaces_target() {
        let mut btb = Btb::table2();
        btb.update(0x1000, 0x2000);
        btb.update(0x1000, 0x3000);
        assert_eq!(btb.lookup(0x1000), Some(0x3000));
    }

    #[test]
    fn capacity_evicts_old_entries() {
        let mut btb = Btb::new(2, 2); // 8 entries total
        for i in 0..64u64 {
            btb.update(0x1000 + i * 8, i);
        }
        let resident = (0..64u64).filter(|i| btb.lookup(0x1000 + i * 8).is_some()).count();
        assert!(resident <= 8, "only {resident} can be resident in an 8-entry BTB");
    }

    #[test]
    fn one_scan_matches_a_lookup_then_an_update() {
        use bputil::rng::SplitMix64;
        // Two sets of 4 ways and 24 PCs: most accesses miss a full set
        // and evict.
        let (mut fused, mut pair) = (Btb::new(1, 4), Btb::new(1, 4));
        let mut rng = SplitMix64::new(0xB7B);
        for step in 0..5_000 {
            let pc = 0x4000 + rng.below(24) * 4;
            let target = rng.next_u64();
            let hit = fused.lookup_and_update(pc, target);
            let want = pair.lookup(pc).is_some();
            pair.update(pc, target);
            assert_eq!(hit, want, "hit differs at step {step}");
            assert_eq!(fused, pair, "entries, ticks or counts differ at step {step}");
        }
        assert!(fused.table.evictions() > 1_000, "the sets fill and evict");
        assert_eq!((fused.lookups(), fused.misses()), (pair.lookups(), pair.misses()));
        let resident: Vec<_> = fused.table.iter().collect();
        assert_eq!(resident, pair.table.iter().collect::<Vec<_>>());
        assert_eq!(resident.len(), 8);
    }

    #[test]
    fn miss_rate_decreases_with_locality() {
        let mut btb = Btb::table2();
        for _ in 0..10 {
            for pc in (0x1000u64..0x1100).step_by(8) {
                if btb.lookup(pc).is_none() {
                    btb.update(pc, pc + 64);
                }
            }
        }
        assert!(btb.miss_rate() < 0.2, "rate {:.2}", btb.miss_rate());
    }
}
