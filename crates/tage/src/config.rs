//! Configuration of TAGE and TAGE-SC-L instances, with storage accounting.

/// How the tagged tables are backed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StorageKind {
    /// Fixed-size direct-mapped tables with partial tags — the realistic
    /// hardware organisation.
    #[default]
    Finite,
    /// Unbounded associativity with entries additionally tagged by the
    /// full branch PC, as the paper's `Inf` configurations do (§VI): hash
    /// functions and table count stay unchanged so the comparison isolates
    /// pure capacity.
    Infinite,
}

/// Configuration of the core TAGE predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct TageConfig {
    /// Geometric history length per tagged table, ascending. Repeated
    /// lengths model CBP-5's twin tables with alternate hash functions
    /// (the table id perturbs the hash, so twins never alias).
    pub history_lengths: Vec<usize>,
    /// Partial tag width per tagged table (bits).
    pub tag_bits: Vec<u32>,
    /// log2 entries per tagged table (1–30).
    pub index_bits: u32,
    /// log2 entries of the bimodal base predictor.
    pub bimodal_bits: u32,
    /// Width of the signed prediction counters (3 in CBP-5; 1–8).
    pub counter_bits: u32,
    /// Width of the usefulness counters (1–2 in CBP-5; 1–8).
    pub useful_bits: u32,
    /// Path-history width folded into table indices.
    pub path_bits: u32,
    /// Maximum tables examined when allocating after a misprediction.
    pub alloc_tries: usize,
    /// Storage backing (finite tables or the infinite study variant).
    pub storage: StorageKind,
    /// When `true`, record the set of patterns that ever provided a
    /// *useful* prediction per branch (Figs. 3b & 5 probes). Costs memory;
    /// off by default.
    pub track_useful: bool,
    /// PRNG seed for allocation tie-breaking.
    pub seed: u64,
}

impl TageConfig {
    /// The 21-table geometric series used throughout this reproduction.
    ///
    /// Lengths span 6..3000 as in CBP-5's 64 KiB TAGE-SC-L; the starred
    /// duplicates of the paper's LLBP length list (54, 78, 112, 161) are
    /// realised as twin tables with alternate hashes. The LLBP pattern
    /// lengths (§VI) are a strict subset of this list.
    pub const CBP5_LENGTHS: [usize; 21] = [
        6, 12, 18, 26, 36, 54, 54, 78, 78, 112, 112, 161, 161, 232, 336, 482, 695, 1010, 1444,
        2048, 3000,
    ];

    /// CBP-5-flavoured 64 KiB core TAGE: 21 tables of 1K entries.
    #[must_use]
    pub fn cbp64k() -> Self {
        let lengths = Self::CBP5_LENGTHS.to_vec();
        // Short-history tables use shorter tags, like CBP-5.
        let tag_bits = lengths
            .iter()
            .enumerate()
            .map(|(i, _)| {
                if i < 7 {
                    9
                } else if i < 14 {
                    11
                } else {
                    13
                }
            })
            .collect();
        Self {
            history_lengths: lengths,
            tag_bits,
            index_bits: 10,
            bimodal_bits: 13,
            counter_bits: 3,
            useful_bits: 1,
            path_bits: 27,
            alloc_tries: 3,
            storage: StorageKind::Finite,
            track_useful: false,
            seed: 0x7A6E,
        }
    }

    /// The same predictor with each tagged table scaled by `factor`
    /// (a power of two), as the paper's 128K–1M TSL configurations do.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not a power of two.
    #[must_use]
    pub fn scaled(factor: u32) -> Self {
        assert!(factor.is_power_of_two(), "scale factor must be a power of two");
        let mut cfg = Self::cbp64k();
        cfg.index_bits += factor.trailing_zeros();
        cfg
    }

    /// The infinite-capacity study variant (`Inf TAGE` tables): unchanged
    /// hashes, entries tagged by full PC, unbounded associativity.
    #[must_use]
    pub fn infinite() -> Self {
        Self { storage: StorageKind::Infinite, ..Self::cbp64k() }
    }

    /// Number of tagged tables.
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.history_lengths.len()
    }

    /// Longest history length used.
    #[must_use]
    pub fn max_history(&self) -> usize {
        self.history_lengths.iter().copied().max().unwrap_or(0)
    }

    /// Storage cost in bits (tagged tables + bimodal). Infinite storage
    /// reports the finite-equivalent geometry cost and is only meaningful
    /// for labelling.
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        let entries = 1u64 << self.index_bits;
        let tagged: u64 = self
            .tag_bits
            .iter()
            .map(|&t| entries * u64::from(t + self.counter_bits + self.useful_bits))
            .sum();
        // Bimodal: 1 direction bit per entry + shared hysteresis (1 bit
        // per 4 entries), the CBP-5 split.
        let bimodal = (1u64 << self.bimodal_bits) + (1u64 << self.bimodal_bits) / 4;
        tagged + bimodal
    }

    /// Validates internal consistency, and that every width fits the
    /// storage fields TAGE keeps it in: one-byte prediction and usefulness
    /// counters, 16-bit tags and (in infinite storage) 32-bit indices.
    /// Index widths stop at 30, where the index hash's PC scramble
    /// (`pc >> (2·index_bits + 2)`) still shifts by less than 64.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.history_lengths.is_empty() {
            return Err("at least one tagged table is required".into());
        }
        if self.tag_bits.len() != self.history_lengths.len() {
            return Err(format!(
                "tag_bits has {} entries but there are {} tables",
                self.tag_bits.len(),
                self.history_lengths.len()
            ));
        }
        if self.history_lengths.windows(2).any(|w| w[0] > w[1]) {
            return Err("history lengths must be ascending".into());
        }
        if self.history_lengths[0] == 0 {
            return Err("history lengths must be non-zero".into());
        }
        if !(1..=8).contains(&self.counter_bits) {
            return Err(format!("counter_bits must be in 1..=8, got {}", self.counter_bits));
        }
        if !(1..=8).contains(&self.useful_bits) {
            return Err(format!("useful_bits must be in 1..=8, got {}", self.useful_bits));
        }
        if !(1..=30).contains(&self.index_bits) {
            return Err(format!("index_bits must be in 1..=30, got {}", self.index_bits));
        }
        if self.tag_bits.iter().any(|&t| !(4..=16).contains(&t)) {
            return Err("tag widths must be in 4..=16".into());
        }
        Ok(())
    }
}

impl Default for TageConfig {
    fn default() -> Self {
        Self::cbp64k()
    }
}

/// Configuration of the full TAGE-SC-L predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct TslConfig {
    /// Core TAGE configuration.
    pub tage: TageConfig,
    /// Enable the statistical corrector.
    pub sc_enabled: bool,
    /// log2 entries of each SC component table (1–30).
    pub sc_index_bits: u32,
    /// Global-history lengths of the SC's GEHL components.
    pub sc_history_lengths: Vec<usize>,
    /// Enable the loop predictor.
    pub loop_enabled: bool,
    /// log2 sets of the loop predictor (4-way associative).
    pub loop_index_bits: u32,
    /// Human-readable label used in reports ("64K TSL", …).
    pub label: String,
}

impl TslConfig {
    /// The baseline 64 KiB TAGE-SC-L (the paper's `64K TSL`).
    #[must_use]
    pub fn cbp64k() -> Self {
        Self::baseline_around(TageConfig::cbp64k(), "64K TSL".into())
    }

    /// The baseline's SC and loop predictor around `tage`. The presets
    /// start from it rather than from [`TslConfig::cbp64k`], whose TAGE
    /// vectors and label they would build only to replace.
    fn baseline_around(tage: TageConfig, label: String) -> Self {
        Self {
            tage,
            sc_enabled: true,
            sc_index_bits: 10,
            sc_history_lengths: vec![0, 3, 8, 12, 17, 27, 44],
            loop_enabled: true,
            loop_index_bits: 4,
            label,
        }
    }

    /// TSL with TAGE tables scaled by `factor` (the paper's 128K–1M TSL).
    /// The auxiliary components keep their baseline size, matching the
    /// paper's `Inf TAGE` isolation argument.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not a power of two.
    #[must_use]
    pub fn scaled(factor: u32) -> Self {
        Self::baseline_around(TageConfig::scaled(factor), format!("{}K TSL", 64 * factor))
    }

    /// `Inf TAGE`: unbounded TAGE tables, baseline SC and loop predictor.
    #[must_use]
    pub fn infinite_tage() -> Self {
        Self::baseline_around(TageConfig::infinite(), "Inf TAGE".into())
    }

    /// `Inf TSL`: unbounded TAGE tables *and* enlarged auxiliary
    /// components (the paper scales SC/loop tables to 2M entries).
    #[must_use]
    pub fn infinite_tsl() -> Self {
        Self {
            sc_index_bits: 21,
            loop_index_bits: 12,
            ..Self::baseline_around(TageConfig::infinite(), "Inf TSL".into())
        }
    }

    /// Whether predictors of `self` and `other` keep the same histories
    /// and compute the same per-lookup hashes from them: equal TAGE
    /// lengths, index, tag and path bits, and an equal statistical
    /// corrector. Storage, counters and the loop predictor may differ.
    #[must_use]
    pub fn same_history(&self, other: &Self) -> bool {
        let (a, b) = (&self.tage, &other.tage);
        (&a.history_lengths, &a.tag_bits, a.index_bits, a.path_bits)
            == (&b.history_lengths, &b.tag_bits, b.index_bits, b.path_bits)
            && self.sc_enabled == other.sc_enabled
            && (!self.sc_enabled
                || (self.sc_index_bits, &self.sc_history_lengths)
                    == (other.sc_index_bits, &other.sc_history_lengths))
    }

    /// Storage bits of the whole composition (finite geometry).
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        let mut bits = self.tage.storage_bits();
        if self.sc_enabled {
            // 6-bit counters per GEHL/bias table entry.
            bits += (self.sc_history_lengths.len() as u64 + 2) * (1u64 << self.sc_index_bits) * 6;
        }
        if self.loop_enabled {
            // ~52 bits per loop entry, 4 ways per set.
            bits += 4 * (1u64 << self.loop_index_bits) * 52;
        }
        bits
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.tage.validate()?;
        if self.sc_enabled && self.sc_history_lengths.is_empty() {
            return Err("SC enabled but no component history lengths given".into());
        }
        if self.sc_enabled && !(1..=30).contains(&self.sc_index_bits) {
            return Err(format!("sc_index_bits must be in 1..=30, got {}", self.sc_index_bits));
        }
        Ok(())
    }
}

impl Default for TslConfig {
    fn default() -> Self {
        Self::cbp64k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_roughly_64_kib() {
        let bits = TslConfig::cbp64k().storage_bits();
        let kib = bits as f64 / 8192.0;
        assert!((40.0..80.0).contains(&kib), "baseline is {kib:.1} KiB");
    }

    #[test]
    fn scaled_grows_by_factor() {
        let base = TageConfig::cbp64k().storage_bits();
        let big = TageConfig::scaled(8).storage_bits();
        // Tagged tables grow 8x; bimodal stays, so ratio is slightly below 8.
        assert!(big > 6 * base && big < 9 * base);
    }

    #[test]
    fn llbp_lengths_are_a_subset() {
        let llbp = [12, 26, 54, 54, 78, 78, 112, 112, 161, 161, 232, 336, 482, 695, 1444, 3000];
        let mut pool: Vec<usize> = TageConfig::CBP5_LENGTHS.to_vec();
        for l in llbp {
            let pos = pool.iter().position(|&x| x == l).expect("length present");
            pool.remove(pos);
        }
    }

    #[test]
    fn validate_accepts_presets() {
        TslConfig::cbp64k().validate().unwrap();
        TslConfig::scaled(8).validate().unwrap();
        TslConfig::infinite_tage().validate().unwrap();
        TslConfig::infinite_tsl().validate().unwrap();
    }

    #[test]
    fn validate_rejects_descending_lengths() {
        let mut cfg = TageConfig::cbp64k();
        cfg.history_lengths = vec![10, 5];
        cfg.tag_bits = vec![9, 9];
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_mismatched_tags() {
        let mut cfg = TageConfig::cbp64k();
        cfg.tag_bits.pop();
        assert!(cfg.validate().is_err());
    }

    /// `cbp64k` with one field changed, validated.
    fn validate_with(change: impl FnOnce(&mut TageConfig)) -> Result<(), String> {
        let mut cfg = TageConfig::cbp64k();
        change(&mut cfg);
        cfg.validate()
    }

    #[test]
    fn validate_limits_counter_bits_to_a_byte() {
        assert!(validate_with(|c| c.counter_bits = 8).is_ok());
        assert!(validate_with(|c| c.counter_bits = 9).unwrap_err().contains("counter_bits"));
        assert!(validate_with(|c| c.counter_bits = 0).unwrap_err().contains("counter_bits"));
    }

    #[test]
    fn validate_limits_useful_bits_to_a_byte() {
        assert!(validate_with(|c| c.useful_bits = 8).is_ok());
        assert!(validate_with(|c| c.useful_bits = 9).unwrap_err().contains("useful_bits"));
        assert!(validate_with(|c| c.useful_bits = 0).unwrap_err().contains("useful_bits"));
    }

    #[test]
    fn validate_limits_index_bits_to_30() {
        assert!(validate_with(|c| c.index_bits = 30).is_ok());
        assert!(validate_with(|c| c.index_bits = 31).unwrap_err().contains("index_bits"));
        assert!(validate_with(|c| c.index_bits = 32).unwrap_err().contains("index_bits"));
        assert!(validate_with(|c| c.index_bits = 0).unwrap_err().contains("index_bits"));
    }

    #[test]
    fn validate_limits_sc_index_bits_to_30() {
        let with = |bits: u32| TslConfig { sc_index_bits: bits, ..TslConfig::cbp64k() }.validate();
        assert!(with(30).is_ok());
        assert!(with(31).unwrap_err().contains("sc_index_bits"));
        assert!(with(32).unwrap_err().contains("sc_index_bits"));
        assert!(with(0).unwrap_err().contains("sc_index_bits"));
    }

    #[test]
    fn validate_limits_tag_bits_to_16() {
        assert!(validate_with(|c| c.tag_bits[0] = 16).is_ok());
        assert!(validate_with(|c| c.tag_bits[0] = 17).unwrap_err().contains("tag widths"));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn scaled_requires_power_of_two() {
        let _ = TageConfig::scaled(3);
    }

    #[test]
    fn presets_keep_their_values() {
        let lengths = TageConfig::CBP5_LENGTHS.to_vec();
        let tags = [[9; 7], [11; 7], [13; 7]].concat();
        let tage = TageConfig {
            history_lengths: lengths,
            tag_bits: tags,
            index_bits: 10,
            bimodal_bits: 13,
            counter_bits: 3,
            useful_bits: 1,
            path_bits: 27,
            alloc_tries: 3,
            storage: StorageKind::Finite,
            track_useful: false,
            seed: 0x7A6E,
        };
        let base = TslConfig {
            tage: tage.clone(),
            sc_enabled: true,
            sc_index_bits: 10,
            sc_history_lengths: vec![0, 3, 8, 12, 17, 27, 44],
            loop_enabled: true,
            loop_index_bits: 4,
            label: "64K TSL".into(),
        };
        let infinite = TageConfig { storage: StorageKind::Infinite, ..tage.clone() };
        assert_eq!(TageConfig::cbp64k(), tage);
        assert_eq!(TageConfig::infinite(), infinite);
        assert_eq!(TslConfig::cbp64k(), base);
        assert_eq!(
            TslConfig::scaled(8),
            TslConfig {
                tage: TageConfig { index_bits: 13, ..tage.clone() },
                label: "512K TSL".into(),
                ..base.clone()
            }
        );
        assert_eq!(
            TslConfig::scaled(1),
            TslConfig { tage: tage.clone(), label: "64K TSL".into(), ..base.clone() }
        );
        assert_eq!(
            TslConfig::infinite_tage(),
            TslConfig { tage: infinite.clone(), label: "Inf TAGE".into(), ..base.clone() }
        );
        assert_eq!(
            TslConfig::infinite_tsl(),
            TslConfig {
                tage: infinite,
                sc_index_bits: 21,
                loop_index_bits: 12,
                label: "Inf TSL".into(),
                ..base
            }
        );
    }

    #[test]
    fn labels_follow_paper_naming() {
        assert_eq!(TslConfig::cbp64k().label, "64K TSL");
        assert_eq!(TslConfig::scaled(8).label, "512K TSL");
        assert_eq!(TslConfig::infinite_tsl().label, "Inf TSL");
    }
}
