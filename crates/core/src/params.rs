//! LLBP configuration (§VI of the paper, plus the Fig. 13/14 study knobs).

/// Victim selection for pattern sets in the context directory.
///
/// The paper found plain LRU "a poor policy choice" and instead keeps the
/// sets with many high-confidence patterns (§V-D step 1); both are
/// provided so the claim can be reproduced as an ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CdReplacement {
    /// Evict the set with the fewest high-confidence patterns (paper).
    #[default]
    Confidence,
    /// Evict the least-recently-used set (the ablation baseline).
    Lru,
}

/// When the baseline's update is cancelled under an LLBP override (§V-D:
/// "only when LLBP overrides TAGE will the PB update the providing
/// pattern while TAGE will cancel its update").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CancelPolicy {
    /// Never cancel: the baseline dual-trains under every override. In
    /// our evaluation this avoids baseline decay on workloads where LLBP
    /// provides little, without measurably costing the strong workloads.
    #[default]
    Never,
    /// Cancel only when LLBP changed the direction.
    OnDisagree,
    /// Cancel on every override — the paper's literal wording.
    Always,
}

/// Which branches feed the rolling context register (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ContextHistoryKind {
    /// All unconditional branches — the paper's choice (best at D = 4).
    #[default]
    Unconditional,
    /// Calls and returns only — too coarse (§VII-E).
    CallReturn,
    /// Every branch including conditionals — too noisy (§VII-E).
    All,
}

impl ContextHistoryKind {
    /// Whether `record` participates in a context history of this kind.
    #[inline]
    #[must_use]
    pub fn observes(self, record: &llbp_trace::BranchRecord) -> bool {
        match self {
            ContextHistoryKind::Unconditional => record.kind().is_unconditional(),
            ContextHistoryKind::CallReturn => record.kind().is_call_or_return(),
            ContextHistoryKind::All => record.kind().is_unconditional() || record.taken(),
        }
    }
}

/// LLBP configuration. [`LlbpParams::default`] reproduces the paper's
/// evaluated design (§VI): 14K pattern sets of 16 patterns (4 buckets × 4),
/// 13-bit pattern tags, 3-bit counters, CD 7-way with 2-bit confidence
/// replacement, 64-entry 4-way PB, `W = 8`, `D = 4`, 6-cycle prefetch
/// delay.
#[derive(Debug, Clone, PartialEq)]
pub struct LlbpParams {
    /// The 16 pattern history lengths, ascending, grouped into buckets of
    /// `patterns_per_set / num_buckets`. Must be a subset of the backing
    /// TAGE's lengths so history-length arbitration is meaningful.
    pub history_lengths: Vec<usize>,
    /// Patterns per pattern set (16 in the paper).
    pub patterns_per_set: usize,
    /// Number of history-length buckets per set (4 in the paper);
    /// set to 1 to disable bucketing (the Fig. 14 study mode).
    pub num_buckets: usize,
    /// Pattern tag width in bits (13).
    pub tag_bits: u32,
    /// Pattern prediction counter width in bits (3).
    pub counter_bits: u32,
    /// log2 sets of the context directory / backing storage.
    pub cd_index_bits: u32,
    /// Context directory associativity (7). Use
    /// [`LlbpParams::study_full_assoc`] for the Fig. 14 fully-associative
    /// variant.
    pub cd_ways: usize,
    /// Context ID width in bits (14; 31 in the Fig. 14 study).
    pub cid_bits: u32,
    /// log2 sets of the pattern buffer (4 → 16 sets × 4 ways = 64).
    pub pb_index_bits: u32,
    /// Pattern buffer associativity (4).
    pub pb_ways: usize,
    /// Context window: unconditional branches hashed into a CID (W = 8).
    pub window: usize,
    /// Prefetch distance: most recent branches excluded from the current
    /// CID (D = 4).
    pub prefetch_distance: usize,
    /// Cycles between issuing a prefetch and the pattern set being usable
    /// (6 = CD + LLBP array + logic, Table III). 0 models `LLBP-0Lat`.
    pub prefetch_delay: u64,
    /// Fetch width used to convert instruction counts into cycles.
    pub fetch_width: u64,
    /// Which branches form the context (Fig. 13).
    pub history_kind: ContextHistoryKind,
    /// Confidence (distance from the weak counter states) at or above
    /// which a pattern counts as high-confidence for CD replacement.
    pub confidence_threshold: u32,
    /// Pattern-set victim selection policy in the context directory.
    pub cd_replacement: CdReplacement,
    /// Baseline update cancellation policy under LLBP overrides.
    pub cancel_policy: CancelPolicy,
    /// When `true`, a weak (just-allocated) LLBP pattern does not override
    /// a baseline prediction backed by a tagged TAGE match — the same
    /// new-entry caution TAGE itself applies via `use_alt_on_na`.
    /// Off by default (the paper's arbitration is unconditional, §V-B);
    /// measured as an ablation, gating blocks more good overrides than
    /// bad ones.
    pub weak_override_gate: bool,
    /// Backing TAGE-SC-L configuration.
    pub tsl: llbp_tage::TslConfig,
    /// Label used in reports.
    pub label: String,
}

impl Default for LlbpParams {
    fn default() -> Self {
        Self {
            history_lengths: vec![
                12, 26, 54, 54, 78, 78, 112, 112, 161, 161, 232, 336, 482, 695, 1444, 3000,
            ],
            patterns_per_set: 16,
            num_buckets: 4,
            tag_bits: 13,
            counter_bits: 3,
            cd_index_bits: 11,
            cd_ways: 7,
            cid_bits: 14,
            pb_index_bits: 4,
            pb_ways: 4,
            window: 8,
            prefetch_distance: 4,
            prefetch_delay: 6,
            fetch_width: 6,
            history_kind: ContextHistoryKind::Unconditional,
            confidence_threshold: 2,
            cd_replacement: CdReplacement::Confidence,
            cancel_policy: CancelPolicy::Never,
            weak_override_gate: false,
            tsl: llbp_tage::TslConfig::cbp64k(),
            label: "LLBP".into(),
        }
    }
}

impl LlbpParams {
    /// The paper's `LLBP-0Lat` upper-bound configuration: no prefetch
    /// delay, so late prefetches never cost predictions.
    #[must_use]
    pub fn zero_latency() -> Self {
        Self { prefetch_delay: 0, label: "LLBP-0Lat".into(), ..Self::default() }
    }

    /// The same design with a different pattern-buffer capacity (used by
    /// the Fig. 11/12 PB sweeps). Associativity stays 4-way.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two of at least 4.
    #[must_use]
    pub fn with_pb_entries(mut self, entries: usize) -> Self {
        assert!(
            entries.is_power_of_two() && entries >= 4,
            "PB entries must be a power of two >= 4"
        );
        self.pb_ways = 4;
        self.pb_index_bits = (entries / 4).trailing_zeros();
        self.label = format!("{} (PB {entries})", self.label);
        self
    }

    /// The Fig. 14 study variant: a highly-associative (64-way) context
    /// index with wide (31-bit) context tags, no bucketing, zero latency —
    /// isolating pattern-set sizing from associativity and prefetch
    /// effects. (The paper uses full associativity; 64 ways is a
    /// simulation-speed compromise that removes essentially all conflict
    /// bias at these sizes.)
    ///
    /// # Panics
    ///
    /// Panics unless `contexts` is a power of two of at least 64.
    #[must_use]
    pub fn study_full_assoc(contexts: usize, set_size: usize) -> Self {
        assert!(
            contexts.is_power_of_two() && contexts >= 64,
            "study contexts must be a power of two >= 64"
        );
        Self {
            patterns_per_set: set_size,
            num_buckets: 1,
            cd_index_bits: (contexts / 64).trailing_zeros(),
            cd_ways: 64,
            cid_bits: 31,
            pb_index_bits: 0,
            pb_ways: 64,
            prefetch_delay: 0,
            label: format!("LLBP-study-{contexts}x{set_size}"),
            ..Self::default()
        }
    }

    /// Patterns per bucket.
    ///
    /// # Panics
    ///
    /// Panics if `patterns_per_set` is not a multiple of `num_buckets`.
    #[must_use]
    pub fn bucket_size(&self) -> usize {
        assert_eq!(
            self.patterns_per_set % self.num_buckets,
            0,
            "patterns_per_set must be a multiple of num_buckets"
        );
        self.patterns_per_set / self.num_buckets
    }

    /// Total pattern-set capacity (CD sets × ways).
    #[must_use]
    pub fn num_contexts(&self) -> usize {
        (1usize << self.cd_index_bits) * self.cd_ways
    }

    /// Bits per pattern (tag + counter + length field).
    #[must_use]
    pub fn pattern_bits(&self) -> u64 {
        u64::from(self.tag_bits + self.counter_bits) + 2
    }

    /// Bits per pattern set (288 for the default 16 × 18-bit patterns).
    #[must_use]
    pub fn pattern_set_bits(&self) -> u64 {
        self.pattern_bits() * self.patterns_per_set as u64
    }

    /// Bulk LLBP storage in bits (pattern sets only).
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        self.num_contexts() as u64 * self.pattern_set_bits()
    }

    /// Context-directory metadata bits (valid + tag + 2-bit replacement
    /// counter per entry).
    #[must_use]
    pub fn cd_bits(&self) -> u64 {
        let tag_bits = u64::from(self.cid_bits.saturating_sub(self.cd_index_bits));
        self.num_contexts() as u64 * (1 + tag_bits + 2)
    }

    /// Pattern buffer storage bits.
    #[must_use]
    pub fn pb_bits(&self) -> u64 {
        let entries = (1u64 << self.pb_index_bits) * self.pb_ways as u64;
        entries * (self.pattern_set_bits() + u64::from(self.cid_bits) + 2)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.history_lengths.is_empty() {
            return Err("LLBP needs at least one history length".into());
        }
        if self.history_lengths.len() > crate::pattern::MAX_LENGTHS {
            return Err(format!(
                "LLBP supports at most {} history lengths, got {}",
                crate::pattern::MAX_LENGTHS,
                self.history_lengths.len()
            ));
        }
        if self.history_lengths.windows(2).any(|w| w[0] > w[1]) {
            return Err("LLBP history lengths must be ascending".into());
        }
        if self.num_buckets == 0 || !self.patterns_per_set.is_multiple_of(self.num_buckets) {
            return Err("patterns_per_set must be a positive multiple of num_buckets".into());
        }
        if self.history_lengths.len() != self.patterns_per_set && self.num_buckets > 1 {
            return Err(format!(
                "bucketed mode needs one history length per pattern slot \
                 ({} lengths vs {} patterns)",
                self.history_lengths.len(),
                self.patterns_per_set
            ));
        }
        if self.window == 0 {
            return Err("context window must be non-zero".into());
        }
        // The widths a packed `Pattern` holds, the limits
        // `TageConfig::validate` applies to TAGE's own entries.
        let max_tag = crate::pattern::MAX_TAG_BITS;
        if !(1..=max_tag).contains(&self.tag_bits) {
            return Err(format!("tag_bits must be in 1..={max_tag}, got {}", self.tag_bits));
        }
        let max_ctr = crate::pattern::MAX_COUNTER_BITS;
        if !(1..=max_ctr).contains(&self.counter_bits) {
            return Err(format!(
                "counter_bits must be in 1..={max_ctr}, got {}",
                self.counter_bits
            ));
        }
        // The pattern tags are lanes of the baseline's hash loop, after
        // TAGE's index and tag lanes and the corrector's.
        let sc_lanes = if self.tsl.sc_enabled { 2 + self.tsl.sc_history_lengths.len() } else { 0 };
        let lanes = 2 * self.tsl.tage.num_tables() + sc_lanes + self.history_lengths.len();
        if lanes > bputil::kernel::MAX_LANES {
            return Err(format!(
                "{lanes} hash lanes (TAGE, corrector and pattern tags) exceed the loop's {}",
                bputil::kernel::MAX_LANES
            ));
        }
        // Every LLBP length must exist in the backing TAGE so the
        // history-length arbitration compares like with like.
        for &l in &self.history_lengths {
            if !self.tsl.tage.history_lengths.contains(&l) {
                return Err(format!("LLBP length {l} is not a TAGE history length"));
            }
        }
        self.tsl.validate()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_numbers() {
        let p = LlbpParams::default();
        p.validate().unwrap();
        assert_eq!(p.pattern_bits(), 18, "3-bit ctr + 13-bit tag + 2-bit length");
        assert_eq!(p.pattern_set_bits(), 288);
        assert_eq!(p.num_contexts(), 14_336, "≈14K pattern sets");
        // Paper: 504 KiB LLBP storage, 8.75 KiB CD, 2.25 KiB PB.
        let llbp_kib = p.storage_bits() as f64 / 8192.0;
        assert!((490.0..520.0).contains(&llbp_kib), "LLBP storage {llbp_kib:.1} KiB");
        let cd_kib = p.cd_bits() as f64 / 8192.0;
        assert!((8.0..12.0).contains(&cd_kib), "CD {cd_kib:.2} KiB");
        let pb_kib = p.pb_bits() as f64 / 8192.0;
        assert!((2.0..3.0).contains(&pb_kib), "PB {pb_kib:.2} KiB");
    }

    #[test]
    fn zero_latency_differs_only_in_delay() {
        let a = LlbpParams::default();
        let b = LlbpParams::zero_latency();
        assert_eq!(b.prefetch_delay, 0);
        assert_eq!(a.history_lengths, b.history_lengths);
    }

    #[test]
    fn study_variant_disables_bucketing() {
        let p = LlbpParams::study_full_assoc(16_384, 8);
        assert_eq!(p.num_buckets, 1);
        assert_eq!(p.num_contexts(), 16_384);
        assert_eq!(p.cd_ways, 64);
        p.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn study_variant_rejects_odd_sizes() {
        let _ = LlbpParams::study_full_assoc(10_000, 16);
    }

    #[test]
    fn validate_rejects_alien_lengths() {
        let mut p = LlbpParams::default();
        p.history_lengths[0] = 13; // not a TAGE length
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_caps_widths_at_what_a_pattern_holds() {
        let with = |tag_bits: u32, counter_bits: u32| {
            LlbpParams { tag_bits, counter_bits, ..LlbpParams::default() }.validate()
        };
        assert!(with(16, 8).is_ok());
        assert!(with(17, 3).unwrap_err().contains("tag_bits"));
        assert!(with(0, 3).unwrap_err().contains("tag_bits"));
        assert!(with(13, 9).unwrap_err().contains("counter_bits"));
        assert!(with(13, 0).unwrap_err().contains("counter_bits"));
    }

    #[test]
    fn validate_rejects_bad_buckets() {
        let mut p = LlbpParams::default();
        p.num_buckets = 3; // 16 % 3 != 0
        assert!(p.validate().is_err());
    }
}
