//! Branch outcome behaviours for the synthetic program model.
//!
//! Every conditional branch in a generated program is assigned one
//! [`Behavior`] that determines its outcome stream. To be *learnable by a
//! global-history predictor* (and thus faithful to the paper's setting),
//! the non-trivial behaviours are deterministic functions of the **recent
//! global outcome history** — optionally conditioned on the **calling
//! context**:
//!
//! * [`Behavior::PathTable`] branches implement a per-branch truth table
//!   over the last `k` conditional outcomes: a short global history
//!   predicts them perfectly, so any TAGE captures them cheaply.
//! * [`Behavior::ContextTable`] branches implement a *per-(branch,
//!   context)* truth table over the last `k` outcomes. Globally the branch
//!   needs (contexts × 2^k) patterns — it must encode the calling context
//!   through very long histories, exactly the §IV "complex branch"
//!   structure — while *within* one context at most `2^k` (typically
//!   fewer) patterns suffice. This is the locality LLBP exploits.
//! * [`Behavior::GlobalParity`] stresses long-but-context-free history.
//! * [`Behavior::Biased`] and [`Behavior::Random`] bound the easy and
//!   irreducible ends of the spectrum.

use bputil::hash::mix64;
use bputil::rng::SplitMix64;

/// The outcome model of one static conditional branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Behavior {
    /// Taken with fixed probability `p_taken` (error-check / fast-path
    /// branches). `p_taken` near 0 or 1 makes the branch trivially easy.
    Biased {
        /// Probability of being taken, in `[0, 1]`.
        p_taken: f64,
    },
    /// A fixed per-branch truth table over the last `k` global conditional
    /// outcomes. Perfectly predictable from a short global history.
    PathTable {
        /// History bits consulted (`1..=6`).
        k: u32,
    },
    /// Outcome equals the parity of the last `lookback` conditional
    /// outcomes — easy for TAGE when `lookback` is small, capacity-hungry
    /// when it is long.
    GlobalParity {
        /// How far back the parity window reaches (`1..=64`).
        lookback: u32,
    },
    /// The LLBP-relevant class: a *per-(branch, calling-context)* truth
    /// table over the last `k` outcomes. Needs long histories (to encode
    /// the context) globally, but only a handful of short patterns within
    /// any one context.
    ContextTable {
        /// History bits consulted per context (`1..=6`).
        k: u32,
    },
    /// Purely random with probability `p_taken` — irreducible noise that
    /// bounds every predictor away from zero MPKI.
    Random {
        /// Probability of being taken, in `[0, 1]`.
        p_taken: f64,
    },
}

impl Behavior {
    /// `true` for the context-dependent class (used by analysis tooling to
    /// find the "complex branches").
    #[must_use]
    pub fn is_context_dependent(&self) -> bool {
        matches!(self, Behavior::ContextTable { .. })
    }
}

/// Mutable evaluation state shared by all branches of one program run.
#[derive(Debug, Default)]
pub struct BehaviorState {
    /// Last 64 conditional outcomes, bit 0 = most recent.
    global_outcomes: u64,
}

impl BehaviorState {
    /// Creates fresh state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates `behavior` for the branch at `pc` under calling context
    /// signature `ctx_sig` and records the outcome in the global outcome
    /// history.
    pub fn evaluate(
        &mut self,
        behavior: Behavior,
        pc: u64,
        ctx_sig: u64,
        rng: &mut SplitMix64,
    ) -> bool {
        let outcome = match behavior {
            Behavior::Biased { p_taken } | Behavior::Random { p_taken } => {
                probability_hit(rng, p_taken)
            }
            Behavior::PathTable { k } => {
                let idx = self.global_outcomes & mask64(k.clamp(1, 6));
                (biased_table(mix64(pc)) >> idx) & 1 == 1
            }
            Behavior::GlobalParity { lookback } => {
                let window = self.global_outcomes & mask64(lookback.clamp(1, 64));
                window.count_ones() % 2 == 1
            }
            Behavior::ContextTable { k } => {
                let idx = self.global_outcomes & mask64(k.clamp(1, 6));
                // A context-specific 64-bit truth table, derived
                // deterministically so the same context always replays the
                // same function of recent history.
                let table = biased_table(mix64(pc ^ ctx_sig.rotate_left(17)));
                (table >> idx) & 1 == 1
            }
        };
        self.global_outcomes = (self.global_outcomes << 1) | u64::from(outcome);
        outcome
    }
}

/// Skews a raw 64-bit truth table towards one direction, like real
/// correlated branches (which are rarely 50/50): ANDing (or ORing) two
/// independent mixes yields ≈25% (or ≈75%) taken entries, direction chosen
/// per table.
fn biased_table(seed: u64) -> u64 {
    let a = mix64(seed ^ 0xA5A5_A5A5_A5A5_A5A5);
    let b = mix64(seed ^ 0x3C3C_3C3C_3C3C_3C3C);
    if seed & 1 == 0 {
        a & b
    } else {
        a | b
    }
}

fn probability_hit(rng: &mut SplitMix64, p: f64) -> bool {
    debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    let threshold = (p.clamp(0.0, 1.0) * f64::from(u32::MAX)) as u64;
    rng.next_u64() >> 32 < threshold
}

fn mask64(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(99)
    }

    #[test]
    fn biased_full_probabilities_are_constant() {
        let mut st = BehaviorState::new();
        let mut r = rng();
        for _ in 0..100 {
            assert!(st.evaluate(Behavior::Biased { p_taken: 1.0 }, 1, 0, &mut r));
            assert!(!st.evaluate(Behavior::Biased { p_taken: 0.0 }, 2, 0, &mut r));
        }
    }

    #[test]
    fn random_half_is_roughly_half() {
        let mut st = BehaviorState::new();
        let mut r = rng();
        let taken = (0..10_000)
            .filter(|_| st.evaluate(Behavior::Random { p_taken: 0.5 }, 3, 0, &mut r))
            .count();
        assert!((4_000..6_000).contains(&taken), "taken={taken}");
    }

    #[test]
    fn path_table_is_a_function_of_recent_history() {
        // Two runs that replay the same outcome prefix must agree on the
        // PathTable branch's outcome.
        let drive = |seed: u64| -> Vec<bool> {
            let mut st = BehaviorState::new();
            let mut r = SplitMix64::new(seed);
            let mut outs = Vec::new();
            for i in 0..64 {
                // Deterministic filler outcomes via a biased branch.
                let filler = i % 3 == 0;
                st.evaluate(
                    Behavior::Biased { p_taken: if filler { 1.0 } else { 0.0 } },
                    9,
                    0,
                    &mut r,
                );
                outs.push(st.evaluate(Behavior::PathTable { k: 3 }, 7, 0, &mut r));
            }
            outs
        };
        assert_eq!(drive(1), drive(2), "PathTable must not depend on the RNG");
    }

    #[test]
    fn global_parity_tracks_recent_outcomes() {
        let mut st = BehaviorState::new();
        let mut r = rng();
        st.evaluate(Behavior::Biased { p_taken: 1.0 }, 1, 0, &mut r);
        // Parity of the last 1 outcome = that outcome = taken.
        assert!(st.evaluate(Behavior::GlobalParity { lookback: 1 }, 2, 0, &mut r));
    }

    #[test]
    fn context_table_differs_across_contexts() {
        // For a fixed history, different contexts must (somewhere) choose
        // different outcomes.
        let outcome_for = |ctx: u64| -> bool {
            let mut st = BehaviorState::new();
            let mut r = rng();
            st.evaluate(Behavior::ContextTable { k: 2 }, 0x1234, ctx, &mut r)
        };
        let base = outcome_for(0);
        assert!((1..64).any(|c| outcome_for(c) != base));
    }

    #[test]
    fn context_table_is_stable_within_a_context() {
        // Same context + same history prefix ⇒ same outcome.
        let drive = || -> Vec<bool> {
            let mut st = BehaviorState::new();
            let mut r = rng();
            (0..32).map(|_| st.evaluate(Behavior::ContextTable { k: 3 }, 5, 42, &mut r)).collect()
        };
        assert_eq!(drive(), drive());
    }
}
