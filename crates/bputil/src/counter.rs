//! Saturating counters — the basic state element of direction predictors.
//!
//! Two flavours are provided:
//!
//! * [`SatCounter`] — a *signed* counter in `[-2^(n-1), 2^(n-1) - 1]` whose
//!   sign encodes the predicted direction (non-negative ⇒ taken, matching
//!   the convention of Seznec's TAGE code where `ctr >= 0` predicts taken).
//! * [`UnsignedCounter`] — an *unsigned* counter in `[0, 2^n - 1]`, used for
//!   usefulness bits, confidence counters and replacement metadata.
//!
//! Both carry their bounds in every value. Tables of counters store bare
//! `i8` values instead and keep one [`CounterWidth`] for the whole table.

/// A signed saturating counter with a configurable bit width.
///
/// The counter predicts **taken** when its value is non-negative. Its
/// *confidence* grows with the distance from the weak states (`0` / `-1`).
///
/// # Example
///
/// ```
/// use bputil::counter::SatCounter;
///
/// let mut c = SatCounter::new_signed(3);
/// assert!(c.taken()); // initial value 0 predicts taken (weakly)
/// c.update(false);
/// c.update(false);
/// assert!(!c.taken());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatCounter {
    value: i16,
    min: i16,
    max: i16,
}

impl SatCounter {
    /// Creates a signed `bits`-wide counter initialised to the weak-taken
    /// state (`0`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `1..=15`.
    #[must_use]
    pub fn new_signed(bits: u32) -> Self {
        assert!((1..=15).contains(&bits), "counter width out of range: {bits}");
        let max = (1i16 << (bits - 1)) - 1;
        Self { value: 0, min: -max - 1, max }
    }

    /// Creates a counter initialised to the weakest state for `taken`:
    /// `0` when taken, `-1` when not taken.
    #[must_use]
    pub fn weak(bits: u32, taken: bool) -> Self {
        let mut c = Self::new_signed(bits);
        c.value = if taken { 0 } else { -1 };
        c
    }

    /// The current raw counter value.
    #[must_use]
    pub fn value(&self) -> i16 {
        self.value
    }

    /// Overwrites the raw value, clamping into the representable range.
    pub fn set(&mut self, value: i16) {
        self.value = value.clamp(self.min, self.max);
    }

    /// Predicted direction: `true` (taken) when the value is non-negative.
    #[must_use]
    pub fn taken(&self) -> bool {
        self.value >= 0
    }

    /// Moves the counter one step towards `taken`, saturating at the bounds.
    ///
    /// Branchless: the ±1 step is computed from `taken` and clamped, which
    /// compiles to conditional moves. Counter updates run once per
    /// conditional branch record in every table of every predictor, so a
    /// data-dependent branch here (taken/not-taken is exactly the
    /// hard-to-predict bit) costs real simulation throughput. Widths are
    /// capped at 15 bits, so `value + 1` cannot overflow `i16`.
    #[inline]
    pub fn update(&mut self, taken: bool) {
        let step = i16::from(taken) * 2 - 1;
        self.value = (self.value + step).clamp(self.min, self.max);
    }

    /// `true` when the counter sits in one of the two weak states.
    ///
    /// Weak entries are preferred victims during allocation (TAGE §V-D).
    #[must_use]
    pub fn is_weak(&self) -> bool {
        self.value == 0 || self.value == -1
    }

    /// `true` when the counter is pinned at either extreme.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        self.value == self.min || self.value == self.max
    }

    /// Confidence of the prediction: distance from the weak boundary,
    /// in `[0, 2^(bits-1) - 1]`. Used by LLBP's replacement policy to count
    /// high-confidence patterns per set.
    #[must_use]
    pub fn confidence(&self) -> u32 {
        if self.value >= 0 {
            self.value as u32
        } else {
            (-(self.value as i32) - 1) as u32
        }
    }

    /// `true` when the counter is at least `threshold` steps away from the
    /// weak boundary.
    #[must_use]
    pub fn is_confident(&self, threshold: u32) -> bool {
        self.confidence() >= threshold
    }

    /// Maximum representable value.
    #[must_use]
    pub fn max(&self) -> i16 {
        self.max
    }

    /// Minimum representable value.
    #[must_use]
    pub fn min(&self) -> i16 {
        self.min
    }
}

impl Default for SatCounter {
    fn default() -> Self {
        Self::new_signed(3)
    }
}

/// The width of a table of signed saturating counters held as bare `i8`
/// values.
///
/// A [`SatCounter`] stores its bounds beside its value, which makes a
/// counter of at most 8 bits six bytes wide. Predictor tables of thousands
/// to millions of counters store the values alone and keep one
/// `CounterWidth` for the table. Each operation gives the same value as
/// the [`SatCounter`] of the same width, and a zeroed table starts in the
/// weak-taken state of [`SatCounter::new_signed`].
///
/// # Example
///
/// ```
/// use bputil::counter::CounterWidth;
///
/// const WIDTH: CounterWidth = CounterWidth::signed(3); // [-4, 3]
/// let mut table = vec![0i8; 16];
/// assert!(CounterWidth::taken(table[5]));
/// WIDTH.update(&mut table[5], false);
/// assert!(!CounterWidth::taken(table[5]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterWidth {
    min: i8,
    max: i8,
}

impl CounterWidth {
    /// The widest counter an `i8` holds.
    pub const MAX_BITS: u32 = 8;

    /// The bounds of a signed `bits`-wide counter:
    /// `[-2^(bits-1), 2^(bits-1) - 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `1..=8`.
    #[must_use]
    pub const fn signed(bits: u32) -> Self {
        assert!(bits >= 1 && bits <= Self::MAX_BITS, "counter width out of range");
        let max = i8::MAX >> (Self::MAX_BITS - bits);
        Self { min: -max - 1, max }
    }

    /// The weakest value for `taken`: `0` when taken, `-1` when not
    /// (the value of [`SatCounter::weak`]).
    #[must_use]
    pub fn weak(taken: bool) -> i8 {
        i8::from(taken) - 1
    }

    /// Predicted direction of `value`: taken when it is non-negative.
    #[must_use]
    pub fn taken(value: i8) -> bool {
        value >= 0
    }

    /// `true` when `value` is one of the two weak states.
    #[must_use]
    pub fn is_weak(value: i8) -> bool {
        value == 0 || value == -1
    }

    /// Moves `value` one step towards `taken`, saturating at this width's
    /// bounds. Branchless, like [`SatCounter::update`].
    #[inline]
    pub fn update(self, value: &mut i8, taken: bool) {
        let step = i8::from(taken) * 2 - 1;
        *value = value.saturating_add(step).clamp(self.min, self.max);
    }
}

/// An unsigned saturating counter in `[0, 2^bits - 1]`.
///
/// # Example
///
/// ```
/// use bputil::counter::UnsignedCounter;
///
/// let mut useful = UnsignedCounter::new(2);
/// useful.increment();
/// assert_eq!(useful.value(), 1);
/// useful.decrement();
/// useful.decrement(); // saturates at zero
/// assert_eq!(useful.value(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct UnsignedCounter {
    value: u16,
    max: u16,
}

impl UnsignedCounter {
    /// Creates a `bits`-wide counter initialised to zero.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `1..=15`.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!((1..=15).contains(&bits), "counter width out of range: {bits}");
        Self { value: 0, max: (1u16 << bits) - 1 }
    }

    /// The current value.
    #[must_use]
    pub fn value(&self) -> u16 {
        self.value
    }

    /// Overwrites the value, clamping to the representable range.
    pub fn set(&mut self, value: u16) {
        self.value = value.min(self.max);
    }

    /// Increments, saturating at the maximum. Branchless (`min` compiles
    /// to a conditional move); widths are capped at 15 bits so `value + 1`
    /// cannot overflow `u16`.
    #[inline]
    pub fn increment(&mut self) {
        self.value = (self.value + 1).min(self.max);
    }

    /// Decrements, saturating at zero.
    #[inline]
    pub fn decrement(&mut self) {
        self.value = self.value.saturating_sub(1);
    }

    /// `true` when the counter is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.value == 0
    }

    /// `true` when the counter is at its maximum.
    #[must_use]
    pub fn is_max(&self) -> bool {
        self.value == self.max
    }

    /// Maximum representable value.
    #[must_use]
    pub fn max(&self) -> u16 {
        self.max
    }

    /// Halves the counter (used by periodic usefulness aging policies).
    pub fn halve(&mut self) {
        self.value >>= 1;
    }

    /// Clears the counter to zero.
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_counter_saturates_high() {
        let mut c = SatCounter::new_signed(2); // [-2, 1]
        for _ in 0..8 {
            c.update(true);
        }
        assert_eq!(c.value(), 1);
        assert!(c.is_saturated());
        assert!(c.taken());
    }

    #[test]
    fn signed_counter_saturates_low() {
        let mut c = SatCounter::new_signed(2);
        for _ in 0..8 {
            c.update(false);
        }
        assert_eq!(c.value(), -2);
        assert!(c.is_saturated());
        assert!(!c.taken());
    }

    #[test]
    fn weak_states_detected() {
        let mut c = SatCounter::new_signed(3);
        assert!(c.is_weak());
        c.update(false); // 0 -> -1
        assert!(c.is_weak());
        c.update(false); // -1 -> -2
        assert!(!c.is_weak());
    }

    #[test]
    fn weak_constructor_matches_direction() {
        assert!(SatCounter::weak(3, true).taken());
        assert!(!SatCounter::weak(3, false).taken());
        assert!(SatCounter::weak(3, true).is_weak());
        assert!(SatCounter::weak(3, false).is_weak());
    }

    #[test]
    fn confidence_is_distance_from_weak_boundary() {
        let mut c = SatCounter::new_signed(3); // [-4, 3]
        assert_eq!(c.confidence(), 0);
        c.update(true);
        c.update(true);
        assert_eq!(c.confidence(), 2);
        let mut d = SatCounter::new_signed(3);
        d.update(false); // -1
        assert_eq!(d.confidence(), 0);
        d.update(false); // -2
        assert_eq!(d.confidence(), 1);
        assert!(d.is_confident(1));
        assert!(!d.is_confident(2));
    }

    #[test]
    fn set_clamps_to_range() {
        let mut c = SatCounter::new_signed(3);
        c.set(100);
        assert_eq!(c.value(), 3);
        c.set(-100);
        assert_eq!(c.value(), -4);
    }

    #[test]
    #[should_panic(expected = "counter width out of range")]
    fn zero_width_counter_panics() {
        let _ = SatCounter::new_signed(0);
    }

    #[test]
    fn counter_width_tracks_sat_counter() {
        let mut rng = crate::rng::SplitMix64::new(8);
        for bits in 1..=CounterWidth::MAX_BITS {
            let width = CounterWidth::signed(bits);
            let mut reference = SatCounter::new_signed(bits);
            let mut value = 0i8;
            // Biased runs of 300 steps reach both bounds of every width.
            for i in 0..1200 {
                let taken = ((i / 300) % 2 == 0) != rng.chance(1, 8);
                reference.update(taken);
                width.update(&mut value, taken);
                assert_eq!(i16::from(value), reference.value(), "width {bits}");
                assert_eq!(CounterWidth::taken(value), reference.taken());
                assert_eq!(CounterWidth::is_weak(value), reference.is_weak());
            }
            assert_eq!(i16::from(CounterWidth::weak(true)), SatCounter::weak(bits, true).value());
            assert_eq!(i16::from(CounterWidth::weak(false)), SatCounter::weak(bits, false).value());
        }
    }

    #[test]
    #[should_panic(expected = "counter width out of range")]
    fn counter_width_rejects_nine_bits() {
        let _ = CounterWidth::signed(9);
    }

    #[test]
    fn unsigned_counter_bounds() {
        let mut u = UnsignedCounter::new(2); // [0, 3]
        assert!(u.is_zero());
        for _ in 0..10 {
            u.increment();
        }
        assert_eq!(u.value(), 3);
        assert!(u.is_max());
        u.decrement();
        assert_eq!(u.value(), 2);
        u.halve();
        assert_eq!(u.value(), 1);
        u.reset();
        assert!(u.is_zero());
    }

    #[test]
    fn unsigned_set_clamps() {
        let mut u = UnsignedCounter::new(3);
        u.set(100);
        assert_eq!(u.value(), 7);
    }
}
