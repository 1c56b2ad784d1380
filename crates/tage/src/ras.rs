//! A return address stack (RAS).
//!
//! Calls push their fall-through address; returns pop it as the predicted
//! target. A fixed-depth circular stack models the hardware: deep
//! recursion wraps and the stale entries mispredict, exactly as real RAS
//! overflow does.

/// A fixed-depth circular return-address stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReturnAddressStack {
    entries: Vec<u64>,
    top: usize,
    /// Live entries (saturates at capacity; older frames are overwritten).
    depth: usize,
    predictions: u64,
    mispredictions: u64,
}

impl ReturnAddressStack {
    /// Creates a RAS of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS needs at least one entry");
        Self { entries: vec![0; capacity], top: 0, depth: 0, predictions: 0, mispredictions: 0 }
    }

    /// Empties the stack and zeroes its counts: the state
    /// [`ReturnAddressStack::new`] of its capacity leaves.
    pub fn reset(&mut self) {
        self.entries.fill(0);
        self.top = 0;
        self.depth = 0;
        self.predictions = 0;
        self.mispredictions = 0;
    }

    /// Pushes a return address (on a call).
    pub fn push(&mut self, return_address: u64) {
        self.top = (self.top + 1) % self.entries.len();
        self.entries[self.top] = return_address;
        self.depth = (self.depth + 1).min(self.entries.len());
    }

    /// Pops the predicted return target and scores it against the actual
    /// target. Returns `true` when the prediction was correct.
    pub fn pop_and_check(&mut self, actual_target: u64) -> bool {
        self.predictions += 1;
        let predicted = if self.depth > 0 {
            let v = self.entries[self.top];
            self.top = (self.top + self.entries.len() - 1) % self.entries.len();
            self.depth -= 1;
            Some(v)
        } else {
            None
        };
        let correct = predicted == Some(actual_target);
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// Current live depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Return predictions made.
    #[must_use]
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Return mispredictions (including underflow).
    #[must_use]
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }
}

impl Default for ReturnAddressStack {
    fn default() -> Self {
        Self::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_calls_predict_perfectly() {
        let mut ras = ReturnAddressStack::new(8);
        ras.push(0x100);
        ras.push(0x200);
        assert!(ras.pop_and_check(0x200));
        assert!(ras.pop_and_check(0x100));
        assert_eq!(ras.mispredictions(), 0);
    }

    #[test]
    fn underflow_mispredicts() {
        let mut ras = ReturnAddressStack::new(4);
        assert!(!ras.pop_and_check(0x100));
        assert_eq!(ras.mispredictions(), 1);
    }

    #[test]
    fn overflow_wraps_and_mispredicts_deep_frames() {
        let mut ras = ReturnAddressStack::new(4);
        for i in 0..6u64 {
            ras.push(0x1000 + i);
        }
        // The four most recent predictions are intact…
        for i in (2..6u64).rev() {
            assert!(ras.pop_and_check(0x1000 + i), "frame {i}");
        }
        // …the two oldest were overwritten.
        assert!(!ras.pop_and_check(0x1001));
        assert!(!ras.pop_and_check(0x1000));
    }

    #[test]
    fn depth_tracks_saturation() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.depth(), 2);
    }
}
