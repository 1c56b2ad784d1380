//! The pattern-set prefetch queue.
//!
//! The RCR announces the upcoming context `D` unconditional branches
//! early; the prefetcher then has `prefetch_delay` cycles to pull the
//! pattern set out of LLBP storage into the pattern buffer. In-flight
//! prefetches are squashed on pipeline resets (§VI: "After a misprediction
//! all in-flight prefetches get squashed before LLBP restarts
//! prefetching").

use std::collections::VecDeque;

/// An in-flight pattern-set prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prefetch {
    /// The context whose pattern set is being fetched.
    pub cid: u64,
    /// Cycle at which the set becomes usable in the PB.
    pub ready_at: u64,
}

/// A FIFO of in-flight prefetches with squash support.
#[derive(Debug, Clone)]
pub struct PrefetchQueue {
    inflight: VecDeque<Prefetch>,
    issued: u64,
    squashed: u64,
    completed: u64,
}

/// In-flight prefetches the queue holds without reallocating. Prefetches
/// complete within the prefetch delay and coalesce per context, so a few
/// dozen is ample; more only costs a reallocation.
const INITIAL_CAPACITY: usize = 64;

impl Default for PrefetchQueue {
    fn default() -> Self {
        Self {
            inflight: VecDeque::with_capacity(INITIAL_CAPACITY),
            issued: 0,
            squashed: 0,
            completed: 0,
        }
    }
}

impl PrefetchQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues a prefetch for `cid`, usable `delay` cycles from `now`.
    /// Duplicate in-flight CIDs are coalesced.
    pub fn issue(&mut self, cid: u64, now: u64, delay: u64) {
        if self.inflight.iter().any(|p| p.cid == cid) {
            return;
        }
        self.issued += 1;
        self.inflight.push_back(Prefetch { cid, ready_at: now + delay });
    }

    /// Pops the oldest prefetch if it has completed by `now`. Call until
    /// `None` to take every completed prefetch, in issue order.
    pub fn pop_ready(&mut self, now: u64) -> Option<Prefetch> {
        if self.inflight.front()?.ready_at > now {
            return None;
        }
        self.completed += 1;
        self.inflight.pop_front()
    }

    /// Squashes all in-flight prefetches (pipeline reset).
    pub fn squash(&mut self) {
        self.squashed += self.inflight.len() as u64;
        self.inflight.clear();
    }

    /// In-flight prefetch count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// `true` when nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Prefetches issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Prefetches squashed so far.
    #[must_use]
    pub fn squashed(&self) -> u64 {
        self.squashed
    }

    /// Prefetches completed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut PrefetchQueue, now: u64) -> Vec<Prefetch> {
        std::iter::from_fn(|| q.pop_ready(now)).collect()
    }

    #[test]
    fn prefetch_completes_after_delay() {
        let mut q = PrefetchQueue::new();
        q.issue(42, 100, 6);
        assert!(drain(&mut q, 105).is_empty(), "not ready yet");
        let done = drain(&mut q, 106);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].cid, 42);
        assert!(q.is_empty());
    }

    #[test]
    fn duplicates_coalesce() {
        let mut q = PrefetchQueue::new();
        q.issue(7, 0, 6);
        q.issue(7, 2, 6);
        assert_eq!(q.len(), 1);
        assert_eq!(q.issued(), 1);
    }

    #[test]
    fn squash_clears_in_flight() {
        let mut q = PrefetchQueue::new();
        q.issue(1, 0, 6);
        q.issue(2, 1, 6);
        q.squash();
        assert!(q.is_empty());
        assert_eq!(q.squashed(), 2);
        assert!(drain(&mut q, 1000).is_empty());
    }

    #[test]
    fn fifo_ordering_preserved() {
        let mut q = PrefetchQueue::new();
        q.issue(1, 0, 3);
        q.issue(2, 1, 3);
        q.issue(3, 2, 3);
        let done = drain(&mut q, 4);
        assert_eq!(done.iter().map(|p| p.cid).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn zero_delay_is_immediately_ready() {
        let mut q = PrefetchQueue::new();
        q.issue(9, 50, 0);
        assert_eq!(drain(&mut q, 50).len(), 1);
    }
}
