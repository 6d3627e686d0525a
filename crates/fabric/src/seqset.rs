//! [`SeqSet`]: a set of sequence numbers stored as merged ranges.
//!
//! Duplicate filters over per-origin sequence numbers (`GroupEngine`'s
//! "have I processed this id", the session layer's `(origin, bseq)`
//! broadcast dedup) must remember every number ever seen, for ever — a
//! retransmission may arrive arbitrarily late. A hash or tree set pays
//! for that with one entry per message. But the numbers come from
//! counters: what a receiver has seen of one origin is one run
//! `1..=n`, plus a run per hole that loss or reordering has not yet
//! filled. Storing the runs makes the filter's size the number of
//! *gaps*, not of messages, and the common insert — the next number —
//! a compare and an increment.

/// A set of `u64`s kept as a sorted `Vec` of closed ranges `(lo, hi)`
/// that are disjoint and non-adjacent (so the representation of a set
/// is unique and as short as it can be).
///
/// ```
/// use odp_fabric::SeqSet;
///
/// let mut seen = SeqSet::new();
/// assert!(seen.insert(1));
/// assert!(seen.insert(2));
/// assert!(seen.insert(4)); // 3 is outstanding: a second range
/// assert!(!seen.insert(2), "a duplicate answers false, like HashSet::insert");
/// assert_eq!(seen.ranges(), &[(1, 2), (4, 4)]);
/// assert!(seen.insert(3)); // the hole closes and the ranges merge
/// assert_eq!(seen.ranges(), &[(1, 4)]);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct SeqSet {
    ranges: Vec<(u64, u64)>,
}

impl SeqSet {
    /// The empty set.
    pub fn new() -> Self {
        SeqSet::default()
    }

    /// Adds `seq`; true when it was not yet present (what
    /// `HashSet::insert` answers). O(1) when `seq` extends the last
    /// range, O(log ranges) to find its place otherwise, plus the
    /// element moves of a `Vec` insert or remove when a range appears
    /// or two merge.
    pub fn insert(&mut self, seq: u64) -> bool {
        if let Some(last) = self.ranges.last_mut() {
            if last.1.checked_add(1) == Some(seq) {
                last.1 = seq;
                return true;
            }
        }
        // The first range ending at or after `seq`: it contains `seq`,
        // or `seq` falls in the hole before it.
        let at = self.ranges.partition_point(|r| r.1 < seq);
        if self.ranges.get(at).is_some_and(|r| r.0 <= seq) {
            return false;
        }
        // Neither sum overflows: the left range ends below `seq`, the
        // right one starts above it.
        let joins_left = at > 0 && self.ranges[at - 1].1 + 1 == seq;
        let joins_right = self.ranges.get(at).is_some_and(|r| seq + 1 == r.0);
        match (joins_left, joins_right) {
            (true, true) => {
                self.ranges[at - 1].1 = self.ranges[at].1;
                self.ranges.remove(at);
            }
            (true, false) => self.ranges[at - 1].1 = seq,
            (false, true) => self.ranges[at].0 = seq,
            (false, false) => self.ranges.insert(at, (seq, seq)),
        }
        true
    }

    /// The closed ranges `(lo, hi)` making up the set: ascending,
    /// disjoint and non-adjacent. One more than the number of gaps.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }
}

impl std::fmt::Debug for SeqSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set()
            .entries(self.ranges.iter().map(|&(lo, hi)| lo..=hi))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_inserts_stay_one_range() {
        let mut set = SeqSet::new();
        for seq in 1..=10_000 {
            assert!(set.insert(seq));
        }
        assert_eq!(set.ranges(), &[(1, 10_000)]);
        assert!(!set.insert(1) && !set.insert(5_000) && !set.insert(10_000));
    }

    #[test]
    fn holes_split_and_fills_merge() {
        let mut set = SeqSet::new();
        for seq in [5, 1, 3, 9] {
            assert!(set.insert(seq));
        }
        assert_eq!(set.ranges(), &[(1, 1), (3, 3), (5, 5), (9, 9)]);
        assert!(set.insert(2), "joins both neighbours");
        assert!(set.insert(4));
        assert_eq!(set.ranges(), &[(1, 5), (9, 9)]);
        assert!(set.insert(8), "extends the right neighbour downwards");
        assert!(set.insert(6), "extends the left neighbour upwards");
        assert_eq!(set.ranges(), &[(1, 6), (8, 9)]);
        assert!(!set.insert(8));
    }

    #[test]
    fn the_ends_of_the_domain_do_not_overflow() {
        let mut set = SeqSet::new();
        assert!(set.insert(u64::MAX));
        assert!(set.insert(0));
        assert!(!set.insert(u64::MAX));
        assert!(set.insert(u64::MAX - 1));
        assert!(set.insert(1));
        assert_eq!(set.ranges(), &[(0, 1), (u64::MAX - 1, u64::MAX)]);
    }
}
