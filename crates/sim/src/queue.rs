//! The engine's event queue: a calendar-queue event wheel.
//!
//! Events drain in `(time, seq)` total order, the order a sorted map
//! keyed by `(time, seq)` would produce — the wheel only changes *how
//! fast* that order is produced, never the order itself. The unit tests
//! below drive it against exactly such a map. See DESIGN.md §10 for the
//! determinism argument.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

use crate::net::NodeId;
use crate::time::SimTime;

/// Payload-independent description of a queued event. Stored alongside
/// each entry so [`crate::sim::Sim::pending_events`] and the lazily
/// armed explorer index can describe events without touching payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EvMeta {
    Start(NodeId),
    Deliver { from: NodeId, to: NodeId },
    Timer(NodeId),
    NetChange,
}

/// One queued event with its total-order key and description.
pub(crate) struct QueueEntry<T> {
    pub time: SimTime,
    pub seq: u64,
    pub meta: EvMeta,
    pub payload: T,
}

const MIN_BUCKETS: usize = 64;
/// Wheel size ceiling. Entries-per-bucket is what the pop path pays
/// (each tick staged out of a bucket rescans it), so the wheel must be
/// allowed to track the pending count into the millions; 2^20 headers
/// (~24 MB) still sit inside a server-class last-level cache, while a
/// bigger wheel turns every insert into a cold miss for little scan
/// relief.
const MAX_BUCKETS: usize = 1 << 20;
const MAX_SHIFT: u32 = 40;
const INITIAL_SHIFT: u32 = 10; // ~1ms buckets until the first resize
/// A pop scan longer than this many buckets counts as "long" — the
/// wheel's width no longer matches the queued distribution.
const LONG_SCAN_BUCKETS: usize = 32;
/// Consecutive long scans before the wheel self-heals with a rebuild
/// (which re-derives the bucket width from the live distribution).
const LONG_SCAN_POPS: u32 = 8;

/// A Brown-style calendar queue over power-of-two buckets.
///
/// Events hash into `buckets[(time >> shift) & mask]`; buckets are
/// unsorted. A pop extracts the *entire* earliest tick (every event
/// sharing the minimal time) into `batch` in one bucket scan, sorts it
/// by `seq` once, and serves subsequent same-tick pops from the front —
/// batched same-tick delivery. Same-tick events enqueued *while* the
/// batch drains append at the back: their `seq` is globally monotone,
/// so front-to-back remains `(time, seq)` order.
///
/// The cursor `cur` is the virtual bucket (`time >> shift`) where the
/// pop scan resumes. Its invariant — no queued event is earlier than
/// `cur`'s tick span — holds even under `step_nth` reordering because
/// every insert asserts `time >= now` upstream and the defensive guard
/// in [`CalendarQueue::insert`] pulls the cursor back otherwise.
pub(crate) struct CalendarQueue<T> {
    buckets: Vec<Vec<QueueEntry<T>>>,
    shift: u32,
    mask: u64,
    /// Total entries, batch included.
    len: usize,
    cur: u64,
    batch: VecDeque<QueueEntry<T>>,
    batch_time: SimTime,
    /// Consecutive pops whose bucket scan exceeded
    /// [`LONG_SCAN_BUCKETS`]; reaching [`LONG_SCAN_POPS`] triggers a
    /// width-re-deriving rebuild.
    long_scans: u32,
    /// Rebuild (grow) when `len` exceeds this — double the population
    /// at the last rebuild, so rebuilds stay geometrically spaced even
    /// when the tick-based wheel size is far below the event count.
    grow_len: usize,
    /// Ordered `(time, seq) -> meta` side index, armed lazily by the
    /// first `pending_events`/`step_nth` call and mirrored on every
    /// insert/remove thereafter. Explorer workloads pay O(log n) per
    /// queue operation for O(k) ordered traversal and O(log n)
    /// arbitrary-rank removal; plain runs never build it.
    index: RefCell<Option<BTreeMap<(SimTime, u64), EvMeta>>>,
}

impl<T> CalendarQueue<T> {
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            shift: INITIAL_SHIFT,
            mask: MIN_BUCKETS as u64 - 1,
            len: 0,
            cur: 0,
            batch: VecDeque::new(),
            batch_time: SimTime::ZERO,
            long_scans: 0,
            grow_len: MIN_BUCKETS * 2,
            index: RefCell::new(None),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn insert(&mut self, e: QueueEntry<T>) {
        if let Some(idx) = self.index.get_mut() {
            idx.insert((e.time, e.seq), e.meta);
        }
        self.len += 1;
        if !self.batch.is_empty() && e.time == self.batch_time {
            // Enqueued mid-batch at the batch's own tick: seqs are
            // assigned in enqueue order, so appending keeps the batch
            // sorted.
            debug_assert!(self.batch.back().is_none_or(|b| b.seq < e.seq));
            self.batch.push_back(e);
            return;
        }
        let day = e.time.as_micros() >> self.shift;
        if day < self.cur {
            self.cur = day;
        }
        let b = (day & self.mask) as usize;
        self.buckets[b].push(e);
        // Thresholds count wheel residents only: a staged batch is
        // already extracted, so it must not be able to hold `len` above
        // the grow trigger and re-fire a rebuild on every insert.
        let residents = self.len - self.batch.len();
        if residents > self.grow_len {
            let target = residents
                .saturating_mul(2)
                .next_power_of_two()
                .clamp(MIN_BUCKETS, MAX_BUCKETS);
            if target == self.buckets.len() {
                // Usually the MAX_BUCKETS cap: a rebuild would reshuffle
                // millions of entries into the same wheel size for
                // nothing. Back the trigger off geometrically instead;
                // width pathologies are healed by the long-scan signal.
                self.grow_len = self.grow_len.saturating_mul(2);
            } else {
                self.rebuild();
            }
        }
    }

    /// The earliest tick with a queued (non-staged) event: its time,
    /// its bucket, and how many buckets the scan visited (the width
    /// health signal). Read-only; the caller persists any cursor jump.
    fn find_next_tick(&self) -> Option<(SimTime, usize, usize)> {
        if self.len == self.batch.len() {
            return None;
        }
        let mut day = self.cur;
        for scanned in 0..self.buckets.len() {
            let b = (day & self.mask) as usize;
            let mut best: Option<SimTime> = None;
            for e in &self.buckets[b] {
                if e.time.as_micros() >> self.shift == day && best.is_none_or(|t| e.time < t) {
                    best = Some(e.time);
                }
            }
            if let Some(t) = best {
                return Some((t, b, scanned));
            }
            day = day.wrapping_add(1);
        }
        // Nothing within one full wheel rotation — the horizon is
        // sparse. Scan every bucket once for the global minimum and
        // jump straight there.
        let mut best: Option<SimTime> = None;
        for bucket in &self.buckets {
            for e in bucket {
                if best.is_none_or(|t| e.time < t) {
                    best = Some(e.time);
                }
            }
        }
        let t = best?;
        Some((
            t,
            ((t.as_micros() >> self.shift) & self.mask) as usize,
            2 * self.buckets.len(),
        ))
    }

    /// Moves every event at time `tmin` from bucket `b` into the batch,
    /// sorted by `seq`, and parks the cursor on that tick.
    ///
    /// The extraction preserves bucket order. Buckets are filled by
    /// `push`, and seqs are assigned in enqueue order, so a bucket that
    /// has only ever been pushed to is already seq-sorted — the sort
    /// below then sees sorted input and finishes in one linear run.
    /// Rebuilds and prior stages can scramble residual order, so the
    /// sort stays as the guarantee rather than the common case.
    fn stage(&mut self, tmin: SimTime, b: usize) {
        debug_assert!(self.batch.is_empty());
        let bucket = &mut self.buckets[b];
        for e in bucket.extract_if(.., |e| e.time == tmin) {
            self.batch.push_back(e);
        }
        self.batch.make_contiguous().sort_unstable_by_key(|e| e.seq);
        self.batch_time = tmin;
        self.cur = tmin.as_micros() >> self.shift;
    }

    pub fn pop_first(&mut self) -> Option<QueueEntry<T>> {
        self.pop_first_at_or_before(SimTime::MAX)
    }

    /// Pops the earliest event iff it is due at or before `limit` — the
    /// single-scan primitive behind both `run(Until::Idle)` and the
    /// deadline-bounded runs.
    pub fn pop_first_at_or_before(&mut self, limit: SimTime) -> Option<QueueEntry<T>> {
        if self.batch.is_empty() {
            let (mut tmin, mut b, scanned) = self.find_next_tick()?;
            if scanned > LONG_SCAN_BUCKETS {
                // The bucket width was tuned for a distribution that no
                // longer matches the queue (e.g. a same-instant burst
                // followed by a wide timer spread). Re-derive it.
                self.long_scans += 1;
                if self.long_scans >= LONG_SCAN_POPS {
                    self.long_scans = 0;
                    self.rebuild();
                    (tmin, b, _) = self.find_next_tick()?;
                }
            } else {
                self.long_scans = 0;
            }
            if tmin > limit {
                return None;
            }
            self.stage(tmin, b);
        } else if self.batch_time > limit {
            return None;
        }
        let e = self.batch.pop_front()?;
        self.len -= 1;
        if let Some(idx) = self.index.get_mut() {
            idx.remove(&(e.time, e.seq));
        }
        Some(e)
    }

    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        if let Some(front) = self.batch.front() {
            return Some((front.time, front.seq));
        }
        let (t, b, _) = self.find_next_tick()?;
        let mut best = u64::MAX;
        for e in &self.buckets[b] {
            if e.time == t {
                best = best.min(e.seq);
            }
        }
        Some((t, best))
    }

    fn remove_key(&mut self, time: SimTime, seq: u64) -> Option<QueueEntry<T>> {
        let e = if !self.batch.is_empty() && time == self.batch_time {
            // A stage() moves *every* event at its tick into the batch
            // and later same-tick inserts append there too, so the
            // batch is the only possible home for this key.
            let i = self.batch.iter().position(|e| e.seq == seq)?;
            self.batch.remove(i)?
        } else {
            let b = ((time.as_micros() >> self.shift) & self.mask) as usize;
            let i = self.buckets[b]
                .iter()
                .position(|e| e.time == time && e.seq == seq)?;
            self.buckets[b].swap_remove(i)
        };
        self.len -= 1;
        if let Some(idx) = self.index.get_mut() {
            idx.remove(&(e.time, e.seq));
        }
        Some(e)
    }

    /// Removes the `n`-th queued event in `(time, seq)` order.
    pub fn remove_nth(&mut self, n: usize) -> Option<QueueEntry<T>> {
        self.arm_index();
        let key = self
            .index
            .borrow()
            .as_ref()
            .and_then(|idx| idx.keys().nth(n).copied())?;
        self.remove_key(key.0, key.1)
    }

    fn arm_index(&self) {
        let mut idx = self.index.borrow_mut();
        if idx.is_some() {
            return;
        }
        let mut map = BTreeMap::new();
        for bucket in &self.buckets {
            for e in bucket {
                map.insert((e.time, e.seq), e.meta);
            }
        }
        for e in &self.batch {
            map.insert((e.time, e.seq), e.meta);
        }
        *idx = Some(map);
    }

    /// Visits every queued event's `(time, seq, meta)` in drain order.
    pub fn for_each_in_order(&self, mut f: impl FnMut(SimTime, u64, EvMeta)) {
        self.arm_index();
        if let Some(idx) = self.index.borrow().as_ref() {
            for (&(time, seq), &meta) in idx {
                f(time, seq, meta);
            }
        }
    }

    /// Re-sizes the wheel to ~2 buckets per event (capped at
    /// [`MAX_BUCKETS`]) and re-derives the bucket width from one
    /// constraint: a single wheel rotation must span the queued
    /// horizon. With the span covering the horizon no bucket ever
    /// mixes events from different rotations, so a stage only scans
    /// its own tick's bucket-neighbours and the pop path stays O(1)
    /// amortized regardless of how events cluster — a 20k-event
    /// aligned tick is one bucket drained in one stage, and a uniform
    /// spread puts ~1 event in each bucket. The horizon is measured at
    /// a sampled 95th percentile so a single far-future straggler
    /// cannot stretch the width and pile the live bulk into a handful
    /// of buckets; the tail past the span wraps and is reconsidered at
    /// the next self-heal rebuild. Rebuilds fire only when the wheel
    /// size would actually change (growth below the cap) or when the
    /// long-scan signal says the width no longer fits the distribution
    /// — a population at the [`MAX_BUCKETS`] cap never pays reshuffles
    /// for further growth, and a draining queue never pays shrink
    /// reshuffles at all. O(n + buckets), amortized against the
    /// doubling that triggered it. Membership is unchanged, so the
    /// explorer index needs no update.
    fn rebuild(&mut self) {
        let n = self.len - self.batch.len();
        let nbuckets = n
            .saturating_mul(2)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        // First pass, read-only: time bounds plus a strided ~1k sample
        // whose 95th percentile is the horizon the wheel must span. The
        // percentile keeps a single far-future straggler from
        // stretching the width and piling the live bulk into a handful
        // of buckets; the tail past the span wraps and is reconsidered
        // at the next self-heal rebuild.
        let stride = (n / 1024).max(1);
        let mut sample: Vec<u64> = Vec::with_capacity(n.div_ceil(stride));
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        let mut i = 0usize;
        for bucket in &self.buckets {
            for e in bucket {
                let t = e.time.as_micros();
                lo = lo.min(t);
                hi = hi.max(t);
                if i.is_multiple_of(stride) {
                    sample.push(t);
                }
                i += 1;
            }
        }
        // Re-derive the bucket width — but only when the residents
        // actually spread out. A same-instant burst (every actor's
        // Start event at t=0) says nothing about future gaps, and
        // collapsing the width to 1 µs would strand later wide-spread
        // timers across thousands of empty buckets.
        if n >= 2 && hi > lo {
            sample.sort_unstable();
            let s = sample.len();
            let pct95 = sample[s - 1 - s / 20];
            // Fall back to `hi` when the percentile collapses onto `lo`
            // (≥95 % of the queue at one instant): the burst drains in
            // a single stage anyway, so the width should serve whatever
            // is spread behind it.
            let robust_hi = if pct95 > lo { pct95 } else { hi };
            let width = ((robust_hi - lo) / nbuckets as u64).max(1);
            // Round *up* to the next power of two: rounding down would
            // halve the span and wrap the tail ticks onto the head
            // buckets.
            let ceil_log2 = 64 - (width - 1).leading_zeros();
            self.shift = ceil_log2.min(MAX_SHIFT);
        }
        // Second pass: re-scatter into the new wheel bucket by bucket,
        // never materializing the whole population in one flat vector.
        let old = std::mem::replace(
            &mut self.buckets,
            (0..nbuckets).map(|_| Vec::new()).collect(),
        );
        self.mask = nbuckets as u64 - 1;
        self.cur = if n == 0 { 0 } else { lo >> self.shift };
        for bucket in old {
            for e in bucket {
                let b = ((e.time.as_micros() >> self.shift) & self.mask) as usize;
                self.buckets[b].push(e);
            }
        }
        self.grow_len = (n * 2).max(MIN_BUCKETS * 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Queues an event at `us` whose payload is its own `seq`.
    fn put(q: &mut CalendarQueue<u64>, us: u64, seq: u64) {
        q.insert(QueueEntry {
            time: t(us),
            seq,
            meta: EvMeta::Timer(NodeId(0)),
            payload: seq,
        });
    }

    fn drain(q: &mut CalendarQueue<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop_first() {
            out.push((e.time.as_micros(), e.seq));
        }
        out
    }

    fn keys_in_order(q: &CalendarQueue<u64>) -> Vec<(SimTime, u64)> {
        let mut keys = Vec::new();
        q.for_each_in_order(|time, seq, _| keys.push((time, seq)));
        keys
    }

    /// The reference the wheel is held to: a sorted map keyed by
    /// `(time, seq)` — the engine's queue before the calendar queue
    /// replaced it, with that queue's own definitions of the three
    /// removal operations.
    #[derive(Default)]
    struct Legacy(BTreeMap<(SimTime, u64), u64>);

    impl Legacy {
        fn put(&mut self, us: u64, seq: u64) {
            self.0.insert((t(us), seq), seq);
        }

        fn pop_first_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, u64, u64)> {
            let (&(time, _), _) = self.0.first_key_value()?;
            if time > limit {
                return None;
            }
            self.0
                .pop_first()
                .map(|((time, seq), payload)| (time, seq, payload))
        }

        fn remove_nth(&mut self, n: usize) -> Option<(SimTime, u64, u64)> {
            let key = self.0.keys().nth(n).copied()?;
            self.0.remove(&key).map(|payload| (key.0, key.1, payload))
        }

        fn keys_in_order(&self) -> Vec<(SimTime, u64)> {
            self.0.keys().copied().collect()
        }
    }

    fn key_of(e: QueueEntry<u64>) -> (SimTime, u64, u64) {
        (e.time, e.seq, e.payload)
    }

    /// Pops both to exhaustion, event for event.
    fn assert_same_drain(cal: &mut CalendarQueue<u64>, leg: &mut Legacy) {
        while let Some(want) = leg.pop_first_at_or_before(SimTime::MAX) {
            assert_eq!(cal.pop_first().map(key_of), Some(want));
        }
        assert_eq!(cal.len(), 0);
    }

    #[test]
    fn calendar_drains_in_time_seq_order() {
        let mut q = CalendarQueue::new();
        let times = [5_000u64, 10, 99_000, 10, 0, 5_000, 1 << 44];
        for (seq, &us) in times.iter().enumerate() {
            put(&mut q, us, seq as u64);
        }
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &us)| (us, s as u64))
            .collect();
        expect.sort();
        assert_eq!(drain(&mut q), expect);
    }

    /// A deterministic pseudo-random mix of inserts, deadline-bounded
    /// pops, arbitrary-rank removals and ordered traversals, each
    /// answered identically by the wheel and the sorted map. Inserts
    /// never precede an already-removed event's time, as in the engine
    /// (`Sim` schedules at or after `now`, and `now` never rewinds).
    #[test]
    fn calendar_matches_legacy_on_random_workload() {
        let mut cal = CalendarQueue::new();
        let mut leg = Legacy::default();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut low_water = 0u64;
        for seq in 0..4_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(seq);
            let us = low_water + (state >> 33) % 1_000_000;
            put(&mut cal, us, seq);
            leg.put(us, seq);
            let removed = match state & 15 {
                // Pop with a deadline that sometimes falls short.
                0..=3 => {
                    let limit = t(low_water + (state >> 20) % 400_000);
                    let a = cal.pop_first_at_or_before(limit).map(key_of);
                    assert_eq!(a, leg.pop_first_at_or_before(limit));
                    a
                }
                4 => {
                    let a = cal.pop_first().map(key_of);
                    assert_eq!(a, leg.pop_first_at_or_before(SimTime::MAX));
                    a
                }
                // Remove by rank, in and out of range.
                5 | 6 => {
                    let n = (state >> 40) as usize % (cal.len() + 2);
                    let a = cal.remove_nth(n).map(key_of);
                    assert_eq!(a, leg.remove_nth(n));
                    a
                }
                7 => {
                    assert_eq!(keys_in_order(&cal), leg.keys_in_order());
                    None
                }
                _ => None,
            };
            if let Some((time, _, _)) = removed {
                low_water = low_water.max(time.as_micros());
            }
            assert_eq!(cal.len(), leg.0.len());
            assert_eq!(cal.peek_key(), leg.0.keys().next().copied());
        }
        assert_same_drain(&mut cal, &mut leg);
    }

    #[test]
    fn same_tick_inserts_during_batch_stay_in_seq_order() {
        let mut q = CalendarQueue::new();
        for s in 0..4u64 {
            put(&mut q, 100, s);
        }
        // Pop one: stages the 4-event batch for tick 100.
        let first = q.pop_first().expect("staged");
        assert_eq!((first.time, first.seq), (t(100), 0));
        // Mid-batch, enqueue two more at the same tick.
        for s in 10..12u64 {
            put(&mut q, 100, s);
        }
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop_first().map(|e| e.seq)).collect();
        assert_eq!(rest, vec![1, 2, 3, 10, 11]);
    }

    #[test]
    fn remove_nth_and_ordered_traversal_agree_with_legacy() {
        let mut cal = CalendarQueue::new();
        let mut leg = Legacy::default();
        for (seq, us) in [(0u64, 300u64), (1, 100), (2, 200), (3, 100), (4, 700)] {
            put(&mut cal, us, seq);
            leg.put(us, seq);
        }
        assert_eq!(keys_in_order(&cal), leg.keys_in_order());
        // Remove the 2nd-smallest from both; drains must still agree.
        assert_eq!(cal.remove_nth(2).map(key_of), leg.remove_nth(2));
        assert!(cal.remove_nth(9).is_none());
        assert!(leg.remove_nth(9).is_none());
        assert_same_drain(&mut cal, &mut leg);
    }

    #[test]
    fn index_stays_consistent_across_inserts_after_arming() {
        let mut q = CalendarQueue::new();
        for s in 0..8u64 {
            put(&mut q, s * 10, s);
        }
        // Arm the index, then keep inserting and popping through it.
        assert_eq!(keys_in_order(&q).len(), 8);
        put(&mut q, 5, 100);
        let first = q.pop_first().expect("nonempty");
        assert_eq!(first.seq, 0, "t=0 precedes the late t=5 insert");
        let after = keys_in_order(&q);
        assert_eq!(after[0].1, 100, "armed index saw the new insert");
        assert_eq!(after.len(), 8);
    }

    #[test]
    fn wheel_resizes_through_growth_and_drain() {
        let mut q = CalendarQueue::new();
        // Far beyond the initial 64 buckets, with a huge time span to
        // force a width re-derivation too.
        let n = 10_000u64;
        for s in 0..n {
            put(&mut q, (s * 7_919) % 50_000_000, s);
        }
        assert_eq!(q.len(), n as usize);
        let drained = drain(&mut q);
        assert_eq!(drained.len(), n as usize);
        assert!(drained.windows(2).all(|w| w[0] <= w[1]), "sorted drain");
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        let mut q = CalendarQueue::new();
        put(&mut q, 0, 0);
        // A full wheel rotation away at the initial width.
        put(&mut q, 1 << 30, 1);
        put(&mut q, 1 << 50, 2);
        assert_eq!(drain(&mut q), vec![(0, 0), (1 << 30, 1), (1 << 50, 2)]);
    }

    #[test]
    fn deadline_bounded_pop_leaves_later_events() {
        let mut q = CalendarQueue::new();
        put(&mut q, 10, 0);
        put(&mut q, 20, 1);
        assert!(q.pop_first_at_or_before(t(5)).is_none());
        assert_eq!(q.pop_first_at_or_before(t(10)).map(|e| e.seq), Some(0));
        assert!(q.pop_first_at_or_before(t(15)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_key(), Some((t(20), 1)));
    }
}
