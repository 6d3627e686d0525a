//! The engine's event queue: a slab-backed calendar-queue event wheel
//! with a sorted current day.
//!
//! Events drain in `(time, seq)` total order, the order a sorted map
//! keyed by `(time, seq)` would produce — the wheel only changes *how
//! fast* that order is produced, never the order itself. The unit tests
//! below drive it against exactly such a map. See DESIGN.md §10 for the
//! determinism argument and the layout's measurements.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

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

/// Names one queued entry: the index of its slab slot, handed out by
/// [`CalendarQueue::insert`] and redeemed by [`CalendarQueue::remove`].
///
/// A handle is good from the insert that returned it until its entry
/// leaves the queue (popped or removed). The slot is then recycled, so
/// whoever keeps handles must forget one when its entry pops; until the
/// slot is reused a stale handle removes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Handle(u32);

impl Handle {
    /// The handle of no entry: [`CalendarQueue::remove`] answers `None`.
    pub const NONE: Handle = Handle(NIL);
}

/// End of a slot list; also [`Handle::NONE`].
const NIL: u32 = u32::MAX;
/// In a slot's `prev`: the entry's key is in the day heap and the slot
/// is on no bucket list.
const STAGED: u32 = u32::MAX - 1;

/// One slab cell: a queued entry threaded on its bucket's list, or a
/// vacant cell threaded on the free list.
struct Slot<T> {
    /// `None` while the slot is on the free list.
    entry: Option<QueueEntry<T>>,
    /// The previous slot of the bucket list, [`NIL`] at its head, or
    /// [`STAGED`].
    prev: u32,
    /// The next slot of the bucket list or of the free list.
    next: u32,
}

/// The day heap's element: `(time, seq)` is the order, the slot index
/// finds the entry. Seqs are unique, so the slot never decides.
type DayKey = Reverse<(SimTime, u64, u32)>;

/// Every queued entry in drain order: `(time, seq) -> (meta, handle)`.
type OrderedIndex = BTreeMap<(SimTime, u64), (EvMeta, Handle)>;

const MIN_BUCKETS: usize = 64;
/// Wheel size ceiling. Entries-per-bucket is what the pop path pays
/// (finding and staging a day walks its bucket's list), so the wheel
/// must be allowed to track the pending count into the millions; 2^20
/// heads (4 MB) sit inside a server-class last-level cache, while a
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

/// A Brown-style calendar queue over power-of-two buckets, with the
/// ladder queue's split: the far future unsorted, the day being drained
/// sorted.
///
/// Entries live in `slab`; a vacated slot goes on a free list and is
/// reused, so the slab is as large as the queue has ever been deep, not
/// as large as the run is long. An entry hashes to bucket
/// `(time >> shift) & mask`, an unsorted doubly-linked list of slot
/// indices rooted at `heads[bucket]`. Because the links are in the
/// slots, [`CalendarQueue::remove`] unlinks any entry in O(1) given the
/// [`Handle`] its insert returned: a cancelled timer leaves at once
/// instead of waiting to be popped.
///
/// A *day* is one bucket's span of time, `time >> shift`. The first pop
/// of a day moves every entry of that day out of its bucket into `day`,
/// a binary heap keyed `(time, seq)`; pops come off the heap and
/// entries enqueued into the day while it drains are pushed onto it.
/// While the heap is non-empty it holds *all* of day `cur` and nothing
/// later, and nothing queued is earlier than day `cur` (every insert is
/// at or after `now` upstream, and [`CalendarQueue::insert`] files a
/// stray earlier entry in the heap too), so the heap's minimum is the
/// queue's. A rebuild changes what a day is, so it empties the heap
/// back into the buckets.
///
/// Removing a staged entry frees its slot and leaves its key in the
/// heap; a key is dead when its slot is vacant or holds another seq.
/// Dead keys are dropped as they surface, eagerly, so a non-empty heap
/// always has a live top.
pub(crate) struct CalendarQueue<T> {
    slab: Vec<Slot<T>>,
    /// Head of the free-slot list.
    free: u32,
    /// Head slot of each bucket's list.
    heads: Vec<u32>,
    shift: u32,
    mask: u64,
    /// Total entries, staged included.
    len: usize,
    /// The day the pop scan resumes at; no queued entry is earlier.
    cur: u64,
    day: BinaryHeap<DayKey>,
    /// Entries whose key is in `day` — its live keys.
    staged: usize,
    /// Consecutive pops whose bucket scan exceeded
    /// [`LONG_SCAN_BUCKETS`]; reaching [`LONG_SCAN_POPS`] triggers a
    /// width-re-deriving rebuild.
    long_scans: u32,
    /// Rebuild (grow) when the bucket residents exceed this — double
    /// the population at the last rebuild, so rebuilds stay
    /// geometrically spaced even when the wheel is at its size cap.
    grow_len: usize,
    /// The ordered side index, armed lazily by the first
    /// `pending_events`/`step_nth` call and mirrored on every
    /// insert/remove thereafter. Explorer workloads pay O(log n) per
    /// queue operation for O(k) ordered traversal and O(log n)
    /// arbitrary-rank removal; plain runs never build it.
    index: RefCell<Option<OrderedIndex>>,
    /// Seeded known-bad for the model test: unlinking a list head
    /// leaves `heads[bucket]` pointing at it.
    #[cfg(test)]
    forget_head_fix: bool,
}

impl<T> CalendarQueue<T> {
    pub fn new() -> Self {
        CalendarQueue {
            slab: Vec::new(),
            free: NIL,
            heads: vec![NIL; MIN_BUCKETS],
            shift: INITIAL_SHIFT,
            mask: MIN_BUCKETS as u64 - 1,
            len: 0,
            cur: 0,
            day: BinaryHeap::new(),
            staged: 0,
            long_scans: 0,
            grow_len: MIN_BUCKETS * 2,
            index: RefCell::new(None),
            #[cfg(test)]
            forget_head_fix: false,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    fn day_of(&self, time: SimTime) -> u64 {
        time.as_micros() >> self.shift
    }

    fn bucket_of(&self, time: SimTime) -> usize {
        (self.day_of(time) & self.mask) as usize
    }

    /// The entry in `slot`, which the caller knows to be occupied.
    fn entry(&self, slot: u32) -> &QueueEntry<T> {
        self.slab[slot as usize]
            .entry
            .as_ref()
            .expect("a listed slot holds an entry")
    }

    /// Puts `e` into a free slot, on no list yet.
    fn alloc(&mut self, e: QueueEntry<T>) -> u32 {
        if self.free != NIL {
            let slot = self.free;
            let cell = &mut self.slab[slot as usize];
            self.free = cell.next;
            cell.entry = Some(e);
            return slot;
        }
        let slot = u32::try_from(self.slab.len())
            .ok()
            .filter(|&s| s < STAGED)
            .expect("fewer than 2^32 - 2 events queued at once");
        self.slab.push(Slot {
            entry: Some(e),
            prev: NIL,
            next: NIL,
        });
        slot
    }

    /// Takes the entry out of `slot` (already off its list, or staged)
    /// and out of the queue's accounts, and puts the slot on the free
    /// list.
    fn release(&mut self, slot: u32) -> QueueEntry<T> {
        let cell = &mut self.slab[slot as usize];
        let e = cell.entry.take().expect("a released slot holds an entry");
        cell.next = self.free;
        self.free = slot;
        self.len -= 1;
        if let Some(idx) = self.index.get_mut() {
            idx.remove(&(e.time, e.seq));
        }
        e
    }

    /// Pushes `slot` on the front of bucket `b`'s list.
    fn link(&mut self, slot: u32, b: usize) {
        let head = self.heads[b];
        let cell = &mut self.slab[slot as usize];
        cell.prev = NIL;
        cell.next = head;
        if head != NIL {
            self.slab[head as usize].prev = slot;
        }
        self.heads[b] = slot;
    }

    /// Takes `slot` off bucket `b`'s list.
    fn unlink(&mut self, slot: u32, b: usize) {
        let Slot { prev, next, .. } = self.slab[slot as usize];
        if prev == NIL {
            #[cfg(test)]
            let next = if self.forget_head_fix { slot } else { next };
            self.heads[b] = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        }
    }

    pub fn insert(&mut self, e: QueueEntry<T>) -> Handle {
        let (time, seq, meta) = (e.time, e.seq, e.meta);
        let day = self.day_of(time);
        let slot = self.alloc(e);
        self.len += 1;
        if let Some(idx) = self.index.get_mut() {
            idx.insert((time, seq), (meta, Handle(slot)));
        }
        if self.staged > 0 && day <= self.cur {
            // Into the day being drained (or, defensively, before it):
            // the heap holds all of it, so this entry joins the heap.
            self.slab[slot as usize].prev = STAGED;
            self.day.push(Reverse((time, seq, slot)));
            self.staged += 1;
            return Handle(slot);
        }
        if day < self.cur {
            self.cur = day;
        }
        self.link(slot, self.bucket_of(time));
        // Thresholds count wheel residents only: the staged day is
        // already extracted, so it must not be able to hold `len` above
        // the grow trigger and re-fire a rebuild on every insert.
        let residents = self.len - self.staged;
        if residents > self.grow_len {
            let target = residents
                .saturating_mul(2)
                .next_power_of_two()
                .clamp(MIN_BUCKETS, MAX_BUCKETS);
            if target == self.heads.len() {
                // Usually the MAX_BUCKETS cap: a rebuild would reshuffle
                // millions of entries into the same wheel size for
                // nothing. Back the trigger off geometrically instead;
                // width pathologies are healed by the long-scan signal.
                self.grow_len = self.grow_len.saturating_mul(2);
            } else {
                self.rebuild();
            }
        }
        Handle(slot)
    }

    /// Removes the entry `h` names, wherever it is — a far bucket or
    /// the staged day — in O(1) (plus the heap's dead keys it may
    /// uncover). `None` for [`Handle::NONE`] and for a stale handle
    /// whose slot is still vacant.
    pub fn remove(&mut self, h: Handle) -> Option<QueueEntry<T>> {
        let cell = self.slab.get(h.0 as usize)?;
        let time = cell.entry.as_ref()?.time;
        if cell.prev != STAGED {
            self.unlink(h.0, self.bucket_of(time));
            return Some(self.release(h.0));
        }
        let e = self.release(h.0);
        self.staged -= 1;
        self.settle_day();
        Some(e)
    }

    /// Drops dead keys — slot vacant, or reused under another seq — off
    /// the top of the day heap.
    fn settle_day(&mut self) {
        while let Some(&Reverse((_, seq, slot))) = self.day.peek() {
            let cell = &self.slab[slot as usize];
            if cell.entry.as_ref().is_some_and(|e| e.seq == seq) {
                return;
            }
            self.day.pop();
        }
    }

    /// With nothing staged: the least `(time, seq)` key queued, its
    /// bucket, and how many buckets the scan visited (the width health
    /// signal). Read-only; staging persists the cursor jump.
    fn find_next(&self) -> Option<((SimTime, u64), usize, usize)> {
        debug_assert_eq!(self.staged, 0);
        if self.len == 0 {
            return None;
        }
        let mut day = self.cur;
        for scanned in 0..self.heads.len() {
            let b = (day & self.mask) as usize;
            let mut best: Option<(SimTime, u64)> = None;
            let mut slot = self.heads[b];
            while slot != NIL {
                let e = self.entry(slot);
                if self.day_of(e.time) == day && best.is_none_or(|k| (e.time, e.seq) < k) {
                    best = Some((e.time, e.seq));
                }
                slot = self.slab[slot as usize].next;
            }
            if let Some(key) = best {
                return Some((key, b, scanned));
            }
            day = day.wrapping_add(1);
        }
        // Nothing within one full wheel rotation — the horizon is
        // sparse. Scan the slab once for the global minimum and jump
        // straight there.
        let key = self
            .slab
            .iter()
            .filter_map(|cell| cell.entry.as_ref())
            .map(|e| (e.time, e.seq))
            .min()?;
        Some((key, self.bucket_of(key.0), 2 * self.heads.len()))
    }

    /// Moves every entry of `day` out of bucket `b` into the day heap
    /// and parks the cursor on that day. One walk of the bucket's list,
    /// one O(n) heapify — where a tick-at-a-time stage rescanned the
    /// bucket once per distinct instant in it.
    fn stage(&mut self, day: u64, b: usize) {
        debug_assert!(self.staged == 0 && self.day.is_empty());
        let mut keys = std::mem::take(&mut self.day).into_vec();
        let mut slot = self.heads[b];
        while slot != NIL {
            let next = self.slab[slot as usize].next;
            let (time, seq) = {
                let e = self.entry(slot);
                (e.time, e.seq)
            };
            if self.day_of(time) == day {
                keys.push(Reverse((time, seq, slot)));
                self.unlink(slot, b);
                self.slab[slot as usize].prev = STAGED;
            }
            slot = next;
        }
        self.staged = keys.len();
        self.day = BinaryHeap::from(keys);
        self.cur = day;
    }

    pub fn pop_first(&mut self) -> Option<QueueEntry<T>> {
        self.pop_first_at_or_before(SimTime::MAX)
    }

    /// Pops the earliest event iff it is due at or before `limit` — the
    /// single primitive behind both `run(Until::Idle)` and the
    /// deadline-bounded runs. A day is staged only when its first event
    /// is about to pop, so `now` is inside day `cur` whenever the heap
    /// is non-empty.
    pub fn pop_first_at_or_before(&mut self, limit: SimTime) -> Option<QueueEntry<T>> {
        if self.staged == 0 {
            let (mut key, mut b, scanned) = self.find_next()?;
            if scanned > LONG_SCAN_BUCKETS {
                // The bucket width was tuned for a distribution that no
                // longer matches the queue (e.g. a same-instant burst
                // followed by a wide timer spread). Re-derive it.
                self.long_scans += 1;
                if self.long_scans >= LONG_SCAN_POPS {
                    self.long_scans = 0;
                    self.rebuild();
                    (key, b, _) = self.find_next()?;
                }
            } else {
                self.long_scans = 0;
            }
            if key.0 > limit {
                return None;
            }
            self.stage(self.day_of(key.0), b);
        }
        let &Reverse((time, _, slot)) = self.day.peek()?;
        if time > limit {
            return None;
        }
        self.day.pop();
        self.staged -= 1;
        let e = self.release(slot);
        self.settle_day();
        Some(e)
    }

    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        match self.day.peek() {
            Some(&Reverse((time, seq, _))) => Some((time, seq)),
            None => self.find_next().map(|(key, _, _)| key),
        }
    }

    /// Removes the `n`-th queued event in `(time, seq)` order.
    pub fn remove_nth(&mut self, n: usize) -> Option<QueueEntry<T>> {
        self.arm_index();
        let handle = self
            .index
            .borrow()
            .as_ref()
            .and_then(|idx| idx.values().nth(n).map(|&(_, handle)| handle))?;
        self.remove(handle)
    }

    fn arm_index(&self) {
        let mut idx = self.index.borrow_mut();
        if idx.is_some() {
            return;
        }
        let mut map = BTreeMap::new();
        for (slot, cell) in self.slab.iter().enumerate() {
            if let Some(e) = &cell.entry {
                map.insert((e.time, e.seq), (e.meta, Handle(slot as u32)));
            }
        }
        *idx = Some(map);
    }

    /// Visits every queued event's `(time, seq, meta)` in drain order.
    pub fn for_each_in_order(&self, mut f: impl FnMut(SimTime, u64, EvMeta)) {
        self.arm_index();
        if let Some(idx) = self.index.borrow().as_ref() {
            for (&(time, seq), &(meta, _)) in idx {
                f(time, seq, meta);
            }
        }
    }

    /// Re-sizes the wheel to ~2 buckets per event (capped at
    /// [`MAX_BUCKETS`]) and re-derives the bucket width from one
    /// constraint: a single wheel rotation must span the queued
    /// horizon. With the span covering the horizon no bucket ever
    /// mixes events from different rotations, so a stage only walks
    /// its own day's entries and the pop path stays O(1) amortized
    /// (O(log day) in the heap) regardless of how events cluster — a
    /// 20k-event aligned tick is one bucket staged in one walk, and a
    /// uniform spread puts ~1 event in each bucket. The horizon is
    /// measured at a sampled 95th percentile so a single far-future
    /// straggler cannot stretch the width and pile the live bulk into a
    /// handful of buckets; the tail past the span wraps and is
    /// reconsidered at the next self-heal rebuild. Rebuilds fire only
    /// when the wheel size would actually change (growth below the cap)
    /// or when the long-scan signal says the width no longer fits the
    /// distribution — a population at the [`MAX_BUCKETS`] cap never
    /// pays reshuffles for further growth, and a draining queue never
    /// pays shrink reshuffles at all. Both passes run over the slab,
    /// front to back; no entry moves, only its links, so handles and
    /// the explorer index stay good. O(slab + buckets), amortized
    /// against the doubling that triggered it.
    fn rebuild(&mut self) {
        // A new width redraws the days, so nothing stays staged across
        // it: the second pass threads the staged entries onto bucket
        // lists with everything else.
        self.day.clear();
        self.staged = 0;
        let n = self.len;
        let nbuckets = n
            .saturating_mul(2)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        // First pass, read-only: time bounds plus a strided ~1k sample
        // whose 95th percentile is the horizon the wheel must span.
        let stride = (n / 1024).max(1);
        let mut sample: Vec<u64> = Vec::with_capacity(n.div_ceil(stride));
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        let queued = self.slab.iter().filter_map(|cell| cell.entry.as_ref());
        for (i, e) in queued.enumerate() {
            let t = e.time.as_micros();
            lo = lo.min(t);
            hi = hi.max(t);
            if i.is_multiple_of(stride) {
                sample.push(t);
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
        // Second pass: thread every entry, staged or not, onto its
        // bucket of the new wheel.
        self.heads.clear();
        self.heads.resize(nbuckets, NIL);
        self.mask = nbuckets as u64 - 1;
        self.cur = if n == 0 { 0 } else { lo >> self.shift };
        for slot in 0..self.slab.len() {
            if let Some(e) = &self.slab[slot].entry {
                self.link(slot as u32, self.bucket_of(e.time));
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
    fn put(q: &mut CalendarQueue<u64>, us: u64, seq: u64) -> Handle {
        q.insert(QueueEntry {
            time: t(us),
            seq,
            meta: EvMeta::Timer(NodeId(0)),
            payload: seq,
        })
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
    /// replaced it, with that queue's own definitions of the removal
    /// operations. Each entry keeps the handle the wheel gave it.
    #[derive(Default)]
    struct Legacy(BTreeMap<(SimTime, u64), Handle>);

    /// `(time, seq, payload)`; the payload is the seq again.
    type Popped = (SimTime, u64, u64);

    impl Legacy {
        /// Queues the event in both.
        fn put(&mut self, cal: &mut CalendarQueue<u64>, us: u64, seq: u64) -> Handle {
            let h = put(cal, us, seq);
            self.0.insert((t(us), seq), h);
            h
        }

        fn pop_first_at_or_before(&mut self, limit: SimTime) -> Option<(Popped, Handle)> {
            let (&(time, _), _) = self.0.first_key_value()?;
            if time > limit {
                return None;
            }
            self.0
                .pop_first()
                .map(|((time, seq), h)| ((time, seq, seq), h))
        }

        fn remove_nth(&mut self, n: usize) -> Option<(Popped, Handle)> {
            let key = self.0.keys().nth(n).copied()?;
            self.0.remove(&key).map(|h| ((key.0, key.1, key.1), h))
        }

        fn keys_in_order(&self) -> Vec<(SimTime, u64)> {
            self.0.keys().copied().collect()
        }
    }

    fn key_of(e: QueueEntry<u64>) -> Popped {
        (e.time, e.seq, e.payload)
    }

    /// `Err` naming the operation unless the two answers are equal.
    fn same<A: PartialEq + std::fmt::Debug>(
        what: &str,
        seq: u64,
        cal: A,
        leg: A,
    ) -> Result<(), String> {
        if cal == leg {
            Ok(())
        } else {
            Err(format!(
                "{what} at step {seq}: wheel {cal:?}, model {leg:?}"
            ))
        }
    }

    /// Pops both to exhaustion, event for event.
    fn assert_same_drain(cal: &mut CalendarQueue<u64>, leg: &mut Legacy) {
        while let Some((want, _)) = leg.pop_first_at_or_before(SimTime::MAX) {
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
    /// pops, arbitrary-rank removals, removals by handle and ordered
    /// traversals, each answered identically by the wheel and the
    /// sorted map; `Err` names the first answer that differs. Inserts
    /// never precede an already-removed event's time, as in the engine
    /// (`Sim` schedules at or after `now`, and `now` never rewinds).
    /// Every 500 steps the insert horizon flips between a second and
    /// 3 ms, so days hold one entry in one regime and dozens in the
    /// other — staged-day removals and same-day inserts mid-drain.
    fn random_workload(mut cal: CalendarQueue<u64>) -> Result<(), String> {
        let mut leg = Legacy::default();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut low_water = 0u64;
        for seq in 0..6_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(seq);
            let horizon = if (seq / 500).is_multiple_of(2) {
                1_000_000
            } else {
                3_000
            };
            leg.put(&mut cal, low_water + (state >> 33) % horizon, seq);
            let removed = match state & 15 {
                // Pop with a deadline that sometimes falls short.
                0..=3 => {
                    let limit = t(low_water + (state >> 20) % (horizon * 2 / 5));
                    let want = leg.pop_first_at_or_before(limit);
                    let got = cal.pop_first_at_or_before(limit).map(key_of);
                    same("pop_first_at_or_before", seq, got, want.map(|(k, _)| k))?;
                    want
                }
                4 => {
                    let want = leg.pop_first_at_or_before(SimTime::MAX);
                    same(
                        "pop_first",
                        seq,
                        cal.pop_first().map(key_of),
                        want.map(|(k, _)| k),
                    )?;
                    want
                }
                // Remove by rank, in and out of range.
                5 | 6 => {
                    let n = (state >> 40) as usize % (cal.len() + 2);
                    let want = leg.remove_nth(n);
                    let got = cal.remove_nth(n).map(key_of);
                    same("remove_nth", seq, got, want.map(|(k, _)| k))?;
                    want
                }
                7 => {
                    same(
                        "keys_in_order",
                        seq,
                        keys_in_order(&cal),
                        leg.keys_in_order(),
                    )?;
                    None
                }
                // Remove by handle — a cancel: time does not move.
                8..=10 if !leg.0.is_empty() => {
                    let n = (state >> 40) as usize % leg.0.len();
                    let (want, h) = leg.remove_nth(n).expect("in range");
                    same("remove", seq, cal.remove(h).map(key_of), Some(want))?;
                    same("remove again", seq, cal.remove(h).map(key_of), None)?;
                    None
                }
                _ => None,
            };
            if let Some(((time, _, _), h)) = removed {
                low_water = low_water.max(time.as_micros());
                // The entry left; until its slot is reused its handle
                // removes nothing.
                same("remove after pop", seq, cal.remove(h).map(key_of), None)?;
            }
            same("len", seq, cal.len(), leg.0.len())?;
            same(
                "peek_key",
                seq,
                cal.peek_key(),
                leg.0.keys().next().copied(),
            )?;
        }
        while let Some((want, _)) = leg.pop_first_at_or_before(SimTime::MAX) {
            same(
                "final drain",
                want.1,
                cal.pop_first().map(key_of),
                Some(want),
            )?;
        }
        same("final len", 0, cal.len(), 0)
    }

    #[test]
    fn calendar_matches_legacy_on_random_workload() {
        assert_eq!(random_workload(CalendarQueue::new()), Ok(()));
    }

    /// Known-bad for [`random_workload`]: a `remove` that unlinks a
    /// list head without moving `heads[bucket]` leaves the bucket
    /// rooted at a freed slot. The model run must not come back `Ok`.
    #[test]
    fn model_catches_a_remove_that_forgets_the_bucket_head() {
        let mut cal = CalendarQueue::new();
        cal.forget_head_fix = true;
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| random_workload(cal)));
        assert!(
            !matches!(run, Ok(Ok(()))),
            "the broken unlink went unnoticed"
        );
    }

    /// Removal by handle from every home an entry can have, each step
    /// checked against the sorted map.
    #[test]
    fn remove_by_handle_reaches_every_home() {
        let mut cal = CalendarQueue::new();
        let mut leg = Legacy::default();
        let mut seq = 0u64;
        let mut add = |cal: &mut CalendarQueue<u64>, leg: &mut Legacy, us: u64| {
            seq += 1;
            leg.put(cal, us, seq)
        };
        let cancel = |cal: &mut CalendarQueue<u64>, leg: &mut Legacy, h: Handle| {
            let key = *leg.0.iter().find(|(_, &v)| v == h).expect("queued").0;
            leg.0.remove(&key);
            assert_eq!(cal.remove(h).map(key_of), Some((key.0, key.1, key.1)));
            assert_eq!(cal.remove(h).map(key_of), None, "double remove");
            assert_eq!(cal.len(), leg.0.len());
            assert_eq!(cal.peek_key(), leg.0.keys().next().copied());
        };
        // One day (the first millisecond at the initial width) holds
        // five entries; three more share a far bucket, a rotation apart
        // each.
        let day = [100, 200, 300, 400, 500].map(|us| add(&mut cal, &mut leg, us));
        let far = [0, 1, 2].map(|turn| add(&mut cal, &mut leg, 7_000 + (turn << 16)));
        // Far bucket: the middle of its list, its tail, its head.
        cancel(&mut cal, &mut leg, far[1]);
        cancel(&mut cal, &mut leg, far[0]);
        cancel(&mut cal, &mut leg, far[2]);
        // Stage the day by popping its first entry; its handle is stale.
        let (want, stale) = leg.pop_first_at_or_before(SimTime::MAX).expect("queued");
        assert_eq!(cal.pop_first().map(key_of), Some(want));
        assert_eq!(cal.remove(stale).map(key_of), None, "stale after pop");
        assert_eq!(cal.staged, 4);
        // Staged day: its head, its middle, and — after a same-day
        // insert mid-drain — that insert and the old last entry.
        cancel(&mut cal, &mut leg, day[1]);
        cancel(&mut cal, &mut leg, day[3]);
        let mid_drain = add(&mut cal, &mut leg, 450);
        assert_eq!(cal.staged, 3, "the same-day insert joined the heap");
        cancel(&mut cal, &mut leg, day[4]);
        cancel(&mut cal, &mut leg, mid_drain);
        assert_same_drain(&mut cal, &mut leg);
        assert!(cal.day.is_empty(), "dead keys left with the last live one");
    }

    /// Handles index slab slots and a rebuild moves only links, so a
    /// handle taken before one is good after it — through the growth
    /// rebuilds of 10 000 inserts, and through a long-scan heal.
    #[test]
    fn handles_survive_rebuilds() {
        let mut q = CalendarQueue::new();
        let early = put(&mut q, 123_456, 0);
        for s in 1..10_000u64 {
            put(&mut q, (s * 7_919) % 50_000_000, s);
        }
        assert!(q.heads.len() > MIN_BUCKETS, "the wheel grew");
        assert_eq!(q.remove(early).map(key_of), Some((t(123_456), 0, 0)));
        let drained = drain(&mut q);
        assert_eq!(drained.len(), 9_999);
        assert!(drained.windows(2).all(|w| w[0] <= w[1]), "sorted drain");

        // Twenty entries 40 ms apart on the initial 1 ms wheel: every
        // pop scans 40 buckets, and the eighth such pop heals.
        let mut q = CalendarQueue::new();
        let handles: Vec<Handle> = (0..20).map(|s| put(&mut q, s * 40_000, s)).collect();
        for s in 0..10 {
            assert_eq!(q.pop_first().map(|e| e.seq), Some(s));
        }
        assert_ne!(
            q.shift, INITIAL_SHIFT,
            "the long-scan heal re-derived the width"
        );
        assert_eq!(q.remove(handles[19]).map(|e| e.seq), Some(19));
        assert_eq!(q.remove(handles[3]).map(|e| e.seq), None, "popped long ago");
        assert_eq!(drain(&mut q).len(), 9);
    }

    #[test]
    fn same_tick_inserts_during_batch_stay_in_seq_order() {
        let mut q = CalendarQueue::new();
        for s in 0..4u64 {
            put(&mut q, 100, s);
        }
        // Pop one: stages the day holding tick 100.
        let first = q.pop_first().expect("staged");
        assert_eq!((first.time, first.seq), (t(100), 0));
        // Mid-drain, enqueue two more at the same tick and two later
        // in the day, the later one first.
        for s in 10..12u64 {
            put(&mut q, 100, s);
        }
        put(&mut q, 150, 12);
        put(&mut q, 120, 13);
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop_first().map(|e| e.seq)).collect();
        assert_eq!(rest, vec![1, 2, 3, 10, 11, 13, 12]);
    }

    #[test]
    fn remove_nth_and_ordered_traversal_agree_with_legacy() {
        let mut cal = CalendarQueue::new();
        let mut leg = Legacy::default();
        for (seq, us) in [(0u64, 300u64), (1, 100), (2, 200), (3, 100), (4, 700)] {
            leg.put(&mut cal, us, seq);
        }
        assert_eq!(keys_in_order(&cal), leg.keys_in_order());
        // Remove the 2nd-smallest from both; drains must still agree.
        assert_eq!(
            cal.remove_nth(2).map(key_of),
            leg.remove_nth(2).map(|(k, _)| k)
        );
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
