//! A structured trace of interesting events in a run.
//!
//! Experiments use the trace to measure *notification time* and other
//! cross-actor properties that no single actor can observe locally: an
//! actor records a labelled event, and the harness correlates records
//! afterwards.

use std::fmt::{self, Write};

use odp_fabric::span::{SpanCarrier, SpanLog};

use crate::net::NodeId;
use crate::time::SimTime;

/// One labelled, timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// Which node recorded it.
    pub node: NodeId,
    /// A stable, machine-matchable label (e.g. `"op.applied"`).
    pub label: String,
    /// Free-form payload (e.g. an operation id) used for correlation.
    pub data: String,
}

/// An event log for one simulation run, optionally bounded.
///
/// By default the log is append-only and unbounded. A *capacity* turns
/// it into a sliding window over the most recent records: older records
/// are evicted and counted in [`Trace::dropped`], so long
/// telemetry-instrumented runs cannot grow memory without bound.
/// Eviction is amortised — the backing storage holds at most a quarter
/// more than the capacity and compacts in one move, so `record` stays
/// O(1) and [`Trace::events`] stays a contiguous slice. Compaction keeps
/// the evicted records behind the window, and later records are written
/// into their `String`s in place: a full window records without
/// allocating.
///
/// # Examples
///
/// ```
/// use odp_sim::trace::Trace;
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let mut t = Trace::new();
/// t.record(SimTime::ZERO, NodeId(0), "op.issued", "op-1");
/// t.record(SimTime::from_millis(3), NodeId(1), "op.applied", "op-1");
/// assert_eq!(t.with_label("op.applied").count(), 1);
///
/// let mut bounded = Trace::with_capacity(2);
/// for i in 0..5 {
///     bounded.record(SimTime::from_millis(i), NodeId(0), "tick", i);
/// }
/// assert_eq!(bounded.len(), 2);
/// assert_eq!(bounded.dropped(), 3);
/// assert_eq!(bounded.events()[0].data, "3");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// `events[..live]` are the records; under a capacity,
    /// `events[live..]` are evicted ones kept for their buffers.
    events: Vec<TraceEvent>,
    live: usize,
    /// Where a new record's data is formatted, so that its `String` is
    /// allocated once and exactly, however many pieces `data` writes.
    fmt_buf: String,
    enabled: bool,
    capacity: Option<usize>,
    recorded: u64,
    spans: SpanLog,
}

impl Trace {
    /// Creates an enabled, empty, unbounded trace.
    pub fn new() -> Self {
        Trace {
            events: Vec::new(),
            live: 0,
            fmt_buf: String::new(),
            enabled: true,
            capacity: None,
            recorded: 0,
            spans: SpanLog::new(),
        }
    }

    /// Creates an enabled, empty trace retaining only the most recent
    /// `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut t = Trace::new();
        t.capacity = Some(capacity);
        t
    }

    /// Disables recording (records become no-ops); useful for large
    /// benchmark runs where only metrics matter.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Re-enables recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// The retention bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Sets (or removes) the retention bound. Shrinking evicts the
    /// oldest surplus records immediately; records already evicted stay
    /// evicted when the bound widens.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        let keep = self.window().len();
        self.events.truncate(self.live);
        self.events.drain(..self.live - keep);
        self.capacity = capacity;
        if let Some(cap) = capacity {
            if keep > cap {
                self.events.drain(..keep - cap);
            }
        }
        self.live = self.events.len();
    }

    /// Number of records evicted by the capacity bound since the last
    /// [`Trace::clear`] (zero while unbounded).
    pub fn dropped(&self) -> u64 {
        self.recorded - self.window().len() as u64
    }

    /// The retained window: the most recent `capacity` records (all of
    /// them while unbounded). Compaction is amortised, so the backing
    /// vector holds up to a quarter more than the capacity; every query
    /// goes through this view.
    fn window(&self) -> &[TraceEvent] {
        let live = self.live;
        let keep = live.min(self.capacity.unwrap_or(live));
        &self.events[live - keep..live]
    }

    /// Appends a record (no-op when disabled); `data` is formatted
    /// straight into it, so a caller passes the value or a
    /// `format_args!`, not a `String`. When the trace is at capacity the
    /// oldest retained record is evicted, and its buffers take a later
    /// record.
    pub fn record(&mut self, time: SimTime, node: NodeId, label: &str, data: impl fmt::Display) {
        if !self.enabled {
            return;
        }
        self.recorded += 1;
        if self.capacity == Some(0) {
            return;
        }
        if let Some(spare) = self.events.get_mut(self.live) {
            spare.time = time;
            spare.node = node;
            spare.label.clear();
            spare.label.push_str(label);
            spare.data.clear();
            // Writing into a `String` cannot fail.
            let _ = write!(spare.data, "{data}");
        } else {
            self.fmt_buf.clear();
            let _ = write!(self.fmt_buf, "{data}");
            self.events.push(TraceEvent {
                time,
                node,
                label: label.to_owned(),
                data: self.fmt_buf.clone(),
            });
        }
        self.live += 1;
        if let Some(cap) = self.capacity {
            // Compact once a quarter of the window has been evicted: the
            // rotation moves the window to the front and the evicted
            // records behind it for reuse, five element moves per record
            // amortised. A larger slack moves less but keeps more
            // records' buffers resident — all of them, not only the
            // live ones, since evicted buffers are kept.
            if self.live >= cap.saturating_add((cap / 4).max(1)) {
                self.events.rotate_left(self.live - cap);
                self.live = cap;
            }
        }
    }

    /// Retained records in time order (records are appended in event
    /// order, which the engine guarantees is non-decreasing in time).
    /// With a capacity set this is the most recent window only.
    pub fn events(&self) -> &[TraceEvent] {
        self.window()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.window().len()
    }

    /// True if the trace retains no records.
    pub fn is_empty(&self) -> bool {
        self.window().is_empty()
    }

    /// Iterates retained records with the given label.
    pub fn with_label<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.window().iter().filter(move |e| e.label == label)
    }

    /// Iterates retained records with the given label *and* data payload.
    pub fn matching<'a>(
        &'a self,
        label: &'a str,
        data: &'a str,
    ) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.window()
            .iter()
            .filter(move |e| e.label == label && e.data == data)
    }

    /// The first retained record with this label, if any.
    pub fn first(&self, label: &str) -> Option<&TraceEvent> {
        self.window().iter().find(|e| e.label == label)
    }

    /// The last retained record with this label, if any.
    pub fn last(&self, label: &str) -> Option<&TraceEvent> {
        self.window().iter().rev().find(|e| e.label == label)
    }

    /// For every record labelled `cause` with payload `d`, finds the first
    /// subsequent record labelled `effect` with the same payload and yields
    /// the pair. This is the primitive behind notification-time
    /// measurements: cause = "op issued", effect = "op seen by peer".
    pub fn cause_effect_pairs<'a>(
        &'a self,
        cause: &'a str,
        effect: &'a str,
    ) -> Vec<(&'a TraceEvent, &'a TraceEvent)> {
        let window = self.window();
        let mut pairs = Vec::new();
        for (i, c) in window.iter().enumerate() {
            if c.label != cause {
                continue;
            }
            if let Some(e) = window[i + 1..]
                .iter()
                .find(|e| e.label == effect && e.data == c.data)
            {
                pairs.push((c, e));
            }
        }
        pairs
    }

    /// Records a telemetry span opening (no-op when disabled). Span
    /// records live in the binary [`SpanLog`] beside the string events:
    /// one fixed-size push with the kind interned, instead of two
    /// hex-formatted `String` allocations — the difference between
    /// ~9.8% and <2% instrumentation overhead on the E13 workload.
    pub fn span_open(&mut self, time: SimTime, node: NodeId, span: SpanCarrier, kind: &str) {
        if !self.enabled {
            return;
        }
        self.spans.open(time.as_micros(), node.0, span, kind);
    }

    /// Records a telemetry span closing (no-op when disabled).
    pub fn span_close(&mut self, time: SimTime, node: NodeId, span: SpanCarrier) {
        if !self.enabled {
            return;
        }
        self.spans
            .close(time.as_micros(), node.0, span.trace_id, span.span_id);
    }

    /// The binary span log (unbounded; span records are fixed-size and
    /// a run's span count is bounded by its instrumented message count,
    /// unlike free-form string records).
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Clears all records and the dropped-events counter; the capacity
    /// bound (and enablement) are kept.
    pub fn clear(&mut self) {
        self.events.clear();
        self.live = 0;
        self.recorded = 0;
        self.spans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn record_and_query() {
        let mut tr = Trace::new();
        tr.record(t(0), NodeId(0), "a", "x");
        tr.record(t(1), NodeId(1), "b", "x");
        tr.record(t(2), NodeId(1), "a", "y");
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.with_label("a").count(), 2);
        assert_eq!(tr.matching("a", "y").count(), 1);
        assert_eq!(tr.first("a").unwrap().data, "x");
        assert_eq!(tr.last("a").unwrap().data, "y");
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::new();
        tr.disable();
        tr.record(t(0), NodeId(0), "a", "x");
        assert!(tr.is_empty());
        tr.enable();
        tr.record(t(1), NodeId(0), "a", "x");
        assert_eq!(tr.len(), 1);
    }

    #[test]
    fn cause_effect_pairs_match_payloads_in_order() {
        let mut tr = Trace::new();
        tr.record(t(0), NodeId(0), "issued", "op1");
        tr.record(t(5), NodeId(1), "seen", "op1");
        tr.record(t(6), NodeId(2), "seen", "op1"); // later duplicate ignored
        tr.record(t(7), NodeId(0), "issued", "op2");
        tr.record(t(9), NodeId(1), "seen", "op2");
        let pairs = tr.cause_effect_pairs("issued", "seen");
        assert_eq!(pairs.len(), 2);
        assert_eq!(
            pairs[0].1.time - pairs[0].0.time,
            SimDuration::from_millis(5)
        );
        assert_eq!(
            pairs[1].1.time - pairs[1].0.time,
            SimDuration::from_millis(2)
        );
    }

    #[test]
    fn cause_without_effect_is_skipped() {
        let mut tr = Trace::new();
        tr.record(t(0), NodeId(0), "issued", "op1");
        assert!(tr.cause_effect_pairs("issued", "seen").is_empty());
    }

    #[test]
    fn unbounded_trace_drops_nothing() {
        let mut tr = Trace::new();
        for i in 0..100 {
            tr.record(t(i), NodeId(0), "e", i);
        }
        assert_eq!(tr.len(), 100);
        assert_eq!(tr.dropped(), 0);
        assert_eq!(tr.capacity(), None);
    }

    #[test]
    fn bounded_trace_keeps_the_most_recent_window() {
        let mut tr = Trace::with_capacity(3);
        for i in 0..10 {
            tr.record(t(i), NodeId(0), "e", i);
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 7);
        let data: Vec<_> = tr.events().iter().map(|e| e.data.as_str()).collect();
        assert_eq!(data, ["7", "8", "9"]);
        // Queries see only the window.
        assert!(tr.matching("e", "0").next().is_none());
        assert_eq!(tr.first("e").unwrap().data, "7");
        assert_eq!(tr.last("e").unwrap().data, "9");
    }

    #[test]
    fn bounded_backing_storage_stays_under_twice_capacity() {
        let mut tr = Trace::with_capacity(4);
        for i in 0..1000 {
            tr.record(t(i), NodeId(0), "e", "x");
            assert!(tr.events.len() <= 8, "backing grew to {}", tr.events.len());
            assert_eq!(tr.len(), (i as usize + 1).min(4));
        }
        assert_eq!(tr.dropped(), 996);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let mut tr = Trace::new();
        for i in 0..6 {
            tr.record(t(i), NodeId(0), "e", i);
        }
        tr.set_capacity(Some(2));
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped(), 4);
        assert_eq!(tr.events()[0].data, "4");
        tr.set_capacity(None);
        tr.record(t(9), NodeId(0), "e", "9");
        assert_eq!(tr.len(), 3, "unbounded again, nothing else evicted");
    }

    #[test]
    fn widening_the_bound_does_not_bring_back_evicted_records() {
        let mut tr = Trace::with_capacity(2);
        for i in 0..3 {
            tr.record(t(i), NodeId(0), "e", i);
        }
        assert_eq!((tr.len(), tr.dropped()), (2, 1));
        tr.set_capacity(None);
        assert_eq!((tr.len(), tr.dropped()), (2, 1), "record 0 was evicted");
        assert_eq!(tr.events()[0].data, "1");
    }

    proptest::proptest! {
        /// A windowed trace, reusing evicted records in place, holds
        /// exactly the last `capacity` records of an unbounded trace fed
        /// the same records, byte for byte, and counts the rest dropped.
        #[test]
        fn a_window_is_the_tail_of_the_unbounded_trace(
            capacity in 0usize..6,
            records in proptest::collection::vec((0u64..4, 0u32..3, 0u32..4, 0u64..100_000), 0..60),
        ) {
            let labels = ["", "op.applied", "a much longer label than the others", "x"];
            let mut window = Trace::with_capacity(capacity);
            let mut full = Trace::new();
            for (i, &(ms, node, label, value)) in records.iter().enumerate() {
                let label = labels[label as usize];
                // Data of every length, so reused buffers both grow and
                // shrink.
                let pad = "#".repeat(value as usize % 7);
                window.record(t(ms), NodeId(node), label, format_args!("{pad}{value}"));
                full.record(t(ms), NodeId(node), label, format_args!("{pad}{value}"));
                let tail = &full.events()[full.len() - full.len().min(capacity)..];
                proptest::prop_assert_eq!(window.events(), tail, "after record {}", i);
                proptest::prop_assert_eq!(window.len(), tail.len());
                proptest::prop_assert_eq!(window.dropped(), (full.len() - tail.len()) as u64);
                proptest::prop_assert!(window.events.len() <= capacity + (capacity / 4).max(1));
            }
        }
    }

    #[test]
    fn clear_keeps_capacity_and_resets_dropped() {
        let mut tr = Trace::with_capacity(2);
        for i in 0..5 {
            tr.record(t(i), NodeId(0), "e", "x");
        }
        assert!(tr.dropped() > 0);
        tr.clear();
        assert!(tr.is_empty());
        assert_eq!(tr.dropped(), 0);
        assert_eq!(tr.capacity(), Some(2));
        for i in 0..5 {
            tr.record(t(i), NodeId(0), "e", i);
        }
        assert_eq!(tr.len(), 2, "bound survives clear()");
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut tr = Trace::with_capacity(0);
        tr.record(t(0), NodeId(0), "e", "x");
        assert!(tr.is_empty());
        assert_eq!(tr.dropped(), 1);
    }
}
