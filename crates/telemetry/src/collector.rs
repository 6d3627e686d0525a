//! Assembling span events into per-trace causal DAGs.
//!
//! The [`Collector`] consumes a finished run's
//! [`odp_sim::trace::Trace`] (or individual open/close observations)
//! and groups spans by `trace_id` into [`TraceDag`]s. Each DAG can be
//! audited for well-formedness — every span closed, every parent opened
//! no later than its child, no parent cycles — and mined for its
//! *critical path*: the root-to-leaf causal chain ending at the span
//! that closed last in virtual time, which for a quorum group RPC is
//! exactly the slowest member's reply chain.

use std::collections::BTreeMap;

use odp_fabric::{SpanCarrier, SpanOp};
use odp_sim::metrics::Histogram;
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;
use odp_sim::trace::Trace;

/// One observed span: identity, kind, where it ran and when it was
/// open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span's identity within its trace.
    pub ctx: SpanCarrier,
    /// Stable dotted kind, e.g. `rpc.serve`.
    pub kind: String,
    /// The node that opened the span.
    pub node: NodeId,
    /// Virtual time the span opened.
    pub opened: SimTime,
    /// Virtual time the span closed (`None` while still open — a
    /// well-formed finished trace has no such spans).
    pub closed: Option<SimTime>,
}

/// The causal DAG of one trace: every span sharing a `trace_id`,
/// keyed by `span_id`.
#[derive(Debug, Clone, Default)]
pub struct TraceDag {
    spans: BTreeMap<u64, SpanRecord>,
}

impl TraceDag {
    /// All spans in `span_id` order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.values()
    }

    /// Number of spans in the trace.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if the trace holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Looks up one span by id.
    pub fn get(&self, span_id: u64) -> Option<&SpanRecord> {
        self.spans.get(&span_id)
    }

    /// The earliest root open time (falls back to the earliest open of
    /// any span when no root was captured).
    pub fn root_open(&self) -> Option<SimTime> {
        self.spans
            .values()
            .filter(|s| s.ctx.parent.is_none())
            .map(|s| s.opened)
            .min()
            .or_else(|| self.spans.values().map(|s| s.opened).min())
    }

    /// Causal depth of a span: 0 for a root, parent depth + 1
    /// otherwise. Walks at most `len()` links so a corrupted cyclic
    /// chain terminates.
    pub fn depth(&self, span_id: u64) -> usize {
        let mut depth = 0;
        let mut cur = self.spans.get(&span_id);
        while let Some(s) = cur {
            match s.ctx.parent {
                Some(p) if depth < self.spans.len() => {
                    depth += 1;
                    cur = self.spans.get(&p);
                }
                _ => break,
            }
        }
        depth
    }

    /// Audits the DAG: every span closed, every referenced parent
    /// present and opened no later than its child, and the parent
    /// relation acyclic.
    pub fn well_formed(&self) -> Result<(), String> {
        for s in self.spans.values() {
            if s.closed.is_none() {
                return Err(format!(
                    "span {:016x}/{:016x} ({}) opened at {} but never closed",
                    s.ctx.trace_id, s.ctx.span_id, s.kind, s.opened
                ));
            }
            if let Some(p) = s.ctx.parent {
                let parent = self.spans.get(&p).ok_or_else(|| {
                    format!(
                        "span {:016x}/{:016x} ({}) references missing parent {:016x}",
                        s.ctx.trace_id, s.ctx.span_id, s.kind, p
                    )
                })?;
                if parent.opened > s.opened {
                    return Err(format!(
                        "parent {} ({}) opens at {} after child {} ({}) at {}",
                        parent.ctx.span_id,
                        parent.kind,
                        parent.opened,
                        s.ctx.span_id,
                        s.kind,
                        s.opened
                    ));
                }
            }
        }
        // Cycle check: a root must be reachable within len() hops.
        for &id in self.spans.keys() {
            let mut cur = id;
            let mut hops = 0;
            while let Some(p) = self.spans.get(&cur).and_then(|s| s.ctx.parent) {
                hops += 1;
                if hops > self.spans.len() {
                    return Err(format!(
                        "parent chain from span {id:016x} cycles (no root within {} hops)",
                        self.spans.len()
                    ));
                }
                cur = p;
            }
        }
        Ok(())
    }

    /// Extracts the critical path: the parent chain (root first) of the
    /// span that closed last in virtual time, breaking close-time ties
    /// toward the causally *deeper* span — the end of a quorum RPC
    /// closes the root and the slowest reply at the same instant, and
    /// the reply chain is the interesting one.
    pub fn critical_path(&self) -> Vec<&SpanRecord> {
        let Some(tail) = self.spans.values().max_by_key(|s| {
            (
                s.closed.unwrap_or(s.opened),
                self.depth(s.ctx.span_id),
                // Last tie-break keeps the choice deterministic across
                // equally-deep simultaneous closers.
                std::cmp::Reverse(s.ctx.span_id),
            )
        }) else {
            return Vec::new();
        };
        let mut path = Vec::new();
        let mut cur = Some(tail);
        while let Some(s) = cur {
            path.push(s);
            if path.len() > self.spans.len() {
                break; // corrupted cycle; well_formed() reports it
            }
            cur = s.ctx.parent.and_then(|p| self.spans.get(&p));
        }
        path.reverse();
        path
    }
}

/// Collects open/close observations into per-trace DAGs.
///
/// # Examples
///
/// ```
/// use odp_sim::net::NodeId;
/// use odp_sim::rng::DetRng;
/// use odp_sim::time::SimTime;
/// use odp_telemetry::collector::Collector;
///
/// let root = DetRng::seed_from(3).span_root();
/// let mut c = Collector::new();
/// c.ingest_open(SimTime::ZERO, NodeId(0), root, "rpc.call");
/// c.ingest_close(SimTime::from_millis(4), root.trace_id, root.span_id);
/// let dag = c.trace(root.trace_id).unwrap();
/// assert!(dag.well_formed().is_ok());
/// assert_eq!(dag.critical_path().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Collector {
    traces: BTreeMap<u64, TraceDag>,
    errors: Vec<String>,
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Builds a collector from a finished run's trace by replaying the
    /// binary [`odp_fabric::SpanLog`] riding on it — the one channel
    /// instrumented code records spans through.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut c = Collector::new();
        let log = trace.spans();
        for e in log.events() {
            let time = SimTime::from_micros(e.time_us);
            match e.op {
                SpanOp::Open { span, kind } => {
                    c.ingest_open(time, NodeId(e.node), span, log.kind(kind));
                }
                SpanOp::Close { trace_id, span_id } => {
                    c.ingest_close(time, trace_id, span_id);
                }
            }
        }
        c
    }

    /// Records a span opening.
    pub fn ingest_open(&mut self, time: SimTime, node: NodeId, ctx: SpanCarrier, kind: &str) {
        let dag = self.traces.entry(ctx.trace_id).or_default();
        if dag.spans.contains_key(&ctx.span_id) {
            self.errors.push(format!(
                "span {:016x}/{:016x} opened twice",
                ctx.trace_id, ctx.span_id
            ));
            return;
        }
        dag.spans.insert(
            ctx.span_id,
            SpanRecord {
                ctx,
                kind: kind.to_owned(),
                node,
                opened: time,
                closed: None,
            },
        );
    }

    /// Records a span closing.
    pub fn ingest_close(&mut self, time: SimTime, trace_id: u64, span_id: u64) {
        match self
            .traces
            .get_mut(&trace_id)
            .and_then(|d| d.spans.get_mut(&span_id))
        {
            Some(s) if s.closed.is_none() => s.closed = Some(time),
            Some(_) => self
                .errors
                .push(format!("span {trace_id:016x}/{span_id:016x} closed twice")),
            None => self.errors.push(format!(
                "close for unknown span {trace_id:016x}/{span_id:016x}"
            )),
        }
    }

    /// All traces in `trace_id` order.
    pub fn traces(&self) -> impl Iterator<Item = (u64, &TraceDag)> {
        self.traces.iter().map(|(&id, d)| (id, d))
    }

    /// One trace's DAG, if observed.
    pub fn trace(&self, trace_id: u64) -> Option<&TraceDag> {
        self.traces.get(&trace_id)
    }

    /// Number of distinct traces observed.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Total spans across all traces.
    pub fn span_count(&self) -> usize {
        self.traces.values().map(TraceDag::len).sum()
    }

    /// Spans that were opened but never closed, across all traces.
    pub fn unclosed(&self) -> usize {
        self.traces
            .values()
            .flat_map(|d| d.spans.values())
            .filter(|s| s.closed.is_none())
            .count()
    }

    /// Ingestion-level problems (malformed payloads, double opens,
    /// orphan closes). Structural problems live in
    /// [`TraceDag::well_formed`].
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Audits every trace plus ingestion errors.
    pub fn well_formed(&self) -> Result<(), String> {
        if let Some(e) = self.errors.first() {
            return Err(e.clone());
        }
        for dag in self.traces.values() {
            dag.well_formed()?;
        }
        Ok(())
    }

    /// Per-span-kind latency histograms: each closed span contributes
    /// its close time minus its trace's root open — i.e. how deep into
    /// the causal exchange that step completed. This turns, e.g., every
    /// `gc.deliver` close into an end-to-end delivery latency sample.
    pub fn kind_histograms(&self) -> BTreeMap<String, Histogram> {
        let mut hists: BTreeMap<String, Histogram> = BTreeMap::new();
        for dag in self.traces.values() {
            let Some(start) = dag.root_open() else {
                continue;
            };
            for s in dag.spans.values() {
                if let Some(closed) = s.closed {
                    if closed >= start {
                        hists
                            .entry(s.kind.clone())
                            .or_default()
                            .record(closed - start);
                    }
                }
            }
        }
        hists
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_sim::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn chain() -> (Collector, u64) {
        // root(call) -> serve -> reply, the canonical RPC shape.
        let root = SpanCarrier::root(1, 10);
        let serve = SpanCarrier::child_of(1, 20, 10);
        let reply = SpanCarrier::child_of(1, 30, 20);
        let mut c = Collector::new();
        c.ingest_open(t(0), NodeId(0), root, "rpc.call");
        c.ingest_open(t(5), NodeId(1), serve, "rpc.serve");
        c.ingest_close(t(6), 1, 20);
        c.ingest_open(t(11), NodeId(0), reply, "rpc.reply");
        c.ingest_close(t(11), 1, 30);
        c.ingest_close(t(11), 1, 10);
        (c, 1)
    }

    #[test]
    fn well_formed_chain_passes() {
        let (c, id) = chain();
        assert!(c.well_formed().is_ok());
        assert_eq!(c.trace(id).unwrap().len(), 3);
        assert_eq!(c.unclosed(), 0);
    }

    #[test]
    fn critical_path_prefers_deeper_span_on_tie() {
        let (c, id) = chain();
        // Root and reply both close at t=11; the reply chain (depth 2)
        // must win the tie.
        let kinds: Vec<_> = c
            .trace(id)
            .unwrap()
            .critical_path()
            .iter()
            .map(|s| s.kind.as_str())
            .collect();
        assert_eq!(kinds, ["rpc.call", "rpc.serve", "rpc.reply"]);
    }

    #[test]
    fn unclosed_span_fails_the_audit() {
        let mut c = Collector::new();
        c.ingest_open(t(0), NodeId(0), SpanCarrier::root(2, 1), "probe");
        assert_eq!(c.unclosed(), 1);
        let err = c.well_formed().unwrap_err();
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn missing_parent_fails_the_audit() {
        let mut c = Collector::new();
        let orphan = SpanCarrier {
            trace_id: 3,
            span_id: 5,
            parent: Some(99),
        };
        c.ingest_open(t(1), NodeId(0), orphan, "x");
        c.ingest_close(t(2), 3, 5);
        let err = c.well_formed().unwrap_err();
        assert!(err.contains("missing parent"), "{err}");
    }

    #[test]
    fn parent_opening_after_child_fails_the_audit() {
        let mut c = Collector::new();
        let root = SpanCarrier::root(4, 1);
        let child = SpanCarrier::child_of(4, 2, 1);
        c.ingest_open(t(9), NodeId(0), child, "early");
        c.ingest_open(t(10), NodeId(0), root, "late-root");
        c.ingest_close(t(11), 4, 1);
        c.ingest_close(t(11), 4, 2);
        let err = c.well_formed().unwrap_err();
        assert!(err.contains("after child"), "{err}");
    }

    #[test]
    fn parent_cycle_fails_the_audit() {
        let mut c = Collector::new();
        let a = SpanCarrier {
            trace_id: 5,
            span_id: 1,
            parent: Some(2),
        };
        let b = SpanCarrier {
            trace_id: 5,
            span_id: 2,
            parent: Some(1),
        };
        c.ingest_open(t(0), NodeId(0), a, "a");
        c.ingest_open(t(0), NodeId(0), b, "b");
        c.ingest_close(t(1), 5, 1);
        c.ingest_close(t(1), 5, 2);
        let err = c.well_formed().unwrap_err();
        assert!(err.contains("cycles"), "{err}");
    }

    #[test]
    fn orphan_close_and_double_open_are_errors() {
        let mut c = Collector::new();
        c.ingest_close(t(0), 7, 7);
        let root = SpanCarrier::root(8, 1);
        c.ingest_open(t(0), NodeId(0), root, "k");
        c.ingest_open(t(1), NodeId(0), root, "k");
        assert_eq!(c.errors().len(), 2);
        assert!(c.well_formed().is_err());
    }

    #[test]
    fn from_trace_ingests_the_binary_span_log() {
        let root = SpanCarrier::root(11, 1);
        let child = SpanCarrier::child_of(11, 2, 1);
        let mut tr = Trace::new();
        tr.span_open(t(0), NodeId(0), root, "rpc.call");
        tr.span_open(t(3), NodeId(1), child, "rpc.serve");
        tr.span_close(t(4), NodeId(1), child);
        tr.span_close(t(8), NodeId(0), root);
        let c = Collector::from_trace(&tr);
        assert!(c.well_formed().is_ok());
        assert_eq!(c.span_count(), 2);
        let hists = c.kind_histograms();
        assert_eq!(
            hists.get("rpc.serve").map(|h| h.mean()),
            Some(SimDuration::from_millis(4))
        );
    }

    #[test]
    fn from_trace_round_trips_through_payloads() {
        let root = SpanCarrier::root(9, 1);
        let child = SpanCarrier::child_of(9, 2, 1);
        let mut tr = Trace::new();
        tr.span_open(t(0), NodeId(0), root, "rpc.call");
        tr.span_open(t(3), NodeId(1), child, "rpc.serve");
        tr.span_close(t(4), NodeId(1), child);
        tr.span_close(t(8), NodeId(0), root);
        let c = Collector::from_trace(&tr);
        assert!(c.well_formed().is_ok());
        assert_eq!(c.span_count(), 2);
        let hists = c.kind_histograms();
        assert_eq!(
            hists.get("rpc.serve").map(|h| h.mean()),
            Some(SimDuration::from_millis(4))
        );
        assert_eq!(
            hists.get("rpc.call").map(|h| h.mean()),
            Some(SimDuration::from_millis(8))
        );
    }
}
