//! The interned binary span carrier and the span log.
//!
//! Telemetry spans used to ride the string trace as
//! `trace:span:parent:kind` hex payloads — two `String` allocations per
//! record, parsed back with a hand-rolled hex scanner. On instrumented
//! hot paths that was ~9.8% of E13's runtime. Here a span record is one
//! fixed-size push into a [`SpanLog`]: the ids travel as raw `u64`s in
//! a [`SpanCarrier`] and the kind string is interned once per distinct
//! kind into a [`KindId`].
//!
//! A [`SpanCarrier`] is the span's one identity everywhere: minted
//! beside the rng (`odp_sim::rng::DetRng::span_root` / `span_child`) or
//! from a counter ([`SpanCarrier::root`] / [`SpanCarrier::child_of`]),
//! carried on every envelope, recorded here and replayed by the
//! collector. Its binary codec ([`SpanCarrier::encode_into`] /
//! [`SpanCarrier::decode_from`]) is the one the wire uses — `odp-net`'s
//! `WireCodec` impl delegates to it — in the workspace wire convention
//! (big-endian fixed-width ints, `0`/`1` option tag), with a total
//! decoder the hostile-bytes property suite pins down.

use std::fmt;

/// Decode errors for the fabric's standalone codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// Fewer bytes than the value needs.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes present.
        have: usize,
    },
    /// An enum tag outside the defined range.
    BadTag {
        /// The offending tag byte.
        tag: u8,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Truncated { needed, have } => {
                write!(f, "truncated: needed {needed} bytes, have {have}")
            }
            FabricError::BadTag { tag } => write!(f, "bad tag byte {tag}"),
        }
    }
}

impl std::error::Error for FabricError {}

/// The binary identity of one span: what the hex string
/// `trace:span:parent` used to carry, as raw words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanCarrier {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id, unique within the trace.
    pub span_id: u64,
    /// The parent span id, `None` for roots.
    pub parent: Option<u64>,
}

impl SpanCarrier {
    /// A root carrier (no parent).
    pub fn root(trace_id: u64, span_id: u64) -> Self {
        SpanCarrier {
            trace_id,
            span_id,
            parent: None,
        }
    }

    /// A child carrier under `parent`.
    pub fn child_of(trace_id: u64, span_id: u64, parent: u64) -> Self {
        SpanCarrier {
            trace_id,
            span_id,
            parent: Some(parent),
        }
    }

    /// Appends the binary encoding: `trace_id` and `span_id` as
    /// big-endian `u64`s, then a `0`/`1` option tag and, if present,
    /// the parent id — what the workspace wire codec would derive for
    /// `(u64, u64, Option<u64>)`, and what it writes for a span.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.trace_id.to_be_bytes());
        out.extend_from_slice(&self.span_id.to_be_bytes());
        match self.parent {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.to_be_bytes());
            }
        }
    }

    /// Reads one carrier from the front of `bytes`, returning it and
    /// the bytes consumed. Total: truncated or hostile input yields a
    /// [`FabricError`], never a panic.
    pub fn decode_from(bytes: &[u8]) -> Result<(SpanCarrier, usize), FabricError> {
        fn word(bytes: &[u8], at: usize) -> Result<u64, FabricError> {
            let Some(slice) = bytes.get(at..at + 8) else {
                return Err(FabricError::Truncated {
                    needed: at + 8,
                    have: bytes.len(),
                });
            };
            let mut fixed = [0u8; 8];
            fixed.copy_from_slice(slice);
            Ok(u64::from_be_bytes(fixed))
        }
        let trace_id = word(bytes, 0)?;
        let span_id = word(bytes, 8)?;
        let Some(&tag) = bytes.get(16) else {
            return Err(FabricError::Truncated {
                needed: 17,
                have: bytes.len(),
            });
        };
        match tag {
            0 => Ok((
                SpanCarrier {
                    trace_id,
                    span_id,
                    parent: None,
                },
                17,
            )),
            1 => {
                let parent = word(bytes, 17)?;
                Ok((
                    SpanCarrier {
                        trace_id,
                        span_id,
                        parent: Some(parent),
                    },
                    25,
                ))
            }
            tag => Err(FabricError::BadTag { tag }),
        }
    }
}

/// An interned span-kind: index into a [`SpanLog`]'s kind table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KindId(pub u16);

/// One span operation. A span that opens and closes at the same
/// instant — most of them: a delivery, a served request, a sent frame —
/// is one [`SpanOp::Instant`] record; only a span that outlives its
/// handler (an RPC call awaiting its quorum) is an `Open` and, later, a
/// `Close`. Read as open/close pairs, an `Instant` is an `Open`
/// followed by its `Close` at the same time and node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOp {
    /// A span opened, with its interned kind.
    Open {
        /// The span identity.
        span: SpanCarrier,
        /// Which kind, resolvable via [`SpanLog::kind`].
        kind: KindId,
    },
    /// A span closed.
    Close {
        /// The trace the closing span belongs to.
        trace_id: u64,
        /// The closing span's id.
        span_id: u64,
    },
    /// A span opened and closed at the same instant.
    Instant {
        /// The span identity.
        span: SpanCarrier,
        /// Which kind, resolvable via [`SpanLog::kind`].
        kind: KindId,
    },
}

impl SpanOp {
    /// The span this record opens, with its kind: an `Open`'s, or an
    /// `Instant`'s (read as its open, then [`SpanOp::closed`]).
    pub fn opened(&self) -> Option<(SpanCarrier, KindId)> {
        match *self {
            SpanOp::Open { span, kind } | SpanOp::Instant { span, kind } => Some((span, kind)),
            SpanOp::Close { .. } => None,
        }
    }

    /// The `(trace_id, span_id)` this record closes: a `Close`'s, or an
    /// `Instant`'s, at the same time it opens.
    pub fn closed(&self) -> Option<(u64, u64)> {
        match *self {
            SpanOp::Close { trace_id, span_id } => Some((trace_id, span_id)),
            SpanOp::Instant { span, .. } => Some((span.trace_id, span.span_id)),
            SpanOp::Open { .. } => None,
        }
    }
}

/// One timestamped span record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Event time in microseconds since the epoch of the owning run.
    pub time_us: u64,
    /// The recording node's raw id.
    pub node: u32,
    /// What happened.
    pub op: SpanOp,
}

/// The append-only binary span log: a kind-interning table plus a flat
/// vector of fixed-size [`SpanEvent`]s. Recording a span is one
/// (amortised) allocation-free push — one record for an instantaneous
/// span ([`SpanLog::instant`]), an open and a close for one that spans
/// time; the collector resolves kinds back to strings after the run.
///
/// ```
/// use odp_fabric::span::{SpanCarrier, SpanLog, SpanOp};
///
/// let mut log = SpanLog::new();
/// let root = SpanCarrier::root(1, 10);
/// log.open(0, 0, root, "rpc.call");
/// log.instant(120, 1, SpanCarrier::child_of(1, 11, 10), "rpc.serve");
/// log.close(250, 0, 1, 10);
/// assert_eq!(log.len(), 3);
/// let SpanOp::Open { kind, .. } = log.events()[0].op else { panic!() };
/// assert_eq!(log.kind(kind), "rpc.call");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanLog {
    kinds: Vec<String>,
    events: Vec<SpanEvent>,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// Interns `kind`, returning the existing id when seen before. The
    /// table is scanned linearly — real workloads have a handful of
    /// distinct kinds, and first-use order keeps ids deterministic.
    /// Beyond `u16::MAX` distinct kinds new entries collapse onto the
    /// last id rather than growing unboundedly.
    pub fn intern(&mut self, kind: &str) -> KindId {
        if let Some(at) = self.kinds.iter().position(|k| k == kind) {
            return KindId(at as u16);
        }
        if self.kinds.len() > usize::from(u16::MAX) {
            return KindId(u16::MAX);
        }
        self.kinds.push(kind.to_owned());
        KindId((self.kinds.len() - 1) as u16)
    }

    /// Resolves an interned kind; `"?"` for an id this log never issued.
    pub fn kind(&self, id: KindId) -> &str {
        self.kinds
            .get(usize::from(id.0))
            .map_or("?", String::as_str)
    }

    /// Records a span open.
    pub fn open(&mut self, time_us: u64, node: u32, span: SpanCarrier, kind: &str) {
        let kind = self.intern(kind);
        self.events.push(SpanEvent {
            time_us,
            node,
            op: SpanOp::Open { span, kind },
        });
    }

    /// Records a span close.
    pub fn close(&mut self, time_us: u64, node: u32, trace_id: u64, span_id: u64) {
        self.events.push(SpanEvent {
            time_us,
            node,
            op: SpanOp::Close { trace_id, span_id },
        });
    }

    /// Records a span that opens and closes at `time_us`: one record
    /// where [`SpanLog::open`] then [`SpanLog::close`] would write two.
    pub fn instant(&mut self, time_us: u64, node: u32, span: SpanCarrier, kind: &str) {
        let kind = self.intern(kind);
        self.events.push(SpanEvent {
            time_us,
            node,
            op: SpanOp::Instant { span, kind },
        });
    }

    /// The events, in record order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// The interned kind table, in first-use order.
    pub fn kinds(&self) -> &[String] {
        &self.kinds
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops all events and interned kinds.
    pub fn clear(&mut self) {
        self.kinds.clear();
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_ctors_link_parent() {
        let root = SpanCarrier::root(9, 1);
        let child = SpanCarrier::child_of(root.trace_id, 2, root.span_id);
        assert_eq!(root.parent, None);
        assert_eq!(child.trace_id, 9);
        assert_eq!(child.parent, Some(1));
    }

    #[test]
    fn carrier_roundtrips_with_and_without_parent() {
        for carrier in [
            SpanCarrier::root(0xdead_beef, 1),
            SpanCarrier::child_of(7, u64::MAX, 3),
        ] {
            let mut buf = vec![0xAA]; // leading junk the caller already consumed
            let start = buf.len();
            carrier.encode_into(&mut buf);
            let (back, used) = SpanCarrier::decode_from(&buf[start..]).expect("decodes");
            assert_eq!(back, carrier);
            assert_eq!(used, buf.len() - start);
        }
    }

    #[test]
    fn truncated_and_hostile_bytes_error() {
        let mut buf = Vec::new();
        SpanCarrier::child_of(1, 2, 3).encode_into(&mut buf);
        for cut in 0..buf.len() {
            assert!(SpanCarrier::decode_from(&buf[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = buf.clone();
        bad[16] = 9; // invalid option tag
        assert_eq!(
            SpanCarrier::decode_from(&bad),
            Err(FabricError::BadTag { tag: 9 })
        );
    }

    #[test]
    fn interning_is_first_use_ordered_and_stable() {
        let mut log = SpanLog::new();
        let a = log.intern("gc.mcast");
        let b = log.intern("gc.deliver");
        assert_eq!(log.intern("gc.mcast"), a);
        assert_ne!(a, b);
        assert_eq!(log.kind(a), "gc.mcast");
        assert_eq!(log.kind(KindId(999)), "?");
    }

    #[test]
    fn open_close_record_in_order() {
        let mut log = SpanLog::new();
        log.open(5, 2, SpanCarrier::root(1, 1), "k");
        log.close(9, 2, 1, 1);
        assert_eq!(log.len(), 2);
        assert!(matches!(
            log.events()[1].op,
            SpanOp::Close {
                trace_id: 1,
                span_id: 1
            }
        ));
        log.clear();
        assert!(log.is_empty());
        assert!(log.kinds().is_empty());
    }

    #[test]
    fn an_instant_span_is_one_record() {
        let mut log = SpanLog::new();
        let span = SpanCarrier::child_of(3, 7, 1);
        log.instant(40, 5, span, "gc.deliver");
        assert_eq!(log.len(), 1);
        let SpanEvent { time_us, node, op } = log.events()[0];
        assert_eq!((time_us, node), (40, 5));
        let SpanOp::Instant { span: got, kind } = op else {
            panic!("expected an instant record, got {op:?}");
        };
        assert_eq!(got, span);
        assert_eq!(log.kind(kind), "gc.deliver");
        // Read as open/close pairs it is an open then its close.
        assert_eq!(op.opened(), Some((span, kind)));
        assert_eq!(op.closed(), Some((3, 7)));
        // The kind is interned like an open's.
        log.open(41, 5, SpanCarrier::root(4, 1), "gc.deliver");
        assert_eq!(log.kinds().len(), 1);
    }
}
