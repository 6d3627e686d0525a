//! Deterministic causal spans.
//!
//! A [`SpanContext`] names one unit of causally-related work: a group
//! RPC, one member's service of it, a trader import, a media frame in
//! flight. Contexts are minted from the simulation's seeded
//! [`DetRng`] — never from a wallclock or an OS entropy source — so a
//! run's entire span graph is a pure function of its seed.
//!
//! Spans travel two ways:
//!
//! - **on the wire**, piggybacked on protocol envelopes through the
//!   [`Carrier`] trait, so causality survives multicast fan-out,
//!   federation hops and stream binding;
//! - **into the run record**, as ordinary [`odp_sim::trace::Trace`]
//!   events labelled [`OPEN`] / [`CLOSE`] with a compact textual
//!   payload, so no new channel between actors and harness is needed.
//!   A [`crate::collector::Collector`] parses them back afterwards.

use odp_fabric::SpanCarrier;
use odp_sim::rng::DetRng;

/// Trace-event label marking a span opening. Payload format:
/// `trace:span:parent:kind` with ids in fixed-width hex and `-` for a
/// root's absent parent (see [`SpanContext::open_data`]).
pub const OPEN: &str = "tel.open";

/// Trace-event label marking a span closing. Payload format:
/// `trace:span` (see [`SpanContext::close_data`]).
pub const CLOSE: &str = "tel.close";

/// The identity of one span within a causal trace.
///
/// `trace_id` groups every span descending from one root; `span_id` is
/// unique within the run; `parent` is the causally preceding span's id
/// (`None` for a root).
///
/// # Examples
///
/// ```
/// use odp_sim::rng::DetRng;
/// use odp_telemetry::span::SpanContext;
///
/// let mut rng = DetRng::seed_from(7);
/// let root = SpanContext::root(&mut rng);
/// let child = root.child(&mut rng);
/// assert_eq!(child.trace_id, root.trace_id);
/// assert_eq!(child.parent, Some(root.span_id));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanContext {
    /// Groups all spans of one causal trace.
    pub trace_id: u64,
    /// This span's unique id.
    pub span_id: u64,
    /// The parent span's id, if any.
    pub parent: Option<u64>,
}

impl SpanContext {
    /// Mints a fresh root span from the deterministic generator.
    pub fn root(rng: &mut DetRng) -> Self {
        SpanContext {
            trace_id: rng.next_u64(),
            span_id: rng.next_u64(),
            parent: None,
        }
    }

    /// Mints a child of `self` from the deterministic generator.
    pub fn child(&self, rng: &mut DetRng) -> Self {
        SpanContext {
            trace_id: self.trace_id,
            span_id: rng.next_u64(),
            parent: Some(self.span_id),
        }
    }

    /// Builds a root span from explicit ids (for counter-based minting
    /// where no rng is in scope, e.g. session engines).
    pub fn root_with(trace_id: u64, span_id: u64) -> Self {
        SpanContext {
            trace_id,
            span_id,
            parent: None,
        }
    }

    /// Builds a child of `self` from an explicit id.
    pub fn child_with(&self, span_id: u64) -> Self {
        SpanContext {
            trace_id: self.trace_id,
            span_id,
            parent: Some(self.span_id),
        }
    }

    /// Renders the [`OPEN`] payload: `trace:span:parent:kind`, ids as
    /// fixed-width hex, `-` for an absent parent. `kind` is a stable
    /// dotted name such as `rpc.call`; it must not contain `:`.
    ///
    /// Hand-rolled hex (no `format!` machinery): this runs twice per
    /// minted span on instrumented message paths, and the rendering
    /// cost is the bulk of the telemetry overhead the bench reports.
    pub fn open_data(&self, kind: &str) -> String {
        debug_assert!(!kind.contains(':'), "span kind {kind:?} contains ':'");
        let mut out = String::with_capacity(3 * 17 + 1 + kind.len());
        push_hex16(&mut out, self.trace_id);
        out.push(':');
        push_hex16(&mut out, self.span_id);
        out.push(':');
        match self.parent {
            Some(p) => push_hex16(&mut out, p),
            None => out.push('-'),
        }
        out.push(':');
        out.push_str(kind);
        out
    }

    /// Renders the [`CLOSE`] payload: `trace:span` in fixed-width hex.
    pub fn close_data(&self) -> String {
        let mut out = String::with_capacity(2 * 17);
        push_hex16(&mut out, self.trace_id);
        out.push(':');
        push_hex16(&mut out, self.span_id);
        out
    }

    /// Parses an [`OPEN`] payload back into a context and its kind.
    pub fn parse_open(data: &str) -> Option<(SpanContext, &str)> {
        let mut parts = data.splitn(4, ':');
        let trace_id = u64::from_str_radix(parts.next()?, 16).ok()?;
        let span_id = u64::from_str_radix(parts.next()?, 16).ok()?;
        let parent = match parts.next()? {
            "-" => None,
            p => Some(u64::from_str_radix(p, 16).ok()?),
        };
        let kind = parts.next()?;
        Some((
            SpanContext {
                trace_id,
                span_id,
                parent,
            },
            kind,
        ))
    }

    /// Parses a [`CLOSE`] payload back into `(trace_id, span_id)`.
    pub fn parse_close(data: &str) -> Option<(u64, u64)> {
        let mut parts = data.splitn(2, ':');
        let trace_id = u64::from_str_radix(parts.next()?, 16).ok()?;
        let span_id = u64::from_str_radix(parts.next()?, 16).ok()?;
        Some((trace_id, span_id))
    }

    /// The fabric-layer view of this context, for recording into a
    /// host's binary [`odp_fabric::SpanLog`] or piggybacking on a
    /// byte-oriented envelope. Same three fields, no telemetry deps.
    pub fn carrier(&self) -> SpanCarrier {
        SpanCarrier {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent: self.parent,
        }
    }
}

impl From<SpanContext> for SpanCarrier {
    fn from(ctx: SpanContext) -> SpanCarrier {
        ctx.carrier()
    }
}

impl From<SpanCarrier> for SpanContext {
    fn from(c: SpanCarrier) -> SpanContext {
        SpanContext {
            trace_id: c.trace_id,
            span_id: c.span_id,
            parent: c.parent,
        }
    }
}

/// Appends `v` as exactly 16 lowercase hex digits.
fn push_hex16(out: &mut String, v: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = DIGITS[((v >> ((15 - i) * 4)) & 0xf) as usize];
    }
    // Every byte is ASCII hex, so the slice is valid UTF-8.
    out.push_str(std::str::from_utf8(&buf).unwrap_or("????????????????"));
}

/// A protocol envelope that can piggyback a span context.
///
/// Implemented by `odp_groupcomm`'s multicast/RPC envelopes,
/// `odp_trader`'s lookup messages and `odp_streams`' frames; anything
/// that forwards or transforms a carrier should propagate its span so
/// the collector can stitch the hop into the causal DAG.
pub trait Carrier {
    /// The span riding on this envelope, if any.
    fn span(&self) -> Option<SpanContext>;
    /// Attaches (or clears) the riding span.
    fn set_span(&mut self, span: Option<SpanContext>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minting_is_deterministic_per_seed() {
        let mut a = DetRng::seed_from(42);
        let mut b = DetRng::seed_from(42);
        let ra = SpanContext::root(&mut a);
        let rb = SpanContext::root(&mut b);
        assert_eq!(ra, rb);
        assert_eq!(ra.child(&mut a), rb.child(&mut b));
    }

    #[test]
    fn open_payload_round_trips() {
        let mut rng = DetRng::seed_from(1);
        let root = SpanContext::root(&mut rng);
        let child = root.child(&mut rng);
        for (ctx, kind) in [(root, "rpc.call"), (child, "rpc.serve")] {
            let data = ctx.open_data(kind);
            let (parsed, parsed_kind) = SpanContext::parse_open(&data).expect("parses");
            assert_eq!(parsed, ctx);
            assert_eq!(parsed_kind, kind);
        }
    }

    #[test]
    fn close_payload_round_trips() {
        let ctx = SpanContext::root_with(0xdead_beef, 7);
        assert_eq!(
            SpanContext::parse_close(&ctx.close_data()),
            Some((0xdead_beef, 7))
        );
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(SpanContext::parse_open("").is_none());
        assert!(SpanContext::parse_open("zz:1:-:k").is_none());
        assert!(SpanContext::parse_open("1:2:3").is_none());
        assert!(SpanContext::parse_close("only-one-part").is_none());
    }

    #[test]
    fn explicit_ctors_link_parent() {
        let root = SpanContext::root_with(9, 1);
        let child = root.child_with(2);
        assert_eq!(child.trace_id, 9);
        assert_eq!(child.parent, Some(1));
    }
}
