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
//! - **into the run record**, as binary open/close events in the
//!   [`odp_fabric::SpanLog`] riding on the run's
//!   [`odp_sim::trace::Trace`] (recorded through the actor context's
//!   `span_open` / `span_close`), so no new channel between actors and
//!   harness is needed. A [`crate::collector::Collector`] replays them
//!   afterwards.

use odp_fabric::SpanCarrier;
use odp_sim::rng::DetRng;

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
    fn explicit_ctors_link_parent() {
        let root = SpanContext::root_with(9, 1);
        let child = root.child_with(2);
        assert_eq!(child.trace_id, 9);
        assert_eq!(child.parent, Some(1));
    }
}
