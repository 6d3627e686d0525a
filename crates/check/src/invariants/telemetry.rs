//! Telemetry invariants: the causal span log a run emits must assemble
//! into well-formed DAGs — every opened span closes, every child's
//! parent exists and opened no later than the child, and parent chains
//! are acyclic.
//!
//! The harness is a three-member group where one member issues a group
//! RPC at start with span telemetry on, so every explored schedule
//! produces a full `rpc.call → rpc.serve → rpc.reply` chain. The
//! known-bad variant opens a `bad.probe` root span that nothing ever
//! closes — the exact bug (an instrumented operation that loses its
//! completion path) the invariant exists to catch.

use odp_fabric::SpanCarrier;
use odp_fabric::SpanOp;
use odp_groupcomm::actors::{GroupActor, GroupApp, RpcConfig};
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::{Delivery, GcMsg, Ordering, Reliability};
use odp_net::ctx::NetCtx;
use odp_sim::prelude::*;
use odp_telemetry::collector::Collector;

use crate::explore::Invariant;

/// The trivial application under test: acknowledges every RPC.
pub struct EchoApp;

impl GroupApp<String> for EchoApp {
    fn on_deliver(&mut self, _ctx: &mut dyn NetCtx<GcMsg<String>>, _delivery: Delivery<String>) {}

    fn on_rpc(
        &mut self,
        _ctx: &mut dyn NetCtx<GcMsg<String>>,
        _from: NodeId,
        _call: u64,
        payload: &String,
    ) -> Option<String> {
        Some(format!("ack:{payload}"))
    }
}

/// Node 0's wrapper: starts the group actor, then immediately issues a
/// group RPC. The known-bad variant (`leak_a_span`) also opens a
/// `bad.probe` root span with a fixed id and never closes it.
struct CallerHost {
    inner: GroupActor<String, EchoApp>,
    leak_a_span: bool,
}

impl Actor<GcMsg<String>> for CallerHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>) {
        Actor::on_start(&mut self.inner, ctx);
        if self.leak_a_span {
            // Fixed ids, not rng-minted: the leak must appear in every
            // explored schedule, not just the first.
            let probe = SpanCarrier::root(0xbad, 0xbad);
            ctx.span_open(probe, "bad.probe");
        }
        self.inner
            .invoke_rpc_now(ctx, "ping".to_owned(), RpcConfig::default());
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>, from: NodeId, msg: GcMsg<String>) {
        Actor::on_message(&mut self.inner, ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>, timer: TimerId, tag: u64) {
        self.inner.on_timer(ctx, timer, tag);
    }
}

/// A three-member group with span telemetry on everywhere; node 0
/// issues one group RPC at start. With `well_formed: false` the caller
/// additionally leaks an unclosed `bad.probe` span.
pub fn telemetry_sim(seed: u64, well_formed: bool) -> Sim<GcMsg<String>> {
    let members = [NodeId(0), NodeId(1), NodeId(2)];
    let view = View::initial(GroupId(1), members);
    let mut sim = SimBuilder::new(seed).build();
    let mut caller = GroupActor::new(
        NodeId(0),
        view.clone(),
        Ordering::Unordered,
        Reliability::BestEffort,
        EchoApp,
    );
    caller.set_telemetry(true);
    sim.add_actor(
        NodeId(0),
        CallerHost {
            inner: caller,
            leak_a_span: !well_formed,
        },
    );
    for &m in &members[1..] {
        let mut member = GroupActor::new(
            m,
            view.clone(),
            Ordering::Unordered,
            Reliability::BestEffort,
            EchoApp,
        );
        member.set_telemetry(true);
        sim.add_actor(m, member);
    }
    sim
}

/// Canonical [`crate::explore::StateFingerprint`] for the telemetry
/// scenario: the full string event stream (time, node, label, payload)
/// plus the binary span log (with kind ids resolved back to names, so
/// the hash is independent of interning order) plus the eviction count
/// — exactly what the well-formedness audit reads.
pub fn fingerprint(sim: &Sim<GcMsg<String>>) -> u64 {
    let trace = sim.trace();
    let mut parts: Vec<(u64, u32, &str, &str)> = Vec::new();
    for ev in trace.events() {
        parts.push((
            ev.time.as_micros(),
            ev.node.0,
            ev.label.as_str(),
            ev.data.as_str(),
        ));
    }
    // One digested span event: (time, node, op tag, trace, span,
    // parent, kind name).
    type SpanDigest<'a> = (u64, u32, u8, u64, u64, Option<u64>, &'a str);
    let log = trace.spans();
    let mut spans: Vec<SpanDigest> = Vec::new();
    for e in log.events() {
        spans.push(match e.op {
            SpanOp::Open { span, kind } => (
                e.time_us,
                e.node,
                0,
                span.trace_id,
                span.span_id,
                span.parent,
                log.kind(kind),
            ),
            SpanOp::Close { trace_id, span_id } => {
                (e.time_us, e.node, 1, trace_id, span_id, None, "")
            }
        });
    }
    crate::explore::hash_of(&(parts, spans, trace.dropped()))
}

/// Quiescence invariant: the run's span log assembles into well-formed
/// causal DAGs, and the instrumented workload actually emitted spans
/// (an empty log would pass the audit vacuously while proving nothing).
///
/// Checked only at quiescence: mid-run there are legitimately open
/// spans (an rpc.call waiting for its quorum), so the audit would
/// misfire on every step.
pub struct TelemetrySpans;

impl Invariant<GcMsg<String>> for TelemetrySpans {
    fn name(&self) -> &'static str {
        "telemetry-spans"
    }

    fn check_quiescent(&mut self, sim: &Sim<GcMsg<String>>) -> Result<(), String> {
        let collector = Collector::from_trace(sim.trace());
        if collector.span_count() == 0 {
            return Err("instrumented run emitted no spans".to_owned());
        }
        collector.well_formed()
    }
}
