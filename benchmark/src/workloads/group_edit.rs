//! `group_edit` / `group_edit_spans` — E13 scaled until it is
//! measurable.
//!
//! Eight `cscw_core::replicated::replica_actor` replicas (total order,
//! reliable) share one artefact over the 15 ms WAN. Edits are injected
//! on a fixed simulated-time schedule, one per replica every 5
//! simulated milliseconds (1 600 edits/s in all: about 40 % of what the
//! sequencer's modelled 10 Mbit/s links carry — at one per millisecond
//! they saturate and the backlog never drains), in 50-tick chunks
//! between which the sim runs; the edit values (and so their sizes)
//! come from the seed. The queue stays
//! shallow and nothing is cancelled, so host time goes to
//! `GroupEngine`, the workspace apply, rights checks, awareness
//! weighting and the string-keyed metrics registry — `odp-sim` used the
//! opposite way from `campus_rush`.
//!
//! With `spans` on, every replica's group actor mints and records
//! telemetry spans; nothing else differs, so the two workloads'
//! `deliveries_per_s` differ only by the instrumentation.
//!
//! Seeded fault (`Spec::fault`): one replica is built without write
//! rights, so its submissions are rejected and never applied.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use cscw_core::replicated::{replica_actor, WorkspaceReplica, WsOp};
use cscw_core::workspace::{ObjectId, SharedWorkspace};
use odp_access::matrix::Subject;
use odp_access::rbac::{Effect, RoleId};
use odp_access::rights::Rights;
use odp_groupcomm::actors::GroupActor;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::GcMsg;
use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::prelude::{Sim, SimBuilder};
use odp_sim::rng::DetRng;
use odp_sim::time::{SimDuration, SimTime};

use super::{Round, Size, Spec, Stopwatch};
use crate::probe::{self, Mode, Span};

/// E13's largest group size.
pub const REPLICAS: u32 = 8;
/// Edits per replica at the measured size.
pub const EDITS_EACH_FULL: u32 = 1_250;
const EDITS_EACH_QUICK: u32 = 40;
/// Simulated time between two edits of one replica.
const TICK: SimDuration = SimDuration::from_millis(5);
/// Ticks of schedule injected between two runs of the sim.
const CHUNK: u64 = 50;
/// Simulated time allowed after the last injection for the tail of the
/// total order to reach every replica.
const DRAIN: SimDuration = SimDuration::from_secs(2);

type Msg = GcMsg<WsOp>;
type Replica = GroupActor<WsOp, WorkspaceReplica>;

/// The E13 workspace: one shared artefact, every participant an
/// observer; `writers` hold the read-write role, the rest read only.
pub fn configured_workspace(n: u32, read_only: Option<u32>) -> SharedWorkspace {
    let mut ws = SharedWorkspace::new();
    ws.policy_mut()
        .add_rule(RoleId(1), "shared".into(), Rights::ALL, Effect::Allow);
    ws.policy_mut()
        .add_rule(RoleId(2), "shared".into(), Rights::READ, Effect::Allow);
    for i in 0..n {
        let role = if read_only == Some(i) {
            RoleId(2)
        } else {
            RoleId(1)
        };
        ws.policy_mut().assign(Subject(i), role);
        ws.register_observer(NodeId(i), 0.0);
    }
    ws.create_artefact(ObjectId(1), "shared/1", "v0");
    ws
}

/// The edit values of one run, `[tick][replica]`, drawn from the seed:
/// 8 to 40 lowercase letters each.
pub fn edit_values(seed: u64, edits_each: u32) -> Vec<Vec<String>> {
    let mut rng = DetRng::seed_from(seed ^ 0x6564_6974);
    (0..edits_each)
        .map(|_| {
            (0..REPLICAS)
                .map(|_| {
                    let len = rng.range_u64(8, 41) as usize;
                    (0..len)
                        .map(|_| (b'a' + rng.range_u64(0, 26) as u8) as char)
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// E13's 15 ms WAN with its 0.1 % loss taken out. The benchmark needs
/// workloads on which no operation fails, and under total order a lost
/// `SeqRequest` is never retried (only data and assignments are acked),
/// so on the lossy link an edit is now and then never ordered.
pub fn wan() -> LinkSpec {
    LinkSpec {
        loss: 0.0,
        ..LinkSpec::wan(SimDuration::from_millis(15))
    }
}

/// When edit `t` of every replica is due.
fn due(t: u64) -> SimTime {
    SimTime::from_millis(10) + SimDuration::from_micros(TICK.as_micros() * t)
}

fn build<M: Mode>(seed: u64, spans: bool, fault: bool) -> Sim<Msg> {
    let view = View::initial(GroupId(0), (0..REPLICAS).map(NodeId));
    let link = wan();
    let mut net = Network::new(link);
    net.set_default_link(link);
    let mut sim: Sim<Msg> = SimBuilder::new(seed)
        .network(net)
        .max_events(200_000_000)
        // Every apply still formats and records its `ws.applied` line
        // (that cost is the workload's), but only a window is kept, so
        // the resident set does not hinge on where a 160 000-entry
        // vector last doubled. The binary span log is not windowed.
        .trace_capacity(4_096)
        .build();
    let read_only = fault.then_some(REPLICAS - 1);
    for i in 0..REPLICAS {
        let mut replica = replica_actor(
            NodeId(i),
            view.clone(),
            configured_workspace(REPLICAS, read_only),
        );
        replica.set_telemetry(spans);
        probe::host::<M, _, _>(&mut sim, NodeId(i), replica, Span::ActorReplica);
    }
    sim
}

/// Who edited, in application order — what total order makes equal
/// everywhere (the instants differ: each replica applies on arrival).
fn history_digest(replica: &Replica) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for entry in replica.app().workspace().history() {
        entry.who.hash(&mut h);
    }
    h.finish()
}

/// One round: build the group, inject and run the schedule, audit.
pub fn round<M: Mode>(spec: &Spec, spans: bool) -> Round {
    let edits_each = match spec.size {
        Size::Full => EDITS_EACH_FULL,
        Size::Quick => EDITS_EACH_QUICK,
    };
    let mut out = Round::default();

    let t0 = Instant::now();
    let mut sim = build::<M>(spec.seed, spans, spec.fault);
    let mut values = edit_values(spec.seed, edits_each);
    let value_bytes: u64 = values.iter().flatten().map(|v| v.len() as u64).sum();
    out.setup_ns = t0.elapsed().as_nanos() as u64;
    out.actors = u64::from(REPLICAS);

    let watch = Stopwatch::start();
    probe::span::<M, _>(Span::Round, || {
        let mut tick = 0u64;
        while tick < u64::from(edits_each) {
            let chunk_end = (tick + CHUNK).min(u64::from(edits_each));
            for t in tick..chunk_end {
                let at = due(t);
                for (i, value) in std::mem::take(&mut values[t as usize])
                    .into_iter()
                    .enumerate()
                {
                    let i = i as u32;
                    sim.inject(
                        at,
                        NodeId(i),
                        NodeId(i),
                        GcMsg::AppCmd(WsOp {
                            actor: i,
                            object: 1,
                            value,
                        }),
                    );
                }
            }
            tick = chunk_end;
            probe::run_until::<M, _>(&mut sim, due(tick));
        }
        probe::run_until::<M, _>(&mut sim, due(tick) + DRAIN);
    });
    watch.stop(&mut out);

    let edits = u64::from(edits_each) * u64::from(REPLICAS);
    let (mut applied, mut suppressed) = (0u64, 0u64);
    let mut finals: Vec<(u64, Option<String>)> = Vec::new();
    let now = sim.now();
    for i in 0..REPLICAS {
        let Some(r) = probe::hosted_mut::<M, _, Replica>(&mut sim, NodeId(i)) else {
            out.fail(1, format!("replica {i} missing"));
            continue;
        };
        out.expect_eq("edits applied at a replica", r.app().applied(), edits);
        out.expect_eq("edits rejected at a replica", r.app().rejected(), 0);
        applied += r.app().applied();
        suppressed += r.app().workspace().bus().suppressed_by_rights();
        // Digest first: the read below appends a view to the history.
        let digest = history_digest(r);
        finals.push((digest, r.app_mut().peek(NodeId(i), 1, now)));
    }
    if finals.windows(2).any(|w| w[0] != w[1]) {
        out.fail(
            1,
            "replicas ended with different artefacts or histories".to_owned(),
        );
    }

    let m = sim.metrics();
    let delivered = m.counter("sim.delivered");
    let dropped = m.counter("sim.dropped.Loss")
        + m.counter("sim.dropped.Partitioned")
        + m.counter("sim.dropped.Disconnected")
        + m.counter("sim.no_actor");
    out.expect_eq("messages dropped", dropped, 0);
    let events = sim.events_processed();
    // Timers here are the replicas' self-re-arming maintenance ticks:
    // popped ones plus the one per replica still pending at the end.
    let timers_set = events - u64::from(REPLICAS) - delivered + sim.pending_len() as u64;
    let spans_recorded = sim.trace().spans().len() as u64;
    if spans && spans_recorded == 0 {
        out.fail(1, "span telemetry was on but recorded nothing".to_owned());
    }
    if !spans && spans_recorded != 0 {
        out.fail(1, "span telemetry was off but recorded spans".to_owned());
    }

    out.events = events;
    out.deliveries = applied;
    out.payload_bytes = value_bytes * u64::from(REPLICAS);
    out.attempted = edits * u64::from(REPLICAS);
    out.exact = vec![
        ("sim.events", events as f64),
        ("sim.peak_pending", sim.peak_pending() as f64),
        ("sim.sent", m.counter("sim.sent") as f64),
        ("sim.delivered", delivered as f64),
        ("sim.sent_bytes", m.counter("sim.sent_bytes") as f64),
        ("sim.dropped", dropped as f64),
        ("sim.timers_set", timers_set as f64),
        (
            "groupcomm.msgs_per_delivery",
            delivered as f64 / applied.max(1) as f64,
        ),
        (
            "groupcomm.retransmits",
            m.counter("gc.retransmissions") as f64,
        ),
        ("telemetry.spans_recorded", spans_recorded as f64),
        ("awareness.suppressed_by_rights", suppressed as f64),
    ];
    if M::TRACED && spans {
        // Collector assembly after the run, per span event recorded.
        let t = Instant::now();
        let collector = odp_telemetry::collector::Collector::from_trace(sim.trace());
        let ns = t.elapsed().as_nanos() as f64;
        if let Err(why) = collector.well_formed() {
            out.fail(1, format!("span DAGs malformed: {why}"));
        }
        out.measured.push((
            "telemetry.collect_ns_per_span",
            ns / collector.span_count().max(1) as f64,
        ));
    }
    out
}
