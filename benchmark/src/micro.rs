//! Layers driven directly, with one workload's operation mix.
//!
//! Where a layer sits inside an actor callback the benchmark cannot put
//! a span around it from outside, so the per-layer runs call the
//! layer's public functions themselves — same types, same arguments
//! the workload feeds them — and time a fixed number of calls. Each
//! function returns nanoseconds per call.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use cscw_core::replicated::WsOp;
use cscw_core::workspace::ObjectId;
use odp_access::matrix::Subject;
use odp_access::rbac::ObjectPath;
use odp_access::rights::Rights;
use odp_awareness::bus::{CoopEvent, CoopKind};
use odp_awareness::events::ActivityKind;
use odp_check::invariants::awareness::gating_deep_sim;
use odp_fabric::{Payload, SpanCarrier};
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::{GcMsg, GroupEngine, Ordering, Reliability};
use odp_sim::metrics::MetricsRegistry;
use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::rng::DetRng;
use odp_sim::time::{SimDuration, SimTime};

use crate::workloads::group_edit::{configured_workspace, edit_values, REPLICAS};

fn per_call(started: Instant, calls: u64) -> f64 {
    started.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// `Network::submit` on a default-link network between `nodes` nodes,
/// alternating the two message sizes.
pub fn net_submit_ns(seed: u64, link: LinkSpec, nodes: u32, sizes: [usize; 2]) -> f64 {
    const CALLS: u64 = 2_000_000;
    let mut net = Network::new(link);
    net.set_default_link(link);
    let mut rng = DetRng::seed_from(seed);
    let mut pick = DetRng::seed_from(seed ^ 0x006e_6574);
    let started = Instant::now();
    let mut now = SimTime::ZERO;
    for i in 0..CALLS {
        let from = NodeId(pick.range_u64(0, u64::from(nodes)) as u32);
        let to = NodeId((from.0 + 1 + (i % 7) as u32) % nodes);
        now += SimDuration::from_micros(3);
        black_box(net.submit(now, from, to, sizes[(i & 1) as usize], &mut rng));
    }
    per_call(started, CALLS)
}

/// `MetricsRegistry::incr` / `add` / `observe` on the metric names the
/// group-edit replicas touch per edit.
pub fn metrics_incr_ns() -> f64 {
    const CALLS: u64 = 3_000_000;
    let mut m = MetricsRegistry::new();
    // The engine's own counters share the registry, so lookups walk
    // past them as they do in a run.
    for name in ["sim.delivered", "sim.sent", "sim.sent_bytes"] {
        m.add(name, 1);
    }
    let started = Instant::now();
    for i in 0..CALLS {
        match i % 3 {
            0 => m.incr(black_box("gc.mcast")),
            1 => m.add(black_box("gc.retransmissions"), 1),
            _ => m.observe(black_box("gc.deliver_latency"), SimDuration::from_micros(i)),
        }
    }
    black_box(&m);
    per_call(started, CALLS)
}

/// `Payload::clone` + drop at one payload size: the handle copy every
/// fan-out leg makes.
pub fn payload_clone_ns(size: usize) -> f64 {
    const CALLS: u64 = 5_000_000;
    let payload = Payload::from_vec(vec![7u8; size]);
    let started = Instant::now();
    for _ in 0..CALLS {
        black_box(black_box(&payload).clone());
    }
    per_call(started, CALLS)
}

/// `(encode, decode)` of the binary span carrier, parented spans.
pub fn span_codec_ns(seed: u64) -> (f64, f64) {
    const CALLS: u64 = 3_000_000;
    let mut rng = DetRng::seed_from(seed);
    let spans: Vec<SpanCarrier> = (0..256)
        .map(|_| SpanCarrier::child_of(rng.next_u64(), rng.next_u64(), rng.next_u64()))
        .collect();
    let mut buf = Vec::with_capacity(32);
    let started = Instant::now();
    for i in 0..CALLS {
        buf.clear();
        black_box(&spans[(i & 255) as usize]).encode_into(&mut buf);
        black_box(&buf);
    }
    let encode = per_call(started, CALLS);
    let started = Instant::now();
    for _ in 0..CALLS {
        black_box(SpanCarrier::decode_from(black_box(&buf)).is_ok());
    }
    (encode, per_call(started, CALLS))
}

/// `(EventBus::publish, RbacPolicy::check, SharedWorkspace::write)` on
/// the E13 workspace, with one run's edit values.
pub fn workspace_ns(seed: u64) -> (f64, f64, f64) {
    const EDITS_EACH: u32 = 2_000;
    let calls = u64::from(EDITS_EACH) * u64::from(REPLICAS);

    let mut ws = configured_workspace(REPLICAS, None);
    let started = Instant::now();
    for t in 0..u64::from(EDITS_EACH) {
        for i in 0..REPLICAS {
            black_box(ws.bus_mut().publish(CoopEvent::broadcast(
                NodeId(i),
                "shared/1",
                SimTime::from_millis(t),
                CoopKind::Activity(ActivityKind::Edit),
            )));
        }
    }
    let publish = per_call(started, calls);

    let path = ObjectPath::new("shared/1");
    let started = Instant::now();
    for _ in 0..EDITS_EACH {
        for i in 0..REPLICAS {
            black_box(
                ws.policy()
                    .check(Subject(i), black_box(&path), Rights::WRITE),
            );
        }
    }
    let check = per_call(started, calls);

    let values = edit_values(seed, EDITS_EACH);

    let mut ws = configured_workspace(REPLICAS, None);
    let started = Instant::now();
    for (t, row) in values.into_iter().enumerate() {
        for (i, value) in row.into_iter().enumerate() {
            black_box(
                ws.write(
                    NodeId(i as u32),
                    ObjectId(1),
                    value,
                    SimTime::from_millis(t as u64),
                )
                .is_ok(),
            );
        }
    }
    (publish, check, per_call(started, calls))
}

/// `(mcast, on_message, on_tick)` of `GroupEngine<WsOp>` — eight
/// members, total order, reliable — pumped with zero network delay.
pub fn group_engine_ns(seed: u64) -> (f64, f64, f64) {
    const EDITS_EACH: u32 = 500;
    let view = View::initial(GroupId(0), (0..REPLICAS).map(NodeId));
    let mut engines: Vec<GroupEngine<WsOp>> = (0..REPLICAS)
        .map(|i| {
            GroupEngine::new(
                NodeId(i),
                view.clone(),
                Ordering::Total,
                Reliability::reliable(),
            )
        })
        .collect();
    let mut wire: VecDeque<(NodeId, NodeId, GcMsg<WsOp>)> = VecDeque::new();
    let (mut mcast_ns, mut mcasts) = (0u128, 0u64);
    let (mut msg_ns, mut msgs) = (0u128, 0u64);
    let (mut tick_ns, mut ticks) = (0u128, 0u64);
    let mut now = SimTime::ZERO;
    for (t, row) in edit_values(seed, EDITS_EACH).into_iter().enumerate() {
        now += SimDuration::from_millis(1);
        for (i, value) in row.into_iter().enumerate() {
            let op = WsOp {
                actor: i as u32,
                object: 1,
                value,
            };
            let started = Instant::now();
            let step = engines[i].mcast(op, now);
            mcast_ns += started.elapsed().as_nanos();
            mcasts += 1;
            wire.extend(
                step.outbound
                    .into_iter()
                    .map(|(to, m)| (NodeId(i as u32), to, m)),
            );
        }
        while let Some((from, to, msg)) = wire.pop_front() {
            let started = Instant::now();
            let step = engines[to.0 as usize].on_message(from, msg, now);
            msg_ns += started.elapsed().as_nanos();
            msgs += 1;
            black_box(&step.delivered);
            wire.extend(step.outbound.into_iter().map(|(next, m)| (to, next, m)));
        }
        if t % 50 == 49 {
            for engine in &mut engines {
                let started = Instant::now();
                black_box(engine.on_tick(now));
                tick_ns += started.elapsed().as_nanos();
                ticks += 1;
            }
        }
    }
    (
        mcast_ns as f64 / mcasts.max(1) as f64,
        msg_ns as f64 / msgs.max(1) as f64,
        tick_ns as f64 / ticks.max(1) as f64,
    )
}

/// `(step_nth, pending_events)` on the explorer's scenario: each copy
/// of the sim is walked to the horizon on the default schedule, asking
/// for the pending list before every step as the explorer does.
pub fn explorer_hooks_ns(seed: u64) -> (f64, f64) {
    const SIMS: usize = 400;
    let horizon = SimTime::from_secs(2);
    let (mut step_ns, mut steps) = (0u128, 0u64);
    let (mut list_ns, mut lists) = (0u128, 0u64);
    for _ in 0..SIMS {
        let mut sim = gating_deep_sim(seed, true);
        while sim.next_event_time().is_some_and(|t| t <= horizon) {
            let started = Instant::now();
            black_box(sim.pending_events());
            list_ns += started.elapsed().as_nanos();
            lists += 1;
            let started = Instant::now();
            let stepped = sim.step_nth(0);
            step_ns += started.elapsed().as_nanos();
            steps += 1;
            if !stepped {
                break;
            }
        }
    }
    (
        step_ns as f64 / steps.max(1) as f64,
        list_ns as f64 / lists.max(1) as f64,
    )
}
