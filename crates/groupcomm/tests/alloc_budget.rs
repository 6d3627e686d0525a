//! Allocation budgets on the `wire_small` path, held by a count instead
//! of a stopwatch: one sender multicasts small payloads to three
//! receivers, reliable FIFO over `GcMsg<Payload>`, and every envelope
//! — the acks too — crosses `SessionLayer::unicast` → `encode_frame` →
//! `decode_frame` → `SessionLayer::on_frame` → `GroupEngine::on_message`,
//! the stack the TCP driver runs minus the socket. Beside it, exact
//! counts for a retransmission tick and for a group RPC call, its
//! serving and its expiry.
//!
//! The file is its own test binary so it can install
//! `odp_sim::alloc::Counting` as its global allocator; the counter is
//! per thread, so the harness's other threads cannot disturb it.

use odp_fabric::Payload;
use odp_groupcomm::actors::{GroupActor, GroupApp, RpcConfig};
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::{Delivery, GcMsg, GroupEngine, Ordering, Reliability, Step};
use odp_groupcomm::rpc::{Quorum, RpcEngine};
use odp_net::session::{Frame, SessionConfig, SessionLayer};
use odp_net::wire::{decode_frame, encode_frame, MAX_FRAME};
use odp_sim::alloc::{counted, run_counted, Counting};
use odp_sim::net::NodeId;
use odp_sim::prelude::{Actor, Ctx, Sim, SimBuilder, TimerId, Until};
use odp_sim::time::{SimDuration, SimTime};

#[global_allocator]
static GLOBAL: Counting = Counting;

type Msg = GcMsg<Payload>;

const RECEIVERS: u32 = 3;
const NOW: SimTime = SimTime::ZERO;

struct Node {
    engine: GroupEngine<Payload>,
    session: SessionLayer<Msg>,
}

/// Node 0 sends; nodes 1..=3 receive. Index = node id.
fn fleet() -> Vec<Node> {
    let members = (0..=RECEIVERS).map(NodeId);
    let view = View::initial(GroupId(0), members.clone());
    members
        .map(|id| {
            let mut session = SessionLayer::new(id, SessionConfig::default());
            for peer in (0..=RECEIVERS).filter(|&p| (p == 0) != (id.0 == 0)) {
                session.add_peer(NodeId(peer), NOW);
            }
            Node {
                engine: GroupEngine::new(id, view.clone(), Ordering::Fifo, Reliability::reliable()),
                session,
            }
        })
        .collect()
}

/// Takes one envelope from `from` across the stack to `to` and returns
/// the destination engine's step. Holds the two per-call budgets on
/// the way: a frame is one allocation of exactly its size, and an ack
/// costs the sender's engine none.
fn cross(nodes: &mut [Node], from: NodeId, to: NodeId, msg: Msg) -> Step<Payload> {
    let sent = nodes[from.0 as usize].session.unicast(to, msg, NOW);
    let (_, frame) = sent.outbound.into_iter().next().expect("one frame");
    let (bytes, allocs) = counted(|| encode_frame(&frame, MAX_FRAME).expect("encodes"));
    assert_eq!(
        allocs, 1,
        "encode_frame allocates the frame and nothing else"
    );
    assert_eq!(bytes.capacity(), bytes.len(), "and at its final size");
    let (frame, used) = decode_frame::<Frame<Msg>>(&bytes, MAX_FRAME).expect("decodes");
    assert_eq!(used, bytes.len());
    let dest = &mut nodes[to.0 as usize];
    let received = dest.session.on_frame(from, frame, NOW);
    let (origin, msg) = received.delivered.into_iter().next().expect("in order");
    let is_ack = matches!(msg, GcMsg::Ack { .. });
    let (step, allocs) = counted(|| dest.engine.on_message(origin, msg, NOW));
    if is_ack {
        assert_eq!(allocs, 0, "on_message(Ack) allocates nothing");
    }
    step
}

/// One multicast, delivered at every receiver and acked back.
fn multicast(nodes: &mut [Node], payload: Payload) {
    let step = nodes[0].engine.mcast(payload, NOW);
    assert_eq!(step.outbound.len() as u32, RECEIVERS);
    for (to, msg) in step.outbound {
        let at_receiver = cross(nodes, NodeId(0), to, msg);
        assert_eq!(
            at_receiver.delivered.len(),
            1,
            "next in line: delivered at once"
        );
        for (back, ack) in at_receiver.outbound {
            let at_sender = cross(nodes, to, back, ack);
            assert!(at_sender.outbound.is_empty() && at_sender.delivered.is_empty());
        }
    }
    assert_eq!(nodes[0].engine.unacked(), 0);
}

#[test]
fn a_delivery_stays_within_its_allocation_budget() {
    const WARM_UP: u32 = 200;
    const CALLS: u32 = 2_000;
    let mut nodes = fleet();
    let payload = Payload::from_slice(&[7u8; 64]);
    // Past the session's 64-frame retransmit window, so every send
    // evicts, as in steady state.
    for _ in 0..WARM_UP {
        multicast(&mut nodes, payload.clone());
    }
    let ((), allocs) = counted(|| {
        for _ in 0..CALLS {
            multicast(&mut nodes, payload.clone());
        }
    });
    // Per delivery: the six one-element `Vec`s of the `Step`s and
    // `SessionStep`s a data message and its ack pass through, two
    // frame buffers, the decoded `Arc<DataMsg>` and its one-allocation
    // `Payload`; per multicast, shared by three receivers here: the
    // `Arc<DataMsg>` every envelope shares, the fan-out `Vec` and the
    // sender's own delivery (the acked entry's peer list is refilled,
    // not allocated). 11 measured (x86-64 Linux, rustc 1.95).
    let deliveries = u64::from(CALLS * RECEIVERS);
    assert!(
        allocs <= 11 * deliveries,
        "{allocs} allocations over {deliveries} deliveries"
    );
}

#[test]
fn dedup_state_is_one_range_per_origin_however_long_the_run() {
    let mut nodes = fleet();
    let payload = Payload::from_slice(&[7u8; 64]);
    for _ in 0..100_000 {
        multicast(&mut nodes, payload.clone());
    }
    for node in &nodes {
        assert_eq!(
            node.engine.dedup_ranges(),
            1,
            "at node {}",
            node.engine.me()
        );
        assert_eq!(node.engine.held_back(), 0);
    }
}

#[test]
fn a_retransmission_tick_allocates_its_outbound_list_alone() {
    for (unacked, growths) in [(1, 1), (8, 4)] {
        let mut nodes = fleet();
        let payload = Payload::from_slice(&[7u8; 64]);
        for _ in 0..unacked {
            // Every envelope is lost: nothing is acked.
            let _ = nodes[0].engine.mcast(payload.clone(), NOW);
        }
        let engine = &mut nodes[0].engine;
        let (idle, allocs) = counted(|| engine.on_tick(SimTime::from_millis(100)));
        assert!(idle.outbound.is_empty());
        assert_eq!(allocs, 0, "a tick with nothing due");
        // Each stored envelope goes again to each peer as a handle on
        // its shared body: the only allocations are the outbound list's
        // (4, 8, 16 and 32 slots for 24 envelopes).
        let (due, allocs) = counted(|| engine.on_tick(SimTime::from_millis(201)));
        assert_eq!(due.outbound.len() as u32, unacked * RECEIVERS);
        assert_eq!(allocs, growths, "{unacked} unacked");
    }
}

/// A group application that answers every call with its payload.
struct Echo;

impl GroupApp<u64> for Echo {
    fn on_deliver(&mut self, _: &mut Ctx<'_, GcMsg<u64>>, _: Delivery<u64>) {}

    fn on_rpc(
        &mut self,
        _: &mut Ctx<'_, GcMsg<u64>>,
        _: NodeId,
        _: u64,
        payload: &u64,
    ) -> Option<u64> {
        Some(*payload)
    }
}

/// Node 0: a member that calls every peer on each `AppCmd`.
struct Caller(GroupActor<u64, Echo>);

impl Actor<GcMsg<u64>> for Caller {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GcMsg<u64>>) {
        Actor::on_start(&mut self.0, ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, GcMsg<u64>>, from: NodeId, msg: GcMsg<u64>) {
        match msg {
            GcMsg::AppCmd(n) => {
                self.0.invoke_rpc_now(ctx, n, RpcConfig::default());
            }
            other => Actor::on_message(&mut self.0, ctx, from, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GcMsg<u64>>, timer: TimerId, tag: u64) {
        Actor::on_timer(&mut self.0, ctx, timer, tag);
    }
}

#[test]
fn an_rpc_call_and_its_serving_stay_within_their_allocation_budget() {
    const CALLS: u64 = 100;
    let view = View::initial(GroupId(0), (0..=RECEIVERS).map(NodeId));
    let member = |id| {
        GroupActor::new(
            id,
            view.clone(),
            Ordering::Unordered,
            Reliability::BestEffort,
            Echo,
        )
    };
    let mut sim: Sim<GcMsg<u64>> = SimBuilder::new(5).build();
    sim.add_actor(NodeId(0), Caller(member(NodeId(0))));
    for i in 1..=RECEIVERS {
        sim.add_actor(NodeId(i), member(NodeId(i)));
    }
    // One call every 10 ms; the first half warms the tables up.
    let ms = SimTime::from_millis;
    for k in 1..=2 * CALLS {
        sim.inject(ms(10 * k), NodeId(0), NodeId(0), GcMsg::AppCmd(k));
    }
    sim.run(Until::At(ms(10 * CALLS + 5)));
    let tally = run_counted(&mut sim, ms(20 * CALLS + 100));
    // The caller: the target list, the request body every envelope
    // shares, the outbound list and the call's reply map; the three
    // replies add nothing.
    let at_caller = tally.messages(NodeId(0));
    assert_eq!((at_caller.events, at_caller.allocs), (4 * CALLS, 4 * CALLS));
    // Each member serves a request with one allocation, its boxed reply.
    for i in 1..=RECEIVERS {
        let served = tally.messages(NodeId(i));
        assert_eq!((served.events, served.allocs), (CALLS, CALLS), "at n{i}");
    }
    // Ticks with no retransmission due and no call expiring.
    for i in 0..=RECEIVERS {
        let ticks = tally.timers(NodeId(i));
        assert!(ticks.events > 0);
        assert_eq!(ticks.allocs, 0, "at n{i}");
    }
}

#[test]
fn a_tick_that_expires_a_call_allocates_its_two_lists() {
    let ms = SimTime::from_millis;
    let mut rpc: RpcEngine<u64> = RpcEngine::new(NodeId(0));
    let targets = vec![NodeId(1), NodeId(2), NodeId(3)];
    let timeout = SimDuration::from_millis(5);
    let _ = rpc.invoke(targets, 5, None, ms(0), timeout, Quorum::All, None);
    let (none, allocs) = counted(|| rpc.on_tick(ms(4)));
    assert!(none.is_empty());
    assert_eq!(allocs, 0, "a tick before the deadline");
    // The expired ids and their outcomes.
    let (expired, allocs) = counted(|| rpc.on_tick(ms(5)));
    assert_eq!(expired.len(), 1);
    assert_eq!(allocs, 2);
}
