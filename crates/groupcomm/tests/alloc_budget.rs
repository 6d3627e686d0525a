//! Allocation budgets on the `wire_small` path, held by a count instead
//! of a stopwatch: one sender multicasts small payloads to three
//! receivers, reliable FIFO over `GcMsg<Payload>`, and every envelope
//! — the acks too — crosses `SessionLayer::unicast` → `encode_frame` →
//! `decode_frame` → `SessionLayer::on_frame` → `GroupEngine::on_message`,
//! the stack the TCP driver runs minus the socket.
//!
//! The file is its own test binary so it can install a counting
//! `#[global_allocator]`; the counter is per thread, so the harness's
//! other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use odp_fabric::Payload;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::{GcMsg, GroupEngine, Ordering, Reliability, Step};
use odp_net::session::{Frame, SessionConfig, SessionLayer};
use odp_net::wire::{decode_frame, encode_frame, MAX_FRAME};
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

thread_local! {
    // `const` and without a destructor: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's `alloc` and `realloc`
/// calls (what `odpbench-traced` reports as `host.allocs_per_op`).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local `Cell` and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc`; `ptr` and `layout` describe a live
        // `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and the allocations this thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}

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
