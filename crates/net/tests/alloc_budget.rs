//! Allocation budgets on the TCP driver's core, held by a count instead
//! of a stopwatch: two `DriverCore`s joined by byte batches in memory,
//! one sending, one receiving, each turn's frames coalesced per link by
//! `flush_links` and decoded on the far side, as `tcp.rs` moves them
//! over a socket; and a session forwarding a dead origin's broadcasts.
//! Every count is exact (x86-64 Linux, rustc 1.95): a handler that
//! allocates once more fails its budget.
//!
//! The file is its own test binary so it can install
//! `odp_sim::alloc::Counting` as its global allocator; the counter is
//! per thread, so the harness's other threads cannot disturb it.

use odp_net::driver::{DriverCore, Input};
use odp_net::session::{Frame, PeerEvent, SessionConfig, SessionLayer};
use odp_net::wire::{decode_frame, MAX_FRAME};
use odp_sim::alloc::{counted, Counting};
use odp_sim::prelude::*;

#[global_allocator]
static GLOBAL: Counting = Counting;

const A: NodeId = NodeId(0);
const B: NodeId = NodeId(1);
const C: NodeId = NodeId(2);
const NOW: SimTime = SimTime::ZERO;

/// Passes a message injected at its own node on to its peer, and counts
/// what reaches it from elsewhere.
struct Relay {
    peer: NodeId,
    received: u64,
}

impl Actor<u32> for Relay {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
        if from == ctx.id() {
            ctx.send(self.peer, msg);
        } else {
            self.received += 1;
        }
    }
}

type Core = DriverCore<u32, Relay>;

/// A started core for `me`, connected to `peer`.
fn core(me: NodeId, peer: NodeId) -> Core {
    let mut session = SessionLayer::new(me, SessionConfig::default());
    session.add_peer(peer, NOW);
    let relay = Relay { peer, received: 0 };
    let mut core = DriverCore::new(session, 1, MAX_FRAME, relay);
    core.start(NOW);
    core.handle(NOW, Input::Conn { peer, conn: 1 });
    core
}

/// The bytes one flush of `core` writes (it has a single connection),
/// and the allocations the flush made.
fn flush(core: &mut Core, out: &mut Vec<u8>) -> u64 {
    out.clear();
    let ((), allocs) = counted(|| {
        let dropped = core.flush_links(|_, bytes| {
            out.extend_from_slice(bytes);
            true
        });
        assert_eq!(dropped.count(), 0);
    });
    allocs
}

/// Decodes a batch and hands its frames to `to`'s core one by one;
/// returns the frames and the allocations their handling made.
fn receive(to: &mut Core, from: NodeId, bytes: &[u8]) -> (u64, u64) {
    let (mut off, mut frames, mut allocs) = (0, 0, 0);
    while off < bytes.len() {
        let (frame, used) = decode_frame::<Frame<u32>>(&bytes[off..], MAX_FRAME).expect("decodes");
        off += used;
        frames += 1;
        allocs += counted(|| to.handle(NOW, Input::Frame { from, frame })).1;
    }
    (frames, allocs)
}

#[test]
fn a_driver_turn_stays_within_its_allocation_budget() {
    const SENDS: u32 = 16;
    const TURNS: u64 = 10;
    const WARM_TURNS: u64 = 70;
    let (mut a, mut b) = (core(A, B), core(B, A));
    let (mut a_out, mut b_out) = (Vec::with_capacity(1 << 16), Vec::with_capacity(1 << 16));
    // The hellos.
    flush(&mut a, &mut a_out);
    assert_eq!(receive(&mut b, A, &a_out).0, 1);
    flush(&mut b, &mut b_out);
    assert_eq!(receive(&mut a, B, &b_out).0, 1);
    let mut turn = |a: &mut Core, b: &mut Core| {
        let ((), sends) = counted(|| {
            for k in 0..SENDS {
                a.handle(NOW, Input::Inject { from: A, msg: k });
            }
        });
        let ((), bcast) = counted(|| a.handle(NOW, Input::Bcast { msg: 7 }));
        let a_flush = flush(a, &mut a_out);
        let (frames, received) = receive(b, A, &a_out);
        let b_flush = flush(b, &mut b_out);
        assert!(b_out.is_empty(), "nothing goes back");
        [sends, bcast, a_flush, frames, received, b_flush]
    };
    // Turns enough to fill the 64-frame retransmit buffer and the 64
    // retained broadcasts, which evict from then on.
    for _ in 0..WARM_TURNS {
        turn(&mut a, &mut b);
    }
    let mut totals = [0; 6];
    for _ in 0..TURNS {
        for (total, n) in totals.iter_mut().zip(turn(&mut a, &mut b)) {
            *total += n;
        }
    }
    let [sends, bcast, a_flush, frames, received, b_flush] = totals;
    assert_eq!(
        b.actor().received,
        (WARM_TURNS + TURNS) * u64::from(SENDS + 1)
    );
    // A send: the session step's one-frame outbound list.
    assert_eq!(sends, TURNS * u64::from(SENDS));
    // A broadcast: its outbound list, one frame per peer.
    assert_eq!(bcast, TURNS);
    // A flush writes each link's batch from the buffer it keeps.
    assert_eq!((a_flush, b_flush), (0, 0));
    // A received frame: the session step's one-message delivery list.
    assert_eq!(frames, TURNS * u64::from(SENDS + 1));
    assert_eq!(received, frames);
}

#[test]
fn forwarding_a_dead_origins_broadcasts_stays_within_its_allocation_budget() {
    const BROADCASTS: u32 = 4;
    let cfg = SessionConfig::default();
    let session = |me: NodeId, peers: [NodeId; 2]| {
        let mut s: SessionLayer<u32> = SessionLayer::new(me, cfg.clone());
        for p in peers {
            s.add_peer(p, NOW);
        }
        s
    };
    let (mut a, mut b) = (session(A, [B, C]), session(B, [A, C]));
    for k in 0..BROADCASTS {
        for (to, frame) in a.broadcast(k).outbound {
            if to == B {
                let _ = b.on_frame(A, frame, NOW);
            }
        }
    }
    // `A` falls silent while `C` keeps beating: `B`'s next tick past
    // `fail_after` declares `A` down and forwards its broadcasts to `C`.
    let late = NOW + cfg.fail_after + SimDuration::from_millis(1);
    let _ = b.on_tick(SimTime::from_millis(50));
    let _ = b.on_frame(C, Frame::Heartbeat, late);
    let (step, allocs) = counted(|| b.on_tick(late));
    assert_eq!(step.events, [PeerEvent::Down(A)]);
    assert_eq!(b.stats().forwarded, u64::from(BROADCASTS));
    // Its event list, its outbound list (grown once past four frames:
    // the forwards and two heartbeats) and the link's retransmit buffer.
    assert_eq!(step.outbound.len() as u32, BROADCASTS + 2);
    assert_eq!(allocs, 4);
}
