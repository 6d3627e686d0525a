//! `wire_small` / `wire_bulk` — the sans-IO transport path on one
//! thread.
//!
//! One sender `GroupEngine<Payload>` (FIFO, reliable) multicasts to 31
//! receivers. Every outbound envelope crosses the whole stack the TCP
//! driver runs, minus the socket: `SessionLayer::unicast` →
//! `encode_frame` → bytes → `decode_frame` → `SessionLayer::on_frame` →
//! `GroupEngine::on_message`, with every ack flowing back the same way
//! and `on_tick` driven on a fixed simulated cadence. The payloads come
//! from a pool drawn from the seed.
//!
//! At 64 B the per-message cost (codec field walk, session and ack
//! bookkeeping) is everything; at 16 KiB the per-byte cost (copies,
//! allocation, frame assembly) is. A change to one must not show on
//! the other.
//!
//! Seeded fault (`Spec::fault`): one data frame is dropped between
//! encode and decode. The receiver's session must then record a gap.

use std::time::Instant;

use odp_fabric::Payload;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::{GcMsg, GroupEngine, Ordering, Reliability, Step};
use odp_net::session::{Frame, SessionConfig, SessionLayer, SessionStep};
use odp_net::wire::{decode_frame, encode_frame, MAX_FRAME};
use odp_sim::net::NodeId;
use odp_sim::rng::DetRng;
use odp_sim::time::{SimDuration, SimTime};

use super::{Round, Size, Spec, Stopwatch};
use crate::probe::{span, Mode, Span};

/// Receivers of every multicast.
pub const RECEIVERS: u32 = 31;
/// Distinct payload buffers in the pool.
const POOL: usize = 64;
/// Simulated time between two multicasts.
const MCAST_GAP: SimDuration = SimDuration::from_micros(100);
/// Multicasts between two maintenance ticks (10 ms simulated).
const TICK_EVERY: u64 = 100;

/// One payload size and how many multicasts make a round of it.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Payload bytes per multicast.
    pub payload: usize,
    /// Multicasts per round at the measured size.
    pub mcasts_full: u64,
}

/// `wire_small`.
pub const SMALL: Shape = Shape {
    payload: 64,
    mcasts_full: 8_000,
};

/// `wire_bulk`.
pub const BULK: Shape = Shape {
    payload: 16 * 1024,
    mcasts_full: 4_000,
};

const MCASTS_QUICK: u64 = 300;

type Msg = GcMsg<Payload>;

struct Node {
    id: NodeId,
    engine: GroupEngine<Payload>,
    session: SessionLayer<Msg>,
    /// Wrapping word sum of every payload delivered here.
    checksum: u64,
    deliveries: u64,
    bytes: u64,
    held_back_peak: usize,
}

/// Counters of one round, beyond what the nodes hold.
#[derive(Default)]
struct Tally {
    frames: u64,
    frame_bytes: u64,
    frames_handled: u64,
    engine_msgs: u64,
    retransmits: u64,
    unacked_peak: usize,
    short_decodes: u64,
    /// The seeded fault: drop the n-th data frame (1-based), once.
    drop_frame: Option<u64>,
}

fn word_sum(bytes: &[u8]) -> u64 {
    let mut sum = bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let mut w = [0u8; 8];
        w.copy_from_slice(c);
        sum = sum.wrapping_add(u64::from_le_bytes(w));
    }
    for &b in chunks.remainder() {
        sum = sum.wrapping_add(u64::from(b));
    }
    sum
}

/// Sender plus receivers; index = node id.
struct Fleet {
    nodes: Vec<Node>,
}

impl Fleet {
    fn new() -> Self {
        let members = (0..=RECEIVERS).map(NodeId);
        let view = View::initial(GroupId(0), members.clone());
        let nodes = members
            .map(|id| {
                let mut session = SessionLayer::new(id, SessionConfig::default());
                if id.0 == 0 {
                    for r in 1..=RECEIVERS {
                        session.add_peer(NodeId(r), SimTime::ZERO);
                    }
                } else {
                    session.add_peer(NodeId(0), SimTime::ZERO);
                }
                Node {
                    id,
                    engine: GroupEngine::new(
                        id,
                        view.clone(),
                        Ordering::Fifo,
                        Reliability::reliable(),
                    ),
                    session,
                    checksum: 0,
                    deliveries: 0,
                    bytes: 0,
                    held_back_peak: 0,
                }
            })
            .collect();
        Fleet { nodes }
    }

    /// Applies an engine step taken at `at`: deliveries are checksummed
    /// there, outbound envelopes cross the stack to their destination.
    fn apply<M: Mode>(&mut self, at: usize, step: Step<Payload>, now: SimTime, tally: &mut Tally) {
        let node = &mut self.nodes[at];
        // The sender's self-delivery is not a transport delivery.
        if at != 0 {
            for d in &step.delivered {
                node.checksum = node.checksum.wrapping_add(word_sum(d.payload.as_slice()));
                node.deliveries += 1;
                node.bytes += d.payload.len() as u64;
            }
        }
        for (to, msg) in step.outbound {
            let sstep = span::<M, _>(Span::SessionSend, || {
                self.nodes[at].session.unicast(to, msg, now)
            });
            self.transmit::<M>(at, sstep, now, tally);
        }
    }

    /// Puts a session step's frames on the "wire" and hands each to the
    /// destination's session and engine.
    fn transmit<M: Mode>(
        &mut self,
        from: usize,
        sstep: SessionStep<Msg>,
        now: SimTime,
        tally: &mut Tally,
    ) {
        let from_id = self.nodes[from].id;
        for (to, frame) in sstep.outbound {
            let is_data = matches!(
                &frame,
                Frame::Data {
                    msg: GcMsg::Data(_),
                    ..
                }
            );
            let bytes = match span::<M, _>(Span::Encode, || encode_frame(&frame, MAX_FRAME)) {
                Ok(bytes) => bytes,
                Err(_) => {
                    tally.short_decodes += 1;
                    continue;
                }
            };
            tally.frames += 1;
            tally.frame_bytes += bytes.len() as u64;
            if is_data {
                if let Some(n) = tally.drop_frame.as_mut() {
                    *n -= 1;
                    if *n == 0 {
                        tally.drop_frame = None;
                        continue;
                    }
                }
            }
            let decoded = span::<M, _>(Span::Decode, || {
                decode_frame::<Frame<Msg>>(&bytes, MAX_FRAME)
            });
            let frame = match decoded {
                Ok((frame, used)) if used == bytes.len() => frame,
                _ => {
                    tally.short_decodes += 1;
                    continue;
                }
            };
            tally.frames_handled += 1;
            let dest = to.0 as usize;
            let rstep = span::<M, _>(Span::SessionRecv, || {
                self.nodes[dest].session.on_frame(from_id, frame, now)
            });
            for (origin, msg) in rstep.delivered {
                tally.engine_msgs += 1;
                let gstep = span::<M, _>(Span::GcOnMessage, || {
                    self.nodes[dest].engine.on_message(origin, msg, now)
                });
                let held = self.nodes[dest].engine.held_back();
                let node = &mut self.nodes[dest];
                node.held_back_peak = node.held_back_peak.max(held);
                self.apply::<M>(dest, gstep, now, tally);
            }
            // A hello or replay answer, if the frame provoked one.
            if !rstep.outbound.is_empty() {
                let answer = SessionStep {
                    outbound: rstep.outbound,
                    delivered: Vec::new(),
                    events: Vec::new(),
                };
                self.transmit::<M>(dest, answer, now, tally);
            }
        }
    }

    /// One maintenance tick on every engine and session.
    fn tick<M: Mode>(&mut self, now: SimTime, tally: &mut Tally) {
        for at in 0..self.nodes.len() {
            let gstep = span::<M, _>(Span::GcOnTick, || self.nodes[at].engine.on_tick(now));
            tally.retransmits += gstep.outbound.len() as u64;
            self.apply::<M>(at, gstep, now, tally);
            let sstep = span::<M, _>(Span::SessionTick, || self.nodes[at].session.on_tick(now));
            self.transmit::<M>(at, sstep, now, tally);
        }
    }
}

/// The payload pool of one run.
pub fn payload_pool(seed: u64, size: usize) -> Vec<Payload> {
    let mut rng = DetRng::seed_from(seed ^ 0x7061_796c);
    (0..POOL)
        .map(|_| {
            let mut bytes = Vec::with_capacity(size);
            while bytes.len() < size {
                let word = rng.next_u64().to_le_bytes();
                let take = (size - bytes.len()).min(8);
                bytes.extend_from_slice(&word[..take]);
            }
            Payload::from_vec(bytes)
        })
        .collect()
}

/// One round: build the fleet, push the multicasts through, audit.
pub fn round<M: Mode>(spec: &Spec, shape: Shape) -> Round {
    let mcasts = match spec.size {
        Size::Full => shape.mcasts_full,
        Size::Quick => MCASTS_QUICK,
    };
    let mut out = Round::default();

    let t0 = Instant::now();
    let mut fleet = Fleet::new();
    let pool = payload_pool(spec.seed, shape.payload);
    let mut pick = DetRng::seed_from(spec.seed ^ 0x7069_636b);
    let order: Vec<u8> = (0..mcasts).map(|_| pick.index(POOL) as u8).collect();
    let mut tally = Tally {
        drop_frame: spec.fault.then_some(mcasts * u64::from(RECEIVERS) / 2),
        ..Tally::default()
    };
    out.setup_ns = t0.elapsed().as_nanos() as u64;
    out.actors = u64::from(RECEIVERS) + 1;

    let mut sent_sum = 0u64;
    let mut now = SimTime::ZERO;
    let watch = Stopwatch::start();
    span::<M, _>(Span::Round, || {
        for (k, &which) in order.iter().enumerate() {
            now += MCAST_GAP;
            let payload = pool[usize::from(which)].clone();
            sent_sum = sent_sum.wrapping_add(word_sum(payload.as_slice()));
            let step = span::<M, _>(Span::GcMcast, || fleet.nodes[0].engine.mcast(payload, now));
            fleet.apply::<M>(0, step, now, &mut tally);
            tally.unacked_peak = tally.unacked_peak.max(fleet.nodes[0].engine.unacked());
            if (k as u64 + 1).is_multiple_of(TICK_EVERY) {
                fleet.tick::<M>(now, &mut tally);
            }
        }
        // A closing tick so the last window's acks and beats are seen.
        now += SimDuration::from_millis(10);
        fleet.tick::<M>(now, &mut tally);
    });
    watch.stop(&mut out);

    let payload_bytes = mcasts * shape.payload as u64;
    let (mut deliveries, mut bytes) = (0u64, 0u64);
    let (mut gaps, mut dups, mut evicted, mut session_delivered) = (0u64, 0u64, 0u64, 0u64);
    let mut held_back_peak = 0usize;
    for node in &fleet.nodes {
        let stats = node.session.stats();
        gaps += stats.gaps;
        dups += stats.link_duplicates;
        evicted += stats.evicted;
        session_delivered += stats.delivered;
        held_back_peak = held_back_peak.max(node.held_back_peak);
        if node.id.0 == 0 {
            continue;
        }
        out.expect_eq("deliveries at a receiver", node.deliveries, mcasts);
        out.expect_eq("payload bytes at a receiver", node.bytes, payload_bytes);
        if node.checksum != sent_sum {
            out.fail(
                1,
                format!("receiver {} checksum differs from the sender's", node.id),
            );
        }
        deliveries += node.deliveries;
        bytes += node.bytes;
    }
    out.expect_eq("session gaps", gaps, 0);
    out.expect_eq("frames not decoded whole", tally.short_decodes, 0);
    out.expect_eq(
        "unacked at the end",
        fleet.nodes[0].engine.unacked() as u64,
        0,
    );

    out.events = tally.frames_handled;
    out.deliveries = deliveries;
    out.payload_bytes = bytes;
    out.attempted = mcasts * u64::from(RECEIVERS);
    out.exact = vec![
        (
            "groupcomm.msgs_per_delivery",
            tally.engine_msgs as f64 / deliveries.max(1) as f64,
        ),
        ("groupcomm.retransmits", tally.retransmits as f64),
        ("groupcomm.unacked_peak", tally.unacked_peak as f64),
        ("groupcomm.held_back_peak", held_back_peak as f64),
        (
            "net.frame_bytes_mean",
            tally.frame_bytes as f64 / tally.frames.max(1) as f64,
        ),
        (
            "net.wire_overhead_ratio",
            tally.frame_bytes as f64 / bytes.max(1) as f64,
        ),
        ("net.session_delivered", session_delivered as f64),
        ("net.session_gaps", gaps as f64),
        ("net.session_link_duplicates", dups as f64),
        ("net.session_evicted", evicted as f64),
    ];
    out
}
