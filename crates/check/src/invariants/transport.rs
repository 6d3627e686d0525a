//! Transport-fidelity invariant: the live transport's sans-IO session
//! layer keeps its reliability promises across *every* explored
//! delivery schedule — no sequence gaps after a reconnect replay, and
//! exactly-once delivery of a crashed origin's forwarded broadcasts.
//!
//! The harness hosts [`SessionLayer`] state machines directly on three
//! sim actors — the same struct the threaded TCP driver wraps, minus
//! the sockets — and scripts the transport's two hard paths in one
//! scenario:
//!
//! - **crash forwarding**: node 2 broadcasts, then drops off the
//!   network; both survivors' failure detectors fire and each forwards
//!   the retained broadcast to the other, so `(origin, bseq)` dedup is
//!   what stands between exactly-once and double delivery;
//! - **reconnect replay**: while node 2 is gone, node 0 unicasts to it
//!   (the frame is lost); after connectivity returns, the reconnect
//!   `Hello`s replay the buffered frame and the lost forward, and the
//!   receiver must end up gap-free.
//!
//! The invariant recomputes the expected delivery multiset per node and
//! rejects any gap, eviction, duplicate or omission; vacuity guards
//! demand that forwarding and dedup actually ran. The seeded known-bad
//! variant disarms `(origin, bseq)` dedup for forwarded frames
//! ([`SessionLayer::set_forward_dedup`]`(false)`): overlapping
//! survivors then double-deliver the dead node's broadcast on every
//! schedule, and the detector must say so.

use odp_net::session::{Frame, SessionConfig, SessionLayer, SessionStats, SessionStep};
use odp_sim::prelude::*;

use crate::explore::Invariant;

/// The session members; node 2 is the crasher.
pub fn session_members() -> Vec<NodeId> {
    vec![NodeId(0), NodeId(1), NodeId(2)]
}

/// The crashing broadcaster.
const CRASHER: NodeId = NodeId(2);

/// Host tick cadence; several ticks per heartbeat interval keeps the
/// failure detector responsive to the scripted timeline.
const TICK: SimDuration = SimDuration::from_millis(10);

/// Harness messages: wire frames between peers, plus scripted commands
/// a node receives from itself.
#[derive(Debug, Clone)]
pub enum TransportMsg {
    /// A session-layer frame on the wire.
    Wire(Frame<String>),
    /// Command: broadcast the payload to every peer.
    Broadcast(String),
    /// Command: unicast the payload to one peer.
    Unicast(NodeId, String),
    /// Command: (re-)establish the session towards a peer by sending it
    /// a fresh `Hello` (what the TCP driver does on every connect).
    Hello(NodeId),
}

/// A sim actor hosting one [`SessionLayer`], exactly as the TCP driver
/// hosts it: frames in, frames out, payloads delivered.
pub struct SessionHost {
    session: SessionLayer<String>,
    /// Payloads delivered to the application, tagged with origin.
    pub delivered: Vec<(NodeId, String)>,
}

impl SessionHost {
    /// A host for `me` peered with the other `members`. `forward_dedup:
    /// false` is the seeded known-bad fixture.
    pub fn new(me: NodeId, members: &[NodeId], forward_dedup: bool) -> Self {
        let mut session = SessionLayer::new(me, SessionConfig::default());
        for &peer in members {
            if peer != me {
                session.add_peer(peer, SimTime::ZERO);
            }
        }
        session.set_forward_dedup(forward_dedup);
        SessionHost {
            session,
            delivered: Vec::new(),
        }
    }

    /// The session's counters (the invariant reads gaps/forwards).
    pub fn stats(&self) -> SessionStats {
        self.session.stats()
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, TransportMsg>, step: SessionStep<String>) {
        for (to, frame) in step.outbound {
            ctx.send(to, TransportMsg::Wire(frame));
        }
        self.delivered.extend(step.delivered);
    }
}

impl Actor<TransportMsg> for SessionHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TransportMsg>) {
        ctx.set_timer(TICK, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, TransportMsg>, from: NodeId, msg: TransportMsg) {
        let now = ctx.now();
        let step = match msg {
            TransportMsg::Wire(frame) => self.session.on_frame(from, frame, now),
            TransportMsg::Broadcast(payload) => self.session.broadcast(payload, now),
            TransportMsg::Unicast(to, payload) => self.session.unicast(to, payload, now),
            TransportMsg::Hello(peer) => {
                let hello = self.session.hello_for(peer, now);
                ctx.send(peer, TransportMsg::Wire(hello));
                return;
            }
        };
        self.apply(ctx, step);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, TransportMsg>, _timer: TimerId, _tag: u64) {
        let step = self.session.on_tick(ctx.now());
        self.apply(ctx, step);
        ctx.set_timer(TICK, 0);
    }
}

/// Builds the crash/replay scenario. With `forward_dedup: false` every
/// host's forward dedup is disarmed — the seeded known-bad fixture the
/// detector must catch.
///
/// The script keeps at most one sequenced frame in flight per link at a
/// time: the session layer (like the TCP byte stream under it) assumes
/// FIFO links, so permuting two sequenced frames on one link would
/// explore schedules the transport never promises to survive.
pub fn transport_sim(seed: u64, forward_dedup: bool) -> Sim<TransportMsg> {
    let members = session_members();
    let net = Network::new(LinkSpec::lan());
    let mut sim = SimBuilder::new(seed).network(net).build();
    for &member in &members {
        sim.add_actor(member, SessionHost::new(member, &members, forward_dedup));
    }
    let ms = SimTime::from_millis;
    // The crasher broadcasts; every peer retains the payload.
    sim.inject(
        ms(10),
        CRASHER,
        CRASHER,
        TransportMsg::Broadcast("crash-note".to_owned()),
    );
    // A survivor broadcast too, so the crasher's links carry state that
    // the reconnect must reconcile.
    sim.inject(
        ms(30),
        NodeId(0),
        NodeId(0),
        TransportMsg::Broadcast("note-a".to_owned()),
    );
    // The crash: node 2 drops off the network. Survivors stop hearing
    // heartbeats, declare it down (~160 ms) and forward its retained
    // broadcast to each other.
    sim.schedule_net_change(ms(60), |net| {
        net.set_connectivity(CRASHER, Connectivity::Disconnected);
    });
    // A unicast into the void; the frame is lost but retained in node
    // 0's retransmit buffer.
    sim.inject(
        ms(150),
        NodeId(0),
        NodeId(0),
        TransportMsg::Unicast(CRASHER, "m1".to_owned()),
    );
    // Recovery: connectivity returns and every affected link re-runs
    // the hello handshake (both directions, as real reconnects do).
    sim.schedule_net_change(ms(600), |net| {
        net.set_connectivity(CRASHER, Connectivity::Full);
    });
    sim.inject(ms(620), NodeId(0), NodeId(0), TransportMsg::Hello(CRASHER));
    sim.inject(ms(620), NodeId(1), NodeId(1), TransportMsg::Hello(CRASHER));
    sim.inject(ms(620), CRASHER, CRASHER, TransportMsg::Hello(NodeId(0)));
    sim.inject(ms(621), CRASHER, CRASHER, TransportMsg::Hello(NodeId(1)));
    sim
}

/// What each node must have delivered at quiescence, independent of
/// schedule: the broadcast fan-out minus each origin's own copy, plus
/// the replayed unicast at the crasher.
fn expected_deliveries(member: NodeId) -> Vec<(NodeId, String)> {
    let crash_note = (CRASHER, "crash-note".to_owned());
    let note_a = (NodeId(0), "note-a".to_owned());
    match member.0 {
        0 => vec![crash_note],
        1 => vec![note_a, crash_note],
        _ => vec![note_a, (NodeId(0), "m1".to_owned())],
    }
}

/// Canonical [`crate::explore::StateFingerprint`] for the crash/replay
/// scenario: each host's delivery log and session counters.
pub fn fingerprint(sim: &Sim<TransportMsg>) -> u64 {
    let mut parts: Vec<String> = Vec::new();
    for member in session_members() {
        if let Some(host) = sim.get::<SessionHost>(ActorHandle::of(member)) {
            parts.push(format!("{member}:{:?}:{:?}", host.delivered, host.stats()));
        }
    }
    crate::explore::hash_of(&parts)
}

/// Quiescence invariant: per node, no sequence gaps and no retransmit
/// evictions; the delivered multiset equals the recomputed expectation
/// (which subsumes exactly-once); and the run actually exercised the
/// forwarding and dedup paths (vacuity guards).
pub struct TransportFidelity {
    members: Vec<NodeId>,
}

impl TransportFidelity {
    /// The invariant instance for [`transport_sim`].
    pub fn for_transport_sim() -> Self {
        TransportFidelity {
            members: session_members(),
        }
    }
}

impl Invariant<TransportMsg> for TransportFidelity {
    fn name(&self) -> &'static str {
        "transport-fidelity"
    }

    fn check_quiescent(&mut self, sim: &Sim<TransportMsg>) -> Result<(), String> {
        let mut forwarded = 0u64;
        let mut deduped = 0u64;
        for &member in &self.members {
            let host: &SessionHost = sim
                .get(ActorHandle::of(member))
                .ok_or_else(|| format!("session host {member} missing"))?;
            let stats = host.stats();
            if stats.gaps != 0 {
                return Err(format!(
                    "node {member} recorded {} sequence gap(s): data was lost \
                     despite reconnect replay ({stats:?})",
                    stats.gaps
                ));
            }
            if stats.evicted != 0 {
                return Err(format!(
                    "node {member} evicted {} retained frame(s); replay after \
                     this can gap ({stats:?})",
                    stats.evicted
                ));
            }
            let mut got = host.delivered.clone();
            let mut want = expected_deliveries(member);
            got.sort();
            want.sort();
            if got != want {
                return Err(format!(
                    "node {member} delivered {got:?}, expected {want:?} \
                     (duplicates or omissions break transport fidelity)"
                ));
            }
            forwarded += stats.forwarded;
            deduped += stats.bcast_duplicates;
        }
        if forwarded == 0 {
            return Err("no survivor forwarded the dead origin's broadcast — \
                 the crash path never ran (vacuous)"
                .to_owned());
        }
        if deduped == 0 {
            return Err("no forwarded broadcast was deduplicated — overlap \
                 between survivors never happened (vacuous)"
                .to_owned());
        }
        Ok(())
    }
}
