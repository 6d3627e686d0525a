//! The sans-IO link/session layer of the live transport.
//!
//! Everything the TCP backend does that is *protocol* rather than I/O
//! lives here as a pure state machine, in the style of the workspace's
//! other sans-IO engines: callers feed in frames, sends and clock
//! ticks; the layer hands back frames to transmit, messages to deliver
//! and peer up/down events. That makes the reliability mechanics —
//! per-peer sequence numbers, reconnect replay from bounded retransmit
//! buffers, heartbeat failure detection, and survivors forwarding a
//! crashed origin's broadcasts — testable deterministically on the
//! simulator (the explorer's `transport-fidelity` and `tcp-driver`
//! suites run it inside the TCP driver's core on sim actors) while the
//! threaded driver stays a thin byte shuffle.
//!
//! ## Sequencing model
//!
//! Each ordered frame to a peer carries a per-link sequence number
//! (`seq`, starting at 1). Senders keep the last
//! [`SessionConfig::retransmit_buffer`] frames per link; when a peer
//! reconnects its [`Frame::Hello`] announces the next `seq` it expects
//! and the sender replays everything buffered from there; ordered
//! frames sent after the connection opened but before that `Hello`
//! leave with the replay, since sent at once they could overtake a
//! frame the peer never got. A receiver seeing `seq` jump
//! forward records a **gap** (the buffer was too short — data is lost
//! and the transport-fidelity invariant fails); a `seq` at or below
//! the expected one is a **replay duplicate** and is dropped silently
//! (that is the mechanism working, not a fault).
//!
//! ## Broadcast forwarding
//!
//! Broadcasts additionally carry `(origin, bseq)` — a per-origin
//! broadcast sequence number — and every receiver retains the last
//! [`SessionConfig::forward_buffer`] broadcasts per origin. When
//! failure detection declares a peer down, survivors re-send the dead
//! origin's retained broadcasts to every live peer as [`Frame::Fwd`];
//! `(origin, bseq)` dedup makes delivery exactly-once however many
//! survivors forward the same message.

use std::collections::{BTreeMap, VecDeque};

use odp_fabric::{SeqSet, SortedVecMap};
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};

/// Tuning knobs for one node's session layer.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// How often [`SessionLayer::on_tick`] emits heartbeats per peer.
    pub heartbeat_every: SimDuration,
    /// Silence after which a peer is declared down. Should cover
    /// several heartbeats plus scheduling jitter. The clock runs from
    /// the last frame heard, so a connection dropped at the byte level
    /// needs no signal of its own: it is not a failure verdict by
    /// itself — reconnect may beat the deadline — and the silence it
    /// starts is already being timed.
    pub fail_after: SimDuration,
    /// Ordered frames retained per link for reconnect replay.
    pub retransmit_buffer: usize,
    /// Broadcasts retained per origin for crash forwarding.
    pub forward_buffer: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            heartbeat_every: SimDuration::from_millis(25),
            fail_after: SimDuration::from_millis(100),
            retransmit_buffer: 64,
            forward_buffer: 64,
        }
    }
}

/// One link-layer frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<M> {
    /// Session (re-)establishment: `from` identifies the sender and
    /// `expected` is the next per-link `seq` it expects from the
    /// receiver, prompting replay of anything newer in the buffer.
    Hello {
        /// The connecting node.
        from: NodeId,
        /// Next `seq` the connecting node expects on this link.
        expected: u64,
    },
    /// Liveness beacon; unsequenced, never replayed.
    Heartbeat,
    /// A sequenced unicast payload.
    Data {
        /// Per-link sequence number.
        seq: u64,
        /// The payload.
        msg: M,
    },
    /// A sequenced broadcast payload.
    Bcast {
        /// Per-link sequence number.
        seq: u64,
        /// The broadcast's originator.
        origin: NodeId,
        /// The originator's broadcast sequence number.
        bseq: u64,
        /// The payload.
        msg: M,
    },
    /// A broadcast re-sent by a survivor on behalf of a dead origin.
    Fwd {
        /// Per-link sequence number.
        seq: u64,
        /// The dead originator.
        origin: NodeId,
        /// The originator's broadcast sequence number.
        bseq: u64,
        /// The payload.
        msg: M,
    },
}

/// A peer liveness transition reported by the session layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerEvent {
    /// A session with the peer is (re-)established.
    Up(NodeId),
    /// The peer missed heartbeats past the failure deadline.
    Down(NodeId),
}

/// Counters the transport-fidelity invariant reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sequence numbers skipped on receive: data irrecoverably lost to
    /// a too-short retransmit buffer. Must be zero on a healthy link.
    pub gaps: u64,
    /// Frames dropped as replay duplicates (`seq` already seen). This
    /// is the replay mechanism working, not a failure.
    pub link_duplicates: u64,
    /// Broadcast payloads dropped by `(origin, bseq)` dedup. Nonzero is
    /// normal whenever forwarding overlaps the original.
    pub bcast_duplicates: u64,
    /// Broadcast payloads forwarded on behalf of dead origins.
    pub forwarded: u64,
    /// Payloads delivered to the application.
    pub delivered: u64,
    /// Ordered frames evicted from a retransmit buffer before any
    /// reconnect consumed them (a replay after this may gap).
    pub evicted: u64,
}

/// What one session-layer operation wants done.
#[derive(Debug)]
pub struct SessionStep<M> {
    /// Frames to transmit, per destination.
    pub outbound: Vec<(NodeId, Frame<M>)>,
    /// Payloads to deliver to the application, tagged with the node
    /// that *originated* them (for forwarded broadcasts that is the
    /// dead origin, not the forwarding survivor).
    pub delivered: Vec<(NodeId, M)>,
    /// Liveness transitions observed during the operation.
    pub events: Vec<PeerEvent>,
}

impl<M> SessionStep<M> {
    fn empty() -> Self {
        SessionStep {
            outbound: Vec::new(),
            delivered: Vec::new(),
            events: Vec::new(),
        }
    }

    /// A step that transmits `outbound` and nothing else.
    fn sending(outbound: Vec<(NodeId, Frame<M>)>) -> Self {
        SessionStep {
            outbound,
            ..SessionStep::empty()
        }
    }
}

#[derive(Debug)]
struct PeerState<M> {
    /// Next outgoing per-link seq to assign (starts at 1).
    next_out: u64,
    /// Next incoming per-link seq expected (starts at 1).
    expected_in: u64,
    /// Retained ordered frames for reconnect replay, oldest first.
    sent: VecDeque<Frame<M>>,
    /// Last time any frame arrived from the peer.
    last_heard: SimTime,
    /// Failure-detector verdict.
    alive: bool,
    /// A connection opened ([`SessionLayer::hello_for`]) and the peer's
    /// `Hello` is not read yet: new sequenced frames only join `sent`,
    /// and leave with the replay that `Hello` pulls (module docs).
    awaiting_hello: bool,
}

impl<M> PeerState<M> {
    fn new(now: SimTime) -> Self {
        PeerState {
            next_out: 1,
            expected_in: 1,
            sent: VecDeque::new(),
            last_heard: now,
            alive: true,
            awaiting_hello: false,
        }
    }
}

impl<M: Clone> PeerState<M> {
    /// Gives the frame `build` makes this link's next seq and retains a
    /// copy for reconnect replay, evicting (and counting) whatever no
    /// longer fits in `keep` frames. Returns the frame to transmit, or
    /// `None` while the link awaits the peer's `Hello`.
    fn sequence(
        &mut self,
        keep: usize,
        evicted: &mut u64,
        build: impl FnOnce(u64) -> Frame<M>,
    ) -> Option<Frame<M>> {
        let frame = build(self.next_out);
        self.next_out += 1;
        self.sent.push_back(frame.clone());
        while self.sent.len() > keep {
            self.sent.pop_front();
            *evicted += 1;
        }
        (!self.awaiting_hello).then_some(frame)
    }
}

/// The sans-IO session state machine for one node.
///
/// Generic over the payload `M`; cloning is required because replay and
/// forwarding re-send retained payloads.
#[derive(Debug)]
pub struct SessionLayer<M> {
    me: NodeId,
    cfg: SessionConfig,
    peers: BTreeMap<NodeId, PeerState<M>>,
    /// This node's own broadcast sequence counter.
    next_bseq: u64,
    /// Retained broadcasts per origin (own included), for forwarding.
    retained: BTreeMap<NodeId, VecDeque<(u64, M)>>,
    /// Broadcast dedup: per origin, the `bseq`s already delivered.
    seen: SortedVecMap<NodeId, SeqSet>,
    stats: SessionStats,
    /// Fault injection for the explorer's known-bad fixture: when
    /// false, forwarded broadcasts skip `(origin, bseq)` dedup, so
    /// overlapping survivors deliver the same payload twice.
    forward_dedup: bool,
    last_beat: SimTime,
}

impl<M: Clone> SessionLayer<M> {
    /// A session layer for node `me`.
    pub fn new(me: NodeId, cfg: SessionConfig) -> Self {
        SessionLayer {
            me,
            cfg,
            peers: BTreeMap::new(),
            next_bseq: 0,
            retained: BTreeMap::new(),
            seen: SortedVecMap::new(),
            stats: SessionStats::default(),
            forward_dedup: true,
            last_beat: SimTime::ZERO,
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Registers `peer` as a session member (idempotent).
    pub fn add_peer(&mut self, peer: NodeId, now: SimTime) {
        self.peers
            .entry(peer)
            .or_insert_with(|| PeerState::new(now));
    }

    /// The registered peers.
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.peers.keys().copied()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Fault injection (see the `forward_dedup` field docs);
    /// production code never calls this.
    pub fn set_forward_dedup(&mut self, on: bool) {
        self.forward_dedup = on;
    }

    /// The `Hello` to transmit to `peer` when a connection to it is
    /// (re-)established. New sequenced frames to `peer` wait for its
    /// `Hello` in turn, and leave with the replay it pulls.
    pub(crate) fn hello_for(&mut self, peer: NodeId, now: SimTime) -> Frame<M> {
        let state = self
            .peers
            .entry(peer)
            .or_insert_with(|| PeerState::new(now));
        state.awaiting_hello = true;
        Frame::Hello {
            from: self.me,
            expected: state.expected_in,
        }
    }

    /// Sends `msg` to `peer` as a sequenced unicast.
    pub fn unicast(&mut self, peer: NodeId, msg: M, now: SimTime) -> SessionStep<M> {
        let state = self
            .peers
            .entry(peer)
            .or_insert_with(|| PeerState::new(now));
        let frame = state.sequence(self.cfg.retransmit_buffer, &mut self.stats.evicted, |seq| {
            Frame::Data { seq, msg }
        });
        match frame {
            Some(frame) => SessionStep::sending(vec![(peer, frame)]),
            None => SessionStep::empty(),
        }
    }

    /// Broadcasts `msg` to every registered peer, retaining it for
    /// crash forwarding.
    pub fn broadcast(&mut self, msg: M) -> SessionStep<M> {
        self.next_bseq += 1;
        let bseq = self.next_bseq;
        let origin = self.me;
        self.retain_bcast(origin, bseq, msg.clone());
        // Own broadcasts are "seen": a survivor forwarding one back at
        // us after our crash verdict was wrong must not self-deliver.
        self.seen.get_mut_or_default(origin).insert(bseq);
        let mut outbound = Vec::with_capacity(self.peers.len());
        for (&peer, state) in &mut self.peers {
            let frame =
                state.sequence(self.cfg.retransmit_buffer, &mut self.stats.evicted, |seq| {
                    Frame::Bcast {
                        seq,
                        origin,
                        bseq,
                        // Every peer's link owns its frame; with a handle
                        // payload this is a reference-count bump.
                        msg: msg.clone(),
                    }
                });
            outbound.extend(frame.map(|frame| (peer, frame)));
        }
        SessionStep::sending(outbound)
    }

    fn retain_bcast(&mut self, origin: NodeId, bseq: u64, msg: M) {
        let buf = self.retained.entry(origin).or_default();
        buf.push_back((bseq, msg));
        while buf.len() > self.cfg.forward_buffer {
            buf.pop_front();
        }
    }

    /// Admits one sequenced frame: returns whether it is fresh, and
    /// records gaps/duplicates against `stats`.
    fn admit_seq(&mut self, from: NodeId, seq: u64, now: SimTime) -> bool {
        let state = self
            .peers
            .entry(from)
            .or_insert_with(|| PeerState::new(now));
        state.last_heard = now;
        if seq < state.expected_in {
            self.stats.link_duplicates += 1;
            return false;
        }
        if seq > state.expected_in {
            self.stats.gaps += seq - state.expected_in;
        }
        state.expected_in = seq + 1;
        true
    }

    /// Admits one broadcast-class payload: returns whether to deliver
    /// it (`(origin, bseq)` is fresh), having retained it if so.
    fn admit_bcast(&mut self, origin: NodeId, bseq: u64, msg: &M, dedup: bool) -> bool {
        // The known-bad path (`dedup` off) still records the pair, so
        // later honest receives count as duplicates, but delivers
        // regardless.
        let fresh = self.seen.get_mut_or_default(origin).insert(bseq);
        if dedup && !fresh {
            self.stats.bcast_duplicates += 1;
            return false;
        }
        self.retain_bcast(origin, bseq, msg.clone());
        self.stats.delivered += 1;
        true
    }

    /// Processes one received frame from `from`.
    pub fn on_frame(&mut self, from: NodeId, frame: Frame<M>, now: SimTime) -> SessionStep<M> {
        let mut step = SessionStep::empty();
        match frame {
            Frame::Hello {
                from: claimed,
                expected,
            } => {
                let peer = claimed;
                let state = self
                    .peers
                    .entry(peer)
                    .or_insert_with(|| PeerState::new(now));
                state.last_heard = now;
                if !state.alive {
                    state.alive = true;
                    step.events.push(PeerEvent::Up(peer));
                }
                // The peer's `expected` also tells a *fresh* session
                // (a process restarted under the same node id) where
                // its outgoing seq must resume: adopting it keeps the
                // peer from discarding the newcomer's frames as replay
                // duplicates. For a continuous session `expected` never
                // exceeds `next_out`, so this is a no-op there.
                state.next_out = state.next_out.max(expected);
                state.awaiting_hello = false;
                // Replay everything retained from the peer's expected
                // seq onward — frames held for this `Hello` included.
                // Frames below it were delivered; frames above the
                // retained window are gone (the receiver will record a
                // gap).
                let replay = state
                    .sent
                    .iter()
                    .filter(|f| frame_seq(f).is_some_and(|s| s >= expected));
                step.outbound.extend(replay.map(|f| (peer, f.clone())));
            }
            Frame::Heartbeat => {
                let state = self
                    .peers
                    .entry(from)
                    .or_insert_with(|| PeerState::new(now));
                state.last_heard = now;
                if !state.alive {
                    state.alive = true;
                    step.events.push(PeerEvent::Up(from));
                }
            }
            Frame::Data { seq, msg } => {
                if self.admit_seq(from, seq, now) {
                    self.stats.delivered += 1;
                    step.delivered = vec![(from, msg)];
                }
            }
            Frame::Bcast {
                seq,
                origin,
                bseq,
                msg,
            } => {
                if self.admit_seq(from, seq, now) && self.admit_bcast(origin, bseq, &msg, true) {
                    step.delivered = vec![(origin, msg)];
                }
            }
            Frame::Fwd {
                seq,
                origin,
                bseq,
                msg,
            } => {
                let dedup = self.forward_dedup;
                if self.admit_seq(from, seq, now) && self.admit_bcast(origin, bseq, &msg, dedup) {
                    step.delivered = vec![(origin, msg)];
                }
            }
        }
        step
    }

    /// Periodic maintenance: emits heartbeats, runs failure detection
    /// and triggers crash forwarding.
    pub fn on_tick(&mut self, now: SimTime) -> SessionStep<M> {
        let mut step = SessionStep::empty();
        if now.saturating_since(self.last_beat) >= self.cfg.heartbeat_every {
            self.last_beat = now;
            for (&peer, state) in &self.peers {
                if state.alive {
                    step.outbound.push((peer, Frame::Heartbeat));
                }
            }
        }
        // Failure detection, lowest id first. Each verdict clears
        // `alive`, so the search moves on.
        while let Some(peer) = self
            .peers
            .iter_mut()
            .find(|(_, s)| s.alive && now.saturating_since(s.last_heard) >= self.cfg.fail_after)
            .map(|(&peer, state)| {
                state.alive = false;
                peer
            })
        {
            step.events.push(PeerEvent::Down(peer));
            // Forward the dead origin's retained broadcasts to every
            // surviving peer; (origin, bseq) dedup collapses overlap
            // between survivors into exactly-once delivery.
            let Some(retained) = self.retained.get(&peer) else {
                continue;
            };
            for (bseq, msg) in retained {
                for (&to, state) in &mut self.peers {
                    if to == peer || !state.alive {
                        continue;
                    }
                    let frame = state.sequence(
                        self.cfg.retransmit_buffer,
                        &mut self.stats.evicted,
                        |seq| Frame::Fwd {
                            seq,
                            origin: peer,
                            bseq: *bseq,
                            // Failure recovery, not steady state: this
                            // runs only when a peer is declared down,
                            // and each survivor's link owns its frame.
                            msg: msg.clone(),
                        },
                    );
                    step.outbound.extend(frame.map(|frame| (to, frame)));
                    self.stats.forwarded += 1;
                }
            }
        }
        step
    }
}

/// The per-link seq of a sequenced frame (None for Hello/Heartbeat).
fn frame_seq<M>(frame: &Frame<M>) -> Option<u64> {
    match frame {
        Frame::Data { seq, .. } | Frame::Bcast { seq, .. } | Frame::Fwd { seq, .. } => Some(*seq),
        Frame::Hello { .. } | Frame::Heartbeat => None,
    }
}

crate::wire_enum!(<M> Frame<M> {
    0 => Hello { from, expected },
    1 => Heartbeat,
    2 => Data { seq, msg },
    3 => Bcast { seq, origin, bseq, msg },
    4 => Fwd { seq, origin, bseq, msg },
});

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn pair() -> (SessionLayer<String>, SessionLayer<String>) {
        let mut a = SessionLayer::new(NodeId(0), SessionConfig::default());
        let mut b = SessionLayer::new(NodeId(1), SessionConfig::default());
        a.add_peer(NodeId(1), SimTime::ZERO);
        b.add_peer(NodeId(0), SimTime::ZERO);
        (a, b)
    }

    /// Shovels a step's outbound frames into the right receiver,
    /// returning everything delivered.
    fn shovel(
        step: SessionStep<String>,
        from: NodeId,
        peers: &mut [(&mut SessionLayer<String>, NodeId)],
        now: SimTime,
    ) -> Vec<(NodeId, String)> {
        let mut delivered = Vec::new();
        for (to, frame) in step.outbound {
            for (layer, id) in peers.iter_mut() {
                if *id == to {
                    let sub = layer.on_frame(from, frame.clone(), now);
                    delivered.extend(sub.delivered);
                }
            }
        }
        delivered
    }

    #[test]
    fn unicast_sequences_and_delivers_in_order() {
        let (mut a, mut b) = pair();
        for i in 0..5 {
            let step = a.unicast(NodeId(1), format!("m{i}"), ms(i));
            let got = shovel(step, NodeId(0), &mut [(&mut b, NodeId(1))], ms(i));
            assert_eq!(got, vec![(NodeId(0), format!("m{i}"))]);
        }
        assert_eq!(b.stats().gaps, 0);
        assert_eq!(b.stats().delivered, 5);
    }

    #[test]
    fn reconnect_replays_from_the_expected_seq() {
        let (mut a, mut b) = pair();
        // Two frames delivered, then two lost in flight (disconnect).
        for i in 0..2 {
            let step = a.unicast(NodeId(1), format!("m{i}"), ms(i));
            shovel(step, NodeId(0), &mut [(&mut b, NodeId(1))], ms(i));
        }
        let _lost1 = a.unicast(NodeId(1), "m2".into(), ms(2));
        let _lost2 = a.unicast(NodeId(1), "m3".into(), ms(3));
        // Reconnect: b's hello says "I expect seq 3".
        let hello = b.hello_for(NodeId(0), ms(10));
        let replay = a.on_frame(NodeId(1), hello, ms(10));
        let got = shovel(replay, NodeId(0), &mut [(&mut b, NodeId(1))], ms(10));
        assert_eq!(
            got,
            vec![(NodeId(0), "m2".to_string()), (NodeId(0), "m3".to_string())]
        );
        assert_eq!(b.stats().gaps, 0, "replay closed the hole");
        assert_eq!(b.stats().link_duplicates, 0);
    }

    #[test]
    fn a_send_on_a_new_connection_waits_for_the_peers_hello() {
        // The explorer's tcp-driver counterexample: a frame sent while
        // no connection was up, then one sent on the dialer's new
        // connection before the peer's hello came back.
        let (mut a, mut b) = pair();
        let _unrouted = a.unicast(NodeId(1), "m0".into(), ms(0));
        let hello_a = a.hello_for(NodeId(1), ms(1));
        let early = a.unicast(NodeId(1), "m1".into(), ms(2));
        assert!(early.outbound.is_empty(), "held until b's hello");
        b.on_frame(NodeId(0), hello_a, ms(3));
        let hello_b = b.hello_for(NodeId(0), ms(3));
        let replay = a.on_frame(NodeId(1), hello_b, ms(4));
        let got = shovel(replay, NodeId(0), &mut [(&mut b, NodeId(1))], ms(4));
        let want = [(NodeId(0), "m0".to_string()), (NodeId(0), "m1".to_string())];
        assert_eq!(got, want);
        assert_eq!(b.stats().gaps, 0);
        // Once b's hello is read, sends go straight out again.
        let step = a.unicast(NodeId(1), "m2".into(), ms(5));
        assert_eq!(step.outbound.len(), 1);
    }

    #[test]
    fn replay_overlap_is_dropped_as_duplicates() {
        let (mut a, mut b) = pair();
        let step = a.unicast(NodeId(1), "m0".into(), ms(0));
        shovel(step, NodeId(0), &mut [(&mut b, NodeId(1))], ms(0));
        // b's hello claims it expects seq 1 again (e.g. its ack state
        // was behind); a replays frame 1, b drops it.
        let hello = Frame::Hello {
            from: NodeId(1),
            expected: 1,
        };
        let replay = a.on_frame(NodeId(1), hello, ms(1));
        let got = shovel(replay, NodeId(0), &mut [(&mut b, NodeId(1))], ms(1));
        assert!(got.is_empty());
        assert_eq!(b.stats().link_duplicates, 1);
        assert_eq!(b.stats().delivered, 1);
    }

    #[test]
    fn overflowing_the_retransmit_buffer_gaps_on_replay() {
        let cfg = SessionConfig {
            retransmit_buffer: 2,
            ..SessionConfig::default()
        };
        let mut a = SessionLayer::new(NodeId(0), cfg.clone());
        let mut b = SessionLayer::new(NodeId(1), cfg);
        a.add_peer(NodeId(1), SimTime::ZERO);
        b.add_peer(NodeId(0), SimTime::ZERO);
        // Four frames all lost; only the last two are retained.
        for i in 0..4 {
            let _ = a.unicast(NodeId(1), format!("m{i}"), ms(i));
        }
        assert_eq!(a.stats().evicted, 2);
        let hello = b.hello_for(NodeId(0), ms(10));
        let replay = a.on_frame(NodeId(1), hello, ms(10));
        let got = shovel(replay, NodeId(0), &mut [(&mut b, NodeId(1))], ms(10));
        assert_eq!(got.len(), 2, "only the retained tail arrives");
        assert_eq!(b.stats().gaps, 2, "the evicted frames are a recorded gap");
    }

    #[test]
    fn heartbeat_silence_declares_down_and_forwards_broadcasts() {
        let cfg = SessionConfig::default();
        let mut a = SessionLayer::new(NodeId(0), cfg.clone());
        let mut b = SessionLayer::new(NodeId(1), cfg.clone());
        let mut c = SessionLayer::new(NodeId(2), cfg.clone());
        for (layer, me) in [(&mut a, 0u32), (&mut b, 1), (&mut c, 2)] {
            for peer in 0..3u32 {
                if peer != me {
                    layer.add_peer(NodeId(peer), SimTime::ZERO);
                }
            }
        }
        // c broadcasts; the copy to b is lost in flight.
        let step = c.broadcast("crash-note".to_string());
        let mut delivered_a = Vec::new();
        for (to, frame) in step.outbound {
            if to == NodeId(0) {
                delivered_a.extend(a.on_frame(NodeId(2), frame, ms(1)).delivered);
            }
            // NodeId(1): dropped.
        }
        assert_eq!(delivered_a, vec![(NodeId(2), "crash-note".to_string())]);
        // b is alive and heartbeating; c is silent past the deadline,
        // so a declares c (and only c) down and forwards the retained
        // broadcast to b.
        a.on_frame(NodeId(1), Frame::Heartbeat, ms(150));
        let tick = a.on_tick(ms(200));
        assert!(!tick.events.contains(&PeerEvent::Down(NodeId(1))));
        assert!(tick.events.contains(&PeerEvent::Down(NodeId(2))));
        let mut delivered_b = Vec::new();
        for (to, frame) in tick.outbound {
            if to == NodeId(1) {
                delivered_b.extend(b.on_frame(NodeId(0), frame, ms(200)).delivered);
            }
        }
        assert_eq!(
            delivered_b,
            vec![(NodeId(2), "crash-note".to_string())],
            "the survivor's forward reaches b attributed to the dead origin"
        );
        // b now also detects the crash and forwards back to a, whose
        // dedup drops the echo: exactly-once.
        let tick_b = b.on_tick(ms(201));
        let mut echoed = Vec::new();
        for (to, frame) in tick_b.outbound {
            if to == NodeId(0) {
                echoed.extend(a.on_frame(NodeId(1), frame, ms(201)).delivered);
            }
        }
        assert!(echoed.is_empty(), "dedup makes forwarding exactly-once");
        assert_eq!(a.stats().bcast_duplicates, 1);
    }

    #[test]
    fn disabling_forward_dedup_double_delivers() {
        let cfg = SessionConfig::default();
        let mut a = SessionLayer::new(NodeId(0), cfg.clone());
        a.add_peer(NodeId(1), SimTime::ZERO);
        a.add_peer(NodeId(2), SimTime::ZERO);
        a.set_forward_dedup(false);
        // The original broadcast arrives...
        let bcast = Frame::Bcast {
            seq: 1,
            origin: NodeId(2),
            bseq: 1,
            msg: "x".to_string(),
        };
        let first = a.on_frame(NodeId(2), bcast, ms(1));
        assert_eq!(first.delivered.len(), 1);
        // ...then a survivor's forward of the same payload: without
        // dedup it is delivered again.
        let fwd = Frame::Fwd {
            seq: 1,
            origin: NodeId(2),
            bseq: 1,
            msg: "x".to_string(),
        };
        let second = a.on_frame(NodeId(1), fwd, ms(2));
        assert_eq!(second.delivered.len(), 1, "the seeded bug double-delivers");
    }

    #[test]
    fn reconnect_before_deadline_stays_up() {
        let (mut a, _b) = pair();
        let tick = a.on_tick(ms(50));
        assert!(tick.events.is_empty());
        // Heartbeat arrives at 80ms; deadline slides.
        a.on_frame(NodeId(1), Frame::Heartbeat, ms(80));
        let tick = a.on_tick(ms(150));
        assert!(tick.events.is_empty(), "heard at 80, checked at 150 < 180");
        let tick = a.on_tick(ms(185));
        assert_eq!(tick.events, vec![PeerEvent::Down(NodeId(1))]);
        // A late hello resurrects the peer.
        let step = a.on_frame(
            NodeId(1),
            Frame::Hello {
                from: NodeId(1),
                expected: 1,
            },
            ms(200),
        );
        assert_eq!(step.events, vec![PeerEvent::Up(NodeId(1))]);
    }
}
