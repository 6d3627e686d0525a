//! The TCP driver's core on the simulator, and the transport-fidelity
//! invariant over it.
//!
//! [`CoreHost`] is one sim actor hosting one
//! [`odp_net::driver::DriverCore`] — the state machine the threaded
//! `TcpNode` runs — over a [`Recorder`] actor. It models the shell
//! around the core and nothing else: each sim callback is one driver
//! turn (the inputs it carries, then `tick`, then the flush), and each
//! byte batch the flush writes is one [`Pipe::Seg`] tagged with its
//! connection and its index on it. A TCP connection is a FIFO byte
//! stream, so the receiving host reassembles each connection's
//! segments in index order and reads frames off them through
//! [`FrameStream`], as a reader thread does: the explorer reorders
//! segments of different connections, never bytes within one. A
//! connection's end is a segment too (`bytes: None`), read after
//! everything sent before it; an end that closed reads nothing more
//! and fails every write. Only sockets and threads are left out:
//! `encode_frame_into` → `FrameStream` → session → core is the code
//! TCP runs.
//!
//! While it reads and flushes, the host holds the core to three
//! promises and records any breach in [`CoreHost::violations`]:
//!
//! - **a link is its own connection's**: every connection the core
//!   drops was replaced by a newer `Conn` for its peer, ended with its
//!   own `Gone`, or failed a write;
//! - **`Hello` first**: the first frame read on every connection is a
//!   `Hello`;
//! - **transmit order**: on one connection, each sequenced frame's seq
//!   is the previous one's successor, or at or below it (the replay a
//!   `Hello` pulls) — never a skip forward.
//!
//! The **transport-fidelity** scenario runs three such hosts through
//! the transport's two hard paths:
//!
//! - **crash forwarding**: node 2 broadcasts, then its connections are
//!   cut; both survivors' failure detectors fire and each forwards the
//!   retained broadcast to the other, so `(origin, bseq)` dedup is what
//!   stands between exactly-once and double delivery;
//! - **reconnect replay**: while node 2 is cut off, node 0 unicasts to
//!   it (unrouted, retained); the survivors then dial node 2 on fresh
//!   connections, whose `Hello`s replay the buffered frame and the lost
//!   forward, and the receiver must end up gap-free.
//!
//! The invariant recomputes the expected delivery multiset per node and
//! rejects any gap, eviction, duplicate or omission; vacuity guards
//! demand that forwarding and dedup actually ran. The seeded known-bad
//! variant disarms `(origin, bseq)` dedup for forwarded frames
//! ([`SessionLayer::set_forward_dedup`]`(false)`): overlapping
//! survivors then double-deliver the dead node's broadcast on every
//! schedule, and the detector must say so.

use std::collections::BTreeMap;

use odp_net::actor::TransportActor;
use odp_net::ctx::NetCtx;
use odp_net::driver::{DriverCore, Input};
use odp_net::session::{Frame, SessionConfig, SessionLayer, SessionStats};
use odp_net::tcp::TcpReport;
use odp_net::wire::{FrameStream, MAX_FRAME};
use odp_sim::prelude::*;

use crate::explore::Invariant;

/// The payload hosted actors exchange: the node a note is addressed
/// to, and its text.
pub type Note = (NodeId, String);

/// Host tick cadence: the idle wake-up between inputs. Several per
/// heartbeat keeps the failure detector responsive.
const TICK: SimDuration = SimDuration::from_millis(10);

/// The hosted actor: an injected note (one "from" its own node) is
/// sent to its addressee; every other note is recorded as delivered.
#[derive(Debug, Default)]
pub struct Recorder {
    /// `(origin, text)` of every note delivered here.
    pub delivered: Vec<(NodeId, String)>,
}

impl TransportActor<Note> for Recorder {
    fn on_message(&mut self, ctx: &mut dyn NetCtx<Note>, from: NodeId, (to, text): Note) {
        if from == ctx.id() {
            ctx.send(to, (to, text));
        } else {
            self.delivered.push((from, text));
        }
    }
}

/// What a host does in one driver turn of its own.
#[derive(Debug, Clone)]
pub enum Local {
    /// Dial the host on node `peer` over the new connection `conn`.
    Dial {
        /// Whom to dial (also whom the dialer expects to answer).
        peer: NodeId,
        /// The connection's id, unique in the scenario.
        conn: u64,
    },
    /// This end closes connection `conn`.
    Close(u64),
    /// The actor sends `text` to the node.
    Send(NodeId, String),
    /// A session-level broadcast of `text`.
    Bcast(String),
    /// The node stops: the turn ends here, what it produced is flushed,
    /// and every open connection closes.
    Stop,
}

/// Harness messages: connection bytes between hosts, and the script's
/// turns at one host.
#[derive(Debug, Clone)]
pub enum Pipe {
    /// Segment `n` of connection `conn`, in the receiver's direction:
    /// bytes, or the stream's end.
    Seg {
        /// The connection.
        conn: u64,
        /// The segment's index on it.
        n: u64,
        /// The bytes; `None` is the end of the stream.
        bytes: Option<Vec<u8>>,
    },
    /// One driver turn of the receiving host: these, in order, then
    /// tick and flush.
    Turn(Vec<Local>),
}

/// One end of a connection, as the host sees it.
#[derive(Debug)]
struct ConnEnd {
    /// The sim node at the other end.
    remote: NodeId,
    /// Whom the core knows the connection as: the dialed peer, or
    /// whoever the first `Hello` read on it named.
    peer: Option<NodeId>,
    /// Index of the next segment this end sends.
    sent: u64,
    /// Index of the next segment this end reads.
    read: u64,
    /// Segments that overtook `read`.
    early: BTreeMap<u64, Option<Vec<u8>>>,
    stream: FrameStream,
    /// Frames read so far.
    frames: u64,
    /// The seq of the last sequenced frame read.
    last_seq: Option<u64>,
    /// This end closed, or read the other end's: it reads nothing more
    /// and every write fails.
    closed: bool,
    /// The core was told of a newer connection to the same peer.
    replaced: bool,
    /// The core was told this connection ended.
    ended: bool,
    /// A write to it failed.
    broke: bool,
}

impl ConnEnd {
    fn new(remote: NodeId, peer: Option<NodeId>) -> Self {
        ConnEnd {
            remote,
            peer,
            sent: 0,
            read: 0,
            early: BTreeMap::new(),
            stream: FrameStream::new(),
            frames: 0,
            last_seq: None,
            closed: false,
            replaced: false,
            ended: false,
            broke: false,
        }
    }
}

/// A sim actor hosting one TCP driver core (see the [module docs](self)).
pub struct CoreHost {
    /// The node the core speaks for (a `Hello` says so).
    me: NodeId,
    core: Option<DriverCore<Note, Recorder>>,
    /// The actor and report of a stopped core.
    stopped: Option<(Recorder, TcpReport)>,
    conns: BTreeMap<u64, ConnEnd>,
    /// The connection the core was last told each peer is on.
    link_of: BTreeMap<NodeId, u64>,
    /// Every breach of the module's three promises, in order.
    violations: Vec<String>,
}

impl CoreHost {
    /// A host for the node `session` speaks for. `gone_checks_conn:
    /// false` is the core's known-bad switch.
    pub fn new(session: SessionLayer<Note>, gone_checks_conn: bool) -> Self {
        let me = session.me();
        let mut core = DriverCore::new(session, 0, MAX_FRAME, Recorder::default());
        core.set_gone_checks_conn(gone_checks_conn);
        CoreHost {
            me,
            core: Some(core),
            stopped: None,
            conns: BTreeMap::new(),
            link_of: BTreeMap::new(),
            violations: Vec::new(),
        }
    }

    /// `(origin, text)` of every note delivered here.
    pub fn delivered(&self) -> &[(NodeId, String)] {
        match (&self.core, &self.stopped) {
            (Some(core), _) => &core.actor().delivered,
            (None, Some((recorder, _))) => &recorder.delivered,
            (None, None) => &[],
        }
    }

    /// The session's counters.
    pub fn stats(&self) -> SessionStats {
        match (&self.core, &self.stopped) {
            (Some(core), _) => core.stats(),
            (None, Some((_, report))) => report.stats,
            (None, None) => SessionStats::default(),
        }
    }

    /// The stopped core's report; `None` while it runs.
    pub fn report(&self) -> Option<&TcpReport> {
        self.stopped.as_ref().map(|(_, report)| report)
    }

    /// Every breach of the core's promises the host saw.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Everything the suites' invariants read, for state hashing.
    fn digest(&self) -> String {
        format!(
            "{:?}|{:?}|{}|{:?}|{:?}|{:?}",
            self.delivered(),
            self.stats(),
            self.core.is_some(),
            self.conns,
            self.link_of,
            self.violations
        )
    }

    /// Hands `input` to the core, keeping the host's view of which
    /// connection each peer is on.
    fn input(&mut self, now: SimTime, input: Input<Note>) {
        let Some(core) = self.core.as_mut() else {
            return;
        };
        if let Input::Conn { peer, conn } = input {
            if let Some(old) = self.link_of.insert(peer, conn) {
                if let Some(end) = self.conns.get_mut(&old) {
                    end.replaced = true;
                }
            }
        }
        core.handle(now, input);
    }

    /// Reads segment `n` of `conn` from `remote`, and every segment it
    /// lets through, as the connection's reader thread would.
    fn read(&mut self, now: SimTime, remote: NodeId, conn: u64, n: u64, seg: Option<Vec<u8>>) {
        let end = self
            .conns
            .entry(conn)
            .or_insert_with(|| ConnEnd::new(remote, None));
        if end.closed {
            return;
        }
        end.early.insert(n, seg);
        let mut inputs = Vec::new();
        while let Some(seg) = end.early.remove(&end.read) {
            end.read += 1;
            let Some(bytes) = seg else {
                end.closed = true;
                if let Some(peer) = end.peer {
                    end.ended = true;
                    inputs.push(Input::Gone { peer, conn });
                }
                break;
            };
            end.stream.push(&bytes);
            loop {
                let frame = match end.stream.next::<Frame<Note>>(MAX_FRAME) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(err) => {
                        self.violations.push(format!(
                            "connection {conn} carried an unframeable byte: {err}"
                        ));
                        end.closed = true;
                        break;
                    }
                };
                if end.frames == 0 && !matches!(frame, Frame::Hello { .. }) {
                    self.violations.push(format!(
                        "hello-first: connection {conn}'s first frame was {frame:?}"
                    ));
                }
                end.frames += 1;
                if let Some(seq) = seq_of(&frame) {
                    if let Some(last) = end.last_seq.filter(|&last| seq > last + 1) {
                        self.violations.push(format!(
                            "transmit-order: on connection {conn}, seq {seq} left right after \
                             seq {last}"
                        ));
                    }
                    end.last_seq = Some(seq);
                }
                let peer = match (end.peer, &frame) {
                    (Some(peer), _) => peer,
                    (None, Frame::Hello { from, .. }) => {
                        end.peer = Some(*from);
                        inputs.push(Input::Conn { peer: *from, conn });
                        *from
                    }
                    // The reader drops a connection that does not
                    // introduce itself first.
                    (None, _) => {
                        end.closed = true;
                        break;
                    }
                };
                inputs.push(Input::Frame { from: peer, frame });
            }
            if end.closed {
                break;
            }
        }
        for input in inputs {
            self.input(now, input);
        }
    }

    /// This end closes `conn`: the other end reads its end after
    /// everything sent before it, and the core hears it is gone.
    fn close(&mut self, ctx: &mut Ctx<'_, Pipe>, conn: u64) {
        let Some(end) = self.conns.get_mut(&conn).filter(|end| !end.closed) else {
            return;
        };
        end.closed = true;
        ctx.send(
            end.remote,
            Pipe::Seg {
                conn,
                n: end.sent,
                bytes: None,
            },
        );
        end.sent += 1;
        if let Some(peer) = end.peer {
            end.ended = true;
            self.input(ctx.now(), Input::Gone { peer, conn });
        }
    }

    /// The shell's flush: each pending batch becomes one segment, and
    /// every connection the core drops is checked against why it may.
    fn flush(&mut self, ctx: &mut Ctx<'_, Pipe>) {
        let Some(core) = self.core.as_mut() else {
            return;
        };
        let conns = &mut self.conns;
        let dropped = core.flush_links(|conn, bytes| {
            let Some(end) = conns.get_mut(&conn) else {
                return false;
            };
            if end.closed {
                end.broke = true;
                return false;
            }
            let bytes = Some(bytes.to_vec());
            ctx.send(
                end.remote,
                Pipe::Seg {
                    conn,
                    n: end.sent,
                    bytes,
                },
            );
            end.sent += 1;
            true
        });
        for conn in dropped {
            let owned = conns
                .get(&conn)
                .is_some_and(|end| end.replaced || end.ended || end.broke);
            if !owned {
                self.violations.push(format!(
                    "link-ownership: connection {conn} was dropped though it was neither \
                     replaced, ended nor broken — another connection's end took its link"
                ));
            }
        }
    }

    /// The end of a driver turn: tick the core, then flush.
    fn end_turn(&mut self, ctx: &mut Ctx<'_, Pipe>) {
        if let Some(core) = self.core.as_mut() {
            core.tick(ctx.now());
        }
        self.flush(ctx);
    }

    /// The shell's way out: flush, finish the core, close everything.
    fn stop(&mut self, ctx: &mut Ctx<'_, Pipe>) {
        self.flush(ctx);
        let Some(core) = self.core.take() else {
            return;
        };
        self.stopped = Some(core.finish());
        let open: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, end)| !end.closed)
            .map(|(&conn, _)| conn)
            .collect();
        for conn in open {
            self.close(ctx, conn);
        }
    }
}

impl Actor<Pipe> for CoreHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Pipe>) {
        if let Some(core) = self.core.as_mut() {
            core.start(ctx.now());
        }
        self.end_turn(ctx);
        ctx.set_timer(TICK, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Pipe>, from: NodeId, msg: Pipe) {
        if self.core.is_none() {
            return;
        }
        let now = ctx.now();
        match msg {
            Pipe::Seg { conn, n, bytes } => self.read(now, from, conn, n, bytes),
            Pipe::Turn(locals) => {
                for local in locals {
                    let input = match local {
                        Local::Dial { peer, conn } => {
                            self.conns.insert(conn, ConnEnd::new(peer, Some(peer)));
                            Input::Conn { peer, conn }
                        }
                        Local::Close(conn) => {
                            self.close(ctx, conn);
                            continue;
                        }
                        Local::Send(to, text) => Input::Inject {
                            from: self.me,
                            msg: (to, text),
                        },
                        Local::Bcast(text) => Input::Bcast {
                            msg: (self.me, text),
                        },
                        Local::Stop => {
                            self.stop(ctx);
                            return;
                        }
                    };
                    self.input(now, input);
                }
            }
        }
        self.end_turn(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Pipe>, _timer: TimerId, _tag: u64) {
        if self.core.is_some() {
            self.end_turn(ctx);
            ctx.set_timer(TICK, 0);
        }
    }
}

/// The per-link seq of a sequenced frame (`None` for hello/heartbeat).
fn seq_of(frame: &Frame<Note>) -> Option<u64> {
    match frame {
        Frame::Data { seq, .. } | Frame::Bcast { seq, .. } | Frame::Fwd { seq, .. } => Some(*seq),
        Frame::Hello { .. } | Frame::Heartbeat => None,
    }
}

/// A session for `me` with every other member of `members`.
pub fn session(me: NodeId, members: &[NodeId], cfg: SessionConfig) -> SessionLayer<Note> {
    let mut session = SessionLayer::new(me, cfg);
    for &peer in members.iter().filter(|&&peer| peer != me) {
        session.add_peer(peer, SimTime::ZERO);
    }
    session
}

/// Canonical [`crate::explore::StateFingerprint`] for any scenario of
/// [`CoreHost`]s: each host's deliveries, counters, connections and
/// recorded breaches.
pub fn fingerprint(sim: &Sim<Pipe>) -> u64 {
    let parts: Vec<String> = sim
        .node_ids()
        .into_iter()
        .filter_map(|node| sim.get::<CoreHost>(ActorHandle::of(node)))
        .map(CoreHost::digest)
        .collect();
    crate::explore::hash_of(&parts)
}

/// The session members; node 2 is the crasher.
pub fn session_members() -> Vec<NodeId> {
    vec![NodeId(0), NodeId(1), NodeId(2)]
}

/// The crashing broadcaster.
const CRASHER: NodeId = NodeId(2);

/// Builds the crash/replay scenario. With `forward_dedup: false` every
/// host's forward dedup is disarmed — the seeded known-bad fixture the
/// detector must catch.
///
/// The mesh comes up one connection at a time (each node dials every
/// larger id), so the explorer spends its depth on the scenario's
/// races rather than on the handshakes.
pub fn transport_sim(seed: u64, forward_dedup: bool) -> Sim<Pipe> {
    let members = session_members();
    let net = Network::new(LinkSpec::lan());
    let mut sim = SimBuilder::new(seed).network(net).build();
    for &member in &members {
        let mut session = session(member, &members, SessionConfig::default());
        session.set_forward_dedup(forward_dedup);
        sim.add_actor(member, CoreHost::new(session, true));
    }
    let ms = SimTime::from_millis;
    let turn = |sim: &mut Sim<Pipe>, at, node: NodeId, local| {
        sim.inject(ms(at), node, node, Pipe::Turn(vec![local]));
    };
    let dial = |sim: &mut Sim<Pipe>, at, from: u32, peer: u32, conn| {
        let peer = NodeId(peer);
        turn(sim, at, NodeId(from), Local::Dial { peer, conn });
    };
    dial(&mut sim, 1, 0, 1, 1);
    dial(&mut sim, 11, 0, 2, 2);
    dial(&mut sim, 21, 1, 2, 3);
    // The crasher broadcasts; every peer retains the payload.
    turn(&mut sim, 40, CRASHER, Local::Bcast("crash-note".to_owned()));
    // A survivor broadcast too, so the crasher's links carry state that
    // the reconnect must reconcile.
    turn(&mut sim, 60, NodeId(0), Local::Bcast("note-a".to_owned()));
    // The crash: both ends of the crasher's connections break at once.
    // Survivors stop hearing heartbeats, declare it down (~100 ms
    // later) and forward its retained broadcast to each other.
    for (node, conn) in [(0, 2), (2, 2), (1, 3), (2, 3)] {
        turn(&mut sim, 90, NodeId(node), Local::Close(conn));
    }
    // A unicast into the void; unrouted, it waits in node 0's
    // retransmit buffer.
    turn(
        &mut sim,
        180,
        NodeId(0),
        Local::Send(CRASHER, "m1".to_owned()),
    );
    // Recovery: each survivor dials the crasher on a fresh connection,
    // and the hellos replay what each side missed.
    dial(&mut sim, 620, 0, 2, 4);
    dial(&mut sim, 621, 1, 2, 5);
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

impl Invariant<Pipe> for TransportFidelity {
    fn name(&self) -> &'static str {
        "transport-fidelity"
    }

    fn check_quiescent(&mut self, sim: &Sim<Pipe>) -> Result<(), String> {
        let mut forwarded = 0u64;
        let mut deduped = 0u64;
        for &member in &self.members {
            let host: &CoreHost = sim
                .get(ActorHandle::of(member))
                .ok_or_else(|| format!("core host {member} missing"))?;
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
            let mut got = host.delivered().to_vec();
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
