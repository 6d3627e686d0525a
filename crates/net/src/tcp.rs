//! The production backend: a threaded TCP driver for
//! [`TransportActor`]s.
//!
//! One [`TcpNode`] hosts one actor on real `std::net` sockets:
//!
//! * a listener accepts connections from lower-numbered peers, a
//!   dialer thread per higher-numbered peer connects (and reconnects)
//!   outward, so each pair shares exactly one TCP connection;
//! * per-connection reader threads decode length-prefixed
//!   [`Frame`]s (see [`crate::wire`]) and feed them to the single
//!   driver thread over a channel — the actor itself is never touched
//!   concurrently;
//! * the driver runs the sans-IO [`SessionLayer`] for sequencing,
//!   reconnect replay, heartbeat failure detection and crash
//!   forwarding, fires actor timers from its own wheel, and applies
//!   actor effects (sends become sequenced unicasts).
//!
//! The driver works in turns: it blocks for one input, handles what
//! else is already queued (up to a fixed number), fires due timers,
//! runs the session tick, and only then writes. Every frame a turn
//! produces for a peer is encoded into that peer's `Link` buffer, and
//! the flush hands each link's bytes to its socket in one write — so a
//! burst of sends and acks costs one syscall per connection, not one
//! per frame. Nothing waits for a timer: the flush runs before the
//! driver blocks again, before a reconnect replaces a link, and on the
//! way out. Each connection carries an id, so the end of a replaced
//! connection cannot tear down its successor.
//!
//! Unlike the sim backend this one is **not deterministic**: the OS
//! scheduler and the network order deliveries, and `NetCtx::now` is
//! elapsed wall time since node start. What *is* preserved are the
//! protocol invariants — the acceptance tests assert vector-clock
//! causality, total-order agreement and convergence over loopback, and
//! the session stats prove no sequence gaps and exactly-once
//! forwarding.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use odp_sim::actor::TimerId;
use odp_sim::metrics::MetricsRegistry;
use odp_sim::net::NodeId;
use odp_sim::rng::DetRng;
use odp_sim::time::{SimDuration, SimTime};
use odp_sim::trace::Trace;

use crate::actor::TransportActor;
use crate::ctx::NetCtx;
use crate::error::NetError;
use crate::session::{Frame, PeerEvent, SessionConfig, SessionLayer, SessionStats, SessionStep};
use crate::wire::{encode_frame_into, FrameStream, WireCodec, MAX_FRAME};

/// Inputs one driver turn handles, the blocking one included, before it
/// fires timers, ticks the session and flushes: a burst is coalesced
/// into one write per link, and timers and heartbeats still run at
/// least once per this many inputs.
const DRAIN_MAX: usize = 256;

/// Capacity a link buffer keeps across flushes: a usual turn's frames
/// reuse it, and the buffer a larger burst grew is given back.
const LINK_KEEP: usize = 64 * 1024;

/// Tuning for one TCP node.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Seed for the node's deterministic RNG (`DetRng::seed_from(seed)`
    /// xor-folded with the node id, so a fleet can share one seed).
    pub seed: u64,
    /// Session-layer knobs (heartbeats, failure deadline, buffers).
    pub session: SessionConfig,
    /// Frame-body size cap for both encode and decode.
    pub max_frame: usize,
    /// Delay between reconnect attempts by dialer threads.
    pub connect_retry: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            seed: 0,
            session: SessionConfig::default(),
            max_frame: MAX_FRAME,
            connect_retry: SimDuration::from_millis(10),
        }
    }
}

/// What a finished node hands back for inspection.
#[derive(Debug)]
pub struct TcpReport {
    /// The node's metrics registry (counters such as
    /// `net.tcp.rx_frames`, plus everything the actor recorded). The
    /// per-frame `net.tcp.*` counters are kept outside it while the
    /// node runs and folded in when it stops.
    pub metrics: MetricsRegistry,
    /// The node's trace (actor `trace()` calls, span events, ...).
    pub trace: Trace,
    /// Session-layer counters: gaps, duplicates, forwards.
    pub stats: SessionStats,
    /// Actor timers still armed when the node stopped. A cancelled
    /// timer leaves the driver's wheel at its cancellation, so it is
    /// not among them.
    pub timers_armed: usize,
}

/// Wall-clock readings mapped onto the `SimTime` scale (µs since node
/// start), so actors and the session layer see one time type on both
/// backends. The lint's wallclock rule is bypassed exactly here: this
/// *is* the backend that trades determinism for real sockets.
struct WallClock {
    // odp-check: allow(wallclock)
    start: std::time::Instant,
}

impl WallClock {
    fn new() -> Self {
        WallClock {
            // odp-check: allow(wallclock)
            start: std::time::Instant::now(),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }
}

/// Control and data inputs multiplexed into the driver thread.
enum Input<M> {
    /// Connection `conn` to `peer` is byte-ready; `stream` is the write
    /// half (the sending thread keeps the read half).
    Conn {
        peer: NodeId,
        conn: u64,
        stream: TcpStream,
    },
    /// A decoded frame from `peer`.
    Frame { from: NodeId, frame: Frame<M> },
    /// Connection `conn` to `peer` dropped.
    Gone { peer: NodeId, conn: u64 },
    /// Local injection: deliver `msg` to the actor as if sent by
    /// `from` (the TCP analogue of `Sim::inject`).
    Inject { from: NodeId, msg: M },
    /// Session-level broadcast to all peers (retained for crash
    /// forwarding; delivered to remote actors, not the local one).
    Bcast { msg: M },
    /// Stop the driver and return the actor.
    Stop,
}

/// A bound-but-not-yet-running TCP node.
pub struct TcpNode {
    me: NodeId,
    listener: TcpListener,
    cfg: TcpConfig,
    peers: BTreeMap<NodeId, SocketAddr>,
}

impl TcpNode {
    /// Binds a node on a loopback port chosen by the OS.
    pub fn bind(me: NodeId, cfg: TcpConfig) -> Result<Self, NetError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        Ok(TcpNode {
            me,
            listener,
            cfg,
            peers: BTreeMap::new(),
        })
    }

    /// Where this node listens (exchange these before `spawn`).
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Declares the full peer set (`me` is ignored if present).
    pub fn set_peers(&mut self, peers: BTreeMap<NodeId, SocketAddr>) {
        self.peers = peers;
        self.peers.remove(&self.me);
    }

    /// Starts the driver thread hosting `actor`; returns the control
    /// handle. Connection policy: this node dials every peer with a
    /// *larger* id and accepts from every peer with a smaller one, so
    /// each pair shares one connection.
    pub fn spawn<M, A>(self, actor: A) -> TcpHandle<A, M>
    where
        M: WireCodec + Clone + Send + 'static,
        A: TransportActor<M> + Send + 'static,
    {
        let (tx, rx) = mpsc::channel::<Input<M>>();
        let stop = Arc::new(AtomicBool::new(false));
        let driver_tx = tx.clone();
        let driver_stop = Arc::clone(&stop);
        let join =
            std::thread::spawn(move || Driver::new(self, actor, driver_tx, driver_stop).run(rx));
        TcpHandle { tx, stop, join }
    }
}

/// Control handle for a running node.
pub struct TcpHandle<A, M> {
    tx: Sender<Input<M>>,
    stop: Arc<AtomicBool>,
    join: JoinHandle<(A, TcpReport)>,
}

impl<A, M> TcpHandle<A, M> {
    /// Delivers `msg` to the hosted actor as if sent by `from` — the
    /// TCP analogue of `Sim::inject` for driving workloads.
    pub fn inject(&self, from: NodeId, msg: M) {
        let _ = self.tx.send(Input::Inject { from, msg });
    }

    /// Session-level broadcast: sends `msg` to every peer with a
    /// per-origin broadcast seq, retained so survivors forward it if
    /// this node is declared dead before everyone saw it.
    pub fn broadcast(&self, msg: M) {
        let _ = self.tx.send(Input::Bcast { msg });
    }

    /// Stops the node and returns the actor plus its report. Whatever
    /// was injected or broadcast before is handled first, and what it
    /// sent is written before the node returns. Peers see
    /// the connection drop and, after their failure deadline, a peer-
    /// down event — exactly what a crash looks like, which is what the
    /// crash/rejoin suites use it for.
    pub fn stop(self) -> Result<(A, TcpReport), NetError> {
        self.stop.store(true, AtomicOrdering::SeqCst);
        let _ = self.tx.send(Input::Stop);
        self.join.join().map_err(|_| NetError::DriverGone)
    }
}

/// Pending actor effects buffered by [`TcpCtx`] during one callback.
struct EffectBuf<M> {
    sends: Vec<(NodeId, M)>,
    set_timers: Vec<(u64, SimDuration, u64)>,
    cancels: Vec<u64>,
}

impl<M> Default for EffectBuf<M> {
    fn default() -> Self {
        EffectBuf {
            sends: Vec::new(),
            set_timers: Vec::new(),
            cancels: Vec::new(),
        }
    }
}

/// The driver's end of one connection.
struct Link {
    /// Which connection this is; a `Gone` naming another one (the
    /// connection this link replaced) leaves it alone.
    conn: u64,
    stream: TcpStream,
    /// Frames encoded since the last flush, back to back.
    pending: Vec<u8>,
    /// How many frames `pending` holds.
    frames: u64,
}

/// The driver's per-frame counters, kept as plain fields and folded
/// into the metrics registry under their `net.tcp.*` names when the
/// node stops.
#[derive(Debug, Default)]
struct HotCounters {
    rx_frames: u64,
    delivered: u64,
    tx_frames: u64,
    tx_bytes: u64,
}

impl HotCounters {
    /// Adds every counter that moved to `metrics`; one that did not
    /// gains no zero-valued entry.
    fn fold_into(&self, metrics: &mut MetricsRegistry) {
        for (name, n) in [
            ("net.tcp.rx_frames", self.rx_frames),
            ("net.tcp.delivered", self.delivered),
            ("net.tcp.tx_frames", self.tx_frames),
            ("net.tcp.tx_bytes", self.tx_bytes),
        ] {
            if n > 0 {
                metrics.add(name, n);
            }
        }
    }
}

/// The `NetCtx` the TCP driver hands to actor callbacks.
struct TcpCtx<'a, M> {
    now: SimTime,
    me: NodeId,
    rng: &'a mut DetRng,
    metrics: &'a mut MetricsRegistry,
    trace: &'a mut Trace,
    next_timer_id: &'a mut u64,
    effects: &'a mut EffectBuf<M>,
}

impl<M> NetCtx<M> for TcpCtx<'_, M> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn id(&self) -> NodeId {
        self.me
    }

    fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    fn send(&mut self, to: NodeId, msg: M) {
        self.effects.sends.push((to, msg));
    }

    fn send_sized(&mut self, to: NodeId, msg: M, _bytes: usize) {
        // Real frames have real sizes; the hint only drives the sim
        // bandwidth model.
        self.effects.sends.push((to, msg));
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = *self.next_timer_id;
        *self.next_timer_id += 1;
        self.effects.set_timers.push((id, delay, tag));
        TimerId::from_raw(id)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.effects.cancels.push(id.raw());
    }

    fn metrics(&mut self) -> &mut MetricsRegistry {
        self.metrics
    }

    fn trace(&mut self, label: &str, data: String) {
        self.trace.record(self.now, self.me, label, data);
    }

    fn span_open(&mut self, span: odp_fabric::SpanCarrier, kind: &str) {
        self.trace.span_open(self.now, self.me, span, kind);
    }

    fn span_close(&mut self, span: odp_fabric::SpanCarrier) {
        self.trace.span_close(self.now, self.me, span);
    }
}

/// The single-threaded core of a TCP node.
struct Driver<M, A> {
    me: NodeId,
    cfg: TcpConfig,
    actor: A,
    session: SessionLayer<M>,
    clock: WallClock,
    rng: DetRng,
    metrics: MetricsRegistry,
    hot: HotCounters,
    trace: Trace,
    links: BTreeMap<NodeId, Link>,
    /// Reused by every callback: `dispatch` takes it and puts it back.
    effects: EffectBuf<M>,
    /// `(due, timer id) -> tag`, driving `on_timer`.
    timers: BTreeMap<(SimTime, u64), u64>,
    /// `timer id -> due` for every entry of `timers`, so a cancel can
    /// find and remove its entry; a fired or cancelled id is in
    /// neither map.
    due_of: BTreeMap<u64, SimTime>,
    next_timer_id: u64,
    tx: Sender<Input<M>>,
    stop: Arc<AtomicBool>,
}

impl<M, A> Driver<M, A>
where
    M: WireCodec + Clone + Send + 'static,
    A: TransportActor<M> + Send + 'static,
{
    fn new(node: TcpNode, actor: A, tx: Sender<Input<M>>, stop: Arc<AtomicBool>) -> Self {
        let mut session = SessionLayer::new(node.me, node.cfg.session.clone());
        for &peer in node.peers.keys() {
            session.add_peer(peer, SimTime::ZERO);
        }
        let seed = node.cfg.seed ^ u64::from(node.me.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let driver = Driver {
            me: node.me,
            cfg: node.cfg.clone(),
            actor,
            session,
            clock: WallClock::new(),
            rng: DetRng::seed_from(seed),
            metrics: MetricsRegistry::new(),
            hot: HotCounters::default(),
            trace: Trace::new(),
            links: BTreeMap::new(),
            effects: EffectBuf::default(),
            timers: BTreeMap::new(),
            due_of: BTreeMap::new(),
            next_timer_id: 0,
            tx,
            stop: Arc::clone(&stop),
        };
        driver.spawn_io(node.listener, node.peers);
        driver
    }

    /// Starts the acceptor and one dialer per higher-numbered peer.
    fn spawn_io(&self, listener: TcpListener, peers: BTreeMap<NodeId, SocketAddr>) {
        let max_frame = self.cfg.max_frame;
        // Every connection, accepted or dialed, gets the next id.
        let next_conn = Arc::new(AtomicU64::new(0));
        // Acceptor: non-blocking poll so the thread can observe stop.
        let tx = self.tx.clone();
        let stop = Arc::clone(&self.stop);
        let conns = Arc::clone(&next_conn);
        std::thread::spawn(move || {
            while !stop.load(AtomicOrdering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let tx = tx.clone();
                        let stop = Arc::clone(&stop);
                        let conn = conns.fetch_add(1, AtomicOrdering::Relaxed);
                        std::thread::spawn(move || {
                            read_loop::<M>(stream, conn, None, tx, stop, max_frame);
                        });
                    }
                    Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        // Dialers: this node connects to every larger-id peer.
        let retry = Duration::from_micros(self.cfg.connect_retry.as_micros());
        for (&peer, &addr) in peers.iter().filter(|(&p, _)| p > self.me) {
            let tx = self.tx.clone();
            let stop = Arc::clone(&self.stop);
            let conns = Arc::clone(&next_conn);
            std::thread::spawn(move || {
                while !stop.load(AtomicOrdering::SeqCst) {
                    if let Ok(stream) = TcpStream::connect(addr) {
                        // One connected stint: read until the link
                        // drops, then fall through to redial.
                        read_loop::<M>(
                            stream,
                            conns.fetch_add(1, AtomicOrdering::Relaxed),
                            Some(peer),
                            tx.clone(),
                            Arc::clone(&stop),
                            max_frame,
                        );
                    }
                    std::thread::sleep(retry);
                }
            });
        }
    }

    /// Runs one actor callback under the reusable effect buffer, then
    /// applies the effects. A callback nested inside this one's sends
    /// finds the buffer taken and starts an empty one of its own.
    fn dispatch(&mut self, call: impl FnOnce(&mut A, &mut dyn NetCtx<M>)) {
        let mut effects = std::mem::take(&mut self.effects);
        let now = self.clock.now();
        {
            let mut ctx = TcpCtx {
                now,
                me: self.me,
                rng: &mut self.rng,
                metrics: &mut self.metrics,
                trace: &mut self.trace,
                next_timer_id: &mut self.next_timer_id,
                effects: &mut effects,
            };
            call(&mut self.actor, &mut ctx);
        }
        for (id, delay, tag) in effects.set_timers.drain(..) {
            self.timers.insert((now + delay, id), tag);
            self.due_of.insert(id, now + delay);
        }
        for id in effects.cancels.drain(..) {
            // Fired, cancelled before, or never armed: nothing to do.
            if let Some(due) = self.due_of.remove(&id) {
                self.timers.remove(&(due, id));
            }
        }
        for (to, msg) in effects.sends.drain(..) {
            let now = self.clock.now();
            let step = self.session.unicast(to, msg, now);
            self.process_step(step);
        }
        self.effects = effects;
    }

    /// Transmits frames, surfaces deliveries and peer events.
    fn process_step(&mut self, step: SessionStep<M>) {
        for (to, frame) in step.outbound {
            self.transmit(to, &frame);
        }
        for event in step.events {
            match event {
                PeerEvent::Up(peer) => {
                    self.metrics.incr("net.tcp.peer_up");
                    self.dispatch(|actor, ctx| actor.on_peer_up(ctx, peer));
                }
                PeerEvent::Down(peer) => {
                    self.metrics.incr("net.tcp.peer_down");
                    self.dispatch(|actor, ctx| actor.on_peer_down(ctx, peer));
                }
            }
        }
        for (origin, msg) in step.delivered {
            self.hot.delivered += 1;
            self.dispatch(|actor, ctx| actor.on_message(ctx, origin, msg));
        }
    }

    /// Encodes `frame` onto the end of `to`'s link buffer; the next
    /// flush writes it.
    fn transmit(&mut self, to: NodeId, frame: &Frame<M>) {
        let Some(link) = self.links.get_mut(&to) else {
            // No live connection: sequenced frames sit in the session's
            // retransmit buffer until the peer's hello pulls them.
            self.metrics.incr("net.tcp.tx_unrouted");
            return;
        };
        match encode_frame_into(frame, self.cfg.max_frame, &mut link.pending) {
            Ok(_) => link.frames += 1,
            Err(_) => {
                // An oversized application payload is the sender's bug;
                // count it, never panic, never poison the stream (the
                // refused frame left the buffer as it was).
                self.metrics.incr("net.tcp.tx_oversized");
            }
        }
    }

    /// Writes every link's pending frames to its stream, one write per
    /// link. A link whose write fails is dropped: its sequenced frames
    /// wait in the session's retransmit buffer for the next hello.
    fn flush_links(&mut self) {
        let hot = &mut self.hot;
        let metrics = &mut self.metrics;
        self.links.retain(|_, link| {
            if link.pending.is_empty() {
                return true;
            }
            let written = link.stream.write_all(&link.pending).is_ok();
            if written {
                hot.tx_frames += link.frames;
                hot.tx_bytes += link.pending.len() as u64;
            } else {
                metrics.incr("net.tcp.tx_broken");
            }
            link.pending.clear();
            link.pending.shrink_to(LINK_KEEP);
            link.frames = 0;
            written
        });
    }

    fn fire_due_timers(&mut self) {
        loop {
            let now = self.clock.now();
            let Some((&(due, id), &tag)) = self.timers.iter().next() else {
                return;
            };
            if due > now {
                return;
            }
            self.timers.remove(&(due, id));
            self.due_of.remove(&id);
            self.dispatch(|actor, ctx| actor.on_timer(ctx, TimerId::from_raw(id), tag));
        }
    }

    /// How long the driver may sleep before something is due.
    fn idle_budget(&self) -> Duration {
        let now = self.clock.now();
        let mut budget = Duration::from_micros(self.cfg.session.heartbeat_every.as_micros() / 2);
        if let Some((&(due, _), _)) = self.timers.iter().next() {
            let until = Duration::from_micros(due.saturating_since(now).as_micros());
            budget = budget.min(until);
        }
        budget.max(Duration::from_millis(1))
    }

    /// Handles one input; `false` for `Stop`.
    fn handle(&mut self, input: Input<M>) -> bool {
        match input {
            Input::Stop => return false,
            Input::Conn { peer, conn, stream } => {
                self.metrics.incr("net.tcp.conn");
                // A replaced link's frames leave on its own stream, and
                // the hello is the first frame on the new one.
                self.flush_links();
                self.links.insert(
                    peer,
                    Link {
                        conn,
                        stream,
                        pending: Vec::new(),
                        frames: 0,
                    },
                );
                let now = self.clock.now();
                let hello = self.session.hello_for(peer, now);
                self.transmit(peer, &hello);
            }
            Input::Frame { from, frame } => {
                self.hot.rx_frames += 1;
                let now = self.clock.now();
                let step = self.session.on_frame(from, frame, now);
                self.process_step(step);
            }
            Input::Gone { peer, conn } => {
                // Only if it is the peer's current connection: one that
                // a reconnect already replaced takes nothing with it.
                if self.links.get(&peer).is_some_and(|link| link.conn == conn) {
                    self.links.remove(&peer);
                }
                self.metrics.incr("net.tcp.conn_lost");
            }
            Input::Inject { from, msg } => {
                self.dispatch(|actor, ctx| actor.on_message(ctx, from, msg));
            }
            Input::Bcast { msg } => {
                let now = self.clock.now();
                let step = self.session.broadcast(msg, now);
                self.process_step(step);
            }
        }
        true
    }

    /// The driver loop, one turn at a time: flush, block for an input,
    /// handle what else is queued (`DRAIN_MAX` in all), fire due
    /// timers, tick the session. Inputs are handled in the order they
    /// were sent, so everything queued before `Stop` is handled, and
    /// what it sends is flushed on the way out.
    fn run(mut self, rx: Receiver<Input<M>>) -> (A, TcpReport) {
        self.dispatch(|actor, ctx| actor.on_start(ctx));
        'turns: loop {
            self.flush_links();
            let mut next = match rx.recv_timeout(self.idle_budget()) {
                Ok(input) => Some(input),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            let mut handled = 0;
            while let Some(input) = next {
                if !self.handle(input) {
                    break 'turns;
                }
                handled += 1;
                next = if handled < DRAIN_MAX {
                    rx.try_recv().ok()
                } else {
                    None
                };
            }
            self.fire_due_timers();
            let now = self.clock.now();
            let step = self.session.on_tick(now);
            self.process_step(step);
        }
        self.flush_links();
        self.stop.store(true, AtomicOrdering::SeqCst);
        self.hot.fold_into(&mut self.metrics);
        let report = TcpReport {
            metrics: self.metrics,
            trace: self.trace,
            stats: self.session.stats(),
            timers_armed: self.timers.len(),
        };
        (self.actor, report)
    }
}

/// Reads length-prefixed frames from one connection until it drops.
///
/// For accepted connections (`peer == None`) the first frame must be a
/// `Hello` identifying the sender; for dialed connections the peer is
/// known up front and the write half is registered immediately.
fn read_loop<M: WireCodec + Send + 'static>(
    stream: TcpStream,
    conn: u64,
    mut peer: Option<NodeId>,
    tx: Sender<Input<M>>,
    stop: Arc<AtomicBool>,
    max_frame: usize,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    // Dialed connections know the peer up front and register the write
    // half immediately; accepted connections hold it back until the
    // hello names the sender.
    let mut pending: Option<TcpStream> = Some(stream);
    if let Some(p) = peer {
        let Some(write_half) = pending.take() else {
            return;
        };
        if tx
            .send(Input::Conn {
                peer: p,
                conn,
                stream: write_half,
            })
            .is_err()
        {
            return;
        }
    }
    let mut frames = FrameStream::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if stop.load(AtomicOrdering::SeqCst) {
            return;
        }
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                frames.push(&chunk[..n]);
                loop {
                    match frames.next::<Frame<M>>(max_frame) {
                        Ok(Some(frame)) => {
                            if peer.is_none() {
                                let Frame::Hello { from, .. } = &frame else {
                                    // An unidentified connection must
                                    // introduce itself first.
                                    return;
                                };
                                peer = Some(*from);
                                if let Some(write_half) = pending.take() {
                                    if tx
                                        .send(Input::Conn {
                                            peer: *from,
                                            conn,
                                            stream: write_half,
                                        })
                                        .is_err()
                                    {
                                        return;
                                    }
                                }
                            }
                            let Some(from) = peer else { return };
                            if tx.send(Input::Frame { from, frame }).is_err() {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Oversized or malformed: the stream is
                            // unframeable from here — drop it.
                            if let Some(p) = peer {
                                let _ = tx.send(Input::Gone { peer: p, conn });
                            }
                            return;
                        }
                    }
                }
            }
            Err(err)
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    if let Some(p) = peer {
        let _ = tx.send(Input::Gone { peer: p, conn });
    }
}
