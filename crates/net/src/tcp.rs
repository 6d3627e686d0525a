//! The production backend: a threaded TCP driver for
//! [`TransportActor`]s.
//!
//! One [`TcpNode`] hosts one actor on real `std::net` sockets. This
//! file is the I/O shell around the sans-IO [`DriverCore`], which holds
//! the actor, the [`SessionLayer`](crate::session::SessionLayer), the
//! timers and each peer's link buffer:
//!
//! * a listener accepts connections from lower-numbered peers, a
//!   dialer thread per higher-numbered peer connects (and reconnects)
//!   outward, so each pair shares exactly one TCP connection;
//! * per-connection reader threads decode length-prefixed
//!   [`Frame`]s (see [`crate::wire`]) and feed them to the single
//!   driver thread over a channel — the core is never touched
//!   concurrently;
//! * the driver thread reads the wall clock, hands each input to the
//!   core with the time, and keeps the write half of every connection
//!   the core routes to.
//!
//! The driver works in turns: it blocks for one input, handles what
//! else is already queued (up to a fixed number), ticks the core, and
//! only then flushes: each connection's pending bytes go to its socket
//! in one write, so a burst of sends and acks costs one syscall per
//! connection, not one per frame. A failed write is that connection's
//! end (`net.tcp.tx_broken`). The flush runs before the driver blocks
//! again and on the way out, so nothing waits for a timer.
//!
//! Unlike the sim backend this one is **not deterministic**: the OS
//! scheduler and the network order deliveries, and `NetCtx::now` is
//! elapsed wall time since node start. What *is* preserved are the
//! protocol invariants — the acceptance tests assert vector-clock
//! causality, total-order agreement and convergence over loopback, and
//! the session stats prove no sequence gaps and exactly-once
//! forwarding. The core itself is explored on the simulator by
//! `odp-check`'s `tcp-driver` and `transport-fidelity` suites.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use odp_sim::metrics::MetricsRegistry;
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};
use odp_sim::trace::Trace;

use crate::actor::TransportActor;
use crate::driver::{DriverCore, Input};
use crate::error::NetError;
use crate::session::{Frame, SessionConfig, SessionLayer, SessionStats};
use crate::wire::{FrameStream, WireCodec, MAX_FRAME};

/// Inputs one driver turn handles, the blocking one included, before it
/// fires timers, ticks the session and flushes: a burst is coalesced
/// into one write per link, and timers and heartbeats still run at
/// least once per this many inputs.
const DRAIN_MAX: usize = 256;

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

/// What the driver thread is told, over one channel.
enum Msg<M> {
    /// Connection `conn` to `peer` is byte-ready; `stream` is the write
    /// half (the sending thread keeps the read half).
    Conn {
        peer: NodeId,
        conn: u64,
        stream: TcpStream,
    },
    /// Any other input, handed to the core as it is.
    Core(Input<M>),
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
        let (tx, rx) = mpsc::channel::<Msg<M>>();
        let stop = Arc::new(AtomicBool::new(false));
        let driver_tx = tx.clone();
        let driver_stop = Arc::clone(&stop);
        let join = std::thread::spawn(move || drive(self, actor, driver_tx, driver_stop, rx));
        TcpHandle { tx, stop, join }
    }
}

/// Control handle for a running node.
pub struct TcpHandle<A, M> {
    tx: Sender<Msg<M>>,
    stop: Arc<AtomicBool>,
    join: JoinHandle<(A, TcpReport)>,
}

impl<A, M> TcpHandle<A, M> {
    /// Delivers `msg` to the hosted actor as if sent by `from` — the
    /// TCP analogue of `Sim::inject` for driving workloads.
    pub fn inject(&self, from: NodeId, msg: M) {
        let _ = self.tx.send(Msg::Core(Input::Inject { from, msg }));
    }

    /// Session-level broadcast: sends `msg` to every peer with a
    /// per-origin broadcast seq, retained so survivors forward it if
    /// this node is declared dead before everyone saw it.
    pub fn broadcast(&self, msg: M) {
        let _ = self.tx.send(Msg::Core(Input::Bcast { msg }));
    }

    /// Stops the node and returns the actor plus its report. Whatever
    /// was injected or broadcast before is handled first, and what it
    /// sent is written before the node returns. Peers see
    /// the connection drop and, after their failure deadline, a peer-
    /// down event — exactly what a crash looks like, which is what the
    /// crash/rejoin suites use it for.
    pub fn stop(self) -> Result<(A, TcpReport), NetError> {
        self.stop.store(true, AtomicOrdering::SeqCst);
        let _ = self.tx.send(Msg::Stop);
        self.join.join().map_err(|_| NetError::DriverGone)
    }
}

/// The driver thread: the core, plus everything that is I/O — the
/// clock, the write half of every connection the core routes to, and
/// the stop flag the I/O threads watch — run one turn at a time: flush,
/// block for an input, handle what else is queued (`DRAIN_MAX` in all),
/// tick the core. Inputs are handled in the order they were sent, so
/// everything queued before `Stop` is handled, and what it sends is
/// flushed on the way out.
fn drive<M, A>(
    node: TcpNode,
    actor: A,
    tx: Sender<Msg<M>>,
    stop: Arc<AtomicBool>,
    rx: Receiver<Msg<M>>,
) -> (A, TcpReport)
where
    M: WireCodec + Clone + Send + 'static,
    A: TransportActor<M> + Send + 'static,
{
    // Wall-clock readings become `SimTime`s (µs since node start), so
    // actors see one time type on both backends. The lint's wallclock
    // rule is bypassed exactly here, in the backend that trades
    // determinism for real sockets.
    // odp-check: allow(wallclock)
    let start = std::time::Instant::now();
    let now = || SimTime::from_micros(start.elapsed().as_micros() as u64);
    let mut session = SessionLayer::new(node.me, node.cfg.session.clone());
    for &peer in node.peers.keys() {
        session.add_peer(peer, SimTime::ZERO);
    }
    let mut core = DriverCore::new(session, node.cfg.seed, node.cfg.max_frame, actor);
    let idle_cap = Duration::from_micros(node.cfg.session.heartbeat_every.as_micros() / 2);
    spawn_io(node, tx, Arc::clone(&stop));
    let mut streams: BTreeMap<u64, TcpStream> = BTreeMap::new();
    // One write per connection; the write halves the core let go close.
    let flush = |core: &mut DriverCore<M, A>, streams: &mut BTreeMap<u64, TcpStream>| {
        let dropped = core.flush_links(|conn, bytes| {
            streams
                .get_mut(&conn)
                .is_some_and(|stream| stream.write_all(bytes).is_ok())
        });
        for conn in dropped {
            streams.remove(&conn);
        }
    };
    core.start(now());
    'turns: loop {
        flush(&mut core, &mut streams);
        let until_due = core
            .next_due()
            .map(|due| due.saturating_since(now()).as_micros());
        let idle = idle_cap.min(Duration::from_micros(until_due.unwrap_or(u64::MAX)));
        let mut next = match rx.recv_timeout(idle.max(Duration::from_millis(1))) {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut handled = 0;
        while let Some(msg) = next {
            let input = match msg {
                Msg::Stop => break 'turns,
                Msg::Conn { peer, conn, stream } => {
                    streams.insert(conn, stream);
                    Input::Conn { peer, conn }
                }
                Msg::Core(input) => input,
            };
            core.handle(now(), input);
            handled += 1;
            next = if handled < DRAIN_MAX {
                rx.try_recv().ok()
            } else {
                None
            };
        }
        core.tick(now());
    }
    flush(&mut core, &mut streams);
    stop.store(true, AtomicOrdering::SeqCst);
    core.finish()
}

/// Starts the acceptor and one dialer per higher-numbered peer.
fn spawn_io<M: WireCodec + Send + 'static>(
    node: TcpNode,
    tx: Sender<Msg<M>>,
    stop: Arc<AtomicBool>,
) {
    let max_frame = node.cfg.max_frame;
    // Every connection, accepted or dialed, gets the next id.
    let next_conn = Arc::new(AtomicU64::new(0));
    // Acceptor: non-blocking poll so the thread can observe stop.
    let listener = node.listener;
    let accept_tx = tx.clone();
    let accept_stop = Arc::clone(&stop);
    let conns = Arc::clone(&next_conn);
    std::thread::spawn(move || {
        while !accept_stop.load(AtomicOrdering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let tx = accept_tx.clone();
                    let stop = Arc::clone(&accept_stop);
                    let conn = conns.fetch_add(1, AtomicOrdering::Relaxed);
                    std::thread::spawn(move || {
                        read_loop::<M>(stream, conn, None, tx, stop, max_frame);
                    });
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
        }
    });
    // Dialers: this node connects to every larger-id peer.
    let retry = Duration::from_micros(node.cfg.connect_retry.as_micros());
    for (&peer, &addr) in node.peers.iter().filter(|(&p, _)| p > node.me) {
        let tx = tx.clone();
        let stop = Arc::clone(&stop);
        let conns = Arc::clone(&next_conn);
        std::thread::spawn(move || {
            while !stop.load(AtomicOrdering::SeqCst) {
                if let Ok(stream) = TcpStream::connect(addr) {
                    // One connected stint: read until the link drops,
                    // then fall through to redial.
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

/// Reads length-prefixed frames from one connection until it drops.
///
/// The write half goes to the driver once the peer is known: up front
/// for a dialed connection (`peer` given), at the `Hello` that must
/// open an accepted one.
fn read_loop<M: WireCodec + Send + 'static>(
    stream: TcpStream,
    conn: u64,
    mut peer: Option<NodeId>,
    tx: Sender<Msg<M>>,
    stop: Arc<AtomicBool>,
    max_frame: usize,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let conn_to = |peer, stream| tx.send(Msg::Conn { peer, conn, stream }).is_ok();
    let mut write_half = Some(stream);
    if let Some(peer) = peer {
        if !write_half
            .take()
            .is_some_and(|stream| conn_to(peer, stream))
        {
            return;
        }
    }
    let mut frames = FrameStream::new();
    let mut chunk = [0u8; 16 * 1024];
    'read: while !stop.load(AtomicOrdering::SeqCst) {
        let n = match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                continue
            }
            Err(_) => break,
        };
        frames.push(&chunk[..n]);
        loop {
            let frame = match frames.next::<Frame<M>>(max_frame) {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                // Oversized or malformed: the stream is unframeable
                // from here — drop it.
                Err(_) => break 'read,
            };
            let from = match (peer, &frame) {
                (Some(from), _) => from,
                (None, &Frame::Hello { from, .. }) => {
                    if !write_half
                        .take()
                        .is_some_and(|stream| conn_to(from, stream))
                    {
                        return;
                    }
                    peer = Some(from);
                    from
                }
                // An unidentified connection must introduce itself
                // first.
                (None, _) => return,
            };
            if tx.send(Msg::Core(Input::Frame { from, frame })).is_err() {
                return;
            }
        }
    }
    if let Some(peer) = peer.filter(|_| !stop.load(AtomicOrdering::SeqCst)) {
        let _ = tx.send(Msg::Core(Input::Gone { peer, conn }));
    }
}
