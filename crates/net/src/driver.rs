//! The TCP backend's state machine, with the sockets, threads and
//! clock left to its host.
//!
//! A [`DriverCore`] hosts one [`TransportActor`] — any
//! `odp_sim::actor::Actor`, through the blanket impl — behind the
//! sans-IO [`SessionLayer`]. It is told [`Input`]s and [`DriverCore::tick`]s,
//! each with the time its host read, and hands back, per
//! [`DriverCore::flush_links`], one byte batch per connection and the
//! connections it let go. Actors get the simulator's own
//! `odp_sim::actor::Ctx`, and their effects are applied in order: a
//! send becomes a sequenced unicast, a timer enters the core's
//! `(due, id) → tag` table, a cancel leaves it. Each peer with a live
//! connection has a link: the connection id and the frames encoded for
//! it since the last flush. A `Conn` retires the peer's old link — its
//! bytes still go to its own connection — and starts the new one with
//! the `Hello`; a `Gone` retires the link only if it names the link's
//! connection, so a replaced connection's end cannot take its successor
//! with it; a failed write drops the link as `net.tcp.tx_broken`.
//! Sequenced frames a dropped link carried wait in the session's
//! retransmit buffer for the peer's next `Hello`.

use std::collections::BTreeMap;

use odp_sim::actor::{Ctx, Effect, TimerId};
use odp_sim::metrics::MetricsRegistry;
use odp_sim::net::NodeId;
use odp_sim::rng::DetRng;
use odp_sim::time::SimTime;
use odp_sim::trace::Trace;

use crate::actor::TransportActor;
use crate::ctx::NetCtx;
use crate::session::{Frame, PeerEvent, SessionLayer, SessionStats, SessionStep};
use crate::tcp::TcpReport;
use crate::wire::{encode_frame_into, WireCodec};

/// Capacity a link buffer keeps across flushes: a usual turn's frames
/// reuse it, and the buffer a larger burst grew is given back.
const LINK_KEEP: usize = 64 * 1024;

/// What a [`DriverCore`] is told.
#[derive(Debug)]
pub enum Input<M> {
    /// Connection `conn` to `peer` opened: `peer`'s frames go to it.
    Conn { peer: NodeId, conn: u64 },
    /// Connection `conn` to `peer` ended.
    Gone { peer: NodeId, conn: u64 },
    /// A frame `from` sent.
    Frame { from: NodeId, frame: Frame<M> },
    /// Deliver `msg` to the actor as if `from` sent it (the analogue of
    /// `Sim::inject`).
    Inject { from: NodeId, msg: M },
    /// A session-level broadcast to every peer, retained for crash
    /// forwarding.
    Bcast { msg: M },
}

/// One peer's link: its connection, and the frames encoded for it
/// since the last flush, back to back.
#[derive(Default)]
struct Link {
    conn: u64,
    pending: Vec<u8>,
    frames: u64,
}

/// The socket-free core of a TCP node (see the [module docs](self)).
pub struct DriverCore<M, A> {
    me: NodeId,
    max_frame: usize,
    actor: A,
    session: SessionLayer<M>,
    rng: DetRng,
    metrics: MetricsRegistry,
    /// The per-frame counters, kept out of `metrics` until `finish`
    /// folds them in under their `net.tcp.*` names.
    rx_frames: u64,
    delivered: u64,
    tx_frames: u64,
    tx_bytes: u64,
    trace: Trace,
    links: BTreeMap<NodeId, Link>,
    /// Links replaced or ended since the last flush, which writes their
    /// bytes to their own connections and lets them go.
    retired: Vec<Link>,
    /// Connections let go by the flush in progress.
    dropped: Vec<u64>,
    /// Reused by every callback: `dispatch` takes it and puts it back.
    effects: Vec<Effect<M>>,
    /// `(due, timer id) -> tag`, driving `on_timer`.
    timers: BTreeMap<(SimTime, TimerId), u64>,
    /// `timer id -> due` for every entry of `timers`, so a cancel can
    /// find its entry; a fired or cancelled id is in neither map.
    due_of: BTreeMap<TimerId, SimTime>,
    next_timer: u64,
    /// Fault injection for the explorer's known-bad arm: when false, a
    /// `Gone` retires the peer's link whichever connection it names.
    gone_checks_conn: bool,
}

impl<M, A> DriverCore<M, A>
where
    M: WireCodec + Clone,
    A: TransportActor<M>,
{
    /// A core hosting `actor` over `session`, for the node the session
    /// speaks for. Frames are encoded under `max_frame`; the rng is
    /// `seed` xor-folded with the node id, so a fleet can share one
    /// seed.
    pub fn new(session: SessionLayer<M>, seed: u64, max_frame: usize, actor: A) -> Self {
        let me = session.me();
        let seed = seed ^ u64::from(me.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DriverCore {
            me,
            max_frame,
            actor,
            session,
            rng: DetRng::seed_from(seed),
            metrics: MetricsRegistry::new(),
            rx_frames: 0,
            delivered: 0,
            tx_frames: 0,
            tx_bytes: 0,
            trace: Trace::new(),
            links: BTreeMap::new(),
            retired: Vec::new(),
            dropped: Vec::new(),
            effects: Vec::new(),
            timers: BTreeMap::new(),
            due_of: BTreeMap::new(),
            next_timer: 0,
            gone_checks_conn: true,
        }
    }

    /// Runs the actor's `on_start`.
    pub fn start(&mut self, now: SimTime) {
        self.dispatch(now, |actor, ctx| actor.on_start(ctx));
    }

    /// Handles one input.
    pub fn handle(&mut self, now: SimTime, input: Input<M>) {
        match input {
            Input::Conn { peer, conn } => {
                self.metrics.incr("net.tcp.conn");
                let link = Link {
                    conn,
                    ..Link::default()
                };
                self.retired.extend(self.links.insert(peer, link));
                let hello = self.session.hello_for(peer, now);
                self.transmit(peer, &hello);
            }
            Input::Gone { peer, conn } => {
                // Only the peer's current connection takes the link
                // with it: one a reconnect replaced was retired then.
                let current = self.links.get(&peer).is_some_and(|link| link.conn == conn);
                if current || !self.gone_checks_conn {
                    self.retired.extend(self.links.remove(&peer));
                }
                self.metrics.incr("net.tcp.conn_lost");
            }
            Input::Frame { from, frame } => self.frame_from(now, from, frame),
            Input::Inject { from, msg } => {
                self.dispatch(now, |actor, ctx| actor.on_message(ctx, from, msg));
            }
            Input::Bcast { msg } => {
                let step = self.session.broadcast(msg);
                self.process_step(now, step);
            }
        }
    }

    /// Fires every timer due by `now`, then runs the session tick
    /// (heartbeats, failure detection, crash forwarding).
    pub fn tick(&mut self, now: SimTime) {
        while let Some((&(due, id), &tag)) = self.timers.first_key_value() {
            if due > now {
                break;
            }
            self.timers.remove(&(due, id));
            self.due_of.remove(&id);
            self.dispatch(now, |actor, ctx| actor.on_timer(ctx, id, tag));
        }
        let step = self.session.on_tick(now);
        self.process_step(now, step);
    }

    /// When the earliest armed actor timer is due, if any.
    pub fn next_due(&self) -> Option<SimTime> {
        self.timers.first_key_value().map(|(&(due, _), _)| due)
    }

    /// Hands each connection's pending bytes to `write` in one call —
    /// a retired link's to its own connection first — and returns the
    /// connections let go: retired, or whose write failed (`write`
    /// returned false; counted as `net.tcp.tx_broken`). The host may
    /// close them.
    pub fn flush_links(
        &mut self,
        mut write: impl FnMut(u64, &[u8]) -> bool,
    ) -> std::vec::Drain<'_, u64> {
        let (tx_frames, tx_bytes) = (&mut self.tx_frames, &mut self.tx_bytes);
        let (metrics, dropped) = (&mut self.metrics, &mut self.dropped);
        let mut flush = |link: &mut Link| {
            if link.pending.is_empty() {
                return true;
            }
            let written = write(link.conn, &link.pending);
            if written {
                *tx_frames += link.frames;
                *tx_bytes += link.pending.len() as u64;
            } else {
                metrics.incr("net.tcp.tx_broken");
            }
            link.pending.clear();
            link.pending.shrink_to(LINK_KEEP);
            link.frames = 0;
            written
        };
        for mut link in self.retired.drain(..) {
            flush(&mut link);
            dropped.push(link.conn);
        }
        self.links.retain(|_, link| {
            let written = flush(link);
            if !written {
                dropped.push(link.conn);
            }
            written
        });
        self.dropped.drain(..)
    }

    /// The hosted actor.
    pub fn actor(&self) -> &A {
        &self.actor
    }

    /// The session's counters.
    pub fn stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// Stops the core: returns the actor and the node's report, with
    /// the per-frame counters folded into its metrics. Flush first —
    /// bytes still pending are not written.
    pub fn finish(mut self) -> (A, TcpReport) {
        for (name, n) in [
            ("net.tcp.rx_frames", self.rx_frames),
            ("net.tcp.delivered", self.delivered),
            ("net.tcp.tx_frames", self.tx_frames),
            ("net.tcp.tx_bytes", self.tx_bytes),
        ] {
            // A counter that never moved gains no zero-valued entry.
            if n > 0 {
                self.metrics.add(name, n);
            }
        }
        let report = TcpReport {
            metrics: self.metrics,
            trace: self.trace,
            stats: self.session.stats(),
            timers_armed: self.timers.len(),
        };
        (self.actor, report)
    }

    /// Fault injection for the explorer's known-bad arm (see the
    /// `gone_checks_conn` field); production code never calls this.
    #[doc(hidden)]
    pub fn set_gone_checks_conn(&mut self, on: bool) {
        self.gone_checks_conn = on;
    }

    /// Runs one actor callback under the reusable effect buffer, then
    /// applies its effects in order. A callback nested inside this
    /// one's sends finds the buffer taken and starts an empty one.
    fn dispatch(&mut self, now: SimTime, call: impl FnOnce(&mut A, &mut dyn NetCtx<M>)) {
        let mut effects = std::mem::take(&mut self.effects);
        let mut ctx = Ctx::new(
            now,
            self.me,
            &mut self.rng,
            &mut effects,
            &mut self.metrics,
            &mut self.trace,
            &mut self.next_timer,
        );
        call(&mut self.actor, &mut ctx);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg, .. } => {
                    let step = self.session.unicast(to, msg, now);
                    self.process_step(now, step);
                }
                Effect::SetTimer { id, at, tag } => {
                    self.timers.insert((at, id), tag);
                    self.due_of.insert(id, at);
                }
                Effect::CancelTimer(id) => {
                    // Fired, cancelled before, or never armed: nothing.
                    if let Some(due) = self.due_of.remove(&id) {
                        self.timers.remove(&(due, id));
                    }
                }
            }
        }
        self.effects = effects;
    }

    /// Transmits frames, surfaces peer events and deliveries.
    fn process_step(&mut self, now: SimTime, step: SessionStep<M>) {
        for (to, frame) in step.outbound {
            self.transmit(to, &frame);
        }
        for event in step.events {
            match event {
                PeerEvent::Up(peer) => {
                    self.metrics.incr("net.tcp.peer_up");
                    self.dispatch(now, |actor, ctx| actor.on_peer_up(ctx, peer));
                }
                PeerEvent::Down(peer) => {
                    self.metrics.incr("net.tcp.peer_down");
                    self.dispatch(now, |actor, ctx| actor.on_peer_down(ctx, peer));
                }
            }
        }
        for (origin, msg) in step.delivered {
            self.delivered += 1;
            self.dispatch(now, |actor, ctx| actor.on_message(ctx, origin, msg));
        }
    }

    /// One received frame through the session.
    fn frame_from(&mut self, now: SimTime, from: NodeId, frame: Frame<M>) {
        self.rx_frames += 1;
        let step = self.session.on_frame(from, frame, now);
        self.process_step(now, step);
    }

    /// Encodes `frame` onto the end of `to`'s link; the next flush
    /// writes it.
    fn transmit(&mut self, to: NodeId, frame: &Frame<M>) {
        let Some(link) = self.links.get_mut(&to) else {
            // No live connection: sequenced frames sit in the session's
            // retransmit buffer until the peer's hello pulls them.
            self.metrics.incr("net.tcp.tx_unrouted");
            return;
        };
        match encode_frame_into(frame, self.max_frame, &mut link.pending) {
            Ok(_) => link.frames += 1,
            Err(_) => {
                // An oversized application payload is the sender's bug;
                // count it, never panic, never poison the stream (the
                // refused frame left the buffer as it was).
                self.metrics.incr("net.tcp.tx_oversized");
            }
        }
    }
}
