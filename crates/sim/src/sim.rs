//! The discrete-event engine.
//!
//! A [`Sim`] owns a set of actors (one per [`NodeId`]), a [`Network`], a
//! deterministic RNG, a [`MetricsRegistry`] and a [`Trace`]. Events are
//! processed in `(time, sequence)` order, so two runs with identical
//! configuration and seed produce identical traces.
//!
//! Sims are configured through [`SimBuilder`] and driven with
//! [`Sim::run`]; the scheduler underneath is a calendar-queue event
//! wheel with arena-allocated actor slots (see DESIGN.md §10).

use std::any::Any;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::num::NonZeroU64;

use crate::actor::{Actor, Ctx, Effect, TimerId};
use crate::metrics::MetricsRegistry;
use crate::net::{DropReason, Network, NodeId, Verdict};
use crate::queue::{CalendarQueue, Describe, EvMeta, Handle, QueueEntry};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// Object-safe wrapper adding downcasting to [`Actor`].
trait ActorObj<M>: Actor<M> {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<M, T: Actor<M> + Any> ActorObj<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

enum EventKind<M> {
    Start(NodeId),
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, id: TimerId, tag: u64 },
    NetChange(Box<dyn FnOnce(&mut Network)>),
}

struct Event<M> {
    kind: EventKind<M>,
    /// One more than the `seq` of the event during whose processing
    /// this one was enqueued, or `None` for events scheduled from
    /// outside a dispatch (injections, actor registration, scripted net
    /// changes). The offset lets `None` use the zero niche, so the cause
    /// costs 8 bytes of the queue slot rather than 16.
    caused_by: Option<NonZeroU64>,
}

impl<M> Describe for Event<M> {
    fn describe(&self) -> EvMeta {
        match &self.kind {
            EventKind::Start(node) => EvMeta::Start(*node),
            EventKind::Deliver { from, to, .. } => EvMeta::Deliver {
                from: *from,
                to: *to,
            },
            EventKind::Timer { node, .. } => EvMeta::Timer(*node),
            EventKind::NetChange(_) => EvMeta::NetChange,
        }
    }
}

/// Timer ids per [`TimerTable`] chunk.
const TIMER_CHUNK: usize = 1024;

/// Where each armed timer sits in the queue: `TimerId -> Handle`, in
/// chunks of [`TIMER_CHUNK`] consecutive ids.
///
/// Ids are handed out in sequence from `Sim::next_timer`, so one
/// chunk's ids are armed close together. A chunk is allocated when its
/// first id is armed and freed when its last armed timer fires or is
/// cancelled; the newest chunk, which ids are still handed out from, is
/// kept until the next one opens, so a lone timer re-armed as it fires
/// does not allocate a chunk every time. What stays is one 4 KiB chunk
/// per span of 1 024 ids holding a live timer, plus one pointer per
/// 1 024 ids ever handed out: a run that arms millions of timers and
/// cancels nearly all of them (lease detectors, retry ladders) keeps
/// only the spans its live timers pin.
#[derive(Default)]
struct TimerTable {
    /// Chunk `c` maps ids `c * TIMER_CHUNK ..` to handles; `None`
    /// before its first id is armed and after it is spent.
    chunks: Vec<Option<Box<TimerChunk>>>,
    /// The newest chunk armed, kept even with nothing armed in it.
    open: usize,
    /// Seeded known-bad for the residency test: a spent chunk is never
    /// freed.
    #[cfg(test)]
    keep_spent_chunks: bool,
}

struct TimerChunk {
    /// [`Handle::NONE`] where no timer is armed.
    handles: [Handle; TIMER_CHUNK],
    /// How many of `handles` are not [`Handle::NONE`].
    armed: u32,
}

impl TimerTable {
    /// The chunk and the offset in it of `id`; `None` for an id past
    /// the address space, which no chunk holds.
    fn place(id: TimerId) -> Option<(usize, usize)> {
        let raw = usize::try_from(id.0).ok()?;
        Some((raw / TIMER_CHUNK, raw % TIMER_CHUNK))
    }

    /// Records that timer `id` sits in the queue at `handle`.
    fn arm(&mut self, id: TimerId, handle: Handle) {
        // Ids count up from 0, one per `set_timer`: only a 32-bit host
        // arming 2^32 timers in one run could exceed `usize`.
        #[expect(clippy::expect_used, reason = "timer ids fit the address space")]
        let (c, i) = Self::place(id).expect("timer ids fit the address space");
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        if c > self.open {
            let done = std::mem::replace(&mut self.open, c);
            self.free_if_spent(done);
        }
        let chunk = self.chunks[c].get_or_insert_with(|| {
            Box::new(TimerChunk {
                handles: [Handle::NONE; TIMER_CHUNK],
                armed: 0,
            })
        });
        chunk.handles[i] = handle;
        chunk.armed += 1;
    }

    /// Forgets timer `id` and returns where it sat, or
    /// [`Handle::NONE`] if it is not armed: it fired, was cancelled or
    /// was never armed.
    fn disarm(&mut self, id: TimerId) -> Handle {
        let Some((c, i)) = Self::place(id) else {
            return Handle::NONE;
        };
        let Some(Some(chunk)) = self.chunks.get_mut(c) else {
            return Handle::NONE;
        };
        let handle = std::mem::replace(&mut chunk.handles[i], Handle::NONE);
        if handle != Handle::NONE {
            chunk.armed -= 1;
            if c < self.open {
                self.free_if_spent(c);
            }
        }
        handle
    }

    /// Frees chunk `c` if no timer in it is armed.
    fn free_if_spent(&mut self, c: usize) {
        #[cfg(test)]
        if self.keep_spent_chunks {
            return;
        }
        if let Some(chunk) = &self.chunks[c] {
            if chunk.armed == 0 {
                self.chunks[c] = None;
            }
        }
    }

    /// Chunks allocated right now.
    #[cfg(test)]
    fn resident(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }
}

struct ActorSlot<M> {
    actor: Option<Box<dyn ActorObj<M>>>,
    rng: DetRng,
}

/// A lightweight description of one queued event, in `(time, seq)`
/// order, as exposed by [`Sim::pending_events`]. Schedule explorers use
/// this to decide which deliveries are worth permuting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingEvent {
    /// An actor's `on_start` is queued.
    Start {
        /// The starting actor.
        node: NodeId,
        /// When it runs.
        time: SimTime,
        /// The event's queue identity (unique within a run).
        seq: u64,
    },
    /// A message is in flight.
    Deliver {
        /// The sender.
        from: NodeId,
        /// The destination.
        to: NodeId,
        /// The scheduled delivery time.
        time: SimTime,
        /// The event's queue identity (unique within a run).
        seq: u64,
    },
    /// A timer is armed on `node`. A cancelled timer leaves the queue at
    /// its cancellation, so it is never listed.
    Timer {
        /// The node whose timer it is.
        node: NodeId,
        /// When it fires.
        time: SimTime,
        /// The event's queue identity (unique within a run).
        seq: u64,
    },
    /// A scheduled network mutation.
    NetChange {
        /// When it applies.
        time: SimTime,
        /// The event's queue identity (unique within a run).
        seq: u64,
    },
}

impl PendingEvent {
    fn from_meta(time: SimTime, seq: u64, meta: EvMeta) -> Self {
        match meta {
            EvMeta::Start(node) => PendingEvent::Start { node, time, seq },
            EvMeta::Deliver { from, to } => PendingEvent::Deliver {
                from,
                to,
                time,
                seq,
            },
            EvMeta::Timer(node) => PendingEvent::Timer { node, time, seq },
            EvMeta::NetChange => PendingEvent::NetChange { time, seq },
        }
    }

    /// When the event is due.
    pub fn time(&self) -> SimTime {
        match self {
            PendingEvent::Start { time, .. }
            | PendingEvent::Deliver { time, .. }
            | PendingEvent::Timer { time, .. }
            | PendingEvent::NetChange { time, .. } => *time,
        }
    }

    /// The event's queue identity. Sequence numbers are assigned in
    /// scheduling order, so an event keeps its `seq` across
    /// [`Sim::step_nth`] reorderings — schedule explorers use it to
    /// track one in-flight message across interleavings.
    pub fn seq(&self) -> u64 {
        match self {
            PendingEvent::Start { seq, .. }
            | PendingEvent::Deliver { seq, .. }
            | PendingEvent::Timer { seq, .. }
            | PendingEvent::NetChange { seq, .. } => *seq,
        }
    }

    /// The node whose state the event touches when processed — the
    /// receiver for a delivery, the owner for a timer or start, `None`
    /// for a global network mutation.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            PendingEvent::Start { node, .. } | PendingEvent::Timer { node, .. } => Some(*node),
            PendingEvent::Deliver { to, .. } => Some(*to),
            PendingEvent::NetChange { .. } => None,
        }
    }
}

/// A record of the most recently processed event, with the causal
/// metadata schedule explorers need to reconstruct a happens-before
/// relation: which queued event ran, and which earlier event's
/// processing enqueued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutedEvent {
    /// The event, as it appeared in the pending queue.
    pub desc: PendingEvent,
    /// The `seq` of the event during whose processing this one was
    /// enqueued, or `None` for externally scheduled events (injections,
    /// actor registration, scripted net changes).
    pub caused_by: Option<u64>,
}

/// A typed reference to the actor registered on one node, returned by
/// [`Sim::add_actor`] and redeemed with [`Sim::get`] / [`Sim::get_mut`].
///
/// The handle replaces the stringly `sim.actor::<A>(id)` downcast
/// pattern: the registration site names the concrete type once, and
/// every later access inherits it. Handles are plain `Copy` values — a
/// [`NodeId`] plus a compile-time type tag — so scenario builders can
/// hand them around or reconstruct one with [`ActorHandle::of`] when
/// only the id survives (e.g. inside an invariant that received node
/// ids). The type is still checked at access time: [`Sim::get`] returns
/// `None` if the node hosts a different actor type.
pub struct ActorHandle<A> {
    id: NodeId,
    _actor: PhantomData<fn() -> A>,
}

impl<A> ActorHandle<A> {
    /// A handle asserting that node `id` hosts an `A`. The assertion is
    /// checked at [`Sim::get`] time, not here.
    pub fn of(id: NodeId) -> Self {
        ActorHandle {
            id,
            _actor: PhantomData,
        }
    }

    /// The node this handle points at.
    pub fn id(&self) -> NodeId {
        self.id
    }
}

impl<A> Clone for ActorHandle<A> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<A> Copy for ActorHandle<A> {}

impl<A> std::fmt::Debug for ActorHandle<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ActorHandle({})", self.id)
    }
}

impl<A> PartialEq for ActorHandle<A> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl<A> Eq for ActorHandle<A> {}

/// How long [`Sim::run`] keeps processing events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Until {
    /// Until the event queue is exhausted (or the event cap trips).
    Idle,
    /// While the next event is due at or before the deadline; afterwards
    /// the clock reads the deadline if it would otherwise lag behind.
    At(SimTime),
    /// For a span of simulated time from now (same clock semantics as
    /// [`Until::At`]).
    For(SimDuration),
    /// At most this many events.
    Events(u64),
}

/// Why [`Sim::run`] returned — quiescence is now distinguishable from
/// tripping the event cap, which used to look identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Quiesced,
    /// The event budget ([`SimBuilder::max_events`] or
    /// [`Until::Events`]) was exhausted with work still queued.
    EventCapHit,
    /// The [`Until::At`] / [`Until::For`] deadline passed with later
    /// events still queued.
    DeadlineHit,
}

/// Configures and constructs a [`Sim`]: seed, network, topology,
/// telemetry and event budget in one fluent expression.
///
/// # Examples
///
/// ```
/// use odp_sim::prelude::*;
///
/// let sim: Sim<u32> = SimBuilder::new(7)
///     .topology(|net| net.set_default_link(LinkSpec::wan(SimDuration::from_millis(20))))
///     .max_events(100_000)
///     .build();
/// assert_eq!(sim.now(), SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct SimBuilder {
    seed: u64,
    net: Network,
    max_events: u64,
    default_msg_bytes: usize,
    telemetry: bool,
    trace_capacity: Option<usize>,
}

impl SimBuilder {
    /// Starts a builder with the default (LAN) network, telemetry on,
    /// and a 50M-event runaway guard.
    pub fn new(seed: u64) -> Self {
        SimBuilder {
            seed,
            net: Network::default(),
            max_events: 50_000_000,
            default_msg_bytes: 256,
            telemetry: true,
            trace_capacity: None,
        }
    }

    /// Replaces the network model wholesale.
    pub fn network(mut self, net: Network) -> Self {
        self.net = net;
        self
    }

    /// Applies a topology builder to the network in place (composes
    /// with [`SimBuilder::network`]).
    pub fn topology(mut self, build: impl FnOnce(&mut Network)) -> Self {
        build(&mut self.net);
        self
    }

    /// Caps the number of processed events, as a runaway-protocol
    /// guard; [`Sim::run`] reports [`RunOutcome::EventCapHit`] when it
    /// trips.
    pub fn max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Enables or disables trace recording (default on). Scale benches
    /// turn it off so only metrics are collected.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Bounds the trace to a sliding window of the most recent
    /// `capacity` records (see [`Trace::with_capacity`]).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Constructs the simulation.
    pub fn build<M: 'static>(self) -> Sim<M> {
        let mut trace = match self.trace_capacity {
            Some(cap) => Trace::with_capacity(cap),
            None => Trace::new(),
        };
        if !self.telemetry {
            trace.disable();
        }
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::new(),
            slots: Vec::new(),
            by_id: BTreeMap::new(),
            dense: Vec::new(),
            net: self.net,
            rng: DetRng::seed_from(self.seed),
            metrics: MetricsRegistry::new(),
            trace,
            hot: HotCounters::default(),
            hot_flushed: HotCounters::default(),
            scratch: Vec::new(),
            timers: TimerTable::default(),
            next_timer: 0,
            default_msg_bytes: self.default_msg_bytes,
            events_dispatched: 0,
            timers_reaped: 0,
            max_events: self.max_events,
            processing: None,
            last_executed: None,
            peak_pending: 0,
        }
    }
}

/// Engine-maintained counters kept as plain fields on the hot path and
/// folded into the string-keyed [`MetricsRegistry`] at `&mut`
/// boundaries ([`Sim::step`], [`Sim::step_nth`], the end of
/// [`Sim::run`]), so [`Sim::metrics`] always
/// reflects them by the time a caller can observe it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct HotCounters {
    delivered: u64,
    sent: u64,
    sent_bytes: u64,
    no_actor: u64,
    reentrant: u64,
    drop_loss: u64,
    drop_partitioned: u64,
    drop_disconnected: u64,
}

impl HotCounters {
    /// Every counter beside the registry name it is folded under.
    fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("sim.delivered", self.delivered),
            ("sim.sent", self.sent),
            ("sim.sent_bytes", self.sent_bytes),
            ("sim.no_actor", self.no_actor),
            ("sim.reentrant_dispatch", self.reentrant),
            ("sim.dropped.Loss", self.drop_loss),
            ("sim.dropped.Partitioned", self.drop_partitioned),
            ("sim.dropped.Disconnected", self.drop_disconnected),
        ]
    }
}

/// Ids below this bound index directly into the dense `NodeId -> slot`
/// table; sparser ids fall back to the ordered map.
const DENSE_IDS: usize = 1 << 22;

/// A deterministic discrete-event simulation.
///
/// # Examples
///
/// ```
/// use odp_sim::prelude::*;
///
/// struct Pinger { peer: NodeId, pongs: u32 }
/// struct Ponger;
///
/// impl Actor<&'static str> for Pinger {
///     fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
///         ctx.send(self.peer, "ping");
///     }
///     fn on_message(&mut self, ctx: &mut Ctx<'_, &'static str>, _from: NodeId, _msg: &'static str) {
///         self.pongs += 1;
///         ctx.trace("pong.received", "");
///     }
/// }
/// impl Actor<&'static str> for Ponger {
///     fn on_message(&mut self, ctx: &mut Ctx<'_, &'static str>, from: NodeId, _msg: &'static str) {
///         ctx.send(from, "pong");
///     }
/// }
///
/// let mut sim = SimBuilder::new(42).build();
/// let pinger = sim.add_actor(NodeId(0), Pinger { peer: NodeId(1), pongs: 0 });
/// sim.add_actor(NodeId(1), Ponger);
/// assert_eq!(sim.run(Until::Idle), RunOutcome::Quiesced);
/// assert_eq!(sim.get(pinger).map(|p| p.pongs), Some(1));
/// ```
pub struct Sim<M> {
    now: SimTime,
    seq: u64,
    /// The event queue; see [`crate::queue`]. It drains in
    /// `(time, seq)` order, the one total order [`Sim::step`],
    /// [`Sim::step_nth`] and [`Sim::pending_events`] all observe.
    queue: CalendarQueue<Event<M>>,
    /// Arena of actor slots in registration order; dispatch indexes
    /// here directly instead of walking a map.
    slots: Vec<ActorSlot<M>>,
    /// `NodeId -> slot` in id order: the iteration view, the duplicate
    /// check, and the overflow store for ids past [`DENSE_IDS`].
    by_id: BTreeMap<NodeId, u32>,
    /// `NodeId.0 -> slot + 1` (0 = vacant): the O(1) dispatch lookup.
    dense: Vec<u32>,
    net: Network,
    rng: DetRng,
    metrics: MetricsRegistry,
    trace: Trace,
    hot: HotCounters,
    hot_flushed: HotCounters,
    /// Reusable effects buffer for the dispatch path.
    scratch: Vec<Effect<M>>,
    /// Where each armed timer sits in the queue. A timer leaves it when
    /// it fires or is cancelled, so a late or repeated cancel finds
    /// nothing; memory follows the spans of ids with a live timer, not
    /// every timer ever armed (see [`TimerTable`]).
    timers: TimerTable,
    next_timer: u64,
    default_msg_bytes: usize,
    events_dispatched: u64,
    timers_reaped: u64,
    max_events: u64,
    /// `seq + 1` of the event currently being processed, in
    /// [`Event::caused_by`]'s encoding; pushes made while it is set
    /// record it as their cause.
    processing: Option<NonZeroU64>,
    last_executed: Option<ExecutedEvent>,
    peak_pending: usize,
}

impl<M: 'static> Sim<M> {
    /// Registers an actor on node `id`, scheduling its
    /// [`Actor::on_start`] at the current time, and returns a typed
    /// handle for later [`Sim::get`] / [`Sim::get_mut`] access.
    ///
    /// # Panics
    ///
    /// Panics if an actor is already registered on `id`.
    pub fn add_actor<A: Actor<M> + Any>(&mut self, id: NodeId, actor: A) -> ActorHandle<A> {
        assert!(
            !self.by_id.contains_key(&id),
            "actor already registered on {id}"
        );
        let rng = self.rng.fork();
        let slot = self.slots.len() as u32;
        self.slots.push(ActorSlot {
            actor: Some(Box::new(actor)),
            rng,
        });
        self.by_id.insert(id, slot);
        let raw = id.0 as usize;
        if raw < DENSE_IDS {
            if raw >= self.dense.len() {
                self.dense.resize(raw + 1, 0);
            }
            self.dense[raw] = slot + 1;
        }
        self.push(self.now, EventKind::Start(id));
        ActorHandle::of(id)
    }

    /// Read access to the network model.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Schedules a mutation of the network at time `at` (degradation,
    /// partition, connectivity change).
    pub fn schedule_net_change(
        &mut self,
        at: SimTime,
        change: impl FnOnce(&mut Network) + 'static,
    ) {
        assert!(at >= self.now, "cannot schedule a change in the past");
        self.push(at, EventKind::NetChange(Box::new(change)));
    }

    /// Injects an external stimulus: delivers `msg` to `to` at `at`
    /// (bypassing the network), attributed to `from`. Workload generators
    /// use this to script user behaviour.
    pub fn inject(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        assert!(at >= self.now, "cannot inject in the past");
        self.push(at, EventKind::Deliver { from, to, msg });
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run's metrics. Engine hot counters (`sim.delivered` etc.)
    /// are folded in at every public stepping boundary, so this view is
    /// current whenever a caller can observe it.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The run's trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace (e.g. to disable it for big runs).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Borrows the actor a handle points at, downcast to its concrete
    /// type; `None` if the node is unregistered or hosts another type.
    pub fn get<A: Actor<M> + Any>(&self, handle: ActorHandle<A>) -> Option<&A> {
        let slot = self.slot_of(handle.id)?;
        self.slots[slot]
            .actor
            .as_ref()?
            .as_any()
            .downcast_ref::<A>()
    }

    /// Mutable variant of [`Sim::get`].
    pub fn get_mut<A: Actor<M> + Any>(&mut self, handle: ActorHandle<A>) -> Option<&mut A> {
        let slot = self.slot_of(handle.id)?;
        self.slots[slot]
            .actor
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<A>()
    }

    /// Node ids with registered actors, in ascending order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.by_id.keys().copied().collect()
    }

    /// The largest number of simultaneously queued events seen so far
    /// (scale benches report this as peak queue depth).
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    fn slot_of(&self, id: NodeId) -> Option<usize> {
        let raw = id.0 as usize;
        if raw < self.dense.len() {
            match self.dense[raw] {
                0 => None,
                s => Some((s - 1) as usize),
            }
        } else if raw < DENSE_IDS {
            None
        } else {
            self.by_id.get(&id).map(|&s| s as usize)
        }
    }

    fn push(&mut self, time: SimTime, kind: EventKind<M>) -> Handle {
        let seq = self.seq;
        self.seq += 1;
        let handle = self.queue.insert(QueueEntry {
            time,
            seq,
            payload: Event {
                kind,
                caused_by: self.processing,
            },
        });
        if self.queue.len() > self.peak_pending {
            self.peak_pending = self.queue.len();
        }
        handle
    }

    /// Processes the next event. Returns false when the queue is empty or
    /// the event cap is reached.
    pub fn step(&mut self) -> bool {
        let stepped = self.step_inner();
        self.flush_hot();
        stepped
    }

    fn step_inner(&mut self) -> bool {
        if self.events_processed() >= self.max_events {
            return false;
        }
        let Some(entry) = self.queue.pop_first() else {
            return false;
        };
        self.process(entry);
        true
    }

    /// Number of events currently queued. A cancelled timer leaves the
    /// queue at its cancellation and is not counted.
    pub fn pending_len(&self) -> usize {
        self.queue.len()
    }

    /// When the next queued event is due, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_key().map(|(time, _)| time)
    }

    /// Descriptions of every queued event in `(time, seq)` order — the
    /// order [`Sim::step`] would process them. Index `n` here is the `n`
    /// accepted by [`Sim::step_nth`]. A queue in sorted order (every
    /// queue that has never held more than 64 events) is walked as it
    /// stands; a deeper one sorts its keys once, on the first call, and
    /// stays in sorted order from then on, so every later call is an
    /// O(k) walk too.
    pub fn pending_events(&mut self) -> Vec<PendingEvent> {
        let mut out = Vec::with_capacity(self.queue.len());
        self.pending_events_into(&mut out);
        out
    }

    /// [`Sim::pending_events`] into a caller-owned buffer, which is
    /// cleared first: a caller that scans once per step reuses one
    /// allocation for the whole run.
    pub fn pending_events_into(&mut self, out: &mut Vec<PendingEvent>) {
        out.clear();
        self.queue.for_each_in_order(|time, seq, meta| {
            out.push(PendingEvent::from_meta(time, seq, meta))
        });
    }

    /// Processes the `n`-th queued event in `(time, seq)` order instead
    /// of the first — the schedule-exploration hook. Running an event
    /// early never rewinds the clock: simulated time is clamped to stay
    /// monotone, so a later `step` of an "overtaken" earlier event runs
    /// at the current time. Returns false when `n` is out of range or
    /// the event cap is reached. The event is found in the same sorted
    /// order [`Sim::pending_events`] reads, which a deeper queue returns
    /// to on the first call: taking rank `n` out is a memmove of the `n`
    /// keys ahead of it.
    pub fn step_nth(&mut self, n: usize) -> bool {
        if self.events_processed() >= self.max_events {
            return false;
        }
        let Some(entry) = self.queue.remove_nth(n) else {
            return false;
        };
        self.process(entry);
        self.flush_hot();
        true
    }

    /// The most recently processed event, with its causal parent — the
    /// metadata schedule explorers use to build a happens-before
    /// relation over deliveries. `None` before the first step.
    pub fn last_executed(&self) -> Option<ExecutedEvent> {
        self.last_executed
    }

    fn process(&mut self, entry: QueueEntry<Event<M>>) {
        let QueueEntry {
            time,
            seq,
            payload: ev,
        } = entry;
        self.events_dispatched += 1;
        // Under step_nth the chosen event may carry an earlier timestamp
        // than an already-processed one; the clock only moves forward.
        self.now = self.now.max(time);
        self.last_executed = Some(ExecutedEvent {
            desc: PendingEvent::from_meta(time, seq, ev.describe()),
            caused_by: ev.caused_by.map(|cause| cause.get() - 1),
        });
        self.processing = NonZeroU64::new(seq + 1);
        match ev.kind {
            EventKind::Start(node) => self.dispatch(node, Dispatch::Start),
            EventKind::Deliver { from, to, msg } => {
                self.hot.delivered += 1;
                self.dispatch(to, Dispatch::Message { from, msg });
            }
            EventKind::Timer { node, id, tag } => {
                // The entry is gone and its slot will be reused: a
                // cancel that arrives from now on must find no handle.
                self.timers.disarm(id);
                self.dispatch(node, Dispatch::Timer { id, tag });
            }
            EventKind::NetChange(f) => f(&mut self.net),
        }
        self.processing = None;
    }

    /// Arena dispatch: O(1) dense slot lookup, in-place actor and RNG
    /// borrows, and a reused effects buffer — no per-event allocation.
    fn dispatch(&mut self, node: NodeId, what: Dispatch<M>) {
        let Some(slot_idx) = self.slot_of(node) else {
            self.hot.no_actor += 1;
            return;
        };
        let mut effects = std::mem::take(&mut self.scratch);
        debug_assert!(effects.is_empty());
        {
            let slot = &mut self.slots[slot_idx];
            let Some(actor) = slot.actor.as_mut() else {
                self.hot.reentrant += 1;
                self.scratch = effects;
                return;
            };
            let mut ctx = Ctx {
                now: self.now,
                id: node,
                rng: &mut slot.rng,
                effects: &mut effects,
                metrics: &mut self.metrics,
                trace: &mut self.trace,
                next_timer: &mut self.next_timer,
                default_msg_bytes: self.default_msg_bytes,
            };
            match what {
                Dispatch::Start => actor.on_start(&mut ctx),
                Dispatch::Message { from, msg } => actor.on_message(&mut ctx, from, msg),
                Dispatch::Timer { id, tag } => actor.on_timer(&mut ctx, id, tag),
            }
        }
        self.apply_effects(node, &mut effects);
        self.scratch = effects;
    }

    fn apply_effects(&mut self, node: NodeId, effects: &mut Vec<Effect<M>>) {
        for eff in effects.drain(..) {
            match eff {
                Effect::Send { to, msg, bytes } => {
                    self.hot.sent += 1;
                    self.hot.sent_bytes += bytes as u64;
                    match self.net.submit(self.now, node, to, bytes, &mut self.rng) {
                        Verdict::DeliverAt(at) => {
                            self.push(
                                at,
                                EventKind::Deliver {
                                    from: node,
                                    to,
                                    msg,
                                },
                            );
                        }
                        Verdict::Dropped(DropReason::Loss) => self.hot.drop_loss += 1,
                        Verdict::Dropped(DropReason::Partitioned) => self.hot.drop_partitioned += 1,
                        Verdict::Dropped(DropReason::Disconnected) => {
                            self.hot.drop_disconnected += 1
                        }
                    }
                }
                Effect::SetTimer { id, at, tag } => {
                    let handle = self.push(at, EventKind::Timer { node, id, tag });
                    self.timers.arm(id, handle);
                }
                Effect::CancelTimer(id) => {
                    // Unlink the entry on the spot. An id that already
                    // fired, was already cancelled or was never armed
                    // names no handle, and nothing is counted.
                    if self.queue.remove(self.timers.disarm(id)).is_some() {
                        self.timers_reaped += 1;
                    }
                }
            }
        }
    }

    /// Folds the hot-path counters' growth since the last fold into the
    /// string-keyed registry; a counter that has not moved is not
    /// touched, so the registry never gains a zero-valued entry.
    fn flush_hot(&mut self) {
        if self.hot == self.hot_flushed {
            return;
        }
        for ((name, now), (_, flushed)) in
            self.hot.named().into_iter().zip(self.hot_flushed.named())
        {
            if now > flushed {
                self.metrics.add(name, now - flushed);
            }
        }
        self.hot_flushed = self.hot;
    }

    /// Runs the simulation until the given condition and reports why it
    /// stopped — quiescence, the event cap, or the deadline.
    pub fn run(&mut self, until: Until) -> RunOutcome {
        let outcome = match until {
            Until::Idle => self.run_inner(SimTime::MAX, u64::MAX, false),
            Until::At(deadline) => self.run_inner(deadline, u64::MAX, true),
            Until::For(d) => {
                let deadline = self.now + d;
                self.run_inner(deadline, u64::MAX, true)
            }
            Until::Events(n) => self.run_inner(SimTime::MAX, n, false),
        };
        self.flush_hot();
        outcome
    }

    fn run_inner(&mut self, deadline: SimTime, budget: u64, bump_clock: bool) -> RunOutcome {
        let mut left = budget;
        let outcome = loop {
            if left == 0 || self.events_processed() >= self.max_events {
                break match self.queue.peek_key() {
                    None => RunOutcome::Quiesced,
                    Some((t, _)) if t > deadline => RunOutcome::DeadlineHit,
                    Some(_) => RunOutcome::EventCapHit,
                };
            }
            match self.queue.pop_first_at_or_before(deadline) {
                Some(entry) => {
                    self.process(entry);
                    left -= 1;
                }
                None => {
                    break if self.queue.len() == 0 {
                        RunOutcome::Quiesced
                    } else {
                        RunOutcome::DeadlineHit
                    };
                }
            }
        };
        if bump_clock && self.now < deadline {
            self.now = deadline;
        }
        outcome
    }

    /// Number of events processed so far: every event taken off the
    /// queue and dispatched plus every armed timer cancelled —
    /// [`Sim::events_dispatched`] + [`Sim::timers_reaped`]. An armed
    /// timer is counted exactly once, when it fires or at the moment it
    /// is cancelled, so a drained run's census (`starts + deliveries +
    /// timers armed + net changes`) does not depend on how the engine
    /// disposes of cancelled timers. [`SimBuilder::max_events`] bounds
    /// this count.
    pub fn events_processed(&self) -> u64 {
        self.events_dispatched + self.timers_reaped
    }

    /// Number of events taken off the queue and dispatched: starts,
    /// deliveries, timers that fired, net changes. Each advanced `now`
    /// to its due time, became [`Sim::last_executed`], and spent one
    /// step of an [`Until::Events`] budget.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Number of armed timers removed from the queue by
    /// [`Ctx::cancel_timer`]. A reaped timer is unlinked while its
    /// canceller's effects are applied: it never advances `now`, is
    /// never [`Sim::last_executed`] and does not spend an
    /// [`Until::Events`] step — only the [`SimBuilder::max_events`]
    /// guard counts it. Cancelling a timer that already fired, or
    /// twice, reaps nothing.
    pub fn timers_reaped(&self) -> u64 {
        self.timers_reaped
    }
}

enum Dispatch<M> {
    Start,
    Message { from: NodeId, msg: M },
    Timer { id: TimerId, tag: u64 },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::LinkSpec;
    use crate::trace::TraceEvent;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Client {
        server: NodeId,
        received: Vec<u32>,
        timer_fired: u32,
        cancelled_timer: Option<TimerId>,
    }

    impl Client {
        fn new(server: NodeId) -> Self {
            Client {
                server,
                received: Vec::new(),
                timer_fired: 0,
                cancelled_timer: None,
            }
        }
    }

    impl Actor<Msg> for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.send(self.server, Msg::Ping(1));
            let keep = ctx.set_timer(SimDuration::from_millis(10), 7);
            let _ = keep;
            let cancel_me = ctx.set_timer(SimDuration::from_millis(5), 9);
            ctx.cancel_timer(cancel_me);
            self.cancelled_timer = Some(cancel_me);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Pong(n) = msg {
                self.received.push(n);
                ctx.trace("pong", n);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _timer: TimerId, tag: u64) {
            assert_eq!(tag, 7, "cancelled timer must not fire");
            self.timer_fired += 1;
        }
    }

    struct Server;
    impl Actor<Msg> for Server {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
            if let Msg::Ping(n) = msg {
                ctx.send(from, Msg::Pong(n));
            }
        }
    }

    fn build(seed: u64) -> (Sim<Msg>, ActorHandle<Client>) {
        let net = Network::new(LinkSpec::lan());
        let mut sim = SimBuilder::new(seed).network(net).build();
        let client = sim.add_actor(NodeId(0), Client::new(NodeId(1)));
        sim.add_actor(NodeId(1), Server);
        (sim, client)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut sim, client) = build(1);
        assert_eq!(sim.run(Until::Idle), RunOutcome::Quiesced);
        let client = sim.get(client).unwrap();
        assert_eq!(client.received, vec![1]);
        assert_eq!(client.timer_fired, 1);
        assert_eq!(sim.metrics().counter("sim.sent"), 2);
        assert_eq!(sim.metrics().counter("sim.delivered"), 2);
    }

    #[test]
    fn identical_seeds_produce_identical_traces() {
        let (mut a, _) = build(99);
        let (mut b, _) = build(99);
        a.run(Until::Idle);
        b.run(Until::Idle);
        assert_eq!(a.trace().events(), b.trace().events());
        assert_eq!(a.now(), b.now());
    }

    /// The whole seed-99 run, dispatch by dispatch, as the `BTreeMap`
    /// engine executed it at commit 632eeb9 (the last one carrying that
    /// engine, where this listing was printed from it and from the
    /// calendar engine alike): `(kind, node, time µs, seq, cause)`. A
    /// timer step that did not move the client's fire counter — the pop
    /// of the cancelled 5 ms timer `('t', 0, 5_000, 4, Some(0))`, on an
    /// engine that still queues those — is not a dispatch; the listing
    /// without it passed at commit f328368, the last such engine.
    #[test]
    fn legacy_and_calendar_engines_agree_exactly() {
        let (mut sim, client) = build(99);
        let mut stream = Vec::new();
        let mut fired = 0;
        while sim.step() {
            let ev = sim.last_executed().expect("an event ran");
            let now_fired = sim.get(client).expect("registered").timer_fired;
            if matches!(ev.desc, PendingEvent::Timer { .. }) && now_fired == fired {
                continue;
            }
            fired = now_fired;
            let kind = match ev.desc {
                PendingEvent::Start { .. } => 's',
                PendingEvent::Deliver { .. } => 'd',
                PendingEvent::Timer { .. } => 't',
                PendingEvent::NetChange { .. } => 'n',
            };
            let node = ev.desc.node().expect("no net change is scheduled");
            stream.push((
                kind,
                node.0,
                ev.desc.time().as_micros(),
                ev.desc.seq(),
                ev.caused_by,
            ));
        }
        assert_eq!(
            stream,
            [
                ('s', 0, 0, 0, None),
                ('s', 1, 0, 1, None),
                ('d', 1, 1_113, 2, Some(0)),
                ('d', 0, 1_999, 5, Some(2)),
                ('t', 0, 10_000, 3, Some(0)),
            ]
        );
        assert_eq!(
            sim.trace().events(),
            [TraceEvent {
                time: SimTime::from_micros(1_999),
                node: NodeId(0),
                label: "pong".to_owned(),
                data: "1".to_owned(),
            }]
        );
        assert_eq!(sim.now(), SimTime::from_millis(10));
        assert_eq!(sim.metrics().counter("sim.sent"), 2);
        assert_eq!(sim.metrics().counter("sim.delivered"), 2);
        // Two starts, two deliveries, one timer fired, one cancelled.
        assert_eq!(sim.events_processed(), 6);
        assert_eq!(sim.events_dispatched(), stream.len() as u64);
        assert_eq!(sim.timers_reaped(), 1);
    }

    #[test]
    fn different_seeds_may_differ_in_timing_but_not_logic() {
        let (mut a, ca) = build(1);
        let (mut b, cb) = build(2);
        a.run(Until::Idle);
        b.run(Until::Idle);
        let ca = a.get(ca).unwrap();
        let cb = b.get(cb).unwrap();
        assert_eq!(ca.received, cb.received);
    }

    #[test]
    fn run_until_stops_the_clock_at_the_deadline() {
        let (mut sim, client) = build(5);
        let outcome = sim.run(Until::At(SimTime::from_micros(1)));
        assert_eq!(outcome, RunOutcome::DeadlineHit, "timer still armed");
        // The 10ms timer has not fired yet.
        assert_eq!(sim.get(client).unwrap().timer_fired, 0);
        assert_eq!(
            sim.run(Until::For(SimDuration::from_millis(20))),
            RunOutcome::Quiesced
        );
        assert_eq!(sim.get(client).unwrap().timer_fired, 1);
        assert_eq!(
            sim.now(),
            SimTime::from_micros(1) + SimDuration::from_millis(20)
        );
    }

    #[test]
    fn run_events_budget_reports_cap() {
        let (mut sim, _) = build(8);
        assert_eq!(sim.run(Until::Events(1)), RunOutcome::EventCapHit);
        // Exactly one handler ran: the client's start, which sent the
        // ping the server (not yet started) has not answered.
        assert_eq!(sim.metrics().counter("sim.sent"), 1);
        assert_eq!(sim.metrics().counter("sim.delivered"), 0);
        // The timer that start cancelled was reaped on the spot: counted
        // as processed, but not against the one-step budget.
        assert_eq!(sim.events_dispatched(), 1);
        assert_eq!(sim.timers_reaped(), 1);
        assert_eq!(sim.events_processed(), 2);
        assert_eq!(sim.run(Until::Events(1_000)), RunOutcome::Quiesced);
        assert_eq!(sim.events_processed(), 6);
    }

    #[test]
    fn typed_handles_check_the_actor_type_at_access() {
        let (sim, client) = build(6);
        assert!(sim.get(client).is_some());
        assert!(sim.get(ActorHandle::<Server>::of(NodeId(1))).is_some());
        // Wrong type or unregistered node: None, not a panic.
        assert!(sim.get(ActorHandle::<Server>::of(NodeId(0))).is_none());
        assert!(sim.get(ActorHandle::<Client>::of(NodeId(77))).is_none());
        assert_eq!(client.id(), NodeId(0));
    }

    #[test]
    fn send_to_unregistered_node_is_counted_not_fatal() {
        struct Lost;
        impl Actor<Msg> for Lost {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.send(NodeId(42), Msg::Ping(0));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: NodeId, _: Msg) {}
        }
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        sim.add_actor(NodeId(0), Lost);
        sim.run(Until::Idle);
        assert_eq!(sim.metrics().counter("sim.no_actor"), 1);
    }

    #[test]
    fn scheduled_net_change_takes_effect() {
        struct Spammer {
            peer: NodeId,
        }
        impl Actor<Msg> for Spammer {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _: TimerId, _: u64) {
                ctx.send(self.peer, Msg::Ping(0));
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        struct Sink {
            got: u32,
        }
        impl Actor<Msg> for Sink {
            fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: NodeId, _: Msg) {
                self.got += 1;
            }
        }
        let mut sim = SimBuilder::new(7)
            .network(Network::new(LinkSpec::ideal()))
            .build();
        sim.add_actor(NodeId(0), Spammer { peer: NodeId(1) });
        let sink = sim.add_actor(NodeId(1), Sink { got: 0 });
        // Disconnect the sink from t=5ms.
        sim.schedule_net_change(SimTime::from_millis(5), |n| {
            n.set_connectivity(NodeId(1), crate::net::Connectivity::Disconnected);
        });
        sim.run(Until::At(SimTime::from_millis(10)));
        let got = sim.get(sink).unwrap().got;
        assert!((4..=5).contains(&got), "got={got}");
        assert!(sim.metrics().counter("sim.dropped.Disconnected") >= 4);
    }

    #[test]
    fn step_nth_reorders_but_keeps_time_monotone() {
        struct Collector {
            got: Vec<u32>,
        }
        impl Actor<Msg> for Collector {
            fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: NodeId, msg: Msg) {
                if let Msg::Ping(n) = msg {
                    self.got.push(n);
                }
            }
        }
        let mut sim: Sim<Msg> = SimBuilder::new(11).build();
        let collector = sim.add_actor(NodeId(0), Collector { got: Vec::new() });
        sim.inject(SimTime::from_millis(1), NodeId(9), NodeId(0), Msg::Ping(1));
        sim.inject(SimTime::from_millis(2), NodeId(9), NodeId(0), Msg::Ping(2));
        sim.inject(SimTime::from_millis(3), NodeId(9), NodeId(0), Msg::Ping(3));
        // Drain the Start event first, then deliver out of order: 3, 1, 2.
        assert!(sim.step());
        let pending = sim.pending_events();
        assert_eq!(pending.len(), 3);
        assert!(matches!(
            pending[0],
            PendingEvent::Deliver { to: NodeId(0), .. }
        ));
        assert!(sim.step_nth(2));
        assert_eq!(sim.now(), SimTime::from_millis(3));
        assert!(sim.step_nth(0));
        // The overtaken 1ms delivery ran late; the clock did not rewind.
        assert_eq!(sim.now(), SimTime::from_millis(3));
        assert!(sim.step());
        assert!(!sim.step_nth(0), "queue exhausted");
        let c = sim.get(collector).unwrap();
        assert_eq!(c.got, vec![3, 1, 2]);
    }

    #[test]
    fn executed_events_carry_seq_identity_and_cause() {
        let (mut sim, _) = build(4);
        // Start events were scheduled externally.
        assert!(sim.step());
        let start = sim.last_executed().expect("an event ran");
        assert!(matches!(start.desc, PendingEvent::Start { .. }));
        assert_eq!(start.caused_by, None);
        let start_seq = start.desc.seq();
        // The client's on_start sent Ping(1); that delivery was caused
        // by the start event and keeps its queue seq when surfaced.
        let ping = sim
            .pending_events()
            .into_iter()
            .find(|ev| matches!(ev, PendingEvent::Deliver { .. }))
            .expect("ping in flight");
        sim.run(Until::Idle);
        let deliveries: Vec<ExecutedEvent> = {
            // Replaying the same seed, collect every executed event.
            let (mut sim, _) = build(4);
            let mut seen = Vec::new();
            while sim.step() {
                seen.extend(sim.last_executed());
            }
            seen
        };
        let ping_exec = deliveries
            .iter()
            .find(|ev| ev.desc.seq() == ping.seq())
            .expect("ping executed");
        assert_eq!(ping_exec.caused_by, Some(start_seq));
        assert_eq!(ping_exec.desc.node(), Some(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_actor_registration_panics() {
        let mut sim: Sim<Msg> = SimBuilder::new(0).build();
        sim.add_actor(NodeId(0), Server);
        sim.add_actor(NodeId(0), Server);
    }

    #[test]
    fn inject_delivers_external_stimuli() {
        let mut sim: Sim<Msg> = SimBuilder::new(0).build();
        sim.add_actor(NodeId(1), Server);
        sim.add_actor(NodeId(0), Client::new(NodeId(1)));
        sim.inject(SimTime::from_millis(50), NodeId(9), NodeId(1), Msg::Ping(5));
        sim.run(Until::Idle);
        // Server answered the injected ping to node 9 (unregistered).
        assert_eq!(sim.metrics().counter("sim.no_actor"), 1);
    }

    #[test]
    fn event_cap_stops_runaway_protocols() {
        struct LoopBack;
        impl Actor<Msg> for LoopBack {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(SimDuration::from_micros(1), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _: TimerId, _: u64) {
                ctx.set_timer(SimDuration::from_micros(1), 0);
            }
        }
        let mut sim: Sim<Msg> = SimBuilder::new(0).max_events(1_000).build();
        sim.add_actor(NodeId(0), LoopBack);
        assert_eq!(sim.run(Until::Idle), RunOutcome::EventCapHit);
        assert!(sim.events_processed() <= 1_000);
    }

    #[test]
    fn builder_telemetry_and_capacity_shape_the_trace() {
        let mut quiet: Sim<Msg> = SimBuilder::new(1).telemetry(false).build();
        quiet.trace_mut().record(SimTime::ZERO, NodeId(0), "x", "");
        assert!(quiet.trace().is_empty());
        let mut bounded: Sim<Msg> = SimBuilder::new(1).trace_capacity(4).build();
        for _ in 0..6 {
            bounded
                .trace_mut()
                .record(SimTime::ZERO, NodeId(0), "x", "");
        }
        assert_eq!(bounded.trace().len(), 4);
    }

    #[test]
    fn peak_pending_tracks_queue_depth() {
        let mut sim: Sim<Msg> = SimBuilder::new(2).build();
        sim.add_actor(NodeId(0), Server);
        for i in 0..10 {
            sim.inject(SimTime::from_millis(i), NodeId(9), NodeId(0), Msg::Ping(0));
        }
        assert_eq!(sim.peak_pending(), 11, "start event + 10 injections");
        sim.run(Until::Idle);
        assert_eq!(sim.peak_pending(), 11);

        // A cancelled timer leaves the queue: with each write's retry
        // ladder cancelled by its ack, the peak is the busiest instant's
        // live events (the first write's ladder, the write in flight and
        // the later writes still to come), not every rung ever armed.
        let writes: u32 = 4;
        let net = Network::new(LinkSpec::lan());
        let mut sim: Sim<Msg> = SimBuilder::new(2).network(net).build();
        sim.add_actor(NodeId(0), Writer { ladder: Vec::new() });
        sim.add_actor(NodeId(1), Server);
        for n in 0..writes {
            let at = SimTime::from_millis(10 * u64::from(n));
            sim.inject(at, NodeId(9), NodeId(0), Msg::Ping(n));
        }
        assert_eq!(sim.run(Until::Idle), RunOutcome::Quiesced);
        assert_eq!(sim.timers_reaped(), u64::from(writes) * LADDER);
        assert_eq!(
            sim.peak_pending() as u64,
            LADDER + 1 + u64::from(writes - 1)
        );
    }

    /// Rungs in a [`Writer`]'s retry ladder.
    const LADDER: u64 = 32;

    /// `Ping(n)` from outside writes `n` to the server at node 1 and
    /// pre-arms a ladder of far-off retry timers; the server's `Pong`
    /// acks the write and cancels the whole ladder.
    struct Writer {
        ladder: Vec<TimerId>,
    }

    impl Actor<Msg> for Writer {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _: NodeId, msg: Msg) {
            match msg {
                Msg::Ping(n) => {
                    ctx.send(NodeId(1), Msg::Ping(n));
                    self.ladder = (1..=LADDER)
                        .map(|rung| ctx.set_timer(SimDuration::from_secs(rung), 0))
                        .collect();
                }
                Msg::Pong(_) => {
                    for id in self.ladder.drain(..) {
                        ctx.cancel_timer(id);
                    }
                }
            }
        }
    }

    /// The peak number of timer-table chunks allocated while 3 125
    /// writes, one at a time, each arm a [`Writer`] ladder and cancel
    /// it on the ack: 100 000 timers, never more than 32 live at once.
    fn peak_chunks_under_ladder_churn(keep_spent_chunks: bool) -> usize {
        let net = Network::new(LinkSpec::lan());
        let mut sim: Sim<Msg> = SimBuilder::new(5).network(net).build();
        sim.timers.keep_spent_chunks = keep_spent_chunks;
        sim.add_actor(NodeId(0), Writer { ladder: Vec::new() });
        sim.add_actor(NodeId(1), Server);
        let mut peak = 0;
        for n in 0..3_125 {
            sim.inject(sim.now(), NodeId(9), NodeId(0), Msg::Ping(n));
            while sim.step() {
                peak = peak.max(sim.timers.resident());
            }
        }
        assert_eq!(sim.timers_reaped(), 100_000);
        assert_eq!(sim.pending_len(), 0);
        peak
    }

    #[test]
    fn timer_table_holds_only_chunks_with_a_live_timer() {
        let peak = peak_chunks_under_ladder_churn(false);
        assert!(peak <= 2, "{peak} chunks resident at once");
    }

    /// Known-bad for the bound above: a table that never frees a spent
    /// chunk keeps one per 1 024 ids ever armed.
    #[test]
    fn timer_table_bound_catches_a_table_that_keeps_spent_chunks() {
        let peak = peak_chunks_under_ladder_churn(true);
        assert!(peak > 2, "only {peak} chunks resident at once");
    }

    #[test]
    fn timer_table_cancel_of_an_id_in_a_freed_chunk_reaps_nothing() {
        // Ids 0..1 099 fire at 1 ms: chunk 0 is spent and freed, chunk
        // 1 stays as the one ids are still handed out from.
        let script: Vec<(u64, Msg)> = (0..1_100).map(|_| (0, Msg::Ping(1))).collect();
        let (mut sim, alarm) = alarm(&script);
        sim.run(Until::At(SimTime::from_millis(1)));
        assert_eq!(sim.get(alarm).unwrap().fired.len(), 1_100);
        assert!(sim.timers.chunks[0].is_none(), "chunk 0 was freed");
        assert_eq!(sim.timers.resident(), 1);
        // A new timer takes over a freed queue slot; cancels of ids in
        // the freed chunk and of a fired id in the open one find nothing.
        let now = sim.now();
        sim.inject(now, NodeId(9), NodeId(0), Msg::Ping(7));
        for n in [0, 5, 1_023, 1_099] {
            sim.inject(now, NodeId(9), NodeId(0), Msg::Pong(n));
        }
        sim.run(Until::At(now));
        assert_eq!(sim.timers_reaped(), 0);
        assert_eq!(sim.pending_len(), 1, "the new timer is still armed");
        assert_eq!(sim.run(Until::Idle), RunOutcome::Quiesced);
        assert_eq!(sim.get(alarm).unwrap().fired.last(), Some(&7));
    }

    /// A queued entry for a 16-byte message is 56 bytes and its list
    /// links another 8, in an array of their own. The entry's byte
    /// budget: time 8, seq 8, kind 32 (`Deliver`'s two node ids and the
    /// message, or `Timer`'s node, id and tag, plus the variant tag),
    /// cause 8. A new field in `QueueEntry`, `Event` or `Link` has to
    /// find its bytes inside that budget.
    #[test]
    fn a_queue_entry_is_56_bytes_and_its_links_8() {
        use crate::queue::Link;
        use std::mem::size_of;

        /// A 16-byte message with a niche, like most protocol enums.
        #[allow(dead_code)]
        enum Tagged {
            Short(u32),
            Long { seq: u64, len: u32 },
        }
        fn check<M>() {
            assert_eq!(size_of::<M>(), 16);
            assert_eq!(size_of::<EventKind<M>>(), 32);
            assert_eq!(size_of::<Event<M>>(), 40);
            assert_eq!(size_of::<QueueEntry<Event<M>>>(), 56);
            // A vacant entry costs no tag: `None` sits in the kind's niche.
            assert_eq!(size_of::<Option<QueueEntry<Event<M>>>>(), 56);
        }
        check::<[u64; 2]>();
        check::<Tagged>();
        assert_eq!(size_of::<Link>(), 8);
    }

    #[test]
    fn sparse_node_ids_fall_back_to_the_map_index() {
        let mut sim: Sim<Msg> = SimBuilder::new(0).build();
        let far = NodeId(u32::MAX - 1);
        sim.add_actor(far, Server);
        sim.add_actor(NodeId(0), Client::new(far));
        assert_eq!(sim.run(Until::Idle), RunOutcome::Quiesced);
        assert_eq!(sim.metrics().counter("sim.delivered"), 2);
        assert_eq!(sim.node_ids(), vec![NodeId(0), far]);
        assert!(sim.get(ActorHandle::<Server>::of(far)).is_some());
    }

    /// Arms timers on request and records what fires.
    struct Alarm {
        fired: Vec<u64>,
        armed: Vec<TimerId>,
    }

    /// `Ping(ms)` arms a timer `ms` out, tagged `ms`; `Pong(n)` cancels
    /// the `n`-th timer armed.
    impl Actor<Msg> for Alarm {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _: NodeId, msg: Msg) {
            match msg {
                Msg::Ping(ms) => {
                    let id = ctx.set_timer(SimDuration::from_millis(u64::from(ms)), u64::from(ms));
                    self.armed.push(id);
                }
                Msg::Pong(n) => ctx.cancel_timer(self.armed[n as usize]),
            }
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, Msg>, _: TimerId, tag: u64) {
            self.fired.push(tag);
        }
    }

    fn alarm(script: &[(u64, Msg)]) -> (Sim<Msg>, ActorHandle<Alarm>) {
        let mut sim: Sim<Msg> = SimBuilder::new(3).build();
        let alarm = sim.add_actor(
            NodeId(0),
            Alarm {
                fired: Vec::new(),
                armed: Vec::new(),
            },
        );
        for (at_ms, msg) in script {
            sim.inject(
                SimTime::from_millis(*at_ms),
                NodeId(9),
                NodeId(0),
                msg.clone(),
            );
        }
        (sim, alarm)
    }

    #[test]
    fn cancel_after_fire_and_double_cancel_are_noops() {
        let (mut sim, alarm) = alarm(&[
            (0, Msg::Ping(5)),  // timer 0, fires at 5 ms
            (0, Msg::Ping(50)), // timer 1, cancelled at 10 ms
            (10, Msg::Pong(1)),
        ]);
        sim.run(Until::At(SimTime::from_millis(10)));
        assert_eq!(sim.get(alarm).unwrap().fired, [5]);
        assert_eq!(sim.timers_reaped(), 1);
        assert_eq!(sim.pending_len(), 0);

        // Cancel the fired timer, cancel the cancelled one again, and
        // then arm a third — which takes over a freed queue slot.
        let now = sim.now();
        sim.inject(now, NodeId(9), NodeId(0), Msg::Pong(0));
        sim.inject(now, NodeId(9), NodeId(0), Msg::Pong(1));
        sim.run(Until::At(now));
        assert_eq!(sim.timers_reaped(), 1, "neither cancel found a timer");
        assert_eq!(sim.pending_len(), 0);
        sim.inject(now, NodeId(9), NodeId(0), Msg::Ping(7));
        sim.run(Until::At(now));
        assert_eq!(sim.pending_len(), 1);

        // The stale cancels again: the new timer must not be their victim.
        sim.inject(now, NodeId(9), NodeId(0), Msg::Pong(0));
        sim.inject(now, NodeId(9), NodeId(0), Msg::Pong(1));
        sim.run(Until::At(now));
        assert_eq!(sim.timers_reaped(), 1);
        assert_eq!(sim.pending_len(), 1);
        assert_eq!(sim.run(Until::Idle), RunOutcome::Quiesced);
        assert_eq!(sim.get(alarm).unwrap().fired, [5, 7]);
        assert_eq!(sim.events_processed(), sim.events_dispatched() + 1);
    }

    #[test]
    fn a_cancelled_timer_is_no_pending_event_and_no_step_nth_choice() {
        let (mut sim, alarm) = alarm(&[
            (0, Msg::Ping(20)),
            (0, Msg::Ping(30)),
            (0, Msg::Ping(40)),
            (1, Msg::Pong(1)),
        ]);
        sim.run(Until::At(SimTime::from_millis(1)));
        let pending = sim.pending_events();
        let due: Vec<u64> = pending.iter().map(|ev| ev.time().as_micros()).collect();
        assert_eq!(due, [20_000, 40_000], "the 30 ms timer left the queue");
        assert!(pending
            .iter()
            .all(|ev| matches!(ev, PendingEvent::Timer { .. })));
        // Rank 1 is the 40 ms timer, and there is no rank 2.
        assert!(!sim.step_nth(2));
        assert!(sim.step_nth(1));
        assert_eq!(sim.get(alarm).unwrap().fired, [40]);
        assert!(sim.step_nth(0));
        assert!(!sim.step_nth(0), "nothing left to choose");
        assert_eq!(sim.get(alarm).unwrap().fired, [40, 20]);
        assert_eq!(sim.timers_reaped(), 1);
    }
}
