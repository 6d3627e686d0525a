//! The multicast protocol engine: reliability and delivery orderings.
//!
//! The engine is *sans-IO*: it consumes inputs (`mcast`, `on_message`,
//! `on_tick`) and returns a [`Step`] of messages to transmit and payloads
//! to deliver. This keeps the protocol unit-testable without a simulator
//! and lets upper layers (streams, shared workspaces) embed it directly.
//! [`crate::actors::GroupActor`] adapts an engine onto an
//! [`odp_sim::actor::Actor`].
//!
//! Supported orderings (paper §4.2.2 iv: "multicast transport protocols
//! are necessary to enable group communication"):
//!
//! - [`Ordering::Unordered`] — deliver on arrival;
//! - [`Ordering::Fifo`] — per-sender order via sequence numbers;
//! - [`Ordering::Causal`] — vector-clock delivery condition;
//! - [`Ordering::Total`] — a sequencer (the view leader) assigns a global
//!   sequence; everyone delivers in that sequence.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

use odp_fabric::{SeqSet, SortedVecMap, SpanCarrier};
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};

use crate::membership::{GroupId, View};
use crate::vclock::VectorClock;

/// Uniquely identifies a multicast message: origin plus per-origin
/// sequence number (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    /// Sending node.
    pub origin: NodeId,
    /// Per-origin sequence number, starting at 1.
    pub seq: u64,
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// Delivery ordering disciplines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ordering {
    /// Deliver on arrival.
    #[default]
    Unordered,
    /// Per-sender FIFO.
    Fifo,
    /// Causal order (vector clocks).
    Causal,
    /// Total order via a sequencer.
    Total,
}

/// Reliability disciplines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reliability {
    /// Fire and forget.
    BestEffort,
    /// Positive acks with retransmission until acked (or retries exhausted).
    Reliable {
        /// How long to wait for an ack before retransmitting.
        retransmit_after: SimDuration,
        /// Give up after this many retransmissions per receiver.
        max_retries: u32,
    },
}

impl Reliability {
    /// A reasonable reliable default: 200 ms retransmit, 10 retries.
    pub fn reliable() -> Self {
        Reliability::Reliable {
            retransmit_after: SimDuration::from_millis(200),
            max_retries: 10,
        }
    }
}

/// A data message on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct DataMsg<P> {
    /// Unique id (also carries the FIFO sequence as `id.seq`).
    pub id: MsgId,
    /// Destination group.
    pub group: GroupId,
    /// Causal timestamp (present only under [`Ordering::Causal`]).
    pub vclock: Option<VectorClock>,
    /// Piggybacked telemetry span.
    pub span: Option<SpanCarrier>,
    /// Application payload.
    pub payload: P,
}

/// Wire messages exchanged by group members.
#[derive(Debug, Clone, PartialEq)]
pub enum GcMsg<P> {
    /// Application data.
    Data(DataMsg<P>),
    /// Positive acknowledgement of `Data` or `SeqAssign`.
    Ack {
        /// The acknowledged message id.
        id: MsgId,
    },
    /// Ask the sequencer to order `id` (total ordering only).
    SeqRequest {
        /// The message to order.
        id: MsgId,
    },
    /// Sequencer's ordering decision (total ordering only).
    SeqAssign {
        /// Identifies the assignment itself for ack/retransmit purposes.
        assign_id: MsgId,
        /// The message being ordered.
        id: MsgId,
        /// Its position in the total order (1-based).
        total: u64,
    },
    /// A group RPC request (see [`crate::rpc`]).
    RpcRequest {
        /// Correlation id, unique per caller.
        call: u64,
        /// Optional agreed execution instant (group invocation).
        execute_at: Option<SimTime>,
        /// Piggybacked telemetry span (the caller's `rpc.call` root).
        span: Option<SpanCarrier>,
        /// Application payload.
        payload: P,
    },
    /// A group RPC reply.
    RpcReply {
        /// Correlation id from the request.
        call: u64,
        /// Piggybacked telemetry span (the responder's `rpc.serve`).
        span: Option<SpanCarrier>,
        /// Application payload.
        payload: P,
    },
    /// A locally injected application command (never sent between nodes);
    /// workload generators use it to script member behaviour via
    /// [`odp_sim::sim::Sim::inject`]. The engine ignores it; actor
    /// adapters interpret it.
    AppCmd(P),
    /// A membership change: install this view (sent by a membership
    /// service, or injected by a harness). Handled by actor adapters.
    InstallView(crate::membership::View),
}

impl<P> GcMsg<P> {
    /// The same envelope around a payload converted by `f`; `f`'s first
    /// error aborts the conversion. Control variants carry no payload
    /// and are copied as they are.
    pub fn try_map_payload<Q, E>(
        &self,
        mut f: impl FnMut(&P) -> Result<Q, E>,
    ) -> Result<GcMsg<Q>, E> {
        Ok(match self {
            GcMsg::Data(d) => GcMsg::Data(DataMsg {
                id: d.id,
                group: d.group,
                vclock: d.vclock.clone(),
                span: d.span,
                payload: f(&d.payload)?,
            }),
            &GcMsg::Ack { id } => GcMsg::Ack { id },
            &GcMsg::SeqRequest { id } => GcMsg::SeqRequest { id },
            &GcMsg::SeqAssign {
                assign_id,
                id,
                total,
            } => GcMsg::SeqAssign {
                assign_id,
                id,
                total,
            },
            GcMsg::RpcRequest {
                call,
                execute_at,
                span,
                payload,
            } => GcMsg::RpcRequest {
                call: *call,
                execute_at: *execute_at,
                span: *span,
                payload: f(payload)?,
            },
            GcMsg::RpcReply {
                call,
                span,
                payload,
            } => GcMsg::RpcReply {
                call: *call,
                span: *span,
                payload: f(payload)?,
            },
            GcMsg::AppCmd(p) => GcMsg::AppCmd(f(p)?),
            GcMsg::InstallView(v) => GcMsg::InstallView(v.clone()),
        })
    }
}

/// A payload delivered to the application, with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery<P> {
    /// The message id.
    pub id: MsgId,
    /// The telemetry span the message carried, if any (the sender's
    /// `gc.mcast` root; receivers mint `gc.deliver` children from it).
    pub span: Option<SpanCarrier>,
    /// The application payload.
    pub payload: P,
}

/// The output of one engine step: messages to put on the wire and
/// payloads now deliverable to the application, in delivery order.
#[derive(Debug)]
pub struct Step<P> {
    /// `(destination, message)` pairs to transmit.
    pub outbound: Vec<(NodeId, GcMsg<P>)>,
    /// Payloads to hand to the application, in order.
    pub delivered: Vec<Delivery<P>>,
}

impl<P> Step<P> {
    fn empty() -> Self {
        Step {
            outbound: Vec::new(),
            delivered: Vec::new(),
        }
    }

    /// Hands `data` to the application. A step delivers one message
    /// far more often than several, so the first slot is allocated
    /// alone instead of as the four a first `push` would take.
    fn deliver(&mut self, data: DataMsg<P>) {
        if self.delivered.is_empty() {
            self.delivered.reserve_exact(1);
        }
        self.delivered.push(Delivery {
            id: data.id,
            span: data.span,
            payload: data.payload,
        });
    }
}

struct RelOut<P> {
    msg: GcMsg<P>,
    /// Peers yet to ack, ascending (as [`View::peers`] lists them).
    pending: Vec<NodeId>,
    last_sent: SimTime,
    retries: u32,
}

/// How far past the delivery cursor an assignment may reach. A
/// sequencer orders positions one after another, so a member holds at
/// most as many as it has not delivered; a `total` further out than
/// this is a malformed frame, and is dropped rather than sized into the
/// ring.
const TOTAL_AHEAD_MAX: u64 = 1 << 16;

/// A `SeqRequest` this member sent for one of its own messages and has
/// no assignment for yet.
struct Unassigned {
    last_sent: SimTime,
    retries: u32,
}

/// Message ids already processed, as one [`SeqSet`] per origin: the
/// state is O(origins + gaps), not O(messages).
#[derive(Default)]
struct IdSet(SortedVecMap<NodeId, SeqSet>);

impl IdSet {
    /// Records `id`; true when it had not been seen.
    fn insert(&mut self, id: MsgId) -> bool {
        self.0.get_mut_or_default(id.origin).insert(id.seq)
    }
}

/// The per-member multicast engine.
///
/// # Examples
///
/// ```
/// use odp_groupcomm::membership::{GroupId, View};
/// use odp_groupcomm::multicast::{GroupEngine, Ordering, Reliability};
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let view = View::initial(GroupId(0), [NodeId(0), NodeId(1)]);
/// let mut a = GroupEngine::new(NodeId(0), view.clone(), Ordering::Fifo, Reliability::BestEffort);
/// let mut b = GroupEngine::new(NodeId(1), view, Ordering::Fifo, Reliability::BestEffort);
///
/// let step = a.mcast("hello", SimTime::ZERO);
/// assert_eq!(step.delivered.len(), 1, "self-delivery is immediate");
/// let (to, msg) = step.outbound.into_iter().next().unwrap();
/// assert_eq!(to, NodeId(1));
/// let got = b.on_message(NodeId(0), msg, SimTime::ZERO);
/// assert_eq!(got.delivered[0].payload, "hello");
/// ```
pub struct GroupEngine<P> {
    me: NodeId,
    view: View,
    ordering: Ordering,
    reliability: Reliability,
    next_seq: u64,
    // Dedup of data/assign messages already processed. Assignment ids
    // are the sequencer's own second range, `u64::MAX / 2` up.
    seen: IdSet,
    // Reliable retransmission state. A sorted vec, not a BTreeMap: the
    // set is small (unacked window), iterated every tick in key order,
    // and contiguous storage keeps the retransmit scan cache-friendly.
    rel_out: SortedVecMap<MsgId, RelOut<P>>,
    // FIFO: next expected per-origin seq and hold-back queue.
    fifo_expected: BTreeMap<NodeId, u64>,
    fifo_holdback: BTreeMap<(NodeId, u64), DataMsg<P>>,
    // Causal: local clock and hold-back.
    vclock: VectorClock,
    causal_holdback: Vec<DataMsg<P>>,
    // Total ordering state.
    total_next_deliver: u64,
    // Slot `i` holds the message ordered at `total_next_deliver + i`,
    // once its assignment is here: a ring that advances with the cursor.
    total_assignments: VecDeque<Option<MsgId>>,
    total_waiting: HashMap<MsgId, DataMsg<P>>,
    // Reliable total order, away from the sequencer: own messages still
    // waiting for their assignment. `SeqRequest` is not in `rel_out` —
    // it is answered by a `SeqAssign`, not acked — so it is resent from
    // here.
    unassigned: SortedVecMap<MsgId, Unassigned>,
    // Sequencer-only state.
    seq_next_assign: u64,
    seq_assign_counter: u64,
    seq_already_assigned: IdSet,
}

impl<P: Clone> GroupEngine<P> {
    /// Creates an engine for member `me` of the given view.
    pub fn new(me: NodeId, view: View, ordering: Ordering, reliability: Reliability) -> Self {
        debug_assert!(view.contains(me), "engine owner must be in the view");
        GroupEngine {
            me,
            view,
            ordering,
            reliability,
            next_seq: 0,
            seen: IdSet::default(),
            rel_out: SortedVecMap::new(),
            fifo_expected: BTreeMap::new(),
            fifo_holdback: BTreeMap::new(),
            vclock: VectorClock::new(),
            causal_holdback: Vec::new(),
            total_next_deliver: 1,
            total_assignments: VecDeque::new(),
            total_waiting: HashMap::new(),
            unassigned: SortedVecMap::new(),
            seq_next_assign: 1,
            seq_assign_counter: 0,
            seq_already_assigned: IdSet::default(),
        }
    }

    /// This member's node id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// This member's vector clock (ticked per causal delivery; checkers
    /// assert it only ever grows).
    pub fn clock(&self) -> &VectorClock {
        &self.vclock
    }

    /// The ordering discipline.
    pub fn ordering(&self) -> Ordering {
        self.ordering
    }

    /// The node acting as sequencer under total ordering.
    pub fn sequencer(&self) -> Option<NodeId> {
        self.view.leader()
    }

    /// Installs a new view; hold-back state for departed members is
    /// dropped. (A full virtual-synchrony flush is out of scope; callers
    /// should quiesce traffic around view changes.)
    pub fn install_view(&mut self, view: View) {
        self.fifo_holdback
            .retain(|(origin, _), _| view.contains(*origin));
        self.causal_holdback.retain(|m| view.contains(m.id.origin));
        self.view = view;
    }

    /// Fast-forwards this member's own multicast sequence to at least
    /// `seq`. A member rejoining after a crash must resume *above*
    /// anything it multicast in a previous incarnation — message ids
    /// are `(origin, seq)` pairs, and a reused id is silently dropped
    /// by every peer's duplicate filter. The resume point comes from
    /// whoever readmits the member (in these tests, the scripted
    /// membership service; in a full system, persisted state or the
    /// view-change protocol).
    pub fn resume_seq_from(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Multicasts `payload` to the group. Returns wire messages and any
    /// immediately deliverable payloads (self-delivery is immediate except
    /// under total ordering, where even the sender waits for the
    /// sequencer).
    pub fn mcast(&mut self, payload: P, now: SimTime) -> Step<P> {
        self.mcast_spanned(payload, now, None)
    }

    /// Like [`GroupEngine::mcast`], but piggybacks a telemetry span on
    /// the data message so deliveries can be stitched into the sender's
    /// causal trace.
    pub fn mcast_spanned(
        &mut self,
        payload: P,
        now: SimTime,
        span: Option<SpanCarrier>,
    ) -> Step<P> {
        self.next_seq += 1;
        let id = MsgId {
            origin: self.me,
            seq: self.next_seq,
        };
        let vclock = if self.ordering == Ordering::Causal {
            self.vclock.tick(self.me);
            Some(self.vclock.clone())
        } else {
            None
        };
        let data = DataMsg {
            id,
            group: self.view.group,
            vclock,
            span,
            payload,
        };
        // Put it on the wire to every peer: build the envelope once and
        // clone handles from it (with a byte payload a clone is a
        // reference-count bump, not a copy of the data) — every peer
        // owns its envelope, which is what the two allow-comments in
        // the fan-out loops below stand for.
        let peers = self.view.peers(self.me);
        let sequencer = match self.ordering {
            Ordering::Total => self.sequencer(),
            _ => None,
        };
        // One slot per peer, and under total order either the request
        // to the sequencer or, at the sequencer, the assignments.
        let ordering_msgs = match sequencer {
            Some(node) if node == self.me => peers.len(),
            Some(_) => 1,
            None => 0,
        };
        let mut step = Step {
            outbound: Vec::with_capacity(peers.len() + ordering_msgs),
            delivered: Vec::new(),
        };
        match self.reliability {
            Reliability::BestEffort => {
                if let Some((last, rest)) = peers.split_last() {
                    let wire = GcMsg::Data(data.clone());
                    for peer in rest {
                        step.outbound.push((*peer, wire.clone())); // odp-check: allow(hot-path-alloc)
                    }
                    step.outbound.push((*last, wire));
                }
            }
            Reliability::Reliable { .. } => {
                let wire = GcMsg::Data(data.clone());
                for peer in &peers {
                    step.outbound.push((*peer, wire.clone())); // odp-check: allow(hot-path-alloc)
                }
                // The retransmit buffer takes the envelope itself — no
                // extra deep clone of the payload — and the peer list
                // as it stands: ascending, all still to ack.
                self.rel_out.insert(
                    id,
                    RelOut {
                        msg: wire,
                        pending: peers,
                        last_sent: now,
                        retries: 0,
                    },
                );
            }
        }
        self.seen.insert(id);
        match self.ordering {
            Ordering::Total => {
                // Hold even our own message until sequenced.
                self.total_waiting.insert(id, data);
                if let Some(seq_node) = sequencer {
                    if seq_node == self.me {
                        self.sequence_msg(id, now, &mut step);
                    } else {
                        self.request_order(seq_node, id, now, &mut step);
                    }
                }
                self.try_deliver_total(&mut step);
            }
            Ordering::Fifo => {
                // Track our own FIFO counter so symmetry holds.
                self.fifo_expected.insert(self.me, id.seq + 1);
                step.deliver(data);
            }
            Ordering::Causal | Ordering::Unordered => step.deliver(data),
        }
        step
    }

    /// Handles an incoming wire message.
    pub fn on_message(&mut self, from: NodeId, msg: GcMsg<P>, now: SimTime) -> Step<P> {
        match msg {
            GcMsg::Data(data) => self.on_data(from, data, now),
            GcMsg::Ack { id } => {
                if let Some(out) = self.rel_out.get_mut(&id) {
                    if let Ok(at) = out.pending.binary_search(&from) {
                        out.pending.remove(at);
                    }
                    if out.pending.is_empty() {
                        self.rel_out.remove(&id);
                    }
                }
                Step::empty()
            }
            GcMsg::SeqRequest { id } => {
                let mut step = Step::empty();
                if self.sequencer() == Some(self.me) {
                    self.sequence_msg(id, now, &mut step);
                }
                step
            }
            GcMsg::SeqAssign {
                assign_id,
                id,
                total,
            } => self.on_assign(from, assign_id, id, total),
            // RPC traffic is handled by the RPC engine; app commands and
            // view changes by the actor adapter.
            GcMsg::RpcRequest { .. }
            | GcMsg::RpcReply { .. }
            | GcMsg::AppCmd(_)
            | GcMsg::InstallView(_) => Step::empty(),
        }
    }

    fn is_reliable(&self) -> bool {
        matches!(self.reliability, Reliability::Reliable { .. })
    }

    /// The step every received `Data`/`SeqAssign` starts from: under
    /// reliable delivery the ack to `from` (fresh or duplicate alike),
    /// otherwise nothing.
    fn ack_step(&self, from: NodeId, id: MsgId) -> Step<P> {
        let mut step = Step::empty();
        if self.is_reliable() {
            step.outbound = vec![(from, GcMsg::Ack { id })];
        }
        step
    }

    /// The sequencer's decision that `id` is `total`th: acked whether
    /// fresh or a duplicate, applied once.
    fn on_assign(&mut self, from: NodeId, assign_id: MsgId, id: MsgId, total: u64) -> Step<P> {
        let mut step = self.ack_step(from, assign_id);
        if self.seen.insert(assign_id) {
            if id.origin == self.me {
                self.unassigned.remove(&id);
            }
            self.assign_total(total, id);
            self.try_deliver_total(&mut step);
        }
        step
    }

    fn on_data(&mut self, from: NodeId, data: DataMsg<P>, _now: SimTime) -> Step<P> {
        let mut step = self.ack_step(from, data.id);
        if !self.seen.insert(data.id) {
            return step; // duplicate (retransmission)
        }
        match self.ordering {
            Ordering::Unordered => step.deliver(data),
            Ordering::Fifo => {
                let origin = data.id.origin;
                let expected = self.fifo_expected.entry(origin).or_insert(1);
                if data.id.seq == *expected {
                    // The next in line is delivered without touching
                    // the hold-back, and then whatever it was blocking.
                    *expected += 1;
                    step.deliver(data);
                    while let Some(next) = self.fifo_holdback.remove(&(origin, *expected)) {
                        *expected += 1;
                        step.deliver(next);
                    }
                } else {
                    self.fifo_holdback.insert((origin, data.id.seq), data);
                }
            }
            Ordering::Causal => {
                self.causal_holdback.push(data);
                self.try_deliver_causal(&mut step);
            }
            Ordering::Total => {
                self.total_waiting.insert(data.id, data);
                self.try_deliver_total(&mut step);
            }
        }
        step
    }

    /// Periodic maintenance: retransmits unacked reliable messages, and
    /// under total order asks the current sequencer again for own
    /// messages it has not ordered; both after `retransmit_after`, at
    /// most `max_retries` times.
    pub fn on_tick(&mut self, now: SimTime) -> Step<P> {
        let Reliability::Reliable {
            retransmit_after,
            max_retries,
        } = self.reliability
        else {
            return Step::empty();
        };
        let mut step = Step::empty();
        let mut give_up = Vec::new();
        for (id, out) in self.rel_out.iter_mut() {
            if now.saturating_since(out.last_sent) >= retransmit_after {
                if out.retries >= max_retries {
                    give_up.push(*id);
                    continue;
                }
                out.retries += 1;
                out.last_sent = now;
                for peer in &out.pending {
                    // Retransmitting the stored envelope to each
                    // still-pending peer is the protocol; under
                    // `GcMsg<Payload>` this clone is a handle bump.
                    // odp-check: allow(hot-path-alloc)
                    step.outbound.push((*peer, out.msg.clone()));
                }
            }
        }
        for id in give_up {
            self.rel_out.remove(&id);
        }
        if !self.unassigned.is_empty() {
            self.resend_requests(now, retransmit_after, max_retries, &mut step);
        }
        step
    }

    /// Asks the sequencer to order own message `id`; under reliable
    /// delivery, remembers to ask again until the assignment comes.
    fn request_order(&mut self, sequencer: NodeId, id: MsgId, now: SimTime, step: &mut Step<P>) {
        step.outbound.push((sequencer, GcMsg::SeqRequest { id }));
        if self.is_reliable() {
            let resend = Unassigned {
                last_sent: now,
                retries: 0,
            };
            self.unassigned.insert(id, resend);
        }
    }

    /// Sends again each `SeqRequest` unanswered for `retransmit_after`,
    /// to the current sequencer, and forgets one asked `max_retries`
    /// times.
    fn resend_requests(
        &mut self,
        now: SimTime,
        retransmit_after: SimDuration,
        max_retries: u32,
        step: &mut Step<P>,
    ) {
        let sequencer = self.sequencer();
        self.unassigned.retain(|&id, out| {
            if now.saturating_since(out.last_sent) < retransmit_after {
                return true;
            }
            if out.retries >= max_retries {
                return false;
            }
            out.retries += 1;
            out.last_sent = now;
            if let Some(node) = sequencer {
                step.outbound.push((node, GcMsg::SeqRequest { id }));
            }
            true
        });
    }

    /// Number of reliable messages still awaiting acks.
    pub fn unacked(&self) -> usize {
        self.rel_out.len()
    }

    /// Number of messages parked in hold-back queues.
    pub fn held_back(&self) -> usize {
        self.fifo_holdback.len() + self.causal_holdback.len() + self.total_waiting.len()
    }

    /// Size of the duplicate filter: sequence-number ranges held, over
    /// all origins. One per origin when nothing is outstanding, one
    /// more per gap — never one per message.
    pub fn dedup_ranges(&self) -> usize {
        self.seen.0.values().map(|set| set.ranges().len()).sum()
    }

    /// At the sequencer: gives `id` its place in the total order (once)
    /// and adds the assignment for every peer to `step`.
    fn sequence_msg(&mut self, id: MsgId, now: SimTime, step: &mut Step<P>) {
        if !self.seq_already_assigned.insert(id) {
            return; // duplicate SeqRequest
        }
        let total = self.seq_next_assign;
        self.seq_next_assign += 1;
        self.seq_assign_counter += 1;
        let assign_id = MsgId {
            origin: self.me,
            // Assignment ids live in a separate space from data ids; offset
            // far above any realistic data sequence to avoid collision.
            seq: u64::MAX / 2 + self.seq_assign_counter,
        };
        let assign = GcMsg::SeqAssign {
            assign_id,
            id,
            total,
        };
        let peers = self.view.peers(self.me);
        step.outbound.reserve(peers.len());
        for peer in &peers {
            step.outbound.push((*peer, assign.clone()));
        }
        if self.is_reliable() {
            self.rel_out.insert(
                assign_id,
                RelOut {
                    msg: assign,
                    pending: peers,
                    last_sent: now,
                    retries: 0,
                },
            );
        }
        // Apply locally.
        self.seen.insert(assign_id);
        self.assign_total(total, id);
        self.try_deliver_total(step);
    }

    fn try_deliver_causal(&mut self, step: &mut Step<P>) {
        loop {
            // Causal senders always stamp a clock; a clockless message
            // (a peer in the wrong mode) is simply never deliverable.
            let idx = self.causal_holdback.iter().position(|m| {
                m.vclock
                    .as_ref()
                    .is_some_and(|clock| self.vclock.deliverable(clock, m.id.origin))
            });
            let Some(idx) = idx else { break };
            let data = self.causal_holdback.remove(idx);
            self.vclock.tick(data.id.origin);
            step.deliver(data);
        }
    }

    /// Records that `id` is ordered at `total`. A position the cursor
    /// has passed was delivered already, so its assignment is ignored.
    fn assign_total(&mut self, total: u64, id: MsgId) {
        let Some(ahead) = total.checked_sub(self.total_next_deliver) else {
            return;
        };
        if ahead >= TOTAL_AHEAD_MAX {
            return;
        }
        let slot = ahead as usize;
        if slot >= self.total_assignments.len() {
            self.total_assignments.resize(slot + 1, None);
        }
        self.total_assignments[slot] = Some(id);
    }

    fn try_deliver_total(&mut self, step: &mut Step<P>) {
        while let Some(&Some(id)) = self.total_assignments.front() {
            let Some(data) = self.total_waiting.remove(&id) else {
                break; // assignment known but data not yet arrived
            };
            self.total_assignments.pop_front();
            self.total_next_deliver += 1;
            step.deliver(data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(n: u32) -> View {
        View::initial(GroupId(0), (0..n).map(NodeId))
    }

    fn engines(n: u32, ord: Ordering, rel: Reliability) -> Vec<GroupEngine<&'static str>> {
        (0..n)
            .map(|i| GroupEngine::new(NodeId(i), view(n), ord, rel))
            .collect()
    }

    /// Delivers every outbound message immediately (in-order network).
    fn pump(engines: &mut [GroupEngine<&'static str>], step: Step<&'static str>, from: NodeId) {
        pump_recording(engines, step, from);
    }

    /// [`pump`], returning what each member delivered meanwhile.
    fn pump_recording(
        engines: &mut [GroupEngine<&'static str>],
        mut step: Step<&'static str>,
        from: NodeId,
    ) -> Vec<Vec<&'static str>> {
        let mut delivered = vec![Vec::new(); engines.len()];
        let mut queue: Vec<(NodeId, NodeId, GcMsg<&'static str>)> = step
            .outbound
            .drain(..)
            .map(|(to, m)| (from, to, m))
            .collect();
        while let Some((src, dst, msg)) = queue.pop() {
            let s = engines[dst.0 as usize].on_message(src, msg, SimTime::ZERO);
            delivered[dst.0 as usize].extend(s.delivered.iter().map(|d| d.payload));
            for (to, m) in s.outbound {
                queue.push((dst, to, m));
            }
        }
        delivered
    }

    #[test]
    fn unordered_delivers_everything_once() {
        let mut es = engines(3, Ordering::Unordered, Reliability::BestEffort);
        let step = es[0].mcast("x", SimTime::ZERO);
        assert_eq!(step.delivered.len(), 1);
        assert_eq!(step.outbound.len(), 2);
        for (to, msg) in step.outbound {
            let got = es[to.0 as usize].on_message(NodeId(0), msg, SimTime::ZERO);
            assert_eq!(got.delivered.len(), 1);
        }
    }

    #[test]
    fn fifo_holds_back_out_of_order_messages() {
        let mut es = engines(2, Ordering::Fifo, Reliability::BestEffort);
        let s1 = es[0].mcast("first", SimTime::ZERO);
        let s2 = es[0].mcast("second", SimTime::ZERO);
        let m1 = s1.outbound.into_iter().next().unwrap().1;
        let m2 = s2.outbound.into_iter().next().unwrap().1;
        // Deliver out of order.
        let got2 = es[1].on_message(NodeId(0), m2, SimTime::ZERO);
        assert!(got2.delivered.is_empty(), "second held back");
        assert_eq!(es[1].held_back(), 1);
        let got1 = es[1].on_message(NodeId(0), m1, SimTime::ZERO);
        let texts: Vec<_> = got1.delivered.iter().map(|d| d.payload).collect();
        assert_eq!(texts, vec!["first", "second"]);
        assert_eq!(es[1].held_back(), 0);
    }

    #[test]
    fn causal_respects_happens_before_across_senders() {
        let mut es = engines(3, Ordering::Causal, Reliability::BestEffort);
        // Node 0 multicasts A.
        let sa = es[0].mcast("A", SimTime::ZERO);
        let a_msgs: Vec<_> = sa.outbound;
        // Node 1 receives A, then multicasts B (so B causally follows A).
        let a_to_1 = a_msgs
            .iter()
            .find(|(to, _)| *to == NodeId(1))
            .unwrap()
            .1
            .clone();
        es[1].on_message(NodeId(0), a_to_1, SimTime::ZERO);
        let sb = es[1].mcast("B", SimTime::ZERO);
        let b_to_2 = sb
            .outbound
            .iter()
            .find(|(to, _)| *to == NodeId(2))
            .unwrap()
            .1
            .clone();
        // Node 2 receives B *before* A: must hold B back.
        let got_b = es[2].on_message(NodeId(1), b_to_2, SimTime::ZERO);
        assert!(got_b.delivered.is_empty(), "B must wait for A");
        let a_to_2 = a_msgs
            .iter()
            .find(|(to, _)| *to == NodeId(2))
            .unwrap()
            .1
            .clone();
        let got_a = es[2].on_message(NodeId(0), a_to_2, SimTime::ZERO);
        let texts: Vec<_> = got_a.delivered.iter().map(|d| d.payload).collect();
        assert_eq!(texts, vec!["A", "B"]);
    }

    #[test]
    fn total_order_is_identical_everywhere() {
        let mut es = engines(3, Ordering::Total, Reliability::BestEffort);
        // Nodes 1 and 2 multicast concurrently.
        let s1 = es[1].mcast("from1", SimTime::ZERO);
        let s2 = es[2].mcast("from2", SimTime::ZERO);
        pump(&mut es, s1, NodeId(1));
        pump(&mut es, s2, NodeId(2));
        // All members (including senders) should have delivered both in the
        // same order. We can't see deliveries from pump; instead check no
        // hold-back remains and sequencer assigned 2.
        for e in &es {
            assert_eq!(e.held_back(), 0, "member {} still holding", e.me());
        }
        assert_eq!(es[0].seq_next_assign, 3);
    }

    #[test]
    fn total_order_sender_waits_for_sequencer() {
        let mut es = engines(2, Ordering::Total, Reliability::BestEffort);
        // Node 1 (not the sequencer) multicasts: no self-delivery yet.
        let s = es[1].mcast("x", SimTime::ZERO);
        assert!(s.delivered.is_empty());
        assert_eq!(es[1].held_back(), 1);
        pump(&mut es, s, NodeId(1));
        assert_eq!(es[1].held_back(), 0);
    }

    #[test]
    fn a_lost_sequencing_request_is_sent_again() {
        let rel = Reliability::Reliable {
            retransmit_after: SimDuration::from_millis(10),
            max_retries: 3,
        };
        let mut es = engines(3, Ordering::Total, rel);
        let mut step = es[1].mcast("edit", SimTime::ZERO);
        // The request to the sequencer is lost; the data reaches both
        // peers, which ack it.
        step.outbound
            .retain(|(_, msg)| !matches!(msg, GcMsg::SeqRequest { .. }));
        let delivered = pump_recording(&mut es, step, NodeId(1));
        assert_eq!(es[1].unacked(), 0, "the data itself was acked");
        assert!(
            delivered.iter().all(Vec::is_empty),
            "nothing is ordered yet"
        );
        assert!(
            es[1].on_tick(SimTime::from_millis(9)).outbound.is_empty(),
            "too early to resend"
        );
        let tick = es[1].on_tick(SimTime::from_millis(11));
        assert_eq!(
            tick.outbound,
            vec![(
                NodeId(0),
                GcMsg::SeqRequest {
                    id: MsgId {
                        origin: NodeId(1),
                        seq: 1
                    }
                }
            )],
            "the request alone goes again, to the sequencer"
        );
        let delivered = pump_recording(&mut es, tick, NodeId(1));
        assert_eq!(delivered, vec![vec!["edit"]; 3], "exactly once everywhere");
        for e in &es {
            assert_eq!(e.held_back(), 0, "member {} still holding", e.me());
        }
        // Assigned: the origin stops asking.
        assert!(es[1].on_tick(SimTime::from_millis(100)).outbound.is_empty());
    }

    #[test]
    fn a_sequencing_request_is_resent_at_most_max_retries_times() {
        let rel = Reliability::Reliable {
            retransmit_after: SimDuration::from_millis(10),
            max_retries: 2,
        };
        let mut es = engines(2, Ordering::Total, rel);
        let _ = es[1].mcast("edit", SimTime::ZERO);
        let _ = es[1].on_message(
            NodeId(0),
            GcMsg::Ack {
                id: MsgId {
                    origin: NodeId(1),
                    seq: 1,
                },
            },
            SimTime::ZERO,
        );
        let resent = |tick: Step<&str>| {
            tick.outbound
                .iter()
                .filter(|(_, m)| matches!(m, GcMsg::SeqRequest { .. }))
                .count()
        };
        assert_eq!(resent(es[1].on_tick(SimTime::from_millis(11))), 1);
        assert_eq!(resent(es[1].on_tick(SimTime::from_millis(22))), 1);
        assert_eq!(
            resent(es[1].on_tick(SimTime::from_millis(33))),
            0,
            "retries exhausted"
        );
        assert_eq!(resent(es[1].on_tick(SimTime::from_millis(44))), 0);
    }

    #[test]
    fn an_assignment_far_past_the_cursor_is_dropped_not_sized_into_the_ring() {
        let mut es = engines(2, Ordering::Total, Reliability::BestEffort);
        let id = MsgId {
            origin: NodeId(0),
            seq: 1,
        };
        for total in [TOTAL_AHEAD_MAX + 1, u64::MAX] {
            let assign_id = MsgId {
                origin: NodeId(0),
                seq: total,
            };
            let step = es[1].on_message(
                NodeId(0),
                GcMsg::SeqAssign {
                    assign_id,
                    id,
                    total,
                },
                SimTime::ZERO,
            );
            assert!(step.delivered.is_empty());
        }
        assert!(es[1].total_assignments.is_empty());
        // The group still orders what its sequencer sends.
        let step = es[0].mcast("x", SimTime::ZERO);
        assert_eq!(step.delivered.len(), 1);
        pump(&mut es, step, NodeId(0));
        assert_eq!(es[1].held_back(), 0);
    }

    #[test]
    fn reliable_mode_acks_and_stops_retransmitting() {
        let rel = Reliability::Reliable {
            retransmit_after: SimDuration::from_millis(10),
            max_retries: 3,
        };
        let mut es = engines(2, Ordering::Unordered, rel);
        let step = es[0].mcast("x", SimTime::ZERO);
        assert_eq!(es[0].unacked(), 1);
        let (_, data) = step.outbound.into_iter().next().unwrap();
        let got = es[1].on_message(NodeId(0), data, SimTime::ZERO);
        // Receiver acks.
        let (ack_to, ack) = got.outbound.into_iter().next().unwrap();
        assert_eq!(ack_to, NodeId(0));
        es[0].on_message(NodeId(1), ack, SimTime::ZERO);
        assert_eq!(es[0].unacked(), 0);
        // No retransmissions afterwards.
        let tick = es[0].on_tick(SimTime::from_millis(100));
        assert!(tick.outbound.is_empty());
    }

    #[test]
    fn reliable_mode_retransmits_until_acked() {
        let rel = Reliability::Reliable {
            retransmit_after: SimDuration::from_millis(10),
            max_retries: 3,
        };
        let mut es = engines(2, Ordering::Unordered, rel);
        let _ = es[0].mcast("x", SimTime::ZERO);
        let t1 = es[0].on_tick(SimTime::from_millis(11));
        assert_eq!(t1.outbound.len(), 1, "one retransmission");
        // Duplicate deliveries are suppressed at the receiver.
        let (_, m) = t1.outbound.into_iter().next().unwrap();
        let first = es[1].on_message(NodeId(0), m.clone(), SimTime::ZERO);
        assert_eq!(first.delivered.len(), 1);
        let dup = es[1].on_message(NodeId(0), m, SimTime::ZERO);
        assert!(dup.delivered.is_empty(), "duplicate suppressed");
    }

    #[test]
    fn reliable_mode_gives_up_after_max_retries() {
        let rel = Reliability::Reliable {
            retransmit_after: SimDuration::from_millis(10),
            max_retries: 2,
        };
        let mut es = engines(2, Ordering::Unordered, rel);
        let _ = es[0].mcast("x", SimTime::ZERO);
        assert_eq!(es[0].on_tick(SimTime::from_millis(11)).outbound.len(), 1);
        assert_eq!(es[0].on_tick(SimTime::from_millis(22)).outbound.len(), 1);
        // Third tick: retries exhausted, message dropped from rel state.
        assert!(es[0].on_tick(SimTime::from_millis(33)).outbound.is_empty());
        assert_eq!(es[0].unacked(), 0);
    }

    #[test]
    fn payload_fanout_shares_one_buffer() {
        use odp_fabric::Payload;
        let view = View::initial(GroupId(0), (0..5).map(NodeId));
        let mut e: GroupEngine<Payload> = GroupEngine::new(
            NodeId(0),
            view,
            Ordering::Unordered,
            Reliability::reliable(),
        );
        let payload = Payload::from_slice(b"one big frame, many receivers");
        let step = e.mcast(payload.clone(), SimTime::ZERO);
        assert_eq!(step.outbound.len(), 4);
        for (_, msg) in &step.outbound {
            let GcMsg::Data(d) = msg else {
                panic!("expected data")
            };
            assert!(d.payload.ptr_eq(&payload), "fan-out must not deep-copy");
        }
        assert!(step.delivered[0].payload.ptr_eq(&payload));
        // Retransmissions clone handles out of the stored envelope too.
        let tick = e.on_tick(SimTime::from_millis(500));
        assert_eq!(tick.outbound.len(), 4);
        for (_, msg) in &tick.outbound {
            let GcMsg::Data(d) = msg else {
                panic!("expected data")
            };
            assert!(d.payload.ptr_eq(&payload), "retransmit must not deep-copy");
        }
    }

    #[test]
    fn install_view_drops_holdback_of_departed_members() {
        let mut es = engines(3, Ordering::Fifo, Reliability::BestEffort);
        // Node 0 sends seq 1 and 2; node 2 receives only seq 2 (held back).
        let s1 = es[0].mcast("one", SimTime::ZERO);
        let s2 = es[0].mcast("two", SimTime::ZERO);
        drop(s1);
        let m2 = s2
            .outbound
            .iter()
            .find(|(to, _)| *to == NodeId(2))
            .unwrap()
            .1
            .clone();
        es[2].on_message(NodeId(0), m2, SimTime::ZERO);
        assert_eq!(es[2].held_back(), 1);
        // Node 0 leaves; the stuck message is discarded.
        let new_view = View::initial(GroupId(0), [NodeId(1), NodeId(2)]);
        es[2].install_view(new_view);
        assert_eq!(es[2].held_back(), 0);
    }
}
