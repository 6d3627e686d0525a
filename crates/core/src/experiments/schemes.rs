//! The unified concurrency-scheme test rig used by experiments E2 and
//! E3: one server actor and one client actor that speak a common
//! protocol, with the scheme under test plugged in behind the server.
//!
//! Schemes and their information-flow behaviour (the Figure 2 contrast):
//!
//! | Scheme | Blocking | Awareness push | Peers learn of edits by |
//! |---|---|---|---|
//! | `TwoPhase` | yes (walls) | none | polling reads |
//! | `Tickle` | yes, bounded by idle transfer | tickle/revoke only | polling reads |
//! | `Soft` | never | conflict warnings + content notices | push |
//! | `Notification` | on exclusive conflicts | access + content notices | push |
//! | `TxGroup` | never (cooperative rule) | rule-driven notices | push |
//! | `Ot` | never (local apply) | the relayed operation itself | push |
//! | `Floor` | until the floor is granted | multicast output (WYSIWIS) | push |

// This rig consumes the engines' typed outcomes itself: it forwards raw
// notices as simulation messages and never publishes them, which makes
// it the pre-bus baseline for the cooperation-event bus.
use std::collections::HashMap;

use odp_concurrency::floor::{FloorControl, FloorEvent, FloorPolicy};
use odp_concurrency::granularity::Granularity;
use odp_concurrency::jupiter::{OpMsg, OtClient, OtServer};
use odp_concurrency::locks::{
    ClientId, LockMode, LockReply, LockScheme, LockTable, NoticeKind, ResourceId,
};
use odp_concurrency::ot::CharOp;
use odp_concurrency::store::{ObjectId, ObjectStore};
use odp_concurrency::twophase::{OpKind, SubmitReply, TxnEvent, TxnId, TxnManager, TxnOp};
use odp_concurrency::txgroup::{CooperativeRule, TransactionGroup};
use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};

/// The document every scheme edits.
pub const DOC: ObjectId = ObjectId(1);
const INITIAL_TEXT: &str = "Shared document body. Edit me cooperatively.";

/// The concurrency-control scheme under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Strict 2PL transactions (Figure 2a baseline).
    TwoPhase,
    /// Tickle locks (Greif & Sarin).
    Tickle,
    /// Soft locks (Colab).
    Soft,
    /// Notification locks (Hornick & Zdonik).
    Notification,
    /// Skarra–Zdonik transaction group, cooperative rule.
    TxGroup,
    /// Operational transformation (client–server).
    Ot,
    /// Floor control (reservation).
    Floor,
}

impl Scheme {
    /// All schemes, in the E3 reporting order.
    pub const ALL: [Scheme; 7] = [
        Scheme::TwoPhase,
        Scheme::Tickle,
        Scheme::Soft,
        Scheme::Notification,
        Scheme::TxGroup,
        Scheme::Ot,
        Scheme::Floor,
    ];

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::TwoPhase => "2pl-transactions",
            Scheme::Tickle => "tickle-locks",
            Scheme::Soft => "soft-locks",
            Scheme::Notification => "notification-locks",
            Scheme::TxGroup => "transaction-group",
            Scheme::Ot => "operation-transform",
            Scheme::Floor => "floor-control",
        }
    }

    /// True if the scheme pushes awareness of edits to peers.
    pub(crate) fn pushes(&self) -> bool {
        !matches!(self, Scheme::TwoPhase | Scheme::Tickle)
    }
}

/// The common wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum CcMsg {
    /// Client → server: start an edit burst with a first insert.
    BurstBegin {
        /// Client-local op tag.
        op: u64,
        /// Cursor position.
        pos: usize,
        /// Text to insert.
        text: String,
    },
    /// Client → server: another insert within the burst.
    BurstEdit {
        /// Client-local op tag.
        op: u64,
        /// Cursor position.
        pos: usize,
        /// Text to insert.
        text: String,
    },
    /// Client → server: finish the burst (commit / release).
    BurstEnd {
        /// Client-local op tag.
        op: u64,
    },
    /// Client → server: poll for changes (pull-based schemes).
    Poll {
        /// The last version this client has seen.
        since: u64,
    },
    /// Client → server: an OT operation.
    OtOp {
        /// Correlation tag `"c<id>-<k>"`.
        tag: String,
        /// The Jupiter message.
        msg: OpMsg,
    },
    /// Server → client: an operation completed.
    Ack {
        /// Echoed op tag.
        op: u64,
    },
    /// Server → client: push notification of a peer's edit.
    Notice {
        /// Correlation tag of the edit.
        tag: String,
        /// Acting client.
        by: u32,
    },
    /// Server → client: poll answer with the tags created since `since`.
    PollReply {
        /// Current version.
        version: u64,
        /// `(version, tag)` entries newer than the poll's `since`.
        entries: Vec<(u64, String)>,
    },
    /// Server → client: OT relay.
    OtRelay {
        /// Correlation tag of the original edit.
        tag: String,
        /// The Jupiter message.
        msg: OpMsg,
    },
}

enum ServerState {
    TwoPhase {
        tm: TxnManager,
        sessions: HashMap<NodeId, TxnId>,
        /// txn -> (client, op tag) awaiting a lock.
        blocked: HashMap<TxnId, (NodeId, u64)>,
    },
    Locks {
        table: LockTable,
        store: ObjectStore,
        /// client -> (op, pos, text) awaiting the lock grant.
        blocked: HashMap<ClientId, (u64, usize, String)>,
    },
    TxGroup {
        group: TransactionGroup<CooperativeRule>,
    },
    Ot {
        server: OtServer,
    },
    Floor {
        floor: FloorControl,
        store: ObjectStore,
        /// client -> first (op, pos, text) awaiting the floor.
        blocked: HashMap<ClientId, (u64, usize, String)>,
    },
}

/// The scheme server actor.
pub(crate) struct SchemeServer {
    scheme: Scheme,
    state: ServerState,
    clients: Vec<NodeId>,
    version: u64,
    version_log: Vec<(u64, String)>,
}

impl SchemeServer {
    /// Creates a server for `scheme`, serving `clients`.
    pub fn new(scheme: Scheme, clients: Vec<NodeId>) -> Self {
        let mut store = ObjectStore::new();
        store.create(DOC, INITIAL_TEXT);
        let state = match scheme {
            Scheme::TwoPhase => {
                let mut tm = TxnManager::new(Granularity::Document);
                tm.store_mut().create(DOC, INITIAL_TEXT);
                ServerState::TwoPhase {
                    tm,
                    sessions: HashMap::new(),
                    blocked: HashMap::new(),
                }
            }
            Scheme::Tickle => ServerState::Locks {
                table: LockTable::new(LockScheme::Tickle {
                    idle_timeout: SimDuration::from_millis(500),
                }),
                store,
                blocked: HashMap::new(),
            },
            Scheme::Soft => ServerState::Locks {
                table: LockTable::new(LockScheme::Soft),
                store,
                blocked: HashMap::new(),
            },
            Scheme::Notification => ServerState::Locks {
                table: LockTable::new(LockScheme::Notification),
                store,
                blocked: HashMap::new(),
            },
            Scheme::TxGroup => {
                let members = clients.iter().map(|n| ClientId(n.0));
                ServerState::TxGroup {
                    group: TransactionGroup::new(store, members, CooperativeRule),
                }
            }
            Scheme::Ot => {
                let mut server = OtServer::new(INITIAL_TEXT);
                for c in &clients {
                    server.add_client(c.0);
                }
                ServerState::Ot { server }
            }
            Scheme::Floor => ServerState::Floor {
                floor: FloorControl::new(FloorPolicy::RequestQueue),
                store,
                blocked: HashMap::new(),
            },
        };
        SchemeServer {
            scheme,
            state,
            clients,
            version: 0,
            version_log: Vec::new(),
        }
    }

    fn tag(client: NodeId, op: u64) -> String {
        format!("c{}-{}", client.0, op)
    }

    /// Records an applied edit: bumps the version, traces creation, and
    /// pushes notices for push-schemes.
    fn applied(&mut self, ctx: &mut Ctx<'_, CcMsg>, by: NodeId, op: u64) {
        self.version += 1;
        let tag = Self::tag(by, op);
        self.version_log.push((self.version, tag.clone()));
        ctx.trace("op.created", &tag);
        ctx.metrics().incr("cc.edits_applied");
        if self.scheme.pushes() && self.scheme != Scheme::Ot {
            for &peer in &self.clients {
                if peer != by {
                    ctx.metrics().incr("cc.notices_sent");
                    ctx.send(
                        peer,
                        CcMsg::Notice {
                            tag: tag.clone(),
                            by: by.0,
                        },
                    );
                }
            }
        }
    }

    fn unit_resource() -> ResourceId {
        ResourceId::with_unit(DOC, odp_concurrency::granularity::UnitId(0))
    }

    fn handle_burst(
        &mut self,
        ctx: &mut Ctx<'_, CcMsg>,
        from: NodeId,
        op: u64,
        pos: usize,
        text: String,
        begin: bool,
    ) {
        // Each arm computes deferred actions under a scoped borrow of the
        // state, then the shared tail performs them (applied/ack/notice).
        let mut applied: Vec<(NodeId, u64)> = Vec::new();
        let mut acks: Vec<(NodeId, u64)> = Vec::new();
        let mut txn_events: Vec<TxnEvent> = Vec::new();
        match &mut self.state {
            ServerState::TwoPhase {
                tm,
                sessions,
                blocked,
            } => {
                let txn = if begin {
                    let t = tm.begin();
                    sessions.insert(from, t);
                    t
                } else {
                    match sessions.get(&from) {
                        Some(&t) => t,
                        None => return, // burst was aborted; drop the edit
                    }
                };
                let txn_op = TxnOp {
                    object: DOC,
                    pos,
                    kind: OpKind::Insert(text),
                };
                match tm.submit_with_events(txn, txn_op, ctx.now()) {
                    Ok((SubmitReply::Done(_), events)) => {
                        txn_events = events;
                        applied.push((from, op));
                        acks.push((from, op));
                    }
                    Ok((SubmitReply::Blocked, events)) => {
                        blocked.insert(txn, (from, op));
                        ctx.metrics().incr("cc.blocked");
                        txn_events = events;
                    }
                    Err(e) => ctx.trace("cc.error", e),
                }
            }
            ServerState::Locks {
                table,
                store,
                blocked,
            } => {
                let resource = Self::unit_resource();
                let client = ClientId(from.0);
                let insert_at = |store: &ObjectStore, pos: usize| {
                    pos.min(
                        store
                            .read(DOC)
                            .map(|v| v.value.chars().count())
                            .unwrap_or(0),
                    )
                };
                if begin {
                    let (reply, notices) =
                        table.request(client, resource, LockMode::Exclusive, ctx.now());
                    for n in &notices {
                        ctx.metrics().incr("cc.lock_notices");
                        ctx.send(
                            NodeId(n.to.0),
                            CcMsg::Notice {
                                tag: format!("lock:{:?}", n.kind),
                                by: from.0,
                            },
                        );
                    }
                    match reply {
                        LockReply::Granted | LockReply::GrantedConflict(_) => {
                            let at = insert_at(store, pos);
                            let _ = store.insert(DOC, at, &text);
                            applied.push((from, op));
                            acks.push((from, op));
                        }
                        LockReply::Queued => {
                            blocked.insert(client, (op, pos, text));
                            ctx.metrics().incr("cc.blocked");
                        }
                    }
                } else {
                    table.touch(client, resource, ctx.now());
                    let at = insert_at(store, pos);
                    let _ = store.insert(DOC, at, &text);
                    applied.push((from, op));
                    acks.push((from, op));
                }
            }
            ServerState::TxGroup { group } => {
                let member = ClientId(from.0);
                let current = group
                    .read(member, DOC, ctx.now())
                    .map(|(v, _)| v)
                    .unwrap_or_default();
                let mut chars: Vec<char> = current.chars().collect();
                let at = pos.min(chars.len());
                for (i, ch) in text.chars().enumerate() {
                    chars.insert(at + i, ch);
                }
                let new_value: String = chars.into_iter().collect();
                match group.write(member, DOC, new_value, ctx.now()) {
                    Ok((_, notices)) => {
                        ctx.metrics().add("cc.group_notices", notices.len() as u64);
                        applied.push((from, op));
                        acks.push((from, op));
                    }
                    Err(e) => ctx.trace("cc.error", e),
                }
            }
            ServerState::Ot { .. } => {
                // OT clients edit locally and use CcMsg::OtOp instead.
                ctx.trace("cc.error", "burst message to OT server");
            }
            ServerState::Floor {
                floor,
                store,
                blocked,
            } => {
                let client = ClientId(from.0);
                let len = store
                    .read(DOC)
                    .map(|v| v.value.chars().count())
                    .unwrap_or(0);
                if begin && floor.holder() != Some(client) {
                    let events = floor.request(client, ctx.now());
                    let granted_now = events
                        .iter()
                        .any(|e| matches!(e, FloorEvent::Granted { who, .. } if *who == client));
                    if granted_now {
                        let _ = store.insert(DOC, pos.min(len), &text);
                        applied.push((from, op));
                        acks.push((from, op));
                    } else {
                        blocked.insert(client, (op, pos, text));
                        ctx.metrics().incr("cc.blocked");
                    }
                } else if floor.holder() != Some(client) {
                    ctx.trace("cc.error", format_args!("{from} edited without the floor"));
                } else {
                    let _ = store.insert(DOC, pos.min(len), &text);
                    applied.push((from, op));
                    acks.push((from, op));
                }
            }
        }
        self.drain_txn_events(ctx, txn_events);
        for (client, op) in applied {
            self.applied(ctx, client, op);
        }
        for (client, op) in acks {
            ctx.send(client, CcMsg::Ack { op });
        }
    }

    fn drain_txn_events(&mut self, ctx: &mut Ctx<'_, CcMsg>, events: Vec<TxnEvent>) {
        for ev in events {
            match ev {
                TxnEvent::OpCompleted { txn, .. } => {
                    let entry = if let ServerState::TwoPhase { blocked, .. } = &mut self.state {
                        blocked.remove(&txn)
                    } else {
                        None
                    };
                    if let Some((client, op)) = entry {
                        self.applied(ctx, client, op);
                        ctx.send(client, CcMsg::Ack { op });
                    }
                }
                TxnEvent::TxnAborted { txn, .. } => {
                    ctx.metrics().incr("cc.aborts");
                    if let ServerState::TwoPhase {
                        blocked, sessions, ..
                    } = &mut self.state
                    {
                        blocked.remove(&txn);
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "order-independent: the predicate only tests values"
                        )]
                        sessions.retain(|_, &mut t| t != txn);
                    }
                }
            }
        }
    }

    fn handle_end(&mut self, ctx: &mut Ctx<'_, CcMsg>, from: NodeId, op: u64) {
        ctx.send(from, CcMsg::Ack { op });
        let mut txn_events: Vec<TxnEvent> = Vec::new();
        // (client, pending op, pos, text) whose deferred first insert can
        // now run.
        let mut unblocked: Vec<(NodeId, u64, usize, String)> = Vec::new();
        match &mut self.state {
            ServerState::TwoPhase { tm, sessions, .. } => {
                if let Some(txn) = sessions.remove(&from) {
                    match tm.commit(txn, ctx.now()) {
                        Ok(events) => txn_events = events,
                        Err(e) => ctx.trace("cc.error", e),
                    }
                }
            }
            ServerState::Locks { table, blocked, .. } => {
                let client = ClientId(from.0);
                for n in table.release_all(client, ctx.now()) {
                    if let NoticeKind::Granted { .. } = n.kind {
                        if let Some((pending_op, pos, text)) = blocked.remove(&n.to) {
                            unblocked.push((NodeId(n.to.0), pending_op, pos, text));
                        }
                    }
                }
            }
            ServerState::TxGroup { .. } | ServerState::Ot { .. } => {}
            ServerState::Floor { floor, blocked, .. } => {
                let client = ClientId(from.0);
                for ev in floor.release(client, ctx.now()).unwrap_or_default() {
                    if let FloorEvent::Granted { who, .. } = ev {
                        if let Some((pending_op, pos, text)) = blocked.remove(&who) {
                            unblocked.push((NodeId(who.0), pending_op, pos, text));
                        }
                    }
                }
            }
        }
        self.drain_txn_events(ctx, txn_events);
        for (client, pending_op, pos, text) in unblocked {
            self.apply_deferred(ctx, client, pending_op, pos, &text);
        }
    }

    /// Applies a previously blocked first insert now that its lock/floor
    /// arrived.
    fn apply_deferred(
        &mut self,
        ctx: &mut Ctx<'_, CcMsg>,
        client: NodeId,
        op: u64,
        pos: usize,
        text: &str,
    ) {
        match &mut self.state {
            ServerState::Locks { store, .. } | ServerState::Floor { store, .. } => {
                let len = store
                    .read(DOC)
                    .map(|v| v.value.chars().count())
                    .unwrap_or(0);
                let _ = store.insert(DOC, pos.min(len), text);
            }
            _ => {}
        }
        self.applied(ctx, client, op);
        ctx.send(client, CcMsg::Ack { op });
    }
}

impl Actor<CcMsg> for SchemeServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CcMsg>) {
        // Tickle maintenance tick.
        if self.scheme == Scheme::Tickle {
            ctx.set_timer(SimDuration::from_millis(100), 1);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, CcMsg>, from: NodeId, msg: CcMsg) {
        match msg {
            CcMsg::BurstBegin { op, pos, text } => {
                self.handle_burst(ctx, from, op, pos, text, true)
            }
            CcMsg::BurstEdit { op, pos, text } => {
                self.handle_burst(ctx, from, op, pos, text, false)
            }
            CcMsg::BurstEnd { op } => self.handle_end(ctx, from, op),
            CcMsg::Poll { since } => {
                let entries: Vec<(u64, String)> = self
                    .version_log
                    .iter()
                    .filter(|(v, _)| *v > since)
                    .cloned()
                    .collect();
                ctx.send(
                    from,
                    CcMsg::PollReply {
                        version: self.version,
                        entries,
                    },
                );
            }
            CcMsg::OtOp { tag, msg } => {
                if let ServerState::Ot { server } = &mut self.state {
                    match server.client_message(from.0, msg) {
                        Ok(fanout) => {
                            self.applied(ctx, from, 0);
                            // `applied` already bumped version; rewrite the
                            // tag in the log to the OT tag for correlation.
                            if let Some(last) = self.version_log.last_mut() {
                                last.1 = tag.clone();
                            }
                            for (client, relay) in fanout {
                                ctx.metrics().incr("cc.notices_sent");
                                ctx.send(
                                    NodeId(client),
                                    CcMsg::OtRelay {
                                        tag: tag.clone(),
                                        msg: relay,
                                    },
                                );
                            }
                        }
                        Err(e) => ctx.trace("cc.error", e),
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, CcMsg>, _timer: TimerId, _tag: u64) {
        let mut unblocked: Vec<(NodeId, u64, usize, String)> = Vec::new();
        if let ServerState::Locks { table, blocked, .. } = &mut self.state {
            for n in table.tick(ctx.now()) {
                match n.kind {
                    NoticeKind::Granted { .. } => {
                        if let Some((op, pos, text)) = blocked.remove(&n.to) {
                            unblocked.push((NodeId(n.to.0), op, pos, text));
                        }
                    }
                    NoticeKind::Revoked { .. } => {
                        ctx.send(
                            NodeId(n.to.0),
                            CcMsg::Notice {
                                tag: "lock:revoked".to_owned(),
                                by: 0,
                            },
                        );
                    }
                    _ => {}
                }
            }
        }
        for (client, op, pos, text) in unblocked {
            self.apply_deferred(ctx, client, op, pos, &text);
        }
        ctx.set_timer(SimDuration::from_millis(100), 1);
    }
}

/// Per-client workload configuration.
#[derive(Debug, Clone)]
pub(crate) struct ClientConfig {
    /// The scheme (must match the server's).
    pub scheme: Scheme,
    /// The server node.
    pub server: NodeId,
    /// Edit bursts to perform.
    pub bursts: u32,
    /// Inserts per burst (including the opening one).
    pub ops_per_burst: u32,
    /// Think time between inserts.
    pub think: SimDuration,
    /// Pause between bursts.
    pub between_bursts: SimDuration,
    /// Poll interval for pull-schemes.
    pub poll_every: SimDuration,
    /// Offset before the first burst (staggers clients).
    pub start_delay: SimDuration,
}

impl ClientConfig {
    /// A reasonable default workload.
    pub fn new(scheme: Scheme, server: NodeId) -> Self {
        ClientConfig {
            scheme,
            server,
            bursts: 5,
            ops_per_burst: 4,
            think: SimDuration::from_millis(150),
            between_bursts: SimDuration::from_millis(300),
            poll_every: SimDuration::from_millis(500),
            start_delay: SimDuration::ZERO,
        }
    }
}

const T_NEXT: u64 = 1;
const T_POLL: u64 = 2;

/// The scheme client actor: runs the scripted editing workload and
/// measures response and notification.
pub(crate) struct SchemeClient {
    config: ClientConfig,
    next_op: u64,
    sent: HashMap<u64, SimTime>,
    bursts_done: u32,
    ops_in_burst: u32,
    in_burst: bool,
    last_version_seen: u64,
    ot: Option<OtClient>,
    /// `(response sample count, total us)` for quick inspection.
    pub responses: Vec<SimDuration>,
}

impl SchemeClient {
    /// Creates a client with the given workload.
    pub fn new(config: ClientConfig) -> Self {
        SchemeClient {
            ot: None, // created at start with our node id
            config,
            next_op: 0,
            sent: HashMap::new(),
            bursts_done: 0,
            ops_in_burst: 0,
            in_burst: false,
            last_version_seen: 0,
            responses: Vec::new(),
        }
    }

    fn issue_edit(&mut self, ctx: &mut Ctx<'_, CcMsg>) {
        let op = self.next_op;
        self.next_op += 1;
        let pos = ctx.rng().index(8);
        let text = "x".to_owned();
        let tag = format!("c{}-{}", ctx.id().0, op);
        ctx.trace("op.issued", &tag);
        self.sent.insert(op, ctx.now());
        if self.config.scheme == Scheme::Ot {
            let ot = self.ot.as_mut().expect("ot client initialised");
            let len = ot.text().chars().count();
            let char_op = CharOp::Insert {
                pos: pos.min(len),
                ch: 'x',
            };
            let msg = ot.local_edit(char_op).expect("valid local edit");
            // Local apply is immediate: response time is zero.
            self.responses.push(SimDuration::ZERO);
            ctx.metrics().observe("cc.response", SimDuration::ZERO);
            ctx.trace("op.applied_locally", &tag);
            ctx.send(self.config.server, CcMsg::OtOp { tag, msg });
            self.after_op(ctx);
        } else if !self.in_burst {
            self.in_burst = true;
            ctx.send(self.config.server, CcMsg::BurstBegin { op, pos, text });
        } else {
            ctx.send(self.config.server, CcMsg::BurstEdit { op, pos, text });
        }
    }

    fn after_op(&mut self, ctx: &mut Ctx<'_, CcMsg>) {
        self.ops_in_burst += 1;
        if self.ops_in_burst >= self.config.ops_per_burst {
            // Close the burst.
            if self.config.scheme != Scheme::Ot {
                let op = self.next_op;
                self.next_op += 1;
                ctx.send(self.config.server, CcMsg::BurstEnd { op });
            }
            self.in_burst = false;
            self.ops_in_burst = 0;
            self.bursts_done += 1;
            if self.bursts_done < self.config.bursts {
                ctx.set_timer(self.config.between_bursts, T_NEXT);
            }
        } else {
            ctx.set_timer(self.config.think, T_NEXT);
        }
    }
}

impl Actor<CcMsg> for SchemeClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CcMsg>) {
        if self.config.scheme == Scheme::Ot {
            self.ot = Some(OtClient::new(ctx.id().0, INITIAL_TEXT));
        }
        ctx.set_timer(self.config.start_delay, T_NEXT);
        if !self.config.scheme.pushes() {
            ctx.set_timer(self.config.poll_every, T_POLL);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, CcMsg>, _from: NodeId, msg: CcMsg) {
        match msg {
            CcMsg::Ack { op } => {
                if let Some(sent_at) = self.sent.remove(&op) {
                    let response = ctx.now().saturating_since(sent_at);
                    self.responses.push(response);
                    ctx.metrics().observe("cc.response", response);
                    self.after_op(ctx);
                }
                // Acks for BurstEnd ops are not in `sent`; ignore them.
            }
            CcMsg::Notice { tag, .. } => {
                ctx.metrics().incr("cc.notices_received");
                if tag.starts_with('c') {
                    ctx.trace("op.seen", tag);
                } else {
                    ctx.trace("lock.notice", tag);
                }
            }
            CcMsg::PollReply { version, entries } => {
                for (_, tag) in entries {
                    ctx.trace("op.seen", tag);
                }
                self.last_version_seen = version;
            }
            CcMsg::OtRelay { tag, msg } => {
                if let Some(ot) = self.ot.as_mut() {
                    ot.server_message(msg);
                    ctx.metrics().incr("cc.notices_received");
                    ctx.trace("op.seen", tag);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, CcMsg>, _timer: TimerId, tag: u64) {
        match tag {
            T_NEXT if self.bursts_done < self.config.bursts => {
                self.issue_edit(ctx);
            }
            T_POLL => {
                ctx.send(
                    self.config.server,
                    CcMsg::Poll {
                        since: self.last_version_seen,
                    },
                );
                ctx.set_timer(self.config.poll_every, T_POLL);
            }
            _ => {}
        }
    }
}

/// Builds a sim with one server (node 0) and `n` clients at the given
/// one-way latency, runs the standard workload to completion, and
/// returns the finished simulation for inspection. Used by experiments
/// E2 and E3.
pub fn run_scheme(scheme: Scheme, n: u32, latency_ms: u64, seed: u64) -> odp_sim::sim::Sim<CcMsg> {
    use odp_sim::prelude::*;
    let link = LinkSpec {
        latency: SimDuration::from_millis(latency_ms),
        jitter: SimDuration::from_micros(latency_ms * 50),
        bytes_per_sec: None,
        loss: 0.0,
    };
    let net = Network::new(link);
    let mut sim = SimBuilder::new(seed).network(net).build();
    let server_node = NodeId(0);
    let clients: Vec<NodeId> = (1..=n).map(NodeId).collect();
    sim.add_actor(server_node, SchemeServer::new(scheme, clients.clone()));
    for (i, &c) in clients.iter().enumerate() {
        let mut cfg = ClientConfig::new(scheme, server_node);
        cfg.start_delay = SimDuration::from_millis(20 * i as u64);
        sim.add_actor(c, SchemeClient::new(cfg));
    }
    sim.run(Until::For(SimDuration::from_secs(60)));
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_sim::prelude::*;

    fn issued_and_acked(sim: &Sim<CcMsg>, n: u32) -> (usize, usize) {
        let issued = sim.trace().with_label("op.issued").count();
        let expected = (n * 5 * 4) as usize;
        (issued, expected)
    }

    #[test]
    fn every_scheme_completes_the_workload() {
        for scheme in Scheme::ALL {
            let sim = run_scheme(scheme, 3, 10, 7);
            let (issued, expected) = issued_and_acked(&sim, 3);
            assert_eq!(issued, expected, "{scheme:?} issued");
            assert_eq!(
                sim.metrics().histogram("cc.response").map(|h| h.len()),
                Some(expected),
                "{scheme:?} responses"
            );
        }
    }

    #[test]
    fn ot_response_is_zero_and_twophase_is_not() {
        let ot = run_scheme(Scheme::Ot, 3, 50, 7);
        let ot_mean = {
            let mut h = ot.metrics().histogram("cc.response").unwrap().clone();
            h.summary().mean
        };
        assert_eq!(ot_mean, SimDuration::ZERO);
        let tp = run_scheme(Scheme::TwoPhase, 3, 50, 7);
        let tp_mean = {
            let mut h = tp.metrics().histogram("cc.response").unwrap().clone();
            h.summary().mean
        };
        assert!(
            tp_mean >= SimDuration::from_millis(90),
            "2PL pays RTTs: {tp_mean}"
        );
    }

    #[test]
    fn push_schemes_notify_and_pull_schemes_poll() {
        let soft = run_scheme(Scheme::Soft, 3, 10, 7);
        assert!(soft.metrics().counter("cc.notices_sent") > 0);
        let pairs = soft.trace().cause_effect_pairs("op.issued", "op.seen");
        assert!(!pairs.is_empty(), "soft locks flow awareness");
        let tp = run_scheme(Scheme::TwoPhase, 3, 10, 7);
        assert_eq!(
            tp.metrics().counter("cc.notices_sent"),
            0,
            "walls: no awareness push"
        );
        // ...but polling eventually reveals the edits.
        let poll_pairs = tp.trace().cause_effect_pairs("op.issued", "op.seen");
        assert!(
            !poll_pairs.is_empty(),
            "polling still reveals changes eventually"
        );
    }

    #[test]
    fn twophase_blocks_under_contention() {
        let sim = run_scheme(Scheme::TwoPhase, 4, 10, 9);
        assert!(
            sim.metrics().counter("cc.blocked") > 0,
            "bursts collide on the document lock"
        );
    }

    #[test]
    fn txgroup_never_blocks() {
        let sim = run_scheme(Scheme::TxGroup, 4, 10, 9);
        assert_eq!(sim.metrics().counter("cc.blocked"), 0);
        assert!(sim.metrics().counter("cc.group_notices") > 0);
    }
}
