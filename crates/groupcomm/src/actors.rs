//! Transport adapters: host a [`GroupEngine`] and an [`RpcEngine`] on
//! any `odp_net` backend, delegating application behaviour to a
//! [`GroupApp`].
//!
//! The actors are written once against the backend-neutral
//! [`NetCtx`] capability trait. A [`GroupActor`] is both an
//! `odp_sim::actor::Actor` (the sim backend hands its `Ctx` straight
//! through, so seeded runs are byte-for-byte identical to the
//! pre-`odp-net` adapters) and an `odp_net::TransportActor` (the TCP
//! backend drives the same handlers over real sockets).

use std::any::Any;
use std::collections::BTreeMap;

use odp_fabric::SpanCarrier;
use odp_net::actor::TransportActor;
use odp_net::ctx::NetCtx;
use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};

use crate::multicast::{Delivery, GcMsg, GroupEngine, Step};
use crate::rpc::{CallOutcome, Quorum, RpcEngine};

/// Timer tags used by [`GroupActor`].
const TICK: u64 = 1;
const EXEC_BASE: u64 = 1_000;

/// Application behaviour plugged into a [`GroupActor`].
///
/// All methods have defaults so simple applications implement only what
/// they need. Callbacks receive the backend-neutral
/// [`NetCtx`] handle, so one app implementation runs on the
/// deterministic simulator and on the TCP transport unchanged.
pub trait GroupApp<P>: 'static {
    /// Called once at simulation start.
    fn on_start(&mut self, ctx: &mut dyn NetCtx<GcMsg<P>>) {
        let _ = ctx;
    }

    /// A locally injected command ([`GcMsg::AppCmd`]) arrived. Return
    /// `Some(payload)` to multicast it to the group.
    fn on_command(&mut self, ctx: &mut dyn NetCtx<GcMsg<P>>, cmd: P) -> Option<P> {
        let _ = ctx;
        Some(cmd)
    }

    /// A group message was delivered in order.
    fn on_deliver(&mut self, ctx: &mut dyn NetCtx<GcMsg<P>>, delivery: Delivery<P>);

    /// An RPC request arrived. Return `Some(reply)` to answer it. If the
    /// request carries `execute_at`, [`GroupApp::on_execute`] fires then.
    fn on_rpc(
        &mut self,
        ctx: &mut dyn NetCtx<GcMsg<P>>,
        from: NodeId,
        call: u64,
        payload: &P,
    ) -> Option<P> {
        let _ = (ctx, from, call, payload);
        None
    }

    /// A group-invocation action reached its agreed execution instant.
    fn on_execute(&mut self, ctx: &mut dyn NetCtx<GcMsg<P>>, call: u64, payload: P) {
        let _ = (ctx, call, payload);
    }

    /// One of this node's outgoing RPC calls finished.
    fn on_rpc_outcome(&mut self, ctx: &mut dyn NetCtx<GcMsg<P>>, outcome: CallOutcome<P>) {
        let _ = (ctx, outcome);
    }
}

/// An actor hosting a group member: multicast engine + RPC engine + app.
///
/// # Examples
///
/// ```
/// use odp_groupcomm::actors::{GroupActor, GroupApp};
/// use odp_groupcomm::membership::{GroupId, View};
/// use odp_groupcomm::multicast::{Delivery, GcMsg, Ordering, Reliability};
/// use odp_net::ctx::NetCtx;
/// use odp_sim::prelude::*;
///
/// struct Counter { seen: u32 }
/// impl GroupApp<String> for Counter {
///     fn on_deliver(&mut self, ctx: &mut dyn NetCtx<GcMsg<String>>, d: Delivery<String>) {
///         self.seen += 1;
///         ctx.trace("delivered", &d.payload);
///     }
/// }
///
/// let view = View::initial(GroupId(0), [NodeId(0), NodeId(1)]);
/// let mut sim = SimBuilder::new(1).build();
/// for id in [NodeId(0), NodeId(1)] {
///     sim.add_actor(id, GroupActor::new(
///         id, view.clone(), Ordering::Causal, Reliability::BestEffort, Counter { seen: 0 },
///     ));
/// }
/// sim.inject(SimTime::ZERO, NodeId(0), NodeId(0), GcMsg::AppCmd("hi".into()));
/// sim.run(Until::Idle);
/// assert_eq!(sim.trace().with_label("delivered").count(), 2);
/// ```
pub struct GroupActor<P, A> {
    engine: GroupEngine<P>,
    rpc: RpcEngine<P>,
    app: A,
    tick_every: SimDuration,
    pending_exec: BTreeMap<u64, (u64, P)>, // timer tag -> (call, payload)
    next_exec_tag: u64,
    telemetry: bool,
    open_calls: BTreeMap<u64, SpanCarrier>, // call id -> rpc.call root span
}

impl<P: Clone + 'static, A: GroupApp<P>> GroupActor<P, A> {
    /// Creates a group actor for `me` with the given protocol parameters.
    pub fn new(
        me: NodeId,
        view: crate::membership::View,
        ordering: crate::multicast::Ordering,
        reliability: Reliability,
        app: A,
    ) -> Self {
        GroupActor {
            engine: GroupEngine::new(me, view, ordering, reliability),
            rpc: RpcEngine::new(me),
            app,
            tick_every: SimDuration::from_millis(50),
            pending_exec: BTreeMap::new(),
            next_exec_tag: EXEC_BASE,
            telemetry: false,
            open_calls: BTreeMap::new(),
        }
    }

    /// Adjusts the maintenance tick period (default 50 ms).
    pub fn set_tick_interval(&mut self, every: SimDuration) {
        self.tick_every = every;
    }

    /// Enables causal span telemetry: multicasts and RPCs mint
    /// [`SpanCarrier`]s from this actor's deterministic rng and record
    /// their opens and closes in the trace's span log. Off by default — minting
    /// draws from the actor's rng stream, so enabling it perturbs runs
    /// that share the seed with an uninstrumented baseline.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
    }

    /// Whether span telemetry is enabled.
    pub fn telemetry(&self) -> bool {
        self.telemetry
    }

    /// Borrows the hosted application (post-run inspection).
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutably borrows the hosted application.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Borrows the multicast engine.
    pub fn engine(&self) -> &GroupEngine<P> {
        &self.engine
    }

    /// Mutably borrows the multicast engine (e.g. to
    /// [`GroupEngine::resume_seq_from`] when re-hosting a member that
    /// crashed in a previous process incarnation).
    pub fn engine_mut(&mut self) -> &mut GroupEngine<P> {
        &mut self.engine
    }

    /// Starts a group RPC to all current peers.
    ///
    /// Intended for use from [`GroupApp`] callbacks via
    /// [`GroupActor::app_mut`] access patterns in tests; during a run,
    /// issue RPCs by injecting app commands and calling this from
    /// [`GroupApp::on_command`] — see `invoke_rpc_now`.
    pub fn rpc_engine_mut(&mut self) -> &mut RpcEngine<P> {
        &mut self.rpc
    }

    fn apply_step(&mut self, ctx: &mut dyn NetCtx<GcMsg<P>>, step: Step<P>) {
        for (to, msg) in step.outbound {
            ctx.send(to, msg);
        }
        for delivery in step.delivered {
            ctx.metrics().incr("gc.delivered");
            if self.telemetry {
                if let Some(parent) = delivery.span {
                    // Each delivery is an instantaneous child span: the
                    // gap back to the root open is the delivery latency.
                    let child = ctx.rng().span_child(&parent);
                    ctx.span_open(child, "gc.deliver");
                    ctx.span_close(child);
                }
            }
            self.app.on_deliver(ctx, delivery);
        }
    }
}

/// Convenience wrapper: a [`GroupActor`] plus helpers to issue RPCs from
/// the workload side by injecting [`GcMsg::AppCmd`] values that the app
/// translates.
pub struct RpcConfig {
    /// Reply deadline.
    pub timeout: SimDuration,
    /// Completion policy.
    pub quorum: Quorum,
    /// Optional agreed execution instant for group invocation.
    pub execute_at: Option<SimTime>,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            timeout: SimDuration::from_millis(500),
            quorum: Quorum::All,
            execute_at: None,
        }
    }
}

use crate::multicast::Reliability;

impl<P: Clone + 'static, A: GroupApp<P>> GroupActor<P, A> {
    /// Issues an RPC to all peers immediately (to be called from app
    /// callbacks executed inside this actor's dispatch).
    pub fn invoke_rpc_now(
        &mut self,
        ctx: &mut dyn NetCtx<GcMsg<P>>,
        payload: P,
        config: RpcConfig,
    ) -> u64 {
        let targets = self.engine.view().peers(self.engine.me());
        let span = if self.telemetry {
            let root = ctx.rng().span_root();
            ctx.span_open(root, "rpc.call");
            Some(root)
        } else {
            None
        };
        let (call, outbound) = self.rpc.invoke_spanned(
            targets,
            payload,
            config.execute_at,
            ctx.now(),
            config.timeout,
            config.quorum,
            span,
        );
        if let Some(root) = span {
            self.open_calls.insert(call, root);
        }
        for (to, msg) in outbound {
            ctx.send(to, msg);
        }
        call
    }

    /// Closes the `rpc.call` root span of a finished call, if telemetry
    /// opened one.
    fn close_call_span(&mut self, ctx: &mut dyn NetCtx<GcMsg<P>>, call: u64) {
        if let Some(root) = self.open_calls.remove(&call) {
            ctx.span_close(root);
        }
    }
}

impl<P: Clone + Any, A: GroupApp<P>> GroupActor<P, A> {
    fn handle_start(&mut self, ctx: &mut dyn NetCtx<GcMsg<P>>) {
        ctx.set_timer(self.tick_every, TICK);
        self.app.on_start(ctx);
    }

    fn handle_message(&mut self, ctx: &mut dyn NetCtx<GcMsg<P>>, from: NodeId, msg: GcMsg<P>) {
        match msg {
            GcMsg::AppCmd(cmd) => {
                if let Some(payload) = self.app.on_command(ctx, cmd) {
                    let span = if self.telemetry {
                        // The mcast root closes at issue time; deliveries
                        // hang their children off it as they land.
                        let root = ctx.rng().span_root();
                        ctx.span_open(root, "gc.mcast");
                        ctx.span_close(root);
                        Some(root)
                    } else {
                        None
                    };
                    let step = self.engine.mcast_spanned(payload, ctx.now(), span);
                    ctx.metrics().incr("gc.mcast");
                    self.apply_step(ctx, step);
                }
            }
            GcMsg::RpcRequest {
                call,
                execute_at,
                span,
                payload,
            } => {
                if let Some(reply) = self.app.on_rpc(ctx, from, call, &payload) {
                    let serve = match span.filter(|_| self.telemetry) {
                        Some(parent) => {
                            let serve = ctx.rng().span_child(&parent);
                            ctx.span_open(serve, "rpc.serve");
                            ctx.span_close(serve);
                            Some(serve)
                        }
                        None => None,
                    };
                    ctx.send(
                        from,
                        GcMsg::RpcReply {
                            call,
                            span: serve,
                            payload: reply,
                        },
                    );
                }
                if let Some(at) = execute_at {
                    let delay = at.saturating_since(ctx.now());
                    let tag = self.next_exec_tag;
                    self.next_exec_tag += 1;
                    self.pending_exec.insert(tag, (call, payload));
                    ctx.set_timer(delay, tag);
                }
            }
            GcMsg::RpcReply {
                call,
                span,
                payload,
            } => {
                if let Some(parent) = span.filter(|_| self.telemetry) {
                    let reply = ctx.rng().span_child(&parent);
                    ctx.span_open(reply, "rpc.reply");
                    ctx.span_close(reply);
                }
                if let Some(outcome) = self.rpc.on_reply(call, from, payload, ctx.now()) {
                    self.close_call_span(ctx, outcome.call);
                    self.app.on_rpc_outcome(ctx, outcome);
                }
            }
            GcMsg::InstallView(view) => {
                ctx.trace("gc.view_installed", &format_args!("v{}", view.id.0));
                self.engine.install_view(view);
            }
            other => {
                let step = self.engine.on_message(from, other, ctx.now());
                self.apply_step(ctx, step);
            }
        }
    }

    fn handle_timer(&mut self, ctx: &mut dyn NetCtx<GcMsg<P>>, tag: u64) {
        if tag == TICK {
            let step = self.engine.on_tick(ctx.now());
            if !step.outbound.is_empty() {
                ctx.metrics()
                    .add("gc.retransmissions", step.outbound.len() as u64);
            }
            self.apply_step(ctx, step);
            for outcome in self.rpc.on_tick(ctx.now()) {
                self.close_call_span(ctx, outcome.call);
                self.app.on_rpc_outcome(ctx, outcome);
            }
            ctx.set_timer(self.tick_every, TICK);
        } else if let Some((call, payload)) = self.pending_exec.remove(&tag) {
            ctx.trace("rpc.executed", &call);
            self.app.on_execute(ctx, call, payload);
        }
    }
}

/// Sim backend: a `&mut Ctx` unsize-coerces to `&mut dyn NetCtx`, whose
/// impl forwards every method 1:1, so hosting through this adapter is
/// byte-for-byte identical to the pre-`odp-net` direct impl.
impl<P: Clone + Any, A: GroupApp<P>> Actor<GcMsg<P>> for GroupActor<P, A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GcMsg<P>>) {
        self.handle_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, GcMsg<P>>, from: NodeId, msg: GcMsg<P>) {
        self.handle_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GcMsg<P>>, _timer: TimerId, tag: u64) {
        self.handle_timer(ctx, tag);
    }
}

/// Real-transport backends (e.g. `odp_net::tcp::TcpNode`) drive the same
/// handlers; peer up/down events are left to the application layer's
/// view-change protocol ([`GcMsg::InstallView`]).
impl<P: Clone + Any, A: GroupApp<P>> TransportActor<GcMsg<P>> for GroupActor<P, A> {
    fn on_start(&mut self, ctx: &mut dyn NetCtx<GcMsg<P>>) {
        self.handle_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx<GcMsg<P>>, from: NodeId, msg: GcMsg<P>) {
        self.handle_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx<GcMsg<P>>, _timer: TimerId, tag: u64) {
        self.handle_timer(ctx, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::{GroupId, View};
    use crate::multicast::Ordering;
    use odp_sim::prelude::*;

    #[derive(Default)]
    struct Recorder {
        delivered: Vec<String>,
        outcomes: Vec<(u64, usize)>,
        executed_at: Vec<SimTime>,
    }

    impl GroupApp<String> for Recorder {
        fn on_deliver(&mut self, ctx: &mut dyn NetCtx<GcMsg<String>>, d: Delivery<String>) {
            self.delivered.push(d.payload.clone());
            ctx.trace("app.deliver", &d.payload);
        }
        fn on_rpc(
            &mut self,
            _ctx: &mut dyn NetCtx<GcMsg<String>>,
            _from: NodeId,
            _call: u64,
            payload: &String,
        ) -> Option<String> {
            Some(format!("re:{payload}"))
        }
        fn on_execute(
            &mut self,
            ctx: &mut dyn NetCtx<GcMsg<String>>,
            _call: u64,
            _payload: String,
        ) {
            self.executed_at.push(ctx.now());
        }
        fn on_rpc_outcome(&mut self, _ctx: &mut dyn NetCtx<GcMsg<String>>, o: CallOutcome<String>) {
            self.outcomes.push((o.call, o.replies.len()));
        }
    }

    fn build(n: u32, ordering: Ordering) -> Sim<GcMsg<String>> {
        let view = View::initial(GroupId(0), (0..n).map(NodeId));
        let mut sim = SimBuilder::new(11).build();
        for i in 0..n {
            sim.add_actor(
                NodeId(i),
                GroupActor::new(
                    NodeId(i),
                    view.clone(),
                    ordering,
                    Reliability::BestEffort,
                    Recorder::default(),
                ),
            );
        }
        sim
    }

    #[test]
    fn total_order_agrees_across_members_under_load() {
        let mut sim = build(4, Ordering::Total);
        // Every member multicasts 5 commands at overlapping times.
        for i in 0..4u32 {
            for k in 0..5u32 {
                sim.inject(
                    SimTime::from_micros((k * 137 + i * 13) as u64),
                    NodeId(i),
                    NodeId(i),
                    GcMsg::AppCmd(format!("m{i}-{k}")),
                );
            }
        }
        sim.run(Until::For(SimDuration::from_secs(5)));
        let reference: Vec<String> = {
            let a: &GroupActor<String, Recorder> = sim.get(ActorHandle::of(NodeId(0))).unwrap();
            a.app().delivered.clone()
        };
        assert_eq!(reference.len(), 20, "all 20 messages delivered");
        for i in 1..4u32 {
            let a: &GroupActor<String, Recorder> = sim.get(ActorHandle::of(NodeId(i))).unwrap();
            assert_eq!(a.app().delivered, reference, "member {i} order differs");
        }
    }

    #[test]
    fn reliable_fifo_survives_a_lossy_link() {
        let view = View::initial(GroupId(0), [NodeId(0), NodeId(1)]);
        let net = Network::new(LinkSpec {
            loss: 0.3,
            ..LinkSpec::lan()
        });
        let mut sim = SimBuilder::new(5).network(net).build();
        for id in [NodeId(0), NodeId(1)] {
            let mut actor = GroupActor::new(
                id,
                view.clone(),
                Ordering::Fifo,
                Reliability::reliable(),
                Recorder::default(),
            );
            actor.set_tick_interval(SimDuration::from_millis(20));
            sim.add_actor(id, actor);
        }
        for k in 0..20u32 {
            sim.inject(
                SimTime::from_millis(k as u64),
                NodeId(0),
                NodeId(0),
                GcMsg::AppCmd(format!("m{k}")),
            );
        }
        sim.run(Until::For(SimDuration::from_secs(30)));
        let b: &GroupActor<String, Recorder> = sim.get(ActorHandle::of(NodeId(1))).unwrap();
        let expect: Vec<String> = (0..20).map(|k| format!("m{k}")).collect();
        assert_eq!(b.app().delivered, expect, "in order despite 30% loss");
    }

    #[test]
    fn rpc_round_trip_with_outcome() {
        struct Caller(Recorder);
        impl GroupApp<String> for Caller {
            fn on_deliver(&mut self, ctx: &mut dyn NetCtx<GcMsg<String>>, d: Delivery<String>) {
                self.0.on_deliver(ctx, d);
            }
            fn on_rpc(
                &mut self,
                ctx: &mut dyn NetCtx<GcMsg<String>>,
                from: NodeId,
                call: u64,
                payload: &String,
            ) -> Option<String> {
                self.0.on_rpc(ctx, from, call, payload)
            }
            fn on_rpc_outcome(
                &mut self,
                ctx: &mut dyn NetCtx<GcMsg<String>>,
                o: CallOutcome<String>,
            ) {
                ctx.trace("rpc.done", &o.replies.len());
                self.0.on_rpc_outcome(ctx, o);
            }
        }
        // Build sim manually so we can drive the RPC from inside a command.
        let view = View::initial(GroupId(0), [NodeId(0), NodeId(1), NodeId(2)]);
        let mut sim: Sim<GcMsg<String>> = SimBuilder::new(2).build();
        // Node 0 issues the call at start via a custom actor.
        struct CallOnStart {
            inner: GroupActor<String, Caller>,
        }
        impl Actor<GcMsg<String>> for CallOnStart {
            fn on_start(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>) {
                Actor::on_start(&mut self.inner, ctx);
                self.inner
                    .invoke_rpc_now(ctx, "ping".to_owned(), RpcConfig::default());
            }
            fn on_message(
                &mut self,
                ctx: &mut Ctx<'_, GcMsg<String>>,
                from: NodeId,
                m: GcMsg<String>,
            ) {
                Actor::on_message(&mut self.inner, ctx, from, m);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>, t: TimerId, tag: u64) {
                Actor::on_timer(&mut self.inner, ctx, t, tag);
            }
        }
        sim.add_actor(
            NodeId(0),
            CallOnStart {
                inner: GroupActor::new(
                    NodeId(0),
                    view.clone(),
                    Ordering::Unordered,
                    Reliability::BestEffort,
                    Caller(Recorder::default()),
                ),
            },
        );
        for i in 1..3u32 {
            sim.add_actor(
                NodeId(i),
                GroupActor::new(
                    NodeId(i),
                    view.clone(),
                    Ordering::Unordered,
                    Reliability::BestEffort,
                    Caller(Recorder::default()),
                ),
            );
        }
        sim.run(Until::For(SimDuration::from_secs(2)));
        assert_eq!(sim.trace().with_label("rpc.done").count(), 1);
        let caller: &CallOnStart = sim.get(ActorHandle::of(NodeId(0))).unwrap();
        assert_eq!(caller.inner.app().0.outcomes, vec![(0, 2)]);
    }

    #[test]
    fn telemetry_spans_form_a_well_formed_rpc_chain() {
        use odp_telemetry::collector::Collector;

        struct CallOnStart {
            inner: GroupActor<String, Recorder>,
        }
        impl Actor<GcMsg<String>> for CallOnStart {
            fn on_start(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>) {
                Actor::on_start(&mut self.inner, ctx);
                self.inner
                    .invoke_rpc_now(ctx, "ping".to_owned(), RpcConfig::default());
            }
            fn on_message(
                &mut self,
                ctx: &mut Ctx<'_, GcMsg<String>>,
                from: NodeId,
                m: GcMsg<String>,
            ) {
                Actor::on_message(&mut self.inner, ctx, from, m);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>, t: TimerId, tag: u64) {
                Actor::on_timer(&mut self.inner, ctx, t, tag);
            }
        }
        let view = View::initial(GroupId(0), [NodeId(0), NodeId(1), NodeId(2)]);
        let mut sim: Sim<GcMsg<String>> = SimBuilder::new(17).build();
        let mut caller = GroupActor::new(
            NodeId(0),
            view.clone(),
            Ordering::Unordered,
            Reliability::BestEffort,
            Recorder::default(),
        );
        caller.set_telemetry(true);
        sim.add_actor(NodeId(0), CallOnStart { inner: caller });
        for i in 1..3u32 {
            let mut member = GroupActor::new(
                NodeId(i),
                view.clone(),
                Ordering::Unordered,
                Reliability::BestEffort,
                Recorder::default(),
            );
            member.set_telemetry(true);
            sim.add_actor(NodeId(i), member);
        }
        sim.run(Until::For(SimDuration::from_secs(2)));

        let collector = Collector::from_trace(sim.trace());
        collector
            .well_formed()
            .expect("all spans closed and causal");
        assert_eq!(collector.len(), 1, "one rpc call, one causal trace");
        let (_, dag) = collector.traces().next().unwrap();
        // rpc.call root + 2 serves + 2 replies.
        assert_eq!(dag.len(), 5);
        let path: Vec<_> = dag.critical_path().iter().map(|s| s.kind.clone()).collect();
        assert_eq!(path, ["rpc.call", "rpc.serve", "rpc.reply"]);
    }

    #[test]
    fn telemetry_spans_cover_multicast_deliveries() {
        use odp_telemetry::collector::Collector;

        let view = View::initial(GroupId(0), (0..3).map(NodeId));
        let mut sim: Sim<GcMsg<String>> = SimBuilder::new(23).build();
        for i in 0..3u32 {
            let mut member = GroupActor::new(
                NodeId(i),
                view.clone(),
                Ordering::Total,
                Reliability::BestEffort,
                Recorder::default(),
            );
            member.set_telemetry(true);
            sim.add_actor(NodeId(i), member);
        }
        sim.inject(
            SimTime::ZERO,
            NodeId(1),
            NodeId(1),
            GcMsg::AppCmd("note".to_owned()),
        );
        sim.run(Until::For(SimDuration::from_secs(2)));

        let collector = Collector::from_trace(sim.trace());
        collector.well_formed().expect("mcast spans well-formed");
        assert_eq!(collector.len(), 1);
        let (_, dag) = collector.traces().next().unwrap();
        // One gc.mcast root plus a gc.deliver child per member (total
        // ordering delivers at all 3 members, sender included).
        let delivers = dag.spans().filter(|s| s.kind == "gc.deliver").count();
        assert_eq!(delivers, 3);
        assert_eq!(dag.len(), 4);
    }

    #[test]
    fn telemetry_off_emits_no_span_events() {
        let mut sim = build(3, Ordering::Fifo);
        sim.inject(
            SimTime::ZERO,
            NodeId(0),
            NodeId(0),
            GcMsg::AppCmd("quiet".to_owned()),
        );
        sim.run(Until::For(SimDuration::from_secs(1)));
        assert!(sim.trace().spans().is_empty());
    }

    #[test]
    fn group_invocation_executes_simultaneously() {
        let view = View::initial(GroupId(0), [NodeId(0), NodeId(1), NodeId(2)]);
        let mut sim: Sim<GcMsg<String>> = SimBuilder::new(3).build();
        struct StartCameras {
            inner: GroupActor<String, Recorder>,
        }
        impl Actor<GcMsg<String>> for StartCameras {
            fn on_start(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>) {
                Actor::on_start(&mut self.inner, ctx);
                self.inner.invoke_rpc_now(
                    ctx,
                    "camera-on".to_owned(),
                    RpcConfig {
                        execute_at: Some(SimTime::from_millis(100)),
                        ..RpcConfig::default()
                    },
                );
            }
            fn on_message(
                &mut self,
                ctx: &mut Ctx<'_, GcMsg<String>>,
                from: NodeId,
                m: GcMsg<String>,
            ) {
                Actor::on_message(&mut self.inner, ctx, from, m);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>, t: TimerId, tag: u64) {
                Actor::on_timer(&mut self.inner, ctx, t, tag);
            }
        }
        sim.add_actor(
            NodeId(0),
            StartCameras {
                inner: GroupActor::new(
                    NodeId(0),
                    view.clone(),
                    Ordering::Unordered,
                    Reliability::BestEffort,
                    Recorder::default(),
                ),
            },
        );
        for i in 1..3u32 {
            sim.add_actor(
                NodeId(i),
                GroupActor::new(
                    NodeId(i),
                    view.clone(),
                    Ordering::Unordered,
                    Reliability::BestEffort,
                    Recorder::default(),
                ),
            );
        }
        sim.run(Until::For(SimDuration::from_secs(1)));
        // Both responders executed exactly at the agreed instant.
        for i in 1..3u32 {
            let a: &GroupActor<String, Recorder> = sim.get(ActorHandle::of(NodeId(i))).unwrap();
            assert_eq!(a.app().executed_at, vec![SimTime::from_millis(100)]);
        }
    }
}
