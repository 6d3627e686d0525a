//! Spans around the benchmark's calls into each layer.
//!
//! The workloads are generic over a [`Mode`]. Under [`Plain`] every
//! probe compiles to nothing, so the end-to-end numbers carry no
//! tracing cost; under [`Traced`] each call into a layer is wrapped in
//! a span (name, start, end, the span that caused it, the round it
//! belongs to). Spans are aggregated in memory by `(name, parent name)`
//! into a count, a total and a self time — a span's duration minus the
//! part its children cover — and one span in 1024 is kept whole for
//! the trace file written when the run ends.
//!
//! All spans of a workload are recorded on the thread that drives it,
//! so the tracer lives in a thread-local.

use std::any::Any;
use std::cell::RefCell;
use std::time::Instant;

use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::NodeId;
use odp_sim::prelude::{ActorHandle, RunOutcome, Sim, Until};
use odp_sim::time::SimTime;

/// Whether a workload instance records spans.
pub trait Mode: 'static {
    /// True when probes record.
    const TRACED: bool;
}

/// No probes: the mode every end-to-end number is measured in.
pub struct Plain;

/// Every call into a layer is a span.
pub struct Traced;

impl Mode for Plain {
    const TRACED: bool = false;
}

impl Mode for Traced {
    const TRACED: bool = true;
}

/// The boundaries the benchmark records. A layer is a crate; the
/// `actor.*` spans are the hosted actors' callbacks, split by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Span {
    /// One timed round: the root every other span hangs off. Its self
    /// time is the benchmark's own loop (generation, audit checksums).
    Round,
    /// `Sim::step`.
    SimStep,
    /// Campus agent callbacks.
    ActorAgent,
    /// Campus workspace-service callbacks.
    ActorWorkspace,
    /// Campus trader-desk callbacks.
    ActorTrader,
    /// `replica_actor` callbacks (`GroupActor` + `WorkspaceReplica`).
    ActorReplica,
    /// `GroupEngine::mcast`.
    GcMcast,
    /// `GroupEngine::on_message`.
    GcOnMessage,
    /// `GroupEngine::on_tick`.
    GcOnTick,
    /// `SessionLayer::unicast`.
    SessionSend,
    /// `SessionLayer::on_frame`.
    SessionRecv,
    /// `SessionLayer::on_tick`.
    SessionTick,
    /// `encode_frame`.
    Encode,
    /// `decode_frame`.
    Decode,
    /// `Explorer::explore_hashed`.
    Explore,
    /// The sim factory the explorer calls once per schedule.
    CheckFactory,
    /// The invariant set's quiescence check.
    CheckInvariant,
    /// The canonical state fingerprint.
    CheckFingerprint,
}

impl Span {
    /// Every span, in declaration order (index = discriminant).
    pub const ALL: [Span; 18] = [
        Span::Round,
        Span::SimStep,
        Span::ActorAgent,
        Span::ActorWorkspace,
        Span::ActorTrader,
        Span::ActorReplica,
        Span::GcMcast,
        Span::GcOnMessage,
        Span::GcOnTick,
        Span::SessionSend,
        Span::SessionRecv,
        Span::SessionTick,
        Span::Encode,
        Span::Decode,
        Span::Explore,
        Span::CheckFactory,
        Span::CheckInvariant,
        Span::CheckFingerprint,
    ];

    /// The dotted name printed in layer tables and trace files.
    pub fn name(self) -> &'static str {
        match self {
            Span::Round => "bench.round",
            Span::SimStep => "sim.step",
            Span::ActorAgent => "actor.agent",
            Span::ActorWorkspace => "actor.workspace",
            Span::ActorTrader => "actor.trader",
            Span::ActorReplica => "actor.replica",
            Span::GcMcast => "groupcomm.mcast",
            Span::GcOnMessage => "groupcomm.on_message",
            Span::GcOnTick => "groupcomm.on_tick",
            Span::SessionSend => "net.session_send",
            Span::SessionRecv => "net.session_recv",
            Span::SessionTick => "net.session_tick",
            Span::Encode => "net.encode_frame",
            Span::Decode => "net.decode_frame",
            Span::Explore => "check.explore",
            Span::CheckFactory => "check.factory",
            Span::CheckInvariant => "check.invariant",
            Span::CheckFingerprint => "check.fingerprint",
        }
    }
}

const N: usize = Span::ALL.len();
/// Parent slot used by spans opened with nothing on the stack.
const NO_PARENT: usize = N;
/// One span in this many is kept whole.
const SAMPLE_EVERY: u64 = 1024;

/// Count and time of every span sharing one `(name, parent)` pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of the time their child spans covered.
    pub child_ns: u64,
}

impl Agg {
    /// Time spent in the span itself, children excluded.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// One span kept whole.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Per-run span id (1-based, in opening order).
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// What was called.
    pub name: Span,
    /// The round the span belongs to.
    pub run: u32,
    /// Start, in ns since the tracer was reset.
    pub start_ns: u64,
    /// End, on the same clock.
    pub end_ns: u64,
}

struct Open {
    name: Span,
    id: u64,
    start_ns: u64,
    child_ns: u64,
}

struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    agg: [[Agg; N + 1]; N],
    samples: Vec<SpanRecord>,
    next_id: u64,
    run: u32,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            agg: [[Agg::default(); N + 1]; N],
            samples: Vec::new(),
            next_id: 0,
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Everything the tracer aggregated since [`reset`].
pub struct Profile {
    /// `(name, parent name, aggregate)` rows with at least one span.
    pub rows: Vec<(Span, Option<Span>, Agg)>,
    /// The spans kept whole.
    pub samples: Vec<SpanRecord>,
    /// Spans recorded in total.
    pub spans: u64,
}

impl Profile {
    /// Sum over every parent of the aggregate for `name`.
    pub fn of(&self, name: Span) -> Agg {
        let mut sum = Agg::default();
        for (n, _, a) in &self.rows {
            if *n == name {
                sum.count += a.count;
                sum.total_ns += a.total_ns;
                sum.child_ns += a.child_ns;
            }
        }
        sum
    }

    /// Sum of every row's self time; equals the root spans' total when
    /// every span nests inside a root.
    pub fn self_sum_ns(&self) -> u64 {
        self.rows.iter().map(|(_, _, a)| a.self_ns()).sum()
    }
}

/// Clears the tracer and restarts its clock.
pub fn reset() {
    TRACER.with(|t| *t.borrow_mut() = Tracer::new());
}

/// Tags the spans that follow with a round number.
pub fn set_run(run: u32) {
    TRACER.with(|t| t.borrow_mut().run = run);
}

/// Takes what was recorded since [`reset`].
pub fn take() -> Profile {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let mut rows = Vec::new();
        for (i, by_parent) in t.agg.iter().enumerate() {
            for (p, agg) in by_parent.iter().enumerate() {
                if agg.count > 0 {
                    let parent = (p != NO_PARENT).then(|| Span::ALL[p]);
                    rows.push((Span::ALL[i], parent, *agg));
                }
            }
        }
        Profile {
            rows,
            samples: std::mem::take(&mut t.samples),
            spans: t.next_id,
        }
    })
}

fn enter(name: Span) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.next_id += 1;
        let id = t.next_id;
        let start_ns = t.now_ns();
        t.stack.push(Open {
            name,
            id,
            start_ns,
            child_ns: 0,
        });
    });
}

fn exit() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end_ns = t.now_ns();
        let Some(open) = t.stack.pop() else {
            return;
        };
        let dur = end_ns - open.start_ns;
        let (parent_slot, parent_id) = match t.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += dur;
                (parent.name as usize, parent.id)
            }
            None => (NO_PARENT, 0),
        };
        let agg = &mut t.agg[open.name as usize][parent_slot];
        agg.count += 1;
        agg.total_ns += dur;
        agg.child_ns += open.child_ns;
        if open.id % SAMPLE_EVERY == 1 {
            let run = t.run;
            t.samples.push(SpanRecord {
                id: open.id,
                parent: parent_id,
                name: open.name,
                run,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    });
}

/// Runs `f` inside a span when the mode records, bare otherwise.
#[inline(always)]
pub fn span<M: Mode, R>(name: Span, f: impl FnOnce() -> R) -> R {
    if M::TRACED {
        enter(name);
        let out = f();
        exit();
        out
    } else {
        f()
    }
}

/// A delegating actor that records one span per callback of the actor
/// it hosts. Only [`Traced`] sims host actors through it.
pub struct Spanned<A> {
    inner: A,
    name: Span,
}

impl<M, A: Actor<M>> Actor<M> for Spanned<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        enter(self.name);
        self.inner.on_start(ctx);
        exit();
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M) {
        enter(self.name);
        self.inner.on_message(ctx, from, msg);
        exit();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, timer: TimerId, tag: u64) {
        enter(self.name);
        self.inner.on_timer(ctx, timer, tag);
        exit();
    }
}

/// Hosts `actor` on `sim`, behind a [`Spanned`] wrapper when the mode
/// records.
pub fn host<Md: Mode, M: 'static, A: Actor<M> + Any>(
    sim: &mut Sim<M>,
    id: NodeId,
    actor: A,
    name: Span,
) {
    if Md::TRACED {
        sim.add_actor(id, Spanned { inner: actor, name });
    } else {
        sim.add_actor(id, actor);
    }
}

/// The actor hosted at `id` by [`host`], whichever way it was hosted.
pub fn hosted<Md: Mode, M: 'static, A: Actor<M> + Any>(sim: &Sim<M>, id: NodeId) -> Option<&A> {
    if Md::TRACED {
        sim.get(ActorHandle::<Spanned<A>>::of(id)).map(|s| &s.inner)
    } else {
        sim.get(ActorHandle::<A>::of(id))
    }
}

/// Mutable variant of [`hosted`].
pub fn hosted_mut<Md: Mode, M: 'static, A: Actor<M> + Any>(
    sim: &mut Sim<M>,
    id: NodeId,
) -> Option<&mut A> {
    if Md::TRACED {
        sim.get_mut(ActorHandle::<Spanned<A>>::of(id))
            .map(|s| &mut s.inner)
    } else {
        sim.get_mut(ActorHandle::<A>::of(id))
    }
}

/// Drives `sim` until it is idle: `Sim::run` bare, or one `sim.step`
/// span per event when the mode records. True when the queue drained.
pub fn run_idle<Md: Mode, M: 'static>(sim: &mut Sim<M>) -> bool {
    if Md::TRACED {
        while span::<Md, _>(Span::SimStep, || sim.step()) {}
        sim.pending_len() == 0
    } else {
        sim.run(Until::Idle) == RunOutcome::Quiesced
    }
}

/// Drives `sim` through every event due at or before `deadline`, the
/// same two ways as [`run_idle`].
pub fn run_until<Md: Mode, M: 'static>(sim: &mut Sim<M>, deadline: SimTime) {
    if Md::TRACED {
        while sim.next_event_time().is_some_and(|t| t <= deadline) {
            if !span::<Md, _>(Span::SimStep, || sim.step()) {
                break;
            }
        }
    } else {
        sim.run(Until::At(deadline));
    }
}
