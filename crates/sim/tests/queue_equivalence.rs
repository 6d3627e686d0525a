//! Golden suite for the event engine's determinism contract: fixed-seed
//! workloads must reproduce, event for event, the runs recorded from the
//! `BTreeMap` engine the calendar queue replaced (see [`Golden`] for how
//! the constants were captured). Arbitrary workloads, which have no
//! recorded run, are held to the oracle-free half of the contract:
//! execution in strictly increasing `(time, seq)` order, a drained
//! queue, and no dispatch of a cancelled timer. DPOR exploration and
//! trace replay rely on both halves.

use odp_sim::prelude::*;
use proptest::prelude::*;

/// A protocol actor that exercises every effect kind: fan-out sends,
/// re-armed timers, cancellations, RNG draws, sized sends and traces.
struct Churner {
    peers: Vec<NodeId>,
    live_timer: Option<TimerId>,
    handled: u64,
    /// `on_start` and `on_timer` calls: with `handled`, the actor-side
    /// count of handler runs [`drain`] filters the executed stream by.
    started: u64,
    fired: u64,
    /// `set_timer` calls.
    armed: u64,
    /// Every timer this actor has cancelled so far.
    cancelled: Vec<TimerId>,
    /// Timers that fired although they were already in `cancelled`.
    fired_after_cancel: u64,
}

impl Churner {
    fn new(peers: Vec<NodeId>) -> Self {
        Churner {
            peers,
            live_timer: None,
            handled: 0,
            started: 0,
            fired: 0,
            armed: 0,
            cancelled: Vec::new(),
            fired_after_cancel: 0,
        }
    }
}

impl Actor<u32> for Churner {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        self.started += 1;
        self.armed += 1;
        ctx.set_timer(SimDuration::from_millis(3), 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
        self.handled += 1;
        match msg % 4 {
            0 => {
                let peer = self.peers[(msg as usize / 4) % self.peers.len()];
                let jitter = ctx
                    .rng()
                    .jittered(SimDuration::from_micros(200), SimDuration::from_micros(150));
                ctx.send_sized(peer, msg / 2, 64 + (msg as usize % 700));
                self.armed += 1;
                ctx.set_timer(jitter, u64::from(msg));
            }
            1 => {
                if let Some(t) = self.live_timer.take() {
                    ctx.cancel_timer(t);
                    self.cancelled.push(t);
                }
                self.armed += 1;
                self.live_timer = Some(ctx.set_timer(SimDuration::from_millis(1), 1));
            }
            2 => ctx.send(from, msg.saturating_sub(3)),
            _ => ctx.trace("churn.sink", msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, timer: TimerId, tag: u64) {
        self.fired += 1;
        if self.cancelled.contains(&timer) {
            self.fired_after_cancel += 1;
        }
        if tag > 0 && ctx.rng().chance(0.5) {
            let peer = self.peers[tag as usize % self.peers.len()];
            ctx.send(peer, (tag as u32).saturating_sub(5));
        }
        ctx.trace("churn.timer", tag);
    }
}

fn lossy_net() -> Network {
    let mut spec = LinkSpec::lan();
    spec.loss = 0.02;
    Network::new(spec)
}

/// Handler runs so far, summed over every actor.
fn handler_runs(sim: &Sim<u32>) -> u64 {
    sim.node_ids()
        .into_iter()
        .filter_map(|id| sim.get(ActorHandle::<Churner>::of(id)))
        .map(|a| a.started + a.handled + a.fired)
        .sum()
}

/// Builds the scenario and injects `injections` scripted
/// `(at_us, from, to, msg)` stimuli.
fn build(seed: u64, nodes: u32, injections: &[(u64, u32, u32, u32)]) -> Sim<u32> {
    let ids: Vec<NodeId> = (0..nodes).map(NodeId).collect();
    let mut sim = SimBuilder::new(seed)
        .network(lossy_net())
        .max_events(500_000)
        .build();
    for &me in &ids {
        let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != me).collect();
        sim.add_actor(me, Churner::new(peers));
    }
    for &(at, from, to, msg) in injections {
        sim.inject(
            SimTime::from_micros(at),
            NodeId(from % nodes),
            NodeId(to % nodes),
            msg,
        );
    }
    sim
}

/// Builds the scenario and drains it to quiescence collecting every
/// *dispatched* event: a step after which no actor's handler count
/// moved (the pop of a cancelled timer, on an engine that still queues
/// those) is not part of the stream.
fn drain(
    seed: u64,
    nodes: u32,
    injections: &[(u64, u32, u32, u32)],
) -> (Vec<ExecutedEvent>, Sim<u32>) {
    let mut sim = build(seed, nodes, injections);
    let mut executed = Vec::new();
    let mut ran = 0;
    while sim.step() {
        let now_ran = handler_runs(&sim);
        if now_ran > ran {
            executed.extend(sim.last_executed());
        }
        ran = now_ran;
    }
    (executed, sim)
}

/// 64-bit FNV-1a, fed whole words and length-prefixed strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// What one fixed-seed run must reproduce exactly.
///
/// `census`, `now_us`, `trace` and `counters` were produced at commit
/// 632eeb9 — the last one carrying the `BTreeMap` engine — by running
/// this file there with `.queue(QueueKind::Legacy)` added to the builder
/// in [`drain`] and reading the values off the failing `assert_eq!`; the
/// calendar engine printed the same values at that commit and must keep
/// printing them. `events` and `executed` were re-read the same way at
/// commit f328368, the last one whose engine popped cancelled timers,
/// after [`drain`] learnt to leave those pops (362 and 237 of them) out
/// of the stream; this file passed there as it stands.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// Events dispatched (a handler ran) before quiescence.
    events: usize,
    /// `Sim::events_processed()`: dispatched events plus cancelled
    /// timers, however the engine disposes of those.
    census: u64,
    /// Final `Sim::now()`, in microseconds.
    now_us: u64,
    /// Digest of the `ExecutedEvent` stream (kind, nodes, time, seq,
    /// cause of every event, in execution order).
    executed: u64,
    /// Digest of the trace (time, node, label, data of every record).
    trace: u64,
    /// `sim.sent`, `sim.sent_bytes`, `sim.delivered`,
    /// `sim.dropped.Loss`, `sim.no_actor`.
    counters: [u64; 5],
}

fn golden_of(executed: &[ExecutedEvent], sim: &Sim<u32>) -> Golden {
    let mut exec = Fnv::new();
    for ev in executed {
        let (kind, a, b) = match ev.desc {
            PendingEvent::Start { node, .. } => (0, node.0, 0),
            PendingEvent::Deliver { from, to, .. } => (1, from.0, to.0),
            PendingEvent::Timer { node, .. } => (2, node.0, 0),
            PendingEvent::NetChange { .. } => (3, 0, 0),
        };
        for w in [
            kind,
            u64::from(a),
            u64::from(b),
            ev.desc.time().as_micros(),
            ev.desc.seq(),
            ev.caused_by.unwrap_or(u64::MAX),
        ] {
            exec.word(w);
        }
    }
    let mut trace = Fnv::new();
    for rec in sim.trace().events() {
        trace.word(rec.time.as_micros());
        trace.word(u64::from(rec.node.0));
        trace.text(&rec.label);
        trace.text(&rec.data);
    }
    Golden {
        events: executed.len(),
        census: sim.events_processed(),
        now_us: sim.now().as_micros(),
        executed: exec.0,
        trace: trace.0,
        counters: [
            "sim.sent",
            "sim.sent_bytes",
            "sim.delivered",
            "sim.dropped.Loss",
            "sim.no_actor",
        ]
        .map(|name| sim.metrics().counter(name)),
    }
}

/// The index of the first executed event whose `(time, seq)` key does
/// not strictly exceed its predecessor's — `None` for a run in queue
/// order, which is every run driven by [`Sim::step`] alone.
fn first_out_of_order(executed: &[ExecutedEvent]) -> Option<usize> {
    let key = |ev: &ExecutedEvent| (ev.desc.time(), ev.desc.seq());
    executed
        .windows(2)
        .position(|w| key(&w[0]) >= key(&w[1]))
        .map(|i| i + 1)
}

/// Timers armed (actor-side count) minus timers fired (actor-side),
/// reaped by a cancellation and still pending (both engine-side): zero
/// on an engine that loses or double-counts none.
fn timers_unaccounted(sim: &mut Sim<u32>) -> i128 {
    let (mut armed, mut fired) = (0u64, 0u64);
    for id in sim.node_ids() {
        let actor = sim.get(ActorHandle::<Churner>::of(id)).expect("registered");
        armed += actor.armed;
        fired += actor.fired;
    }
    let pending = sim
        .pending_events()
        .iter()
        .filter(|ev| matches!(ev, PendingEvent::Timer { .. }))
        .count();
    i128::from(armed) - i128::from(fired) - i128::from(sim.timers_reaped()) - pending as i128
}

/// 10,000 randomly timed injections drain exactly as recorded.
#[test]
fn ten_thousand_random_injections_drain_identically() {
    let mut rng = DetRng::seed_from(0xCA1E_DA12);
    let mut injections = Vec::with_capacity(10_000);
    for _ in 0..10_000 {
        let at = rng.range_u64(0, 2_000_000); // anywhere in the first 2s
        let from = rng.index(8) as u32;
        let to = rng.index(8) as u32;
        let msg = rng.range_u64(0, 10_000) as u32;
        injections.push((at, from, to, msg));
    }
    let (executed, sim) = drain(0xDE5, 8, &injections);
    assert_eq!(
        golden_of(&executed, &sim),
        Golden {
            events: 132_102,
            census: 132_464,
            now_us: 2_172_105,
            executed: 9693105302914762611,
            trace: 15070873563762048518,
            counters: [64_800, 7_318_372, 73_453, 1_347, 0],
        }
    );
    // The old census, by its two parts: nothing is popped unrun any more.
    assert_eq!(sim.events_dispatched() + sim.timers_reaped(), 132_464);
    assert_eq!(sim.timers_reaped(), 362);
}

/// Same-instant storms (many events on one tick) exercise the calendar
/// queue's batch staging and mid-batch same-tick appends.
#[test]
fn same_tick_storms_drain_identically() {
    let mut injections = Vec::new();
    for burst in 0..20u64 {
        for k in 0..50u32 {
            injections.push((burst * 1_000, k, (k + 1) % 6, k * 3));
        }
    }
    let (executed, sim) = drain(0xBEE, 6, &injections);
    assert_eq!(
        golden_of(&executed, &sim),
        Golden {
            events: 5_749,
            census: 5_986,
            now_us: 244_377,
            executed: 418866631987325418,
            trace: 9984489210764763002,
            counters: [2_735, 332_372, 3_687, 48, 0],
        }
    );
    assert_eq!(sim.events_dispatched() + sim.timers_reaped(), 5_986);
    assert_eq!(sim.timers_reaped(), 237);
}

/// Rungs in one write's retry ladder.
const RUNGS: u64 = 32;
/// The tag of the far-off timer each [`Ladderer`] arms at start.
const LEASE: u64 = u64::MAX;

/// A writer with a retry ladder per write, the timer shape of lease
/// detectors and retransmission: a `Write` (kind 0 of the `u32`'s low
/// two bits, the write number above them) arms 32 jittered rungs and
/// sends a `Req` (kind 1) to a peer, whose `Ack` (kind 2) cancels the
/// whole ladder; a rung that fires sends the `Req` again. Each ack also
/// cancels ids the engine no longer holds: rungs that fired before it,
/// every seventh ladder a second time, and every eleventh the ladder
/// this node armed 400 writes earlier, by then far behind every live
/// timer. A lease armed at start stays live to the end, so the oldest
/// ids are never all spent.
struct Ladderer {
    peers: Vec<NodeId>,
    /// Every ladder this node armed, by write number.
    ladders: std::collections::BTreeMap<u32, Vec<TimerId>>,
    /// `set_timer` calls.
    armed: u64,
    /// `on_timer` calls.
    fired: u64,
}

impl Actor<u32> for Ladderer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        self.armed += 1;
        ctx.set_timer(SimDuration::from_secs(10), LEASE);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
        let w = msg >> 2;
        match msg & 3 {
            0 => {
                let ladder = (1..=RUNGS)
                    .map(|rung| {
                        let delay = ctx.rng().jittered(
                            SimDuration::from_millis(2 * rung),
                            SimDuration::from_micros(1_500),
                        );
                        ctx.set_timer(delay, (u64::from(w) << 8) | rung)
                    })
                    .collect();
                self.armed += RUNGS;
                self.ladders.insert(w, ladder);
                ctx.send(self.peers[w as usize % self.peers.len()], (w << 2) | 1);
            }
            1 => ctx.send(from, (w << 2) | 2),
            2 => {
                let mut cancel = |w: u32| {
                    for &id in self.ladders.get(&w).into_iter().flatten() {
                        ctx.cancel_timer(id);
                    }
                };
                cancel(w);
                if w.is_multiple_of(7) {
                    cancel(w);
                }
                if w.is_multiple_of(11) && w >= 400 {
                    cancel(w - 400);
                }
            }
            _ => ctx.trace("ladder.sink", msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _: TimerId, tag: u64) {
        self.fired += 1;
        if tag == LEASE {
            ctx.trace("ladder.lease", "");
            return;
        }
        let w = (tag >> 8) as u32;
        ctx.send(self.peers[w as usize % self.peers.len()], (w << 2) | 1);
        ctx.trace("ladder.rung", tag);
    }
}

/// Retry ladders over ≥ 20 chunks' worth of timer ids (32 004 armed,
/// most cancelled by their ack, some after firing, some twice, some
/// long after every neighbouring id was spent) drain exactly as
/// recorded. The constants were read off this test's failing
/// `assert_eq!` on the engine whose `Sim` kept one `Handle` per timer
/// ever armed, before its timer table was chunked.
#[test]
fn ladder_churn_drains_identically() {
    const NODES: u32 = 4;
    const WRITES: u32 = 1_000;
    let ids: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let mut sim = SimBuilder::new(0x1ADD)
        .network(lossy_net())
        .max_events(500_000)
        .build();
    for &me in &ids {
        let peers = ids.iter().copied().filter(|&p| p != me).collect();
        sim.add_actor(
            me,
            Ladderer {
                peers,
                ladders: Default::default(),
                armed: 0,
                fired: 0,
            },
        );
    }
    let mut rng = DetRng::seed_from(0x1ADD_E125);
    for w in 0..WRITES {
        let at = u64::from(w) * 300 + rng.range_u64(0, 300);
        sim.inject(
            SimTime::from_micros(at),
            NodeId(9),
            NodeId(w % NODES),
            w << 2,
        );
    }
    let mut executed = Vec::new();
    while sim.step() {
        executed.extend(sim.last_executed());
    }
    let (armed, fired) = ids
        .iter()
        .map(|&id| {
            sim.get(ActorHandle::<Ladderer>::of(id))
                .expect("registered")
        })
        .fold((0, 0), |(a, f), l| (a + l.armed, f + l.fired));
    assert!(armed >= 20 * 1_024, "{armed} timers armed");
    assert_eq!(armed, fired + sim.timers_reaped(), "every timer accounted");
    assert_eq!(first_out_of_order(&executed), None);
    assert_eq!(
        golden_of(&executed, &sim),
        Golden {
            events: 4_604,
            census: 36_031,
            now_us: 10_000_000,
            executed: 3960643241270098310,
            trace: 4818153454254632126,
            counters: [3_104, 794_624, 4_023, 81, 0],
        }
    );
    assert_eq!(sim.events_dispatched(), 4_604);
    assert_eq!(sim.timers_reaped(), 31_427);
}

/// One seeded churn, stepped to quiescence with [`Sim::step`]: 8 starts
/// and 24 injections are queued at build, and after 40 steps 80 more
/// injections take the queue past 64 events. With `listing` the run
/// asks for the pending list before every step, checks that its head
/// is the event the step then runs, and returns the deepest list seen.
fn churn_stream(listing: bool) -> (Vec<ExecutedEvent>, usize, usize) {
    let mut rng = DetRng::seed_from(0x50_27ED);
    let mut script = |n: usize| -> Vec<(u64, u32, u32, u32)> {
        (0..n)
            .map(|_| {
                let (from, to) = (rng.index(8) as u32, rng.index(8) as u32);
                (rng.range_u64(0, 20_000), from, to, rng.index(1_000) as u32)
            })
            .collect()
    };
    let mut sim = build(0x50_27, 8, &script(24));
    let mut later = script(80);
    let mut executed = Vec::new();
    let mut pending = Vec::new();
    let (mut depth_at_second_batch, mut deepest_list) = (0, 0);
    loop {
        if executed.len() == 40 {
            depth_at_second_batch = sim.pending_len();
            let at = sim.now() + SimDuration::from_millis(30);
            for (us, from, to, msg) in later.drain(..) {
                let at = at + SimDuration::from_micros(us);
                sim.inject(at, NodeId(from), NodeId(to), msg);
            }
        }
        if listing {
            sim.pending_events_into(&mut pending);
            deepest_list = deepest_list.max(pending.len());
        }
        if !sim.step() {
            break;
        }
        let ran = sim.last_executed().expect("a step ran an event");
        if listing {
            assert_eq!(Some(&ran.desc), pending.first(), "step {}", executed.len());
        }
        executed.push(ran);
    }
    assert_eq!(sim.pending_len(), 0);
    (executed, depth_at_second_batch, deepest_list)
}

/// The queue's two orders run one schedule: the churn above executes
/// the identical event stream whether it is stepped alone — the queue
/// leaves sorted order for the wheel at its 65th event — or with the
/// pending list read before every step, which keeps the queue sorted
/// until the 65th event and returns it to sorted order for good at the
/// next read.
#[test]
fn listing_every_step_keeps_the_schedule() {
    let (stepped, shallow, _) = churn_stream(false);
    let (listed, _, deepest) = churn_stream(true);
    assert!(
        shallow < 64,
        "{shallow} events queued before the second batch"
    );
    assert!(deepest > 64, "the listed run's deepest list held {deepest}");
    assert!(stepped.len() > 1_000, "{} events", stepped.len());
    assert_eq!(first_out_of_order(&stepped), None);
    let first_difference = stepped.iter().zip(&listed).position(|(a, b)| a != b);
    assert_eq!(first_difference, None);
    assert_eq!(stepped.len(), listed.len());
}

/// Known-bad for [`first_out_of_order`]: one `step_nth(1)` runs the
/// second-earliest event ahead of the earliest, and the checker must
/// point at the overtaken event that then runs late.
#[test]
fn ordering_checker_reports_an_out_of_order_step() {
    let (in_order, _) = drain(1, 3, &[(10, 0, 1, 3), (20, 1, 2, 7)]);
    assert_eq!(first_out_of_order(&in_order), None);

    let mut sim: Sim<u32> = SimBuilder::new(1).network(lossy_net()).build();
    sim.add_actor(NodeId(0), Churner::new(vec![NodeId(1)]));
    sim.inject(SimTime::from_micros(10), NodeId(1), NodeId(0), 3);
    sim.inject(SimTime::from_micros(20), NodeId(1), NodeId(0), 7);
    let mut executed = Vec::new();
    assert!(sim.step(), "the start event");
    executed.extend(sim.last_executed());
    assert!(sim.step_nth(1), "the t=20 injection overtakes the t=10 one");
    executed.extend(sim.last_executed());
    while sim.step() {
        executed.extend(sim.last_executed());
    }
    assert_eq!(first_out_of_order(&executed), Some(2));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary smaller workloads: any injection schedule, any seed,
    /// runs in strictly increasing `(time, seq)` order, drains the
    /// queue, never dispatches a timer after its cancellation, and
    /// conserves timers — every one armed has fired, was reaped by its
    /// cancellation or is still pending — at the end and at any instant
    /// the run is stopped at.
    #[test]
    fn arbitrary_workloads_execute_in_queue_order(
        seed in any::<u64>(),
        injections in prop::collection::vec(
            (0u64..500_000, 0u32..5, 0u32..5, 0u32..1_000),
            1..120,
        ),
        stop_us in 0u64..500_000,
    ) {
        let (executed, mut sim) = drain(seed, 5, &injections);
        prop_assert_eq!(first_out_of_order(&executed), None);
        prop_assert_eq!(sim.pending_len(), 0);
        for id in sim.node_ids() {
            let actor = sim.get(ActorHandle::<Churner>::of(id)).expect("registered");
            prop_assert_eq!(actor.fired_after_cancel, 0);
        }
        prop_assert_eq!(timers_unaccounted(&mut sim), 0);
        prop_assert_eq!(sim.events_dispatched(), executed.len() as u64);

        let mut stopped = build(seed, 5, &injections);
        stopped.run(Until::At(SimTime::from_micros(stop_us)));
        prop_assert_eq!(timers_unaccounted(&mut stopped), 0);
    }
}
