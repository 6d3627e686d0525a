//! `tcp_pair` — the awareness bus over real loopback sockets.
//!
//! Two `TcpNode`s each host a `BusActor`; node 0 publishes, node 1
//! observes. There is one connection and one generator thread (this
//! box has two cores). Each actor sits inside the benchmark's own
//! delegating `TransportActor`, which watches `delivered()` grow after
//! every callback and signals the generator, so both ends are read on
//! one clock.
//!
//! * **Stream phase** (timed, every run): a closed loop — the generator
//!   keeps 512 publishes in flight, releasing the next batch of 128
//!   when the observer reports the previous one delivered — until a
//!   fixed number is through; the clock stops at the last delivery.
//! * **Paced phase** (per-layer runs only): an open loop at 1 000
//!   publishes/s; each delivery's latency is taken from when its
//!   publish was *due*, and how late the generator ran is reported.
//!
//! This is the only workload with threads, channels and syscalls. The
//! traffic crosses the host's loopback interface, not a link: nothing
//! here says anything about a network.
//!
//! Seeded fault (`Spec::fault`): the generator withholds one publish,
//! so the observer ends one delivery short of what was asked.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use odp_awareness::bus::{CoopEvent, CoopKind, EventBus};
use odp_awareness::dist::{BusActor, BusWire};
use odp_awareness::events::ActivityKind;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::GcMsg;
use odp_net::actor::TransportActor;
use odp_net::ctx::NetCtx;
use odp_net::tcp::{TcpConfig, TcpHandle, TcpNode};
use odp_net::wire::WireCodec;
use odp_sim::actor::TimerId;
use odp_sim::net::NodeId;
use odp_sim::rng::DetRng;
use odp_sim::time::SimTime;

use super::{Round, Size, Spec, Stopwatch};
use crate::probe::{span, Mode, Span};
use crate::stats;

/// Publishes per stream phase at the measured size.
pub const STREAM_FULL: u64 = 20_480;
const STREAM_QUICK: u64 = 1_024;
/// Publishes released per credit.
const BATCH: u64 = 128;
/// Credits outstanding: `WINDOW * BATCH` publishes in flight.
const WINDOW: u64 = 4;
/// Paced-phase publishes (one per millisecond).
const PACED_FULL: u64 = 1_536;
const PACED_QUICK: u64 = 256;
const PACE: Duration = Duration::from_millis(1);
/// How long the generator waits for the observer before giving up.
const PATIENCE: Duration = Duration::from_secs(30);

type Msg = GcMsg<BusWire>;

/// The delegating actor: forwards every callback to the `BusActor`,
/// then reports any growth of `delivered()`.
struct Watched {
    inner: BusActor,
    seen: u64,
    /// Receives the delivered count at 1 (the mesh probe) and at every
    /// multiple of `BATCH` past it.
    progress: Sender<u64>,
    /// One `Instant` per delivery, when the run stamps them.
    stamps: Option<Arc<Mutex<Vec<Instant>>>>,
}

impl Watched {
    fn note(&mut self) {
        let now_seen = self.inner.delivered().len() as u64;
        while self.seen < now_seen {
            self.seen += 1;
            if let Some(stamps) = &self.stamps {
                stamps
                    .lock()
                    .expect("stamp mutex is only held for a push")
                    .push(Instant::now());
            }
            if self.seen == 1 || (self.seen - 1).is_multiple_of(BATCH) {
                // The generator may already have given up and gone.
                let _ = self.progress.send(self.seen);
            }
        }
    }
}

impl TransportActor<Msg> for Watched {
    fn on_start(&mut self, ctx: &mut dyn NetCtx<Msg>) {
        TransportActor::on_start(&mut self.inner, ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx<Msg>, from: NodeId, msg: Msg) {
        TransportActor::on_message(&mut self.inner, ctx, from, msg);
        self.note();
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx<Msg>, timer: TimerId, tag: u64) {
        TransportActor::on_timer(&mut self.inner, ctx, timer, tag);
        self.note();
    }
}

const ARTEFACTS: [&str; 8] = [
    "doc/plan",
    "doc/minutes",
    "doc/budget-2026",
    "board/sketch",
    "board/roadmap-draft",
    "src/scheduler",
    "src/session-layer",
    "inbox/review-requests",
];
const KINDS: [ActivityKind; 4] = [
    ActivityKind::Edit,
    ActivityKind::View,
    ActivityKind::Gesture,
    ActivityKind::Move,
];

/// The publishes of one run, drawn from the seed, each with the
/// encoded size of its event (the payload a delivery carries).
fn publishes(seed: u64, n: u64) -> Vec<(BusWire, u64)> {
    let mut rng = DetRng::seed_from(seed ^ 0x7463_7070);
    let mut scratch = Vec::new();
    (0..n)
        .map(|i| {
            let event = CoopEvent::broadcast(
                NodeId(0),
                ARTEFACTS[rng.index(ARTEFACTS.len())],
                SimTime::from_micros(i),
                CoopKind::Activity(KINDS[rng.index(KINDS.len())]),
            );
            scratch.clear();
            event.encode(&mut scratch);
            (BusWire::new(event), scratch.len() as u64)
        })
        .collect()
}

struct Pair {
    publisher: TcpHandle<Watched, Msg>,
    observer: TcpHandle<Watched, Msg>,
    progress: Receiver<u64>,
    stamps: Option<Arc<Mutex<Vec<Instant>>>>,
}

fn bring_up(seed: u64, stamp: bool) -> Result<Pair, String> {
    let cfg = TcpConfig {
        seed,
        ..TcpConfig::default()
    };
    let mut nodes = Vec::new();
    for i in 0..2 {
        nodes.push(TcpNode::bind(NodeId(i), cfg.clone()).map_err(|e| format!("bind: {e}"))?);
    }
    let mut addrs: BTreeMap<NodeId, SocketAddr> = BTreeMap::new();
    for (i, node) in nodes.iter().enumerate() {
        let addr = node.local_addr().map_err(|e| format!("local addr: {e}"))?;
        addrs.insert(NodeId(i as u32), addr);
    }
    let view = View::initial(GroupId(0), [NodeId(0), NodeId(1)]);
    let (tx, progress) = mpsc::channel();
    let stamps = stamp.then(|| Arc::new(Mutex::new(Vec::new())));
    let mut handles = Vec::new();
    for (i, mut node) in nodes.into_iter().enumerate() {
        node.set_peers(addrs.clone());
        let mut bus = EventBus::new();
        bus.register(NodeId(0), 0.0);
        bus.register(NodeId(1), 0.0);
        handles.push(node.spawn(Watched {
            inner: BusActor::new(NodeId(i as u32), view.clone(), bus),
            seen: 0,
            progress: tx.clone(),
            stamps: (i == 1).then(|| stamps.clone()).flatten(),
        }));
    }
    let observer = handles.pop().ok_or("no observer")?;
    let publisher = handles.pop().ok_or("no publisher")?;
    Ok(Pair {
        publisher,
        observer,
        progress,
        stamps,
    })
}

impl Pair {
    fn publish(&self, wire: BusWire) {
        self.publisher.inject(NodeId(0), GcMsg::AppCmd(wire));
    }

    /// Blocks until the observer reports `count` deliveries.
    fn await_count(&self, count: u64) -> Result<(), String> {
        loop {
            match self.progress.recv_timeout(PATIENCE) {
                Ok(seen) if seen >= count => return Ok(()),
                Ok(_) => {}
                Err(_) => return Err(format!("observer never reached {count} deliveries")),
            }
        }
    }
}

/// One round: mesh up, stream (and pace, on per-layer runs), audit.
pub fn round<M: Mode>(spec: &Spec) -> Round {
    let (stream, paced) = match spec.size {
        Size::Full => (STREAM_FULL, PACED_FULL),
        Size::Quick => (STREAM_QUICK, PACED_QUICK),
    };
    let paced = if M::TRACED { paced } else { 0 };
    let mut out = Round::default();

    let t0 = Instant::now();
    let (wires, sizes): (Vec<BusWire>, Vec<u64>) =
        publishes(spec.seed, 1 + stream + paced).into_iter().unzip();
    // Publish 0 is the mesh probe; the stream phase sends the next `stream`.
    let stream_bytes: u64 = sizes[1..=stream as usize].iter().sum();
    let pair = match bring_up(spec.seed, M::TRACED) {
        Ok(pair) => pair,
        Err(why) => {
            out.fail(1, why);
            return out;
        }
    };
    // The mesh is up when a publish gets through: one sent before the
    // connection exists waits in the session's replay buffer for the
    // peer's hello.
    let mut queue = wires.into_iter();
    pair.publish(queue.next().expect("the probe publish"));
    if let Err(why) = pair.await_count(1) {
        out.fail(1, why);
    }
    out.setup_ns = t0.elapsed().as_nanos() as u64;
    out.actors = 2;
    out.measured
        .push(("net.tcp_mesh_up_ms", out.setup_ns as f64 / 1e6));

    // Stream phase.
    let watch = Stopwatch::start();
    let streamed = span::<M, _>(Span::Round, || -> Result<(), String> {
        let mut sent = 0u64;
        let mut credits = WINDOW;
        let withhold = spec.fault.then_some(stream / 2);
        while sent < stream {
            if credits == 0 {
                // Each report past the probe returns one credit.
                pair.progress
                    .recv_timeout(PATIENCE)
                    .map_err(|_| format!("stalled with {sent} of {stream} publishes sent"))?;
                credits += 1;
            }
            for _ in 0..BATCH {
                let wire = queue.next().expect("stream publish");
                if withhold != Some(sent) {
                    pair.publish(wire);
                }
                sent += 1;
            }
            credits -= 1;
        }
        if spec.fault {
            // One short: the last report can never come. Wait for the
            // traffic that was sent to land instead.
            std::thread::sleep(Duration::from_millis(300));
            return Ok(());
        }
        pair.await_count(1 + stream)
    });
    watch.stop(&mut out);
    if let Err(why) = streamed {
        out.fail(1, why);
    }

    // Paced phase.
    let mut due_at: Vec<Instant> = Vec::new();
    let mut lag_us: Vec<f64> = Vec::new();
    if paced > 0 && out.failed == 0 && !spec.fault {
        let start = Instant::now() + PACE;
        for i in 0..paced {
            let due = start + PACE * i as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            lag_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
            pair.publish(queue.next().expect("paced publish"));
            due_at.push(due);
        }
        if let Err(why) = pair.await_count(1 + stream + paced) {
            out.fail(1, why);
        }
    }

    // Tear down and audit.
    let stamps = pair.stamps.clone();
    let mut frames = (0u64, 0u64);
    let mut session = odp_net::session::SessionStats::default();
    let mut delivered = 0u64;
    for (who, handle) in [("publisher", pair.publisher), ("observer", pair.observer)] {
        match handle.stop() {
            Ok((actor, report)) => {
                frames.0 += report.metrics.counter("net.tcp.rx_frames");
                frames.1 += report.metrics.counter("net.tcp.tx_frames");
                session.gaps += report.stats.gaps;
                session.link_duplicates += report.stats.link_duplicates;
                session.evicted += report.stats.evicted;
                session.delivered += report.stats.delivered;
                delivered += actor.inner.delivered().len() as u64;
            }
            Err(e) => out.fail(1, format!("{who} did not stop: {e}")),
        }
    }
    let expected = 1 + stream + paced;
    out.expect_eq("deliveries at the observer", delivered, expected);
    out.expect_eq("session gaps", session.gaps, 0);

    out.events = frames.0;
    out.deliveries = stream;
    out.payload_bytes = stream_bytes;
    out.attempted = expected;
    out.measured.extend([
        ("net.tcp_rx_frames", frames.0 as f64),
        ("net.tcp_tx_frames", frames.1 as f64),
        ("net.session_delivered", session.delivered as f64),
        ("net.session_gaps", session.gaps as f64),
        (
            "net.session_link_duplicates",
            session.link_duplicates as f64,
        ),
        ("net.session_evicted", session.evicted as f64),
    ]);
    if let (Some(stamps), false) = (stamps, due_at.is_empty()) {
        let stamps = stamps.lock().expect("both drivers have stopped");
        let base = (1 + stream) as usize;
        if stamps.len() >= base + due_at.len() {
            let latency_us: Vec<f64> = due_at
                .iter()
                .zip(&stamps[base..])
                .map(|(due, got)| got.saturating_duration_since(*due).as_secs_f64() * 1e6)
                .collect();
            let mut sorted = latency_us;
            sorted.sort_by(f64::total_cmp);
            lag_us.sort_by(f64::total_cmp);
            out.measured.extend([
                ("net.tcp_deliver_p50_us", stats::quantile(&sorted, 0.50)),
                ("net.tcp_deliver_p99_us", stats::quantile(&sorted, 0.99)),
                (
                    "net.tcp_generator_lag_p99_us",
                    stats::quantile(&lag_us, 0.99),
                ),
            ]);
        } else {
            out.fail(1, "fewer delivery stamps than publishes".to_owned());
        }
    }
    out
}
