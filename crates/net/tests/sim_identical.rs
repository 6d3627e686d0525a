//! The E13 awareness fan-out, held to a golden record: the schedule the
//! simulator runs for a seeded scenario does not move.
//!
//! The workload is 8 [`BusActor`] replicas over a 15 ms WAN, 4
//! broadcast edits each, telemetry on so span minting draws from every
//! actor's RNG stream, on a rights-gated bus (6 of the 8 observers may
//! read the artefact) and on an open one. Each run's full observable
//! record — trace and span log (including RNG-derived span ids), metrics
//! counters, and each replica's surfaced deliveries — is digested and
//! compared against [`GOLDEN`]. The values were captured while the same
//! replicas could still be hosted through a separate sim adapter for the
//! transport layer, and both hostings agreed record for record; an
//! actor now runs on the simulator and over TCP as one `Actor` impl.
//! The run is then held to its exact delivery and span census.

use std::collections::BTreeMap;

use odp_access::matrix::Subject;
use odp_access::rbac::{Effect, RbacPolicy, RoleId};
use odp_access::rights::Rights;
use odp_awareness::bus::{CoopEvent, CoopKind, EventBus};
use odp_awareness::dist::{BusActor, BusWire};
use odp_awareness::events::ActivityKind;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::GcMsg;
use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::prelude::{ActorHandle, Sim, SimBuilder, Until};
use odp_sim::time::{SimDuration, SimTime};
use odp_telemetry::collector::Collector;
use odp_telemetry::report::TelemetryReport;

const REPLICAS: u32 = 8;
const WRITES_EACH: u32 = 4;
const READERS: u32 = 6;
const ARTEFACT: &str = "doc/plan";

fn reader_policy() -> RbacPolicy {
    let mut policy = RbacPolicy::new();
    policy.add_rule(RoleId(1), "doc".into(), Rights::READ, Effect::Allow);
    for i in 0..READERS {
        policy.assign(Subject(i), RoleId(1));
    }
    policy
}

/// A bus observing every replica; `gated` arms its rights gate with
/// [`reader_policy`].
fn replica_bus(gated: bool) -> EventBus {
    let mut bus = EventBus::new();
    if gated {
        bus.set_policy(reader_policy());
    }
    for i in 0..REPLICAS {
        bus.register(NodeId(i), 0.0);
    }
    bus
}

fn replica(i: u32, gated: bool) -> BusActor {
    let view = View::initial(GroupId(0), (0..REPLICAS).map(NodeId));
    let mut actor = BusActor::new(NodeId(i), view, replica_bus(gated));
    actor.set_telemetry(true);
    actor
}

/// Builds the E13 fan-out sim.
fn fanout_sim(seed: u64, gated: bool) -> Sim<GcMsg<BusWire>> {
    let link = LinkSpec::wan(SimDuration::from_millis(15));
    let net = Network::new(link);
    let mut sim: Sim<GcMsg<BusWire>> = SimBuilder::new(seed).network(net).build();
    for i in 0..REPLICAS {
        sim.add_actor(NodeId(i), replica(i, gated));
    }
    for i in 0..REPLICAS {
        for w in 0..WRITES_EACH {
            let at = SimTime::from_millis(10 + w as u64 * 50);
            sim.inject(
                at,
                NodeId(i),
                NodeId(i),
                GcMsg::AppCmd(BusWire::new(CoopEvent::broadcast(
                    NodeId(i),
                    ARTEFACT,
                    at,
                    CoopKind::Activity(ActivityKind::Edit),
                ))),
            );
        }
    }
    sim
}

fn counters(sim: &Sim<GcMsg<BusWire>>) -> BTreeMap<String, u64> {
    sim.metrics()
        .counters()
        .map(|(name, value)| (name.to_owned(), value))
        .collect()
}

/// `(observer, publisher, weight)` per surfaced delivery, per node.
fn deliveries(actor: &BusActor) -> Vec<(NodeId, NodeId, f64)> {
    actor
        .delivered()
        .iter()
        .map(|d| (d.observer, d.event.actor, d.weight))
        .collect()
}

/// Deliveries surfaced across the replicas, and the publications
/// their rights gates suppressed.
fn census(sim: &Sim<GcMsg<BusWire>>) -> (usize, u64) {
    (0..REPLICAS)
        .map(|i| {
            sim.get::<BusActor>(ActorHandle::of(NodeId(i)))
                .expect("replica")
        })
        .fold((0, 0), |(delivered, suppressed), r| {
            (
                delivered + r.delivered().len(),
                suppressed + r.bus().suppressed_by_rights(),
            )
        })
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

/// What one seeded fan-out run must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// Final `Sim::now()`, in microseconds.
    now_us: u64,
    /// `Sim::events_processed()`.
    events: u64,
    /// Trace records and span-log events, an instantaneous span
    /// counted as its open and its close.
    records: (usize, usize),
    /// Digest of the trace (time, node, label, data of every record)
    /// and of the span log (time, node, op, ids, kind of every open
    /// and close).
    trace: u64,
    /// Digest of every metrics counter, name and value, in name order.
    counters: u64,
    /// Digest of each replica's `(observer, publisher, weight)` per
    /// surfaced delivery, replica by replica.
    deliveries: u64,
}

fn golden_of(sim: &Sim<GcMsg<BusWire>>) -> Golden {
    let mut trace = Fnv::new();
    for rec in sim.trace().events() {
        trace.word(rec.time.as_micros());
        trace.word(u64::from(rec.node.0));
        trace.text(&rec.label);
        trace.text(&rec.data);
    }
    // An instantaneous span is one record but digests, and counts, as
    // the open and close pair it stands for: the table below pins the
    // log read as open/close pairs, whichever way a span was written.
    let spans = sim.trace().spans();
    let mut span_records = 0;
    for ev in spans.events() {
        if let Some((span, kind)) = ev.op.opened() {
            trace.word(ev.time_us);
            trace.word(u64::from(ev.node));
            trace.word(0);
            trace.word(span.trace_id);
            trace.word(span.span_id);
            trace.word(u64::from(span.parent.is_some()));
            trace.word(span.parent.unwrap_or(0));
            trace.text(spans.kind(kind));
            span_records += 1;
        }
        if let Some((trace_id, span_id)) = ev.op.closed() {
            trace.word(ev.time_us);
            trace.word(u64::from(ev.node));
            trace.word(1);
            trace.word(trace_id);
            trace.word(span_id);
            span_records += 1;
        }
    }
    let mut counts = Fnv::new();
    for (name, value) in counters(sim) {
        counts.text(&name);
        counts.word(value);
    }
    let mut delivered = Fnv::new();
    for i in 0..REPLICAS {
        let replica: &BusActor = sim.get(ActorHandle::of(NodeId(i))).expect("replica");
        let rows = deliveries(replica);
        delivered.word(rows.len() as u64);
        for (observer, publisher, weight) in rows {
            delivered.word(u64::from(observer.0));
            delivered.word(u64::from(publisher.0));
            delivered.word(weight.to_bits());
        }
    }
    Golden {
        now_us: sim.now().as_micros(),
        events: sim.events_processed(),
        records: (sim.trace().events().len(), span_records),
        trace: trace.0,
        counters: counts.0,
        deliveries: delivered.0,
    }
}

/// The fan-out's record per `(seed, gated)`.
const GOLDEN: [(u64, bool, Golden); 6] = [
    (
        1,
        true,
        Golden {
            now_us: 30_000_000,
            events: 5_288,
            records: (0, 400),
            trace: 0x8d33_888a_8bdf_000d,
            counters: 0x7b6e_7e68_daff_d084,
            deliveries: 0x5072_02f3_5d81_7331,
        },
    ),
    (
        1,
        false,
        Golden {
            now_us: 30_000_000,
            events: 5_288,
            records: (0, 512),
            trace: 0xb162_80d6_5bb7_3fd6,
            counters: 0x3deb_2576_9377_89dc,
            deliveries: 0x9b1a_fc9d_123e_6aa1,
        },
    ),
    (
        42,
        true,
        Golden {
            now_us: 30_000_000,
            events: 5_288,
            records: (0, 400),
            trace: 0xfea1_9c94_9572_5453,
            counters: 0x7b6e_7e68_daff_d084,
            deliveries: 0xe7ba_04ae_7f03_7301,
        },
    ),
    (
        42,
        false,
        Golden {
            now_us: 30_000_000,
            events: 5_288,
            records: (0, 512),
            trace: 0xdaa7_7b07_fa7a_bc72,
            counters: 0x3deb_2576_9377_89dc,
            deliveries: 0xc761_647f_81d9_0b41,
        },
    ),
    (
        0xC5C3,
        true,
        Golden {
            now_us: 30_000_000,
            events: 5_290,
            records: (0, 400),
            trace: 0xa4e2_df90_97d8_e633,
            counters: 0x42fe_6db1_76e2_44bc,
            deliveries: 0x6f15_5030_b928_4f05,
        },
    ),
    (
        0xC5C3,
        false,
        Golden {
            now_us: 30_000_000,
            events: 5_290,
            records: (0, 512),
            trace: 0x13a2_13a5_5754_4304,
            counters: 0x378e_e73f_15ae_8564,
            deliveries: 0xae76_da70_a9db_dadd,
        },
    ),
];

fn golden(seed: u64, gated: bool) -> &'static Golden {
    GOLDEN
        .iter()
        .find(|(s, g, _)| (*s, *g) == (seed, gated))
        .map(|(_, _, golden)| golden)
        .expect("a pinned record")
}

#[test]
fn e13_fanout_matches_its_pinned_golden() {
    // Each of the 32 publications is offered to the observers of the 7
    // other replicas. Open, all 7 surface it: 224. Gated, the readers
    // do (5 of them when the publisher is a reader, 24 publications; 6
    // when not, 8) and the rest are suppressed: 24 * 5 + 8 * 6 = 168
    // surfaced, 24 * 2 + 8 * 1 = 56 suppressed.
    for seed in [1u64, 42, 0xC5C3] {
        for (gated, expected) in [(true, (168, 56)), (false, (224, 0))] {
            let mut sim = fanout_sim(seed, gated);
            sim.run(Until::For(SimDuration::from_secs(30)));

            assert_eq!(
                golden_of(&sim),
                *golden(seed, gated),
                "record moved on seed {seed}, gated {gated}"
            );
            assert_eq!(
                census(&sim),
                expected,
                "(surfaced, suppressed) on seed {seed}, gated {gated}"
            );

            // One well-formed `aware.publish` root per publication and one
            // `aware.deliver` child per surfaced grant.
            let collector = Collector::from_trace(sim.trace());
            if let Err(e) = collector.well_formed() {
                panic!("span audit failed on seed {seed}, gated {gated}: {e}");
            }
            let report = TelemetryReport::from_collector(seed, &collector, sim.trace().dropped());
            let aware = &report.subsystems["aware"].counters;
            assert_eq!(
                (aware["aware.publish"], aware["aware.deliver"]),
                (u64::from(REPLICAS * WRITES_EACH), expected.0 as u64),
                "span census on seed {seed}, gated {gated}"
            );
        }
    }
}
