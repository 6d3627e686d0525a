//! Measures cooperation-event fan-out on the E13 workload and writes
//! `BENCH_awareness.json`.
//!
//! The workload is E13's largest configuration (8 replicas over the
//! 15 ms WAN, 4 broadcast edits each), published through [`BusActor`]
//! replicas twice on the report seed:
//!
//! - **direct** — an open bus (no policy, gate disarmed), which is by
//!   construction the pre-refactor direct-notice behaviour: every
//!   observer hears every event;
//! - **gated** — the rights-gated bus: six of the eight observers hold
//!   read rights on the shared artefact, two are suppressed with the
//!   `suppressed_by_rights` counter disclosed.
//!
//! Each variant is timed over several interleaved iterations and the
//! fastest run is kept, so the overhead figure reflects the rights
//! gate, not scheduler noise. A final instrumented gated run audits the
//! `aware.publish`/`aware.deliver` span DAG and the bench fails hard if
//! it is malformed.
//!
//! ```text
//! cargo run -p cscw-bench --bin awareness_fanout --release [OUT.json]
//! ```

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
use odp_telemetry::report::json_string;

/// E13's largest group size.
const REPLICAS: u32 = 8;
/// Broadcast edits published per replica.
const WRITES_EACH: u32 = 4;
/// Observers holding read rights on the artefact (the first N nodes).
const READERS: u32 = 6;
/// The shared artefact every edit concerns.
const ARTEFACT: &str = "doc/plan";
/// Timed iterations per variant; the fastest is reported.
const ITERS: u32 = 30;

/// The scenario policy: nodes `0..READERS` may read `doc/*`.
fn reader_policy() -> RbacPolicy {
    let mut policy = RbacPolicy::new();
    policy.add_rule(RoleId(1), "doc".into(), Rights::READ, Effect::Allow);
    for i in 0..READERS {
        policy.assign(Subject(i), RoleId(1));
    }
    policy
}

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

/// The E13-shaped fan-out sim: `REPLICAS` bus replicas over the 15 ms
/// WAN, each publishing `WRITES_EACH` broadcast edits.
fn fanout_sim(seed: u64, gated: bool, telemetry: bool) -> Sim<GcMsg<BusWire>> {
    let view = View::initial(GroupId(0), (0..REPLICAS).map(NodeId));
    let link = LinkSpec::wan(SimDuration::from_millis(15));
    let mut net = Network::new(link);
    net.set_default_link(link);
    let mut sim: Sim<GcMsg<BusWire>> = SimBuilder::new(seed).network(net).build();
    for i in 0..REPLICAS {
        let mut actor = BusActor::new(NodeId(i), view.clone(), replica_bus(gated));
        actor.set_telemetry(telemetry);
        sim.add_actor(NodeId(i), actor);
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

/// Runs one variant once; returns the wall-clock nanoseconds of
/// the 30 s run and the finished sim.
fn run_once(seed: u64, gated: bool, telemetry: bool) -> (u128, Sim<GcMsg<BusWire>>) {
    let mut sim = fanout_sim(seed, gated, telemetry);
    let start = std::time::Instant::now(); // odp-check: allow(wallclock)
    sim.run(Until::For(SimDuration::from_secs(30)));
    (start.elapsed().as_nanos(), sim)
}

/// Deliveries surfaced across all replicas, and the total publications
/// the rights gate suppressed.
fn fanout_counts(sim: &Sim<GcMsg<BusWire>>) -> (u64, u64) {
    let mut delivered = 0u64;
    let mut suppressed = 0u64;
    for i in 0..REPLICAS {
        let actor: &BusActor = sim
            .get(ActorHandle::of(NodeId(i)))
            .expect("bus replica exists");
        delivered += actor.delivered().len() as u64;
        suppressed += actor.bus().suppressed_by_rights();
    }
    (delivered, suppressed)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_awareness.json".to_owned());
    let seed = cscw_bench::REPORT_SEED;

    // Warm-up round, then interleave the variants so frequency drift
    // hits both equally; keep each variant's fastest run.
    let (_, direct_sim) = run_once(seed, false, false);
    let (_, gated_sim) = run_once(seed, true, false);
    let mut direct_ns = u128::MAX;
    let mut gated_ns = u128::MAX;
    for _ in 0..ITERS {
        let (off_ns, _) = run_once(seed, false, false);
        direct_ns = direct_ns.min(off_ns);
        let (on_ns, _) = run_once(seed, true, false);
        gated_ns = gated_ns.min(on_ns);
    }
    let (direct_deliveries, direct_suppressed) = fanout_counts(&direct_sim);
    let (gated_deliveries, gated_suppressed) = fanout_counts(&gated_sim);

    // One instrumented gated run: the aware.publish/aware.deliver span
    // DAG must be well-formed, with one publish root per publication
    // and one deliver leaf per surfaced grant.
    let (_, audited) = run_once(seed, true, true);
    let collector = Collector::from_trace(audited.trace());
    if let Err(e) = collector.well_formed() {
        eprintln!("awareness_fanout: span audit failed: {e}");
        std::process::exit(1);
    }
    let (mut publish_spans, mut deliver_spans) = (0u64, 0u64);
    for (_, dag) in collector.traces() {
        for span in dag.spans() {
            match span.kind.as_str() {
                "aware.publish" => publish_spans += 1,
                "aware.deliver" => deliver_spans += 1,
                _ => {}
            }
        }
    }
    let publications = u64::from(REPLICAS * WRITES_EACH);
    if publish_spans != publications || deliver_spans != gated_deliveries {
        eprintln!(
            "awareness_fanout: span census disagrees with the bus: \
             {publish_spans}/{publications} publish, \
             {deliver_spans}/{gated_deliveries} deliver"
        );
        std::process::exit(1);
    }

    let overhead_pct = if direct_ns > 0 {
        (gated_ns as f64 - direct_ns as f64) / direct_ns as f64 * 100.0
    } else {
        f64::NAN
    };

    let json = format!(
        "{{\"workload\":{},\"replicas\":{REPLICAS},\"writes_each\":{WRITES_EACH},\
         \"readers\":{READERS},\"iters\":{ITERS},\"publications\":{publications},\
         \"direct_ns\":{direct_ns},\"gated_ns\":{gated_ns},\
         \"overhead_pct\":{overhead_pct:.3},\
         \"direct_deliveries\":{direct_deliveries},\
         \"direct_suppressed\":{direct_suppressed},\
         \"gated_deliveries\":{gated_deliveries},\
         \"suppressed_by_rights\":{gated_suppressed},\
         \"publish_spans\":{publish_spans},\"deliver_spans\":{deliver_spans}}}",
        json_string("e13-awareness-fanout"),
    );
    if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
        eprintln!("awareness_fanout: cannot write {out_path}: {e}");
        std::process::exit(1);
    }

    println!("awareness fan-out on E13 (seed {seed}, best of {ITERS}):");
    println!("  direct  {direct_ns:>12} ns  {direct_deliveries} deliveries");
    println!(
        "  gated   {gated_ns:>12} ns  {gated_deliveries} deliveries, \
         {gated_suppressed} suppressed by rights"
    );
    println!("  gate overhead {overhead_pct:>8.3} %");
    println!("  wrote {out_path}");
}
