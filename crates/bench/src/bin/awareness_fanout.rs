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
//! The variants are timed interleaved under the harness protocol. A
//! final instrumented gated run audits the `aware.publish` /
//! `aware.deliver` span DAG and the bench fails if it is malformed.
//!
//! ```text
//! cargo run -p cscw-bench --bin awareness_fanout --release [OUT.json]
//! ```

use cscw_bench::e13::{self, REPLICAS, WRITES_EACH};
use cscw_bench::harness::{self, Bench};
use odp_telemetry::collector::Collector;

/// Observers holding read rights on the artefact (the first N nodes).
const READERS: u32 = 6;
/// Timed rounds per variant; the fastest is reported.
const ITERS: u32 = 30;

fn main() {
    harness::main("awareness_fanout", "BENCH_awareness.json", run);
}

fn run(bench: &mut Bench) -> Result<(), String> {
    let seed = cscw_bench::REPORT_SEED;
    let bus = |gated: bool| e13::bus(REPLICAS, gated.then_some(READERS));
    let fanout = |gated, telemetry| e13::bus_fanout_sim(seed, REPLICAS, || bus(gated), telemetry);
    let variant = |gated: bool| {
        move || {
            let (ns, sim) = e13::run_timed(fanout(gated, false));
            Ok((ns, e13::fanout_census(&sim, REPLICAS)))
        }
    };
    let [(direct_ns, direct), (gated_ns, gated)] =
        harness::interleaved(ITERS, [&mut variant(false), &mut variant(true)])?;
    let (direct_deliveries, direct_suppressed) = direct;
    let (gated_deliveries, gated_suppressed) = gated;
    let overhead_pct = harness::overhead_pct(&direct_ns, &gated_ns);

    // One instrumented gated run: the aware.publish/aware.deliver span
    // DAG must be well-formed, with one publish root per publication
    // and one deliver leaf per surfaced grant.
    let (_, audited) = e13::run_timed(fanout(true, true));
    let collector = Collector::from_trace(audited.trace());
    collector
        .well_formed()
        .map_err(|e| format!("span audit failed: {e}"))?;
    let spans = |kind: &str| {
        let all = collector.traces().flat_map(|(_, dag)| dag.spans());
        all.filter(|span| span.kind == kind).count() as u64
    };
    let (publish_spans, deliver_spans) = (spans("aware.publish"), spans("aware.deliver"));
    let publications = u64::from(REPLICAS * WRITES_EACH);
    if publish_spans != publications || deliver_spans != gated_deliveries {
        return Err(format!(
            "span census disagrees with the bus: {publish_spans}/{publications} publish, \
             {deliver_spans}/{gated_deliveries} deliver"
        ));
    }

    bench
        .report
        .text("workload", "e13-awareness-fanout")
        .int("replicas", REPLICAS)
        .int("writes_each", WRITES_EACH)
        .int("readers", READERS)
        .int("iters", ITERS)
        .int("publications", publications)
        .timing("direct_ns", &direct_ns)
        .timing("gated_ns", &gated_ns)
        .float("overhead_pct", overhead_pct, 3)
        .int("direct_deliveries", direct_deliveries)
        .int("direct_suppressed", direct_suppressed)
        .int("gated_deliveries", gated_deliveries)
        .int("suppressed_by_rights", gated_suppressed)
        .int("publish_spans", publish_spans)
        .int("deliver_spans", deliver_spans);
    Ok(())
}
