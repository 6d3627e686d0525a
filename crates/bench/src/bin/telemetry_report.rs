//! Measures the telemetry subsystem's overhead on the E13
//! replicated-workspace workload, gates it, and writes
//! `BENCH_telemetry.json`.
//!
//! The workload ([`cscw_bench::e13::e13_sim`]) runs on the report seed
//! with span telemetry off (the baseline) and with every replica's
//! `set_telemetry(true)`, interleaved under the harness protocol. It
//! simulates in ~2 ms, where a single sample is noisy by a few points
//! either way, so the round count is generous and the overhead is the
//! median of the per-round differences (see
//! [`harness::overhead_pct`]): that settles around 1 % to within a few
//! tenths, while a real regression (like reverting to string spans,
//! ~9.8 %) shifts every round. This is the workspace's only timing of
//! that overhead and the CI gate on it (`telemetry_overhead_pct`). The
//! gate is a ratio, so it also rises when the *baseline* gets faster;
//! `span_ns_per_delivery` beside it — the same paired difference over
//! the edits applied — says whether the instrumentation itself moved.
//!
//! One further instrumented run's trace is assembled into a
//! [`Collector`], audited, and aggregated into the machine-readable
//! [`TelemetryReport`] embedded in the JSON.
//!
//! ```text
//! cargo run -p cscw-bench --bin telemetry_report --release [OUT.json]
//! ```

use cscw_bench::e13::{self, REPLICAS, WRITES_EACH};
use cscw_bench::harness::{self, Bench};
use odp_telemetry::collector::Collector;
use odp_telemetry::report::TelemetryReport;

/// Timed rounds per variant; the fastest is reported.
const ITERS: u32 = 1000;

fn main() {
    harness::main("telemetry_report", "BENCH_telemetry.json", run);
}

fn run(bench: &mut Bench) -> Result<(), String> {
    let seed = cscw_bench::REPORT_SEED;
    let variant = |telemetry: bool| {
        move || {
            let (ns, sim) = e13::run_timed(e13::e13_sim(seed, telemetry));
            Ok((ns, sim.events_processed()))
        }
    };
    let [(baseline_ns, _), (instrumented_ns, _)] =
        harness::interleaved(ITERS, [&mut variant(false), &mut variant(true)])?;
    let overhead_pct = harness::overhead_pct(&baseline_ns, &instrumented_ns);

    let (_, sim) = e13::run_timed(e13::e13_sim(seed, true));
    // The same overhead as an absolute cost per applied edit: the
    // percentage's denominator shrinks when the workload itself gets
    // faster, this does not.
    let span_ns_per_delivery =
        harness::overhead_ns(&baseline_ns, &instrumented_ns) / e13::applied(&sim) as f64;
    let collector = Collector::from_trace(sim.trace());
    collector
        .well_formed()
        .map_err(|e| format!("span audit failed: {e}"))?;
    let report = TelemetryReport::from_collector(seed, &collector, sim.trace().dropped());

    bench
        .report
        .text("workload", "e13-replicated-workspace")
        .int("replicas", REPLICAS)
        .int("writes_each", WRITES_EACH)
        .int("iters", ITERS)
        .timing("baseline_ns", &baseline_ns)
        .timing("instrumented_ns", &instrumented_ns)
        .float("overhead_pct", overhead_pct, 3)
        .float("span_ns_per_delivery", span_ns_per_delivery, 1)
        .raw("report", report.to_json());
    bench.at_most("telemetry_overhead_pct", overhead_pct)?;
    Ok(())
}
