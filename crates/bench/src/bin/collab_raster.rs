//! Runs the `collab_raster` placement workload with the controller's
//! policy loop off and on, and writes `BENCH_placement.json`.
//!
//! Both arms execute the identical two-phase schedule on the report
//! seed: island-A editors pan the canvas over the LAN, then the view
//! changes and island-B editors repeat the panning across the WAN.
//! The measured quantity is the virtual-time critical-path latency of
//! every phase-2 tile access (root spans of kind
//! `tile.access.c*` opened at or after the phase boundary). With the
//! controller off, every phase-2 access pays a WAN round trip forever;
//! with it on, the telemetry loop should notice the access locus
//! moved, migrate the hot tiles to island B, and cut the tail of
//! phase 2 down to LAN round trips.
//!
//! The process exits non-zero — failing the CI gate — if the
//! controller-on arm migrated nothing, if its mean critical path is
//! not shorter than the baseline's by at least the
//! `raster_improvement_ratio` of `floors.json`, or if either arm's
//! span log fails the telemetry audit. The workload's WAN round trip
//! is ~40× the LAN one and a healthy controller converts most of
//! phase 2 to LAN trips (~2.8× on the report seed, pre-migration WAN
//! accesses included); a controller that migrates late, thrashes, or
//! freezes writers for too long falls under the bound.
//!
//! ```text
//! cargo run -p cscw-bench --bin collab_raster --release [OUT.json]
//! ```

use cscw_bench::harness::{self, Bench, Report};
use odp_net::sim_host::SimHost;
use odp_place::controller::{PlacementActor, ACCESS_KIND_PREFIX};
use odp_place::scenario::{collab_raster, RasterConfig, RasterScenario};
use odp_sim::sim::{ActorHandle, Until};
use odp_telemetry::collector::Collector;

/// One arm's measured outcome.
struct Arm {
    /// Phase-2 critical-path latencies, microseconds, sorted.
    lat_us: Vec<u64>,
    /// Committed migrations.
    migrations: usize,
    /// Migration decisions taken (committed or aborted).
    decisions: usize,
    /// Writes refused (and retried) during freeze windows.
    refused: u64,
    /// Editor ops skipped by the one-outstanding-per-tile rule.
    skipped: u64,
}

impl Arm {
    /// NaN for an arm without samples.
    fn mean_us(&self) -> f64 {
        self.lat_us.iter().sum::<u64>() as f64 / self.lat_us.len() as f64
    }

    fn p95_us(&self) -> u64 {
        if self.lat_us.is_empty() {
            return 0;
        }
        let idx = (self.lat_us.len() * 95).div_ceil(100).saturating_sub(1);
        self.lat_us[idx.min(self.lat_us.len() - 1)]
    }

    fn report(&self) -> Report {
        let mut arm = Report::default();
        arm.int("samples", self.lat_us.len() as u64)
            .float("mean_us", self.mean_us(), 1)
            .int("p95_us", self.p95_us())
            .int("migrations", self.migrations as u64)
            .int("decisions", self.decisions as u64)
            .int("writes_refused", self.refused)
            .int("ops_skipped", self.skipped);
        arm
    }
}

fn bench_config(controller_on: bool) -> RasterConfig {
    RasterConfig {
        seed: cscw_bench::REPORT_SEED,
        controller_on,
        // Longer phases than the scenario default: the controller
        // needs a few telemetry rounds plus the transfers themselves
        // before phase 2 goes local, and the benchmark should measure
        // the steady state it buys, not just the switchover.
        phase_ops: 160,
        ..RasterConfig::default()
    }
}

/// Runs one arm to quiescence and extracts its metrics.
fn run_arm(controller_on: bool) -> Result<Arm, String> {
    let cfg = bench_config(controller_on);
    let (mut sim, sc) = collab_raster(&cfg);
    sim.run(Until::Idle);
    if sim.trace().dropped() > 0 {
        return Err("trace ring overflowed; metrics would lie".to_owned());
    }

    let collector = Collector::from_trace(sim.trace());
    collector
        .well_formed()
        .map_err(|e| format!("span audit failed (controller_on={controller_on}): {e}"))?;

    let mut lat_us = Vec::new();
    for (_, dag) in collector.traces() {
        let path = dag.critical_path();
        let (Some(root), Some(tail)) = (path.first(), path.last()) else {
            continue;
        };
        if !root.kind.starts_with(ACCESS_KIND_PREFIX) || root.opened < sc.phase2_start {
            continue;
        }
        let closed = tail.closed.unwrap_or(root.opened);
        lat_us.push(closed.saturating_since(root.opened).as_micros());
    }
    lat_us.sort_unstable();

    let ctl = sim
        .get::<SimHost<PlacementActor>>(ActorHandle::of(sc.controller))
        .expect("controller actor")
        .inner();
    let (refused, skipped) = editor_totals(&sim, &sc);
    Ok(Arm {
        lat_us,
        migrations: ctl.migrations().len(),
        decisions: ctl.decisions().len(),
        refused,
        skipped,
    })
}

fn editor_totals(
    sim: &odp_sim::sim::Sim<odp_place::wire::PlaceWire>,
    sc: &RasterScenario,
) -> (u64, u64) {
    let mut refused = 0;
    let mut skipped = 0;
    for &e in sc.editors_a.iter().chain(&sc.editors_b) {
        let ed = sim
            .get::<SimHost<odp_place::scenario::EditorActor>>(ActorHandle::of(e))
            .expect("editor actor")
            .inner();
        refused += ed.refusals();
        skipped += ed.skipped();
    }
    (refused, skipped)
}

fn main() {
    harness::main("collab_raster", "BENCH_placement.json", run);
}

fn run(bench: &mut Bench) -> Result<(), String> {
    let cfg = bench_config(true);
    let off = run_arm(false)?;
    let on = run_arm(true)?;

    if off.migrations != 0 {
        return Err("baseline arm migrated — arms are not comparable".to_owned());
    }
    if on.migrations == 0 {
        return Err("controller-on arm committed no migrations".to_owned());
    }
    if off.lat_us.is_empty() || on.lat_us.is_empty() {
        return Err("an arm produced no phase-2 access spans".to_owned());
    }

    let improvement = off.mean_us() / on.mean_us();
    let min_improvement = bench.at_least("raster_improvement_ratio", improvement)?;
    bench
        .report
        .text("workload", "collab-raster")
        .int("seed", cfg.seed)
        .int("tiles", cfg.tiles)
        .int("editors_per_island", cfg.editors_per_island as u64)
        .int("phase_ops", cfg.phase_ops as u64)
        .int("wan_ms", cfg.wan.as_millis())
        .raw("off", off.report().to_json())
        .raw("on", on.report().to_json())
        .float("improvement_ratio", improvement, 3)
        .float("min_improvement_ratio", min_improvement, 1);
    Ok(())
}
