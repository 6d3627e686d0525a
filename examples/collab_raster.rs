//! A collaborative raster-editing session with closed-loop placement:
//! two islands of editors take turns panning a shared tiled canvas,
//! and a telemetry-driven controller migrates the hot tiles to
//! whichever side of the WAN is doing the editing.
//!
//! Phase 1: the island-A editors work next to storage A, so every
//! access is a LAN round trip. Then the session view changes — A goes
//! home, island B picks up the canvas from across a 20 ms WAN. With
//! the controller off, island B pays the WAN on every access forever.
//! With it on, the critical paths and access counts the editors report
//! tell the controller the locus moved; it freezes each hot tile,
//! streams it to storage B in bounded chunks, re-registers its trader
//! offer, and announces the move on the awareness bus.
//!
//! Run with: `cargo run --example collab_raster`

use cscw::place::controller::{PlacementActor, ACCESS_KIND_PREFIX};
use cscw::place::scenario::{collab_raster, EditorActor, RasterConfig, RasterScenario};
use cscw::place::wire::PlaceWire;
use cscw::sim::sim::{ActorHandle, Sim, Until};
use odp_telemetry::collector::Collector;

/// Mean phase-2 access latency (microseconds) over the run's traces.
fn phase2_mean_us(sim: &Sim<PlaceWire>, sc: &RasterScenario) -> f64 {
    let collector = Collector::from_trace(sim.trace());
    let mut total = 0u64;
    let mut n = 0u64;
    for (_, dag) in collector.traces() {
        let path = dag.critical_path();
        let (Some(root), Some(tail)) = (path.first(), path.last()) else {
            continue;
        };
        if !root.kind.starts_with(ACCESS_KIND_PREFIX) || root.opened < sc.phase2_start {
            continue;
        }
        let closed = tail.closed.unwrap_or(root.opened);
        total += closed.saturating_since(root.opened).as_micros();
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        total as f64 / n as f64
    }
}

fn run(controller_on: bool) -> (Sim<PlaceWire>, RasterScenario) {
    let cfg = RasterConfig {
        controller_on,
        // A longer phase 2 than the scenario default, so the LAN
        // steady state the migrations buy dominates the mean rather
        // than just the switchover tail.
        phase_ops: 160,
        ..RasterConfig::default()
    };
    let (mut sim, sc) = collab_raster(&cfg);
    sim.run(Until::Idle);
    (sim, sc)
}

fn main() {
    println!("Collaborative raster editing with closed-loop placement");
    println!("=======================================================\n");

    let (off_sim, off_sc) = run(false);
    let (on_sim, on_sc) = run(true);

    let ctl = on_sim
        .get::<PlacementActor>(ActorHandle::of(on_sc.controller))
        .expect("controller");

    println!(
        "phase 2 (island B, across the WAN) starts at {} ms\n",
        on_sc.phase2_start.as_millis()
    );
    println!("migrations the controller committed:");
    for ev in ctl.migrations() {
        println!(
            "  t={:>5} ms  tile c{:<2}  {:?} -> {:?}  (predicted {:.0} us -> {:.0} us)",
            ev.at.as_millis(),
            ev.cluster.0,
            ev.from,
            ev.to,
            ev.cost_before_us,
            ev.cost_after_us
        );
    }

    let notices: usize = on_sc
        .editors_b
        .iter()
        .filter_map(|&e| on_sim.get::<EditorActor>(ActorHandle::of(e)))
        .map(|h| h.notices().len())
        .sum();
    println!("\nawareness notices delivered to island-B editors: {notices}");

    let off_mean = phase2_mean_us(&off_sim, &off_sc);
    let on_mean = phase2_mean_us(&on_sim, &on_sc);
    println!("\nmean phase-2 access latency:");
    println!("  controller off : {off_mean:>9.1} us  (every access pays the WAN)");
    println!("  controller on  : {on_mean:>9.1} us");
    println!(
        "\nthe controller cut phase-2 critical paths by {:.1}x once the",
        off_mean / on_mean
    );
    println!("hot tiles followed the editors to their side of the WAN.");
}
