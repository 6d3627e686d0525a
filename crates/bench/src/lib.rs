#![warn(missing_docs)]

//! # cscw-bench — the measuring side of the workspace
//!
//! All on the fixed [`REPORT_SEED`]: the `report` binary regenerates
//! every derived-experiment table for EXPERIMENTS.md, and six
//! **measuring bins** each write one `BENCH_*.json` and gate CI — `campus_rush_hour` (scheduler
//! scale), `fabric_deliver` (zero-copy fan-out), `telemetry_report`
//! (span overhead on E13), `awareness_fanout` (rights-gated bus),
//! `net_fanout` (sim vs TCP loopback), `collab_raster` (placement
//! controller off vs on). All six sit on [`harness`]: one timing
//! protocol, one JSON report writer, one gate (thresholds in
//! `crates/bench/floors.json`), one exit. [`e13`] holds the workloads
//! more than one bin runs.
//!
//! ```text
//! cargo run -p cscw-bench --bin report --release
//! cargo run -p cscw-bench --bin telemetry_report --release [OUT.json]
//! ```

pub mod e13;
pub mod harness;

/// The default seed used by the report binary and the bins, so published
/// numbers are reproducible.
pub const REPORT_SEED: u64 = 42;

/// Renders all experiment tables to a string (what `report` prints).
pub fn render_report() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for table in cscw_core::experiments::run_all(REPORT_SEED) {
        writeln!(out, "{table}").expect("string write");
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_renders_every_experiment() {
        let report = super::render_report();
        for id in ["[E1]", "[E4]", "[E8]", "[E12]"] {
            assert!(report.contains(id), "missing {id}");
        }
    }
}
