#![warn(missing_docs)]

//! # odp-telemetry — causal span tracing and run reports
//!
//! The paper demands *end-to-end monitoring* of QoS (the continuous
//! media requirement: negotiate, monitor, re-negotiate) and management
//! driven by observed access patterns (§4.2.1). This crate supplies the
//! observability layer those demands imply, on top of the deterministic
//! simulator:
//!
//! - [`span`] — [`SpanContext`] identities minted from the sim's seeded
//!   RNG (no wallclock anywhere), a compact textual wire format layered
//!   on [`odp_sim::trace::Trace`] events, and the [`Carrier`] trait by
//!   which protocol envelopes piggyback spans across hops;
//! - [`collector`] — the [`Collector`] assembling spans into per-trace
//!   causal DAGs, with well-formedness audits and critical-path
//!   extraction (the longest virtual-time chain — for a quorum group
//!   RPC, the slowest member's reply chain);
//! - [`report`] — the [`TelemetryReport`] aggregating
//!   counters and latency percentiles per subsystem, rendered as
//!   deterministic JSON for `BENCH_telemetry.json` rows.
//!
//! Everything is deterministic: span ids derive from forked [`DetRng`]
//! streams, timestamps are virtual, and report JSON serializes
//! `BTreeMap`s — two runs with one seed produce identical bytes.
//!
//! ```
//! use odp_sim::net::NodeId;
//! use odp_sim::rng::DetRng;
//! use odp_sim::time::SimTime;
//! use odp_telemetry::prelude::*;
//!
//! let mut rng = DetRng::seed_from(42);
//! let call = SpanContext::root(&mut rng);
//! let serve = call.child(&mut rng);
//!
//! let mut c = Collector::new();
//! c.ingest_open(SimTime::ZERO, NodeId(0), call, "rpc.call");
//! c.ingest_open(SimTime::from_millis(3), NodeId(1), serve, "rpc.serve");
//! // The reply lands at 8 ms, closing the serve span and the call
//! // span at the same instant; the tie breaks toward the deeper span.
//! c.ingest_close(SimTime::from_millis(8), serve.trace_id, serve.span_id);
//! c.ingest_close(SimTime::from_millis(8), call.trace_id, call.span_id);
//!
//! let dag = c.trace(call.trace_id).unwrap();
//! assert!(dag.well_formed().is_ok());
//! let path: Vec<_> = dag.critical_path().iter().map(|s| s.kind.clone()).collect();
//! assert_eq!(path, ["rpc.call", "rpc.serve"]);
//! ```
//!
//! [`DetRng`]: odp_sim::rng::DetRng

pub mod collector;
pub mod report;
pub mod span;
pub mod wire;

pub use collector::{Collector, SpanRecord, TraceDag};
pub use report::{SubsystemReport, TelemetryReport};
pub use span::{Carrier, SpanContext};

/// Everything an instrumented subsystem typically needs.
pub mod prelude {
    pub use crate::collector::{Collector, SpanRecord, TraceDag};
    pub use crate::report::{SubsystemReport, TelemetryReport};
    pub use crate::span::{Carrier, SpanContext};
}
