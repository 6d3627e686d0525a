#![warn(missing_docs)]

//! # odp-telemetry — causal span analysis and run reports
//!
//! The paper demands *end-to-end monitoring* of QoS (the continuous
//! media requirement: negotiate, monitor, re-negotiate) and management
//! driven by observed access patterns (§4.2.1). This crate supplies the
//! after-the-run half of the observability layer those demands imply.
//! Spans themselves are not made here: an instrumented actor mints an
//! [`odp_fabric::SpanCarrier`] from its seeded rng
//! ([`DetRng::span_root`] / [`DetRng::span_child`]), carries it on its
//! envelopes and records it into the run's [`odp_sim::trace::Trace`]
//! through its context: one `span_instant` record for a span that opens
//! and closes in one handler, a `span_open` and a later `span_close` for
//! one that outlives it. This crate reads that record back, an instant
//! record as an open and a close at the same time:
//!
//! - [`collector`] — the [`Collector`] assembling spans into per-trace
//!   causal DAGs, with well-formedness audits and critical-path
//!   extraction (the longest virtual-time chain — for a quorum group
//!   RPC, the slowest member's reply chain);
//! - [`report`] — the [`TelemetryReport`] aggregating span counts and
//!   latency percentiles per subsystem.
//!
//! Everything is deterministic: span ids derive from forked [`DetRng`]
//! streams, timestamps are virtual, and reports are `BTreeMap`s — two
//! runs with one seed produce identical reports.
//!
//! ```
//! use odp_sim::net::NodeId;
//! use odp_sim::rng::DetRng;
//! use odp_sim::time::SimTime;
//! use odp_telemetry::prelude::*;
//!
//! let mut rng = DetRng::seed_from(42);
//! let call = rng.span_root();
//! let serve = rng.span_child(&call);
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
//! let path: Vec<_> = dag.critical_path().iter().map(|s| &*s.kind).collect();
//! assert_eq!(path, ["rpc.call", "rpc.serve"]);
//! ```
//!
//! [`DetRng`]: odp_sim::rng::DetRng
//! [`DetRng::span_root`]: odp_sim::rng::DetRng::span_root
//! [`DetRng::span_child`]: odp_sim::rng::DetRng::span_child

pub mod collector;
pub mod report;

pub use collector::{Collector, SpanRecord, TraceDag};
pub use report::{SubsystemReport, TelemetryReport};

/// Everything a harness reading a finished run typically needs.
pub mod prelude {
    pub use crate::collector::{Collector, SpanRecord, TraceDag};
    pub use crate::report::{SubsystemReport, TelemetryReport};
}
