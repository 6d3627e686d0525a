//! Run reports.
//!
//! A [`TelemetryReport`] aggregates a [`Collector`] into per-subsystem
//! span counts and latency percentiles, kept in `BTreeMap`s so a run
//! reads back in one order. [`json_string`] escapes a string into a
//! JSON literal for the tools that write JSON by hand (the workspace
//! vendors no serializer).

use std::collections::BTreeMap;

use odp_sim::metrics::Summary;

use crate::collector::Collector;

/// Counters and latency summaries for one subsystem (the span-kind
/// prefix before the first `.`: `rpc`, `gc`, `trader`, `stream`,
/// `session`, ...).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubsystemReport {
    /// Spans observed per kind.
    pub counters: BTreeMap<String, u64>,
    /// Latency distribution per kind (close time relative to the
    /// trace's root open).
    pub latency: BTreeMap<String, Summary>,
}

/// The whole run's telemetry, aggregated per subsystem.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// The run's seed, for reproduction.
    pub seed: u64,
    /// Number of distinct causal traces.
    pub traces: u64,
    /// Total spans across all traces.
    pub spans: u64,
    /// Spans opened but never closed (0 for a well-formed run).
    pub unclosed: u64,
    /// Trace events evicted by the sim's ring buffer before the
    /// collector saw them (0 when the trace is unbounded).
    pub dropped_trace_events: u64,
    /// Per-subsystem aggregates, keyed by subsystem name.
    pub subsystems: BTreeMap<String, SubsystemReport>,
}

fn subsystem_of(kind: &str) -> &str {
    kind.split('.').next().unwrap_or(kind)
}

impl TelemetryReport {
    /// Aggregates a collector into a report. `dropped_trace_events`
    /// comes from [`odp_sim::trace::Trace::dropped`] so a bounded run
    /// discloses its own blind spot.
    pub fn from_collector(seed: u64, collector: &Collector, dropped_trace_events: u64) -> Self {
        let mut subsystems: BTreeMap<String, SubsystemReport> = BTreeMap::new();
        for (_, dag) in collector.traces() {
            for s in dag.spans() {
                let sub = subsystems
                    .entry(subsystem_of(&s.kind).to_owned())
                    .or_default();
                *sub.counters.entry(s.kind.to_string()).or_insert(0) += 1;
            }
        }
        for (kind, hist) in &mut collector.kind_histograms() {
            let sub = subsystems.entry(subsystem_of(kind).to_owned()).or_default();
            sub.latency.insert(kind.to_string(), hist.summary());
        }
        TelemetryReport {
            seed,
            traces: collector.len() as u64,
            spans: collector.span_count() as u64,
            unclosed: collector.unclosed() as u64,
            dropped_trace_events,
            subsystems,
        }
    }
}

/// Escapes a string into a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_fabric::SpanCarrier;
    use odp_sim::net::NodeId;
    use odp_sim::time::SimTime;

    fn sample_collector() -> Collector {
        let root = SpanCarrier::root(1, 1);
        let child = SpanCarrier::child_of(1, 2, 1);
        let mut c = Collector::new();
        c.ingest_open(SimTime::ZERO, NodeId(0), root, "rpc.call");
        c.ingest_open(SimTime::from_millis(2), NodeId(1), child, "gc.deliver");
        c.ingest_close(SimTime::from_millis(2), 1, 2);
        c.ingest_close(SimTime::from_millis(5), 1, 1);
        c
    }

    #[test]
    fn aggregates_by_subsystem_prefix() {
        let r = TelemetryReport::from_collector(42, &sample_collector(), 0);
        assert_eq!(r.traces, 1);
        assert_eq!(r.spans, 2);
        assert_eq!(r.unclosed, 0);
        assert_eq!(r.subsystems.len(), 2);
        assert_eq!(r.subsystems["rpc"].counters["rpc.call"], 1);
        assert_eq!(r.subsystems["gc"].counters["gc.deliver"], 1);
        assert_eq!(r.subsystems["rpc"].latency["rpc.call"].count, 1);
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
