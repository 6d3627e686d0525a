//! The metric and workload tables: one source for what each run prints
//! and for `BENCHMARK.json` (`odpbench --emit-contract` renders it,
//! `odpbench --check` fails when the file at the repo root differs).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; unused (0) for per-layer metrics.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

/// What a user of the system waits for, measured with tracing off.
/// Every workload reports every one of them; `README.md` says what an
/// event, a delivery and a payload byte are on each workload.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("events_per_s", "1/s", Better::Higher, 0.25),
    e2e("deliveries_per_s", "1/s", Better::Higher, 0.25),
    e2e("payload_mib_per_s", "MiB/s", Better::Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10),
];

/// What single layers cost, from the traced binary. A layer a workload
/// does not exercise reads 0 there — that is the prediction, not a gap.
pub const PER_LAYER: [MetricDef; 75] = [
    // odp-sim
    lo("sim.step_ns_per_event", "ns"),
    lo("sim.self_ns_per_event", "ns"),
    lo("sim.handler_ns_per_event", "ns"),
    lo("sim.handler_ns.agent", "ns"),
    lo("sim.handler_ns.workspace", "ns"),
    lo("sim.handler_ns.trader", "ns"),
    lo("sim.handler_ns.replica", "ns"),
    lo("sim.net_submit_ns", "ns"),
    lo("sim.metrics_incr_ns", "ns"),
    lo("sim.build_ns_per_actor", "ns"),
    lo("sim.events", "count"),
    lo("sim.peak_pending", "count"),
    lo("sim.sent", "count"),
    lo("sim.delivered", "count"),
    lo("sim.sent_bytes", "bytes"),
    lo("sim.dropped", "count"),
    lo("sim.timers_set", "count"),
    lo("sim.timers_cancelled", "count"),
    lo("sim.cancel_ratio", "ratio"),
    // odp-groupcomm
    lo("groupcomm.mcast_ns", "ns"),
    lo("groupcomm.on_message_ns", "ns"),
    lo("groupcomm.on_tick_ns", "ns"),
    lo("groupcomm.msgs_per_delivery", "ratio"),
    lo("groupcomm.retransmits", "count"),
    lo("groupcomm.unacked_peak", "count"),
    lo("groupcomm.held_back_peak", "count"),
    // odp-net
    lo("net.encode_ns_per_frame", "ns"),
    lo("net.decode_ns_per_frame", "ns"),
    lo("net.session_send_ns", "ns"),
    lo("net.session_recv_ns", "ns"),
    lo("net.session_tick_ns", "ns"),
    lo("net.frame_bytes_mean", "bytes"),
    lo("net.wire_overhead_ratio", "ratio"),
    hi("net.session_delivered", "count"),
    lo("net.session_gaps", "count"),
    lo("net.session_link_duplicates", "count"),
    lo("net.session_evicted", "count"),
    lo("net.tcp_deliver_p50_us", "us"),
    lo("net.tcp_deliver_p99_us", "us"),
    lo("net.tcp_generator_lag_p99_us", "us"),
    lo("net.tcp_mesh_up_ms", "ms"),
    lo("net.tcp_rx_frames", "count"),
    lo("net.tcp_tx_frames", "count"),
    // odp-fabric and the host allocator
    lo("fabric.payload_clone_ns", "ns"),
    lo("fabric.span_encode_ns", "ns"),
    lo("fabric.span_decode_ns", "ns"),
    lo("host.allocs_per_op", "count"),
    lo("host.alloc_bytes_per_op", "bytes"),
    // odp-telemetry
    lo("telemetry.overhead_pct", "%"),
    lo("telemetry.collect_ns_per_span", "ns"),
    lo("telemetry.spans_recorded", "count"),
    // odp-awareness, odp-access, cscw-core
    lo("awareness.publish_ns", "ns"),
    lo("awareness.suppressed_by_rights", "count"),
    lo("access.check_ns", "ns"),
    lo("core.apply_ns", "ns"),
    // odp-check
    lo("check.ns_per_run", "ns"),
    lo("check.factory_ns_per_run", "ns"),
    lo("check.fingerprint_ns", "ns"),
    lo("check.step_nth_ns", "ns"),
    lo("check.pending_events_ns", "ns"),
    hi("check.events_per_s", "1/s"),
    hi("check.schedules_per_s", "1/s"),
    lo("check.runs", "count"),
    lo("check.events", "count"),
    hi("check.sleep_pruned", "count"),
    hi("check.hash_pruned", "count"),
    lo("check.racing_pairs", "count"),
    hi("check.reduction_factor", "ratio"),
    // the tracer itself
    lo("trace.overhead_ratio", "ratio"),
    lo("trace.spans", "count"),
    lo("trace.self_sum_ratio", "ratio"),
    lo("trace.round_self_pct", "%"),
    // what the traced rounds measured, for reading the rows above
    lo("traced.wall_ms", "ms"),
    lo("traced.ops", "count"),
    lo("traced.rounds", "count"),
];

/// Per-layer metrics that are counts made by the program: they must
/// repeat bit-for-bit for a seed on every deterministic workload
/// (`tcp_pair`'s frame counts depend on the OS scheduler and do not).
pub const EXACT: [&str; 27] = [
    "sim.events",
    "sim.peak_pending",
    "sim.sent",
    "sim.delivered",
    "sim.sent_bytes",
    "sim.dropped",
    "sim.timers_set",
    "sim.timers_cancelled",
    "sim.cancel_ratio",
    "groupcomm.msgs_per_delivery",
    "groupcomm.retransmits",
    "groupcomm.unacked_peak",
    "groupcomm.held_back_peak",
    "net.frame_bytes_mean",
    "net.wire_overhead_ratio",
    "net.session_delivered",
    "net.session_gaps",
    "net.session_link_duplicates",
    "net.session_evicted",
    "telemetry.spans_recorded",
    "awareness.suppressed_by_rights",
    "check.runs",
    "check.events",
    "check.sleep_pruned",
    "check.hash_pruned",
    "check.racing_pairs",
    "check.reduction_factor",
];

/// One workload and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name on the command line.
    pub name: &'static str,
    /// One line on what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The workloads, in the order the full run takes them.
pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "campus_rush",
        why: "idle actors, millions of pending timers, heavy cancellation: odp-sim's queue, dispatch and effects do the work; every protocol layer is bypassed",
    },
    WorkloadDef {
        name: "group_edit",
        why: "8 total-order replicas over a WAN, shallow queue: time goes to GroupEngine, workspace apply, rights checks and string-keyed metrics, not the scheduler",
    },
    WorkloadDef {
        name: "group_edit_spans",
        why: "group_edit with span telemetry on at every replica: the only workload where telemetry cost shows; its deliveries_per_s is the issue's spans_on_deliveries_per_s",
    },
    WorkloadDef {
        name: "wire_small",
        why: "sans-IO stack, 64 B payloads to 31 receivers: per-message cost (codec field walk, session and ack bookkeeping) dominates, payload bytes are negligible",
    },
    WorkloadDef {
        name: "wire_bulk",
        why: "the wire_small loop with 16 KiB payloads: per-byte cost (copies, allocation, frame assembly) dominates; a zero-copy gain shows here and not on wire_small",
    },
    WorkloadDef {
        name: "tcp_pair",
        why: "two TcpNodes on loopback sockets, closed loop of 512 publishes in flight: the only workload with threads, channels and syscalls; loopback, not a link",
    },
    WorkloadDef {
        name: "check_explore",
        why: "DPOR + state hashing over four racing publications: thousands of tiny sims built by a factory and driven by step_nth/pending_events, the queue's ordered index",
    },
];

/// Seconds one run measures for, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 12;

/// Renders `BENCHMARK.json`.
pub fn contract_json() -> String {
    fn better(b: Better) -> &'static str {
        match b {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}
