//! Measures the awareness fan-out workload on both `odp-net` backends
//! and writes `BENCH_net.json`.
//!
//! The same fleet of [`BusActor`] replicas runs twice:
//!
//! - **sim** — the deterministic simulator over the E13 15 ms WAN; the
//!   figure is the wall-clock cost of executing the whole scenario to
//!   quiescence (the shared [`cscw_bench::e13::bus_fanout_sim`]);
//! - **tcp** — real loopback sockets via [`TcpNode`]; the figure is
//!   the *convergence window*, first `aware.publish` to last
//!   `aware.deliver` across the fleet (node clocks all start at spawn,
//!   so cross-node skew is bounded by spawn spread).
//!
//! Both run under the harness protocol, fastest round reported.
//!
//! The two numbers measure different things — a simulated WAN executed
//! as fast as the CPU allows versus real frames crossing real sockets —
//! so both are reported raw, never as a ratio. The bench *audits* that
//! both backends converge to the identical delivered census and that
//! the TCP sessions saw no sequence gaps, and fails otherwise.
//!
//! ```text
//! cargo run -p cscw-bench --bin net_fanout --release [OUT.json]
//! ```

use std::collections::BTreeMap;
use std::net::SocketAddr;

use cscw_bench::e13::{self, WRITES_EACH};
use cscw_bench::harness::{self, Bench};
use odp_awareness::dist::{BusActor, BusWire};
use odp_fabric::SpanOp;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::GcMsg;
use odp_net::tcp::{TcpConfig, TcpHandle, TcpNode};
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

/// Fleet size (kept below E13's 8 so the TCP mesh — one socket pair
/// per node pair — stays cheap on CI runners).
const NODES: u32 = 4;
/// Timed sim rounds; the fastest is reported.
const SIM_ITERS: u32 = 20;
/// Timed TCP rounds; the fastest is reported.
const TCP_ITERS: u32 = 3;

/// Runs the TCP variant once; returns the convergence window in ns and
/// `(total deliveries, total sequence gaps)`.
fn run_tcp_once(seed: u64) -> Result<(u128, (u64, u64)), String> {
    let mut nodes = Vec::new();
    let mut addrs: BTreeMap<NodeId, SocketAddr> = BTreeMap::new();
    for i in 0..NODES {
        let cfg = TcpConfig {
            seed,
            ..TcpConfig::default()
        };
        let node = TcpNode::bind(NodeId(i), cfg)
            .map_err(|e| format!("cannot bind loopback node {i}: {e}"))?;
        let addr = node
            .local_addr()
            .map_err(|e| format!("no local addr: {e}"))?;
        addrs.insert(NodeId(i), addr);
        nodes.push(node);
    }
    let view = View::initial(GroupId(0), (0..NODES).map(NodeId));
    let handles: Vec<TcpHandle<BusActor, GcMsg<BusWire>>> = nodes
        .into_iter()
        .enumerate()
        .map(|(i, mut node)| {
            node.set_peers(addrs.clone());
            let mut actor = BusActor::new(NodeId(i as u32), view.clone(), e13::bus(NODES, None));
            actor.set_telemetry(true); // deliver spans carry the timestamps
            node.spawn(actor)
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(250)); // mesh up
    for (i, handle) in handles.iter().enumerate() {
        for w in 0..WRITES_EACH {
            let stamp = SimTime::from_millis(u64::from(w));
            handle.inject(NodeId(i as u32), GcMsg::AppCmd(e13::edit(i as u32, stamp)));
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(1200)); // converge
    let mut first_publish = u64::MAX;
    let mut last_deliver = 0u64;
    let mut delivered = 0u64;
    let mut gaps = 0u64;
    for handle in handles {
        let (actor, report) = handle
            .stop()
            .map_err(|e| format!("node failed to stop: {e}"))?;
        delivered += actor.delivered().len() as u64;
        gaps += report.stats.gaps;
        let log = report.trace.spans();
        for event in log.events() {
            let SpanOp::Open { kind, .. } = event.op else {
                continue;
            };
            match log.kind(kind) {
                "aware.publish" => first_publish = first_publish.min(event.time_us),
                "aware.deliver" => last_deliver = last_deliver.max(event.time_us),
                _ => {}
            }
        }
    }
    if first_publish == u64::MAX || last_deliver <= first_publish {
        return Err("tcp run opened no publish-to-deliver window".to_owned());
    }
    let window_ns = u128::from(last_deliver - first_publish) * 1_000;
    Ok((window_ns, (delivered, gaps)))
}

fn main() {
    harness::main("net_fanout", "BENCH_net.json", run);
}

fn run(bench: &mut Bench) -> Result<(), String> {
    let seed = cscw_bench::REPORT_SEED;
    // Every replica must surface exactly the other replicas' writes.
    let expected = u64::from(NODES) * u64::from(NODES - 1) * u64::from(WRITES_EACH);

    let (sim_ns, sim_delivered) = harness::best_of(SIM_ITERS, &mut || {
        let built = e13::bus_fanout_sim(seed, NODES, || e13::bus(NODES, None), false);
        let (ns, done) = e13::run_timed(built);
        Ok((ns, e13::fanout_census(&done, NODES).0))
    })?;
    let (tcp_ns, (tcp_delivered, tcp_gaps)) =
        harness::best_of(TCP_ITERS, &mut || run_tcp_once(seed))?;
    // The harness held every round to its warm-up's census, so this
    // check covers every run: both backends converged, gap-free.
    if sim_delivered != expected || (tcp_delivered, tcp_gaps) != (expected, 0) {
        return Err(format!(
            "did not converge cleanly: expected {expected} deliveries, sim {sim_delivered}, \
             tcp {tcp_delivered} with {tcp_gaps} gaps"
        ));
    }
    let tcp_msgs_per_sec = tcp_delivered as f64 / (harness::fastest(&tcp_ns) as f64 / 1e9);

    bench
        .report
        .text("workload", "e13-net-fanout")
        .int("nodes", NODES)
        .int("writes_each", WRITES_EACH)
        .int("expected_deliveries", expected)
        .int("sim_iters", SIM_ITERS)
        .int("tcp_iters", TCP_ITERS)
        .timing("sim_scenario_ns", &sim_ns)
        .int("sim_deliveries", sim_delivered)
        .timing("tcp_convergence_ns", &tcp_ns)
        .int("tcp_deliveries", tcp_delivered)
        .float("tcp_msgs_per_sec", tcp_msgs_per_sec, 1)
        .int("tcp_gaps", tcp_gaps);
    Ok(())
}
