//! Experiment E8: group communication — delivery latency versus group
//! size and ordering, group RPC deadlines, and group-invocation skew.

use odp_groupcomm::actors::{GroupActor, GroupApp, RpcConfig};
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::{Delivery, GcMsg, Ordering, Reliability};
use odp_groupcomm::rpc::{CallOutcome, CallStatus, Quorum};
use odp_net::ctx::NetCtx;
use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::prelude::{ActorHandle, Sim, SimBuilder, Until};
use odp_sim::time::{SimDuration, SimTime};

use super::Table;

#[derive(Default)]
struct Tracer;

impl GroupApp<String> for Tracer {
    fn on_deliver(&mut self, ctx: &mut dyn NetCtx<GcMsg<String>>, d: Delivery<String>) {
        ctx.trace("gc.delivered", &d.payload);
    }
}

/// Issue time of payload `m{i}-{k}` per the injection schedule below.
fn issue_time(payload: &str) -> SimTime {
    let body = payload.trim_start_matches('m');
    let (i, k) = body.split_once('-').expect("payload shape m<i>-<k>");
    let i: u64 = i.parse().expect("i");
    let k: u64 = k.parse().expect("k");
    SimTime::from_millis(k * 200 + i * 7)
}

fn mcast_latency_run(ordering: Ordering, n: u32, seed: u64) -> (f64, f64) {
    mcast_run(
        ordering,
        n,
        seed,
        LinkSpec::wan(SimDuration::from_millis(20)),
        Reliability::reliable(),
    )
}

fn mcast_run(
    ordering: Ordering,
    n: u32,
    seed: u64,
    link: LinkSpec,
    reliability: Reliability,
) -> (f64, f64) {
    let view = View::initial(GroupId(0), (0..n).map(NodeId));
    let net = Network::new(link);
    let mut sim: Sim<GcMsg<String>> = SimBuilder::new(seed).network(net).build();
    for i in 0..n {
        sim.add_actor(NodeId(i), {
            let mut a = GroupActor::new(NodeId(i), view.clone(), ordering, reliability, Tracer);
            a.set_tick_interval(SimDuration::from_millis(50));
            a
        });
    }
    // Each member multicasts 5 messages; trace issue time via injection
    // markers embedded in the payload.
    for i in 0..n {
        for k in 0..5u32 {
            sim.inject(
                SimTime::from_millis((k as u64) * 200 + (i as u64) * 7),
                NodeId(i),
                NodeId(i),
                GcMsg::AppCmd(format!("m{i}-{k}")),
            );
        }
    }
    sim.run(Until::For(SimDuration::from_secs(30)));
    // Mean delivery latency from issue to each delivery, and coverage
    // (fraction of messages delivered at every member).
    let mut counts: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
    let mut total_us = 0u64;
    let mut samples = 0u64;
    for ev in sim.trace().with_label("gc.delivered") {
        *counts.entry(ev.data.as_str()).or_insert(0) += 1;
        total_us += ev.time.saturating_since(issue_time(&ev.data)).as_micros();
        samples += 1;
    }
    // Pure aggregation: the count is order-independent.
    // odp-check: allow(hashmap-iter)
    let delivered_everywhere = counts.values().filter(|&&c| c == n).count();
    let coverage = delivered_everywhere as f64 / counts.len().max(1) as f64;
    let mean_ms = if samples == 0 {
        0.0
    } else {
        total_us as f64 / samples as f64 / 1_000.0
    };
    (mean_ms, coverage)
}

/// **E8 — group communication.** Expected shape: delivery spread grows
/// with ordering strength (total order pays the sequencer hop); group
/// RPC deadline hit-rate collapses when the deadline dips under the
/// round trip; group invocation executes with zero skew.
pub fn e8_group_comm(seed: u64) -> Vec<Table> {
    let mut table = Table::new(
        "E8",
        "Multicast delivery latency vs ordering and group size (20 ms WAN, reliable)",
        [
            "config",
            "ordering",
            "group_size",
            "mean_latency_ms",
            "coverage",
        ],
    );
    for ordering in [
        Ordering::Unordered,
        Ordering::Fifo,
        Ordering::Causal,
        Ordering::Total,
    ] {
        for &n in &[4u32, 16] {
            let (latency, coverage) = mcast_latency_run(ordering, n, seed);
            table.push_row([
                format!("{ordering:?}/n={n}"),
                format!("{ordering:?}"),
                n.to_string(),
                format!("{latency:.2}"),
                format!("{coverage:.2}"),
            ]);
        }
    }

    // Group RPC deadline hit-rate.
    let mut rpc_table = Table::new(
        "E8b",
        "Group RPC deadline hit-rate (8 members, 20 ms WAN)",
        ["deadline_ms", "completed", "timed_out"],
    );
    for &deadline_ms in &[10u64, 50, 200] {
        let (completed, timed_out) = rpc_run(deadline_ms, seed);
        rpc_table.push_row([
            deadline_ms.to_string(),
            completed.to_string(),
            timed_out.to_string(),
        ]);
    }

    // Ablation: what the reliability layer buys, by loss rate.
    let mut ablation = Table::new(
        "E8d",
        "Ablation: multicast coverage vs loss rate, best-effort vs reliable (8 members)",
        [
            "config",
            "loss_pct",
            "best_effort_coverage",
            "reliable_coverage",
        ],
    );
    for &loss in &[0.0f64, 0.05, 0.15] {
        let link = LinkSpec {
            loss,
            ..LinkSpec::wan(SimDuration::from_millis(20))
        };
        let (_, be) = mcast_run(Ordering::Fifo, 8, seed, link, Reliability::BestEffort);
        let (_, rel) = mcast_run(Ordering::Fifo, 8, seed, link, Reliability::reliable());
        ablation.push_row([
            format!("loss={:.0}%", loss * 100.0),
            format!("{:.0}", loss * 100.0),
            format!("{be:.2}"),
            format!("{rel:.2}"),
        ]);
    }

    // Group invocation skew.
    let mut skew_table = Table::new(
        "E8c",
        "Group invocation: camera-start skew across 8 members",
        ["metric", "value_us"],
    );
    let skew_us = invocation_skew(seed);
    skew_table.push_row(["max_start_skew".to_owned(), skew_us.to_string()]);

    vec![table, rpc_table, ablation, skew_table]
}

struct RpcDriver {
    inner: GroupActor<String, Outcomes>,
    deadline: SimDuration,
    calls: u32,
}

#[derive(Default)]
struct Outcomes {
    completed: u32,
    timed_out: u32,
    executed_at: Vec<SimTime>,
}

impl GroupApp<String> for Outcomes {
    fn on_deliver(&mut self, _: &mut dyn NetCtx<GcMsg<String>>, _: Delivery<String>) {}
    fn on_rpc(
        &mut self,
        _ctx: &mut dyn NetCtx<GcMsg<String>>,
        _from: NodeId,
        _call: u64,
        payload: &String,
    ) -> Option<String> {
        Some(format!("ok:{payload}"))
    }
    fn on_execute(&mut self, ctx: &mut dyn NetCtx<GcMsg<String>>, _call: u64, _payload: String) {
        self.executed_at.push(ctx.now());
        let at = ctx.now().as_micros();
        ctx.trace("camera.started", &at);
    }
    fn on_rpc_outcome(&mut self, _ctx: &mut dyn NetCtx<GcMsg<String>>, o: CallOutcome<String>) {
        match o.status {
            CallStatus::Completed => self.completed += 1,
            CallStatus::TimedOut => self.timed_out += 1,
        }
    }
}

impl Actor<GcMsg<String>> for RpcDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>) {
        Actor::on_start(&mut self.inner, ctx);
        ctx.set_timer(SimDuration::from_millis(100), 77);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>, from: NodeId, msg: GcMsg<String>) {
        Actor::on_message(&mut self.inner, ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>, t: TimerId, tag: u64) {
        if tag == 77 {
            if self.calls > 0 {
                self.calls -= 1;
                self.inner.invoke_rpc_now(
                    ctx,
                    "status?".to_owned(),
                    RpcConfig {
                        timeout: self.deadline,
                        quorum: Quorum::All,
                        execute_at: None,
                    },
                );
                ctx.set_timer(SimDuration::from_millis(300), 77);
            }
        } else {
            Actor::on_timer(&mut self.inner, ctx, t, tag);
        }
    }
}

fn rpc_run(deadline_ms: u64, seed: u64) -> (u32, u32) {
    let n = 8u32;
    let view = View::initial(GroupId(0), (0..n).map(NodeId));
    let link = LinkSpec::wan(SimDuration::from_millis(20));
    let net = Network::new(link);
    let mut sim: Sim<GcMsg<String>> = SimBuilder::new(seed).network(net).build();
    sim.add_actor(
        NodeId(0),
        RpcDriver {
            inner: GroupActor::new(
                NodeId(0),
                view.clone(),
                Ordering::Unordered,
                Reliability::BestEffort,
                Outcomes::default(),
            ),
            deadline: SimDuration::from_millis(deadline_ms),
            calls: 10,
        },
    );
    for i in 1..n {
        sim.add_actor(
            NodeId(i),
            GroupActor::new(
                NodeId(i),
                view.clone(),
                Ordering::Unordered,
                Reliability::BestEffort,
                Outcomes::default(),
            ),
        );
    }
    sim.run(Until::For(SimDuration::from_secs(20)));
    let driver: &RpcDriver = sim.get(ActorHandle::of(NodeId(0))).expect("driver");
    (driver.inner.app().completed, driver.inner.app().timed_out)
}

fn invocation_skew(seed: u64) -> u64 {
    let n = 8u32;
    let view = View::initial(GroupId(0), (0..n).map(NodeId));
    let link = LinkSpec::wan(SimDuration::from_millis(20));
    let net = Network::new(link);
    let mut sim: Sim<GcMsg<String>> = SimBuilder::new(seed).network(net).build();
    struct Invoker {
        inner: GroupActor<String, Outcomes>,
    }
    impl Actor<GcMsg<String>> for Invoker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>) {
            Actor::on_start(&mut self.inner, ctx);
            self.inner.invoke_rpc_now(
                ctx,
                "camera-on".to_owned(),
                RpcConfig {
                    timeout: SimDuration::from_secs(1),
                    quorum: Quorum::All,
                    execute_at: Some(SimTime::from_millis(500)),
                },
            );
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>, from: NodeId, m: GcMsg<String>) {
            Actor::on_message(&mut self.inner, ctx, from, m);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>, t: TimerId, tag: u64) {
            Actor::on_timer(&mut self.inner, ctx, t, tag);
        }
    }
    sim.add_actor(
        NodeId(0),
        Invoker {
            inner: GroupActor::new(
                NodeId(0),
                view.clone(),
                Ordering::Unordered,
                Reliability::BestEffort,
                Outcomes::default(),
            ),
        },
    );
    for i in 1..n {
        sim.add_actor(
            NodeId(i),
            GroupActor::new(
                NodeId(i),
                view.clone(),
                Ordering::Unordered,
                Reliability::BestEffort,
                Outcomes::default(),
            ),
        );
    }
    sim.run(Until::For(SimDuration::from_secs(2)));
    let starts: Vec<u64> = sim
        .trace()
        .with_label("camera.started")
        .map(|e| e.time.as_micros())
        .collect();
    if starts.is_empty() {
        return u64::MAX;
    }
    starts.iter().max().unwrap() - starts.iter().min().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_shape_ordering_strength_costs_latency() {
        let tables = e8_group_comm(13);
        let t = &tables[0];
        let unordered = t.cell_f64("Unordered/n=16", "mean_latency_ms").unwrap();
        let total = t.cell_f64("Total/n=16", "mean_latency_ms").unwrap();
        assert!(
            total > unordered * 1.3,
            "total order pays the sequencer hop: {total} vs {unordered}"
        );
        // Reliable multicast delivered everything everywhere despite loss.
        for ordering in ["Unordered", "Fifo", "Causal", "Total"] {
            for n in [4, 16] {
                let c = t
                    .cell_f64(&format!("{ordering}/n={n}"), "coverage")
                    .unwrap();
                assert_eq!(c, 1.0, "{ordering}/n={n} coverage");
            }
        }
    }

    #[test]
    fn e8b_shape_deadlines_below_rtt_time_out() {
        let tables = e8_group_comm(13);
        let rpc = &tables[1];
        let tight_completed = rpc.cell_f64("10", "completed").unwrap();
        let tight_timeouts = rpc.cell_f64("10", "timed_out").unwrap();
        let loose_completed = rpc.cell_f64("200", "completed").unwrap();
        assert_eq!(
            tight_completed, 0.0,
            "10ms deadline under a 40ms RTT cannot complete"
        );
        assert_eq!(tight_timeouts, 10.0);
        assert!(
            loose_completed >= 9.0,
            "a generous deadline completes (modulo rare loss): {loose_completed}"
        );
    }

    #[test]
    fn e8c_shape_agreed_execution_time_gives_zero_skew() {
        let tables = e8_group_comm(13);
        let skew_table = tables.iter().find(|t| t.id == "E8c").expect("E8c exists");
        let skew = skew_table.cell_f64("max_start_skew", "value_us").unwrap();
        assert_eq!(skew, 0.0, "simulated clocks agree exactly");
    }

    #[test]
    fn e8d_shape_reliability_buys_coverage_under_loss() {
        let tables = e8_group_comm(13);
        let a = tables.iter().find(|t| t.id == "E8d").expect("E8d exists");
        // At zero loss both modes cover fully.
        assert_eq!(a.cell_f64("loss=0%", "best_effort_coverage"), Some(1.0));
        assert_eq!(a.cell_f64("loss=0%", "reliable_coverage"), Some(1.0));
        // Under heavy loss only the reliable layer holds coverage.
        let be = a.cell_f64("loss=15%", "best_effort_coverage").unwrap();
        let rel = a.cell_f64("loss=15%", "reliable_coverage").unwrap();
        assert!(be < 0.7, "best effort collapses under loss: {be}");
        assert_eq!(rel, 1.0, "retransmission holds full coverage");
    }
}
