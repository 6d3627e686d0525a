//! Experiment E8: group communication — delivery latency versus group
//! size and ordering, group RPC deadlines, and group-invocation skew.

use odp_groupcomm::actors::{GroupActor, GroupApp, RpcConfig};
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::{Delivery, GcMsg, Ordering, Reliability};
use odp_groupcomm::rpc::{CallOutcome, CallStatus, Quorum};
use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::prelude::{ActorHandle, Sim, SimBuilder, Until};
use odp_sim::time::{SimDuration, SimTime};

use super::{Shape, Table};

#[derive(Default)]
struct Tracer;

impl GroupApp<String> for Tracer {
    fn on_deliver(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>, d: Delivery<String>) {
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
        let a = GroupActor::new(NodeId(i), view.clone(), ordering, reliability, Tracer);
        sim.add_actor(NodeId(i), a);
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
    #[expect(
        clippy::disallowed_methods,
        reason = "pure aggregation: the count is order-independent"
    )]
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
pub(crate) fn e8_group_comm(seed: u64) -> Vec<Table> {
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
    fn on_deliver(&mut self, _: &mut Ctx<'_, GcMsg<String>>, _: Delivery<String>) {}
    fn on_rpc(
        &mut self,
        _ctx: &mut Ctx<'_, GcMsg<String>>,
        _from: NodeId,
        _call: u64,
        payload: &String,
    ) -> Option<String> {
        Some(format!("ok:{payload}"))
    }
    fn on_execute(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>, _call: u64, _payload: String) {
        self.executed_at.push(ctx.now());
        let at = ctx.now().as_micros();
        ctx.trace("camera.started", at);
    }
    fn on_rpc_outcome(&mut self, _ctx: &mut Ctx<'_, GcMsg<String>>, o: CallOutcome<String>) {
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

/// The shapes the E8 verdict states, one per table.
pub(crate) const SHAPES: &[Shape] = &[
    Shape {
        table: "E8",
        claim: "total order costs over 1.3x unordered latency at n=16; every ordering covers every member",
        holds: |t| {
            let mut covered = true;
            for ordering in ["Unordered", "Fifo", "Causal", "Total"] {
                for n in [4, 16] {
                    covered &= t.cell_f64(&format!("{ordering}/n={n}"), "coverage")? == 1.0;
                }
            }
            Some(
                covered
                    && t.cell_f64("Total/n=16", "mean_latency_ms")?
                        > t.cell_f64("Unordered/n=16", "mean_latency_ms")? * 1.3,
            )
        },
    },
    Shape {
        table: "E8b",
        claim: "a 10 ms deadline under the 40 ms round trip times out 10 of 10; a 200 ms one completes at least 9",
        holds: |t| {
            Some(
                t.cell_f64("10", "completed")? == 0.0
                    && t.cell_f64("10", "timed_out")? == 10.0
                    && t.cell_f64("200", "completed")? >= 9.0,
            )
        },
    },
    Shape {
        table: "E8c",
        claim: "agreed-time invocation starts every camera with zero skew",
        holds: |t| Some(t.cell_f64("max_start_skew", "value_us")? == 0.0),
    },
    Shape {
        table: "E8d",
        claim: "both modes cover fully without loss; at 15 % loss best effort covers under 0.7 and reliable still 1.00",
        holds: |t| {
            Some(
                t.cell_f64("loss=0%", "best_effort_coverage")? == 1.0
                    && t.cell_f64("loss=0%", "reliable_coverage")? == 1.0
                    && t.cell_f64("loss=15%", "best_effort_coverage")? < 0.7
                    && t.cell_f64("loss=15%", "reliable_coverage")? == 1.0,
            )
        },
    },
];

#[cfg(test)]
mod tests {
    use super::super::assert_detects;

    #[test]
    fn e8_fails_when_a_reliable_ordering_misses_a_member() {
        assert_detects("E8", "Causal/n=16", "coverage", "0.95");
    }

    #[test]
    fn e8b_fails_when_a_deadline_under_the_round_trip_completes() {
        assert_detects("E8b", "10", "completed", "1");
    }

    #[test]
    fn e8c_fails_when_the_cameras_start_apart() {
        assert_detects("E8c", "max_start_skew", "value_us", "1");
    }

    #[test]
    fn e8d_fails_when_reliable_multicast_loses_coverage() {
        assert_detects("E8d", "loss=15%", "reliable_coverage", "0.99");
    }
}
