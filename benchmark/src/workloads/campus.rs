//! `campus_rush` — the campus at rush hour, after
//! `crates/bench/src/bin/campus_rush_hour.rs`.
//!
//! Each of four federated domains hosts a trader desk, a workspace
//! service and a slice of the agents. Every agent enqueues a
//! minute-aligned agenda at arrival; each slot fans presence out to two
//! colleagues (every receipt cancels and re-arms a lease timer), writes
//! to the domain workspace behind a 32-deep pre-armed retry ladder that
//! the ack cancels whole, and every third slot asks a trader to resolve
//! an offer. The actors do almost nothing, the pending set reaches
//! millions and most of it is cancelled: the scheduler is the workload.
//!
//! Seeded fault (`Spec::fault`): the workspace of domain 0 swallows one
//! ack. The audit must then find an unacked write, an unreaped ladder
//! and retries that fired.

use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::prelude::{Sim, SimBuilder};
use odp_sim::time::SimDuration;

use std::time::Instant;

use super::{Round, Size, Spec, Stopwatch};
use crate::probe::{self, Mode, Span};

const DOMAINS: u32 = 4;
const AGENDA: u64 = 12;
const SLOT_GAP_SECS: u64 = 60;
const FANOUT: usize = 2;
const LEASE_SECS: u64 = 150;
const RETRIES: usize = 32;
const RETRY_GAP_SECS: u64 = 60;
const LOOKUP_EVERY: u64 = 3;
const LEASE_TAG: u64 = u64::MAX;
const RETRY_TAG: u64 = u64::MAX - 1;
/// Modelled wire size of a workspace write.
const WRITE_BYTES: usize = 512;

/// Agents at the measured size: the largest population whose round
/// still fits the driver's per-run time cap several times over.
pub const AGENTS_FULL: u32 = 5_000;
const AGENTS_QUICK: u32 = 300;

#[derive(Debug, Clone)]
enum CampusMsg {
    LookupReq { job: u32 },
    LookupDone { job: u32 },
    Presence { slot: u32 },
    WsWrite { write_seq: u64, len: u32 },
    WsAck { write_seq: u64 },
}

fn trader_of(domain: u32) -> NodeId {
    NodeId(domain)
}
fn workspace_of(domain: u32) -> NodeId {
    NodeId(DOMAINS + domain)
}
fn agent_node(i: u32) -> NodeId {
    NodeId(2 * DOMAINS + i)
}

struct TraderDesk {
    resolved: u64,
}

impl Actor<CampusMsg> for TraderDesk {
    fn on_message(&mut self, ctx: &mut Ctx<'_, CampusMsg>, from: NodeId, msg: CampusMsg) {
        if let CampusMsg::LookupReq { job } = msg {
            self.resolved += 1;
            ctx.send(from, CampusMsg::LookupDone { job });
        }
    }
}

struct Workspace {
    len: u64,
    writes: u64,
    /// The seeded fault: swallow the ack of this write.
    swallow_ack_of: Option<u64>,
}

impl Actor<CampusMsg> for Workspace {
    fn on_message(&mut self, ctx: &mut Ctx<'_, CampusMsg>, from: NodeId, msg: CampusMsg) {
        if let CampusMsg::WsWrite { write_seq, len } = msg {
            self.len += u64::from(len);
            self.writes += 1;
            if self.swallow_ack_of == Some(write_seq) {
                return;
            }
            ctx.send(from, CampusMsg::WsAck { write_seq });
        }
    }
}

#[derive(Default)]
struct AgentScript {
    index: u32,
    population: u32,
    slots_walked: u64,
    lookups_done: u64,
    acks: u64,
    presence_heard: u64,
    lease_timeouts: u64,
    retries_fired: u64,
    timers_set: u64,
    timers_cancelled: u64,
    leases: Vec<(NodeId, TimerId)>,
    ladders: Vec<(u64, Vec<TimerId>)>,
    /// XOR of every payload heard, so received fields are live state.
    checksum: u64,
}

impl AgentScript {
    fn domain(&self) -> u32 {
        self.index % DOMAINS
    }

    fn peers(&self) -> [NodeId; FANOUT] {
        [
            agent_node((self.index + DOMAINS) % self.population),
            agent_node((self.index + 1) % self.population),
        ]
    }
}

impl Actor<CampusMsg> for AgentScript {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CampusMsg>) {
        for slot in 0..AGENDA {
            ctx.set_timer(SimDuration::from_secs(SLOT_GAP_SECS * (slot + 1)), slot);
        }
        self.timers_set += AGENDA;
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, CampusMsg>, from: NodeId, msg: CampusMsg) {
        match msg {
            CampusMsg::LookupDone { job } => {
                self.lookups_done += 1;
                self.checksum ^= u64::from(job);
            }
            CampusMsg::WsAck { write_seq } => {
                self.acks += 1;
                if let Some(at) = self.ladders.iter().position(|(s, _)| *s == write_seq) {
                    let (_, ladder) = self.ladders.swap_remove(at);
                    self.timers_cancelled += ladder.len() as u64;
                    for id in ladder {
                        ctx.cancel_timer(id);
                    }
                }
            }
            CampusMsg::Presence { slot } => {
                self.presence_heard += 1;
                self.checksum ^= u64::from(slot);
                // Detector deadlines are rounded up to the next whole
                // second, so expiries stay tick-aligned however jitter
                // scatters the heartbeat arrivals.
                let now_us = ctx.now().as_micros();
                let fire_us = (now_us + LEASE_SECS * 1_000_000).next_multiple_of(1_000_000);
                let id = ctx.set_timer(SimDuration::from_micros(fire_us - now_us), LEASE_TAG);
                self.timers_set += 1;
                if let Some(entry) = self.leases.iter_mut().find(|(peer, _)| *peer == from) {
                    ctx.cancel_timer(entry.1);
                    self.timers_cancelled += 1;
                    entry.1 = id;
                } else {
                    self.leases.push((from, id));
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, CampusMsg>, _timer: TimerId, tag: u64) {
        match tag {
            LEASE_TAG => self.lease_timeouts += 1,
            RETRY_TAG => self.retries_fired += 1,
            slot => {
                self.slots_walked += 1;
                let note = CampusMsg::Presence { slot: slot as u32 };
                for peer in self.peers() {
                    ctx.send(peer, note.clone());
                }
                let write_seq = u64::from(self.index) << 16 | slot;
                ctx.send_sized(
                    workspace_of(self.domain()),
                    CampusMsg::WsWrite {
                        write_seq,
                        len: 16 + self.index % 240,
                    },
                    WRITE_BYTES,
                );
                // Per-rung backoff jitter scatters the ladder over the
                // horizon: millions of distinct pending instants.
                let ladder: Vec<TimerId> = (0..RETRIES)
                    .map(|j| {
                        let backoff = ctx.rng().jittered(
                            SimDuration::from_secs(RETRY_GAP_SECS * (j as u64 + 1)),
                            SimDuration::from_secs(3 * RETRY_GAP_SECS / 4),
                        );
                        ctx.set_timer(backoff, RETRY_TAG)
                    })
                    .collect();
                self.timers_set += RETRIES as u64;
                self.ladders.push((write_seq, ladder));
                if slot.is_multiple_of(LOOKUP_EVERY) {
                    let domain = if slot.is_multiple_of(4 * LOOKUP_EVERY) {
                        (self.domain() + 1) % DOMAINS
                    } else {
                        self.domain()
                    };
                    ctx.send(
                        trader_of(domain),
                        CampusMsg::LookupReq {
                            job: self.index ^ slot as u32,
                        },
                    );
                }
            }
        }
    }
}

fn build<M: Mode>(seed: u64, agents: u32, fault: bool) -> Sim<CampusMsg> {
    // One campus LAN as the default link: per-pair topology would cost
    // O(agents^2) entries for identical specs.
    let mut net = Network::new(LinkSpec::lan());
    net.set_default_link(LinkSpec::lan());
    let mut sim: Sim<CampusMsg> = SimBuilder::new(seed)
        .network(net)
        .telemetry(false)
        .max_events(200_000_000)
        .build();
    for d in 0..DOMAINS {
        probe::host::<M, _, _>(
            &mut sim,
            trader_of(d),
            TraderDesk { resolved: 0 },
            Span::ActorTrader,
        );
        // Agent 0 lives in domain 0; its slot-5 write is the one lost.
        let swallow_ack_of = (fault && d == 0).then_some(5);
        probe::host::<M, _, _>(
            &mut sim,
            workspace_of(d),
            Workspace {
                len: 0,
                writes: 0,
                swallow_ack_of,
            },
            Span::ActorWorkspace,
        );
    }
    for i in 0..agents {
        probe::host::<M, _, _>(
            &mut sim,
            agent_node(i),
            AgentScript {
                index: i,
                population: agents,
                ..AgentScript::default()
            },
            Span::ActorAgent,
        );
    }
    sim
}

/// One round: build the campus, run the rush to quiescence, audit.
pub fn round<M: Mode>(spec: &Spec) -> Round {
    let agents = match spec.size {
        Size::Full => AGENTS_FULL,
        Size::Quick => AGENTS_QUICK,
    };
    let mut out = Round::default();

    let t0 = Instant::now();
    let mut sim = build::<M>(spec.seed, agents, spec.fault);
    out.setup_ns = t0.elapsed().as_nanos() as u64;
    out.actors = u64::from(agents + 2 * DOMAINS);

    let watch = Stopwatch::start();
    let drained = probe::span::<M, _>(Span::Round, || probe::run_idle::<M, _>(&mut sim));
    watch.stop(&mut out);
    if !drained {
        out.fail(1, "campus did not drain".to_owned());
    }

    audit::<M>(&sim, agents, &mut out);
    out
}

/// Every figure below follows from the parameters: LAN loss is zero, so
/// the counts are exact for any seed.
fn audit<M: Mode>(sim: &Sim<CampusMsg>, agents: u32, out: &mut Round) {
    let n = u64::from(agents);
    let mut resolved = 0u64;
    let mut ws_writes = 0u64;
    let mut ws_bytes = 0u64;
    for d in 0..DOMAINS {
        match probe::hosted::<M, _, TraderDesk>(sim, trader_of(d)) {
            Some(t) => resolved += t.resolved,
            None => out.fail(1, format!("trader {d} missing")),
        }
        match probe::hosted::<M, _, Workspace>(sim, workspace_of(d)) {
            Some(w) => {
                ws_writes += w.writes;
                ws_bytes += w.len;
            }
            None => out.fail(1, format!("workspace {d} missing")),
        }
    }
    let (mut lookups_done, mut acks, mut timeouts, mut heard) = (0u64, 0u64, 0u64, 0u64);
    let (mut set, mut cancelled, mut checksum) = (0u64, 0u64, 0u64);
    for i in 0..agents {
        let Some(a) = probe::hosted::<M, _, AgentScript>(sim, agent_node(i)) else {
            out.fail(1, format!("agent {i} missing"));
            continue;
        };
        out.expect_eq("agenda slots walked", a.slots_walked, AGENDA);
        out.expect_eq("retries fired before the ack", a.retries_fired, 0);
        out.expect_eq("unreaped ladders", a.ladders.len() as u64, 0);
        lookups_done += a.lookups_done;
        acks += a.acks;
        timeouts += a.lease_timeouts;
        heard += a.presence_heard;
        set += a.timers_set;
        cancelled += a.timers_cancelled;
        checksum ^= a.checksum;
    }
    std::hint::black_box((checksum, ws_bytes));
    let lookups_each = (0..AGENDA)
        .filter(|s| s.is_multiple_of(LOOKUP_EVERY))
        .count() as u64;
    out.expect_eq("lookups answered", lookups_done, resolved);
    out.expect_eq("lookups resolved", resolved, n * lookups_each);
    out.expect_eq("writes acked", acks, ws_writes);
    out.expect_eq("writes applied", ws_writes, n * AGENDA);
    out.expect_eq("presence heard", heard, n * AGENDA * FANOUT as u64);
    // After the rush the last lease per (watcher, colleague) pair fires
    // unrenewed: in-degree is FANOUT for every agent.
    out.expect_eq("lease timeouts", timeouts, n * FANOUT as u64);

    let m = sim.metrics();
    let delivered = m.counter("sim.delivered");
    let sent = m.counter("sim.sent");
    let dropped = m.counter("sim.dropped.Loss")
        + m.counter("sim.dropped.Partitioned")
        + m.counter("sim.dropped.Disconnected")
        + m.counter("sim.no_actor");
    out.expect_eq("messages dropped", dropped, 0);
    out.expect_eq("messages delivered", delivered, sent);
    // Every event is a start, a delivery or a timer pop; every timer
    // armed is popped (cancelled or not) by the time the campus drains.
    out.expect_eq(
        "timers armed (events - starts - deliveries)",
        sim.events_processed() - (n + 2 * u64::from(DOMAINS)) - delivered,
        set,
    );

    out.events = sim.events_processed();
    out.deliveries = delivered;
    out.payload_bytes = m.counter("sim.sent_bytes");
    out.attempted = n * AGENDA * (1 + FANOUT as u64) + n * lookups_each;
    out.exact = vec![
        ("sim.events", sim.events_processed() as f64),
        ("sim.peak_pending", sim.peak_pending() as f64),
        ("sim.sent", sent as f64),
        ("sim.delivered", delivered as f64),
        ("sim.sent_bytes", out.payload_bytes as f64),
        ("sim.dropped", dropped as f64),
        ("sim.timers_set", set as f64),
        ("sim.timers_cancelled", cancelled as f64),
        ("sim.cancel_ratio", cancelled as f64 / set.max(1) as f64),
    ];
}
