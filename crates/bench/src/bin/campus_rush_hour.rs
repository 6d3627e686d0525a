//! Campus-at-rush-hour scale bench for the calendar-queue DES core:
//! tens of thousands of scripted agents across federated domains all
//! hitting the infrastructure at once, and writes `BENCH_scale.json`.
//!
//! The workload models the paper's campus scenario at its least
//! charitable moment — start of the working day. Each of `DOMAINS`
//! federated domains hosts a trader, a shared-workspace service, and a
//! slice of the agent population. Every agent walks a pre-scheduled
//! agenda of minute-aligned slots (the whole day is enqueued at
//! arrival, so the scheduler carries the full rush in its pending set)
//! and each slot exercises the three cooperative actions the paper's
//! support environment must absorb at scale:
//!
//! - **awareness fan-out with presence leases** — publish presence to
//!   colleagues (one same-domain, one federated); every receipt
//!   cancels and re-arms the sender's lease timer, the classic
//!   failure-detector churn of an awareness service;
//! - **shared-workspace write with a pre-armed retry ladder** — append
//!   to the domain's active document with `RETRIES` retransmit timers
//!   scheduled up front; the ack cancels the whole ladder, and the
//!   scheduler unlinks each rung from its queue on the spot;
//! - **trader lookup** — resolve a service offer, every third slot,
//!   some federated to a remote domain.
//!
//! The cancel-heavy mix is deliberate: millions of timers are armed,
//! 97 % of them are cancelled, and the *scheduler* — not actor dispatch
//! — is the bottleneck, which is exactly the regime the calendar queue
//! and its O(1) cancel exist for.
//!
//! The bench climbs an agent-count ladder, reporting wall-clock
//! events/sec and peak queue depth per rung. The run is deterministic,
//! so the acceptance rung must process exactly [`ACCEPTANCE_EVENTS`]
//! events — the count the `BTreeMap` engine this one replaced also
//! processed — and its queue must never be deeper than
//! [`ACCEPTANCE_PEAK_PENDING`], the live events of the busiest instant:
//! a cancelled timer that lingers in the queue shows up there as a
//! count, not as a timing. DESIGN.md §10 carries the engines' measured
//! throughput and the component breakdown.
//!
//! ```text
//! cargo run -p cscw-bench --bin campus_rush_hour --release [OUT.json] [--quick]
//! ```
//!
//! The bench fails if the acceptance rung's events/sec falls below the
//! `campus_events_per_sec` threshold of `floors.json` — the CI
//! regression gate. `--quick` runs only the acceptance rung.

use cscw_bench::harness::{self, Bench, Report};
use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::prelude::{ActorHandle, RunOutcome, Sim, SimBuilder, Until};
use odp_sim::time::SimDuration;

/// Federated domains on the campus.
const DOMAINS: u32 = 4;
/// Minute-aligned agenda slots each agent walks during the rush.
const AGENDA: u64 = 12;
/// Gap between agenda slots.
const SLOT_GAP_SECS: u64 = 60;
/// Presence fan-out per slot: one same-domain colleague, one federated.
const FANOUT: usize = 2;
/// Presence-lease timeout base (re-armed on every heartbeat received).
const LEASE_SECS: u64 = 150;
/// Retransmit timers pre-armed per workspace write; the ack cancels
/// them all. Sized so ladders from the whole rush stay pending at
/// once — the depth the scheduler must stay O(1) under.
const RETRIES: usize = 32;
/// Gap between rungs of one retry ladder.
const RETRY_GAP_SECS: u64 = 60;
/// A trader lookup fires every this-many agenda slots.
const LOOKUP_EVERY: u64 = 3;
/// Timer tag for presence-lease expiry.
const LEASE_TAG: u64 = u64::MAX;
/// Timer tag for a workspace-write retransmit slot.
const RETRY_TAG: u64 = u64::MAX - 1;
/// The agent-count ladder; the third rung is the acceptance rung.
const LADDER: [u32; 4] = [5_000, 10_000, 20_000, 40_000];
/// The rung the event count and the gate are judged at.
const ACCEPTANCE_AGENTS: u32 = 20_000;
/// Events the acceptance rung processes under [`cscw_bench::REPORT_SEED`]:
/// the count both engines reported at commit 632eeb9, the last one that
/// replayed the rung on the `BTreeMap` engine and asserted the two equal.
///
/// LAN loss is zero, so the count follows from the parameters. An event
/// is a start, a delivery, or an armed timer — counted once, when it
/// fires or at the moment it is cancelled
/// (`Sim::events_dispatched` + `Sim::timers_reaped`):
///
/// * starts: one per actor, `20 000 + 2 * DOMAINS` = 20 008;
/// * deliveries, per agent: `AGENDA` slots of `FANOUT` presence notes,
///   one write and its ack, plus a lookup and its answer on the 4 slots
///   divisible by `LOOKUP_EVERY` — `12 * 4 + 4 * 2` = 56, so 1 120 000;
/// * timers armed, per agent: `AGENDA` slots, `AGENDA * RETRIES` ladder
///   rungs and one lease per presence note heard (`AGENDA * FANOUT`) —
///   `12 + 384 + 24` = 420, so 8 400 000. Of each 420, 14 fire (the 12
///   slots and the last lease per watched colleague) and 406 are
///   cancelled.
const ACCEPTANCE_EVENTS: u64 = 9_540_008;
/// The deepest the acceptance rung's queue ever is: `47 * 20 000`.
///
/// Every agent's slot `k` (of `1..=AGENDA`) fires at the same instant,
/// `k` minutes in, before anything those slots send is delivered. When
/// the last agent's slot has run, each agent has queued: the agenda
/// slots it has left (`AGENDA - k`), one lease per watched colleague
/// once it has heard from them (`FANOUT` from `k = 2`, re-armed in
/// place ever after), this minute-mark's retry ladder (`RETRIES`), its
/// messages in flight (`FANOUT` presence notes and the write) and, on a
/// lookup slot (`k = 1, 4, 7, 10`), the lookup. That is `11 + 0 + 32 +
/// 3 + 1` at the first mark and `10 + 2 + 32 + 3 + 0` at the second,
/// 47 either way, and less from then on; the acks then cancel the
/// ladders, which leave the queue at once. (While cancelled timers
/// waited in the queue to be popped, this peak was 6 610 340.)
const ACCEPTANCE_PEAK_PENDING: u64 =
    ACCEPTANCE_AGENTS as u64 * ((AGENDA - 1) + RETRIES as u64 + (FANOUT as u64 + 1) + 1);

/// Wire protocol of the campus infrastructure.
#[derive(Debug, Clone)]
enum CampusMsg {
    /// Agent asks a trader to resolve a service offer.
    LookupReq { job: u32 },
    /// Trader resolution (hit or federated miss) back to the agent.
    LookupDone { job: u32 },
    /// Presence notification fanned out to colleagues.
    Presence { slot: u32 },
    /// Append to the domain's shared workspace.
    WsWrite { write_seq: u64, len: u32 },
    /// Workspace acknowledges the identified write.
    WsAck { write_seq: u64 },
}

/// Node-id layout: traders, then workspaces, then agents.
fn trader_of(domain: u32) -> NodeId {
    NodeId(domain)
}
fn workspace_of(domain: u32) -> NodeId {
    NodeId(DOMAINS + domain)
}
fn agent_node(i: u32) -> NodeId {
    NodeId(2 * DOMAINS + i)
}

/// The domain trader: resolves lookups immediately (the offer store is
/// warm at rush hour) and counts arrivals.
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

/// The domain's shared-workspace service: applies writes in arrival
/// order and acks each one.
struct Workspace {
    len: u64,
    writes: u64,
}

impl Actor<CampusMsg> for Workspace {
    fn on_message(&mut self, ctx: &mut Ctx<'_, CampusMsg>, from: NodeId, msg: CampusMsg) {
        if let CampusMsg::WsWrite { write_seq, len } = msg {
            self.len += u64::from(len);
            self.writes += 1;
            ctx.send(from, CampusMsg::WsAck { write_seq });
        }
    }
}

/// One scripted campus inhabitant.
struct AgentScript {
    index: u32,
    population: u32,
    slots_walked: u64,
    lookups_done: u64,
    acks: u64,
    presence_heard: u64,
    /// Leases fired without a renewing heartbeat — after the rush ends,
    /// exactly one per watched colleague.
    lease_timeouts: u64,
    /// Retransmit slots that fired before the ack — zero on a campus
    /// LAN.
    retries_fired: u64,
    writes_sent: u64,
    /// Active presence leases: `(colleague, armed timer)`.
    leases: Vec<(NodeId, TimerId)>,
    /// Pre-armed retry ladders by write sequence.
    ladders: Vec<(u64, Vec<TimerId>)>,
    /// XOR of every payload heard, so received fields are live state.
    checksum: u64,
}

impl AgentScript {
    fn domain(&self) -> u32 {
        self.index % DOMAINS
    }

    /// One same-domain colleague and one colleague in the next domain,
    /// so awareness traffic crosses the federation boundary too.
    fn peers(&self) -> [NodeId; FANOUT] {
        [
            agent_node((self.index + DOMAINS) % self.population),
            agent_node((self.index + 1) % self.population),
        ]
    }
}

impl Actor<CampusMsg> for AgentScript {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CampusMsg>) {
        // The whole agenda is enqueued at arrival — minute-aligned
        // slots shared by every agent, so the scheduler sees the rush
        // as it will happen: huge same-tick bursts over a deep horizon.
        for slot in 0..AGENDA {
            ctx.set_timer(SimDuration::from_secs(SLOT_GAP_SECS * (slot + 1)), slot);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, CampusMsg>, from: NodeId, msg: CampusMsg) {
        match msg {
            CampusMsg::LookupDone { job } => {
                self.lookups_done += 1;
                self.checksum ^= u64::from(job);
            }
            CampusMsg::WsAck { write_seq } => {
                self.acks += 1;
                // The write landed: reap the whole pre-armed ladder.
                if let Some(at) = self.ladders.iter().position(|(s, _)| *s == write_seq) {
                    let (_, ladder) = self.ladders.swap_remove(at);
                    for id in ladder {
                        ctx.cancel_timer(id);
                    }
                }
            }
            CampusMsg::Presence { slot } => {
                self.presence_heard += 1;
                self.checksum ^= u64::from(slot);
                // Failure-detector churn: every heartbeat cancels and
                // re-arms the sender's lease. Deadlines are rounded up
                // to the next whole second — coarse detector deadlines
                // keep expiries tick-aligned no matter how network
                // jitter scatters the heartbeat arrivals.
                let now_us = ctx.now().as_micros();
                let fire_us = (now_us + LEASE_SECS * 1_000_000).next_multiple_of(1_000_000);
                let id = ctx.set_timer(SimDuration::from_micros(fire_us - now_us), LEASE_TAG);
                if let Some(entry) = self.leases.iter_mut().find(|(peer, _)| *peer == from) {
                    ctx.cancel_timer(entry.1);
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
                    512,
                );
                self.writes_sent += 1;
                // Pre-arm the retry ladder with per-rung backoff
                // jitter (decorrelated retries, the standard cure for
                // retry storms): the pending set holds millions of
                // scattered instants, the regime that separates the
                // queues.
                let ladder: Vec<TimerId> = (0..RETRIES)
                    .map(|j| {
                        let backoff = ctx.rng().jittered(
                            SimDuration::from_secs(RETRY_GAP_SECS * (j as u64 + 1)),
                            SimDuration::from_secs(3 * RETRY_GAP_SECS / 4),
                        );
                        ctx.set_timer(backoff, RETRY_TAG)
                    })
                    .collect();
                self.ladders.push((write_seq, ladder));
                if slot.is_multiple_of(LOOKUP_EVERY) {
                    // Every fourth lookup is federated to the next domain.
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

/// Builds the campus at the given population.
fn campus(seed: u64, agents: u32) -> Sim<CampusMsg> {
    // One campus LAN as the network default link: per-pair topology
    // would cost O(agents^2) link entries for identical specs.
    let net = Network::new(LinkSpec::lan());
    let mut sim: Sim<CampusMsg> = SimBuilder::new(seed)
        .network(net)
        .telemetry(false)
        .max_events(200_000_000)
        .build();
    for d in 0..DOMAINS {
        sim.add_actor(trader_of(d), TraderDesk { resolved: 0 });
        sim.add_actor(workspace_of(d), Workspace { len: 0, writes: 0 });
    }
    for i in 0..agents {
        sim.add_actor(
            agent_node(i),
            AgentScript {
                index: i,
                population: agents,
                slots_walked: 0,
                lookups_done: 0,
                acks: 0,
                presence_heard: 0,
                lease_timeouts: 0,
                retries_fired: 0,
                writes_sent: 0,
                leases: Vec::new(),
                ladders: Vec::new(),
                checksum: 0,
            },
        );
    }
    sim
}

/// One timed rung: events/sec over the whole rush hour, the events
/// processed and the peak queue depth.
struct Rung {
    agents: u32,
    events: u64,
    wall_ns: u128,
    events_per_sec: f64,
    peak_pending: u64,
}

impl Rung {
    fn report(&self) -> Report {
        let mut rung = Report::default();
        rung.int("agents", self.agents)
            .int("events", self.events)
            .int("wall_ns", self.wall_ns)
            .float("events_per_sec", self.events_per_sec, 0)
            .int("peak_pending", self.peak_pending);
        rung
    }
}

fn run_rung(seed: u64, agents: u32) -> Rung {
    let mut sim = campus(seed, agents);
    let (wall_ns, outcome) = harness::time(|| sim.run(Until::Idle));
    assert_eq!(outcome, RunOutcome::Quiesced, "campus must drain");
    audit(&sim, agents);
    let events = sim.events_processed();
    Rung {
        agents,
        events,
        wall_ns,
        events_per_sec: events as f64 / (wall_ns as f64 / 1e9),
        peak_pending: sim.peak_pending() as u64,
    }
}

/// Cross-checks the finished campus: every trader lookup was answered,
/// every workspace write acked with its retry ladder fully reaped,
/// and every presence lease eventually timed out exactly once per
/// watched colleague (LAN loss is zero, so the counts are exact).
fn audit(sim: &Sim<CampusMsg>, agents: u32) {
    let mut resolved = 0u64;
    let mut ws_writes = 0u64;
    for d in 0..DOMAINS {
        let t: &TraderDesk = sim.get(ActorHandle::of(trader_of(d))).expect("trader");
        resolved += t.resolved;
        let w: &Workspace = sim
            .get(ActorHandle::of(workspace_of(d)))
            .expect("workspace");
        ws_writes += w.writes;
    }
    let mut lookups_done = 0u64;
    let mut acks = 0u64;
    let mut timeouts = 0u64;
    for i in 0..agents {
        let a: &AgentScript = sim.get(ActorHandle::of(agent_node(i))).expect("agent");
        assert_eq!(a.slots_walked, AGENDA, "agent {i} missed agenda slots");
        assert_eq!(
            a.retries_fired, 0,
            "agent {i} saw a retry fire before its ack"
        );
        assert!(a.ladders.is_empty(), "agent {i} holds an unreaped ladder");
        lookups_done += a.lookups_done;
        acks += a.acks;
        timeouts += a.lease_timeouts;
    }
    assert_eq!(resolved, lookups_done, "unanswered trader lookups");
    assert_eq!(ws_writes, acks, "unacked workspace writes");
    assert_eq!(ws_writes, u64::from(agents) * AGENDA);
    let lookups_per_agent = (0..AGENDA)
        .filter(|s| s.is_multiple_of(LOOKUP_EVERY))
        .count() as u64;
    assert_eq!(resolved, u64::from(agents) * lookups_per_agent);
    // After the rush, the final lease per (watcher, colleague) pair
    // fires unrenewed: in-degree equals FANOUT for every agent.
    assert_eq!(timeouts, u64::from(agents) * FANOUT as u64);
}

fn main() {
    harness::main("campus_rush_hour", "BENCH_scale.json", run);
}

fn run(bench: &mut Bench) -> Result<(), String> {
    let seed = cscw_bench::REPORT_SEED;
    let ladder: &[u32] = if bench.quick {
        &[ACCEPTANCE_AGENTS]
    } else {
        &LADDER
    };

    let mut rungs = Vec::new();
    for &agents in ladder {
        let rung = run_rung(seed, agents);
        // Progress: the full ladder runs for a minute.
        println!("  {}", rung.report().to_json());
        rungs.push(rung);
    }

    let accepted = rungs
        .iter()
        .find(|r| r.agents == ACCEPTANCE_AGENTS)
        .expect("acceptance rung must be in the ladder");
    if accepted.events != ACCEPTANCE_EVENTS {
        return Err(format!(
            "acceptance rung processed {} events, the recorded run {ACCEPTANCE_EVENTS} — \
             determinism broken",
            accepted.events
        ));
    }
    if accepted.peak_pending != ACCEPTANCE_PEAK_PENDING {
        return Err(format!(
            "acceptance rung's queue peaked at {} events, its live set at the busiest instant \
             is {ACCEPTANCE_PEAK_PENDING} — cancelled timers are piling up in the queue",
            accepted.peak_pending
        ));
    }

    // Max sustainable population: the largest rung that still clears
    // half the acceptance rung's throughput (i.e. scaling stays within
    // 2x of linear instead of collapsing).
    let max_sustainable = rungs
        .iter()
        .filter(|r| r.events_per_sec >= accepted.events_per_sec / 2.0)
        .map(|r| r.agents)
        .max()
        .unwrap_or(0);

    bench
        .report
        .text("workload", "campus-rush-hour")
        .int("seed", seed)
        .int("domains", DOMAINS)
        .int("agenda_slots", AGENDA)
        .int("retry_ladder", RETRIES as u64)
        .array("rungs", rungs.iter().map(Rung::report))
        .float("events_per_sec", accepted.events_per_sec, 0)
        .int("peak_pending", accepted.peak_pending)
        .int("max_sustainable_agents", max_sustainable);
    bench.at_least("campus_events_per_sec", accepted.events_per_sec)?;
    Ok(())
}
