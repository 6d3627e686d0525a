//! TCP-driver invariant: the driver core keeps its link table honest
//! through connection churn, across every explored interleaving.
//!
//! Two `CoreHost`s — node 0 dials, node 1 accepts, as `TcpNode`'s
//! lower-dials-higher policy has it — run one scripted stint of churn,
//! and the explorer chooses how its events interleave:
//!
//! - **a replaced connection**: node 0 closes its connection and dials
//!   a new one a millisecond later, while node 1 sends into the gap (a
//!   write that lands on the closed connection, or waits unrouted);
//! - **EOF before and after the replacement**: at node 1 the old
//!   connection's end and the new connection's `Hello` race, so the end
//!   is read before the new link exists or after it replaced the old;
//! - **`Stop` in the middle of a drain**: node 0 stops in a turn that
//!   handled a send before the stop and holds one after it, while a
//!   frame from node 1 races the stop.
//!
//! Beside the promises every `CoreHost` checks as it goes (a link is
//! dropped only by its own connection's end, replacement or failed
//! write; `Hello` is the first frame on every connection; within a
//! connection frames leave in transmit order), the quiescent check
//! demands that delivery was exactly once with no gap after the
//! reconnect, that the frame produced before `Stop` was flushed, and
//! that nothing after `Stop` in its turn was handled.
//!
//! The seeded known-bad arm makes `Gone` ignore the connection id
//! ([`odp_net::driver::DriverCore::set_gone_checks_conn`]`(false)`) —
//! PR 22's bug — and the end of the replaced connection, read after the
//! replacement, must be caught taking the new link with it.
//!
//! **Left out of the armed suite:** a duplicate `Hello` claim. A third
//! host whose core also calls itself node 0 dials node 1 during the
//! churn ([`duplicate_claim_sim`]); when its `Hello` is read after the
//! real node 0's, node 1 routes node 0's frames to the impostor and the
//! real node 0 never delivers them. A connection is whoever its `Hello`
//! says it is (ROADMAP item 6); `explorer_suite.rs` pins the
//! counterexample until a checked claim guards it.

use odp_net::session::SessionConfig;
use odp_sim::prelude::*;

use super::transport::{session, CoreHost, Local, Pipe};
use crate::explore::Invariant;

/// The dialing node.
pub(crate) const DIALER: NodeId = NodeId(0);
/// The accepting node.
pub(crate) const HUB: NodeId = NodeId(1);
/// A third host whose core claims the dialer's id.
pub(crate) const IMPOSTOR: NodeId = NodeId(2);

/// Heartbeats and the failure deadline lie past the scenario, so every
/// branch point the explorer spends is one of the churn's races.
fn session_config() -> SessionConfig {
    SessionConfig {
        heartbeat_every: SimDuration::from_secs(1),
        fail_after: SimDuration::from_secs(5),
        ..SessionConfig::default()
    }
}

/// The churn scenario; `gone_checks_conn: false` is the known-bad arm.
pub(crate) fn churn_sim(seed: u64, gone_checks_conn: bool) -> Sim<Pipe> {
    build(seed, gone_checks_conn, false)
}

/// The churn scenario with an impostor claiming `DIALER`'s id at
/// `HUB` (see the module docs: not part of the armed suite).
pub fn duplicate_claim_sim(seed: u64) -> Sim<Pipe> {
    build(seed, true, true)
}

fn build(seed: u64, gone_checks_conn: bool, impostor: bool) -> Sim<Pipe> {
    let members = [DIALER, HUB];
    let mut sim = SimBuilder::new(seed)
        .network(Network::new(LinkSpec::lan()))
        .build();
    for node in members {
        let session = session(node, &members, session_config());
        sim.add_actor(node, CoreHost::new(session, gone_checks_conn));
    }
    if impostor {
        let session = session(DIALER, &members, session_config());
        sim.add_actor(IMPOSTOR, CoreHost::new(session, gone_checks_conn));
    }
    // Times in µs. The hosts tick every 10 ms, and a tick is a barrier
    // the explorer does not reorder deliveries across: each setup step
    // has a slot of its own, so the explorer spends its depth on the
    // races inside the churn and the stop slots.
    let turn = |sim: &mut Sim<Pipe>, t, node: NodeId, locals| {
        sim.inject(SimTime::from_micros(t), node, node, Pipe::Turn(locals));
    };
    let send = |to: NodeId, text: &str| Local::Send(to, text.to_owned());
    let dial = |conn| Local::Dial { peer: HUB, conn };
    turn(&mut sim, 1_000, DIALER, vec![dial(1)]);
    turn(
        &mut sim,
        11_000,
        DIALER,
        vec![send(HUB, "a1"), Local::Bcast("c1".into())],
    );
    turn(&mut sim, 21_000, HUB, vec![send(DIALER, "b1")]);
    // The churn: node 0's connection breaks and it redials. Both nodes
    // send into the gap, and node 0 sends again before node 1's hello
    // has come back on the new connection.
    turn(
        &mut sim,
        32_000,
        DIALER,
        vec![Local::Close(1), send(HUB, "a-gap")],
    );
    turn(&mut sim, 32_500, HUB, vec![send(DIALER, "b2")]);
    turn(
        &mut sim,
        33_000,
        DIALER,
        vec![dial(2), send(HUB, "a-early")],
    );
    if impostor {
        turn(&mut sim, 32_800, IMPOSTOR, vec![dial(3)]);
        turn(&mut sim, 85_000, IMPOSTOR, vec![Local::Stop]);
    }
    turn(&mut sim, 51_000, DIALER, vec![send(HUB, "a2")]);
    turn(&mut sim, 61_000, HUB, vec![send(DIALER, "b-late")]);
    // Stop mid-drain, with a frame from node 1 racing it.
    turn(&mut sim, 73_500, HUB, vec![send(DIALER, "b3")]);
    let stop_turn = vec![send(HUB, "a3"), Local::Stop, send(HUB, "a4")];
    turn(&mut sim, 74_000, DIALER, stop_turn);
    turn(&mut sim, 85_000, HUB, vec![Local::Stop]);
    sim
}

/// Every breach the hosts recorded while it ran, then exactly-once,
/// gap-free delivery and the `Stop` turn's flush at quiescence.
pub struct TcpDriverSound;

impl TcpDriverSound {
    fn host(sim: &Sim<Pipe>, node: NodeId) -> Result<&CoreHost, String> {
        sim.get(ActorHandle::of(node))
            .ok_or_else(|| format!("core host {node} missing"))
    }
}

impl Invariant<Pipe> for TcpDriverSound {
    fn name(&self) -> &'static str {
        "tcp-driver"
    }

    fn check_step(&mut self, sim: &Sim<Pipe>) -> Result<(), String> {
        for node in sim.node_ids() {
            if let Some(breach) = Self::host(sim, node)?.violations().first() {
                return Err(format!("node {node}: {breach}"));
            }
        }
        Ok(())
    }

    fn check_quiescent(&mut self, sim: &Sim<Pipe>) -> Result<(), String> {
        let note = |text: &str| (DIALER, text.to_owned());
        let reply = |text: &str| (HUB, text.to_owned());
        let hub = Self::host(sim, HUB)?;
        let dialer = Self::host(sim, DIALER)?;
        for (node, host) in [(DIALER, dialer), (HUB, hub)] {
            let stats = host.stats();
            if stats.gaps != 0 || stats.evicted != 0 {
                return Err(format!(
                    "node {node} lost data across the reconnect: {stats:?}"
                ));
            }
        }
        let at_hub = hub.delivered();
        if !at_hub.contains(&note("a3")) {
            return Err(
                "a3 was produced before node 0's Stop and never reached node 1: \
                 the stop's flush lost it"
                    .to_owned(),
            );
        }
        if at_hub.contains(&note("a4")) {
            return Err("a4 followed Stop in its turn and was handled anyway".to_owned());
        }
        let mut got = at_hub.to_vec();
        let mut want = ["a1", "c1", "a-gap", "a-early", "a2", "a3"]
            .map(note)
            .to_vec();
        got.sort();
        want.sort();
        if got != want {
            return Err(format!(
                "node 1 delivered {got:?}, expected {want:?} (duplicates or omissions)"
            ));
        }
        // `b3` races node 0's stop: delivered at most once.
        let mut got: Vec<_> = dialer.delivered().to_vec();
        if let Some(i) = got.iter().position(|d| *d == reply("b3")) {
            got.remove(i);
        }
        let mut want = vec![reply("b1"), reply("b2"), reply("b-late")];
        got.sort();
        want.sort();
        if got != want {
            return Err(format!(
                "node 0 delivered {got:?}, expected {want:?} and at most one b3 \
                 (duplicates or omissions)"
            ));
        }
        let conns = hub
            .report()
            .map_or(0, |report| report.metrics.counter("net.tcp.conn"));
        if conns < 2 {
            return Err(format!(
                "node 1 registered {conns} connection(s): the churn never happened (vacuous)"
            ));
        }
        Ok(())
    }
}
