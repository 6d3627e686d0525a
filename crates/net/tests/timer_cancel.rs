//! Backend-parametrised timer-cancellation suite: one scripted actor,
//! one set of invariants, two transports — and the TCP driver's core on
//! its own, stepped through explicit ticks.
//!
//! The script arms a timer far in the future, cancels it and re-arms a
//! near one in the same callback; a third timer, when it fires, cancels
//! itself (cancel after fire), cancels the first again (double cancel)
//! and arms a fourth. On both backends the cancelled id must never
//! fire, every other timer must fire exactly once, and the host must be
//! left with nothing armed: a cancelled timer leaves the queue at its
//! cancellation instead of waiting out its 60 s as a tombstone.

use std::time::Duration;

use odp_net::driver::DriverCore;
use odp_net::session::{SessionConfig, SessionLayer};
use odp_net::tcp::{TcpConfig, TcpNode};
use odp_net::wire::MAX_FRAME;
use odp_sim::prelude::*;

// ---------------------------------------------------------------- shared

const CANCELLED: u64 = 1;
const REARMED: u64 = 2;
const CANCELS_LATE: u64 = 3;
const ARMED_LATE: u64 = 4;

#[derive(Default)]
struct Script {
    cancelled: Option<TimerId>,
    fired: Vec<(TimerId, u64)>,
}

impl Actor<u32> for Script {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        let doomed = ctx.set_timer(SimDuration::from_secs(60), CANCELLED);
        ctx.cancel_timer(doomed);
        self.cancelled = Some(doomed);
        ctx.set_timer(SimDuration::from_millis(20), REARMED);
        ctx.set_timer(SimDuration::from_millis(10), CANCELS_LATE);
    }

    fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, timer: TimerId, tag: u64) {
        self.fired.push((timer, tag));
        if tag == CANCELS_LATE {
            ctx.cancel_timer(timer);
            ctx.cancel_timer(self.cancelled.expect("set at start"));
            ctx.set_timer(SimDuration::from_millis(10), ARMED_LATE);
        }
    }
}

/// The shared invariants, independent of backend.
fn verify(script: &Script) {
    let cancelled = script.cancelled.expect("the script started");
    assert!(
        script.fired.iter().all(|&(id, _)| id != cancelled),
        "the cancelled timer fired: {:?}",
        script.fired
    );
    let mut tags: Vec<u64> = script.fired.iter().map(|&(_, tag)| tag).collect();
    tags.sort_unstable();
    assert_eq!(tags, [REARMED, CANCELS_LATE, ARMED_LATE]);
    // The timer armed after the late cancels got a fresh id.
    let mut ids: Vec<TimerId> = script.fired.iter().map(|&(id, _)| id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 3);
}

// ------------------------------------------------------------------- sim

#[test]
fn cancel_and_rearm_on_the_sim_backend() {
    let mut sim: Sim<u32> = SimBuilder::new(7).build();
    let host = sim.add_actor(NodeId(0), Script::default());
    assert_eq!(sim.run(Until::Idle), RunOutcome::Quiesced);
    verify(sim.get(host).expect("registered"));
    // No residue: the queue drained at the last live timer, not at the
    // cancelled one's 60 s, and only the one live cancel counted.
    assert_eq!(sim.pending_len(), 0);
    assert_eq!(sim.now(), SimTime::from_millis(20));
    assert_eq!(sim.timers_reaped(), 1);
    assert_eq!(sim.events_dispatched(), 4, "one start, three timers");
}

// ------------------------------------------------------------------- tcp

#[test]
fn cancel_and_rearm_on_the_tcp_backend() {
    let node = TcpNode::bind(NodeId(0), TcpConfig::default()).expect("bind loopback");
    let handle = node.spawn::<u32, _>(Script::default());
    std::thread::sleep(Duration::from_millis(300));
    let (script, report) = handle.stop().expect("node stops cleanly");
    verify(&script);
    // No residue: the cancelled 60 s timer is not waiting in the wheel.
    assert_eq!(report.timers_armed, 0);
}

// ------------------------------------------------------------ bare core

#[test]
fn cancel_and_rearm_on_a_bare_driver_core() {
    let ms = SimTime::from_millis;
    let session = SessionLayer::new(NodeId(0), SessionConfig::default());
    let mut core = DriverCore::new(session, 0, MAX_FRAME, Script::default());
    core.start(ms(0));
    // The cancelled 60 s timer left the table with its cancel.
    assert_eq!(core.next_due(), Some(ms(10)));
    core.tick(ms(9));
    assert!(core.actor().fired.is_empty(), "nothing is due before 10 ms");
    core.tick(ms(10));
    assert_eq!(core.actor().fired.len(), 1);
    assert_eq!(
        core.next_due(),
        Some(ms(20)),
        "the re-armed and the late timer"
    );
    core.tick(ms(20));
    assert_eq!(core.next_due(), None);
    let (script, report) = core.finish();
    verify(&script);
    assert_eq!(report.timers_armed, 0);
}
