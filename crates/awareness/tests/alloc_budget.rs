//! Allocation budgets on the distributed awareness bus, held by a count
//! instead of a stopwatch: four `BusActor` replicas under a rights
//! policy that lets every member read, one publishing an edit every
//! 10 ms over reliable causal multicast on a lossless LAN, its first
//! half warming up and the second counted event by event. The run is
//! seeded, so each count is exact (x86-64 Linux, rustc 1.95): a handler
//! that allocates once more fails its budget.
//!
//! The file is its own test binary so it can install
//! `odp_sim::alloc::Counting` as its global allocator; the counter is
//! per thread, so the harness's other threads cannot disturb it.

use odp_access::matrix::Subject;
use odp_access::rbac::{Effect, RbacPolicy, RoleId};
use odp_access::rights::Rights;
use odp_awareness::bus::{CoopEvent, CoopKind, EventBus};
use odp_awareness::dist::{BusActor, BusWire};
use odp_awareness::events::ActivityKind;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::GcMsg;
use odp_sim::alloc::{run_counted, Count, Counting};
use odp_sim::prelude::*;

#[global_allocator]
static GLOBAL: Counting = Counting;

const MEMBERS: u32 = 4;
const PUBLISHER: NodeId = NodeId(0);

fn count(events: u64, allocs: u64) -> Count {
    Count { events, allocs }
}

/// A replica's bus: every member reads `doc/*` and observes it.
fn bus() -> EventBus {
    let mut policy = RbacPolicy::new();
    policy.add_rule(RoleId(1), "doc".into(), Rights::READ, Effect::Allow);
    let mut bus = EventBus::new();
    for i in 0..MEMBERS {
        policy.assign(Subject(i), RoleId(1));
        bus.register(NodeId(i), 0.0);
    }
    bus.set_policy(policy);
    bus
}

#[test]
fn a_publication_stays_within_its_allocation_budget() {
    const N: u64 = 100;
    let view = View::initial(GroupId(2), (0..MEMBERS).map(NodeId));
    let mut sim: Sim<GcMsg<BusWire>> = SimBuilder::new(9).build();
    for i in 0..MEMBERS {
        sim.add_actor(NodeId(i), BusActor::new(NodeId(i), view.clone(), bus()));
    }
    let ms = SimTime::from_millis;
    for k in 1..=2 * N {
        let event = CoopEvent::broadcast(
            PUBLISHER,
            "doc/plan",
            SimTime::ZERO,
            CoopKind::Activity(ActivityKind::Edit),
        );
        sim.inject(
            ms(10 * k),
            PUBLISHER,
            PUBLISHER,
            GcMsg::AppCmd(BusWire::new(event)),
        );
    }
    sim.run(Until::At(ms(10 * N + 5)));
    let tally = run_counted(&mut sim, ms(20 * N + 100));
    // The publisher: the publication (the grant list the envelope
    // carries, copied from the grants its bus lends out, and the
    // multicast) and the three acks that come back, 6 a publication.
    assert_eq!(tally.messages(PUBLISHER), count(4 * N, 6 * N));
    // Each member: 3 a delivery, and one more in the hundred as the
    // tables a member keeps grow.
    for i in 1..MEMBERS {
        assert_eq!(tally.messages(NodeId(i)), count(N, 3 * N + 1), "at n{i}");
    }
    // Ticks with nothing to retransmit.
    for i in 0..MEMBERS {
        assert_eq!(tally.timers(NodeId(i)).allocs, 0, "at n{i}");
    }
}
