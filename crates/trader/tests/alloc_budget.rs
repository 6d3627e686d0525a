//! Allocation budgets on the trader's actors, held by a count instead
//! of a stopwatch: what a `TraderActor` and an `ImporterActor` allocate
//! per lookup, per invalidation and per ring change, node by node, in a
//! domain of three traders and one importer on a lossless LAN. Every
//! run is seeded, so each count is exact (x86-64 Linux, rustc 1.95):
//! a handler that allocates once more fails its budget.
//!
//! The file is its own test binary so it can install
//! `odp_sim::alloc::Counting` as its global allocator; the counter is
//! per thread, so the harness's other threads cannot disturb it.

use odp_groupcomm::membership::{GroupId, View};
use odp_sim::alloc::{run_counted, Counting};
use odp_sim::net::NodeId;
use odp_sim::prelude::{ActorHandle, Sim, SimBuilder, Until};
use odp_sim::time::{SimDuration, SimTime};
use odp_streams::qos::QosSpec;
use odp_trader::actors::{ImporterActor, LookupJob, TraderActor, TraderMsg};
use odp_trader::offer::{OfferId, ServiceOffer, ServiceType, SessionKind};
use odp_trader::select::SelectionPolicy;
use odp_trader::store::HashRing;

#[global_allocator]
static GLOBAL: Counting = Counting;

const T1: NodeId = NodeId(0);
const T2: NodeId = NodeId(1);
const T3: NodeId = NodeId(2);
const IMP: NodeId = NodeId(10);
const EXP: NodeId = NodeId(20);
const OPERATOR: NodeId = NodeId(99);

fn ms(t: u64) -> SimTime {
    SimTime::from_millis(t)
}

fn video() -> ServiceType {
    ServiceType::new("video/conference")
}

/// Owned by `T2` on the ring of two, by `T3` once it joins.
fn surgery() -> ServiceType {
    ServiceType::new("video/surgery")
}

fn ring() -> HashRing {
    HashRing::new([T1, T2])
}

fn offer(kind: &ServiceType, id: u64) -> ServiceOffer {
    let mut o = ServiceOffer::session(kind.clone(), SessionKind::Conference, QosSpec::video(), EXP);
    o.id = OfferId(id);
    o
}

/// Three traders and an importer in one coherence group, the ring
/// holding `T1` and `T2`; two offers of `kind` exported to its owner,
/// and the importer looking `kind` up at each of `jobs_at` (ms).
fn domain(
    kind: &ServiceType,
    ttl: SimDuration,
    jobs_at: impl Iterator<Item = u64>,
) -> Sim<TraderMsg> {
    let view = View::initial(GroupId(7), [T1, T2, T3, IMP]);
    let mut sim = SimBuilder::new(42).build();
    for t in [T1, T2, T3] {
        let trader = TraderActor::with_ring(t, view.clone(), SelectionPolicy::FirstFit, ring());
        sim.add_actor(t, trader);
    }
    let jobs = jobs_at
        .map(|at| LookupJob {
            at: SimDuration::from_millis(at),
            service_type: kind.clone(),
            required: QosSpec::video(),
        })
        .collect();
    sim.add_actor(IMP, ImporterActor::new(IMP, view, ttl, ring(), jobs));
    let owner = ring().node_for(kind).expect("a ring of two");
    for id in [1, 2] {
        sim.inject(
            SimTime::ZERO,
            EXP,
            owner,
            TraderMsg::Export(offer(kind, id)),
        );
    }
    sim
}

/// Half the run warms every table up; the other half is counted.
const N: u64 = 100;

#[test]
fn a_cold_lookup_stays_within_its_allocation_budget() {
    let owner = ring().node_for(&video()).expect("a ring of two");
    // A zero TTL: every lookup pays the round trip.
    let mut sim = domain(&video(), SimDuration::ZERO, (1..=2 * N).map(|k| 10 * k));
    sim.run(Until::At(ms(10 * N + 5)));
    let tally = run_counted(&mut sim, ms(20 * N + 100));
    let imp: &ImporterActor = sim.get(ActorHandle::of(IMP)).expect("importer");
    assert_eq!(imp.stats().cold_lookups, 2 * N);
    // Serving: the lists a lookup builds and the copies of the two
    // offers the reply carries.
    let lookups = tally.messages(owner);
    assert_eq!((lookups.events, lookups.allocs), (N, 9 * N));
    // Issuing: two copies of the type name, the job's and the pending
    // entry's; the importer's ticks allocate nothing.
    assert_eq!(tally.timers(IMP).allocs, 2 * N);
    // Taking a reply: the cache's copy of it, 5 a reply, plus the
    // growth of the latency histograms' sample vectors.
    let replies = tally.messages(IMP);
    assert_eq!((replies.events, replies.allocs), (N, 5 * N + 2));
}

#[test]
fn an_invalidation_stays_within_its_allocation_budget() {
    let owner = ring().node_for(&video()).expect("a ring of two");
    let mut sim = domain(&video(), SimDuration::from_secs(60), [10].into_iter());
    // The two offers' QoS flips between two specs, one change every
    // 10 ms, each multicast as a reliable invalidation note.
    for k in 1..=2 * N {
        let qos = if k % 4 < 2 {
            QosSpec::video()
        } else {
            QosSpec::mobile_video()
        };
        let modify = TraderMsg::Modify(OfferId(1 + k % 2), qos);
        sim.inject(ms(100 + 10 * k), EXP, owner, modify);
    }
    sim.run(Until::At(ms(100 + 10 * N + 5)));
    let tally = run_counted(&mut sim, ms(100 + 20 * N + 500));
    assert_eq!(sim.metrics().counter("trader.modifications"), 2 * N);
    // At the owner: the modify and its multicast, 5; the three acks
    // that come back, 0.
    let at_owner = tally.messages(owner);
    assert_eq!((at_owner.events, at_owner.allocs), (4 * N, 5 * N));
    // At each peer trader, 3 a note; at the importer one more, the
    // epoch entry's copy of the type name.
    for (node, per_note) in [(T1, 3), (T3, 3), (IMP, 4)] {
        let notes = tally.messages(node);
        assert_eq!((notes.events, notes.allocs), (N, per_note * N), "at {node}");
    }
}

#[test]
fn a_ring_change_stays_within_its_allocation_budget() {
    // `T3` joins and leaves the ring in turn, one change a second,
    // moving the two offers of `surgery` between `T2` and `T3`; the
    // importer looks the type up once between changes.
    let mut sim = domain(
        &surgery(),
        SimDuration::from_secs(60),
        (1..=2 * N).map(|k| 1000 * k),
    );
    for k in 1..=2 * N {
        let (added, removed) = if k % 2 == 1 {
            (vec![T3], vec![])
        } else {
            (vec![], vec![T3])
        };
        for node in [T1, T2, T3, IMP] {
            let change = TraderMsg::ShardChange {
                added: added.clone(),
                removed: removed.clone(),
            };
            sim.inject(ms(1000 * k + 500), OPERATOR, node, change);
        }
    }
    sim.run(Until::At(ms(1000 * N + 700)));
    let tally = run_counted(&mut sim, ms(2000 * N + 900));
    assert_eq!(sim.metrics().counter("trader.transfers.in"), 4 * N);
    assert_eq!(sim.metrics().counter("importer.cache.invalidated"), 2 * N);
    // Per change, summed over everything each node handles for it: the
    // change itself, the two transfers, the three invalidation notes
    // and their acks, and at the importer the lookup that follows.
    for (node, events, allocs) in [
        (T1, 4 * N, 10 * N),
        (T2, 17 * N / 2, 21 * N),
        (T3, 17 * N / 2, 21 * N),
        (IMP, 5 * N, 23 * N + 2),
    ] {
        let handled = tally.messages(node);
        assert_eq!(
            (handled.events, handled.allocs),
            (events, allocs),
            "at {node}"
        );
    }
}
