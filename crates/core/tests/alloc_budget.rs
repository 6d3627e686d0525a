//! Allocation budgets on `group_edit`'s delivery path, held by a count
//! instead of a stopwatch: a rights check allocates nothing; applying
//! an edit to the E13 workspace allocates the delivery `Vec` and —
//! amortised — the history's growth, nothing per observer; a publish
//! whose verdicts are cached allocates the delivery `Vec` alone; a warm
//! windowed trace records without allocating; and eight E13 replicas
//! stay within a budget per applied edit.
//!
//! The file is its own test binary so it can install a counting
//! `#[global_allocator]`; the counter is per thread, so the harness's
//! other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cscw_core::replicated::{replica_actor, WorkspaceReplica, WsOp};
use cscw_core::workspace::{ObjectId, SharedWorkspace};
use odp_access::matrix::Subject;
use odp_access::rbac::{Effect, ObjectPath, RoleId};
use odp_access::rights::Rights;
use odp_awareness::bus::{CoopEvent, CoopKind};
use odp_awareness::events::ActivityKind;
use odp_groupcomm::actors::GroupActor;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::GcMsg;
use odp_sim::net::NodeId;
use odp_sim::prelude::{ActorHandle, LinkSpec, Network, Sim, SimBuilder, Trace, Until};
use odp_sim::time::{SimDuration, SimTime};

thread_local! {
    // `const` and without a destructor: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's `alloc` and `realloc`
/// calls (what `odpbench-traced` reports as `host.allocs_per_op`).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local `Cell` and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc`; `ptr` and `layout` describe a live
        // `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const REPLICAS: u32 = 8;

/// The E13 workspace as `group_edit` configures it: eight
/// participants, all writers on `shared` and all observing, a
/// read-only role nobody holds, one artefact at `shared/1`.
fn e13_workspace() -> SharedWorkspace {
    let mut ws = SharedWorkspace::new();
    ws.policy_mut()
        .add_rule(RoleId(1), "shared".into(), Rights::ALL, Effect::Allow);
    ws.policy_mut()
        .add_rule(RoleId(2), "shared".into(), Rights::READ, Effect::Allow);
    for i in 0..REPLICAS {
        ws.policy_mut().assign(Subject(i), RoleId(1));
        ws.register_observer(NodeId(i), 0.0);
    }
    ws.create_artefact(ObjectId(1), "shared/1", "v0");
    ws
}

#[test]
fn a_rights_check_allocates_nothing() {
    let ws = e13_workspace();
    let path = ObjectPath::new("shared/1");
    let mut granted = 0u32;
    let allocs = allocations(|| {
        for i in 0..=REPLICAS {
            granted += u32::from(ws.policy().allows(Subject(i), &path, Rights::WRITE));
            granted += u32::from(ws.allows(NodeId(i), ObjectId(1), Rights::READ));
        }
    });
    assert_eq!(granted, 2 * REPLICAS, "every participant, not the stranger");
    assert_eq!(allocs, 0);
}

#[test]
fn applying_an_edit_allocates_the_delivery_vec_and_little_else() {
    const CALLS: u32 = 1_000;
    let mut ws = e13_workspace();
    // Values are built outside the counted region and moved in, as a
    // replica moves a delivered `WsOp.value` in.
    let mut values: Vec<String> = (0..100 + CALLS).map(|k| format!("edit-{k}")).collect();
    let mut write = |ws: &mut SharedWorkspace, k: u32| {
        let value = values.pop().expect("one value per call");
        let deliveries = ws
            .write(NodeId(k % REPLICAS), ObjectId(1), value, SimTime::ZERO)
            .expect("every participant may write");
        assert_eq!(deliveries.len() as u32, REPLICAS - 1);
    };
    for k in 0..100 {
        write(&mut ws, k);
    }
    let allocs = allocations(|| {
        for k in 0..CALLS {
            write(&mut ws, k);
        }
    });
    // One delivery `Vec` per call; the history doubles four times on
    // the way from 100 to 1 100 entries. A tenth of a call's worth of
    // headroom.
    assert!(
        allocs <= u64::from(CALLS + CALLS / 10),
        "{allocs} allocations over {CALLS} writes"
    );
}

#[test]
fn a_publish_on_cached_verdicts_allocates_the_delivery_vec_alone() {
    const CALLS: u64 = 1_000;
    let mut ws = e13_workspace();
    let path = ObjectPath::new("shared/1");
    let event = |k: u64| {
        let kind = CoopKind::Activity(ActivityKind::Edit);
        CoopEvent::broadcast(NodeId((k % 8) as u32), path.clone(), SimTime::ZERO, kind)
    };
    // Every observer decides once here; the counted calls reuse it.
    assert_eq!(ws.bus_mut().publish(event(0)).len() as u32, REPLICAS - 1);
    let allocs = allocations(|| {
        for k in 0..CALLS {
            assert_eq!(ws.bus_mut().publish(event(k)).len() as u32, REPLICAS - 1);
        }
    });
    assert_eq!(allocs, CALLS, "one delivery Vec per publish");
}

#[test]
fn a_warm_windowed_trace_records_without_allocating() {
    const CAPACITY: usize = 64;
    let mut trace = Trace::with_capacity(CAPACITY);
    let record = |trace: &mut Trace, k: u64| {
        let at = SimTime::from_micros(k);
        trace.record(
            at,
            NodeId(0),
            "ws.applied",
            format_args!("obj 1 by {}", k % 8),
        );
    };
    // Two windows' worth: every record the window evicts from now on
    // has buffers the size of the one that takes its place.
    for k in 0..2 * CAPACITY as u64 {
        record(&mut trace, k);
    }
    let allocs = allocations(|| {
        for k in 0..10_000 {
            record(&mut trace, k);
        }
    });
    assert_eq!(allocs, 0);
    assert_eq!(trace.len(), CAPACITY);
}

/// Allocations per applied edit at most: 5.25 measured (x86-64 Linux,
/// rustc 1.95, debug and release alike), rounded up. Before the cached
/// rights verdicts, the in-place trace records, the total-order ring and
/// the borrowed workspace paths the same run measured 7.25 — the two
/// `String`s of each `ws.applied` record.
const ALLOCS_PER_APPLIED_EDIT: f64 = 5.3;

/// Applied edits summed over the replicas.
fn applied(sim: &Sim<GcMsg<WsOp>>) -> u64 {
    (0..REPLICAS)
        .map(|i| {
            let replica: &GroupActor<WsOp, WorkspaceReplica> =
                sim.get(ActorHandle::of(NodeId(i))).expect("replica exists");
            replica.app().applied()
        })
        .sum()
}

#[test]
fn eight_e13_replicas_stay_within_their_allocations_per_applied_edit() {
    // Half the edits warm the run up — every lazily grown table, and a
    // trace window filled twice over — and the other half is counted.
    const EDITS_EACH: u64 = 400;
    let view = View::initial(GroupId(0), (0..REPLICAS).map(NodeId));
    // E13's WAN as `group_edit` runs it: lossless.
    let link = LinkSpec {
        loss: 0.0,
        ..LinkSpec::wan(SimDuration::from_millis(15))
    };
    let mut sim: Sim<GcMsg<WsOp>> = SimBuilder::new(31)
        .network(Network::new(link))
        .trace_capacity(4_096)
        .build();
    for i in 0..REPLICAS {
        let replica = replica_actor(NodeId(i), view.clone(), e13_workspace());
        sim.add_actor(NodeId(i), replica);
    }
    // One edit per replica every 5 ms; values built and queued before
    // anything is counted.
    let due = |t: u64| SimTime::from_millis(10 + 5 * t);
    for t in 0..EDITS_EACH {
        for i in 0..REPLICAS {
            let op = WsOp {
                actor: i,
                object: 1,
                value: format!("edit-{t}-{i}"),
            };
            sim.inject(due(t), NodeId(i), NodeId(i), GcMsg::AppCmd(op));
        }
    }
    sim.run(Until::At(due(EDITS_EACH / 2)));
    let warm = applied(&sim);
    let allocs = allocations(|| {
        sim.run(Until::At(due(EDITS_EACH) + SimDuration::from_secs(2)));
    });
    let total = EDITS_EACH * u64::from(REPLICAS * REPLICAS);
    assert_eq!(applied(&sim), total, "every edit applied everywhere");
    let per_edit = allocs as f64 / (total - warm) as f64;
    assert!(
        per_edit <= ALLOCS_PER_APPLIED_EDIT,
        "{per_edit:.3} allocations per applied edit, budget {ALLOCS_PER_APPLIED_EDIT}"
    );
}
