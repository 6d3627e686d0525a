//! Allocation budgets on `group_edit`'s delivery path, held by a count
//! instead of a stopwatch: a rights check allocates nothing, and
//! applying an edit to the E13 workspace allocates the delivery `Vec`
//! and — amortised — the history's growth, nothing per observer.
//!
//! The file is its own test binary so it can install a counting
//! `#[global_allocator]`; the counter is per thread, so the harness's
//! other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cscw_core::workspace::{ObjectId, SharedWorkspace};
use odp_access::matrix::Subject;
use odp_access::rbac::{Effect, ObjectPath, RoleId};
use odp_access::rights::Rights;
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

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
