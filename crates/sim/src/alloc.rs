//! Allocation budgets: a counting global allocator for test binaries.
//!
//! A budget holds a hot path's cost by a count instead of a stopwatch.
//! A test binary installs [`Counting`] as its global allocator and
//! wraps the code under budget in [`counted`]:
//!
//! ```
//! use odp_sim::alloc::{counted, Counting};
//!
//! #[global_allocator]
//! static GLOBAL: Counting = Counting;
//!
//! fn main() {
//!     let (boxed, allocs) = counted(|| Box::new(7u64));
//!     assert_eq!((*boxed, allocs), (7, 1));
//! }
//! ```
//!
//! The counter is per thread, so the test harness's other threads
//! cannot disturb it; what a spawned thread allocates is not counted.
//! A binary that does not install the allocator reads 0 from every
//! [`counted`]. [`run_counted`] steps a simulation and counts each
//! event apart, so a budget can name the node and handler it holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use crate::net::NodeId;
use crate::sim::{PendingEvent, Sim, Until};
use crate::time::SimTime;

thread_local! {
    // `const` and without a destructor: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's `alloc` and `realloc`
/// calls (what `odpbench-traced` reports as `host.allocs_per_op`).
pub struct Counting;

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

/// What `f` returns, and the allocations this thread made meanwhile.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}

/// Events of one kind handled at one node, and what handling them
/// allocated.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Count {
    /// Events handled.
    pub events: u64,
    /// Allocations made while handling them.
    pub allocs: u64,
}

/// What each node's events allocated over a stretch of a run, messages
/// and timers apart. Each event's count takes in the simulator's own
/// work for it (queueing what the handler sent, arming its timers).
#[derive(Debug, Default)]
pub struct Tally(BTreeMap<(NodeId, bool), Count>);

impl Tally {
    /// The messages delivered to `node`.
    pub fn messages(&self, node: NodeId) -> Count {
        self.0.get(&(node, true)).copied().unwrap_or_default()
    }

    /// The timers `node` fired, and its start if it fell in the stretch.
    pub fn timers(&self, node: NodeId) -> Count {
        self.0.get(&(node, false)).copied().unwrap_or_default()
    }
}

/// Runs `sim` like `sim.run(Until::At(until))`, one event at a time,
/// and tallies what each event allocated under the node that handled
/// it. A scripted network change is tallied under no node.
pub fn run_counted<M: 'static>(sim: &mut Sim<M>, until: SimTime) -> Tally {
    let mut tally = Tally::default();
    while sim.next_event_time().is_some_and(|at| at <= until) {
        let (stepped, allocs) = counted(|| sim.step());
        if !stepped {
            break;
        }
        let key = match sim.last_executed().map(|e| e.desc) {
            Some(PendingEvent::Deliver { to, .. }) => (to, true),
            Some(PendingEvent::Timer { node, .. } | PendingEvent::Start { node, .. }) => {
                (node, false)
            }
            _ => continue,
        };
        let count = tally.0.entry(key).or_default();
        count.events += 1;
        count.allocs += allocs;
    }
    sim.run(Until::At(until));
    tally
}
