//! Allocation budgets on the schedule explorer, held by a count instead
//! of a stopwatch: `awareness::gating_deep_sim` (four publications
//! racing over causal multicast to three replicas, the `check_explore`
//! workload's scenario) explored for a fixed number of runs under the
//! deep budget, DPOR and state hashing on. The count takes in every
//! allocation of the exploration — the factory's sims, the actors'
//! messages, the invariant — divided by the events explored.
//!
//! The file is its own test binary so it can install a counting
//! `#[global_allocator]`; the counter is per thread, so the harness's
//! other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use odp_check::explore::{Budget, Explorer, Invariant};
use odp_check::invariants::awareness::{fingerprint, gating_deep_sim, RightsGated};
use odp_sim::metrics::MetricsRegistry;
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

/// What `f` returns, and the allocations this thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}

#[test]
fn an_explored_event_stays_within_its_allocation_budget() {
    const RUNS: usize = 1_000;
    let budget = Budget {
        max_runs: RUNS,
        ..Budget::deep().with_horizon(SimTime::from_secs(2))
    };
    let explorer = Explorer::new(42, budget);
    let (report, allocs) = counted(|| {
        explorer.explore_hashed(
            |seed| gating_deep_sim(seed, true),
            || vec![Box::new(RightsGated::for_gating_sim()) as Box<dyn Invariant<_>>],
            fingerprint,
        )
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert_eq!(report.runs, RUNS);
    let per_event = allocs as f64 / report.events as f64;
    // Vector clocks, cause positions and the pending scan live in
    // per-run buffers, so what is left is mostly the factory's sim
    // (65 allocations a run), the invariant and the actors' own
    // traffic. Measured 3.71; the bound is that, rounded up.
    assert!(
        per_event <= 3.8,
        "{allocs} allocations over {} events: {per_event:.2} per event",
        report.events
    );
}

#[test]
fn a_metric_under_an_existing_name_allocates_nothing() {
    let mut metrics = MetricsRegistry::new();
    let sample = SimDuration::from_micros(3);
    metrics.incr("delivered");
    metrics.add("bytes", 64);
    metrics.observe("latency", sample);
    let ((), allocs) = counted(|| {
        metrics.incr("delivered");
        metrics.add("bytes", 64);
        metrics.observe("latency", sample);
    });
    assert_eq!(allocs, 0, "add, incr and observe on a known name");
    assert_eq!(metrics.counter("delivered"), 2);
    assert_eq!(metrics.counter("bytes"), 128);
}
