//! Allocation budgets on the schedule explorer, held by a count instead
//! of a stopwatch: `awareness::gating_deep_sim` (four publications
//! racing over causal multicast to three replicas, the `check_explore`
//! workload's scenario) explored for a fixed number of runs under the
//! deep budget, DPOR and state hashing on. The count takes in every
//! allocation of the exploration — the factory's sims, the actors'
//! messages, the invariant — divided by the events explored.
//!
//! A second exploration of 200 runs pins its exact count.
//!
//! The file is its own test binary so it can install
//! `odp_sim::alloc::Counting` as its global allocator; the counter is
//! per thread, so the harness's other threads cannot disturb it.

use odp_check::explore::{Budget, Explorer, Invariant};
use odp_check::invariants::awareness::{fingerprint, gating_deep_sim, RightsGated};
use odp_sim::alloc::{counted, Counting};
use odp_sim::metrics::MetricsRegistry;
use odp_sim::time::{SimDuration, SimTime};

#[global_allocator]
static GLOBAL: Counting = Counting;

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
    // Vector clocks, event keys, cause positions and the pending scan
    // live in buffers the exploration reuses, so what is left is mostly
    // the factory's sim, the invariant and the actors' own traffic.
    // Measured 1.27.
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

#[test]
fn two_hundred_explored_runs_allocate_an_exact_count() {
    // The budget above bounds the average with headroom; this pins one
    // exploration's exact count, so one more allocation per new state
    // or per run fails (x86-64 Linux, rustc 1.95). Each sim's queue
    // stays in sorted order: a key vector that doubles as it fills, in
    // place of the wheel's list heads and the ordered index's nodes.
    // Each replica's bus lends its grants from one buffer it keeps, not
    // a fresh `Vec` per publication.
    let budget = Budget {
        max_runs: 200,
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
    assert_eq!((report.runs, report.events), (200, 27_154));
    assert_eq!(allocs, 35_514);
}
