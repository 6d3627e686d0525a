//! Allocation budgets on the placement actors, held by a count instead
//! of a stopwatch: the `collab_raster` scenario at its defaults (two
//! islands of three editors, eight tiles, seven migrations), counted
//! event by event from its first inject to quiescence. The run is
//! seeded, so each count is exact (x86-64 Linux, rustc 1.95): a handler
//! that allocates once more fails its budget. The counts take in the
//! tables each actor grows on first use, and the event queue's own
//! buffers (its key vector, the wheel it moves onto at its 65th event,
//! the wheel's rebuilds), counted under the node whose step grew them.
//!
//! The file is its own test binary so it can install
//! `odp_sim::alloc::Counting` as its global allocator; the counter is
//! per thread, so the harness's other threads cannot disturb it.

use odp_place::scenario::{collab_raster, RasterConfig};
use odp_sim::alloc::{run_counted, Count, Counting};
use odp_sim::prelude::*;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn count(events: u64, allocs: u64) -> Count {
    Count { events, allocs }
}

#[test]
fn a_raster_session_stays_within_its_allocation_budget() {
    let (mut sim, scenario) = collab_raster(&RasterConfig::default());
    let tally = run_counted(&mut sim, scenario.last_op + SimDuration::from_secs(5));
    assert_eq!(sim.pending_len(), 0, "the scenario quiesced");
    assert_eq!(sim.metrics().counter("place.ctl.migrations"), 7);
    // The controller: the editors' span reports (288 accesses folded
    // into usage), the session's view change, and each migration's
    // transfer report and install, which commits it; 4.1 allocations a
    // message. A migration's notice grants come from the bus's buffer,
    // sized by the first.
    assert_eq!(tally.messages(scenario.controller), count(136, 561));
    // Its policy rounds: the shortlist and, in a round that decides, the
    // decision's record.
    assert_eq!(tally.timers(scenario.controller), count(40, 264));
    // The storage hosts: reads, writes, freezes, chunks, installs and
    // releases, about 1.2 allocations a message; their timers none.
    assert_eq!(tally.messages(scenario.storage_a), count(300, 360));
    assert_eq!(tally.messages(scenario.storage_b), count(55, 62));
    for host in [scenario.storage_a, scenario.storage_b] {
        assert_eq!(tally.timers(host).allocs, 0, "at {host}");
    }
}
