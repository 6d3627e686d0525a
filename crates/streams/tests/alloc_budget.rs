//! Allocation budgets on the stream actors, held by a count instead of
//! a stopwatch: a `SourceActor` pacing 25 fps of video to one
//! `SinkActor` over a healthy LAN, its first ten seconds warming up and
//! the next ten counted event by event. The run is seeded, so each
//! count is exact (x86-64 Linux, rustc 1.95): a handler that allocates
//! once more fails its budget.
//!
//! The file is its own test binary so it can install
//! `odp_sim::alloc::Counting` as its global allocator; the counter is
//! per thread, so the harness's other threads cannot disturb it.

use odp_sim::alloc::{run_counted, Count, Counting};
use odp_sim::prelude::*;
use odp_streams::actors::{SinkActor, SourceActor, StreamMsg};
use odp_streams::media::{MediaKind, MediaSink, MediaSource, StreamId};
use odp_streams::monitor::QosMonitor;
use odp_streams::qos::QosSpec;

#[global_allocator]
static GLOBAL: Counting = Counting;

const SOURCE: NodeId = NodeId(0);
const SINK: NodeId = NodeId(1);

fn count(events: u64, allocs: u64) -> Count {
    Count { events, allocs }
}

#[test]
fn a_healthy_stream_stays_within_its_allocation_budget() {
    let mut sim: Sim<StreamMsg> = SimBuilder::new(42).build();
    let contract = QosSpec::video();
    let source = MediaSource::new(StreamId(0), MediaKind::Video, 25, 4_000);
    sim.add_actor(SOURCE, SourceActor::new(source, vec![SINK], contract));
    let sink = MediaSink::new(StreamId(0), SimDuration::from_millis(120));
    let monitor = QosMonitor::new(contract, SimDuration::from_secs(1));
    sim.add_actor(SINK, SinkActor::new(sink, monitor, SOURCE));
    sim.run(Until::At(SimTime::from_secs(10)));
    let tally = run_counted(&mut sim, SimTime::from_secs(20));
    assert_eq!(sim.metrics().counter("stream.violations_detected"), 0);
    // The source sends 250 frames and 5 contract beacons off its timers,
    // and takes the sink's 5 health reports, without allocating.
    assert_eq!(tally.timers(SOURCE), count(255, 0));
    assert_eq!(tally.messages(SOURCE), count(5, 0));
    // The sink files a frame without allocating; the 12 are the five
    // beacons' trace records (label and text each, and the trace's
    // growth).
    assert_eq!(tally.messages(SINK), count(255, 12));
    // Its 10 ms playout tick: the monitor reads the window's played
    // delays in place, twice (mean, then jitter), so what is left is
    // mostly the `Vec` a tick that plays a frame returns it in (250
    // frames).
    assert_eq!(tally.timers(SINK), count(1_000, 253));
}
