//! The MOST-project scenario (paper §3.3.3): a utilities field engineer
//! works across the three connectivity levels — hoarding at the depot,
//! partial connectivity on the road, disconnected on site — then
//! reintegrates, hitting a conflict with an office edit.
//!
//! Run with: `cargo run --example mobile_field_engineer`

use cscw::awareness::bus::{CoopEvent, EventBus};
use cscw::concurrency::store::{ObjectId, ObjectStore};
use cscw::mobility::host::{MobileHost, Served};
use cscw::mobility::reintegration::{ConflictPolicy, ReplayOutcome};
use odp_sim::net::{Connectivity, NodeId};
use odp_sim::time::SimTime;

fn main() {
    println!("Mobile field engineer — a day in the life");
    println!("==========================================\n");

    let mut office = ObjectStore::new();
    office.create(ObjectId(1), "WO-1: inspect substation 7 feeder");
    office.create(ObjectId(2), "WO-2: replace meter at 14 Elm St");
    office.create(ObjectId(3), "WO-3: survey new cable route");

    let mut engineer = MobileHost::new(ConflictPolicy::ServerWins);
    // The dispatcher (node 0) observes the engineer's (node 1)
    // reintegration conflicts on the cooperation-event bus.
    let mut bus = EventBus::new();
    bus.register(NodeId(0), 0.0);

    // 08:00 — at the depot (fully connected): hoard today's work orders.
    engineer.cache_mut().hoard(ObjectId(1));
    engineer.cache_mut().hoard(ObjectId(2));
    let report = engineer
        .reconnect(NodeId(1), &mut office, SimTime::ZERO)
        .expect("depot network up");
    println!(
        "08:00 depot   : hoarded {} work orders ({} bytes).",
        report.refreshed, report.bulk_bytes
    );

    // 09:00 — on the road (partial/radio): reads come from the cache.
    engineer.set_connectivity(Connectivity::Partial);
    let (wo, served) = engineer.read(ObjectId(1), &mut office).expect("hoarded");
    println!("09:00 radio   : read {wo:?} served by {served:?} (radio spared).");

    // 10:00 — on site in a dead zone (disconnected): work continues.
    engineer.set_connectivity(Connectivity::Disconnected);
    engineer
        .write(
            ObjectId(1),
            "WO-1: inspected; feeder clamp corroded, needs part #B12",
            &mut office,
            SimTime::from_secs(2 * 3600),
        )
        .expect("cached base available");
    println!("10:00 on site : wrote findings offline (logged for reintegration).");
    match engineer.read(ObjectId(3), &mut office) {
        Err(e) => println!("10:30 on site : WO-3 was not hoarded — {e}."),
        Ok(_) => unreachable!("unhoarded object cannot be read offline"),
    }

    // Meanwhile the office amends the same work order.
    office
        .write(ObjectId(1), "WO-1: CANCELLED — customer rescheduled")
        .expect("office is online");
    println!("11:00 office  : dispatcher cancels WO-1 (concurrent edit!).");

    // 16:00 — back at the depot: reintegration detects the conflict.
    let report = engineer
        .reconnect(NodeId(1), &mut office, SimTime::from_secs(8 * 3600))
        .expect("depot network up");
    let announced = bus.publish_all(report.replay.iter().filter_map(Option::<CoopEvent>::from));
    println!(
        "\n16:00 depot   : reintegrating {} logged change(s)...",
        report.replay.len()
    );
    println!(
        "               ({} conflict notice(s) reach the dispatcher on the bus)",
        announced.len()
    );
    for outcome in &report.replay {
        match outcome {
            ReplayOutcome::Applied {
                object,
                new_version,
            } => {
                println!("  {object}: applied cleanly (now v{new_version})");
            }
            ReplayOutcome::Conflict {
                object,
                mobile_value,
                server_value,
                applied,
                ..
            } => {
                println!("  {object}: CONFLICT");
                println!("    field copy : {mobile_value:?}");
                println!("    office copy: {server_value:?}");
                println!(
                    "    policy     : server wins (field copy {})",
                    if *applied {
                        "applied anyway"
                    } else {
                        "preserved for manual merge"
                    }
                );
            }
        }
    }
    let (available, unavailable) = engineer.availability();
    println!("\nDay's availability: {available} operations served, {unavailable} unavailable.");
    println!(
        "Cache hit rate    : {:.0}%",
        engineer.cache().hit_rate() * 100.0
    );
    assert_eq!(
        report.conflicts(),
        1,
        "the concurrent cancellation conflicts"
    );
    let _ = Served::Cache; // (typed surface exercised above)
}
