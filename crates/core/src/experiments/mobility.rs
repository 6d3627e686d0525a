//! Experiment E10: the mobile field engineer across connectivity levels.

use odp_awareness::bus::{CoopEvent, EventBus};
use odp_concurrency::store::{ObjectId, ObjectStore};
use odp_mobility::host::{MobileHost, Served};
use odp_mobility::reintegration::ConflictPolicy;
use odp_sim::net::{Connectivity, NodeId};
use odp_sim::rng::DetRng;
use odp_sim::time::SimTime;

use super::{Shape, Table};

/// **E10 — mobility.** A field engineer works a shift: fully connected
/// at the depot, partially connected on the road, disconnected on site.
/// The office edits some of the same objects meanwhile. Expected shape:
/// availability degrades gracefully with the connectivity level (thanks
/// to hoarding), reintegration conflicts grow with disconnection
/// duration, and reconnection performs a measurable bulk update.
pub(crate) fn e10_mobility(seed: u64) -> Vec<Table> {
    let mut table = Table::new(
        "E10",
        "Field shift across connectivity levels (ops every minute)",
        [
            "disconnected_minutes",
            "availability_pct",
            "cache_hit_rate_pct",
            "conflicts",
            "bulk_update_bytes",
        ],
    );
    for &offline_minutes in &[10u64, 30, 60, 120] {
        let mut rng = DetRng::seed_from(seed);
        let mut server = ObjectStore::new();
        let n_objects = 20u64;
        for o in 0..n_objects {
            server.create(ObjectId(o), format!("work order {o}: survey the site"));
        }
        let mut host = MobileHost::new(ConflictPolicy::ServerWins);
        // The office (node 0) observes the engineer's (node 1)
        // reintegration conflicts on the cooperation-event bus.
        let mut bus = EventBus::new();
        bus.register(NodeId(0), 0.0);
        // Hoard the first 15 work orders at the depot.
        for o in 0..15 {
            host.cache_mut().hoard(ObjectId(o));
        }
        host.reconnect(NodeId(1), &mut server, SimTime::ZERO)
            .expect("initial hoard fetch");

        let mut minute = 0u64;
        let mut conflicts = 0usize;
        let mut bulk_bytes = 0usize;
        // Phase 1: 20 minutes partially connected on the road.
        for _ in 0..20 {
            minute += 1;
            let obj = ObjectId(rng.range_u64(0, n_objects));
            let _ = host.read(obj, &mut server);
        }
        // Phase 2: disconnected on site; edits logged locally. The
        // office concurrently edits every 20 minutes.
        host.set_connectivity(Connectivity::Disconnected);
        for m in 0..offline_minutes {
            minute += 1;
            let obj = ObjectId(rng.range_u64(0, n_objects));
            if rng.chance(0.4) {
                let _ = host.write(
                    obj,
                    format!("field update at minute {minute}"),
                    &mut server,
                    SimTime::from_secs(minute * 60),
                );
            } else {
                let _ = host.read(obj, &mut server);
            }
            if m % 20 == 19 {
                let office_obj = ObjectId(rng.range_u64(0, n_objects));
                let _ = server.write(office_obj, format!("office edit at minute {minute}"));
            }
        }
        // Phase 3: back at the depot — reconnect, reintegrate, bulk
        // update.
        let report = host
            .reconnect(NodeId(1), &mut server, SimTime::from_secs(minute * 60))
            .expect("reintegration");
        let announced = bus.publish_all(report.replay.iter().filter_map(Option::<CoopEvent>::from));
        assert_eq!(
            announced.len(),
            report.conflicts(),
            "every settled conflict reaches the office"
        );
        conflicts += report.conflicts();
        bulk_bytes += report.bulk_bytes;

        let (available, unavailable) = host.availability();
        let availability = available as f64 / (available + unavailable).max(1) as f64 * 100.0;
        table.push_row([
            offline_minutes.to_string(),
            format!("{availability:.1}"),
            format!("{:.1}", host.cache().hit_rate() * 100.0),
            conflicts.to_string(),
            bulk_bytes.to_string(),
        ]);
    }

    // Availability per connectivity level (fixed short scenario).
    let mut levels = Table::new(
        "E10b",
        "Operation service source by connectivity level (30 ops each)",
        [
            "level",
            "served_by_server",
            "served_by_cache",
            "logged",
            "unavailable",
        ],
    );
    for level in [
        Connectivity::Full,
        Connectivity::Partial,
        Connectivity::Disconnected,
    ] {
        let mut rng = DetRng::seed_from(seed ^ 0xbeef);
        let mut server = ObjectStore::new();
        for o in 0..10u64 {
            server.create(ObjectId(o), format!("doc {o}"));
        }
        let mut host = MobileHost::new(ConflictPolicy::ServerWins);
        for o in 0..6 {
            host.cache_mut().hoard(ObjectId(o));
        }
        host.reconnect(NodeId(1), &mut server, SimTime::ZERO)
            .expect("hoard");
        host.set_connectivity(level);
        let (mut by_server, mut by_cache, mut logged, mut unavailable) = (0u32, 0u32, 0u32, 0u32);
        for i in 0..30u64 {
            let obj = ObjectId(rng.range_u64(0, 10));
            let outcome = if rng.chance(0.5) {
                host.write(obj, format!("edit {i}"), &mut server, SimTime::from_secs(i))
            } else {
                host.read(obj, &mut server).map(|(_, s)| s)
            };
            match outcome {
                Ok(Served::Server) => by_server += 1,
                Ok(Served::Cache) => by_cache += 1,
                Ok(Served::Logged) => logged += 1,
                Err(_) => unavailable += 1,
            }
        }
        levels.push_row([
            format!("{level:?}"),
            by_server.to_string(),
            by_cache.to_string(),
            logged.to_string(),
            unavailable.to_string(),
        ]);
    }

    vec![table, levels]
}

/// The shapes the E10 verdict states, one per table.
pub(crate) const SHAPES: &[Shape] = &[
    Shape {
        table: "E10",
        claim: "conflicts grow from 10 to 120 minutes offline; availability at 60 minutes stays above 60 %; reconnection ships a bulk update",
        holds: |t| {
            let availability = t.cell_f64("60", "availability_pct")?;
            Some(
                t.cell_f64("120", "conflicts")? > t.cell_f64("10", "conflicts")?
                    && availability > 60.0
                    && availability <= 100.0
                    && t.cell_f64("120", "bulk_update_bytes")? > 0.0,
            )
        },
    },
    Shape {
        table: "E10b",
        claim: "full connectivity writes through and never fails; partial logs writes; disconnected serves hoarded objects and loses the rest",
        holds: |t| {
            Some(
                t.cell_f64("Full", "unavailable")? == 0.0
                    && t.cell_f64("Full", "logged")? == 0.0
                    && t.cell_f64("Partial", "logged")? > 0.0
                    && t.cell_f64("Disconnected", "unavailable")? > 0.0
                    && t.cell_f64("Disconnected", "served_by_cache")? > 0.0,
            )
        },
    },
];

#[cfg(test)]
mod tests {
    use super::super::assert_detects;

    #[test]
    fn e10_fails_when_long_disconnection_adds_no_conflicts() {
        assert_detects("E10", "120", "conflicts", "0");
    }

    #[test]
    fn e10b_fails_when_partial_connectivity_logs_nothing() {
        assert_detects("E10b", "Partial", "logged", "0");
    }
}
