//! Property tests for disconnected operation and reintegration.

use odp_awareness::bus::{CoopEvent, EventBus};
use odp_concurrency::store::{ObjectId, ObjectStore};
use odp_mobility::host::MobileHost;
use odp_mobility::reintegration::{reintegrate, ChangeLog, ConflictPolicy, ReplayOutcome};
use odp_sim::net::{Connectivity, NodeId};
use odp_sim::time::SimTime;
use proptest::prelude::*;

proptest! {
    /// Log optimisation: after any sequence of writes, the log holds at
    /// most one entry per object, carrying the latest value and the
    /// earliest base version.
    #[test]
    fn log_optimisation_invariants(
        writes in prop::collection::vec((0u64..5, 0u64..3, "[a-z]{1,8}"), 1..40),
    ) {
        let mut log = ChangeLog::new();
        let mut first_base: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut last_value: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
        for (i, (obj, base, value)) in writes.iter().enumerate() {
            log.record(ObjectId(*obj), *base, value.clone(), SimTime::from_secs(i as u64));
            first_base.entry(*obj).or_insert(*base);
            last_value.insert(*obj, value.clone());
        }
        prop_assert_eq!(log.len(), first_base.len());
        prop_assert_eq!(log.recorded(), writes.len() as u64);
        for entry in log.entries() {
            prop_assert_eq!(&entry.new_value, &last_value[&entry.object.0]);
            prop_assert_eq!(entry.base_version, first_base[&entry.object.0]);
        }
    }

    /// Reintegration under ServerWins never loses a concurrent server
    /// edit; under ClientWins the mobile value always lands. In both
    /// policies, conflict count equals the number of logged objects whose
    /// server version moved.
    #[test]
    fn reintegration_respects_the_policy(
        server_edits in prop::collection::vec(0u64..5, 0..10),
        mobile_writes in prop::collection::vec(0u64..5, 1..10),
        client_wins in any::<bool>(),
    ) {
        let mut server = ObjectStore::new();
        for o in 0..5u64 {
            server.create(ObjectId(o), format!("base{o}"));
        }
        let mut log = ChangeLog::new();
        let mut logged = std::collections::BTreeSet::new();
        for &o in &mobile_writes {
            log.record(ObjectId(o), 0, format!("mobile{o}"), SimTime::ZERO);
            logged.insert(o);
        }
        let mut dirtied = std::collections::BTreeSet::new();
        for &o in &server_edits {
            server.write(ObjectId(o), format!("office{o}")).expect("exists");
            dirtied.insert(o);
        }
        let policy = if client_wins { ConflictPolicy::ClientWins } else { ConflictPolicy::ServerWins };
        // An office observer hears each conflict on the cooperation-event bus.
        let mut bus = EventBus::new();
        bus.register(NodeId(9), 0.0);
        let outcomes = reintegrate(NodeId(1), &log, &mut server, policy, SimTime::ZERO)
            .expect("all objects exist");
        let announced = bus.publish_all(outcomes.iter().filter_map(Option::<CoopEvent>::from));
        let conflicts = outcomes
            .iter()
            .filter(|o| matches!(o, ReplayOutcome::Conflict { .. }))
            .count();
        let expected_conflicts = logged.intersection(&dirtied).count();
        prop_assert_eq!(conflicts, expected_conflicts);
        prop_assert_eq!(announced.len(), expected_conflicts, "one bus notice per conflict");
        for &o in &logged {
            let value = &server.read(ObjectId(o)).expect("exists").value;
            if dirtied.contains(&o) && !client_wins {
                prop_assert_eq!(value, &format!("office{o}"), "server wins on conflict");
            } else {
                prop_assert_eq!(value, &format!("mobile{o}"), "mobile value lands");
            }
        }
    }

    /// A disconnect/work/reconnect cycle with no concurrent office edits
    /// is conflict-free and leaves server == cache for every touched
    /// object, for any interleaving of reads and writes.
    #[test]
    fn clean_cycle_converges(ops in prop::collection::vec((0u64..4, any::<bool>()), 1..30)) {
        let mut server = ObjectStore::new();
        for o in 0..4u64 {
            server.create(ObjectId(o), format!("v0-{o}"));
        }
        let mut host = MobileHost::new(ConflictPolicy::ServerWins);
        for o in 0..4 {
            host.cache_mut().hoard(ObjectId(o));
        }
        let mut bus = EventBus::new();
        bus.register(NodeId(9), 0.0);
        host.reconnect(NodeId(1), &mut server, SimTime::ZERO)
            .expect("hoard");
        host.set_connectivity(Connectivity::Disconnected);
        for (i, &(o, write)) in ops.iter().enumerate() {
            if write {
                host.write(ObjectId(o), format!("w{i}"), &mut server, SimTime::from_secs(i as u64))
                    .expect("hoarded base");
            } else {
                host.read(ObjectId(o), &mut server).expect("hoarded");
            }
        }
        let report = host
            .reconnect(NodeId(1), &mut server, SimTime::from_secs(100))
            .expect("reintegrate");
        let announced = bus.publish_all(report.replay.iter().filter_map(Option::<CoopEvent>::from));
        prop_assert_eq!(report.conflicts(), 0);
        prop_assert!(announced.is_empty(), "clean replays stay quiet on the bus");
        for o in 0..4u64 {
            let server_val = server.read(ObjectId(o)).expect("exists").value.clone();
            let cached = host.cache().peek(ObjectId(o)).expect("hoarded").value.clone();
            prop_assert_eq!(server_val, cached, "object {} diverged", o);
        }
        // Reintegrating again is a no-op (the log was cleared).
        prop_assert!(host.log().is_empty());
    }
}
