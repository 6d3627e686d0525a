//! Experiment E9: group-aware object placement and migration.

use odp_mgmt::migration::MigrationManager;
use odp_mgmt::model::{EngRegistry, ManagedObjectId};
use odp_mgmt::placement::{place, PlacementPolicy, UsagePattern};
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};

use super::{Shape, Table};

/// Three sites with asymmetric latencies: London (0) — Lancaster (1) —
/// Paris (2); the paper's "geographically dispersed sites".
fn latency(a: NodeId, b: NodeId) -> SimDuration {
    let ms = match (a.0.min(b.0), a.0.max(b.0)) {
        (0, 1) => 8,  // London–Lancaster
        (0, 2) => 25, // London–Paris
        (1, 2) => 15, // Lancaster–Paris (direct peering)
        _ => 0,
    };
    SimDuration::from_millis(ms)
}

/// Per-site mean/max response time (2 × latency to the object's node)
/// weighted by the usage pattern.
fn response_stats(usage: &UsagePattern, node: NodeId) -> (f64, f64) {
    let total = usage.total().max(1);
    let mut weighted = 0.0;
    let mut worst: f64 = 0.0;
    for (site, count) in usage.iter() {
        let rtt_ms = 2.0 * latency(site, node).as_micros() as f64 / 1_000.0;
        weighted += rtt_ms * count as f64;
        if count > 0 {
            worst = worst.max(rtt_ms);
        }
    }
    (weighted / total as f64, worst)
}

/// **E9 — placement.** A shared object created at London used mostly
/// from Lancaster and Paris. Expected shape: the static-home baseline
/// leaves the worst site with the worst response; group-mean improves
/// the mean; group-minmax bounds the worst case. A usage shift then
/// triggers a migration under the manager.
pub(crate) fn e9_placement(seed: u64) -> Vec<Table> {
    let _ = seed; // deterministic
    let mut usage = UsagePattern::new();
    usage.record(NodeId(1), 60); // Lancaster is the heavy user
    usage.record(NodeId(2), 30); // Paris is active; London only hosts

    let candidates = [NodeId(0), NodeId(1), NodeId(2)];
    let mut table = Table::new(
        "E9",
        "Placement policies: response across 3 sites (object home = London)",
        ["policy", "chosen_node", "mean_rtt_ms", "worst_rtt_ms"],
    );
    for policy in [
        PlacementPolicy::StaticHome,
        PlacementPolicy::GroupMean,
        PlacementPolicy::GroupMinMax,
    ] {
        let p = place(policy, &usage, &candidates, NodeId(0), &latency);
        let (mean, worst) = response_stats(&usage, p.node);
        table.push_row([
            format!("{policy:?}"),
            p.node.to_string(),
            format!("{mean:.2}"),
            format!("{worst:.2}"),
        ]);
    }

    // Migration after a usage shift.
    let mut migration = Table::new(
        "E9b",
        "Migration after usage shift (Lancaster team hands over to Paris)",
        ["phase", "object_node", "migrations", "mean_rtt_ms"],
    );
    let mut reg = EngRegistry::new();
    for n in 0..3 {
        reg.create_capsule(NodeId(n));
    }
    let cluster = reg
        .create_cluster(odp_mgmt::model::CapsuleId(0))
        .expect("capsule exists");
    reg.create_object(ManagedObjectId(1), cluster, 2_000_000)
        .expect("cluster exists");
    let mut mgr = MigrationManager::new(PlacementPolicy::GroupMean, 0.2, 1_000_000);
    mgr.set_home(cluster, NodeId(0));
    // Phase 1: Lancaster-heavy usage.
    mgr.record_access(cluster, NodeId(1), 80);
    mgr.record_access(cluster, NodeId(2), 10);
    mgr.evaluate(cluster, &mut reg, &latency, SimTime::from_secs(10))
        .expect("registry consistent");
    let node1 = reg.node_of(ManagedObjectId(1)).expect("object exists");
    let mut usage1 = UsagePattern::new();
    usage1.record(NodeId(1), 80);
    usage1.record(NodeId(2), 10);
    let (mean1, _) = response_stats(&usage1, node1);
    migration.push_row([
        "lancaster-heavy".to_owned(),
        node1.to_string(),
        mgr.events().len().to_string(),
        format!("{mean1:.2}"),
    ]);
    // Phase 2: work shifts to Paris; old usage ages away.
    for _ in 0..6 {
        mgr.age_usage();
    }
    mgr.record_access(cluster, NodeId(2), 100);
    mgr.evaluate(cluster, &mut reg, &latency, SimTime::from_secs(100))
        .expect("registry consistent");
    let node2 = reg.node_of(ManagedObjectId(1)).expect("object exists");
    let mut usage2 = UsagePattern::new();
    usage2.record(NodeId(2), 100);
    let (mean2, _) = response_stats(&usage2, node2);
    migration.push_row([
        "paris-heavy".to_owned(),
        node2.to_string(),
        mgr.events().len().to_string(),
        format!("{mean2:.2}"),
    ]);

    vec![table, migration]
}

/// The shapes the E9 verdict states, one per table.
pub(crate) const SHAPES: &[Shape] = &[
    Shape {
        table: "E9",
        claim: "the static home stays at n0; group-mean moves to n1 and lowers the mean; group-minmax lowers the worst site",
        holds: |t| {
            Some(
                t.cell_f64("GroupMean", "mean_rtt_ms")? < t.cell_f64("StaticHome", "mean_rtt_ms")?
                    && t.cell_f64("GroupMinMax", "worst_rtt_ms")?
                        < t.cell_f64("StaticHome", "worst_rtt_ms")?
                    && t.cell("StaticHome", "chosen_node")? == "n0"
                    && t.cell("GroupMean", "chosen_node")? == "n1",
            )
        },
    },
    Shape {
        table: "E9b",
        claim: "the object follows the work from Lancaster (n1) to Paris (n2), one migration per phase",
        holds: |t| {
            Some(
                t.cell("lancaster-heavy", "object_node")? == "n1"
                    && t.cell("paris-heavy", "object_node")? == "n2"
                    && t.cell_f64("paris-heavy", "migrations")? == 2.0,
            )
        },
    },
];

#[cfg(test)]
mod tests {
    use super::super::assert_detects;

    #[test]
    fn e9_fails_when_group_mean_stays_at_the_static_home() {
        assert_detects("E9", "GroupMean", "chosen_node", "n0");
    }

    #[test]
    fn e9b_fails_when_the_object_stays_in_lancaster() {
        assert_detects("E9b", "paris-heavy", "object_node", "n1");
    }
}
