//! Property tests for the network model: partitions, connectivity and
//! bandwidth queueing.

use odp_sim::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    /// Partition separation is symmetric, and healing restores traffic
    /// between every pair.
    #[test]
    fn partition_is_symmetric_and_heals(
        group_a in prop::collection::btree_set(0u32..8, 1..4),
        group_b in prop::collection::btree_set(8u32..16, 1..4),
        probe_a in 0u32..8,
        probe_b in 8u32..16,
    ) {
        let mut net = Network::new(LinkSpec::ideal());
        let a: HashSet<NodeId> = group_a.iter().map(|&n| NodeId(n)).collect();
        let b: HashSet<NodeId> = group_b.iter().map(|&n| NodeId(n)).collect();
        net.partition(vec![a.clone(), b.clone()]);
        for &x in &a {
            for &y in &b {
                prop_assert!(net.is_partitioned(x, y));
                prop_assert!(net.is_partitioned(y, x), "symmetry");
            }
        }
        // Within one side nothing is partitioned.
        for &x in &a {
            for &y in &a {
                prop_assert!(!net.is_partitioned(x, y));
            }
        }
        net.heal();
        prop_assert!(!net.is_partitioned(NodeId(probe_a), NodeId(probe_b)));
    }

    /// A disconnected node can neither send nor receive, whatever the
    /// link; restoring full connectivity restores both directions.
    #[test]
    fn disconnection_is_total_and_reversible(node in 0u32..8, peer in 8u32..16, seed in any::<u64>()) {
        let mut net = Network::new(LinkSpec::lan());
        let mut rng = DetRng::seed_from(seed);
        net.set_connectivity(NodeId(node), Connectivity::Disconnected);
        prop_assert!(matches!(
            net.submit(SimTime::ZERO, NodeId(node), NodeId(peer), 10, &mut rng),
            Verdict::Dropped(DropReason::Disconnected)
        ));
        prop_assert!(matches!(
            net.submit(SimTime::ZERO, NodeId(peer), NodeId(node), 10, &mut rng),
            Verdict::Dropped(DropReason::Disconnected)
        ));
        net.set_connectivity(NodeId(node), Connectivity::Full);
        prop_assert!(matches!(
            net.submit(SimTime::ZERO, NodeId(node), NodeId(peer), 10, &mut rng),
            Verdict::DeliverAt(_)
        ));
    }

    /// Bandwidth queueing: on a lossless, jitter-free link, delivery
    /// times of back-to-back messages are strictly increasing, spaced at
    /// least by each message's transmit time.
    #[test]
    fn bandwidth_queue_orders_deliveries(
        sizes in prop::collection::vec(1usize..10_000, 2..12),
        bw in 1_000u64..1_000_000,
    ) {
        let spec = LinkSpec {
            latency: SimDuration::from_millis(5),
            jitter: SimDuration::ZERO,
            bytes_per_sec: Some(bw),
            loss: 0.0,
        };
        let mut net = Network::new(spec);
        let mut rng = DetRng::seed_from(1);
        let mut last = SimTime::ZERO;
        for (i, &bytes) in sizes.iter().enumerate() {
            let verdict = net.submit(SimTime::ZERO, NodeId(0), NodeId(1), bytes, &mut rng);
            let Verdict::DeliverAt(at) = verdict else {
                prop_assert!(false, "lossless link dropped");
                unreachable!()
            };
            if i > 0 {
                prop_assert!(at > last, "deliveries in submit order");
                prop_assert!(
                    at.saturating_since(last) >= spec.transmit_time(bytes),
                    "spacing at least the transmit time"
                );
            }
            last = at;
        }
    }

    /// Partial connectivity never *improves* a link: latency and loss at
    /// Partial dominate the base link's.
    #[test]
    fn partial_connectivity_only_degrades(
        base_lat_ms in 0u64..500,
        base_loss in 0.0f64..0.5,
    ) {
        let base = LinkSpec {
            latency: SimDuration::from_millis(base_lat_ms),
            jitter: SimDuration::ZERO,
            bytes_per_sec: None,
            loss: base_loss,
        };
        let mut net = Network::new(base);
        net.set_connectivity(NodeId(0), Connectivity::Partial);
        let eff = net.link(NodeId(0), NodeId(1));
        prop_assert!(eff.latency >= base.latency);
        prop_assert!(eff.loss >= base.loss);
    }
}
