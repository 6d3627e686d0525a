//! Property-based tests for the simulation substrate.

use odp_sim::prelude::*;
use proptest::prelude::*;

proptest! {
    /// Nearest-rank percentile must always return an actual sample, and
    /// quantiles must be monotone in q.
    #[test]
    fn histogram_percentiles_are_samples_and_monotone(
        mut values in prop::collection::vec(0u64..1_000_000, 1..200),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        let mut h: Histogram = values.iter().map(|&v| SimDuration::from_micros(v)).collect();
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = h.percentile(lo);
        let p_hi = h.percentile(hi);
        prop_assert!(p_lo <= p_hi);
        values.sort_unstable();
        prop_assert!(values.contains(&p_lo.as_micros()));
        prop_assert!(values.contains(&p_hi.as_micros()));
        prop_assert_eq!(h.min(), SimDuration::from_micros(values[0]));
        prop_assert_eq!(h.max(), SimDuration::from_micros(*values.last().unwrap()));
    }

    /// The mean must lie between min and max.
    #[test]
    fn histogram_mean_is_bounded(
        values in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let mut h: Histogram = values.iter().map(|&v| SimDuration::from_micros(v)).collect();
        let mean = h.mean();
        prop_assert!(h.min() <= mean && mean <= h.max());
    }

    /// Jitter sampling stays within [base - j, base + j], saturating at 0.
    #[test]
    fn jitter_bounds(seed in any::<u64>(), base in 0u64..100_000, j in 0u64..50_000) {
        let mut rng = DetRng::seed_from(seed);
        let base_d = SimDuration::from_micros(base);
        let j_d = SimDuration::from_micros(j);
        for _ in 0..32 {
            let s = rng.jittered(base_d, j_d).as_micros();
            prop_assert!(s <= base + j);
            prop_assert!(s >= base.saturating_sub(j));
        }
    }

    /// Two simulations with the same seed and workload produce identical
    /// traces regardless of workload size.
    #[test]
    fn simulation_is_deterministic(seed in any::<u64>(), n_msgs in 1usize..20) {
        fn run(seed: u64, n: usize) -> Vec<TraceEvent> {
            struct Echo;
            impl Actor<u64> for Echo {
                fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
                    ctx.trace("echo", msg);
                    if msg > 0 {
                        ctx.send(from, msg - 1);
                    }
                }
            }
            let net = Network::new(LinkSpec::wan(SimDuration::from_millis(20)));
            let mut sim = SimBuilder::new(seed).network(net).build();
            sim.add_actor(NodeId(0), Echo);
            sim.add_actor(NodeId(1), Echo);
            for i in 0..n {
                sim.inject(SimTime::from_millis(i as u64), NodeId(1), NodeId(0), 3);
            }
            sim.run(Until::Idle);
            sim.trace().events().to_vec()
        }
        prop_assert_eq!(run(seed, n_msgs), run(seed, n_msgs));
    }

    /// transmit_time is monotone in message size and inversely related to
    /// bandwidth.
    #[test]
    fn transmit_time_monotone(bytes_a in 0usize..1_000_000, bytes_b in 0usize..1_000_000,
                              bw in 1u64..1_000_000_000) {
        let spec = LinkSpec { bytes_per_sec: Some(bw), ..LinkSpec::ideal() };
        let (small, large) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        prop_assert!(spec.transmit_time(small) <= spec.transmit_time(large));
    }
}
