//! Quality-of-service specification, compatibility checking and
//! negotiation.
//!
//! The paper (§4.2.2 ii): *"In the Computational Viewpoint, it is
//! necessary to support the expression of desired levels of QoS ...
//! Facilities are required for negotiation of QoS levels between remote
//! peers and also for end-to-end monitoring of QoS so that the
//! application can be informed if degradations occur. Dynamic
//! re-negotiation should also be supported."* And §4.2.2 (mobility):
//! *"quality of service requests \[should\] specify accepted levels of
//! disconnection".*

use std::fmt;

use odp_sim::net::{Connectivity, LinkQos};
use odp_sim::time::SimDuration;

/// A QoS contract for one stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosSpec {
    /// Required frames (or samples) per second.
    pub throughput_fps: u32,
    /// Maximum acceptable end-to-end delay.
    pub latency_bound: SimDuration,
    /// Maximum acceptable delay variance (jitter, standard deviation).
    pub jitter_bound: SimDuration,
    /// Maximum acceptable fraction of frames lost or late, in `[0, 1]`.
    pub loss_bound: f64,
    /// The weakest connectivity level under which the contract still
    /// applies (mobile hosts): below this, violation reporting pauses.
    pub min_connectivity: Connectivity,
}

impl QosSpec {
    /// Broadcast-quality video: 25 fps, 150 ms latency, 30 ms jitter,
    /// 1% loss.
    pub fn video() -> Self {
        QosSpec {
            throughput_fps: 25,
            latency_bound: SimDuration::from_millis(150),
            jitter_bound: SimDuration::from_millis(30),
            loss_bound: 0.01,
            min_connectivity: Connectivity::Full,
        }
    }

    /// Telephone-quality audio: 50 packets/s, 100 ms latency, 20 ms
    /// jitter, 2% loss.
    pub fn audio() -> Self {
        QosSpec {
            throughput_fps: 50,
            latency_bound: SimDuration::from_millis(100),
            jitter_bound: SimDuration::from_millis(20),
            loss_bound: 0.02,
            min_connectivity: Connectivity::Full,
        }
    }

    /// Degraded "mobile" video: 5 fps, 500 ms latency, tolerant of
    /// partial connectivity.
    pub fn mobile_video() -> Self {
        QosSpec {
            throughput_fps: 5,
            latency_bound: SimDuration::from_millis(500),
            jitter_bound: SimDuration::from_millis(150),
            loss_bound: 0.10,
            min_connectivity: Connectivity::Partial,
        }
    }

    /// The accept-anything requirement: 1 fps, ten-second bounds, total
    /// loss tolerated, valid down to full disconnection. Importers that
    /// only care about *finding* a service (not its quality) negotiate
    /// against this; every real offer satisfies it.
    pub fn permissive() -> Self {
        QosSpec {
            throughput_fps: 1,
            latency_bound: SimDuration::from_secs(10),
            jitter_bound: SimDuration::from_secs(10),
            loss_bound: 1.0,
            min_connectivity: Connectivity::Disconnected,
        }
    }

    /// This contract as observed *across* a path charging `path`
    /// degradation: the latency and jitter bounds the far side can
    /// actually hold here widen by the path's share, and loss compounds
    /// as independent stages (`1 - (1-spec)(1-path)`). Throughput and
    /// connectivity are capacity/validity constraints, not per-hop
    /// charges, and pass through unchanged.
    ///
    /// A zero-loss path leaves `loss_bound` bit-identical (no
    /// floating-point drift), so degrading across [`LinkQos::NONE`] is
    /// the exact identity. The result is monotonically non-improving in
    /// the path: composing more hops never tightens a bound.
    pub fn degrade_across(&self, path: &LinkQos) -> QosSpec {
        let loss_bound = if path.loss == 0.0 {
            self.loss_bound
        } else {
            (1.0 - (1.0 - self.loss_bound) * (1.0 - path.loss)).clamp(0.0, 1.0)
        };
        QosSpec {
            throughput_fps: self.throughput_fps,
            latency_bound: self.latency_bound + path.latency,
            jitter_bound: self.jitter_bound + path.jitter,
            loss_bound,
            min_connectivity: self.min_connectivity,
        }
    }

    /// True if a stream delivered at `self` also satisfies `required`
    /// (i.e. `self` is at least as good in every dimension).
    pub fn satisfies(&self, required: &QosSpec) -> bool {
        self.throughput_fps >= required.throughput_fps
            && self.latency_bound <= required.latency_bound
            && self.jitter_bound <= required.jitter_bound
            && self.loss_bound <= required.loss_bound
    }

    /// One step down the degradation ladder: halve the frame rate and
    /// relax the bounds by 50%. Returns `None` below 1 fps (nothing left
    /// to negotiate away).
    pub fn degraded(&self) -> Option<QosSpec> {
        if self.throughput_fps <= 1 {
            return None;
        }
        Some(QosSpec {
            throughput_fps: (self.throughput_fps / 2).max(1),
            latency_bound: self.latency_bound.mul_f64(1.5),
            jitter_bound: self.jitter_bound.mul_f64(1.5),
            loss_bound: (self.loss_bound * 1.5).min(1.0),
            min_connectivity: self.min_connectivity,
        })
    }

    /// One step *up* the ladder — the inverse of [`QosSpec::degraded`],
    /// clamped so the result never promises more than `ceiling` (the
    /// originally negotiated contract). Returns `None` when already at
    /// the ceiling. Used for upward re-negotiation once a degraded link
    /// recovers.
    pub fn upgraded(&self, ceiling: &QosSpec) -> Option<QosSpec> {
        if self.satisfies(ceiling) {
            return None; // already at (or above) the ceiling
        }
        let candidate = QosSpec {
            throughput_fps: (self.throughput_fps * 2).min(ceiling.throughput_fps),
            latency_bound: self
                .latency_bound
                .mul_f64(1.0 / 1.5)
                .max(ceiling.latency_bound),
            jitter_bound: self
                .jitter_bound
                .mul_f64(1.0 / 1.5)
                .max(ceiling.jitter_bound),
            loss_bound: (self.loss_bound / 1.5).max(ceiling.loss_bound),
            min_connectivity: self.min_connectivity,
        };
        Some(candidate)
    }
}

impl fmt::Display for QosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}fps lat<={} jit<={} loss<={:.1}%",
            self.throughput_fps,
            self.latency_bound,
            self.jitter_bound,
            self.loss_bound * 100.0
        )
    }
}

/// The result of negotiating a consumer's requirement against a
/// producer's offer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NegotiationOutcome {
    /// The offer meets the requirement; the agreed contract is returned.
    Agreed(QosSpec),
    /// The producer cannot meet the requirement even degraded; the best
    /// offer is returned for the application to accept or abandon.
    BestEffortOnly(QosSpec),
}

/// Negotiates: if `offer` satisfies `required`, agree on `required`
/// (never promise more than asked). Otherwise walk `required` down its
/// degradation ladder until the offer satisfies it; if even the floor is
/// unmet, report best-effort.
pub fn negotiate(offer: &QosSpec, required: &QosSpec) -> NegotiationOutcome {
    if offer.satisfies(required) {
        return NegotiationOutcome::Agreed(*required);
    }
    let mut candidate = *required;
    while let Some(next) = candidate.degraded() {
        candidate = next;
        if offer.satisfies(&candidate) {
            return NegotiationOutcome::Agreed(candidate);
        }
    }
    NegotiationOutcome::BestEffortOnly(*offer)
}

/// Which dimension of a contract was violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Delivered rate fell below the contract.
    Throughput,
    /// End-to-end delay exceeded the bound.
    Latency,
    /// Jitter exceeded the bound.
    Jitter,
    /// Loss fraction exceeded the bound.
    Loss,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::Throughput => "throughput",
            ViolationKind::Latency => "latency",
            ViolationKind::Jitter => "jitter",
            ViolationKind::Loss => "loss",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_specs_satisfy_each_other() {
        let v = QosSpec::video();
        assert!(v.satisfies(&v));
    }

    #[test]
    fn better_offer_satisfies_weaker_requirement() {
        let strong = QosSpec {
            throughput_fps: 50,
            latency_bound: SimDuration::from_millis(50),
            jitter_bound: SimDuration::from_millis(5),
            loss_bound: 0.0,
            min_connectivity: Connectivity::Full,
        };
        assert!(strong.satisfies(&QosSpec::video()));
        assert!(!QosSpec::video().satisfies(&strong));
    }

    #[test]
    fn negotiation_agrees_on_the_requirement_when_met() {
        let offer = QosSpec {
            throughput_fps: 100,
            latency_bound: SimDuration::from_millis(10),
            jitter_bound: SimDuration::from_millis(1),
            loss_bound: 0.0,
            min_connectivity: Connectivity::Full,
        };
        assert_eq!(
            negotiate(&offer, &QosSpec::video()),
            NegotiationOutcome::Agreed(QosSpec::video())
        );
    }

    #[test]
    fn negotiation_degrades_to_a_meetable_contract() {
        // Offer can only do 8 fps with loose bounds.
        let offer = QosSpec {
            throughput_fps: 8,
            latency_bound: SimDuration::from_millis(400),
            jitter_bound: SimDuration::from_millis(100),
            loss_bound: 0.05,
            min_connectivity: Connectivity::Full,
        };
        match negotiate(&offer, &QosSpec::video()) {
            NegotiationOutcome::Agreed(spec) => {
                assert!(spec.throughput_fps <= 8);
                assert!(offer.satisfies(&spec));
            }
            other => panic!("expected degraded agreement, got {other:?}"),
        }
    }

    #[test]
    fn hopeless_offers_fall_back_to_best_effort() {
        let offer = QosSpec {
            throughput_fps: 1,
            latency_bound: SimDuration::from_secs(10),
            jitter_bound: SimDuration::from_secs(10),
            loss_bound: 1.0,
            min_connectivity: Connectivity::Partial,
        };
        assert!(matches!(
            negotiate(&offer, &QosSpec::audio()),
            NegotiationOutcome::BestEffortOnly(_)
        ));
    }

    #[test]
    fn upgrade_climbs_back_to_the_ceiling() {
        let ceiling = QosSpec::video();
        let mut spec = ceiling;
        while let Some(next) = spec.degraded() {
            spec = next;
        }
        assert_eq!(spec.throughput_fps, 1);
        let mut climbs = 0;
        while let Some(up) = spec.upgraded(&ceiling) {
            assert!(up.throughput_fps >= spec.throughput_fps);
            assert!(up.latency_bound <= spec.latency_bound);
            spec = up;
            climbs += 1;
            assert!(climbs < 64, "ladder up terminates");
        }
        assert!(
            spec.satisfies(&ceiling),
            "restored the original contract: {spec}"
        );
    }

    #[test]
    fn upgrade_at_ceiling_is_none() {
        let v = QosSpec::video();
        assert_eq!(v.upgraded(&v), None);
    }

    #[test]
    fn degrade_across_widens_bounds_and_compounds_loss() {
        let path = LinkQos::new(
            SimDuration::from_millis(40),
            SimDuration::from_millis(10),
            0.01,
        );
        let seen = QosSpec::video().degrade_across(&path);
        assert_eq!(seen.latency_bound, SimDuration::from_millis(190));
        assert_eq!(seen.jitter_bound, SimDuration::from_millis(40));
        // 1 - 0.99 * 0.99
        assert!((seen.loss_bound - 0.0199).abs() < 1e-12);
        assert_eq!(seen.throughput_fps, QosSpec::video().throughput_fps);
        assert!(
            !seen.satisfies(&QosSpec::video()),
            "a penalized offer is strictly weaker"
        );
    }

    #[test]
    fn degrade_across_the_identity_is_exact() {
        let v = QosSpec::video();
        assert_eq!(v.degrade_across(&LinkQos::NONE), v);
    }

    #[test]
    fn degrade_across_is_monotonically_non_improving() {
        let hop = LinkQos::new(
            SimDuration::from_millis(15),
            SimDuration::from_millis(3),
            0.02,
        );
        let mut path = LinkQos::NONE;
        let mut prev = QosSpec::video();
        for _ in 0..5 {
            path = path.then(hop);
            let seen = QosSpec::video().degrade_across(&path);
            assert!(
                prev.satisfies(&seen) || prev == seen,
                "adding a hop must never improve the contract"
            );
            assert!(seen.latency_bound >= prev.latency_bound);
            assert!(seen.loss_bound >= prev.loss_bound);
            prev = seen;
        }
    }

    #[test]
    fn every_preset_satisfies_the_permissive_requirement() {
        for offer in [QosSpec::video(), QosSpec::audio(), QosSpec::mobile_video()] {
            assert!(offer.satisfies(&QosSpec::permissive()));
        }
    }

    #[test]
    fn degradation_ladder_terminates() {
        let mut spec = QosSpec::video();
        let mut steps = 0;
        while let Some(next) = spec.degraded() {
            assert!(next.throughput_fps <= spec.throughput_fps);
            assert!(next.latency_bound >= spec.latency_bound);
            spec = next;
            steps += 1;
            assert!(steps < 64, "ladder must terminate");
        }
        assert_eq!(spec.throughput_fps, 1);
    }
}
