//! QoS-aware matching and pluggable offer selection.
//!
//! Matching reuses `odp_streams::qos::negotiate` as the satisfaction
//! check: an offer matches a requirement iff negotiation reaches an
//! agreed contract (possibly degraded) rather than best-effort. Ranking
//! among matches is a [`SelectionPolicy`]: take the first fit, spread
//! load over equivalent exporters, or minimise expected network latency
//! to the importer using the simulator's link model.

use odp_sim::net::{LinkQos, Network, NodeId};
use odp_streams::qos::{negotiate, NegotiationOutcome, QosSpec};

use crate::offer::ServiceOffer;

/// An offer that satisfied the importer's requirement, with the contract
/// negotiation settled on.
#[derive(Debug, Clone, PartialEq)]
pub struct OfferMatch {
    /// The matching offer.
    pub offer: ServiceOffer,
    /// The offer's QoS as seen by the importer — the advertised QoS
    /// degraded across the federation path's accumulated penalty
    /// (identical to `offer.qos` for local resolutions).
    pub penalized: QosSpec,
    /// The agreed QoS (the requirement, possibly walked down its
    /// degradation ladder until the *penalized* offer satisfies it).
    pub agreed: QosSpec,
}

/// Filters `offers` to those whose advertised QoS can meet `required`
/// (via negotiation), preserving input order. Equivalent to
/// `match_offers_via` with a free path.
pub fn match_offers(offers: &[ServiceOffer], required: &QosSpec) -> Vec<OfferMatch> {
    match_offers_via(offers, required, &LinkQos::NONE)
}

/// Filters `offers` to those that can meet `required` *across* a path
/// charging `penalty`: each offer's advertised QoS is first degraded by
/// the accumulated penalty, and negotiation runs against that. Offers
/// that satisfy at home but not across the path are rejected here,
/// before selection.
pub(crate) fn match_offers_via(
    offers: &[ServiceOffer],
    required: &QosSpec,
    penalty: &LinkQos,
) -> Vec<OfferMatch> {
    offers
        .iter()
        .filter_map(|offer| {
            let penalized = offer.qos.degrade_across(penalty);
            match negotiate(&penalized, required) {
                NegotiationOutcome::Agreed(agreed) => Some(OfferMatch {
                    offer: offer.clone(),
                    penalized,
                    agreed,
                }),
                NegotiationOutcome::BestEffortOnly(_) => None,
            }
        })
        .collect()
}

/// How to pick among offers that all satisfy the requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// The first match in store order (cheapest; deterministic).
    #[default]
    FirstFit,
    /// The match whose exporting node has been selected least often —
    /// spreads importers over replicated services.
    LeastLoaded,
    /// The match whose exporting node has the lowest expected one-way
    /// latency to the importer, per the network's link model.
    LowestLatency {
        /// The importing node latency is measured from.
        importer: NodeId,
    },
}

/// Tracks how often each exporting node has been handed out, for
/// [`SelectionPolicy::LeastLoaded`].
#[derive(Debug, Clone, Default)]
pub struct SelectionLoad {
    counts: std::collections::BTreeMap<NodeId, u64>,
}

impl SelectionLoad {
    /// A fresh (all-zero) load record.
    pub fn new() -> Self {
        SelectionLoad::default()
    }

    /// Times `node` has been selected.
    pub fn count(&self, node: NodeId) -> u64 {
        self.counts.get(&node).copied().unwrap_or(0)
    }

    /// Records a selection.
    pub fn record(&mut self, node: NodeId) {
        *self.counts.entry(node).or_insert(0) += 1;
    }
}

/// Picks one match according to `policy`, recording the choice in
/// `load`. `net` is consulted only by
/// [`SelectionPolicy::LowestLatency`]; passing `None` there falls back
/// to first-fit.
pub fn select(
    matches: &[OfferMatch],
    policy: SelectionPolicy,
    load: &mut SelectionLoad,
    net: Option<&Network>,
) -> Option<OfferMatch> {
    let chosen = match policy {
        SelectionPolicy::FirstFit => matches.first(),
        SelectionPolicy::LeastLoaded => matches
            .iter()
            .min_by_key(|m| (load.count(m.offer.node), m.offer.node)),
        SelectionPolicy::LowestLatency { importer } => match net {
            Some(net) => matches
                .iter()
                .min_by_key(|m| (net.link(m.offer.node, importer).latency, m.offer.node)),
            None => matches.first(),
        },
    };
    let chosen = chosen.cloned()?;
    load.record(chosen.offer.node);
    Some(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offer::{ServiceOffer, ServiceType, SessionKind};
    use odp_sim::net::LinkSpec;
    use odp_sim::time::SimDuration;

    fn offer_at(node: u32, qos: QosSpec) -> ServiceOffer {
        ServiceOffer::session(
            ServiceType::new("video/live"),
            SessionKind::Conference,
            qos,
            NodeId(node),
        )
    }

    #[test]
    fn matching_requires_an_agreed_contract() {
        let strong = offer_at(0, QosSpec::video());
        let hopeless = offer_at(
            1,
            QosSpec {
                throughput_fps: 1,
                latency_bound: SimDuration::from_secs(10),
                jitter_bound: SimDuration::from_secs(10),
                loss_bound: 1.0,
                ..QosSpec::video()
            },
        );
        let matches = match_offers(&[strong.clone(), hopeless], &QosSpec::video());
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].offer.node, strong.node);
        assert_eq!(matches[0].agreed, QosSpec::video());
    }

    #[test]
    fn matching_accepts_degraded_agreements() {
        // 8 fps offer vs. a 25 fps requirement: negotiation degrades the
        // requirement until the offer satisfies it.
        let modest = offer_at(
            0,
            QosSpec {
                throughput_fps: 8,
                latency_bound: SimDuration::from_millis(400),
                jitter_bound: SimDuration::from_millis(100),
                loss_bound: 0.05,
                ..QosSpec::video()
            },
        );
        let matches = match_offers(&[modest], &QosSpec::video());
        assert_eq!(matches.len(), 1);
        assert!(matches[0].agreed.throughput_fps <= 8);
    }

    #[test]
    fn least_loaded_round_robins_equivalent_exporters() {
        let matches = match_offers(
            &[offer_at(0, QosSpec::video()), offer_at(1, QosSpec::video())],
            &QosSpec::video(),
        );
        let mut load = SelectionLoad::new();
        let mut picks = Vec::new();
        for _ in 0..4 {
            picks.push(
                select(&matches, SelectionPolicy::LeastLoaded, &mut load, None)
                    .unwrap()
                    .offer
                    .node,
            );
        }
        assert_eq!(load.count(NodeId(0)), 2);
        assert_eq!(load.count(NodeId(1)), 2);
        assert_ne!(picks[0], picks[1], "second pick must go to the other node");
    }

    #[test]
    fn lowest_latency_consults_the_link_model() {
        let mut net = Network::new(LinkSpec::wan(SimDuration::from_millis(80)));
        net.set_link(NodeId(1), NodeId(9), LinkSpec::lan());
        let matches = match_offers(
            &[offer_at(0, QosSpec::video()), offer_at(1, QosSpec::video())],
            &QosSpec::video(),
        );
        let mut load = SelectionLoad::new();
        let picked = select(
            &matches,
            SelectionPolicy::LowestLatency {
                importer: NodeId(9),
            },
            &mut load,
            Some(&net),
        )
        .unwrap();
        assert_eq!(
            picked.offer.node,
            NodeId(1),
            "LAN exporter beats WAN exporter"
        );
    }

    #[test]
    fn empty_match_set_selects_nothing() {
        let mut load = SelectionLoad::new();
        assert!(select(&[], SelectionPolicy::FirstFit, &mut load, None).is_none());
    }

    #[test]
    fn penalized_matching_charges_the_path() {
        use odp_sim::net::LinkQos;
        // At home the offer meets the video requirement exactly; across
        // a 60 ms path it no longer does, and negotiation must settle
        // on a degraded contract instead.
        let offer = offer_at(0, QosSpec::video());
        let penalty = LinkQos::new(SimDuration::from_millis(60), SimDuration::ZERO, 0.0);
        let at_home = match_offers_via(
            std::slice::from_ref(&offer),
            &QosSpec::video(),
            &LinkQos::NONE,
        );
        assert_eq!(at_home[0].agreed, QosSpec::video());
        assert_eq!(at_home[0].penalized, offer.qos);
        let across = match_offers_via(std::slice::from_ref(&offer), &QosSpec::video(), &penalty);
        assert_eq!(across.len(), 1);
        assert_eq!(
            across[0].penalized.latency_bound,
            SimDuration::from_millis(210)
        );
        assert!(
            across[0].agreed.throughput_fps < 25,
            "the agreement reflects the penalized offer"
        );
        // A hopeless path rejects the offer outright.
        let lossy = LinkQos::new(SimDuration::ZERO, SimDuration::ZERO, 0.5);
        assert!(
            match_offers_via(std::slice::from_ref(&offer), &QosSpec::video(), &lossy).is_empty()
        );
    }
}
