//! Trader invariant: importer-cache coherence under shard churn — at
//! quiescence no importer cache entry disagrees with the owning shard's
//! store, and every offer sits on the shard the ring assigns it to.
//!
//! The harness reuses the production [`TraderActor`]/[`ImporterActor`]
//! pair and scripts the race the ROADMAP's "cache coherence under
//! churn" item describes: a [`TraderMsg::ShardChange`] removes the
//! shard owning a hot type while an importer lookup is in flight, so
//! the offer [`TraderMsg::Transfer`] and the lookup race to the new
//! owner. With `announce` disabled (fault injection via
//! [`TraderActor::set_rebalance_invalidations`]) the rebalance is
//! silent — no `Rebalanced` invalidation from either shard — and some
//! schedules leave a stale (empty) cached resolution — the explorer
//! must find one. With `announce` enabled every schedule must stay
//! coherent.

use std::collections::BTreeSet;

use odp_groupcomm::membership::{GroupId, View};
use odp_sim::net::NodeId;
use odp_sim::prelude::*;
use odp_trader::actors::{ImporterActor, LookupJob, TraderActor, TraderMsg};
use odp_trader::offer::{OfferId, ServiceOffer, ServiceType, SessionKind};
use odp_trader::select::{match_offers, SelectionPolicy};
use odp_trader::store::HashRing;
use odp_trader::QosSpec;

use crate::explore::Invariant;

/// First trader shard.
pub const T1: NodeId = NodeId(0);
/// Second trader shard.
pub const T2: NodeId = NodeId(1);
/// The importing client.
pub const IMP: NodeId = NodeId(10);
/// The exporting server (no actor; appears as a message source).
pub const EXP: NodeId = NodeId(20);

/// The hot service type the scenario churns.
pub(crate) fn hot_type() -> ServiceType {
    ServiceType::new("video/conference")
}

fn coherence_view() -> View {
    View::initial(GroupId(7), [T1, T2, IMP])
}

fn offer() -> ServiceOffer {
    let mut o = ServiceOffer::session(hot_type(), SessionKind::Conference, QosSpec::video(), EXP);
    o.id = OfferId(1);
    o
}

/// Builds the churn scenario: two shards, one offer for [`hot_type`],
/// an importer that caches it at 10 ms, a ring change at 100 ms that
/// removes the owning shard, and a second lookup at 100.5 ms that races
/// the offer's [`TraderMsg::Transfer`] to the surviving shard. When
/// `announce` is false the shards rebalance silently, multicasting no
/// invalidations at all (the injected coherence bug).
pub(crate) fn rebalance_sim(seed: u64, announce: bool) -> Sim<TraderMsg> {
    let ring = HashRing::new([T1, T2]);
    let owner = ring.node_for(&hot_type()).unwrap_or(T1); // ring is non-empty; fallback never taken
    let mut sim = SimBuilder::new(seed).build();
    for t in [T1, T2] {
        let mut trader =
            TraderActor::with_ring(t, coherence_view(), SelectionPolicy::FirstFit, ring.clone());
        trader.set_rebalance_invalidations(announce);
        sim.add_actor(t, trader);
    }
    let jobs = vec![
        LookupJob {
            at: SimDuration::from_millis(10),
            service_type: hot_type(),
            required: QosSpec::video(),
        },
        // 100.5 ms: after every node has seen the 100 ms ShardChange
        // but before the migrating Transfer (≥ 100.8 ms with LAN
        // latency) can reach the surviving shard — so the lookup and
        // the transfer are concurrently in flight and the explorer can
        // deliver them in either order.
        LookupJob {
            at: SimDuration::from_micros(100_500),
            service_type: hot_type(),
            required: QosSpec::video(),
        },
    ];
    sim.add_actor(
        IMP,
        ImporterActor::new(
            IMP,
            coherence_view(),
            SimDuration::from_secs(60),
            ring.clone(),
            jobs,
        ),
    );
    sim.inject(SimTime::ZERO, EXP, owner, TraderMsg::Export(offer()));
    let change = TraderMsg::ShardChange {
        added: vec![],
        removed: vec![owner],
    };
    for node in [T1, T2, IMP] {
        sim.inject(SimTime::from_millis(100), EXP, node, change.clone());
    }
    sim
}

/// Canonical [`crate::explore::StateFingerprint`] for the churn
/// scenario: each shard's ring and stored offers plus the importer's
/// cache contents — the state the coherence invariant audits.
pub fn fingerprint(sim: &Sim<TraderMsg>) -> u64 {
    let mut parts: Vec<String> = Vec::new();
    for t in [T1, T2] {
        if let Some(trader) = sim.get::<TraderActor>(ActorHandle::of(t)) {
            let offers: Vec<String> = trader
                .store()
                .iter()
                .map(|o| format!("{:?}/{:?}", o.id, o.service_type))
                .collect();
            parts.push(format!("{t}:{:?}:{offers:?}", trader.ring()));
        }
    }
    if let Some(importer) = sim.get::<ImporterActor>(ActorHandle::of(IMP)) {
        for (service_type, scope, cached) in importer.cache().entries() {
            let ids: Vec<OfferId> = cached.iter().map(|o| o.id).collect();
            parts.push(format!("imp:{service_type:?}:{scope:?}:{ids:?}"));
        }
    }
    crate::explore::hash_of(&parts)
}

/// Quiescence invariant: importer caches agree with the owning shards,
/// and every stored offer lives on the shard the ring assigns it to.
pub(crate) struct CacheCoherent {
    traders: Vec<NodeId>,
    importers: Vec<NodeId>,
    required: QosSpec,
}

impl CacheCoherent {
    /// Checks `importers`' caches against `traders`' stores, matching
    /// offers under the workload's `required` QoS.
    pub fn new(traders: Vec<NodeId>, importers: Vec<NodeId>, required: QosSpec) -> Self {
        CacheCoherent {
            traders,
            importers,
            required,
        }
    }

    /// The invariant instance for [`rebalance_sim`].
    pub(crate) fn for_rebalance_sim() -> Self {
        CacheCoherent::new(vec![T1, T2], vec![IMP], QosSpec::video())
    }

    fn owned_matching_ids(
        &self,
        sim: &Sim<TraderMsg>,
        owner: NodeId,
        service_type: &ServiceType,
    ) -> Result<BTreeSet<OfferId>, String> {
        let trader: &TraderActor = sim
            .get(ActorHandle::of(owner))
            .ok_or_else(|| format!("owning trader {owner} missing"))?;
        let of_type: Vec<ServiceOffer> = trader
            .store()
            .iter()
            .filter(|o| o.service_type == *service_type)
            .cloned()
            .collect();
        Ok(match_offers(&of_type, &self.required)
            .into_iter()
            .map(|m| m.offer.id)
            .collect())
    }
}

impl Invariant<TraderMsg> for CacheCoherent {
    fn name(&self) -> &'static str {
        "trader-cache-coherent"
    }

    fn check_quiescent(&mut self, sim: &Sim<TraderMsg>) -> Result<(), String> {
        let first = *self.traders.first().ok_or("no traders to check")?;
        let reference: &TraderActor = sim
            .get(ActorHandle::of(first))
            .ok_or("reference trader missing")?;
        let ring = reference.ring().clone();

        // Placement: every stored offer is on the shard the ring names.
        for &t in &self.traders {
            let trader: &TraderActor = sim.get(ActorHandle::of(t)).ok_or("trader missing")?;
            for o in trader.store().iter() {
                let owner = ring.node_for(&o.service_type);
                if owner != Some(t) {
                    return Err(format!(
                        "offer {:?} of {:?} stranded on {t} (ring says {owner:?})",
                        o.id, o.service_type
                    ));
                }
            }
        }

        // Coherence: every cached resolution equals what the owning
        // shard would resolve right now.
        for &imp in &self.importers {
            let importer: &ImporterActor =
                sim.get(ActorHandle::of(imp)).ok_or("importer missing")?;
            for (service_type, _scope, cached) in importer.cache().entries() {
                let cached_ids: BTreeSet<OfferId> = cached.iter().map(|o| o.id).collect();
                let Some(owner) = ring.node_for(service_type) else {
                    return Err(format!(
                        "importer {imp} caches {service_type:?} but the ring is empty"
                    ));
                };
                let fresh_ids = self.owned_matching_ids(sim, owner, service_type)?;
                if cached_ids != fresh_ids {
                    return Err(format!(
                        "importer {imp} cache for {service_type:?} is stale: \
                         cached {cached_ids:?}, owner {owner} has {fresh_ids:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}
