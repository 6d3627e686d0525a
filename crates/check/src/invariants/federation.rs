//! Federation invariant: every import the planner resolves is *sound*
//! against the links it claims to have traversed.
//!
//! The harness wraps a [`Federation`] in a single host actor and races
//! scripted [`FedMsg::Import`]s against offer churn
//! ([`FedMsg::Export`] / [`FedMsg::Withdraw`]), so the explorer decides
//! which offers each import can see. At quiescence the invariant walks
//! every logged resolution and *recomputes* the path from
//! [`Federation::links`]:
//!
//! - the reported narrowed scope must equal the stepwise intersection
//!   of the traversed link scopes, and must admit the resolved type (no
//!   import may cross a link whose narrowed scope excludes what it
//!   resolved);
//! - the reported penalty must equal the stepwise [`LinkQos::then`]
//!   composition, and must be monotonically non-improving hop by hop;
//! - the matched offer's penalized QoS must equal its advertised QoS
//!   degraded across that penalty, and the agreed contract must be what
//!   negotiation against the penalized QoS yields.
//!
//! The seeded known-bad variant builds its imports with
//! [`ImportRequest::penalty_accounting`] off — the planner then matches
//! and reports offers on their raw advertised QoS, the recomputation
//! disagrees on every schedule that resolves across a link, and the
//! explorer must surface it.

use odp_access::rights::Rights;
use odp_sim::net::{LinkQos, NodeId};
use odp_sim::prelude::*;
use odp_streams::qos::{negotiate, NegotiationOutcome, QosSpec};
use odp_trader::error::TraderError;
use odp_trader::federation::{DomainId, Federation};
use odp_trader::offer::{OfferId, ServiceOffer, ServiceType, SessionKind};
use odp_trader::plan::{ImportRequest, ImportResolution, Scope};
use odp_trader::store::ShardedStore;

use crate::explore::Invariant;

/// The node hosting the federated trader.
pub const HOST: NodeId = NodeId(0);
/// The workload driver (appears only as a message source).
pub const DRIVER: NodeId = NodeId(9);
/// The domain every scripted import starts from.
pub(crate) const START: DomainId = DomainId(0);

/// The workload a federated trading host processes.
#[derive(Debug, Clone)]
pub enum FedMsg {
    /// Resolve an import from `START`.
    Import(ImportRequest),
    /// Export an offer into a domain's store.
    Export {
        /// The exporting domain.
        domain: DomainId,
        /// The offer to register.
        offer: ServiceOffer,
    },
    /// Withdraw an offer from a domain's store.
    Withdraw {
        /// The withdrawing domain.
        domain: DomainId,
        /// The offer to remove.
        offer: OfferId,
    },
}

/// A single actor owning the whole federation: imports and offer churn
/// arrive as messages, and every import's outcome is logged for the
/// invariant to audit.
pub(crate) struct FedHost {
    federation: Federation,
    log: Vec<(ImportRequest, Result<ImportResolution, TraderError>)>,
}

impl FedHost {
    /// Hosts `federation`.
    pub fn new(federation: Federation) -> Self {
        FedHost {
            federation,
            log: Vec::new(),
        }
    }

    /// The hosted federation (the invariant reads its links).
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// Every processed import with its outcome, in processing order.
    pub fn log(&self) -> &[(ImportRequest, Result<ImportResolution, TraderError>)] {
        &self.log
    }
}

impl Actor<FedMsg> for FedHost {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, FedMsg>, _from: NodeId, msg: FedMsg) {
        match msg {
            FedMsg::Import(request) => {
                let outcome = self.federation.resolve(START, &request, None);
                self.log.push((request, outcome));
            }
            FedMsg::Export { domain, offer } => {
                // A racing export may target a domain the scenario never
                // registered; the workload is still well-formed.
                if let Some(store) = self.federation.domain_mut(domain) {
                    let _ = store.export(offer);
                }
            }
            FedMsg::Withdraw { domain, offer } => {
                if let Some(store) = self.federation.domain_mut(domain) {
                    let _ = store.withdraw(offer);
                }
            }
        }
    }
}

fn penalty_ms(lat: u64) -> LinkQos {
    LinkQos::new(SimDuration::from_millis(lat), SimDuration::ZERO, 0.0)
}

fn conference_offer(node: NodeId) -> ServiceOffer {
    ServiceOffer::session(
        ServiceType::new("video/conference"),
        SessionKind::Conference,
        QosSpec::video(),
        node,
    )
}

/// Builds the diamond scenario: imports from [`START`] race offer churn
/// behind penalized, scope-narrowing links.
///
/// ```text
///        video/ 40ms          "" 40ms
///   D0 ──────────────► D1 ──────────────► D3
///    │   video/hd/ 10ms       "" 10ms      ▲
///    └───────────────► D2 ────────────────┘
/// ```
///
/// D3 starts out holding a far `video/conference` offer and a
/// `video/hd/tour` offer. At 10 ms a nearer `video/conference` offer is
/// exported into D1, racing an import at 11 ms — the explorer decides
/// whether that import pays 40 ms to D1 or 80 ms to D3. At 20 ms the
/// tour offer is withdrawn, racing a tour import at 21 ms. When
/// `accounted` is false every import runs with penalty accounting
/// disabled (the seeded known-bad variant).
pub(crate) fn federation_sim(seed: u64, accounted: bool) -> Sim<FedMsg> {
    let mut fed = Federation::new();
    for (d, trader) in [(0u32, 10u32), (1, 11), (2, 12), (3, 13)] {
        fed.add_domain(DomainId(d), ShardedStore::new([NodeId(trader)]));
    }
    fed.link_via(START, DomainId(1), "video/", Rights::NONE, penalty_ms(40));
    fed.link_via(
        START,
        DomainId(2),
        "video/hd/",
        Rights::NONE,
        penalty_ms(10),
    );
    fed.link_via(DomainId(1), DomainId(3), "", Rights::NONE, penalty_ms(40));
    fed.link_via(DomainId(2), DomainId(3), "", Rights::NONE, penalty_ms(10));
    // Scenario construction: the domains and shards were registered
    // just above, so these cannot fail.
    let far = fed.domain_mut(DomainId(3)).expect("D3 registered");
    far.export(conference_offer(NodeId(33)))
        .expect("D3 has a shard");
    let tour_id = far
        .export(ServiceOffer::session(
            ServiceType::new("video/hd/tour"),
            SessionKind::Conference,
            QosSpec::video(),
            NodeId(36),
        ))
        .expect("D3 has a shard");

    let mut sim = SimBuilder::new(seed).build();
    sim.add_actor(HOST, FedHost::new(fed));
    let import = |name: &str, required: QosSpec| {
        FedMsg::Import(
            ImportRequest::for_type(ServiceType::new(name))
                .qos(required)
                .penalty_accounting(accounted),
        )
    };
    // 10/11 ms: a nearer conference offer appears in D1 while an import
    // is in flight — both delivery orders are explored.
    sim.inject(
        SimTime::from_millis(10),
        DRIVER,
        HOST,
        FedMsg::Export {
            domain: DomainId(1),
            offer: conference_offer(NodeId(31)),
        },
    );
    sim.inject(
        SimTime::from_millis(11),
        DRIVER,
        HOST,
        import("video/conference", QosSpec::video()),
    );
    // 20/21 ms: the tour offer is withdrawn while a second import is in
    // flight — it resolves via the hd arm or finds nothing.
    sim.inject(
        SimTime::from_millis(20),
        DRIVER,
        HOST,
        FedMsg::Withdraw {
            domain: DomainId(3),
            offer: tour_id,
        },
    );
    sim.inject(
        SimTime::from_millis(21),
        DRIVER,
        HOST,
        import("video/hd/tour", QosSpec::mobile_video()),
    );
    sim
}

/// Canonical [`crate::explore::StateFingerprint`] for the diamond
/// scenario: the host's import log plus every domain store's offers —
/// churn that has landed but not yet been imported against is part of
/// the state, so reordered-but-converged schedules hash equal only
/// when they truly are.
pub fn fingerprint(sim: &Sim<FedMsg>) -> u64 {
    let Some(host) = sim.get::<FedHost>(ActorHandle::of(HOST)) else {
        return 0;
    };
    let mut parts: Vec<String> = vec![format!("{:?}", host.log())];
    let scenario_types = [
        ServiceType::new("video/conference"),
        ServiceType::new("video/hd/tour"),
    ];
    for d in 0..4u32 {
        if let Some(store) = host.federation().domain(DomainId(d)) {
            let present: Vec<bool> = scenario_types.iter().map(|t| store.has_type(t)).collect();
            parts.push(format!(
                "d{d}:{}:{:?}:{present:?}",
                store.len(),
                store.loads()
            ));
        }
    }
    crate::explore::hash_of(&parts)
}

/// Quiescence invariant: every logged resolution withstands
/// recomputation from the federation's links (scope soundness, penalty
/// accounting, negotiated agreement, hop-wise monotonicity).
pub(crate) struct FederationSound;

impl FederationSound {
    fn audit(
        &self,
        federation: &Federation,
        request: &ImportRequest,
        r: &ImportResolution,
    ) -> Result<(), String> {
        if r.path.first() != Some(&START) || r.path.last() != Some(&r.domain) {
            return Err(format!(
                "path {:?} does not run from {START} to {}",
                r.path, r.domain
            ));
        }
        if r.path.len() != r.hops as usize + 1 {
            return Err(format!("{} hops but path {:?}", r.hops, r.path));
        }
        let mut scope = Scope::all();
        let mut penalty = LinkQos::NONE;
        for pair in r.path.windows(2) {
            let link = federation
                .links()
                .iter()
                .find(|l| l.from == pair[0] && l.to == pair[1])
                .ok_or_else(|| {
                    format!(
                        "path {:?} uses a link {} → {} that does not exist",
                        r.path, pair[0], pair[1]
                    )
                })?;
            scope = scope.narrow(&link.scope);
            let next = penalty.then(link.qos);
            if next.latency < penalty.latency
                || next.jitter < penalty.jitter
                || next.loss < penalty.loss
            {
                return Err(format!(
                    "penalty improved across {} → {}: {} then {}",
                    pair[0], pair[1], penalty, next
                ));
            }
            penalty = next;
        }
        if scope != r.narrowed_scope {
            return Err(format!(
                "reported narrowed scope {} but the links narrow to {}",
                r.narrowed_scope, scope
            ));
        }
        if !scope.admits(&r.matched.offer.service_type) {
            return Err(format!(
                "import traversed links narrowing to {} yet resolved {} through them",
                scope, r.matched.offer.service_type
            ));
        }
        if penalty != r.penalty {
            return Err(format!(
                "reported penalty {} but the links charge {}",
                r.penalty, penalty
            ));
        }
        let expected = r.matched.offer.qos.degrade_across(&penalty);
        if r.matched.penalized != expected {
            return Err(format!(
                "penalty accounting broken for {}: reported penalized {:?}, links yield {:?}",
                r.matched.offer.service_type, r.matched.penalized, expected
            ));
        }
        match negotiate(&expected, request.required()) {
            NegotiationOutcome::Agreed(agreed) if agreed == r.matched.agreed => Ok(()),
            outcome => Err(format!(
                "agreed contract {:?} is not what negotiating the penalized QoS \
                 yields ({outcome:?})",
                r.matched.agreed
            )),
        }
    }
}

impl Invariant<FedMsg> for FederationSound {
    fn name(&self) -> &'static str {
        "trader-federation-sound"
    }

    fn check_quiescent(&mut self, sim: &Sim<FedMsg>) -> Result<(), String> {
        let host: &FedHost = sim
            .get(ActorHandle::of(HOST))
            .ok_or("federation host missing")?;
        for (request, outcome) in host.log() {
            // Failed imports carry no path to audit; the planner's
            // NoMatch/AccessDenied split is covered by unit tests.
            if let Ok(resolution) = outcome {
                self.audit(host.federation(), request, resolution)?;
            }
        }
        Ok(())
    }
}
