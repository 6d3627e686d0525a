//! Trader federation: linked trading domains with scoped, access-gated
//! import paths and a QoS-penalty-aware import planner.
//!
//! The paper's open distributed processing setting is inherently
//! multi-organisational ("negotiation and interaction between different
//! administrative and management domains", §4.2.1). One trader cannot
//! hold every offer, so traders *link* to traders in other domains. A
//! [`TraderLink`] restricts what flows across it twice over:
//!
//! - a **scope** prefix — only service types under the prefix are
//!   visible through the link (an organisation exports its public
//!   conference services, not its internal tooling);
//! - **required rights** — the importer must hold the link's
//!   `odp_access::rights::Rights` for the traversal (export gating).
//!
//! and charges a [`LinkQos`] **penalty** — the latency, jitter and loss
//! a binding to an offer behind the link would actually pay, typically
//! drawn from the simulated topology via [`Network::link_qos`].
//!
//! [`Federation::resolve`] plans an import as a best-first search over
//! (narrowed scope, accumulated penalty) path states: link scopes
//! intersect transitively ([`Scope::narrow`]) and branches whose
//! narrowed scope can no longer admit the requested type are pruned
//! *before* their stores are consulted; domains are settled in order of
//! accumulated penalty, so the first satisfying answer is also the
//! least-penalized one, and offers are matched on their QoS *as seen
//! across the path* ([`QosSpec::degrade_across`](odp_streams::qos::QosSpec::degrade_across)) — a weaker-but-nearer
//! offer can beat a stronger-but-farther one, and an offer whose
//! penalized QoS no longer satisfies the requirement is rejected before
//! selection. With zero penalties the search degenerates to exactly the
//! legacy breadth-first order.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use odp_access::rights::Rights;
use odp_sim::net::{LinkQos, Network};

use crate::error::TraderError;
use crate::plan::{ImportRequest, ImportResolution, PathState, Scope};
use crate::select::{match_offers_via, select, SelectionLoad};
use crate::store::ShardedStore;

/// Names a trading domain (one administrative authority).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u32);

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "domain{}", self.0)
    }
}

/// A directed federation link from one domain's trader to another's.
#[derive(Debug, Clone)]
pub struct TraderLink {
    /// The importing (querying) side.
    pub from: DomainId,
    /// The exporting (answering) side.
    pub to: DomainId,
    /// Service-type prefix admitted across the link ("" admits all).
    pub scope: String,
    /// Rights the importer must hold to traverse.
    pub required: Rights,
    /// The QoS degradation a binding across this link pays.
    pub qos: LinkQos,
}

/// A federation of trading domains joined by scoped links.
#[derive(Debug, Default)]
pub struct Federation {
    domains: BTreeMap<DomainId, ShardedStore>,
    links: Vec<TraderLink>,
    selection_load: SelectionLoad,
}

impl Federation {
    /// An empty federation.
    pub fn new() -> Self {
        Federation::default()
    }

    /// Adds (or replaces) a domain's offer store.
    pub fn add_domain(&mut self, id: DomainId, store: ShardedStore) {
        self.domains.insert(id, store);
    }

    /// A domain's store.
    pub fn domain(&self, id: DomainId) -> Option<&ShardedStore> {
        self.domains.get(&id)
    }

    /// A domain's store, mutably (for exports/withdrawals).
    pub fn domain_mut(&mut self, id: DomainId) -> Option<&mut ShardedStore> {
        self.domains.get_mut(&id)
    }

    /// Links `from` to `to` with no QoS penalty: lookups started in
    /// `from` may consult `to` for service types under `scope`, if the
    /// importer holds `required`.
    pub fn link(
        &mut self,
        from: DomainId,
        to: DomainId,
        scope: impl Into<String>,
        required: Rights,
    ) {
        self.link_via(from, to, scope, required, LinkQos::NONE);
    }

    /// Links `from` to `to` charging `qos` per traversal (typically
    /// [`Network::link_qos`] between the domains' gateway nodes).
    pub fn link_via(
        &mut self,
        from: DomainId,
        to: DomainId,
        scope: impl Into<String>,
        required: Rights,
        qos: LinkQos,
    ) {
        self.links.push(TraderLink {
            from,
            to,
            scope: scope.into(),
            required,
            qos,
        });
    }

    /// Every link, in registration order.
    pub fn links(&self) -> &[TraderLink] {
        &self.links
    }

    /// Plans and resolves an import starting at `at`.
    ///
    /// Best-first over accumulated link penalty (ties: fewest hops,
    /// then link registration order — the legacy breadth-first order):
    /// the local domain is settled first, then reachable domains in
    /// penalty order, up to the request's hop bound. A link is enqueued
    /// only if the importer holds its rights and (under scope
    /// narrowing) the path's narrowed scope still admits the requested
    /// type. The first settled domain with a satisfying *penalized*
    /// match answers; the request's policy picks among that domain's
    /// matches.
    ///
    /// `net` is consulted only by [`SelectionPolicy::LowestLatency`](crate::select::SelectionPolicy::LowestLatency);
    /// link penalties live on the links themselves.
    ///
    /// # Errors
    ///
    /// See [`TraderError`]; notably [`TraderError::AccessDenied`] is
    /// distinguished from [`TraderError::NoMatch`] so callers can tell
    /// policy failures from genuine scarcity.
    pub fn resolve(
        &mut self,
        at: DomainId,
        request: &ImportRequest,
        net: Option<&Network>,
    ) -> Result<ImportResolution, TraderError> {
        if !self.domains.contains_key(&at) {
            return Err(TraderError::UnknownDomain(at));
        }
        let mut frontier: BTreeMap<(u64, u64, u64, u32, u64), PathState> = BTreeMap::new();
        // Settled per (domain, narrowed scope): the same domain reached
        // under a different narrowed scope is a genuinely different
        // state (it may admit types the first visit could not).
        let mut settled: BTreeSet<(DomainId, Scope)> = BTreeSet::new();
        let mut seq = 0u64;
        let start = PathState {
            domain: at,
            hops: 0,
            scope: Scope::all(),
            penalty: LinkQos::NONE,
            path: vec![at],
            seq,
        };
        frontier.insert(start.key(), start);
        let mut barred_offers_exist = false;
        let mut domains_queried = 0u32;

        while let Some((_, state)) = frontier.pop_first() {
            // Several frontier entries may reach the same (domain,
            // scope) state; only the best-ranked one is settled (and
            // thus queried).
            if !settled.insert((state.domain, state.scope.clone())) {
                continue;
            }
            let offers = self
                .domains
                .get_mut(&state.domain)
                .map(|store| store.offers_of_type(request.service_type()))
                .unwrap_or_default();
            if state.domain != at {
                domains_queried += 1;
            }
            // With narrowing the scope gate already ran at enqueue
            // time; without it (flood mode) it must run here, at answer
            // time, or out-of-scope offers would leak across.
            let admitted = state.scope.admits(request.service_type());
            if !admitted && !offers.is_empty() {
                barred_offers_exist = true;
            }
            let path_penalty = if request.accounts_penalty() {
                state.penalty
            } else {
                LinkQos::NONE
            };
            let matches = if admitted {
                match_offers_via(&offers, request.required(), &path_penalty)
            } else {
                Vec::new()
            };
            if let Some(matched) = select(
                &matches,
                request.selection_policy(),
                &mut self.selection_load,
                net,
            ) {
                return Ok(ImportResolution {
                    matched,
                    domain: state.domain,
                    hops: state.hops,
                    path: state.path,
                    narrowed_scope: state.scope,
                    penalty: state.penalty,
                    domains_queried,
                });
            }
            if state.hops >= request.hop_bound() {
                continue;
            }
            for link in self.links.iter().filter(|l| l.from == state.domain) {
                let narrowed = state.scope.narrow(&link.scope);
                if settled.contains(&(link.to, narrowed.clone())) {
                    continue;
                }
                let scope_ok = !request.narrows_scope() || narrowed.admits(request.service_type());
                let rights_ok = request.importer_rights().contains(link.required);
                if !(scope_ok && rights_ok) {
                    // Only report AccessDenied if something real was
                    // barred: check the target actually holds the type.
                    if self
                        .domains
                        .get(&link.to)
                        .is_some_and(|s| s.has_type(request.service_type()))
                    {
                        barred_offers_exist = true;
                    }
                    continue;
                }
                seq += 1;
                let mut path = state.path.clone();
                path.push(link.to);
                let next = PathState {
                    domain: link.to,
                    hops: state.hops + 1,
                    scope: narrowed,
                    penalty: state.penalty.then(link.qos),
                    path,
                    seq,
                };
                frontier.insert(next.key(), next);
            }
        }
        if barred_offers_exist {
            Err(TraderError::AccessDenied)
        } else {
            Err(TraderError::NoMatch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offer::{ServiceOffer, ServiceType, SessionKind};
    use crate::select::SelectionPolicy;
    use odp_sim::net::NodeId;
    use odp_sim::time::SimDuration;
    use odp_streams::qos::QosSpec;

    fn store_with(traders: &[u32], offers: &[(&str, u32)]) -> ShardedStore {
        let mut s = ShardedStore::new(traders.iter().copied().map(NodeId));
        for (name, node) in offers {
            s.export(ServiceOffer::session(
                ServiceType::new(*name),
                SessionKind::Conference,
                QosSpec::video(),
                NodeId(*node),
            ))
            .unwrap();
        }
        s
    }

    fn st() -> ServiceType {
        ServiceType::new("video/conference")
    }

    fn video_request() -> ImportRequest {
        ImportRequest::for_type(st()).qos(QosSpec::video())
    }

    fn penalty_ms(lat: u64) -> LinkQos {
        LinkQos::new(SimDuration::from_millis(lat), SimDuration::ZERO, 0.0)
    }

    #[test]
    fn local_offers_win_with_zero_hops() {
        let mut fed = Federation::new();
        fed.add_domain(DomainId(0), store_with(&[0], &[("video/conference", 5)]));
        let r = fed
            .resolve(DomainId(0), &video_request().rights(Rights::READ), None)
            .unwrap();
        assert_eq!(r.hops, 0);
        assert_eq!(r.domain, DomainId(0));
        assert_eq!(r.path, vec![DomainId(0)]);
        assert_eq!(r.narrowed_scope, Scope::all());
        assert!(r.penalty.is_none());
        assert_eq!(r.domains_queried, 0, "the local store is free");
        assert_eq!(r.matched.penalized, r.matched.offer.qos);
    }

    #[test]
    fn federated_import_crosses_an_admissible_link() {
        let mut fed = Federation::new();
        fed.add_domain(DomainId(0), store_with(&[0], &[]));
        fed.add_domain(DomainId(1), store_with(&[10], &[("video/conference", 15)]));
        fed.link(DomainId(0), DomainId(1), "video/", Rights::READ);
        let r = fed
            .resolve(DomainId(0), &video_request().rights(Rights::READ), None)
            .unwrap();
        assert_eq!(r.hops, 1);
        assert_eq!(r.domain, DomainId(1));
        assert_eq!(r.matched.offer.node, NodeId(15));
        assert_eq!(r.path, vec![DomainId(0), DomainId(1)]);
        assert_eq!(r.narrowed_scope, Scope::prefix("video/"));
        assert_eq!(r.domains_queried, 1);
    }

    #[test]
    fn out_of_scope_types_do_not_cross() {
        let mut fed = Federation::new();
        fed.add_domain(DomainId(0), store_with(&[0], &[]));
        fed.add_domain(DomainId(1), store_with(&[10], &[("video/conference", 15)]));
        fed.link(DomainId(0), DomainId(1), "audio/", Rights::NONE);
        let err = fed
            .resolve(DomainId(0), &video_request().rights(Rights::ALL), None)
            .unwrap_err();
        assert_eq!(err, TraderError::AccessDenied);
    }

    #[test]
    fn missing_rights_bar_the_link() {
        let mut fed = Federation::new();
        fed.add_domain(DomainId(0), store_with(&[0], &[]));
        fed.add_domain(DomainId(1), store_with(&[10], &[("video/conference", 15)]));
        fed.link(
            DomainId(0),
            DomainId(1),
            "",
            Rights::READ.union(Rights::GRANT),
        );
        assert_eq!(
            fed.resolve(DomainId(0), &video_request().rights(Rights::READ), None)
                .unwrap_err(),
            TraderError::AccessDenied
        );
        // With GRANT added the same import succeeds.
        assert!(fed
            .resolve(
                DomainId(0),
                &video_request().rights(Rights::READ.union(Rights::GRANT)),
                None
            )
            .is_ok());
    }

    #[test]
    fn hop_bound_limits_transitive_reach() {
        let mut fed = Federation::new();
        fed.add_domain(DomainId(0), store_with(&[0], &[]));
        fed.add_domain(DomainId(1), store_with(&[10], &[]));
        fed.add_domain(DomainId(2), store_with(&[20], &[("video/conference", 25)]));
        fed.link(DomainId(0), DomainId(1), "", Rights::NONE);
        fed.link(DomainId(1), DomainId(2), "", Rights::NONE);
        assert_eq!(
            fed.resolve(DomainId(0), &video_request().max_hops(1), None)
                .unwrap_err(),
            TraderError::NoMatch
        );
        let r = fed
            .resolve(DomainId(0), &video_request().max_hops(2), None)
            .unwrap();
        assert_eq!(r.hops, 2);
        assert_eq!(r.path, vec![DomainId(0), DomainId(1), DomainId(2)]);
    }

    #[test]
    fn nearest_domain_answers_first() {
        let mut fed = Federation::new();
        fed.add_domain(DomainId(0), store_with(&[0], &[]));
        fed.add_domain(DomainId(1), store_with(&[10], &[("video/conference", 11)]));
        fed.add_domain(DomainId(2), store_with(&[20], &[("video/conference", 22)]));
        fed.link(DomainId(0), DomainId(1), "", Rights::NONE);
        fed.link(DomainId(1), DomainId(2), "", Rights::NONE);
        let r = fed
            .resolve(DomainId(0), &video_request().max_hops(5), None)
            .unwrap();
        assert_eq!(r.domain, DomainId(1), "one hop beats two");
    }

    #[test]
    fn unknown_start_domain_errors() {
        let mut fed = Federation::new();
        assert_eq!(
            fed.resolve(DomainId(9), &video_request(), None)
                .unwrap_err(),
            TraderError::UnknownDomain(DomainId(9))
        );
    }

    #[test]
    fn weaker_but_nearer_beats_stronger_but_farther() {
        // Domain 1 is 100 ms away with a broadcast-grade offer; domain
        // 2 is 10 ms away with a modest one. Register the expensive
        // link first so plain insertion order would pick domain 1 —
        // only penalty ranking can prefer domain 2.
        let mut fed = Federation::new();
        fed.add_domain(DomainId(0), store_with(&[0], &[]));
        fed.add_domain(DomainId(1), store_with(&[10], &[]));
        fed.add_domain(DomainId(2), store_with(&[20], &[]));
        let strong =
            ServiceOffer::session(st(), SessionKind::Conference, QosSpec::video(), NodeId(11));
        let modest = ServiceOffer::session(
            st(),
            SessionKind::Conference,
            QosSpec {
                throughput_fps: 12,
                latency_bound: SimDuration::from_millis(300),
                ..QosSpec::video()
            },
            NodeId(22),
        );
        fed.domain_mut(DomainId(1)).unwrap().export(strong).unwrap();
        fed.domain_mut(DomainId(2)).unwrap().export(modest).unwrap();
        fed.link_via(DomainId(0), DomainId(1), "", Rights::NONE, penalty_ms(100));
        fed.link_via(DomainId(0), DomainId(2), "", Rights::NONE, penalty_ms(10));
        let r = fed
            .resolve(
                DomainId(0),
                &ImportRequest::for_type(st()).qos(QosSpec {
                    throughput_fps: 10,
                    latency_bound: SimDuration::from_millis(400),
                    jitter_bound: SimDuration::from_millis(60),
                    ..QosSpec::video()
                }),
                None,
            )
            .unwrap();
        assert_eq!(r.domain, DomainId(2), "the nearer modest offer wins");
        assert_eq!(r.penalty, penalty_ms(10));
        assert_eq!(
            r.matched.penalized.latency_bound,
            SimDuration::from_millis(310),
            "the match is judged on penalized QoS"
        );
    }

    #[test]
    fn penalized_offers_that_no_longer_satisfy_are_rejected() {
        // The offer satisfies the requirement at home, but two lossy
        // links compound to ~19% loss — past anything the video
        // requirement's degradation ladder tolerates.
        let lossy = LinkQos::new(SimDuration::ZERO, SimDuration::ZERO, 0.1);
        let mut fed = Federation::new();
        fed.add_domain(DomainId(0), store_with(&[0], &[]));
        fed.add_domain(DomainId(1), store_with(&[10], &[]));
        fed.add_domain(DomainId(2), store_with(&[20], &[("video/conference", 25)]));
        fed.link_via(DomainId(0), DomainId(1), "", Rights::NONE, lossy);
        fed.link_via(DomainId(1), DomainId(2), "", Rights::NONE, lossy);
        assert_eq!(
            fed.resolve(DomainId(0), &video_request(), None)
                .unwrap_err(),
            TraderError::NoMatch
        );
        // Disabling accounting (the checker's fault-injection knob)
        // makes the same import succeed on the raw advertised QoS.
        let r = fed
            .resolve(
                DomainId(0),
                &video_request().penalty_accounting(false),
                None,
            )
            .unwrap();
        assert_eq!(r.domain, DomainId(2));
        assert_eq!(r.matched.penalized, r.matched.offer.qos);
    }

    #[test]
    fn diamond_narrowing_prunes_the_excluding_arm() {
        // 0 → 1 (video/) → 3 ("") and 0 → 2 (video/hd/) → 3 (""):
        // "video/conference" can only arrive via the 1-arm; the 2-arm's
        // narrowed scope video/hd/ excludes it, and the planner must
        // not query domain 2 at all. The 2-arm is cheaper, so without
        // narrowing it would be settled (and queried) first.
        let mut fed = Federation::new();
        fed.add_domain(DomainId(0), store_with(&[0], &[]));
        fed.add_domain(DomainId(1), store_with(&[10], &[]));
        fed.add_domain(DomainId(2), store_with(&[20], &[]));
        fed.add_domain(DomainId(3), store_with(&[30], &[("video/conference", 35)]));
        fed.link_via(
            DomainId(0),
            DomainId(1),
            "video/",
            Rights::NONE,
            penalty_ms(40),
        );
        fed.link_via(
            DomainId(0),
            DomainId(2),
            "video/hd/",
            Rights::NONE,
            penalty_ms(10),
        );
        fed.link_via(DomainId(1), DomainId(3), "", Rights::NONE, penalty_ms(40));
        fed.link_via(DomainId(2), DomainId(3), "", Rights::NONE, penalty_ms(10));
        let r = fed.resolve(DomainId(0), &video_request(), None).unwrap();
        assert_eq!(r.path, vec![DomainId(0), DomainId(1), DomainId(3)]);
        assert_eq!(r.narrowed_scope, Scope::prefix("video/"));
        assert_eq!(r.penalty, penalty_ms(80));
        assert_eq!(
            r.domains_queried, 2,
            "domain 2 is pruned before its store is consulted"
        );

        // The same diamond admits "video/hd/tour" through *both* arms;
        // the cheaper hd-arm wins and the scope narrows to the longer
        // prefix.
        let hd = ServiceType::new("video/hd/tour");
        fed.domain_mut(DomainId(3))
            .unwrap()
            .export(ServiceOffer::session(
                hd.clone(),
                SessionKind::Conference,
                QosSpec::video(),
                NodeId(36),
            ))
            .unwrap();
        let r = fed
            .resolve(
                DomainId(0),
                &ImportRequest::for_type(hd).qos(QosSpec::mobile_video()),
                None,
            )
            .unwrap();
        assert_eq!(r.path, vec![DomainId(0), DomainId(2), DomainId(3)]);
        assert_eq!(r.narrowed_scope, Scope::prefix("video/hd/"));
        assert_eq!(r.penalty, penalty_ms(20));
    }

    #[test]
    fn flood_mode_finds_the_same_offer_but_queries_more_domains() {
        // Same diamond as above: flood mode (narrowing off) traverses
        // on rights alone and filters at answer time, so it consults
        // the pruned arm's stores too — the planner's saving is exactly
        // the cross-domain messages it never sends.
        let mut fed = Federation::new();
        fed.add_domain(DomainId(0), store_with(&[0], &[]));
        fed.add_domain(DomainId(1), store_with(&[10], &[]));
        fed.add_domain(DomainId(2), store_with(&[20], &[]));
        fed.add_domain(DomainId(3), store_with(&[30], &[("video/conference", 35)]));
        fed.link_via(
            DomainId(0),
            DomainId(1),
            "video/",
            Rights::NONE,
            penalty_ms(40),
        );
        fed.link_via(
            DomainId(0),
            DomainId(2),
            "video/hd/",
            Rights::NONE,
            penalty_ms(10),
        );
        fed.link_via(DomainId(1), DomainId(3), "", Rights::NONE, penalty_ms(40));
        fed.link_via(DomainId(2), DomainId(3), "", Rights::NONE, penalty_ms(10));
        let planned = fed.resolve(DomainId(0), &video_request(), None).unwrap();
        let flooded = fed
            .resolve(DomainId(0), &video_request().narrowing(false), None)
            .unwrap();
        assert_eq!(planned.matched.offer, flooded.matched.offer);
        assert!(
            planned.domains_queried < flooded.domains_queried,
            "pruning must cut cross-domain lookups: {} vs {}",
            planned.domains_queried,
            flooded.domains_queried
        );
        // Flood mode settles the cheap hd-arm first, reaches domain 3
        // under the narrowed scope video/hd/ — which bars the answer at
        // query time — and only finds the offer on the second visit,
        // via the admitting video/ arm: two wasted cross-domain
        // queries the planner never sends.
        assert_eq!(flooded.domain, planned.domain);
        assert_eq!(flooded.narrowed_scope, Scope::prefix("video/"));
    }

    #[test]
    fn builder_request_resolves_across_one_link() {
        let mut fed = Federation::new();
        fed.add_domain(DomainId(0), store_with(&[0], &[]));
        fed.add_domain(DomainId(1), store_with(&[10], &[("video/conference", 15)]));
        fed.link(DomainId(0), DomainId(1), "video/", Rights::READ);
        let request = ImportRequest::for_type(st())
            .qos(QosSpec::video())
            .rights(Rights::READ)
            .policy(SelectionPolicy::FirstFit)
            .max_hops(3);
        let r = fed.resolve(DomainId(0), &request, None).unwrap();
        assert_eq!(r.domain, DomainId(1));
        assert_eq!(r.hops, 1);
    }
}
