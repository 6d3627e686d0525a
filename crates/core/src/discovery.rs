//! Trader-mediated session discovery and join.
//!
//! §4.2.1 of the paper: clients of an open system locate services
//! through the trading function, not through configuration. This module
//! closes the loop for sessions: a host *advertises* a [`Session`] to a
//! trading [`Federation`] as a typed service offer, and a participant
//! *joins by service type* — the trader resolves the offer (locally or
//! across federation links, subject to scope and rights), QoS-matches
//! it against what the joiner's connectivity can sustain, and only then
//! does the ordinary [`Session::join`] run.

use std::collections::BTreeMap;

use odp_access::rights::Rights;
use odp_sim::net::NodeId;
use odp_streams::qos::QosSpec;
use odp_trader::error::TraderError;
use odp_trader::federation::{DomainId, Federation};
use odp_trader::offer::{OfferId, ServiceOffer, ServiceType, SessionKind};
use odp_trader::plan::ImportRequest;
use odp_trader::select::SelectionPolicy;

use crate::session::{Session, SessionError, SessionId, TimeMode};

/// How far a session lookup may chase federation links.
const MAX_IMPORT_HOPS: u32 = 3;

/// Why a trader-mediated join failed.
#[derive(Debug, Clone, PartialEq)]
pub enum DiscoveryError {
    /// The trader could not resolve the service type.
    Import(TraderError),
    /// The resolved offer names a session this directory doesn't hold
    /// (withdrawn but not yet invalidated, or a foreign domain's).
    StaleOffer(ServiceType),
    /// The session itself refused the join.
    Session(SessionError),
}

impl std::fmt::Display for DiscoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiscoveryError::Import(e) => write!(f, "trader import failed: {e}"),
            DiscoveryError::StaleOffer(t) => write!(f, "offer for {t} names no live session"),
            DiscoveryError::Session(e) => write!(f, "session refused join: {e}"),
        }
    }
}

impl std::error::Error for DiscoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiscoveryError::Import(e) => Some(e),
            DiscoveryError::Session(e) => Some(e),
            DiscoveryError::StaleOffer(_) => None,
        }
    }
}

/// A successful trader-mediated join.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinOutcome {
    /// The session joined.
    pub session: SessionId,
    /// The node hosting it (from the resolved offer).
    pub host: NodeId,
    /// The QoS contract negotiation settled on for the joiner.
    pub agreed: QosSpec,
    /// Federation hops the resolution crossed (0 = local domain).
    pub hops: u32,
}

/// A directory of advertised sessions, backed by a trading federation.
///
/// The directory owns the sessions it advertises; participants join
/// through [`SessionDirectory::join_via_trader`] without knowing host
/// addresses.
#[derive(Debug, Default)]
pub struct SessionDirectory {
    federation: Federation,
    sessions: BTreeMap<SessionId, Session>,
    advertised: BTreeMap<ServiceType, (SessionId, DomainId, OfferId)>,
}

impl SessionDirectory {
    /// An empty directory over `federation` (its domains and links
    /// already set up).
    pub fn new(federation: Federation) -> Self {
        SessionDirectory {
            federation,
            ..SessionDirectory::default()
        }
    }

    /// Read access to a held session.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.sessions.get(&id)
    }

    /// Advertises `session` under `service_type` in `domain`, hosted at
    /// `host` with QoS `offered`. The session is stored in the
    /// directory; the offer carries its kind (conference for
    /// synchronous modes, workspace otherwise) so importers can filter.
    ///
    /// # Errors
    ///
    /// [`odp_trader::offer::TraderError`] if the domain has no shards
    /// (mapped through as `Import(NoMatch)` would be misleading, so the
    /// raw error is surfaced).
    // odp-check: allow(dead-pub) — PAPER.md requirement 5: a session offered with its QoS through the trader.
    pub fn advertise(
        &mut self,
        domain: DomainId,
        service_type: ServiceType,
        session: Session,
        host: NodeId,
        offered: QosSpec,
    ) -> Result<OfferId, odp_trader::offer::TraderError> {
        let kind = match session.mode().time {
            TimeMode::Synchronous => SessionKind::Conference,
            TimeMode::Asynchronous => SessionKind::Workspace,
        };
        let offer = ServiceOffer::session(service_type.clone(), kind, offered, host)
            .with_property("session", format!("{}", session.id().0))
            .with_property("mode", session.mode().label().to_string());
        let store = self
            .federation
            .domain_mut(domain)
            .ok_or(odp_trader::offer::TraderError::NoShards)?;
        let id = store.export(offer)?;
        self.advertised
            .insert(service_type, (session.id(), domain, id));
        self.sessions.insert(session.id(), session);
        Ok(id)
    }

    /// Withdraws a service type's offer; the session stays in the
    /// directory but is no longer discoverable.
    pub fn withdraw(&mut self, service_type: &ServiceType) -> bool {
        match self.advertised.remove(service_type) {
            Some((_, domain, offer_id)) => self
                .federation
                .domain_mut(domain)
                .is_some_and(|store| store.withdraw(offer_id).is_ok()),
            None => false,
        }
    }

    /// Joins a session by service type: the trader resolves the type
    /// from `at` under `rights`, QoS-matching against `required`; the
    /// join then runs against the resolved session.
    ///
    /// # Errors
    ///
    /// See [`DiscoveryError`].
    // odp-check: allow(dead-pub) — PAPER.md requirement 5: a join under a QoS-matched contract.
    pub fn join_via_trader(
        &mut self,
        at: DomainId,
        rights: Rights,
        service_type: &ServiceType,
        required: &QosSpec,
        who: NodeId,
    ) -> Result<JoinOutcome, DiscoveryError> {
        let request = ImportRequest::for_type(service_type.clone())
            .qos(*required)
            .rights(rights)
            .policy(SelectionPolicy::FirstFit)
            .max_hops(MAX_IMPORT_HOPS);
        let resolution = self
            .federation
            .resolve(at, &request, None)
            .map_err(DiscoveryError::Import)?;
        let (session_id, _, _) = *self
            .advertised
            .get(service_type)
            .ok_or_else(|| DiscoveryError::StaleOffer(service_type.clone()))?;
        let session = self
            .sessions
            .get_mut(&session_id)
            .ok_or_else(|| DiscoveryError::StaleOffer(service_type.clone()))?;
        session.join(who).map_err(DiscoveryError::Session)?;
        Ok(JoinOutcome {
            session: session_id,
            host: resolution.matched.offer.node,
            agreed: resolution.matched.agreed,
            hops: resolution.hops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionMode;
    use odp_trader::store::ShardedStore;

    const HOST: NodeId = NodeId(1);
    const JOINER: NodeId = NodeId(2);

    fn one_domain() -> Federation {
        let mut federation = Federation::new();
        federation.add_domain(DomainId(0), ShardedStore::new([NodeId(100)]));
        federation
    }

    fn directory_with_session() -> (SessionDirectory, ServiceType) {
        let mut dir = SessionDirectory::new(one_domain());
        let session = Session::new(SessionId(1), SessionMode::SYNC_DISTRIBUTED);
        let st = ServiceType::new("session/sync-distributed");
        dir.advertise(DomainId(0), st.clone(), session, HOST, QosSpec::video())
            .unwrap();
        (dir, st)
    }

    #[test]
    fn join_via_trader_resolves_and_joins() {
        let (mut dir, st) = directory_with_session();
        let outcome = dir
            .join_via_trader(DomainId(0), Rights::READ, &st, &QosSpec::video(), JOINER)
            .unwrap();
        assert_eq!(outcome.host, HOST);
        assert_eq!(outcome.hops, 0);
        assert_eq!(outcome.agreed, QosSpec::video());
        assert!(dir
            .session(SessionId(1))
            .unwrap()
            .participants()
            .contains(&JOINER));
    }

    #[test]
    fn degraded_joiner_gets_a_degraded_contract() {
        // The host can only sustain modest QoS; a joiner asking for
        // broadcast video settles on a negotiated-down contract.
        let mut dir = SessionDirectory::new(one_domain());
        let session = Session::new(SessionId(3), SessionMode::SYNC_DISTRIBUTED);
        let st = ServiceType::new("session/field-review");
        let modest = QosSpec {
            throughput_fps: 8,
            latency_bound: odp_sim::time::SimDuration::from_millis(400),
            jitter_bound: odp_sim::time::SimDuration::from_millis(100),
            loss_bound: 0.05,
            ..QosSpec::video()
        };
        dir.advertise(DomainId(0), st.clone(), session, HOST, modest)
            .unwrap();
        let outcome = dir
            .join_via_trader(DomainId(0), Rights::READ, &st, &QosSpec::video(), JOINER)
            .unwrap();
        assert!(outcome.agreed.throughput_fps < QosSpec::video().throughput_fps);
        assert!(modest.satisfies(&outcome.agreed));
    }

    #[test]
    fn unknown_types_fail_with_import_error() {
        let (mut dir, _) = directory_with_session();
        let err = dir
            .join_via_trader(
                DomainId(0),
                Rights::READ,
                &ServiceType::new("session/nonexistent"),
                &QosSpec::audio(),
                JOINER,
            )
            .unwrap_err();
        assert!(matches!(err, DiscoveryError::Import(TraderError::NoMatch)));
    }

    #[test]
    fn withdrawn_sessions_are_undiscoverable() {
        let (mut dir, st) = directory_with_session();
        assert!(dir.withdraw(&st));
        let err = dir
            .join_via_trader(DomainId(0), Rights::READ, &st, &QosSpec::video(), JOINER)
            .unwrap_err();
        assert!(matches!(err, DiscoveryError::Import(TraderError::NoMatch)));
    }

    #[test]
    fn federated_join_crosses_domains_under_rights() {
        // The session lives in domain 1; the joiner starts in domain 0.
        let mut federation = one_domain();
        federation.add_domain(DomainId(1), ShardedStore::new([NodeId(200)]));
        federation.link(DomainId(0), DomainId(1), "session/", Rights::READ);
        let mut dir = SessionDirectory::new(federation);
        let session = Session::new(SessionId(9), SessionMode::SYNC_DISTRIBUTED);
        let st = ServiceType::new("session/sync-distributed");
        dir.advertise(DomainId(1), st.clone(), session, HOST, QosSpec::video())
            .unwrap();
        // Without READ the link is barred.
        let err = dir
            .join_via_trader(DomainId(0), Rights::NONE, &st, &QosSpec::video(), JOINER)
            .unwrap_err();
        assert!(matches!(
            err,
            DiscoveryError::Import(TraderError::AccessDenied)
        ));
        // With READ it crosses one hop.
        let outcome = dir
            .join_via_trader(DomainId(0), Rights::READ, &st, &QosSpec::video(), JOINER)
            .unwrap();
        assert_eq!(outcome.hops, 1);
    }
}
