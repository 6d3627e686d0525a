//! Import planning: the request surface, scope narrowing and path
//! states for the federated best-first planner.
//!
//! The paper's trading function crosses "different administrative and
//! management domains" (§4.2.1), and QoS must stay end-to-end
//! meaningful across those crossings (§4.2.5). Two consequences shape
//! this module:
//!
//! - **Scope narrows transitively.** A federation path admits only the
//!   service types every traversed link admits, i.e. the *intersection*
//!   of the link scopes. For prefix scopes the intersection is the
//!   longer prefix when one extends the other, and [`Scope::Empty`]
//!   when they diverge — a branch whose narrowed scope can no longer
//!   admit the requested type is pruned before any remote store is
//!   consulted.
//! - **QoS degrades per link.** Each traversed link charges a
//!   [`LinkQos`] penalty; the planner accumulates it along the path and
//!   matches offers on their *penalized* QoS
//!   ([`QosSpec::degrade_across`]), so a weaker-but-nearer offer can
//!   beat a stronger-but-farther one.
//!
//! [`ImportRequest`] is the builder-style call surface
//! (`ImportRequest::for_type(t).qos(req).max_hops(n).rights(r).policy(p)`)
//! consumed by [`Federation::resolve`](crate::federation::Federation::resolve);
//! [`ImportResolution`] reports the path taken, the narrowed scope it
//! arrived under, the accumulated penalty and the penalized/agreed QoS.

use std::fmt;

use odp_access::rights::Rights;
use odp_sim::net::LinkQos;
use odp_streams::qos::QosSpec;

use crate::federation::DomainId;
use crate::offer::ServiceType;
use crate::select::{OfferMatch, SelectionPolicy};

/// Hop bound applied when [`ImportRequest::max_hops`] is not called.
pub(crate) const DEFAULT_MAX_HOPS: u32 = 3;

/// The set of service types admissible along a federation path: a name
/// prefix, or nothing at all once traversed link scopes have diverged.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// Every service type under the prefix ("" admits all).
    Prefix(String),
    /// No service type — the intersection of incompatible link scopes.
    Empty,
}

impl Scope {
    /// The unrestricted scope (the empty prefix): where an import
    /// starts, before any link has been traversed.
    pub fn all() -> Self {
        Scope::Prefix(String::new())
    }

    /// A prefix scope.
    pub fn prefix(prefix: impl Into<String>) -> Self {
        Scope::Prefix(prefix.into())
    }

    /// True if `service_type` falls inside this scope.
    pub fn admits(&self, service_type: &ServiceType) -> bool {
        match self {
            Scope::Prefix(p) => service_type.in_scope(p),
            Scope::Empty => false,
        }
    }

    /// The intersection of this scope with one more link's prefix
    /// scope. Nested prefixes intersect to the longer (narrower) one;
    /// divergent prefixes intersect to [`Scope::Empty`].
    pub fn narrow(&self, link_scope: &str) -> Scope {
        match self {
            Scope::Empty => Scope::Empty,
            Scope::Prefix(p) if link_scope.starts_with(p.as_str()) => {
                Scope::Prefix(link_scope.to_string())
            }
            Scope::Prefix(p) if p.starts_with(link_scope) => Scope::Prefix(p.clone()),
            Scope::Prefix(_) => Scope::Empty,
        }
    }

    /// True if nothing is admitted.
    pub fn is_empty(&self) -> bool {
        matches!(self, Scope::Empty)
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Prefix(p) if p.is_empty() => f.write_str("*"),
            Scope::Prefix(p) => write!(f, "{p}*"),
            Scope::Empty => f.write_str("(nothing)"),
        }
    }
}

/// A federated import, stated as what the importer wants rather than as
/// positional arguments.
///
/// ```
/// use odp_access::rights::Rights;
/// use odp_streams::qos::QosSpec;
/// use odp_trader::plan::ImportRequest;
/// use odp_trader::offer::ServiceType;
/// use odp_trader::select::SelectionPolicy;
///
/// let request = ImportRequest::for_type(ServiceType::new("video/conference"))
///     .qos(QosSpec::video())
///     .rights(Rights::READ)
///     .policy(SelectionPolicy::LeastLoaded)
///     .max_hops(4);
/// assert_eq!(request.hop_bound(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ImportRequest {
    service_type: ServiceType,
    required: QosSpec,
    rights: Rights,
    policy: SelectionPolicy,
    max_hops: u32,
    narrowing: bool,
    penalty_accounting: bool,
}

impl ImportRequest {
    /// A request for offers of `service_type`, with permissive defaults:
    /// any QoS ([`QosSpec::permissive`]), no rights, first-fit
    /// selection, `DEFAULT_MAX_HOPS` hops.
    pub fn for_type(service_type: ServiceType) -> Self {
        ImportRequest {
            service_type,
            required: QosSpec::permissive(),
            rights: Rights::NONE,
            policy: SelectionPolicy::FirstFit,
            max_hops: DEFAULT_MAX_HOPS,
            narrowing: true,
            penalty_accounting: true,
        }
    }

    /// The QoS the importer requires (matched against each offer's
    /// *penalized* QoS).
    pub fn qos(mut self, required: QosSpec) -> Self {
        self.required = required;
        self
    }

    /// The rights the importer holds (links demand rights to traverse).
    pub fn rights(mut self, rights: Rights) -> Self {
        self.rights = rights;
        self
    }

    /// How to pick among a domain's satisfying offers.
    pub fn policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The federation hop bound (0 = local domain only).
    pub fn max_hops(mut self, max_hops: u32) -> Self {
        self.max_hops = max_hops;
        self
    }

    /// Disables transitive scope narrowing: links are traversed on
    /// rights alone and the narrowed scope is only applied when
    /// answering (the eager-forwarding federation the planner
    /// replaces). Kept as the baseline for benchmarks; resolutions are
    /// identical, only more remote stores get consulted.
    pub fn narrowing(mut self, on: bool) -> Self {
        self.narrowing = on;
        self
    }

    /// Disables per-link penalty *accounting* in matching: offers are
    /// matched and reported on their raw advertised QoS as if they were
    /// local. This is a fault-injection knob for `odp-check`'s
    /// `trader-federation` invariant, which recomputes the penalty from
    /// the traversed links and flags the discrepancy; production
    /// callers leave it on.
    pub fn penalty_accounting(mut self, on: bool) -> Self {
        self.penalty_accounting = on;
        self
    }

    /// The requested service type.
    pub fn service_type(&self) -> &ServiceType {
        &self.service_type
    }

    /// The required QoS.
    pub fn required(&self) -> &QosSpec {
        &self.required
    }

    /// The importer's rights.
    pub(crate) fn importer_rights(&self) -> Rights {
        self.rights
    }

    /// The selection policy.
    pub(crate) fn selection_policy(&self) -> SelectionPolicy {
        self.policy
    }

    /// The hop bound.
    pub fn hop_bound(&self) -> u32 {
        self.max_hops
    }

    /// Whether branches are pruned by transitive scope narrowing.
    pub(crate) fn narrows_scope(&self) -> bool {
        self.narrowing
    }

    /// Whether matching charges the accumulated link penalty.
    pub(crate) fn accounts_penalty(&self) -> bool {
        self.penalty_accounting
    }
}

/// A successful federated import: the selected offer plus how — and
/// under what accumulated restrictions — it was reached.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportResolution {
    /// The selected offer, its penalized QoS and the agreed contract.
    pub matched: OfferMatch,
    /// The domain the offer came from.
    pub domain: DomainId,
    /// Federation hops traversed (0 = local domain).
    pub hops: u32,
    /// The domains traversed, starting domain first, answering domain
    /// last.
    pub path: Vec<DomainId>,
    /// The scope the path narrowed to (intersection of traversed link
    /// scopes) — cache entries must be keyed under it.
    pub narrowed_scope: Scope,
    /// The accumulated per-link QoS penalty along `path`.
    pub penalty: LinkQos,
    /// Remote domains whose stores were consulted (the cross-domain
    /// message count; the starting domain is free).
    pub domains_queried: u32,
}

/// One frontier entry of the best-first search: a domain reached under
/// a narrowed scope, an accumulated penalty and a concrete path.
#[derive(Debug, Clone)]
pub(crate) struct PathState {
    pub(crate) domain: DomainId,
    pub(crate) hops: u32,
    pub(crate) scope: Scope,
    pub(crate) penalty: LinkQos,
    pub(crate) path: Vec<DomainId>,
    /// Insertion order; the final tie-breaker, so a zero-penalty
    /// federation explores in exactly the legacy breadth-first order.
    pub(crate) seq: u64,
}

impl PathState {
    /// Best-first priority: lowest penalty first (latency, then jitter,
    /// then loss), then fewest hops, then insertion order. Loss is in
    /// `[0, 1]`, where IEEE-754 bit patterns order like the values.
    pub(crate) fn key(&self) -> (u64, u64, u64, u32, u64) {
        (
            self.penalty.latency.as_micros(),
            self.penalty.jitter.as_micros(),
            self.penalty.loss.to_bits(),
            self.hops,
            self.seq,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_sim::time::SimDuration;

    fn st(name: &str) -> ServiceType {
        ServiceType::new(name)
    }

    #[test]
    fn empty_prefix_narrows_to_the_link_scope() {
        assert_eq!(Scope::all().narrow("video/"), Scope::prefix("video/"));
        assert_eq!(Scope::all().narrow(""), Scope::all());
    }

    #[test]
    fn nested_prefixes_narrow_to_the_longer_one() {
        assert_eq!(
            Scope::prefix("video/").narrow("video/hd/"),
            Scope::prefix("video/hd/")
        );
        assert_eq!(
            Scope::prefix("video/hd/").narrow("video/"),
            Scope::prefix("video/hd/"),
            "a wider later link cannot re-widen the path"
        );
    }

    #[test]
    fn divergent_prefixes_narrow_to_empty() {
        let narrowed = Scope::prefix("video/").narrow("audio/");
        assert!(narrowed.is_empty());
        assert!(!narrowed.admits(&st("video/conference")));
        assert!(!narrowed.admits(&st("audio/call")));
        assert!(narrowed.narrow("").is_empty(), "empty stays empty");
    }

    #[test]
    fn admission_follows_the_prefix() {
        assert!(Scope::all().admits(&st("anything/at/all")));
        assert!(Scope::prefix("video/").admits(&st("video/hd/tour")));
        assert!(!Scope::prefix("video/hd/").admits(&st("video/conference")));
    }

    #[test]
    fn scope_displays_read_like_globs() {
        assert_eq!(Scope::all().to_string(), "*");
        assert_eq!(Scope::prefix("video/").to_string(), "video/*");
        assert_eq!(Scope::Empty.to_string(), "(nothing)");
    }

    #[test]
    fn request_defaults_are_permissive() {
        let r = ImportRequest::for_type(st("video/conference"));
        assert_eq!(r.required(), &QosSpec::permissive());
        assert_eq!(r.importer_rights(), Rights::NONE);
        assert_eq!(r.selection_policy(), SelectionPolicy::FirstFit);
        assert_eq!(r.hop_bound(), DEFAULT_MAX_HOPS);
        assert!(r.narrows_scope());
        assert!(r.accounts_penalty());
    }

    #[test]
    fn builder_sets_every_knob() {
        let r = ImportRequest::for_type(st("video/conference"))
            .qos(QosSpec::video())
            .rights(Rights::READ)
            .policy(SelectionPolicy::LeastLoaded)
            .max_hops(7)
            .narrowing(false)
            .penalty_accounting(false);
        assert_eq!(r.required(), &QosSpec::video());
        assert_eq!(r.importer_rights(), Rights::READ);
        assert_eq!(r.selection_policy(), SelectionPolicy::LeastLoaded);
        assert_eq!(r.hop_bound(), 7);
        assert!(!r.narrows_scope());
        assert!(!r.accounts_penalty());
    }

    #[test]
    fn path_keys_prefer_penalty_over_hops_and_preserve_insertion_order() {
        let state = |lat_ms: u64, hops: u32, seq: u64| PathState {
            domain: DomainId(0),
            hops,
            scope: Scope::all(),
            penalty: LinkQos::new(SimDuration::from_millis(lat_ms), SimDuration::ZERO, 0.0),
            path: vec![DomainId(0)],
            seq,
        };
        // A nearer (lower-penalty) three-hop path beats a farther
        // one-hop path.
        assert!(state(10, 3, 5).key() < state(100, 1, 1).key());
        // At equal penalty, fewer hops win; at equal hops, insertion
        // order (= legacy BFS order) wins.
        assert!(state(0, 1, 2).key() < state(0, 2, 1).key());
        assert!(state(0, 1, 1).key() < state(0, 1, 2).key());
    }
}
