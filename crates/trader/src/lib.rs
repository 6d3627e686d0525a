#![warn(missing_docs)]

//! # odp-trader — the ODP trading function
//!
//! The paper puts service discovery at the heart of open distributed
//! processing (§4.2.1): services are *exported* to a trader by the
//! objects that implement them and *imported* by clients that name a
//! service type and a required quality of service, never a network
//! address. This crate implements that trading function on the
//! deterministic simulator:
//!
//! - [`offer`] — the typed offer space: [`ServiceOffer`]s front a
//!   stream interface or a session endpoint, carry a [`QosSpec`] and
//!   free-form properties;
//! - [`store`] — the sharded offer store: service types are
//!   consistent-hashed over the domain's trader nodes, with per-shard
//!   load counters and cheap resharding;
//! - [`mod@select`] — QoS-aware matching (reusing
//!   `odp_streams::qos::negotiate` as the satisfaction check) and
//!   pluggable selection: first-fit, least-loaded,
//!   lowest-expected-latency;
//! - [`cache`] — the importer-side TTL cache, keyed by (type, effective
//!   scope) and invalidated eagerly by multicast notes when exporters
//!   withdraw or re-advertise;
//! - [`plan`] — the [`ImportRequest`] builder, transitive [`Scope`]
//!   narrowing, and the rich [`ImportResolution`] (path taken, narrowed
//!   scope, accumulated penalty, penalized/agreed QoS);
//! - [`federation`] — linked trading domains with scoped, rights-gated,
//!   QoS-penalized import paths across administrative boundaries,
//!   resolved by a best-first planner
//!   ([`Federation::resolve`](federation::Federation::resolve));
//! - [`error`] — the unified, non-exhaustive [`TraderError`];
//! - [`actors`] — [`TraderActor`] / [`ImporterActor`] measuring lookup
//!   latency, cache hit rate and shard balance under the simulator.
//!
//! ```
//! use odp_sim::net::NodeId;
//! use odp_streams::qos::QosSpec;
//! use odp_trader::prelude::*;
//!
//! let mut store = ShardedStore::new([NodeId(0), NodeId(1)]);
//! let offer = ServiceOffer::session(
//!     ServiceType::new("session/design-review"),
//!     SessionKind::Workspace,
//!     QosSpec::audio(),
//!     NodeId(7),
//! );
//! store.export(offer).unwrap();
//! let offers = store.offers_of_type(&ServiceType::new("session/design-review"));
//! let matches = match_offers(&offers, &QosSpec::audio());
//! assert_eq!(matches.len(), 1);
//! assert_eq!(matches[0].offer.node, NodeId(7));
//! ```

pub mod actors;
pub mod cache;
pub mod error;
pub mod federation;
pub mod offer;
pub mod plan;
pub mod select;
pub mod store;
pub mod wire;

pub use actors::{
    ImporterActor, ImporterStats, Invalidation, InvalidationReason, LookupJob, TraderActor,
    TraderMsg,
};
pub use cache::{CacheStats, LookupCache};
pub use error::TraderError;
pub use federation::{DomainId, Federation, TraderLink};
pub use offer::{OfferId, OfferedInterface, ServiceOffer, ServiceType, SessionKind};
pub use plan::{ImportRequest, ImportResolution, Scope};
pub use select::{match_offers, select, OfferMatch, SelectionLoad, SelectionPolicy};
pub use store::{HashRing, OfferStore, ShardLoad, ShardedStore};

/// Everything an importer or exporter typically needs.
pub mod prelude {
    pub use crate::actors::{ImporterActor, LookupJob, TraderActor, TraderMsg};
    pub use crate::cache::LookupCache;
    pub use crate::error::TraderError;
    pub use crate::federation::{DomainId, Federation, TraderLink};
    pub use crate::offer::{OfferId, OfferedInterface, ServiceOffer, ServiceType, SessionKind};
    pub use crate::plan::{ImportRequest, ImportResolution, Scope};
    pub use crate::select::{match_offers, select, OfferMatch, SelectionPolicy};
    pub use crate::store::{HashRing, ShardedStore};
    pub use odp_sim::net::LinkQos;
    pub use odp_streams::qos::QosSpec;
}

// Re-exported so doc examples and downstream crates can name the QoS
// type the trader matches on — and the per-link penalty it charges —
// without importing odp-streams/odp-sim themselves.
pub use odp_sim::net::LinkQos;
pub use odp_streams::qos::QosSpec;
