#![warn(missing_docs)]

//! # odp-awareness — explicit awareness mechanisms
//!
//! The paper's counterpoint to concurrency *transparency* (§4.2.1): CSCW
//! systems need users to be **aware** of each other's activity. This
//! crate provides the mechanisms the paper surveys:
//!
//! - [`events`] — the raw activity vocabulary ([`ActivityKind`]) every
//!   cooperation event maps onto for weighting;
//! - [`bus`] — the unified, rights-gated cooperation-event bus: one
//!   [`CoopEvent`] vocabulary for lock, txgroup, floor, mobility,
//!   session and trader notices, gated through `odp_access` rights and
//!   scored by the same focus–nimbus weighting;
//! - [`dist`] — bus distribution over `odp_groupcomm` causal multicast
//!   with `aware.publish`/`aware.deliver` telemetry spans;
//! - [`spatial`] — the aura/focus/nimbus spatial model of interaction
//!   (Benford & Fahlén, DIVE);
//! - [`weights`] — temporal decay and combined spatial×temporal×relevance
//!   awareness weightings (Mariani & Prinz);
//! - [`portholes`] — asynchronous snapshot awareness (Dourish & Bly);
//! - [`mediaspace`] — RAVE-style media-space connections with
//!   privacy-graded acceptance policies.
//!
//! ```
//! use odp_awareness::spatial::{Position, SpatialBody, SpatialModel};
//! use odp_sim::net::NodeId;
//!
//! let mut space = SpatialModel::new();
//! space.place(NodeId(0), SpatialBody::symmetric(Position::new(0.0, 0.0), 100.0, 20.0));
//! space.place(NodeId(1), SpatialBody::symmetric(Position::new(4.0, 3.0), 100.0, 20.0));
//! assert!(space.weight(NodeId(0), NodeId(1)) > 0.5);
//! ```

pub mod bus;
pub mod dist;
pub mod events;
pub mod mediaspace;
pub mod portholes;
pub mod spatial;
pub mod weights;
pub mod wire;

pub use bus::{
    Audience, BusDelivery, BusStats, CoopEvent, CoopKind, CoopMode, CoopWeightFn, EventBus, Grant,
};
pub use dist::{BusActor, BusWire};
pub use events::ActivityKind;
pub use mediaspace::{
    Acceptance, ConnectOutcome, ConnectionId, ConnectionType, MediaSpace, MediaSpaceError,
};
pub use portholes::{Portholes, Snapshot};
pub use spatial::{AwarenessLevel, Position, SpatialBody, SpatialModel};
pub use weights::{combined_weight, RelevanceMap, TemporalDecay};
