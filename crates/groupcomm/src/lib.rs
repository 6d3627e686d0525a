#![warn(missing_docs)]

//! # odp-groupcomm — group communication for CSCW middleware
//!
//! Implements the group support the paper (§4.2.2 iv) demands of ODP:
//! group membership with views, reliable multicast under four delivery
//! orderings (unordered, FIFO, causal, total), and group RPC with
//! deadlines, quorums and simultaneous group invocation.
//!
//! The protocol logic is *sans-IO* ([`multicast::GroupEngine`],
//! [`rpc::RpcEngine`]): pure state machines returning messages to send and
//! payloads to deliver. [`host::EngineHost`] hosts a multicast engine
//! on any [`odp_sim`] actor, arming its maintenance tick and sending
//! its steps; [`actors::GroupActor`] adds the RPC engine and an
//! application on top.
//!
//! ```
//! use odp_groupcomm::membership::{GroupId, Membership};
//! use odp_sim::net::NodeId;
//!
//! let mut m = Membership::new();
//! let view = m.create(GroupId(7), [NodeId(0), NodeId(1), NodeId(2)]);
//! assert_eq!(view.leader(), Some(NodeId(0)));
//! ```

pub mod actors;
pub mod host;
pub mod membership;
pub mod multicast;
mod ordering;
pub mod rpc;
pub mod vclock;
pub mod wire;

pub use actors::{GroupActor, GroupApp, RpcConfig};
pub use membership::{GroupId, Membership, MembershipError, View, ViewId};
pub use multicast::{DataMsg, Delivery, GcMsg, GroupEngine, MsgId, Ordering, Reliability, Step};
pub use rpc::{CallOutcome, CallStatus, Quorum, ReplyBody, RequestBody, RpcEngine};
pub use vclock::{Causality, VectorClock};
pub use wire::{from_fabric, to_fabric};
