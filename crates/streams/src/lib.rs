#![warn(missing_docs)]

//! # odp-streams — continuous media with QoS management
//!
//! Implements §4.2.2 of the paper ("Multimedia support"): continuous
//! media need (i) representation — [`binding`]'s stream interfaces and
//! bindings; (ii) quality of service — [`qos`]'s specs, compatibility
//! checking and negotiation plus [`monitor`]'s end-to-end monitoring and
//! the renegotiation loop in [`actors`]; (iii) real-time synchronisation
//! — [`sync`]'s event-driven and continuous (lip-sync) mechanisms; and
//! (iv) groups — multicast bindings ([`binding`]) and the group
//! communication in `odp-groupcomm`.
//!
//! ```
//! use odp_streams::qos::{negotiate, NegotiationOutcome, QosSpec};
//!
//! let offer = QosSpec::video();
//! match negotiate(&offer, &QosSpec::video()) {
//!     NegotiationOutcome::Agreed(spec) => assert_eq!(spec.throughput_fps, 25),
//!     NegotiationOutcome::BestEffortOnly(_) => unreachable!(),
//! }
//! ```

pub mod actors;
pub mod binding;
pub mod media;
pub mod monitor;
pub mod qos;
pub mod sync;
pub mod transfer;

pub use actors::{SinkActor, SourceActor, StreamMsg};
pub use binding::{
    BindError, BindingId, BindingRegistry, Direction, InterfaceId, StreamBinding, StreamInterface,
};
pub use media::{Frame, FrameFate, MediaKind, MediaSink, MediaSource, PlayoutRecord, StreamId};
pub use monitor::{QosMonitor, Violation};
pub use qos::{negotiate, NegotiationOutcome, QosSpec, ViolationKind};
pub use sync::{EventSync, LipSync, ScheduledEvent};
pub use transfer::ChunkPlan;
