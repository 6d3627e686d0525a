#![warn(missing_docs)]

//! # odp-sim — deterministic discrete-event simulation substrate
//!
//! The engineering-viewpoint substrate for the CSCW/ODP middleware
//! reproduction (Blair & Rodden, 1993). Every protocol in the workspace —
//! group multicast, cooperative concurrency control, QoS-managed streams,
//! mobile hosts — runs as [`actor::Actor`] state machines inside a
//! [`sim::Sim`], over a configurable [`net::Network`] with latency, jitter,
//! bandwidth, loss, partitions and per-node connectivity levels.
//!
//! Determinism is the design centre: a run is a pure function of its
//! configuration and seed, so every derived experiment in the evaluation
//! suite is exactly reproducible.
//!
//! ## Quick start
//!
//! ```
//! use odp_sim::prelude::*;
//!
//! struct Greeter { peer: NodeId }
//! impl Actor<String> for Greeter {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, String>) {
//!         ctx.send(self.peer, "hello".to_owned());
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, String>, from: NodeId, msg: String) {
//!         ctx.trace("received", format_args!("{msg} from {from}"));
//!     }
//! }
//!
//! let mut sim = SimBuilder::new(7).build();
//! sim.add_actor(NodeId(0), Greeter { peer: NodeId(1) });
//! sim.add_actor(NodeId(1), Greeter { peer: NodeId(0) });
//! assert_eq!(sim.run(Until::Idle), RunOutcome::Quiesced);
//! assert_eq!(sim.trace().with_label("received").count(), 2);
//! ```

pub mod actor;
pub mod alloc;
pub mod metrics;
pub mod net;
mod queue;
pub mod rng;
pub mod sim;
pub mod time;
pub mod trace;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::actor::{Actor, Ctx, TimerId};
    pub use crate::metrics::{Histogram, MetricsRegistry, Summary};
    pub use crate::net::{Connectivity, DropReason, LinkSpec, Network, NodeId, Verdict};
    pub use crate::rng::DetRng;
    pub use crate::sim::{
        ActorHandle, ExecutedEvent, PendingEvent, RunOutcome, Sim, SimBuilder, Until,
    };
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{Trace, TraceEvent};
}

pub use prelude::*;
