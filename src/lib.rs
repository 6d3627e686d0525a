#![warn(missing_docs)]

//! # cscw — CSCW middleware for Open Distributed Processing
//!
//! Umbrella crate for the reproduction of Blair & Rodden, *"The Challenges
//! of CSCW for Open Distributed Processing"* (1993). Re-exports every
//! subsystem crate in the workspace under one roof; see the individual
//! crates for details:
//!
//! - [`fabric`] — zero-copy payload bytes, binary span carriers, sorted-vec maps
//! - [`sim`] — deterministic discrete-event simulation substrate
//! - [`net`] — pluggable transport: the sim backend and a threaded TCP backend
//! - [`groupcomm`] — group membership, ordered multicast, group RPC
//! - [`concurrency`] — cooperation-aware concurrency control
//! - [`awareness`] — awareness mechanisms (focus/nimbus, Portholes)
//! - [`access`] — access control (matrix baselines, Shen–Dewan roles)
//! - [`streams`] — continuous-media streams with QoS management
//! - [`mobility`] — mobile hosts, disconnection, reintegration
//! - [`mgmt`] — group-aware placement and migration
//! - [`place`] — closed-loop telemetry-driven placement controller
//! - [`trader`] — federated, QoS-aware service trading
//! - [`workflow`] — speech-act and office-procedure workflows
//! - [`telemetry`] — after-the-run span analysis: trace DAGs, critical paths, reports
//! - [`core`] — the groupware toolkit tying the substrates together
//!
//! ```
//! use cscw::sim::prelude::*;
//!
//! let sim: Sim<()> = SimBuilder::new(42).build();
//! assert_eq!(sim.now(), SimTime::ZERO);
//! ```

pub use cscw_core as core;
pub use odp_access as access;
pub use odp_awareness as awareness;
pub use odp_concurrency as concurrency;
pub use odp_fabric as fabric;
pub use odp_groupcomm as groupcomm;
pub use odp_mgmt as mgmt;
pub use odp_mobility as mobility;
pub use odp_net as net;
pub use odp_place as place;
pub use odp_sim as sim;
pub use odp_streams as streams;
pub use odp_telemetry as telemetry;
pub use odp_trader as trader;
pub use odp_workflow as workflow;
