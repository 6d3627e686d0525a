//! Invariants and harnesses for the workspace's protocol subsystems.
//!
//! Each submodule pairs a small simulation harness (actors wrapping the
//! protocol engine under test, with injectable workloads) with the
//! [`crate::explore::Invariant`]s that must hold across *every*
//! explored schedule, and a canonical
//! [`crate::explore::StateFingerprint`] function digesting the state
//! its invariants read (so the explorer can prune schedules that
//! converge to an already-expanded state):
//!
//! - [`locks`] — strict-2PL lock-table consistency and deadlock-victim
//!   liveness ([`odp_concurrency::twophase`]).
//! - [`groupcomm`] — vector-clock monotonicity and delivery-order
//!   agreement ([`odp_groupcomm::multicast`]).
//! - [`replication`] — OT/dOPT convergence: all replicas equal at
//!   quiescence ([`odp_concurrency::dopt`]).
//! - [`trader`] — importer-cache coherence: no stale entry survives
//!   withdraw/modify/rebalance ([`odp_trader`]).
//! - [`federation`] — federated import soundness: every resolution's
//!   narrowed scope, penalty and agreed contract withstand
//!   recomputation from the traversed links ([`odp_trader::plan`]).
//! - [`telemetry`] — span-log well-formedness: every causal span
//!   closes, parents open before children, DAGs are acyclic
//!   ([`odp_telemetry`]).
//! - [`awareness`] — cooperation-event rights gating: no schedule may
//!   deliver a `CoopEvent` to an observer lacking read rights on its
//!   artefact ([`odp_awareness::bus`]).
//! - [`transport`] — the TCP driver's core hosted on the simulator
//!   (`CoreHost`), and transport fidelity over it: no sequence gaps
//!   after reconnect replay, a crashed origin's forwarded broadcasts
//!   delivered exactly once ([`odp_net::driver`], [`odp_net::session`]).
//! - [`tcp_driver`] — the driver core's link table under connection
//!   churn: a connection's end takes only its own link, `Hello` comes
//!   first, frames leave in order, `Stop` flushes
//!   ([`odp_net::driver`]).
//! - [`placement`] — placement soundness: every migration decision the
//!   closed-loop controller takes withstands recomputation from its
//!   recorded inputs, epochs never overlap, state transfers exactly
//!   once, and no write lands inside a freeze window
//!   ([`odp_place`]).

pub mod awareness;
pub mod federation;
pub mod groupcomm;
pub mod locks;
pub mod placement;
pub mod replication;
pub mod tcp_driver;
pub mod telemetry;
pub mod trader;
pub mod transport;
