//! # odpbench — the repository's measuring stick
//!
//! One end-to-end and per-layer benchmark for the five paths a user of
//! the workspace waits on: the simulator under a scheduler-bound load
//! (`campus_rush`), the simulator under a protocol-bound load
//! (`group_edit`, `group_edit_spans`), the sans-IO transport stack at
//! two payload sizes (`wire_small`, `wire_bulk`), real loopback sockets
//! (`tcp_pair`) and the schedule explorer (`check_explore`).
//!
//! Everything is measured from outside: the package depends on the
//! crates by path and times calls into their public functions. It uses
//! only the surface the ROADMAP keeps (`SimBuilder` / `ActorHandle` /
//! `run(Until)`), so retiring the legacy engine, the deprecated shims
//! or the vendored stubs cannot break it.
//!
//! `README.md` beside this package holds the layer map, the reason each
//! workload exists and how to run each mode.

pub mod alloc;
pub mod cli;
pub mod harness;
pub mod host;
pub mod micro;
pub mod modes;
pub mod names;
pub mod probe;
pub mod stats;
pub mod workloads;
