#![warn(missing_docs)]

//! # odp-check — correctness tooling for the CSCW/ODP workspace
//!
//! Two instruments, one goal: the workspace's determinism claim must be
//! *checkable*, not aspirational.
//!
//! **The lint pass** ([`lint`]) is a self-contained source analyzer
//! (token scanner; no rustc plugin, no network) that fails, across the
//! workspace, on a `pub` item nothing outside its crate names
//! (`crate-pub`: it must be `pub(crate)`, so rustc's `dead_code` sees
//! it), on a module nothing reaches (`dead-mod`) and on a dependency no
//! source names (`unused-dep`). A finding is fixed, never suppressed.
//! Allocation on the delivery path is held by counted budgets, one test
//! binary per crate over `odp_sim::alloc`. No `unwrap()`/`expect()` in
//! protocol code, no wall-clock read and no iteration over
//! `HashMap`/`HashSet` are clippy's: it sees types (the root
//! `clippy.toml` and CI's `lint` job).
//!
//! **The schedule explorer** ([`explore`]) drives the simulator through
//! a bounded DFS over message-delivery permutations, checking
//! [`explore::Invariant`]s after every event and at quiescence.
//! Counterexamples are `(seed, choice-sequence)` pairs that replay
//! exactly. The [`invariants`] module wires invariants and harnesses
//! for the protocol subsystems: two-phase-locking consistency and
//! deadlock-victim liveness, group-communication ordering, OT/dOPT
//! convergence, and trader cache coherence under shard churn.
//! [`suites`] registers each (harness, invariants, fingerprint) triple
//! once, for the CLI and the known-bad tests alike.
//!
//! Run both from the workspace root:
//!
//! ```text
//! cargo run -p odp-check -- lint
//! cargo run -p odp-check -- explore --smoke
//! cargo run -p odp-check -- replay <CHECK> <seed:c0.c1...> [--smoke|--deep]
//! ```

pub mod explore;
pub mod invariants;
pub mod lint;
pub mod suites;

pub use explore::{Budget, Counterexample, Explorer, Invariant, Report};
pub use lint::Diagnostic;
