#![warn(missing_docs)]

//! # odp-check — correctness tooling for the CSCW/ODP workspace
//!
//! Two instruments, one goal: the workspace's determinism claim must be
//! *checkable*, not aspirational.
//!
//! **The lint pass** ([`lint`]) is a self-contained source analyzer
//! (token scanner; no rustc plugin, no network) enforcing three
//! project rules over every non-test crate source: no
//! `unwrap()`/`expect()` in protocol code, no wall-clock time or OS
//! randomness in sim-driven code, and no iteration over
//! `HashMap`/`HashSet` whose order could leak into messages. Findings
//! are suppressed per-site with `// odp-check: allow(<rule>)` comments,
//! and an allow that suppresses nothing is itself an error.
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
pub use lint::{Diagnostic, LintConfig};
