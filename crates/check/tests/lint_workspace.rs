//! The workspace lint (crate-private surface, dead modules, unused
//! dependencies) is clean on the workspace itself.
//!
//! `odp-check lint` is a CI step, but a step in a workflow file only
//! fails where that workflow runs: the pass sat red for five PRs
//! (`benchmark/` was scanned as protocol code) while `cargo test -q`
//! stayed green. This test is the same call the binary makes, so the
//! gate lives in tier-1.
//!
//! `crate-pub` only makes an item `pub(crate)`; deleting what is then
//! dead is rustc's half of the gate. It runs in CI, not here: the
//! workflow builds and tests with `RUSTFLAGS: -D warnings` and runs
//! `cargo clippy --workspace --all-targets -- -D warnings`, so a
//! `dead_code` or `private_interfaces` warning fails it. Tier-1's plain
//! `cargo test -q` only prints such warnings.
//!
//! Allocation on the delivery path is not here either: each crate's
//! `tests/alloc_budget.rs` holds its hot paths to counted budgets.
//!
//! The determinism lints (no unwrap/expect, wall-clock read or
//! hash-order iteration in non-test code) are not here: clippy carries
//! them, and they gate in CI's `lint` job (`cargo clippy --workspace
//! --lib --bins -- -D warnings -D clippy::unwrap_used -D
//! clippy::expect_used -D clippy::iter_over_hash_type`), not in tier-1.

use std::path::Path;

use odp_check::lint;

#[test]
fn the_workspace_has_no_lint_findings() {
    let root = lint::workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("crates/check sits inside the workspace");
    let findings = lint::run(&root).expect("sources are readable");
    let shown: Vec<String> = findings.iter().map(ToString::to_string).collect();
    assert!(findings.is_empty(), "{}", shown.join("\n"));
}
