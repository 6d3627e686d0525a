//! The determinism lint is clean on the workspace itself.
//!
//! `odp-check lint` is a CI step, but a step in a workflow file only
//! fails where that workflow runs: the pass sat red for five PRs
//! (`benchmark/` was scanned as protocol code) while `cargo test -q`
//! stayed green. This test is the same call the binary makes, so the
//! gate lives in tier-1.

use std::path::Path;

use odp_check::lint::{self, LintConfig};

#[test]
fn the_workspace_has_no_lint_findings() {
    let root = lint::workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("crates/check sits inside the workspace");
    let findings = lint::run(&root, &LintConfig::default()).expect("sources are readable");
    let shown: Vec<String> = findings.iter().map(ToString::to_string).collect();
    assert!(findings.is_empty(), "{}", shown.join("\n"));
}
