//! The workspace lint pass.
//!
//! A self-contained source-level analyzer: no rustc plugin, no network
//! access, no syn — just the [`scanner`] token stream and three
//! workspace-wide rules in [`surface`] (`crate-pub`, `dead-mod`,
//! `unused-dep`). The pass scans every `.rs` file under
//! `surface::USER_DIRS` and reports `file:line` diagnostics. A finding
//! is fixed, never suppressed: there is no allow-comment. Anything it
//! prints is a build-gate failure in CI. Allocation on the delivery
//! path is held by the allocation budgets (`odp_sim::alloc`), and
//! unwraps, wall-clock reads and hash-order iteration by clippy, which
//! sees types (the root `clippy.toml`).
pub mod scanner;
pub mod surface;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use surface::{Manifest, Source, USER_DIRS};

/// One reportable lint violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path relative to the lint root.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// The rule that fired.
    pub rule: &'static str,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Finds the workspace root by walking up from `start` until a
/// `Cargo.toml` containing `[workspace]` appears.
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collects every `.rs` file under the [`USER_DIRS`] of `root`, sorted
/// for deterministic output. Third-party and build-output trees are
/// never read.
fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = USER_DIRS.iter().map(|d| root.join(d)).collect();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !matches!(name.as_str(), "vendor" | "target" | ".git") {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Lints an already-scanned workspace: `crate-pub` and `dead-mod`
/// across its sources, and `unused-dep` on `manifests`. Diagnostics
/// come sorted by path then line, manifests last.
pub(crate) fn lint_workspace(sources: &[Source], manifests: &[Manifest]) -> Vec<Diagnostic> {
    let mut out = surface::crate_pub(sources);
    out.extend(surface::dead_mod(sources));
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out.extend(surface::unused_deps(manifests, sources));
    out
}

/// Lints the workspace at `root`: its sources and the manifests of the
/// root package and every `crates/*` package.
pub fn run(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut sources = Vec::new();
    for path in collect_sources(root) {
        let src = fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        sources.push(Source {
            rel,
            scanned: scanner::scan(&src),
        });
    }
    let mut manifests = vec![PathBuf::from("Cargo.toml")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let crates = entries.flatten().map(|e| e.path().join("Cargo.toml"));
        manifests.extend(crates.filter_map(|m| Some(m.strip_prefix(root).ok()?.to_path_buf())));
    }
    manifests.sort();
    let manifests: Vec<Manifest> = manifests
        .into_iter()
        .filter_map(|rel| {
            let text = fs::read_to_string(root.join(&rel)).ok()?;
            Some(Manifest { rel, text })
        })
        .collect();
    Ok(lint_workspace(&sources, &manifests))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pass over one crate source.
    fn lint_source(rel: &str, src: &str) -> Vec<Diagnostic> {
        let source = Source {
            rel: PathBuf::from(rel),
            scanned: scanner::scan(src),
        };
        lint_workspace(&[source], &[])
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   pub fn helper() {}\n\
                   }\n";
        let d = lint_source("crates/x/src/lib.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn diagnostics_have_file_line_shape() {
        let d = lint_source("crates/x/src/lib.rs", "pub fn lonely() {}\n");
        assert_eq!(d.len(), 1);
        let shown = d[0].to_string();
        assert!(
            shown.starts_with("crates/x/src/lib.rs:1: [crate-pub]"),
            "{shown}"
        );
    }
}
