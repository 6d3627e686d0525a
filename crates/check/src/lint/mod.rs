//! The workspace lint pass.
//!
//! A self-contained source-level analyzer: no rustc plugin, no network
//! access, no syn — just the [`scanner`] token stream, the per-file
//! `hot-path-alloc` rule in [`rules`], and the workspace-wide
//! [`surface`] rules (`crate-pub`, `dead-mod`, `unused-dep`). The pass
//! scans every `.rs` file under `surface::USER_DIRS`, runs the
//! per-file rule on crate sources (skipping test/example/bench/vendor
//! code), applies `// odp-check: allow(<rule>)` comments, and reports
//! `file:line` diagnostics. Anything it prints is a build-gate failure
//! in CI. Unwraps, wall-clock reads and hash-order iteration are left
//! to clippy, which sees types (the root `clippy.toml`).
pub mod rules;
pub mod scanner;
pub mod surface;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use rules::{Finding, RULES, RULE_UNUSED_ALLOW};
use surface::{Manifest, Source, USER_DIRS};

/// One reportable lint violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path relative to the lint root.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// The rule that fired.
    pub rule: String,
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

/// Directory names whose subtrees the per-file rules skip: tests/,
/// examples/ and benches/ are exempt by the rules' own definition, and
/// benchmark/ is the standalone measuring package (`odpbench`), whose
/// job is reading the wall clock and which aborts the run on a failed
/// audit by design, like benches/. `crate-pub` still reads their files
/// as users of the public surface.
pub(crate) const SKIP_DIRS: &[&str] = &["tests", "examples", "benches", "benchmark"];

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

/// Applies allow-comments to one file's raw findings and reports the
/// survivors plus every allow that suppressed nothing. Findings in test
/// code are dropped first, so an allow that only they would use is
/// reported as stale.
fn lint_file(rel: &Path, scanned: &scanner::ScannedFile, raw: Vec<Finding>) -> Vec<Diagnostic> {
    let findings = raw.into_iter().filter(|f| !scanned.in_test_code(f.line));

    // Apply allows: a finding on a covered line with a matching rule is
    // suppressed; each allow must suppress at least one finding.
    let mut used = vec![false; scanned.allows.len()];
    let mut out: Vec<Diagnostic> = Vec::new();
    for f in findings {
        let suppressed = scanned.allows.iter().enumerate().any(|(i, a)| {
            let hit = a.covers.contains(&f.line) && a.rules.iter().any(|r| r == f.rule);
            if hit {
                used[i] = true;
            }
            hit
        });
        if !suppressed {
            out.push(Diagnostic {
                file: rel.to_path_buf(),
                line: f.line,
                rule: f.rule.to_string(),
                message: f.message,
            });
        }
    }
    for (i, a) in scanned.allows.iter().enumerate() {
        for r in &a.rules {
            if !RULES.contains(&r.as_str()) {
                out.push(Diagnostic {
                    file: rel.to_path_buf(),
                    line: a.line,
                    rule: RULE_UNUSED_ALLOW.to_string(),
                    message: format!(
                        "unknown rule `{r}` in allow-comment (known: {})",
                        RULES.join(", ")
                    ),
                });
            }
        }
        if !used[i] && !scanned.in_test_code(a.line) {
            out.push(Diagnostic {
                file: rel.to_path_buf(),
                line: a.line,
                rule: RULE_UNUSED_ALLOW.to_string(),
                message: "allow-comment suppressed nothing; remove it".to_string(),
            });
        }
    }
    out.sort_by_key(|d| d.line);
    out
}

/// Lints an already-scanned workspace: the per-file rules on every
/// source outside [`SKIP_DIRS`], `crate-pub` and `dead-mod` across all
/// of them, and `unused-dep` on `manifests`. Diagnostics come sorted by
/// path then line, manifests last.
pub(crate) fn lint_workspace(sources: &[Source], manifests: &[Manifest]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let dead = surface::crate_pub(sources)
        .into_iter()
        .zip(surface::dead_mod(sources));
    for (s, (mut raw, mods)) in sources.iter().zip(dead) {
        let skipped = s
            .rel
            .components()
            .any(|c| SKIP_DIRS.iter().any(|d| c.as_os_str() == *d));
        if skipped {
            continue;
        }
        raw.extend(mods);
        raw.extend(rules::hot_alloc_rule(&s.scanned));
        raw.sort_by_key(|f| f.line);
        out.extend(lint_file(&s.rel, &s.scanned, raw));
    }
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

    /// The per-file rule on one file, as [`lint_workspace`] runs it.
    fn lint_source(rel: &Path, src: &str) -> Vec<Diagnostic> {
        let scanned = scanner::scan(src);
        let raw = rules::hot_alloc_rule(&scanned);
        lint_file(rel, &scanned, raw)
    }

    #[test]
    fn allow_suppresses_and_is_marked_used() {
        let src = "fn on_message(&mut self, m: &str) {\n\
                   // odp-check: allow(hot-path-alloc)\n\
                   self.log.push(m.to_string());\n\
                   }\n";
        let d = lint_source(Path::new("a.rs"), src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn trailing_allow_on_same_line_works() {
        let src =
            "fn publish(m: &str) { keep(m.to_owned()) } // odp-check: allow(hot-path-alloc)\n";
        let d = lint_source(Path::new("a.rs"), src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// odp-check: allow(hot-path-alloc)\nfn on_message() {}\n";
        let d = lint_source(Path::new("a.rs"), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unused-allow");
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let src = "// odp-check: allow(nonsense)\nfn publish(m: &str) { keep(m.to_owned()); }\n";
        let d = lint_source(Path::new("a.rs"), src);
        assert!(d.iter().any(|d| d.rule == "unused-allow"));
        assert!(d.iter().any(|d| d.rule == "hot-path-alloc"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn on_message(m: &str) { keep(format!(\"{m}\")); }\n\
                   }\n";
        let d = lint_source(Path::new("a.rs"), src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn diagnostics_have_file_line_shape() {
        let src = "fn deliver(m: &str) { keep(m.to_vec()); }\n";
        let d = lint_source(Path::new("crates/x/src/lib.rs"), src);
        assert_eq!(d.len(), 1);
        let shown = d[0].to_string();
        assert!(
            shown.starts_with("crates/x/src/lib.rs:1: [hot-path-alloc]"),
            "{shown}"
        );
    }
}
