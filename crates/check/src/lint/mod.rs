//! The workspace determinism lint pass.
//!
//! A self-contained source-level analyzer: no rustc plugin, no network
//! access, no syn — just the [`scanner`] token stream and a handful of
//! project-specific [`rules`]. The driver walks every `.rs` file under
//! the workspace's crate source trees, skips test/example/bench/vendor
//! code, applies `// odp-check: allow(<rule>)` comments, and reports
//! `file:line` diagnostics. Anything it prints is a build-gate failure
//! in CI.

pub mod rules;
pub mod scanner;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use rules::{Finding, RULES, RULE_HOT_ALLOC, RULE_UNUSED_ALLOW, RULE_UNWRAP};

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

/// What to lint and what to skip.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Directory names whose entire subtree is skipped.
    pub skip_dirs: Vec<String>,
    /// Path prefixes (relative to the lint root) scoped out of the
    /// `unwrap` and `hot-path-alloc` rules: experiment drivers and
    /// benchmark harnesses abort the whole run on failure by design and
    /// allocate freely while staging scenarios — they are not protocol
    /// code, a panic there tears down nothing but the experiment itself,
    /// and their allocations are not on any measured delivery path (so
    /// a prefix must not take in code that is: list the harness
    /// directory, not its crate). The determinism rules (`wallclock`,
    /// `hashmap-iter`) still apply.
    pub harness_paths: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            // tests/, examples/ and benches/ are exempt by the rules'
            // own definition; benchmark/ is the standalone measuring
            // package (`odpbench`): reading the wall clock is its job and
            // it aborts the run on a failed audit by design, like
            // benches/; vendor/ is third-party; target/ is build output.
            skip_dirs: [
                "tests",
                "examples",
                "benches",
                "benchmark",
                "vendor",
                "target",
                ".git",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            // The experiments directory of cscw-core hosts the scripted
            // experiment drivers (the rest of the crate — workspace,
            // replicas, sessions — is delivery-path code and is linted
            // in full); odp-bench is the measurement harness; the
            // invariants directory holds the explorer's scenario
            // harnesses (bus replicas, scripted races) whose
            // construction aborts the check run by design.
            harness_paths: [
                "crates/core/src/experiments",
                "crates/bench",
                "crates/check/src/invariants",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        }
    }
}

impl LintConfig {
    /// Whether `rule` is in scope for the file at `rel`.
    pub fn rule_applies(&self, rel: &Path, rule: &str) -> bool {
        (rule != RULE_UNWRAP && rule != RULE_HOT_ALLOC)
            || !self.harness_paths.iter().any(|p| rel.starts_with(p))
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

/// Collects the `.rs` files to lint under `root`, sorted for
/// deterministic output.
pub fn collect_files(root: &Path, config: &LintConfig) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if config.skip_dirs.contains(&name) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Lints one file's source text. `rel` is the path used in diagnostics.
pub fn lint_source(rel: &Path, src: &str) -> Vec<Diagnostic> {
    let scanned = scanner::scan(src);
    let findings: Vec<Finding> = rules::run_all(&scanned)
        .into_iter()
        .filter(|f| !scanned.in_test_code(f.line))
        .collect();

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

/// Lints every source file under `root` and returns the diagnostics,
/// sorted by path then line.
pub fn run(root: &Path, config: &LintConfig) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for path in collect_files(root, config) {
        let src = fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        out.extend(
            lint_source(&rel, &src)
                .into_iter()
                .filter(|d| config.rule_applies(&rel, &d.rule)),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_suppresses_and_is_marked_used() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // odp-check: allow(unwrap)\n\
                   x.unwrap()\n\
                   }\n";
        let d = lint_source(Path::new("a.rs"), src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn trailing_allow_on_same_line_works() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // odp-check: allow(unwrap)\n";
        let d = lint_source(Path::new("a.rs"), src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// odp-check: allow(unwrap)\nfn f() {}\n";
        let d = lint_source(Path::new("a.rs"), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unused-allow");
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let src = "// odp-check: allow(nonsense)\nfn f(x: Option<u32>) { x.unwrap(); }\n";
        let d = lint_source(Path::new("a.rs"), src);
        assert!(d.iter().any(|d| d.rule == "unused-allow"));
        assert!(d.iter().any(|d| d.rule == "unwrap"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn f(x: Option<u32>) { x.unwrap(); }\n\
                   }\n";
        let d = lint_source(Path::new("a.rs"), src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn harness_paths_are_scoped_out_of_unwrap_and_hot_alloc_only() {
        let config = LintConfig::default();
        let harness = Path::new("crates/core/src/experiments/media.rs");
        let protocol = Path::new("crates/groupcomm/src/rpc.rs");
        assert!(!config.rule_applies(harness, "unwrap"));
        assert!(!config.rule_applies(harness, "hot-path-alloc"));
        assert!(config.rule_applies(harness, "hashmap-iter"));
        assert!(config.rule_applies(harness, "wallclock"));
        assert!(config.rule_applies(protocol, "unwrap"));
        assert!(config.rule_applies(protocol, "hot-path-alloc"));
        // Only the experiment drivers of cscw-core are harness code; the
        // workspace and its replicas are `group_edit`'s delivery path.
        let delivery_path = Path::new("crates/core/src/workspace.rs");
        assert!(config.rule_applies(delivery_path, "unwrap"));
        assert!(config.rule_applies(delivery_path, "hot-path-alloc"));
        // The explorer's scenario harnesses are harness code too, but
        // the bus protocol module they exercise is not.
        let invariant_harness = Path::new("crates/check/src/invariants/awareness.rs");
        let bus_protocol = Path::new("crates/awareness/src/dist.rs");
        assert!(!config.rule_applies(invariant_harness, "unwrap"));
        assert!(config.rule_applies(invariant_harness, "wallclock"));
        assert!(config.rule_applies(bus_protocol, "unwrap"));
    }

    #[test]
    fn diagnostics_have_file_line_shape() {
        let src = "fn f(x: Option<u32>) { x.unwrap(); }\n";
        let d = lint_source(Path::new("crates/x/src/lib.rs"), src);
        assert_eq!(d.len(), 1);
        let shown = d[0].to_string();
        assert!(
            shown.starts_with("crates/x/src/lib.rs:1: [unwrap]"),
            "{shown}"
        );
    }
}
