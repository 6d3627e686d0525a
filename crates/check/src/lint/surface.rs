//! The workspace-wide rules: `dead-pub` and `unused-dep`.
//!
//! The content rules in [`crate::lint::rules`] read one file at a time.
//! These two read the whole workspace, because a public item or a
//! dependency is dead only when *no* file names it:
//!
//! - **`dead-pub`**: a `pub` fn, const or static (free or in an inherent
//!   `impl`) under `crates/*/src` that no token names outside its own
//!   declaration and its own file's `#[cfg(test)]` code. Every `.rs`
//!   file under [`USER_DIRS`] is a possible user. Comments and literal
//!   contents do not count: the scanner strips them. `pub(crate)` and
//!   private items are rustc's `dead_code` job and are out of scope.
//!   The match is by name, so an item that shares its name with
//!   anything else in the workspace is never flagged; what the rule
//!   misses is recall, never a false alarm on a named item.
//! - **`unused-dep`**: a `[dependencies]` or `[dev-dependencies]` entry
//!   of a workspace package (the root and `crates/*`) whose crate name
//!   no source of that package names.
//!
//! A kept `dead-pub` item carries `// odp-check: allow(dead-pub) —
//! <reason>` on the line above its `pub`; the `unused-allow` rule then
//! reports the comment once the item gains a caller. An unused
//! dependency has no allow: it is deleted.

use std::collections::BTreeMap;
use std::path::{Component, Path, PathBuf};

use crate::lint::rules::{Finding, RULE_DEAD_PUB, RULE_UNUSED_DEP};
use crate::lint::scanner::ScannedFile;
use crate::lint::Diagnostic;

/// The top-level directories whose `.rs` files count as users of the
/// public surface: the crates, the umbrella's `src/`, the workspace
/// tests and examples, and the standalone `benchmark/` package.
pub const USER_DIRS: &[&str] = &["crates", "src", "tests", "examples", "benchmark"];

/// The target directories cargo discovers inside a package: a file
/// under one of them is that package's source.
const TARGET_DIRS: &[&str] = &["src", "tests", "examples", "benches"];

/// One scanned workspace source file.
pub struct Source {
    /// Path relative to the workspace root.
    pub rel: PathBuf,
    /// The scanner's view of it.
    pub scanned: ScannedFile,
}

/// One package manifest.
pub struct Manifest {
    /// Path of the `Cargo.toml`, relative to the workspace root.
    pub rel: PathBuf,
    /// Its text.
    pub text: String,
}

fn components(rel: &Path) -> Vec<&str> {
    rel.components()
        .filter_map(|c| match c {
            Component::Normal(s) => s.to_str(),
            _ => None,
        })
        .collect()
}

/// Whether `rel` is library or binary source of a crate: its `pub`
/// items are the surface `dead-pub` audits.
fn declares_surface(rel: &Path) -> bool {
    let parts = components(rel);
    parts.len() > 3 && parts[0] == "crates" && parts[2] == "src"
}

/// Token indices of the names of every `pub` fn, const and static the
/// file declares outside test code.
fn pub_decls(file: &ScannedFile) -> Vec<usize> {
    let toks = &file.tokens;
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if text(i) != "pub" || text(i + 1) == "(" || file.in_test_code(toks[i].line) {
            continue;
        }
        let mut j = i + 1;
        let name = loop {
            match text(j) {
                "fn" => break Some(j + 1),
                "static" if text(j + 1) == "mut" => break Some(j + 2),
                "static" => break Some(j + 1),
                "const" if !matches!(text(j + 1), "fn" | "async" | "unsafe" | "extern") => {
                    break Some(j + 1)
                }
                // Qualifiers (`const fn`, `unsafe fn`, `extern "C" fn`).
                "const" | "async" | "unsafe" | "extern" | "\"" => j += 1,
                _ => break None,
            }
        };
        if let Some(n) = name.filter(|&n| toks.get(n).is_some_and(|t| t.is_word() && t.text != "_"))
        {
            out.push(n);
        }
    }
    out
}

/// The `dead-pub` rule over every source, returning each source's raw
/// findings (same order as `sources`), ready for allow-comments.
pub fn dead_pub(sources: &[Source]) -> Vec<Vec<Finding>> {
    let decls: Vec<Vec<usize>> = sources
        .iter()
        .map(|s| {
            if declares_surface(&s.rel) {
                pub_decls(&s.scanned)
            } else {
                Vec::new()
            }
        })
        .collect();
    // Every word token that is not itself a `pub` declaration's name.
    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    for (s, d) in sources.iter().zip(&decls) {
        for (i, t) in s.scanned.tokens.iter().enumerate() {
            if t.is_word() && d.binary_search(&i).is_err() {
                *uses.entry(t.text.as_str()).or_default() += 1;
            }
        }
    }
    sources
        .iter()
        .zip(&decls)
        .map(|(s, d)| {
            let toks = &s.scanned.tokens;
            d.iter()
                .filter_map(|&n| {
                    let name = toks[n].text.as_str();
                    let own_tests = toks
                        .iter()
                        .enumerate()
                        .filter(|&(i, t)| {
                            t.text == name
                                && s.scanned.in_test_code(t.line)
                                && d.binary_search(&i).is_err()
                        })
                        .count();
                    let users = uses.get(name).copied().unwrap_or(0) - own_tests;
                    (users == 0).then(|| Finding {
                        rule: RULE_DEAD_PUB,
                        line: toks[n].line,
                        message: format!(
                            "`pub` item `{name}` is named nowhere outside its declaration \
                             and this file's tests; delete it, or keep it with \
                             `// odp-check: allow(dead-pub) — <reason>`"
                        ),
                    })
                })
                .collect()
        })
        .collect()
}

/// The dependency entries of one manifest: (crate name as sources
/// spell it, 1-based line).
fn dependencies(text: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']').trim();
            in_deps = false;
            for table in ["dependencies", "dev-dependencies"] {
                if header == table {
                    in_deps = true;
                } else if let Some(key) =
                    header.strip_prefix(table).and_then(|k| k.strip_prefix('.'))
                {
                    out.push((key.replace('-', "_"), n + 1));
                }
            }
            continue;
        }
        if !in_deps {
            continue;
        }
        let key = line.split(['=', '.']).next().unwrap_or("").trim();
        if !key.is_empty() {
            out.push((key.replace('-', "_"), n + 1));
        }
    }
    out
}

/// The `unused-dep` rule: every dependency of a manifest in `manifests`
/// whose crate name no source of that package names.
pub fn unused_deps(manifests: &[Manifest], sources: &[Source]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for m in manifests {
        let dir = m.rel.parent().unwrap_or(Path::new(""));
        let own: Vec<&Source> = sources
            .iter()
            .filter(|s| {
                s.rel
                    .strip_prefix(dir)
                    .ok()
                    .and_then(|r| components(r).first().copied())
                    .is_some_and(|top| TARGET_DIRS.contains(&top))
            })
            .collect();
        for (name, line) in dependencies(&m.text) {
            let named = own
                .iter()
                .any(|s| s.scanned.tokens.iter().any(|t| t.text == name));
            if !named {
                out.push(Diagnostic {
                    file: m.rel.clone(),
                    line,
                    rule: RULE_UNUSED_DEP.to_string(),
                    message: format!(
                        "dependency `{name}` is named by none of this package's sources; \
                         delete the entry"
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint_workspace;
    use crate::lint::scanner::scan;

    fn source(rel: &str, src: &str) -> Source {
        Source {
            rel: PathBuf::from(rel),
            scanned: scan(src),
        }
    }

    fn lint(sources: &[Source]) -> Vec<Diagnostic> {
        lint_workspace(sources, &[])
    }

    const LIB: &str = "pub struct Table;\n\
                       impl Table {\n    \
                           pub fn queue_len(&self) -> usize { 0 }\n\
                       }\n\
                       #[cfg(test)]\n\
                       mod tests {\n    \
                           #[test]\n    \
                           fn len() { assert_eq!(super::Table.queue_len(), 0); }\n\
                       }\n";

    #[test]
    fn a_pub_fn_named_only_in_its_own_tests_is_flagged_at_its_line() {
        let d = lint(&[source("crates/locks/src/lib.rs", LIB)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_DEAD_PUB);
        assert!(
            d[0].to_string()
                .starts_with("crates/locks/src/lib.rs:3: [dead-pub]"),
            "{}",
            d[0]
        );
    }

    #[test]
    fn a_caller_in_another_crates_tests_or_the_benchmark_keeps_it() {
        for user in [
            "crates/other/tests/it.rs",
            "benchmark/src/workloads/locks.rs",
        ] {
            let d = lint(&[
                source("crates/locks/src/lib.rs", LIB),
                source(user, "fn f(t: &Table) -> usize { t.queue_len() }\n"),
            ]);
            assert!(d.is_empty(), "{user}: {d:?}");
        }
    }

    #[test]
    fn a_name_in_a_comment_doc_comment_or_string_is_not_a_use() {
        let user = "// queue_len is handy\n\
                    /// Calls `queue_len`.\n\
                    fn f() -> &'static str { \"queue_len\" }\n\
                    /* queue_len */\n";
        let d = lint(&[
            source("crates/locks/src/lib.rs", LIB),
            source("src/lib.rs", user),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_DEAD_PUB);
    }

    #[test]
    fn consts_statics_and_qualified_fns_are_declarations() {
        let src = "pub const LIMIT: u32 = 1;\n\
                   pub static mut COUNT: u32 = 0;\n\
                   pub const fn double(x: u32) -> u32 { x * 2 }\n\
                   pub(crate) fn private_to_rustc() {}\n\
                   pub struct NotAnItemHere;\n";
        let d = lint(&[source("crates/x/src/lib.rs", src)]);
        let lines: Vec<usize> = d.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![1, 2, 3], "{d:?}");
    }

    #[test]
    fn an_allow_suppresses_it_and_goes_stale_once_the_item_has_a_caller() {
        let kept = "pub struct Table;\n\
                    impl Table {\n    \
                        // odp-check: allow(dead-pub) — requirement 3 names it\n    \
                        pub fn queue_len(&self) -> usize { 0 }\n\
                    }\n";
        let alone = [source("crates/locks/src/lib.rs", kept)];
        assert!(lint(&alone).is_empty(), "{:?}", lint(&alone));
        let called = [
            source("crates/locks/src/lib.rs", kept),
            source("tests/it.rs", "fn f(t: &Table) { t.queue_len(); }\n"),
        ];
        let d = lint(&called);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "unused-allow");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn outside_crate_sources_nothing_is_a_declaration() {
        let pub_in_tests = "pub fn helper() {}\n";
        for rel in [
            "tests/common.rs",
            "crates/x/tests/common.rs",
            "benchmark/src/lib.rs",
        ] {
            assert!(lint(&[source(rel, pub_in_tests)]).is_empty(), "{rel}");
        }
    }

    #[test]
    fn an_unnamed_dependency_is_flagged_and_a_bare_path_counts_as_a_name() {
        let manifest = Manifest {
            rel: PathBuf::from("crates/place/Cargo.toml"),
            text: "[package]\nname = \"odp-place\"\n\n\
                   [dependencies]\n\
                   odp-sim.workspace = true\n\
                   odp-groupcomm = { path = \"../groupcomm\" }\n\
                   # odp-net is a comment, not an entry\n\
                   \n[dev-dependencies]\n\
                   proptest.workspace = true\n"
                .to_string(),
        };
        let sources = [
            source(
                "crates/place/src/lib.rs",
                "fn t() -> odp_sim::SimTime { odp_sim::SimTime::ZERO }\n\
                 // odp_groupcomm is only mentioned\n",
            ),
            source("crates/place/tests/p.rs", "proptest::proptest! {}\n"),
            // Another package naming it does not count.
            source("crates/other/src/lib.rs", "use odp_groupcomm::Group;\n"),
        ];
        let d = unused_deps(&[manifest], &sources);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_UNUSED_DEP);
        assert_eq!(d[0].line, 6);
        assert!(d[0].message.contains("odp_groupcomm"), "{}", d[0]);
    }

    #[test]
    fn the_root_package_owns_only_its_own_target_dirs() {
        let root = || Manifest {
            rel: PathBuf::from("Cargo.toml"),
            text: "[dependencies]\nodp-net.workspace = true\n".to_string(),
        };
        let elsewhere = [source("crates/x/src/lib.rs", "use odp_net::Frame;\n")];
        assert_eq!(unused_deps(&[root()], &elsewhere).len(), 1);
        let own = [source("src/lib.rs", "pub use odp_net as net;\n")];
        assert!(unused_deps(&[root()], &own).is_empty());
    }
}
