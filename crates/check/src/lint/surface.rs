//! The workspace-wide rules: `dead-pub`, `dead-mod` and `unused-dep`.
//!
//! The content rules in [`crate::lint::rules`] read one file at a time.
//! These three read the whole workspace, because a public item, a module
//! or a dependency is dead only when *no* file names it. Every `.rs` file
//! under [`USER_DIRS`] is a possible user. All three read the scanner's
//! token stream, so comments and literal contents never count as a use.
//!
//! - **`dead-pub`**: a `pub` fn, const or static (free or in an inherent
//!   `impl`) under `crates/*/src` that no token names outside its own
//!   declaration and its own file's `#[cfg(test)]` code.
//!   - *Sees:* every bare word, in any file, with that name.
//!   - *Cannot see:* which item a word refers to. The match is by name,
//!     so an item that shares its name with anything else in the
//!     workspace (a local variable, a method of another type) is never
//!     flagged; what the rule misses is recall, never a false alarm on a
//!     named item. Types, traits and `pub(crate)` or private items are
//!     out of scope (the last two are rustc's `dead_code` job).
//! - **`dead-mod`**: a `pub mod m;` under `crates/*/src` that nothing
//!   outside the module's own file or directory reaches. A file reaches
//!   `m` when it names the path `m::`, or names an item that the
//!   declaring file re-exports from `m` (`pub use m::{A, B as C}` gives
//!   `A` and `C`; a glob gives every `pub` item of `m`'s file). The
//!   declaring file's `pub use` statements themselves do not count.
//!   - *Sees:* module paths, which local names rarely collide with, so a
//!     module whose functions share names with variables elsewhere (a
//!     `sites` helper beside `let sites = …`) is still flagged.
//!   - *Cannot see:* which module a path segment refers to. Any `m::`
//!     keeps every module called `m`, and a re-exported name keeps its
//!     module wherever that word appears. Inline modules
//!     (`pub mod prelude { … }`) and `#[path]` attributes are not
//!     audited.
//! - **`unused-dep`**: a `[dependencies]` or `[dev-dependencies]` entry
//!   of a workspace package (the root and `crates/*`) whose crate name
//!   no source of that package names.
//!   - *Sees:* every word in the package's `src/`, `tests/`, `examples/`
//!     and `benches/` files, matched against the entry's key with `-`
//!     read as `_`.
//!   - *Cannot see:* whether the word is the crate. A local or a module
//!     spelt like the crate keeps the entry, and a `build.rs` is not
//!     read.
//!
//! `// odp-check: allow(dead-pub) — <reason>` on the line above a `pub`
//! (`allow(dead-mod)` above a `pub mod`) suppresses a finding, and the
//! `unused-allow` rule reports the comment once the item gains a caller.
//! The workspace keeps none outside this module's fixtures (CI greps for
//! one): what the rules find is deleted. An unused dependency has no
//! allow at all.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Range, RangeInclusive};
use std::path::{Component, Path, PathBuf};

use crate::lint::rules::{Finding, RULE_DEAD_MOD, RULE_DEAD_PUB, RULE_UNUSED_DEP};
use crate::lint::scanner::{ScannedFile, Token};
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

/// The keyword and name token index of the `pub` item whose `pub` is
/// token `i`: `pub [const|async|unsafe|extern "C"] fn f`, `pub static
/// [mut] S`, `pub const C`, `pub struct T`, and so on. `pub(crate)`
/// items, `pub use` and `pub` fields are not items here.
fn pub_item(toks: &[Token], i: usize) -> Option<(&str, usize)> {
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    if text(i) != "pub" || text(i + 1) == "(" {
        return None;
    }
    let mut j = i + 1;
    let name = loop {
        match text(j) {
            "fn" | "struct" | "enum" | "trait" | "type" | "union" | "mod" => break j + 1,
            "static" if text(j + 1) == "mut" => break j + 2,
            "static" => break j + 1,
            "const" if !matches!(text(j + 1), "fn" | "async" | "unsafe" | "extern") => break j + 1,
            // Qualifiers (`const fn`, `unsafe fn`, `extern "C" fn`).
            "const" | "async" | "unsafe" | "extern" | "\"" => j += 1,
            _ => return None,
        }
    };
    toks.get(name)
        .is_some_and(|t| t.is_word() && t.text != "_")
        .then(|| (text(j), name))
}

/// Token indices of the names of every `pub` fn, const and static the
/// file declares outside test code.
fn pub_decls(file: &ScannedFile) -> Vec<usize> {
    let toks = &file.tokens;
    (0..toks.len())
        .filter(|&i| !file.in_test_code(toks[i].line))
        .filter_map(|i| pub_item(toks, i))
        .filter(|(kw, _)| matches!(*kw, "fn" | "const" | "static"))
        .map(|(_, n)| n)
        .collect()
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

/// Whether the tokens at `i` are a path segment: `name` then `::`.
fn is_path_segment(toks: &[Token], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|t| t.text == ":") && toks.get(i + 2).is_some_and(|t| t.text == ":")
}

/// Token index ranges (`pub` to `;`, inclusive) of every `pub use`
/// statement in the file.
fn pub_use_spans(toks: &[Token]) -> Vec<RangeInclusive<usize>> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text == "pub" && toks.get(i + 1).is_some_and(|t| t.text == "use") {
            let end = (i..toks.len()).find(|&j| toks[j].text == ";");
            out.push(i..=end.unwrap_or(toks.len() - 1));
        }
    }
    out
}

/// The leaves of the use (sub)tree in `toks[range]`: each name not
/// followed by `::` (the alias, after `as`), and `*` for a glob.
fn use_leaves(toks: &[Token], range: Range<usize>) -> Vec<&str> {
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    range
        .filter(|&i| match text(i) {
            "*" => true,
            "as" | "self" | "crate" | "super" => false,
            _ => toks[i].is_word() && !matches!(text(i + 1), ":" | "as"),
        })
        .map(text)
        .collect()
}

/// What the `pub use` statements at `spans` re-export from module
/// `name`: the leaves of each subtree rooted at a `name::` segment.
fn reexports_from<'a>(
    toks: &'a [Token],
    spans: &[RangeInclusive<usize>],
    name: &str,
) -> Vec<&'a str> {
    let mut out = Vec::new();
    for span in spans {
        for k in span.clone() {
            if toks[k].text != name || !is_path_segment(toks, k) {
                continue;
            }
            // The subtree after `name::` ends at the first `,` outside
            // its braces, or at the statement's `;`.
            let start = k + 3;
            let mut depth = 0usize;
            let end = (start..*span.end())
                .find(|&j| match toks[j].text.as_str() {
                    "{" => {
                        depth += 1;
                        false
                    }
                    "}" => {
                        depth = depth.saturating_sub(1);
                        false
                    }
                    t => t == "," && depth == 0,
                })
                .unwrap_or(*span.end());
            out.extend(use_leaves(toks, start..end));
        }
    }
    out
}

/// Names of every `pub` item a module file declares or re-exports
/// outside test code: what a glob re-export of it brings in.
fn pub_item_names(file: &ScannedFile) -> Vec<&str> {
    let toks = &file.tokens;
    let declared = (0..toks.len())
        .filter(|&i| !file.in_test_code(toks[i].line))
        .filter_map(|i| pub_item(toks, i))
        .map(|(_, n)| toks[n].text.as_str());
    let reexported = pub_use_spans(toks)
        .into_iter()
        .flat_map(|span| use_leaves(toks, *span.start() + 2..*span.end()));
    declared.chain(reexported).filter(|&n| n != "*").collect()
}

/// Where the children of the module a file defines live: beside a
/// `lib.rs`, `main.rs` or `mod.rs`, else in the directory named after
/// the file.
fn child_dir(rel: &Path) -> PathBuf {
    let parent = rel.parent().unwrap_or(Path::new(""));
    match rel.file_stem().and_then(|s| s.to_str()) {
        Some("lib" | "main" | "mod") | None => parent.to_path_buf(),
        Some(stem) => parent.join(stem),
    }
}

/// One `pub mod m;` declaration and the words that would reach it.
struct ModDecl<'a> {
    /// Index of the declaring source.
    src: usize,
    /// The `pub mod` line.
    line: usize,
    name: &'a str,
    /// Names the declaring file re-exports from the module.
    reexports: Vec<&'a str>,
    /// The module's own file (`m.rs`) and directory (`m/`).
    own_file: PathBuf,
    own_dir: PathBuf,
}

/// The `dead-mod` rule over every source, returning each source's raw
/// findings (same order as `sources`), ready for allow-comments.
pub fn dead_mod(sources: &[Source]) -> Vec<Vec<Finding>> {
    let spans: Vec<Vec<RangeInclusive<usize>>> = sources
        .iter()
        .map(|s| pub_use_spans(&s.scanned.tokens))
        .collect();
    let mut decls = Vec::new();
    for (si, s) in sources.iter().enumerate() {
        if !declares_surface(&s.rel) {
            continue;
        }
        let toks = &s.scanned.tokens;
        for i in 0..toks.len() {
            let Some(("mod", n)) = pub_item(toks, i) else {
                continue;
            };
            if toks.get(n + 1).is_none_or(|t| t.text != ";") || s.scanned.in_test_code(toks[i].line)
            {
                continue;
            }
            let name = toks[n].text.as_str();
            let dir = child_dir(&s.rel);
            let own_file = dir.join(format!("{name}.rs"));
            let own_dir = dir.join(name);
            let mut reexports = Vec::new();
            for leaf in reexports_from(toks, &spans[si], name) {
                if leaf != "*" {
                    reexports.push(leaf);
                } else if let Some(m) = sources
                    .iter()
                    .find(|m| m.rel == own_file || m.rel == own_dir.join("mod.rs"))
                {
                    reexports.extend(pub_item_names(&m.scanned));
                }
            }
            decls.push(ModDecl {
                src: si,
                line: toks[i].line,
                name,
                reexports,
                own_file,
                own_dir,
            });
        }
    }
    // Every occurrence of a word some declaration could be reached by:
    // (source, token index).
    let wanted: BTreeSet<&str> = decls
        .iter()
        .flat_map(|d| d.reexports.iter().copied().chain([d.name]))
        .collect();
    let mut seen: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (si, s) in sources.iter().enumerate() {
        for (i, t) in s.scanned.tokens.iter().enumerate() {
            if wanted.contains(t.text.as_str()) {
                seen.entry(t.text.as_str()).or_default().push((si, i));
            }
        }
    }
    let mut out: Vec<Vec<Finding>> = sources.iter().map(|_| Vec::new()).collect();
    for d in &decls {
        // Not the module itself, nor its parent's `pub use` lines.
        let outside = |&&(si, i): &&(usize, usize)| {
            let rel = &sources[si].rel;
            *rel != d.own_file
                && !rel.starts_with(&d.own_dir)
                && (si != d.src || !spans[si].iter().any(|r| r.contains(&i)))
        };
        let occurrences = |w: &str| seen.get(w).into_iter().flatten().filter(outside);
        let by_path =
            occurrences(d.name).any(|&(si, i)| is_path_segment(&sources[si].scanned.tokens, i));
        let by_name = d.reexports.iter().any(|w| occurrences(w).next().is_some());
        if !by_path && !by_name {
            out[d.src].push(Finding {
                rule: RULE_DEAD_MOD,
                line: d.line,
                message: format!(
                    "`pub mod {}` is reached by nothing outside its own file: no `{}::` path \
                     and no use of a name re-exported from it; delete it, or keep it with \
                     `// odp-check: allow(dead-mod) — <reason>`",
                    d.name, d.name
                ),
            });
        }
    }
    out
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

    /// A crate root that declares `topology`, re-exports two of its
    /// items, and the module itself: a `sites` helper, a `Site` type,
    /// and a test that calls the helper.
    fn topology_crate(root: &str) -> [Source; 2] {
        let module = "pub struct Site;\n\
                      pub fn sites() -> Vec<Site> { Vec::new() }\n\
                      #[cfg(test)]\n\
                      mod tests {\n    \
                          #[test]\n    \
                          fn none() { assert!(super::sites().is_empty()); }\n\
                      }\n";
        [
            source("crates/net/src/lib.rs", root),
            source("crates/net/src/topology.rs", module),
        ]
    }

    const REEXPORTING_ROOT: &str = "pub mod topology;\n\
                                    pub use topology::{sites as all_sites, Site};\n";

    fn dead_mods(d: &[Diagnostic]) -> Vec<String> {
        d.iter()
            .filter(|d| d.rule == RULE_DEAD_MOD)
            .map(ToString::to_string)
            .collect()
    }

    #[test]
    fn a_module_reached_only_by_its_tests_and_its_parents_lines_is_flagged_at_its_pub_mod() {
        let [root, module] = topology_crate(REEXPORTING_ROOT);
        // A file inside the module's own directory is the module too.
        let child = source(
            "crates/net/src/topology/grid.rs",
            "fn g() -> Vec<crate::topology::Site> { crate::topology::sites() }\n",
        );
        let d = lint(&[root, module, child]);
        let found = dead_mods(&d);
        assert_eq!(found.len(), 1, "{d:?}");
        assert!(
            found[0].starts_with("crates/net/src/lib.rs:1: [dead-mod] `pub mod topology`"),
            "{}",
            found[0]
        );
    }

    #[test]
    fn an_outside_path_through_the_module_keeps_it() {
        let [root, module] = topology_crate("pub mod topology;\n");
        let user = source(
            "examples/campus.rs",
            "fn main() { let _ = odp_net::topology::sites(); }\n",
        );
        let d = lint(&[root, module, user]);
        assert!(dead_mods(&d).is_empty(), "{d:?}");
    }

    #[test]
    fn an_outside_use_of_a_reexported_name_keeps_it() {
        // Each user names an item only through the crate root: the
        // listed name, the alias, and a name a glob brings in.
        for (root, user) in [
            (REEXPORTING_ROOT, "use odp_net::Site;\n"),
            (REEXPORTING_ROOT, "fn f() { odp_net::all_sites(); }\n"),
            (
                "pub mod topology;\npub use topology::*;\n",
                "fn f() { odp_net::sites(); }\n",
            ),
        ] {
            let [root, module] = topology_crate(root);
            let d = lint(&[root, module, source("tests/it.rs", user)]);
            assert!(dead_mods(&d).is_empty(), "{user}: {d:?}");
        }
    }

    #[test]
    fn a_local_named_like_the_modules_fn_does_not_keep_it() {
        let [root, module] = topology_crate("pub mod topology;\n");
        let user = source(
            "crates/place/src/latency.rs",
            "fn spread() -> usize { let sites = 3; sites }\n",
        );
        let d = lint(&[root, module, user]);
        // The name match keeps `sites` alive for `dead-pub`; the path
        // match still finds the module unreached.
        assert!(d.iter().all(|d| d.rule != RULE_DEAD_PUB), "{d:?}");
        assert_eq!(dead_mods(&d).len(), 1, "{d:?}");
        // Nor does a sibling's item that shares the module's use tree.
        let [root, module] =
            topology_crate("pub mod topology;\npub use crate::{topology::Site, wire::Frame};\n");
        let user = source("tests/it.rs", "fn f(_: odp_net::Frame) {}\n");
        let d = lint(&[root, module, user]);
        assert_eq!(dead_mods(&d).len(), 1, "{d:?}");
    }

    #[test]
    fn an_allow_keeps_a_module_and_goes_stale_once_something_reaches_it() {
        let kept = "// odp-check: allow(dead-mod) — requirement 9 names it\npub mod topology;\n";
        // A bare `sites` keeps the fn for `dead-pub`, not the module.
        let local = || source("src/lib.rs", "fn f() -> u8 { let sites = 1; sites }\n");
        let [root, module] = topology_crate(kept);
        let alone = [root, module, local()];
        assert!(lint(&alone).is_empty(), "{:?}", lint(&alone));
        let [root, module] = topology_crate(kept);
        let user = source("tests/it.rs", "use odp_net::topology::Site;\n");
        let d = lint(&[root, module, local(), user]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "unused-allow");
        assert_eq!(d[0].line, 1);
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
