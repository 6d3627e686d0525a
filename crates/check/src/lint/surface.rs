//! The workspace-wide rules: `crate-pub`, `dead-mod` and `unused-dep`.
//!
//! Each rule reads the whole workspace, because whether an item must be
//! `pub`, a module is reached or a dependency is used depends on what
//! *other* files name. Every `.rs` file under `USER_DIRS` is a possible
//! user. All three read the scanner's token stream, so comments and
//! literal contents never count as a use.
//!
//! - **`crate-pub`**: a `pub` fn, const, static, struct, enum, union,
//!   trait or type alias under `crates/*/src` that nothing outside its
//!   crate names must be `pub(crate)`. Then rustc's `dead_code` lint,
//!   which sees types, variants and fields but only inside a crate,
//!   reports it if nothing inside uses it either; CI builds with
//!   `-D warnings`, so such an item is deleted.
//!   - *Sees:* outside uses: any word in another crate, a binary
//!     target, `tests/`, `examples/`, `benchmark/` or the umbrella
//!     `src/`; any word in a doc example's fenced block anywhere,
//!     because rustdoc builds each as a crate of its own; a `$crate::`
//!     path in a `#[macro_export]` macro, which other crates expand; and
//!     an alias a `pub use … as` gives the item. An item that a kept
//!     item's interface names (a fn's signature and its `impl`'s
//!     bounds, a const's type, any other item's whole declaration) is
//!     kept too, so no `pub` item exposes a crate-private one; a
//!     method's interface counts only once its type is kept.
//!   - *Cannot see:* which item a word refers to. The match is by name,
//!     so an item whose name collides with any word outside its crate
//!     (a local, another crate's method) stays `pub`: what the rule
//!     misses is recall, never a false alarm. Modules (`dead-mod`'s),
//!     `pub use` lines and `pub` fields are not audited. An intra-doc
//!     link or a word in doc prose is not a use.
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
//! None of the three has an allow-comment: an item is demoted or gains
//! a caller, a module is deleted or reached, an entry is deleted.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Range, RangeInclusive};
use std::path::{Component, Path, PathBuf};

use crate::lint::scanner::{close_of, ScannedFile, Token};
use crate::lint::Diagnostic;

/// A `pub` item nothing outside its crate names.
pub(crate) const RULE_CRATE_PUB: &str = "crate-pub";
/// A `pub mod` nothing outside its own file reaches.
pub(crate) const RULE_DEAD_MOD: &str = "dead-mod";
/// A manifest dependency no package source names.
pub(crate) const RULE_UNUSED_DEP: &str = "unused-dep";

/// The top-level directories whose `.rs` files count as users of the
/// public surface: the crates, the umbrella's `src/`, the workspace
/// tests and examples, and the standalone `benchmark/` package.
pub(crate) const USER_DIRS: &[&str] = &["crates", "src", "tests", "examples", "benchmark"];

/// The target directories cargo discovers inside a package: a file
/// under one of them is that package's source.
const TARGET_DIRS: &[&str] = &["src", "tests", "examples", "benches"];

/// One scanned workspace source file.
pub(crate) struct Source {
    /// Path relative to the workspace root.
    pub rel: PathBuf,
    /// The scanner's view of it.
    pub scanned: ScannedFile,
}

/// One package manifest.
pub(crate) struct Manifest {
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

/// Whether `rel` is library or binary source of a crate: the `pub mod`
/// lines `dead-mod` audits.
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

/// The library crate whose source `rel` is (the `<name>` of
/// `crates/<name>/src/`), if any. A binary target's source
/// (`src/main.rs`, `src/bin/`) is a crate of its own that uses the
/// library from outside, like a test.
fn lib_crate(rel: &Path) -> Option<&str> {
    let parts = components(rel);
    let bin = matches!(parts.get(3), Some(&"main.rs" | &"bin"));
    (declares_surface(rel) && !bin).then(|| parts[1])
}

/// One `pub` item a crate's library source declares.
struct PubDecl<'a> {
    /// Index of the declaring source, and its crate.
    src: usize,
    krate: &'a str,
    /// Token index of the item's name.
    name: usize,
    /// The type whose inherent `impl` declares it, if any: a method is
    /// reachable from outside only through its type.
    owner: Option<&'a str>,
    /// The words of its interface, which a user outside the crate may
    /// need to name to use it: a fn's signature (with its `impl`'s
    /// bounds), a const's or static's type, any other item's whole
    /// declaration.
    interface: Vec<&'a str>,
}

/// One inherent `impl` block: its self type, the words of its generic
/// parameters and `where` clause, and the token range of its body.
struct ImplBlock<'a> {
    owner: &'a str,
    bounds: Vec<&'a str>,
    body: Range<usize>,
}

/// Every inherent `impl` block of a file (`impl Trait for T` blocks
/// declare no `pub` items and are left out).
fn impl_blocks(toks: &[Token]) -> Vec<ImplBlock<'_>> {
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    let mut out = Vec::new();
    for i in 0..toks.len() {
        // `impl` opens a block only where an item may start, not as the
        // `impl Trait` of a signature.
        let at_item = i == 0 || matches!(text(i - 1), "}" | ";" | "]" | "{" | "unsafe");
        if text(i) != "impl" || !at_item {
            continue;
        }
        let (mut depth, mut owner, mut bounds, mut in_where) = (0usize, "", Vec::new(), false);
        let mut j = i + 1;
        while j < toks.len() {
            let t = text(j);
            if depth == 0 && matches!(t, "{" | "for") {
                break;
            }
            match t {
                "<" => depth += 1,
                ">" if text(j - 1) != "-" => depth = depth.saturating_sub(1),
                "where" => in_where = true,
                _ => {}
            }
            if depth > 0 || in_where {
                bounds.push(t);
            } else if toks[j].is_word() {
                owner = t;
            }
            j += 1;
        }
        if !owner.is_empty() && text(j) == "{" {
            out.push(ImplBlock {
                owner,
                bounds,
                body: j..close_of(toks, j),
            });
        }
    }
    out
}

/// The interface words of the `kw` item named at token `n` (see
/// [`PubDecl::interface`]): a fn's signature, any other item's whole
/// declaration, and a const's or static's type. A name bound by a `:`
/// (a parameter, a field, a generic parameter) is not a word of it.
fn interface<'a>(toks: &'a [Token], kw: &str, n: usize) -> Vec<&'a str> {
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    let mut depth = 0usize;
    let mut end = n + 1;
    while end < toks.len() {
        match text(end) {
            "{" if depth == 0 => {
                if kw != "fn" {
                    end = close_of(toks, end);
                }
                break;
            }
            ";" if depth == 0 => break,
            "=" if depth == 0 && kw != "type" => break,
            "<" | "(" | "[" => depth += 1,
            ">" if text(end - 1) == "-" => {}
            ">" | ")" | "]" => depth = depth.saturating_sub(1),
            _ => {}
        }
        end += 1;
    }
    let bound = |k: usize| text(k + 1) == ":" && text(k + 2) != ":" && text(k - 1) != ":";
    (n + 1..end).filter(|&k| !bound(k)).map(text).collect()
}

/// The words of every `$crate::` path inside the file's
/// `#[macro_export]` macros: the crates that expand the macro name them.
fn exported_macro_paths(toks: &[Token]) -> Vec<&str> {
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(text(i) == "#" && text(i + 1) == "[" && text(i + 2) == "macro_export") {
            continue;
        }
        let Some(open) = (i..toks.len()).find(|&j| text(j) == "{") else {
            continue;
        };
        for k in open..close_of(toks, open) {
            if text(k) == "$" && text(k + 1) == "crate" {
                let mut seg = k + 1;
                while is_path_segment(toks, seg) && toks[seg + 3].is_word() {
                    seg += 3;
                    out.push(text(seg));
                }
            }
        }
    }
    out
}

/// For each word, the crates inside which it is named; `None` stands for
/// every use from outside a library crate.
type Named<'a> = BTreeMap<&'a str, BTreeSet<Option<&'a str>>>;

/// Whether `word` is named anywhere outside `krate`.
fn named_outside(named: &Named, word: &str, krate: &str) -> bool {
    named
        .get(word)
        .is_some_and(|c| c.iter().any(|&c| c != Some(krate)))
}

/// The `crate-pub` rule over every source.
pub(crate) fn crate_pub(sources: &[Source]) -> Vec<Diagnostic> {
    let mut decls: Vec<PubDecl> = Vec::new();
    let mut named = Named::new();
    for (si, s) in sources.iter().enumerate() {
        let krate = lib_crate(&s.rel);
        let toks = &s.scanned.tokens;
        let mut own: Vec<usize> = Vec::new();
        if let Some(krate) = krate {
            let impls = impl_blocks(toks);
            for i in (0..toks.len()).filter(|&i| !s.scanned.in_test_code(toks[i].line)) {
                match pub_item(toks, i) {
                    Some(("mod", _)) | None => {}
                    Some((kw, n)) => {
                        own.push(n);
                        let block = impls.iter().rev().find(|b| b.body.contains(&i));
                        let mut interface = interface(toks, kw, n);
                        interface.extend(block.iter().flat_map(|b| b.bounds.iter().copied()));
                        decls.push(PubDecl {
                            src: si,
                            krate,
                            name: n,
                            owner: block.map(|b| b.owner),
                            interface,
                        });
                    }
                }
            }
        }
        for (i, t) in toks.iter().enumerate() {
            if t.is_word() && own.binary_search(&i).is_err() {
                named.entry(t.text.as_str()).or_default().insert(krate);
            }
        }
        let doctests = s.scanned.doctests.iter().filter(|t| t.is_word());
        let outside = doctests.map(|t| t.text.as_str());
        for w in outside.chain(exported_macro_paths(toks)) {
            named.entry(w).or_default().insert(None);
        }
    }
    // A name re-exported under an alias (`pub use m::{a as b}`) is used
    // from outside when its alias is.
    let mut renamed = Vec::new();
    for s in sources {
        let (Some(krate), toks) = (lib_crate(&s.rel), &s.scanned.tokens) else {
            continue;
        };
        for k in pub_use_spans(toks).into_iter().flatten() {
            if k > 0
                && toks[k].text == "as"
                && toks
                    .get(k + 1)
                    .is_some_and(|a| named_outside(&named, &a.text, krate))
            {
                renamed.push(toks[k - 1].text.as_str());
            }
        }
    }
    for w in renamed {
        named.entry(w).or_default().insert(None);
    }
    let name_of = |d: &PubDecl| sources[d.src].scanned.tokens[d.name].text.as_str();
    let mut kept: Vec<bool> = decls
        .iter()
        .map(|d| named_outside(&named, name_of(d), d.krate))
        .collect();
    // What a kept item's interface names in its own crate is kept too.
    let mut by_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (k, d) in decls.iter().enumerate() {
        by_name.entry((d.krate, name_of(d))).or_default().push(k);
    }
    // A method is reached through its type: its interface counts once
    // its owner, when the crate declares the owner `pub`, is kept.
    let reached = |kept: &[bool], d: &PubDecl| {
        d.owner.is_none_or(|o| {
            let owners = by_name.get(&(d.krate, o));
            owners.is_none_or(|ks| ks.iter().any(|&k| kept[k]))
        })
    };
    let mut spread = vec![false; decls.len()];
    let mut grew = true;
    while grew {
        grew = false;
        for k in 0..decls.len() {
            if !kept[k] || spread[k] || !reached(&kept, &decls[k]) {
                continue;
            }
            spread[k] = true;
            grew = true;
            let d = &decls[k];
            for w in &d.interface {
                for &j in by_name.get(&(d.krate, *w)).into_iter().flatten() {
                    kept[j] = true;
                }
            }
        }
    }
    let mut out = Vec::new();
    for (d, _) in decls.iter().zip(&kept).filter(|(_, &k)| !k) {
        let name = name_of(d);
        let source = &sources[d.src];
        out.push(Diagnostic {
            file: source.rel.clone(),
            line: source.scanned.tokens[d.name].line,
            rule: RULE_CRATE_PUB,
            message: format!(
                "`pub` item `{name}` is named nowhere outside its crate; make it \
                 `pub(crate)` (rustc then reports it if it is dead)"
            ),
        });
    }
    out
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

/// The `dead-mod` rule over every source.
pub(crate) fn dead_mod(sources: &[Source]) -> Vec<Diagnostic> {
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
    let mut out = Vec::new();
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
            out.push(Diagnostic {
                file: sources[d.src].rel.clone(),
                line: d.line,
                rule: RULE_DEAD_MOD,
                message: format!(
                    "`pub mod {}` is reached by nothing outside its own file: no `{}::` path \
                     and no use of a name re-exported from it; delete it",
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
pub(crate) fn unused_deps(manifests: &[Manifest], sources: &[Source]) -> Vec<Diagnostic> {
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
                    rule: RULE_UNUSED_DEP,
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

    /// The `crate-pub` findings, as `(file:line, name)`.
    fn crate_pubs(d: &[Diagnostic]) -> Vec<String> {
        d.iter()
            .filter(|d| d.rule == RULE_CRATE_PUB)
            .map(|d| format!("{}:{}", d.file.display(), d.line))
            .collect()
    }

    // The first six cases are `dead-pub`'s, ported: where it flagged a
    // fn, const or static, `crate-pub` flags the same line (and, now, the
    // types beside it), so rustc's `dead_code` sees the item.

    #[test]
    fn a_pub_fn_named_only_in_its_own_tests_is_flagged_at_its_line() {
        // Another file of the same crate naming it is still inside.
        let sibling = source(
            "crates/locks/src/grant.rs",
            "fn g(t: &crate::Table) -> usize { t.queue_len() }\n",
        );
        let d = lint(&[source("crates/locks/src/lib.rs", LIB), sibling]);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(
            d[1].to_string()
                .starts_with("crates/locks/src/lib.rs:3: [crate-pub] `pub` item `queue_len`"),
            "{}",
            d[1]
        );
        assert_eq!(crate_pubs(&d)[0], "crates/locks/src/lib.rs:1", "{d:?}");
    }

    #[test]
    fn a_caller_in_another_crates_tests_or_the_benchmark_keeps_it() {
        for user in [
            "crates/other/tests/it.rs",
            "crates/other/src/lib.rs",
            "crates/locks/src/main.rs",
            "crates/locks/src/bin/tool.rs",
            "benchmark/src/workloads/locks.rs",
            "examples/locks.rs",
            "tests/it.rs",
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
                    /// Calls `queue_len` on a [`Table`], see [`Table::queue_len`].\n\
                    fn f() -> &'static str { \"queue_len Table\" }\n\
                    /* queue_len Table */\n";
        let d = lint(&[
            source("crates/locks/src/lib.rs", LIB),
            source("src/lib.rs", user),
        ]);
        assert_eq!(
            crate_pubs(&d),
            ["crates/locks/src/lib.rs:1", "crates/locks/src/lib.rs:3"],
            "{d:?}"
        );
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn consts_statics_and_qualified_fns_are_declarations() {
        let src = "pub const LIMIT: u32 = 1;\n\
                   pub static mut COUNT: u32 = 0;\n\
                   pub const fn double(x: u32) -> u32 { x * 2 }\n\
                   pub(crate) fn private_to_rustc() {}\n\
                   pub struct AlsoAnItem;\n\
                   pub enum Kind { A }\n\
                   pub trait Rule {}\n\
                   pub type Alias = u32;\n\
                   pub mod left_to_dead_mod;\n";
        let d = lint(&[source("crates/x/src/lib.rs", src)]);
        let lines: Vec<usize> = d
            .iter()
            .filter(|d| d.rule == RULE_CRATE_PUB)
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, vec![1, 2, 3, 5, 6, 7, 8], "{d:?}");
    }

    #[test]
    fn outside_crate_sources_nothing_is_a_declaration() {
        let pub_in_tests = "pub fn helper() {}\n";
        for rel in [
            "tests/common.rs",
            "crates/x/tests/common.rs",
            "crates/x/src/main.rs",
            "crates/x/src/bin/tool.rs",
            "benchmark/src/lib.rs",
            "src/lib.rs",
        ] {
            assert!(lint(&[source(rel, pub_in_tests)]).is_empty(), "{rel}");
        }
    }

    #[test]
    fn a_name_in_a_doc_example_keeps_it_even_in_its_own_crate() {
        // rustdoc builds each example as a crate of its own.
        let documented = |fence: &str| {
            format!(
                "/// ```{fence}\n\
                 /// # use odp_locks::Table;\n\
                 /// assert_eq!(Table.queue_len(), 0);\n\
                 /// ```\n{LIB}"
            )
        };
        let d = lint(&[source("crates/locks/src/lib.rs", &documented(""))]);
        assert!(d.is_empty(), "{d:?}");
        // A block rustdoc does not build is prose.
        for fence in ["text", "ignore"] {
            let d = lint(&[source("crates/locks/src/lib.rs", &documented(fence))]);
            assert_eq!(crate_pubs(&d).len(), 2, "{fence}: {d:?}");
        }
    }

    #[test]
    fn a_crate_path_in_an_exported_macro_keeps_it() {
        let wire = "pub trait WireCodec {}\n\
                    pub struct WireReader;\n\
                    #[macro_export]\n\
                    macro_rules! wire_newtype {\n    \
                        ($name:ident) => { impl $crate::wire::WireCodec for $name {} };\n\
                    }\n\
                    macro_rules! local_only {\n    \
                        () => { $crate::wire::WireReader };\n\
                    }\n";
        let d = lint(&[source("crates/net/src/wire.rs", wire)]);
        assert_eq!(crate_pubs(&d), ["crates/net/src/wire.rs:2"], "{d:?}");
    }

    #[test]
    fn what_a_kept_signature_names_stays_pub() {
        let lib = "pub struct Table;\n\
                   pub struct Entry;\n\
                   pub struct Hidden;\n\
                   pub trait Rule {}\n\
                   impl Table {\n    \
                       pub fn get<R: Rule>(&self, _: R) -> Entry { Entry }\n    \
                       pub fn secret(&self) -> Hidden { Hidden }\n    \
                       pub fn with(cap: usize) -> Self { Table }\n    \
                       pub fn cap(&self) -> usize { 0 }\n\
                   }\n\
                   pub struct Inner;\n\
                   pub struct Count;\n\
                   impl Inner {\n    \
                       pub fn len(&self) -> Count { Count }\n\
                   }\n";
        // `len` is named outside, but only by a word that collides: its
        // type is not kept, so its signature keeps nothing. Nor does the
        // parameter `cap` of a kept fn keep the method `cap`.
        let user = "fn f(t: odp_x::Table) { t.get(()); odp_x::Table::with(1); vec![0].len(); }\n";
        let d = lint(&[
            source("crates/x/src/lib.rs", lib),
            source("tests/it.rs", user),
        ]);
        let flagged: Vec<&str> = d
            .iter()
            .filter(|d| d.rule == RULE_CRATE_PUB)
            .filter_map(|d| d.message.split('`').nth(3))
            .collect();
        assert_eq!(
            flagged,
            ["Hidden", "secret", "cap", "Inner", "Count"],
            "{d:?}"
        );
    }

    #[test]
    fn an_alias_used_outside_keeps_the_item_it_renames() {
        let [root, module] = topology_crate(REEXPORTING_ROOT);
        let user = source("tests/it.rs", "fn f() { odp_net::all_sites(); }\n");
        let d = lint(&[root, module, user]);
        // `sites` is kept by its alias, and `Site` by the signature of
        // `sites`; without the alias both are flagged.
        assert!(crate_pubs(&d).is_empty(), "{d:?}");
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
        // The name match keeps `sites` alive for `crate-pub`; the path
        // match still finds the module unreached.
        let sites = "crates/net/src/topology.rs:2".to_string();
        assert!(!crate_pubs(&d).contains(&sites), "{d:?}");
        assert_eq!(dead_mods(&d).len(), 1, "{d:?}");
        // Nor does a sibling's item that shares the module's use tree.
        let [root, module] =
            topology_crate("pub mod topology;\npub use crate::{topology::Site, wire::Frame};\n");
        let user = source("tests/it.rs", "fn f(_: odp_net::Frame) {}\n");
        let d = lint(&[root, module, user]);
        assert_eq!(dead_mods(&d).len(), 1, "{d:?}");
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
