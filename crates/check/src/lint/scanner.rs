//! Source preparation for the lint rules: a small scanner that strips
//! comments and literals, keeps the code of doc examples apart, and
//! marks the lines of whatever a `#[cfg(test)]` sits on (a module, an
//! item, a field or a statement), so rules run over a token stream that
//! cannot be fooled by strings or doc text.
//!
//! This is deliberately *not* a Rust parser. The rules match names and
//! paths, and a lexical scanner keeps the checker dependency-free and
//! robust to code it has never seen; the cost is recall, not false
//! alarms (see [`crate::lint::surface`]).

use std::fmt;

/// One word or punctuation character of the cleaned source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    /// The token text: an identifier/number word, or one punctuation
    /// character.
    pub text: String,
    /// 1-based source line.
    pub line: usize,
}

impl Token {
    /// True when the token is an identifier-like word.
    pub(crate) fn is_word(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    }
}

/// A scanned source file, ready for the rules.
pub(crate) struct ScannedFile {
    /// The cleaned token stream (comments and literal contents gone).
    pub tokens: Vec<Token>,
    /// The tokens of the Rust code blocks in `///` and `//!` comments:
    /// the doc examples rustdoc compiles, each as a crate of its own.
    pub doctests: Vec<Token>,
    /// For each 1-based line, whether it lies inside what a
    /// `#[cfg(test)]` sits on (index 0 unused).
    test_lines: Vec<bool>,
}

impl ScannedFile {
    /// True when `line` (1-based) is inside a `#[cfg(test)]` region.
    pub(crate) fn in_test_code(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
    }
}

impl fmt::Debug for ScannedFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScannedFile")
            .field("tokens", &self.tokens.len())
            .field("doctests", &self.doctests.len())
            .finish()
    }
}

/// Scans one file's source text.
pub(crate) fn scan(src: &str) -> ScannedFile {
    let line_count = src.lines().count() + 1;
    let mut cleaned = String::with_capacity(src.len());
    let mut docs = DocCode::default();

    // Pass 1: strip comments / string / char literals, keeping newlines
    // so line numbers survive. Doc examples are harvested here, since
    // they are comments and would otherwise vanish.
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let rest = &src[i..];
        if rest.starts_with("//") {
            let end = rest.find('\n').map_or(src.len(), |n| i + n);
            let comment = &src[i..end];
            let is_doc = comment.starts_with("///") || comment.starts_with("//!");
            if is_doc && !comment.starts_with("////") {
                docs.line(line, &comment[3..]);
            }
            i = end;
        } else if rest.starts_with("/*") {
            let mut depth = 1;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                if src[j..].starts_with("/*") {
                    depth += 1;
                    j += 2;
                } else if src[j..].starts_with("*/") {
                    depth -= 1;
                    j += 2;
                } else {
                    if bytes[j] == b'\n' {
                        line += 1;
                        cleaned.push('\n');
                    }
                    j += 1;
                }
            }
            i = j;
        } else if rest.starts_with("r\"") || rest.starts_with("r#") || rest.starts_with("br") {
            // Raw string: r"..." or r#"..."# (any number of #).
            let prefix_len = if rest.starts_with("br") { 2 } else { 1 };
            let mut hashes = 0;
            let mut j = i + prefix_len;
            while j < bytes.len() && bytes[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'"' {
                j += 1;
                let closer = format!("\"{}", "#".repeat(hashes));
                let end = src[j..]
                    .find(&closer)
                    .map_or(src.len(), |n| j + n + closer.len());
                for &b in &bytes[j..end.min(bytes.len())] {
                    if b == b'\n' {
                        line += 1;
                        cleaned.push('\n');
                    }
                }
                cleaned.push_str("\"\"");
                i = end;
            } else {
                // `r` was just an identifier prefix (e.g. `r#if` raw ident).
                cleaned.push_str(&src[i..j]);
                i = j;
            }
        } else if bytes[i] == b'"' {
            let mut j = i + 1;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => {
                        // A `\` ending the line continues the string.
                        if bytes.get(j + 1) == Some(&b'\n') {
                            line += 1;
                            cleaned.push('\n');
                        }
                        j += 2;
                    }
                    b'"' => {
                        j += 1;
                        break;
                    }
                    b'\n' => {
                        line += 1;
                        cleaned.push('\n');
                        j += 1;
                    }
                    _ => j += 1,
                }
            }
            cleaned.push_str("\"\"");
            i = j;
        } else if bytes[i] == b'\'' {
            // Char literal or lifetime. A lifetime has no closing quote
            // within a couple of characters; a char literal does.
            let lit_end = src[i + 1..]
                .char_indices()
                .take(6)
                .scan(false, |esc, (off, c)| {
                    if *esc {
                        *esc = false;
                        Some((off, c, false))
                    } else {
                        *esc = c == '\\';
                        Some((off, c, c == '\'' && off > 0))
                    }
                })
                .find(|(_, _, close)| *close)
                .map(|(off, _, _)| i + 1 + off);
            // 'a (lifetime) vs 'x' (char). Treat `'` followed by
            // `ident` then non-quote as a lifetime and keep it.
            let is_char = matches!(lit_end, Some(e) if e > i + 1);
            if is_char {
                let e = lit_end.unwrap_or(i + 1) + 1;
                for &b in &bytes[i..e.min(bytes.len())] {
                    if b == b'\n' {
                        line += 1;
                        cleaned.push('\n');
                    }
                }
                cleaned.push_str("' '");
                i = e;
            } else {
                cleaned.push('\'');
                i += 1;
            }
        } else {
            let c = src[i..].chars().next().unwrap_or(' ');
            if c == '\n' {
                line += 1;
            }
            cleaned.push(c);
            i += c.len_utf8();
        }
    }

    // Pass 2: tokenize the cleaned text.
    let mut tokens: Vec<Token> = Vec::new();
    let mut line = 1;
    let mut word = String::new();
    let mut word_line = 1;
    for c in cleaned.chars() {
        if c.is_alphanumeric() || c == '_' {
            if word.is_empty() {
                word_line = line;
            }
            word.push(c);
            continue;
        }
        if !word.is_empty() {
            tokens.push(Token {
                text: std::mem::take(&mut word),
                line: word_line,
            });
        }
        if c == '\n' {
            line += 1;
        } else if !c.is_whitespace() {
            tokens.push(Token {
                text: c.to_string(),
                line,
            });
        }
    }
    if !word.is_empty() {
        tokens.push(Token {
            text: word,
            line: word_line,
        });
    }

    // Pass 3: which lines lie inside whatever a `#[cfg(test)]`
    // attribute sits on.
    let mut test_lines = vec![false; line_count + 1];
    let mut idx = 0;
    while idx < tokens.len() {
        if is_cfg_test_at(&tokens, idx) {
            let end = attributed_end(&tokens, idx);
            let end_line = tokens.get(end).map_or(line_count, |t| t.line);
            for flag in &mut test_lines[tokens[idx].line..=end_line.min(line_count)] {
                *flag = true;
            }
            idx = end + 1;
        } else {
            idx += 1;
        }
    }

    let doctests = if docs.src.is_empty() {
        Vec::new()
    } else {
        scan(&docs.src).tokens
    };
    ScannedFile {
        tokens,
        doctests,
        test_lines,
    }
}

/// The code of the doc examples in one file, gathered line by line as
/// the scanner meets doc comments.
#[derive(Default)]
struct DocCode {
    /// Inside a fenced block: whether rustdoc compiles it.
    fence: Option<bool>,
    /// The last doc-comment line seen; a gap ends an unclosed block.
    last: usize,
    /// The compiled blocks' code, each line on its source line, and the
    /// number of lines it holds.
    src: String,
    lines: usize,
}

impl DocCode {
    /// Takes one doc-comment line: `text` follows its `///` or `//!`.
    fn line(&mut self, line: usize, text: &str) {
        if line != self.last + 1 {
            self.fence = None;
        }
        self.last = line;
        let text = text.strip_prefix(' ').unwrap_or(text);
        if let Some(info) = text.trim_start().strip_prefix("```") {
            self.fence = if self.fence.is_some() {
                None
            } else {
                Some(is_compiled(info))
            };
        } else if self.fence == Some(true) {
            // rustdoc hides a `# ` line from the page but compiles it.
            let code = match text.trim_start().strip_prefix('#') {
                Some(rest) if rest.is_empty() || rest.starts_with(' ') => rest,
                _ => text,
            };
            self.src
                .extend(std::iter::repeat_n('\n', line - 1 - self.lines));
            self.lines = line - 1;
            self.src.push_str(code);
        }
    }
}

/// Whether rustdoc compiles a fenced block with this info string: an
/// untagged block, or one whose every tag is a doctest attribute. A
/// `text` block, any other language, and `ignore` are not compiled.
fn is_compiled(info: &str) -> bool {
    info.split([',', ' ', '\t'])
        .filter(|t| !t.is_empty())
        .all(|t| {
            matches!(
                t,
                "rust" | "no_run" | "should_panic" | "compile_fail" | "test_harness"
            ) || t.starts_with("edition")
        })
}

/// Keywords that open an item: an item runs to its `;` or to the `}`
/// closing its first block, whatever commas its generics hold.
const ITEM_KEYWORDS: &[&str] = &[
    "mod",
    "fn",
    "impl",
    "struct",
    "enum",
    "trait",
    "const",
    "static",
    "type",
    "use",
    "extern",
    "unsafe",
    "async",
    "macro_rules",
];

/// The index of the last token of the field, statement or item that the
/// attribute at `idx` sits on (`tokens.len()` if the source ends first).
/// An item runs to its `;` or to the `}` closing its first block, and a
/// `let` to its `;`. Anything else (a field, a struct-literal field, an
/// expression statement, a match arm) runs to its `,` or `;`, to the
/// `}` closing a block it opened (an `if` goes on through its `else`),
/// or up to the bracket that closes the list it sits in.
fn attributed_end(tokens: &[Token], idx: usize) -> usize {
    let text = |j: usize| tokens.get(j).map_or("", |t| t.text.as_str());
    let mut j = idx;
    while text(j) == "#" && text(j + 1) == "[" {
        j = close_of(tokens, j + 1) + 1;
    }
    if text(j) == "pub" {
        j += 1;
        if text(j) == "(" {
            j = close_of(tokens, j) + 1;
        }
    }
    let kind = text(j);
    let is_item = ITEM_KEYWORDS.contains(&kind);
    let mut depth = 0usize;
    while j < tokens.len() {
        match text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return j - 1,
            closer @ (")" | "]" | "}") => {
                depth -= 1;
                if depth == 0 && closer == "}" && kind != "let" && text(j + 1) != "else" {
                    return j;
                }
            }
            ";" if depth == 0 => return j,
            "," if depth == 0 && !is_item && kind != "let" => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// The index of the bracket that closes the one at `open`
/// (`tokens.len()` if the source ends first).
pub(crate) fn close_of(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

/// Matches `# [ cfg ( test ) ]` or `# [ cfg ( all|any ( ... test ... ) ) ]`
/// starting at token `idx`.
fn is_cfg_test_at(tokens: &[Token], idx: usize) -> bool {
    let texts: Vec<&str> = tokens[idx..]
        .iter()
        .take(12)
        .map(|t| t.text.as_str())
        .collect();
    if texts.len() < 6 {
        return false;
    }
    if texts[0] != "#" || texts[1] != "[" || texts[2] != "cfg" || texts[3] != "(" {
        return false;
    }
    // Scan the attribute body for a bare `test` word.
    let mut depth = 0;
    for t in &tokens[idx + 3..] {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            "]" if depth == 0 => return false,
            "test" => return true,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_stripped() {
        let s = scan(r#"let x = "a.unwrap()"; // .unwrap() in comment"#);
        assert!(!s.tokens.iter().any(|t| t.text == "unwrap"));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let s = scan("let x = r#\"body .unwrap() here\"#; let y = 1;");
        assert!(!s.tokens.iter().any(|t| t.text == "unwrap"));
        assert!(s.tokens.iter().any(|t| t.text == "y"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let s = scan("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(s.tokens.iter().any(|t| t.text == "a"));
        assert!(!s.tokens.iter().any(|t| t.text == "x" && t.line == 0));
    }

    #[test]
    fn cfg_test_region_detected() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let s = scan(src);
        assert!(!s.in_test_code(1));
        assert!(s.in_test_code(2));
        assert!(s.in_test_code(4));
        assert!(s.in_test_code(5));
        assert!(!s.in_test_code(6));
    }

    /// The lines `scan` marks as test code, of those in `lines`.
    fn test_lines_of(src: &str, lines: std::ops::RangeInclusive<usize>) -> Vec<usize> {
        let s = scan(src);
        lines.filter(|&l| s.in_test_code(l)).collect()
    }

    #[test]
    fn a_cfg_test_field_does_not_cover_the_impl_after_it() {
        let src = "struct Bus {\n\
                   \x20   #[cfg(test)]\n\
                   \x20   key_on_path_only: bool,\n\
                   }\n\
                   impl Bus {\n\
                   \x20   fn publish(&mut self) {\n\
                   \x20       let s = format!(\"{}\", 1);\n\
                   \x20   }\n\
                   }\n";
        assert_eq!(test_lines_of(src, 1..=9), vec![2, 3]);
    }

    #[test]
    fn a_cfg_test_struct_literal_field_covers_its_own_line() {
        let src = "fn new() -> Q {\n\
                   \x20   Q {\n\
                   \x20       len: 0,\n\
                   \x20       #[cfg(test)]\n\
                   \x20       fold_seams: false,\n\
                   \x20       #[cfg(test)]\n\
                   \x20       forget_head_fix: false\n\
                   \x20   }\n\
                   }\n\
                   fn len(&self) -> usize { self.len }\n";
        assert_eq!(test_lines_of(src, 1..=10), vec![4, 5, 6, 7]);
    }

    #[test]
    fn a_cfg_test_let_covers_its_statement_only() {
        let src = "fn unlink(&mut self) {\n\
                   \x20   #[cfg(test)]\n\
                   \x20   let next = if self.forget { slot }\n\
                   \x20       else { next };\n\
                   \x20   self.heads[b] = next;\n\
                   \x20   if next != NIL { self.fix(); }\n\
                   }\n";
        assert_eq!(test_lines_of(src, 1..=7), vec![2, 3, 4]);
    }

    #[test]
    fn a_cfg_test_if_covers_its_statement_and_its_else_only() {
        let src = "fn free_if_spent(&mut self, c: usize) {\n\
                   \x20   #[cfg(test)]\n\
                   \x20   if self.keep_spent_chunks {\n\
                   \x20       return;\n\
                   \x20   } else {\n\
                   \x20       self.kept += 1;\n\
                   \x20   }\n\
                   \x20   if let Some(chunk) = &self.chunks[c] {\n\
                   \x20       self.chunks[c] = None;\n\
                   \x20   }\n\
                   }\n";
        assert_eq!(test_lines_of(src, 1..=11), vec![2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn a_one_line_cfg_test_use_covers_its_line_only() {
        let src = "#[cfg(test)] use std::collections::HashMap;\n\
                   impl Table {\n\
                   \x20   fn grant(&mut self) {}\n\
                   }\n";
        assert_eq!(test_lines_of(src, 1..=4), vec![1]);
    }

    #[test]
    fn doc_example_code_is_kept_apart_with_its_lines() {
        let src = "/// Makes one.\n\
                   ///\n\
                   /// ```\n\
                   /// # use odp_x::Table;\n\
                   /// let t = Table::open();\n\
                   /// ```\n\
                   /// ```text\n\
                   /// Prose::not_code\n\
                   /// ```\n\
                   //! ```compile_fail\n\
                   //! bad_call();\n\
                   //! ```\n\
                   fn open() {}\n";
        let s = scan(src);
        let words: Vec<String> = s
            .doctests
            .iter()
            .filter(|t| t.is_word())
            .map(|t| format!("{}:{}", t.text, t.line))
            .collect();
        let want = "use:4 odp_x:4 Table:4 let:5 t:5 Table:5 open:5 bad_call:11";
        assert_eq!(words.join(" "), want);
        let code: Vec<&str> = s.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(code, vec!["fn", "open", "(", ")", "{", "}"]);
    }

    #[test]
    fn a_string_continued_across_lines_keeps_the_lines_after_it() {
        let s = scan("let m = \"one \\\n  two \\\n  three\";\nfn after() {}\n");
        let after = s.tokens.iter().find(|t| t.text == "after");
        assert_eq!(after.map(|t| t.line), Some(4));
    }

    #[test]
    fn token_lines_are_accurate() {
        let s = scan("a\nb b\n  c");
        let lines: Vec<usize> = s.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 2, 3]);
    }
}
