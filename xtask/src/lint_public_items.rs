//! `cargo xtask lint-public-items` — every public item has a caller.
//!
//! A `pub` item (`fn`, `struct`, `enum`, `trait`, `type`, `const`,
//! `static`, `union`) defined in a first-party crate's non-test code must
//! be named somewhere else in non-test code: the workspace's crates, the
//! facade, `examples/`, `xtask/` and the stand-alone `benchmark/`, which
//! measures the product from outside. An item nothing calls either goes or
//! says why it is public anyway, in a doc line that starts with
//! `Public API:`.
//!
//! The match is by name, as a token, with comments and literals blanked:
//! one caller of any item with the same name is enough. Test code is not a
//! caller: files under a `tests/` or `benches/` directory, and any item
//! marked `#[test]`, `#[cfg(test)]` or `#[cfg(all(test, …))]`. Neither is
//! a `use` declaration, which only imports or re-exports the name.
//!
//! Vendored shims (`crates/vendor/`) and `benchmark/` define no checked
//! items: they mirror other crates' APIs and instrument this one.

use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::lint_concurrency::strip_comments_and_strings;

/// The doc line that exempts an item with no caller.
const MARKER: &str = "Public API:";

/// Item keywords a `pub` definition can start with.
const ITEM_KINDS: [&str; 8] = ["fn", "struct", "enum", "trait", "type", "const", "static", "union"];

/// A public item no non-test code names.
#[derive(Debug, PartialEq, Eq)]
pub struct Finding {
    pub rel_path: String,
    pub line: usize,
    pub kind: String,
    pub name: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [public-item-without-caller] `pub {} {}` is named nowhere outside tests; \
             delete it or say why it is public in a `/// {MARKER}` doc line",
            self.rel_path, self.line, self.kind, self.name
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
    Punct(char),
}

/// Identifiers and punctuation of `code` with their byte offsets; numeric
/// literals are skipped.
fn tokenize(code: &str) -> Vec<(usize, Token<'_>)> {
    let mut out = Vec::new();
    let mut chars = code.char_indices().peekable();
    while let Some((at, c)) = chars.next() {
        if c.is_whitespace() {
            continue;
        }
        if c.is_alphanumeric() || c == '_' {
            let mut end = at + c.len_utf8();
            while let Some(&(i, d)) = chars.peek() {
                if !(d.is_alphanumeric() || d == '_') {
                    break;
                }
                end = i + d.len_utf8();
                chars.next();
            }
            if !c.is_ascii_digit() {
                out.push((at, Token::Ident(&code[at..end])));
            }
        } else {
            out.push((at, Token::Punct(c)));
        }
    }
    out
}

/// Index of the token after the `}` matching the `{` at `open`, or the end.
fn skip_braces(tokens: &[(usize, Token<'_>)], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, (_, t)) in tokens.iter().enumerate().skip(open) {
        match t {
            Token::Punct('{') => depth += 1,
            Token::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

/// Index of the first token after the item that starts at `from`: its
/// `{ … }` body, or its terminating `;`.
fn skip_item(tokens: &[(usize, Token<'_>)], from: usize) -> usize {
    for (i, (_, t)) in tokens.iter().enumerate().skip(from) {
        match t {
            Token::Punct(';') => return i + 1,
            Token::Punct('{') => return skip_braces(tokens, i),
            _ => {}
        }
    }
    tokens.len()
}

/// True for an attribute whose item is test-only: `#[test]`, `#[cfg(test)]`
/// or `#[cfg(all(test, …))]`. `attr` is the text between `#[` and `]`.
fn is_test_attribute(attr: &str) -> bool {
    let attr: String = attr.chars().filter(|c| !c.is_whitespace()).collect();
    attr == "test" || attr == "cfg(test)" || attr.starts_with("cfg(all(test,")
}

/// What one file contributes: the public items it defines and the names
/// its non-test code uses.
#[derive(Debug, Default)]
struct FileScan {
    /// (byte offset of `pub`, kind, name).
    items: Vec<(usize, String, String)>,
    uses: Vec<String>,
}

fn scan_code(code: &str) -> FileScan {
    let tokens = tokenize(code);
    let ident = |i: usize| match tokens.get(i) {
        Some((_, Token::Ident(s))) => Some(*s),
        _ => None,
    };
    let punct = |i: usize, c: char| matches!(tokens.get(i), Some((_, Token::Punct(p))) if *p == c);
    let mut scan = FileScan::default();
    let mut i = 0;
    while i < tokens.len() {
        if punct(i, '#') && punct(i + 1, '[') {
            let close = (i + 2..tokens.len()).find(|&j| punct(j, ']')).unwrap_or(tokens.len());
            let attr = match (tokens.get(i + 2), tokens.get(close)) {
                (Some(&(start, _)), Some(&(end, _))) if start < end => &code[start..end],
                _ => "",
            };
            i = if is_test_attribute(attr) { skip_item(&tokens, close + 1) } else { close + 1 };
            continue;
        }
        match ident(i) {
            Some("use") => {
                i = (i..tokens.len()).find(|&j| punct(j, ';')).map_or(tokens.len(), |j| j + 1);
            }
            Some("pub") if !punct(i + 1, '(') => {
                let mut k = i + 1;
                while matches!(ident(k), Some("unsafe" | "async" | "extern"))
                    || (ident(k) == Some("const") && ident(k + 1) == Some("fn"))
                {
                    k += 1;
                }
                match (ident(k), ident(k + 1)) {
                    (Some(kind), Some(name)) if ITEM_KINDS.contains(&kind) => {
                        scan.items.push((tokens[i].0, kind.to_owned(), name.to_owned()));
                        i = k + 2;
                    }
                    _ => i += 1,
                }
            }
            // A definition names its item; it does not call it. `'static`
            // is a lifetime, not an item keyword.
            Some(kw) if ITEM_KINDS.contains(&kw) || kw == "mod" => {
                let lifetime = i > 0 && punct(i - 1, '\'');
                let qualifier = kw == "const" && ident(i + 1) == Some("fn");
                i += if lifetime || qualifier || ident(i + 1).is_none() { 1 } else { 2 };
            }
            Some(name) => {
                scan.uses.push(name.to_owned());
                i += 1;
            }
            None => i += 1,
        }
    }
    scan
}

/// True when the doc comment above the item on `line` (1-based) carries
/// the [`MARKER`]. Attributes and plain comments between the doc and the
/// item are skipped.
fn has_marker(raw_lines: &[&str], line: usize) -> bool {
    raw_lines[..line - 1]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("//") || l.starts_with("#["))
        .any(|l| l.strip_prefix("///").is_some_and(|doc| doc.trim_start().starts_with(MARKER)))
}

/// Scans `(workspace-relative path, source)` pairs; items are checked only
/// in files `checked` accepts, while every file's non-test code counts as
/// a caller.
pub fn scan_sources(sources: &[(String, String)], checked: impl Fn(&str) -> bool) -> Vec<Finding> {
    let mut uses = HashSet::new();
    let mut items = Vec::new();
    for (rel_path, src) in sources {
        let code = strip_comments_and_strings(src);
        let scan = scan_code(&code);
        uses.extend(scan.uses);
        if checked(rel_path) {
            let raw_lines: Vec<&str> = src.lines().collect();
            for (at, kind, name) in scan.items {
                let line = code[..at].matches('\n').count() + 1;
                if !has_marker(&raw_lines, line) {
                    items.push(Finding { rel_path: rel_path.clone(), line, kind, name });
                }
            }
        }
    }
    items.retain(|f| !uses.contains(&f.name));
    items
}

/// True for a file of test code: under a `tests/` or `benches/` directory.
fn is_test_file(rel_path: &str) -> bool {
    rel_path.split('/').any(|part| part == "tests" || part == "benches")
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            let skipped = ["target", ".git", "crates/vendor", "benchmark/target"];
            if !skipped.contains(&rel.as_str()) && !is_test_file(&rel) {
                walk(root, &path, out)?;
            }
        } else if rel.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the whole workspace; returns every public item without a caller.
pub fn scan_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    walk(root, root, &mut files).map_err(|e| format!("walking {}: {e}", root.display()))?;
    files.sort();
    let mut sources = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).expect("walked under root");
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        sources.push((rel.to_string_lossy().replace('\\', "/"), src));
    }
    Ok(scan_sources(&sources, |rel| !rel.starts_with("benchmark/")))
}

pub fn run() -> ExitCode {
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("xtask has a parent").to_path_buf();
    match scan_workspace(&root) {
        Err(e) => {
            eprintln!("lint-public-items: {e}");
            ExitCode::FAILURE
        }
        Ok(findings) if findings.is_empty() => {
            println!("lint-public-items: every public item has a caller");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("{f}");
            }
            eprintln!("lint-public-items: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(files: &[(&str, &str)]) -> Vec<String> {
        let sources: Vec<(String, String)> =
            files.iter().map(|(p, s)| ((*p).to_owned(), (*s).to_owned())).collect();
        scan_sources(&sources, |rel| !rel.starts_with("benchmark/"))
            .into_iter()
            .map(|f| f.name)
            .collect()
    }

    #[test]
    fn an_uncalled_pub_fn_is_reported_at_its_line() {
        let src = "pub fn used() {}\n\npub fn unused() {}\nfn main() { used(); }\n";
        let sources = vec![("crates/a/src/lib.rs".to_owned(), src.to_owned())];
        let found = scan_sources(&sources, |_| true);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].line, found[0].kind.as_str()), (3, "fn"));
        assert_eq!(found[0].name, "unused");
    }

    #[test]
    fn tests_imports_comments_and_strings_are_not_callers() {
        let lib = "pub fn lonely() {}\n\
                   // lonely() in a comment\n\
                   const S: &str = \"lonely()\";\n\
                   #[cfg(test)]\nmod tests { fn t() { super::lonely(); } }\n\
                   #[test]\nfn t2() { lonely(); }\n";
        let reexport = "pub use crate::lonely;\n";
        assert_eq!(
            names(&[("crates/a/src/lib.rs", lib), ("src/lib.rs", reexport)]),
            vec!["lonely"]
        );
    }

    #[test]
    fn calls_from_other_crates_examples_and_the_benchmark_count() {
        let lib = "pub struct A;\npub const fn b() -> u8 { 0 }\npub trait C {}\n";
        let user = "fn main() { let _ = (A, b()); }\n";
        let bench = "impl C for X {}\n";
        assert!(names(&[
            ("crates/a/src/lib.rs", lib),
            ("examples/x.rs", user),
            ("benchmark/src/main.rs", bench)
        ])
        .is_empty());
        // The benchmark calls, but its own items are not checked.
        assert!(names(&[("benchmark/src/main.rs", "pub fn only_here() {}\n")]).is_empty());
    }

    #[test]
    fn a_static_lifetime_is_not_a_definition() {
        let src = "pub struct Registry;\nfn f(r: &'static Registry) {}\n";
        assert!(names(&[("crates/a/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn restricted_visibility_is_not_public() {
        let src = "pub(crate) fn internal() {}\npub(super) struct Near;\n";
        assert!(names(&[("crates/a/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn the_marker_line_exempts_an_item() {
        let src = "/// Builds one.\n///\n/// Public API: callers outside the workspace.\n\
                   #[must_use]\npub fn exported() {}\n\
                   /// Mentions Public API: mid-sentence, which does not count.\n\
                   pub fn not_exempt() {}\n";
        assert_eq!(names(&[("crates/a/src/lib.rs", src)]), vec!["not_exempt"]);
    }

    #[test]
    fn test_directories_are_skipped() {
        assert!(is_test_file("crates/a/tests/x.rs"));
        assert!(is_test_file("tests/x.rs"));
        assert!(!is_test_file("crates/a/src/tests_util.rs"));
    }
}
