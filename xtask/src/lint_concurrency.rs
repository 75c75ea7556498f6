//! `cargo xtask lint-concurrency` — the concurrency audit pass.
//!
//! Mirrors how `parsim-lint` audits netlists, but pointed at *us*: a
//! comment- and string-aware source scan of the workspace that enforces
//! the concurrency discipline the runtime fabric's failure model depends
//! on. Rules:
//!
//! 1. **no-std-barrier** — `std::sync::Barrier` is forbidden everywhere:
//!    it hangs peers when a participant dies. Use
//!    `parsim_runtime::RoundBarrier` (abortable, timeout-capable).
//! 2. **no-bare-lock-expect** — `.lock().unwrap()` / `.lock().expect(…)`
//!    is forbidden outside `poison.rs`: one panicking worker must not
//!    cascade into poisoned-lock panics on its peers. Use
//!    `parsim_runtime::lock_recover`.
//! 3. **no-atomic-bypass** — inside `crates/runtime`, importing
//!    `std::sync::atomic` directly (anywhere outside the `sync.rs`
//!    facade) is forbidden: atomics that bypass the facade are invisible
//!    to the loom model checker.
//! 4. **relaxed-needs-justification** — every `Ordering::Relaxed` site
//!    must (a) live in a file listed in `xtask/relaxed-orderings.allow`
//!    with at least that many sites budgeted, and (b) carry a
//!    `// relaxed:` justification comment on the same or one of the three
//!    preceding lines.
//!
//! Vendored shims (`crates/vendor/`), the repo benchmark (`benchmark/`, a
//! workspace of its own that measures the product from outside) and build
//! output are exempt: they are API mirrors and instruments, not fabric
//! code.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Which rule a finding violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    StdBarrier,
    BareLockExpect,
    AtomicBypass,
    RelaxedUnjustified,
    RelaxedNotAllowlisted,
    RelaxedOverBudget,
}

impl Rule {
    fn as_str(self) -> &'static str {
        match self {
            Rule::StdBarrier => "no-std-barrier",
            Rule::BareLockExpect => "no-bare-lock-expect",
            Rule::AtomicBypass => "no-atomic-bypass",
            Rule::RelaxedUnjustified | Rule::RelaxedNotAllowlisted | Rule::RelaxedOverBudget => {
                "relaxed-needs-justification"
            }
        }
    }
}

/// One rule violation at one source location.
#[derive(Debug)]
pub struct Finding {
    pub rel_path: String,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.rel_path, self.line, self.rule.as_str(), self.message)
    }
}

/// Per-file budget of `Ordering::Relaxed` sites, parsed from
/// `xtask/relaxed-orderings.allow`.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, usize)>,
}

impl Allowlist {
    /// Parses `path = count` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (path, count) = line
                .split_once('=')
                .ok_or_else(|| format!("allowlist line {}: expected `path = count`", n + 1))?;
            let count: usize = count
                .trim()
                .parse()
                .map_err(|_| format!("allowlist line {}: bad count `{}`", n + 1, count.trim()))?;
            entries.push((path.trim().to_string(), count));
        }
        Ok(Allowlist { entries })
    }

    fn budget(&self, rel_path: &str) -> Option<usize> {
        self.entries.iter().find(|(p, _)| p == rel_path).map(|(_, c)| *c)
    }
}

/// Blanks comments and string/char literals (preserving newlines), so the
/// pattern scan below never fires inside prose or literals.
pub fn strip_comments_and_strings(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    // Pushes `len` bytes of blank, keeping newlines so line numbers hold.
    let blank = |out: &mut Vec<u8>, bytes: &[u8], from: usize, to: usize| {
        for &b in &bytes[from..to] {
            out.push(if b == b'\n' { b'\n' } else { b' ' });
        }
    };
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end =
                    bytes[i..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |p| i + p);
                blank(&mut out, bytes, i, end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, bytes, i, j);
                i = j;
            }
            b'"' => {
                let mut j = i + 1;
                while j < bytes.len() {
                    match bytes[j] {
                        b'\\' => j += 2,
                        b'"' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                blank(&mut out, bytes, i, j.min(bytes.len()));
                i = j.min(bytes.len());
            }
            b'r' if matches!(bytes.get(i + 1), Some(&b'"' | &b'#')) => {
                // Raw string: r"…" or r#"…"# (any hash depth).
                let mut hashes = 0;
                let mut j = i + 1;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    j += 1;
                    'raw: while j < bytes.len() {
                        if bytes[j] == b'"' {
                            let mut k = 0;
                            while k < hashes && bytes.get(j + 1 + k) == Some(&b'#') {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break 'raw;
                            }
                        }
                        j += 1;
                    }
                    blank(&mut out, bytes, i, j.min(bytes.len()));
                    i = j.min(bytes.len());
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a literal is 'x' or '\…'.
                let is_char = match bytes.get(i + 1) {
                    Some(&b'\\') => true,
                    Some(_) => bytes.get(i + 2) == Some(&b'\''),
                    None => false,
                };
                if is_char {
                    let mut j = i + 1;
                    while j < bytes.len() {
                        match bytes[j] {
                            b'\\' => j += 2,
                            b'\'' => {
                                j += 1;
                                break;
                            }
                            _ => j += 1,
                        }
                    }
                    blank(&mut out, bytes, i, j.min(bytes.len()));
                    i = j.min(bytes.len());
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("blanking preserves UTF-8: multibyte bytes pass through")
}

fn line_of(code: &str, index: usize) -> usize {
    code.as_bytes()[..index].iter().filter(|&&b| b == b'\n').count() + 1
}

/// Finds every occurrence of `needle` in `code` (already stripped).
fn occurrences(code: &str, needle: &str) -> Vec<usize> {
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(p) = code[from..].find(needle) {
        found.push(from + p);
        from += p + needle.len();
    }
    found
}

/// Finds uses of `item` reached through a `std::sync::{…}` brace import
/// (e.g. `use std::sync::{Barrier, Mutex}`), which plain substring search
/// on the full path misses. Returns the byte index of each hit.
fn brace_import_sites(code: &str, prefix: &str, item: &str) -> Vec<usize> {
    let mut found = Vec::new();
    let opener = format!("{prefix}::{{");
    for at in occurrences(code, &opener) {
        let group_start = at + opener.len();
        let mut depth = 1;
        let mut end = group_start;
        for (i, c) in code[group_start..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = group_start + i;
                        break;
                    }
                }
                _ => {}
            }
        }
        let group = &code[group_start..end];
        if let Some(p) = group.find(item) {
            // Token boundary: `Barrier` must not match `BarrierError`.
            let after = group[p + item.len()..].chars().next();
            if !matches!(after, Some(c) if c.is_alphanumeric() || c == '_') {
                found.push(group_start + p);
            }
        }
    }
    found
}

/// Matches `.lock()` followed (across whitespace) by `.unwrap(` or
/// `.expect(`; returns the byte index of each match.
fn bare_lock_sites(code: &str) -> Vec<usize> {
    let mut found = Vec::new();
    for at in occurrences(code, ".lock()") {
        let rest = &code[at + ".lock()".len()..];
        let trimmed = rest.trim_start();
        // `.unwrap()` exactly — `.unwrap_or_else(PoisonError::into_inner)`
        // is the recovery idiom, not a violation.
        if trimmed.starts_with(".unwrap()") || trimmed.starts_with(".expect(") {
            found.push(at);
        }
    }
    found
}

/// True when one of `line` or the three lines above it carries a
/// `relaxed:` justification comment (scanned over the *raw* source, since
/// justifications live in comments).
fn has_relaxed_justification(raw_lines: &[&str], line: usize) -> bool {
    let lo = line.saturating_sub(4); // 3 lines above, 0-indexed window
    raw_lines[lo..line].iter().any(|l| l.contains("relaxed:"))
}

/// Scans one file; `rel_path` uses forward slashes from the workspace
/// root.
pub fn scan_file(rel_path: &str, src: &str, allow: &Allowlist) -> Vec<Finding> {
    let mut findings = Vec::new();
    let code = strip_comments_and_strings(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let in_runtime_src = rel_path.starts_with("crates/runtime/src/");
    let is_facade = rel_path == "crates/runtime/src/sync.rs";
    let is_poison = rel_path.ends_with("poison.rs");

    let mut barrier_sites = occurrences(&code, "std::sync::Barrier");
    barrier_sites.extend(brace_import_sites(&code, "std::sync", "Barrier"));
    barrier_sites.sort_unstable();
    for at in barrier_sites {
        findings.push(Finding {
            rel_path: rel_path.to_string(),
            line: line_of(&code, at),
            rule: Rule::StdBarrier,
            message: "std::sync::Barrier hangs peers when a participant dies; use \
                      parsim_runtime::RoundBarrier"
                .to_string(),
        });
    }

    if !is_poison {
        for at in bare_lock_sites(&code) {
            findings.push(Finding {
                rel_path: rel_path.to_string(),
                line: line_of(&code, at),
                rule: Rule::BareLockExpect,
                message: "bare .lock().unwrap()/.expect() cascades poisoning across workers; \
                          use parsim_runtime::lock_recover"
                    .to_string(),
            });
        }
    }

    if in_runtime_src && !is_facade {
        let mut atomic_sites = occurrences(&code, "std::sync::atomic");
        atomic_sites.extend(brace_import_sites(&code, "std::sync", "atomic"));
        atomic_sites.sort_unstable();
        for at in atomic_sites {
            findings.push(Finding {
                rel_path: rel_path.to_string(),
                line: line_of(&code, at),
                rule: Rule::AtomicBypass,
                message: "atomics in crates/runtime must go through the runtime::sync facade \
                          so loom can model them"
                    .to_string(),
            });
        }
    }

    let relaxed = occurrences(&code, "Ordering::Relaxed");
    if !relaxed.is_empty() {
        let budget = allow.budget(rel_path);
        match budget {
            None => {
                for at in &relaxed {
                    findings.push(Finding {
                        rel_path: rel_path.to_string(),
                        line: line_of(&code, *at),
                        rule: Rule::RelaxedNotAllowlisted,
                        message: "Ordering::Relaxed in a file not listed in \
                                  xtask/relaxed-orderings.allow"
                            .to_string(),
                    });
                }
            }
            Some(max) => {
                if relaxed.len() > max {
                    findings.push(Finding {
                        rel_path: rel_path.to_string(),
                        line: line_of(&code, relaxed[max]),
                        rule: Rule::RelaxedOverBudget,
                        message: format!(
                            "{} Ordering::Relaxed site(s), but xtask/relaxed-orderings.allow \
                             budgets {max}; audit the new site and raise the budget",
                            relaxed.len()
                        ),
                    });
                }
                for at in &relaxed {
                    let line = line_of(&code, *at);
                    if !has_relaxed_justification(&raw_lines, line) {
                        findings.push(Finding {
                            rel_path: rel_path.to_string(),
                            line,
                            rule: Rule::RelaxedUnjustified,
                            message: "Ordering::Relaxed without a `// relaxed:` justification \
                                      comment on this or the three preceding lines"
                                .to_string(),
                        });
                    }
                }
            }
        }
    }

    findings
}

/// True for paths the audit covers (workspace sources minus vendored
/// shims, the stand-alone benchmark and build output).
fn audited(rel_path: &str) -> bool {
    rel_path.ends_with(".rs")
        && !rel_path.starts_with("crates/vendor/")
        && !rel_path.starts_with("benchmark/")
        && !rel_path.starts_with("target/")
        && !rel_path.starts_with(".git/")
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            if rel_str.starts_with("target")
                || rel_str.starts_with(".git")
                || rel_str == "benchmark"
            {
                continue;
            }
            walk(root, &path, out)?;
        } else if audited(&rel_str) {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the whole workspace; returns every finding.
pub fn scan_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let allow_path = root.join("xtask/relaxed-orderings.allow");
    let allow_text = std::fs::read_to_string(&allow_path)
        .map_err(|e| format!("cannot read {}: {e}", allow_path.display()))?;
    let allow = Allowlist::parse(&allow_text)?;
    let mut files = Vec::new();
    walk(root, root, &mut files).map_err(|e| format!("walking {}: {e}", root.display()))?;
    files.sort();
    let mut findings = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).expect("walked under root");
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        findings.extend(scan_file(&rel_str, &src, &allow));
    }
    Ok(findings)
}

pub fn run() -> ExitCode {
    // xtask lives at `<workspace>/xtask`, so the root is one level up.
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("xtask has a parent").to_path_buf();
    match scan_workspace(&root) {
        Err(e) => {
            eprintln!("lint-concurrency: {e}");
            ExitCode::FAILURE
        }
        Ok(findings) if findings.is_empty() => {
            println!("lint-concurrency: workspace clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("{f}");
            }
            eprintln!("lint-concurrency: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allow(text: &str) -> Allowlist {
        Allowlist::parse(text).expect("allowlist parses")
    }

    #[test]
    fn rejects_std_sync_barrier() {
        let src = "use std::sync::Barrier;\nfn f() { let b = std::sync::Barrier::new(2); }\n";
        let f = scan_file("crates/foo/src/lib.rs", src, &allow(""));
        assert_eq!(f.iter().filter(|f| f.rule == Rule::StdBarrier).count(), 2);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn rejects_std_barrier_in_brace_imports() {
        let src = "use std::sync::{Arc, Barrier, Mutex};\n";
        let f = scan_file("crates/foo/src/lib.rs", src, &allow(""));
        assert_eq!(f.iter().filter(|f| f.rule == Rule::StdBarrier).count(), 1, "{f:?}");
        let clean = scan_file(
            "crates/foo/src/lib.rs",
            "use parsim_runtime::{BarrierError, RoundBarrier};\n",
            &allow(""),
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn rejects_atomic_bypass_in_brace_imports() {
        let src = "use std::sync::{atomic::AtomicU64, Mutex};\n";
        let f = scan_file("crates/runtime/src/fault.rs", src, &allow(""));
        assert_eq!(f.iter().filter(|f| f.rule == Rule::AtomicBypass).count(), 1, "{f:?}");
    }

    #[test]
    fn rejects_bare_lock_expect_outside_poison() {
        let src =
            "fn f(m: &std::sync::Mutex<u32>) {\n    let _ = m.lock().unwrap();\n    let _ = m\
                   .lock()\n        .expect(\"the lock\");\n}\n";
        let f = scan_file("crates/foo/src/lib.rs", src, &allow(""));
        let lines: Vec<usize> =
            f.iter().filter(|f| f.rule == Rule::BareLockExpect).map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3], "both the unwrap and the multiline expect site");
    }

    #[test]
    fn allows_bare_lock_in_poison_rs() {
        let src = "fn lock_recover() { let _ = m.lock().unwrap_or_else(PoisonError::into_inner); \
                   let _ = m.lock().unwrap(); }\n";
        let f = scan_file("crates/runtime/src/poison.rs", src, &allow(""));
        assert!(f.is_empty(), "poison.rs is the sanctioned home of bare locks: {f:?}");
    }

    #[test]
    fn lock_recover_call_sites_are_clean() {
        let src = "fn f() { let g = lock_recover(&m); let h = m.lock().map(|x| x); \
                   let i = m.lock().unwrap_or_else(PoisonError::into_inner); }\n";
        let f = scan_file("crates/foo/src/lib.rs", src, &allow(""));
        assert!(f.is_empty(), "recovery idioms are not violations: {f:?}");
    }

    #[test]
    fn rejects_atomic_bypass_in_runtime_only() {
        let src = "use std::sync::atomic::AtomicU64;\n";
        let inside = scan_file("crates/runtime/src/fabric.rs", src, &allow(""));
        assert_eq!(inside.iter().filter(|f| f.rule == Rule::AtomicBypass).count(), 1);
        let facade = scan_file("crates/runtime/src/sync.rs", src, &allow(""));
        assert!(facade.is_empty(), "the facade itself re-exports std: {facade:?}");
        let outside = scan_file("crates/core/src/lib.rs", src, &allow(""));
        assert!(outside.is_empty(), "other crates may use std atomics directly: {outside:?}");
    }

    #[test]
    fn rejects_relaxed_without_allowlist_entry() {
        let src = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
        let f = scan_file("crates/foo/src/lib.rs", src, &allow(""));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::RelaxedNotAllowlisted);
    }

    #[test]
    fn rejects_relaxed_without_justification_comment() {
        let src = "fn f(a: &AtomicU64) {\n    a.load(Ordering::Relaxed);\n}\n";
        let f = scan_file("crates/foo/src/lib.rs", src, &allow("crates/foo/src/lib.rs = 1"));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::RelaxedUnjustified);
    }

    #[test]
    fn accepts_justified_allowlisted_relaxed() {
        let src = "fn f(a: &AtomicU64) {\n    // relaxed: monotonic counter, read only for \
                   diagnostics\n    a.load(Ordering::Relaxed);\n}\n";
        let f = scan_file("crates/foo/src/lib.rs", src, &allow("crates/foo/src/lib.rs = 1"));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn rejects_relaxed_over_budget() {
        let src = "// relaxed: a\nfn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n\
                   // relaxed: b\nfn g(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
        let f = scan_file("crates/foo/src/lib.rs", src, &allow("crates/foo/src/lib.rs = 1"));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::RelaxedOverBudget);
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = "// std::sync::Barrier is banned; .lock().unwrap() too\n\
                   /* Ordering::Relaxed in a block comment */\n\
                   fn f() { let s = \"std::sync::Barrier .lock().unwrap()\"; let _ = s; }\n\
                   fn g() { let r = r#\"Ordering::Relaxed\"#; let _ = r; }\n";
        let f = scan_file("crates/foo/src/lib.rs", src, &allow(""));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn char_literals_and_lifetimes_survive_stripping() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = '\\''; let d = 'x'; \
                   let _ = x; if c == d { 'y' } else { 'z' } }\n\
                   fn g(m: &std::sync::Mutex<u32>) { let _ = m.lock().unwrap(); }\n";
        let f = scan_file("crates/foo/src/lib.rs", src, &allow(""));
        assert_eq!(f.len(), 1, "the real lock site after the literals still fires: {f:?}");
        assert_eq!(f[0].rule, Rule::BareLockExpect);
    }

    #[test]
    fn vendor_and_target_are_exempt() {
        assert!(!audited("crates/vendor/loom/src/lib.rs"));
        assert!(!audited("target/debug/build/foo.rs"));
        assert!(!audited("benchmark/src/alloc.rs"));
        assert!(audited("crates/runtime/src/fabric.rs"));
        assert!(!audited("README.md"));
    }

    #[test]
    fn allowlist_parses_comments_and_entries() {
        let a = allow("# comment\ncrates/a.rs = 2\n\ncrates/b.rs = 0 # trailing\n");
        assert_eq!(a.budget("crates/a.rs"), Some(2));
        assert_eq!(a.budget("crates/b.rs"), Some(0));
        assert_eq!(a.budget("crates/c.rs"), None);
    }

    #[test]
    fn workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root");
        let findings = scan_workspace(root).expect("scan succeeds");
        let rendered: Vec<String> = findings.iter().map(ToString::to_string).collect();
        assert!(findings.is_empty(), "lint-concurrency findings:\n{}", rendered.join("\n"));
    }
}
