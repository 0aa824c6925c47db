//! `adlp-lint` — a from-scratch static-analysis pass for this workspace.
//!
//! ADLP's accountability guarantees (paper Lemmas 1–4, Theorems 1–2) rest
//! on implementation invariants. Those the compiler can state live in the
//! compiler: the protocol crates and the shims they call deny clippy's
//! panic lints (a panicking subscriber is indistinguishable from a
//! *hiding* one in the audit model), the seeded sim denies the ambient
//! clocks and rng `clippy.toml` disallows, and types carry the logger's
//! checked-on-the-way-in records and the node's deposit receipts. This
//! crate enforces the rest on every `.rs` file in the workspace with a
//! real token-level lexer ([`lexer`]): two token rules ([`rules`]),
//! reporting `file:line:col` diagnostics. Lock order is not a lint: debug
//! builds check it where every lock is taken, in the workspace's
//! `parking_lot` shim.
//!
//! Pre-existing debt is recorded in a committed baseline
//! ([`baseline`], `lint-baseline.toml`) and ratcheted: `--deny` fails on
//! any violation count *above* the baseline (new debt) and on any count
//! *below* it (the baseline must be re-tightened so the fix cannot be
//! silently reverted). Individual sites can be waived inline with
//! `// adlp-lint: allow(rule-id) — reason`, reason required.

pub mod baseline;
pub mod lexer;
pub mod rules;

use lexer::{lex, TokKind, Token};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier, e.g. `lock-hygiene`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub line: u32,
    pub col: u32,
    /// What was matched and why it is a problem.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// A lexed file plus the derived facts rules need: which tokens are in
/// test-only regions, which are inside attributes, and the inline
/// suppressions.
pub struct FileCtx {
    pub path: String,
    /// Significant tokens (comments stripped).
    pub toks: Vec<Token>,
    /// Token-index ranges (inclusive start, exclusive end) of test-only
    /// code: `#[cfg(test)]` items and `#[test]`/`#[bench]` functions.
    test_regions: Vec<(usize, usize)>,
    /// Token-index ranges of `#[…]` / `#![…]` attributes.
    attr_regions: Vec<(usize, usize)>,
    /// Line → rule-ids suppressed on that line (via the line itself or a
    /// standalone allow comment directly above).
    allows: HashMap<u32, HashSet<String>>,
    /// Suppression directives missing the mandatory reason.
    pub bad_allows: Vec<(u32, String)>,
}

impl FileCtx {
    /// Lexes and annotates one file. `path` must be workspace-relative
    /// with forward slashes (it drives rule scoping).
    pub fn new(path: &str, source: &str) -> Self {
        let all = lex(source);
        let mut toks = Vec::with_capacity(all.len());
        let mut comments = Vec::new();
        for t in all {
            if t.kind == TokKind::Comment {
                comments.push(t);
            } else {
                toks.push(t);
            }
        }
        let attr_regions = find_attr_regions(&toks);
        let test_regions = find_test_regions(&toks, &attr_regions);
        let (allows, bad_allows) = collect_allows(&comments, source);
        FileCtx {
            path: path.to_owned(),
            toks,
            test_regions,
            attr_regions,
            allows,
            bad_allows,
        }
    }

    /// Whether token `i` lies in test-only code.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// Whether token `i` lies inside an attribute.
    pub fn in_attr(&self, i: usize) -> bool {
        self.attr_regions.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// Whether `rule` is suppressed at `line` by an inline allow.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        let hit = |l: u32| {
            self.allows
                .get(&l)
                .is_some_and(|set| set.contains(rule) || set.contains("all"))
        };
        hit(line)
    }
}

/// Finds `#[…]` and `#![…]` spans so rules can skip them.
fn find_attr_regions(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_punct("!") {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct("[") {
                let mut depth = 0usize;
                let mut k = j;
                while k < toks.len() {
                    if toks[k].is_punct("[") {
                        depth += 1;
                    } else if toks[k].is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                out.push((i, (k + 1).min(toks.len())));
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Whether the attribute tokens in `[s+…, e)` mark test-only code:
/// `#[test]`, `#[bench]`, or `#[cfg(…test…)]` without a leading `not`.
fn attr_marks_test(toks: &[Token]) -> bool {
    let idents: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    match idents.first() {
        Some(&"test") | Some(&"bench") => idents.len() == 1,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    }
}

/// Computes test-only regions: for each test attribute, the following
/// item (through its matching `}` or terminating `;`).
fn find_test_regions(toks: &[Token], attrs: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for &(s, e) in attrs {
        if !attr_marks_test(&toks[s..e]) {
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut i = e;
        while let Some(&(as_, ae_)) = attrs.iter().find(|&&(as_, _)| as_ == i) {
            let _ = as_;
            i = ae_;
        }
        // The item runs to its first top-level `{…}` or a `;`.
        let mut j = i;
        let mut brace = None;
        while j < toks.len() {
            if toks[j].is_punct("{") {
                brace = Some(j);
                break;
            }
            if toks[j].is_punct(";") {
                break;
            }
            j += 1;
        }
        let end = match brace {
            Some(open) => matching_close(toks, open, "{", "}"),
            None => (j + 1).min(toks.len()),
        };
        out.push((s, end));
    }
    out
}

/// Index one past the delimiter matching the opener at `open`.
fn matching_close(toks: &[Token], open: usize, op: &str, cl: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct(op) {
            depth += 1;
        } else if toks[i].is_punct(cl) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Parses `// adlp-lint: allow(rule-a, rule-b) — reason` comments.
///
/// A directive suppresses the named rules on its own line; when the
/// comment stands alone on a line it also covers the next source line.
/// The reason is mandatory — reasonless directives are themselves
/// reported (they become `suppression-missing-reason` diagnostics).
fn collect_allows(
    comments: &[Token],
    source: &str,
) -> (HashMap<u32, HashSet<String>>, Vec<(u32, String)>) {
    let lines: Vec<&str> = source.lines().collect();
    let mut allows: HashMap<u32, HashSet<String>> = HashMap::new();
    let mut bad = Vec::new();
    for c in comments {
        let Some(rest) = c.text.find("adlp-lint:").map(|i| &c.text[i + 10..]) else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(inner) = rest.strip_prefix("allow") else {
            continue;
        };
        let inner = inner.trim_start();
        let Some(open) = inner.strip_prefix('(') else {
            bad.push((c.line, "malformed allow directive".to_owned()));
            continue;
        };
        let Some(close) = open.find(')') else {
            bad.push((c.line, "unclosed allow directive".to_owned()));
            continue;
        };
        let rules: Vec<String> = open[..close]
            .split(',')
            .map(|r| r.trim().to_owned())
            .filter(|r| !r.is_empty())
            .collect();
        let reason = open[close + 1..]
            .trim_start_matches(['—', '-', '–', ':', ' '])
            .trim();
        if reason.is_empty() {
            bad.push((
                c.line,
                "allow directive without a reason (write `allow(rule) — why`)".to_owned(),
            ));
            continue;
        }
        // The directive's own line…
        allows
            .entry(c.line)
            .or_default()
            .extend(rules.iter().cloned());
        // …and, for standalone comment lines, the next line.
        let own_line = lines
            .get(c.line as usize - 1)
            .map(|l| l.trim_start().starts_with("//"))
            .unwrap_or(false);
        if own_line {
            allows.entry(c.line + 1).or_default().extend(rules);
        }
    }
    (allows, bad)
}

/// Result of analysing one file: violations plus the count of matches
/// waived by inline allows (reported in summaries, never fatal).
pub struct FileReport {
    pub diags: Vec<Diagnostic>,
    pub suppressed: usize,
}

/// Runs every rule over one file: the token rules if it is `src/` code,
/// and the reasonless-suppression check everywhere.
pub fn analyze(path: &str, source: &str) -> FileReport {
    let ctx = FileCtx::new(path, source);
    let mut raw: Vec<Diagnostic> = Vec::new();
    if path.contains("/src/") || path.starts_with("src/") {
        for rule in rules::ALL {
            (rule.check)(&ctx, &mut raw);
        }
    }
    for (line, msg) in &ctx.bad_allows {
        raw.push(Diagnostic {
            rule: "suppression-missing-reason",
            path: ctx.path.clone(),
            line: *line,
            col: 1,
            message: msg.clone(),
        });
    }
    let (allowed, mut diags): (Vec<_>, Vec<_>) = raw
        .into_iter()
        .partition(|d| ctx.is_allowed(d.rule, d.line));
    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    FileReport {
        diags,
        suppressed: allowed.len(),
    }
}

/// Analyzes each of `(path, source)`, keyed by path.
pub fn analyze_files(files: Vec<(String, String)>) -> BTreeMap<String, FileReport> {
    files
        .into_iter()
        .map(|(path, source)| {
            let report = analyze(&path, &source);
            (path, report)
        })
        .collect()
}

/// Recursively collects the workspace `.rs` files to scan, skipping build
/// output, VCS metadata, the offline dependency shims (support code with
/// its own std-lock idioms), and the lint fixtures (intentionally bad).
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    const SKIP_DIRS: &[&str] = &["target", ".git", "shims", "fixtures"];
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Scans the workspace rooted at `root`; returns per-file reports keyed by
/// relative path, in deterministic order.
pub fn scan_workspace(root: &Path) -> BTreeMap<String, FileReport> {
    let mut files = Vec::new();
    for file in workspace_files(root) {
        let Ok(source) = std::fs::read_to_string(&file) else {
            continue;
        };
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, source));
    }
    analyze_files(files)
}

/// Aggregates reports into baseline-shaped counts: `"path:rule"` → n.
pub fn count_by_key(reports: &BTreeMap<String, FileReport>) -> BTreeMap<String, usize> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for (path, report) in reports {
        for d in &report.diags {
            *counts.entry(format!("{}:{}", path, d.rule)).or_default() += 1;
        }
    }
    counts
}
