//! Integration tests for adlp-lint's token rules: each must fire on its
//! known-bad fixture and stay silent on its known-good twin, suppression must require
//! a reason, and the baseline must ratchet one way only.
//!
//! Fixtures live under `tests/fixtures/` — a directory the workspace walker
//! deliberately skips, so the intentionally-bad code never pollutes a real
//! scan. Tests feed fixture text through `analyze` under virtual
//! workspace-relative paths, because rule scoping keys off the path.

use adlp_lint::baseline::{Baseline, Delta};
use adlp_lint::{analyze, FileReport};
use std::collections::BTreeMap;

/// Violations for one rule in a report.
fn count(report: &FileReport, rule: &str) -> usize {
    report.diags.iter().filter(|d| d.rule == rule).count()
}

fn assert_clean(report: &FileReport, fixture: &str) {
    assert!(
        report.diags.is_empty(),
        "{fixture}: expected no diagnostics, got:\n{}",
        report
            .diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---- rule: lock-hygiene --------------------------------------------------

#[test]
fn lock_hygiene_fires_on_bad_fixture() {
    let report = analyze(
        "crates/audit/src/fixture.rs",
        include_str!("fixtures/lock_bad.rs"),
    );
    // One poison-propagating unwrap, one guard held across write_all.
    assert_eq!(
        count(&report, "lock-hygiene"),
        2,
        "diags: {:?}",
        report.diags
    );
}

#[test]
fn lock_hygiene_accepts_good_fixture() {
    let report = analyze(
        "crates/audit/src/fixture.rs",
        include_str!("fixtures/lock_good.rs"),
    );
    assert_clean(&report, "lock_good.rs");
}

// ---- rule: discarded-fallible --------------------------------------------

#[test]
fn discarded_fallible_fires_on_bad_fixture() {
    let report = analyze(
        "crates/audit/src/fixture.rs",
        include_str!("fixtures/discard_bad.rs"),
    );
    assert_eq!(
        count(&report, "discarded-fallible"),
        4,
        "diags: {:?}",
        report.diags
    );
}

#[test]
fn discarded_fallible_accepts_good_fixture() {
    let report = analyze(
        "crates/audit/src/fixture.rs",
        include_str!("fixtures/discard_good.rs"),
    );
    assert_clean(&report, "discard_good.rs");
}

// ---- suppression ---------------------------------------------------------

#[test]
fn allow_with_reason_suppresses_and_is_counted() {
    let report = analyze(
        "crates/audit/src/fixture.rs",
        include_str!("fixtures/suppressed.rs"),
    );
    assert_clean(&report, "suppressed.rs");
    assert_eq!(report.suppressed, 1);
}

#[test]
fn allow_without_reason_is_itself_a_violation() {
    let report = analyze(
        "crates/audit/src/fixture.rs",
        include_str!("fixtures/suppressed_no_reason.rs"),
    );
    // The reasonless directive suppresses nothing and is reported itself.
    assert_eq!(report.suppressed, 0);
    assert_eq!(count(&report, "discarded-fallible"), 1);
    assert_eq!(count(&report, "suppression-missing-reason"), 1);
}

// ---- diagnostic coordinates ----------------------------------------------

#[test]
fn diagnostics_carry_stable_positions() {
    let report = analyze(
        "crates/audit/src/fixture.rs",
        include_str!("fixtures/discard_bad.rs"),
    );
    let first = report.diags.first().expect("at least one diagnostic");
    // Line 32 is `let _ = ch.send(1);` — the first discarded send.
    assert_eq!((first.line, first.rule), (32, "discarded-fallible"));
    assert!(first.col > 1);
    assert_eq!(first.path, "crates/audit/src/fixture.rs");
}

// ---- baseline ratchet ----------------------------------------------------

fn scan_counts(path: &str, source: &str) -> BTreeMap<String, usize> {
    let report = analyze(path, source);
    let mut counts = BTreeMap::new();
    for d in &report.diags {
        *counts.entry(format!("{}:{}", d.path, d.rule)).or_insert(0) += 1;
    }
    counts
}

#[test]
fn baseline_blocks_reintroduced_violations() {
    let path = "crates/audit/src/fixture.rs";
    let bad = include_str!("fixtures/discard_bad.rs");
    let good = include_str!("fixtures/discard_good.rs");

    // 1. Debt is recorded when the baseline is first written.
    let recorded = Baseline::parse(&Baseline::render(&scan_counts(path, bad), "seed")).unwrap();
    assert_eq!(recorded.total(), 4);
    assert!(recorded.compare(&scan_counts(path, bad)).is_empty());

    // 2. Fixing the file makes the recorded debt stale — the ratchet
    //    demands the baseline be rewritten at the lower count…
    let after_fix = scan_counts(path, good);
    match recorded.compare(&after_fix).as_slice() {
        [Delta::Stale(key, 4, 0)] => {
            assert_eq!(key, "crates/audit/src/fixture.rs:discarded-fallible")
        }
        other => panic!("expected one stale entry, got {other:?}"),
    }

    // 3. …so that re-adding any of the old violations is a regression, not
    //    a return to previously-blessed debt.
    let tightened = Baseline::parse(&Baseline::render(&after_fix, "tightened")).unwrap();
    match tightened.compare(&scan_counts(path, bad)).as_slice() {
        [Delta::Regression(key, 0, 4)] => {
            assert_eq!(key, "crates/audit/src/fixture.rs:discarded-fallible");
        }
        other => panic!("expected one regression, got {other:?}"),
    }
}

#[test]
fn baseline_rejects_corruption() {
    assert!(Baseline::parse("\"a:rule\" = 1\n\"a:rule\" = 2\n").is_err());
    assert!(Baseline::parse("a:rule = 1\n").is_err());
    assert!(Baseline::parse("\"a:rule\" = many\n").is_err());
}

#[test]
fn render_roundtrips_and_drops_zeros() {
    let mut counts = BTreeMap::new();
    counts.insert("crates/a/src/x.rs:discarded-fallible".to_owned(), 3);
    counts.insert("crates/b/src/y.rs:lock-hygiene".to_owned(), 0);
    let text = Baseline::render(&counts, "two lines\nof header");
    let parsed = Baseline::parse(&text).unwrap();
    assert_eq!(parsed.total(), 3);
    assert!(!parsed.counts.contains_key("crates/b/src/y.rs:lock-hygiene"));
}
