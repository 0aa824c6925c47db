//! Integration tests for the flow-aware engine: `lock-order-cycles` must
//! fire on its known-bad fixture, stay silent on its known-good twin and
//! on crates outside its scope, and the baseline ratchet must cover its
//! rule id.

use adlp_lint::baseline::{Baseline, Delta};
use adlp_lint::{analyze, FileReport};
use std::collections::BTreeMap;

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

// ---- rule: lock-order-cycles ---------------------------------------------

#[test]
fn lock_order_cycles_fires_on_bad_fixture() {
    let report = analyze(
        "crates/cluster/src/fixture.rs",
        include_str!("fixtures/lock_cycle_bad.rs"),
    );
    assert_eq!(
        count(&report, "lock-order-cycles"),
        1,
        "diags: {:?}",
        report.diags
    );
    let diag = report
        .diags
        .iter()
        .find(|d| d.rule == "lock-order-cycles")
        .expect("cycle diagnostic");
    // The witness names both locks and walks the full cycle.
    let witness = diag.witness.join(" | ");
    assert!(
        witness.contains("Client.inner") && witness.contains("Ledger.state"),
        "witness should name both locks: {witness}"
    );
    assert_eq!(diag.witness.len(), 2, "two edges in a two-lock cycle");
}

#[test]
fn lock_order_cycles_accepts_good_fixture() {
    let report = analyze(
        "crates/cluster/src/fixture.rs",
        include_str!("fixtures/lock_cycle_good.rs"),
    );
    assert_clean(&report, "lock_cycle_good.rs");
}

#[test]
fn lock_order_cycles_is_scoped() {
    // The same cycle in the audit crate (not on the hot lock paths the
    // rule protects) must not fire.
    let report = analyze(
        "crates/audit/src/fixture.rs",
        include_str!("fixtures/lock_cycle_bad.rs"),
    );
    assert_eq!(count(&report, "lock-order-cycles"), 0);
}

// ---- baseline ratchet over the flow rule id ------------------------------

#[test]
fn baseline_ratchets_flow_rules() {
    let path = "crates/cluster/src/fixture.rs";
    let scan = |src: &str| -> BTreeMap<String, usize> {
        let report = analyze(path, src);
        let mut counts = BTreeMap::new();
        for d in &report.diags {
            *counts.entry(format!("{}:{}", d.path, d.rule)).or_insert(0) += 1;
        }
        counts
    };
    let bad = scan(include_str!("fixtures/lock_cycle_bad.rs"));
    let good = scan(include_str!("fixtures/lock_cycle_good.rs"));
    assert_eq!(bad["crates/cluster/src/fixture.rs:lock-order-cycles"], 1);

    let recorded = Baseline::parse(&Baseline::render(&bad, "seed")).unwrap();
    assert!(recorded.compare(&bad).is_empty());
    // Fixing the cycle makes the entry stale…
    match recorded.compare(&good).as_slice() {
        [Delta::Stale(key, 1, 0)] => {
            assert_eq!(key, "crates/cluster/src/fixture.rs:lock-order-cycles")
        }
        other => panic!("expected one stale entry, got {other:?}"),
    }
    // …and after tightening, reintroducing it is a regression.
    let tightened = Baseline::parse(&Baseline::render(&good, "tight")).unwrap();
    match tightened.compare(&bad).as_slice() {
        [Delta::Regression(key, 0, 1)] => {
            assert_eq!(key, "crates/cluster/src/fixture.rs:lock-order-cycles")
        }
        other => panic!("expected one regression, got {other:?}"),
    }
}
