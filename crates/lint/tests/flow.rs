//! Integration tests for the flow-aware engine: each of the three new
//! rules must fire on its known-bad fixture and stay silent on its
//! known-good twin, `no-panic-paths` must propagate transitively across
//! files into code outside the protocol crates, and the baseline ratchet
//! must cover the new rule ids.

use adlp_lint::baseline::{Baseline, Delta};
use adlp_lint::graph::Workspace;
use adlp_lint::{analyze, analyze_files, workspace_files, FileCtx, FileReport};
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

// ---- rule: unverified-wire-taint -----------------------------------------

#[test]
fn wire_taint_fires_on_bad_fixture() {
    let report = analyze(
        "crates/logger/src/fixture.rs",
        include_str!("fixtures/wire_taint_bad.rs"),
    );
    assert_eq!(
        count(&report, "unverified-wire-taint"),
        1,
        "diags: {:?}",
        report.diags
    );
    let diag = report
        .diags
        .iter()
        .find(|d| d.rule == "unverified-wire-taint")
        .expect("taint diagnostic");
    // Witness runs source → sink.
    assert_eq!(diag.witness.len(), 2, "witness: {:?}", diag.witness);
    assert!(diag.witness[0].contains("read_frame"));
    assert!(diag.witness[1].contains("append_encoded"));
}

#[test]
fn wire_taint_accepts_good_fixture() {
    let report = analyze(
        "crates/logger/src/fixture.rs",
        include_str!("fixtures/wire_taint_good.rs"),
    );
    assert_clean(&report, "wire_taint_good.rs");
}

#[test]
fn wire_taint_fires_on_raw_sth_adoption() {
    // The witness crate is in scope and `adopt_head` is a sink: a gossip
    // frame flowing from the socket to STH adoption without a decode
    // step must fire.
    let report = analyze(
        "crates/witness/src/fixture.rs",
        include_str!("fixtures/sth_taint_bad.rs"),
    );
    assert_eq!(
        count(&report, "unverified-wire-taint"),
        1,
        "diags: {:?}",
        report.diags
    );
    let diag = report
        .diags
        .iter()
        .find(|d| d.rule == "unverified-wire-taint")
        .expect("taint diagnostic");
    assert_eq!(diag.witness.len(), 2, "witness: {:?}", diag.witness);
    assert!(diag.witness[0].contains("read_frame"));
    assert!(diag.witness[1].contains("adopt_head"));
}

#[test]
fn wire_taint_accepts_decoded_sth_adoption() {
    let report = analyze(
        "crates/witness/src/fixture.rs",
        include_str!("fixtures/sth_taint_good.rs"),
    );
    assert_clean(&report, "sth_taint_good.rs");
}

#[test]
fn wire_taint_fires_on_raw_tcp_gossip_ingest() {
    // `recv_gossip_frame` is a taint source even though its body is just
    // a channel pop: the accept-loop readers feed it raw socket bytes, so
    // draining it straight into `adopt_head` must fire.
    let report = analyze(
        "crates/witness/src/fixture.rs",
        include_str!("fixtures/tcp_gossip_bad.rs"),
    );
    assert_eq!(
        count(&report, "unverified-wire-taint"),
        1,
        "diags: {:?}",
        report.diags
    );
    let diag = report
        .diags
        .iter()
        .find(|d| d.rule == "unverified-wire-taint")
        .expect("taint diagnostic");
    assert_eq!(diag.witness.len(), 2, "witness: {:?}", diag.witness);
    assert!(diag.witness[0].contains("recv_gossip_frame"));
    assert!(diag.witness[1].contains("adopt_head"));
}

#[test]
fn wire_taint_accepts_decoded_tcp_gossip_ingest() {
    let report = analyze(
        "crates/witness/src/fixture.rs",
        include_str!("fixtures/tcp_gossip_good.rs"),
    );
    assert_clean(&report, "tcp_gossip_good.rs");
}

#[test]
fn wire_taint_fires_on_raw_dispute_ingest() {
    // Wire bytes handed straight to the dispute-evidence and
    // conviction-adoption sinks — one diagnostic per raw flow.
    let report = analyze(
        "crates/dispute/src/fixture.rs",
        include_str!("fixtures/dispute_taint_bad.rs"),
    );
    assert_eq!(
        count(&report, "unverified-wire-taint"),
        2,
        "diags: {:?}",
        report.diags
    );
    let witnesses: Vec<_> = report
        .diags
        .iter()
        .filter(|d| d.rule == "unverified-wire-taint")
        .flat_map(|d| d.witness.iter())
        .collect();
    assert!(witnesses.iter().any(|w| w.contains("submit_evidence")));
    assert!(witnesses.iter().any(|w| w.contains("adopt_proof")));
}

#[test]
fn wire_taint_accepts_decoded_dispute_ingest() {
    let report = analyze(
        "crates/dispute/src/fixture.rs",
        include_str!("fixtures/dispute_taint_good.rs"),
    );
    assert_clean(&report, "dispute_taint_good.rs");
}

// ---- rule: ack-before-durable --------------------------------------------

#[test]
fn ack_before_durable_fires_on_bad_fixture() {
    let report = analyze(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/ack_order_bad.rs"),
    );
    assert_eq!(
        count(&report, "ack-before-durable"),
        1,
        "diags: {:?}",
        report.diags
    );
}

#[test]
fn ack_before_durable_accepts_good_fixture() {
    let report = analyze(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/ack_order_good.rs"),
    );
    assert_clean(&report, "ack_order_good.rs");
}

// ---- transitive no-panic-paths -------------------------------------------

/// The transitive fixture pair with the caller at `crates/core/src/` and
/// the helper at `helper_dir`; `protocol` lists the crate roots given the
/// panic-denying `lib.rs`.
fn transitive_pair(helper_dir: &str, protocol: &[&str]) -> BTreeMap<String, FileReport> {
    let mut files = vec![
        (
            "crates/core/src/fixture.rs".to_owned(),
            include_str!("fixtures/transitive_panic_caller.rs").to_owned(),
        ),
        (
            format!("{helper_dir}fixture_helper.rs"),
            include_str!("fixtures/transitive_panic_helper.rs").to_owned(),
        ),
    ];
    for root in protocol {
        files.push((
            format!("{root}lib.rs"),
            include_str!("fixtures/protocol_lib.rs").to_owned(),
        ));
    }
    analyze_files(files)
}

#[test]
fn no_panic_propagates_across_files() {
    let reports = transitive_pair("crates/bench/src/", &["crates/core/src/"]);
    let caller = &reports["crates/core/src/fixture.rs"];
    let helper = &reports["crates/bench/src/fixture_helper.rs"];
    // The panicking helper is outside the protocol crates…
    assert_clean(helper, "transitive_panic_helper.rs");
    // …so the *call* from protocol code is the finding; the safe helper
    // stays quiet.
    assert_eq!(
        count(caller, "no-panic-paths"),
        1,
        "diags: {:?}",
        caller.diags
    );
    let diag = &caller.diags[0];
    assert!(
        diag.message.contains("hottest_sample"),
        "message names the callee: {}",
        diag.message
    );
    assert!(
        diag.witness.last().is_some_and(|w| w.contains(".unwrap()")),
        "witness reaches the concrete panic site: {:?}",
        diag.witness
    );
}

#[test]
fn no_panic_transitive_is_quiet_within_scope() {
    // A panicking callee *inside* a protocol crate is clippy's to report
    // at its definition; the call site stays quiet.
    let reports = transitive_pair(
        "crates/logger/src/",
        &["crates/core/src/", "crates/logger/src/"],
    );
    assert_clean(&reports["crates/core/src/fixture.rs"], "caller");
    assert_clean(&reports["crates/logger/src/fixture_helper.rs"], "helper");
}

#[test]
fn no_panic_scope_comes_from_the_crate_attribute_not_the_path() {
    // Without a panic-denying lib.rs, crates/core is not a protocol crate:
    // its call into the panicking helper is not this rule's business.
    let reports = transitive_pair("crates/bench/src/", &[]);
    assert_clean(&reports["crates/core/src/fixture.rs"], "caller");
}

#[test]
fn protocol_scope_is_the_eight_crates_that_deny_panics() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let roots: Vec<FileCtx> = workspace_files(&root)
        .into_iter()
        .filter(|p| p.ends_with("src/lib.rs"))
        .filter_map(|p| {
            let source = std::fs::read_to_string(&p).ok()?;
            let rel = p
                .strip_prefix(&root)
                .ok()?
                .to_string_lossy()
                .replace('\\', "/");
            Some(FileCtx::new(&rel, &source))
        })
        .collect();
    let ws = Workspace::build(roots);
    let crates = [
        "audit", "cluster", "core", "crypto", "dispute", "logger", "pubsub", "witness",
    ];
    let expected: Vec<String> = crates.iter().map(|c| format!("crates/{c}/src/")).collect();
    assert_eq!(ws.protocol, expected);
}

// ---- baseline ratchet over the new rule ids ------------------------------

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
