//! Witness chaos suite: the acceptance proofs for the witness federation
//! (DESIGN.md §3.13), one table over link × scenario × seed.
//!
//! Every scenario runs on both links — seeded drop/delay faults on
//! in-process channels, and real localhost sockets behind seeded chaos
//! proxies (resets, splits, delays, reorders, stalls, refused dials) —
//! and every scripted attack must end in continued liveness (the
//! reachable `f + 1`-of-`2f + 1` quorum keeps cosigning the honest head)
//! or an auditor-re-verified split-view conviction naming the exact log:
//! never silent acceptance of a fork, never a false conviction from
//! forged gossip.
//!
//! The restart-under-chaos invariant, across every seed and both links:
//!
//! * the restarted witness never re-TOFUs onto a different anchor,
//! * its cosign high-water mark never regresses,
//! * the federation reconverges to the `f + 1` cosign quorum after every
//!   partition heals,
//! * zero false convictions, and every genuine split view convicted.
//!
//! Tests are named `<link>::<scenario>`, so `cargo test --test
//! witness_chaos inproc::` (or `tcp::`) selects one link.

use adlp_pubsub::NodeId;
use adlp_sim::{
    run_witness_chaos, WitnessChaosConfig, WitnessChaosOutcome, WitnessLink, WitnessMode,
};

const SEEDS: [u64; 4] = [11, 23, 37, 49];

/// The true head: 8 seeded records + 2 grown during the storm.
const TRUE_HEAD: u64 = 10;

fn logger() -> NodeId {
    NodeId::new("logger")
}

/// Runs `mode` on `link` once per seed, handing each outcome to `check`
/// with a label for assertion messages.
fn for_each_seed(link: WitnessLink, mode: WitnessMode, check: impl Fn(&str, WitnessChaosOutcome)) {
    for seed in SEEDS {
        let out = run_witness_chaos(&WitnessChaosConfig::new(seed, mode, link)).expect("chaos run");
        check(&format!("{link:?} {mode:?} seed {seed}"), out);
    }
}

fn honest_federation_converges_conviction_free(link: WitnessLink) {
    for_each_seed(link, WitnessMode::Honest, |run, out| {
        assert!(
            out.converged_after.is_some(),
            "{run}: gossip must converge under link faults"
        );
        let witnessed = out.witnessed.as_ref().expect("quorum-cosigned head");
        assert_eq!(
            witnessed.sth.size, TRUE_HEAD,
            "{run}: the true head is witnessed"
        );
        assert!(
            out.proofs.is_empty(),
            "{run}: no convictions in an honest run"
        );
        assert_eq!(out.rejected, 0, "{run}");
        assert_eq!(
            out.sth_verify_failures, 0,
            "{run}: honest acks must verify cleanly"
        );
        assert_eq!(out.light_verified, 3, "{run}");
        assert_eq!(
            out.cosign_quorum_unavailable, 0,
            "{run}: the quorum never went away"
        );
        assert!(out.report.all_clear(), "{run}: {:?}", out.report);
        // Chaos must actually be engaging the link — otherwise the suite
        // proves nothing about robustness.
        assert!(
            out.chaos_faults > 0,
            "{run}: the fault menu injected nothing"
        );
    });
}

fn split_view_logger_is_convicted_by_its_own_signatures(link: WitnessLink) {
    for_each_seed(link, WitnessMode::SplitViewLogger, |run, out| {
        // Gossip assembled a transferable conviction.
        assert!(
            !out.proofs.is_empty(),
            "{run}: the fork must be detected by gossip"
        );
        // The auditor RE-VERIFIED the proof itself and names exactly the
        // lying logger — nothing else.
        assert!(!out.report.all_clear(), "{run}");
        assert_eq!(out.convicted_logs(), vec![logger()], "{run}");
        assert_eq!(
            out.report.invalid_split_views, 0,
            "{run}: every folded proof is genuine"
        );
        // The light client shown the fork after trusting the truth also
        // caught it on the ack path.
        assert!(
            out.sth_verify_failures >= 1,
            "{run}: the forked ack must fail verification"
        );
        // The honest-view audits still verified — detection, not outage.
        assert_eq!(out.light_verified, 3, "{run}");
    });
}

fn forged_witness_gossip_is_rejected_not_believed(link: WitnessLink) {
    for_each_seed(link, WitnessMode::EquivocatingWitness, |run, out| {
        // The forged heads died at the signature check, the mangled frames
        // at the framing check.
        assert!(
            out.rejected >= 1,
            "{run}: forged heads must be counted as rejected"
        );
        assert!(
            out.undecodable >= 1,
            "{run}: mangled frames must be counted as undecodable"
        );
        // No false conviction: a forgery carries no logger signature, so
        // it can convict nobody.
        assert!(
            out.proofs.is_empty(),
            "{run}: forged gossip must never assemble a conviction"
        );
        assert!(out.report.all_clear(), "{run}: {:?}", out.report);
        // Liveness: the honest quorum still witnessed the true head.
        assert!(out.converged_after.is_some(), "{run}");
        assert_eq!(
            out.witnessed.as_ref().expect("quorum head").sth.size,
            TRUE_HEAD,
            "{run}"
        );
        assert_eq!(out.sth_verify_failures, 0, "{run}");
    });
}

fn partition_degrades_light_clients_counted_and_heals_to_quorum(link: WitnessLink) {
    for_each_seed(link, WitnessMode::PartitionedWitnesses, |run, out| {
        // Liveness through the f-partition, reconvergence after heal.
        assert!(
            out.converged_after.is_some(),
            "{run}: the healed federation must re-converge"
        );
        assert!(out.fed.converged(), "{run}");
        assert_eq!(out.fed.live().len(), 3, "{run}: all witnesses healed");
        let witnessed = out.witnessed.as_ref().expect("post-heal quorum head");
        assert_eq!(witnessed.sth.size, TRUE_HEAD, "{run}");
        // Degradation was COUNTED while the quorum was gone — the
        // federation itself reported no witnessed head — and recovery
        // fired exactly once on heal.
        assert!(
            out.cosign_quorum_unavailable >= 2,
            "{run}: quorum loss must be counted"
        );
        assert_eq!(
            out.quorum_recoveries, 1,
            "{run}: one recovery when the quorum returns"
        );
        assert!(
            out.light_verified >= 3,
            "{run}: direct audits kept verifying during degradation — evidence retention, not outage"
        );
        assert!(out.proofs.is_empty(), "{run}");
        assert!(out.report.all_clear(), "{run}: {:?}", out.report);
        assert_eq!(out.sth_verify_failures, 0, "{run}");
    });
}

fn restarted_witness_keeps_its_promises_under_chaos(link: WitnessLink) {
    for_each_seed(link, WitnessMode::RestartingWitness, |run, out| {
        let drill = out.restart.as_ref().expect("restart drill ran");
        // The restart invariant: same TOFU anchor byte-for-byte, and a
        // high-water mark that never regressed across the power cut.
        assert!(
            drill.invariant_holds(),
            "{run}: restart invariant violated: {drill:?}"
        );
        assert_eq!(
            out.fed.restarts(drill.witness),
            1,
            "{run}: exactly one restart was drilled"
        );
        // The federation reconverged around the resumed witness, on heads
        // grown while it was dark.
        assert!(
            out.converged_after.is_some(),
            "{run}: must reconverge after the restart"
        );
        assert_eq!(
            out.fed.live().len(),
            out.fed.config().witnesses(),
            "{run}: every witness is back"
        );
        // Liveness never lapsed: the survivors held the cosign quorum, so
        // the light client never had to degrade.
        assert_eq!(
            out.cosign_quorum_unavailable, 0,
            "{run}: f+1 survivors keep the quorum"
        );
        // The post-restart temptation — the logger's own fork at a size
        // the witness durably remembers — was CONVICTED, not re-anchored.
        assert!(
            !out.proofs.is_empty(),
            "{run}: the temptation fork must be convicted"
        );
        assert_eq!(out.convicted_logs(), vec![logger()], "{run}");
        assert_eq!(
            out.report.invalid_split_views, 0,
            "{run}: zero false convictions"
        );
        // The restarted witness ITSELF holds the conviction — it remembered
        // the honest head and refused to re-anchor onto the fork.
        let victim = out.fed.witness(drill.witness).expect("victim present");
        assert!(
            !victim.proofs().is_empty(),
            "{run}: the restarted witness must convict"
        );
        // And the anchor map across the whole federation still agrees on
        // one anchor per log.
        let anchors = out.fed.anchors();
        assert_eq!(
            anchors[&drill.witness].get(&logger()),
            drill.anchor_after.as_ref(),
            "{run}: the durable anchor is the federation-visible one"
        );
    });
}

fn split_view_during_a_partition_loses_no_conviction_and_invents_none(link: WitnessLink) {
    for_each_seed(link, WitnessMode::SplitViewDuringPartition, |run, out| {
        // The fork was convicted by a federation too small to cosign…
        assert!(
            !out.proofs.is_empty(),
            "{run}: the fork must be convicted while partitioned"
        );
        assert!(
            out.cosign_quorum_unavailable >= 1,
            "{run}: no quorum while f + 1 disagree"
        );
        // …and after the heal every witness — the ones that were cut off
        // included — holds every conviction the federation knows.
        for w in 0..out.fed.config().witnesses() {
            assert_eq!(
                out.fed.witness(w).expect("witness").proofs().len(),
                out.fed.proofs().len(),
                "{run}: witness {w} is missing a conviction"
            );
        }
        // None is false, and the auditor names exactly the logger.
        assert_eq!(
            out.rejected, 0,
            "{run}: every gossiped conviction re-verified"
        );
        assert_eq!(out.report.invalid_split_views, 0, "{run}");
        assert_eq!(out.convicted_logs(), vec![logger()], "{run}");
        // The honest majority is whole again: quorum back on the true head.
        assert_eq!(out.fed.live().len(), 3, "{run}");
        assert_eq!(out.quorum_recoveries, 1, "{run}");
        assert_eq!(
            out.witnessed.as_ref().expect("quorum head").sth.size,
            TRUE_HEAD,
            "{run}"
        );
        assert_eq!(
            out.light_verified, 4,
            "{run}: every honest-view audit verified"
        );
    });
}

/// Instantiates every scenario once per link, as `<link>::<scenario>`.
macro_rules! on_each_link {
    ($($scenario:ident),* $(,)?) => {
        mod inproc {
            $(#[test] fn $scenario() { super::$scenario(super::WitnessLink::Inproc) })*
        }
        mod tcp {
            $(#[test] fn $scenario() { super::$scenario(super::WitnessLink::Tcp) })*
        }
    };
}

on_each_link!(
    honest_federation_converges_conviction_free,
    split_view_logger_is_convicted_by_its_own_signatures,
    forged_witness_gossip_is_rejected_not_believed,
    partition_degrades_light_clients_counted_and_heals_to_quorum,
    restarted_witness_keeps_its_promises_under_chaos,
    split_view_during_a_partition_loses_no_conviction_and_invents_none,
);
