//! The chaos suite: every row of `chaos::plans` × `SEEDS` (rows with a
//! witness federation on both links), named `layer::link::plan` — so
//! `cargo test -p adlp-sim --test chaos -- witness::tcp::` selects a slice.
//!
//! `run_chaos` already applied the outcome oracle to every run (liveness or
//! counted loss; acked entries kept, in order; exactly the expected
//! culprits; nothing durable going backwards; proofs standing alone). A
//! row's function in [`facts`] holds only what the oracle cannot know about
//! its plan.

use adlp_cluster::epoch::shard_log_id;
use adlp_cluster::{empty_shard_root, ClusterConfig, ReplicaDivergence, ReplicaStatus};
use adlp_crypto::sha256::{sha256, Digest};
use adlp_logger::merkle::MerkleTree;
use adlp_sim::chaos::{acked_in_order, judge, plan, run_chaos, ChaosPlan, Snapshot, SEEDS};
use adlp_sim::{ChaosFailure, ChaosLink, ChaosOutcome, Expect, Fault};

/// The oracle for a shard root: rebuilt from scratch over the quorum log's
/// bytes, where the view reads it from the winning store's tree.
fn rebuilt_root(records: &[Vec<u8>]) -> Digest {
    let leaves: Vec<Digest> = records.iter().map(|r| sha256(r)).collect();
    MerkleTree::build(&leaves)
        .root()
        .unwrap_or_else(empty_shard_root)
}

fn run(name: &str, seed: u64, link: ChaosLink) -> ChaosOutcome {
    let out = run_chaos(&plan(name, seed, link)).unwrap_or_else(|failure| panic!("{failure}"));
    for shard in &out.view.shards {
        assert_eq!(
            shard.root,
            rebuilt_root(&shard.records),
            "{name} seed {seed} {link:?}: shard {} root",
            shard.shard
        );
    }
    out
}

/// Runs the row on every seed, handing each outcome to `facts` with a
/// label for assertion messages.
fn each_seed(name: &str, link: ChaosLink, facts: fn(&str, &ChaosOutcome)) {
    for seed in SEEDS {
        let label = format!("{name} seed {seed} {link:?}");
        facts(&label, &run(name, seed, link));
    }
}

/// One `#[test] fn $plan()` per row listed, over `$link`, checking the
/// plan-specific facts of `facts::$plan` on every seed.
macro_rules! rows {
    ($link:expr => $($plan:ident),*) => {
        $(#[test] fn $plan() { crate::each_seed(stringify!($plan), $link, crate::facts::$plan) })*
    };
}

/// What each plan must show beyond the oracle, by row name.
mod facts {
    use super::*;

    fn rejoined_lagging(out: &ChaosOutcome, replica: (usize, usize)) -> bool {
        matches!(out.run.rejoined[..], [(s, r, ReplicaStatus::Lagging { .. })] if (s, r) == replica)
    }

    /// The lengths the verified convictions were signed at.
    fn conviction_lengths(out: &ChaosOutcome) -> Vec<u64> {
        out.report
            .convictions
            .iter()
            .map(|p| p.first.length)
            .collect()
    }

    /// The size of shard 0's head the federation holds a cosign quorum on.
    fn witnessed_size(out: &ChaosOutcome) -> Option<u64> {
        let head = out.fed.as_ref()?.witnessed(&shard_log_id(0))?;
        Some(head.sth.size)
    }

    /// Every honest-view light audit verified (the one of a fork must not).
    fn honest_audits_verified(out: &ChaosOutcome) -> bool {
        let forks = u64::from(!out.convicted.logs.is_empty());
        out.counter("light.verified_acks") + forks == out.counter("light.audits")
    }

    /// (rounds fought, total staked, escalations granted).
    fn court(out: &ChaosOutcome) -> (u32, u64, u64) {
        let verdict = out.verdict.as_ref().expect("the plan litigates");
        let escalations = out.counter("dispute.escalations");
        (verdict.proof.rounds, verdict.total_staked, escalations)
    }

    pub fn single_logger_crash(run: &str, out: &ChaosOutcome) {
        assert!(out.counter("cluster.acked") > 0, "{run}: acked nothing");
        assert_eq!(out.run.recoveries.len(), 5, "{run}: crash schedule broke");
        assert!(
            out.run.refused > 0,
            "{run}: every deposit acked — faults never fired"
        );
        // Every recovery's account flows into the shared counters.
        let truncated: u64 = out.run.recoveries.iter().map(|r| r.records_truncated).sum();
        assert_eq!(truncated, out.counter("cluster.records_truncated"), "{run}");
        // Surviving crashes neither hides tampering nor shifts the blame.
        let recovered = out.cluster.replica(0, 0).unwrap().handle().store().clone();
        recovered
            .tamper_with_record(recovered.len() / 2, vec![0xEE; 40])
            .unwrap();
        assert_eq!(
            recovered.verify_chain().unwrap_err().first_bad_index,
            recovered.len() / 2,
            "{run}"
        );
    }

    pub fn cluster_crash(run: &str, out: &ChaosOutcome) {
        let found = &out.run.recoveries[0];
        assert!(
            found.snapshot_records + found.wal_replayed > 0,
            "{run}: restarted empty"
        );
        assert!(
            rejoined_lagging(out, (0, 2)),
            "{run}: {:?}",
            out.run.rejoined
        );
        assert!(
            out.run.adopted > 0,
            "{run}: catch-up adopted nothing despite the crash window"
        );
        assert!(
            out.view.lagging().is_empty(),
            "{run}: still lagging after catch-up"
        );
        assert_eq!(out.report.undecodable, 0, "{run}");
        assert_eq!(
            out.counter("cluster.records_truncated"),
            found.records_truncated,
            "{run}"
        );
    }

    pub fn honest(run: &str, out: &ChaosOutcome) {
        assert_eq!(
            (out.counter("cluster.acked"), out.run.refused),
            (24, 0),
            "{run}: an honest 3f+1 acks everything"
        );
        assert!(out.report.all_clear(), "{run}: {:?}", out.report);
        assert!(
            out.counter("cluster.attestations_verified") > 0,
            "{run}: acks must flow through signed attestations"
        );
        assert_eq!(
            (
                out.counter("cluster.attestations_rejected"),
                out.counter("cluster.equivocations_detected")
            ),
            (0, 0),
            "{run}"
        );
    }

    pub fn equivocate(run: &str, out: &ChaosOutcome) {
        // Liveness: the forged heads never match the honest 2f+1.
        assert_eq!(out.run.refused, 0, "{run}");
        assert_eq!(out.report.invalid_convictions, 0, "{run}");
        // The traitor stored honestly: only the attestation layer
        // sees it, and it flags exactly the traitor.
        assert_eq!(out.view.equivocated(), [(0, 2)], "{run}");
        assert!(out.counter("cluster.equivocations_detected") >= 1, "{run}");
    }

    pub fn stale_replay(run: &str, out: &ChaosOutcome) {
        assert_eq!(out.run.refused, 0, "{run}");
        assert!(out.report.all_clear(), "{run}: {:?}", out.report);
        // All but the first replay supported nothing, and was counted.
        assert!(out.counter("cluster.failovers") >= 23, "{run}");
    }

    pub fn conflicting_seal(run: &str, out: &ChaosOutcome) {
        assert_eq!(out.run.refused, 0, "{run}: deposits were honest all run");
        let sealed = out.run.seals[0].shard_roots[0].leaf_count as u64;
        assert!(
            conviction_lengths(out).contains(&sealed),
            "{run}: the conviction must be at the sealed length {sealed}"
        );
        // The honest seal still stands: the second signature convicts
        // its signer without un-sealing the epoch.
        let shard = &out.view.shards[0];
        assert!(
            out.run.seals[0].verify_shard(0, &shard.root, shard.records.len()),
            "{run}"
        );
        assert!(out.counter("cluster.equivocations_detected") >= 1, "{run}");
    }

    pub fn silent(run: &str, out: &ChaosOutcome) {
        assert_eq!(
            (out.counter("cluster.acked"), out.run.refused),
            (24, 0),
            "{run}: 2f+1 honest voices suffice"
        );
        assert!(
            out.counter("cluster.failovers") >= 24,
            "{run}: withholding is counted like death"
        );
        assert!(out.report.all_clear(), "{run}: {:?}", out.report);
    }

    pub fn witness_honest(run: &str, out: &ChaosOutcome) {
        // Healing a witness nobody severed moved nothing but link traffic.
        let heal = &out.trail.fired[0];
        let still = |(k, v): &(&String, &u64)| {
            k.starts_with("link.") || heal.before.counters.get(*k) == Some(*v)
        };
        assert!(
            heal.after.counters.iter().all(|kv| still(&kv))
                && heal.after.anchors == heal.before.anchors,
            "{run}"
        );
        assert!(
            out.run.last_converged.is_some(),
            "{run}: gossip must converge under link faults"
        );
        assert_eq!(
            witnessed_size(out),
            Some(8),
            "{run}: the true head is witnessed"
        );
        assert!(out.report.all_clear(), "{run}: {:?}", out.report);
        assert_eq!(
            out.counter("gossip.rejected") + out.counter("light.sth_verify_failures"),
            0,
            "{run}"
        );
        assert_eq!(
            out.counter("light.cosign_quorum_unavailable"),
            0,
            "{run}: the quorum never went away"
        );
        assert!(
            out.counter("link.injected_faults") > 0,
            "{run}: the fault menu injected nothing"
        );
    }

    pub fn split_view_logger(run: &str, out: &ChaosOutcome) {
        assert_eq!(
            out.report.invalid_split_views, 0,
            "{run}: every folded proof is genuine"
        );
        assert!(
            out.counter("light.sth_verify_failures") >= 1,
            "{run}: the forked ack must fail"
        );
        assert!(honest_audits_verified(out), "{run}: detection, not outage");
    }

    pub fn forged_witness_gossip(run: &str, out: &ChaosOutcome) {
        assert!(
            out.counter("gossip.rejected") >= 1,
            "{run}: forged heads die at the signature check"
        );
        assert!(
            out.counter("gossip.undecodable") >= 1,
            "{run}: mangled frames die at the framing check"
        );
        assert!(out.report.all_clear(), "{run}: {:?}", out.report);
        assert!(out.run.last_converged.is_some(), "{run}");
        assert_eq!(witnessed_size(out), Some(8), "{run}");
        assert_eq!(out.counter("light.sth_verify_failures"), 0, "{run}");
    }

    pub fn partitioned_witnesses(run: &str, out: &ChaosOutcome) {
        assert!(
            out.run.last_converged >= Some(6),
            "{run}: the healed federation must re-converge"
        );
        assert_eq!(
            out.fed.as_ref().unwrap().live().len(),
            3,
            "{run}: all witnesses healed"
        );
        assert_eq!(witnessed_size(out), Some(8), "{run}");
        assert!(
            out.counter("light.cosign_quorum_unavailable") >= 2,
            "{run}: quorum loss must be counted"
        );
        assert_eq!(
            out.counter("light.quorum_recoveries"),
            1,
            "{run}: one recovery when the quorum returns"
        );
        assert!(
            honest_audits_verified(out),
            "{run}: degraded is evidence retention, not outage"
        );
        assert!(out.report.all_clear(), "{run}: {:?}", out.report);
    }

    pub fn restarting_witness(run: &str, out: &ChaosOutcome) {
        let (fed, log) = (out.fed.as_ref().unwrap(), shard_log_id(0));
        assert_eq!(fed.restarts(2), 2, "{run}");
        // The restart invariant, beside clause 4 (which also keeps the
        // cosign high-water mark from falling): going into each power
        // cut and coming out of each restart, one and the same anchor.
        let anchor = format!("witness2/{log}");
        let held: Vec<_> = out
            .trail
            .fired
            .iter()
            .filter_map(|fired| match fired.fault {
                Fault::KillWitness(2) => Some(fired.before.anchors.get(&anchor)),
                Fault::RestartWitness(2) => Some(fired.after.anchors.get(&anchor)),
                _ => None,
            })
            .collect();
        assert!(
            held.len() == 4 && held[0].is_some(),
            "{run}: the witness was never anchored"
        );
        assert!(
            held.iter().all(|h| *h == held[0]),
            "{run}: re-anchored across a restart"
        );
        // Resumed, it caught up: going into the second cut all three
        // witnesses had cosigned the log up to the same size.
        let mark = |w| {
            out.trail.fired[2]
                .before
                .counters
                .get(&format!("witness{w}.cosign_high_water/{log}"))
        };
        assert_eq!(
            [mark(0), mark(1), mark(2)],
            [Some(&6); 3],
            "{run}: must reconverge around the resumed witness"
        );
        // Shown the fork, it endorsed nothing: the head it vouches for is the true log's.
        let vouched = fed.witness(2).unwrap().latest_head(&log).unwrap();
        let truth = out
            .cluster
            .replica(0, 0)
            .unwrap()
            .handle()
            .store()
            .root_at(vouched.size as usize);
        assert_eq!(
            Some(vouched.root),
            truth,
            "{run}: the restarted witness cosigned the fork"
        );
        assert_eq!(fed.live().len(), 3, "{run}: every witness is back");
        assert_eq!(
            out.counter("light.cosign_quorum_unavailable"),
            0,
            "{run}: f+1 survivors keep the quorum"
        );
        assert_eq!(out.report.invalid_split_views, 0, "{run}");
        // The restarted witness ITSELF convicts: it remembered the
        // honest head and refused to re-anchor onto the fork.
        assert!(!fed.witness(2).unwrap().proofs().is_empty(), "{run}");
    }

    pub fn split_view_during_partition(run: &str, out: &ChaosOutcome) {
        let fed = out.fed.as_ref().unwrap();
        assert!(
            out.counter("light.cosign_quorum_unavailable") >= 1,
            "{run}: no quorum while f+1 disagree"
        );
        // Healing lost no conviction and invented none.
        for w in 0..3 {
            assert_eq!(
                fed.witness(w).unwrap().proofs().len(),
                fed.proofs().len(),
                "{run}: witness {w}"
            );
        }
        assert_eq!(
            out.counter("gossip.rejected") + out.report.invalid_split_views as u64,
            0,
            "{run}"
        );
        assert_eq!(
            (fed.live().len(), out.counter("light.quorum_recoveries")),
            (3, 1),
            "{run}"
        );
        assert_eq!(
            witnessed_size(out),
            Some(8),
            "{run}: quorum back on the true head"
        );
        assert!(honest_audits_verified(out), "{run}");
    }

    pub fn wrongful_conviction(run: &str, out: &ChaosOutcome) {
        assert_eq!(
            court(out),
            (1, 16, 0),
            "{run}: a unanimous panel, one round"
        );
        let rejected =
            out.counter("dispute.evidence_rejected") + out.counter("dispute.votes_rejected");
        assert_eq!(rejected, 0, "{run}");
    }

    pub fn forged_evidence(run: &str, out: &ChaosOutcome) {
        assert_eq!(court(out), (1, 16, 0), "{run}");
    }

    // One bought seat forces one escalation at a doubled stake.
    pub fn bribed_resolver(run: &str, out: &ChaosOutcome) {
        assert_eq!(court(out), (2, 16 + 32, 1), "{run}");
    }

    pub fn withholding_claimant(run: &str, out: &ChaosOutcome) {
        assert_eq!(court(out), (1, 16, 0), "{run}");
    }

    // Round, panel, stakes and votes survived the power cut (clause
    // 2) and the escalation count did not restart from zero (4).
    pub fn crash_mid_escalation(run: &str, out: &ChaosOutcome) {
        assert_eq!(court(out), (2, 16 + 32, 1), "{run}");
    }

    // Unanimous from the conflict proof alone: the court holds the
    // replica keyring the proof verifies under.
    pub fn equivocation_litigated(run: &str, out: &ChaosOutcome) {
        assert_eq!(court(out), (1, 16, 0), "{run}");
        let rejected =
            out.counter("dispute.evidence_rejected") + out.counter("dispute.votes_rejected");
        assert_eq!(rejected, 0, "{run}");
        assert_eq!(out.view.equivocated(), [(0, 2)], "{run}");
    }

    pub fn equivocator_during_witness_partition(run: &str, out: &ChaosOutcome) {
        assert_eq!(out.run.refused, 0, "{run}: the honest 2f+1 carry every ack");
        assert!(
            out.counter("light.cosign_quorum_unavailable") >= 2,
            "{run}: degradation is counted"
        );
        assert_eq!(
            out.counter("light.quorum_recoveries"),
            1,
            "{run}: and ends on heal"
        );
        assert!(honest_audits_verified(out), "{run}");
        assert_eq!(witnessed_size(out), Some(8), "{run}");
    }

    pub fn power_cut_while_split_view_is_gossiped(run: &str, out: &ChaosOutcome) {
        assert!(
            rejoined_lagging(out, (0, 1)),
            "{run}: {:?}",
            out.run.rejoined
        );
        assert!(
            out.view.lagging().is_empty() && out.run.adopted > 0,
            "{run}"
        );
        assert_eq!(
            out.run.refused, 0,
            "{run}: the quorum carried every deposit"
        );
        assert!(honest_audits_verified(out), "{run}");
    }

    pub fn catch_up_across_a_seal(run: &str, out: &ChaosOutcome) {
        // Both seals verified (clause 5), each over what the quorum
        // held when it was cut.
        let sealed: Vec<(u64, usize)> = out
            .run
            .seals
            .iter()
            .map(|s| (s.epoch, s.shard_roots[0].leaf_count))
            .collect();
        assert_eq!(sealed, [(1, 6), (2, 12)], "{run}");
        // One catch-up pass adopted the whole outage, seal included.
        assert_eq!((out.run.adopted, out.view.lagging().len()), (6, 0), "{run}");
        assert!(
            rejoined_lagging(out, (0, 3)),
            "{run}: {:?}",
            out.run.rejoined
        );
        // Recording tags follow seal order: everything deposited or
        // adopted after the first seal is tagged with its epoch.
        let tags: Vec<u64> = out
            .cluster
            .shard_recorder(0)
            .unwrap()
            .replay()
            .unwrap()
            .frames
            .iter()
            .map(|f| f.0)
            .collect();
        assert!(
            tags.windows(2).all(|w| w[0] <= w[1]) && tags.contains(&1),
            "{run}: {tags:?}"
        );
        // A dead replica signs nothing: the first seal's view had the 3
        // live ones sign their heads, the second all 4.
        let verified = |snap: &Snapshot| snap.counters["cluster.attestations_verified"];
        let seals = out
            .trail
            .fired
            .iter()
            .filter(|fired| fired.fault == Fault::Seal);
        let signed: Vec<u64> = seals
            .map(|seal| verified(&seal.after) - verified(&seal.before))
            .collect();
        assert_eq!(signed, [3, 4], "{run}");
    }

    pub fn device_dies_then_heals(run: &str, out: &ChaosOutcome) {
        assert_eq!(out.run.refused, 0, "{run}: the quorum carried the outage");
        assert!(
            out.counter("cluster.failovers") >= 4
                && out.counter("cluster.wal_append_failures") >= 1,
            "{run}"
        );
        // The prefix acked before the device died came back intact.
        assert_eq!(
            out.run.recoveries[0].wal_replayed + out.run.recoveries[0].snapshot_records,
            4,
            "{run}"
        );
        assert!(
            rejoined_lagging(out, (0, 1)),
            "{run}: {:?}",
            out.run.rejoined
        );
        assert_eq!((out.run.adopted, out.view.lagging().len()), (4, 0), "{run}");
    }
}

mod storage {
    mod inproc {
        use crate::*;
        rows!(ChaosLink::Inproc => single_logger_crash, cluster_crash);

        #[test]
        fn device_faults_fire_across_the_seeds() {
            // The harness is only credible if the injector bites.
            let runs = SEEDS.map(|seed| run("single_logger_crash", seed, ChaosLink::Inproc));
            let fired = |name| runs.iter().map(|out| out.counter(name)).sum::<u64>();
            assert!(
                fired("cluster.wal_append_failures") > 0,
                "no torn write ever refused an append"
            );
            assert!(
                fired("cluster.fsync_failures") > 0,
                "no fsync failure ever fired"
            );
        }

        #[test]
        fn cluster_tamper_attribution_identical_to_crash_free_run() {
            for seed in SEEDS {
                let runs = ["cluster_crash", "cluster_crash_free"]
                    .map(|name| run(name, seed, ChaosLink::Inproc));
                assert!(runs[1].run.recoveries.is_empty() && runs[1].run.adopted == 0);
                // Rewrite the same record on the same replica in both clusters.
                let blamed = runs.each_ref().map(|out| {
                    let store = out.cluster.replica(0, 0).unwrap().handle().store().clone();
                    store.tamper_with_record(0, vec![0xEE; 40]).unwrap();
                    out.cluster.view().divergences()
                });
                let culprit = ReplicaDivergence {
                    shard: 0,
                    replica: 0,
                    first_divergent_index: 0,
                };
                assert_eq!(
                    blamed[0],
                    vec![culprit],
                    "seed {seed}: chaos run misattributed the tamper"
                );
                assert_eq!(
                    blamed[0], blamed[1],
                    "seed {seed}: crash history changed the attribution"
                );
            }
        }
    }
}

mod cluster {
    mod inproc {
        rows!(crate::ChaosLink::Inproc => honest, equivocate, stale_replay, conflicting_seal, silent);
    }
}

macro_rules! witness_rows {
    ($link:expr) => {
        rows!($link => witness_honest, split_view_logger, forged_witness_gossip,
            partitioned_witnesses, restarting_witness, split_view_during_partition);
    };
}

mod witness {
    mod inproc {
        witness_rows!(crate::ChaosLink::Inproc);
    }
    mod tcp {
        witness_rows!(crate::ChaosLink::Tcp);
    }
}

mod dispute {
    mod inproc {
        rows!(crate::ChaosLink::Inproc => wrongful_conviction, forged_evidence, bribed_resolver,
            withholding_claimant, crash_mid_escalation, equivocation_litigated);
    }
}

mod composed {
    mod inproc {
        rows!(crate::ChaosLink::Inproc => equivocator_during_witness_partition,
            power_cut_while_split_view_is_gossiped, catch_up_across_a_seal, device_dies_then_heals);
    }
    mod tcp {
        rows!(crate::ChaosLink::Tcp => equivocator_during_witness_partition,
            power_cut_while_split_view_is_gossiped);
    }
}

/// The oracle must bite: hand-broken outcomes fail, naming their clause.
mod oracle {
    use crate::*;

    fn breaks(clause: u8, expect: &Expect, out: &ChaosOutcome) {
        let breach = judge(expect, out).expect_err("a broken outcome must not pass");
        assert_eq!(breach.clause, clause, "{breach}");
    }

    #[test]
    fn clause_1_an_ack_neither_kept_nor_counted() {
        let mut out = run("honest", 11, ChaosLink::Inproc);
        out.run.acked[0].pop();
        breaks(1, &Expect::default(), &out);
    }

    #[test]
    fn clause_1_a_litigated_run_still_accounts_its_stream() {
        let mut out = run("equivocation_litigated", 11, ChaosLink::Inproc);
        out.run.refused += 1;
        breaks(
            1,
            &plan("equivocation_litigated", 11, ChaosLink::Inproc).expect,
            &out,
        );
    }

    #[test]
    fn clause_2_an_acked_entry_removed_from_the_quorum_log() {
        let mut out = run("honest", 11, ChaosLink::Inproc);
        out.view.shards[0].records.remove(5);
        breaks(2, &Expect::default(), &out);
    }

    #[test]
    fn clause_2_two_acked_entries_swapped() {
        let mut out = run("honest", 11, ChaosLink::Inproc);
        out.view.shards[0].records.swap(3, 4);
        let breach = judge(&Expect::default(), &out).unwrap_err();
        assert_eq!(breach.clause, 2);
        assert!(
            breach.detail.contains("out of submission order")
                && breach.detail.contains("(cam, image, seq 4)"),
            "{breach}"
        );
        // The clause itself, on a bare reordered log.
        let log: Vec<Vec<u8>> = vec![vec![1], vec![3], vec![2]];
        assert!(acked_in_order(0, &[vec![1], vec![2], vec![3]], &log).is_err());
        assert!(
            acked_in_order(0, &[vec![1], vec![2]], &log).is_ok(),
            "unacked entries may interleave"
        );
    }

    #[test]
    fn clause_3_an_extra_and_a_missing_conviction() {
        let mut out = run("equivocate", 11, ChaosLink::Inproc);
        out.convicted.replicas = vec![(0, 1)];
        breaks(
            3,
            &Expect {
                replicas: vec![(0, 2)],
                ..Expect::default()
            },
            &out,
        );
    }

    #[test]
    fn clause_4_a_counter_that_went_down() {
        let mut out = run("honest", 11, ChaosLink::Inproc);
        out.settled
            .counters
            .insert("cluster.attestations_verified".into(), 3);
        breaks(4, &Expect::default(), &out);
        // Forgetting a counter is no way around the clause.
        out.settled.counters.remove("cluster.attestations_verified");
        breaks(4, &Expect::default(), &out);
    }

    #[test]
    fn clause_5_a_vote_transplanted_from_another_ledger() {
        let mut out = run("bribed_resolver", 11, ChaosLink::Inproc);
        let expect = out.convicted.clone();
        out.verdict.as_mut().unwrap().proof.votes[0].instance ^= 1;
        breaks(5, &expect, &out);
    }

    #[test]
    fn a_red_seed_is_diagnosable_from_its_failure_text() {
        let mut wrong = plan("equivocate", 11, ChaosLink::Inproc);
        wrong.expect.replicas = vec![(0, 1)];
        let failure = run_chaos(&wrong).expect_err("the wrong replica is expected");
        assert!(matches!(failure, ChaosFailure::Oracle(..)));
        let text = failure.to_string();
        for needle in [
            "`equivocate`",
            "seed 11",
            "clause (3)",
            "replicas [(0, 1)]",
            "replicas [(0, 2)]",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(
            text.contains("fired before deposit 0: Traitor(0, 2, Equivocate)"),
            "{text}"
        );
        assert!(
            text.contains("cluster.acked=24"),
            "the counter snapshots are printed:\n{text}"
        );
    }

    #[test]
    fn a_plan_the_rig_cannot_run_is_a_harness_error_not_a_panic() {
        let plan = |events| ChaosPlan {
            name: "degenerate",
            seed: 11,
            link: ChaosLink::Inproc,
            cluster: ClusterConfig::new(1),
            events,
            expect: Expect::default(),
        };
        assert_eq!(
            run_chaos(&plan(vec![]))
                .expect("an empty plan is a run of nothing")
                .run
                .deposits,
            0
        );
        for events in [
            vec![(1, Fault::Restart(5, 5))],
            vec![(0, Fault::CrashLedger)],
            vec![(0, Fault::SeverWitness(9))],
        ] {
            let failure = run_chaos(&plan(events)).expect_err("nothing there to break");
            assert!(matches!(failure, ChaosFailure::Harness(..)), "{failure}");
        }
    }
}
