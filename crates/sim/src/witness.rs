//! Witness-federation chaos harness: a logger that lies to *some* of its
//! observers, a witness that forges, a partition that silences, a witness
//! power-cut mid-run — over either [`Link`].
//!
//! The byzantine harness ([`crate::byzantine`]) attacks the replica layer;
//! this one attacks the *accountability* layer of DESIGN.md §3.12–3.13:
//! signed tree heads, the gossiping witness federation, and light-client
//! ack audits. One scripted run drives one [`Federation`]; the only thing
//! [`WitnessLink`] changes is what the gossip crosses — seeded drop/delay
//! faults on in-process channels, or real localhost sockets behind seeded
//! [`ChaosProxy`](adlp_pubsub::transport::chaos::ChaosProxy)s (connection
//! resets mid-frame, byte-boundary splits, delays, reorders, slow-loris
//! stalls, refused dials). Every scripted attack must end in one of
//! exactly two outcomes:
//!
//! * **continued liveness** — the reachable `f + 1`-of-`2f + 1` quorum
//!   keeps cosigning the honest head, forged gossip costing nothing but a
//!   rejection counter; or
//! * **a transferable conviction** — the lying logger's own two signatures
//!   at one size form a [`SplitViewProof`] that the [`ClusterAuditor`]
//!   independently re-verifies, naming the exact log.
//!
//! Never silent acceptance, and never a false conviction: a forged head
//! (signed by anyone but the log's key) is discarded at the signature
//! check, so it can convict nobody. The restart drill adds the
//! **restart-under-chaos invariant**: a witness restarted from durable
//! state never re-anchors trust-on-first-use onto a different head, never
//! cosigns below its durable high-water mark, and the healed federation
//! reconverges to the `f + 1` cosign quorum.
//!
//! A light client rides along in every scenario through
//! [`LightClient::audit_ack_witnessed`], asking the federation itself for
//! the witnessed head: while a quorum is reachable it audits against it;
//! while none is (partition) it degrades to *counted* direct-STH
//! evidence-retention mode — `cosign_quorum_unavailable` moves, trust
//! never silently widens — and recovers on heal.
//!
//! Like every chaos harness here the run is entry-driven and seeded.

use adlp_audit::{ClusterAuditReport, ClusterAuditor};
use adlp_cluster::{ClusterConfig, LoggerCluster};
use adlp_crypto::{RsaKeyPair, RsaPrivateKey};
use adlp_logger::sth::{SignedTreeHead, SthPublisher, TreeHeadSigner};
use adlp_logger::{LogError, LogStore};
use adlp_pubsub::transport::chaos::ChaosConfig;
use adlp_pubsub::{FaultConfig, NodeId, Topic};
use adlp_witness::{
    CosignedHead, Federation, FederationConfig, InprocLink, LightClient, Link, SplitViewProof,
    SthKeyring, TcpGossipConfig, TcpLink, TreeHeadSource,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// What the scripted adversary — or the scripted crash — does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessMode {
    /// Control: one honest logger, every witness served the same view,
    /// the link under its full fault menu. Must converge, cosign-quorum
    /// the true head, and run conviction-free with zero light-client
    /// verification failures.
    Honest,
    /// The logger maintains a *forked* store — same length, one record
    /// rewritten — and serves the fork to a minority of witnesses (and to
    /// the light client, after it trusted the truth). Both views are
    /// signed by the logger's own key, so gossip assembles a transferable
    /// split-view conviction naming the logger.
    SplitViewLogger,
    /// One witness turns traitor: every round it gossips heads for the
    /// logger's identity signed with its *own* key, plus mangled frames.
    /// Honest witnesses discard the forgeries at the signature check —
    /// liveness holds, nobody is convicted.
    EquivocatingWitness,
    /// First `f` witnesses are severed (liveness must hold), then one
    /// more (the cosign quorum is gone — light clients must *degrade*,
    /// counted). Healing must re-converge the full set and recover the
    /// clients.
    PartitionedWitnesses,
    /// A witness is killed mid-run (power cut: endpoint down, storage
    /// truncated to what was synced), the log grows during the outage,
    /// and the witness restarts from its durable state. The restart
    /// invariant must hold: same TOFU anchor, high-water mark never
    /// regresses, federation reconverges — and a post-restart split-view
    /// temptation at the remembered size is *convicted*, not re-anchored.
    RestartingWitness,
    /// The two failures composed: the logger serves its fork to a
    /// minority while `f` honest-view witnesses are severed, so the
    /// conviction is assembled by a federation too small to cosign
    /// anything. Healing must lose no conviction — the returning
    /// witnesses learn it from the gossiped proof — and invent none.
    SplitViewDuringPartition,
}

/// What the federation's gossip crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessLink {
    /// In-process channels under seeded drop/delay faults.
    Inproc,
    /// Localhost sockets, every path behind a seeded chaos proxy.
    Tcp,
}

/// Deterministic plan for one witness chaos run.
#[derive(Debug, Clone)]
pub struct WitnessChaosConfig {
    /// Seed for key generation, link faults, and dial jitter.
    pub seed: u64,
    /// Records in the logger's store at the start of the run (two more
    /// are appended during the storm).
    pub entries: usize,
    /// The adversary's script.
    pub mode: WitnessMode,
    /// Witness-set fault tolerance: `2f + 1` witnesses, quorum `f + 1`.
    pub f: usize,
    /// Gossip rounds per phase (storm, outage, recovery).
    pub rounds: usize,
    /// The transport under the federation.
    pub link: WitnessLink,
}

impl WitnessChaosConfig {
    /// A plan with `f = 1` (three witnesses) over an 8-record log.
    pub fn new(seed: u64, mode: WitnessMode, link: WitnessLink) -> Self {
        WitnessChaosConfig {
            seed,
            entries: 8,
            mode,
            f: 1,
            rounds: 6,
            link,
        }
    }
}

/// Before/after snapshot of the restarted witness's durable promises.
#[derive(Debug, Clone)]
pub struct RestartDrill {
    /// Which witness was killed and restarted.
    pub witness: usize,
    /// Its TOFU anchor before the power cut.
    pub anchor_before: Option<SignedTreeHead>,
    /// Its TOFU anchor after resuming from storage.
    pub anchor_after: Option<SignedTreeHead>,
    /// Its cosignature high-water mark before the power cut.
    pub high_water_before: u64,
    /// Its cosignature high-water mark after resuming.
    pub high_water_after: u64,
}

impl RestartDrill {
    /// The restart invariant: the resumed witness kept its anchor and its
    /// high-water mark never regressed.
    pub fn invariant_holds(&self) -> bool {
        self.anchor_before.is_some()
            && self.anchor_before == self.anchor_after
            && self.high_water_after >= self.high_water_before
    }
}

/// What a witness chaos run produced.
#[derive(Debug)]
pub struct WitnessChaosOutcome {
    /// Rounds until every live witness agreed on the latest head (`None`
    /// when the mode makes convergence impossible — a split view never
    /// reconciles).
    pub converged_after: Option<usize>,
    /// The highest head with an `f + 1` cosign quorum at the end.
    pub witnessed: Option<CosignedHead>,
    /// Convictions assembled anywhere (federation + light client),
    /// deduplicated per (log, size).
    pub proofs: Vec<SplitViewProof>,
    /// Gossip discarded for bad signatures, summed over the federation.
    pub rejected: u64,
    /// Gossip frames that failed wire framing (magic/checksum).
    pub undecodable: u64,
    /// Faults the link actually injected.
    pub chaos_faults: u64,
    /// Ack audits the light client completed successfully.
    pub light_verified: u64,
    /// Ack audits that failed (the interceptor-visible
    /// `sth_verify_failures` counter).
    pub sth_verify_failures: u64,
    /// Audits spent in counted degraded mode (quorum unreachable).
    pub cosign_quorum_unavailable: u64,
    /// Degraded→quorate transitions after heals.
    pub quorum_recoveries: u64,
    /// The restart drill's before/after snapshot (restarting mode only).
    pub restart: Option<RestartDrill>,
    /// The cluster-auditor verdict with the run's evidence folded in.
    pub report: ClusterAuditReport,
    /// The federation, alive, for further interrogation.
    pub fed: Federation,
}

impl WitnessChaosOutcome {
    /// Logs named by an auditor-verified split-view conviction.
    pub fn convicted_logs(&self) -> Vec<NodeId> {
        self.report.convicted_logs()
    }
}

/// The log identity every scenario runs under.
fn logger_id() -> NodeId {
    NodeId::new("logger")
}

fn filled_store(entries: usize, fork_at: Option<usize>) -> LogStore {
    let store = LogStore::new();
    for i in 0..entries {
        let body = match fork_at {
            Some(at) if at == i => vec![0xF0, i as u8, 0xF0, i as u8],
            _ => vec![i as u8; 16],
        };
        store.append_encoded(body);
    }
    store
}

/// A signer for the logger's identity under (a copy of) `kp`'s private
/// key — the honest view, the fork and the traitor each need their own.
fn signer_for(kp: &RsaKeyPair) -> Result<TreeHeadSigner, LogError> {
    let key = RsaPrivateKey::from_bytes(&kp.private_key().to_bytes())
        .map_err(|_| LogError::Malformed("witness chaos (sth key)"))?;
    Ok(TreeHeadSigner::new(logger_id(), key))
}

/// The link under its full fault menu, rates chosen so every fault class
/// fires across a run while round-based re-broadcast still converges.
fn chaotic_link(link: WitnessLink, n: usize, seed: u64) -> Result<Box<dyn Link>, LogError> {
    Ok(match link {
        WitnessLink::Inproc => Box::new(InprocLink::new(
            n,
            FaultConfig::seeded(seed)
                .with_drop_rate(0.15)
                .with_delay(0.2, Duration::from_millis(5)),
        )),
        WitnessLink::Tcp => {
            let chaos = ChaosConfig::seeded(seed ^ 0xC_4A05)
                .with_reset_rate(0.03)
                .with_split_rate(0.35)
                .with_delay(0.10, Duration::from_millis(3))
                .with_reorder_rate(0.05)
                .with_stall(0.02, Duration::from_millis(8))
                .with_connect_reset_rate(0.05);
            Box::new(
                TcpLink::spawn(n, TcpGossipConfig::default(), chaos)
                    .map_err(|e| LogError::Io(format!("witness chaos link: {e}")))?,
            )
        }
    })
}

/// Runs one witness chaos scenario.
///
/// # Errors
///
/// Returns [`LogError`] only for harness-level failures (key derivation,
/// socket setup, cluster spawn). Adversarial behavior and injected chaos
/// are the point of the exercise and never error out of the run.
pub fn run_witness_chaos(config: &WitnessChaosConfig) -> Result<WitnessChaosOutcome, LogError> {
    use WitnessMode::*;
    let mode = config.mode;
    let splits_view = matches!(mode, SplitViewLogger | SplitViewDuringPartition);

    let logger_kp = RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(config.seed ^ 0x717E55));
    let sth_keys = SthKeyring::new().with_log(logger_id(), logger_kp.public_key().clone());

    let honest_store = filled_store(config.entries, None);
    // The forked view: same length, one record rewritten, signed by the
    // SAME logger key — the lie only split-view detection can catch.
    let forked_store = filled_store(config.entries, Some(config.entries / 2));
    let honest = Arc::new(SthPublisher::new(
        signer_for(&logger_kp)?,
        honest_store.clone(),
    ));
    let forked = Arc::new(SthPublisher::new(
        signer_for(&logger_kp)?,
        forked_store.clone(),
    ));

    let fed_config = FederationConfig::new(config.f).with_seed(config.seed);
    let n = fed_config.witnesses();
    let quorum = fed_config.witness_quorum();
    let sources: Vec<Vec<Arc<dyn TreeHeadSource>>> = (0..n)
        .map(|w| {
            // The minority (the last f witnesses) is shown the fork.
            let source = if splits_view && w >= n - config.f {
                &forked
            } else {
                &honest
            };
            vec![Arc::clone(source) as Arc<dyn TreeHeadSource>]
        })
        .collect();
    let link = chaotic_link(config.link, n, config.seed)?;
    let mut fed = Federation::new(fed_config, link, sth_keys.clone(), sources)?;

    // The traitor's imposter key: NOT the logger's, so its forged heads
    // must die at the receivers' signature check.
    let traitor_kp = RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(config.seed ^ 0x7124));
    let traitor_signer = signer_for(&traitor_kp)?;

    // The light client asks the federation itself for the witnessed head
    // on every audit; the mutable federation handle (sever/kill/restart)
    // must stay free, so the helper borrows it per call.
    let light = LightClient::new(sth_keys.clone());
    let audit = |fed: &Federation| {
        // adlp-lint: allow(discarded-fallible) — audit verdicts land in
        // the client's counters, which the assertions read directly
        let _ = light.audit_ack_witnessed(
            honest.as_ref(),
            honest_store.len() as u64 - 1,
            fed.witnessed(&logger_id()).as_ref(),
            fed.keyring(),
            quorum,
        );
    };

    if mode == SplitViewDuringPartition {
        // f honest-view witnesses are gone before the fork is ever
        // gossiped: what remains can convict but cannot cosign.
        for w in 0..config.f {
            fed.sever(w);
        }
    }

    // Phase 1: the storm. Gossip under the full fault menu; the log grows
    // a record per round so consistency proofs are exercised live.
    let mut converged_after = None;
    for round in 1..=config.rounds {
        if mode == EquivocatingWitness {
            // The traitor (last witness) gossips a head for the LOGGER's
            // identity signed with its OWN key, plus a mangled frame.
            // Receivers must discard both.
            let forged = traitor_signer.sign(
                round as u64,
                honest_store.len() as u64,
                adlp_crypto::sha256(b"history the logger never had"),
            )?;
            fed.inject(n - 1, &forged.encode());
            let mut mangled = forged.encode();
            if let Some(byte) = mangled.last_mut() {
                *byte ^= 0x55;
            }
            fed.inject(n - 1, &mangled);
        }
        fed.round();
        if converged_after.is_none() && fed.converged() {
            converged_after = Some(round);
        }
        if round <= 2 {
            honest_store.append_encoded(vec![0xA0, round as u8]);
            forked_store.append_encoded(vec![0xA0, round as u8]);
        }
    }
    // Ride out any growth still in flight (pointless under a split view,
    // which never reconciles by design).
    if !splits_view {
        if let Some(extra) = fed.run_until_converged(config.rounds) {
            converged_after.get_or_insert(config.rounds + extra);
        }
    }

    // Phase 2: the mode's signature move.
    let mut restart = None;
    match mode {
        PartitionedWitnesses => {
            // f severed: the remaining f+1 must stay live AND quorate.
            for w in 0..config.f {
                fed.sever(w);
            }
            fed.run_until_converged(config.rounds);
            audit(&fed);
            // One more severed: the cosign quorum is gone, and the
            // federation says so itself. The client must DEGRADE —
            // counted, still collecting direct evidence — not silently
            // trust the bare logger head.
            fed.sever(config.f);
            for _ in 0..2 {
                audit(&fed);
            }
            // Heal everything: full set re-converges, client recovers.
            for w in 0..=config.f {
                fed.heal(w);
            }
            let healed = fed.run_until_converged(config.rounds * 2);
            converged_after = converged_after.or(healed);
        }
        RestartingWitness => {
            let victim = n - 1;
            let promises = |fed: &Federation| {
                fed.witness(victim)
                    .map(|w| (w.anchor(&logger_id()), w.cosign_high_water(&logger_id())))
                    .unwrap_or((None, 0))
            };
            let (anchor_before, high_water_before) = promises(&fed);
            // Power cut: endpoint down, storage truncated to synced.
            fed.kill(victim);
            // The log grows while the witness is dark; the survivors keep
            // the quorum alive (f+1 of 2f+1 still standing).
            honest_store.append_encoded(vec![0xB0; 8]);
            honest_store.append_encoded(vec![0xB1; 8]);
            fed.run_until_converged(config.rounds);
            audit(&fed);
            // Restart from key + storage alone; the link brings the
            // endpoint back, gossip catches the witness up.
            fed.restart(victim)?;
            let (anchor_after, high_water_after) = promises(&fed);
            restart = Some(RestartDrill {
                witness: victim,
                anchor_before,
                anchor_after,
                high_water_before,
                high_water_after,
            });
            converged_after = fed.run_until_converged(config.rounds * 2);
            // The temptation: a fork at a size the restarted witness has
            // durably seen, signed by the logger's real key. An amnesiac
            // witness would re-anchor; a durable one convicts.
            while forked_store.len() < honest_store.len() {
                forked_store.append_encoded(vec![0xB0; 8]);
            }
            // Injected from witness 0's network position so the restarted
            // witness itself receives the fork; sent twice so link faults
            // cannot eat the only copy, and convictions spread via the
            // conviction gossip anyway.
            let fork_head = forked.emit()?;
            fed.inject(0, &fork_head.encode());
            fed.round();
            fed.inject(0, &fork_head.encode());
            for _ in 0..3 {
                fed.round();
            }
        }
        SplitViewDuringPartition => {
            // What is reachable cannot cosign: counted degradation.
            audit(&fed);
            // Heal: the returning witnesses must learn every conviction
            // they were cut off from (socket paths first wait out the
            // backoff they built up while severed).
            for w in 0..config.f {
                fed.heal(w);
            }
            for _ in 0..config.rounds * 4 {
                fed.round();
                let known = fed.proofs().len();
                if (0..n).all(|w| fed.witness(w).is_some_and(|w| w.proofs().len() == known)) {
                    break;
                }
            }
        }
        Honest | SplitViewLogger | EquivocatingWitness => {}
    }

    // Every mode ends with witnessed audits; under an honest federation
    // they are quorum-backed and clean.
    for _ in 0..3 {
        audit(&fed);
    }
    if splits_view {
        // A client shown the fork AFTER trusting the honest head catches
        // the lie on the ack path.
        // adlp-lint: allow(discarded-fallible) — the refusal is the point; it lands in the counters
        let _ = light.audit_ack(forked.as_ref(), forked_store.len() as u64 - 1);
    }

    // Fold every conviction — gossip-assembled and light-client-assembled
    // — into the cluster auditor, which re-verifies each proof itself
    // before convicting anyone.
    let mut proofs = fed.proofs();
    for proof in light.evidence() {
        if !proofs
            .iter()
            .any(|p| p.log() == proof.log() && p.size() == proof.size())
        {
            proofs.push(proof);
        }
    }
    let cluster = LoggerCluster::spawn(ClusterConfig::new(1))?;
    let auditor = ClusterAuditor::new(cluster.keys().clone())
        .with_topology([(Topic::new("image"), logger_id())])
        .with_sth_keys(sth_keys);
    let report = auditor.audit_view_with_evidence(&cluster.view(), &proofs);

    Ok(WitnessChaosOutcome {
        converged_after,
        witnessed: fed.witnessed(&logger_id()),
        proofs,
        rejected: fed.rejected(),
        undecodable: fed.undecodable(),
        chaos_faults: fed.link_counters().injected_faults,
        light_verified: light.verified_acks(),
        sth_verify_failures: light.sth_verify_failures(),
        cosign_quorum_unavailable: light.cosign_quorum_unavailable(),
        quorum_recoveries: light.quorum_recoveries(),
        restart,
        report,
        fed,
    })
}
