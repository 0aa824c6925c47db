//! The dispute court (DESIGN.md §3.14): the top layer of the chaos rig.
//!
//! [`crate::chaos`] builds a `Court` when a plan litigates: a resolver
//! pool, a claimant with a registered dispute key, and a storage-bound
//! [`DisputeLedger`]. `Litigate` files the claim a [`ClaimScript`] prepares
//! from the run's own recorded traffic and fights the first round,
//! `CrashLedger` power-cuts the ledger, and the end of the run settles the
//! verdict. Nothing here panics: a refusal comes back as a harness error.

use crate::chaos::ClaimScript;
use adlp_audit::{contestable_verdicts, AuditReport, ContestedVerdict};
use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::RsaKeyPair;
use adlp_dispute::{
    DisputeConfig, DisputeCounters, DisputeLedger, Evidence, Phase, ReplayContext, ResolutionProof,
    Resolver, ResolverContext, SignedEvidence, Vote,
};
use adlp_logger::frame::encode_frame;
use adlp_logger::{
    Direction, KeyRegistry, Keyring, LogEntry, MemStorage, RecordingWindow, Storage,
};
use adlp_pubsub::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;

const KEY_BITS: usize = 512;
/// Resolvers in the pool panels are drawn from (3 → 5 → 7 seats).
const POOL: usize = 7;

/// The Hidden conviction against `party` that `report` carries.
fn hidden_claim(report: &AuditReport, party: &NodeId) -> Result<ContestedVerdict, String> {
    contestable_verdicts(report)
        .into_iter()
        .find(|c| &c.convicted() == party)
        .ok_or_else(|| format!("the audit does not convict {party}"))
}

/// What `script` brings to court for `party`: the conviction it contests
/// and the evidence it posts. `full` audits everything the loggers hold,
/// `partial` the accuser's view without `party`'s receipts; `truth` is the
/// run's recorded window.
pub(crate) fn brief(
    script: ClaimScript,
    party: &NodeId,
    full: &AuditReport,
    partial: &AuditReport,
    truth: RecordingWindow,
) -> Result<(ContestedVerdict, Vec<Evidence>), String> {
    match script {
        // Convicted on a partial view; the full recording exonerates.
        ClaimScript::Wrongful => {
            let claim = hidden_claim(partial, party)?;
            if claim.supported_by(full) {
                return Err("the full view carries the conviction too".into());
            }
            Ok((claim, vec![Evidence::Recording(truth)]))
        }
        // Guilty, and forging: a byte-flipped window (fails verification),
        // a window padded with a fabricated unsigned receipt (verifies, but
        // the replayed auditor rejects the entry), and the true recording
        // (which exonerates nothing).
        ClaimScript::Forged => {
            let claim = hidden_claim(full, party)?;
            let ContestedVerdict::Hidden { topic, seq, .. } = &claim else {
                return Err("expected a Hidden conviction".into());
            };
            let mut tampered = truth.clone();
            let mid = tampered.bytes.len() / 2;
            *tampered.bytes.get_mut(mid).ok_or("empty recording")? ^= 0x40;
            let fabricated = LogEntry::naive(
                party.clone(),
                topic.clone(),
                Direction::In,
                *seq,
                0,
                vec![0xAB; 32],
            );
            let mut padded = truth.clone();
            padded
                .bytes
                .extend_from_slice(&encode_frame(0, &fabricated.encode()));
            let forged = [tampered, padded, truth].map(Evidence::Recording);
            Ok((claim, forged.into()))
        }
        ClaimScript::Bribed => Ok((hidden_claim(full, party)?, vec![Evidence::Recording(truth)])),
        ClaimScript::Withheld => Ok((hidden_claim(full, party)?, Vec::new())),
    }
}

/// A settled dispute, as the oracle and the tests read it.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The transferable resolution proof (outcome, rounds, every vote).
    pub proof: ResolutionProof,
    /// The resolver keys the proof verifies under.
    pub resolvers: Keyring<NodeId>,
    /// Whether the full-view audit supports the contested conviction.
    pub supported: bool,
    /// Total stake posted across all rounds.
    pub total_staked: u64,
    /// Every verifying recording posted as evidence, for replay checks.
    pub windows: Vec<RecordingWindow>,
    /// The context those windows replay under.
    pub replay: ReplayContext,
}

/// The dispute court: resolver pool, claimant, storage-bound ledger.
pub(crate) struct Court {
    ledger: DisputeLedger,
    resolvers: Vec<Resolver>,
    keyring: Keyring<NodeId>,
    ctx: ResolverContext,
    claimant: NodeId,
    claimant_key: RsaPrivateKey,
    storage: Arc<MemStorage>,
    parties: KeyRegistry,
    /// What crashed ledger incarnations had counted (a ledger's own
    /// counters are runtime-only and restart from zero).
    retired: DisputeCounters,
    /// The open dispute: id, bribed resolvers, [`Verdict::supported`].
    case: Option<(u64, BTreeSet<NodeId>, bool)>,
}

fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

impl Court {
    pub(crate) fn new(seed: u64, claimant: NodeId, replay: ReplayContext) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15B);
        let claimant_pair = RsaKeyPair::generate(KEY_BITS, &mut rng);
        let parties = KeyRegistry::new();
        parties
            .register(&claimant, claimant_pair.public_key().clone())
            .map_err(fail("register claimant"))?;
        let mut resolvers = Vec::with_capacity(POOL);
        let mut keyring = Keyring::new();
        for i in 0..POOL {
            let id = NodeId::new(format!("resolver-{i}"));
            let pair = RsaKeyPair::generate(KEY_BITS, &mut rng);
            keyring.insert(id.clone(), pair.public_key().clone());
            resolvers.push(Resolver::new(id, pair.into_private_key()));
        }
        let mut court = Court {
            ledger: DisputeLedger::new(DisputeConfig::default()),
            resolvers,
            keyring,
            ctx: ResolverContext::new(replay),
            claimant,
            claimant_key: claimant_pair.into_private_key(),
            storage: Arc::new(MemStorage::new()),
            parties,
            retired: DisputeCounters::default(),
            case: None,
        };
        if court.boot()? {
            return Err("fresh dispute storage resumed state".into());
        }
        Ok(court)
    }

    /// A new ledger bound to the court's storage; whether it resumed.
    fn boot(&mut self) -> Result<bool, String> {
        self.ledger = DisputeLedger::new(DisputeConfig::default())
            .with_parties(self.parties.clone())
            .with_resolvers(self.keyring.clone());
        self.ledger
            .bind_storage(Arc::clone(&self.storage) as Arc<dyn Storage>)
            .map_err(fail("bind dispute storage"))
    }

    /// Ledger counters summed over every ledger incarnation.
    pub(crate) fn counters(&self) -> DisputeCounters {
        let (now, was) = (self.ledger.counters(), self.retired);
        DisputeCounters {
            opened: was.opened + now.opened,
            evidence_accepted: was.evidence_accepted + now.evidence_accepted,
            evidence_rejected: was.evidence_rejected + now.evidence_rejected,
            votes_accepted: was.votes_accepted + now.votes_accepted,
            votes_rejected: was.votes_rejected + now.votes_rejected,
            escalations: was.escalations + now.escalations,
            finalized: was.finalized + now.finalized,
        }
    }

    /// Files `claim` with `evidence` under the claimant's key, convenes the
    /// panel (its first seat bribed when `bribe`), fights round 0, and
    /// escalates if that deadlocked. [`Court::settle`] finishes the case.
    pub(crate) fn open(
        &mut self,
        claim: ContestedVerdict,
        supported: bool,
        evidence: Vec<Evidence>,
        bribe: bool,
    ) -> Result<(), String> {
        let id = self
            .ledger
            .open(self.claimant.clone(), claim)
            .map_err(fail("open dispute"))?;
        for ev in evidence {
            let signed = SignedEvidence::sign(self.claimant.clone(), id, 0, ev, &self.claimant_key)
                .map_err(fail("sign evidence"))?;
            self.ledger
                .submit_evidence(id, signed)
                .map_err(fail("submit evidence"))?;
        }
        let panel = self.ledger.convene(id).map_err(fail("convene panel"))?;
        let bribed = panel.into_iter().take(usize::from(bribe)).collect();
        self.case = Some((id, bribed, supported));
        if self.vote_round()? != Phase::Finalizing {
            self.escalate()?;
        }
        Ok(())
    }

    fn escalate(&mut self) -> Result<(), String> {
        let (id, ..) = self.case.as_ref().ok_or("no open dispute")?;
        self.ledger
            .escalate(*id, self.claimant.clone())
            .map(drop)
            .map_err(fail("escalate"))
    }

    /// Casts the current round's outstanding votes: honest seats judge the
    /// evidence, bribed ones sign the opposite of their own evaluation.
    fn vote_round(&mut self) -> Result<Phase, String> {
        let (id, bribed, _) = self.case.as_ref().ok_or("no open dispute")?;
        let dispute = self.ledger.dispute(*id).ok_or("dispute vanished")?.clone();
        let voted: BTreeSet<&NodeId> = dispute.votes.iter().map(|v| &v.resolver).collect();
        let instance = self.ledger.config().instance;
        let mut phase = dispute.phase;
        for (round, member) in &dispute.panel {
            if *round != dispute.round || voted.contains(member) {
                continue;
            }
            let resolver = self
                .resolvers
                .iter()
                .find(|r| r.id() == member)
                .ok_or("panel member outside the pool")?;
            let (claim, evidence) = (&dispute.claim, &dispute.evidence);
            let vote = if bribed.contains(member) {
                let flipped = match Resolver::evaluate(claim, evidence, &self.ctx) {
                    Vote::Uphold => Vote::Overturn,
                    Vote::Overturn => Vote::Uphold,
                };
                resolver.cast(instance, *id, *round, flipped, claim, evidence)
            } else {
                resolver.judge(instance, *id, *round, claim, evidence, &self.ctx)
            }
            .map_err(fail("sign vote"))?;
            phase = self
                .ledger
                .submit_vote(*id, vote)
                .map_err(fail("submit vote"))?;
        }
        Ok(phase)
    }

    /// Power-cuts the ledger's storage and resumes a fresh ledger from it.
    /// Every acknowledged mutation was write-replaced, so the open dispute
    /// must come back exactly as it was: returns whether it did.
    pub(crate) fn crash(&mut self) -> Result<bool, String> {
        let id = self.case.as_ref().ok_or("no open dispute to crash")?.0;
        let before = self.ledger.dispute(id).cloned();
        self.retired = self.counters();
        self.storage.crash();
        Ok(self.boot()? && self.ledger.dispute(id).cloned() == before)
    }

    /// Votes and escalates until the panel settles, then finalizes.
    pub(crate) fn settle(&mut self) -> Result<Verdict, String> {
        while self.vote_round()? != Phase::Finalizing {
            self.escalate()?;
        }
        let (id, _, supported) = self.case.take().ok_or("no open dispute")?;
        let proof = self.ledger.finalize(id).map_err(fail("finalize"))?;
        let dispute = self.ledger.dispute(id).ok_or("dispute vanished")?;
        let windows = dispute
            .evidence
            .iter()
            .filter_map(|ev| match &ev.evidence {
                Evidence::Recording(w) if w.verify() => Some(w.clone()),
                _ => None,
            })
            .collect();
        Ok(Verdict {
            proof,
            resolvers: self.keyring.clone(),
            supported,
            total_staked: dispute.total_staked(),
            windows,
            replay: self.ctx.replay.clone(),
        })
    }
}
