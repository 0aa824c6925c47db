//! The dispute ledger: multi-round escalation with durable state.
//!
//! Any party may contest an audit conviction by opening a dispute against
//! it, posting signed evidence. An odd-sized resolver panel independently
//! re-derives the verdict and votes; a **strict supermajority**
//! (`lead × 3 > total × 2`) settles the dispute, and anything short of it
//! escalates — each escalation round adds resolvers (keeping the panel
//! odd) and costs the escalating party a stake that doubles per round, so
//! stalling a resolution it keeps losing grows unboundedly expensive.
//!
//! The lifecycle mirrors an on-chain dispute flow:
//!
//! ```text
//! open → Issued → (counter-evidence) → Fought → convene → Evaluating
//!     → (votes, supermajority) → Finalizing → finalize → Finalized
//!     → (votes, deadlock)      → Evaluating ──escalate──► Evaluating
//!                                Finalizing ──escalate──► Evaluating
//! ```
//!
//! Every accepted mutation is **recorded before it is spoken**: the whole
//! ledger state is re-encoded and [`Storage::write_replace`]d before the
//! call returns `Ok`, so a crash at any point between calls resumes from
//! exactly the last acknowledged state ([`DisputeLedger::bind_storage`]).
//! A finalized dispute yields a [`ResolutionProof`] — the contested claim
//! plus the full signed vote set — verifiable by any third party holding
//! the resolver keyring. Every vote is signed over the ledger instance,
//! the dispute id, **and a digest of the claim itself**, so a proof's
//! votes cannot be re-presented under a different claim (or another
//! ledger's same-numbered dispute) and still verify.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use adlp_audit::ContestedVerdict;
use adlp_crypto::{Digest, Statement};
use adlp_logger::encoding::{read_uvarint, write_uvarint};
use adlp_logger::frame::DurableCell;
use adlp_logger::{KeyRegistry, Keyring, LogError, Storage, Wire};
use adlp_pubsub::NodeId;

use crate::evidence::{evidence_set_digest, SignedEvidence};
use crate::resolver::{claim_digest, SignedVote, Vote};

/// Storage file the ledger persists its full state under.
pub const DISPUTE_STATE_FILE: &str = "dispute-ledger";

/// Magic of the persisted ledger state (a sealed blob,
/// `adlp_logger::frame`).
pub const DISPUTE_STATE_MAGIC: &[u8; 8] = b"ADLPDSP1";

/// Where a dispute is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Opened; only the claimant has spoken.
    Issued = 0,
    /// A counterparty posted evidence too.
    Fought = 1,
    /// A panel is convened; evidence is frozen; votes are being collected.
    Evaluating = 2,
    /// The current vote set holds a supermajority; awaiting finalization
    /// (or a further escalation by the losing side).
    Finalizing = 3,
    /// Settled; the outcome and its [`ResolutionProof`] are immutable.
    Finalized = 4,
}

/// One byte: the discriminant.
impl Wire for Phase {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        match u8::decode_from(src)? {
            0 => Ok(Phase::Issued),
            1 => Ok(Phase::Fought),
            2 => Ok(Phase::Evaluating),
            3 => Ok(Phase::Finalizing),
            4 => Ok(Phase::Finalized),
            _ => Err(LogError::Malformed("dispute phase")),
        }
    }
}

/// How a finalized dispute settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The contested conviction stands.
    Upheld = 1,
    /// The contested conviction is overturned.
    Overturned = 2,
}

/// One byte: the discriminant (never 0, which a [`Dispute`] writes while
/// it has no outcome yet).
impl Wire for Outcome {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        match u8::decode_from(src)? {
            1 => Ok(Outcome::Upheld),
            2 => Ok(Outcome::Overturned),
            _ => Err(LogError::Malformed("dispute outcome")),
        }
    }
}

/// Ledger policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct DisputeConfig {
    /// Identifier of this ledger instance. Dispute ids are ledger-local
    /// sequence numbers; the instance id goes under every vote signature
    /// so votes (and [`ResolutionProof`]s) from one ledger can never be
    /// replayed against another ledger's same-numbered dispute. Deployments
    /// running several ledgers under one resolver keyring must give each a
    /// distinct instance.
    pub instance: u64,
    /// Stake the claimant posts to open (round 0); each escalation to
    /// round *r* costs `base_stake << r` (saturating at `u64::MAX`).
    pub base_stake: u64,
    /// Panel size at round 0. Must be odd.
    pub initial_panel: usize,
    /// Resolvers added per escalation. Must be even (keeps the panel odd).
    pub escalation_step: usize,
    /// Hard ceiling on escalation rounds (round 0 plus this many
    /// escalations).
    pub max_rounds: u32,
}

impl Default for DisputeConfig {
    fn default() -> Self {
        DisputeConfig {
            instance: 0,
            base_stake: 16,
            initial_panel: 3,
            escalation_step: 2,
            max_rounds: 8,
        }
    }
}

/// Ingest and resolution accounting. Runtime-only: rejected submissions
/// never mutate durable state, so counters are not persisted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DisputeCounters {
    /// Disputes opened.
    pub opened: u64,
    /// Evidence envelopes accepted.
    pub evidence_accepted: u64,
    /// Evidence envelopes rejected (bad signature, unknown party, wrong
    /// binding, frozen phase).
    pub evidence_rejected: u64,
    /// Votes accepted.
    pub votes_accepted: u64,
    /// Votes rejected (bad signature, non-panelist, duplicate, stale
    /// evidence digest, wrong binding).
    pub votes_rejected: u64,
    /// Escalation rounds granted.
    pub escalations: u64,
    /// Disputes finalized.
    pub finalized: u64,
}

/// One dispute's complete state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dispute {
    /// Ledger-assigned identifier.
    pub id: u64,
    /// The contested conviction.
    pub claim: ContestedVerdict,
    /// The contesting party.
    pub claimant: NodeId,
    /// Lifecycle phase.
    pub phase: Phase,
    /// Current escalation round (0 = initial panel).
    pub round: u32,
    /// Panel members as `(round joined, resolver)`; a member votes exactly
    /// once, in the round it joined.
    pub panel: Vec<(u32, NodeId)>,
    /// Accepted evidence (frozen once a panel is convened).
    pub evidence: Vec<SignedEvidence>,
    /// Accepted votes, across all rounds.
    pub votes: Vec<SignedVote>,
    /// Stakes posted, in order: `(party, amount)`.
    pub stakes: Vec<(NodeId, u64)>,
    /// Settled outcome, once finalized.
    pub outcome: Option<Outcome>,
}

impl Dispute {
    /// `(uphold, overturn)` counts over all accepted votes.
    pub fn tally(&self) -> (usize, usize) {
        let uphold = self.votes.iter().filter(|v| v.vote == Vote::Uphold).count();
        (uphold, self.votes.len() - uphold)
    }

    /// The outcome the vote set settles on, if the leader holds a strict
    /// supermajority (`lead × 3 > total × 2`). A 2–1 panel does not settle
    /// (6 > 6 fails); 3–0 and 4–1 do.
    pub fn supermajority(&self) -> Option<Outcome> {
        let (uphold, overturn) = self.tally();
        let total = uphold + overturn;
        let (lead, outcome) = if uphold >= overturn {
            (uphold, Outcome::Upheld)
        } else {
            (overturn, Outcome::Overturned)
        };
        (total > 0 && lead * 3 > total * 2).then_some(outcome)
    }

    /// Whether every convened panel member has voted.
    pub fn round_complete(&self) -> bool {
        !self.panel.is_empty() && self.votes.len() == self.panel.len()
    }

    /// All panel members, in joining order.
    pub fn panel_members(&self) -> Vec<NodeId> {
        self.panel.iter().map(|(_, r)| r.clone()).collect()
    }

    /// Total stake posted so far.
    pub fn total_staked(&self) -> u64 {
        self.stakes.iter().map(|(_, s)| s).sum()
    }

    /// Digest of the (frozen) evidence set votes must be bound to.
    pub fn evidence_digest(&self) -> Digest {
        evidence_set_digest(&self.evidence)
    }
}

/// One record of the ledger's state file.
impl Wire for Dispute {
    fn put(&self, out: &mut Vec<u8>) {
        self.id.put_field(out);
        self.claim.put_field(out);
        self.claimant.put_field(out);
        self.phase.put_field(out);
        self.round.put_field(out);
        self.panel.put_field(out);
        self.evidence.put_field(out);
        self.votes.put_field(out);
        self.stakes.put_field(out);
        // The settled outcome's own byte, or 0 while there is none.
        match self.outcome {
            None => out.push(0),
            Some(outcome) => outcome.put_field(out),
        }
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        Ok(Dispute {
            id: Wire::decode_field(src)?,
            claim: Wire::decode_field(src)?,
            claimant: Wire::decode_field(src)?,
            phase: Wire::decode_field(src)?,
            round: Wire::decode_field(src)?,
            panel: Wire::decode_field(src)?,
            evidence: Wire::decode_field(src)?,
            votes: Wire::decode_field(src)?,
            stakes: Wire::decode_field(src)?,
            outcome: if src.first() == Some(&0) {
                u8::decode_from(src)?;
                None
            } else {
                Some(Wire::decode_field(src)?)
            },
        })
    }
}

/// A finalized dispute's transferable resolution: the claim, the outcome,
/// and every signed vote that produced it. Verifiable by any third party
/// holding the resolver keyring — like the proofs disputes are fought
/// over, a resolution needs no trusted narrator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolutionProof {
    /// The ledger instance the dispute was fought on
    /// ([`DisputeConfig::instance`]).
    pub instance: u64,
    /// The dispute settled.
    pub dispute: u64,
    /// The conviction that was contested.
    pub claim: ContestedVerdict,
    /// How it settled.
    pub outcome: Outcome,
    /// Rounds fought (1 = initial panel only).
    pub rounds: u32,
    /// Every accepted vote, across all rounds.
    pub votes: Vec<SignedVote>,
}

impl ResolutionProof {
    /// Verifies the resolution: an odd number of votes from distinct
    /// resolvers, all signatures valid under `keyring`, all bound to this
    /// instance, this dispute, **a digest of this proof's own `claim`**
    /// (recomputed here, so swapping the claim breaks every vote), and one
    /// evidence set, with the claimed outcome held by a strict
    /// supermajority. A "resolution" failing any of it proves nothing.
    pub fn verify(&self, keyring: &Keyring<NodeId>) -> bool {
        if self.votes.is_empty() || self.votes.len().is_multiple_of(2) {
            return false;
        }
        let expected_claim = claim_digest(&self.claim);
        let mut resolvers = BTreeSet::new();
        let evidence_digest = &self.votes[0].evidence_digest;
        for vote in &self.votes {
            if vote.instance != self.instance
                || vote.dispute != self.dispute
                || u64::from(vote.round) >= u64::from(self.rounds)
                || vote.claim_digest != expected_claim
                || &vote.evidence_digest != evidence_digest
                || !resolvers.insert(vote.resolver.clone())
                || !keyring.verify(vote)
            {
                return false;
            }
        }
        let for_outcome = self
            .votes
            .iter()
            .filter(|v| match self.outcome {
                Outcome::Upheld => v.vote == Vote::Uphold,
                Outcome::Overturned => v.vote == Vote::Overturn,
            })
            .count();
        for_outcome * 3 > self.votes.len() * 2
    }
}

/// Transferable: the claim and every vote, each in its slot.
impl Wire for ResolutionProof {
    fn put(&self, out: &mut Vec<u8>) {
        self.instance.put_field(out);
        self.dispute.put_field(out);
        self.claim.put_field(out);
        self.outcome.put_field(out);
        self.rounds.put_field(out);
        self.votes.put_field(out);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        Ok(ResolutionProof {
            instance: Wire::decode_field(src)?,
            dispute: Wire::decode_field(src)?,
            claim: Wire::decode_field(src)?,
            outcome: Wire::decode_field(src)?,
            rounds: Wire::decode_field(src)?,
            votes: Wire::decode_field(src)?,
        })
    }
}

/// Everything the ledger persists: the next dispute id and every dispute.
#[derive(Debug, Default)]
struct LedgerState {
    next_id: u64,
    disputes: BTreeMap<u64, Dispute>,
}

/// The ledger's state file, a sealed blob under [`DISPUTE_STATE_MAGIC`].
impl Wire for LedgerState {
    const MAGIC: Option<&'static [u8; 8]> = Some(DISPUTE_STATE_MAGIC);

    fn put(&self, out: &mut Vec<u8>) {
        self.next_id.put_field(out);
        write_uvarint(out, self.disputes.len() as u64);
        for dispute in self.disputes.values() {
            dispute.put_field(out);
        }
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        let next_id = u64::decode_field(src)?;
        let mut disputes = BTreeMap::new();
        for _ in 0..read_uvarint(src)? {
            let dispute = Dispute::decode_field(src)?;
            disputes.insert(dispute.id, dispute);
        }
        Ok(LedgerState { next_id, disputes })
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The dispute ledger. Party keys (for evidence signatures) and resolver
/// keys (for votes) are runtime wiring; the disputes themselves persist
/// through bound [`Storage`].
#[derive(Debug)]
pub struct DisputeLedger {
    config: DisputeConfig,
    parties: KeyRegistry,
    resolvers: Keyring<NodeId>,
    cell: Option<DurableCell<LedgerState>>,
    state: LedgerState,
    counters: DisputeCounters,
}

impl DisputeLedger {
    /// A fresh, unbound ledger.
    pub fn new(config: DisputeConfig) -> Self {
        DisputeLedger {
            config,
            parties: KeyRegistry::new(),
            resolvers: Keyring::new(),
            cell: None,
            state: LedgerState::default(),
            counters: DisputeCounters::default(),
        }
    }

    /// Sets the registry evidence signatures are verified under.
    pub fn with_parties(mut self, parties: KeyRegistry) -> Self {
        self.parties = parties;
        self
    }

    /// Sets the resolver pool (vote keys and panel-selection pool).
    pub fn with_resolvers(mut self, resolvers: Keyring<NodeId>) -> Self {
        self.resolvers = resolvers;
        self
    }

    /// Binds durable storage. If a persisted ledger state exists it is
    /// adopted (crash resume) and `true` is returned; otherwise the
    /// current (empty) state is persisted and `false` is returned.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] on device failure, [`LogError::Malformed`]
    /// if a state file is present but corrupt — an empty one included: the
    /// ledger never starts blank over stakes it can no longer read.
    pub fn bind_storage(&mut self, storage: Arc<dyn Storage>) -> Result<bool, LogError> {
        let cell = DurableCell::new(storage, DISPUTE_STATE_FILE);
        let resumed = match cell.load()? {
            Some(state) => {
                self.state = state;
                true
            }
            None => false,
        };
        self.cell = Some(cell);
        if !resumed {
            self.persist()?;
        }
        Ok(resumed)
    }

    /// The ledger's policy.
    pub fn config(&self) -> &DisputeConfig {
        &self.config
    }

    /// Ingest/resolution counters.
    pub fn counters(&self) -> DisputeCounters {
        self.counters
    }

    /// One dispute's state.
    pub fn dispute(&self, id: u64) -> Option<&Dispute> {
        self.state.disputes.get(&id)
    }

    /// All dispute ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.state.disputes.keys().copied().collect()
    }

    /// Stake required to open (round 0) or escalate to `round`. Saturates
    /// at `u64::MAX` instead of overflowing, so under an unbounded
    /// `max_rounds` late escalations stay unboundedly expensive rather
    /// than wrapping to free.
    pub fn required_stake(&self, round: u32) -> u64 {
        if round >= 64 {
            return if self.config.base_stake == 0 { 0 } else { u64::MAX };
        }
        let shifted = self.config.base_stake << round;
        if shifted >> round != self.config.base_stake {
            u64::MAX
        } else {
            shifted
        }
    }

    /// Opens a dispute contesting `claim`. The claimant posts the round-0
    /// stake up front; evidence follows via
    /// [`DisputeLedger::submit_evidence`].
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] if persisting the new dispute fails (the
    /// dispute is then *not* opened).
    pub fn open(&mut self, claimant: NodeId, claim: ContestedVerdict) -> Result<u64, LogError> {
        let id = self.state.next_id;
        let dispute = Dispute {
            id,
            claim,
            claimant: claimant.clone(),
            phase: Phase::Issued,
            round: 0,
            panel: Vec::new(),
            evidence: Vec::new(),
            votes: Vec::new(),
            stakes: vec![(claimant, self.required_stake(0))],
            outcome: None,
        };
        self.state.next_id += 1;
        self.state.disputes.insert(id, dispute);
        if let Err(e) = self.persist() {
            self.state.disputes.remove(&id);
            self.state.next_id = id;
            return Err(e);
        }
        self.counters.opened += 1;
        Ok(id)
    }

    /// Ingests one signed evidence envelope. Anything unverifiable — an
    /// unknown party, a bad signature, a wrong (dispute, round) binding, a
    /// frozen phase — is counted and rejected without touching state; the
    /// wire the envelope arrived on is never trusted.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] on rejection, [`LogError::Io`] if
    /// persisting fails (the evidence is then not admitted).
    pub fn submit_evidence(&mut self, id: u64, ev: SignedEvidence) -> Result<(), LogError> {
        let Some(dispute) = self.state.disputes.get(&id) else {
            self.counters.evidence_rejected += 1;
            return Err(LogError::NoSuchEntry(id as usize));
        };
        if !matches!(dispute.phase, Phase::Issued | Phase::Fought) {
            self.counters.evidence_rejected += 1;
            return Err(LogError::Malformed("dispute evidence (frozen phase)"));
        }
        if ev.dispute != id || ev.round != dispute.round {
            self.counters.evidence_rejected += 1;
            return Err(LogError::Malformed("dispute evidence (binding)"));
        }
        let Some(key) = self.parties.get(&ev.party) else {
            self.counters.evidence_rejected += 1;
            return Err(LogError::Malformed("dispute evidence (unknown party)"));
        };
        if !ev.verify(&key) {
            self.counters.evidence_rejected += 1;
            return Err(LogError::Malformed("dispute evidence (signature)"));
        }

        let fought = ev.party != dispute.claimant;
        let dispute = self.state.disputes.get_mut(&id).expect("checked above");
        let prior_phase = dispute.phase;
        dispute.evidence.push(ev);
        if fought {
            dispute.phase = Phase::Fought;
        }
        if let Err(e) = self.persist() {
            let dispute = self.state.disputes.get_mut(&id).expect("checked above");
            dispute.evidence.pop();
            dispute.phase = prior_phase;
            return Err(e);
        }
        self.counters.evidence_accepted += 1;
        Ok(())
    }

    /// Convenes the initial panel: evidence freezes, voting opens. Panel
    /// selection is deterministic in `(dispute id, round, pool)` — any
    /// party can recompute who should be voting.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] if the dispute is not awaiting a
    /// panel or the resolver pool is too small, [`LogError::Io`] if
    /// persisting fails.
    pub fn convene(&mut self, id: u64) -> Result<Vec<NodeId>, LogError> {
        let dispute = self
            .state
            .disputes
            .get(&id)
            .ok_or(LogError::NoSuchEntry(id as usize))?;
        if !matches!(dispute.phase, Phase::Issued | Phase::Fought) {
            return Err(LogError::Malformed("dispute panel (phase)"));
        }
        let chosen = self.select_panel(id, 0, self.config.initial_panel, &dispute.panel)?;
        let dispute = self.state.disputes.get_mut(&id).expect("checked above");
        let prior_phase = dispute.phase;
        dispute
            .panel
            .extend(chosen.iter().map(|r| (0u32, r.clone())));
        dispute.phase = Phase::Evaluating;
        if let Err(e) = self.persist() {
            let dispute = self.state.disputes.get_mut(&id).expect("checked above");
            dispute.panel.clear();
            dispute.phase = prior_phase;
            return Err(e);
        }
        Ok(chosen)
    }

    /// Ingests one signed vote. Rejected (and counted) unless the dispute
    /// is evaluating, the resolver sits on the panel for exactly
    /// `vote.round`, has not voted before, the signature verifies, and the
    /// vote is bound to this ledger instance, the dispute's claim digest,
    /// and the frozen evidence set's digest.
    ///
    /// Returns the dispute's phase after the vote: [`Phase::Finalizing`]
    /// once a supermajority holds, [`Phase::Evaluating`] otherwise (a
    /// complete round short of supermajority awaits escalation).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] on rejection, [`LogError::Io`] if
    /// persisting fails (the vote is then not admitted).
    pub fn submit_vote(&mut self, id: u64, vote: SignedVote) -> Result<Phase, LogError> {
        let Some(dispute) = self.state.disputes.get(&id) else {
            self.counters.votes_rejected += 1;
            return Err(LogError::NoSuchEntry(id as usize));
        };
        if dispute.phase != Phase::Evaluating {
            self.counters.votes_rejected += 1;
            return Err(LogError::Malformed("dispute vote (phase)"));
        }
        if vote.instance != self.config.instance || vote.dispute != id {
            self.counters.votes_rejected += 1;
            return Err(LogError::Malformed("dispute vote (binding)"));
        }
        if vote.claim_digest != claim_digest(&dispute.claim) {
            self.counters.votes_rejected += 1;
            return Err(LogError::Malformed("dispute vote (claim digest)"));
        }
        if !dispute
            .panel
            .iter()
            .any(|(round, r)| *round == vote.round && r == &vote.resolver)
        {
            self.counters.votes_rejected += 1;
            return Err(LogError::Malformed("dispute vote (not a panelist)"));
        }
        if dispute.votes.iter().any(|v| v.resolver == vote.resolver) {
            self.counters.votes_rejected += 1;
            return Err(LogError::Malformed("dispute vote (duplicate)"));
        }
        if vote.evidence_digest != dispute.evidence_digest() {
            self.counters.votes_rejected += 1;
            return Err(LogError::Malformed("dispute vote (evidence digest)"));
        }
        if !self.resolvers.verify(&vote) {
            self.counters.votes_rejected += 1;
            return Err(LogError::Malformed("dispute vote (signature)"));
        }

        let dispute = self.state.disputes.get_mut(&id).expect("checked above");
        let prior_phase = dispute.phase;
        dispute.votes.push(vote);
        if dispute.round_complete() && dispute.supermajority().is_some() {
            dispute.phase = Phase::Finalizing;
        }
        let phase = dispute.phase;
        if let Err(e) = self.persist() {
            let dispute = self.state.disputes.get_mut(&id).expect("checked above");
            dispute.votes.pop();
            dispute.phase = prior_phase;
            return Err(e);
        }
        self.counters.votes_accepted += 1;
        Ok(phase)
    }

    /// Escalates: `staker` posts the next round's (doubled) stake, the
    /// panel grows by [`DisputeConfig::escalation_step`] deterministically
    /// chosen fresh resolvers, and voting reopens. Allowed from a
    /// deadlocked complete round, or from [`Phase::Finalizing`] (the
    /// losing side buying another round).
    ///
    /// Returns the newly added resolvers.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] if escalation is not available
    /// (phase, round ceiling, or pool exhausted), [`LogError::Io`] if
    /// persisting fails (the escalation then did not happen).
    pub fn escalate(&mut self, id: u64, staker: NodeId) -> Result<Vec<NodeId>, LogError> {
        let dispute = self
            .state
            .disputes
            .get(&id)
            .ok_or(LogError::NoSuchEntry(id as usize))?;
        let deadlocked =
            dispute.phase == Phase::Evaluating && dispute.round_complete();
        if dispute.phase != Phase::Finalizing && !deadlocked {
            return Err(LogError::Malformed("dispute escalation (phase)"));
        }
        let next_round = dispute.round + 1;
        if next_round > self.config.max_rounds {
            return Err(LogError::Malformed("dispute escalation (round ceiling)"));
        }
        let chosen =
            self.select_panel(id, next_round, self.config.escalation_step, &dispute.panel)?;
        let stake = self.required_stake(next_round);

        let dispute = self.state.disputes.get_mut(&id).expect("checked above");
        let prior = (dispute.phase, dispute.round, dispute.panel.len(), dispute.stakes.len());
        dispute.round = next_round;
        dispute
            .panel
            .extend(chosen.iter().map(|r| (next_round, r.clone())));
        dispute.stakes.push((staker, stake));
        dispute.phase = Phase::Evaluating;
        if let Err(e) = self.persist() {
            let dispute = self.state.disputes.get_mut(&id).expect("checked above");
            dispute.phase = prior.0;
            dispute.round = prior.1;
            dispute.panel.truncate(prior.2);
            dispute.stakes.truncate(prior.3);
            return Err(e);
        }
        self.counters.escalations += 1;
        Ok(chosen)
    }

    /// Finalizes a dispute whose vote set holds a supermajority, returning
    /// its transferable [`ResolutionProof`].
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] if the dispute is not finalizable,
    /// [`LogError::Io`] if persisting fails (the dispute stays open).
    pub fn finalize(&mut self, id: u64) -> Result<ResolutionProof, LogError> {
        let dispute = self
            .state
            .disputes
            .get(&id)
            .ok_or(LogError::NoSuchEntry(id as usize))?;
        if dispute.phase != Phase::Finalizing {
            return Err(LogError::Malformed("dispute finalize (phase)"));
        }
        let outcome = dispute
            .supermajority()
            .ok_or(LogError::Malformed("dispute finalize (no supermajority)"))?;

        let dispute = self.state.disputes.get_mut(&id).expect("checked above");
        let prior = (dispute.phase, dispute.outcome);
        dispute.phase = Phase::Finalized;
        dispute.outcome = Some(outcome);
        if let Err(e) = self.persist() {
            let dispute = self.state.disputes.get_mut(&id).expect("checked above");
            dispute.phase = prior.0;
            dispute.outcome = prior.1;
            return Err(e);
        }
        self.counters.finalized += 1;
        Ok(self.resolution(id).expect("just finalized"))
    }

    /// The resolution proof of a finalized dispute.
    pub fn resolution(&self, id: u64) -> Option<ResolutionProof> {
        let dispute = self.state.disputes.get(&id)?;
        let outcome = dispute.outcome?;
        (dispute.phase == Phase::Finalized).then(|| ResolutionProof {
            instance: self.config.instance,
            dispute: id,
            claim: dispute.claim.clone(),
            outcome,
            rounds: dispute.round + 1,
            votes: dispute.votes.clone(),
        })
    }

    /// Deterministic panel selection: a SplitMix64 stream seeded by
    /// `(dispute, round)` draws `count` distinct resolvers from the sorted
    /// pool, skipping sitting members.
    fn select_panel(
        &self,
        dispute: u64,
        round: u32,
        count: usize,
        sitting: &[(u32, NodeId)],
    ) -> Result<Vec<NodeId>, LogError> {
        let taken: BTreeSet<&NodeId> = sitting.iter().map(|(_, r)| r).collect();
        let mut available: Vec<NodeId> = self
            .resolvers
            .ids()
            .filter(|m| !taken.contains(m))
            .cloned()
            .collect();
        if available.len() < count {
            return Err(LogError::Malformed("dispute panel (resolver pool exhausted)"));
        }
        let mut state = dispute
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(round));
        let mut chosen = Vec::with_capacity(count);
        for _ in 0..count {
            let idx = (splitmix64(&mut state) % available.len() as u64) as usize;
            chosen.push(available.remove(idx));
        }
        Ok(chosen)
    }

    fn persist(&self) -> Result<(), LogError> {
        match &self.cell {
            Some(cell) => cell.store(&self.state),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::Evidence;
    use crate::resolver::Resolver;
    use adlp_crypto::{RsaKeyPair, RsaPrivateKey};
    use adlp_logger::{MemStorage, RecordingWindow};
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::BTreeMap;

    struct Bench {
        ledger: DisputeLedger,
        resolvers: BTreeMap<NodeId, Resolver>,
        keyring: Keyring<NodeId>,
        claimant: NodeId,
        claimant_key: RsaPrivateKey,
    }

    fn bench(pool: usize, seed: u64) -> Bench {
        let mut rng = StdRng::seed_from_u64(seed);
        let claimant = NodeId::new("camera");
        let claimant_pair = RsaKeyPair::generate(512, &mut rng);
        let parties = KeyRegistry::new();
        parties
            .register(&claimant, claimant_pair.public_key().clone())
            .unwrap();

        let mut keyring = Keyring::new();
        let mut resolvers = BTreeMap::new();
        for i in 0..pool {
            let id = NodeId::new(format!("resolver-{i}"));
            let pair = RsaKeyPair::generate(512, &mut rng);
            keyring.insert(id.clone(), pair.public_key().clone());
            resolvers.insert(id.clone(), Resolver::new(id, pair.into_private_key()));
        }

        let ledger = DisputeLedger::new(DisputeConfig::default())
            .with_parties(parties)
            .with_resolvers(keyring.clone());
        Bench {
            ledger,
            resolvers,
            keyring,
            claimant,
            claimant_key: claimant_pair.into_private_key(),
        }
    }

    fn claim() -> ContestedVerdict {
        ContestedVerdict::SplitView {
            log: NodeId::new("logger-a"),
            size: 5,
        }
    }

    fn recording_evidence(b: &Bench, id: u64, round: u32) -> SignedEvidence {
        SignedEvidence::sign(
            b.claimant.clone(),
            id,
            round,
            Evidence::Recording(RecordingWindow::from_frames(1, 1, &[(1, b"entry".to_vec())])),
            &b.claimant_key,
        )
        .unwrap()
    }

    fn vote_all(b: &mut Bench, id: u64, panel: &[NodeId], round: u32, vote: Vote) -> Phase {
        let dispute = b.ledger.dispute(id).unwrap().clone();
        let mut phase = dispute.phase;
        for r in panel {
            let signed = b.resolvers[r]
                .cast(0, id, round, vote, &dispute.claim, &dispute.evidence)
                .unwrap();
            phase = b.ledger.submit_vote(id, signed).unwrap();
        }
        phase
    }

    #[test]
    fn unanimous_panel_finalizes_in_one_round() {
        let mut b = bench(3, 31);
        let id = b.ledger.open(b.claimant.clone(), claim()).unwrap();
        b.ledger
            .submit_evidence(id, recording_evidence(&b, id, 0))
            .unwrap();
        let panel = b.ledger.convene(id).unwrap();
        assert_eq!(panel.len(), 3);
        let phase = vote_all(&mut b, id, &panel, 0, Vote::Uphold);
        assert_eq!(phase, Phase::Finalizing);
        let proof = b.ledger.finalize(id).unwrap();
        assert_eq!(proof.outcome, Outcome::Upheld);
        assert_eq!(proof.rounds, 1);
        assert!(proof.verify(&b.keyring));
        assert_eq!(b.ledger.counters().finalized, 1);
        assert_eq!(b.ledger.dispute(id).unwrap().phase, Phase::Finalized);
        // Finalized disputes are immutable.
        assert!(b
            .ledger
            .submit_evidence(id, recording_evidence(&b, id, 0))
            .is_err());
    }

    #[test]
    fn split_panel_escalates_then_settles() {
        let mut b = bench(5, 32);
        let id = b.ledger.open(b.claimant.clone(), claim()).unwrap();
        let panel = b.ledger.convene(id).unwrap();

        // 2–1: complete round, no strict supermajority (6 > 6 fails).
        let phase = {
            let dispute = b.ledger.dispute(id).unwrap().clone();
            let mut phase = Phase::Evaluating;
            for (i, r) in panel.iter().enumerate() {
                let v = if i == 0 { Vote::Overturn } else { Vote::Uphold };
                let signed = b.resolvers[r]
                    .cast(0, id, 0, v, &dispute.claim, &dispute.evidence)
                    .unwrap();
                phase = b.ledger.submit_vote(id, signed).unwrap();
            }
            phase
        };
        assert_eq!(phase, Phase::Evaluating);
        assert!(b.ledger.dispute(id).unwrap().round_complete());
        assert!(b.ledger.finalize(id).is_err());

        // Escalation doubles the stake and adds two fresh resolvers.
        let added = b.ledger.escalate(id, b.claimant.clone()).unwrap();
        assert_eq!(added.len(), 2);
        assert!(added.iter().all(|r| !panel.contains(r)));
        let d = b.ledger.dispute(id).unwrap();
        assert_eq!(d.round, 1);
        assert_eq!(d.total_staked(), 16 + 32);

        // 4–1 settles (12 > 10).
        let phase = vote_all(&mut b, id, &added, 1, Vote::Uphold);
        assert_eq!(phase, Phase::Finalizing);
        let proof = b.ledger.finalize(id).unwrap();
        assert_eq!(proof.outcome, Outcome::Upheld);
        assert_eq!(proof.rounds, 2);
        assert_eq!(proof.votes.len(), 5);
        assert!(proof.verify(&b.keyring));
        assert_eq!(b.ledger.counters().escalations, 1);
    }

    #[test]
    fn unverifiable_submissions_are_counted_and_rejected() {
        let mut b = bench(3, 33);
        let id = b.ledger.open(b.claimant.clone(), claim()).unwrap();

        // Evidence bound to the wrong dispute.
        let wrong = recording_evidence(&b, id + 7, 0);
        assert!(b.ledger.submit_evidence(id, wrong).is_err());
        // Unknown party.
        let mut rng = StdRng::seed_from_u64(99);
        let stranger = RsaKeyPair::generate(512, &mut rng);
        let unknown = SignedEvidence::sign(
            NodeId::new("stranger"),
            id,
            0,
            Evidence::Recording(RecordingWindow {
                epoch_from: 0,
                epoch_to: 0,
                bytes: adlp_logger::RECORDING_MAGIC.to_vec(),
            }),
            stranger.private_key(),
        )
        .unwrap();
        assert!(b.ledger.submit_evidence(id, unknown).is_err());
        // Tampered envelope.
        let mut tampered = recording_evidence(&b, id, 0);
        tampered.round = 1;
        assert!(b.ledger.submit_evidence(id, tampered).is_err());
        assert_eq!(b.ledger.counters().evidence_rejected, 3);
        assert_eq!(b.ledger.dispute(id).unwrap().evidence.len(), 0);

        let panel = b.ledger.convene(id).unwrap();
        // Evidence is frozen once convened.
        assert!(b
            .ledger
            .submit_evidence(id, recording_evidence(&b, id, 0))
            .is_err());

        // Votes: duplicate, stale digest, wrong round, wrong claim, wrong
        // ledger instance.
        let dispute = b.ledger.dispute(id).unwrap().clone();
        let first = &panel[0];
        let good = b.resolvers[first]
            .cast(0, id, 0, Vote::Uphold, &dispute.claim, &dispute.evidence)
            .unwrap();
        b.ledger.submit_vote(id, good.clone()).unwrap();
        assert!(b.ledger.submit_vote(id, good).is_err()); // duplicate
        let mut stale = b.resolvers[&panel[1]]
            .cast(0, id, 0, Vote::Uphold, &dispute.claim, &dispute.evidence)
            .unwrap();
        stale.evidence_digest = adlp_crypto::sha256(b"different set");
        assert!(b.ledger.submit_vote(id, stale).is_err()); // digest + signature break
        let wrong_round = b.resolvers[&panel[1]]
            .cast(0, id, 3, Vote::Uphold, &dispute.claim, &dispute.evidence)
            .unwrap();
        assert!(b.ledger.submit_vote(id, wrong_round).is_err());
        // Honestly signed, but over a different claim than the dispute's.
        let other_claim = ContestedVerdict::SplitView {
            log: NodeId::new("logger-b"),
            size: 9,
        };
        let wrong_claim = b.resolvers[&panel[1]]
            .cast(0, id, 0, Vote::Uphold, &other_claim, &dispute.evidence)
            .unwrap();
        assert!(b.ledger.submit_vote(id, wrong_claim).is_err());
        // Honestly signed, but on another ledger instance.
        let wrong_instance = b.resolvers[&panel[1]]
            .cast(5, id, 0, Vote::Uphold, &dispute.claim, &dispute.evidence)
            .unwrap();
        assert!(b.ledger.submit_vote(id, wrong_instance).is_err());
        assert_eq!(b.ledger.counters().votes_rejected, 5);
        assert_eq!(b.ledger.counters().votes_accepted, 1);
    }

    #[test]
    fn panel_selection_is_deterministic() {
        let mut a = bench(7, 34);
        let mut b = bench(7, 34);
        let id_a = a.ledger.open(a.claimant.clone(), claim()).unwrap();
        let id_b = b.ledger.open(b.claimant.clone(), claim()).unwrap();
        assert_eq!(a.ledger.convene(id_a).unwrap(), b.ledger.convene(id_b).unwrap());
    }

    #[test]
    fn crash_mid_escalation_resumes_from_durable_state() {
        let storage = std::sync::Arc::new(MemStorage::new());
        let mut b = bench(5, 35);
        assert!(!b.ledger.bind_storage(storage.clone()).unwrap());

        let id = b.ledger.open(b.claimant.clone(), claim()).unwrap();
        b.ledger
            .submit_evidence(id, recording_evidence(&b, id, 0))
            .unwrap();
        let panel = b.ledger.convene(id).unwrap();
        let dispute = b.ledger.dispute(id).unwrap().clone();
        for (i, r) in panel.iter().enumerate() {
            let v = if i == 0 { Vote::Overturn } else { Vote::Uphold };
            let signed = b.resolvers[r]
                .cast(0, id, 0, v, &dispute.claim, &dispute.evidence)
                .unwrap();
            b.ledger.submit_vote(id, signed).unwrap();
        }
        let added = b.ledger.escalate(id, b.claimant.clone()).unwrap();
        let pre_crash = b.ledger.dispute(id).unwrap().clone();

        // Power failure between the escalation and the new round's votes.
        storage.crash();

        let mut resumed = DisputeLedger::new(DisputeConfig::default())
            .with_parties({
                let parties = KeyRegistry::new();
                // Party keys are runtime wiring; only dispute state persists.
                parties
            })
            .with_resolvers(b.keyring.clone());
        assert!(resumed.bind_storage(storage).unwrap());
        assert_eq!(resumed.dispute(id).unwrap(), &pre_crash);
        assert_eq!(resumed.dispute(id).unwrap().round, 1);
        assert_eq!(resumed.dispute(id).unwrap().phase, Phase::Evaluating);

        // The escalated round concludes on the resumed ledger.
        for r in &added {
            let signed = b.resolvers[r]
                .cast(0, id, 1, Vote::Uphold, &dispute.claim, &dispute.evidence)
                .unwrap();
            resumed.submit_vote(id, signed).unwrap();
        }
        let proof = resumed.finalize(id).unwrap();
        assert_eq!(proof.outcome, Outcome::Upheld);
        assert!(proof.verify(&b.keyring));
    }

    #[test]
    fn resolution_proof_rejects_tampering() {
        let mut b = bench(3, 36);
        let id = b.ledger.open(b.claimant.clone(), claim()).unwrap();
        let panel = b.ledger.convene(id).unwrap();
        vote_all(&mut b, id, &panel, 0, Vote::Uphold);
        let proof = b.ledger.finalize(id).unwrap();
        assert!(proof.verify(&b.keyring));

        // Round-trips.
        let decoded = ResolutionProof::decode(&proof.encode()).unwrap();
        assert_eq!(decoded, proof);
        assert!(decoded.verify(&b.keyring));

        // A flipped outcome no longer holds a supermajority of votes.
        let mut flipped = proof.clone();
        flipped.outcome = Outcome::Overturned;
        assert!(!flipped.verify(&b.keyring));
        // A swapped claim breaks every vote's claim-digest binding: a
        // genuine settled proof cannot be re-presented as settling some
        // other conviction.
        let mut swapped = proof.clone();
        swapped.claim = ContestedVerdict::SplitView {
            log: NodeId::new("some-other-logger"),
            size: 999,
        };
        assert!(!swapped.verify(&b.keyring));
        // A re-homed instance breaks the votes' ledger binding.
        let mut rehomed = proof.clone();
        rehomed.instance = 42;
        assert!(!rehomed.verify(&b.keyring));
        // An even vote set proves nothing.
        let mut even = proof.clone();
        even.votes.pop();
        assert!(!even.verify(&b.keyring));
        // A duplicated vote proves nothing.
        let mut dup = proof.clone();
        let v = dup.votes[0].clone();
        dup.votes.push(v);
        assert!(!dup.verify(&b.keyring));
        // An unknown keyring verifies nothing.
        assert!(!proof.verify(&Keyring::new()));
    }

    #[test]
    fn votes_do_not_transfer_across_ledger_instances() {
        // Two ledgers share a resolver pool but run as distinct instances;
        // their same-numbered disputes even contest the same claim. Votes
        // settled on instance A must not assemble into a proof that
        // verifies as instance B's dispute (or vice versa).
        let mut a = bench(3, 38);
        let config_b = DisputeConfig {
            instance: 1,
            ..DisputeConfig::default()
        };
        let mut ledger_b = DisputeLedger::new(config_b).with_resolvers(a.keyring.clone());
        let id_b = ledger_b.open(a.claimant.clone(), claim()).unwrap();
        ledger_b.convene(id_b).unwrap();

        let id = a.ledger.open(a.claimant.clone(), claim()).unwrap();
        let panel = a.ledger.convene(id).unwrap();
        assert_eq!(id, id_b, "the attack needs colliding ledger-local ids");
        vote_all(&mut a, id, &panel, 0, Vote::Uphold);
        let proof = a.ledger.finalize(id).unwrap();
        assert!(proof.verify(&a.keyring));

        // Instance A's votes are rejected by ledger B's ingest...
        let stray = proof.votes[0].clone();
        assert!(ledger_b.submit_vote(id_b, stray).is_err());
        // ...and a proof claiming they settled instance B does not verify.
        let mut transplanted = proof.clone();
        transplanted.instance = 1;
        assert!(!transplanted.verify(&a.keyring));
    }

    #[test]
    fn required_stake_saturates_instead_of_overflowing() {
        let b = bench(3, 39);
        assert_eq!(b.ledger.required_stake(0), 16);
        assert_eq!(b.ledger.required_stake(3), 128);
        // base 16 = 2^4: the shift runs out of bits at round 60.
        assert_eq!(b.ledger.required_stake(59), 16u64 << 59);
        assert_eq!(b.ledger.required_stake(60), u64::MAX);
        assert_eq!(b.ledger.required_stake(64), u64::MAX);
        assert_eq!(b.ledger.required_stake(u32::MAX), u64::MAX);
        let free = DisputeLedger::new(DisputeConfig {
            base_stake: 0,
            ..DisputeConfig::default()
        });
        assert_eq!(free.required_stake(u32::MAX), 0);
    }

    #[test]
    fn padded_nested_slots_are_refused() {
        // One value, one encoding: a nested value must fill its
        // length-delimited slot exactly, or a padded copy of honest
        // evidence would decode (and verify) as the same value.
        let slot = |bytes: &[u8]| {
            let mut out = Vec::new();
            adlp_logger::encoding::write_bytes(&mut out, bytes);
            out
        };
        let claim = claim();
        let vote = SignedVote {
            resolver: NodeId::new("resolver-0"),
            instance: 0,
            dispute: 0,
            round: 0,
            vote: Vote::Uphold,
            claim_digest: claim_digest(&claim),
            evidence_digest: evidence_set_digest(&[]),
            signature: adlp_crypto::Signature::from_bytes(vec![7; 8]),
        };
        let proof = ResolutionProof {
            instance: 0,
            dispute: 0,
            claim: claim.clone(),
            outcome: Outcome::Upheld,
            rounds: 1,
            votes: vec![vote.clone()],
        };
        assert_eq!(ResolutionProof::decode(&proof.encode()), Ok(proof));
        // instance, dispute, claim slot, outcome, rounds, one vote slot.
        let padded = [
            &[0, 0][..],
            &slot(&[claim.encode(), vec![0xAA]].concat()),
            &[1, 1, 1],
            &slot(&[vote.encode(), vec![0xBB, 0xCC]].concat()),
        ]
        .concat();
        assert!(ResolutionProof::decode(&padded).is_err());

        // A ledger file: padding after a dispute in its slot, or inside the
        // dispute's own claim slot (a dispute opens with its id, then the
        // claim slot), never resumes.
        let dispute = Dispute {
            id: 0,
            claim: claim.clone(),
            claimant: NodeId::new("camera"),
            phase: Phase::Evaluating,
            round: 0,
            panel: vec![(0, NodeId::new("resolver-0"))],
            evidence: Vec::new(),
            votes: vec![vote],
            stakes: vec![(NodeId::new("camera"), 16)],
            outcome: None,
        };
        let resume = |dispute_slot: &[u8]| {
            let payload = [&[1, 1][..], &slot(dispute_slot)].concat();
            let mem = MemStorage::new();
            mem.write_replace(
                DISPUTE_STATE_FILE,
                &adlp_logger::frame::seal(DISPUTE_STATE_MAGIC, &payload),
            )
            .unwrap();
            DisputeLedger::new(DisputeConfig::default()).bind_storage(Arc::new(mem))
        };
        let honest = dispute.encode();
        assert_eq!(resume(&honest), Ok(true));
        assert!(resume(&[&honest[..], &[0xDD]].concat()).is_err());
        let claim_len = claim.encode().len();
        let padded_claim = [
            &[0][..],
            &slot(&[claim.encode(), vec![0xAA]].concat()),
            &honest[2 + claim_len..],
        ]
        .concat();
        assert!(resume(&padded_claim).is_err());
    }
}
