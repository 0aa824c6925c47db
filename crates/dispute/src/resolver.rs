//! Resolvers: independent re-verification and signed, transferable votes.
//!
//! A resolver never votes on testimony. Its verdict on a contested
//! conviction is *re-derived* from the evidence set alone:
//!
//! * proof-carried convictions ([`ContestedVerdict::SplitView`],
//!   [`ContestedVerdict::Equivocation`]) stand iff a *verifying* proof for
//!   the convicted identity exists among the evidence — a forged proof
//!   convicts nobody, and a conviction nobody can re-prove falls;
//! * [`ContestedVerdict::Hidden`] convictions fall only on **positive
//!   exoneration**: some sound recording window, replayed with the real
//!   auditor, must show the accused's entry present and valid. Torn or
//!   unverifiable windows are non-probative and fail toward the standing
//!   verdict, so withholding or corrupting evidence never overturns
//!   anything.
//!
//! Every decision is a [`SignedVote`]: domain-separated, bound to the
//! ledger instance, the dispute, the round, a digest of the exact claim
//! judged, and a digest of the exact evidence set judged — as
//! transferable as the proofs it rules on. Binding the claim digest is
//! what makes a [`crate::ResolutionProof`] non-reusable: a vote cast on
//! one contested verdict can never be presented as settling another.

use adlp_audit::ContestedVerdict;
use adlp_crypto::{pkcs1, Digest, RsaPrivateKey, Sha256, Signature, Statement};
use adlp_logger::encoding::{write_str, write_uvarint};
use adlp_logger::{Keyring, LogError, Wire};
use adlp_pubsub::NodeId;

use crate::evidence::{evidence_set_digest, Evidence, SignedEvidence};
use crate::replay::{replay_window, ReplayContext};

/// Domain separator for vote signatures.
const VOTE_DOMAIN: &[u8] = b"adlp-dispute/vote";

/// A resolver's verdict on a contested conviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// The conviction stands.
    Uphold = 0,
    /// The conviction is overturned.
    Overturn = 1,
}

/// One byte: the discriminant.
impl Wire for Vote {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        match u8::decode_from(src)? {
            0 => Ok(Vote::Uphold),
            1 => Ok(Vote::Overturn),
            _ => Err(LogError::Malformed("vote (value)")),
        }
    }
}

/// Digest of an encoded contested verdict: the claim binding every vote
/// (and every [`crate::ResolutionProof`] check) goes through.
pub fn claim_digest(claim: &ContestedVerdict) -> Digest {
    adlp_crypto::sha256(&claim.encode())
}

#[allow(clippy::too_many_arguments)]
fn vote_digest(
    instance: u64,
    resolver: &NodeId,
    dispute: u64,
    round: u32,
    vote: Vote,
    claim_digest: &Digest,
    evidence_digest: &Digest,
) -> Digest {
    let mut h = Sha256::new();
    h.update(VOTE_DOMAIN);
    let mut buf = Vec::with_capacity(128);
    write_uvarint(&mut buf, instance);
    write_str(&mut buf, resolver.as_str());
    write_uvarint(&mut buf, dispute);
    write_uvarint(&mut buf, u64::from(round));
    vote.put(&mut buf);
    buf.extend_from_slice(claim_digest.as_bytes());
    buf.extend_from_slice(evidence_digest.as_bytes());
    h.update(&buf);
    h.finalize()
}

/// A signed, transferable resolver decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedVote {
    /// The voting resolver.
    pub resolver: NodeId,
    /// The ledger instance the dispute lives on
    /// ([`crate::DisputeConfig::instance`]); dispute ids are ledger-local
    /// sequence numbers, so without this a vote could be replayed against
    /// another ledger's same-numbered dispute.
    pub instance: u64,
    /// The dispute voted on.
    pub dispute: u64,
    /// The escalation round the resolver joined in.
    pub round: u32,
    /// The verdict.
    pub vote: Vote,
    /// Digest of the exact contested verdict judged ([`claim_digest`]); a
    /// vote cannot be presented as settling a different claim.
    pub claim_digest: Digest,
    /// Digest of the exact evidence set the resolver judged
    /// ([`evidence_set_digest`]); a vote cannot be replayed against a
    /// different set.
    pub evidence_digest: Digest,
    /// The resolver's signature over all of the above.
    pub signature: Signature,
}

/// Signed by the voting resolver.
impl Statement for SignedVote {
    type Signer = NodeId;

    fn signer(&self) -> NodeId {
        self.resolver.clone()
    }

    fn signature(&self) -> &Signature {
        &self.signature
    }

    fn signed_digest(&self) -> Option<Digest> {
        Some(vote_digest(
            self.instance,
            &self.resolver,
            self.dispute,
            self.round,
            self.vote,
            &self.claim_digest,
            &self.evidence_digest,
        ))
    }
}

impl Wire for SignedVote {
    fn put(&self, out: &mut Vec<u8>) {
        self.resolver.put_field(out);
        self.instance.put_field(out);
        self.dispute.put_field(out);
        self.round.put_field(out);
        self.vote.put_field(out);
        self.claim_digest.put_field(out);
        self.evidence_digest.put_field(out);
        self.signature.put_field(out);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        Ok(SignedVote {
            resolver: Wire::decode_field(src)?,
            instance: Wire::decode_field(src)?,
            dispute: Wire::decode_field(src)?,
            round: Wire::decode_field(src)?,
            vote: Wire::decode_field(src)?,
            claim_digest: Wire::decode_field(src)?,
            evidence_digest: Wire::decode_field(src)?,
            signature: Wire::decode_field(src)?,
        })
    }
}

/// Everything a resolver needs to re-verify evidence: STH keys for
/// split-view proofs, the replica keyring for equivocation proofs, and a
/// replay context for recordings.
#[derive(Debug, Clone)]
pub struct ResolverContext {
    /// Keys signed tree heads are verified under.
    pub sth_keys: Keyring<NodeId>,
    /// Keys replica head attestations are verified under.
    pub replica_keys: Keyring<(usize, usize)>,
    /// Key registry + topology for deterministic replays.
    pub replay: ReplayContext,
}

impl ResolverContext {
    /// A context that can judge recordings but holds no proof keys (every
    /// proof-carried conviction then falls to "no verifying proof").
    pub fn new(replay: ReplayContext) -> Self {
        ResolverContext {
            sth_keys: Keyring::new(),
            replica_keys: Keyring::new(),
            replay,
        }
    }

    /// Adds STH keys.
    pub fn with_sth_keys(mut self, keys: Keyring<NodeId>) -> Self {
        self.sth_keys = keys;
        self
    }

    /// Adds replica attestation keys.
    pub fn with_replica_keys(mut self, keys: Keyring<(usize, usize)>) -> Self {
        self.replica_keys = keys;
        self
    }
}

/// One member of a dispute panel.
#[derive(Debug)]
pub struct Resolver {
    id: NodeId,
    key: RsaPrivateKey,
}

impl Resolver {
    /// A resolver with its signing identity.
    pub fn new(id: NodeId, key: RsaPrivateKey) -> Self {
        Resolver { id, key }
    }

    /// The resolver's identity.
    pub fn id(&self) -> &NodeId {
        &self.id
    }

    /// Independently re-derives the verdict on `claim` from `evidence`.
    /// Pure: same claim, same evidence, same context → same vote, for
    /// every resolver.
    pub fn evaluate(
        claim: &ContestedVerdict,
        evidence: &[SignedEvidence],
        ctx: &ResolverContext,
    ) -> Vote {
        match claim {
            ContestedVerdict::SplitView { log, size } => {
                let proven = evidence.iter().any(|ev| match &ev.evidence {
                    Evidence::SplitView(proof) => {
                        proof.log() == log && proof.size() == *size && proof.verify(&ctx.sth_keys)
                    }
                    _ => false,
                });
                if proven {
                    Vote::Uphold
                } else {
                    Vote::Overturn
                }
            }
            ContestedVerdict::Equivocation { shard, replica } => {
                let proven = evidence.iter().any(|ev| match &ev.evidence {
                    Evidence::Equivocation(proof) => {
                        proof.shard() as u64 == *shard
                            && proof.replica() as u64 == *replica
                            && proof.verify(&ctx.replica_keys)
                    }
                    _ => false,
                });
                if proven {
                    Vote::Uphold
                } else {
                    Vote::Overturn
                }
            }
            ContestedVerdict::Hidden { .. } => {
                // The conviction stands unless some *sound* replayed window
                // positively exonerates. Forged frames fail the auditor's
                // authenticity screen inside the replay; torn or
                // range-smuggling windows fail `verify()`; both are
                // non-probative and leave the verdict standing.
                for ev in evidence {
                    let Evidence::Recording(window) = &ev.evidence else {
                        continue;
                    };
                    if !window.verify() {
                        continue;
                    }
                    let Ok(replay) = replay_window(window, &ctx.replay) else {
                        continue;
                    };
                    if !replay.sound() {
                        continue;
                    }
                    if claim.exonerated_by(&replay.report) {
                        return Vote::Overturn;
                    }
                }
                Vote::Uphold
            }
        }
    }

    /// Signs a vote for `dispute`/`round` on ledger `instance`, bound to
    /// the exact claim and evidence set judged. Exposed separately from
    /// [`Resolver::judge`] so a simulation can model a bribed resolver
    /// casting a vote its own evaluation does not support — the protocol
    /// tolerates that; it does not prevent it.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] if signing fails.
    pub fn cast(
        &self,
        instance: u64,
        dispute: u64,
        round: u32,
        vote: Vote,
        claim: &ContestedVerdict,
        evidence: &[SignedEvidence],
    ) -> Result<SignedVote, LogError> {
        let claim_digest = claim_digest(claim);
        let evidence_digest = evidence_set_digest(evidence);
        let digest = vote_digest(
            instance,
            &self.id,
            dispute,
            round,
            vote,
            &claim_digest,
            &evidence_digest,
        );
        let signature = pkcs1::sign_digest(&self.key, &digest)
            .map_err(|_| LogError::Malformed("vote (signing)"))?;
        Ok(SignedVote {
            resolver: self.id.clone(),
            instance,
            dispute,
            round,
            vote,
            claim_digest,
            evidence_digest,
            signature,
        })
    }

    /// [`Resolver::evaluate`] then [`Resolver::cast`]: the honest-resolver
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] if signing fails.
    pub fn judge(
        &self,
        instance: u64,
        dispute: u64,
        round: u32,
        claim: &ContestedVerdict,
        evidence: &[SignedEvidence],
        ctx: &ResolverContext,
    ) -> Result<SignedVote, LogError> {
        let vote = Self::evaluate(claim, evidence, ctx);
        self.cast(instance, dispute, round, vote, claim, evidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_logger::KeyRegistry;
    use adlp_crypto::RsaKeyPair;
    use rand::{rngs::StdRng, SeedableRng};

    fn ctx() -> ResolverContext {
        ResolverContext::new(ReplayContext::new(KeyRegistry::new()))
    }

    fn claim() -> ContestedVerdict {
        ContestedVerdict::SplitView {
            log: NodeId::new("logger-a"),
            size: 5,
        }
    }

    #[test]
    fn vote_verifies() {
        let mut rng = StdRng::seed_from_u64(21);
        let pair = RsaKeyPair::generate(512, &mut rng);
        let public = pair.public_key().clone();
        let resolver = Resolver::new(NodeId::new("resolver-0"), pair.into_private_key());
        let vote = resolver.cast(0, 9, 1, Vote::Overturn, &claim(), &[]).unwrap();
        assert!(vote.verify(&public));

        let keyring = Keyring::new().with(NodeId::new("resolver-0"), public.clone());
        assert!(keyring.verify(&vote));
    }

    #[test]
    fn unknown_or_rebound_votes_never_verify() {
        let mut rng = StdRng::seed_from_u64(22);
        let pair = RsaKeyPair::generate(512, &mut rng);
        let public = pair.public_key().clone();
        let resolver = Resolver::new(NodeId::new("resolver-0"), pair.into_private_key());
        let mut vote = resolver.cast(7, 9, 0, Vote::Uphold, &claim(), &[]).unwrap();

        // Unknown resolver: empty keyring.
        assert!(!Keyring::new().verify(&vote));

        // Rebinding the vote to another ledger instance, dispute, round,
        // claim, or verdict breaks it.
        let keyring = Keyring::new().with(NodeId::new("resolver-0"), public.clone());
        vote.instance = 8;
        assert!(!keyring.verify(&vote));
        vote.instance = 7;
        vote.dispute = 10;
        assert!(!keyring.verify(&vote));
        vote.dispute = 9;
        vote.round = 3;
        assert!(!keyring.verify(&vote));
        vote.round = 0;
        vote.claim_digest = claim_digest(&ContestedVerdict::SplitView {
            log: NodeId::new("logger-b"),
            size: 5,
        });
        assert!(!keyring.verify(&vote));
        vote.claim_digest = claim_digest(&claim());
        vote.vote = Vote::Overturn;
        assert!(!keyring.verify(&vote));
        vote.vote = Vote::Uphold;
        assert!(keyring.verify(&vote), "restored binding verifies again");
    }

    #[test]
    fn proof_carried_claims_need_a_verifying_proof() {
        // No evidence at all: a split-view conviction nobody can re-prove
        // falls; a hidden-entry conviction nobody can exonerate stands.
        let split = ContestedVerdict::SplitView {
            log: NodeId::new("logger-a"),
            size: 5,
        };
        assert_eq!(Resolver::evaluate(&split, &[], &ctx()), Vote::Overturn);

        let hidden = ContestedVerdict::Hidden {
            component: NodeId::new("cam"),
            direction: adlp_logger::Direction::Out,
            topic: adlp_pubsub::Topic::new("image"),
            seq: 1,
        };
        assert_eq!(Resolver::evaluate(&hidden, &[], &ctx()), Vote::Uphold);

        let equiv = ContestedVerdict::Equivocation { shard: 0, replica: 1 };
        assert_eq!(Resolver::evaluate(&equiv, &[], &ctx()), Vote::Overturn);
    }

    #[test]
    fn torn_recording_evidence_is_non_probative() {
        use adlp_logger::{LogEntry, RecordingWindow};
        use adlp_pubsub::Topic;

        let mut rng = StdRng::seed_from_u64(23);
        let pair = RsaKeyPair::generate(512, &mut rng);
        let entry = LogEntry::naive(
            NodeId::new("cam"),
            Topic::new("image"),
            adlp_logger::Direction::Out,
            1,
            1,
            vec![1; 8],
        )
        .encode();
        let mut torn = RecordingWindow::from_frames(1, 2, &[(1, entry.clone()), (2, entry)]);
        torn.bytes.truncate(torn.bytes.len() - 3);
        assert!(!torn.verify());
        let ev = SignedEvidence::sign(
            NodeId::new("cam"),
            1,
            0,
            Evidence::Recording(torn),
            pair.private_key(),
        )
        .unwrap();
        let hidden = ContestedVerdict::Hidden {
            component: NodeId::new("cam"),
            direction: adlp_logger::Direction::Out,
            topic: Topic::new("image"),
            seq: 1,
        };
        // Truncation detected → window non-probative → verdict stands.
        assert_eq!(Resolver::evaluate(&hidden, &[ev], &ctx()), Vote::Uphold);
    }
}
