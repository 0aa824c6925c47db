//! Multi-round dispute escalation and deterministic replay forensics.
//!
//! An ADLP audit verdict is only as trustworthy as the view it was derived
//! from — and views can be partial, adversarial, or contested. This crate
//! (DESIGN.md §3.14) makes verdicts *accountable* the same way the logger
//! makes traffic accountable: every contest is fought with transferable,
//! independently re-verifiable evidence, and every resolution is itself a
//! signed, transferable artifact.
//!
//! * [`evidence`] — signed evidence envelopes: split-view proofs,
//!   replica-equivocation proofs, and recorded traffic windows, each bound
//!   to a (dispute, round, party) triple under the submitter's key;
//! * [`replay`] — deterministic re-audit of recorded windows: dedup, total
//!   ordering, and the real auditor, yielding byte-identical
//!   [`ReplayReport::canonical_bytes`] on every replay of the same window;
//! * [`resolver`] — panel members who *re-derive* verdicts from evidence
//!   (never testimony) and emit signed, transferable votes;
//! * [`ledger`] — the dispute lifecycle: open → fight → convene →
//!   evaluate, with escalation rounds that add resolvers and double stakes
//!   until a strict supermajority holds, all durable through the §3.9
//!   [`adlp_logger::Storage`] layer so a crash mid-escalation resumes
//!   exactly where it acknowledged.
//!
//! The adversarial design invariants, exercised end-to-end in `adlp-sim`:
//! an honestly-evidenced dispute resolves against the guilty party; forged
//! evidence (fabricated frames, unverifiable proofs) never overturns a
//! correct verdict; withheld evidence fails toward the standing verdict;
//! truncated recordings are detected and non-probative, never mis-audited.

pub mod evidence;
pub mod ledger;
pub mod replay;
pub mod resolver;

pub use evidence::{evidence_set_digest, Evidence, SignedEvidence};
pub use ledger::{
    Dispute, DisputeConfig, DisputeCounters, DisputeLedger, Outcome, Phase, ResolutionProof,
    DISPUTE_STATE_FILE, DISPUTE_STATE_MAGIC,
};
pub use replay::{replay_window, ReplayContext, ReplayReport};
pub use resolver::{claim_digest, Resolver, ResolverContext, SignedVote, Vote};
