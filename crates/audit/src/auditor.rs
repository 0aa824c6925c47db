//! The dispute-resolution engine.
//!
//! For every link instance (topic, seq, subscriber) the auditor confronts
//! the publisher's and subscriber's entries with each other and with the
//! registered public keys, realizing the paper's Lemmas 1–3:
//!
//! * **Unforgeability** — an entry whose recorded counterpart signature is
//!   invalid is a fabrication (exchanged signatures are transport-enforced
//!   valid, requirement (4));
//! * **Completeness** — a valid counterpart entry proves the transmission,
//!   so a missing entry is recovered as *hidden*;
//! * **Correctness** — when the two sides disagree on the data, the side
//!   whose claim the *other party's* signature endorses wins; the other
//!   entry is falsified.
//!
//! Theorem 1 (faithful components are always classified valid) and
//! Theorem 2 (in a collusion-free system every unfaithful act is detected)
//! follow from this per-link analysis and are exercised as integration
//! tests.
//!
//! One private pass judges every entry, for [`Auditor::audit`] and for an
//! [`AuditSession`] alike, and verifies every signature through one memo.
//! The two entries of a faithful link carry the same two signatures, so a
//! pass verifies each once; a session keeps its memo, so a later ingest
//! re-judges everything without repeating any RSA.

use crate::classify::{Anomaly, EntryClass, HiddenRecord, InvalidReason, LinkAudit};
use adlp_crypto::sha256::Digest;
use adlp_crypto::{Signature, Statement};
use adlp_logger::{AckRecord, Binding, Direction, GapReceipt, KeyRegistry, LogEntry, LogStore};
use adlp_pubsub::{NodeId, Topic};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The auditor: public keys + topology.
#[derive(Debug, Clone)]
pub struct Auditor {
    keys: KeyRegistry,
    topology: HashMap<Topic, NodeId>,
    /// Cap on missing seqs reported per gap anomaly.
    gap_report_limit: usize,
}

/// What a component did wrong, as established by the audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The topic involved.
    pub topic: Topic,
    /// The sequence number involved.
    pub seq: u64,
    /// The kind of unfaithful act.
    pub kind: ViolationKind,
}

/// Kinds of unfaithful acts attributable to a single component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ViolationKind {
    /// Hid a publication record (Lemma 2).
    HidPublication,
    /// Hid a receipt record (Lemma 2).
    HidReceipt,
    /// Logged data contradicting provable evidence (Lemma 3).
    FalsifiedLog,
    /// Entered a record of a transmission that never happened (Lemma 1).
    FabricatedLog,
    /// Entered a replayed (duplicate-seq) record.
    ReplayedLog,
}

/// Per-component audit outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComponentVerdict {
    /// Entries classified valid.
    pub valid_entries: usize,
    /// Established violations.
    pub violations: Vec<Violation>,
}

impl ComponentVerdict {
    /// Whether the audit found this component faithful.
    pub fn is_faithful(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The complete audit output.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Per-link results.
    pub links: Vec<LinkAudit>,
    /// Recovered hidden records (L̂_H).
    pub hidden: Vec<HiddenRecord>,
    /// Per-component verdicts.
    pub verdicts: BTreeMap<NodeId, ComponentVerdict>,
    /// Non-attributable suspicious observations.
    pub anomalies: Vec<Anomaly>,
    /// Entries rejected before link analysis (authenticity failures etc.),
    /// with their reasons.
    pub rejected_entries: Vec<(LogEntry, InvalidReason)>,
    /// Verified gap receipts: signed admissions of shed ranges. Absences
    /// they cover classify as [`EntryClass::Shed`], not hidden.
    pub shed: Vec<GapReceipt>,
}

impl AuditReport {
    /// Components with at least one established violation.
    pub fn unfaithful_components(&self) -> Vec<(&NodeId, &ComponentVerdict)> {
        self.verdicts
            .iter()
            .filter(|(_, v)| !v.is_faithful())
            .collect()
    }

    /// Whether every observed entry was classified valid and nothing was
    /// hidden — the ideal system (`L_C* = L_C = L_{V,f}`).
    ///
    /// Three classes of observation do not spoil a clear report because
    /// they are not evidence of wrongdoing:
    ///
    /// * **sequence gaps** — acknowledgement gating legitimately skips
    ///   per-connection sends (the protocol's non-cooperation penalty);
    /// * **unproven entries** — a publisher whose send was never
    ///   acknowledged (e.g. messages in flight at shutdown) cannot prove
    ///   it, but is not thereby convicted (Lemma 1 cuts both ways);
    /// * **shed absences** — a verified gap receipt is a signed admission
    ///   of bounded overload loss, the opposite of hiding.
    ///
    /// All still appear in the report for forensic review.
    pub fn all_clear(&self) -> bool {
        let acceptable = |c: &EntryClass| {
            matches!(
                c,
                EntryClass::Valid | EntryClass::Unproven | EntryClass::Shed { .. }
            )
        };
        self.hidden.is_empty()
            && self.rejected_entries.is_empty()
            && self
                .anomalies
                .iter()
                .all(|a| matches!(a, Anomaly::SequenceGap { .. }))
            && self.verdicts.values().all(ComponentVerdict::is_faithful)
            && self.links.iter().all(|l| {
                l.publisher_entry.as_ref().is_none_or(&acceptable)
                    && l.subscriber_entry.as_ref().is_none_or(&acceptable)
            })
    }

    /// Total links audited.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    fn record_violation(&mut self, who: &NodeId, topic: &Topic, seq: u64, kind: ViolationKind) {
        self.verdicts
            .entry(who.clone())
            .or_default()
            .violations
            .push(Violation {
                topic: topic.clone(),
                seq,
                kind,
            });
    }

    fn record_valid(&mut self, who: &NodeId) {
        self.verdicts.entry(who.clone()).or_default().valid_entries += 1;
    }
}

/// One side's evidence for a link, after authenticity screening.
struct SideEvidence {
    /// Digest of the data this side claims.
    claimed: Digest,
    /// Acknowledgement fields (publisher side): `(h(D_y), s_y)` verified
    /// against the subscriber's key.
    ack: Option<AckEvidence>,
    /// Subscriber side: whether the recorded `s_x` verifies the claimed
    /// digest under the publisher's key.
    peer_sig_valid: bool,
}

struct AckEvidence {
    hash: Digest,
    sig_valid: bool,
}

/// Signature checks already made: binding → valid. Only checks made
/// under a registered key are kept. The registry is first-write-wins, so a
/// kept result never goes stale, and a signer without a key is looked up
/// again next time.
type SigMemo = HashMap<Binding, bool>;

impl Auditor {
    /// Creates an auditor over a key registry.
    pub fn new(keys: KeyRegistry) -> Self {
        Auditor {
            keys,
            topology: HashMap::new(),
            gap_report_limit: 16,
        }
    }

    /// Supplies the topic→publisher topology (from the master, or from
    /// deployment records).
    pub fn with_topology(mut self, topology: impl IntoIterator<Item = (Topic, NodeId)>) -> Self {
        self.topology.extend(topology);
        self
    }

    /// Audits everything in a store. Records that do not decode are
    /// skipped and not counted; [`crate::ClusterAuditReport::undecodable`]
    /// is where a cluster audit counts them.
    pub fn audit_store(&self, store: &LogStore) -> AuditReport {
        let entries: Vec<LogEntry> = store.entries().into_iter().filter_map(Result::ok).collect();
        self.audit(&entries)
    }

    /// Audits a set of entries.
    pub fn audit(&self, entries: &[LogEntry]) -> AuditReport {
        self.classify(entries, &mut SigMemo::new())
    }

    /// The one pass that judges entries, verifying signatures through
    /// `memo`.
    fn classify(&self, entries: &[LogEntry], memo: &mut SigMemo) -> AuditReport {
        let mut report = AuditReport::default();

        // Phase 0: gap receipts — signed admissions of shed ranges — are
        // pulled out before link bucketing (a receipt reuses the first shed
        // seq as its entry seq and would otherwise read as a replay).
        let mut receipt_candidates: Vec<(GapReceipt, &LogEntry)> = Vec::new();
        let mut normal: Vec<&LogEntry> = Vec::new();
        for entry in entries {
            if !GapReceipt::claims_receipt(entry) {
                normal.push(entry);
                continue;
            }
            if let Some(reason) = self.screen(entry, memo) {
                if reason == InvalidReason::AuthenticityFailure {
                    report.anomalies.push(Anomaly::ImpersonationSuspected {
                        claimed: entry.component.clone(),
                        topic: entry.topic.clone(),
                        seq: entry.seq,
                    });
                }
                report.rejected_entries.push((entry.clone(), reason));
                continue;
            }
            // Decoding enforces the envelope/payload agreement; an unsigned
            // receipt admits nothing and is rejected outright.
            match GapReceipt::from_entry(entry).filter(|r| r.well_formed()) {
                Some(r) if entry.own_sig.is_some() => receipt_candidates.push((r, entry)),
                _ => report
                    .rejected_entries
                    .push((entry.clone(), InvalidReason::InvalidGapReceipt)),
            }
        }

        // Phase 1: per-entry screening (authenticity, publisher ownership,
        // duplicates). Aggregated entries are expanded into per-link views.
        let mut pub_entries: BTreeMap<(Topic, u64, NodeId), PubView<'_>> = BTreeMap::new();
        let mut sub_entries: BTreeMap<(Topic, u64, NodeId), &LogEntry> = BTreeMap::new();
        // Naive-scheme publisher entries name no subscriber; they pair by
        // (topic, seq) with every subscriber record of that transmission.
        let mut naive_pubs: BTreeMap<(Topic, u64), PubView<'_>> = BTreeMap::new();
        // Screened deposits per (component, topic, direction) — the ground
        // truth a lying receipt contradicts.
        let mut deposited: HashMap<(NodeId, Topic, Direction), BTreeSet<u64>> = HashMap::new();

        for entry in normal {
            if let Some(reason) = self.screen(entry, memo) {
                if reason == InvalidReason::AuthenticityFailure {
                    report.anomalies.push(Anomaly::ImpersonationSuspected {
                        claimed: entry.component.clone(),
                        topic: entry.topic.clone(),
                        seq: entry.seq,
                    });
                }
                report.rejected_entries.push((entry.clone(), reason));
                continue;
            }
            deposited
                .entry((
                    entry.component.clone(),
                    entry.topic.clone(),
                    entry.direction,
                ))
                .or_default()
                .insert(entry.seq);
            match entry.direction {
                Direction::Out => {
                    if !entry.is_adlp() && entry.peer.is_none() {
                        naive_pubs.insert(
                            (entry.topic.clone(), entry.seq),
                            PubView {
                                entry,
                                ack_of: None,
                            },
                        );
                    } else if entry.acks.is_empty() {
                        let subscriber = entry.peer.clone().unwrap_or_else(|| NodeId::new("?"));
                        let key = (entry.topic.clone(), entry.seq, subscriber.clone());
                        if pub_entries.contains_key(&key) {
                            report.record_violation(
                                &entry.component,
                                &entry.topic,
                                entry.seq,
                                ViolationKind::ReplayedLog,
                            );
                            report
                                .rejected_entries
                                .push((entry.clone(), InvalidReason::DuplicateSeq));
                            continue;
                        }
                        pub_entries.insert(
                            key,
                            PubView {
                                entry,
                                ack_of: None,
                            },
                        );
                    } else {
                        // Aggregated: one view per acknowledged subscriber.
                        for ack in &entry.acks {
                            let key = (entry.topic.clone(), entry.seq, ack.subscriber.clone());
                            pub_entries.insert(
                                key,
                                PubView {
                                    entry,
                                    ack_of: Some(ack),
                                },
                            );
                        }
                    }
                }
                Direction::In => {
                    let key = (entry.topic.clone(), entry.seq, entry.component.clone());
                    if sub_entries.contains_key(&key) {
                        report.record_violation(
                            &entry.component,
                            &entry.topic,
                            entry.seq,
                            ViolationKind::ReplayedLog,
                        );
                        report
                            .rejected_entries
                            .push((entry.clone(), InvalidReason::DuplicateSeq));
                        continue;
                    }
                    sub_entries.insert(key, entry);
                }
            }
        }

        // Phase 1.5: receipt verification — collapse re-delivered
        // duplicates, then reject receipts that overlap a sibling or
        // contradict entries the claiming component actually deposited.
        let shed = Self::verify_receipts(receipt_candidates, &deposited, &mut report);

        // Phase 2: per-link confrontation.
        let mut link_keys: BTreeSet<(Topic, u64, NodeId)> = BTreeSet::new();
        link_keys.extend(pub_entries.keys().cloned());
        link_keys.extend(sub_entries.keys().cloned());
        let mut consumed_naive: BTreeSet<(Topic, u64)> = BTreeSet::new();

        for key in link_keys {
            let (topic, seq, subscriber) = key.clone();
            let pub_side = pub_entries.get(&key).or_else(|| {
                let nk = (topic.clone(), seq);
                let view = naive_pubs.get(&nk);
                if view.is_some() {
                    consumed_naive.insert(nk);
                }
                view
            });
            let publisher = self
                .topology
                .get(&topic)
                .cloned()
                .or_else(|| {
                    pub_side
                        .map(|v| v.entry.component.clone())
                        .or_else(|| sub_entries.get(&key).and_then(|e| e.peer.clone()))
                })
                .unwrap_or_else(|| NodeId::new("?"));
            let link = self.audit_link(
                &topic,
                seq,
                &publisher,
                &subscriber,
                pub_side,
                sub_entries.get(&key).copied(),
                &shed,
                &mut report,
                memo,
            );
            report.hidden.extend(link.hidden.iter().cloned());
            report.links.push(link);
        }

        // Naive publisher entries nobody subscribed against: lone, unprovable.
        for ((topic, seq), view) in &naive_pubs {
            if consumed_naive.contains(&(topic.clone(), *seq)) {
                continue;
            }
            let publisher = self
                .topology
                .get(topic)
                .cloned()
                .unwrap_or_else(|| view.entry.component.clone());
            let link = self.audit_link(
                topic,
                *seq,
                &publisher,
                &NodeId::new("?"),
                Some(view),
                None,
                &shed,
                &mut report,
                memo,
            );
            report.links.push(link);
        }

        // Phase 3: sequence-gap anomalies per (topic, subscriber).
        self.detect_gaps(&mut report, &shed);

        report.shed = shed;
        report
    }

    /// Verifies receipt candidates against each other and against actual
    /// deposits. Identical duplicates are benign (the deposit path
    /// re-delivers a receipt whose first submission was reported lost);
    /// overlapping or contradicted receipts are rejected as invalid.
    fn verify_receipts(
        mut candidates: Vec<(GapReceipt, &LogEntry)>,
        deposited: &HashMap<(NodeId, Topic, Direction), BTreeSet<u64>>,
        report: &mut AuditReport,
    ) -> Vec<GapReceipt> {
        let mut seen: Vec<GapReceipt> = Vec::new();
        candidates.retain(|(r, _)| {
            if seen.contains(r) {
                false
            } else {
                seen.push(r.clone());
                true
            }
        });
        let mut verified = Vec::new();
        for (i, (r, entry)) in candidates.iter().enumerate() {
            let overlapping = candidates
                .iter()
                .enumerate()
                .any(|(j, (o, _))| i != j && r.overlaps(o));
            let contradicted = deposited
                .get(&(r.component.clone(), r.topic.clone(), r.direction))
                .is_some_and(|seqs| seqs.range(r.first_seq..=r.last_seq).next().is_some());
            if overlapping || contradicted {
                report
                    .rejected_entries
                    .push(((*entry).clone(), InvalidReason::InvalidGapReceipt));
            } else {
                verified.push(r.clone());
            }
        }
        verified
    }

    /// Whether `sig` is `signer`'s signature binding `payload_digest` to
    /// `entry`'s (topic, seq), or `None` when no key is registered for
    /// `signer`. The audit's only signature check.
    fn check(
        &self,
        memo: &mut SigMemo,
        signer: &NodeId,
        entry: &LogEntry,
        payload_digest: Digest,
        sig: &Signature,
    ) -> Option<bool> {
        let binding = Binding {
            signer: signer.clone(),
            topic: entry.topic.clone(),
            seq: entry.seq,
            payload_digest,
            signature: sig.clone(),
        };
        if let Some(&valid) = memo.get(&binding) {
            return Some(valid);
        }
        let valid = binding.verify(&self.keys.get(signer)?);
        memo.insert(binding, valid);
        Some(valid)
    }

    /// Pre-link screening. Returns a rejection reason, if any.
    fn screen(&self, entry: &LogEntry, memo: &mut SigMemo) -> Option<InvalidReason> {
        if entry.direction == Direction::Out {
            if let Some(owner) = self.topology.get(&entry.topic) {
                if owner != &entry.component {
                    return Some(InvalidReason::WrongPublisher);
                }
            }
        }
        if let Some(own_sig) = &entry.own_sig {
            // Signatures cover the binding digest h(seq ‖ h(D)): a
            // relabeled sequence number fails right here instead of
            // framing the counterpart.
            match self.check(
                memo,
                &entry.component,
                entry,
                entry.payload.digest(),
                own_sig,
            ) {
                None => return Some(InvalidReason::UnknownComponent),
                Some(false) => return Some(InvalidReason::AuthenticityFailure),
                Some(true) => {}
            }
        }
        None
    }

    fn pub_evidence(
        &self,
        view: &PubView<'_>,
        subscriber: &NodeId,
        memo: &mut SigMemo,
    ) -> SideEvidence {
        let entry = view.entry;
        let ack = match view.ack_of {
            Some(ack) => Some((&ack.hash, &ack.sig)),
            None => entry.peer_hash.as_ref().zip(entry.peer_sig.as_ref()),
        };
        SideEvidence {
            claimed: entry.payload.digest(),
            ack: ack.map(|(hash, sig)| AckEvidence {
                hash: *hash,
                sig_valid: self.check(memo, subscriber, entry, *hash, sig) == Some(true),
            }),
            peer_sig_valid: false,
        }
    }

    fn sub_evidence(
        &self,
        entry: &LogEntry,
        publisher: &NodeId,
        memo: &mut SigMemo,
    ) -> SideEvidence {
        let claimed = entry.payload.digest();
        let peer_sig_valid = entry
            .peer_sig
            .as_ref()
            .is_some_and(|s| self.check(memo, publisher, entry, claimed, s) == Some(true));
        SideEvidence {
            claimed,
            ack: None,
            peer_sig_valid,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn audit_link(
        &self,
        topic: &Topic,
        seq: u64,
        publisher: &NodeId,
        subscriber: &NodeId,
        pub_view: Option<&PubView<'_>>,
        sub_entry: Option<&LogEntry>,
        shed: &[GapReceipt],
        report: &mut AuditReport,
        memo: &mut SigMemo,
    ) -> LinkAudit {
        let mut link = LinkAudit {
            topic: topic.clone(),
            seq,
            publisher: publisher.clone(),
            subscriber: subscriber.clone(),
            publisher_entry: None,
            subscriber_entry: None,
            hidden: Vec::new(),
        };

        // Naive-scheme entries (Definition 2) carry no signatures: nothing
        // can be proven or refuted — exactly the paper's point in §III-B.
        // They classify as Unproven, and a conflict between the two sides is
        // reported as a non-attributable anomaly.
        let naive = pub_view.map(|v| !v.entry.is_adlp()).unwrap_or(false)
            || sub_entry.map(|e| !e.is_adlp()).unwrap_or(false);
        if naive {
            link.publisher_entry = pub_view.map(|_| EntryClass::Unproven);
            link.subscriber_entry = sub_entry.map(|_| EntryClass::Unproven);
            if let (Some(p), Some(s)) = (pub_view, sub_entry) {
                if p.entry.payload.digest() != s.payload.digest() {
                    report.anomalies.push(Anomaly::ConflictingEvidence {
                        topic: topic.clone(),
                        seq,
                        parties: (publisher.clone(), subscriber.clone()),
                    });
                }
            }
            return link;
        }

        let p = pub_view.map(|v| self.pub_evidence(v, subscriber, memo));
        let s = sub_entry.map(|e| self.sub_evidence(e, publisher, memo));

        match (p, s) {
            (Some(p), Some(s)) => {
                self.judge_dispute(topic, seq, publisher, subscriber, p, s, &mut link, report)
            }
            (Some(p), None) => {
                // Only the publisher reported (Lemma 2: the subscriber's
                // receipt is exposed by its own acknowledgement).
                match &p.ack {
                    Some(ack) if ack.sig_valid => {
                        if ack.hash == p.claimed {
                            link.publisher_entry = Some(EntryClass::Valid);
                            report.record_valid(publisher);
                            if let Some((first_seq, last_seq)) =
                                shed_cover(shed, subscriber, topic, Direction::In, seq)
                            {
                                // The subscriber admitted shedding this
                                // receipt record under overload: bounded,
                                // accounted loss — no Lemma 2 verdict.
                                link.subscriber_entry = Some(EntryClass::Shed {
                                    first_seq,
                                    last_seq,
                                });
                            } else {
                                link.hidden.push(HiddenRecord {
                                    component: subscriber.clone(),
                                    direction: Direction::In,
                                    topic: topic.clone(),
                                    seq,
                                    proven_by: publisher.clone(),
                                });
                                report.record_violation(
                                    subscriber,
                                    topic,
                                    seq,
                                    ViolationKind::HidReceipt,
                                );
                            }
                        } else {
                            // The subscriber committed to different data
                            // than the publisher claims: the publisher's
                            // own record convicts it (Lemma 3 i).
                            link.publisher_entry =
                                Some(EntryClass::Invalid(InvalidReason::FalsifiedPayload));
                            report.record_violation(
                                publisher,
                                topic,
                                seq,
                                ViolationKind::FalsifiedLog,
                            );
                            link.hidden.push(HiddenRecord {
                                component: subscriber.clone(),
                                direction: Direction::In,
                                topic: topic.clone(),
                                seq,
                                proven_by: publisher.clone(),
                            });
                        }
                    }
                    Some(_) => {
                        // Invalid acknowledgement signature: fabrication
                        // (Lemma 1 — a real ack is transport-enforced valid).
                        link.publisher_entry =
                            Some(EntryClass::Invalid(InvalidReason::FabricatedPeerSignature));
                        report.record_violation(
                            publisher,
                            topic,
                            seq,
                            ViolationKind::FabricatedLog,
                        );
                    }
                    None => {
                        // No acknowledgement at all: unproven (Lemma 1 — the
                        // publisher's entry alone cannot prove publication).
                        link.publisher_entry = Some(EntryClass::Unproven);
                    }
                }
            }
            (None, Some(s)) => {
                // Only the subscriber reported.
                if s.peer_sig_valid {
                    // s_x proves the publication (Lemma 2): publisher hid —
                    // unless it admitted shedding the record.
                    link.subscriber_entry = Some(EntryClass::Valid);
                    report.record_valid(subscriber);
                    if let Some((first_seq, last_seq)) =
                        shed_cover(shed, publisher, topic, Direction::Out, seq)
                    {
                        link.publisher_entry = Some(EntryClass::Shed {
                            first_seq,
                            last_seq,
                        });
                    } else {
                        link.hidden.push(HiddenRecord {
                            component: publisher.clone(),
                            direction: Direction::Out,
                            topic: topic.clone(),
                            seq,
                            proven_by: subscriber.clone(),
                        });
                        report.record_violation(
                            publisher,
                            topic,
                            seq,
                            ViolationKind::HidPublication,
                        );
                    }
                } else {
                    // Invalid s_x: the subscriber made the record up
                    // (Lemma 1 — fabrication; Figure 8's case (b)).
                    link.subscriber_entry =
                        Some(EntryClass::Invalid(InvalidReason::FabricatedPeerSignature));
                    report.record_violation(subscriber, topic, seq, ViolationKind::FabricatedLog);
                }
            }
            // Link keys come from the entry maps, so some side is always
            // present; a link with neither has nothing to classify.
            (None, None) => {}
        }
        link
    }

    /// Both sides present: the dispute-resolution core (Lemma 3).
    #[allow(clippy::too_many_arguments)]
    fn judge_dispute(
        &self,
        topic: &Topic,
        seq: u64,
        publisher: &NodeId,
        subscriber: &NodeId,
        p: SideEvidence,
        s: SideEvidence,
        link: &mut LinkAudit,
        report: &mut AuditReport,
    ) {
        let ack_valid = p.ack.as_ref().is_some_and(|a| a.sig_valid);
        let ack_hash = p.ack.as_ref().map(|a| a.hash);

        if p.claimed == s.claimed {
            // Agreement on the data. Check the cross-signatures.
            if !s.peer_sig_valid {
                // The subscriber's recorded s_x is invalid although it agrees
                // on the data: it cannot have received this from the
                // transport (requirement (4)) — fabricated record.
                link.subscriber_entry =
                    Some(EntryClass::Invalid(InvalidReason::FabricatedPeerSignature));
                report.record_violation(subscriber, topic, seq, ViolationKind::FabricatedLog);
            } else {
                link.subscriber_entry = Some(EntryClass::Valid);
                report.record_valid(subscriber);
            }
            match (ack_valid, ack_hash) {
                (true, Some(h)) if h == p.claimed => {
                    link.publisher_entry = Some(EntryClass::Valid);
                    report.record_valid(publisher);
                }
                (true, Some(_)) => {
                    // Valid ack over a *different* hash than both parties
                    // claim — inconsistent publisher record.
                    link.publisher_entry = Some(EntryClass::Valid);
                    report.record_valid(publisher);
                    report.anomalies.push(Anomaly::InconsistentAck {
                        topic: topic.clone(),
                        seq,
                        publisher: publisher.clone(),
                    });
                }
                (false, Some(_)) => {
                    link.publisher_entry =
                        Some(EntryClass::Invalid(InvalidReason::FabricatedPeerSignature));
                    report.record_violation(publisher, topic, seq, ViolationKind::FabricatedLog);
                }
                (_, None) => {
                    // No ack recorded, but the subscriber's (valid) entry
                    // corroborates the publication.
                    if s.peer_sig_valid {
                        link.publisher_entry = Some(EntryClass::Valid);
                        report.record_valid(publisher);
                    } else {
                        link.publisher_entry = Some(EntryClass::Unproven);
                    }
                }
            }
            return;
        }

        // The two sides disagree on the data (the motivating dispute of
        // Figure 3). Decide using the cross-signatures.
        let sub_endorses_pub_claim = ack_valid && ack_hash == Some(p.claimed);
        let pub_endorses_sub_claim = s.peer_sig_valid;

        match (pub_endorses_sub_claim, sub_endorses_pub_claim) {
            (true, false) => {
                // The publisher's key signed what the subscriber recorded:
                // the publisher *did* send s.claimed, its log says
                // otherwise — falsified (Lemma 3 i).
                link.publisher_entry = Some(EntryClass::Invalid(InvalidReason::FalsifiedPayload));
                report.record_violation(publisher, topic, seq, ViolationKind::FalsifiedLog);
                link.subscriber_entry = Some(EntryClass::Valid);
                report.record_valid(subscriber);
            }
            (false, true) => {
                // The subscriber acknowledged what the publisher claims but
                // logged something else — falsified (Lemma 3 ii).
                link.publisher_entry = Some(EntryClass::Valid);
                report.record_valid(publisher);
                link.subscriber_entry = Some(EntryClass::Invalid(InvalidReason::FalsifiedPayload));
                report.record_violation(subscriber, topic, seq, ViolationKind::FalsifiedLog);
            }
            (true, true) => {
                // Each side holds the other's valid signature over a
                // *different* payload: impossible without collusion or key
                // compromise — both records are suspect.
                link.publisher_entry =
                    Some(EntryClass::Invalid(InvalidReason::UnresolvableConflict));
                link.subscriber_entry =
                    Some(EntryClass::Invalid(InvalidReason::UnresolvableConflict));
                report.anomalies.push(Anomaly::ConflictingEvidence {
                    topic: topic.clone(),
                    seq,
                    parties: (publisher.clone(), subscriber.clone()),
                });
            }
            (false, false) => {
                // Neither side's claim is endorsed by the other's key.
                // Whoever recorded an *invalid* counterpart signature
                // fabricated it (Lemma 1).
                if p.ack.is_some() {
                    link.publisher_entry =
                        Some(EntryClass::Invalid(InvalidReason::FabricatedPeerSignature));
                    report.record_violation(publisher, topic, seq, ViolationKind::FabricatedLog);
                } else {
                    link.publisher_entry = Some(EntryClass::Unproven);
                }
                link.subscriber_entry =
                    Some(EntryClass::Invalid(InvalidReason::FabricatedPeerSignature));
                report.record_violation(subscriber, topic, seq, ViolationKind::FabricatedLog);
            }
        }
    }

    /// Detects per-link sequence gaps (possible pairwise hiding — the
    /// unobservable collusion case of §III-B).
    fn detect_gaps(&self, report: &mut AuditReport, shed: &[GapReceipt]) {
        let mut per_link: BTreeMap<(Topic, NodeId), (BTreeSet<u64>, NodeId)> = BTreeMap::new();
        for l in &report.links {
            per_link
                .entry((l.topic.clone(), l.subscriber.clone()))
                .or_insert_with(|| (BTreeSet::new(), l.publisher.clone()))
                .0
                .insert(l.seq);
        }
        for ((topic, subscriber), (seqs, publisher)) in per_link {
            let (&lo, &hi) = match (seqs.first(), seqs.last()) {
                (Some(a), Some(b)) => (a, b),
                _ => continue,
            };
            // Compared without `+ 1`: a forged seq can span all of u64.
            if hi - lo == seqs.len() as u64 - 1 {
                continue;
            }
            // A forged seq can make the range astronomically wide; walk the
            // observed seqs instead of the full range, skip each shed range
            // in one step so enumeration stays O(entries + receipts), and
            // cap the sample.
            let mut missing: Vec<u64> = Vec::new();
            let mut prev = lo;
            'scan: for &s in seqs.iter().skip(1) {
                let mut gap = prev + 1;
                while gap < s {
                    // A seq either side admitted shedding is accounted for
                    // — not a possible pairwise hide.
                    let excused_to = [
                        shed_cover(shed, &publisher, &topic, Direction::Out, gap),
                        shed_cover(shed, &subscriber, &topic, Direction::In, gap),
                    ];
                    match excused_to.into_iter().flatten().map(|(_, last)| last).max() {
                        Some(last) => gap = last.saturating_add(1),
                        None => {
                            missing.push(gap);
                            if missing.len() >= self.gap_report_limit {
                                break 'scan;
                            }
                            gap += 1;
                        }
                    }
                }
                prev = s;
            }
            if missing.is_empty() {
                continue;
            }
            report.anomalies.push(Anomaly::SequenceGap {
                topic,
                subscriber,
                missing,
            });
        }
    }
}

/// A running audit over a growing log. Each ingest re-judges every entry
/// seen so far, so the report always equals [`Auditor::audit`] of that
/// prefix; the session keeps its signature memo, so no signature is
/// verified twice across ingests.
#[derive(Debug)]
pub struct AuditSession {
    auditor: Auditor,
    entries: Vec<LogEntry>,
    memo: SigMemo,
    report: AuditReport,
}

impl AuditSession {
    /// Starts a session.
    pub fn new(auditor: Auditor) -> Self {
        AuditSession {
            auditor,
            entries: Vec::new(),
            memo: SigMemo::new(),
            report: AuditReport::default(),
        }
    }

    /// Feeds newly appended entries; returns the refreshed report.
    pub fn ingest<'a>(
        &mut self,
        new_entries: impl IntoIterator<Item = &'a LogEntry>,
    ) -> &AuditReport {
        self.entries.extend(new_entries.into_iter().cloned());
        self.report = self.auditor.classify(&self.entries, &mut self.memo);
        &self.report
    }

    /// The report over everything ingested so far.
    pub fn report(&self) -> &AuditReport {
        &self.report
    }

    /// Number of entries ingested.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was ingested yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

struct PubView<'a> {
    entry: &'a LogEntry,
    /// The acknowledgement this view stands for when it came from an
    /// aggregated entry.
    ack_of: Option<&'a AckRecord>,
}

/// Finds the verified receipt (if any) by which `component` admitted
/// shedding its `direction` entry for `(topic, seq)`.
fn shed_cover(
    shed: &[GapReceipt],
    component: &NodeId,
    topic: &Topic,
    direction: Direction,
    seq: u64,
) -> Option<(u64, u64)> {
    shed.iter()
        .find(|r| {
            &r.component == component
                && &r.topic == topic
                && r.direction == direction
                && r.covers(seq)
        })
        .map(|r| (r.first_seq, r.last_seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_core::ComponentIdentity;
    use adlp_crypto::sha256::{binding_digest, sha256};
    use adlp_logger::PayloadRecord;
    use rand::SeedableRng;

    /// A registry, an auditor over it, and `n` faithful exchanges.
    fn faithful_log(n: u64) -> (Auditor, Vec<LogEntry>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let p = ComponentIdentity::generate("pubber", 512, &mut rng);
        let s = ComponentIdentity::generate("subber", 512, &mut rng);
        let keys = KeyRegistry::new();
        keys.register(p.id(), p.public_key().clone()).unwrap();
        keys.register(s.id(), s.public_key().clone()).unwrap();
        let mut entries = Vec::new();
        for seq in 1..=n {
            let digest = sha256(&seq.to_be_bytes());
            let bound = binding_digest("t", seq, &digest);
            let (s_x, s_y) = (
                p.sign_digest(&bound).unwrap(),
                s.sign_digest(&bound).unwrap(),
            );
            entries.push(LogEntry {
                component: p.id().clone(),
                topic: Topic::new("t"),
                direction: Direction::Out,
                seq,
                timestamp_ns: 100,
                payload: PayloadRecord::Data(seq.to_be_bytes().to_vec()),
                own_sig: Some(s_x.clone()),
                peer_sig: Some(s_y.clone()),
                peer_hash: Some(digest),
                peer: Some(s.id().clone()),
                acks: Vec::new(),
            });
            entries.push(LogEntry {
                component: s.id().clone(),
                direction: Direction::In,
                payload: PayloadRecord::Hash(digest),
                own_sig: Some(s_y),
                peer_sig: Some(s_x),
                peer_hash: None,
                peer: Some(p.id().clone()),
                ..entries.last().unwrap().clone()
            });
        }
        let auditor = Auditor::new(keys).with_topology([(Topic::new("t"), p.id().clone())]);
        (auditor, entries)
    }

    // Every registered-key check lands in the memo, and a kept result
    // answers every later check of its statement: poisoning the memo shows
    // which checks it served instead of RSA.

    #[test]
    fn a_faithful_pair_is_two_statements_each_verified_once() {
        let (auditor, entries) = faithful_log(3);
        let mut memo = SigMemo::new();
        assert!(auditor.classify(&entries, &mut memo).all_clear());
        assert_eq!(memo.len(), 2 * 3);
        memo.values_mut().for_each(|valid| *valid = false);
        let report = auditor.classify(&entries, &mut memo);
        assert_eq!(report.rejected_entries.len(), entries.len());
    }

    #[test]
    fn a_session_keeps_its_memo_across_ingests() {
        let (auditor, entries) = faithful_log(4);
        let mut session = AuditSession::new(auditor);
        session.ingest(&entries[..4]);
        assert_eq!(session.memo.len(), 4);
        session.memo.values_mut().for_each(|valid| *valid = false);
        // The first two pairs are answered from the memo; the new two are
        // verified.
        let report = session.ingest(&entries[4..]);
        assert_eq!(report.rejected_entries.len(), 4);
        assert!(report.rejected_entries.iter().all(|(e, _)| e.seq <= 2));
        assert_eq!(session.memo.len(), 8);
    }
}
