//! Verdict contestation hooks and deterministic report serialization.
//!
//! A verdict the auditor emits is *evidence-backed*, not oracular: any
//! party may contest it before a resolver panel (`adlp-dispute`), and the
//! panel settles the contest by **re-deriving** the verdict from the
//! evidence — transferable proofs, and deterministic replays of recorded
//! traffic windows. This module supplies the two primitives that makes
//! possible:
//!
//! * [`ContestedVerdict`] — a compact, encodable description of *which*
//!   verdict is contested, with re-verification hooks ([`
//!   ContestedVerdict::supported_by`], [`ContestedVerdict::exonerated_by`])
//!   that test a fresh [`AuditReport`] for the verdict instead of trusting
//!   either party's account of it;
//! * [`canonical_report_bytes`] — a byte-deterministic serialization of an
//!   [`AuditReport`]: two audits of the same entry multiset produce the
//!   same bytes, so "replaying the recording twice yields byte-identical
//!   reports" is checkable with `==` and a verdict can never flip on
//!   replay nondeterminism.

use crate::auditor::AuditReport;
use crate::classify::{Anomaly, EntryClass, HiddenRecord};
use adlp_logger::encoding::{write_str, write_uvarint, Wire};
use adlp_logger::{Direction, LogError};
use adlp_pubsub::{NodeId, Topic};

/// The audit verdict a dispute contests. Only verdicts that convict a
/// party are contestable — there is nothing to overturn about `Valid`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContestedVerdict {
    /// "`component` hid its `direction`-side entry for (`topic`, `seq`)" —
    /// a Lemma 2 conviction. Contestable with a recorded traffic window:
    /// if a sound replay shows the entry deposited and valid, the original
    /// audit ran on an incomplete view.
    Hidden {
        /// The convicted component.
        component: NodeId,
        /// Which side it allegedly hid.
        direction: Direction,
        /// The topic.
        topic: Topic,
        /// The sequence number.
        seq: u64,
    },
    /// "Log `log` signed two different roots at tree size `size`" — a
    /// split-view conviction carried by a `ConflictProof` of tree heads.
    /// The proof is self-certifying, so the contest turns entirely on
    /// whether a verifying proof for this (log, size) exists among the
    /// evidence.
    SplitView {
        /// The convicted log's identity.
        log: NodeId,
        /// The tree size both signed heads claim.
        size: u64,
    },
    /// "Replica (`shard`, `replica`) attested two conflicting heads" — an
    /// equivocation conviction carried by a `ConflictProof` of
    /// attestations, likewise self-certifying.
    Equivocation {
        /// The shard of the convicted replica.
        shard: u64,
        /// The replica index within the shard.
        replica: u64,
    },
}

impl ContestedVerdict {
    /// The party the verdict convicts (the natural claimant of a dispute
    /// contesting it). Replica convictions name a synthetic
    /// `shard<N>-replica<M>` party.
    pub fn convicted(&self) -> NodeId {
        match self {
            ContestedVerdict::Hidden { component, .. } => component.clone(),
            ContestedVerdict::SplitView { log, .. } => log.clone(),
            ContestedVerdict::Equivocation { shard, replica } => {
                NodeId::new(format!("shard{shard}-replica{replica}"))
            }
        }
    }

    /// Whether a *fresh* audit report still carries this verdict. Used by
    /// resolvers re-deriving the verdict from replayed traffic: the
    /// original accusation is never taken on faith.
    pub fn supported_by(&self, report: &AuditReport) -> bool {
        match self {
            ContestedVerdict::Hidden {
                component,
                direction,
                topic,
                seq,
            } => report.hidden.iter().any(|h| {
                &h.component == component
                    && h.direction == *direction
                    && &h.topic == topic
                    && h.seq == *seq
            }),
            // Proof-carried convictions are not derivable from a traffic
            // replay; their support is the proof itself (checked by the
            // resolver against the evidence set, not against a report).
            ContestedVerdict::SplitView { .. } | ContestedVerdict::Equivocation { .. } => false,
        }
    }

    /// Whether a fresh audit report affirmatively *clears* the convicted
    /// party of this verdict. Clearing demands positive proof — the
    /// accused's entry present and classified [`EntryClass::Valid`] on the
    /// contested link — never mere absence of the accusation (an evidence
    /// window that simply omits the link proves nothing).
    pub fn exonerated_by(&self, report: &AuditReport) -> bool {
        match self {
            ContestedVerdict::Hidden {
                component,
                direction,
                topic,
                seq,
            } => {
                if self.supported_by(report) {
                    return false;
                }
                report.links.iter().any(|l| {
                    &l.topic == topic
                        && l.seq == *seq
                        && match direction {
                            Direction::Out => {
                                &l.publisher == component
                                    && l.publisher_entry == Some(EntryClass::Valid)
                            }
                            Direction::In => {
                                &l.subscriber == component
                                    && l.subscriber_entry == Some(EntryClass::Valid)
                            }
                        }
                })
            }
            ContestedVerdict::SplitView { .. } | ContestedVerdict::Equivocation { .. } => false,
        }
    }
}

/// Wire transfer and ledger persistence: a tag byte (1 hidden, 2 split
/// view, 3 equivocation), then the variant's fields.
impl Wire for ContestedVerdict {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            ContestedVerdict::Hidden {
                component,
                direction,
                topic,
                seq,
            } => {
                out.push(1);
                component.put_field(out);
                direction.put_field(out);
                topic.put_field(out);
                seq.put_field(out);
            }
            ContestedVerdict::SplitView { log, size } => {
                out.push(2);
                log.put_field(out);
                size.put_field(out);
            }
            ContestedVerdict::Equivocation { shard, replica } => {
                out.push(3);
                shard.put_field(out);
                replica.put_field(out);
            }
        }
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        match u8::decode_from(src)? {
            1 => Ok(ContestedVerdict::Hidden {
                component: Wire::decode_field(src)?,
                direction: Wire::decode_field(src)?,
                topic: Wire::decode_field(src)?,
                seq: Wire::decode_field(src)?,
            }),
            2 => Ok(ContestedVerdict::SplitView {
                log: Wire::decode_field(src)?,
                size: Wire::decode_field(src)?,
            }),
            3 => Ok(ContestedVerdict::Equivocation {
                shard: Wire::decode_field(src)?,
                replica: Wire::decode_field(src)?,
            }),
            _ => Err(LogError::Malformed("contested verdict (tag)")),
        }
    }
}

/// Every contestable verdict an audit report carries, in deterministic
/// order — the hook a dispute ledger offers parties ("these are the
/// convictions you may contest").
pub fn contestable_verdicts(report: &AuditReport) -> Vec<ContestedVerdict> {
    let mut out: Vec<ContestedVerdict> = report
        .hidden
        .iter()
        .map(|h| ContestedVerdict::Hidden {
            component: h.component.clone(),
            direction: h.direction,
            topic: h.topic.clone(),
            seq: h.seq,
        })
        .collect();
    out.sort_by_key(|a| a.encode());
    out.dedup();
    out
}

fn write_entry_class(out: &mut Vec<u8>, class: &Option<EntryClass>) {
    match class {
        None => out.push(0),
        Some(EntryClass::Valid) => out.push(1),
        Some(EntryClass::Invalid(reason)) => {
            out.push(2);
            write_str(out, &reason.to_string());
        }
        Some(EntryClass::Unproven) => out.push(3),
        Some(EntryClass::Shed {
            first_seq,
            last_seq,
        }) => {
            out.push(4);
            write_uvarint(out, *first_seq);
            write_uvarint(out, *last_seq);
        }
    }
}

fn write_hidden(out: &mut Vec<u8>, h: &HiddenRecord) {
    write_str(out, h.component.as_str());
    h.direction.put(out);
    write_str(out, h.topic.as_str());
    write_uvarint(out, h.seq);
    write_str(out, h.proven_by.as_str());
}

fn write_anomaly(out: &mut Vec<u8>, a: &Anomaly) {
    // `Anomaly` is non_exhaustive: downstream crates cannot rely on this
    // match being total, and a future variant must extend the encoder
    // before it can appear in canonical bytes. Inside the defining crate
    // the fallback is (deliberately) unreachable today.
    #[allow(unreachable_patterns)]
    match a {
        Anomaly::ConflictingEvidence {
            topic,
            seq,
            parties,
        } => {
            out.push(1);
            write_str(out, topic.as_str());
            write_uvarint(out, *seq);
            write_str(out, parties.0.as_str());
            write_str(out, parties.1.as_str());
        }
        Anomaly::ImpersonationSuspected {
            claimed,
            topic,
            seq,
        } => {
            out.push(2);
            write_str(out, claimed.as_str());
            write_str(out, topic.as_str());
            write_uvarint(out, *seq);
        }
        Anomaly::SequenceGap {
            topic,
            subscriber,
            missing,
        } => {
            out.push(3);
            write_str(out, topic.as_str());
            write_str(out, subscriber.as_str());
            write_uvarint(out, missing.len() as u64);
            for m in missing {
                write_uvarint(out, *m);
            }
        }
        Anomaly::InconsistentAck {
            topic,
            seq,
            publisher,
        } => {
            out.push(4);
            write_str(out, topic.as_str());
            write_uvarint(out, *seq);
            write_str(out, publisher.as_str());
        }
        _ => out.push(255),
    }
}

/// Serializes an [`AuditReport`] into canonical bytes: every section is
/// emitted in a sorted order independent of the order entries were fed to
/// the auditor, so equal reports — and only equal reports — serialize
/// identically. This is the equality the replay-determinism guarantee is
/// stated over.
pub fn canonical_report_bytes(report: &AuditReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(b"ADLPAUD1");

    // Links, sorted by (topic, seq, subscriber, publisher) encoding.
    let mut links: Vec<Vec<u8>> = report
        .links
        .iter()
        .map(|l| {
            let mut b = Vec::with_capacity(64);
            write_str(&mut b, l.topic.as_str());
            write_uvarint(&mut b, l.seq);
            write_str(&mut b, l.subscriber.as_str());
            write_str(&mut b, l.publisher.as_str());
            write_entry_class(&mut b, &l.publisher_entry);
            write_entry_class(&mut b, &l.subscriber_entry);
            write_uvarint(&mut b, l.hidden.len() as u64);
            let mut hidden: Vec<Vec<u8>> = l
                .hidden
                .iter()
                .map(|h| {
                    let mut hb = Vec::new();
                    write_hidden(&mut hb, h);
                    hb
                })
                .collect();
            hidden.sort();
            for h in hidden {
                b.extend_from_slice(&h);
            }
            b
        })
        .collect();
    links.sort();
    write_uvarint(&mut out, links.len() as u64);
    for l in links {
        out.extend_from_slice(&l);
    }

    // Hidden records, sorted.
    let mut hidden: Vec<Vec<u8>> = report
        .hidden
        .iter()
        .map(|h| {
            let mut b = Vec::new();
            write_hidden(&mut b, h);
            b
        })
        .collect();
    hidden.sort();
    write_uvarint(&mut out, hidden.len() as u64);
    for h in hidden {
        out.extend_from_slice(&h);
    }

    // Verdicts: BTreeMap iteration is already sorted by component; each
    // component's violations are sorted by their encoding.
    write_uvarint(&mut out, report.verdicts.len() as u64);
    for (component, verdict) in &report.verdicts {
        write_str(&mut out, component.as_str());
        write_uvarint(&mut out, verdict.valid_entries as u64);
        let mut violations: Vec<Vec<u8>> = verdict
            .violations
            .iter()
            .map(|v| {
                let mut b = Vec::new();
                write_str(&mut b, v.topic.as_str());
                write_uvarint(&mut b, v.seq);
                write_str(&mut b, &format!("{:?}", v.kind));
                b
            })
            .collect();
        violations.sort();
        write_uvarint(&mut out, violations.len() as u64);
        for v in violations {
            out.extend_from_slice(&v);
        }
    }

    // Anomalies, sorted by encoding.
    let mut anomalies: Vec<Vec<u8>> = report
        .anomalies
        .iter()
        .map(|a| {
            let mut b = Vec::new();
            write_anomaly(&mut b, a);
            b
        })
        .collect();
    anomalies.sort();
    write_uvarint(&mut out, anomalies.len() as u64);
    for a in anomalies {
        out.extend_from_slice(&a);
    }

    // Rejected entries: the full encoded entry plus the reason, sorted.
    let mut rejected: Vec<Vec<u8>> = report
        .rejected_entries
        .iter()
        .map(|(entry, reason)| {
            let mut b = Vec::new();
            let encoded = entry.encode();
            write_uvarint(&mut b, encoded.len() as u64);
            b.extend_from_slice(&encoded);
            write_str(&mut b, &reason.to_string());
            b
        })
        .collect();
    rejected.sort();
    write_uvarint(&mut out, rejected.len() as u64);
    for r in rejected {
        out.extend_from_slice(&r);
    }

    // Verified gap receipts, sorted by payload encoding.
    let mut shed: Vec<Vec<u8>> = report.shed.iter().map(|r| r.to_payload()).collect();
    shed.sort();
    write_uvarint(&mut out, shed.len() as u64);
    for s in shed {
        write_uvarint(&mut out, s.len() as u64);
        out.extend_from_slice(&s);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::Auditor;
    use adlp_logger::{KeyRegistry, LogEntry};

    fn naive(component: &str, topic: &str, dir: Direction, seq: u64) -> LogEntry {
        LogEntry::naive(
            NodeId::new(component),
            Topic::new(topic),
            dir,
            seq,
            seq,
            vec![seq as u8; 8],
        )
    }

    #[test]
    fn canonical_bytes_are_input_order_independent() {
        let auditor = Auditor::new(KeyRegistry::new());
        let mut entries = vec![
            naive("cam", "image", Direction::Out, 1),
            naive("det", "image", Direction::In, 1),
            naive("cam", "image", Direction::Out, 2),
            naive("det", "image", Direction::In, 2),
        ];
        let forward = canonical_report_bytes(&auditor.audit(&entries));
        entries.reverse();
        let backward = canonical_report_bytes(&auditor.audit(&entries));
        assert_eq!(forward, backward);
    }

    #[test]
    fn canonical_bytes_distinguish_different_reports() {
        let auditor = Auditor::new(KeyRegistry::new());
        let a = canonical_report_bytes(&auditor.audit(&[naive("cam", "image", Direction::Out, 1)]));
        let b = canonical_report_bytes(&auditor.audit(&[naive("cam", "image", Direction::Out, 2)]));
        assert_ne!(a, b);
    }

    #[test]
    fn exoneration_requires_positive_proof() {
        let auditor = Auditor::new(KeyRegistry::new());
        let empty = auditor.audit(&[]);
        let claim = ContestedVerdict::Hidden {
            component: NodeId::new("cam"),
            direction: Direction::Out,
            topic: Topic::new("image"),
            seq: 1,
        };
        // An empty replay neither supports nor exonerates: absence of the
        // accusation is not proof of innocence.
        assert!(!claim.supported_by(&empty));
        assert!(!claim.exonerated_by(&empty));
    }
}
