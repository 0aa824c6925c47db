//! Post-recovery verification: is a recovered log an honest prefix of
//! what was acknowledged before the crash?
//!
//! The durability layer (`adlp_logger::DurableLog`) promises that every
//! entry it acknowledged as durable survives a crash, and that a torn tail
//! is truncated and *reported*, never silently absorbed. This module gives
//! the auditor the other half of that contract: a [`RetainedCommitment`] —
//! the record hashes and Merkle root an operator retains out-of-band while
//! the system runs — and [`verify_recovered_store`], which classifies what
//! a restarted logger actually holds against it:
//!
//! * [`RecoveryVerdict::Intact`] — the committed records are all present,
//!   hash-for-hash (possibly with entries appended after the commitment);
//! * [`RecoveryVerdict::TruncatedTail`] — the recovered log is a *proper
//!   prefix* of the commitment: crash loss at the tail, quantified, exactly
//!   the degradation the recovery counters report;
//! * [`RecoveryVerdict::RootMismatch`] — the recovered content conflicts
//!   with the commitment at some index. Crash recovery cannot produce a
//!   conflict (it only ever loses a suffix), so this is tamper evidence,
//!   not crash debris — and it names the first rewritten record.
//!
//! A bare `(length, root)` pair could not distinguish honest tail loss
//! from a rewritten-then-recommitted log, so the commitment retains the
//! leaf hashes themselves (32 bytes per record — what the store itself
//! keeps) and anchors them under one root for cross-checking against epoch
//! seals.
//!
//! The recovered store's records are checked against the digests it
//! committed to on append independently ([`RecoveryCheck::chain_ok`]): a
//! torn tail never breaks that, so a record that no longer matches its
//! commitment is always evidence, whatever the prefix verdict says. An
//! in-place rewrite shows only there — the commitment (and so the prefix
//! verdict) still describes what was acknowledged.

use adlp_crypto::sha256::Digest;
use adlp_logger::LogStore;

/// A commitment over a log prefix — its record hashes and their Merkle
/// root — retained out-of-band (e.g. alongside an epoch seal) while the
/// logger runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainedCommitment {
    /// Hash of every committed record, in log order.
    pub leaves: Vec<Digest>,
    /// Merkle root over `leaves` (`None` iff the commitment is empty);
    /// the compact value to anchor or publish.
    pub root: Option<Digest>,
}

impl RetainedCommitment {
    /// Commits to the store's current contents.
    pub fn of_store(store: &LogStore) -> Self {
        let leaves = store.record_hashes();
        // The root over exactly the leaves copied, even if the store has
        // grown since.
        let root = store.root_at(leaves.len());
        RetainedCommitment { leaves, root }
    }

    /// Records the commitment covers.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the commitment covers no records.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }
}

/// How a recovered log relates to a retained commitment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryVerdict {
    /// Every committed record is present; `extra` records follow them.
    Intact {
        /// Records appended after the commitment was taken.
        extra: usize,
    },
    /// The recovered log is a proper prefix of the commitment — tail loss
    /// from the crash, `missing` records short. Availability damage only;
    /// cross-check `missing` against the recovery's truncation counters.
    TruncatedTail {
        /// Committed records absent from the recovered log.
        missing: usize,
    },
    /// The recovered content conflicts with the commitment. Crash recovery
    /// only ever loses a suffix, so a conflict is tamper evidence.
    RootMismatch {
        /// First index whose record hash disagrees with the commitment.
        first_divergent_index: usize,
    },
}

/// The full post-recovery check: prefix verdict plus chain integrity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryCheck {
    /// Relation of the recovered log to the retained commitment.
    pub verdict: RecoveryVerdict,
    /// Whether every recovered record still hashes to the digest its store
    /// committed on append ([`LogStore::verify_chain`]). Torn tails never
    /// break this, so `false` is independent evidence.
    pub chain_ok: bool,
}

impl RecoveryCheck {
    /// Whether recovery is fully explained: committed records intact and
    /// every record matching its commitment.
    pub fn clean(&self) -> bool {
        self.chain_ok && matches!(self.verdict, RecoveryVerdict::Intact { .. })
    }
}

/// Classifies a recovered store against a commitment retained before the
/// crash. Never panics, whatever the store holds.
pub fn verify_recovered_store(store: &LogStore, retained: &RetainedCommitment) -> RecoveryCheck {
    let leaves = store.record_hashes();
    let chain_ok = store.verify_chain().is_ok();
    let common = leaves
        .iter()
        .zip(retained.leaves.iter())
        .take_while(|(a, b)| a == b)
        .count();
    let verdict = if common < leaves.len().min(retained.len()) {
        RecoveryVerdict::RootMismatch {
            first_divergent_index: common,
        }
    } else if leaves.len() < retained.len() {
        RecoveryVerdict::TruncatedTail {
            missing: retained.len() - leaves.len(),
        }
    } else {
        RecoveryVerdict::Intact {
            extra: leaves.len() - retained.len(),
        }
    };
    RecoveryCheck { verdict, chain_ok }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_logger::{Direction, LogEntry};
    use adlp_pubsub::{NodeId, Topic};

    fn entry(seq: u64) -> LogEntry {
        LogEntry::naive(
            NodeId::new("cam"),
            Topic::new("image"),
            Direction::Out,
            seq,
            seq,
            vec![seq as u8; 24],
        )
    }

    fn store_with(n: u64) -> LogStore {
        let store = LogStore::new();
        for i in 0..n {
            store.append(&entry(i));
        }
        store
    }

    #[test]
    fn intact_store_verifies() {
        let store = store_with(6);
        let retained = RetainedCommitment::of_store(&store);
        assert_eq!(retained.len(), 6);
        assert!(retained.root.is_some());
        let check = verify_recovered_store(&store, &retained);
        assert!(check.clean());
        assert_eq!(check.verdict, RecoveryVerdict::Intact { extra: 0 });
    }

    #[test]
    fn appended_entries_after_commitment_are_extra() {
        let store = store_with(4);
        let retained = RetainedCommitment::of_store(&store);
        store.append(&entry(4));
        store.append(&entry(5));
        let check = verify_recovered_store(&store, &retained);
        assert!(check.clean());
        assert_eq!(check.verdict, RecoveryVerdict::Intact { extra: 2 });
    }

    #[test]
    fn tail_loss_is_truncation_not_mismatch() {
        let full = store_with(8);
        let retained = RetainedCommitment::of_store(&full);
        // A crash recovered only the first 5 records.
        let recovered = LogStore::new();
        for rec in full.encoded_records().iter().take(5) {
            recovered.append_encoded(rec.clone());
        }
        let check = verify_recovered_store(&recovered, &retained);
        assert!(check.chain_ok);
        assert_eq!(check.verdict, RecoveryVerdict::TruncatedTail { missing: 3 });
        assert!(!check.clean());
    }

    #[test]
    fn in_place_rewrite_keeps_the_commitment_and_breaks_the_records() {
        let store = store_with(6);
        let retained = RetainedCommitment::of_store(&store);
        store.tamper_with_record(2, entry(99).encode()).unwrap();
        let check = verify_recovered_store(&store, &retained);
        // The store's commitment still describes what was acknowledged …
        assert_eq!(check.verdict, RecoveryVerdict::Intact { extra: 0 });
        // … and the rewritten bytes no longer match it.
        assert!(!check.chain_ok, "in-place rewrite must not verify");
        assert!(!check.clean());
    }

    #[test]
    fn rewritten_then_truncated_log_is_mismatch_not_truncation() {
        // An attacker rewrites record 1 and re-commits a consistent log of
        // length 3. A bare (len, root) check would see "some shorter log"
        // and might call it truncation; leaf-level comparison names the
        // rewrite.
        let full = store_with(8);
        let retained = RetainedCommitment::of_store(&full);
        let forged = LogStore::new();
        let records = full.encoded_records();
        forged.append_encoded(records[0].clone());
        forged.append(&entry(77)); // re-committed rewrite of record 1
        forged.append_encoded(records[2].clone());
        let check = verify_recovered_store(&forged, &retained);
        assert!(matches!(
            check.verdict,
            RecoveryVerdict::RootMismatch {
                first_divergent_index: 1
            }
        ));
    }

    #[test]
    fn empty_recovery_of_empty_commitment_is_intact() {
        let store = LogStore::new();
        let retained = RetainedCommitment::of_store(&store);
        assert!(retained.is_empty());
        let check = verify_recovered_store(&store, &retained);
        assert!(check.clean());
    }

    #[test]
    fn empty_recovery_of_nonempty_commitment_is_full_truncation() {
        let full = store_with(3);
        let retained = RetainedCommitment::of_store(&full);
        let empty = LogStore::new();
        let check = verify_recovered_store(&empty, &retained);
        assert_eq!(check.verdict, RecoveryVerdict::TruncatedTail { missing: 3 });
    }
}
