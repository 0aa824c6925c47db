//! Append-only, tamper-evident log storage.
//!
//! The paper assumes a tamper-evident logging mechanism protects log
//! integrity (§II-A). The store keeps **one** commitment over its records:
//! each record's leaf digest `sha256(encoded)` and the RFC 6962 Merkle tree
//! over those digests, extended together on append — the only place a
//! record is hashed. The tree answers the root, inclusion and consistency
//! proofs of any earlier size ([`LogStore::root_at`],
//! [`LogStore::prove_at`], [`LogStore::prove_consistency_at`]); the head of
//! the log is `(size, root)` ([`LogStore::tree_head`], DESIGN §3.12). A
//! record rewritten in storage no longer hashes to its committed digest,
//! which [`LogStore::verify_chain`] reports by index.

use crate::entry::LogEntry;
use crate::merkle::{ConsistencyProof, InclusionProof, MerkleTree};
use crate::LogError;
use adlp_crypto::sha256::Digest;
use parking_lot::RwLock;
use std::sync::Arc;

/// Evidence that the store was tampered with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TamperEvidence {
    /// Index of the first record whose bytes do not hash to its committed
    /// digest.
    pub first_bad_index: usize,
}

impl std::fmt::Display for TamperEvidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "record {} does not match its committed digest",
            self.first_bad_index
        )
    }
}

/// Thread-safe append-only log store with a tamper-evident Merkle
/// commitment.
///
/// # Example
///
/// ```
/// use adlp_logger::{LogStore, LogEntry, Direction};
/// use adlp_pubsub::{NodeId, Topic};
///
/// let store = LogStore::new();
/// store.append(&LogEntry::naive(
///     NodeId::new("camera"), Topic::new("image"),
///     Direction::Out, 1, 1000, vec![0u8; 16],
/// ));
/// assert_eq!(store.len(), 1);
/// assert!(store.verify_chain().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogStore {
    inner: Arc<RwLock<Inner>>,
}

/// The records and, under the same lock, their commitment: always exactly
/// one digest and one tree leaf per record.
#[derive(Debug, Default)]
struct Inner {
    records: Vec<Vec<u8>>,
    /// `sha256(encoded)` of each record as appended.
    digests: Vec<Digest>,
    /// Tree over `digests`.
    tree: MerkleTree,
}

impl LogStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry; returns its index.
    pub fn append(&self, entry: &LogEntry) -> usize {
        self.append_encoded(entry.encode())
    }

    /// Appends an already-encoded entry; returns its index.
    pub fn append_encoded(&self, encoded: Vec<u8>) -> usize {
        let digest = adlp_crypto::sha256(&encoded);
        let mut inner = self.inner.write();
        inner.tree.push(&digest);
        inner.digests.push(digest);
        inner.records.push(encoded);
        inner.records.len() - 1
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.inner.read().records.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().records.is_empty()
    }

    /// Total stored bytes (sum of encoded entry lengths) — the quantity the
    /// paper's log-generation-rate experiments track.
    pub fn total_bytes(&self) -> u64 {
        self.inner
            .read()
            .records
            .iter()
            .map(|r| r.len() as u64)
            .sum()
    }

    /// Decodes the record at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::NoSuchEntry`] for a bad index or
    /// [`LogError::Malformed`] if the stored bytes are corrupt.
    pub fn entry(&self, index: usize) -> Result<LogEntry, LogError> {
        let inner = self.inner.read();
        let r = inner
            .records
            .get(index)
            .ok_or(LogError::NoSuchEntry(index))?;
        LogEntry::decode(r)
    }

    /// Decodes every record (skipping undecodable ones is the caller's
    /// choice; corrupt records yield errors in place).
    pub fn entries(&self) -> Vec<Result<LogEntry, LogError>> {
        self.inner
            .read()
            .records
            .iter()
            .map(|r| LogEntry::decode(r))
            .collect()
    }

    /// Copies of the raw encoded records, in order (used by persistence).
    pub fn encoded_records(&self) -> Vec<Vec<u8>> {
        self.inner.read().records.clone()
    }

    /// Hashes of each encoded record, in order (leaves for the Merkle
    /// commitment).
    pub fn record_hashes(&self) -> Vec<Digest> {
        self.inner.read().digests.clone()
    }

    /// The head of the log: the record count and the Merkle root over
    /// exactly that many records (`None` for an empty store), read at one
    /// instant — what a signed tree head or a replica attestation commits
    /// to.
    pub fn tree_head(&self) -> (usize, Option<Digest>) {
        let inner = self.inner.read();
        (inner.records.len(), inner.tree.root())
    }

    /// The Merkle root over the first `size` records. `None` for size 0 or
    /// a size the store has not reached.
    pub fn root_at(&self, size: usize) -> Option<Digest> {
        self.inner.read().tree.root_at(size)
    }

    /// The hash of record `index` and its inclusion proof under the root of
    /// the first `size` records. `None` when `index >= size` or the store
    /// has not reached `size`.
    pub fn prove_at(&self, index: usize, size: usize) -> Option<(Digest, InclusionProof)> {
        let inner = self.inner.read();
        let proof = inner.tree.prove_at(index, size)?;
        Some((*inner.digests.get(index)?, proof))
    }

    /// Consistency proof that the first `new_size` records extend the first
    /// `old_size`. `None` when `old_size` is 0 or exceeds `new_size`, or
    /// the store has not reached `new_size`.
    pub fn prove_consistency_at(
        &self,
        old_size: usize,
        new_size: usize,
    ) -> Option<ConsistencyProof> {
        self.inner
            .read()
            .tree
            .prove_consistency_at(old_size, new_size)
    }

    /// Copies of the raw encoded records together with the Merkle root over
    /// exactly those records, read at one instant (a snapshot's content, a
    /// replica's contribution to its shard view).
    pub fn encoded_records_and_root(&self) -> (Vec<Vec<u8>>, Option<Digest>) {
        let inner = self.inner.read();
        (inner.records.clone(), inner.tree.root())
    }

    /// Re-hashes every record and compares it with the digest committed
    /// when it was appended.
    ///
    /// # Errors
    ///
    /// Returns the index of the first mismatching record.
    pub fn verify_chain(&self) -> Result<(), TamperEvidence> {
        let inner = self.inner.read();
        match inner
            .records
            .iter()
            .zip(&inner.digests)
            .position(|(record, digest)| adlp_crypto::sha256(record) != *digest)
        {
            Some(first_bad_index) => Err(TamperEvidence { first_bad_index }),
            None => Ok(()),
        }
    }

    /// Truncates the store back to `len` records, undoing later appends;
    /// records, digests and tree shrink together. Used by cluster catch-up
    /// to back out an adoption that raced a concurrent deposit — never by
    /// the normal append path, which stays append-only.
    ///
    /// This truncates the **in-memory** store only. A durable server must
    /// roll back via [`crate::LoggerHandle::rollback_to`], which also
    /// rewrites the persisted snapshot and resets the WAL — otherwise the
    /// device still holds the rolled-back suffix and a recovery (or even a
    /// crash-free retry's WAL replay) resurrects it.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::NoSuchEntry`] when `len` exceeds the current
    /// record count (rollback can only shrink).
    pub fn rollback_to(&self, len: usize) -> Result<(), LogError> {
        let mut inner = self.inner.write();
        if len > inner.records.len() {
            return Err(LogError::NoSuchEntry(len));
        }
        inner.records.truncate(len);
        inner.digests.truncate(len);
        inner.tree.truncate(len);
        Ok(())
    }

    /// Test/forensics helper: overwrite the raw bytes of a record *without*
    /// touching its committed digest or the tree, simulating an attacker
    /// with storage access. Roots and proofs keep describing what was
    /// acknowledged; [`LogStore::verify_chain`] names the rewritten index.
    #[doc(hidden)]
    pub fn tamper_with_record(&self, index: usize, new_bytes: Vec<u8>) -> Result<(), LogError> {
        let mut inner = self.inner.write();
        let r = inner
            .records
            .get_mut(index)
            .ok_or(LogError::NoSuchEntry(index))?;
        *r = new_bytes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Direction;
    use adlp_pubsub::{NodeId, Topic};

    fn entry(seq: u64) -> LogEntry {
        LogEntry::naive(
            NodeId::new("n"),
            Topic::new("t"),
            Direction::Out,
            seq,
            seq * 10,
            vec![seq as u8; 8],
        )
    }

    #[test]
    fn append_and_read_back() {
        let store = LogStore::new();
        for i in 0..10 {
            assert_eq!(store.append(&entry(i)), i as usize);
        }
        assert_eq!(store.len(), 10);
        assert_eq!(store.entry(3).unwrap().seq, 3);
        assert!(matches!(store.entry(99), Err(LogError::NoSuchEntry(99))));
    }

    #[test]
    fn tampering_any_record_is_detected() {
        for victim in [0usize, 5, 19] {
            let store = LogStore::new();
            for i in 0..20 {
                store.append(&entry(i));
            }
            assert!(store.verify_chain().is_ok());
            let mut bytes = entry(victim as u64).encode();
            // Flip one payload byte.
            let n = bytes.len();
            bytes[n - 1] ^= 0xff;
            store.tamper_with_record(victim, bytes).unwrap();
            assert_eq!(
                store.verify_chain(),
                Err(TamperEvidence {
                    first_bad_index: victim
                })
            );
        }
    }

    #[test]
    fn tree_head_changes_with_every_append() {
        let store = LogStore::new();
        assert_eq!(store.tree_head(), (0, None));
        store.append(&entry(1));
        let (n1, r1) = store.tree_head();
        store.append(&entry(2));
        let (n2, r2) = store.tree_head();
        assert_eq!((n1, n2), (1, 2));
        assert_ne!(r1, r2);
        assert_eq!(store.root_at(1), r1, "an earlier head stays answerable");
    }

    #[test]
    fn total_bytes_accumulates_encoded_sizes() {
        let store = LogStore::new();
        let e = entry(1);
        let expect = e.encoded_len() as u64;
        store.append(&e);
        store.append(&e);
        assert_eq!(store.total_bytes(), 2 * expect);
    }

    #[test]
    fn identical_entries_get_distinct_roots() {
        let store = LogStore::new();
        let e = entry(1);
        store.append(&e);
        store.append(&e);
        let records = store.record_hashes();
        assert_eq!(records[0], records[1]); // same content hash
        assert_ne!(store.root_at(1), store.root_at(2)); // but the root advances
        assert!(store.verify_chain().is_ok());
    }
}
