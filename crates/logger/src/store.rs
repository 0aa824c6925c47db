//! Append-only, hash-chained log storage.
//!
//! The paper assumes a tamper-evident logging mechanism protects log
//! integrity (§II-A, citing hash-chain schemes). Each appended record
//! extends a chain `c_i = h(c_{i-1} ‖ record_i)`; any later modification of
//! a stored record is detected by [`LogStore::verify_chain`].

use crate::entry::LogEntry;
use crate::merkle::{ConsistencyProof, InclusionProof, MerkleTree};
use crate::LogError;
use adlp_crypto::sha256::{Digest, Sha256};
use parking_lot::RwLock;
use std::sync::Arc;

/// Evidence that the store was tampered with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TamperEvidence {
    /// Index of the first record whose chain value does not verify.
    pub first_bad_index: usize,
}

impl std::fmt::Display for TamperEvidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "hash chain broken at record {}", self.first_bad_index)
    }
}

#[derive(Debug, Clone)]
struct Record {
    encoded: Vec<u8>,
    chain: Digest,
}

/// The genesis chain value (hash of a fixed tag).
fn genesis() -> Digest {
    adlp_crypto::sha256(b"adlp-log-store-genesis")
}

fn chain_step(prev: &Digest, encoded: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(prev.as_bytes());
    h.update(encoded);
    h.finalize()
}

/// Thread-safe append-only log store with a tamper-evident hash chain.
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

/// The records and, under the same lock, the Merkle state over a prefix of
/// them.
///
/// The Merkle state is extended **lazily**: appending hashes nothing beyond
/// the chain step, and whoever first asks for a root or proof at some size
/// hashes the records between the watermark (`digests.len()`) and that size
/// — each record once, ever. A store that never serves a head pays nothing.
#[derive(Debug, Default)]
struct Inner {
    records: Vec<Record>,
    /// `sha256(encoded)` of the first `digests.len()` records.
    digests: Vec<Digest>,
    /// Tree over `digests` (`tree.leaf_count() == digests.len()`).
    tree: MerkleTree,
}

impl Inner {
    fn head(&self) -> Digest {
        self.records.last().map_or_else(genesis, |r| r.chain)
    }

    /// Extends the Merkle state to cover the first `size` records (all of
    /// them when `size` exceeds the record count).
    fn catch_up(&mut self, size: usize) {
        let pending = self.records.iter().take(size).skip(self.digests.len());
        for record in pending {
            let digest = adlp_crypto::sha256(&record.encoded);
            self.tree.push(&digest);
            self.digests.push(digest);
        }
    }

    /// Drops the Merkle state from record `index` on.
    fn forget_from(&mut self, index: usize) {
        self.digests.truncate(index);
        self.tree.truncate(index);
    }
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
        let mut inner = self.inner.write();
        let chain = chain_step(&inner.head(), &encoded);
        inner.records.push(Record { encoded, chain });
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
            .map(|r| r.encoded.len() as u64)
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
        LogEntry::decode(&r.encoded)
    }

    /// Decodes every record (skipping undecodable ones is the caller's
    /// choice; corrupt records yield errors in place).
    pub fn entries(&self) -> Vec<Result<LogEntry, LogError>> {
        self.inner
            .read()
            .records
            .iter()
            .map(|r| LogEntry::decode(&r.encoded))
            .collect()
    }

    /// The chain head (commitment over the whole log so far).
    pub fn head(&self) -> Digest {
        self.inner.read().head()
    }

    /// Copies of the raw encoded records, in order (used by persistence).
    pub fn encoded_records(&self) -> Vec<Vec<u8>> {
        self.inner
            .read()
            .records
            .iter()
            .map(|r| r.encoded.clone())
            .collect()
    }

    /// Runs `f` on the store with its Merkle state covering (at least) the
    /// first `size` records, everything under one lock acquisition. The
    /// write lock is only taken when there is catching up to do.
    fn with_merkle<R>(&self, size: usize, f: impl FnOnce(&Inner) -> R) -> R {
        {
            let inner = self.inner.read();
            if inner.digests.len() >= size.min(inner.records.len()) {
                return f(&inner);
            }
        }
        let mut inner = self.inner.write();
        inner.catch_up(size);
        f(&inner)
    }

    /// Hashes of each encoded record, in order (leaves for the Merkle
    /// commitment).
    pub fn record_hashes(&self) -> Vec<Digest> {
        self.with_merkle(usize::MAX, |inner| inner.digests.clone())
    }

    /// The record count and the Merkle root over exactly that many records
    /// (`None` for an empty store), read at one instant — what a signed
    /// tree head commits to.
    pub fn tree_head(&self) -> (usize, Option<Digest>) {
        self.with_merkle(usize::MAX, |inner| (inner.records.len(), inner.tree.root()))
    }

    /// The Merkle root over every stored record (`None` for an empty
    /// store).
    pub fn merkle_root(&self) -> Option<Digest> {
        self.tree_head().1
    }

    /// The Merkle root over the first `size` records. `None` for size 0 or
    /// a size the store has not reached.
    pub fn root_at(&self, size: usize) -> Option<Digest> {
        self.with_merkle(size, |inner| inner.tree.root_at(size))
    }

    /// The hash of record `index` and its inclusion proof under the root of
    /// the first `size` records. `None` when `index >= size` or the store
    /// has not reached `size`.
    pub fn prove_at(&self, index: usize, size: usize) -> Option<(Digest, InclusionProof)> {
        self.with_merkle(size, |inner| {
            let proof = inner.tree.prove_at(index, size)?;
            Some((*inner.digests.get(index)?, proof))
        })
    }

    /// Consistency proof that the first `new_size` records extend the first
    /// `old_size`. `None` when `old_size` is 0 or exceeds `new_size`, or
    /// the store has not reached `new_size`.
    pub fn prove_consistency_at(
        &self,
        old_size: usize,
        new_size: usize,
    ) -> Option<ConsistencyProof> {
        self.with_merkle(new_size, |inner| {
            inner.tree.prove_consistency_at(old_size, new_size)
        })
    }

    /// Copies of the raw encoded records together with the Merkle root over
    /// exactly those records, read at one instant (a snapshot's content).
    pub(crate) fn encoded_records_and_root(&self) -> (Vec<Vec<u8>>, Option<Digest>) {
        self.with_merkle(usize::MAX, |inner| {
            let records = inner.records.iter().map(|r| r.encoded.clone()).collect();
            (records, inner.tree.root())
        })
    }

    /// Recomputes the whole chain and checks every stored chain value.
    ///
    /// # Errors
    ///
    /// Returns the index of the first mismatching record.
    pub fn verify_chain(&self) -> Result<(), TamperEvidence> {
        let inner = self.inner.read();
        let mut prev = genesis();
        for (i, r) in inner.records.iter().enumerate() {
            let expect = chain_step(&prev, &r.encoded);
            if expect != r.chain {
                return Err(TamperEvidence { first_bad_index: i });
            }
            prev = r.chain;
        }
        Ok(())
    }

    /// Truncates the store back to `len` records, undoing later appends.
    /// Chain values of the surviving prefix are untouched (they were never
    /// a function of the removed suffix). Used by cluster catch-up to back
    /// out an adoption that raced a concurrent deposit — never by the
    /// normal append path, which stays append-only.
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
        inner.forget_from(len);
        Ok(())
    }

    /// Test/forensics helper: overwrite the raw bytes of a record *without*
    /// updating the chain, simulating an attacker with storage access.
    #[doc(hidden)]
    pub fn tamper_with_record(&self, index: usize, new_bytes: Vec<u8>) -> Result<(), LogError> {
        let mut inner = self.inner.write();
        let r = inner
            .records
            .get_mut(index)
            .ok_or(LogError::NoSuchEntry(index))?;
        r.encoded = new_bytes;
        // Roots and proofs keep describing the bytes actually stored.
        inner.forget_from(index);
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
    fn chain_verifies_when_untouched() {
        let store = LogStore::new();
        for i in 0..50 {
            store.append(&entry(i));
        }
        assert!(store.verify_chain().is_ok());
    }

    #[test]
    fn tampering_any_record_is_detected() {
        for victim in [0usize, 5, 19] {
            let store = LogStore::new();
            for i in 0..20 {
                store.append(&entry(i));
            }
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
    fn head_changes_with_every_append() {
        let store = LogStore::new();
        let h0 = store.head();
        store.append(&entry(1));
        let h1 = store.head();
        store.append(&entry(2));
        let h2 = store.head();
        assert_ne!(h0, h1);
        assert_ne!(h1, h2);
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
    fn identical_entries_get_distinct_chain_values() {
        let store = LogStore::new();
        let e = entry(1);
        store.append(&e);
        store.append(&e);
        let records = store.record_hashes();
        assert_eq!(records[0], records[1]); // same content hash
        assert!(store.verify_chain().is_ok()); // but chain still advances
    }
}
