//! Differential suite for the appendable Merkle tree and the Merkle state
//! inside `LogStore`: every root and proof served from cached
//! subtree nodes must be **byte-identical** to RFC 6962 §2.1 computed
//! straight from the leaves, at every size — signed tree heads, snapshot
//! roots and light-client proofs all hang off these bytes.

use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::sha256::{sha256, Digest, Sha256};
use adlp_crypto::{RsaKeyPair, Statement};
use adlp_logger::durable::{DurabilityConfig, DurableLog};
use adlp_logger::merkle::{ConsistencyProof, InclusionProof, MerkleTree};
use adlp_logger::sth::{empty_tree_root, SthPublisher, TreeHeadSigner};
use adlp_logger::{Direction, LogEntry, LogStore, MemStorage, Storage};
use adlp_pubsub::{NodeId, Topic};
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::mpsc::channel;
use std::sync::Arc;

/// The oracle: RFC 6962 §2.1's recursive definitions over a leaf slice,
/// nothing cached, written from the RFC rather than from `merkle.rs`.
mod oracle {
    use super::*;

    fn hash(prefix: u8, parts: &[&Digest]) -> Digest {
        let mut h = Sha256::new();
        h.update(&[prefix]);
        for part in parts {
            h.update(part.as_bytes());
        }
        h.finalize()
    }

    /// The largest power of two strictly below `n` (`n > 1`).
    fn split(n: usize) -> usize {
        n.next_power_of_two() / 2
    }

    /// `MTH(D[n])`.
    pub fn mth(leaves: &[Digest]) -> Digest {
        match leaves {
            [leaf] => hash(0x00, &[leaf]),
            _ => {
                let (left, right) = leaves.split_at(split(leaves.len()));
                hash(0x01, &[&mth(left), &mth(right)])
            }
        }
    }

    /// `PATH(m, D[n])`, leaf-side sibling first.
    pub fn path(m: usize, leaves: &[Digest]) -> Vec<Digest> {
        if leaves.len() == 1 {
            return Vec::new();
        }
        let k = split(leaves.len());
        let (left, right) = leaves.split_at(k);
        let (mut below, sibling) = if m < k {
            (path(m, left), mth(right))
        } else {
            (path(m - k, right), mth(left))
        };
        below.push(sibling);
        below
    }

    /// `PROOF(m, D[n])` = `SUBPROOF(m, D[n], true)`.
    pub fn consistency(m: usize, leaves: &[Digest]) -> Vec<Digest> {
        subproof(m, leaves, true)
    }

    fn subproof(m: usize, leaves: &[Digest], complete: bool) -> Vec<Digest> {
        if m == leaves.len() {
            return if complete {
                Vec::new()
            } else {
                vec![mth(leaves)]
            };
        }
        let k = split(leaves.len());
        let (left, right) = leaves.split_at(k);
        let (mut below, sibling) = if m <= k {
            (subproof(m, left, complete), mth(right))
        } else {
            (subproof(m - k, right, false), mth(left))
        };
        below.push(sibling);
        below
    }
}

const MAX: usize = 512;
/// Sizes up to which every (index, size) and (old, new) pair is checked.
const EXHAUSTIVE: usize = 64;

fn leaves(n: usize, tag: &str) -> Vec<Digest> {
    (0..n)
        .map(|i| sha256(format!("{tag}-{i}").as_bytes()))
        .collect()
}

/// Checks the tree's inclusion proof for `(index, size)` against the
/// oracle's and against the verifier.
fn check_inclusion(tree: &MerkleTree, all: &[Digest], index: usize, size: usize) {
    let expected = InclusionProof {
        leaf_index: index,
        siblings: oracle::path(index, &all[..size]),
    };
    let proof = tree.prove_at(index, size);
    assert_eq!(proof.as_ref(), Some(&expected), "index={index} size={size}");
    let root = oracle::mth(&all[..size]);
    assert!(
        MerkleTree::verify(&root, size, &all[index], &expected),
        "index={index} size={size}"
    );
}

/// Same for the consistency proof between sizes `old` and `new`.
fn check_consistency(tree: &MerkleTree, all: &[Digest], old: usize, new: usize) {
    let expected = ConsistencyProof {
        old_count: old,
        new_count: new,
        nodes: oracle::consistency(old, &all[..new]),
    };
    let proof = tree.prove_consistency_at(old, new);
    assert_eq!(proof.as_ref(), Some(&expected), "old={old} new={new}");
    assert!(
        MerkleTree::verify_consistency(
            &oracle::mth(&all[..old]),
            &oracle::mth(&all[..new]),
            &expected
        ),
        "old={old} new={new}"
    );
}

#[test]
fn every_historical_root_matches_the_oracle_as_the_tree_grows() {
    let all = leaves(MAX, "record");
    let roots: Vec<Digest> = (1..=MAX).map(|s| oracle::mth(&all[..s])).collect();
    let mut tree = MerkleTree::default();
    assert_eq!(tree.root(), None);
    for n in 1..=MAX {
        tree.push(&all[n - 1]);
        assert_eq!(tree.leaf_count(), n);
        assert_eq!(tree.root(), Some(roots[n - 1]), "n={n}");
        for s in 1..=n {
            assert_eq!(tree.root_at(s), Some(roots[s - 1]), "s={s} n={n}");
        }
        assert_eq!(tree.root_at(0), None);
        assert_eq!(tree.root_at(n + 1), None, "beyond the tree, n={n}");
    }
}

#[test]
fn every_proof_up_to_64_equals_the_oracles_and_verifies() {
    let all = leaves(MAX, "record");
    // Served from a tree that has long outgrown the size asked about…
    let grown = MerkleTree::build(&all);
    for size in 1..=EXHAUSTIVE {
        // …and from one that holds exactly that many leaves.
        let exact = MerkleTree::build(&all[..size]);
        for index in 0..size {
            check_inclusion(&grown, &all, index, size);
            assert_eq!(exact.prove(index), grown.prove_at(index, size));
        }
        for old in 1..=size {
            check_consistency(&grown, &all, old, size);
            check_consistency(&exact, &all, old, size);
        }
    }
}

#[test]
fn requests_the_tree_cannot_serve_return_none() {
    let all = leaves(20, "record");
    let tree = MerkleTree::build(&all);
    assert!(tree.prove_at(20, 20).is_none(), "index == size");
    assert!(tree.prove_at(0, 21).is_none(), "size beyond the tree");
    assert!(tree.prove_at(0, 0).is_none());
    assert!(tree.prove_consistency_at(0, 20).is_none(), "empty old tree");
    assert!(tree.prove_consistency_at(21, 20).is_none(), "shrinking");
    assert!(
        tree.prove_consistency_at(5, 21).is_none(),
        "new size beyond the tree"
    );
    let empty = MerkleTree::default();
    assert!(empty.prove(0).is_none());
    assert!(empty.prove_consistency_at(1, 1).is_none());
}

#[test]
fn truncate_then_divergent_pushes_equal_a_fresh_tree() {
    let original = leaves(300, "record");
    let fork = leaves(300, "fork");
    for keep in [0usize, 1, 2, 63, 64, 65, 128, 200, 299, 300] {
        let mut tree = MerkleTree::build(&original);
        tree.truncate(keep);
        assert_eq!(tree.leaf_count(), keep);
        assert_eq!(
            tree.root(),
            (keep > 0).then(|| oracle::mth(&original[..keep])),
            "keep={keep}"
        );
        let mut all = original[..keep].to_vec();
        all.extend_from_slice(&fork[keep..]);
        for leaf in &all[keep..] {
            tree.push(leaf);
        }
        for size in (1..=300).step_by(7).chain([keep.max(1), 300]) {
            assert_eq!(
                tree.root_at(size),
                Some(oracle::mth(&all[..size])),
                "keep={keep}"
            );
            check_inclusion(&tree, &all, size / 2, size);
            check_consistency(&tree, &all, size.div_ceil(3), size);
        }
    }
}

proptest! {
    #[test]
    fn sampled_proofs_above_64_equal_the_oracles(
        size in EXHAUSTIVE + 1..MAX + 1,
        index in 0usize..MAX,
        old in 0usize..MAX,
    ) {
        let all = leaves(MAX, "record");
        let tree = MerkleTree::build(&all);
        check_inclusion(&tree, &all, index % size, size);
        check_consistency(&tree, &all, 1 + old % size, size);
    }
}

// ---- the Merkle state inside `LogStore` ----

fn record(i: usize, tag: &str) -> Vec<u8> {
    format!("{tag}-record-{i}").into_bytes()
}

/// Leaves recomputed from the bytes the store actually holds.
fn stored_leaves(store: &LogStore) -> Vec<Digest> {
    store.encoded_records().iter().map(|r| sha256(r)).collect()
}

/// Everything the store serves at `size`, against the oracle over the bytes
/// it holds.
fn check_store_at(store: &LogStore, size: usize) {
    let all = stored_leaves(store);
    assert_eq!(
        store.root_at(size),
        Some(oracle::mth(&all[..size])),
        "size={size}"
    );
    for index in [0, size / 2, size - 1] {
        let (leaf, proof) = store.prove_at(index, size).expect("in range");
        assert_eq!(leaf, all[index]);
        assert_eq!(proof.siblings, oracle::path(index, &all[..size]));
    }
    for old in [1, size.div_ceil(2), size] {
        let proof = store.prove_consistency_at(old, size).expect("in range");
        assert_eq!(proof.nodes, oracle::consistency(old, &all[..size]));
    }
}

#[test]
fn store_serves_every_size_across_interleaved_appends() {
    let store = LogStore::new();
    assert_eq!(store.tree_head(), (0, None));
    let mut appended = 0;
    // Ask at sizes below, at and (after more appends) above the previous
    // question.
    for (grow_to, ask) in [(10, 7), (15, 14), (15, 3), (40, 40), (41, 41), (100, 64)] {
        while appended < grow_to {
            store.append_encoded(record(appended, "a"));
            appended += 1;
        }
        check_store_at(&store, ask);
        assert!(store.verify_chain().is_ok());
    }
    let all = stored_leaves(&store);
    assert_eq!(store.tree_head(), (100, Some(oracle::mth(&all))));
    assert_eq!(store.record_hashes(), all);
    check_store_at(&store, 100);
}

#[test]
fn store_refuses_sizes_it_has_not_reached() {
    let store = LogStore::new();
    for i in 0..9 {
        store.append_encoded(record(i, "a"));
    }
    assert!(store.root_at(0).is_none());
    assert!(store.root_at(10).is_none());
    assert!(store.prove_at(0, 10).is_none(), "size beyond len");
    assert!(store.prove_at(9, 9).is_none(), "index beyond size");
    assert!(
        store.prove_consistency_at(1, 10).is_none(),
        "new size beyond len"
    );
    assert!(store.prove_consistency_at(0, 9).is_none());
    assert!(store.prove_consistency_at(9, 8).is_none());
    // A refused request must not have poisoned what can be served.
    check_store_at(&store, 9);
}

#[test]
fn rollback_then_divergent_reappend_serves_the_new_history() {
    let store = LogStore::new();
    for i in 0..50 {
        store.append_encoded(record(i, "a"));
    }
    let before = store.root_at(30).expect("30 records");
    check_store_at(&store, 50);
    store.rollback_to(30).unwrap();
    assert_eq!(store.tree_head(), (30, Some(before)));
    assert!(store.root_at(31).is_none());
    for i in 30..60 {
        store.append_encoded(record(i, "b"));
    }
    assert_eq!(
        store.root_at(30),
        Some(before),
        "the surviving prefix is untouched"
    );
    for size in [31, 50, 60] {
        check_store_at(&store, size);
    }
    // Rolling back to above a size asked about earlier.
    let store = LogStore::new();
    for i in 0..20 {
        store.append_encoded(record(i, "a"));
    }
    check_store_at(&store, 5);
    store.rollback_to(12).unwrap();
    check_store_at(&store, 12);
}

#[test]
fn a_rewrite_anywhere_leaves_every_root_and_proof_and_is_named_by_index() {
    let store = LogStore::new();
    for i in 0..20 {
        store.append_encoded(record(i, "a"));
    }
    let honest = stored_leaves(&store);
    let roots = |store: &LogStore| (1..=20).map(|n| store.root_at(n)).collect::<Vec<_>>();
    let acknowledged = roots(&store);
    let root = oracle::mth(&honest);
    for victim in [15, 3] {
        store.tamper_with_record(victim, b"forged".to_vec()).unwrap();
        // The commitment keeps describing what was acknowledged …
        assert_eq!(roots(&store), acknowledged, "victim={victim}");
        assert_eq!(store.record_hashes(), honest);
        let (leaf, proof) = store.prove_at(victim, 20).expect("in range");
        assert_eq!(leaf, honest[victim]);
        assert!(MerkleTree::verify(&root, 20, &leaf, &proof));
        // … so the rewritten bytes fail an inclusion check against it,
        assert!(!MerkleTree::verify(&root, 20, &sha256(b"forged"), &proof));
        // and re-hashing the records names the first rewritten one.
        assert_eq!(store.verify_chain().unwrap_err().first_bad_index, victim);
    }
}

#[test]
fn durable_kill_and_reopen_gives_back_the_same_root() {
    let entry = |seq: u64| {
        LogEntry::naive(
            NodeId::new("cam"),
            Topic::new("image"),
            Direction::Out,
            seq,
            seq * 3,
            vec![seq as u8; 24],
        )
        .encode()
    };
    let mem = Arc::new(MemStorage::new());
    let config = DurabilityConfig::new(mem.clone() as Arc<dyn Storage>).rotate_every(16);
    let (mut log, store, _) = DurableLog::open(&config).unwrap();
    // 40 records: two rotations' worth in the snapshot, the rest in the WAL.
    for i in 0..40u64 {
        log.append(i, &entry(i)).unwrap();
        store.append_encoded(entry(i));
        log.maybe_rotate(&store);
    }
    let sealed_at_23 = store.root_at(23).expect("23 records");
    let head = store.tree_head();
    assert_eq!(head.1, Some(oracle::mth(&stored_leaves(&store))));
    drop(log);
    mem.crash();

    let (_log, recovered, recovery) = DurableLog::open(&config).unwrap();
    assert!(recovery.root_verified);
    assert_eq!(recovery.snapshot_records + recovery.wal_replayed, 40);
    assert_eq!(recovered.tree_head(), head);
    assert_eq!(recovered.root_at(23), Some(sealed_at_23));
    check_store_at(&recovered, 40);
}

#[test]
fn heads_sealed_while_another_thread_appends_commit_to_exactly_their_size() {
    const RECORDS: usize = 600;
    const CHUNK: usize = 25;
    let all: Vec<Digest> = (0..RECORDS).map(|i| sha256(&record(i, "a"))).collect();
    let key = RsaKeyPair::generate(512, &mut rand::rngs::StdRng::seed_from_u64(16));
    let signer = TreeHeadSigner::new(
        NodeId::new("log"),
        RsaPrivateKey::from_bytes(&key.private_key().to_bytes()).unwrap(),
    );
    let store = LogStore::new();
    let publisher = SthPublisher::new(signer, store.clone());
    // Every seal releases the appender's next chunk, so each `emit` runs
    // against a store that is being appended to.
    let (release, released) = channel::<()>();

    let heads = std::thread::scope(|scope| {
        let store = &store;
        scope.spawn(move || {
            let mut pending = 0..RECORDS;
            while released.recv().is_ok() {
                for i in pending.by_ref().take(CHUNK) {
                    store.append_encoded(record(i, "a"));
                }
            }
        });
        let mut heads = Vec::new();
        loop {
            let appender_gone = release.send(()).is_err();
            let head = publisher.emit().expect("signs");
            let done = head.size as usize == RECORDS;
            heads.push(head);
            if done || appender_gone {
                drop(release);
                return heads;
            }
        }
    });

    assert!(heads.len() >= RECORDS / CHUNK);
    assert_eq!(heads.last().map(|h| h.size), Some(RECORDS as u64));
    assert!(heads.windows(2).all(|w| w[0].size <= w[1].size));
    for head in &heads {
        let expected = match head.size as usize {
            0 => empty_tree_root(),
            size => oracle::mth(&all[..size]),
        };
        assert_eq!(head.root, expected, "head at size {}", head.size);
        assert!(head.verify(key.public_key()));
    }
}
