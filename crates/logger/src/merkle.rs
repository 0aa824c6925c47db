//! Merkle-tree commitments over the log.
//!
//! A third-party investigator (the paper's motivating NTSB example) can be
//! handed the Merkle root as a succinct commitment to the full log; any
//! individual entry can later be proven included with an
//! `O(log n)` [`InclusionProof`].
//!
//! The tree is **appendable**: [`MerkleTree::push`] extends it in O(1)
//! amortised hashes, and the root, inclusion proofs and consistency proofs
//! of *any* earlier size are answered from the cached nodes in O(log n)
//! (DESIGN.md §3.12, "proof cost").

use adlp_crypto::sha256::{Digest, Sha256};

/// Domain-separation prefixes guard against leaf/node confusion attacks.
const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

fn leaf_hash(data: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[LEAF_PREFIX]);
    h.update(data.as_bytes());
    h.finalize()
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[NODE_PREFIX]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

/// An appendable Merkle tree over record hashes (RFC 6962 §2.1 shape).
///
/// Only *complete* subtrees are cached, so nothing stored ever changes as
/// the tree grows: a tree of `n` leaves holds `n >> l` nodes at level `l`
/// (about `2n` digests in all). The ragged right edge of a tree of any size
/// `≤ n` is folded from at most one cached node per level when asked for.
#[derive(Debug, Clone, Default)]
pub struct MerkleTree {
    /// `levels[l][i]` = hash of the leaves `[i·2^l, (i+1)·2^l)`.
    levels: Vec<Vec<Digest>>,
}

/// A proof that a leaf is included under a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InclusionProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// Sibling hashes from leaf level to the root.
    pub siblings: Vec<Digest>,
}

impl MerkleTree {
    /// Builds a tree over `leaves` (record hashes from the store). An odd
    /// node at any level is promoted unchanged (Bitcoin-style duplication is
    /// avoided to keep proofs unambiguous).
    pub fn build(leaves: &[Digest]) -> Self {
        let mut tree = MerkleTree::default();
        for leaf in leaves {
            tree.push(leaf);
        }
        tree
    }

    /// Appends one record hash as the next leaf: one leaf hash, plus one
    /// node hash for every subtree the leaf completes (one on average).
    pub fn push(&mut self, record_hash: &Digest) {
        let mut node = leaf_hash(record_hash);
        for level in 0.. {
            if level == self.levels.len() {
                self.levels.push(Vec::new());
            }
            let Some(nodes) = self.levels.get_mut(level) else {
                return;
            };
            nodes.push(node);
            // Only a node landing on an odd index completes its parent.
            if !nodes.len().is_multiple_of(2) {
                return;
            }
            let [.., left, right] = nodes.as_slice() else {
                return;
            };
            node = node_hash(left, right);
        }
    }

    /// Forgets every leaf from `len` on. Cached nodes only ever cover
    /// leaves to their left, so the surviving prefix is untouched.
    pub fn truncate(&mut self, len: usize) {
        for (level, nodes) in self.levels.iter_mut().enumerate() {
            nodes.truncate(len.checked_shr(level as u32).unwrap_or(0));
        }
        self.levels.retain(|nodes| !nodes.is_empty());
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// The root commitment (`None` for an empty tree).
    pub fn root(&self) -> Option<Digest> {
        self.root_at(self.leaf_count())
    }

    /// The root the tree had when it held `size` leaves. `None` for size 0
    /// or a size the tree has not reached.
    pub fn root_at(&self, size: usize) -> Option<Digest> {
        self.span_hash(0, size)
    }

    /// Hash of the leaf range `[lo, hi)` (RFC 6962's `MTH`), where the
    /// range is a node of the tree: `lo` is a multiple of the range's width
    /// rounded up to a power of two. The range splits into one complete
    /// subtree per set bit of its width, widest first; they are folded from
    /// the right. `None` for an empty, misaligned or out-of-range request.
    fn span_hash(&self, lo: usize, hi: usize) -> Option<Digest> {
        let mut rest = hi.checked_sub(lo)?;
        let mut end = hi;
        let mut acc: Option<Digest> = None;
        while rest != 0 {
            let level = rest.trailing_zeros();
            let width = 1usize << level;
            if !end.is_multiple_of(width) {
                return None;
            }
            let node = self
                .levels
                .get(level as usize)?
                .get((end >> level).checked_sub(1)?)?;
            acc = Some(match acc {
                None => *node,
                Some(right) => node_hash(node, &right),
            });
            end -= width;
            rest -= width;
        }
        acc
    }

    /// Builds an inclusion proof for leaf `index`.
    ///
    /// Returns `None` when the index is out of range.
    pub fn prove(&self, index: usize) -> Option<InclusionProof> {
        self.prove_at(index, self.leaf_count())
    }

    /// Builds the inclusion proof leaf `index` had in the tree of `size`
    /// leaves. `None` when `index >= size` or the tree has not reached
    /// `size`.
    pub fn prove_at(&self, index: usize, size: usize) -> Option<InclusionProof> {
        if index >= size || size > self.leaf_count() {
            return None;
        }
        let mut siblings = Vec::new();
        let (mut idx, mut width, mut level) = (index, size, 0u32);
        while width > 1 {
            let sibling = idx ^ 1;
            if sibling < width {
                // A left sibling is always complete (one lookup); only the
                // last node of a level can be ragged, and past it the path
                // runs up the right edge, so a proof folds at most once.
                let lo = sibling << level;
                siblings.push(self.span_hash(lo, size.min(lo + (1 << level)))?);
            }
            idx /= 2;
            width = width.div_ceil(2);
            level += 1;
        }
        Some(InclusionProof {
            leaf_index: index,
            siblings,
        })
    }

    /// Verifies that `record_hash` at the proof's index is committed by
    /// `root`, for a tree of `leaf_count` leaves.
    pub fn verify(
        root: &Digest,
        leaf_count: usize,
        record_hash: &Digest,
        proof: &InclusionProof,
    ) -> bool {
        if proof.leaf_index >= leaf_count {
            return false;
        }
        let mut acc = leaf_hash(record_hash);
        let mut idx = proof.leaf_index;
        let mut width = leaf_count;
        let mut sibs = proof.siblings.iter();
        while width > 1 {
            let sibling_idx = idx ^ 1;
            if sibling_idx < width {
                let Some(s) = sibs.next() else { return false };
                acc = if idx.is_multiple_of(2) {
                    node_hash(&acc, s)
                } else {
                    node_hash(s, &acc)
                };
            }
            idx /= 2;
            width = width.div_ceil(2);
        }
        sibs.next().is_none() && acc == *root
    }
}

/// A consistency proof (RFC 6962 §2.1.2): evidence that the log of
/// `old_count` leaves is a prefix of the log of `new_count` leaves — i.e.
/// the logger only ever *appended*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyProof {
    /// Old tree size the proof speaks about.
    pub old_count: usize,
    /// New tree size.
    pub new_count: usize,
    /// Proof nodes, oldest-subtree first.
    pub nodes: Vec<Digest>,
}

impl MerkleTree {
    /// Builds the consistency proof between the tree of `old_count` leaves
    /// and the tree of `new_count` leaves (RFC 6962's `SUBPROOF`, walked
    /// down instead of recursed). Returns `None` when `old_count` is 0,
    /// exceeds `new_count`, or the tree has not reached `new_count`.
    pub fn prove_consistency_at(
        &self,
        old_count: usize,
        new_count: usize,
    ) -> Option<ConsistencyProof> {
        if old_count == 0 || old_count > new_count || new_count > self.leaf_count() {
            return None;
        }
        // Descend towards the old tree's right edge; the sibling passed at
        // each step is emitted on the way back up, so collect and reverse.
        let (mut lo, mut hi, mut m, mut complete) = (0, new_count, old_count, true);
        let mut nodes = Vec::new();
        while m != hi - lo {
            let k = largest_power_of_two_below(hi - lo);
            if m <= k {
                nodes.push(self.span_hash(lo + k, hi)?);
                hi = lo + k;
            } else {
                nodes.push(self.span_hash(lo, lo + k)?);
                lo += k;
                m -= k;
                complete = false;
            }
        }
        if !complete {
            nodes.push(self.span_hash(lo, hi)?);
        }
        nodes.reverse();
        Some(ConsistencyProof {
            old_count,
            new_count,
            nodes,
        })
    }

    /// Verifies a consistency proof against the two roots (RFC 6962
    /// §2.1.4).
    pub fn verify_consistency(
        old_root: &Digest,
        new_root: &Digest,
        proof: &ConsistencyProof,
    ) -> bool {
        let m = proof.old_count;
        let n = proof.new_count;
        if m == 0 || m > n {
            return false;
        }
        if m == n {
            return proof.nodes.is_empty() && old_root == new_root;
        }
        // Walk up from the split position, reconstructing both roots.
        let mut node = m - 1;
        let mut last = n - 1;
        while node % 2 == 1 {
            node /= 2;
            last /= 2;
        }
        let mut iter = proof.nodes.iter();
        let (mut old_hash, mut new_hash) = if node != 0 {
            let Some(first) = iter.next() else {
                return false;
            };
            (*first, *first)
        } else {
            // The old tree is a left-aligned perfect subtree: its root is
            // the anchor.
            (*old_root, *old_root)
        };
        let mut node_idx = node;
        let mut last_idx = last;
        for sibling in iter {
            if last_idx == 0 {
                return false; // proof longer than the path
            }
            if node_idx % 2 == 1 || node_idx == last_idx {
                old_hash = node_hash(sibling, &old_hash);
                new_hash = node_hash(sibling, &new_hash);
                while node_idx.is_multiple_of(2) && node_idx != 0 {
                    node_idx /= 2;
                    last_idx /= 2;
                }
            } else {
                new_hash = node_hash(&new_hash, sibling);
            }
            node_idx /= 2;
            last_idx /= 2;
        }
        old_hash == *old_root && new_hash == *new_root && last_idx == 0
    }
}

fn largest_power_of_two_below(n: usize) -> usize {
    debug_assert!(n > 1);
    let mut k = 1;
    while k * 2 < n {
        k *= 2;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto::sha256;

    /// The oracle: RFC 6962's recursive definitions, computed straight from
    /// the leaves with nothing cached.
    impl MerkleTree {
        /// `MTH` of the leaf range `[lo, hi)`, largest-power-of-two split.
        fn range_hash(leaves: &[Digest], lo: usize, hi: usize) -> Digest {
            if hi - lo == 1 {
                return leaf_hash(&leaves[lo]);
            }
            let k = largest_power_of_two_below(hi - lo);
            node_hash(
                &Self::range_hash(leaves, lo, lo + k),
                &Self::range_hash(leaves, lo + k, hi),
            )
        }

        /// Consistency proof between the first `old_count` leaves and the
        /// full set.
        fn prove_consistency(leaves: &[Digest], old_count: usize) -> Option<ConsistencyProof> {
            if old_count == 0 || old_count > leaves.len() {
                return None;
            }
            let mut nodes = Vec::new();
            subproof(leaves, 0, leaves.len(), old_count, true, &mut nodes);
            Some(ConsistencyProof {
                old_count,
                new_count: leaves.len(),
                nodes,
            })
        }
    }

    /// RFC 6962 SUBPROOF over the range `[lo, hi)`.
    fn subproof(
        leaves: &[Digest],
        lo: usize,
        hi: usize,
        m: usize,
        complete: bool,
        out: &mut Vec<Digest>,
    ) {
        let n = hi - lo;
        if m == n {
            if !complete {
                out.push(MerkleTree::range_hash(leaves, lo, hi));
            }
            return;
        }
        let k = largest_power_of_two_below(n);
        if m <= k {
            subproof(leaves, lo, lo + k, m, complete, out);
            out.push(MerkleTree::range_hash(leaves, lo + k, hi));
        } else {
            subproof(leaves, lo + k, hi, m - k, false, out);
            out.push(MerkleTree::range_hash(leaves, lo, lo + k));
        }
    }

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n)
            .map(|i| sha256(format!("record-{i}").as_bytes()))
            .collect()
    }

    #[test]
    fn empty_tree_has_no_root() {
        let t = MerkleTree::build(&[]);
        assert_eq!(t.root(), None);
        assert_eq!(t.leaf_count(), 0);
        assert!(t.prove(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let l = leaves(1);
        let t = MerkleTree::build(&l);
        assert_eq!(t.root(), Some(leaf_hash(&l[0])));
        let proof = t.prove(0).unwrap();
        assert!(proof.siblings.is_empty());
        assert!(MerkleTree::verify(&t.root().unwrap(), 1, &l[0], &proof));
    }

    #[test]
    fn all_proofs_verify_for_many_sizes() {
        for n in [2usize, 3, 4, 5, 7, 8, 9, 16, 31, 33] {
            let l = leaves(n);
            let t = MerkleTree::build(&l);
            let root = t.root().unwrap();
            for (i, leaf) in l.iter().enumerate() {
                let proof = t.prove(i).unwrap();
                assert!(MerkleTree::verify(&root, n, leaf, &proof), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_fails() {
        let l = leaves(8);
        let t = MerkleTree::build(&l);
        let root = t.root().unwrap();
        let proof = t.prove(3).unwrap();
        assert!(!MerkleTree::verify(&root, 8, &l[4], &proof));
        assert!(!MerkleTree::verify(&root, 8, &sha256(b"fake"), &proof));
    }

    #[test]
    fn wrong_index_or_tampered_siblings_fail() {
        let l = leaves(8);
        let t = MerkleTree::build(&l);
        let root = t.root().unwrap();
        let mut proof = t.prove(3).unwrap();
        proof.leaf_index = 2;
        assert!(!MerkleTree::verify(&root, 8, &l[3], &proof));
        let mut proof = t.prove(3).unwrap();
        proof.siblings[0] = sha256(b"evil");
        assert!(!MerkleTree::verify(&root, 8, &l[3], &proof));
        let mut proof = t.prove(3).unwrap();
        proof.siblings.push(sha256(b"extra"));
        assert!(!MerkleTree::verify(&root, 8, &l[3], &proof));
    }

    #[test]
    fn truncated_or_padded_proof_fails_for_every_size() {
        // A verifier that stops early on a short path (or ignores surplus
        // nodes) would accept forged proofs; sweep the corruption over
        // power-of-two and ragged tree sizes alike.
        for n in [2usize, 3, 5, 8, 9, 16, 31] {
            let l = leaves(n);
            let t = MerkleTree::build(&l);
            let root = t.root().unwrap();
            for (i, leaf) in l.iter().enumerate() {
                let good = t.prove(i).unwrap();
                assert!(MerkleTree::verify(&root, n, leaf, &good), "n={n} i={i}");

                let mut truncated = good.clone();
                if truncated.siblings.pop().is_some() {
                    assert!(
                        !MerkleTree::verify(&root, n, leaf, &truncated),
                        "truncated path accepted: n={n} i={i}"
                    );
                }

                let mut padded = good.clone();
                padded.siblings.push(sha256(b"surplus"));
                assert!(
                    !MerkleTree::verify(&root, n, leaf, &padded),
                    "padded path accepted: n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn proof_shape_bound_to_claimed_tree_size() {
        // `leaf_count` dictates the fold shape: any claimed size whose
        // audit path for index 3 has a different length than size 8's must
        // be rejected. (Shape-coincident sizes — e.g. 7, where leaf 3's
        // path is identical — fold to the same root; binding the *exact*
        // size is the signed tree head's job, which covers `size` under
        // the logger's signature.)
        let l = leaves(8);
        let t = MerkleTree::build(&l);
        let root = t.root().unwrap();
        let proof = t.prove(3).unwrap();
        for wrong_n in [0usize, 1, 2, 3, 9, 16, 33] {
            assert!(
                !MerkleTree::verify(&root, wrong_n, &l[3], &proof),
                "size {wrong_n} accepted a size-8 proof"
            );
        }
    }

    #[test]
    fn proof_from_one_tree_rejected_by_another() {
        // Reusing a valid proof from a sibling log (same index, same leaf
        // preimage position, different history) must not transplant.
        let a = leaves(8);
        let mut b = a.clone();
        b[6] = sha256(b"divergent-history");
        let ta = MerkleTree::build(&a);
        let tb = MerkleTree::build(&b);
        let proof_a = ta.prove(2).unwrap();
        // Valid at home…
        assert!(MerkleTree::verify(&ta.root().unwrap(), 8, &a[2], &proof_a));
        // …rejected against the other tree's root, even though leaf 2 is
        // identical in both logs.
        assert!(!MerkleTree::verify(&tb.root().unwrap(), 8, &b[2], &proof_a));
    }

    #[test]
    fn sibling_order_swap_fails() {
        // Swapping two path nodes preserves the multiset of hashes but not
        // the root; a verifier folding in the wrong order would miss this.
        let l = leaves(16);
        let t = MerkleTree::build(&l);
        let root = t.root().unwrap();
        let mut proof = t.prove(5).unwrap();
        assert!(proof.siblings.len() >= 2);
        proof.siblings.swap(0, 1);
        assert!(!MerkleTree::verify(&root, 16, &l[5], &proof));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let l = leaves(9);
        let base = MerkleTree::build(&l).root().unwrap();
        for i in 0..9 {
            let mut l2 = l.clone();
            l2[i] = sha256(b"mutant");
            assert_ne!(MerkleTree::build(&l2).root().unwrap(), base, "leaf {i}");
        }
    }

    #[test]
    fn pairwise_build_equals_rfc_range_hash() {
        // The level-by-level pairing construction must coincide with RFC
        // 6962's largest-power-of-two split for every size.
        for n in 1usize..=65 {
            let l = leaves(n);
            let built = MerkleTree::build(&l).root().unwrap();
            let ranged = MerkleTree::range_hash(&l, 0, n);
            assert_eq!(built, ranged, "n={n}");
        }
    }

    #[test]
    fn consistency_proofs_verify_for_all_prefix_pairs() {
        for n in 1usize..=48 {
            let l = leaves(n);
            let new_root = MerkleTree::build(&l).root().unwrap();
            for m in 1..=n {
                let old_root = MerkleTree::build(&l[..m]).root().unwrap();
                let proof = MerkleTree::prove_consistency(&l, m).unwrap();
                assert!(
                    MerkleTree::verify_consistency(&old_root, &new_root, &proof),
                    "m={m} n={n} proof_len={}",
                    proof.nodes.len()
                );
            }
        }
    }

    #[test]
    fn consistency_fails_for_rewritten_history() {
        let l = leaves(12);
        let old_root = MerkleTree::build(&l[..7]).root().unwrap();
        // The "new" log rewrote entry 3.
        let mut forged = l.clone();
        forged[3] = sha256(b"rewritten");
        let forged_root = MerkleTree::build(&forged).root().unwrap();
        let proof = MerkleTree::prove_consistency(&forged, 7).unwrap();
        assert!(!MerkleTree::verify_consistency(
            &old_root,
            &forged_root,
            &proof
        ));
    }

    #[test]
    fn consistency_fails_for_tampered_proof() {
        let l = leaves(20);
        let old_root = MerkleTree::build(&l[..9]).root().unwrap();
        let new_root = MerkleTree::build(&l).root().unwrap();
        let mut proof = MerkleTree::prove_consistency(&l, 9).unwrap();
        if let Some(first) = proof.nodes.first_mut() {
            *first = sha256(b"evil");
        }
        assert!(!MerkleTree::verify_consistency(
            &old_root, &new_root, &proof
        ));
        let mut truncated = MerkleTree::prove_consistency(&l, 9).unwrap();
        truncated.nodes.pop();
        assert!(!MerkleTree::verify_consistency(
            &old_root, &new_root, &truncated
        ));
    }

    #[test]
    fn consistency_equal_sizes_is_trivial() {
        let l = leaves(5);
        let root = MerkleTree::build(&l).root().unwrap();
        let proof = MerkleTree::prove_consistency(&l, 5).unwrap();
        assert!(proof.nodes.is_empty());
        assert!(MerkleTree::verify_consistency(&root, &root, &proof));
    }

    #[test]
    fn consistency_bad_bounds_rejected() {
        let l = leaves(5);
        assert!(MerkleTree::prove_consistency(&l, 0).is_none());
        assert!(MerkleTree::prove_consistency(&l, 6).is_none());
    }

    #[test]
    fn out_of_range_proof_rejected() {
        let l = leaves(4);
        let t = MerkleTree::build(&l);
        assert!(t.prove(4).is_none());
        let proof = InclusionProof {
            leaf_index: 10,
            siblings: vec![],
        };
        assert!(!MerkleTree::verify(&t.root().unwrap(), 4, &l[0], &proof));
    }
}
