//! Cross-replica comparison: the auditor's view of the cluster.
//!
//! Replicas of a shard receive the same entries in the same order (the
//! client serializes each shard's fan-out), so honest replicas hold
//! byte-identical logs — possibly truncated, for a replica that crashed or
//! restarted. That makes the integrity check sharp:
//!
//! * byte-identical → **consistent**;
//! * a strict prefix, a contiguous window (a replica restarted mid-stream
//!   missed the head), or a strict extension of the quorum log →
//!   **lagging/ahead**, the fail-stop degradation the trust model
//!   tolerates;
//! * *conflicting content* at some index → **diverged**: some replica
//!   rewrote history. That is tamper evidence naming the shard and replica,
//!   surfaced before any per-entry classification runs.

use crate::attestation::EquivocationProof;
use crate::cluster::LoggerCluster;
use crate::epoch::{empty_shard_root, ShardRoot};
use adlp_crypto::sha256::Digest;
use adlp_logger::{LogEntry, LogError};

/// How one replica's log relates to its shard's quorum log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaStatus {
    /// Byte-identical to the quorum log.
    Consistent,
    /// A strict prefix or contiguous window of the quorum log —
    /// crashed/restarted, `behind` records short. Availability loss only.
    Lagging {
        /// Records of the quorum log missing from this replica.
        behind: usize,
    },
    /// A strict extension of the quorum log by `extra` records (its peers
    /// stopped short of it). Availability skew only — but note an
    /// over-long log is a *self-report*: the extension is excluded from
    /// the quorum log unless corroborated (see [`ClusterView`] docs), so a
    /// replica fabricating history inflates only its own status, never the
    /// audited log.
    Ahead {
        /// Records beyond the quorum log's length.
        extra: usize,
    },
    /// Conflicting content: this replica's record at
    /// `first_divergent_index` differs from the quorum log. Tamper
    /// evidence.
    Diverged {
        /// First index where the content conflicts.
        first_divergent_index: usize,
    },
    /// BFT mode: this replica signed two conflicting heads at the same
    /// scope — *provably malicious*, the only verdict in this lattice
    /// backed by a transferable cryptographic proof rather than majority
    /// comparison. Overrides the comparison-based statuses above.
    Equivocated {
        /// Verified equivocation proofs naming this replica.
        convictions: usize,
    },
}

/// Tamper evidence: a replica whose log conflicts with its shard's quorum
/// log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaDivergence {
    /// Shard of the offending replica.
    pub shard: usize,
    /// Replica index within the shard.
    pub replica: usize,
    /// First record index where the content conflicts.
    pub first_divergent_index: usize,
}

/// One shard's gathered state.
#[derive(Debug, Clone)]
pub struct ShardView {
    /// Shard index.
    pub shard: usize,
    /// The quorum log: the record sequence the largest replica group
    /// agrees on (ties broken toward the longer log).
    pub records: Vec<Vec<u8>>,
    /// Per-replica relation to the quorum log.
    pub statuses: Vec<ReplicaStatus>,
    /// The Merkle root the quorum log's store committed to, read with its
    /// records (a fixed sentinel root for an empty shard).
    pub root: Digest,
}

/// The whole cluster, gathered and cross-checked.
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// Per-shard views, indexed by shard.
    pub shards: Vec<ShardView>,
    /// BFT mode: every equivocation proof the attestation ledger holds at
    /// gather time — self-contained evidence an auditor re-verifies
    /// against the replica keyring (empty on a crash-quorum cluster).
    pub convictions: Vec<EquivocationProof>,
}

impl ShardView {
    /// This shard's anchoring input for the epoch super-root.
    pub fn shard_root(&self) -> ShardRoot {
        ShardRoot {
            shard: self.shard,
            leaf_count: self.records.len(),
            root: self.root,
        }
    }
}

impl ClusterView {
    /// Every replica whose content conflicts with its shard's quorum log.
    pub fn divergences(&self) -> Vec<ReplicaDivergence> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (replica, status) in shard.statuses.iter().enumerate() {
                if let ReplicaStatus::Diverged {
                    first_divergent_index,
                } = status
                {
                    out.push(ReplicaDivergence {
                        shard: shard.shard,
                        replica,
                        first_divergent_index: *first_divergent_index,
                    });
                }
            }
        }
        out
    }

    /// (shard, replica) for every replica convicted of equivocation.
    pub fn equivocated(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (replica, status) in shard.statuses.iter().enumerate() {
                if matches!(status, ReplicaStatus::Equivocated { .. }) {
                    out.push((shard.shard, replica));
                }
            }
        }
        out
    }

    /// (shard, replica, records behind) for every lagging replica.
    pub fn lagging(&self) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (replica, status) in shard.statuses.iter().enumerate() {
                if let ReplicaStatus::Lagging { behind } = status {
                    out.push((shard.shard, replica, *behind));
                }
            }
        }
        out
    }

    /// Total records across all shards' quorum logs (shards partition the
    /// keyspace, so this is a union without duplicates).
    pub fn total_records(&self) -> usize {
        self.shards.iter().map(|s| s.records.len()).sum()
    }

    /// Per-shard anchoring inputs, in shard order.
    pub fn shard_roots(&self) -> Vec<ShardRoot> {
        self.shards.iter().map(ShardView::shard_root).collect()
    }

    /// Decodes every quorum-log record across all shards.
    pub fn entries(&self) -> Vec<Result<LogEntry, LogError>> {
        self.shards
            .iter()
            .flat_map(|s| s.records.iter().map(|r| LogEntry::decode(r)))
            .collect()
    }
}

/// Gathers every replica's store and cross-checks the shard groups.
///
/// In BFT mode, gathering is also an *interrogation*: every replica signs
/// its current log head into the attestation ledger, so a replica that
/// told the deposit path one history and shows the gatherer another
/// convicts itself here. Convicted replicas surface as
/// [`ReplicaStatus::Equivocated`] and the proofs ride along in
/// [`ClusterView::convictions`].
pub fn gather(cluster: &LoggerCluster) -> ClusterView {
    let shards = (0..cluster.shard_count())
        .map(|shard| gather_shard(cluster, shard))
        .collect();
    let convictions = cluster
        .attestations()
        .map(|ledger| ledger.proofs())
        .unwrap_or_default();
    ClusterView { shards, convictions }
}

/// One shard's quorum log, gathered *quietly* — no BFT attestation
/// interrogation. Catch-up uses this for its before/after quorum reads:
/// interrogating mid-repair would make the caught-up replica swear to a
/// transient adopted state that a rollback may later undo, and the honest
/// post-rollback re-signature at the same length would then read as an
/// equivocation — a false conviction minted by the repair path itself.
pub(crate) fn quorum_records(cluster: &LoggerCluster, shard: usize) -> Option<Vec<Vec<u8>>> {
    (shard < cluster.shard_count()).then(|| quorum(cluster, shard).1)
}

/// Every store of a shard, each read with the root it committed to at one
/// instant, then the quorum log and its root: the winning store's own
/// commitment, so nothing is re-hashed.
fn quorum(cluster: &LoggerCluster, shard: usize) -> (Vec<Vec<Vec<u8>>>, Vec<Vec<u8>>, Digest) {
    let (stores, roots): (Vec<Vec<Vec<u8>>>, Vec<Option<Digest>>) = cluster
        .shard_replicas(shard)
        .iter()
        .map(|slot| slot.handle().store().encoded_records_and_root())
        .unzip();
    let won = quorum_log(&stores).and_then(|i| Some((stores.get(i)?.clone(), (*roots.get(i)?)?)));
    let (records, root) = won.unwrap_or_else(|| (Vec::new(), empty_shard_root()));
    (stores, records, root)
}

fn gather_shard(cluster: &LoggerCluster, shard: usize) -> ShardView {
    let slots = cluster.shard_replicas(shard);
    let (stores, records, root) = quorum(cluster, shard);
    let mut statuses: Vec<ReplicaStatus> =
        stores.iter().map(|s| status_of(s, &records)).collect();
    if let Some(ledger) = cluster.attestations() {
        // Interrogate: every live replica countersigns its current true
        // head (a dead one's frozen store is compared, but signs nothing).
        for slot in slots.iter().filter(|slot| slot.is_alive()) {
            if let Ok(Some(att)) = slot.attest_head() {
                let observation = ledger.observe(att);
                cluster.stats().note_observation(&observation);
            }
        }
        // A verified conviction outranks any comparison-based status.
        let proofs = ledger.proofs();
        for (replica, status) in statuses.iter_mut().enumerate() {
            let convictions = proofs
                .iter()
                .filter(|p| p.shard() == shard && p.replica() == replica)
                .count();
            if convictions > 0 {
                *status = ReplicaStatus::Equivocated { convictions };
            }
        }
    }
    ShardView {
        shard,
        records,
        statuses,
        root,
    }
}

/// Which store holds the record sequence the largest replica group agrees
/// on (`None` only when there are no stores). Ties are
/// broken lexicographically by (equality count, prefix corroboration,
/// length):
///
/// * *prefix corroboration* of a candidate counts the stores that are a
///   prefix of (or equal to) it — peers whose shorter logs vouch for the
///   candidate's early history. A lone survivor extending a stale group's
///   log is corroborated by that group; a replica self-reporting an
///   over-long log that *conflicts* with its peers corroborates nothing
///   beyond itself and loses the tie (the symmetric twin of catch-up's
///   "replica ahead of quorum" refusal — the read path no longer lets an
///   uncorroborated over-long log become the quorum log merely by being
///   longest);
/// * length only breaks ties *within* equally-corroborated candidates.
///
/// Residual ambiguity: when a single replica extends the corroborated
/// prefix, a genuine lone survivor and a fabricated extension are
/// indistinguishable by content alone. Crash-quorum clusters accept the
/// extension (availability bias, as before); BFT clusters do not need to
/// choose — an extension without `2f+1` signed head attestations was
/// never acknowledged, and the attestation ledger convicts a replica that
/// signs for history its peers never saw.
fn quorum_log(stores: &[Vec<Vec<u8>>]) -> Option<usize> {
    let mut best: Option<(usize, usize, usize, &Vec<Vec<u8>>)> = None;
    for (index, candidate) in stores.iter().enumerate() {
        let count = stores.iter().filter(|s| *s == candidate).count();
        let support = stores
            .iter()
            .filter(|s| is_prefix_of(s, candidate))
            .count();
        let better = match best {
            None => true,
            Some((best_count, best_support, _, best_ref)) => {
                (count, support, candidate.len()) > (best_count, best_support, best_ref.len())
            }
        };
        if better {
            best = Some((count, support, index, candidate));
        }
    }
    best.map(|(_, _, index, _)| index)
}

/// Whether `shorter` is a (possibly equal) prefix of `longer`.
fn is_prefix_of(shorter: &[Vec<u8>], longer: &[Vec<u8>]) -> bool {
    shorter.len() <= longer.len() && shorter.iter().zip(longer.iter()).all(|(a, b)| a == b)
}

fn status_of(records: &[Vec<u8>], reference: &[Vec<u8>]) -> ReplicaStatus {
    let common = records
        .iter()
        .zip(reference.iter())
        .take_while(|(a, b)| a == b)
        .count();
    if common == records.len() && common == reference.len() {
        ReplicaStatus::Consistent
    } else if common == records.len() {
        ReplicaStatus::Lagging {
            behind: reference.len() - common,
        }
    } else if common == reference.len() {
        ReplicaStatus::Ahead {
            extra: records.len() - common,
        }
    } else if is_window_of(records, reference) {
        // A replica restarted mid-stream holds a contiguous *window* of
        // the quorum log (typically a suffix: it missed the head while
        // down). Its content never conflicts — availability loss, not
        // tamper evidence.
        ReplicaStatus::Lagging {
            behind: reference.len() - records.len(),
        }
    } else {
        ReplicaStatus::Diverged {
            first_divergent_index: common,
        }
    }
}

/// Whether `records` appears as a contiguous run inside `reference`.
fn is_window_of(records: &[Vec<u8>], reference: &[Vec<u8>]) -> bool {
    if records.len() >= reference.len() {
        return false;
    }
    (0..=reference.len() - records.len()).any(|start| {
        reference
            .iter()
            .skip(start)
            .take(records.len())
            .eq(records.iter())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use adlp_logger::{Direction, LogEntry};
    use adlp_pubsub::{NodeId, Topic};

    fn rec(tag: u8) -> Vec<u8> {
        vec![tag; 8]
    }

    #[test]
    fn status_classification() {
        let reference = vec![rec(1), rec(2), rec(3)];
        assert_eq!(
            status_of(&reference, &reference),
            ReplicaStatus::Consistent
        );
        assert_eq!(
            status_of(&reference[..1], &reference),
            ReplicaStatus::Lagging { behind: 2 }
        );
        assert_eq!(
            status_of(&[rec(1), rec(2), rec(3), rec(4)], &reference),
            ReplicaStatus::Ahead { extra: 1 }
        );
        assert_eq!(
            status_of(&[rec(1), rec(9), rec(3)], &reference),
            ReplicaStatus::Diverged {
                first_divergent_index: 1
            }
        );
        // A restarted replica holding only the tail is lagging, not
        // diverged: its content never conflicts.
        assert_eq!(
            status_of(&[rec(2), rec(3)], &reference),
            ReplicaStatus::Lagging { behind: 1 }
        );
        // But conflicting content that happens to start elsewhere is not.
        assert_eq!(
            status_of(&[rec(3), rec(2)], &reference),
            ReplicaStatus::Diverged {
                first_divergent_index: 0
            }
        );
    }

    #[test]
    fn quorum_log_majority_wins() {
        let good = vec![rec(1), rec(2)];
        let bad = vec![rec(1), rec(9)];
        let stores = vec![good.clone(), good, bad];
        assert_eq!(quorum_log(&stores), Some(0));
    }

    #[test]
    fn quorum_log_tie_prefers_longer() {
        let long = vec![rec(1), rec(2), rec(3)];
        let short = vec![rec(1)];
        // Tie (every store is unique): the lone survivor's extension is
        // corroborated by the stale prefix, so it still wins.
        let stores = vec![short, long];
        assert_eq!(quorum_log(&stores), Some(1));
    }

    #[test]
    fn quorum_log_uncorroborated_overlong_log_loses_the_tie() {
        // Three unique stores: a stale prefix, a survivor one record ahead
        // of it, and a replica self-reporting a *conflicting* over-long
        // log. The conflicting fabrication corroborates nothing beyond
        // itself and must not win merely by being longest.
        let stale = vec![rec(1)];
        let survivor = vec![rec(1), rec(2)];
        let fabricated = vec![rec(9), rec(8), rec(7), rec(6)];
        let stores = vec![stale, survivor, fabricated];
        assert_eq!(quorum_log(&stores), Some(1));
    }

    #[test]
    fn quorum_log_overlong_replica_is_ahead_not_quorum() {
        // A corroborated pair outvotes a longer self-report that extends
        // their log: the extension was never acknowledged by anyone else.
        let agreed = vec![rec(1), rec(2)];
        let inflated = vec![rec(1), rec(2), rec(3), rec(4)];
        let stores = vec![agreed.clone(), agreed.clone(), inflated.clone()];
        assert_eq!(quorum_log(&stores), Some(0));
        // And on the status side the over-long replica is merely Ahead —
        // its self-reported extension inflates its own status, never the
        // audited log (the symmetric twin of catch-up's "replica ahead of
        // quorum" refusal).
        assert_eq!(
            status_of(&inflated, &agreed),
            ReplicaStatus::Ahead { extra: 2 }
        );
    }

    #[test]
    fn gathered_view_flags_tampered_replica() {
        let cluster = LoggerCluster::spawn(ClusterConfig::replicated(1)).unwrap();
        let entry = LogEntry::naive(
            NodeId::new("cam"),
            Topic::new("image"),
            Direction::Out,
            1,
            1,
            vec![7u8; 16],
        );
        for slot in cluster.shard_replicas(0) {
            slot.handle().try_submit(entry.clone()).unwrap();
            slot.handle().flush().unwrap();
        }
        // Rewrite history on replica 2 via the existing tamper path.
        let victim = cluster.replica(0, 2).unwrap();
        let fake = LogEntry::naive(
            NodeId::new("cam"),
            Topic::new("image"),
            Direction::Out,
            1,
            1,
            vec![9u8; 16],
        );
        victim
            .handle()
            .store()
            .tamper_with_record(0, fake.encode())
            .unwrap();

        let view = cluster.view();
        let div = view.divergences();
        assert_eq!(div.len(), 1);
        assert_eq!(
            div.first(),
            Some(&ReplicaDivergence {
                shard: 0,
                replica: 2,
                first_divergent_index: 0
            })
        );
        assert_eq!(view.total_records(), 1);
    }
}
