//! Where deposits go: one trusted logger, or a sharded cluster of them.
//!
//! The protocol layer (logging threads, interceptors, flush paths) is
//! indifferent to the logger's deployment shape. [`DepositTarget`] captures
//! the two shapes — the paper's single [`LoggerHandle`] and the
//! quorum-replicated [`ClusterLogClient`] — behind one submit/flush/keys
//! surface, so a node built for one runs unchanged against the other.

use adlp_cluster::ClusterLogClient;
use adlp_crypto::RsaPublicKey;
use adlp_logger::{KeyRegistry, LogEntry, LogError, LoggerHandle, SubmitOutcome};
use adlp_pubsub::NodeId;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a deposit to a [`DepositTarget`] gets acknowledged — the trust
/// shape the logging pipeline is running against. Nodes and harnesses
/// read this to label runs and pick protocol expectations (e.g. what a
/// "lost" deposit means) without matching on the target shape themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// The paper's model: one trusted logger's acceptance is the ack.
    Single,
    /// Crash-tolerant cluster: `write` live acceptances of `replicas`
    /// replicas per shard.
    Quorum {
        /// Write quorum W.
        write: usize,
        /// Replication factor R.
        replicas: usize,
    },
    /// Byzantine-tolerant cluster: `quorum = 2f+1` *matching signed head
    /// attestations* of `3f+1` replicas per shard; up to `f` replicas may
    /// lie without forging an ack.
    Bft {
        /// Byzantine replicas tolerated per shard.
        f: usize,
        /// Matching signed attestations required per ack (`2f+1`).
        quorum: usize,
    },
}

/// Proof that the logger took one entry. Only [`DepositTarget::deposit`]
/// mints it, from [`DepositTarget::submit_durable`]'s `Ok` or from
/// [`SubmitOutcome::Accepted`], and counting a deposit takes one — so a
/// node on an ack-after-durable path cannot count an entry as deposited
/// before the logger made it durable.
#[derive(Debug)]
pub(crate) struct Deposited(());

/// The deposit destination a node's logging pipeline writes to.
#[derive(Debug, Clone)]
pub enum DepositTarget {
    /// The paper's deployment: one trusted log server.
    Single(LoggerHandle),
    /// A sharded, quorum-replicated logger cluster.
    Cluster(Arc<ClusterLogClient>),
    /// A rate-limited wrapper around either shape, modeling a
    /// slow-consumer logger: each deposit waits for the pace gate before
    /// reaching the inner target. Overload scenarios and benches use this
    /// to make the deposit pipeline the bottleneck deterministically
    /// (arrival rate vs. `1/min_interval`), without sleeping inside the
    /// logger itself.
    Paced {
        /// The real destination.
        inner: Box<DepositTarget>,
        /// Minimum spacing between consecutive deposits.
        min_interval: Duration,
        /// When the gate next opens (shared across clones).
        next_free: Arc<Mutex<Option<Instant>>>,
    },
}

impl DepositTarget {
    /// Wraps `inner` so consecutive deposits are at least `min_interval`
    /// apart — a deterministic slow-consumer logger model.
    pub fn paced(inner: DepositTarget, min_interval: Duration) -> DepositTarget {
        DepositTarget::Paced {
            inner: Box::new(inner),
            min_interval,
            next_free: Arc::new(Mutex::new(None)),
        }
    }

    /// Blocks until the pace gate opens and claims the next slot. No-op
    /// for unpaced targets.
    fn pace(&self) {
        let DepositTarget::Paced {
            min_interval,
            next_free,
            ..
        } = self
        else {
            return;
        };
        let wait = {
            let mut slot = next_free.lock();
            let now = Instant::now();
            let start = slot.map_or(now, |t: Instant| t.max(now));
            *slot = Some(start + *min_interval);
            start.saturating_duration_since(now)
        };
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }

    /// Deposits an entry. Never blocks on logging *trouble* (a paced
    /// target does block on its rate gate) and never errors; every shape
    /// counts failed deposits — and reports them as an outcome — instead
    /// of dropping them silently.
    pub fn submit(&self, entry: LogEntry) -> SubmitOutcome {
        match self {
            DepositTarget::Single(handle) => handle.submit(entry),
            DepositTarget::Cluster(client) => client.submit(entry),
            DepositTarget::Paced { inner, .. } => {
                self.pace();
                inner.submit(entry)
            }
        }
    }

    /// Deposits an entry and only reports success once the logger made it
    /// *durable*: synced into the single logger's WAL, or WAL-acked by a
    /// write quorum of cluster replicas. A logger without a durability
    /// layer acks on acceptance (volatile deployments keep working).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::ServerClosed`] when the logger is gone and
    /// [`LogError::Io`] when the entry could not be made durable.
    pub fn submit_durable(&self, entry: LogEntry) -> Result<(), LogError> {
        match self {
            DepositTarget::Single(handle) => handle.submit_durable(entry),
            DepositTarget::Cluster(client) => client.submit_durable(entry),
            DepositTarget::Paced { inner, .. } => {
                self.pace();
                inner.submit_durable(entry)
            }
        }
    }

    /// Deposits `entry` through [`Self::submit_durable`] when `durable`
    /// (ack-after-durable) and through [`Self::submit`] otherwise; the
    /// receipt comes back only when the logger took the entry.
    pub(crate) fn deposit(&self, entry: LogEntry, durable: bool) -> Option<Deposited> {
        if durable {
            return self.submit_durable(entry).ok().map(|()| Deposited(()));
        }
        match self.submit(entry) {
            SubmitOutcome::Accepted => Some(Deposited(())),
            SubmitOutcome::Lost => None,
        }
    }

    /// Registers a component key (§V-B step 1). For a cluster the registry
    /// is shared by every replica of every shard.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::KeyConflict`] for a conflicting registration, or
    /// [`LogError::ServerClosed`] when a single logger is gone.
    pub fn register_key(&self, component: &NodeId, key: RsaPublicKey) -> Result<(), LogError> {
        match self {
            DepositTarget::Single(handle) => handle.register_key(component, key),
            DepositTarget::Cluster(client) => client.register_key(component, key),
            DepositTarget::Paced { inner, .. } => inner.register_key(component, key),
        }
    }

    /// Blocks until previously submitted entries are durably stored.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::ServerClosed`] when the logger is gone (single)
    /// or some shard could not confirm a write quorum (cluster).
    pub fn flush(&self) -> Result<(), LogError> {
        match self {
            DepositTarget::Single(handle) => handle.flush(),
            DepositTarget::Cluster(client) => client.flush(),
            // Flush is a drain barrier, not a deposit: not paced.
            DepositTarget::Paced { inner, .. } => inner.flush(),
        }
    }

    /// The acknowledgement discipline this target runs: single-logger
    /// acceptance, W-of-R crash quorum, or 2f+1-of-3f+1 signed BFT quorum.
    /// Pacing is a rate shape, not a trust shape, so a paced target
    /// reports its inner target's mode.
    pub fn ack_mode(&self) -> AckMode {
        match self {
            DepositTarget::Single(_) => AckMode::Single,
            DepositTarget::Cluster(client) => {
                let config = client.config();
                match &config.bft {
                    Some(bft) => AckMode::Bft {
                        f: bft.f,
                        quorum: bft.attest_quorum(),
                    },
                    None => AckMode::Quorum {
                        write: config.write_quorum,
                        replicas: config.replicas,
                    },
                }
            }
            DepositTarget::Paced { inner, .. } => inner.ack_mode(),
        }
    }

    /// The key registry subscribers verify publisher signatures against.
    pub fn keys(&self) -> &KeyRegistry {
        match self {
            DepositTarget::Single(handle) => handle.keys(),
            DepositTarget::Cluster(client) => client.keys(),
            DepositTarget::Paced { inner, .. } => inner.keys(),
        }
    }
}

impl From<&LoggerHandle> for DepositTarget {
    fn from(handle: &LoggerHandle) -> Self {
        DepositTarget::Single(handle.clone())
    }
}

impl From<Arc<ClusterLogClient>> for DepositTarget {
    fn from(client: Arc<ClusterLogClient>) -> Self {
        DepositTarget::Cluster(client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_cluster::{ClusterConfig, LoggerCluster};
    use adlp_logger::{Direction, LogServer};
    use adlp_pubsub::Topic;

    fn entry(seq: u64) -> LogEntry {
        LogEntry::naive(
            NodeId::new("cam"),
            Topic::new("image"),
            Direction::Out,
            seq,
            seq,
            vec![1u8; 8],
        )
    }

    #[test]
    fn both_shapes_deposit_and_flush() {
        let server = LogServer::spawn();
        let single = DepositTarget::from(&server.handle());
        assert!(single.submit(entry(1)).is_accepted());
        single.flush().unwrap();
        assert_eq!(server.handle().store().len(), 1);

        let cluster = LoggerCluster::spawn(ClusterConfig::replicated(1)).unwrap();
        let clustered = DepositTarget::from(Arc::new(ClusterLogClient::in_proc(&cluster)));
        assert!(clustered.submit(entry(2)).is_accepted());
        clustered.flush().unwrap();
        assert_eq!(cluster.view().total_records(), 1);
    }

    #[test]
    fn paced_target_spaces_deposits() {
        let server = LogServer::spawn();
        let paced = DepositTarget::paced(
            DepositTarget::from(&server.handle()),
            Duration::from_millis(5),
        );
        let started = Instant::now();
        for seq in 0..4 {
            assert!(paced.submit(entry(seq)).is_accepted());
        }
        // First deposit is immediate; the next three wait a slot each.
        assert!(started.elapsed() >= Duration::from_millis(15));
        paced.flush().unwrap();
        assert_eq!(server.handle().store().len(), 4);
    }

    #[test]
    fn ack_mode_names_the_trust_shape() {
        let server = LogServer::spawn();
        let single = DepositTarget::from(&server.handle());
        assert_eq!(single.ack_mode(), AckMode::Single);

        let crash = LoggerCluster::spawn(ClusterConfig::replicated(1)).unwrap();
        let crash_target = DepositTarget::from(Arc::new(ClusterLogClient::in_proc(&crash)));
        assert_eq!(
            crash_target.ack_mode(),
            AckMode::Quorum {
                write: 2,
                replicas: 3
            }
        );

        let bft = LoggerCluster::spawn(ClusterConfig::byzantine(1, 1)).unwrap();
        let bft_target = DepositTarget::from(Arc::new(ClusterLogClient::in_proc(&bft)));
        assert_eq!(bft_target.ack_mode(), AckMode::Bft { f: 1, quorum: 3 });

        // Pacing wraps the rate, not the trust shape.
        let paced = DepositTarget::paced(bft_target, Duration::from_millis(1));
        assert_eq!(paced.ack_mode(), AckMode::Bft { f: 1, quorum: 3 });
    }

    #[test]
    fn both_shapes_accept_durable_deposits() {
        // Volatile loggers ack durable deposits on acceptance, so the
        // ack-after-durable pipeline runs unchanged against either shape.
        let server = LogServer::spawn();
        let single = DepositTarget::from(&server.handle());
        single.submit_durable(entry(1)).unwrap();
        assert_eq!(server.handle().store().len(), 1);

        let cluster = LoggerCluster::spawn(ClusterConfig::replicated(1)).unwrap();
        let clustered = DepositTarget::from(Arc::new(ClusterLogClient::in_proc(&cluster)));
        clustered.submit_durable(entry(2)).unwrap();
        assert_eq!(cluster.view().total_records(), 1);
    }
}
