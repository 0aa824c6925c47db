//! Cluster topology and quorum configuration.

use crate::attestation::BftConfig;
use adlp_logger::LogError;
use adlp_pubsub::BreakerConfig;

/// Virtual nodes per shard on the hash ring (smooths the key
/// distribution; purely deterministic).
pub(crate) const VNODES: usize = 16;

/// Shape of a logger cluster: how many shards, how many replicas per
/// shard, and how many replica acknowledgements a deposit needs before it
/// counts as durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of shards the consistent-hash ring spreads entries over.
    pub shards: usize,
    /// Replicas per shard; every entry is fanned out to all of them.
    pub replicas: usize,
    /// Write quorum W: a deposit is acknowledged once W replicas of its
    /// shard accepted it. `W ≤ replicas`.
    pub write_quorum: usize,
    /// When set, every replica lane is wrapped in a circuit breaker seeded
    /// deterministically from this configuration: a persistently failing
    /// replica is routed around (fast-fail, counted) and re-admitted
    /// through half-open probes. `None` (the default) preserves the
    /// always-attempt fan-out.
    pub breaker: Option<BreakerConfig>,
    /// When set, the shard runs in Byzantine-fault-tolerant mode: every
    /// replica holds an attestation keypair, an acknowledgement needs
    /// `2f+1` *matching signed head attestations* (not mere acceptances),
    /// and conflicting signatures become transferable equivocation proofs.
    /// Requires `replicas ≥ 3f+1`. `None` (the default) is the crash-only
    /// W-of-R quorum.
    pub bft: Option<BftConfig>,
}

impl ClusterConfig {
    /// A single-replica cluster of `shards` shards (R=1, W=1).
    pub fn new(shards: usize) -> Self {
        ClusterConfig {
            shards: shards.max(1),
            replicas: 1,
            write_quorum: 1,
            breaker: None,
            bft: None,
        }
    }

    /// Sets the replication factor R (write quorum clamped to stay `≤ R`).
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self.write_quorum = self.write_quorum.min(self.replicas);
        self
    }

    /// Sets the write quorum W.
    pub fn with_write_quorum(mut self, quorum: usize) -> Self {
        self.write_quorum = quorum.max(1);
        self
    }

    /// Wraps every replica lane in a circuit breaker configured by `cfg`
    /// (each lane gets its own breaker, seeded from `cfg.seed` mixed with
    /// its shard and replica indices, so trajectories are deterministic
    /// but decorrelated).
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> Self {
        self.breaker = Some(cfg);
        self
    }

    /// The paper-style R=3/W=2 replication profile.
    pub fn replicated(shards: usize) -> Self {
        ClusterConfig::new(shards)
            .with_replicas(3)
            .with_write_quorum(2)
    }

    /// Enables BFT mode with budget `bft` (replica count and write quorum
    /// are raised to `3f+1` / `2f+1` if the current shape is smaller).
    pub fn with_bft(mut self, bft: BftConfig) -> Self {
        self.replicas = self.replicas.max(bft.replicas_required());
        self.write_quorum = self.write_quorum.max(bft.attest_quorum());
        self.bft = Some(bft);
        self
    }

    /// The Byzantine profile: `shards` shards of `3f+1` replicas, acks at
    /// `2f+1` matching signed heads.
    pub fn byzantine(shards: usize, f: usize) -> Self {
        ClusterConfig::new(shards).with_bft(BftConfig::new(f))
    }

    /// Checks the internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when `write_quorum > replicas` or a
    /// field is zero.
    pub fn validate(&self) -> Result<(), LogError> {
        if self.shards == 0 || self.replicas == 0 {
            return Err(LogError::Malformed("cluster config (zero dimension)"));
        }
        if self.write_quorum == 0 || self.write_quorum > self.replicas {
            return Err(LogError::Malformed("cluster config (write quorum)"));
        }
        if let Some(bft) = &self.bft {
            if self.replicas < bft.replicas_required() {
                return Err(LogError::Malformed("cluster config (bft replicas < 3f+1)"));
            }
            if self.write_quorum < bft.attest_quorum() {
                return Err(LogError::Malformed("cluster config (bft quorum < 2f+1)"));
            }
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_single_logger_equivalent() {
        let c = ClusterConfig::default();
        assert_eq!((c.shards, c.replicas, c.write_quorum), (1, 1, 1));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn quorum_clamped_to_replicas() {
        let c = ClusterConfig::new(3).with_write_quorum(5).with_replicas(3);
        assert_eq!(c.write_quorum, 3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn oversized_quorum_rejected() {
        let mut c = ClusterConfig::replicated(3);
        c.write_quorum = 4;
        assert!(c.validate().is_err());
    }

    #[test]
    fn byzantine_profile_shapes_the_shard() {
        let c = ClusterConfig::byzantine(2, 1);
        assert_eq!((c.shards, c.replicas, c.write_quorum), (2, 4, 3));
        assert!(c.validate().is_ok());
        // An under-provisioned BFT shard is refused.
        let mut small = ClusterConfig::byzantine(1, 1);
        small.replicas = 3;
        assert!(small.validate().is_err());
        let mut weak = ClusterConfig::byzantine(1, 1);
        weak.write_quorum = 2;
        assert!(weak.validate().is_err());
    }
}
