//! Public keys: the live component registry and the fixed keyring.
//!
//! The paper assumes each component generates a key pair and that "its
//! public key is securely transferred to the logger" (§II-A). The
//! [`KeyRegistry`] holds those component keys. It is shared and live, and
//! it is first-write-wins: once a component's key is on file, a
//! conflicting registration is rejected — a component cannot silently
//! rotate identity.
//!
//! Every other signing role — logs signing tree heads, witnesses
//! cosigning, replicas attesting, resolvers voting — is verified against
//! a [`Keyring`]: a plain map from the role's signer id to its key, built
//! once and handed to whoever verifies.

use crate::LogError;
use adlp_crypto::{RsaPublicKey, Statement};
use adlp_pubsub::NodeId;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Thread-safe map from component id to its registered public key.
#[derive(Debug, Clone, Default)]
pub struct KeyRegistry {
    keys: Arc<RwLock<HashMap<NodeId, RsaPublicKey>>>,
}

impl KeyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `key` for `component`.
    ///
    /// Re-registering the identical key is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::KeyConflict`] when a *different* key is already
    /// on file.
    pub fn register(&self, component: &NodeId, key: RsaPublicKey) -> Result<(), LogError> {
        let mut keys = self.keys.write();
        match keys.get(component) {
            Some(existing) if existing == &key => Ok(()),
            Some(_) => Err(LogError::KeyConflict(component.to_string())),
            None => {
                keys.insert(component.clone(), key);
                Ok(())
            }
        }
    }

    /// Looks up a component's key.
    pub fn get(&self, component: &NodeId) -> Option<RsaPublicKey> {
        self.keys.read().get(component).cloned()
    }

    /// Looks up a key or errors.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::UnknownComponent`] when no key is registered.
    pub fn require(&self, component: &NodeId) -> Result<RsaPublicKey, LogError> {
        self.get(component)
            .ok_or_else(|| LogError::UnknownComponent(component.to_string()))
    }

    /// All registered component ids (sorted, for deterministic audits).
    pub fn components(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.keys.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.keys.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.read().is_empty()
    }
}

/// The public keys of one signing role, by signer id: log [`NodeId`] for
/// tree heads, witness index for cosignatures, `(shard, replica)` for
/// attestations, resolver [`NodeId`] for votes. Iteration is in id order.
#[derive(Debug, Clone)]
pub struct Keyring<Id> {
    keys: BTreeMap<Id, RsaPublicKey>,
}

impl<Id> Default for Keyring<Id> {
    fn default() -> Self {
        Keyring {
            keys: BTreeMap::new(),
        }
    }
}

impl<Id: Ord> Keyring<Id> {
    /// An empty keyring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Files `key` under `id`, replacing any key already there.
    pub fn insert(&mut self, id: Id, key: RsaPublicKey) {
        self.keys.insert(id, key);
    }

    /// Builder form of [`Keyring::insert`].
    pub fn with(mut self, id: Id, key: RsaPublicKey) -> Self {
        self.insert(id, key);
        self
    }

    /// Verifies `statement` under the key of the signer it claims. A
    /// statement from an unknown signer never verifies.
    pub fn verify<S: Statement<Signer = Id>>(&self, statement: &S) -> bool {
        self.keys
            .get(&statement.signer())
            .is_some_and(|key| statement.verify(key))
    }

    /// The signer ids on file, in order.
    pub fn ids(&self) -> impl Iterator<Item = &Id> {
        self.keys.keys()
    }
}

impl Keyring<NodeId> {
    /// [`Keyring::with`] under the name the standalone `benchmark/`
    /// package uses for a log keyring.
    pub fn with_log(self, log: NodeId, key: RsaPublicKey) -> Self {
        self.with(log, key)
    }
}

impl<Id: Ord> FromIterator<(Id, RsaPublicKey)> for Keyring<Id> {
    fn from_iter<I: IntoIterator<Item = (Id, RsaPublicKey)>>(iter: I) -> Self {
        Keyring {
            keys: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto::RsaKeyPair;
    use rand::SeedableRng;

    fn key(seed: u64) -> RsaPublicKey {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(128, &mut rng).public_key().clone()
    }

    #[test]
    fn register_and_lookup() {
        let reg = KeyRegistry::new();
        let id = NodeId::new("camera");
        let k = key(1);
        reg.register(&id, k.clone()).unwrap();
        assert_eq!(reg.get(&id), Some(k.clone()));
        assert_eq!(reg.require(&id).unwrap(), k);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn conflicting_key_rejected_identical_ok() {
        let reg = KeyRegistry::new();
        let id = NodeId::new("camera");
        reg.register(&id, key(1)).unwrap();
        reg.register(&id, key(1)).unwrap(); // same key ⇒ idempotent
        assert!(matches!(
            reg.register(&id, key(2)),
            Err(LogError::KeyConflict(_))
        ));
    }

    #[test]
    fn unknown_component_errors() {
        let reg = KeyRegistry::new();
        assert!(matches!(
            reg.require(&NodeId::new("ghost")),
            Err(LogError::UnknownComponent(_))
        ));
        assert!(reg.is_empty());
    }

    #[test]
    fn components_sorted() {
        let reg = KeyRegistry::new();
        reg.register(&NodeId::new("b"), key(1)).unwrap();
        reg.register(&NodeId::new("a"), key(2)).unwrap();
        assert_eq!(reg.components(), vec![NodeId::new("a"), NodeId::new("b")]);
    }

    #[test]
    fn keyring_verifies_under_the_latest_key_of_the_claimed_signer() {
        use crate::entry::Binding;
        use adlp_crypto::sha256::{binding_digest, sha256};
        use adlp_pubsub::Topic;

        let mut rng = rand::rngs::StdRng::seed_from_u64(36);
        let signer = RsaKeyPair::generate(512, &mut rng);
        let other = RsaKeyPair::generate(512, &mut rng);
        let payload_digest = sha256(b"frame");
        let signature = adlp_crypto::pkcs1::sign_digest(
            signer.private_key(),
            &binding_digest("t", 1, &payload_digest),
        )
        .unwrap();
        let binding = Binding {
            signer: NodeId::new("camera"),
            topic: Topic::new("t"),
            seq: 1,
            payload_digest,
            signature,
        };
        let mut ring = Keyring::new().with(NodeId::new("lidar"), signer.public_key().clone());
        assert!(!ring.verify(&binding), "an unknown signer never verifies");
        ring.insert(NodeId::new("camera"), other.public_key().clone());
        assert!(!ring.verify(&binding));
        ring.insert(NodeId::new("camera"), signer.public_key().clone());
        assert!(ring.verify(&binding), "a later insert replaces the key");
    }

    #[test]
    fn clones_share_state() {
        let reg = KeyRegistry::new();
        let reg2 = reg.clone();
        reg.register(&NodeId::new("x"), key(3)).unwrap();
        assert!(reg2.get(&NodeId::new("x")).is_some());
    }
}
