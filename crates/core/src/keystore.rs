//! Durable component identities.
//!
//! The paper assumes each component can generate a key pair and that "a
//! standard security mechanism is in place to protect the private key"
//! (§II-A). [`IdentityStore`] is the file-based form: identities persist
//! across restarts (a component that reboots must keep its identity, or
//! the key registry's first-write-wins rule will lock it out), stored with
//! owner-only permissions on Unix.

use crate::identity::ComponentIdentity;
use crate::AdlpError;
use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::CryptoError;
use adlp_pubsub::NodeId;
use rand::RngCore;
use std::path::{Path, PathBuf};

/// A directory of persisted component identities (one file per component).
#[derive(Debug, Clone)]
pub struct IdentityStore {
    dir: PathBuf,
}

impl IdentityStore {
    /// Opens (creating if needed) an identity directory.
    ///
    /// # Errors
    ///
    /// Returns [`AdlpError::Crypto`] wrapping a malformed-input error when
    /// the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, AdlpError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|_| AdlpError::Crypto(CryptoError::Malformed("identity directory")))?;
        Ok(IdentityStore { dir })
    }

    fn path_for(&self, id: &NodeId) -> PathBuf {
        // Node ids may contain path-hostile characters; encode as hex.
        self.dir.join(format!(
            "{}.key",
            adlp_crypto::hex::encode(id.as_str().as_bytes())
        ))
    }

    /// Loads the identity for `id`, or generates (and persists) a fresh one.
    ///
    /// # Errors
    ///
    /// Returns [`AdlpError::Crypto`] for unreadable or corrupt key files.
    pub fn load_or_generate<R: RngCore + ?Sized>(
        &self,
        id: &NodeId,
        key_bits: usize,
        rng: &mut R,
    ) -> Result<ComponentIdentity, AdlpError> {
        if let Some(existing) = self.load(id)? {
            return Ok(existing);
        }
        let identity = ComponentIdentity::generate(id.clone(), key_bits, rng);
        self.save(&identity)?;
        Ok(identity)
    }

    /// Loads an identity if its key file exists.
    ///
    /// # Errors
    ///
    /// Returns [`AdlpError::Crypto`] for corrupt key files (missing files
    /// are `Ok(None)`).
    pub fn load(&self, id: &NodeId) -> Result<Option<ComponentIdentity>, AdlpError> {
        let path = self.path_for(id);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(_) => return Err(AdlpError::Crypto(CryptoError::Malformed("key file"))),
        };
        let key = RsaPrivateKey::from_bytes(&bytes)?;
        Ok(Some(ComponentIdentity::from_parts(id.clone(), key)))
    }

    /// Persists an identity (owner-only permissions on Unix).
    ///
    /// # Errors
    ///
    /// Returns [`AdlpError::Crypto`] on write failure.
    pub fn save(&self, identity: &ComponentIdentity) -> Result<(), AdlpError> {
        let path = self.path_for(identity.id());
        let bytes = identity.private_key().to_bytes();
        write_private(&path, &bytes)
            .map_err(|_| AdlpError::Crypto(CryptoError::Malformed("key file (write)")))
    }

    /// Deletes a stored identity; `false` if none existed.
    pub fn remove(&self, id: &NodeId) -> bool {
        std::fs::remove_file(self.path_for(id)).is_ok()
    }
}

#[cfg(unix)]
fn write_private(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    use std::os::unix::fs::OpenOptionsExt;
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .mode(0o600)
        .open(path)?;
    f.write_all(bytes)
}

#[cfg(not(unix))]
fn write_private(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto::sha256;
    use rand::SeedableRng;

    fn tmpdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "adlp-keys-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn identity_survives_restart() {
        let store = IdentityStore::open(tmpdir()).unwrap();
        let id = NodeId::new("camera");
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let first = store.load_or_generate(&id, 512, &mut rng).unwrap();
        // "Restart": load again; the same key comes back.
        let second = store.load_or_generate(&id, 512, &mut rng).unwrap();
        assert_eq!(first.public_key(), second.public_key());
        // And it still signs identically.
        let d = sha256(b"frame");
        assert_eq!(
            first.sign_digest(&d).unwrap(),
            second.sign_digest(&d).unwrap()
        );
    }

    #[test]
    fn distinct_components_distinct_keys() {
        let store = IdentityStore::open(tmpdir()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = store
            .load_or_generate(&NodeId::new("a"), 512, &mut rng)
            .unwrap();
        let b = store
            .load_or_generate(&NodeId::new("b"), 512, &mut rng)
            .unwrap();
        assert_ne!(a.public_key(), b.public_key());
    }

    #[test]
    fn remove_forces_regeneration() {
        let store = IdentityStore::open(tmpdir()).unwrap();
        let id = NodeId::new("c");
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let first = store.load_or_generate(&id, 512, &mut rng).unwrap();
        assert!(store.remove(&id));
        assert!(!store.remove(&id));
        let second = store.load_or_generate(&id, 512, &mut rng).unwrap();
        assert_ne!(first.public_key(), second.public_key());
    }

    #[test]
    fn corrupt_key_file_rejected() {
        let dir = tmpdir();
        let store = IdentityStore::open(&dir).unwrap();
        let id = NodeId::new("d");
        let path = store.path_for(&id);
        std::fs::write(&path, b"garbage").unwrap();
        assert!(store.load(&id).is_err());
    }

    #[test]
    fn hostile_node_ids_are_safe_filenames() {
        let store = IdentityStore::open(tmpdir()).unwrap();
        let id = NodeId::new("../../../etc/passwd");
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let ident = store.load_or_generate(&id, 512, &mut rng).unwrap();
        assert_eq!(ident.id(), &id);
        // The file landed inside the store directory.
        assert!(store
            .path_for(&id)
            .parent()
            .unwrap()
            .ends_with(store.dir.file_name().unwrap()));
    }

    #[cfg(unix)]
    #[test]
    fn key_files_are_owner_only() {
        use std::os::unix::fs::PermissionsExt;
        let store = IdentityStore::open(tmpdir()).unwrap();
        let id = NodeId::new("perm");
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        store.load_or_generate(&id, 512, &mut rng).unwrap();
        let mode = std::fs::metadata(store.path_for(&id))
            .unwrap()
            .permissions()
            .mode();
        assert_eq!(mode & 0o777, 0o600);
    }
}
