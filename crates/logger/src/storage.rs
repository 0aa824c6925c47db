//! Storage abstraction for the durable logging layer.
//!
//! The paper's trusted logger "could be a remote log server, a local file,
//! or even a trusted hardware device" (§II-A) — but whatever the device, the
//! accountability guarantees only hold if an *acknowledged* deposit survives
//! a crash of the logger process or the machine under it. This module
//! abstracts the byte-level medium behind a [`Storage`] trait so the
//! write-ahead log ([`crate::wal`]) and snapshot rotation
//! ([`crate::durable`]) can run over:
//!
//! * [`FsStorage`] — real files in a directory (production form);
//! * [`MemStorage`] — an in-memory device that models the *durable vs.
//!   page-cache* distinction: bytes written but not yet synced are lost by
//!   [`MemStorage::crash`], exactly like a power failure;
//! * [`FaultyStorage`] — a deterministic, seeded wrapper injecting torn
//!   writes, short writes, fsync failures, and whole-device death, used by
//!   the crash-chaos harness in `adlp-sim`.
//!
//! All implementations are object-safe (`Arc<dyn Storage>`), so a logger
//! can be pointed at a faulty device in tests and a real one in production
//! without code changes.

use crate::LogError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn io_err(what: &str) -> impl Fn(std::io::Error) -> LogError + '_ {
    move |e| LogError::Io(format!("{what}: {e}"))
}

/// Byte-level storage device for the durability layer.
///
/// Files are flat (no directories) and named by the caller. Append-heavy by
/// design: the WAL only ever appends, syncs, and truncates; snapshots are
/// replaced atomically via [`Storage::write_replace`].
pub trait Storage: Send + Sync + std::fmt::Debug {
    /// Reads the full contents of `name`, or `None` if it does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] on device failure.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, LogError>;

    /// Appends `bytes` to `name`, creating it if absent. Appended bytes are
    /// *not* durable until [`Storage::sync`] succeeds.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] on device failure; a failed append may have
    /// persisted a prefix of `bytes` (a torn write).
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), LogError>;

    /// Makes everything previously appended to `name` durable.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the device refuses; the data may or
    /// may not survive a crash in that case.
    fn sync(&self, name: &str) -> Result<(), LogError>;

    /// Truncates `name` to exactly `len` bytes (a no-op if already shorter).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] on device failure.
    fn truncate(&self, name: &str, len: u64) -> Result<(), LogError>;

    /// Atomically replaces the contents of `name` with `bytes` (write to a
    /// sibling, sync, rename). After success the new contents are durable;
    /// after failure the old contents are intact.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] on device failure.
    fn write_replace(&self, name: &str, bytes: &[u8]) -> Result<(), LogError>;

    /// Removes `name`; missing files are not an error.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] on device failure.
    fn remove(&self, name: &str) -> Result<(), LogError>;

    /// Current size of `name` in bytes, or `None` if it does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] on device failure.
    fn size_of(&self, name: &str) -> Result<Option<u64>, LogError>;
}

/// Real files under a root directory.
#[derive(Debug, Clone)]
pub struct FsStorage {
    root: PathBuf,
}

impl FsStorage {
    /// Opens (creating if needed) a storage root directory.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, LogError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(io_err("create storage root"))?;
        Ok(Self { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Makes directory-entry changes (file creation, rename) durable. A
    /// rename is only crash-durable once the directory itself is synced;
    /// without this, a power failure can undo [`Storage::write_replace`]
    /// even though the call reported success. On non-Unix platforms
    /// directory handles cannot be synced, so this is a no-op there and
    /// rename durability is filesystem-dependent.
    fn sync_dir(&self) -> Result<(), LogError> {
        #[cfg(unix)]
        {
            let dir = File::open(&self.root).map_err(io_err("open storage root for sync"))?;
            dir.sync_all().map_err(io_err("sync storage root"))
        }
        #[cfg(not(unix))]
        Ok(())
    }
}

impl Storage for FsStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, LogError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read storage file")(e)),
        }
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), LogError> {
        let path = self.path(name);
        let created = !path.exists();
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err("open storage file for append"))?;
        f.write_all(bytes).map_err(io_err("append storage bytes"))?;
        if created {
            // The new directory entry must be durable too, or a crash after
            // a successful sync() could lose the whole file.
            self.sync_dir()?;
        }
        Ok(())
    }

    fn sync(&self, name: &str) -> Result<(), LogError> {
        // A writable handle: Windows' FlushFileBuffers rejects read-only
        // handles, and sync_all is free to require write access elsewhere.
        let f = OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .map_err(io_err("open storage file for sync"))?;
        f.sync_all().map_err(io_err("sync storage file"))
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), LogError> {
        let f = OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .map_err(io_err("open storage file for truncate"))?;
        f.set_len(len).map_err(io_err("truncate storage file"))
    }

    fn write_replace(&self, name: &str, bytes: &[u8]) -> Result<(), LogError> {
        let tmp = self.path(&format!("{name}.tmp"));
        let result = (|| {
            let mut f = File::create(&tmp).map_err(io_err("create storage temp file"))?;
            f.write_all(bytes)
                .map_err(io_err("write storage temp file"))?;
            f.sync_all().map_err(io_err("sync storage temp file"))?;
            std::fs::rename(&tmp, self.path(name))
                .map_err(io_err("rename storage file into place"))?;
            // Without a directory sync the rename itself may not survive a
            // power failure — and an un-ordered rotation could then persist
            // the WAL reset but not the snapshot, losing acked entries.
            self.sync_dir()
        })();
        if result.is_err() {
            // adlp-lint: allow(discarded-fallible) — cleanup of an orphan after a reported failure; nothing further to do if it also fails
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    fn remove(&self, name: &str) -> Result<(), LogError> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove storage file")(e)),
        }
    }

    fn size_of(&self, name: &str) -> Result<Option<u64>, LogError> {
        match std::fs::metadata(self.path(name)) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("stat storage file")(e)),
        }
    }
}

#[derive(Debug, Default, Clone)]
struct MemFile {
    bytes: Vec<u8>,
    /// How many leading bytes are durable (survive [`MemStorage::crash`]).
    synced: usize,
}

/// An in-memory device that models the durable/page-cache split.
///
/// Appends land in the file but are only *durable* once synced; a
/// [`MemStorage::crash`] discards every unsynced suffix, like a power
/// failure would. [`Storage::write_replace`] is atomic and immediately
/// durable, matching the write-temp/sync/rename discipline of the real
/// filesystem backend.
#[derive(Debug, Clone)]
pub struct MemStorage {
    files: Arc<Mutex<HashMap<String, MemFile>>>,
}

impl Default for MemStorage {
    fn default() -> Self {
        // `Arc::new`, not the derived `Arc::default()`, so this lock's
        // debug-build class is this line rather than a line inside std.
        MemStorage {
            files: Arc::new(Mutex::default()),
        }
    }
}

impl MemStorage {
    /// Creates an empty in-memory device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates a power failure: every file loses its unsynced suffix.
    /// Returns how many bytes were discarded across all files.
    pub fn crash(&self) -> u64 {
        let mut files = self.files.lock();
        let mut dropped = 0u64;
        for f in files.values_mut() {
            dropped += (f.bytes.len() - f.synced) as u64;
            f.bytes.truncate(f.synced);
        }
        dropped
    }

    /// Durable bytes of `name` right now (what a crash would preserve).
    pub fn durable_len(&self, name: &str) -> u64 {
        self.files.lock().get(name).map_or(0, |f| f.synced as u64)
    }

    /// Test/forensics helper: flip one byte at `offset` in `name`,
    /// simulating silent media corruption. Returns `false` when the file or
    /// offset does not exist.
    #[doc(hidden)]
    pub fn corrupt_byte(&self, name: &str, offset: usize, xor: u8) -> bool {
        let mut files = self.files.lock();
        match files.get_mut(name).and_then(|f| f.bytes.get_mut(offset)) {
            Some(b) => {
                *b ^= xor;
                true
            }
            None => false,
        }
    }
}

impl Storage for MemStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, LogError> {
        Ok(self.files.lock().get(name).map(|f| f.bytes.clone()))
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), LogError> {
        let mut files = self.files.lock();
        files
            .entry(name.to_string())
            .or_default()
            .bytes
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self, name: &str) -> Result<(), LogError> {
        let mut files = self.files.lock();
        match files.get_mut(name) {
            Some(f) => {
                f.synced = f.bytes.len();
                Ok(())
            }
            None => Err(LogError::Io(format!(
                "sync storage file: no such file {name}"
            ))),
        }
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), LogError> {
        let mut files = self.files.lock();
        match files.get_mut(name) {
            Some(f) => {
                let len = len as usize;
                if len < f.bytes.len() {
                    f.bytes.truncate(len);
                }
                f.synced = f.synced.min(f.bytes.len());
                Ok(())
            }
            None => Err(LogError::Io(format!(
                "truncate storage file: no such file {name}"
            ))),
        }
    }

    fn write_replace(&self, name: &str, bytes: &[u8]) -> Result<(), LogError> {
        let mut files = self.files.lock();
        files.insert(
            name.to_string(),
            MemFile {
                synced: bytes.len(),
                bytes: bytes.to_vec(),
            },
        );
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), LogError> {
        self.files.lock().remove(name);
        Ok(())
    }

    fn size_of(&self, name: &str) -> Result<Option<u64>, LogError> {
        Ok(self.files.lock().get(name).map(|f| f.bytes.len() as u64))
    }
}

/// SplitMix64 — the same tiny deterministic generator the fault-injection
/// transport uses, inlined so the logger crate needs no RNG dependency.
#[derive(Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; `bound` 0 yields 0.
    fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            0
        } else {
            (self.next_u64() % bound as u64) as usize
        }
    }
}

/// Fault plan for a [`FaultyStorage`], drawn deterministically from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct StorageFaultConfig {
    /// Seed for the device's private SplitMix64 stream.
    pub seed: u64,
    /// Probability an append persists only a random prefix and reports
    /// failure (a torn write the caller *knows* about).
    pub torn_write_rate: f64,
    /// Probability an append persists only a random prefix but reports
    /// success (a lying disk; only the WAL checksums catch it at recovery).
    pub short_write_rate: f64,
    /// Probability a sync reports failure without making bytes durable.
    pub fsync_failure_rate: f64,
    /// After this many operations the whole device fails permanently
    /// (crash-at-offset in operation space); `None` disables.
    pub die_after_ops: Option<u64>,
}

impl StorageFaultConfig {
    /// A fault-free plan (useful as a baseline with the same wiring).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            torn_write_rate: 0.0,
            short_write_rate: 0.0,
            fsync_failure_rate: 0.0,
            die_after_ops: None,
        }
    }
}

/// Injected-fault counters a test can interrogate after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Torn writes injected (prefix persisted, error reported).
    pub torn_writes: u64,
    /// Short writes injected (prefix persisted, success reported).
    pub short_writes: u64,
    /// Sync calls failed without making data durable.
    pub fsync_failures: u64,
    /// Operations refused because the device died.
    pub dead_ops: u64,
}

/// A deterministic fault-injecting wrapper over any [`Storage`].
///
/// Every operation consumes the device's private seeded stream, so a given
/// `(seed, operation sequence)` reproduces the same faults — the crash-chaos
/// harness depends on this to replay a failure found in CI.
#[derive(Debug)]
pub struct FaultyStorage {
    inner: Arc<dyn Storage>,
    config: Mutex<StorageFaultConfig>,
    rng: Mutex<SplitMix64>,
    ops: AtomicU64,
    torn_writes: AtomicU64,
    short_writes: AtomicU64,
    fsync_failures: AtomicU64,
    dead_ops: AtomicU64,
}

impl FaultyStorage {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: Arc<dyn Storage>, config: StorageFaultConfig) -> Self {
        Self {
            inner,
            rng: Mutex::new(SplitMix64(config.seed ^ 0xad1f_57a6_0000_0001)),
            config: Mutex::new(config),
            ops: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
            short_writes: AtomicU64::new(0),
            fsync_failures: AtomicU64::new(0),
            dead_ops: AtomicU64::new(0),
        }
    }

    /// What was injected so far.
    pub fn injected(&self) -> InjectedFaults {
        InjectedFaults {
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
            fsync_failures: self.fsync_failures.load(Ordering::Relaxed),
            dead_ops: self.dead_ops.load(Ordering::Relaxed),
        }
    }

    /// Switches every fault off, death included: from here on the device
    /// behaves like the one it wraps (an outage that ended).
    pub fn heal(&self) {
        let mut config = self.config.lock();
        *config = StorageFaultConfig::none(config.seed);
    }

    /// Counts an operation; `Err` if the device has died.
    fn tick(&self) -> Result<(), LogError> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let die_after_ops = self.config.lock().die_after_ops;
        if let Some(limit) = die_after_ops {
            if op >= limit {
                self.dead_ops.fetch_add(1, Ordering::Relaxed);
                return Err(LogError::Io("storage device died".into()));
            }
        }
        Ok(())
    }
}

impl Storage for FaultyStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, LogError> {
        self.tick()?;
        self.inner.read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), LogError> {
        self.tick()?;
        let config = *self.config.lock();
        let (torn, short, cut) = {
            let mut rng = self.rng.lock();
            let torn = rng.next_f64() < config.torn_write_rate;
            let short = !torn && rng.next_f64() < config.short_write_rate;
            let cut = rng.below(bytes.len());
            (torn, short, cut)
        };
        if torn {
            self.torn_writes.fetch_add(1, Ordering::Relaxed);
            self.inner.append(name, bytes.get(..cut).unwrap_or(bytes))?;
            return Err(LogError::Io("torn write (injected)".into()));
        }
        if short {
            self.short_writes.fetch_add(1, Ordering::Relaxed);
            return self.inner.append(name, bytes.get(..cut).unwrap_or(bytes));
        }
        self.inner.append(name, bytes)
    }

    fn sync(&self, name: &str) -> Result<(), LogError> {
        self.tick()?;
        let rate = self.config.lock().fsync_failure_rate;
        let fail = self.rng.lock().next_f64() < rate;
        if fail {
            self.fsync_failures.fetch_add(1, Ordering::Relaxed);
            return Err(LogError::Io("fsync failed (injected)".into()));
        }
        self.inner.sync(name)
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), LogError> {
        self.tick()?;
        self.inner.truncate(name, len)
    }

    fn write_replace(&self, name: &str, bytes: &[u8]) -> Result<(), LogError> {
        self.tick()?;
        let rate = self.config.lock().fsync_failure_rate;
        let fail = self.rng.lock().next_f64() < rate;
        if fail {
            // Atomic replace aborts cleanly before the rename: old contents
            // stay intact, which is the whole point of the discipline.
            self.fsync_failures.fetch_add(1, Ordering::Relaxed);
            return Err(LogError::Io("snapshot sync failed (injected)".into()));
        }
        self.inner.write_replace(name, bytes)
    }

    fn remove(&self, name: &str) -> Result<(), LogError> {
        self.tick()?;
        self.inner.remove(name)
    }

    fn size_of(&self, name: &str) -> Result<Option<u64>, LogError> {
        self.tick()?;
        self.inner.size_of(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "adlp-storage-{}-{}",
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
    fn fs_storage_roundtrip() {
        let fs = FsStorage::open(tmpdir()).unwrap();
        assert_eq!(fs.read("a").unwrap(), None);
        assert_eq!(fs.size_of("a").unwrap(), None);
        fs.append("a", b"hello ").unwrap();
        fs.append("a", b"world").unwrap();
        fs.sync("a").unwrap();
        assert_eq!(fs.read("a").unwrap().unwrap(), b"hello world");
        assert_eq!(fs.size_of("a").unwrap(), Some(11));
        fs.truncate("a", 5).unwrap();
        assert_eq!(fs.read("a").unwrap().unwrap(), b"hello");
        fs.write_replace("a", b"new").unwrap();
        assert_eq!(fs.read("a").unwrap().unwrap(), b"new");
        fs.remove("a").unwrap();
        fs.remove("a").unwrap(); // idempotent
        assert_eq!(fs.read("a").unwrap(), None);
    }

    #[test]
    fn mem_storage_crash_drops_unsynced_suffix() {
        let mem = MemStorage::new();
        mem.append("wal", b"durable").unwrap();
        mem.sync("wal").unwrap();
        mem.append("wal", b" volatile").unwrap();
        assert_eq!(mem.durable_len("wal"), 7);
        let dropped = mem.crash();
        assert_eq!(dropped, 9);
        assert_eq!(mem.read("wal").unwrap().unwrap(), b"durable");
    }

    #[test]
    fn mem_storage_write_replace_is_durable() {
        let mem = MemStorage::new();
        mem.append("snap", b"old").unwrap();
        mem.write_replace("snap", b"replaced").unwrap();
        mem.crash();
        assert_eq!(mem.read("snap").unwrap().unwrap(), b"replaced");
    }

    #[test]
    fn mem_storage_truncate_clamps_synced() {
        let mem = MemStorage::new();
        mem.append("f", b"0123456789").unwrap();
        mem.sync("f").unwrap();
        mem.truncate("f", 4).unwrap();
        assert_eq!(mem.durable_len("f"), 4);
        mem.crash();
        assert_eq!(mem.read("f").unwrap().unwrap(), b"0123");
    }

    #[test]
    fn faulty_storage_is_deterministic() {
        let run = |seed| {
            let mem = Arc::new(MemStorage::new());
            let faulty = FaultyStorage::new(
                mem.clone(),
                StorageFaultConfig {
                    seed,
                    torn_write_rate: 0.3,
                    short_write_rate: 0.2,
                    fsync_failure_rate: 0.25,
                    die_after_ops: None,
                },
            );
            for i in 0..50u8 {
                // adlp-lint: allow(discarded-fallible) — injected failures are the point of this test; outcomes are compared via counters
                let _ = faulty.append("wal", &[i; 16]);
                // adlp-lint: allow(discarded-fallible) — injected failures are the point of this test; outcomes are compared via counters
                let _ = faulty.sync("wal");
            }
            (faulty.injected(), mem.read("wal").unwrap())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn faulty_storage_torn_write_persists_prefix_and_errors() {
        let mem = Arc::new(MemStorage::new());
        let faulty = FaultyStorage::new(
            mem.clone(),
            StorageFaultConfig {
                seed: 3,
                torn_write_rate: 1.0,
                short_write_rate: 0.0,
                fsync_failure_rate: 0.0,
                die_after_ops: None,
            },
        );
        assert!(faulty.append("wal", &[0xAA; 32]).is_err());
        assert_eq!(faulty.injected().torn_writes, 1);
        let persisted = mem.read("wal").unwrap().unwrap_or_default();
        assert!(
            persisted.len() < 32,
            "torn write must not persist everything"
        );
    }

    #[test]
    fn faulty_storage_device_death_is_permanent() {
        let mem = Arc::new(MemStorage::new());
        let mut cfg = StorageFaultConfig::none(1);
        cfg.die_after_ops = Some(2);
        let faulty = FaultyStorage::new(mem, cfg);
        assert!(faulty.append("wal", b"a").is_ok());
        assert!(faulty.append("wal", b"b").is_ok());
        assert!(faulty.append("wal", b"c").is_err());
        assert!(faulty.sync("wal").is_err());
        assert_eq!(faulty.injected().dead_ops, 2);
    }
}
