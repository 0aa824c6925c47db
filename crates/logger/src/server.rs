//! The log server.
//!
//! Components *push* entries into the server over a channel and never wait
//! for it — "there is no dependence of the ROS side on the log server; log
//! entries are simply pushed into the server. Hence, ADLP is free from a
//! single-point failure" (§V-B). The server thread encodes, accounts, and
//! appends each entry to the tamper-evident [`LogStore`].

use crate::durable::{Appended, DurabilityConfig, DurableLog, Recovery};
use crate::entry::{EncodedEntry, LogEntry};
use crate::keyreg::KeyRegistry;
use crate::stats::LogStats;
use crate::store::LogStore;
use crate::LogError;
use adlp_crypto::RsaPublicKey;
use adlp_pubsub::NodeId;
use crossbeam::channel::{Receiver, Sender, TryRecvError};
use std::collections::VecDeque;
use std::thread::JoinHandle;

/// Default bound on the server's fire-and-forget deposit backlog.
///
/// Submissions beyond this many queued-but-unprocessed appends are refused
/// (and counted as `shed`) instead of growing the backlog without limit —
/// the admission-control half of the overload story. Synchronous commands
/// (durable appends, adoptions, key registrations, flushes) are exempt:
/// their callers block on the reply, so they are backpressured naturally.
pub const DEFAULT_QUEUE_BOUND: usize = 16_384;

/// What became of a fire-and-forget deposit.
///
/// The push path is still non-blocking and infallible in the `Result` sense
/// — a dead logger must not disturb the data distribution system — but the
/// caller is told (and must acknowledge) when the entry did not reach a
/// live server, instead of the loss being visible only in [`LogStats`].
#[must_use = "a lost deposit must be handled (or explicitly acknowledged) by the caller"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Handed to a live server thread. The server may still refuse it at
    /// admission if its bounded backlog is full — that refusal is counted
    /// in [`crate::VolumeSnapshot::shed`].
    Accepted,
    /// The server thread is gone; the entry was dropped and counted in
    /// [`crate::VolumeSnapshot::lost`].
    Lost,
}

impl SubmitOutcome {
    /// Whether the entry reached a live server.
    pub fn is_accepted(self) -> bool {
        matches!(self, SubmitOutcome::Accepted)
    }
}

enum Command {
    Append(Box<LogEntry>),
    /// Append that is only acknowledged once the entry is as durable as
    /// the server's [`crate::SyncPolicy`] promises.
    AppendDurable(Box<LogEntry>, Sender<Result<(), LogError>>),
    /// Append an already-encoded record through the durable path — used by
    /// cluster catch-up to transplant quorum records into a lagging
    /// replica without re-signing anything. The entry is the record's
    /// decode, kept for volume accounting.
    Adopt(Box<LogEntry>, EncodedEntry, Sender<Result<(), LogError>>),
    /// Truncate the store back to a length, durably (snapshot + WAL reset
    /// on a durable server) — used by cluster catch-up to back out an
    /// adoption that raced a concurrent deposit. Runs on the server thread,
    /// so it serializes with appends instead of racing them.
    Rollback(usize, Sender<Result<(), LogError>>),
    RegisterKey(NodeId, Box<RsaPublicKey>, Sender<Result<(), LogError>>),
    /// Seal an STH epoch now (requires an attached publisher). Runs on the
    /// server thread, so the sealed head reflects a quiesced prefix — no
    /// append is half-applied when the head is signed.
    SealEpoch(Sender<Result<crate::sth::SignedTreeHead, LogError>>),
    Flush(Sender<()>),
    /// Simulates a log-server crash: the worker exits immediately,
    /// abandoning anything still queued.
    Terminate,
}

/// An STH publisher attached to a log server, with its pacing policy.
#[derive(Debug, Clone)]
struct SthAttachment {
    publisher: std::sync::Arc<crate::sth::SthPublisher>,
    /// Seal an epoch automatically after this many appends; 0 = only on
    /// explicit [`LoggerHandle::seal_epoch`] calls.
    seal_every: u64,
}

/// Cheap-to-clone handle components use to talk to the server.
#[derive(Debug, Clone)]
pub struct LoggerHandle {
    tx: Sender<Command>,
    keys: KeyRegistry,
    stats: LogStats,
    store: LogStore,
    /// Shared with the server thread, which reads it on every append.
    sth: std::sync::Arc<parking_lot::Mutex<Option<SthAttachment>>>,
    /// Forensic recording tap, shared with the server thread: every entry
    /// that enters the store is also framed into the recording (failures
    /// counted on the recorder, never fatal to the deposit).
    recorder:
        std::sync::Arc<parking_lot::Mutex<Option<std::sync::Arc<crate::recording::Recorder>>>>,
}

impl LoggerHandle {
    /// Pushes a log entry; never blocks on server-side work. A dead logger
    /// must not disturb the data distribution system, so failures do not
    /// propagate as errors — but they are counted in [`LogStats`] *and*
    /// surfaced to the caller as [`SubmitOutcome::Lost`], never silent.
    pub fn submit(&self, entry: LogEntry) -> SubmitOutcome {
        if self.tx.send(Command::Append(Box::new(entry))).is_err() {
            self.stats.note_lost();
            return SubmitOutcome::Lost;
        }
        SubmitOutcome::Accepted
    }

    /// Like [`LoggerHandle::submit`], but reports whether a live server
    /// accepted the entry instead of counting the loss here. Replicated
    /// deployments (`adlp-cluster`) use this to observe per-replica
    /// acceptance for quorum accounting; the caller owns the loss
    /// bookkeeping for a refused entry.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::ServerClosed`] when the server thread is gone.
    pub fn try_submit(&self, entry: LogEntry) -> Result<(), LogError> {
        self.tx
            .send(Command::Append(Box::new(entry)))
            .map_err(|_| LogError::ServerClosed)
    }

    /// Registers a component's public key (paper §V-B step 1), waiting for
    /// the server's acknowledgement.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::KeyConflict`] for a conflicting re-registration
    /// or [`LogError::ServerClosed`] if the server is gone.
    pub fn register_key(&self, component: &NodeId, key: RsaPublicKey) -> Result<(), LogError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.tx
            .send(Command::RegisterKey(component.clone(), Box::new(key), tx))
            .map_err(|_| LogError::ServerClosed)?;
        rx.recv().map_err(|_| LogError::ServerClosed)?
    }

    /// Pushes a log entry and waits until it is as durable as the server's
    /// [`crate::SyncPolicy`] promises — in the WAL (and synced, under
    /// `EveryAppend`) *before* this returns. On a server without a durable
    /// backend this degrades to "accepted into the in-memory store".
    ///
    /// # Errors
    ///
    /// Returns [`LogError::ServerClosed`] when the server thread is gone,
    /// or [`LogError::Io`] when the entry could not be made durable (the
    /// entry may still be in the volatile store; it must not be treated as
    /// durably acknowledged).
    pub fn submit_durable(&self, entry: LogEntry) -> Result<(), LogError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.tx
            .send(Command::AppendDurable(Box::new(entry), tx))
            .map_err(|_| LogError::ServerClosed)?;
        rx.recv().map_err(|_| LogError::ServerClosed)?
    }

    /// Appends an already-encoded record through the durable path, waiting
    /// for the acknowledgement. Cluster catch-up uses this to copy quorum
    /// records byte-for-byte into a lagging replica: `encoded` is what the
    /// store commits, and `entry` (its decode, from
    /// [`LogEntry::decode_record`]) feeds the volume accounting.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::ServerClosed`] when the server is gone, or
    /// [`LogError::Io`] when durability could not be achieved.
    pub fn adopt_encoded(&self, entry: LogEntry, encoded: EncodedEntry) -> Result<(), LogError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.tx
            .send(Command::Adopt(Box::new(entry), encoded, tx))
            .map_err(|_| LogError::ServerClosed)?;
        rx.recv().map_err(|_| LogError::ServerClosed)?
    }

    /// Truncates the log back to `len` records, undoing later appends —
    /// the cluster catch-up rollback path. On a durable server the
    /// truncation is made durable too (fresh snapshot, WAL reset), so a
    /// later recovery cannot resurrect the rolled-back suffix; a rollback
    /// whose durable half fails marks the device broken rather than
    /// leaving disk and memory silently divergent. Never used by the
    /// normal append path, which stays append-only.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::NoSuchEntry`] when `len` exceeds the current
    /// record count, [`LogError::ServerClosed`] when the server thread is
    /// gone, or [`LogError::Io`] when the truncation could not be made
    /// durable.
    pub fn rollback_to(&self, len: usize) -> Result<(), LogError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.tx
            .send(Command::Rollback(len, tx))
            .map_err(|_| LogError::ServerClosed)?;
        rx.recv().map_err(|_| LogError::ServerClosed)?
    }

    /// Blocks until every entry submitted before this call is stored.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::ServerClosed`] if the server is gone.
    pub fn flush(&self) -> Result<(), LogError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.tx
            .send(Command::Flush(tx))
            .map_err(|_| LogError::ServerClosed)?;
        rx.recv().map_err(|_| LogError::ServerClosed)
    }

    /// The key registry (shared with the server).
    pub fn keys(&self) -> &KeyRegistry {
        &self.keys
    }

    /// Volume accounting (shared with the server).
    pub fn stats(&self) -> &LogStats {
        &self.stats
    }

    /// The underlying store (shared with the server). Reads are safe at any
    /// time; the auditor uses this view.
    pub fn store(&self) -> &LogStore {
        &self.store
    }

    /// Attaches an STH publisher to the server: the server seals an epoch
    /// through it after every `seal_every` appends (0 = manual sealing
    /// only, via [`LoggerHandle::seal_epoch`]). The publisher should be
    /// [`crate::sth::SthPublisher::paced`] and built over this server's
    /// store — pacing is the whole point of routing emission through the
    /// append loop instead of signing on every observer probe.
    pub fn attach_sth(&self, publisher: std::sync::Arc<crate::sth::SthPublisher>, seal_every: u64) {
        *self.sth.lock() = Some(SthAttachment {
            publisher,
            seal_every,
        });
    }

    /// The attached STH publisher, for wiring witnesses and light clients.
    pub fn sth(&self) -> Option<std::sync::Arc<crate::sth::SthPublisher>> {
        self.sth
            .lock()
            .as_ref()
            .map(|a| std::sync::Arc::clone(&a.publisher))
    }

    /// Attaches a forensic [`crate::recording::Recorder`]: from now on,
    /// every entry that enters the store (fire-and-forget, durable, or
    /// adopted) is also framed into the recording under the recorder's
    /// current epoch. Recording failures are counted on the recorder and
    /// never disturb the deposit they shadow.
    pub fn attach_recorder(&self, recorder: std::sync::Arc<crate::recording::Recorder>) {
        *self.recorder.lock() = Some(recorder);
    }

    /// The attached recorder, for epoch bumps and window extraction.
    pub fn recorder(&self) -> Option<std::sync::Arc<crate::recording::Recorder>> {
        self.recorder.lock().clone()
    }

    /// Seals an STH epoch on the server thread, after everything already
    /// queued ahead of this call has been applied. Returns the sealed head.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when no publisher is attached or
    /// signing fails, and [`LogError::Io`] when the server is gone.
    pub fn seal_epoch(&self) -> Result<crate::sth::SignedTreeHead, LogError> {
        let (reply, verdict) = crossbeam::channel::bounded(1);
        self.tx
            .send(Command::SealEpoch(reply))
            .map_err(|_| LogError::Io("log server unavailable".into()))?;
        verdict
            .recv()
            .map_err(|_| LogError::Io("log server dropped the seal".into()))?
    }
}

/// A durable server plus the account of the recovery that produced it.
#[derive(Debug)]
pub struct DurableSpawn {
    /// The running server, its store seeded from recovery.
    pub server: LogServer,
    /// What recovery found: replayed/skipped/truncated records and whether
    /// the snapshot's Merkle root verified.
    pub recovery: Recovery,
}

/// The trusted logger service.
#[derive(Debug)]
pub struct LogServer {
    handle: LoggerHandle,
    worker: Option<JoinHandle<()>>,
}

impl LogServer {
    /// Spawns the server thread and returns the service.
    ///
    /// # Example
    ///
    /// ```
    /// use adlp_logger::{LogServer, LogEntry, Direction, SubmitOutcome};
    /// use adlp_pubsub::{NodeId, Topic};
    ///
    /// let server = LogServer::spawn();
    /// let handle = server.handle();
    /// let outcome = handle.submit(LogEntry::naive(
    ///     NodeId::new("camera"), Topic::new("image"),
    ///     Direction::Out, 1, 42, vec![0u8; 8],
    /// ));
    /// assert_eq!(outcome, SubmitOutcome::Accepted);
    /// handle.flush().unwrap();
    /// assert_eq!(handle.store().len(), 1);
    /// ```
    #[allow(
        clippy::expect_used,
        reason = "documented startup panic; try_spawn is the fallible alternative"
    )]
    pub fn spawn() -> Self {
        // Public constructor kept infallible for API compatibility; thread
        // creation only fails when the OS is out of resources, before any
        // protocol traffic exists. Fallible callers use `try_spawn`.
        Self::try_spawn().expect("spawn log server")
    }

    /// Like [`LogServer::spawn`], but reports thread-creation failure
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the OS refuses to create the thread.
    pub fn try_spawn() -> Result<Self, LogError> {
        Self::try_spawn_with_keys(KeyRegistry::new())
    }

    /// Like [`LogServer::try_spawn`], but shares an externally owned
    /// [`KeyRegistry`] instead of creating a fresh one. Replica groups
    /// (`adlp-cluster`) spawn every backend over one registry so a key
    /// registered once is honored by all replicas.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the OS refuses to create the thread.
    pub fn try_spawn_with_keys(keys: KeyRegistry) -> Result<Self, LogError> {
        Self::spawn_inner(
            keys,
            LogStats::new(),
            LogStore::new(),
            None,
            DEFAULT_QUEUE_BOUND,
        )
    }

    /// Spawns a server over a crash-safe backend: recovery runs first
    /// (snapshot load + WAL replay + torn-tail truncation + Merkle
    /// reconciliation, see [`DurableLog::open`]), then the server starts on
    /// the recovered store. Every deposit is WAL-appended *before* the
    /// store append, so [`LoggerHandle::submit_durable`] acknowledgements
    /// survive a crash.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] for a foreign snapshot/WAL file,
    /// or [`LogError::Io`] on device failure during recovery or when the
    /// OS refuses to create the thread.
    pub fn try_spawn_durable(
        keys: KeyRegistry,
        config: &DurabilityConfig,
    ) -> Result<DurableSpawn, LogError> {
        let (durable, store, recovery) = DurableLog::open(config)?;
        let stats = LogStats::with_durability(config.counters.clone());
        let server = Self::spawn_inner(keys, stats, store, Some(durable), DEFAULT_QUEUE_BOUND)?;
        Ok(DurableSpawn { server, recovery })
    }

    fn spawn_inner(
        keys: KeyRegistry,
        stats: LogStats,
        store: LogStore,
        durable: Option<DurableLog>,
        queue_bound: usize,
    ) -> Result<Self, LogError> {
        let (tx, rx) = crossbeam::channel::unbounded();
        let sth = std::sync::Arc::new(parking_lot::Mutex::new(None));
        let recorder = std::sync::Arc::new(parking_lot::Mutex::new(None));
        let handle = LoggerHandle {
            tx,
            keys: keys.clone(),
            stats: stats.clone(),
            store: store.clone(),
            sth: std::sync::Arc::clone(&sth),
            recorder: std::sync::Arc::clone(&recorder),
        };
        let worker = std::thread::Builder::new()
            .name("adlp-log-server".into())
            .spawn(move || {
                Self::serve(
                    rx,
                    keys,
                    stats,
                    store,
                    durable,
                    queue_bound.max(1),
                    sth,
                    recorder,
                )
            })
            .map_err(|e| LogError::Io(format!("spawn log server: {e}")))?;
        Ok(LogServer {
            handle,
            worker: Some(worker),
        })
    }

    /// Appends `encoded` through the WAL (when one is configured) and then
    /// the store, keeping the invariant *store index == WAL index*: an
    /// entry refused by the WAL never enters the store, so WAL replay is
    /// gap-free.
    fn append_pipeline(
        durable: &mut Option<DurableLog>,
        store: &LogStore,
        encoded: &EncodedEntry,
    ) -> Result<Appended, LogError> {
        let outcome = match durable.as_mut() {
            Some(d) => {
                let outcome = d.append(store.len() as u64, encoded.as_bytes())?;
                store.append_encoded(encoded.as_bytes().to_vec());
                d.maybe_rotate(store);
                outcome
            }
            None => {
                store.append_encoded(encoded.as_bytes().to_vec());
                Appended::SyncSkipped
            }
        };
        Ok(outcome)
    }

    /// What a durable append tells its waiting caller: an entry in the WAL
    /// and the store but not provably on the platter is stored (indices
    /// must stay aligned) yet not acknowledged as durable.
    fn durable_verdict(appended: Result<Appended, LogError>) -> Result<(), LogError> {
        match appended? {
            Appended::SyncFailed => Err(LogError::Io("wal sync failed; entry not durable".into())),
            _ => Ok(()),
        }
    }

    /// Moves one arriving command into the backlog, refusing fire-and-forget
    /// appends beyond `bound` queued entries (newest-first: the arriving
    /// entry is the one shed, preserving the oldest backlog — those entries
    /// were acknowledged into the pipeline first). Refusals are counted,
    /// never silent. Synchronous commands are always admitted: their
    /// senders block on the reply, so they cannot pile up unboundedly.
    fn admit(
        cmd: Command,
        backlog: &mut VecDeque<Command>,
        appends_queued: &mut usize,
        bound: usize,
        stats: &LogStats,
    ) {
        match cmd {
            Command::Append(entry) => {
                if *appends_queued >= bound {
                    drop(entry);
                    stats.note_shed();
                } else {
                    *appends_queued += 1;
                    backlog.push_back(Command::Append(entry));
                }
            }
            other => backlog.push_back(other),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn serve(
        rx: Receiver<Command>,
        keys: KeyRegistry,
        stats: LogStats,
        store: LogStore,
        mut durable: Option<DurableLog>,
        bound: usize,
        sth: std::sync::Arc<parking_lot::Mutex<Option<SthAttachment>>>,
        recorder: std::sync::Arc<
            parking_lot::Mutex<Option<std::sync::Arc<crate::recording::Recorder>>>,
        >,
    ) {
        // The channel is only a transfer buffer: each iteration eagerly
        // drains it into an explicit bounded backlog (where admission
        // control applies), then processes the oldest queued command. FIFO
        // order is preserved for everything that is admitted.
        let mut backlog: VecDeque<Command> = VecDeque::new();
        let mut appends_queued = 0usize;
        // Appends applied since the last automatic epoch seal.
        let mut appends_since_seal = 0u64;
        // Seals an epoch when the attachment's pacing says it is due.
        // Failures (signing refused) are not fatal to the append path: the
        // previous sealed head simply stays in force, which observers treat
        // as a quiet epoch.
        let maybe_seal = |appends_since_seal: &mut u64| {
            let attachment = sth.lock().clone();
            if let Some(a) = attachment {
                if a.seal_every > 0 && *appends_since_seal >= a.seal_every {
                    // adlp-lint: allow(discarded-fallible) — a refused seal leaves the prior epoch head in force, which is a legal (stale) view
                    let _ = a.publisher.seal_epoch();
                    *appends_since_seal = 0;
                }
            }
        };
        // Forensic tap: every entry that entered the store is also framed
        // into the recording (when one is attached). The recorder counts
        // its own failures — recording never fails the deposit it shadows.
        let record_tap = |encoded: &[u8]| {
            if let Some(r) = recorder.lock().clone() {
                r.record(encoded);
            }
        };
        // Appends one entry and accounts for it: a stored entry is counted,
        // recorded and paced toward the next seal; one the WAL refused
        // (torn write / dead device) is not stored and is counted lost,
        // like a submission to a dead server.
        let store_entry = |durable: &mut Option<DurableLog>,
                           entry: &LogEntry,
                           encoded: &EncodedEntry,
                           appends_since_seal: &mut u64| {
            let appended = Self::append_pipeline(durable, &store, encoded);
            match appended {
                Ok(_) => {
                    stats.record(&entry.component, &entry.topic, encoded.as_bytes().len());
                    record_tap(encoded.as_bytes());
                    *appends_since_seal += 1;
                }
                Err(_) => stats.note_lost(),
            }
            appended
        };
        loop {
            if backlog.is_empty() {
                match rx.recv() {
                    Ok(cmd) => Self::admit(cmd, &mut backlog, &mut appends_queued, bound, &stats),
                    // Every handle is gone and nothing is queued: done.
                    Err(_) => return,
                }
            }
            let mut disconnected = false;
            loop {
                match rx.try_recv() {
                    Ok(cmd) => Self::admit(cmd, &mut backlog, &mut appends_queued, bound, &stats),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        disconnected = true;
                        break;
                    }
                }
            }
            stats.note_queue_depth(appends_queued as u64);
            let Some(cmd) = backlog.pop_front() else {
                if disconnected {
                    return;
                }
                continue;
            };
            if matches!(cmd, Command::Append(_)) {
                appends_queued -= 1;
            }
            match cmd {
                Command::Append(entry) => {
                    let encoded = entry.encoded();
                    if store_entry(&mut durable, &entry, &encoded, &mut appends_since_seal).is_ok()
                    {
                        maybe_seal(&mut appends_since_seal);
                    }
                }
                Command::AppendDurable(entry, reply) => {
                    let encoded = entry.encoded();
                    let appended =
                        store_entry(&mut durable, &entry, &encoded, &mut appends_since_seal);
                    maybe_seal(&mut appends_since_seal);
                    // adlp-lint: allow(discarded-fallible) — the depositing caller may have stopped waiting for its verdict
                    let _ = reply.send(Self::durable_verdict(appended));
                }
                Command::Adopt(entry, encoded, reply) => {
                    let appended =
                        store_entry(&mut durable, &entry, &encoded, &mut appends_since_seal);
                    maybe_seal(&mut appends_since_seal);
                    // adlp-lint: allow(discarded-fallible) — the adopting caller may have stopped waiting for its verdict
                    let _ = reply.send(Self::durable_verdict(appended));
                }
                Command::Rollback(len, reply) => {
                    let verdict = match store.rollback_to(len) {
                        Ok(()) => match durable.as_mut() {
                            Some(d) => d.rollback(&store),
                            None => Ok(()),
                        },
                        Err(e) => Err(e),
                    };
                    // adlp-lint: allow(discarded-fallible) — the rolling-back caller may have stopped waiting for its verdict
                    let _ = reply.send(verdict);
                }
                Command::RegisterKey(component, key, reply) => {
                    // adlp-lint: allow(discarded-fallible) — the registering caller may have stopped waiting for its verdict
                    let _ = reply.send(keys.register(&component, *key));
                }
                Command::SealEpoch(reply) => {
                    let verdict = match sth.lock().clone() {
                        Some(a) => {
                            appends_since_seal = 0;
                            a.publisher.seal_epoch()
                        }
                        None => Err(LogError::Malformed("no sth publisher attached")),
                    };
                    // adlp-lint: allow(discarded-fallible) — the sealing caller may have stopped waiting for its head
                    let _ = reply.send(verdict);
                }
                Command::Flush(reply) => {
                    // adlp-lint: allow(discarded-fallible) — the flush caller may have stopped waiting; nothing to recover
                    let _ = reply.send(());
                }
                Command::Terminate => return,
            }
            if disconnected && backlog.is_empty() {
                // The last handle vanished mid-drain; everything admitted
                // has now been processed.
                return;
            }
        }
    }

    /// A handle for components (and the auditor) to use.
    pub fn handle(&self) -> LoggerHandle {
        self.handle.clone()
    }

    /// Stops the server after draining queued commands.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Simulates a crash of the trusted logger: the worker thread exits
    /// immediately. Outstanding handles keep working without error — their
    /// submissions are silently lost — which is exactly the failure
    /// isolation the paper claims ("any failure at the log server does not
    /// interrupt a normal operation of the ROS nodes", §V-B). Used by
    /// failure-injection tests.
    pub fn kill(&self) {
        // adlp-lint: allow(discarded-fallible) — killing an already-dead server is a no-op by design
        let _ = self.handle.tx.send(Command::Terminate);
        if let Some(w) = &self.worker {
            // Wait for the worker to observe the command so the crash is
            // fully effective when this returns.
            while !w.is_finished() {
                std::thread::yield_now();
            }
        }
    }

    fn shutdown_inner(&mut self) {
        // Dropping our command sender closes the channel once all handles do;
        // replace it with a dead channel to sever ours now.
        let (dead_tx, _) = crossbeam::channel::unbounded();
        self.handle.tx = dead_tx;
        if let Some(w) = self.worker.take() {
            // The worker exits when every outstanding handle is dropped; to
            // guarantee progress we only join when it is already finished.
            if w.is_finished() {
                let _ = w.join();
            }
        }
    }
}

impl Drop for LogServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Direction;
    use adlp_crypto::RsaKeyPair;
    use adlp_pubsub::Topic;
    use rand::SeedableRng;

    fn entry(seq: u64, bytes: usize) -> LogEntry {
        LogEntry::naive(
            NodeId::new("cam"),
            Topic::new("image"),
            Direction::Out,
            seq,
            seq,
            vec![0u8; bytes],
        )
    }

    #[test]
    fn submit_flush_and_read_back() {
        let server = LogServer::spawn();
        let h = server.handle();
        for i in 0..100 {
            assert_eq!(h.submit(entry(i, 10)), SubmitOutcome::Accepted);
        }
        h.flush().unwrap();
        assert_eq!(h.store().len(), 100);
        assert_eq!(h.stats().snapshot().entries, 100);
        assert!(h.store().verify_chain().is_ok());
        assert_eq!(h.store().entry(7).unwrap().seq, 7);
    }

    #[test]
    fn key_registration_via_server() {
        let server = LogServer::spawn();
        let h = server.handle();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let kp = RsaKeyPair::generate(128, &mut rng);
        h.register_key(&NodeId::new("cam"), kp.public_key().clone())
            .unwrap();
        assert!(h.keys().get(&NodeId::new("cam")).is_some());
        let kp2 = RsaKeyPair::generate(128, &mut rng);
        assert!(matches!(
            h.register_key(&NodeId::new("cam"), kp2.public_key().clone()),
            Err(LogError::KeyConflict(_))
        ));
    }

    #[test]
    fn stats_count_encoded_bytes() {
        let server = LogServer::spawn();
        let h = server.handle();
        let e = entry(1, 100);
        let expect = e.encoded_len() as u64;
        assert!(h.submit(e).is_accepted());
        h.flush().unwrap();
        assert_eq!(h.stats().snapshot().bytes, expect);
        assert_eq!(h.store().total_bytes(), expect);
    }

    #[test]
    fn attached_publisher_is_epoch_paced_by_the_append_loop() {
        use crate::sth::{SthPublisher, TreeHeadSigner};
        use std::sync::Arc;

        let server = LogServer::spawn();
        let h = server.handle();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let key =
            adlp_crypto::rsa::RsaPrivateKey::from_bytes(&kp.private_key().to_bytes()).unwrap();
        let publisher = Arc::new(
            SthPublisher::new(
                TreeHeadSigner::new(NodeId::new("log"), key),
                h.store().clone(),
            )
            .paced(),
        );

        // No attachment yet: sealing through the handle is refused.
        assert!(h.seal_epoch().is_err());

        h.attach_sth(Arc::clone(&publisher), 4);
        assert!(h.sth().is_some());
        assert!(publisher.latest_head().is_none(), "nothing sealed yet");

        // Three appends: below the pacing threshold, still nothing sealed.
        for i in 0..3 {
            assert!(h.submit(entry(i, 8)).is_accepted());
        }
        h.flush().unwrap();
        assert!(publisher.latest_head().is_none());

        // The fourth append crosses the threshold: the server seals.
        assert!(h.submit(entry(3, 8)).is_accepted());
        h.flush().unwrap();
        assert_eq!(publisher.latest_head().expect("auto-sealed").size, 4);

        // Manual sealing works and reflects everything queued before it.
        for i in 4..6 {
            assert!(h.submit(entry(i, 8)).is_accepted());
        }
        let sealed = h.seal_epoch().unwrap();
        assert_eq!(sealed.size, 6);
        assert_eq!(publisher.latest_head().unwrap(), sealed);
    }

    #[test]
    fn killed_server_never_blocks_clients() {
        let server = LogServer::spawn();
        let h = server.handle();
        assert_eq!(h.submit(entry(1, 8)), SubmitOutcome::Accepted);
        h.flush().unwrap();
        server.kill();
        // Submissions after the crash are lost but never block or panic —
        // and the caller is told so.
        for i in 0..100 {
            assert_eq!(h.submit(entry(i, 8)), SubmitOutcome::Lost);
        }
        assert_eq!(h.stats().snapshot().lost, 100);
        assert_eq!(h.store().len(), 1);
        // Synchronous operations now report the failure.
        assert!(matches!(h.flush(), Err(LogError::ServerClosed)));
    }

    #[test]
    fn durable_server_recovers_acked_entries_after_crash() {
        use crate::storage::{MemStorage, Storage};
        use std::sync::Arc;
        let mem = Arc::new(MemStorage::new());
        let config = crate::DurabilityConfig::new(mem.clone() as Arc<dyn Storage>);
        let spawned = LogServer::try_spawn_durable(KeyRegistry::new(), &config).unwrap();
        let h = spawned.server.handle();
        for i in 0..20 {
            h.submit_durable(entry(i, 12)).unwrap();
        }
        spawned.server.kill();
        mem.crash(); // power failure on top of the process crash
        let respawned = LogServer::try_spawn_durable(KeyRegistry::new(), &config).unwrap();
        let h2 = respawned.server.handle();
        assert_eq!(h2.store().len(), 20, "every acked entry must survive");
        assert!(respawned.recovery.root_verified);
        assert_eq!(h2.store().entry(13).unwrap().seq, 13);
        // And the revived server keeps accepting.
        h2.submit_durable(entry(20, 12)).unwrap();
        assert_eq!(h2.store().len(), 21);
    }

    #[test]
    fn durable_server_fire_and_forget_still_persists() {
        use crate::storage::{MemStorage, Storage};
        use std::sync::Arc;
        let mem = Arc::new(MemStorage::new());
        let config = crate::DurabilityConfig::new(mem.clone() as Arc<dyn Storage>);
        let spawned = LogServer::try_spawn_durable(KeyRegistry::new(), &config).unwrap();
        let h = spawned.server.handle();
        for i in 0..10 {
            assert!(h.submit(entry(i, 8)).is_accepted());
        }
        h.flush().unwrap();
        spawned.server.kill();
        mem.crash();
        let respawned = LogServer::try_spawn_durable(KeyRegistry::new(), &config).unwrap();
        assert_eq!(respawned.server.handle().store().len(), 10);
    }

    #[test]
    fn adopt_encoded_transplants_records_durably() {
        use crate::storage::{MemStorage, Storage};
        use std::sync::Arc;
        let donor = LogServer::spawn();
        let dh = donor.handle();
        for i in 0..5 {
            assert!(dh.submit(entry(i, 16)).is_accepted());
        }
        dh.flush().unwrap();
        let mem = Arc::new(MemStorage::new());
        let config = crate::DurabilityConfig::new(mem.clone() as Arc<dyn Storage>);
        let spawned = LogServer::try_spawn_durable(KeyRegistry::new(), &config).unwrap();
        let h = spawned.server.handle();
        for record in dh.store().encoded_records() {
            let (entry, encoded) = LogEntry::decode_record(record).unwrap();
            h.adopt_encoded(entry, encoded).unwrap();
        }
        assert_eq!(h.store().tree_head(), dh.store().tree_head());
        assert!(matches!(
            LogEntry::decode_record(vec![0xFF; 3]),
            Err(LogError::Malformed(_))
        ));
        spawned.server.kill();
        mem.crash();
        let respawned = LogServer::try_spawn_durable(KeyRegistry::new(), &config).unwrap();
        assert_eq!(
            respawned.server.handle().store().tree_head(),
            dh.store().tree_head()
        );
    }

    #[test]
    fn bounded_backlog_sheds_newest_and_counts() {
        // Drive `serve` directly with a pre-loaded channel so the backlog
        // state is deterministic: ten appends arrive before the worker
        // processes anything, against a bound of four.
        let (tx, rx) = crossbeam::channel::unbounded();
        for i in 0..10 {
            assert!(tx.send(Command::Append(Box::new(entry(i, 8)))).is_ok());
        }
        drop(tx);
        let stats = LogStats::new();
        let store = LogStore::new();
        LogServer::serve(
            rx,
            KeyRegistry::new(),
            stats.clone(),
            store.clone(),
            None,
            4,
            std::sync::Arc::new(parking_lot::Mutex::new(None)),
            std::sync::Arc::new(parking_lot::Mutex::new(None)),
        );
        let snap = stats.snapshot();
        // The four oldest entries survive; the six newest are shed, counted,
        // and the backlog never exceeded its bound.
        assert_eq!(store.len(), 4);
        assert_eq!(snap.entries, 4);
        assert_eq!(snap.shed, 6);
        assert_eq!(snap.queue_high_water, 4);
        assert_eq!(store.entry(0).unwrap().seq, 0);
        assert_eq!(store.entry(3).unwrap().seq, 3);
        assert!(store.verify_chain().is_ok());
    }

    #[test]
    fn many_concurrent_submitters() {
        let server = LogServer::spawn();
        let h = server.handle();
        let mut threads = Vec::new();
        for t in 0..8 {
            let h = h.clone();
            threads.push(std::thread::spawn(move || {
                for i in 0..50 {
                    assert!(h.submit(entry(t * 100 + i, 16)).is_accepted());
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        h.flush().unwrap();
        assert_eq!(h.store().len(), 400);
        assert!(h.store().verify_chain().is_ok());
    }
}
