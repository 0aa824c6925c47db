//! Remote logging over TCP, with outage-tolerant clients.
//!
//! The paper's logger "could be a remote log server" (§II-A); this module
//! exposes a [`crate::LogServer`] over a TCP socket. Components connect with a
//! [`RemoteLogClient`] and push length-prefixed encoded entries — the same
//! fire-and-forget discipline as the in-process handle ("log entries are
//! simply pushed into the server", §V-B), so a dead server never stalls a
//! component.
//!
//! The client is built for server outages: entries are handed to a worker
//! thread that owns the socket. While the server is unreachable the worker
//! buffers entries in memory up to [`ReconnectConfig::buffer_capacity`]
//! (overflow is counted in [`ClientStatsSnapshot::spilled`](crate::stats::ClientStatsSnapshot::spilled), never silently lost
//! from the books), redials with exponential backoff, re-registers every
//! previously registered key on reconnect, and then drains the buffer. A
//! delivered entry is one fully written to the socket; frames in flight
//! when the server dies are inherently best-effort, exactly like stock
//! fire-and-forget logging.

use crate::entry::LogEntry;
use crate::server::{LoggerHandle, SubmitOutcome};
use crate::stats::ClientStats;
use crate::LogError;
use adlp_crypto::RsaPublicKey;
use adlp_pubsub::wire::{read_frame, write_frame};
use adlp_pubsub::NodeId;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame tags of the remote protocol.
const TAG_ENTRY: u8 = 1;
const TAG_REGISTER_KEY: u8 = 2;
const TAG_OK: u8 = 3;
const TAG_ERR: u8 = 4;

/// Outage-handling knobs for [`RemoteLogClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconnectConfig {
    /// Entries buffered in memory while the server is unreachable; the
    /// excess is dropped and counted in [`ClientStatsSnapshot::spilled`](crate::stats::ClientStatsSnapshot::spilled).
    pub buffer_capacity: usize,
    /// Initial redial delay; doubles per failed attempt.
    pub redial_backoff: Duration,
    /// Upper bound for the redial delay.
    pub max_redial_backoff: Duration,
    /// How long a key-registration waits for the server's verdict before
    /// the connection is declared dead.
    pub register_timeout: Duration,
}

impl Default for ReconnectConfig {
    fn default() -> Self {
        ReconnectConfig {
            buffer_capacity: 4096,
            redial_backoff: Duration::from_millis(20),
            max_redial_backoff: Duration::from_secs(1),
            register_timeout: Duration::from_secs(5),
        }
    }
}

impl ReconnectConfig {
    /// The default config.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the outage buffer bound.
    pub fn with_buffer_capacity(mut self, cap: usize) -> Self {
        self.buffer_capacity = cap;
        self
    }

    /// Sets the initial redial backoff.
    pub fn with_redial_backoff(mut self, backoff: Duration) -> Self {
        self.redial_backoff = backoff;
        self
    }
}

/// A TCP front-end for a log server.
#[derive(Debug)]
pub struct RemoteLogEndpoint {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl RemoteLogEndpoint {
    /// Binds an ephemeral localhost port and serves `handle` over it.
    ///
    /// # Errors
    ///
    /// Propagates socket errors as [`LogError::Io`].
    pub fn bind(handle: LoggerHandle) -> Result<Self, LogError> {
        Self::bind_on(handle, SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// Binds a specific address — lets a restarted server reuse the port
    /// its clients already know (the restart path the reconnecting client
    /// exists for).
    ///
    /// # Errors
    ///
    /// Propagates socket errors as [`LogError::Io`].
    pub fn bind_on(handle: LoggerHandle, addr: SocketAddr) -> Result<Self, LogError> {
        let listener = TcpListener::bind(addr).map_err(|e| LogError::Io(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| LogError::Io(e.to_string()))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let conns2 = Arc::clone(&conns);
        let accept_thread = std::thread::Builder::new()
            .name("adlp-log-tcp".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shutdown2.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if let Ok(tracker) = stream.try_clone() {
                        conns2.lock().push(tracker);
                    }
                    let handle = handle.clone();
                    let _ = std::thread::Builder::new()
                        .name("adlp-log-conn".into())
                        .spawn(move || serve_connection(stream, handle));
                }
            })
            .map_err(|e| LogError::Io(format!("spawn tcp log endpoint: {e}")))?;
        Ok(RemoteLogEndpoint {
            addr,
            shutdown,
            conns,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and severs the established ones, so a
    /// shutdown looks like a server crash to every client (the case the
    /// reconnecting client is tested against).
    pub fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop.
        let _ = TcpStream::connect(self.addr);
        for conn in self.conns.lock().drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for RemoteLogEndpoint {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn serve_connection(stream: TcpStream, handle: LoggerHandle) {
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        match frame.split_first() {
            Some((&TAG_ENTRY, body)) => {
                if let Ok(entry) = LogEntry::decode(body) {
                    // Fire-and-forget contract: a loss is already counted
                    // in the handle's LogStats; there is no reply channel
                    // to surface it on (a broken component must not be
                    // able to stall on us).
                    let _outcome = handle.submit(entry);
                }
                // No reply even for malformed entries.
            }
            Some((&TAG_REGISTER_KEY, body)) => {
                let reply = register_from_frame(&handle, body);
                let tag = if reply.is_ok() { TAG_OK } else { TAG_ERR };
                let _ = write_frame(&mut write_half, &[tag]);
            }
            _ => return, // unknown tag: drop the connection
        }
    }
}

fn register_from_frame(handle: &LoggerHandle, body: &[u8]) -> Result<(), LogError> {
    // body = u16 name_len ‖ name ‖ key bytes
    let (len_bytes, rest) = body
        .split_at_checked(2)
        .ok_or(LogError::Malformed("register frame"))?;
    let name_len = u16::from_le_bytes(
        len_bytes
            .try_into()
            .map_err(|_| LogError::Malformed("register frame"))?,
    ) as usize;
    let (name_bytes, key_bytes) = rest
        .split_at_checked(name_len)
        .ok_or(LogError::Malformed("register frame (name)"))?;
    let name = std::str::from_utf8(name_bytes)
        .map_err(|_| LogError::Malformed("register frame (utf-8)"))?;
    let key = RsaPublicKey::from_bytes(key_bytes)
        .map_err(|_| LogError::Malformed("register frame (key)"))?;
    handle.register_key(&NodeId::new(name), key)
}

/// Worker commands.
enum Cmd {
    Entry(Box<LogEntry>),
    Register {
        component: NodeId,
        key: RsaPublicKey,
        reply: crossbeam::channel::Sender<Result<(), LogError>>,
    },
    Flush(crossbeam::channel::Sender<bool>),
}

/// Client side: pushes entries to a remote endpoint, riding out outages.
///
/// All I/O happens on a worker thread; [`RemoteLogClient::submit`] never
/// blocks on the network. See the module docs for the buffering and
/// reconnect semantics.
#[derive(Debug)]
pub struct RemoteLogClient {
    cmd_tx: crossbeam::channel::Sender<Cmd>,
    stats: Arc<ClientStats>,
    worker: Option<JoinHandle<()>>,
}

impl RemoteLogClient {
    /// Connects to a remote log endpoint with default outage handling.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::ServerClosed`] when the endpoint is unreachable
    /// (the *initial* connect must succeed; later outages are ridden out).
    pub fn connect(addr: SocketAddr) -> Result<Self, LogError> {
        Self::connect_with(addr, ReconnectConfig::default())
    }

    /// Like [`RemoteLogClient::connect`] with explicit outage knobs.
    ///
    /// # Errors
    ///
    /// Same as [`RemoteLogClient::connect`].
    pub fn connect_with(addr: SocketAddr, config: ReconnectConfig) -> Result<Self, LogError> {
        let stream = dial(addr)?;
        let (cmd_tx, cmd_rx) = crossbeam::channel::unbounded();
        let stats = Arc::new(ClientStats::default());
        stats.set_connected(true);
        let worker_stats = Arc::clone(&stats);
        let worker = std::thread::Builder::new()
            .name("adlp-log-client".into())
            .spawn(move || {
                Worker {
                    addr,
                    config,
                    stream: Some(stream),
                    buffer: VecDeque::new(),
                    keys: Vec::new(),
                    stats: worker_stats,
                    backoff: None,
                    next_redial: Instant::now(),
                    pending_flushes: Vec::new(),
                }
                .run(cmd_rx)
            })
            .map_err(|e| LogError::Io(format!("spawn log client worker: {e}")))?;
        Ok(RemoteLogClient {
            cmd_tx,
            stats,
            worker: Some(worker),
        })
    }

    /// Pushes an entry (fire-and-forget). Never blocks on the network;
    /// during an outage the entry is buffered (or counted as spilled once
    /// the buffer is full).
    pub fn submit(&mut self, entry: &LogEntry) -> SubmitOutcome {
        self.stats.note_submitted();
        if self
            .cmd_tx
            .send(Cmd::Entry(Box::new(entry.clone())))
            .is_err()
        {
            // Worker gone (shutdown race): account for the entry as spilled
            // so the nothing-vanishes-silently invariant holds.
            self.stats.note_spilled();
            return SubmitOutcome::Lost;
        }
        SubmitOutcome::Accepted
    }

    /// Registers a public key and waits for the server's verdict. The key
    /// is remembered and re-registered automatically after a reconnect.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::KeyConflict`] (reported by the server) or
    /// [`LogError::ServerClosed`] when the server stays unreachable.
    pub fn register_key(&mut self, component: &NodeId, key: &RsaPublicKey) -> Result<(), LogError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.cmd_tx
            .send(Cmd::Register {
                component: component.clone(),
                key: key.clone(),
                reply: tx,
            })
            .map_err(|_| LogError::ServerClosed)?;
        rx.recv().map_err(|_| LogError::ServerClosed)?
    }

    /// Blocks until every entry accepted so far is written out (or
    /// spilled), or `timeout` elapses; returns whether the flush finished.
    /// Useful before tearing a component down. A flush never succeeds
    /// while the connection is down, even with nothing left to drain —
    /// success means "the server has everything I didn't count as
    /// spilled", which can't be claimed on a dead socket.
    pub fn flush(&self, timeout: Duration) -> bool {
        let (tx, rx) = crossbeam::channel::bounded(1);
        if self.cmd_tx.send(Cmd::Flush(tx)).is_err() {
            return false;
        }
        matches!(rx.recv_timeout(timeout), Ok(true))
    }

    /// Delivery/outage counters for this client.
    pub fn stats(&self) -> &Arc<ClientStats> {
        &self.stats
    }
}

impl Drop for RemoteLogClient {
    fn drop(&mut self) {
        // Closing the command channel lets the worker drain and exit.
        let (orphan_tx, _orphan_rx) = crossbeam::channel::unbounded();
        let _ = std::mem::replace(&mut self.cmd_tx, orphan_tx);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

fn dial(addr: SocketAddr) -> Result<TcpStream, LogError> {
    let stream = TcpStream::connect(addr).map_err(|_| LogError::ServerClosed)?;
    stream
        .set_nodelay(true)
        .map_err(|e| LogError::Io(e.to_string()))?;
    Ok(stream)
}

/// The client's I/O thread: owns the socket, the outage buffer, and the
/// re-registration list.
struct Worker {
    addr: SocketAddr,
    config: ReconnectConfig,
    stream: Option<TcpStream>,
    buffer: VecDeque<LogEntry>,
    /// Keys successfully registered, replayed after each reconnect.
    keys: Vec<(NodeId, RsaPublicKey)>,
    stats: Arc<ClientStats>,
    /// Current redial delay; `None` until the first failure after an outage.
    backoff: Option<Duration>,
    next_redial: Instant,
    pending_flushes: Vec<crossbeam::channel::Sender<bool>>,
}

impl Worker {
    fn run(mut self, cmd_rx: crossbeam::channel::Receiver<Cmd>) {
        loop {
            self.probe_connection();
            self.try_reconnect();
            self.drain_buffer();
            self.answer_flushes();
            match cmd_rx.recv_timeout(Duration::from_millis(10)) {
                Ok(Cmd::Entry(entry)) => self.handle_entry(*entry),
                Ok(Cmd::Register {
                    component,
                    key,
                    reply,
                }) => {
                    // adlp-lint: allow(discarded-fallible) — the registering caller may have timed out; the verdict has no other home
                    let _ = reply.send(self.handle_register(&component, &key));
                }
                Ok(Cmd::Flush(tx)) => self.pending_flushes.push(tx),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    // Client dropped: best-effort final drain, bounded by
                    // one immediate redial attempt.
                    self.try_reconnect();
                    self.drain_buffer();
                    for tx in self.pending_flushes.drain(..) {
                        // adlp-lint: allow(discarded-fallible) — final drain during shutdown; the flush caller may be gone
                        let _ = tx.send(self.buffer.is_empty());
                    }
                    return;
                }
            }
        }
    }

    /// True when the socket is (believed) up.
    fn connected(&self) -> bool {
        self.stream.is_some()
    }

    fn mark_disconnected(&mut self) {
        if self.stream.take().is_some() {
            self.backoff = None;
            self.next_redial = Instant::now();
        }
        self.stats.set_connected(false);
    }

    /// Detects a dead server without waiting for a write to fail: the
    /// server never sends unsolicited data, so a non-blocking read either
    /// yields `WouldBlock` (alive) or EOF/error (dead).
    fn probe_connection(&mut self) {
        let Some(stream) = self.stream.as_ref() else {
            return;
        };
        if stream.set_nonblocking(true).is_err() {
            self.mark_disconnected();
            return;
        }
        let mut buf = [0u8; 1];
        use std::io::Read;
        let dead = match (&mut &*stream).read(&mut buf) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
            Err(_) => true,
        };
        let alive_again = !dead && stream.set_nonblocking(false).is_ok();
        if !alive_again {
            self.mark_disconnected();
        }
    }

    fn try_reconnect(&mut self) {
        if self.connected() || Instant::now() < self.next_redial {
            return;
        }
        match dial(self.addr) {
            Ok(stream) => {
                self.stream = Some(stream);
                self.backoff = None;
                self.stats.set_connected(true);
                // Replay key registrations before any buffered entries; a
                // restarted server has an empty registry.
                let keys = self.keys.clone();
                for (component, key) in &keys {
                    match self.register_on_wire(component, key) {
                        Ok(()) | Err(LogError::KeyConflict(_)) => {}
                        Err(_) => {
                            // Wire died again mid-replay; redial later.
                            self.mark_disconnected();
                            return;
                        }
                    }
                }
                self.stats.note_reconnected();
            }
            Err(_) => {
                let next = match self.backoff {
                    None => self.config.redial_backoff,
                    Some(b) => (b * 2).min(self.config.max_redial_backoff),
                };
                self.backoff = Some(next);
                self.next_redial = Instant::now() + next;
            }
        }
    }

    fn handle_entry(&mut self, entry: LogEntry) {
        if self.connected() && self.buffer.is_empty() {
            if self.write_entry(&entry) {
                return;
            }
            self.mark_disconnected();
        }
        if self.buffer.len() >= self.config.buffer_capacity {
            self.stats.note_spilled();
            return;
        }
        self.buffer.push_back(entry);
        self.stats.set_buffered(self.buffer.len() as u64);
    }

    fn drain_buffer(&mut self) {
        while self.connected() {
            let Some(entry) = self.buffer.pop_front() else {
                break;
            };
            if self.write_entry(&entry) {
                self.stats.set_buffered(self.buffer.len() as u64);
            } else {
                // Put it back: it is still undelivered, not spilled.
                self.buffer.push_front(entry);
                self.mark_disconnected();
                break;
            }
        }
    }

    fn answer_flushes(&mut self) {
        if self.buffer.is_empty() && self.connected() && !self.pending_flushes.is_empty() {
            for tx in self.pending_flushes.drain(..) {
                // adlp-lint: allow(discarded-fallible) — a flush caller that stopped waiting loses nothing but its own answer
                let _ = tx.send(true);
            }
        }
    }

    /// Writes one entry frame; `false` means the socket is dead.
    fn write_entry(&mut self, entry: &LogEntry) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        let mut frame = Vec::with_capacity(1 + 64);
        frame.push(TAG_ENTRY);
        frame.extend_from_slice(&entry.encode());
        if write_frame(stream, &frame).is_ok() {
            self.stats.note_delivered();
            true
        } else {
            false
        }
    }

    fn handle_register(&mut self, component: &NodeId, key: &RsaPublicKey) -> Result<(), LogError> {
        if !self.connected() {
            // One immediate attempt so registration during a brief outage
            // succeeds instead of failing spuriously.
            self.next_redial = Instant::now();
            self.try_reconnect();
        }
        if !self.connected() {
            return Err(LogError::ServerClosed);
        }
        let result = self.register_on_wire(component, key);
        match &result {
            Ok(()) => self.remember_key(component, key),
            Err(LogError::KeyConflict(_)) => {}
            Err(_) => self.mark_disconnected(),
        }
        result
    }

    fn remember_key(&mut self, component: &NodeId, key: &RsaPublicKey) {
        if !self.keys.iter().any(|(c, _)| c == component) {
            self.keys.push((component.clone(), key.clone()));
        }
    }

    /// The raw request/response exchange on the current socket.
    fn register_on_wire(&mut self, component: &NodeId, key: &RsaPublicKey) -> Result<(), LogError> {
        let Some(stream) = self.stream.as_mut() else {
            return Err(LogError::ServerClosed);
        };
        let name = component.as_str().as_bytes();
        let mut frame = Vec::new();
        frame.push(TAG_REGISTER_KEY);
        frame.extend_from_slice(&(name.len() as u16).to_le_bytes());
        frame.extend_from_slice(name);
        frame.extend_from_slice(&key.to_bytes());
        write_frame(stream, &frame).map_err(|_| LogError::ServerClosed)?;
        stream
            .set_read_timeout(Some(self.config.register_timeout))
            .map_err(|e| LogError::Io(e.to_string()))?;
        let reply = read_frame(stream)
            .map_err(|_| LogError::ServerClosed)?
            .ok_or(LogError::ServerClosed)?;
        stream
            .set_read_timeout(None)
            .map_err(|e| LogError::Io(e.to_string()))?;
        match reply.first() {
            Some(&TAG_OK) => Ok(()),
            Some(&TAG_ERR) => Err(LogError::KeyConflict(component.to_string())),
            _ => Err(LogError::Malformed("register reply")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Direction;
    use crate::server::LogServer;
    use adlp_crypto::RsaKeyPair;
    use adlp_pubsub::Topic;
    use rand::SeedableRng;
    use std::time::Duration;

    fn entry(seq: u64) -> LogEntry {
        LogEntry::naive(
            NodeId::new("remote_cam"),
            Topic::new("image"),
            Direction::Out,
            seq,
            seq * 7,
            vec![seq as u8; 32],
        )
    }

    fn wait_until(pred: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !pred() {
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Rebinds the endpoint's port (the old listener needs a moment to die).
    fn rebind(handle: LoggerHandle, addr: SocketAddr) -> RemoteLogEndpoint {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match RemoteLogEndpoint::bind_on(handle.clone(), addr) {
                Ok(ep) => return ep,
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("rebind failed: {e}"),
            }
        }
    }

    #[test]
    fn entries_flow_over_tcp() {
        let server = LogServer::spawn();
        let endpoint = RemoteLogEndpoint::bind(server.handle()).unwrap();
        let mut client = RemoteLogClient::connect(endpoint.addr()).unwrap();
        for i in 0..20 {
            assert!(client.submit(&entry(i)).is_accepted());
        }
        let h = server.handle();
        wait_until(|| h.store().len() == 20);
        assert!(h.store().verify_chain().is_ok());
        assert_eq!(h.store().entry(5).unwrap().seq, 5);
        let snap = client.stats().snapshot();
        assert_eq!(snap.submitted, 20);
        assert_eq!(snap.delivered, 20);
        assert_eq!(snap.spilled, 0);
    }

    #[test]
    fn key_registration_over_tcp() {
        let server = LogServer::spawn();
        let endpoint = RemoteLogEndpoint::bind(server.handle()).unwrap();
        let mut client = RemoteLogClient::connect(endpoint.addr()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let kp = RsaKeyPair::generate(128, &mut rng);
        client
            .register_key(&NodeId::new("remote_cam"), kp.public_key())
            .unwrap();
        assert!(server
            .handle()
            .keys()
            .get(&NodeId::new("remote_cam"))
            .is_some());
        // Conflicting key is rejected end-to-end.
        let kp2 = RsaKeyPair::generate(128, &mut rng);
        assert!(matches!(
            client.register_key(&NodeId::new("remote_cam"), kp2.public_key()),
            Err(LogError::KeyConflict(_))
        ));
        // Identical key is idempotent.
        client
            .register_key(&NodeId::new("remote_cam"), kp.public_key())
            .unwrap();
    }

    #[test]
    fn malformed_entries_are_dropped_silently() {
        let server = LogServer::spawn();
        let endpoint = RemoteLogEndpoint::bind(server.handle()).unwrap();
        let mut stream = TcpStream::connect(endpoint.addr()).unwrap();
        // Garbage entry body.
        write_frame(&mut stream, &[TAG_ENTRY, 0xde, 0xad]).unwrap();
        // A valid one afterwards still lands.
        let mut frame = vec![TAG_ENTRY];
        frame.extend_from_slice(&entry(1).encode());
        write_frame(&mut stream, &frame).unwrap();
        let h = server.handle();
        wait_until(|| h.store().len() == 1);
    }

    #[test]
    fn multiple_clients() {
        let server = LogServer::spawn();
        let endpoint = RemoteLogEndpoint::bind(server.handle()).unwrap();
        let addr = endpoint.addr();
        let mut threads = Vec::new();
        for t in 0..4 {
            threads.push(std::thread::spawn(move || {
                let mut c = RemoteLogClient::connect(addr).unwrap();
                for i in 0..25 {
                    assert!(c.submit(&entry(t * 100 + i)).is_accepted());
                }
                assert!(c.flush(Duration::from_secs(5)));
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let h = server.handle();
        wait_until(|| h.store().len() == 100);
        assert!(h.store().verify_chain().is_ok());
    }

    #[test]
    fn connect_after_shutdown_fails() {
        let server = LogServer::spawn();
        let endpoint = RemoteLogEndpoint::bind(server.handle()).unwrap();
        let addr = endpoint.addr();
        endpoint.shutdown();
        std::thread::sleep(Duration::from_millis(50));
        // The listener socket is gone once the endpoint drops; connecting
        // after an explicit shutdown (and drop) errors.
        drop(endpoint);
        std::thread::sleep(Duration::from_millis(50));
        assert!(RemoteLogClient::connect(addr).is_err());
    }

    #[test]
    fn client_survives_server_restart() {
        let server = LogServer::spawn();
        let endpoint = RemoteLogEndpoint::bind(server.handle()).unwrap();
        let addr = endpoint.addr();
        let mut client = RemoteLogClient::connect_with(
            addr,
            ReconnectConfig::new().with_redial_backoff(Duration::from_millis(5)),
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let kp = RsaKeyPair::generate(128, &mut rng);
        client
            .register_key(&NodeId::new("remote_cam"), kp.public_key())
            .unwrap();
        for i in 0..5 {
            assert!(client.submit(&entry(i)).is_accepted());
        }
        let h = server.handle();
        wait_until(|| h.store().len() == 5);

        // Crash the server; submissions during the outage are buffered.
        drop(endpoint);
        wait_until(|| !client.stats().snapshot().connected);
        for i in 5..15 {
            assert!(client.submit(&entry(i)).is_accepted());
        }

        // Restart on the same port with a fresh (empty) server.
        let server2 = LogServer::spawn();
        let endpoint2 = rebind(server2.handle(), addr);
        assert!(client.flush(Duration::from_secs(5)));
        let h2 = server2.handle();
        wait_until(|| h2.store().len() == 10);
        // Keys were re-registered on reconnect.
        assert!(h2.keys().get(&NodeId::new("remote_cam")).is_some());
        let snap = client.stats().snapshot();
        assert_eq!(snap.submitted, 15);
        assert_eq!(snap.spilled, 0);
        assert!(snap.reconnects >= 1);
        drop(endpoint2);
    }

    #[test]
    fn outage_buffer_bound_spills_exactly() {
        let server = LogServer::spawn();
        let endpoint = RemoteLogEndpoint::bind(server.handle()).unwrap();
        let addr = endpoint.addr();
        let mut client = RemoteLogClient::connect_with(
            addr,
            ReconnectConfig::new()
                .with_buffer_capacity(4)
                .with_redial_backoff(Duration::from_millis(5)),
        )
        .unwrap();
        drop(endpoint);
        wait_until(|| !client.stats().snapshot().connected);
        for i in 0..10 {
            assert!(client.submit(&entry(i)).is_accepted());
        }
        wait_until(|| {
            let s = client.stats().snapshot();
            s.buffered == 4 && s.spilled == 6
        });

        // After a restart, exactly the buffered entries arrive.
        let server2 = LogServer::spawn();
        let endpoint2 = rebind(server2.handle(), addr);
        assert!(client.flush(Duration::from_secs(5)));
        let h2 = server2.handle();
        wait_until(|| h2.store().len() == 4);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(h2.store().len(), 4);
        let snap = client.stats().snapshot();
        assert_eq!(snap.delivered, 4);
        assert_eq!(snap.spilled, 6);
        drop(endpoint2);
    }
}
