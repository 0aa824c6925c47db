//! Seeded socket-level chaos: a TCP proxy that mistreats real byte
//! streams.
//!
//! [`crate::transport::faults::FaultyTransport`] injects faults on
//! in-process *frame* channels; everything that makes real sockets hard —
//! byte-boundary splits, half-written frames, connection resets mid-stream,
//! stalls that look exactly like a dead peer — never crosses it. The
//! [`ChaosProxy`] closes that gap: it listens on a local port, forwards
//! every accepted connection to a (re-targetable) upstream address, and
//! mistreats the byte stream according to a seeded [`ChaosConfig`]:
//!
//! * **resets** — both sides of the connection are torn down mid-stream;
//! * **splits** — a chunk is cut at a random byte boundary and the halves
//!   are flushed separately, so length-prefixed frame reassembly is
//!   exercised at every offset;
//! * **delays** — a chunk is held for a bounded, seeded duration;
//! * **slow-loris stalls** — one byte is written, then the stream goes
//!   silent for a configured stall, then the rest follows (or the
//!   receiver's read deadline fires first — also a correct outcome);
//! * **partitions** — [`ChaosProxy::sever`] refuses new connections and
//!   resets live ones until [`ChaosProxy::heal`].
//!
//! Fault *decisions* are deterministic per (seed, connection index, chunk
//! index) — the same seed replays the same mistreatment plan. Chunk
//! boundaries come from real socket reads, so byte-exact replay is
//! best-effort; every protocol above this proxy must tolerate arbitrary
//! re-chunking anyway, which is precisely what the splits enforce.
//!
//! Like every chaos tool here, the proxy counts what it does
//! ([`ChaosStats`]) so tests can assert the harness actually bit.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::PubSubError;
use parking_lot::Mutex;

/// Probabilities and limits for socket-level chaos. All-zero (the default)
/// forwards transparently.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the per-connection chaos RNG (combined with the connection
    /// index so connections misbehave independently but reproducibly).
    pub seed: u64,
    /// Probability a chunk triggers a connection reset (both directions
    /// torn down mid-stream).
    pub reset_rate: f64,
    /// Probability a chunk is split at a seeded byte boundary and flushed
    /// in two writes with a short gap between them.
    pub split_rate: f64,
    /// Probability a chunk is delayed by up to [`ChaosConfig::max_delay`].
    pub delay_rate: f64,
    /// Upper bound for injected delays.
    pub max_delay: Duration,
    /// Probability a chunk is held back and delivered after its successor.
    pub reorder_rate: f64,
    /// Probability of a slow-loris stall: one byte is written, the stream
    /// goes silent for [`ChaosConfig::stall`], then the rest follows.
    pub stall_rate: f64,
    /// Duration of a slow-loris stall.
    pub stall: Duration,
    /// Probability an inbound connection is refused outright (accepted,
    /// then immediately closed — a dial-time reset).
    pub connect_reset_rate: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            reset_rate: 0.0,
            split_rate: 0.0,
            delay_rate: 0.0,
            max_delay: Duration::from_millis(20),
            reorder_rate: 0.0,
            stall_rate: 0.0,
            stall: Duration::from_millis(100),
            connect_reset_rate: 0.0,
        }
    }
}

impl ChaosConfig {
    /// A transparent config with the given RNG seed.
    pub fn seeded(seed: u64) -> Self {
        ChaosConfig {
            seed,
            ..Self::default()
        }
    }

    /// Sets the mid-stream reset probability.
    pub fn with_reset_rate(mut self, p: f64) -> Self {
        self.reset_rate = p;
        self
    }

    /// Sets the byte-boundary split probability.
    pub fn with_split_rate(mut self, p: f64) -> Self {
        self.split_rate = p;
        self
    }

    /// Sets the delay probability and bound.
    pub fn with_delay(mut self, p: f64, max: Duration) -> Self {
        self.delay_rate = p;
        self.max_delay = max;
        self
    }

    /// Sets the adjacent-reorder probability.
    pub fn with_reorder_rate(mut self, p: f64) -> Self {
        self.reorder_rate = p;
        self
    }

    /// Sets the slow-loris stall probability and duration.
    pub fn with_stall(mut self, p: f64, stall: Duration) -> Self {
        self.stall_rate = p;
        self.stall = stall;
        self
    }

    /// Sets the dial-time reset probability.
    pub fn with_connect_reset_rate(mut self, p: f64) -> Self {
        self.connect_reset_rate = p;
        self
    }

    /// Whether this config injects nothing.
    pub fn is_transparent(&self) -> bool {
        self.reset_rate == 0.0
            && self.split_rate == 0.0
            && self.delay_rate == 0.0
            && self.reorder_rate == 0.0
            && self.stall_rate == 0.0
            && self.connect_reset_rate == 0.0
    }
}

/// Counters for injected socket chaos.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Connections accepted and bridged to the target.
    pub connections: AtomicU64,
    /// Connections refused at accept time (dial-time resets).
    pub refused: AtomicU64,
    /// Connections refused because the proxy was severed.
    pub partitioned: AtomicU64,
    /// Mid-stream connection resets.
    pub resets: AtomicU64,
    /// Chunks split at a byte boundary.
    pub splits: AtomicU64,
    /// Chunks delayed.
    pub delayed: AtomicU64,
    /// Chunks held back past their successor.
    pub reordered: AtomicU64,
    /// Slow-loris stalls injected.
    pub stalls: AtomicU64,
    /// Bytes forwarded (both directions, after chaos).
    pub bytes_forwarded: AtomicU64,
}

impl ChaosStats {
    /// Total chunks affected by any injected fault.
    pub fn total_faults(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
            + self.partitioned.load(Ordering::Relaxed)
            + self.resets.load(Ordering::Relaxed)
            + self.splits.load(Ordering::Relaxed)
            + self.delayed.load(Ordering::Relaxed)
            + self.reordered.load(Ordering::Relaxed)
            + self.stalls.load(Ordering::Relaxed)
    }
}

struct ProxyShared {
    target: Mutex<SocketAddr>,
    severed: AtomicBool,
    shutdown: AtomicBool,
    stats: ChaosStats,
    /// Live bridged sockets, for severing mid-stream. Each entry is one
    /// side of a bridged pair; shutting it down unblocks its pump thread.
    conns: Mutex<Vec<TcpStream>>,
}

impl ProxyShared {
    /// The current upstream address (copied out; the guard never outlives
    /// this call).
    fn current_target(&self) -> SocketAddr {
        *self.target.lock()
    }

    /// Tears down every live bridged socket (reset-style).
    fn reset_conns(&self) {
        let mut conns = self.conns.lock();
        for stream in conns.drain(..) {
            // adlp-lint: allow(discarded-fallible) — severing an already-dead socket is the desired end state
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// A chaos-injecting TCP proxy in front of one upstream listener.
///
/// Dial [`ChaosProxy::addr`] instead of the target; the proxy forwards
/// (and mistreats) the byte stream. The target is re-targetable at
/// runtime ([`ChaosProxy::set_target`]) so a restarted upstream with a
/// fresh ephemeral port keeps its place in the topology.
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("addr", &self.addr)
            .field("severed", &self.shared.severed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ChaosProxy {
    /// Binds a proxy on an ephemeral localhost port forwarding to
    /// `target` under `config`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the bind.
    pub fn spawn(target: SocketAddr, config: ChaosConfig) -> Result<Self, PubSubError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(ProxyShared {
            target: Mutex::new(target),
            severed: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            stats: ChaosStats::default(),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("chaos-proxy-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, config))
            .map_err(|e| PubSubError::Io(format!("spawn chaos proxy: {e}")))?;
        Ok(ChaosProxy { addr, shared })
    }

    /// The address to dial instead of the target.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Repoints the proxy at a new upstream address (e.g. a restarted
    /// listener on a fresh ephemeral port). Existing connections keep
    /// their old upstream until they die.
    pub fn set_target(&self, target: SocketAddr) {
        *self.shared.target.lock() = target;
    }

    /// Partitions the link: live connections are reset and new ones are
    /// refused until [`ChaosProxy::heal`].
    pub fn sever(&self) {
        self.shared.severed.store(true, Ordering::SeqCst);
        self.shared.reset_conns();
    }

    /// Heals the partition.
    pub fn heal(&self) {
        self.shared.severed.store(false, Ordering::SeqCst);
    }

    /// Whether the link is currently partitioned.
    pub fn is_severed(&self) -> bool {
        self.shared.severed.load(Ordering::SeqCst)
    }

    /// Chaos counters.
    pub fn stats(&self) -> &ChaosStats {
        &self.shared.stats
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.reset_conns();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ProxyShared>, config: ChaosConfig) {
    let mut dial_rng = StdRng::seed_from_u64(config.seed ^ 0xC4A0_5000);
    let mut conn_seq = 0u64;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let client = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(_) => return,
        };
        conn_seq += 1;
        if shared.severed.load(Ordering::SeqCst) {
            shared.stats.partitioned.fetch_add(1, Ordering::Relaxed);
            // adlp-lint: allow(discarded-fallible) — the refusal IS the behavior; the peer sees a reset either way
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        if roll(&mut dial_rng, config.connect_reset_rate) {
            shared.stats.refused.fetch_add(1, Ordering::Relaxed);
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        let target = shared.current_target();
        let upstream = match TcpStream::connect_timeout(&target, Duration::from_millis(500)) {
            Ok(s) => s,
            Err(_) => {
                // Upstream unreachable: the client sees a reset, exactly
                // like a dead peer.
                let _ = client.shutdown(Shutdown::Both);
                continue;
            }
        };
        // adlp-lint: allow(discarded-fallible) — nodelay is best-effort; chaos timing does not depend on it
        let _ = client.set_nodelay(true);
        let _ = upstream.set_nodelay(true);
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        bridge(&shared, &config, conn_seq, client, upstream);
    }
}

/// Registers both sockets and spawns the two pump threads for one bridged
/// connection.
fn bridge(
    shared: &Arc<ProxyShared>,
    config: &ChaosConfig,
    conn: u64,
    client: TcpStream,
    upstream: TcpStream,
) {
    let pairs = [
        (client.try_clone(), upstream.try_clone(), 0u64),
        (upstream.try_clone(), client.try_clone(), 1u64),
    ];
    {
        let mut conns = shared.conns.lock();
        conns.push(client);
        conns.push(upstream);
        // Bound the registry: drop entries whose sockets are long dead.
        if conns.len() > 512 {
            conns.retain(|s| s.peer_addr().is_ok());
        }
    }
    for (src, dst, dir) in pairs {
        let (Ok(src), Ok(dst)) = (src, dst) else {
            shared.reset_conns();
            return;
        };
        let shared = Arc::clone(shared);
        let config = config.clone();
        // adlp-lint: allow(discarded-fallible) — a pump that cannot spawn leaves a half-dead bridge, which the peers observe as a reset and redial through
        let _ = thread::Builder::new()
            .name(format!("chaos-pump-{conn}-{dir}"))
            .spawn(move || pump(shared, config, conn, dir, src, dst));
    }
}

fn roll(rng: &mut StdRng, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    unit < p
}

/// One direction of a bridged connection: read chunks from `src`, apply
/// seeded chaos, write to `dst`. Exits (and resets both sides) on any
/// error, injected reset, or severed partition.
fn pump(
    shared: Arc<ProxyShared>,
    config: ChaosConfig,
    conn: u64,
    dir: u64,
    mut src: TcpStream,
    mut dst: TcpStream,
) {
    let mut rng = StdRng::seed_from_u64(config.seed ^ (conn << 8) ^ dir ^ 0xC4A0_5A17);
    let mut buf = [0u8; 4096];
    let mut held: Option<Vec<u8>> = None;
    // A short read timeout keeps the pump responsive to sever/shutdown even
    // when the stream is idle.
    // adlp-lint: allow(discarded-fallible) — a refused timeout only costs sever responsiveness
    let _ = src.set_read_timeout(Some(Duration::from_millis(50)));
    let teardown = |src: &TcpStream, dst: &TcpStream| {
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
    };
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || shared.severed.load(Ordering::SeqCst) {
            teardown(&src, &dst);
            return;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => {
                // Clean EOF: flush anything held, half-close downstream.
                if let Some(h) = held.take() {
                    if write_chunk(&shared, &mut dst, &h).is_err() {
                        teardown(&src, &dst);
                        return;
                    }
                }
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                teardown(&src, &dst);
                return;
            }
        };
        // `read` contract: n <= buf.len(), so the slice always exists.
        let Some(chunk) = buf.get(..n) else {
            teardown(&src, &dst);
            return;
        };
        if roll(&mut rng, config.reset_rate) {
            shared.stats.resets.fetch_add(1, Ordering::Relaxed);
            teardown(&src, &dst);
            return;
        }
        if roll(&mut rng, config.delay_rate) {
            let span = config.max_delay.as_millis().max(1) as u64;
            shared.stats.delayed.fetch_add(1, Ordering::Relaxed);
            thread::sleep(Duration::from_millis(rng.next_u64() % span));
        }
        if roll(&mut rng, config.reorder_rate) && held.is_none() && n > 0 {
            shared.stats.reordered.fetch_add(1, Ordering::Relaxed);
            held = Some(chunk.to_vec());
            continue;
        }
        let stalled = (roll(&mut rng, config.stall_rate) && n > 1)
            .then(|| chunk.split_at_checked(1))
            .flatten();
        let split = (roll(&mut rng, config.split_rate) && n > 1)
            .then(|| chunk.split_at_checked(1 + (rng.next_u64() as usize) % (n - 1)))
            .flatten();
        let outcome = if let Some((first, rest)) = stalled {
            // Slow-loris: one byte, silence, then the rest. The receiver's
            // read deadline may fire first — also a correct outcome.
            shared.stats.stalls.fetch_add(1, Ordering::Relaxed);
            write_chunk(&shared, &mut dst, first).and_then(|()| {
                sleep_unless_severed(&shared, config.stall);
                if shared.severed.load(Ordering::SeqCst) {
                    return Err(std::io::Error::other("severed mid-stall"));
                }
                write_chunk(&shared, &mut dst, rest)
            })
        } else if let Some((first, rest)) = split {
            // Split at a seeded byte boundary, flushing each half, so the
            // receiver reassembles across reads.
            shared.stats.splits.fetch_add(1, Ordering::Relaxed);
            write_chunk(&shared, &mut dst, first).and_then(|()| {
                thread::sleep(Duration::from_millis(1));
                write_chunk(&shared, &mut dst, rest)
            })
        } else {
            write_chunk(&shared, &mut dst, chunk)
        };
        if outcome.is_err() {
            teardown(&src, &dst);
            return;
        }
        if let Some(h) = held.take() {
            if write_chunk(&shared, &mut dst, &h).is_err() {
                teardown(&src, &dst);
                return;
            }
        }
    }
}

fn write_chunk(shared: &ProxyShared, dst: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    dst.write_all(bytes)?;
    dst.flush()?;
    shared
        .stats
        .bytes_forwarded
        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    Ok(())
}

/// Sleeps `total` in short slices, returning early once severed or shut
/// down so a partition is not held hostage by an in-flight stall.
fn sleep_unless_severed(shared: &ProxyShared, total: Duration) {
    let mut left = total;
    while !left.is_zero() {
        if shared.severed.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let slice = left.min(Duration::from_millis(10));
        thread::sleep(slice);
        left = left.saturating_sub(slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, write_frame};
    use std::io::BufReader;

    /// An upstream echo listener: accepts one connection, reads frames,
    /// echoes each back.
    fn echo_listener() -> (SocketAddr, thread::JoinHandle<usize>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut echoed = 0;
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                if write_frame(&mut writer, &frame).is_err() {
                    break;
                }
                echoed += 1;
            }
            echoed
        });
        (addr, handle)
    }

    #[test]
    fn transparent_proxy_forwards_frames_exactly() {
        let (target, handle) = echo_listener();
        let proxy = ChaosProxy::spawn(target, ChaosConfig::seeded(1)).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        for i in 0..20u8 {
            write_frame(&mut stream, &[i; 64]).unwrap();
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..20u8 {
            assert_eq!(read_frame(&mut reader).unwrap().unwrap(), vec![i; 64]);
        }
        stream.shutdown(Shutdown::Write).unwrap();
        assert_eq!(handle.join().unwrap(), 20);
        assert_eq!(proxy.stats().total_faults(), 0);
        assert_eq!(proxy.stats().connections.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn splits_reassemble_into_identical_frames() {
        let (target, handle) = echo_listener();
        let proxy = ChaosProxy::spawn(target, ChaosConfig::seeded(7).with_split_rate(1.0)).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let frames: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 200 + i as usize]).collect();
        for f in &frames {
            write_frame(&mut stream, f).unwrap();
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for f in &frames {
            assert_eq!(&read_frame(&mut reader).unwrap().unwrap(), f);
        }
        stream.shutdown(Shutdown::Write).unwrap();
        assert_eq!(handle.join().unwrap(), 10);
        assert!(
            proxy.stats().splits.load(Ordering::Relaxed) > 0,
            "a 1.0 split rate must split chunks"
        );
    }

    #[test]
    fn severed_proxy_refuses_and_heals() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let target = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let proxy = ChaosProxy::spawn(target, ChaosConfig::seeded(3)).unwrap();

        proxy.sever();
        assert!(proxy.is_severed());
        // A dial may connect (the accept queue) but the bridge is refused:
        // the first read observes the reset.
        let refused = TcpStream::connect(proxy.addr()).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut one = [0u8; 1];
        let outcome = (&refused).read(&mut one);
        assert!(
            matches!(outcome, Ok(0) | Err(_)),
            "a severed proxy must never deliver bytes: {outcome:?}"
        );

        proxy.heal();
        let mut healed = TcpStream::connect(proxy.addr()).unwrap();
        // The upstream accepts after healing.
        let accepted = {
            let mut tries = 0;
            loop {
                match listener.accept() {
                    Ok((s, _)) => break Some(s),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && tries < 200 => {
                        tries += 1;
                        thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break None,
                }
            }
        };
        let upstream = accepted.expect("healed proxy bridges to the upstream");
        write_frame(&mut healed, b"after-heal").unwrap();
        let mut reader = BufReader::new(upstream);
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"after-heal");
        assert!(proxy.stats().partitioned.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn retargeting_moves_new_connections() {
        let (old_target, _old) = echo_listener();
        let proxy = ChaosProxy::spawn(old_target, ChaosConfig::seeded(5)).unwrap();
        let (new_target, new_handle) = echo_listener();
        proxy.set_target(new_target);

        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        write_frame(&mut stream, b"routed").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"routed");
        stream.shutdown(Shutdown::Write).unwrap();
        assert_eq!(new_handle.join().unwrap(), 1);
    }

    #[test]
    fn resets_tear_down_mid_stream() {
        let (target, _handle) = echo_listener();
        let proxy =
            ChaosProxy::spawn(target, ChaosConfig::seeded(11).with_reset_rate(1.0)).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        // Writes may succeed into the socket buffer, but the echo must die.
        for i in 0..10u8 {
            if write_frame(&mut stream, &[i; 32]).is_err() {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        let mut reader = BufReader::new(stream);
        let mut echoes = 0;
        while let Ok(Some(_)) = read_frame(&mut reader) {
            echoes += 1;
        }
        assert!(echoes < 10, "a 1.0 reset rate must kill the stream");
        assert!(proxy.stats().resets.load(Ordering::Relaxed) >= 1);
    }
}
