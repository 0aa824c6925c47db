//! The socket [`Link`]: witness gossip over real localhost TCP.
//!
//! [`TcpLink`] gives every witness an endpoint — a listener with an accept
//! loop feeding one inbox, plus one outbound `PeerLink` per peer with the
//! PR 1 reconnect posture: exponential backoff with seeded jitter, dials
//! and writes under deadlines. Every ordered pair of endpoints is joined
//! through a [`ChaosProxy`], so partitions, resets, splits and slow-loris
//! stalls are available on every path uniformly, and an endpoint that
//! comes back [`Link::up`] on a fresh ephemeral port is healed by
//! re-targeting the proxies that point at it.
//!
//! Frames are the existing length-prefixed wire discipline
//! ([`adlp_pubsub::wire`]) carrying self-authenticating payloads, so paths
//! need no handshake: a frame is trusted exactly as far as its signatures,
//! whoever delivered it. This module moves bytes and nothing else — what a
//! frame *means* is decided by [`crate::federation::Federation`], which
//! re-sends its full view every round; that re-broadcast is what makes a
//! path that died mid-round whole the first round after it redials.

use crate::federation::{Link, LinkCounters};
use adlp_pubsub::transport::chaos::{ChaosConfig, ChaosProxy};
use adlp_pubsub::wire::{read_frame, write_frame};
use adlp_pubsub::PubSubError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Tuning for the TCP gossip endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpGossipConfig {
    /// Per-dial connect deadline.
    pub dial_timeout: Duration,
    /// Initial redial backoff after a link failure.
    pub backoff: Duration,
    /// Backoff ceiling (doubling stops here).
    pub max_backoff: Duration,
    /// Write deadline on outbound gossip sockets (a peer that stops
    /// draining is treated as down, not waited on forever).
    pub write_timeout: Duration,
    /// How long a round lets frames traverse the wire before draining.
    pub settle: Duration,
}

impl Default for TcpGossipConfig {
    fn default() -> Self {
        TcpGossipConfig {
            dial_timeout: Duration::from_millis(250),
            backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(400),
            write_timeout: Duration::from_millis(500),
            settle: Duration::from_millis(40),
        }
    }
}

impl TcpGossipConfig {
    /// Derives a configuration sized for links with up to `latency` of
    /// one-way delay (queueing, chaos injection, WAN hops). Every deadline
    /// scales conservatively *up* from the default — a config tuned for a
    /// slow link is always safe on a fast one, just less eager:
    ///
    /// * `settle` stretches to cover four link traversals beyond the
    ///   default, so a round still lets delayed frames land before the
    ///   drain;
    /// * `dial_timeout` / `write_timeout` grow to at least eight
    ///   traversals, so a merely-slow peer is not declared dead;
    /// * `max_backoff` grows with the link, so redial pressure matches the
    ///   timescale the link actually heals on.
    pub fn for_link_latency(latency: Duration) -> Self {
        let d = TcpGossipConfig::default();
        TcpGossipConfig {
            settle: d.settle + latency * 4,
            dial_timeout: d.dial_timeout.max(latency * 8),
            write_timeout: d.write_timeout.max(latency * 8),
            max_backoff: d.max_backoff.max(latency * 4),
            ..d
        }
    }
}

/// Link-lifetime totals, shared with every endpoint's threads so they
/// outlive any one of them.
#[derive(Debug, Default)]
struct LinkStats {
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    send_failures: AtomicU64,
    reconnects: AtomicU64,
}

/// One outbound gossip path with reconnect state.
struct PeerLink {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Set after the first successful connection, so a later success
    /// counts as a *re*connect.
    ever_connected: bool,
    backoff: Duration,
    next_dial_at: Instant,
}

impl PeerLink {
    fn new(addr: SocketAddr) -> Self {
        PeerLink {
            addr,
            stream: None,
            ever_connected: false,
            backoff: Duration::ZERO,
            next_dial_at: Instant::now(),
        }
    }

    /// Marks the path failed and schedules the next dial with exponential
    /// backoff and seeded jitter (±50%), so a flapping federation does not
    /// thundering-herd its way back.
    fn mark_failed(&mut self, config: &TcpGossipConfig, rng: &mut StdRng) {
        self.stream = None;
        self.backoff = if self.backoff.is_zero() {
            config.backoff
        } else {
            (self.backoff * 2).min(config.max_backoff)
        };
        let jitter_pct = 50 + (rng.next_u64() % 101); // 50..=150
        let wait = self.backoff.mul_f64(jitter_pct as f64 / 100.0);
        self.next_dial_at = Instant::now() + wait;
    }

    /// The live socket, dialing first if the path is down and clear of its
    /// backoff window.
    fn connected(
        &mut self,
        config: &TcpGossipConfig,
        rng: &mut StdRng,
        stats: &LinkStats,
    ) -> Option<&mut TcpStream> {
        if self.stream.is_none() {
            if Instant::now() < self.next_dial_at {
                return None;
            }
            match TcpStream::connect_timeout(&self.addr, config.dial_timeout) {
                Ok(stream) => {
                    // adlp-lint: allow(discarded-fallible) — nodelay and deadlines are best-effort tuning
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(config.write_timeout));
                    if std::mem::replace(&mut self.ever_connected, true) {
                        stats.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    self.backoff = Duration::ZERO;
                    self.stream = Some(stream);
                }
                Err(_) => self.mark_failed(config, rng),
            }
        }
        self.stream.as_mut()
    }
}

/// One witness's socket presence: a listener feeding an inbox, and the
/// outbound paths to its peers.
struct Endpoint {
    addr: SocketAddr,
    inbox: Receiver<Vec<u8>>,
    /// Outbound paths by peer index (`None` at this endpoint's own), and
    /// the jitter RNG their backoff draws from.
    peers: Mutex<(Vec<Option<PeerLink>>, StdRng)>,
    shutdown: Arc<AtomicBool>,
    /// Accepted inbound sockets, so `Drop` can unblock their reader
    /// threads.
    accepted: Arc<Mutex<Vec<TcpStream>>>,
}

impl Endpoint {
    /// Binds a listener on an ephemeral localhost port and starts the
    /// accept loop; outbound paths are wired separately, once the proxies
    /// fronting the peers exist.
    fn spawn(w: usize, jitter_seed: u64, stats: &Arc<LinkStats>) -> Result<Self, PubSubError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (inbox_tx, inbox) = unbounded();
        let shutdown = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(Mutex::new(Vec::new()));
        {
            let (shutdown, accepted, stats) = (
                Arc::clone(&shutdown),
                Arc::clone(&accepted),
                Arc::clone(stats),
            );
            thread::Builder::new()
                .name(format!("witness-{w}-accept"))
                .spawn(move || accept_loop(listener, inbox_tx, shutdown, accepted, stats))
                .map_err(|e| PubSubError::Io(format!("spawn witness accept loop: {e}")))?;
        }
        let rng = StdRng::seed_from_u64(jitter_seed ^ ((w as u64) << 20) ^ 0x7C9);
        Ok(Endpoint {
            addr,
            inbox,
            peers: Mutex::new((Vec::new(), rng)),
            shutdown,
            accepted,
        })
    }

    fn send(&self, to: usize, frame: &[u8], config: &TcpGossipConfig, stats: &LinkStats) -> bool {
        let mut guard = self.peers.lock();
        let (peers, rng) = &mut *guard;
        let Some(Some(peer)) = peers.get_mut(to) else {
            return false;
        };
        let Some(stream) = peer.connected(config, rng, stats) else {
            return false;
        };
        if write_frame(stream, frame).is_err() {
            peer.mark_failed(config, rng);
            return false;
        }
        true
    }
}

impl Drop for Endpoint {
    /// The listener stops accepting and every inbound socket is reset
    /// (unblocking its reader thread); outbound paths close with the
    /// struct.
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for stream in self.accepted.lock().drain(..) {
            // adlp-lint: allow(discarded-fallible) — the socket may already be dead, which is the desired end state
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    inbox: Sender<Vec<u8>>,
    shutdown: Arc<AtomicBool>,
    accepted: Arc<Mutex<Vec<TcpStream>>>,
    stats: Arc<LinkStats>,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(_) => return,
        };
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        {
            let mut conns = accepted.lock();
            conns.push(registered);
            if conns.len() > 256 {
                conns.retain(|s| s.peer_addr().is_ok());
            }
        }
        let inbox = inbox.clone();
        let shutdown = Arc::clone(&shutdown);
        let stats = Arc::clone(&stats);
        // adlp-lint: allow(discarded-fallible) — a reader that cannot spawn just loses this connection; the peer redials
        let _ = thread::Builder::new()
            .name("witness-gossip-reader".into())
            .spawn(move || {
                let mut reader = BufReader::new(stream);
                // Raw frames go straight to the inbox; decoding and
                // verification happen in the engine, behind
                // `recv_gossip_frame`.
                while let Ok(Some(frame)) = read_frame(&mut reader) {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    stats.frames_received.fetch_add(1, Ordering::Relaxed);
                    if inbox.send(frame).is_err() {
                        return;
                    }
                }
            });
    }
}

/// The socket mesh: one endpoint per witness, one [`ChaosProxy`] per
/// ordered pair.
pub struct TcpLink {
    tcp: TcpGossipConfig,
    jitter_seed: u64,
    endpoints: Vec<Option<Endpoint>>,
    /// `proxies[from][to]` fronts `to`'s listener for dials from `from`.
    proxies: Vec<Vec<Option<ChaosProxy>>>,
    stats: Arc<LinkStats>,
}

impl TcpLink {
    /// Binds `n` endpoints on localhost and a chaos proxy on every ordered
    /// path between them (each proxy's chaos seeded per path from
    /// `chaos.seed`, which also seeds the dial jitter).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from listener and proxy setup.
    pub fn spawn(n: usize, tcp: TcpGossipConfig, chaos: ChaosConfig) -> Result<Self, PubSubError> {
        let stats = Arc::new(LinkStats::default());
        let endpoints = (0..n)
            .map(|w| Endpoint::spawn(w, chaos.seed, &stats))
            .collect::<Result<Vec<_>, _>>()?;
        let mut proxies: Vec<Vec<Option<ChaosProxy>>> = Vec::with_capacity(n);
        for from in 0..n {
            let mut row = Vec::with_capacity(n);
            for (to, endpoint) in endpoints.iter().enumerate() {
                row.push(if from == to {
                    None
                } else {
                    let path_chaos = ChaosConfig {
                        seed: chaos.seed ^ ((from as u64) << 16) ^ to as u64,
                        ..chaos.clone()
                    };
                    Some(ChaosProxy::spawn(endpoint.addr, path_chaos)?)
                });
            }
            proxies.push(row);
        }
        let link = TcpLink {
            tcp,
            jitter_seed: chaos.seed,
            endpoints: endpoints.into_iter().map(Some).collect(),
            proxies,
            stats,
        };
        for w in 0..n {
            link.wire_peers(w);
        }
        Ok(link)
    }

    /// Points endpoint `w`'s outbound paths at its peers' proxy fronts.
    fn wire_peers(&self, w: usize) {
        if let (Some(Some(endpoint)), Some(row)) = (self.endpoints.get(w), self.proxies.get(w)) {
            endpoint.peers.lock().0 = row
                .iter()
                .map(|proxy| proxy.as_ref().map(|p| PeerLink::new(p.addr())))
                .collect();
        }
    }

    /// Every proxy on a path to or from `w`.
    fn paths_of(&self, w: usize) -> impl Iterator<Item = &ChaosProxy> {
        let outbound = self.proxies.get(w).into_iter().flatten();
        let inbound = self.proxies.iter().filter_map(move |row| row.get(w));
        outbound.chain(inbound).flatten()
    }
}

impl Link for TcpLink {
    fn send(&self, from: usize, to: usize, frame: &[u8]) -> bool {
        let sent = self
            .endpoints
            .get(from)
            .and_then(Option::as_ref)
            .is_some_and(|endpoint| endpoint.send(to, frame, &self.tcp, &self.stats));
        let counter = if sent {
            &self.stats.frames_sent
        } else {
            &self.stats.send_failures
        };
        counter.fetch_add(1, Ordering::Relaxed);
        sent
    }

    fn recv(&self, at: usize) -> Option<Vec<u8>> {
        self.endpoints.get(at)?.as_ref()?.inbox.try_recv().ok()
    }

    fn settle(&self) {
        thread::sleep(self.tcp.settle);
    }

    fn sever(&mut self, w: usize) {
        self.paths_of(w).for_each(ChaosProxy::sever);
    }

    fn heal(&mut self, w: usize) {
        self.paths_of(w).for_each(ChaosProxy::heal);
    }

    fn down(&mut self, w: usize) {
        if let Some(endpoint) = self.endpoints.get_mut(w) {
            *endpoint = None;
        }
    }

    fn up(&mut self, w: usize) -> Result<(), PubSubError> {
        if w >= self.endpoints.len() {
            return Err(PubSubError::Malformed("witness endpoint index"));
        }
        let endpoint = Endpoint::spawn(w, self.jitter_seed, &self.stats)?;
        // The fresh listener has a fresh ephemeral port: every proxy that
        // fronts `w` is re-pointed at it.
        for row in &self.proxies {
            if let Some(Some(proxy)) = row.get(w) {
                proxy.set_target(endpoint.addr);
            }
        }
        if let Some(slot) = self.endpoints.get_mut(w) {
            *slot = Some(endpoint);
        }
        self.wire_peers(w);
        Ok(())
    }

    fn counters(&self) -> LinkCounters {
        LinkCounters {
            frames_sent: self.stats.frames_sent.load(Ordering::Relaxed),
            frames_received: self.stats.frames_received.load(Ordering::Relaxed),
            send_failures: self.stats.send_failures.load(Ordering::Relaxed),
            reconnects: self.stats.reconnects.load(Ordering::Relaxed),
            injected_faults: self
                .proxies
                .iter()
                .flatten()
                .flatten()
                .map(|proxy| proxy.stats().total_faults())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::tests::{honest_federation, logger_id};
    use crate::federation::FederationConfig;

    #[test]
    fn scaled_settle_window_converges_at_ten_times_default_latency() {
        // Every chunk on every path is delayed by up to 10× the default
        // chaos latency bound — far beyond the default 40ms settle window.
        let latency = Duration::from_millis(200);
        let tcp = TcpGossipConfig::for_link_latency(latency);
        assert_eq!(tcp.settle, Duration::from_millis(840));
        assert!(tcp.dial_timeout >= latency * 8);
        assert!(tcp.write_timeout >= latency * 8);
        assert!(tcp.max_backoff >= latency * 4);

        let config = FederationConfig::new(1).with_seed(53);
        let chaos = ChaosConfig::seeded(53).with_delay(1.0, latency);
        let link = TcpLink::spawn(config.witnesses(), tcp, chaos).unwrap();
        let (fed, _, _) = honest_federation(53, config, Box::new(link));
        assert!(
            fed.run_until_converged(6).is_some(),
            "federation converges despite 10× link latency"
        );
        assert_eq!(fed.witnessed(&logger_id()).expect("quorum").sth.size, 4);
    }

    /// Retries `send` until it reports `want`, riding out dial backoff.
    fn send_until(link: &TcpLink, want: bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while link.send(0, 1, b"ping") != want {
            assert!(Instant::now() < deadline, "send never became {want}");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn a_restarted_peer_is_redialed_through_backoff_on_its_fresh_port() {
        let mut link =
            TcpLink::spawn(2, TcpGossipConfig::default(), ChaosConfig::seeded(67)).unwrap();
        send_until(&link, true);
        link.settle();
        assert_eq!(link.recv(1).as_deref(), Some(&b"ping"[..]));
        assert_eq!(link.counters().reconnects, 0);

        // Power-cut the receiver: the proxy loses its upstream, the
        // sender's writes start failing, and the path enters backoff.
        link.down(1);
        assert_eq!(link.recv(1), None);
        send_until(&link, false);
        let failed = link.counters();
        assert!(failed.send_failures >= 1, "{failed:?}");

        // Back on a fresh port: the re-targeted proxy carries the redial.
        link.up(1).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while link.recv(1).is_none() {
            assert!(
                Instant::now() < deadline,
                "no frame reached the restarted peer"
            );
            send_until(&link, true);
            link.settle();
        }
        let healed = link.counters();
        assert!(healed.reconnects >= 1, "{healed:?}");
        assert!(healed.frames_sent > failed.frames_sent, "{healed:?}");
        assert!(healed.send_failures >= failed.send_failures, "{healed:?}");
    }
}
