//! Nodes, publishers and subscriptions.
//!
//! A [`Node`] is a software component (`c_i` in the paper). It advertises
//! topics (outputs `O_i`) and subscribes to topics (inputs `I_i`). All
//! transport-layer behavior — signing, acknowledgement, gating — is injected
//! via the node's [`LinkInterceptor`], so applications written against this
//! API are unaware of whether ADLP is active (the paper's "transparent to
//! the application layer" property).

use crate::clock::{Clock, SystemClock};
use crate::interceptor::{ConnectionInfo, LinkInterceptor, NoopInterceptor};
use crate::master::{Contact, Master};
use crate::message::{Header, Message};
use crate::resilience::{LinkEvent, LinkHealth, ResilienceConfig};
use crate::stats::{LinkStats, LinkStatsSnapshot, NodeStats};
use crate::transport::faults::{FaultConfig, FaultStats, FaultyTransport};
use crate::transport::{inproc, tcp, FrameDuplex};
use crate::types::{NodeId, Topic};
use crate::wire::Handshake;
use crate::PubSubError;
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Which transport a node's publishers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Crossbeam channels within the process (fast, default).
    #[default]
    InProc,
    /// Real TCP sockets on localhost (like TCPROS).
    Tcp,
}

/// Per-subscription quality-of-service options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubscribeOptions {
    /// Bounds the publisher→subscriber queue to this many frames (ROS
    /// `queue_size`); a full queue drops new frames at the publisher.
    /// `None` = unbounded.
    pub queue_size: Option<usize>,
}

impl SubscribeOptions {
    /// Unbounded subscription (the default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the queue bound.
    pub fn with_queue_size(mut self, n: usize) -> Self {
        self.queue_size = Some(n);
        self
    }
}

/// Configures and registers a [`Node`].
///
/// # Example
///
/// ```
/// use adlp_pubsub::{Master, NodeBuilder, SystemClock};
/// use std::sync::Arc;
///
/// let master = Master::new();
/// let node = NodeBuilder::new("planner")
///     .clock(Arc::new(SystemClock))
///     .build(&master)?;
/// assert_eq!(node.id().as_str(), "planner");
/// # Ok::<(), adlp_pubsub::PubSubError>(())
/// ```
#[derive(Debug)]
pub struct NodeBuilder {
    id: NodeId,
    clock: Arc<dyn Clock>,
    interceptor: Arc<dyn LinkInterceptor>,
    transport: TransportKind,
    resilience: ResilienceConfig,
    faults: Option<FaultConfig>,
}

impl NodeBuilder {
    /// Starts building a node with the given id.
    pub fn new(id: impl Into<NodeId>) -> Self {
        NodeBuilder {
            id: id.into(),
            clock: Arc::new(SystemClock),
            interceptor: Arc::new(NoopInterceptor),
            transport: TransportKind::InProc,
            resilience: ResilienceConfig::default(),
            faults: None,
        }
    }

    /// Sets the timestamp source.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Installs a transport-layer interceptor (e.g. ADLP).
    pub fn interceptor(mut self, interceptor: Arc<dyn LinkInterceptor>) -> Self {
        self.interceptor = interceptor;
        self
    }

    /// Selects the transport for topics this node publishes.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Configures ack deadlines, retries and I/O timeouts for links this
    /// node publishes on. The default config is inert, preserving the
    /// paper's withhold-until-acked semantics.
    pub fn resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Installs deterministic fault injection on every outgoing link this
    /// node publishes on (testing/simulation only).
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Registers the node with the master.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::DuplicateNode`] for a taken id.
    pub fn build(self, master: &Master) -> Result<Node, PubSubError> {
        master.register_node(&self.id)?;
        Ok(Node {
            shared: Arc::new(NodeShared {
                id: self.id,
                master: master.clone(),
                clock: self.clock,
                interceptor: self.interceptor,
                stats: NodeStats::new(),
                transport: self.transport,
                resilience: self.resilience,
                faults: self.faults,
                fault_stats: Arc::new(FaultStats::default()),
                events: Mutex::new(Vec::new()),
            }),
        })
    }
}

#[derive(Debug)]
struct NodeShared {
    id: NodeId,
    master: Master,
    clock: Arc<dyn Clock>,
    interceptor: Arc<dyn LinkInterceptor>,
    stats: NodeStats,
    transport: TransportKind,
    resilience: ResilienceConfig,
    faults: Option<FaultConfig>,
    fault_stats: Arc<FaultStats>,
    events: Mutex<Vec<LinkEvent>>,
}

impl NodeShared {
    fn push_event(&self, event: LinkEvent) {
        self.events.lock().push(event);
    }
}

/// FNV-1a over a node/topic pair — a stable per-link salt for fault
/// injection and backoff jitter, so each link gets an independent but
/// reproducible random stream.
fn link_salt(topic: &Topic, subscriber: &NodeId) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in topic
        .as_str()
        .bytes()
        .chain([0u8])
        .chain(subscriber.as_str().bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A registered software component.
#[derive(Debug, Clone)]
pub struct Node {
    shared: Arc<NodeShared>,
}

impl Node {
    /// This node's id.
    pub fn id(&self) -> &NodeId {
        &self.shared.id
    }

    /// Traffic counters for this node.
    pub fn stats(&self) -> &NodeStats {
        &self.shared.stats
    }

    /// The node's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.shared.clock
    }

    /// Drains the link-health events (ack timeouts, degradations,
    /// recoveries, teardowns) recorded since the last call.
    pub fn take_events(&self) -> Vec<LinkEvent> {
        std::mem::take(&mut *self.shared.events.lock())
    }

    /// Counters for injected faults across all of this node's links
    /// (all zero unless [`NodeBuilder::faults`] was configured).
    pub fn fault_stats(&self) -> &Arc<FaultStats> {
        &self.shared.fault_stats
    }

    /// Claims `topic` and starts accepting subscribers.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::TopicAlreadyPublished`] if the topic is owned,
    /// or transport errors when binding a TCP listener.
    pub fn advertise(&self, topic: impl Into<Topic>) -> Result<Publisher, PubSubError> {
        let topic = topic.into();
        let shared = Arc::new(PubShared {
            topic: topic.clone(),
            node: Arc::clone(&self.shared),
            conns: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            tcp_addr: Mutex::new(None),
        });
        match self.shared.transport {
            TransportKind::InProc => {
                let (handle, queue) = inproc::control_channel();
                self.shared.master.register_publisher(
                    &topic,
                    &self.shared.id,
                    Contact::InProc(handle),
                )?;
                let accept_shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("pa-{}", self.shared.id))
                    .spawn(move || {
                        while let Ok(req) = queue.recv() {
                            if accept_shared.closed.load(Ordering::SeqCst) {
                                // adlp-lint: allow(discarded-fallible) — the connecting peer may already have given up waiting
                                let _ = req.reply.send(Err(PubSubError::Disconnected));
                                continue;
                            }
                            let reply_hs = accept_shared.local_handshake();
                            match accept_shared.admit(req.handshake, req.duplex) {
                                Ok(()) => {
                                    // adlp-lint: allow(discarded-fallible) — the connecting peer may already have given up waiting
                                    let _ = req.reply.send(Ok(reply_hs));
                                }
                                Err(e) => {
                                    // adlp-lint: allow(discarded-fallible) — the connecting peer may already have given up waiting
                                    let _ = req.reply.send(Err(e));
                                }
                            }
                        }
                    })
                    .map_err(|e| PubSubError::Io(format!("spawn accept thread: {e}")))?;
            }
            TransportKind::Tcp => {
                let listener = tcp::bind()?;
                let addr = listener.local_addr()?;
                *shared.tcp_addr.lock() = Some(addr);
                self.shared.master.register_publisher(
                    &topic,
                    &self.shared.id,
                    Contact::Tcp(addr),
                )?;
                let accept_shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("pa-{}", self.shared.id))
                    .spawn(move || {
                        for stream in listener.incoming() {
                            if accept_shared.closed.load(Ordering::SeqCst) {
                                break;
                            }
                            let Ok(mut stream) = stream else { continue };
                            let reply_hs = accept_shared.local_handshake();
                            let Ok(peer_hs) = tcp::accept_handshake(&mut stream, &reply_hs) else {
                                continue;
                            };
                            let queue_size = peer_hs.get("queue_size").and_then(|v| v.parse().ok());
                            let timeouts = tcp::SocketTimeouts {
                                read: accept_shared.node.resilience.io_read_timeout,
                                write: accept_shared.node.resilience.io_write_timeout,
                            };
                            let Ok(duplex) = tcp::bridge_stream_tuned(stream, queue_size, timeouts)
                            else {
                                continue;
                            };
                            // adlp-lint: allow(discarded-fallible) — a peer rejected for a malformed handshake simply isn't admitted; there is no caller to report to on the accept thread
                            let _ = accept_shared.admit(peer_hs, duplex);
                        }
                    })
                    .map_err(|e| PubSubError::Io(format!("spawn accept thread: {e}")))?;
            }
        }
        Ok(Publisher { shared })
    }

    /// Connects to `topic`'s publisher; `callback` runs on the connection's
    /// reader thread for every delivered message.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::NoSuchTopic`] when nothing publishes `topic`,
    /// or connection errors.
    pub fn subscribe<F>(
        &self,
        topic: impl Into<Topic>,
        callback: F,
    ) -> Result<Subscription, PubSubError>
    where
        F: Fn(Message) + Send + 'static,
    {
        self.subscribe_with(topic, SubscribeOptions::default(), callback)
    }

    /// Like [`Node::subscribe`], with explicit QoS options.
    ///
    /// # Errors
    ///
    /// Same as [`Node::subscribe`].
    pub fn subscribe_with<F>(
        &self,
        topic: impl Into<Topic>,
        options: SubscribeOptions,
        callback: F,
    ) -> Result<Subscription, PubSubError>
    where
        F: Fn(Message) + Send + 'static,
    {
        let topic = topic.into();
        let (pub_node, contact) = self
            .shared
            .master
            .lookup(&topic)
            .ok_or_else(|| PubSubError::NoSuchTopic(topic.clone()))?;

        let mut hs = Handshake::new()
            .with("topic", topic.as_str())
            .with("subscriber", self.shared.id.as_str());
        if let Some(q) = options.queue_size {
            hs = hs.with("queue_size", q.to_string());
        }
        for (k, v) in self.shared.interceptor.handshake_fields(&topic, false) {
            hs = hs.with(k, v);
        }

        let (duplex, peer_hs) = match contact {
            Contact::InProc(handle) => inproc::dial_with(&handle, hs, options.queue_size)?,
            Contact::Tcp(addr) => tcp::dial_tuned(
                addr,
                &hs,
                tcp::SocketTimeouts {
                    read: self.shared.resilience.io_read_timeout,
                    write: self.shared.resilience.io_write_timeout,
                },
            )?,
        };

        let info = ConnectionInfo {
            topic,
            publisher: pub_node,
            subscriber: self.shared.id.clone(),
            peer_fields: peer_hs,
        };
        self.shared.interceptor.on_connect(&info, false);

        let closed = Arc::new(AtomicBool::new(false));
        let reader_closed = Arc::clone(&closed);
        let node_shared = Arc::clone(&self.shared);
        let reader_info = info.clone();
        let handle = thread::Builder::new()
            .name(format!("sr-{}", reader_info.subscriber))
            .spawn(move || loop {
                let body = match duplex.rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(b) => b,
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                        if reader_closed.load(Ordering::SeqCst) {
                            return;
                        }
                        continue;
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                };
                if reader_closed.load(Ordering::SeqCst) {
                    return;
                }
                node_shared.stats.record_receive(body.len());
                let outcome = node_shared.interceptor.on_recv(&reader_info, body);
                if let Some(reply) = outcome.reply {
                    if duplex.send(reply) {
                        node_shared.stats.record_reply();
                    }
                }
                match outcome.deliver {
                    Some(body) => match Message::decode(&body) {
                        Ok(msg) => callback(msg),
                        Err(_) => node_shared.stats.record_recv_dropped(),
                    },
                    None => node_shared.stats.record_recv_dropped(),
                }
            })
            .map_err(|e| PubSubError::Io(format!("spawn subscriber thread: {e}")))?;

        Ok(Subscription {
            info,
            closed,
            handle: Some(handle),
        })
    }

    /// Subscribes and returns a bounded message queue instead of running a
    /// callback — for applications that prefer polling (e.g. a control
    /// loop draining the latest sensor frame).
    ///
    /// The returned [`Subscription`] must be kept alive; dropping it stops
    /// delivery.
    ///
    /// # Errors
    ///
    /// Same as [`Node::subscribe`].
    pub fn subscribe_queue(
        &self,
        topic: impl Into<Topic>,
        options: SubscribeOptions,
    ) -> Result<(Subscription, crossbeam::channel::Receiver<Message>), PubSubError> {
        let (tx, rx) = match options.queue_size {
            Some(cap) => crossbeam::channel::bounded(cap.max(1)),
            None => crossbeam::channel::unbounded(),
        };
        let sub = self.subscribe_with(topic, options, move |msg| {
            // adlp-lint: allow(discarded-fallible) — bounded + full → drop the message; that is exactly queue_size backpressure semantics
            let _ = tx.try_send(msg);
        })?;
        Ok((sub, rx))
    }

    /// Deregisters the node id from the master (publishers must be closed
    /// separately).
    pub fn shutdown(&self) {
        self.shared.master.unregister_node(&self.shared.id);
    }
}

#[derive(Debug)]
struct PubShared {
    topic: Topic,
    node: Arc<NodeShared>,
    conns: Mutex<Vec<Arc<PubConn>>>,
    seq: AtomicU64,
    closed: AtomicBool,
    tcp_addr: Mutex<Option<SocketAddr>>,
}

const HEALTH_HEALTHY: u8 = 0;
const HEALTH_DEGRADED: u8 = 1;
const HEALTH_TORN_DOWN: u8 = 2;

/// The frame whose acknowledgement the publisher is currently waiting on
/// (only populated when `ResilienceConfig::ack_timeout` is set).
#[derive(Debug)]
struct AwaitState {
    seq: u64,
    frame: Vec<u8>,
    deadline: Instant,
    retries: u32,
}

#[derive(Debug)]
struct PubConn {
    info: ConnectionInfo,
    duplex: FrameDuplex,
    alive: AtomicBool,
    health: AtomicU8,
    salt: u64,
    link_stats: Arc<LinkStats>,
    awaiting: Mutex<Option<AwaitState>>,
}

impl PubConn {
    fn health(&self) -> LinkHealth {
        match self.health.load(Ordering::SeqCst) {
            HEALTH_HEALTHY => LinkHealth::Healthy,
            HEALTH_DEGRADED => LinkHealth::Degraded,
            _ => LinkHealth::TornDown,
        }
    }

    /// Closes the link exactly once: flags it dead, records the event, and
    /// lets the interceptor flush pending acks as evidence.
    fn tear_down(&self, node: &NodeShared) {
        self.alive.store(false, Ordering::SeqCst);
        if self.health.swap(HEALTH_TORN_DOWN, Ordering::SeqCst) != HEALTH_TORN_DOWN {
            node.push_event(LinkEvent::TornDown {
                topic: self.info.topic.clone(),
                subscriber: self.info.subscriber.clone(),
            });
            node.interceptor.on_disconnect(&self.info);
        }
    }

    /// A reverse frame arrived: the in-flight deadline is cancelled and a
    /// degraded link recovers. The interceptor still decides ack validity;
    /// liveness and accountability are separate concerns.
    fn note_return_progress(&self, node: &NodeShared) {
        *self.awaiting.lock() = None;
        if self
            .health
            .compare_exchange(
                HEALTH_DEGRADED,
                HEALTH_HEALTHY,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            node.push_event(LinkEvent::Recovered {
                topic: self.info.topic.clone(),
                subscriber: self.info.subscriber.clone(),
            });
        }
    }

    /// How long the reverse reader may block before the armed ack deadline
    /// (if any) needs attention. The idle tick is capped at the configured
    /// ack timeout: a publish can arm a deadline *while the reader is
    /// already blocked*, so sleeping longer than one timeout period would
    /// let that deadline slip unobserved past the ack's arrival.
    fn tick_wait(&self, node: &NodeShared) -> Duration {
        const IDLE_TICK: Duration = Duration::from_millis(50);
        let idle = node
            .resilience
            .ack_timeout
            .map_or(IDLE_TICK, |t| t.min(IDLE_TICK));
        match self.awaiting.lock().as_ref() {
            Some(state) => state
                .deadline
                .saturating_duration_since(Instant::now())
                .min(idle),
            None => idle,
        }
    }

    /// Called from the reverse-reader tick: if the in-flight ack is overdue,
    /// degrade the link and retry the frame, or tear the link down once
    /// retries are exhausted.
    fn check_ack_deadline(&self, node: &NodeShared) {
        let Some(timeout) = node.resilience.ack_timeout else {
            return;
        };
        let mut guard = self.awaiting.lock();
        let Some(state) = guard.as_mut() else { return };
        if Instant::now() < state.deadline {
            return;
        }
        let attempt = state.retries + 1;
        node.push_event(LinkEvent::AckTimeout {
            topic: self.info.topic.clone(),
            subscriber: self.info.subscriber.clone(),
            seq: state.seq,
            attempt,
        });
        if self
            .health
            .compare_exchange(
                HEALTH_HEALTHY,
                HEALTH_DEGRADED,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            node.push_event(LinkEvent::Degraded {
                topic: self.info.topic.clone(),
                subscriber: self.info.subscriber.clone(),
            });
        }
        if state.retries >= node.resilience.max_retries {
            *guard = None;
            drop(guard);
            self.tear_down(node);
            return;
        }
        state.retries = attempt;
        let frame = state.frame.clone();
        state.deadline = Instant::now() + timeout + node.resilience.backoff_for(attempt, self.salt);
        drop(guard);
        self.link_stats.record_retry();
        match self.duplex.try_send(frame) {
            crate::transport::SendOutcome::Sent => {}
            crate::transport::SendOutcome::Dropped => {
                self.link_stats.record_send_dropped();
                node.stats.record_send_dropped();
            }
            crate::transport::SendOutcome::Disconnected => self.tear_down(node),
        }
    }
}

impl PubShared {
    fn local_handshake(&self) -> Handshake {
        let mut hs = Handshake::new()
            .with("topic", self.topic.as_str())
            .with("publisher", self.node.id.as_str());
        for (k, v) in self.node.interceptor.handshake_fields(&self.topic, true) {
            hs = hs.with(k, v);
        }
        hs
    }

    /// Validates a subscriber handshake and installs the connection.
    fn admit(self: &Arc<Self>, peer_hs: Handshake, duplex: FrameDuplex) -> Result<(), PubSubError> {
        if peer_hs.get("topic") != Some(self.topic.as_str()) {
            return Err(PubSubError::Malformed("handshake (topic mismatch)"));
        }
        let subscriber = peer_hs
            .get("subscriber")
            .ok_or(PubSubError::Malformed("handshake (missing subscriber)"))?;
        let info = ConnectionInfo {
            topic: self.topic.clone(),
            publisher: self.node.id.clone(),
            subscriber: NodeId::new(subscriber),
            peer_fields: peer_hs,
        };
        self.node.interceptor.on_connect(&info, true);
        let salt = link_salt(&info.topic, &info.subscriber);
        let link_stats = Arc::new(LinkStats::new());

        // Interpose fault injection on the forward direction when asked to.
        let duplex = match &self.node.faults {
            Some(cfg) if !cfg.is_transparent() => {
                let qos_link = Arc::clone(&link_stats);
                let qos_node = self.node.stats.clone();
                FaultyTransport::wrap(
                    duplex,
                    cfg.clone(),
                    salt,
                    Arc::clone(&self.node.fault_stats),
                    move || {
                        qos_link.record_send_dropped();
                        qos_node.record_send_dropped();
                    },
                )
            }
            _ => duplex,
        };

        let conn = Arc::new(PubConn {
            info,
            duplex,
            alive: AtomicBool::new(true),
            health: AtomicU8::new(HEALTH_HEALTHY),
            salt,
            link_stats,
            awaiting: Mutex::new(None),
        });

        // Reverse-channel reader: acknowledgement frames → interceptor.
        // Its idle tick doubles as the ack-deadline clock when resilience
        // is active.
        let ret_conn = Arc::clone(&conn);
        let node = Arc::clone(&self.node);
        let closed = Arc::clone(self);
        thread::Builder::new()
            .name(format!("pr-{}", node.id))
            .spawn(move || {
                let resilient = node.resilience.is_active();
                loop {
                    let wait = if resilient {
                        ret_conn.tick_wait(&node)
                    } else {
                        Duration::from_millis(50)
                    };
                    let frame = match ret_conn.duplex.rx.recv_timeout(wait) {
                        Ok(f) => f,
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                            if closed.closed.load(Ordering::SeqCst)
                                || !ret_conn.alive.load(Ordering::SeqCst)
                            {
                                return;
                            }
                            if resilient {
                                ret_conn.check_ack_deadline(&node);
                                if !ret_conn.alive.load(Ordering::SeqCst) {
                                    return;
                                }
                            }
                            continue;
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                            ret_conn.tear_down(&node);
                            return;
                        }
                    };
                    node.stats.record_return();
                    if resilient {
                        ret_conn.note_return_progress(&node);
                    }
                    node.interceptor.on_return(&ret_conn.info, frame);
                }
            })
            .map_err(|e| PubSubError::Io(format!("spawn return reader: {e}")))?;

        self.conns.lock().push(conn);
        Ok(())
    }
}

/// Outcome of one [`Publisher::publish`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishReport {
    /// Sequence number assigned to this publication.
    pub seq: u64,
    /// Timestamp stamped into the header.
    pub stamp_ns: u64,
    /// Connections the message was sent on.
    pub sent: usize,
    /// Connections skipped by `may_send` gating (ADLP's unacknowledged-
    /// message penalty).
    pub skipped: usize,
}

/// The sending half of a topic.
#[derive(Debug)]
pub struct Publisher {
    shared: Arc<PubShared>,
}

impl Publisher {
    /// The topic this publisher owns.
    pub fn topic(&self) -> &Topic {
        &self.shared.topic
    }

    /// Number of live subscriber connections.
    pub fn connection_count(&self) -> usize {
        self.shared
            .conns
            .lock()
            .iter()
            .filter(|c| c.alive.load(Ordering::SeqCst))
            .count()
    }

    /// Health of the link to `subscriber`, or `None` for an unknown peer
    /// (including links already pruned after teardown — the teardown is
    /// still visible as a [`LinkEvent::TornDown`] in [`Node::take_events`]).
    pub fn link_health(&self, subscriber: &NodeId) -> Option<LinkHealth> {
        self.shared
            .conns
            .lock()
            .iter()
            .find(|c| &c.info.subscriber == subscriber)
            .map(|c| c.health())
    }

    /// Per-link traffic snapshots (subscriber id, counters).
    pub fn link_stats(&self) -> Vec<(NodeId, LinkStatsSnapshot)> {
        self.shared
            .conns
            .lock()
            .iter()
            .map(|c| (c.info.subscriber.clone(), c.link_stats.snapshot()))
            .collect()
    }

    /// Blocks until at least `n` subscribers are connected or `timeout`
    /// elapses; returns whether the target was reached.
    pub fn wait_for_subscribers(&self, n: usize, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.connection_count() < n {
            if std::time::Instant::now() > deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Publishes `payload` to all connected subscribers.
    ///
    /// The header (sequence number + timestamp) is stamped here; the node's
    /// interceptor may transform the body per connection (ADLP appends the
    /// signature — computed once per publication, not per subscriber) and may
    /// gate individual connections.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::Disconnected`] after [`Publisher::close`].
    pub fn publish(&self, payload: &[u8]) -> Result<PublishReport, PubSubError> {
        let s = &self.shared;
        if s.closed.load(Ordering::SeqCst) {
            return Err(PubSubError::Disconnected);
        }
        let seq = s.seq.fetch_add(1, Ordering::SeqCst) + 1;
        let stamp_ns = s.node.clock.now_ns();
        let body = Message::encode_parts(Header { seq, stamp_ns }, payload);
        s.node.stats.record_publish();

        let conns: Vec<Arc<PubConn>> = s.conns.lock().clone();
        let resilient = s.node.resilience.is_active();
        let mut sent = 0;
        let mut skipped = 0;
        for conn in &conns {
            if !conn.alive.load(Ordering::SeqCst) {
                continue;
            }
            if !s.node.interceptor.may_send(&conn.info) {
                s.node.stats.record_send_skipped();
                skipped += 1;
                continue;
            }
            let out_body = s.node.interceptor.on_send(&conn.info, body.clone());
            let len = out_body.len();
            // Arm the ack deadline before handing the frame to the duplex,
            // so a fast ack can never race an unarmed timer.
            if resilient {
                if let Some(timeout) = s.node.resilience.ack_timeout {
                    *conn.awaiting.lock() = Some(AwaitState {
                        seq,
                        frame: out_body.clone(),
                        deadline: Instant::now() + timeout,
                        retries: 0,
                    });
                }
            }
            match conn.duplex.try_send(out_body) {
                crate::transport::SendOutcome::Sent => {
                    s.node.stats.record_send(len);
                    conn.link_stats.record_send();
                    sent += 1;
                }
                crate::transport::SendOutcome::Dropped => {
                    s.node.stats.record_send_dropped();
                    conn.link_stats.record_send_dropped();
                    if resilient {
                        // Nothing in flight after a QoS drop.
                        *conn.awaiting.lock() = None;
                    }
                }
                crate::transport::SendOutcome::Disconnected => {
                    conn.tear_down(&s.node);
                }
            }
        }
        // Drop dead connections.
        if conns.iter().any(|c| !c.alive.load(Ordering::SeqCst)) {
            s.conns.lock().retain(|c| c.alive.load(Ordering::SeqCst));
        }
        Ok(PublishReport {
            seq,
            stamp_ns,
            sent,
            skipped,
        })
    }

    /// Stops accepting subscribers, releases the topic, and severs all
    /// connections.
    pub fn close(&self) {
        let s = &self.shared;
        if s.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        s.node.master.unregister_publisher(&s.topic, &s.node.id);
        // Wake a blocked TCP accept loop so it can observe `closed`.
        if let Some(addr) = *s.tcp_addr.lock() {
            let _ = std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(100));
        }
        s.conns.lock().clear();
    }
}

impl Drop for Publisher {
    fn drop(&mut self) {
        self.close();
    }
}

/// A live subscription; dropping it (or calling [`Subscription::close`])
/// stops the reader thread.
#[derive(Debug)]
pub struct Subscription {
    info: ConnectionInfo,
    closed: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Subscription {
    /// Connection facts (topic, publisher, peer handshake fields).
    pub fn info(&self) -> &ConnectionInfo {
        &self.info
    }

    /// Stops the reader thread and waits for it to exit.
    pub fn close(&mut self) {
        self.closed.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::sync::atomic::AtomicUsize;

    fn wait_until(pred: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !pred() {
            assert!(std::time::Instant::now() < deadline, "timed out");
            thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn single_pub_single_sub_inproc() {
        let master = Master::new();
        let p = NodeBuilder::new("cam").build(&master).unwrap();
        let s = NodeBuilder::new("det").build(&master).unwrap();
        let publisher = p.advertise("image").unwrap();

        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);
        let _sub = s
            .subscribe("image", move |m| {
                got2.lock().push((m.header.seq, m.payload.to_vec()))
            })
            .unwrap();

        publisher.publish(b"frame-a").unwrap();
        publisher.publish(b"frame-b").unwrap();
        wait_until(|| got.lock().len() == 2);
        let msgs = got.lock();
        assert_eq!(msgs[0], (1, b"frame-a".to_vec()));
        assert_eq!(msgs[1], (2, b"frame-b".to_vec()));
    }

    #[test]
    fn multiple_subscribers_each_get_a_copy() {
        let master = Master::new();
        let p = NodeBuilder::new("lidar").build(&master).unwrap();
        let publisher = p.advertise("scan").unwrap();
        let count = Arc::new(AtomicUsize::new(0));
        let mut subs = Vec::new();
        for i in 0..4 {
            let s = NodeBuilder::new(format!("sub{i}")).build(&master).unwrap();
            let c = Arc::clone(&count);
            subs.push((
                s.clone(),
                s.subscribe("scan", move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap(),
            ));
        }
        assert!(publisher.wait_for_subscribers(4, Duration::from_secs(2)));
        let report = publisher.publish(&[0u8; 100]).unwrap();
        assert_eq!(report.sent, 4);
        wait_until(|| count.load(Ordering::SeqCst) == 4);
    }

    #[test]
    fn subscribe_unknown_topic_fails() {
        let master = Master::new();
        let n = NodeBuilder::new("n").build(&master).unwrap();
        assert!(matches!(
            n.subscribe("nope", |_| {}),
            Err(PubSubError::NoSuchTopic(_))
        ));
    }

    #[test]
    fn duplicate_topic_rejected_across_nodes() {
        let master = Master::new();
        let a = NodeBuilder::new("a").build(&master).unwrap();
        let b = NodeBuilder::new("b").build(&master).unwrap();
        let _pa = a.advertise("t").unwrap();
        assert!(matches!(
            b.advertise("t"),
            Err(PubSubError::TopicAlreadyPublished(_))
        ));
    }

    #[test]
    fn close_releases_topic_for_readvertise() {
        let master = Master::new();
        let a = NodeBuilder::new("a").build(&master).unwrap();
        let pa = a.advertise("t").unwrap();
        pa.close();
        assert!(pa.publish(b"x").is_err());
        let b = NodeBuilder::new("b").build(&master).unwrap();
        let _pb = b.advertise("t").unwrap();
    }

    #[test]
    fn manual_clock_stamps_headers() {
        let master = Master::new();
        let clock = ManualClock::new(7_000);
        let p = NodeBuilder::new("p")
            .clock(Arc::new(clock))
            .build(&master)
            .unwrap();
        let publisher = p.advertise("t").unwrap();
        let s = NodeBuilder::new("s").build(&master).unwrap();
        let stamps = Arc::new(Mutex::new(Vec::new()));
        let st = Arc::clone(&stamps);
        let _sub = s
            .subscribe("t", move |m| st.lock().push(m.header.stamp_ns))
            .unwrap();
        publisher.publish(b"x").unwrap();
        wait_until(|| !stamps.lock().is_empty());
        assert!(stamps.lock()[0] >= 7_000);
    }

    #[test]
    fn tcp_transport_end_to_end() {
        let master = Master::new();
        let p = NodeBuilder::new("cam")
            .transport(TransportKind::Tcp)
            .build(&master)
            .unwrap();
        let publisher = p.advertise("image").unwrap();
        let s = NodeBuilder::new("det").build(&master).unwrap();
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);
        let _sub = s
            .subscribe("image", move |m| got2.lock().push(m.payload.len()))
            .unwrap();
        publisher.publish(&vec![9u8; 50_000]).unwrap();
        wait_until(|| !got.lock().is_empty());
        assert_eq!(got.lock()[0], 50_000);
    }

    #[test]
    fn bounded_queue_drops_when_subscriber_stalls() {
        let master = Master::new();
        let p = NodeBuilder::new("p").build(&master).unwrap();
        let s = NodeBuilder::new("s").build(&master).unwrap();
        let publisher = p.advertise("t").unwrap();
        // The callback blocks until released, so the bounded queue fills
        // and further sends drop at the publisher.
        let gate = Arc::new((Mutex::new(false), parking_lot::Condvar::new()));
        let gate2 = Arc::clone(&gate);
        let _sub = s
            .subscribe_with("t", SubscribeOptions::new().with_queue_size(2), move |_| {
                let (lock, cvar) = &*gate2;
                let mut released = lock.lock();
                while !*released {
                    cvar.wait(&mut released);
                }
            })
            .unwrap();
        // 1 in-callback + 2 queued; everything beyond drops.
        for _ in 0..10 {
            publisher.publish(&[0u8; 8]).unwrap();
        }
        wait_until(|| p.stats().snapshot().send_dropped > 0);
        let snap = p.stats().snapshot();
        assert!(snap.sent <= 4, "sent {} exceeds queue bound", snap.sent);
        assert!(snap.send_dropped >= 6);
        // Release the subscriber so teardown is clean.
        let (lock, cvar) = &*gate;
        *lock.lock() = true;
        cvar.notify_all();
    }

    #[test]
    fn polled_subscription_delivers_messages() {
        let master = Master::new();
        let p = NodeBuilder::new("p").build(&master).unwrap();
        let s = NodeBuilder::new("s").build(&master).unwrap();
        let publisher = p.advertise("t").unwrap();
        let (_sub, rx) = s
            .subscribe_queue("t", SubscribeOptions::new().with_queue_size(8))
            .unwrap();
        publisher.publish(b"a").unwrap();
        publisher.publish(b"b").unwrap();
        let m1 = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let m2 = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(m1.payload.as_ref(), b"a");
        assert_eq!(m2.payload.as_ref(), b"b");
        assert_eq!(m2.header.seq, 2);
    }

    /// Acks every message immediately; used to exercise deadline recovery.
    #[derive(Debug)]
    struct EchoAck {
        /// Delay applied before acking, simulating a slow subscriber.
        delay: Duration,
    }

    impl LinkInterceptor for EchoAck {
        fn on_recv(&self, _conn: &ConnectionInfo, body: Vec<u8>) -> crate::RecvOutcome {
            if !self.delay.is_zero() {
                thread::sleep(self.delay);
            }
            crate::RecvOutcome {
                deliver: Some(body),
                reply: Some(b"ack".to_vec()),
            }
        }
    }

    /// Records disconnect notifications.
    #[derive(Debug, Default)]
    struct DisconnectSpy {
        disconnected: Arc<AtomicUsize>,
    }

    impl LinkInterceptor for DisconnectSpy {
        fn on_disconnect(&self, _conn: &ConnectionInfo) {
            self.disconnected.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn ack_deadline_degrades_then_tears_down_mute_subscriber() {
        let master = Master::new();
        let disconnected = Arc::new(AtomicUsize::new(0));
        let p = NodeBuilder::new("p")
            .interceptor(Arc::new(DisconnectSpy {
                disconnected: Arc::clone(&disconnected),
            }))
            .resilience(
                ResilienceConfig::new()
                    .with_ack_timeout(Duration::from_millis(30))
                    .with_max_retries(2)
                    .with_retry_backoff(Duration::from_millis(5)),
            )
            .build(&master)
            .unwrap();
        let s = NodeBuilder::new("s").build(&master).unwrap();
        let publisher = p.advertise("t").unwrap();
        // NoopInterceptor on the subscriber never acks.
        let _sub = s.subscribe("t", |_| {}).unwrap();
        assert!(publisher.wait_for_subscribers(1, Duration::from_secs(2)));
        publisher.publish(b"x").unwrap();

        // Degraded within the deadline window, torn down after retries.
        wait_until(|| disconnected.load(Ordering::SeqCst) == 1);
        let events = p.take_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, LinkEvent::AckTimeout { seq: 1, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, LinkEvent::Degraded { .. })));
        assert!(matches!(events.last(), Some(LinkEvent::TornDown { .. })));
        // Retries were attempted and counted per link.
        let links = publisher.link_stats();
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].1.retries, 2);
        assert_eq!(
            publisher.link_health(&NodeId::new("s")),
            Some(LinkHealth::TornDown)
        );
    }

    #[test]
    fn slow_ack_degrades_then_recovers() {
        let master = Master::new();
        let p = NodeBuilder::new("p")
            .resilience(
                ResilienceConfig::new()
                    .with_ack_timeout(Duration::from_millis(20))
                    .with_max_retries(20)
                    .with_retry_backoff(Duration::from_millis(5)),
            )
            .build(&master)
            .unwrap();
        let s = NodeBuilder::new("s")
            .interceptor(Arc::new(EchoAck {
                delay: Duration::from_millis(120),
            }))
            .build(&master)
            .unwrap();
        let publisher = p.advertise("t").unwrap();
        let _sub = s.subscribe("t", |_| {}).unwrap();
        assert!(publisher.wait_for_subscribers(1, Duration::from_secs(2)));
        publisher.publish(b"x").unwrap();

        wait_until(|| {
            p.take_events()
                .iter()
                .any(|e| matches!(e, LinkEvent::Recovered { .. }))
        });
        assert_eq!(
            publisher.link_health(&NodeId::new("s")),
            Some(LinkHealth::Healthy)
        );
    }

    #[test]
    fn inert_resilience_keeps_links_healthy_without_acks() {
        let master = Master::new();
        let p = NodeBuilder::new("p").build(&master).unwrap();
        let s = NodeBuilder::new("s").build(&master).unwrap();
        let publisher = p.advertise("t").unwrap();
        let _sub = s.subscribe("t", |_| {}).unwrap();
        assert!(publisher.wait_for_subscribers(1, Duration::from_secs(2)));
        publisher.publish(b"x").unwrap();
        thread::sleep(Duration::from_millis(120));
        assert!(p.take_events().is_empty());
        assert_eq!(
            publisher.link_health(&NodeId::new("s")),
            Some(LinkHealth::Healthy)
        );
    }

    #[test]
    fn link_stats_attribute_qos_drops_to_the_slow_link() {
        let master = Master::new();
        let p = NodeBuilder::new("p").build(&master).unwrap();
        let slow = NodeBuilder::new("slow").build(&master).unwrap();
        let fast = NodeBuilder::new("fast").build(&master).unwrap();
        let publisher = p.advertise("t").unwrap();
        let gate = Arc::new((Mutex::new(false), parking_lot::Condvar::new()));
        let gate2 = Arc::clone(&gate);
        let _slow_sub = slow
            .subscribe_with("t", SubscribeOptions::new().with_queue_size(1), move |_| {
                let (lock, cvar) = &*gate2;
                let mut released = lock.lock();
                while !*released {
                    cvar.wait(&mut released);
                }
            })
            .unwrap();
        let _fast_sub = fast.subscribe("t", |_| {}).unwrap();
        assert!(publisher.wait_for_subscribers(2, Duration::from_secs(2)));
        for _ in 0..8 {
            publisher.publish(&[0u8; 4]).unwrap();
        }
        wait_until(|| p.stats().snapshot().send_dropped > 0);
        let links = publisher.link_stats();
        let slow_snap = links
            .iter()
            .find(|(id, _)| id.as_str() == "slow")
            .map(|(_, s)| *s)
            .unwrap();
        let fast_snap = links
            .iter()
            .find(|(id, _)| id.as_str() == "fast")
            .map(|(_, s)| *s)
            .unwrap();
        assert!(slow_snap.send_dropped > 0);
        assert_eq!(fast_snap.send_dropped, 0);
        assert_eq!(fast_snap.sent, 8);
        // Node-wide aggregate matches the per-link attribution.
        assert_eq!(
            p.stats().snapshot().send_dropped,
            slow_snap.send_dropped + fast_snap.send_dropped
        );
        let (lock, cvar) = &*gate;
        *lock.lock() = true;
        cvar.notify_all();
    }

    #[test]
    fn injected_faults_are_counted_and_deterministic() {
        let run = || {
            let master = Master::new();
            let p = NodeBuilder::new("p")
                .faults(FaultConfig::seeded(42).with_drop_rate(0.4))
                .build(&master)
                .unwrap();
            let s = NodeBuilder::new("s").build(&master).unwrap();
            let publisher = p.advertise("t").unwrap();
            let seen = Arc::new(AtomicUsize::new(0));
            let seen2 = Arc::clone(&seen);
            let _sub = s
                .subscribe("t", move |_| {
                    seen2.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
            assert!(publisher.wait_for_subscribers(1, Duration::from_secs(2)));
            for _ in 0..50 {
                publisher.publish(b"x").unwrap();
            }
            let stats = Arc::clone(p.fault_stats());
            wait_until(|| {
                stats.forwarded.load(Ordering::Relaxed) + stats.dropped.load(Ordering::Relaxed)
                    == 50
            });
            wait_until(|| {
                seen.load(Ordering::SeqCst) as u64 == stats.forwarded.load(Ordering::Relaxed)
            });
            (
                seen.load(Ordering::SeqCst),
                stats.dropped.load(Ordering::Relaxed),
            )
        };
        let (seen1, dropped1) = run();
        assert!(dropped1 > 0, "40% drop rate must drop something");
        assert_eq!(seen1 as u64 + dropped1, 50);
        // Same seed (and same per-link salt) → identical fault decisions.
        assert_eq!(run(), (seen1, dropped1));
    }

    #[test]
    fn stats_count_traffic() {
        let master = Master::new();
        let p = NodeBuilder::new("p").build(&master).unwrap();
        let s = NodeBuilder::new("s").build(&master).unwrap();
        let publisher = p.advertise("t").unwrap();
        let _sub = s.subscribe("t", |_| {}).unwrap();
        publisher.publish(&[0u8; 10]).unwrap();
        wait_until(|| s.stats().snapshot().received == 1);
        let ps = p.stats().snapshot();
        assert_eq!(ps.published, 1);
        assert_eq!(ps.sent, 1);
        assert_eq!(ps.bytes_sent, 26); // 16-byte header + 10-byte payload
        assert_eq!(s.stats().snapshot().bytes_received, 26);
    }
}
