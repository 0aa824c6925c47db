//! [`AdlpNode`]: an application-facing component with a pluggable logging
//! scheme. The application sees the plain advertise/subscribe API; the
//! scheme (NoLogging / Base / ADLP) is wired in beneath it.

use crate::behavior::BehaviorProfile;
use crate::config::Scheme;
use crate::events::LogEvent;
use crate::identity::ComponentIdentity;
use crate::interceptor::{AdlpInterceptor, BaseInterceptor};
use crate::logging::{LoggingContext, LoggingThread};
use crate::overload::{OverloadConfig, QueuePressure};
use crate::target::DepositTarget;
use crate::AdlpError;
use adlp_crypto::Signature;
use adlp_logger::LoggerHandle;
use adlp_pubsub::{
    Clock, FaultConfig, FaultStats, LinkEvent, Master, Message, Node, NodeBuilder, NodeId,
    NodeStats, Publisher, ResilienceConfig, SubscribeOptions, Subscription, SystemClock, Topic,
    TransportKind,
};
use rand::RngCore;
use std::sync::Arc;

/// RSA modulus width the paper's prototype uses.
pub const PAPER_KEY_BITS: usize = 1024;

/// Configures and builds an [`AdlpNode`].
#[derive(Debug)]
pub struct AdlpNodeBuilder {
    id: NodeId,
    scheme: Scheme,
    behavior: BehaviorProfile,
    clock: Arc<dyn Clock>,
    transport: TransportKind,
    key_bits: usize,
    identity: Option<ComponentIdentity>,
    base_stores_hash: bool,
    resilience: ResilienceConfig,
    faults: Option<FaultConfig>,
    ack_after_durable: bool,
    overload: OverloadConfig,
}

impl AdlpNodeBuilder {
    /// Starts building a node running the default scheme (ADLP).
    pub fn new(id: impl Into<NodeId>) -> Self {
        AdlpNodeBuilder {
            id: id.into(),
            scheme: Scheme::default(),
            behavior: BehaviorProfile::faithful(),
            clock: Arc::new(SystemClock),
            transport: TransportKind::InProc,
            key_bits: PAPER_KEY_BITS,
            identity: None,
            base_stores_hash: false,
            resilience: ResilienceConfig::default(),
            faults: None,
            ack_after_durable: false,
            overload: OverloadConfig::default(),
        }
    }

    /// Configures the deposit pipeline's overload handling: the bounded
    /// queue, shed policy, watermarks, and (optionally) a circuit breaker.
    /// The resulting [`QueuePressure`] is readable through
    /// [`AdlpNode::queue_pressure`].
    pub fn overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = overload;
        self
    }

    /// Deposits through the durable path: the logging thread only treats an
    /// entry as delivered once the logger reports it synced to its WAL (or
    /// WAL-acked by a write quorum, for a cluster target). Refused deposits
    /// are counted ([`AdlpNode::deposit_failures`]). Default off — the
    /// paper's fire-and-forget deposit.
    pub fn ack_after_durable(mut self, yes: bool) -> Self {
        self.ack_after_durable = yes;
        self
    }

    /// Configures ack deadlines, retries and I/O timeouts for links this
    /// node publishes on (passed through to the middleware; defaults inert,
    /// preserving the paper's indefinite withhold-until-ack penalty).
    pub fn resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Installs deterministic fault injection on the node's outgoing links
    /// (testing/simulation only).
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Selects the logging scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Installs a (mis)behavior profile.
    pub fn behavior(mut self, behavior: BehaviorProfile) -> Self {
        self.behavior = behavior;
        self
    }

    /// Sets the timestamp source.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Selects the transport for published topics.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// RSA key width (default 1024, the paper's configuration; tests use
    /// 512 or smaller for speed).
    pub fn key_bits(mut self, bits: usize) -> Self {
        self.key_bits = bits;
        self
    }

    /// Under the Base scheme, subscribers store `h(D)` instead of the data
    /// (the paper's Table IV measures base logging in this mode).
    pub fn base_subscriber_stores_hash(mut self, yes: bool) -> Self {
        self.base_stores_hash = yes;
        self
    }

    /// Uses a pre-generated identity instead of generating one at build
    /// time. This is how collusion scenarios arrange key sharing between
    /// components before wiring them up.
    ///
    /// # Panics
    ///
    /// Panics if the identity's id differs from the node id.
    pub fn identity(mut self, identity: ComponentIdentity) -> Self {
        assert_eq!(
            identity.id(),
            &self.id,
            "identity id must match the node id"
        );
        self.identity = Some(identity);
        self
    }

    /// Builds the node: generates and registers its key (ADLP, §V-B step 1),
    /// spawns its logging thread (Base/ADLP) and registers with the master.
    ///
    /// # Errors
    ///
    /// Returns [`AdlpError`] for duplicate ids, key-registration conflicts,
    /// or transport failures.
    pub fn build<R: RngCore + ?Sized>(
        self,
        master: &Master,
        logger: &LoggerHandle,
        rng: &mut R,
    ) -> Result<AdlpNode, AdlpError> {
        self.build_with_target(master, DepositTarget::Single(logger.clone()), rng)
    }

    /// Builds the node against an explicit [`DepositTarget`] — the same
    /// pipeline as [`AdlpNodeBuilder::build`], but deposits can go to a
    /// sharded logger cluster instead of a single server.
    ///
    /// # Errors
    ///
    /// Returns [`AdlpError`] for duplicate ids, key-registration conflicts,
    /// or transport failures.
    pub fn build_with_target<R: RngCore + ?Sized>(
        self,
        master: &Master,
        logger: DepositTarget,
        rng: &mut R,
    ) -> Result<AdlpNode, AdlpError> {
        let behavior = Arc::new(self.behavior);
        let make_builder = || {
            let mut nb = NodeBuilder::new(self.id.clone())
                .clock(Arc::clone(&self.clock))
                .transport(self.transport)
                .resilience(self.resilience.clone());
            if let Some(f) = &self.faults {
                nb = nb.faults(f.clone());
            }
            nb
        };
        let (node, identity, logging, adlp) = match &self.scheme {
            Scheme::NoLogging => {
                let node = make_builder().build(master)?;
                (node, None, None, None)
            }
            Scheme::Base => {
                let logging = LoggingThread::spawn(LoggingContext {
                    node_id: self.id.clone(),
                    identity: None,
                    behavior: (*behavior).clone(),
                    subscriber_stores_hash: self.base_stores_hash,
                    logger: logger.clone(),
                    ack_after_durable: self.ack_after_durable,
                    overload: self.overload.clone(),
                    clock: Arc::clone(&self.clock),
                })?;
                let interceptor = Arc::new(BaseInterceptor::new(
                    Arc::clone(&self.clock),
                    logging.sink(),
                ));
                let node = make_builder().interceptor(interceptor).build(master)?;
                (node, None, Some(logging), None)
            }
            Scheme::Adlp(config) => {
                let identity = self.identity.clone().unwrap_or_else(|| {
                    ComponentIdentity::generate(self.id.clone(), self.key_bits, rng)
                });
                logger.register_key(identity.id(), identity.public_key().clone())?;
                let logging = LoggingThread::spawn(LoggingContext {
                    node_id: self.id.clone(),
                    identity: Some(identity.clone()),
                    behavior: (*behavior).clone(),
                    subscriber_stores_hash: config.subscriber_stores_hash,
                    logger: logger.clone(),
                    ack_after_durable: self.ack_after_durable,
                    overload: self.overload.clone(),
                    clock: Arc::clone(&self.clock),
                })?;
                let interceptor = Arc::new(
                    AdlpInterceptor::new(
                        identity.clone(),
                        config.clone(),
                        Arc::clone(&behavior),
                        Arc::clone(&self.clock),
                        logging.sink(),
                    )
                    .with_keys(logger.keys().clone()),
                );
                let node = make_builder()
                    .interceptor(Arc::clone(&interceptor) as Arc<dyn adlp_pubsub::LinkInterceptor>)
                    .build(master)?;
                (node, Some(identity), Some(logging), Some(interceptor))
            }
        };
        Ok(AdlpNode {
            node,
            scheme: self.scheme,
            identity,
            logging,
            adlp,
            logger,
        })
    }
}

/// A software component with accountable logging.
#[derive(Debug)]
pub struct AdlpNode {
    node: Node,
    scheme: Scheme,
    identity: Option<ComponentIdentity>,
    logging: Option<LoggingThread>,
    adlp: Option<Arc<AdlpInterceptor>>,
    logger: DepositTarget,
}

impl AdlpNode {
    /// The component id.
    pub fn id(&self) -> &NodeId {
        self.node.id()
    }

    /// The active scheme.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// The node's cryptographic identity (ADLP scheme only).
    pub fn identity(&self) -> Option<&ComponentIdentity> {
        self.identity.as_ref()
    }

    /// Middleware traffic counters.
    pub fn stats(&self) -> &NodeStats {
        self.node.stats()
    }

    /// Drains the link-health events (ack timeouts, degradations,
    /// recoveries, teardowns) accumulated since the last call.
    pub fn take_link_events(&self) -> Vec<LinkEvent> {
        self.node.take_events()
    }

    /// Counters for injected transport faults (all zero unless the node was
    /// built with [`AdlpNodeBuilder::faults`]).
    pub fn fault_stats(&self) -> &Arc<FaultStats> {
        self.node.fault_stats()
    }

    /// Claims a topic.
    ///
    /// # Errors
    ///
    /// Propagates middleware errors (e.g. topic already owned).
    pub fn advertise(&self, topic: impl Into<Topic>) -> Result<Publisher, AdlpError> {
        Ok(self.node.advertise(topic)?)
    }

    /// Subscribes to a topic.
    ///
    /// # Errors
    ///
    /// Propagates middleware errors (e.g. no such topic).
    pub fn subscribe<F>(
        &self,
        topic: impl Into<Topic>,
        callback: F,
    ) -> Result<Subscription, AdlpError>
    where
        F: Fn(Message) + Send + 'static,
    {
        Ok(self.node.subscribe(topic, callback)?)
    }

    /// Subscribes with explicit QoS options (e.g. a bounded queue).
    ///
    /// # Errors
    ///
    /// Propagates middleware errors.
    pub fn subscribe_with<F>(
        &self,
        topic: impl Into<Topic>,
        options: SubscribeOptions,
        callback: F,
    ) -> Result<Subscription, AdlpError>
    where
        F: Fn(Message) + Send + 'static,
    {
        Ok(self.node.subscribe_with(topic, options, callback)?)
    }

    /// Drains all in-flight logging work: unacknowledged publications are
    /// recorded as such, the logging thread is drained, and the logger
    /// flushes its queue.
    ///
    /// # Errors
    ///
    /// Returns [`AdlpError::Logger`] when the log server is gone.
    pub fn flush(&self) -> Result<(), AdlpError> {
        if let Some(adlp) = &self.adlp {
            adlp.flush_pending();
        }
        if let Some(logging) = &self.logging {
            logging.flush();
        }
        self.logger.flush()?;
        Ok(())
    }

    /// **Fabrication attack** (Lemma 1): enters a publisher log entry for a
    /// transmission that never happened. The entry is self-signed (so it
    /// passes the authenticity check) but carries a *random* "subscriber
    /// signature", since the fabricator cannot forge a real one.
    ///
    /// # Errors
    ///
    /// Returns crypto errors; requires the ADLP scheme (no-op otherwise).
    pub fn fabricate_publication(
        &self,
        topic: impl Into<Topic>,
        seq: u64,
        payload: &[u8],
        claimed_subscriber: impl Into<NodeId>,
        rng: &mut (impl RngCore + ?Sized),
    ) -> Result<(), AdlpError> {
        let Some(identity) = &self.identity else {
            return Ok(());
        };
        let topic = topic.into();
        let body = fake_body(seq, payload);
        let digest = adlp_crypto::sha256(&body);
        let own_sig = identity.sign_digest(&adlp_crypto::sha256::binding_digest(
            topic.as_str(),
            seq,
            &digest,
        ))?;
        let mut random_sig = vec![0u8; identity.signature_len()];
        rng.fill_bytes(&mut random_sig);
        if let Some(logging) = &self.logging {
            logging.sink().submit(LogEvent::AckedPublication {
                topic,
                seq,
                stamp_ns: now(),
                body: Arc::new(body),
                own_sig,
                subscriber: claimed_subscriber.into(),
                peer_hash: digest,
                peer_sig: Signature::from_bytes(random_sig),
            });
        }
        Ok(())
    }

    /// **Fabrication attack**, subscriber side: enters a receipt entry for
    /// data never received, with a random "publisher signature".
    ///
    /// # Errors
    ///
    /// Returns crypto errors; requires the ADLP scheme (no-op otherwise).
    pub fn fabricate_receipt(
        &self,
        topic: impl Into<Topic>,
        seq: u64,
        payload: &[u8],
        claimed_publisher: impl Into<NodeId>,
        rng: &mut (impl RngCore + ?Sized),
    ) -> Result<(), AdlpError> {
        let Some(identity) = &self.identity else {
            return Ok(());
        };
        let topic = topic.into();
        let body = fake_body(seq, payload);
        let digest = adlp_crypto::sha256(&body);
        let own_sig = identity.sign_digest(&adlp_crypto::sha256::binding_digest(
            topic.as_str(),
            seq,
            &digest,
        ))?;
        let mut random_sig = vec![0u8; identity.signature_len()];
        rng.fill_bytes(&mut random_sig);
        if let Some(logging) = &self.logging {
            logging.sink().submit(LogEvent::Receipt {
                topic,
                seq,
                stamp_ns: now(),
                publisher: claimed_publisher.into(),
                body: body.clone(),
                body_digest: digest,
                peer_sig: Signature::from_bytes(random_sig),
                own_sig,
            });
        }
        Ok(())
    }

    /// Number of connections currently gated on an acknowledgement (ADLP
    /// only; 0 otherwise).
    pub fn pending_acks(&self) -> usize {
        self.adlp.as_ref().map_or(0, |a| a.pending_count())
    }

    /// Entries the logger refused to make durable (nodes built with
    /// [`AdlpNodeBuilder::ack_after_durable`] only; 0 otherwise).
    pub fn deposit_failures(&self) -> u64 {
        self.logging
            .as_ref()
            .map_or(0, LoggingThread::deposit_failures)
    }

    /// The deposit pipeline's shared overload view: queue depth and
    /// watermark level, shed counts, gap-receipt counts, and breaker
    /// transitions. Publishers poll [`QueuePressure::is_high`] to slow
    /// their send loops instead of letting the backlog grow. Nodes without
    /// a logging thread (NoLogging) report a permanently idle handle.
    pub fn queue_pressure(&self) -> QueuePressure {
        self.logging
            .as_ref()
            .map(LoggingThread::pressure)
            .unwrap_or_default()
    }

    /// Messages this node dropped as replays (ADLP only).
    pub fn replays_dropped(&self) -> u64 {
        self.adlp.as_ref().map_or(0, |a| a.replays_dropped())
    }

    /// Acknowledgements this node ignored as invalid (ADLP with
    /// [`crate::AdlpConfig::verify_acks`] only).
    pub fn invalid_acks(&self) -> u64 {
        self.adlp.as_ref().map_or(0, |a| a.invalid_acks())
    }

    /// Access to the underlying middleware node.
    pub fn inner(&self) -> &Node {
        &self.node
    }
}

fn fake_body(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(16 + payload.len());
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(&now().to_le_bytes());
    body.extend_from_slice(payload);
    body
}

fn now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdlpConfig;
    use adlp_logger::{Direction, LogServer, PayloadRecord};
    use rand::SeedableRng;
    use std::time::Duration;

    fn wait_until(pred: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !pred() {
            assert!(std::time::Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn build(
        id: &str,
        scheme: Scheme,
        master: &Master,
        logger: &LoggerHandle,
        seed: u64,
    ) -> AdlpNode {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        AdlpNodeBuilder::new(id)
            .scheme(scheme)
            .key_bits(512)
            .build(master, logger, &mut rng)
            .unwrap()
    }

    #[test]
    fn adlp_roundtrip_produces_both_entries() {
        let master = Master::new();
        let server = LogServer::spawn();
        let h = server.handle();
        let p = build("cam", Scheme::adlp(), &master, &h, 1);
        let s = build("det", Scheme::adlp(), &master, &h, 2);
        let publisher = p.advertise("image").unwrap();
        let _sub = s.subscribe("image", |_| {}).unwrap();
        publisher.publish(&[5u8; 100]).unwrap();

        // Wait until the ack came back and the publisher logged.
        wait_until(|| p.pending_acks() == 0);
        p.flush().unwrap();
        s.flush().unwrap();

        let entries: Vec<_> = h
            .store()
            .entries()
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(entries.len(), 2);
        let pub_entry = entries
            .iter()
            .find(|e| e.direction == Direction::Out)
            .unwrap();
        let sub_entry = entries
            .iter()
            .find(|e| e.direction == Direction::In)
            .unwrap();
        assert_eq!(pub_entry.component, NodeId::new("cam"));
        assert_eq!(pub_entry.peer, Some(NodeId::new("det")));
        assert!(pub_entry.peer_sig.is_some());
        assert_eq!(
            pub_entry.peer_hash.unwrap(),
            pub_entry.payload.digest(),
            "subscriber acknowledged exactly what was sent"
        );
        assert_eq!(sub_entry.component, NodeId::new("det"));
        assert!(matches!(sub_entry.payload, PayloadRecord::Hash(_)));
        assert_eq!(sub_entry.payload.digest(), pub_entry.payload.digest());
    }

    #[test]
    fn ack_gating_blocks_until_acked() {
        let master = Master::new();
        let server = LogServer::spawn();
        let h = server.handle();
        let p = build("cam", Scheme::adlp(), &master, &h, 3);
        // Subscriber that withholds acks entirely.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let s = AdlpNodeBuilder::new("det")
            .scheme(Scheme::adlp())
            .key_bits(512)
            .behavior(BehaviorProfile::faithful().withholding_acks(Topic::new("image")))
            .build(&master, &h, &mut rng)
            .unwrap();
        let publisher = p.advertise("image").unwrap();
        let _sub = s.subscribe("image", |_| {}).unwrap();

        let r1 = publisher.publish(&[1u8; 10]).unwrap();
        assert_eq!(r1.sent, 1);
        // Give the first message time to arrive (and be deliberately unacked).
        wait_until(|| s.stats().snapshot().received == 1);
        let r2 = publisher.publish(&[2u8; 10]).unwrap();
        assert_eq!(r2.sent, 0, "second send must be gated");
        assert_eq!(r2.skipped, 1);
        assert_eq!(p.pending_acks(), 1);
    }

    #[test]
    fn base_scheme_logs_raw_data_without_sigs() {
        let master = Master::new();
        let server = LogServer::spawn();
        let h = server.handle();
        let p = build("cam", Scheme::Base, &master, &h, 5);
        let s = build("det", Scheme::Base, &master, &h, 6);
        let publisher = p.advertise("image").unwrap();
        let _sub = s.subscribe("image", |_| {}).unwrap();
        publisher.publish(&[7u8; 32]).unwrap();
        wait_until(|| s.stats().snapshot().received == 1);
        p.flush().unwrap();
        s.flush().unwrap();
        let entries: Vec<_> = h
            .store()
            .entries()
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(entries.len(), 2);
        for e in &entries {
            assert!(!e.is_adlp());
            assert!(matches!(&e.payload, PayloadRecord::Data(d) if d.len() == 48));
        }
    }

    #[test]
    fn no_logging_scheme_logs_nothing() {
        let master = Master::new();
        let server = LogServer::spawn();
        let h = server.handle();
        let p = build("cam", Scheme::NoLogging, &master, &h, 7);
        let s = build("det", Scheme::NoLogging, &master, &h, 8);
        let publisher = p.advertise("image").unwrap();
        let _sub = s.subscribe("image", |_| {}).unwrap();
        publisher.publish(&[7u8; 32]).unwrap();
        wait_until(|| s.stats().snapshot().received == 1);
        p.flush().unwrap();
        assert_eq!(h.store().len(), 0);
    }

    #[test]
    fn message_size_matches_paper_arithmetic() {
        // ADLP message = |D| + |sig|; with the 4-byte preamble this is the
        // paper's |D| + 4 + 128 (for RSA-1024; 64-byte sigs here).
        let master = Master::new();
        let server = LogServer::spawn();
        let h = server.handle();
        let p = build("cam", Scheme::adlp(), &master, &h, 9);
        let s = build("det", Scheme::adlp(), &master, &h, 10);
        let publisher = p.advertise("image").unwrap();
        let _sub = s.subscribe("image", |_| {}).unwrap();
        publisher.publish(&[0u8; 4]).unwrap(); // |D| = 16 + 4 = 20 (Steering)
        wait_until(|| s.stats().snapshot().received == 1);
        let sent = p.stats().snapshot().bytes_sent;
        assert_eq!(sent, 20 + 64); // |D| + |sig|
    }

    #[test]
    fn unacked_publications_flushed_as_unproven() {
        let master = Master::new();
        let server = LogServer::spawn();
        let h = server.handle();
        let p = build("cam", Scheme::adlp(), &master, &h, 11);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let s = AdlpNodeBuilder::new("det")
            .scheme(Scheme::adlp())
            .key_bits(512)
            .behavior(BehaviorProfile::faithful().withholding_acks(Topic::new("image")))
            .build(&master, &h, &mut rng)
            .unwrap();
        let publisher = p.advertise("image").unwrap();
        let _sub = s.subscribe("image", |_| {}).unwrap();
        publisher.publish(&[1u8; 10]).unwrap();
        wait_until(|| s.stats().snapshot().received == 1);
        p.flush().unwrap();
        let entries: Vec<_> = h
            .store()
            .entries()
            .into_iter()
            .map(Result::unwrap)
            .collect();
        let pub_entries: Vec<_> = entries
            .iter()
            .filter(|e| e.direction == Direction::Out)
            .collect();
        assert_eq!(pub_entries.len(), 1);
        assert!(pub_entries[0].peer_sig.is_none(), "unproven: no ack");
        assert_eq!(pub_entries[0].peer, Some(NodeId::new("det")));
    }

    #[test]
    fn aggregated_mode_single_entry_for_many_subscribers() {
        let master = Master::new();
        let server = LogServer::spawn();
        let h = server.handle();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let p = AdlpNodeBuilder::new("cam")
            .scheme(Scheme::Adlp(AdlpConfig::new().aggregated()))
            .key_bits(512)
            .build(&master, &h, &mut rng)
            .unwrap();
        let publisher = p.advertise("image").unwrap();
        let mut subs = Vec::new();
        let mut nodes = Vec::new();
        for i in 0..3 {
            let s = build(
                &format!("det{i}"),
                Scheme::adlp(),
                &master,
                &h,
                20 + i as u64,
            );
            subs.push(s.subscribe("image", |_| {}).unwrap());
            nodes.push(s);
        }
        publisher.publish(&[1u8; 10]).unwrap();
        wait_until(|| p.pending_acks() == 0);
        p.flush().unwrap();
        for n in &nodes {
            n.flush().unwrap();
        }
        let entries: Vec<_> = h
            .store()
            .entries()
            .into_iter()
            .map(Result::unwrap)
            .collect();
        let agg: Vec<_> = entries.iter().filter(|e| !e.acks.is_empty()).collect();
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].acks.len(), 3);
        // Exactly one publisher-side entry despite three subscribers.
        assert_eq!(
            entries
                .iter()
                .filter(|e| e.direction == Direction::Out)
                .count(),
            1
        );
    }

    #[test]
    fn logger_death_does_not_disturb_the_data_plane() {
        // "ADLP is free from a single-point failure — any failure at the
        // log server does not interrupt a normal operation of the ROS
        // nodes" (§V-B). Kill the log server mid-run; messages keep
        // flowing.
        let master = Master::new();
        let server = LogServer::spawn();
        let h = server.handle();
        let p = build("cam", Scheme::adlp(), &master, &h, 40);
        let s = build("det", Scheme::adlp(), &master, &h, 41);
        let publisher = p.advertise("image").unwrap();
        let _sub = s.subscribe("image", |_| {}).unwrap();
        publisher.publish(&[1u8; 32]).unwrap();
        wait_until(|| p.pending_acks() == 0);

        // The trusted logger crashes.
        server.kill();

        // The data plane keeps working: publish several more messages.
        for i in 0..3 {
            wait_until(|| p.pending_acks() == 0);
            let r = publisher.publish(&[i as u8; 32]).unwrap();
            assert_eq!(r.sent, 1);
        }
        wait_until(|| s.stats().snapshot().received == 4);
    }

    #[test]
    fn ack_deadline_tears_down_mute_link_and_flushes_evidence() {
        // With a configured ack deadline, a subscriber that never acks is
        // torn down after the retries run out, and the pending publication
        // is flushed as unproven evidence immediately — the auditor sees
        // the same record it would after an explicit flush.
        let master = Master::new();
        let server = LogServer::spawn();
        let h = server.handle();
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        let p = AdlpNodeBuilder::new("cam")
            .scheme(Scheme::adlp())
            .key_bits(512)
            .resilience(
                ResilienceConfig::new()
                    .with_ack_timeout(Duration::from_millis(30))
                    .with_max_retries(2)
                    .with_retry_backoff(Duration::from_millis(5)),
            )
            .build(&master, &h, &mut rng)
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let s = AdlpNodeBuilder::new("det")
            .scheme(Scheme::adlp())
            .key_bits(512)
            .behavior(BehaviorProfile::faithful().withholding_acks(Topic::new("image")))
            .build(&master, &h, &mut rng)
            .unwrap();
        let publisher = p.advertise("image").unwrap();
        let _sub = s.subscribe("image", |_| {}).unwrap();
        publisher.publish(&[9u8; 16]).unwrap();

        // Teardown flushes the pending ack without an explicit flush call.
        wait_until(|| p.pending_acks() == 0);
        let events = p.take_link_events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, LinkEvent::TornDown { subscriber, .. } if subscriber == &NodeId::new("det"))),
            "expected a teardown event, got {events:?}"
        );
        p.flush().unwrap();
        let entries: Vec<_> = h
            .store()
            .entries()
            .into_iter()
            .map(Result::unwrap)
            .collect();
        let pub_entries: Vec<_> = entries
            .iter()
            .filter(|e| e.direction == Direction::Out)
            .collect();
        assert_eq!(pub_entries.len(), 1, "evidence flushed exactly once");
        assert!(pub_entries[0].peer_sig.is_none(), "unproven: no ack");
        assert_eq!(pub_entries[0].peer, Some(NodeId::new("det")));
    }

    #[test]
    fn ack_after_durable_deposits_and_counts_refusals() {
        use adlp_logger::{DurabilityConfig, KeyRegistry, LogServer, MemStorage};
        let master = Master::new();
        let spawned = LogServer::try_spawn_durable(
            KeyRegistry::new(),
            &DurabilityConfig::new(Arc::new(MemStorage::new())),
        )
        .unwrap();
        let server = spawned.server;
        let h = server.handle();
        let mut rng = rand::rngs::StdRng::seed_from_u64(60);
        let p = AdlpNodeBuilder::new("cam")
            .scheme(Scheme::adlp())
            .key_bits(512)
            .ack_after_durable(true)
            .build(&master, &h, &mut rng)
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let s = AdlpNodeBuilder::new("det")
            .scheme(Scheme::adlp())
            .key_bits(512)
            .ack_after_durable(true)
            .build(&master, &h, &mut rng)
            .unwrap();
        let publisher = p.advertise("image").unwrap();
        let _sub = s.subscribe("image", |_| {}).unwrap();
        publisher.publish(&[5u8; 64]).unwrap();
        wait_until(|| p.pending_acks() == 0);
        p.flush().unwrap();
        s.flush().unwrap();
        assert_eq!(h.store().len(), 2);
        assert_eq!(p.deposit_failures() + s.deposit_failures(), 0);

        // The logger dies: durable deposits are refused — and counted.
        server.kill();
        publisher.publish(&[6u8; 64]).unwrap();
        wait_until(|| p.pending_acks() == 0);
        assert!(p.flush().is_err(), "flush against a dead logger must fail");
        assert!(p.deposit_failures() > 0);
    }

    #[test]
    fn fabrication_apis_enter_entries() {
        let master = Master::new();
        let server = LogServer::spawn();
        let h = server.handle();
        let p = build("cam", Scheme::adlp(), &master, &h, 30);
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        p.fabricate_publication("image", 99, &[1, 2, 3], "det", &mut rng)
            .unwrap();
        p.fabricate_receipt("scan", 7, &[4, 5], "lidar", &mut rng)
            .unwrap();
        p.flush().unwrap();
        let entries: Vec<_> = h
            .store()
            .entries()
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(entries.len(), 2);
        assert!(entries
            .iter()
            .any(|e| e.seq == 99 && e.direction == Direction::Out));
        assert!(entries
            .iter()
            .any(|e| e.seq == 7 && e.direction == Direction::In));
    }
}
