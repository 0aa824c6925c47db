//! The ADLP transport interceptor: signing, acknowledgement, gating and
//! log-event emission, beneath the application layer (paper Figure 12).

use crate::behavior::BehaviorProfile;
use crate::config::AdlpConfig;
use crate::events::LogEvent;
use crate::identity::ComponentIdentity;
use crate::logging::EventSink;
use crate::protocol::{
    attach_signature, decode_ack, encode_ack, header_seq, split_signature, SIG_LEN_FIELD,
};
use adlp_crypto::sha256::{binding_digest, sha256};
use adlp_crypto::{Signature, Statement};
use adlp_logger::{AckRecord, Binding, KeyRegistry};
use adlp_pubsub::{Clock, ConnectionInfo, LinkInterceptor, NodeId, RecvOutcome, Topic};
use adlp_witness::AckProbe;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Signing state for the current publication of one topic — hash and
/// signature are "computed just once for a single publication" (§V-B
/// step 2) no matter how many subscribers receive it.
struct CurrentPublication {
    seq: u64,
    stamp_ns: u64,
    body: Arc<Vec<u8>>,
    sig: Signature,
    /// Aggregated mode: acknowledgements collected for this publication.
    agg_acks: Vec<AckRecord>,
}

/// A publication awaiting a subscriber's acknowledgement.
struct PendingAck {
    seq: u64,
    stamp_ns: u64,
    body: Arc<Vec<u8>>,
    sig: Signature,
}

/// The ADLP interceptor; one per node, shared by all its connections.
pub struct AdlpInterceptor {
    identity: ComponentIdentity,
    config: AdlpConfig,
    behavior: Arc<BehaviorProfile>,
    clock: Arc<dyn Clock>,
    sink: EventSink,
    current: Mutex<HashMap<Topic, CurrentPublication>>,
    pending: Mutex<HashMap<(Topic, NodeId), PendingAck>>,
    /// Highest sequence number delivered per subscribed link (replay
    /// defense).
    last_seen: Mutex<HashMap<(Topic, NodeId), u64>>,
    /// Key registry for online acknowledgement verification (optional).
    keys: Option<KeyRegistry>,
    /// Light-client probe auditing the logger on every accepted
    /// acknowledgement (optional; DESIGN.md §3.12).
    light: Option<Arc<AckProbe>>,
    /// Count of messages dropped as replays.
    replays_dropped: AtomicU64,
    /// Count of acknowledgements ignored as invalid.
    invalid_acks: AtomicU64,
    /// Count of messages not signed/acknowledged because the signing
    /// operation itself failed (cannot happen for a well-formed key; kept
    /// so the degradation is observable rather than a panic).
    sign_failures: AtomicU64,
    /// Outgoing-message counter (drives the requirement-(4) violation
    /// model).
    sends_counter: AtomicU64,
}

impl fmt::Debug for AdlpInterceptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdlpInterceptor")
            .field("id", self.identity.id())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl AdlpInterceptor {
    /// Creates the interceptor for a node.
    pub fn new(
        identity: ComponentIdentity,
        config: AdlpConfig,
        behavior: Arc<BehaviorProfile>,
        clock: Arc<dyn Clock>,
        sink: EventSink,
    ) -> Self {
        AdlpInterceptor {
            identity,
            config,
            behavior,
            clock,
            sink,
            current: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            last_seen: Mutex::new(HashMap::new()),
            keys: None,
            light: None,
            replays_dropped: AtomicU64::new(0),
            invalid_acks: AtomicU64::new(0),
            sign_failures: AtomicU64::new(0),
            sends_counter: AtomicU64::new(0),
        }
    }

    /// Supplies the key registry used for online acknowledgement
    /// verification when [`AdlpConfig::verify_acks`] is set.
    pub fn with_keys(mut self, keys: KeyRegistry) -> Self {
        self.keys = Some(keys);
        self
    }

    /// Attaches a light-client probe: every accepted acknowledgement then
    /// also pulls the logger's latest signed tree head, verifies it
    /// (signature + consistency with the previously trusted head), and
    /// demands an inclusion proof for the newest record — retiring the
    /// trusted post-hoc auditor on the hot path. Failures are counted in
    /// [`AdlpInterceptor::sth_verify_failures`], never panicked over.
    pub fn with_light_client(mut self, probe: Arc<AckProbe>) -> Self {
        self.light = Some(probe);
        self
    }

    /// Signed-tree-head verifications (signature, consistency, split view,
    /// inclusion) that failed on the ack path so far; 0 when no light
    /// client is attached.
    pub fn sth_verify_failures(&self) -> u64 {
        self.light
            .as_ref()
            .map_or(0, |probe| probe.client().sth_verify_failures())
    }

    /// Messages dropped by the replay defense so far.
    pub fn replays_dropped(&self) -> u64 {
        self.replays_dropped.load(Ordering::Relaxed)
    }

    /// Acknowledgements ignored as cryptographically invalid so far.
    pub fn invalid_acks(&self) -> u64 {
        self.invalid_acks.load(Ordering::Relaxed)
    }

    /// Messages left unsigned/unacknowledged because signing failed.
    pub fn sign_failures(&self) -> u64 {
        self.sign_failures.load(Ordering::Relaxed)
    }

    /// Signature length of the counterpart on a connection, from its
    /// handshake fields (falling back to our own — homogeneous deployments).
    fn peer_sig_len(&self, conn: &ConnectionInfo) -> usize {
        conn.peer_fields
            .get(SIG_LEN_FIELD)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| self.identity.signature_len())
    }

    /// Emits publisher log events for publications that never got
    /// acknowledged, and flushes any aggregated entry in progress. Called at
    /// node flush/shutdown.
    pub fn flush_pending(&self) {
        let pending: Vec<((Topic, NodeId), PendingAck)> =
            self.pending.lock().drain().collect();
        for ((topic, subscriber), p) in pending {
            self.sink.submit(LogEvent::UnackedPublication {
                topic,
                seq: p.seq,
                stamp_ns: p.stamp_ns,
                body: p.body,
                own_sig: p.sig,
                subscriber,
            });
        }
        if self.config.aggregated_publisher_log {
            let current: Vec<(Topic, CurrentPublication)> =
                self.current.lock().drain().collect();
            for (topic, cur) in current {
                self.sink.submit(LogEvent::AggregatedPublication {
                    topic,
                    seq: cur.seq,
                    stamp_ns: cur.stamp_ns,
                    body: cur.body,
                    own_sig: cur.sig,
                    acks: cur.agg_acks,
                });
            }
        }
    }

    /// Number of connections currently gated on an acknowledgement.
    pub fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }
}

impl LinkInterceptor for AdlpInterceptor {
    fn handshake_fields(&self, _topic: &Topic, _publishing: bool) -> Vec<(String, String)> {
        vec![(
            SIG_LEN_FIELD.to_owned(),
            self.identity.signature_len().to_string(),
        )]
    }

    fn may_send(&self, conn: &ConnectionInfo) -> bool {
        if !self.config.gate_on_ack {
            return true;
        }
        !self
            .pending
            .lock()
            .contains_key(&(conn.topic.clone(), conn.subscriber.clone()))
    }

    fn on_send(&self, conn: &ConnectionInfo, body: Vec<u8>) -> Vec<u8> {
        // A body without a middleware header cannot be attributed to a
        // publication; forward it untouched rather than panicking.
        let Some(seq) = header_seq(&body) else {
            return body;
        };
        let stamp_ns = self.clock.now_ns();

        let mut current = self.current.lock();
        let needs_new = current
            .get(&conn.topic)
            .is_none_or(|c| c.seq != seq);
        if needs_new {
            // New publication: hash + sign once. The signature covers the
            // binding digest h(seq ‖ h(D)) so auditors can recompute it
            // from logged fields (freshness, §IV-A).
            let digest = binding_digest(conn.topic.as_str(), seq, &sha256(&body));
            let sig = match self.identity.sign_digest(&digest) {
                Ok(sig) => sig,
                Err(_) => {
                    // Cannot happen for a well-formed key; degrade to an
                    // unsigned (hence unloggable, subscriber-rejected) send
                    // instead of tearing down the publisher.
                    self.sign_failures.fetch_add(1, Ordering::Relaxed);
                    return body;
                }
            };
            // Aggregated mode: the previous publication's entry is emitted
            // when a new one starts (all acks that will come have come).
            if self.config.aggregated_publisher_log {
                if let Some(prev) = current.remove(&conn.topic) {
                    self.sink.submit(LogEvent::AggregatedPublication {
                        topic: conn.topic.clone(),
                        seq: prev.seq,
                        stamp_ns: prev.stamp_ns,
                        body: prev.body,
                        own_sig: prev.sig,
                        acks: prev.agg_acks,
                    });
                }
            }
            current.insert(
                conn.topic.clone(),
                CurrentPublication {
                    seq,
                    stamp_ns,
                    body: Arc::new(body.clone()),
                    sig,
                    agg_acks: Vec::new(),
                },
            );
        }
        let Some(cur) = current.get(&conn.topic) else {
            // Unreachable: inserted above when absent. Forward unsigned
            // rather than panicking if the invariant ever breaks.
            return body;
        };
        let sig = cur.sig.clone();

        // Remember M_x for this subscriber until the acknowledgement
        // arrives (§V-B step 2: "stored at the logging thread for a future
        // use in step 6").
        self.pending.lock().insert(
            (conn.topic.clone(), conn.subscriber.clone()),
            PendingAck {
                seq,
                stamp_ns: cur.stamp_ns,
                body: Arc::clone(&cur.body),
                sig: sig.clone(),
            },
        );
        drop(current);

        let mut frame = attach_signature(body, &sig);
        // Requirement-(4) violation model (Figure 8): corrupt the signature
        // of every n-th publication.
        if let Some(n) = self.behavior.corrupt_signature_every {
            let count = self.sends_counter.fetch_add(1, Ordering::Relaxed) + 1;
            if count.is_multiple_of(n) {
                if let Some(last) = frame.last_mut() {
                    *last ^= 0xff;
                }
            }
        }
        frame
    }

    fn on_recv(&self, conn: &ConnectionInfo, frame: Vec<u8>) -> RecvOutcome {
        let sig_len = self.peer_sig_len(conn);
        let Ok((body, peer_sig)) = split_signature(frame, sig_len) else {
            return RecvOutcome::drop_message();
        };
        let Some(seq) = header_seq(&body) else {
            return RecvOutcome::drop_message();
        };
        let stamp_ns = self.clock.now_ns();

        // Replay defense: per link, only strictly increasing sequence
        // numbers are delivered or acknowledged.
        if self.config.drop_replayed {
            let key = (conn.topic.clone(), conn.publisher.clone());
            let mut last = self.last_seen.lock();
            match last.get(&key) {
                Some(&prev) if seq <= prev => {
                    self.replays_dropped.fetch_add(1, Ordering::Relaxed);
                    return RecvOutcome::drop_message();
                }
                _ => {
                    last.insert(key, seq);
                }
            }
        }

        // §V-B step 4: hash, sign, acknowledge. The ack carries h(I_y);
        // the signature covers the binding digest h(seq ‖ h(I_y)).
        let payload_digest = sha256(&body);
        let binding = binding_digest(conn.topic.as_str(), seq, &payload_digest);
        let own_sig = match self.identity.sign_digest(&binding) {
            Ok(sig) => sig,
            Err(_) => {
                // Cannot happen for a well-formed key; without a signature
                // there is no log entry and no ack, so drop (an unlogged
                // delivery would violate the accountability invariant).
                self.sign_failures.fetch_add(1, Ordering::Relaxed);
                return RecvOutcome::drop_message();
            }
        };
        let reply = if self.behavior.withholds_ack(&conn.topic) {
            None
        } else {
            Some(encode_ack(&payload_digest, &own_sig))
        };

        // §V-B step 5: the subscriber's log entry.
        self.sink.submit(LogEvent::Receipt {
            topic: conn.topic.clone(),
            seq,
            stamp_ns,
            publisher: conn.publisher.clone(),
            body: body.clone(),
            body_digest: payload_digest,
            peer_sig,
            own_sig,
        });

        RecvOutcome {
            deliver: Some(body),
            reply,
        }
    }

    fn on_return(&self, conn: &ConnectionInfo, frame: Vec<u8>) {
        let sig_len = self.peer_sig_len(conn);
        let Ok((peer_hash, peer_sig)) = decode_ack(&frame, sig_len) else {
            return; // malformed ack: keep the connection gated
        };
        // Optional online verification of s_y (requirement (4) enforced at
        // receipt time): an invalid acknowledgement is ignored, so the
        // connection stays gated — the protocol's penalty applies.
        if self.config.verify_acks {
            if let Some(keys) = &self.keys {
                let pending_seq = self
                    .pending
                    .lock()
                    .get(&(conn.topic.clone(), conn.subscriber.clone()))
                    .map(|p| p.seq);
                let valid = match (keys.get(&conn.subscriber), pending_seq) {
                    (Some(k), Some(seq)) => Binding {
                        signer: conn.subscriber.clone(),
                        topic: conn.topic.clone(),
                        seq,
                        payload_digest: peer_hash,
                        signature: peer_sig.clone(),
                    }
                    .verify(&k),
                    _ => false,
                };
                if !valid {
                    self.invalid_acks.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        let key = (conn.topic.clone(), conn.subscriber.clone());
        let Some(p) = self.pending.lock().remove(&key) else {
            return; // unsolicited ack
        };

        // Light-client audit (§3.12): an accepted acknowledgement implies
        // the logger has (claimed to have) logged the exchange, so demand
        // its latest signed tree head and an inclusion proof now, while the
        // counterpart is still live. A failed audit never blocks the data
        // path — it increments `sth_verify_failures` and, on a split view,
        // retains the transferable conviction as evidence.
        if let Some(probe) = &self.light {
            let _ = probe.audit_ack();
        }

        if self.config.aggregated_publisher_log {
            let mut current = self.current.lock();
            if let Some(cur) = current.get_mut(&conn.topic) {
                if cur.seq == p.seq {
                    cur.agg_acks.push(AckRecord {
                        subscriber: conn.subscriber.clone(),
                        hash: peer_hash,
                        sig: peer_sig,
                    });
                    return;
                }
            }
        }

        // §V-B step 6: the publisher's log entry, one per acknowledgement.
        self.sink.submit(LogEvent::AckedPublication {
            topic: conn.topic.clone(),
            seq: p.seq,
            stamp_ns: p.stamp_ns,
            body: p.body,
            own_sig: p.sig,
            subscriber: conn.subscriber.clone(),
            peer_hash,
            peer_sig,
        });
    }

    fn on_disconnect(&self, conn: &ConnectionInfo) {
        // The link died (peer vanished, or resilience retries were
        // exhausted): the publication still awaiting its ack becomes
        // unacked-publication evidence immediately, instead of lingering
        // until node shutdown. The auditor classifies it exactly like a
        // withheld ack — a dead subscriber and a mute one are
        // indistinguishable, and both leave the publisher provably honest.
        let key = (conn.topic.clone(), conn.subscriber.clone());
        let removed = self.pending.lock().remove(&key);
        if let Some(p) = removed {
            self.sink.submit(LogEvent::UnackedPublication {
                topic: key.0,
                seq: p.seq,
                stamp_ns: p.stamp_ns,
                body: p.body,
                own_sig: p.sig,
                subscriber: key.1,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logging::{LoggingContext, LoggingThread};
    use adlp_logger::LogServer;
    use adlp_pubsub::wire::Handshake;
    use adlp_pubsub::SystemClock;
    use rand::SeedableRng;

    struct Fixture {
        interceptor: AdlpInterceptor,
        sub_identity: ComponentIdentity,
        _logging: LoggingThread,
        _server: LogServer,
    }

    /// Builds a subscriber-side interceptor for node "det" receiving from
    /// "cam", plus the keys of both parties.
    fn fixture(config: AdlpConfig) -> Fixture {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let server = LogServer::spawn();
        let det = ComponentIdentity::generate("det", 512, &mut rng);
        let cam = ComponentIdentity::generate("cam", 512, &mut rng);
        server
            .handle()
            .register_key(det.id(), det.public_key().clone())
            .unwrap();
        server
            .handle()
            .register_key(cam.id(), cam.public_key().clone())
            .unwrap();
        let logging = LoggingThread::spawn(LoggingContext {
            node_id: det.id().clone(),
            identity: Some(det.clone()),
            behavior: BehaviorProfile::faithful(),
            subscriber_stores_hash: true,
            logger: crate::target::DepositTarget::Single(server.handle()),
            ack_after_durable: false,
            overload: crate::overload::OverloadConfig::default(),
            clock: Arc::new(SystemClock),
        })
        .unwrap();
        let interceptor = AdlpInterceptor::new(
            det.clone(),
            config,
            Arc::new(BehaviorProfile::faithful()),
            Arc::new(SystemClock),
            logging.sink(),
        )
        .with_keys(server.handle().keys().clone());
        Fixture {
            interceptor,
            sub_identity: cam,
            _logging: logging,
            _server: server,
        }
    }

    fn conn_as_subscriber() -> ConnectionInfo {
        ConnectionInfo {
            topic: Topic::new("image"),
            publisher: NodeId::new("cam"),
            subscriber: NodeId::new("det"),
            peer_fields: Handshake::new().with("adlp_sig_len", "64"),
        }
    }

    /// Builds an M_x frame (body ‖ s_x) signed by `signer` for `seq`.
    fn frame(signer: &ComponentIdentity, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend_from_slice(&42u64.to_le_bytes());
        body.extend_from_slice(payload);
        let sig = signer
            .sign_digest(&binding_digest("image", seq, &sha256(&body)))
            .unwrap();
        crate::protocol::attach_signature(body, &sig)
    }

    #[test]
    fn replayed_frames_are_dropped() {
        let f = fixture(AdlpConfig::default());
        let conn = conn_as_subscriber();
        let m = frame(&f.sub_identity, 5, b"data");
        let first = f.interceptor.on_recv(&conn, m.clone());
        assert!(first.deliver.is_some());
        assert!(first.reply.is_some());
        // Exact replay: dropped, not delivered, not acknowledged.
        let second = f.interceptor.on_recv(&conn, m.clone());
        assert!(second.deliver.is_none());
        assert!(second.reply.is_none());
        // Stale (lower) seq: also dropped.
        let old = frame(&f.sub_identity, 4, b"older");
        let third = f.interceptor.on_recv(&conn, old);
        assert!(third.deliver.is_none());
        assert_eq!(f.interceptor.replays_dropped(), 2);
        // Fresh seq flows again.
        let fresh = frame(&f.sub_identity, 6, b"next");
        assert!(f.interceptor.on_recv(&conn, fresh).deliver.is_some());
    }

    #[test]
    fn replay_defense_can_be_disabled() {
        let f = fixture(AdlpConfig::new().allowing_replays());
        let conn = conn_as_subscriber();
        let m = frame(&f.sub_identity, 5, b"data");
        assert!(f.interceptor.on_recv(&conn, m.clone()).deliver.is_some());
        assert!(f.interceptor.on_recv(&conn, m).deliver.is_some());
        assert_eq!(f.interceptor.replays_dropped(), 0);
    }

    #[test]
    fn invalid_ack_keeps_connection_gated_under_verification() {
        // Here the fixture's interceptor acts as PUBLISHER on topic "plan"
        // to subscriber "cam" (identities reused for brevity).
        let f = fixture(AdlpConfig::new().verifying_acks());
        let conn = ConnectionInfo {
            topic: Topic::new("plan"),
            publisher: NodeId::new("det"),
            subscriber: NodeId::new("cam"),
            peer_fields: Handshake::new().with("adlp_sig_len", "64"),
        };
        // Send: installs the pending-ack gate.
        let mut body = Vec::new();
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&9u64.to_le_bytes());
        body.extend_from_slice(b"payload");
        let _ = f.interceptor.on_send(&conn, body.clone());
        assert_eq!(f.interceptor.pending_count(), 1);

        // A garbage acknowledgement is ignored: still gated.
        let digest = sha256(&body);
        let bad = crate::protocol::encode_ack(&digest, &Signature::from_bytes(vec![0u8; 64]));
        f.interceptor.on_return(&conn, bad);
        assert_eq!(f.interceptor.pending_count(), 1);
        assert_eq!(f.interceptor.invalid_acks(), 1);

        // A genuine acknowledgement from "cam" releases the gate.
        let sig = f
            .sub_identity
            .sign_digest(&binding_digest("plan", 1, &digest))
            .unwrap();
        let good = crate::protocol::encode_ack(&digest, &sig);
        f.interceptor.on_return(&conn, good);
        assert_eq!(f.interceptor.pending_count(), 0);
    }

    #[test]
    fn light_client_audits_on_ack_and_counts_failures() {
        use adlp_logger::sth::{SthPublisher, TreeHeadSigner};
        use adlp_logger::LogStore;
        use adlp_logger::Keyring;
        use adlp_witness::{AckProbe, LightClient};

        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let sth_kp = adlp_crypto::RsaKeyPair::generate(512, &mut rng);
        let other_kp = adlp_crypto::RsaKeyPair::generate(512, &mut rng);
        let store = LogStore::new();
        store.append_encoded(vec![1; 16]);
        let publisher = Arc::new(SthPublisher::new(
            TreeHeadSigner::new(
                NodeId::new("logger"),
                adlp_crypto::rsa::RsaPrivateKey::from_bytes(&sth_kp.private_key().to_bytes())
                    .unwrap(),
            ),
            store.clone(),
        ));

        let run = |trusted_key: &adlp_crypto::RsaPublicKey| {
            let client = Arc::new(LightClient::new(
                Keyring::new().with(NodeId::new("logger"), trusted_key.clone()),
            ));
            let f = fixture(AdlpConfig::default());
            let interceptor = f
                .interceptor
                .with_light_client(Arc::new(AckProbe::new(Arc::clone(&client), publisher.clone())));
            let conn = ConnectionInfo {
                topic: Topic::new("plan"),
                publisher: NodeId::new("det"),
                subscriber: NodeId::new("cam"),
                peer_fields: Handshake::new().with("adlp_sig_len", "64"),
            };
            let mut body = Vec::new();
            body.extend_from_slice(&1u64.to_le_bytes());
            body.extend_from_slice(&9u64.to_le_bytes());
            let _ = interceptor.on_send(&conn, body.clone());
            let digest = sha256(&body);
            let sig = f
                .sub_identity
                .sign_digest(&binding_digest("plan", 1, &digest))
                .unwrap();
            interceptor.on_return(&conn, crate::protocol::encode_ack(&digest, &sig));
            assert_eq!(interceptor.pending_count(), 0, "audit never blocks the path");
            (interceptor.sth_verify_failures(), client.verified_acks())
        };

        // Trusting the logger's real key: the ack-path audit passes.
        assert_eq!(run(sth_kp.public_key()), (0, 1));
        // Trusting a different key: the head is rejected and counted.
        assert_eq!(run(other_kp.public_key()), (1, 0));
    }

    #[test]
    fn without_verification_any_wellformed_ack_releases_gate() {
        let f = fixture(AdlpConfig::default());
        let conn = ConnectionInfo {
            topic: Topic::new("plan"),
            publisher: NodeId::new("det"),
            subscriber: NodeId::new("cam"),
            peer_fields: Handshake::new().with("adlp_sig_len", "64"),
        };
        let mut body = Vec::new();
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&9u64.to_le_bytes());
        let _ = f.interceptor.on_send(&conn, body.clone());
        let bad = crate::protocol::encode_ack(
            &sha256(&body),
            &Signature::from_bytes(vec![0u8; 64]),
        );
        f.interceptor.on_return(&conn, bad);
        // Paper default: verification is the auditor's job; the gate opens.
        assert_eq!(f.interceptor.pending_count(), 0);
    }
}
