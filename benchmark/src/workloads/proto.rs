//! `proto_small` / `proto_image`: one publication driven to its accepted
//! signed acknowledgement, 1 publisher → 1 subscriber over the in-process
//! transport, `Scheme::adlp()`, a single volatile `LogServer`.
//!
//! Small bodies make RSA the cost (where batch or aggregate signing must
//! show); the paper's Image body makes SHA-256, body copies and encoding the
//! cost (where an RSA or attestation optimisation must show nothing).

use super::{ensure, Ctx, Layers, Workload};
use crate::inputs::{self, InputDigest};
use crate::measure::{median, median_us, Round, Window};
use crate::trace::SpanStats;
use adlp_audit::Auditor;
use adlp_core::protocol::{attach_signature, decode_ack, encode_ack, split_signature};
use adlp_core::{AdlpNode, AdlpNodeBuilder, BehaviorProfile, DepositTarget, Scheme};
use adlp_crypto::sha256::binding_digest;
use adlp_crypto::{pkcs1, sha256};
use adlp_logger::{LogEntry, LogServer, LogStore};
use adlp_pubsub::{Header, Master, Message, Publisher, Subscription};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

/// Payload sizes: with the 16-byte middleware header these are the 256 B
/// and the paper's 921,641 B Image message bodies.
pub const SMALL_BODY: usize = 256 - 16;
pub const IMAGE_BODY: usize = 921_641 - 16;

/// Exchanges run before the window opens, so lazy set-up is paid in set-up.
pub const WARMUP: usize = 8;

/// Body bytes one correctness audit covers at most.
const AUDIT_BYTES: u64 = 32 << 20;

const OP_TIMEOUT: Duration = Duration::from_secs(10);
pub const TOPIC: &str = "data";

/// One publisher node fanning one topic out to its subscriber nodes.
pub struct Fanout {
    topic: String,
    publisher_node: AdlpNode,
    subscriber_nodes: Vec<AdlpNode>,
    publisher: Publisher,
    _subscriptions: Vec<Subscription>,
    delivered: Receiver<u64>,
}

/// How a [`Fanout`]'s nodes are built.
pub struct FanoutSpec<'a> {
    pub ctx: Ctx,
    pub master: &'a Master,
    /// Node ids are `{prefix}pub` and `{prefix}sub{i}`; the topic is
    /// `{prefix}data`.
    pub prefix: &'a str,
    pub scheme: Scheme,
    pub target: DepositTarget,
    pub ack_after_durable: bool,
    /// One subscriber per profile.
    pub subscribers: Vec<BehaviorProfile>,
}

impl Fanout {
    /// The 1 → 1 faithful link most workloads use.
    pub fn pair(
        ctx: Ctx,
        master: &Master,
        scheme: Scheme,
        target: DepositTarget,
        ack_after_durable: bool,
    ) -> Result<Self, String> {
        Fanout::connect(FanoutSpec {
            ctx,
            master,
            prefix: "",
            scheme,
            target,
            ack_after_durable,
            subscribers: vec![BehaviorProfile::faithful()],
        })
    }

    /// Builds the nodes against `spec.target` and waits for every link.
    pub fn connect(spec: FanoutSpec<'_>) -> Result<Self, String> {
        let FanoutSpec {
            ctx,
            master,
            prefix,
            scheme,
            target,
            ack_after_durable,
            subscribers,
        } = spec;
        let lane = prefix
            .bytes()
            .fold(2u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
        let mut rng = inputs::key_rng(lane);
        let mut build = |id: String, behavior: BehaviorProfile| {
            AdlpNodeBuilder::new(id.as_str())
                .scheme(scheme.clone())
                .behavior(behavior)
                .key_bits(ctx.key_bits())
                .ack_after_durable(ack_after_durable)
                .build_with_target(master, target.clone(), &mut rng)
                .map_err(|e| format!("build node {id}: {e}"))
        };
        let topic = format!("{prefix}{TOPIC}");
        let publisher_node = build(format!("{prefix}pub"), BehaviorProfile::faithful())?;
        let publisher = publisher_node
            .advertise(topic.as_str())
            .map_err(|e| e.to_string())?;
        let (tx, delivered) = channel();
        let mut subscriber_nodes = Vec::with_capacity(subscribers.len());
        let mut subscriptions = Vec::with_capacity(subscribers.len());
        for (i, behavior) in subscribers.into_iter().enumerate() {
            let node = build(format!("{prefix}sub{i}"), behavior)?;
            let tx = tx.clone();
            let subscription = node
                .subscribe(topic.as_str(), move |msg| {
                    let _ = tx.send(msg.header.seq);
                })
                .map_err(|e| e.to_string())?;
            subscriber_nodes.push(node);
            subscriptions.push(subscription);
        }
        ensure(
            publisher.wait_for_subscribers(subscriber_nodes.len(), OP_TIMEOUT),
            || "subscribers never attached".to_owned(),
        )?;
        Ok(Fanout {
            topic,
            publisher_node,
            subscriber_nodes,
            publisher,
            _subscriptions: subscriptions,
            delivered,
        })
    }

    /// One closed-loop exchange: publish, block until every subscriber has
    /// the message (each acknowledges before it delivers), then wait out
    /// the return leg until the publisher has accepted every
    /// acknowledgement. Returns the busy-wait share of the op, seconds.
    pub fn exchange(&self, payload: &[u8]) -> Result<f64, String> {
        let report = self.publisher.publish(payload).map_err(|e| e.to_string())?;
        let fanout = self.subscriber_nodes.len();
        ensure(report.sent == fanout, || {
            format!("publication {} sent to {}", report.seq, report.sent)
        })?;
        for _ in 0..fanout {
            let seq = self
                .delivered
                .recv_timeout(OP_TIMEOUT)
                .map_err(|_| format!("publication {} never delivered", report.seq))?;
            ensure(seq == report.seq, || {
                format!("delivered {seq}, published {}", report.seq)
            })?;
        }
        let spin = Instant::now();
        while self.publisher_node.pending_acks() > 0 {
            ensure(spin.elapsed() < OP_TIMEOUT, || {
                format!("publication {} never acknowledged", report.seq)
            })?;
            std::hint::spin_loop();
        }
        Ok(spin.elapsed().as_secs_f64())
    }

    fn nodes(&self) -> impl Iterator<Item = &AdlpNode> {
        std::iter::once(&self.publisher_node).chain(&self.subscriber_nodes)
    }

    /// Drains every node's logging work into the target.
    pub fn flush(&self) -> Result<(), String> {
        self.nodes()
            .try_for_each(|n| n.flush().map_err(|e| e.to_string()))
    }

    /// Runs `payloads[i % len]` for `ops` exchanges, recording one latency
    /// sample per op; `after_op` runs inside the op's sample.
    pub fn drive(
        &self,
        ops: usize,
        payloads: &[Vec<u8>],
        round: &mut Round,
        mut after_op: impl FnMut(usize) -> Result<(), String>,
    ) -> Result<(), String> {
        for i in 0..ops {
            crate::trace::set_op(Some(i as u64));
            let t = Instant::now();
            round.attempted += 1;
            let outcome = crate::trace::span("driver.op", || {
                let spin_s = self.exchange(&payloads[i % payloads.len()])?;
                after_op(i)?;
                Ok::<f64, String>(spin_s)
            });
            match outcome {
                Ok(spin_s) => round.spin_s += spin_s,
                Err(why) => {
                    round.failed += 1;
                    return Err(why);
                }
            }
            round.lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        crate::trace::set_op(None);
        Ok(())
    }

    /// Gates every protocol workload shares: nothing refused, shed,
    /// skipped or dropped on any node.
    pub fn gate_clean(&self) -> Result<(), String> {
        for node in self.nodes() {
            let pressure = node.queue_pressure();
            ensure(node.deposit_failures() == 0, || {
                format!("{}: deposits refused", node.id())
            })?;
            ensure(pressure.entries_shed() == 0, || {
                format!("{}: entries shed", node.id())
            })?;
            ensure(node.invalid_acks() == 0, || {
                format!("{}: invalid acks", node.id())
            })?;
        }
        let stats = self.publisher_node.stats().snapshot();
        ensure(stats.send_skipped == 0 && stats.send_dropped == 0, || {
            "publisher skipped or dropped sends".to_owned()
        })
    }

    /// Core-layer counters summed over the nodes, once publishing stopped.
    pub fn core_counters(&self, layers: &mut Layers) {
        let (mut backlog, mut depth_max, mut shed, mut failures) = (0, 0, 0, 0);
        for node in self.nodes() {
            let p = node.queue_pressure();
            backlog += p.depth();
            depth_max = depth_max.max(p.high_water());
            shed += p.entries_shed();
            failures += node.deposit_failures();
        }
        layers.set(
            "pubsub.sends_skipped",
            self.publisher_node.stats().snapshot().send_skipped as f64,
        );
        layers.set("core.deposit_backlog", backlog as f64);
        layers.set("core.queue_depth_max", depth_max as f64);
        layers.set("core.shed", shed as f64);
        layers.set("core.deposit_failures", failures as f64);
    }
}

/// Walks one exchange's life on the caller's thread, stage by stage, over
/// `payload`: what the interceptor hooks and the logging thread do, through
/// the same public functions. `replayed` are the log entries one exchange
/// produced.
pub fn staged_exchange(
    link: &Fanout,
    payload: &[u8],
    replayed: &[LogEntry],
    iters: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let identity = link
        .publisher_node
        .identity()
        .ok_or("publisher has no identity")?;
    let sig_len = identity.signature_len();
    let topic = link.topic.as_str();

    let message = Message::new(
        Header {
            seq: 1,
            stamp_ns: 1,
        },
        payload.to_vec(),
    );
    let encode_us = median_us(iters, |_| message.encode());
    let body = message.encode();
    let sha_us = median_us(iters, |_| sha256(&body));
    let digest = binding_digest(topic, 1, &sha256(&body));
    let sign_us = median_us(iters, |_| {
        pkcs1::sign_digest(identity.private_key(), &digest)
    });
    let sig = identity.sign_digest(&digest).map_err(|e| e.to_string())?;
    let verify_us = median_us(iters, |_| {
        pkcs1::verify_digest(identity.public_key(), &digest, &sig)
    });
    let on_send_us = median_us(iters, |_| {
        let d = binding_digest(topic, 1, &sha256(&body));
        identity
            .sign_digest(&d)
            .map(|s| attach_signature(body.clone(), &s))
    });
    let frame = attach_signature(body.clone(), &sig);
    let on_recv_us = median_us(iters, |_| {
        let (b, _peer) = split_signature(frame.clone(), sig_len).ok()?;
        let h = sha256(&b);
        let s = identity.sign_digest(&binding_digest(topic, 1, &h)).ok()?;
        Some(encode_ack(&h, &s))
    });
    let ack = encode_ack(&sha256(&body), &sig);
    let on_return_us = median_us(iters, |_| decode_ack(&ack, sig_len));

    ensure(!replayed.is_empty(), || "no exchange to replay".to_owned())?;
    let n = replayed.len() as f64;
    let per_entry = |f: &dyn Fn(&LogEntry) -> f64| replayed.iter().map(f).sum::<f64>() / n;
    let build_us = per_entry(&|e| median_us(iters, |_| e.clone()));
    let log_encode_us = per_entry(&|e| median_us(iters, |_| e.encode()));
    let log_decode_us = per_entry(&|e| {
        let enc = e.encode();
        median_us(iters, |_| LogEntry::decode(&enc))
    });
    let scratch = LogStore::new();
    let append_us = per_entry(&|e| {
        let enc = e.encode();
        median_us(iters, |_| scratch.append_encoded(enc.clone()))
    });

    layers.stage("pubsub.encode_us", encode_us, 1.0);
    layers.stage("core.on_send_us", on_send_us, 1.0);
    layers.stage("core.on_recv_us", on_recv_us, 1.0);
    layers.stage("core.on_return_us", on_return_us, 1.0);
    // The logging threads and the log server work off the op's blocking
    // path: their stages cost CPU and throughput, not op latency.
    layers.set("core.entry_build_us", build_us);
    layers.set("logger.encode_us", log_encode_us);
    layers.set("logger.store_append_us", append_us);
    layers.set("logger.decode_us", log_decode_us);
    layers.set("crypto.rsa_sign_us", sign_us);
    layers.set("crypto.rsa_verify_us", verify_us);
    layers.set("crypto.sha256_mb_per_s", body.len() as f64 / sha_us);
    Ok(())
}

/// Median round trip of the same link shape with no logging scheme at all:
/// the floor ADLP's overhead sits on (the paper's Figure 13 baseline).
pub fn base_rtt_us(ctx: Ctx, payload: &[u8], samples: usize) -> Result<f64, String> {
    let master = Master::new();
    let unused = LogServer::try_spawn().map_err(|e| e.to_string())?;
    let target = DepositTarget::Single(unused.handle());
    let bare = Fanout::pair(ctx, &master, Scheme::NoLogging, target, false)?;
    let mut rtts = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        bare.exchange(payload)?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&rtts))
}

pub struct Proto {
    ctx: Ctx,
    ops: usize,
    payloads: Vec<Vec<u8>>,
    master: Master,
    server: LogServer,
    link: Fanout,
    digest: f64,
}

impl Proto {
    pub fn setup(ctx: Ctx, ops: usize, body: usize) -> Result<Self, String> {
        // Few distinct large bodies keep the input pool small; every message
        // still differs through its sequence number and timestamp.
        let distinct = if body > 65_536 { 4 } else { 64 };
        let payloads = inputs::payloads(ctx.seed, distinct, body);
        let mut digest = InputDigest::default();
        payloads.iter().for_each(|p| digest.feed(p));
        let master = Master::new();
        let server = LogServer::try_spawn().map_err(|e| e.to_string())?;
        let target = DepositTarget::Single(server.handle());
        let link = Fanout::pair(ctx, &master, Scheme::adlp(), target, false)?;
        for payload in payloads.iter().cycle().take(WARMUP) {
            link.exchange(payload)?;
        }
        link.flush()?;
        Ok(Proto {
            ctx,
            ops,
            payloads,
            master,
            server,
            link,
            digest: digest.finish(),
        })
    }
}

impl Workload for Proto {
    fn round(&mut self) -> Result<Round, String> {
        let store = self.server.handle().store().clone();
        let (len0, bytes0) = (store.len(), store.total_bytes());
        let mut round = Round::default();
        let window = Window::open();
        self.link
            .drive(self.ops, &self.payloads, &mut round, |_| Ok(()))?;
        self.link.flush()?;
        window.close(&mut round);
        round.entries = (store.len() - len0) as u64;
        round.log_bytes = store.total_bytes() - bytes0;
        Ok(round)
    }

    fn layers(
        &mut self,
        _round: &Round,
        _spans: &SpanStats,
        layers: &mut Layers,
    ) -> Result<(), String> {
        // Each staged call on an Image body takes milliseconds.
        let big = self.payloads[0].len() > 65_536;
        let iters = if big { 8 } else { self.ctx.iters() };
        let store = self.server.handle().store().clone();
        let replayed: Vec<LogEntry> = (store.len().saturating_sub(2)..store.len())
            .filter_map(|i| store.entry(i).ok())
            .collect();
        staged_exchange(&self.link, &self.payloads[0], &replayed, iters, layers)?;
        layers.set(
            "pubsub.base_rtt_us",
            base_rtt_us(self.ctx, &self.payloads[0], iters * 4)?,
        );
        self.link.core_counters(layers);
        Ok(())
    }

    fn gate(self: Box<Self>, _layers: &mut Layers) -> Result<(), String> {
        let handle = self.server.handle();
        let store = handle.store();
        let expected = 2 * (WARMUP + self.ops);
        ensure(store.len() == expected, || {
            format!("{} entries stored, expected {expected}", store.len())
        })?;
        store
            .verify_chain()
            .map_err(|e| format!("hash chain: {e}"))?;
        self.link.gate_clean()?;
        // The audit re-hashes every body it covers: it takes the most recent
        // exchanges, up to AUDIT_BYTES of bodies — all of them when small.
        let exchanges = (WARMUP + self.ops) as u64;
        let covered = (AUDIT_BYTES / self.payloads[0].len() as u64).min(exchanges);
        // Scanned from the end, so only the audited tail is decoded.
        let mut entries: Vec<LogEntry> = (0..store.len())
            .rev()
            .map(|i| store.entry(i).map_err(|e| format!("record {i}: {e}")))
            .filter(|e| e.as_ref().map_or(true, |e| e.seq > exchanges - covered))
            .take(2 * covered as usize)
            .collect::<Result<_, _>>()?;
        entries.reverse();
        ensure(entries.len() as u64 == 2 * covered, || {
            "audited tail is missing entries".to_owned()
        })?;
        let report = Auditor::new(handle.keys().clone())
            .with_topology(self.master.topology())
            .audit(&entries);
        ensure(report.all_clear(), || {
            "honest run did not audit all-clear".to_owned()
        })?;
        ensure(handle.stats().snapshot().lost == 0, || {
            "logger lost entries".to_owned()
        })
    }

    fn input_digest(&self) -> f64 {
        self.digest
    }
}
