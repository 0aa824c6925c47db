//! The per-node logging thread.
//!
//! "For logging operations, we created a Logging Thread that runs in
//! parallel with each node's main thread. One logging thread is created per
//! ROS node, no matter how many topics the node publishes and subscribes"
//! (§V-B). Transport hooks push [`LogEvent`]s; this thread converts them to
//! [`LogEntry`]s — applying the node's [`BehaviorProfile`] — and submits
//! them to the trusted logger.
//!
//! # Overload
//!
//! The worker keeps a **bounded** deposit queue ([`OverloadConfig`]). When
//! the logger cannot keep up, overflow is shed by policy (oldest-first or
//! newest-first), each shed is counted on the shared [`QueuePressure`]
//! handle, and contiguous shed runs are admitted in **signed gap receipts**
//! ([`GapReceipt`]) that ride the ordinary deposit path and are never
//! themselves shed. An optional circuit breaker fast-fails a refusing
//! target: queue-full sheds and failed deposits feed its failure window,
//! and while it is open the worker stops hammering the logger until a
//! half-open probe succeeds.

use crate::behavior::{falsify_body, BehaviorProfile, LinkRole, LogBehavior};
use crate::events::LogEvent;
use crate::identity::ComponentIdentity;
use crate::overload::{OverloadConfig, QueuePressure, ShedPolicy};
use crate::target::DepositTarget;
use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::sha256::{binding_digest, sha256, Digest};
use adlp_crypto::{pkcs1, Signature};
use adlp_logger::{Direction, GapReceipt, LogEntry, LogError, PayloadRecord, ShedReason};
use adlp_pubsub::{Admission, BreakerState, CircuitBreaker, Clock, NodeId, Topic};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a stalled worker (breaker open, or the target refusing
/// receipts) waits for new commands before re-probing, instead of spinning.
const STALL_PACE: Duration = Duration::from_millis(1);

enum Command {
    Event(Box<LogEvent>),
    Flush(Sender<()>),
}

/// Handle to a running logging thread.
#[derive(Debug)]
pub struct LoggingThread {
    tx: Sender<Command>,
    worker: Option<JoinHandle<()>>,
    lost: Arc<AtomicU64>,
    deposit_failures: Arc<AtomicU64>,
    pressure: QueuePressure,
}

/// A cloneable submitter for transport hooks.
#[derive(Debug, Clone)]
pub struct EventSink {
    tx: Sender<Command>,
    /// Events the sink could not enqueue (worker gone). Shared with the
    /// owning [`LoggingThread`] so losses are observable, not silent.
    lost: Arc<AtomicU64>,
}

impl EventSink {
    /// Pushes an event; never blocks on logging work. An event that cannot
    /// be enqueued (the worker exited) is counted, not silently dropped —
    /// unlogged activity is exactly what an auditor needs to know about.
    pub fn submit(&self, event: LogEvent) {
        if self.tx.send(Command::Event(Box::new(event))).is_err() {
            self.lost.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Everything the worker needs to turn events into entries.
pub(crate) struct LoggingContext {
    /// The node's id (used verbatim for Base-scheme entries).
    pub node_id: NodeId,
    /// ADLP identity; `None` under the Base scheme.
    pub identity: Option<ComponentIdentity>,
    /// The node's (mis)behavior.
    pub behavior: BehaviorProfile,
    /// Whether subscribers store `h(I_y)` instead of `I_y`.
    pub subscriber_stores_hash: bool,
    /// The deposit destination (single logger or cluster).
    pub logger: DepositTarget,
    /// Deposit through [`DepositTarget::submit_durable`] and count
    /// rejections, instead of the fire-and-forget path.
    pub ack_after_durable: bool,
    /// Bounded-queue / shedding / breaker policy for the deposit pipeline.
    pub overload: OverloadConfig,
    /// Clock driving the deposit breaker and stamping gap receipts.
    pub clock: Arc<dyn Clock>,
}

impl LoggingThread {
    /// Spawns the thread.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the OS refuses to create the thread.
    pub(crate) fn spawn(ctx: LoggingContext) -> Result<Self, LogError> {
        let (tx, rx) = crossbeam::channel::unbounded();
        let deposit_failures = Arc::new(AtomicU64::new(0));
        let pressure = QueuePressure::new();
        let worker = {
            let deposit_failures = Arc::clone(&deposit_failures);
            let pressure = pressure.clone();
            std::thread::Builder::new()
                .name(format!("lg-{}", ctx.node_id))
                .spawn(move || {
                    let breaker = ctx
                        .overload
                        .breaker
                        .clone()
                        .map(|cfg| CircuitBreaker::new(cfg, Arc::clone(&ctx.clock)));
                    Worker {
                        ctx,
                        rx,
                        queue: VecDeque::new(),
                        pending_receipts: VecDeque::new(),
                        draft: None,
                        breaker,
                        pressure,
                        deposit_failures,
                        stalled: false,
                    }
                    .run();
                })
                .map_err(|e| LogError::Io(format!("spawn logging thread: {e}")))?
        };
        Ok(LoggingThread {
            tx,
            worker: Some(worker),
            lost: Arc::new(AtomicU64::new(0)),
            deposit_failures,
            pressure,
        })
    }

    /// A submitter handle for transport hooks.
    pub fn sink(&self) -> EventSink {
        EventSink {
            tx: self.tx.clone(),
            lost: Arc::clone(&self.lost),
        }
    }

    /// Events that could not be enqueued because the worker was gone.
    pub fn events_lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }

    /// Entries the deposit target refused: durable-mode rejections plus
    /// fire-and-forget submissions the target reported as lost (which the
    /// logger's own stats also count).
    pub fn deposit_failures(&self) -> u64 {
        self.deposit_failures.load(Ordering::Relaxed)
    }

    /// The shared overload view of this pipeline: queue depth and
    /// watermark level, shed counts, gap-receipt counts, and deposit
    /// breaker transitions. Cloning is cheap and shares the counters.
    pub fn pressure(&self) -> QueuePressure {
        self.pressure.clone()
    }

    /// Blocks until all previously submitted events were handed to the
    /// logger.
    pub fn flush(&self) {
        let (tx, rx) = crossbeam::channel::bounded(1);
        if self.tx.send(Command::Flush(tx)).is_ok() {
            let _ = rx.recv();
        }
    }
}

impl Drop for LoggingThread {
    fn drop(&mut self) {
        // Sever our sender; the worker drains and exits once all EventSinks
        // are gone too.
        let (dead_tx, _) = crossbeam::channel::unbounded();
        self.tx = dead_tx;
        if let Some(w) = self.worker.take() {
            if w.is_finished() {
                let _ = w.join();
            }
        }
    }
}

/// The logging thread's state: a bounded deposit queue, the receipts it
/// owes for shed ranges, and (optionally) the deposit circuit breaker.
struct Worker {
    ctx: LoggingContext,
    rx: Receiver<Command>,
    /// Bounded (by `ctx.overload.queue_capacity`) deposit backlog.
    queue: VecDeque<LogEntry>,
    /// Signed gap receipts awaiting delivery — never shed, retried until
    /// delivered or the pipeline ends.
    pending_receipts: VecDeque<LogEntry>,
    /// The open (still-coalescing) shed range, if any.
    draft: Option<GapReceipt>,
    breaker: Option<CircuitBreaker>,
    pressure: QueuePressure,
    deposit_failures: Arc<AtomicU64>,
    /// Set when the last work round had a backlog but made no progress
    /// (breaker open / target refusing receipts): the next intake waits
    /// [`STALL_PACE`] instead of spinning.
    stalled: bool,
}

impl Worker {
    fn run(mut self) {
        loop {
            let mut disconnected = false;
            let has_backlog = !self.queue.is_empty() || !self.pending_receipts.is_empty();
            if !has_backlog && self.draft.is_some() {
                // The pipeline went quiet with an open shed range: emit the
                // receipt now instead of letting the admission linger.
                self.finalize_draft();
            } else if !has_backlog {
                match self.rx.recv() {
                    Ok(cmd) => self.handle(cmd),
                    Err(_) => disconnected = true,
                }
            } else if self.stalled {
                match self.rx.recv_timeout(STALL_PACE) {
                    Ok(cmd) => self.handle(cmd),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => disconnected = true,
                }
            }
            // Eager intake: admission control (not the channel) decides
            // what is kept, so the unbounded channel never holds a backlog.
            loop {
                match self.rx.try_recv() {
                    Ok(cmd) => self.handle(cmd),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        disconnected = true;
                        break;
                    }
                }
            }
            if disconnected {
                break;
            }
            let progressed = self.work();
            self.stalled =
                !progressed && (!self.queue.is_empty() || !self.pending_receipts.is_empty());
        }
        self.final_drain();
    }

    fn handle(&mut self, cmd: Command) {
        match cmd {
            Command::Event(event) => {
                if let Some(entry) = build_entry(&self.ctx, *event) {
                    self.enqueue(entry);
                }
                self.update_depth();
            }
            Command::Flush(reply) => {
                self.full_drain();
                // adlp-lint: allow(discarded-fallible) — the flush requester may have timed out; nothing left to acknowledge
                let _ = reply.send(());
            }
        }
    }

    /// Admission control: queue the entry, or shed per policy when full.
    fn enqueue(&mut self, entry: LogEntry) {
        if self.queue.len() < self.ctx.overload.queue_capacity {
            self.queue.push_back(entry);
            return;
        }
        match self.ctx.overload.policy {
            ShedPolicy::OldestFirst => {
                if let Some(victim) = self.queue.pop_front() {
                    self.shed(victim);
                }
                self.queue.push_back(entry);
            }
            ShedPolicy::NewestFirst => self.shed(entry),
        }
    }

    /// Sheds one entry under the current overload condition. A queue-full
    /// shed is a failure of the deposit pipeline, so it feeds the breaker's
    /// failure window exactly like a refused deposit: sustained overload
    /// trips the breaker even while the target still answers.
    fn shed(&mut self, entry: LogEntry) {
        let reason = match self.breaker.as_mut().map(CircuitBreaker::state) {
            Some(BreakerState::Open) => ShedReason::BreakerOpen,
            _ => ShedReason::QueueFull,
        };
        self.breaker_outcome(false);
        self.shed_with_reason(entry, reason);
    }

    /// Counts the shed and folds it into a gap-receipt draft. Entries the
    /// node cannot truthfully receipt — Base scheme (no identity) or a
    /// component field rewritten by impersonation — are counted but left
    /// unreceipted: the auditor will (correctly) hold that against them.
    fn shed_with_reason(&mut self, entry: LogEntry, reason: ShedReason) {
        self.pressure.note_shed();
        if self.ctx.identity.is_none() || entry.component != self.ctx.node_id {
            return;
        }
        if let Some(d) = &mut self.draft {
            if d.topic == entry.topic
                && d.direction == entry.direction
                && d.reason == reason
                && entry.seq == d.last_seq.wrapping_add(1)
                && d.count < self.ctx.overload.receipt_max_span
            {
                d.last_seq = entry.seq;
                d.count += 1;
                return;
            }
            self.finalize_draft();
        }
        self.draft = Some(GapReceipt {
            component: self.ctx.node_id.clone(),
            topic: entry.topic.clone(),
            direction: entry.direction,
            first_seq: entry.seq,
            last_seq: entry.seq,
            count: 1,
            reason,
        });
    }

    /// Signs the open draft (the ordinary binding-digest signature over the
    /// receipt payload *is* `sign_x(h(first ‖ last ‖ count ‖ reason))`) and
    /// queues it for delivery.
    fn finalize_draft(&mut self) {
        let Some(receipt) = self.draft.take() else {
            return;
        };
        let mut entry = receipt.to_entry(self.ctx.clock.now_ns());
        let binding = binding_digest(entry.topic.as_str(), entry.seq, &entry.payload.digest());
        match sign_own(&self.ctx, &binding) {
            Some(sig) => {
                entry.own_sig = Some(sig);
                self.pressure.note_receipt_issued();
                self.pending_receipts.push_back(entry);
            }
            // A receipt we cannot sign is useless to the auditor; count it
            // as undeliverable rather than deposit an unverifiable claim.
            None => self.pressure.note_receipts_undeliverable(1),
        }
    }

    /// One work round: receipts first (never shed), then queued entries
    /// while the breaker admits and no fresh commands wait.
    fn work(&mut self) -> bool {
        let mut progressed = self.deliver_receipts();
        while !self.queue.is_empty() && self.rx.is_empty() {
            if let Some(b) = &mut self.breaker {
                if matches!(b.admit(), Admission::Rejected) {
                    break;
                }
            }
            let Some(entry) = self.queue.pop_front() else {
                break;
            };
            self.deposit(entry);
            // A refused deposit still consumed the entry (the target
            // counted the loss), so the round made progress either way.
            progressed = true;
            self.update_depth();
        }
        progressed
    }

    /// One delivery attempt per pending receipt. Receipts bypass the
    /// breaker's admission — they are tiny and the whole point of the
    /// accountability story — but their outcomes still feed it.
    fn deliver_receipts(&mut self) -> bool {
        let mut progressed = false;
        let mut remaining = self.pending_receipts.len();
        while remaining > 0 {
            remaining -= 1;
            let Some(receipt) = self.pending_receipts.pop_front() else {
                break;
            };
            if self.deposit(receipt.clone()) {
                progressed = true;
            } else {
                self.pending_receipts.push_back(receipt);
            }
        }
        progressed
    }

    /// Hands one entry to the target and feeds the breaker.
    fn deposit(&mut self, entry: LogEntry) -> bool {
        let ok = match self.ctx.logger.deposit(entry, self.ctx.ack_after_durable) {
            Some(receipt) => {
                self.pressure.note_deposited(receipt);
                true
            }
            None => {
                self.deposit_failures.fetch_add(1, Ordering::Relaxed);
                false
            }
        };
        self.breaker_outcome(ok);
        ok
    }

    fn breaker_outcome(&mut self, success: bool) {
        if let Some(b) = &mut self.breaker {
            let transition = if success {
                b.on_success()
            } else {
                b.on_failure()
            };
            if let Some(t) = transition {
                self.pressure.note_transition(t);
            }
        }
    }

    /// Flush barrier: finalize the draft and push everything out, bypassing
    /// the breaker's admission (outcomes still feed it, so flushing through
    /// a healthy-but-tripped pipeline also heals the breaker).
    fn full_drain(&mut self) {
        self.finalize_draft();
        while let Some(entry) = self.queue.pop_front() {
            self.deposit(entry);
        }
        self.deliver_receipts();
        self.update_depth();
    }

    /// Teardown: best-effort full drain, but after the first refusal stop
    /// hammering a dead target and shed the remainder under a `Shutdown`
    /// receipt. Receipts that still cannot be delivered are counted.
    fn final_drain(&mut self) {
        self.finalize_draft();
        while let Some(entry) = self.queue.pop_front() {
            if !self.deposit(entry) {
                while let Some(rest) = self.queue.pop_front() {
                    self.shed_with_reason(rest, ShedReason::Shutdown);
                }
                self.finalize_draft();
                break;
            }
        }
        self.deliver_receipts();
        let undeliverable = self.pending_receipts.len() as u64;
        if undeliverable > 0 {
            self.pressure.note_receipts_undeliverable(undeliverable);
            self.pending_receipts.clear();
        }
        self.update_depth();
    }

    fn update_depth(&mut self) {
        let cfg = &self.ctx.overload;
        self.pressure
            .set_depth(self.queue.len(), cfg.low_watermark, cfg.high_watermark);
    }
}

/// Applies behavior and constructs the entry (or `None` when hiding).
fn build_entry(ctx: &LoggingContext, event: LogEvent) -> Option<LogEntry> {
    let role = if event.is_publication() {
        LinkRole::Publisher
    } else {
        LinkRole::Subscriber
    };
    let behavior = ctx.behavior.link(role, event.topic()).clone();
    if matches!(behavior, LogBehavior::Hide) {
        return None;
    }

    let mut entry = match event {
        LogEvent::AckedPublication {
            topic,
            seq,
            stamp_ns,
            body,
            own_sig,
            subscriber,
            peer_hash,
            peer_sig,
        } => {
            let (payload, own_sig, peer_hash, peer_sig) = apply_pub_falsification(
                ctx,
                &behavior,
                &topic,
                seq,
                &body,
                own_sig,
                Some(peer_hash),
                Some(peer_sig),
            );
            LogEntry {
                component: ctx.node_id.clone(),
                topic,
                direction: Direction::Out,
                seq,
                timestamp_ns: ctx.behavior.skewed_timestamp(stamp_ns),
                payload,
                own_sig: Some(own_sig),
                peer_sig,
                peer_hash,
                peer: Some(subscriber),
                acks: Vec::new(),
            }
        }
        LogEvent::UnackedPublication {
            topic,
            seq,
            stamp_ns,
            body,
            own_sig,
            subscriber,
        } => {
            let (payload, own_sig, _, _) =
                apply_pub_falsification(ctx, &behavior, &topic, seq, &body, own_sig, None, None);
            LogEntry {
                component: ctx.node_id.clone(),
                topic,
                direction: Direction::Out,
                seq,
                timestamp_ns: ctx.behavior.skewed_timestamp(stamp_ns),
                payload,
                own_sig: Some(own_sig),
                peer_sig: None,
                peer_hash: None,
                peer: Some(subscriber),
                acks: Vec::new(),
            }
        }
        LogEvent::AggregatedPublication {
            topic,
            seq,
            stamp_ns,
            body,
            own_sig,
            acks,
        } => {
            let (payload, own_sig, _, _) =
                apply_pub_falsification(ctx, &behavior, &topic, seq, &body, own_sig, None, None);
            LogEntry {
                component: ctx.node_id.clone(),
                topic,
                direction: Direction::Out,
                seq,
                timestamp_ns: ctx.behavior.skewed_timestamp(stamp_ns),
                payload,
                own_sig: Some(own_sig),
                peer_sig: None,
                peer_hash: None,
                peer: None,
                acks,
            }
        }
        LogEvent::Receipt {
            topic,
            seq,
            stamp_ns,
            publisher,
            body,
            body_digest,
            peer_sig,
            own_sig,
        } => {
            let (payload, own_sig, peer_sig) = apply_sub_falsification(
                ctx,
                &behavior,
                &topic,
                seq,
                body,
                body_digest,
                own_sig,
                peer_sig,
            );
            LogEntry {
                component: ctx.node_id.clone(),
                topic,
                direction: Direction::In,
                seq,
                timestamp_ns: ctx.behavior.skewed_timestamp(stamp_ns),
                payload,
                own_sig: Some(own_sig),
                peer_sig: Some(peer_sig),
                peer_hash: None,
                peer: Some(publisher),
                acks: Vec::new(),
            }
        }
        LogEvent::BasePublication {
            topic,
            seq,
            stamp_ns,
            body,
        } => {
            let data = match behavior {
                LogBehavior::Falsify | LogBehavior::FalsifyWithPeerKey(_) => falsify_body(&body),
                _ => body.as_ref().clone(),
            };
            LogEntry::naive(
                ctx.node_id.clone(),
                topic,
                Direction::Out,
                seq,
                ctx.behavior.skewed_timestamp(stamp_ns),
                data,
            )
        }
        LogEvent::BaseReceipt {
            topic,
            seq,
            stamp_ns,
            publisher,
            body,
        } => {
            let data = match behavior {
                LogBehavior::Falsify | LogBehavior::FalsifyWithPeerKey(_) => falsify_body(&body),
                _ => body,
            };
            let mut e = LogEntry::naive(
                ctx.node_id.clone(),
                topic,
                Direction::In,
                seq,
                ctx.behavior.skewed_timestamp(stamp_ns),
                data,
            );
            if ctx.subscriber_stores_hash {
                // Base logging can also store h(D) (the paper's Table IV
                // measures it in this mode).
                e.payload = PayloadRecord::Hash(e.payload.digest());
            }
            e.peer = Some(publisher);
            e
        }
    };

    if let LogBehavior::ImpersonateAs(victim) = &behavior {
        entry.component = victim.clone();
    }
    Some(entry)
}

/// Publisher-side falsification: rewrite the body, re-sign with our key,
/// and (under collusion) re-forge the peer's acknowledgement over the lie.
fn apply_pub_falsification(
    ctx: &LoggingContext,
    behavior: &LogBehavior,
    topic: &Topic,
    seq: u64,
    body: &Arc<Vec<u8>>,
    own_sig: Signature,
    peer_hash: Option<Digest>,
    peer_sig: Option<Signature>,
) -> (PayloadRecord, Signature, Option<Digest>, Option<Signature>) {
    match behavior {
        LogBehavior::Falsify => {
            let fake = falsify_body(body);
            let binding = binding_digest(topic.as_str(), seq, &sha256(&fake));
            let sig = sign_own(ctx, &binding).unwrap_or(own_sig);
            (PayloadRecord::Data(fake), sig, peer_hash, peer_sig)
        }
        LogBehavior::FalsifyWithPeerKey(peer_key) => {
            // A colluding pair fabricates a fully consistent lie: the fake
            // payload, the publisher's re-signature, and the subscriber's
            // "acknowledgement" forged with the shared private key.
            let fake = falsify_body(body);
            let digest = sha256(&fake);
            let binding = binding_digest(topic.as_str(), seq, &digest);
            let sig = sign_own(ctx, &binding).unwrap_or(own_sig);
            let forged = forge_with(peer_key, &binding);
            (PayloadRecord::Data(fake), sig, Some(digest), forged)
        }
        _ => (
            PayloadRecord::Data(body.as_ref().clone()),
            own_sig,
            peer_hash,
            peer_sig,
        ),
    }
}

/// Subscriber-side falsification.
fn apply_sub_falsification(
    ctx: &LoggingContext,
    behavior: &LogBehavior,
    topic: &Topic,
    seq: u64,
    body: Vec<u8>,
    body_digest: Digest,
    own_sig: Signature,
    peer_sig: Signature,
) -> (PayloadRecord, Signature, Signature) {
    let store = |body: Vec<u8>, digest: Digest| {
        if ctx.subscriber_stores_hash {
            PayloadRecord::Hash(digest)
        } else {
            PayloadRecord::Data(body)
        }
    };
    match behavior {
        LogBehavior::Falsify => {
            let fake = falsify_body(&body);
            let digest = sha256(&fake);
            let sig =
                sign_own(ctx, &binding_digest(topic.as_str(), seq, &digest)).unwrap_or(own_sig);
            // Keeps the real s_x: the subscriber cannot forge the
            // publisher's signature over its lie (Lemma 3 ii).
            (store(fake, digest), sig, peer_sig)
        }
        LogBehavior::FalsifyWithPeerKey(peer_key) => {
            let fake = falsify_body(&body);
            let digest = sha256(&fake);
            let binding = binding_digest(topic.as_str(), seq, &digest);
            let sig = sign_own(ctx, &binding).unwrap_or(own_sig);
            let forged = forge_with(peer_key, &binding).unwrap_or(peer_sig);
            (store(fake, digest), sig, forged)
        }
        _ => (store(body, body_digest), own_sig, peer_sig),
    }
}

fn sign_own(ctx: &LoggingContext, digest: &Digest) -> Option<Signature> {
    ctx.identity
        .as_ref()
        .and_then(|i| i.sign_digest(digest).ok())
}

fn forge_with(key: &Arc<RsaPrivateKey>, digest: &Digest) -> Option<Signature> {
    pkcs1::sign_digest(key, digest).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_logger::LogServer;
    use adlp_pubsub::Topic;
    use rand::SeedableRng;

    fn ctx(behavior: BehaviorProfile, store_hash: bool) -> (LoggingContext, LogServer) {
        let server = LogServer::spawn();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let identity = ComponentIdentity::generate("pub", 512, &mut rng);
        server
            .handle()
            .register_key(identity.id(), identity.public_key().clone())
            .unwrap();
        (
            LoggingContext {
                node_id: NodeId::new("pub"),
                identity: Some(identity),
                behavior,
                subscriber_stores_hash: store_hash,
                logger: DepositTarget::Single(server.handle()),
                ack_after_durable: false,
                overload: OverloadConfig::default(),
                clock: Arc::new(adlp_pubsub::SystemClock),
            },
            server,
        )
    }

    /// A worker around `ctx` driven synchronously by the test (the channel
    /// stays empty), for deterministic overload scenarios.
    fn worker(ctx: LoggingContext) -> (Worker, Sender<Command>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let breaker = ctx
            .overload
            .breaker
            .clone()
            .map(|cfg| CircuitBreaker::new(cfg, Arc::clone(&ctx.clock)));
        (
            Worker {
                ctx,
                rx,
                queue: VecDeque::new(),
                pending_receipts: VecDeque::new(),
                draft: None,
                breaker,
                pressure: QueuePressure::new(),
                deposit_failures: Arc::new(AtomicU64::new(0)),
                stalled: false,
            },
            tx,
        )
    }

    fn own_entry(seq: u64) -> LogEntry {
        LogEntry::naive(
            NodeId::new("pub"),
            Topic::new("image"),
            Direction::Out,
            seq,
            seq,
            vec![seq as u8; 16],
        )
    }

    fn receipt_event(ctx: &LoggingContext, body: Vec<u8>) -> LogEvent {
        let digest = sha256(&body);
        let own_sig = ctx
            .identity
            .as_ref()
            .unwrap()
            .sign_digest(&binding_digest("image", 5, &digest))
            .unwrap();
        LogEvent::Receipt {
            topic: Topic::new("image"),
            seq: 5,
            stamp_ns: 1000,
            publisher: NodeId::new("cam"),
            body,
            body_digest: digest,
            peer_sig: Signature::from_bytes(vec![9u8; 64]),
            own_sig,
        }
    }

    #[test]
    fn faithful_receipt_stores_hash() {
        let (c, _server) = ctx(BehaviorProfile::faithful(), true);
        let body = vec![1u8; 64];
        let entry = build_entry(&c, receipt_event(&c, body.clone())).unwrap();
        assert_eq!(entry.direction, Direction::In);
        assert_eq!(entry.payload, PayloadRecord::Hash(sha256(&body)));
        assert_eq!(entry.peer, Some(NodeId::new("cam")));
        assert_eq!(entry.timestamp_ns, 1000);
    }

    #[test]
    fn store_data_mode_keeps_payload() {
        let (c, _server) = ctx(BehaviorProfile::faithful(), false);
        let body = vec![1u8; 64];
        let entry = build_entry(&c, receipt_event(&c, body.clone())).unwrap();
        assert_eq!(entry.payload, PayloadRecord::Data(body));
    }

    #[test]
    fn hide_suppresses_entry() {
        let profile = BehaviorProfile::faithful().with_link(
            LinkRole::Subscriber,
            Topic::new("image"),
            LogBehavior::Hide,
        );
        let (c, _server) = ctx(profile, true);
        assert!(build_entry(&c, receipt_event(&c, vec![1u8; 32])).is_none());
    }

    #[test]
    fn falsify_changes_payload_and_resigns() {
        let profile = BehaviorProfile::faithful().with_link(
            LinkRole::Subscriber,
            Topic::new("image"),
            LogBehavior::Falsify,
        );
        let (c, _server) = ctx(profile, true);
        let body = vec![1u8; 64];
        let entry = build_entry(&c, receipt_event(&c, body.clone())).unwrap();
        let real_digest = sha256(&body);
        let PayloadRecord::Hash(claimed) = entry.payload else {
            panic!("expected hash payload");
        };
        assert_ne!(claimed, real_digest);
        // The falsified entry still passes the authenticity check (3): the
        // component re-signed its own lie (over the binding digest).
        let pk = c.identity.as_ref().unwrap().public_key();
        assert!(pkcs1::verify_digest(
            pk,
            &binding_digest("image", 5, &claimed),
            entry.own_sig.as_ref().unwrap()
        ));
    }

    #[test]
    fn impersonation_rewrites_component() {
        let profile = BehaviorProfile::faithful().with_link(
            LinkRole::Subscriber,
            Topic::new("image"),
            LogBehavior::ImpersonateAs(NodeId::new("victim")),
        );
        let (c, _server) = ctx(profile, true);
        let entry = build_entry(&c, receipt_event(&c, vec![1u8; 32])).unwrap();
        assert_eq!(entry.component, NodeId::new("victim"));
    }

    #[test]
    fn timestamp_skew_applied() {
        let profile = BehaviorProfile::faithful().with_timestamp_skew_ns(-600);
        let (c, _server) = ctx(profile, true);
        let entry = build_entry(&c, receipt_event(&c, vec![1u8; 32])).unwrap();
        assert_eq!(entry.timestamp_ns, 400);
    }

    #[test]
    fn thread_processes_and_flushes() {
        let (c, server) = ctx(BehaviorProfile::faithful(), true);
        let thread = LoggingThread::spawn(c).unwrap();
        let sink = thread.sink();
        sink.submit(LogEvent::BasePublication {
            topic: Topic::new("t"),
            seq: 1,
            stamp_ns: 1,
            body: Arc::new(vec![0u8; 20]),
        });
        thread.flush();
        server.handle().flush().unwrap();
        assert_eq!(server.handle().store().len(), 1);
    }

    #[test]
    fn overflow_sheds_oldest_and_issues_signed_receipt() {
        let (mut c, server) = ctx(BehaviorProfile::faithful(), true);
        c.overload = OverloadConfig::with_capacity(4);
        let pk = c.identity.as_ref().unwrap().public_key().clone();
        let (mut w, _tx) = worker(c);
        for seq in 0..10 {
            w.enqueue(own_entry(seq));
        }
        // Capacity 4 under oldest-first: seqs 0..=5 shed, 6..=9 kept.
        assert_eq!(w.pressure.entries_shed(), 6);
        assert_eq!(w.queue.len(), 4);
        w.full_drain();
        assert_eq!(w.pressure.receipts_issued(), 1);
        assert_eq!(w.pressure.deposited(), 5); // 4 entries + 1 receipt
        server.handle().flush().unwrap();
        let entries: Vec<LogEntry> = server
            .handle()
            .store()
            .entries()
            .into_iter()
            .map(Result::unwrap)
            .collect();
        let receipts: Vec<GapReceipt> = entries.iter().filter_map(GapReceipt::from_entry).collect();
        assert_eq!(receipts.len(), 1);
        let r = &receipts[0];
        assert!(r.well_formed());
        assert_eq!((r.first_seq, r.last_seq, r.count), (0, 5, 6));
        assert_eq!(r.reason, ShedReason::QueueFull);
        // The receipt passes the auditor's ordinary screening signature:
        // the component signed its admission of loss.
        let carried = entries
            .iter()
            .find(|e| GapReceipt::claims_receipt(e))
            .unwrap();
        assert!(pkcs1::verify_digest(
            &pk,
            &binding_digest(
                carried.topic.as_str(),
                carried.seq,
                &carried.payload.digest()
            ),
            carried.own_sig.as_ref().unwrap()
        ));
    }

    #[test]
    fn newest_first_refuses_arrivals_and_caps_receipt_span() {
        let (mut c, _server) = ctx(BehaviorProfile::faithful(), true);
        c.overload = OverloadConfig::with_capacity(2)
            .with_policy(ShedPolicy::NewestFirst)
            .with_receipt_span(2);
        let (mut w, _tx) = worker(c);
        for seq in 0..6 {
            w.enqueue(own_entry(seq));
        }
        // The queue keeps the unbroken prefix 0..=1; 2..=5 are refused and
        // split into two receipts by the span cap.
        assert_eq!(w.queue.len(), 2);
        assert_eq!(w.pressure.entries_shed(), 4);
        w.finalize_draft();
        assert_eq!(w.pressure.receipts_issued(), 2);
        let ranges: Vec<(u64, u64)> = w
            .pending_receipts
            .iter()
            .filter_map(GapReceipt::from_entry)
            .map(|r| (r.first_seq, r.last_seq))
            .collect();
        assert_eq!(ranges, vec![(2, 3), (4, 5)]);
    }

    #[test]
    fn queue_full_sheds_trip_breaker_and_probes_reclose_it() {
        let (mut c, server) = ctx(BehaviorProfile::faithful(), true);
        let clock = adlp_pubsub::ManualClock::new(1);
        c.clock = Arc::new(clock.clone());
        c.overload = OverloadConfig::with_capacity(1).with_breaker(
            adlp_pubsub::BreakerConfig::default()
                .with_trip(2, 2)
                .with_cooldown(Duration::from_millis(1)),
        );
        let (mut w, _tx) = worker(c);
        w.enqueue(own_entry(0));
        w.enqueue(own_entry(1));
        w.enqueue(own_entry(2));
        assert_eq!(w.pressure.entries_shed(), 2);
        assert_eq!(w.pressure.breaker_trips(), 1, "sustained overload trips");
        // While open, the work round refuses to deposit (fast-fail).
        assert!(!w.work());
        assert_eq!(w.queue.len(), 1);
        // Cooldown elapses: the probe deposits against the healthy logger.
        clock.advance_ns(10_000_000);
        assert!(w.work());
        assert!(w.queue.is_empty());
        // The receipt delivery supplies the second probe success → Closed.
        w.finalize_draft();
        assert!(w.work());
        assert_eq!(w.pressure.breaker_closes(), 1);
        server.handle().flush().unwrap();
        assert_eq!(server.handle().store().len(), 2); // entry 2 + receipt
    }

    #[test]
    fn shutdown_receipts_remaining_backlog_on_dead_target() {
        let (mut c, server) = ctx(BehaviorProfile::faithful(), true);
        c.overload = OverloadConfig::with_capacity(16);
        server.kill(); // the target is gone before the backlog drains
        let (mut w, _tx) = worker(c);
        for seq in 0..5 {
            w.enqueue(own_entry(seq));
        }
        w.final_drain();
        // First deposit fails; the remaining 4 are shed under a Shutdown
        // receipt that itself cannot be delivered — all of it counted.
        assert_eq!(w.pressure.entries_shed(), 4);
        assert_eq!(w.pressure.receipts_issued(), 1);
        assert_eq!(w.pressure.receipts_undeliverable(), 1);
        assert_eq!(w.pressure.deposited(), 0);
    }

    #[test]
    fn base_falsify_flips_payload() {
        let profile = BehaviorProfile::faithful().with_link(
            LinkRole::Publisher,
            Topic::new("t"),
            LogBehavior::Falsify,
        );
        let (c, _server) = ctx(profile, true);
        let body = vec![0u8; 20];
        let entry = build_entry(
            &c,
            LogEvent::BasePublication {
                topic: Topic::new("t"),
                seq: 1,
                stamp_ns: 1,
                body: Arc::new(body.clone()),
            },
        )
        .unwrap();
        assert_eq!(entry.payload, PayloadRecord::Data(falsify_body(&body)));
    }
}
