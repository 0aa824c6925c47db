//! The witness federation: one gossip engine over a [`Link`].
//!
//! A [`Federation`] owns everything about a `2f + 1` witness set that does
//! not depend on how bytes travel: the witnesses and their deterministic
//! keys, each witness's storage device and private view of the logger(s),
//! the federation-lifetime counters, and the only copy of the protocol —
//! poll, emit, settle, drain, converge, cosign quorum, conviction relay,
//! partition, kill and restart. How bytes travel is the one thing behind
//! the [`Link`] trait, which has exactly two implementations:
//! [`InprocLink`] (fault-injected in-process channels, no sockets, no
//! mandatory sleeps — what lets the root package's tests run the engine)
//! and [`crate::tcp::TcpLink`] (real localhost sockets behind chaos
//! proxies). A link moves opaque frames; it never decodes, verifies or
//! adopts anything.
//!
//! Witnesses run in **rounds** (entry-driven, not wall-clock-driven, like
//! every other chaos harness here): each running witness polls its view of
//! the logger(s) and sends every peer its assembled convictions, its
//! adopted heads and both halves of every conviction; the link settles;
//! then each running witness drains its inbox through
//! `Federation::recv_gossip_frame` → [`decode_conviction_frame`] /
//! [`SignedTreeHead::decode`] → [`Witness::adopt_proof`] /
//! [`Witness::adopt_head`]. Nothing reaches witness state any other way:
//! both adopt methods take decoded values, never bytes. Gossip frames are
//! idempotent and re-sent in full every round, so a frame lost to a fault
//! or a dead link is made whole the first round after the link recovers.
//!
//! **Partition**, defined once: a severed witness is cut from its peers
//! *and* from clients — [`Federation::converged`] ignores it and
//! [`Federation::witnessed`] does not count its cosignature — but it keeps
//! running: it polls its own logger view and keeps sending into the void
//! until [`Federation::heal`].

use crate::proof::{decode_conviction_frame, encode_conviction_frame, CosignedHead};
use crate::witness::{SthObservation, TreeHeadSource, Witness};
use adlp_crypto::rsa::{RsaKeyPair, RsaPrivateKey};
use adlp_logger::sth::SignedTreeHead;
use adlp_logger::storage::MemStorage;
use adlp_logger::{ConflictProof, FirstSeen, Keyring, LogError, Wire};
use adlp_pubsub::transport::faults::{FaultConfig, FaultStats, FaultyTransport};
use adlp_pubsub::transport::{duplex_pair, FrameDuplex};
use adlp_pubsub::{NodeId, PubSubError};
use parking_lot::Mutex;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Shape of a witness federation.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationConfig {
    /// Witnesses tolerated unreachable (or misbehaving): the set runs
    /// `2f + 1` witnesses and a head counts as witnessed once `f + 1`
    /// distinct witnesses cosigned it — any witnessed head was vouched for
    /// by at least one honest, reachable witness.
    pub f: usize,
    /// RSA modulus width of the per-witness keys (512 is test/bench grade).
    pub key_bits: usize,
    /// Seed for deterministic witness-key generation.
    pub seed: u64,
}

impl FederationConfig {
    /// A federation tolerating `f` unreachable witnesses (`f ≥ 1`).
    pub fn new(f: usize) -> Self {
        FederationConfig {
            f: f.max(1),
            key_bits: 512,
            seed: 0x57_17,
        }
    }

    /// Sets the witness-key generation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total witnesses: `2f + 1`.
    pub fn witnesses(&self) -> usize {
        2 * self.f + 1
    }

    /// Cosignatures needed for a head to count as witnessed: `f + 1`.
    pub fn witness_quorum(&self) -> usize {
        self.f + 1
    }
}

/// What a [`Link`] counted over its whole lifetime. Link-level totals
/// live in the link, not in any endpoint, so a [`Link::down`] /
/// [`Link::up`] cycle never resets them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Frames handed to the transport.
    pub frames_sent: u64,
    /// Frames the transport delivered to an inbox.
    pub frames_received: u64,
    /// Sends that died before the wire: a dead or partitioned link, a
    /// refused dial, a failed write.
    pub send_failures: u64,
    /// Successful re-dials after a link death (always 0 in-process).
    pub reconnects: u64,
    /// Faults the transport injected on purpose: dropped, delayed,
    /// reordered or duplicated frames, socket resets, splits, stalls,
    /// refused dials.
    pub injected_faults: u64,
}

/// How gossip frames travel between witnesses `0..n` — the only part of
/// a federation that differs between the lab mesh and real sockets.
///
/// A link carries opaque bytes. Everything [`Link::recv`] returns is raw
/// and untrusted: the engine decodes and verifies it before any witness
/// sees it, and no implementation may do so on the engine's behalf.
pub trait Link: Send + Sync {
    /// Sends `frame` from witness `from` toward witness `to`. Returns
    /// whether the frame was handed to the transport; a `false` (dead or
    /// partitioned link, endpoint down, write failure) is counted in
    /// [`LinkCounters::send_failures`], and the engine simply re-sends
    /// next round.
    fn send(&self, from: usize, to: usize, frame: &[u8]) -> bool;

    /// Pops the next raw frame delivered to witness `at`, if any.
    fn recv(&self, at: usize) -> Option<Vec<u8>>;

    /// Blocks for as long as a round should let frames traverse the
    /// transport before inboxes are drained.
    fn settle(&self);

    /// Cuts every path to and from witness `w`. Its endpoint keeps
    /// running; its frames go nowhere.
    fn sever(&mut self, w: usize);

    /// Restores every path to and from witness `w`.
    fn heal(&mut self, w: usize);

    /// Takes witness `w`'s endpoint down like a power cut: undelivered
    /// frames are gone and peers' sends to it fail.
    fn down(&mut self, w: usize);

    /// Brings witness `w`'s endpoint back with an empty inbox, reachable
    /// by every peer again.
    ///
    /// # Errors
    ///
    /// Propagates transport errors (a socket link binds a fresh
    /// listener).
    fn up(&mut self, w: usize) -> Result<(), PubSubError>;

    /// Lifetime totals across every path of the link.
    fn counters(&self) -> LinkCounters;
}

/// The lab mesh: one in-process channel per ordered witness pair, each
/// wrapped in a seeded [`FaultyTransport`] unless the fault config is
/// transparent — in which case a round costs no sleep at all.
pub struct InprocLink {
    /// One endpoint per witness.
    ends: Vec<InprocEnd>,
    /// How long a round waits for the injector threads (delay/reorder)
    /// to flush; zero for a transparent mesh.
    settle: Duration,
    faults: Arc<FaultStats>,
    /// Everything but `injected_faults`, which `faults` holds.
    counts: Mutex<LinkCounters>,
}

/// Witness `w`'s end of the mesh.
#[derive(Default)]
struct InprocEnd {
    /// `lanes[to]`: the sending end toward `to` (`None` toward itself).
    lanes: Vec<Option<FrameDuplex>>,
    /// `inbox[from]`: the matching receiving end.
    inbox: Vec<Option<FrameDuplex>>,
    severed: bool,
    down: bool,
}

impl InprocLink {
    /// A full mesh over `n` witnesses with `fault` applied to every lane.
    pub fn new(n: usize, fault: FaultConfig) -> Self {
        let faults = Arc::new(FaultStats::default());
        let mut ends: Vec<InprocEnd> = (0..n).map(|_| InprocEnd::default()).collect();
        for from in 0..n {
            for to in 0..n {
                let (lane, inbox) = if from == to {
                    (None, None)
                } else {
                    let (near, far) = duplex_pair();
                    let salt = (from as u64) << 16 | to as u64;
                    let near = if fault.is_transparent() {
                        near
                    } else {
                        FaultyTransport::wrap(near, fault.clone(), salt, Arc::clone(&faults), || {})
                    };
                    (Some(near), Some(far))
                };
                if let Some(end) = ends.get_mut(from) {
                    end.lanes.push(lane);
                }
                if let Some(end) = ends.get_mut(to) {
                    end.inbox.push(inbox);
                }
            }
        }
        InprocLink {
            ends,
            settle: if fault.is_transparent() {
                Duration::ZERO
            } else {
                fault.max_delay + Duration::from_millis(25)
            },
            faults,
            counts: Mutex::default(),
        }
    }

    /// Witness `w`'s end, when it is reachable: it exists, is up and is
    /// not severed.
    fn reachable(&self, w: usize) -> Option<&InprocEnd> {
        self.ends.get(w).filter(|end| !end.severed && !end.down)
    }
}

impl Link for InprocLink {
    fn send(&self, from: usize, to: usize, frame: &[u8]) -> bool {
        let lane = self
            .reachable(from)
            .filter(|_| self.reachable(to).is_some())
            .and_then(|end| end.lanes.get(to))
            .and_then(Option::as_ref);
        let sent = lane.is_some_and(|lane| lane.send(frame.to_vec()));
        let mut counts = self.counts.lock();
        if sent {
            counts.frames_sent += 1;
        } else {
            counts.send_failures += 1;
        }
        sent
    }

    fn recv(&self, at: usize) -> Option<Vec<u8>> {
        let end = self.ends.get(at).filter(|end| !end.down)?;
        let frame = end
            .inbox
            .iter()
            .flatten()
            .find_map(|inbox| inbox.rx.try_recv().ok())?;
        self.counts.lock().frames_received += 1;
        Some(frame)
    }

    fn settle(&self) {
        if !self.settle.is_zero() {
            std::thread::sleep(self.settle);
        }
    }

    fn sever(&mut self, w: usize) {
        if let Some(end) = self.ends.get_mut(w) {
            end.severed = true;
        }
    }

    fn heal(&mut self, w: usize) {
        if let Some(end) = self.ends.get_mut(w) {
            end.severed = false;
        }
    }

    fn down(&mut self, w: usize) {
        if let Some(end) = self.ends.get_mut(w) {
            end.down = true;
        }
    }

    fn up(&mut self, w: usize) -> Result<(), PubSubError> {
        let end = self
            .ends
            .get_mut(w)
            .ok_or(PubSubError::Malformed("witness endpoint index"))?;
        // Whatever was queued at the cut, or landed after it, belonged to
        // a process that is gone: the rebooted one starts empty.
        for inbox in end.inbox.iter().flatten() {
            while inbox.rx.try_recv().is_ok() {}
        }
        end.down = false;
        Ok(())
    }

    fn counters(&self) -> LinkCounters {
        LinkCounters {
            injected_faults: self.faults.total_faults(),
            ..*self.counts.lock()
        }
    }
}

/// What the engine counted for one witness slot (or, from
/// [`Federation::totals`], for all of them). A slot outlives any
/// [`Witness`] that fills it: nothing here goes down across a
/// [`Federation::kill`] / [`Federation::restart`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipCounters {
    /// Heads and convictions discarded for a bad logger signature.
    pub rejected: u64,
    /// Frames that failed [`SignedTreeHead`] framing or decoding.
    pub undecodable: u64,
    /// Conviction frames handed to the link.
    pub convictions_sent: u64,
    /// Gossiped convictions re-verified and newly adopted.
    pub convictions_ingested: u64,
    /// Conviction frames refused: malformed body, or a proof that failed
    /// re-verification under the logger keyring.
    pub convictions_rejected: u64,
}

/// A `2f + 1` witness federation over some [`Link`].
///
/// Sources are **per witness** deliberately: a split-view logger is
/// modeled as different witnesses being served different
/// [`TreeHeadSource`]s, which is exactly the attack gossip exists to catch.
pub struct Federation {
    config: FederationConfig,
    link: Box<dyn Link>,
    loggers: Keyring<NodeId>,
    keyring: Keyring<usize>,
    slots: Vec<Slot>,
}

/// One witness position: its key, its state device, its private view of
/// the logger(s), and whichever [`Witness`] currently fills it.
struct Slot {
    key: RsaKeyPair,
    witness: Arc<Witness>,
    storage: Arc<MemStorage>,
    sources: Vec<Arc<dyn TreeHeadSource>>,
    running: bool,
    severed: bool,
    restarts: u64,
    /// Engine counts; `rejected` holds only what retired witnesses
    /// counted (the current one keeps its own).
    tally: Mutex<GossipCounters>,
}

impl Slot {
    /// Reachable by peers and clients: running and not severed.
    fn live(&self) -> bool {
        self.running && !self.severed
    }
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federation")
            .field("config", &self.config)
            .field("live", &self.live())
            .finish_non_exhaustive()
    }
}

/// A fresh witness `w` bound to its storage device: first boot persists
/// the empty state, every later boot resumes what was synced (record
/// first, speak second — DESIGN.md §3.13).
fn boot_witness(
    w: usize,
    key: &RsaKeyPair,
    loggers: &Keyring<NodeId>,
    storage: &Arc<MemStorage>,
) -> Result<Arc<Witness>, LogError> {
    let key = RsaPrivateKey::from_bytes(&key.private_key().to_bytes())
        .map_err(|_| LogError::Malformed("witness key"))?;
    let witness = Arc::new(Witness::new(w, key, loggers.clone()));
    witness.bind_storage(storage.clone(), "witness-state")?;
    Ok(witness)
}

impl Federation {
    /// Builds the federation over `link` (which must span
    /// `config.witnesses()` endpoints): deterministic per-witness keys from
    /// `config.seed`, one storage device per witness. `sources[w]` is
    /// witness `w`'s private view of each log it watches (hand every
    /// witness the same `Arc` for an honest logger; leave it empty for a
    /// gossip-only witness).
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the initial state persist.
    pub fn new(
        config: FederationConfig,
        link: Box<dyn Link>,
        loggers: Keyring<NodeId>,
        mut sources: Vec<Vec<Arc<dyn TreeHeadSource>>>,
    ) -> Result<Self, LogError> {
        let n = config.witnesses();
        let keys: Vec<RsaKeyPair> = (0..n)
            .map(|i| {
                let mut rng =
                    rand::rngs::StdRng::seed_from_u64(config.seed ^ (0x5EED << 8) ^ i as u64);
                RsaKeyPair::generate(config.key_bits, &mut rng)
            })
            .collect();
        let keyring = keys
            .iter()
            .map(|k| k.public_key().clone())
            .enumerate()
            .collect();
        sources.resize_with(n, Vec::new);
        let slots = keys
            .into_iter()
            .zip(sources)
            .enumerate()
            .map(|(w, (key, sources))| {
                let storage = Arc::new(MemStorage::new());
                Ok(Slot {
                    witness: boot_witness(w, &key, &loggers, &storage)?,
                    key,
                    storage,
                    sources,
                    running: true,
                    severed: false,
                    restarts: 0,
                    tally: Mutex::default(),
                })
            })
            .collect::<Result<Vec<_>, LogError>>()?;
        Ok(Federation {
            config,
            link,
            loggers,
            keyring,
            slots,
        })
    }

    /// The federation's shape.
    pub fn config(&self) -> &FederationConfig {
        &self.config
    }

    /// The public keys of the witness set, for light clients and auditors.
    pub fn keyring(&self) -> &Keyring<usize> {
        &self.keyring
    }

    /// Witness `w`, for inspection (present even while it is down).
    pub fn witness(&self, w: usize) -> Option<&Arc<Witness>> {
        self.slots.get(w).map(|slot| &slot.witness)
    }

    /// Indices of the witnesses peers and clients can currently reach:
    /// running and not severed.
    pub fn live(&self) -> Vec<usize> {
        self.live_slots().map(|(w, _)| w).collect()
    }

    fn live_slots(&self) -> impl Iterator<Item = (usize, &Slot)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.live())
    }

    /// How many times witness `w` has been restarted.
    pub fn restarts(&self, w: usize) -> u64 {
        self.slots.get(w).map_or(0, |slot| slot.restarts)
    }

    /// Partitions witness `w` away from peers and clients (see the module
    /// docs for the one definition of partition).
    pub fn sever(&mut self, w: usize) {
        if let Some(slot) = self.slots.get_mut(w) {
            slot.severed = true;
            self.link.sever(w);
        }
    }

    /// Reconnects witness `w`.
    pub fn heal(&mut self, w: usize) {
        if let Some(slot) = self.slots.get_mut(w) {
            slot.severed = false;
            self.link.heal(w);
        }
    }

    /// Kills witness `w` like a power cut: its endpoint goes down,
    /// process state is gone, and the state device keeps only what was
    /// synced ([`MemStorage::crash`]). The durable write-replace
    /// discipline means everything the witness ever *spoke* is still
    /// there.
    pub fn kill(&mut self, w: usize) {
        if let Some(slot) = self.slots.get_mut(w).filter(|slot| slot.running) {
            slot.running = false;
            self.link.down(w);
            slot.storage.crash();
        }
    }

    /// Restarts witness `w` from nothing but its key and its storage
    /// device: a fresh [`Witness`] resumes the durable state via
    /// [`Witness::bind_storage`] and the link brings its endpoint back.
    ///
    /// # Errors
    ///
    /// Propagates storage errors (corrupt state fails closed) and
    /// transport errors from [`Link::up`].
    pub fn restart(&mut self, w: usize) -> Result<(), LogError> {
        let slot = self
            .slots
            .get_mut(w)
            .ok_or(LogError::Malformed("restart of an unknown witness"))?;
        if slot.running {
            return Err(LogError::Malformed("restart of a live witness"));
        }
        let witness = boot_witness(w, &slot.key, &self.loggers, &slot.storage)?;
        self.link
            .up(w)
            .map_err(|e| LogError::Io(format!("witness restart: {e}")))?;
        let retired = std::mem::replace(&mut slot.witness, witness);
        slot.tally.lock().rejected += retired.rejected();
        slot.restarts += 1;
        slot.running = true;
        Ok(())
    }

    /// Sends an arbitrary frame from witness `from`'s network position to
    /// every peer, over the same link honest gossip crosses. This is the
    /// chaos-harness hook for a *traitor* witness: forged heads, mangled
    /// frames — whatever it injects must be rejected by the receivers'
    /// verify-then-adopt path, never believed.
    pub fn inject(&self, from: usize, frame: &[u8]) {
        for to in (0..self.slots.len()).filter(|&to| to != from) {
            self.link.send(from, to, frame);
        }
    }

    /// Pulls the next raw gossip frame delivered to witness `w`, if any.
    ///
    /// This is the single ingest point for gossip bytes on every link;
    /// everything it returns must pass [`decode_conviction_frame`] or
    /// [`SignedTreeHead::decode`] (and the witness's verify-then-adopt
    /// path) before touching state — the adopt methods take only the
    /// decoded types.
    fn recv_gossip_frame(&self, w: usize) -> Option<Vec<u8>> {
        self.link.recv(w)
    }

    /// Witness `w` polls its own sources, then sends its full adopted
    /// view to every peer. Assembled convictions lead: one self-contained
    /// frame teaches a peer the conviction (after it re-verifies the
    /// proof) even if the conflicting heads themselves never reach it,
    /// and before the head replay would re-derive it pairwise.
    fn emit(&self, w: usize, slot: &Slot) {
        let witness = &slot.witness;
        for source in &slot.sources {
            witness.poll(source.as_ref());
        }
        let proofs = witness.proofs();
        let convictions: Vec<Vec<u8>> = proofs.iter().map(encode_conviction_frame).collect();
        // Both halves of every conviction follow the adopted heads: peers
        // re-derive the conviction from the conflicting heads themselves.
        let heads: Vec<Vec<u8>> = witness
            .latest_heads()
            .iter()
            .chain(proofs.iter().flat_map(|p| [&p.first, &p.second]))
            .map(SignedTreeHead::encode)
            .collect();
        for to in (0..self.slots.len()).filter(|&to| to != w) {
            for frame in &convictions {
                if self.link.send(w, to, frame) {
                    slot.tally.lock().convictions_sent += 1;
                }
            }
            for frame in &heads {
                self.link.send(w, to, frame);
            }
        }
    }

    /// Drains witness `w`'s inbox: decode each frame, fetch the
    /// consistency proof the witness needs from its own sources, and
    /// adopt. Returns how many heads were newly adopted.
    fn drain(&self, w: usize, slot: &Slot) -> usize {
        let witness = &slot.witness;
        let mut adopted = 0;
        while let Some(frame) = self.recv_gossip_frame(w) {
            // Conviction frames are self-describing (magic-prefixed) and
            // re-verified by the witness before adoption; anything else is
            // a signed tree head.
            if let Some(decoded) = decode_conviction_frame(&frame) {
                match decoded.ok().map(|proof| witness.adopt_proof(proof)) {
                    Some(Some(true)) => slot.tally.lock().convictions_ingested += 1,
                    Some(Some(false)) => {}
                    Some(None) | None => slot.tally.lock().convictions_rejected += 1,
                }
                continue;
            }
            let Ok(sth) = SignedTreeHead::decode(&frame) else {
                slot.tally.lock().undecodable += 1;
                continue;
            };
            let consistency = match witness.latest_head(&sth.log) {
                Some(cur) if sth.size > cur.size => slot
                    .sources
                    .iter()
                    .find(|s| s.log_id() == sth.log)
                    .and_then(|s| s.consistency(cur.size, sth.size)),
                _ => None,
            };
            if witness.adopt_head(sth, consistency.as_ref()) == SthObservation::Adopted {
                adopted += 1;
            }
        }
        adopted
    }

    /// One gossip round: every running witness polls and emits, the link
    /// settles, every running witness drains. Returns how many heads were
    /// newly adopted anywhere.
    pub fn round(&self) -> usize {
        let running: Vec<(usize, &Slot)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.running)
            .collect();
        for &(w, slot) in &running {
            self.emit(w, slot);
        }
        self.link.settle();
        running.iter().map(|&(w, slot)| self.drain(w, slot)).sum()
    }

    /// Runs rounds until every live witness agrees on every tracked log's
    /// latest head, or `max_rounds` elapse. Returns the rounds consumed,
    /// or `None` when convergence was not reached.
    pub fn run_until_converged(&self, max_rounds: usize) -> Option<usize> {
        (1..=max_rounds).find(|_| {
            self.round();
            self.converged()
        })
    }

    /// Whether the live witnesses hold identical latest heads — the same
    /// logs, each at the same size and root — and track at least one log.
    pub fn converged(&self) -> bool {
        let mut views = self.live_slots().map(|(_, slot)| {
            let heads = slot.witness.latest_heads();
            heads
                .into_iter()
                .map(|h| (h.log, h.size, h.root))
                .collect::<Vec<_>>()
        });
        views
            .next()
            .is_some_and(|first| !first.is_empty() && views.all(|view| view == first))
    }

    /// The highest head of `log` that gathered a cosign quorum across the
    /// live witnesses, with the endorsements backing it — `None` once
    /// fewer than `f + 1` reachable witnesses agree.
    pub fn witnessed(&self, log: &NodeId) -> Option<CosignedHead> {
        let mut candidates: Vec<SignedTreeHead> = self
            .live_slots()
            .filter_map(|(_, slot)| slot.witness.latest_head(log))
            .collect();
        candidates.sort_by_key(|c| std::cmp::Reverse(c.size));
        candidates.into_iter().find_map(|sth| {
            let cosignatures: Vec<_> = self
                .live_slots()
                .filter_map(|(_, slot)| slot.witness.cosignature(log, sth.size))
                .filter(|c| c.root == sth.root)
                .collect();
            (cosignatures.len() >= self.config.witness_quorum())
                .then_some(CosignedHead { sth, cosignatures })
        })
    }

    /// Every conviction assembled anywhere in the federation, deduplicated
    /// per (log, size).
    pub fn proofs(&self) -> Vec<ConflictProof<SignedTreeHead>> {
        let mut out = FirstSeen::default();
        for proof in self.slots.iter().flat_map(|slot| slot.witness.proofs()) {
            out.admit(proof);
        }
        out.proofs().to_vec()
    }

    /// What the engine counted for witness slot `w` since the federation
    /// was built, across every witness that ever filled the slot.
    pub fn counters(&self, w: usize) -> GossipCounters {
        self.slots
            .get(w)
            .map_or_else(GossipCounters::default, |slot| {
                let mut counted = *slot.tally.lock();
                counted.rejected += slot.witness.rejected();
                counted
            })
    }

    /// [`Federation::counters`] summed over every slot.
    pub fn totals(&self) -> GossipCounters {
        let mut total = GossipCounters::default();
        for w in 0..self.slots.len() {
            let slot = self.counters(w);
            total.rejected += slot.rejected;
            total.undecodable += slot.undecodable;
            total.convictions_sent += slot.convictions_sent;
            total.convictions_ingested += slot.convictions_ingested;
            total.convictions_rejected += slot.convictions_rejected;
        }
        total
    }

    /// Gossip discarded for bad signatures, summed over the federation.
    pub fn rejected(&self) -> u64 {
        self.totals().rejected
    }

    /// Gossip frames that failed framing (magic/checksum/truncation).
    pub fn undecodable(&self) -> u64 {
        self.totals().undecodable
    }

    /// The link's lifetime totals: traffic, failures, reconnects, and the
    /// faults it injected.
    pub fn link_counters(&self) -> LinkCounters {
        self.link.counters()
    }

    /// Anchor map across the federation, for restart-invariant
    /// assertions: witness index → (log → anchor head).
    pub fn anchors(&self) -> BTreeMap<usize, BTreeMap<NodeId, SignedTreeHead>> {
        self.slots
            .iter()
            .enumerate()
            .map(|(w, slot)| {
                let anchors = slot
                    .witness
                    .state()
                    .logs
                    .into_iter()
                    .map(|(log, record)| (log, record.anchor))
                    .collect();
                (w, anchors)
            })
            .collect()
    }
}

impl crate::light::WitnessedHeadSource for Federation {
    fn witnessed(&self, log: &NodeId) -> Option<CosignedHead> {
        Federation::witnessed(self, log)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::light::{LightClient, LightClientError};
    use crate::proof::SPLIT_VIEW_FRAME_MAGIC;
    use crate::tcp::{TcpGossipConfig, TcpLink};
    use adlp_logger::sth::{SthPublisher, TreeHeadSigner};
    use adlp_logger::LogStore;
    use adlp_pubsub::transport::chaos::ChaosConfig;

    pub(crate) fn logger_id() -> NodeId {
        NodeId::new("logger")
    }

    /// A 512-bit logger key with its keyring and a signer over it.
    fn logger_key(seed: u64) -> (Keyring<NodeId>, TreeHeadSigner) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let keyring = Keyring::new().with(logger_id(), kp.public_key().clone());
        (
            keyring,
            TreeHeadSigner::new(logger_id(), kp.into_private_key()),
        )
    }

    /// Every test below runs once per link: the lab mesh (transparent, so
    /// no sleeps) and real sockets behind (transparent) chaos proxies.
    fn on_both_links(seed: u64, test: impl Fn(&str, FederationConfig, Box<dyn Link>)) {
        let config = FederationConfig::new(1).with_seed(seed);
        let n = config.witnesses();
        test(
            "inproc",
            config.clone(),
            Box::new(InprocLink::new(n, FaultConfig::default())),
        );
        let tcp = TcpLink::spawn(n, TcpGossipConfig::default(), ChaosConfig::seeded(seed)).unwrap();
        test("tcp", config, Box::new(tcp));
    }

    /// An honest logger over a 4-record store, served identically to all.
    pub(crate) fn honest_federation(
        seed: u64,
        config: FederationConfig,
        link: Box<dyn Link>,
    ) -> (Federation, Keyring<NodeId>, LogStore) {
        let (keyring, signer) = logger_key(seed);
        let store = LogStore::new();
        for i in 0..4u8 {
            store.append_encoded(vec![i; 16]);
        }
        let publisher = Arc::new(SthPublisher::new(signer, store.clone()));
        let sources = (0..config.witnesses())
            .map(|_| vec![Arc::clone(&publisher) as Arc<dyn TreeHeadSource>])
            .collect();
        let fed = Federation::new(config, link, keyring.clone(), sources).unwrap();
        (fed, keyring, store)
    }

    #[test]
    fn an_unknown_witness_index_is_refused_not_a_panic() {
        on_both_links(43, |name, config, mut link| {
            let w = config.witnesses() + 4;
            assert!(!link.send(0, w, b"frame"), "{name}");
            assert!(!link.send(w, 0, b"frame"), "{name}");
            assert!(link.recv(w).is_none(), "{name}");
            link.sever(w);
            link.heal(w);
            link.down(w);
            assert!(link.up(w).is_err(), "{name}");

            let (mut fed, ..) = honest_federation(43, config, link);
            fed.sever(w);
            fed.heal(w);
            fed.kill(w);
            assert!(fed.restart(w).is_err(), "{name}");
            fed.inject(w, b"frame");
            assert!(fed.witness(w).is_none(), "{name}");
            assert_eq!(
                (fed.counters(w), fed.restarts(w)),
                (GossipCounters::default(), 0),
                "{name}"
            );
            assert!(fed.run_until_converged(10).is_some(), "{name}");
        });
    }

    #[test]
    fn honest_federation_converges_and_reaches_quorum() {
        on_both_links(41, |name, config, link| {
            let (fed, keyring, store) = honest_federation(41, config, link);
            assert!(fed.run_until_converged(10).is_some(), "{name}");
            let witnessed = fed.witnessed(&logger_id()).expect("quorum-cosigned head");
            assert_eq!(witnessed.sth.size, 4, "{name}");
            assert!(
                witnessed.witnessed_by(&keyring, fed.keyring(), fed.config().witness_quorum()),
                "{name}"
            );
            assert!(fed.proofs().is_empty(), "{name}");
            assert_eq!(fed.rejected(), 0, "{name}");

            // The log grows; the set re-converges on the larger head.
            store.append_encoded(vec![9; 16]);
            assert!(fed.run_until_converged(10).is_some(), "{name}");
            assert_eq!(
                fed.witnessed(&logger_id()).expect("new head").sth.size,
                5,
                "{name}"
            );
            let link = fed.link_counters();
            assert!(
                link.frames_sent > 0 && link.frames_received > 0,
                "{name}: {link:?}"
            );
        });
    }

    #[test]
    fn severed_minority_does_not_block_the_quorum() {
        on_both_links(8, |name, config, link| {
            let f = config.f;
            let (mut fed, _, _) = honest_federation(8, config, link);
            for w in 0..f {
                fed.sever(w);
            }
            assert!(fed.run_until_converged(10).is_some(), "{name}");
            let witnessed = fed
                .witnessed(&logger_id())
                .expect("liveness under f missing");
            assert_eq!(witnessed.sth.size, 4, "{name}");
        });
    }

    #[test]
    fn quorum_is_lost_under_an_f_plus_one_partition_and_returns_on_heal() {
        on_both_links(59, |name, config, link| {
            let f = config.f;
            let (mut fed, _, store) = honest_federation(59, config, link);
            assert!(fed.run_until_converged(10).is_some(), "{name}");
            for w in 0..=f {
                fed.sever(w);
            }
            assert_eq!(fed.live(), vec![f + 1], "{name}");
            assert!(
                fed.witnessed(&logger_id()).is_none(),
                "{name}: f reachable cosigners are not a quorum"
            );
            // Severed witnesses keep polling their own view but are not
            // part of the agreement: one reachable witness is trivially
            // converged, whatever the other f + 1 hold.
            store.append_encoded(vec![7; 16]);
            assert_eq!(fed.run_until_converged(4), Some(1), "{name}");
            assert!(fed.witnessed(&logger_id()).is_none(), "{name}");

            for w in 0..=f {
                fed.heal(w);
            }
            assert!(fed.run_until_converged(12).is_some(), "{name}");
            assert_eq!(
                fed.witnessed(&logger_id())
                    .expect("quorum returns")
                    .sth
                    .size,
                5,
                "{name}"
            );
        });
    }

    #[test]
    fn killed_witness_restarts_with_its_anchors() {
        on_both_links(43, |name, config, link| {
            let (mut fed, _, store) = honest_federation(43, config, link);
            assert!(fed.run_until_converged(10).is_some(), "{name}");
            let log = logger_id();
            let anchor_before = fed.witness(2).unwrap().anchor(&log).expect("anchored");
            let high_before = fed.witness(2).unwrap().cosign_high_water(&log);

            fed.kill(2);
            store.append_encoded(vec![7; 16]);
            assert!(
                fed.run_until_converged(10).is_some(),
                "{name}: survivors converge"
            );

            fed.restart(2).unwrap();
            let restored = fed.witness(2).unwrap();
            assert_eq!(
                restored.anchor(&log).expect("anchor survived the crash"),
                anchor_before,
                "{name}: a restarted witness must not re-TOFU"
            );
            assert!(restored.cosign_high_water(&log) >= high_before, "{name}");
            assert!(
                fed.run_until_converged(12).is_some(),
                "{name}: rejoin converges"
            );
            assert_eq!(
                fed.witnessed(&log).expect("quorum after rejoin").sth.size,
                5,
                "{name}"
            );
            assert_eq!(fed.restarts(2), 1, "{name}");
            assert!(fed.restart(2).is_err(), "{name}: restart of a live witness");
        });
    }

    /// A forged conviction (right shape, imposter key) and an
    /// outright-garbage conviction frame.
    fn bad_conviction_frames(seed: u64) -> (ConflictProof<SignedTreeHead>, Vec<u8>) {
        let (_, imposter) = logger_key(seed ^ 0x1337);
        let forged = ConflictProof {
            first: imposter.sign(0, 9, adlp_crypto::sha256(b"fa")).unwrap(),
            second: imposter.sign(1, 9, adlp_crypto::sha256(b"fb")).unwrap(),
        };
        let mut garbage = SPLIT_VIEW_FRAME_MAGIC.to_vec();
        garbage.extend_from_slice(b"not a proof");
        (forged, garbage)
    }

    #[test]
    fn conviction_gossip_reaches_nodes_that_never_saw_the_fork() {
        on_both_links(47, |name, config, link| {
            let (keyring, signer) = logger_key(47);
            let n = config.witnesses();
            let fed = Federation::new(config, link, keyring.clone(), Vec::new()).unwrap();

            // Only witness 0 ever sees the two conflicting heads; everyone
            // else must learn the conviction from the gossiped proof frame.
            let a = signer.sign(0, 4, adlp_crypto::sha256(b"a")).unwrap();
            let b = signer.sign(1, 4, adlp_crypto::sha256(b"b")).unwrap();
            let w0 = fed.witness(0).unwrap();
            assert_eq!(w0.adopt_head(a, None), SthObservation::Adopted);
            assert!(matches!(
                w0.adopt_head(b, None),
                SthObservation::SplitView(_)
            ));

            for _ in 0..4 {
                fed.round();
            }
            for w in 0..n {
                let proofs = fed.witness(w).unwrap().proofs();
                assert_eq!(proofs.len(), 1, "{name}: witness {w} holds the conviction");
                assert!(
                    proofs[0].verify(&keyring),
                    "{name}: conviction stays transferable"
                );
            }
            assert!(fed.counters(0).convictions_sent >= 1, "{name}");
            assert!(
                (1..n).any(|w| fed.counters(w).convictions_ingested >= 1),
                "{name}"
            );

            // A light client that never observed either head learns it too.
            let client = LightClient::new(keyring.clone());
            let proof = fed.witness(n - 1).unwrap().proofs().remove(0);
            assert_eq!(client.observe_conviction(proof.clone()), Ok(true));
            assert_eq!(client.observe_conviction(proof), Ok(false), "dedup");
            assert_eq!(client.evidence().len(), 1);

            // Forged and garbage conviction frames are refused by every
            // ingest path: counted as rejected convictions — not as
            // undecodable heads — and never stored.
            let (forged, garbage) = bad_conviction_frames(47);
            assert_eq!(
                client.observe_conviction(forged.clone()),
                Err(LightClientError::BadSignature)
            );
            let before = fed.totals();
            fed.inject(0, &encode_conviction_frame(&forged));
            fed.inject(0, &garbage);
            for _ in 0..4 {
                fed.round();
            }
            let after = fed.totals();
            assert!(
                after.convictions_rejected >= before.convictions_rejected + 2,
                "{name}: injected frames counted as rejected: {after:?}"
            );
            assert_eq!(after.undecodable, before.undecodable, "{name}");
            for w in 0..n {
                assert_eq!(
                    fed.witness(w).unwrap().proofs().len(),
                    1,
                    "{name}: forgeries never become convictions"
                );
            }
        });
    }

    #[test]
    fn counters_never_decrease_across_a_restart() {
        on_both_links(61, |name, config, link| {
            let (mut fed, _, _) = honest_federation(61, config, link);
            assert!(fed.run_until_converged(10).is_some(), "{name}");
            let (forged, _) = bad_conviction_frames(61);
            let mut mangled = fed.witness(0).unwrap().latest_heads()[0].encode();
            *mangled.last_mut().unwrap() ^= 0x55;
            fed.inject(0, &mangled);
            fed.inject(0, &encode_conviction_frame(&forged));
            for _ in 0..3 {
                fed.round();
            }
            let (before, link_before) = (fed.totals(), fed.link_counters());
            assert!(before.undecodable >= 1, "{name}: {before:?}");
            assert!(before.convictions_rejected >= 1, "{name}: {before:?}");
            assert!(before.rejected >= 1, "{name}: {before:?}");
            assert!(
                fed.counters(1).undecodable >= 1,
                "{name}: witness 1 received both"
            );

            fed.kill(1);
            fed.restart(1).unwrap();
            let (after, link_after) = (fed.totals(), fed.link_counters());
            assert_eq!(after, before, "{name}: a restart reports nothing away");
            assert!(
                link_after.frames_sent >= link_before.frames_sent
                    && link_after.frames_received >= link_before.frames_received
                    && link_after.send_failures >= link_before.send_failures
                    && link_after.reconnects >= link_before.reconnects
                    && link_after.injected_faults >= link_before.injected_faults,
                "{name}: {link_before:?} -> {link_after:?}"
            );
            assert!(fed.run_until_converged(12).is_some(), "{name}");
        });
    }
}
