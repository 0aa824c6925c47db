//! Dispute-chaos scenarios (DESIGN.md §3.14): contested audit verdicts
//! fought with recorded traffic, under adversarial evidence and resolver
//! behavior, against the real protocol stack.
//!
//! Every scenario runs genuine pub-sub traffic (middleware + ADLP
//! interceptors + trusted logger) with a forensic [`Recorder`] tapped into
//! the logger, derives a real audit conviction, and then litigates it
//! through the [`DisputeLedger`]:
//!
//! * [`wrongful_conviction`] — the accuser audited a partial view; the
//!   convicted party's recording evidence replays to a sound exoneration
//!   and the verdict is overturned;
//! * [`forged_evidence`] — a genuinely guilty party forges evidence
//!   (tampered bytes, fabricated receipts, curated windows); none of it is
//!   probative and the verdict stands;
//! * [`bribed_resolver`] — a minority resolver votes against its own
//!   evaluation; the deadlocked panel escalates with doubled stakes and
//!   the supermajority settles the dispute correctly;
//! * [`withholding_claimant`] — a claimant who posts no evidence fails
//!   toward the standing verdict;
//! * [`crash_mid_escalation`] — the ledger's storage crashes between
//!   escalation and the deciding votes; a fresh ledger resumes from
//!   durable state and finishes to a verified resolution.

use adlp_audit::{contestable_verdicts, AuditReport, Auditor, ContestedVerdict};
use adlp_core::{AdlpNodeBuilder, BehaviorProfile, LinkRole, LogBehavior, Scheme};
use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::RsaKeyPair;
use adlp_dispute::{
    replay_window, DisputeConfig, DisputeCounters, DisputeLedger, Evidence, Outcome, Phase,
    ReplayContext, ResolutionProof, Resolver, ResolverContext, ResolverKeyring, SignedEvidence,
    Vote,
};
use adlp_logger::frame::encode_frame;
use adlp_logger::recording::Recorder;
use adlp_logger::storage::MemStorage;
use adlp_logger::{Direction, KeyRegistry, LogEntry, LogServer, RecordingWindow, Storage};
use adlp_pubsub::{Master, NodeId, Topic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

const KEY_BITS: usize = 512;
const MESSAGES: usize = 3;

/// What one dispute scenario run leaves behind for assertions.
#[derive(Debug)]
pub struct DisputeRunReport {
    /// The settled outcome.
    pub outcome: Outcome,
    /// Rounds fought (1 = initial panel settled it).
    pub rounds: u32,
    /// Total stake posted across all rounds.
    pub total_staked: u64,
    /// Whether the transferable [`ResolutionProof`] verified under the
    /// resolver keyring.
    pub proof_verifies: bool,
    /// Whether replaying the recording evidence twice produced
    /// byte-identical canonical reports (`true` when no window was in
    /// evidence — nothing to diverge).
    pub replay_deterministic: bool,
    /// Ledger counters at the end of the run.
    pub counters: DisputeCounters,
    /// The resolution proof itself, for transfer to other scenarios.
    pub proof: ResolutionProof,
}

/// A real traffic run with a forensic recording tap on the logger.
struct RecordedRun {
    master: Master,
    server: LogServer,
    recorder: Arc<Recorder>,
}

impl RecordedRun {
    /// Runs camera→detector traffic with the given detector behavior,
    /// recording every deposited entry.
    fn build(seed: u64, detector: BehaviorProfile) -> Self {
        let master = Master::new();
        let server = LogServer::spawn();
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let recorder = Arc::new(Recorder::new(storage, "dispute-recording"));
        server.handle().attach_recorder(Arc::clone(&recorder));

        let mut rng = StdRng::seed_from_u64(seed);
        let cam = AdlpNodeBuilder::new("camera")
            .scheme(Scheme::adlp())
            .key_bits(KEY_BITS)
            .behavior(BehaviorProfile::faithful())
            .build(&master, &server.handle(), &mut rng)
            .expect("camera node");
        let det = AdlpNodeBuilder::new("detector")
            .scheme(Scheme::adlp())
            .key_bits(KEY_BITS)
            .behavior(detector)
            .build(&master, &server.handle(), &mut rng)
            .expect("detector node");

        let publisher = cam.advertise("image").expect("advertise");
        let _sub = det.subscribe("image", |_| {}).expect("subscribe");
        // adlp-lint: allow(sim-determinism) — the ack-wait deadline is a liveness guard measuring physical time; traffic content stays seed-driven
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        for i in 0..MESSAGES {
            while cam.pending_acks() != 0 {
                // adlp-lint: allow(sim-determinism) — liveness timeout check, never a protocol decision
                assert!(std::time::Instant::now() < deadline, "ack wait timed out");
                std::thread::sleep(Duration::from_millis(2));
            }
            let r = publisher.publish(&[i as u8; 32]).expect("publish");
            assert_eq!(r.sent, 1, "publish {i} must reach the subscriber");
        }
        while cam.pending_acks() != 0 {
            // adlp-lint: allow(sim-determinism) — liveness timeout check, never a protocol decision
            assert!(std::time::Instant::now() < deadline, "final ack timed out");
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(30));
        cam.flush().expect("camera flush");
        det.flush().expect("detector flush");

        RecordedRun {
            master,
            server,
            recorder,
        }
    }

    fn faithful(seed: u64) -> Self {
        Self::build(seed, BehaviorProfile::faithful())
    }

    /// Detector hides its receipts from the logger — the Lemma 2 guilty
    /// party.
    fn hiding(seed: u64) -> Self {
        Self::build(
            seed,
            BehaviorProfile::faithful().with_link(
                LinkRole::Subscriber,
                Topic::new("image"),
                LogBehavior::Hide,
            ),
        )
    }

    fn keys(&self) -> KeyRegistry {
        self.server.handle().keys().clone()
    }

    fn replay_ctx(&self) -> ReplayContext {
        ReplayContext::new(self.keys()).with_topology(self.master.topology())
    }

    fn auditor(&self) -> Auditor {
        Auditor::new(self.keys()).with_topology(self.master.topology())
    }

    /// Audits everything the logger actually holds.
    fn full_report(&self) -> AuditReport {
        self.auditor().audit_store(self.server.handle().store())
    }

    /// Audits the view an accuser with an incomplete snapshot would see:
    /// every entry except the detector's receipts.
    fn partial_report_without_receipts(&self) -> AuditReport {
        let entries: Vec<LogEntry> = self
            .server
            .handle()
            .store()
            .entries()
            .into_iter()
            .filter_map(Result::ok)
            .filter(|e| {
                !(e.component == NodeId::new("detector") && e.direction == Direction::In)
            })
            .collect();
        self.auditor().audit(&entries)
    }

    /// The full recorded window, as transferable evidence.
    fn window(&self) -> RecordingWindow {
        self.recorder
            .extract_window(0, self.recorder.epoch())
            .expect("recording window")
    }
}

/// The Hidden conviction against the detector carried by `report`.
fn detector_hidden_claim(report: &AuditReport) -> ContestedVerdict {
    contestable_verdicts(report)
        .into_iter()
        .find(|c| c.convicted() == NodeId::new("detector"))
        .expect("the audit must convict the detector")
}

/// The dispute court: a resolver pool, a claimant with a registered
/// dispute key, and a storage-bound ledger.
struct Court {
    ledger: DisputeLedger,
    resolvers: Vec<Resolver>,
    keyring: ResolverKeyring,
    ctx: ResolverContext,
    claimant: NodeId,
    claimant_key: RsaPrivateKey,
    storage: Arc<MemStorage>,
    parties: KeyRegistry,
    config: DisputeConfig,
}

impl Court {
    fn new(seed: u64, pool: usize, claimant: NodeId, replay: ReplayContext) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15B);
        let claimant_pair = RsaKeyPair::generate(KEY_BITS, &mut rng);
        let parties = KeyRegistry::new();
        parties
            .register(&claimant, claimant_pair.public_key().clone())
            .expect("register claimant");

        let mut resolvers = Vec::with_capacity(pool);
        let mut keyring = ResolverKeyring::new();
        for i in 0..pool {
            let id = NodeId::new(format!("resolver-{i}"));
            let pair = RsaKeyPair::generate(KEY_BITS, &mut rng);
            keyring.insert(id.clone(), pair.public_key().clone());
            resolvers.push(Resolver::new(id, pair.into_private_key()));
        }

        let config = DisputeConfig::default();
        let storage = Arc::new(MemStorage::new());
        let mut ledger = DisputeLedger::new(config)
            .with_parties(parties.clone())
            .with_resolvers(keyring.clone());
        let resumed = ledger
            .bind_storage(Arc::clone(&storage) as Arc<dyn Storage>)
            .expect("bind dispute storage");
        assert!(!resumed, "fresh storage must not resume");

        Court {
            ledger,
            resolvers,
            keyring,
            ctx: ResolverContext::new(replay),
            claimant,
            claimant_key: claimant_pair.into_private_key(),
            storage,
            parties,
            config,
        }
    }

    /// Opens a dispute and posts each piece of evidence under the
    /// claimant's key.
    fn contest(&mut self, claim: ContestedVerdict, evidence: Vec<Evidence>) -> u64 {
        let id = self
            .ledger
            .open(self.claimant.clone(), claim)
            .expect("open dispute");
        for ev in evidence {
            let signed = SignedEvidence::sign(self.claimant.clone(), id, 0, ev, &self.claimant_key)
                .expect("sign evidence");
            self.ledger.submit_evidence(id, signed).expect("evidence");
        }
        id
    }

    fn resolver(&self, id: &NodeId) -> &Resolver {
        self.resolvers
            .iter()
            .find(|r| r.id() == id)
            .expect("panel member must come from the pool")
    }

    /// Casts the current round's outstanding votes. Honest members judge
    /// the evidence; `bribed` members sign the opposite of their own
    /// evaluation. Returns the dispute phase after the last vote.
    fn vote_round(&mut self, id: u64, bribed: &BTreeSet<NodeId>) -> Phase {
        let dispute = self.ledger.dispute(id).expect("dispute").clone();
        let voted: BTreeSet<NodeId> = dispute.votes.iter().map(|v| v.resolver.clone()).collect();
        let mut phase = dispute.phase;
        for (round, member) in &dispute.panel {
            if *round != dispute.round || voted.contains(member) {
                continue;
            }
            let resolver = self.resolver(member);
            let instance = self.config.instance;
            let vote = if bribed.contains(member) {
                let honest =
                    Resolver::evaluate(&dispute.claim, &dispute.evidence, &self.ctx);
                let flipped = match honest {
                    Vote::Uphold => Vote::Overturn,
                    Vote::Overturn => Vote::Uphold,
                };
                resolver
                    .cast(instance, id, *round, flipped, &dispute.claim, &dispute.evidence)
                    .expect("bribed vote")
            } else {
                resolver
                    .judge(instance, id, *round, &dispute.claim, &dispute.evidence, &self.ctx)
                    .expect("honest vote")
            };
            phase = self.ledger.submit_vote(id, vote).expect("vote accepted");
        }
        phase
    }

    /// Convene → vote → (escalate with the claimant's stake → vote)* →
    /// finalize, with `bribed` members misvoting every round they sit in.
    fn litigate(&mut self, id: u64, bribed: &BTreeSet<NodeId>) -> DisputeRunReport {
        self.ledger.convene(id).expect("convene panel");
        let mut phase = self.vote_round(id, bribed);
        while phase != Phase::Finalizing {
            self.ledger
                .escalate(id, self.claimant.clone())
                .expect("escalate deadlocked dispute");
            phase = self.vote_round(id, bribed);
        }
        let proof = self.ledger.finalize(id).expect("finalize");
        self.report(id, proof)
    }

    fn report(&self, id: u64, proof: ResolutionProof) -> DisputeRunReport {
        let dispute = self.ledger.dispute(id).expect("dispute");
        let replay_deterministic = dispute
            .evidence
            .iter()
            .filter_map(|ev| match &ev.evidence {
                Evidence::Recording(w) if w.verify() => Some(w),
                _ => None,
            })
            .all(|w| {
                let once = replay_window(w, &self.ctx.replay);
                let twice = replay_window(w, &self.ctx.replay);
                match (once, twice) {
                    (Ok(a), Ok(b)) => a.canonical_bytes() == b.canonical_bytes(),
                    _ => false,
                }
            });
        DisputeRunReport {
            outcome: proof.outcome,
            rounds: proof.rounds,
            total_staked: dispute.total_staked(),
            proof_verifies: proof.verify(&self.keyring),
            replay_deterministic,
            counters: self.ledger.counters(),
            proof,
        }
    }
}

/// An accuser audited a partial snapshot and convicted an innocent
/// subscriber of hiding its receipt. The subscriber contests with the full
/// recorded window; its sound replay exonerates and the panel overturns
/// unanimously.
pub fn wrongful_conviction(seed: u64) -> DisputeRunReport {
    let run = RecordedRun::faithful(seed);
    let partial = run.partial_report_without_receipts();
    let claim = detector_hidden_claim(&partial);
    // Sanity: the full view never carried this conviction.
    assert!(!claim.supported_by(&run.full_report()));

    let mut court = Court::new(seed, 7, NodeId::new("detector"), run.replay_ctx());
    let id = court.contest(claim, vec![Evidence::Recording(run.window())]);
    court.litigate(id, &BTreeSet::new())
}

/// A genuinely guilty subscriber contests its (correct) conviction with
/// forged evidence: a byte-tampered window, a window padded with a
/// fabricated unsigned receipt, and the true (non-exonerating) recording.
/// Nothing probative exonerates, so the verdict stands.
pub fn forged_evidence(seed: u64) -> DisputeRunReport {
    let run = RecordedRun::hiding(seed);
    let claim = detector_hidden_claim(&run.full_report());
    let truth = run.window();

    // Forgery 1: flip a byte mid-recording — the checksummed framing makes
    // the window fail verification outright.
    let mut tampered = truth.clone();
    let mid = tampered.bytes.len() / 2;
    tampered.bytes[mid] ^= 0x40;

    // Forgery 2: append a fabricated, unsigned "receipt" for the hidden
    // entry. The window verifies, but the replayed auditor rejects the
    // entry (authenticity failure), so it exonerates nothing.
    let ContestedVerdict::Hidden { topic, seq, .. } = &claim else {
        panic!("expected a Hidden conviction");
    };
    let fabricated = LogEntry::naive(
        NodeId::new("detector"),
        topic.clone(),
        Direction::In,
        *seq,
        0,
        vec![0xAB; 32],
    );
    let mut padded = truth.clone();
    padded
        .bytes
        .extend_from_slice(&encode_frame(0, &fabricated.encode()));

    let mut court = Court::new(seed, 7, NodeId::new("detector"), run.replay_ctx());
    let id = court.contest(
        claim,
        vec![
            Evidence::Recording(tampered),
            Evidence::Recording(padded),
            Evidence::Recording(truth),
        ],
    );
    court.litigate(id, &BTreeSet::new())
}

/// A guilty subscriber's dispute where one initial panelist is bribed to
/// vote against its own evaluation: 2–1 deadlock, escalation with a
/// doubled stake, and a 4–1 supermajority upholding the conviction.
pub fn bribed_resolver(seed: u64) -> DisputeRunReport {
    let run = RecordedRun::hiding(seed);
    let claim = detector_hidden_claim(&run.full_report());

    let mut court = Court::new(seed, 7, NodeId::new("detector"), run.replay_ctx());
    let id = court.contest(claim, vec![Evidence::Recording(run.window())]);
    let panel = court.ledger.convene(id).expect("convene panel");
    let bribed: BTreeSet<NodeId> = [panel[0].clone()].into();

    let mut phase = court.vote_round(id, &bribed);
    assert_eq!(phase, Phase::Evaluating, "2–1 must not settle");
    assert_eq!(court.ledger.dispute(id).unwrap().tally(), (2, 1));
    while phase != Phase::Finalizing {
        court
            .ledger
            .escalate(id, NodeId::new("detector"))
            .expect("escalate");
        phase = court.vote_round(id, &bribed);
    }
    let proof = court.ledger.finalize(id).expect("finalize");
    court.report(id, proof)
}

/// A claimant who contests a correct conviction and then withholds all
/// evidence. With nothing probative before it, the panel upholds
/// unanimously in one round.
pub fn withholding_claimant(seed: u64) -> DisputeRunReport {
    let run = RecordedRun::hiding(seed);
    let claim = detector_hidden_claim(&run.full_report());

    let mut court = Court::new(seed, 7, NodeId::new("detector"), run.replay_ctx());
    let id = court.contest(claim, Vec::new());
    court.litigate(id, &BTreeSet::new())
}

/// The bribed-resolver dispute, crashed between escalation and the
/// deciding votes. A fresh ledger bound to the same (crashed) storage must
/// resume the exact durable state — panel, round, stakes — and finish to a
/// verified resolution.
pub fn crash_mid_escalation(seed: u64) -> DisputeRunReport {
    let run = RecordedRun::hiding(seed);
    let claim = detector_hidden_claim(&run.full_report());

    let mut court = Court::new(seed, 7, NodeId::new("detector"), run.replay_ctx());
    let id = court.contest(claim, vec![Evidence::Recording(run.window())]);
    let panel = court.ledger.convene(id).expect("convene panel");
    let bribed: BTreeSet<NodeId> = [panel[0].clone()].into();
    let phase = court.vote_round(id, &bribed);
    assert_eq!(phase, Phase::Evaluating, "2–1 must not settle");
    court
        .ledger
        .escalate(id, NodeId::new("detector"))
        .expect("escalate");
    let before = court.ledger.dispute(id).expect("dispute").clone();

    // Crash: everything un-synced is lost; every acknowledged ledger
    // mutation was write_replace'd, so the escalated state survives.
    court.storage.crash();
    let mut resumed = DisputeLedger::new(court.config)
        .with_parties(court.parties.clone())
        .with_resolvers(court.keyring.clone());
    assert!(
        resumed
            .bind_storage(Arc::clone(&court.storage) as Arc<dyn Storage>)
            .expect("rebind"),
        "the ledger must resume existing durable state"
    );
    let after = resumed.dispute(id).expect("dispute survived").clone();
    assert_eq!(after.round, before.round, "round survives the crash");
    assert_eq!(after.panel, before.panel, "panel survives the crash");
    assert_eq!(after.stakes, before.stakes, "stakes survive the crash");
    assert_eq!(after.votes, before.votes, "votes survive the crash");
    court.ledger = resumed;

    let mut phase = court.vote_round(id, &bribed);
    while phase != Phase::Finalizing {
        court
            .ledger
            .escalate(id, NodeId::new("detector"))
            .expect("escalate");
        phase = court.vote_round(id, &bribed);
    }
    let proof = court.ledger.finalize(id).expect("finalize");
    court.report(id, proof)
}
