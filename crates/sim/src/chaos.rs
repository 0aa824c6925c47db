//! One chaos harness: a [`ChaosPlan`] of faults, one rig, one outcome
//! oracle (DESIGN.md "Chaos plans and the outcome oracle").
//!
//! A plan is data: a seed, the link the witness gossip crosses, the
//! cluster shape, and `(step, fault)` events over one closed [`Fault`]
//! vocabulary. A *step* is a deposit index — runs are entry-driven, and no
//! wall clock enters any decision. Events at step `s` fire, in plan order,
//! before deposit `s`; the stream runs exactly to the last event's step.
//!
//! [`run_chaos`] assembles **one system** for every plan: a synchronous
//! [`chaos_entry`] stream (or, when the plan litigates, a signed
//! camera→detector pair) → a [`ClusterLogClient`] whose every lane can be
//! scripted → a durable [`LoggerCluster`] over one fault-injecting device
//! per replica, with shard recorders → per-shard [`SthPublisher`]s → a
//! witness [`Federation`] over the plan's link → a [`LightClient`] → the
//! [`ClusterAuditor`] → the dispute court ([`crate::dispute`]). The cluster
//! is the spine; the witness layer and the court are built only when the
//! plan's events mention them. With a federation, the witnesses gossip one
//! round after every deposit and the light client audits the newest record.
//!
//! Every run is judged by one oracle, [`judge`]: (1) liveness or counted
//! loss, (2) acked means kept, in order, (3) exactly the expected culprits,
//! (4) nothing durable goes backwards, (5) proofs stand alone. A broken
//! clause comes back as a [`ChaosFailure`] printing the plan, seed, events
//! fired, clause, offending entry or culprit sets, and counter snapshots.

use crate::dispute::{brief, equivocation_brief, Court, Verdict};
use adlp_audit::{Auditor, ClusterAuditReport, ClusterAuditor, ContestedVerdict};
use adlp_cluster::cluster::ReplicaSlot;
use adlp_cluster::epoch::shard_log_id;
use adlp_cluster::{
    slot_sink, BftConfig, ClusterConfig, ClusterLogClient, ClusterView, EpochSeal, HeadAttestation,
    LoggerCluster, ReplicaSink, ReplicaStatus,
};
use adlp_core::{
    AdlpNode, AdlpNodeBuilder, BehaviorProfile, DepositTarget, LinkRole, LogBehavior, Scheme,
};
use adlp_crypto::{sha256, RsaKeyPair, RsaPrivateKey, RsaPublicKey, Statement};
use adlp_dispute::{replay_window, Evidence, Outcome, ReplayContext, ResolverContext};
use adlp_logger::sth::{SthPublisher, TreeHeadSigner};
use adlp_logger::{
    ConflictProof, Direction, FaultyStorage, Keyring, LogEntry, LogError, LogStore, MemStorage,
    Recovery, SignedTreeHead, Storage, StorageFaultConfig, SyncPolicy, Wire,
};
use adlp_pubsub::transport::chaos::ChaosConfig;
use adlp_pubsub::{FaultConfig, Master, NodeId, Publisher, Subscription, Topic};
use adlp_witness::{
    Federation, FederationConfig, InprocLink, LightClient, Link, TcpGossipConfig, TcpLink,
    TreeHeadSource,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The seeds every plan must survive. The only seed list in the repo.
pub const SEEDS: [u64; 4] = [11, 23, 37, 49];

/// A deposit index: events at step `s` fire before deposit `s`.
pub type Step = usize;

const KEY_BITS: usize = 512;
/// Snapshot + WAL rotation threshold of every replica (small, so crashes
/// land on both sides of a rotation).
const ROTATE_EVERY: usize = 16;
/// Catch-up attempts through injected fsync failures: a failed sync still
/// stores the adopted record, so every retry faces a shrinking gap.
const CATCH_UP_RETRIES: usize = 64;
/// Gossip rounds the end of a run may spend reconverging (socket paths
/// first wait out the backoff a partition built).
const SETTLE_ROUNDS: usize = 24;
/// Witness-set fault tolerance: `2f + 1` witnesses, cosign quorum `f + 1`.
const WITNESS_F: usize = 1;

/// What the witness gossip crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosLink {
    /// In-process channels under seeded drop/delay faults.
    Inproc,
    /// Localhost sockets, every path behind a seeded chaos proxy (resets,
    /// byte-boundary splits, delays, reorders, stalls, refused dials).
    Tcp,
}

/// What a traitor replica signs. It *stores* honestly in every script, so
/// content comparison sees nothing; only the attestation layer can catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraitorScript {
    /// Signs a forged head at the true length on every deposit, while its
    /// honest store answers view-time interrogation: two valid signatures
    /// over conflicting heads at one scope.
    Equivocate,
    /// Replays its first genuine attestation for every later deposit: the
    /// stale scope supports nothing, and repeating oneself is no equivocation.
    StaleReplay,
    /// Never attests: indistinguishable from death, costs one vote.
    Silent,
}

/// How a conviction is contested in court.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimScript {
    /// An honest detector, convicted on a partial view, posts the recording.
    Wrongful,
    /// A hiding detector posts tampered, padded and curated recordings.
    Forged,
    /// A hiding detector's first panel seat votes against its own evaluation.
    Bribed,
    /// A hiding detector contests, then posts no evidence at all.
    Withheld,
    /// An equivocating replica contests its conviction; the file holds the
    /// conflict proof the cluster's attestation log assembled.
    Equivocation,
}

/// The closed fault vocabulary. Replicas are `(shard, replica)`, witnesses
/// an index into the `2f + 1` set. With a federation present, replica 0 of
/// each shard serves the shard's tree heads and must stay up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The replica's process dies; its device keeps every byte written.
    Kill(usize, usize),
    /// [`Fault::Kill`] plus a power cut: the device keeps only what was synced.
    PowerCut(usize, usize),
    /// Stops the replica if it is up, restarts it from its device, and
    /// catches it up to the quorum log through whatever its device still
    /// injects. (A wall-clock [`crate::Scenario`] skips the catch-up:
    /// deposits are in flight, so the replica rejoins lagging.)
    Restart(usize, usize),
    /// Every replica device starts tearing appends and failing syncs at
    /// these rates (seeded per device).
    StorageFaults {
        /// Probability an append persists a prefix and reports failure.
        torn: f64,
        /// Probability a sync fails without making bytes durable.
        fsync: f64,
    },
    /// The replica's device refuses every operation from now on.
    DeviceDie(usize, usize),
    /// The device's outage ends (`FaultyStorage::heal`).
    DeviceHeal(usize, usize),
    /// The replica's deposit lane follows a [`TraitorScript`] from now on.
    Traitor(usize, usize, TraitorScript),
    /// The replica signs a second, conflicting root at the length it signed
    /// during the last seal — a split-brain seal shown to some other
    /// audience. Fires before any later deposit, so the replica's latest
    /// signed length is its sealed one.
    ConflictingSeal(usize, usize),
    /// Seals the epoch: signed super-root; the head every live replica
    /// signs during the seal's view is its countersignature.
    Seal,
    /// The shard's log forks: the last `f` witnesses (and, at the end, the
    /// light client) are served a copy that grows in step with the true
    /// log but has one record rewritten, signed with the log's own key.
    ForkLog(usize),
    /// Partitions the witness from peers and clients.
    SeverWitness(usize),
    /// Ends the witness's partition (a no-op on a connected witness).
    HealWitness(usize),
    /// Power-cuts the witness: endpoint down, state truncated to synced.
    KillWitness(usize),
    /// Restarts the witness from its key and its state device.
    RestartWitness(usize),
    /// The witness gossips a head for shard 0's log signed with its own
    /// key, and a mangled copy of it.
    InjectForgedHead(usize),
    /// Files the scripted claim over the traffic recorded so far and fights
    /// round 0, escalating if it deadlocks; the run's end settles the verdict.
    Litigate(ClaimScript),
    /// Power-cuts the dispute ledger; a fresh one resumes from its device.
    CrashLedger,
}

/// The culprits a run must convict — and, as [`ChaosOutcome::convicted`],
/// the ones it did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expect {
    /// Replicas named by a verified equivocation proof or by divergence.
    pub replicas: Vec<(usize, usize)>,
    /// Logs named by a verified split-view proof.
    pub logs: Vec<NodeId>,
    /// The settled outcome of the litigated conviction, if any.
    pub outcome: Option<Outcome>,
}

impl Expect {
    fn sorted(&self) -> Expect {
        let mut e = self.clone();
        e.replicas.sort_unstable();
        e.replicas.dedup();
        e.logs.sort();
        e.logs.dedup();
        e
    }

    /// What `audit` and `verdict` convicted.
    pub fn convicted_by(audit: &ClusterAuditReport, verdict: Option<&Verdict>) -> Expect {
        let diverged = audit.divergences.iter().map(|d| (d.shard, d.replica));
        Expect {
            replicas: audit
                .convicted_replicas()
                .into_iter()
                .chain(diverged)
                .collect(),
            logs: audit.convicted_logs(),
            outcome: verdict.map(|v| v.proof.outcome),
        }
    }
}

impl fmt::Display for Expect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let logs: Vec<&str> = self.logs.iter().map(NodeId::as_str).collect();
        write!(
            f,
            "{{replicas {:?}, logs {logs:?}, outcome {:?}}}",
            self.replicas, self.outcome
        )
    }
}

/// One chaos run, as data.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// The row's name in [`plans`].
    pub name: &'static str,
    /// Seeds every key, device fault stream and link fault stream.
    pub seed: u64,
    /// What the witness gossip crosses (unused without a federation).
    pub link: ChaosLink,
    /// The cluster's shape.
    pub cluster: ClusterConfig,
    /// The faults, each at the deposit index it fires before.
    pub events: Vec<(Step, Fault)>,
    /// Who must end up convicted.
    pub expect: Expect,
}

impl ChaosPlan {
    /// Whether the plan litigates a conviction — the `dispute` rows.
    pub fn litigates(&self) -> bool {
        self.events
            .iter()
            .any(|(_, f)| matches!(f, Fault::Litigate(_)))
    }
}

/// The plan table: every scenario the harness runs. A mode *is* its event
/// list; each row's comment says what it must show beyond the oracle.
pub fn plans(seed: u64, link: ChaosLink) -> Vec<ChaosPlan> {
    use Fault::*;
    let row = |name, cluster, events, expect| ChaosPlan {
        name,
        seed,
        link,
        cluster,
        events,
        expect,
    };
    let clean = Expect::default;
    let replica = |s, r| Expect {
        replicas: vec![(s, r)],
        ..Expect::default()
    };
    let log = |s| Expect {
        logs: vec![shard_log_id(s)],
        ..Expect::default()
    };
    let settled = |o| Expect {
        outcome: Some(o),
        ..Expect::default()
    };
    let single = || ClusterConfig::new(1);
    let quorum = || ClusterConfig::replicated(1);
    let bft = || ClusterConfig::new(1).with_bft(BftConfig::new(1).with_seed(seed));
    let fsync = (
        0,
        StorageFaults {
            torn: 0.0,
            fsync: 0.05,
        },
    );
    // f witnesses severed: still quorate. One more: audits degrade, counted.
    let partition = [
        (2, SeverWitness(0)),
        (3, SeverWitness(1)),
        (6, HealWitness(0)),
        (6, HealWitness(1)),
        (8, Seal),
    ];
    // A power cut + recovery every 13 deposits, and once more at the end.
    let crash_loop = (1..=5).flat_map(|k| {
        let at = (13 * k).min(60);
        [(at, PowerCut(0, 0)), (at, Restart(0, 0))]
    });
    vec![
        // -- storage: one durable logger under the full device fault menu.
        // Torn tails are truncated and counted; faults must actually fire.
        row(
            "single_logger_crash",
            single(),
            [(
                0,
                StorageFaults {
                    torn: 0.06,
                    fsync: 0.08,
                },
            )]
            .into_iter()
            .chain(crash_loop)
            .collect(),
            clean(),
        ),
        // A replica power-cut mid-stream rejoins lagging and catches up.
        // (No torn writes: a torn append refuses an entry on one replica
        // only, which is real order divergence, correctly reported.)
        row(
            "cluster_crash",
            quorum(),
            vec![fsync, (13, PowerCut(0, 2)), (29, Restart(0, 2)), (40, Seal)],
            clean(),
        ),
        // The control tamper attribution is compared against.
        row(
            "cluster_crash_free",
            quorum(),
            vec![fsync, (40, Seal)],
            clean(),
        ),
        // -- cluster: one replica of a 3f+1 shard lies rather than dies.
        row("honest", bft(), vec![(24, Seal)], clean()),
        row(
            "equivocate",
            bft(),
            vec![(0, Traitor(0, 2, TraitorScript::Equivocate)), (24, Seal)],
            replica(0, 2),
        ),
        row(
            "stale_replay",
            bft(),
            vec![(0, Traitor(0, 2, TraitorScript::StaleReplay)), (24, Seal)],
            clean(),
        ),
        row(
            "conflicting_seal",
            bft(),
            vec![(24, Seal), (24, ConflictingSeal(0, 2))],
            replica(0, 2),
        ),
        row(
            "silent",
            bft(),
            vec![(0, Traitor(0, 2, TraitorScript::Silent)), (24, Seal)],
            clean(),
        ),
        // -- witness: the accountability layer under link chaos. The
        // control heals, mid-gossip, a witness nobody severed: a no-op.
        row(
            "witness_honest",
            single(),
            vec![(4, HealWitness(0)), (8, Seal)],
            clean(),
        ),
        row(
            "split_view_logger",
            single(),
            vec![(1, ForkLog(0)), (8, Seal)],
            log(0),
        ),
        row(
            "forged_witness_gossip",
            single(),
            (1..=6)
                .map(|s| (s, InjectForgedHead(2)))
                .chain([(8, Seal)])
                .collect(),
            clean(),
        ),
        row(
            "partitioned_witnesses",
            single(),
            partition.to_vec(),
            clean(),
        ),
        // One restart to reconverge around, then the temptation: while the
        // witness is dark again the log rewrites a record under the head it
        // durably holds. Resumed, it must refuse the fork and convict; one
        // that forgot its state would anchor and cosign on the fork.
        row(
            "restarting_witness",
            single(),
            vec![
                (2, KillWitness(2)),
                (4, RestartWitness(2)),
                (6, KillWitness(2)),
                (6, ForkLog(0)),
                (8, RestartWitness(2)),
                (10, Seal),
            ],
            log(0),
        ),
        // Convicted by a federation too small to cosign; the severed
        // witness learns the conviction from gossip after the heal.
        row(
            "split_view_during_partition",
            single(),
            vec![
                (0, SeverWitness(0)),
                (0, ForkLog(0)),
                (5, HealWitness(0)),
                (8, Seal),
            ],
            log(0),
        ),
        // -- dispute: a conviction litigated over the run's own traffic.
        row(
            "wrongful_conviction",
            single(),
            vec![(3, Litigate(ClaimScript::Wrongful))],
            settled(Outcome::Overturned),
        ),
        row(
            "forged_evidence",
            single(),
            vec![(3, Litigate(ClaimScript::Forged))],
            settled(Outcome::Upheld),
        ),
        row(
            "bribed_resolver",
            single(),
            vec![(3, Litigate(ClaimScript::Bribed))],
            settled(Outcome::Upheld),
        ),
        row(
            "withholding_claimant",
            single(),
            vec![(3, Litigate(ClaimScript::Withheld))],
            settled(Outcome::Upheld),
        ),
        row(
            "crash_mid_escalation",
            single(),
            vec![(3, Litigate(ClaimScript::Bribed)), (3, CrashLedger)],
            settled(Outcome::Upheld),
        ),
        // The traitor contests; the panel upholds from the conflict proof.
        row(
            "equivocation_litigated",
            bft(),
            vec![
                (0, Traitor(0, 2, TraitorScript::Equivocate)),
                (8, Litigate(ClaimScript::Equivocation)),
            ],
            Expect {
                outcome: Some(Outcome::Upheld),
                ..replica(0, 2)
            },
        ),
        // -- composed: two layers degraded at once.
        row(
            "equivocator_during_witness_partition",
            bft(),
            [(0, Traitor(0, 2, TraitorScript::Equivocate))]
                .into_iter()
                .chain(partition)
                .collect(),
            replica(0, 2),
        ),
        row(
            "power_cut_while_split_view_is_gossiped",
            quorum(),
            vec![
                fsync,
                (1, ForkLog(0)),
                (3, PowerCut(0, 1)),
                (6, Restart(0, 1)),
                (8, Seal),
            ],
            log(0),
        ),
        row(
            "catch_up_across_a_seal",
            bft(),
            vec![(3, Kill(0, 3)), (6, Seal), (9, Restart(0, 3)), (12, Seal)],
            clean(),
        ),
        row(
            "device_dies_then_heals",
            quorum(),
            vec![
                (4, DeviceDie(0, 1)),
                (8, DeviceHeal(0, 1)),
                (8, Restart(0, 1)),
                (12, Seal),
            ],
            clean(),
        ),
    ]
}

/// The row of [`plans`] called `name`.
///
/// # Panics
///
/// Panics when the table has no such row.
pub fn plan(name: &str, seed: u64, link: ChaosLink) -> ChaosPlan {
    let row = plans(seed, link).into_iter().find(|p| p.name == name);
    row.unwrap_or_else(|| panic!("no chaos plan row `{name}`"))
}

/// Topic → publisher of the synchronous stream.
fn stream_topology() -> Vec<(Topic, NodeId)> {
    vec![(Topic::new("image"), NodeId::new("cam"))]
}

/// Deterministic entry `i` of the synchronous chaos stream: one publisher,
/// one topic, so the whole stream exercises one shard's ordered fan-out.
pub fn chaos_entry(i: usize) -> LogEntry {
    LogEntry::naive(
        NodeId::new("cam"),
        Topic::new("image"),
        Direction::Out,
        i as u64,
        1_000 + i as u64,
        vec![i as u8; 48],
    )
}

/// Every counter the system reports, plus the trust-on-first-use anchors
/// of every witness — what clause (4) compares across events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter name → value; none may ever decrease.
    pub counters: BTreeMap<String, u64>,
    /// `witness/log` → encoded anchor head; once set, never changes.
    pub anchors: BTreeMap<String, Vec<u8>>,
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        write!(
            f,
            "{} | anchors: {:?}",
            counters.join(" "),
            self.anchors.keys()
        )
    }
}

/// One broken oracle clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breach {
    /// Which clause (1–5) broke.
    pub clause: u8,
    /// The offending entry, culprit sets or counter.
    pub detail: String,
}

impl Breach {
    fn new(clause: u8, detail: String) -> Breach {
        Breach { clause, detail }
    }
}

impl fmt::Display for Breach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle clause ({}) broke: {}", self.clause, self.detail)
    }
}

/// Where a run is, or was when it failed.
#[derive(Debug, Clone)]
pub struct Trail {
    /// The plan's name.
    pub plan: &'static str,
    /// Its seed.
    pub seed: u64,
    /// Its link.
    pub link: ChaosLink,
    /// The events fired so far, in order.
    pub fired: Vec<Fired>,
}

/// One fired event, with the counters right before and right after it.
#[derive(Debug, Clone)]
pub struct Fired {
    /// The deposit index it fired before.
    pub step: Step,
    /// What fired.
    pub fault: Fault,
    /// Every counter just before.
    pub before: Snapshot,
    /// Every counter just after.
    pub after: Snapshot,
}

impl Trail {
    fn of(plan: &ChaosPlan) -> Trail {
        Trail {
            plan: plan.name,
            seed: plan.seed,
            link: plan.link,
            fired: Vec::new(),
        }
    }
}

/// Why [`run_chaos`] did not return an outcome.
#[derive(Debug, Clone)]
pub enum ChaosFailure {
    /// The rig itself failed — setup, a timeout, an event the plan's
    /// system cannot take. Not a verdict on the system under test.
    Harness(Box<Trail>, String),
    /// The run reached a state the oracle rejects.
    Oracle(Box<Trail>, Breach),
}

impl fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (trail, what) = match self {
            ChaosFailure::Harness(trail, why) => (trail, format!("harness failure: {why}")),
            ChaosFailure::Oracle(trail, breach) => (trail, breach.to_string()),
        };
        writeln!(
            f,
            "chaos plan `{}` seed {} link {:?}: {what}",
            trail.plan, trail.seed, trail.link
        )?;
        for fired in &trail.fired {
            writeln!(
                f,
                "  fired before deposit {}: {:?}",
                fired.step, fired.fault
            )?;
        }
        match trail.fired.last() {
            Some(last) => write!(
                f,
                "  before it: {}\n  after it:  {}",
                last.before, last.after
            ),
            None => Ok(()),
        }
    }
}

impl std::error::Error for ChaosFailure {}

/// Why the rig stopped before the end of its plan.
enum Stop {
    Harness(String),
    Oracle(Breach),
}

impl Stop {
    fn at(self, trail: Trail) -> ChaosFailure {
        match self {
            Stop::Harness(why) => ChaosFailure::Harness(Box::new(trail), why),
            Stop::Oracle(breach) => ChaosFailure::Oracle(Box::new(trail), breach),
        }
    }
}

impl From<Breach> for Stop {
    fn from(breach: Breach) -> Stop {
        Stop::Oracle(breach)
    }
}

fn bad(why: impl Into<String>) -> Stop {
    Stop::Harness(why.into())
}

fn harness(what: &'static str) -> impl Fn(LogError) -> Stop {
    move |e| bad(format!("{what}: {e}"))
}

/// One replica's storage: a power-cuttable memory device behind a
/// fault injector the plan can swap (new rates, death) or heal.
#[derive(Debug)]
struct Device {
    mem: Arc<MemStorage>,
    faulty: Mutex<Arc<FaultyStorage>>,
}

impl Device {
    fn new() -> Arc<Device> {
        let mem = Arc::new(MemStorage::new());
        let faulty = Mutex::new(Device::injector(&mem, StorageFaultConfig::none(0)));
        Arc::new(Device { mem, faulty })
    }

    fn injector(mem: &Arc<MemStorage>, config: StorageFaultConfig) -> Arc<FaultyStorage> {
        Arc::new(FaultyStorage::new(
            Arc::clone(mem) as Arc<dyn Storage>,
            config,
        ))
    }

    fn install(&self, config: StorageFaultConfig) {
        *self.faulty.lock() = Device::injector(&self.mem, config);
    }

    fn current(&self) -> Arc<FaultyStorage> {
        Arc::clone(&self.faulty.lock())
    }
}

impl Storage for Device {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, LogError> {
        self.current().read(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), LogError> {
        self.current().append(name, bytes)
    }
    fn sync(&self, name: &str) -> Result<(), LogError> {
        self.current().sync(name)
    }
    fn truncate(&self, name: &str, len: u64) -> Result<(), LogError> {
        self.current().truncate(name, len)
    }
    fn write_replace(&self, name: &str, bytes: &[u8]) -> Result<(), LogError> {
        self.current().write_replace(name, bytes)
    }
    fn remove(&self, name: &str) -> Result<(), LogError> {
        self.current().remove(name)
    }
    fn size_of(&self, name: &str) -> Result<Option<u64>, LogError> {
        self.current().size_of(name)
    }
}

type Scripts = Arc<Mutex<BTreeMap<(usize, usize), TraitorScript>>>;

/// One replica's deposit lane: the cluster's own honest lane until the
/// plan scripts it.
#[derive(Debug)]
struct Lane {
    honest: Box<dyn ReplicaSink>,
    slot: Arc<ReplicaSlot>,
    scripts: Scripts,
    /// `StaleReplay`: the first genuine attestation, replayed forever.
    replay: Mutex<Option<HeadAttestation>>,
}

impl ReplicaSink for Lane {
    fn deposit(&self, entry: &LogEntry) -> bool {
        self.honest.deposit(entry)
    }

    fn deposit_durable(&self, entry: &LogEntry) -> bool {
        self.honest.deposit_durable(entry)
    }

    fn flush_replica(&self) -> bool {
        self.honest.flush_replica()
    }

    fn deposit_attested(&self, entry: &LogEntry, durable: bool) -> Option<HeadAttestation> {
        let Some(script) = self
            .scripts
            .lock()
            .get(&(self.slot.shard(), self.slot.index()))
            .copied()
        else {
            return self.honest.deposit_attested(entry, durable);
        };
        let took = if durable {
            self.deposit_durable(entry)
        } else {
            self.deposit(entry)
        };
        if !took || !self.flush_replica() {
            return None;
        }
        match script {
            TraitorScript::Silent => None,
            TraitorScript::Equivocate => {
                // The *true* length with a *forged* head: the claim stays
                // length-compatible with the honest group, so the conflict
                // is attributable, not just noise.
                let length = self.slot.handle().store().len() as u64;
                let mut preimage = b"equivocated head #".to_vec();
                preimage.extend_from_slice(&length.to_le_bytes());
                let attestor = self.slot.attestor()?;
                attestor.attest(length, sha256(&preimage)).ok()
            }
            TraitorScript::StaleReplay => {
                let mut replay = self.replay.lock();
                if replay.is_none() {
                    *replay = self.slot.attest_head().ok().flatten();
                }
                replay.clone()
            }
        }
    }
}

/// One shard's tree-head endpoints: the true one over replica 0's store,
/// and the one the last `f` witnesses are shown — a mirror that, once the
/// plan forks it, commits to a history differing in one record: same
/// length, same signing key, another root — the lie only split-view
/// detection can catch.
struct ShardHead {
    store: LogStore,
    honest: Arc<SthPublisher>,
    mirror: LogStore,
    shown: Arc<SthPublisher>,
    forked_at: Option<usize>,
}

const FORGED_RECORD: [u8; 4] = [0xF0, 0x0D, 0xF0, 0x0D];

impl ShardHead {
    /// Brings the mirror level with the true log.
    fn sync(&self) {
        for (i, record) in self
            .store
            .encoded_records()
            .into_iter()
            .enumerate()
            .skip(self.mirror.len())
        {
            let forged = self.forked_at == Some(i);
            self.mirror.append_encoded(if forged {
                FORGED_RECORD.to_vec()
            } else {
                record
            });
        }
    }

    /// Re-commits the history the minority is shown with its middle record
    /// rewritten (the first record to come, on an empty log): the mirror
    /// rolls back to it and [`ShardHead::sync`] re-appends the forgery.
    fn fork(&mut self) -> Result<(), Stop> {
        let at = self.mirror.len() / 2;
        self.forked_at = Some(at);
        self.mirror.rollback_to(at).map_err(harness("fork"))?;
        self.sync();
        Ok(())
    }
}

/// The accountability layer: tree heads, witnesses, a light client.
struct Witnesses {
    fed: Federation,
    light: LightClient,
    sth_keys: Keyring<NodeId>,
    heads: Vec<ShardHead>,
    /// Light audits attempted; each must end verified or counted failed.
    audits: u64,
    last_converged: Option<Step>,
}

impl Witnesses {
    fn build(plan: &ChaosPlan, cluster: &LoggerCluster) -> Result<Witnesses, Stop> {
        let mut sth_keys = Keyring::new();
        let mut heads = Vec::new();
        for shard in 0..cluster.shard_count() {
            let mut rng = StdRng::seed_from_u64(plan.seed ^ 0x71_7E55 ^ ((shard as u64) << 32));
            let key = RsaKeyPair::generate(KEY_BITS, &mut rng);
            let log = shard_log_id(shard);
            sth_keys.insert(log.clone(), key.public_key().clone());
            let slot = cluster
                .replica(shard, 0)
                .ok_or_else(|| bad("shard without replica 0"))?;
            let (store, mirror) = (slot.handle().store().clone(), LogStore::new());
            let publisher = |store: &LogStore| -> Result<Arc<SthPublisher>, Stop> {
                let copy = RsaPrivateKey::from_bytes(&key.private_key().to_bytes())
                    .map_err(|_| bad("sth key copy"))?;
                Ok(Arc::new(SthPublisher::new(
                    TreeHeadSigner::new(log.clone(), copy),
                    store.clone(),
                )))
            };
            let (honest, shown) = (publisher(&store)?, publisher(&mirror)?);
            heads.push(ShardHead {
                store,
                honest,
                mirror,
                shown,
                forked_at: None,
            });
        }
        let config = FederationConfig::new(WITNESS_F).with_seed(plan.seed);
        let n = config.witnesses();
        let sources = (0..n)
            .map(|w| {
                let served = |h: &ShardHead| {
                    Arc::clone(if w >= n - WITNESS_F {
                        &h.shown
                    } else {
                        &h.honest
                    })
                };
                heads
                    .iter()
                    .map(|h| served(h) as Arc<dyn TreeHeadSource>)
                    .collect()
            })
            .collect();
        // The full fault menu, at rates where every fault class fires
        // across a run while round-based re-broadcast still converges.
        let link: Box<dyn Link> = match plan.link {
            ChaosLink::Inproc => {
                let faults = FaultConfig::seeded(plan.seed).with_drop_rate(0.15);
                Box::new(InprocLink::new(
                    n,
                    faults.with_delay(0.2, Duration::from_millis(5)),
                ))
            }
            ChaosLink::Tcp => {
                let chaos = ChaosConfig::seeded(plan.seed ^ 0xC_4A05)
                    .with_reset_rate(0.03)
                    .with_split_rate(0.35)
                    .with_delay(0.10, Duration::from_millis(3))
                    .with_reorder_rate(0.05)
                    .with_stall(0.02, Duration::from_millis(8))
                    .with_connect_reset_rate(0.05);
                let link = TcpLink::spawn(n, TcpGossipConfig::default(), chaos);
                Box::new(link.map_err(|e| bad(format!("witness link: {e}")))?)
            }
        };
        let fed = Federation::new(config, link, sth_keys.clone(), sources)
            .map_err(harness("federation"))?;
        let light = LightClient::new(sth_keys.clone());
        Ok(Witnesses {
            fed,
            light,
            sth_keys,
            heads,
            audits: 0,
            last_converged: None,
        })
    }

    /// The federation, once `w` is known to be one of its witnesses.
    fn known(&mut self, w: usize) -> Result<&mut Federation, Stop> {
        match w < self.fed.config().witnesses() {
            true => Ok(&mut self.fed),
            false => Err(bad(format!("no witness {w}"))),
        }
    }

    /// One gossip round, then a witnessed light audit of the newest record
    /// of every shard: quorum-backed while `f + 1` reachable witnesses
    /// cosign, counted as degraded (never silently trusted) while not.
    fn round(&mut self, step: Step) {
        self.heads.iter().for_each(ShardHead::sync);
        self.fed.round();
        if self.fed.converged() {
            self.last_converged = Some(step);
        }
        for head in self.heads.iter().filter(|h| !h.store.is_empty()) {
            let witnessed = self.fed.witnessed(head.honest.log());
            let quorum = self.fed.config().witness_quorum();
            let newest = head.store.len() as u64 - 1;
            // The verdict lands in the client's counters, which clause (1)
            // balances against `audits`.
            self.audits += 1;
            self.light
                .audit_ack_witnessed(
                    head.honest.as_ref(),
                    newest,
                    witnessed.as_ref(),
                    self.fed.keyring(),
                    quorum,
                )
                .ok();
        }
    }

    /// The end of the run: reconverge — or, under a fork, which never
    /// reconciles, spread every conviction to every witness — then show the
    /// light client the fork it must refuse, having trusted the truth.
    fn settle(&mut self, step: Step) {
        let forked = self.heads.iter().any(|h| h.forked_at.is_some());
        let n = self.fed.config().witnesses();
        for _ in 0..SETTLE_ROUNDS {
            self.round(step);
            let known = self.fed.proofs().len();
            let spread = (0..n).all(|w| {
                self.fed
                    .witness(w)
                    .is_some_and(|w| w.proofs().len() == known)
            });
            if spread && (forked || self.fed.converged()) {
                break;
            }
        }
        for head in self
            .heads
            .iter()
            .filter(|h| h.forked_at.is_some() && !h.mirror.is_empty())
        {
            self.audits += 1;
            self.light
                .audit_ack(head.shown.as_ref(), head.mirror.len() as u64 - 1)
                .ok();
        }
    }

    /// Every conviction assembled by gossip or by the light client (the
    /// auditor deduplicates per log and size).
    fn proofs(&self) -> Vec<ConflictProof<SignedTreeHead>> {
        self.fed
            .proofs()
            .into_iter()
            .chain(self.light.evidence())
            .collect()
    }
}

/// The litigating plans' deposit stream: a signed camera→detector pair.
struct Nodes {
    master: Master,
    cam: AdlpNode,
    det: AdlpNode,
    publisher: Publisher,
    _subscription: Subscription,
}

impl Nodes {
    fn build(seed: u64, client: &Arc<ClusterLogClient>, hiding: bool) -> Result<Nodes, Stop> {
        let master = Master::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let faithful = BehaviorProfile::faithful;
        let detector = match hiding {
            // Lemma 2's guilty party: receipts never reach the loggers.
            true => {
                faithful().with_link(LinkRole::Subscriber, Topic::new("image"), LogBehavior::Hide)
            }
            false => faithful(),
        };
        let mut node = |id: &str, behavior| {
            AdlpNodeBuilder::new(id)
                .scheme(Scheme::adlp())
                .key_bits(KEY_BITS)
                .behavior(behavior)
                .build_with_target(
                    &master,
                    DepositTarget::Cluster(Arc::clone(client)),
                    &mut rng,
                )
                .map_err(|e| bad(format!("node {id}: {e}")))
        };
        let (cam, det) = (node("camera", faithful())?, node("detector", detector)?);
        let publisher = cam
            .advertise("image")
            .map_err(|e| bad(format!("advertise: {e}")))?;
        let _subscription = det
            .subscribe("image", |_| {})
            .map_err(|e| bad(format!("subscribe: {e}")))?;
        Ok(Nodes {
            master,
            cam,
            det,
            publisher,
            _subscription,
        })
    }

    /// Waits — bounded in iterations, no clock read — until every
    /// publication so far is acknowledged.
    fn acked(&self) -> Result<(), Stop> {
        for _ in 0..5_000 {
            if self.cam.pending_acks() == 0 {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(bad("acknowledgement wait timed out"))
    }

    fn publish(&self, i: usize) -> Result<(), Stop> {
        self.acked()?;
        let report = self
            .publisher
            .publish(&[i as u8; 32])
            .map_err(|e| bad(format!("publish {i}: {e}")))?;
        match report.sent {
            1 => Ok(()),
            sent => Err(bad(format!("publish {i} reached {sent} subscribers"))),
        }
    }

    /// Everything published is acknowledged, logged and deposited.
    fn quiesce(&self) -> Result<(), Stop> {
        self.acked()?;
        self.cam
            .flush()
            .map_err(|e| bad(format!("camera flush: {e}")))?;
        self.det
            .flush()
            .map_err(|e| bad(format!("detector flush: {e}")))
    }
}

fn device_faults(
    seed: u64,
    shard: usize,
    replica: usize,
    torn: f64,
    fsync: f64,
) -> StorageFaultConfig {
    StorageFaultConfig {
        seed: seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((shard * 16 + replica) as u64),
        torn_write_rate: torn,
        fsync_failure_rate: fsync,
        ..StorageFaultConfig::none(0)
    }
}

/// `count!(snap, "layer", from => a, b)`: records `from.a`, `from.b` in
/// `snap` as the counters `layer.a`, `layer.b`.
macro_rules! count {
    ($snap:ident, $layer:literal, $from:ident => $($field:ident),*) => {
        $($snap.counters.insert(concat!($layer, ".", stringify!($field)).to_owned(), $from.$field);)*
    };
}

/// The assembled system, mid-run.
struct Rig<'p> {
    plan: &'p ChaosPlan,
    devices: Vec<Vec<Arc<Device>>>,
    cluster: LoggerCluster,
    client: Arc<ClusterLogClient>,
    scripts: Scripts,
    sealing: RsaKeyPair,
    witnesses: Option<Witnesses>,
    nodes: Option<Nodes>,
    court: Option<Court>,
    run: Run,
    trail: Trail,
}

impl<'p> Rig<'p> {
    /// Assembles the system `plan` needs: the cluster always, the witness
    /// layer and the node traffic only when some event mentions them.
    fn build(plan: &'p ChaosPlan) -> Result<Rig<'p>, Stop> {
        use Fault::*;
        let mentions = |f: fn(&Fault) -> bool| plan.events.iter().any(|(_, fault)| f(fault));
        let shape = &plan.cluster;
        let devices: Vec<Vec<Arc<Device>>> = (0..shape.shards)
            .map(|_| (0..shape.replicas).map(|_| Device::new()).collect())
            .collect();
        let storages = devices
            .iter()
            .map(|row| {
                row.iter()
                    .map(|d| Arc::clone(d) as Arc<dyn Storage>)
                    .collect()
            })
            .collect();
        let cluster = LoggerCluster::spawn_durable(
            shape.clone(),
            storages,
            SyncPolicy::EveryAppend,
            ROTATE_EVERY,
        )
        .map_err(harness("spawn cluster"))?;
        let recordings = (0..shape.shards)
            .map(|_| Arc::new(MemStorage::new()) as Arc<dyn Storage>)
            .collect();
        cluster
            .attach_shard_recorders(recordings)
            .map_err(harness("attach recorders"))?;

        let scripts: Scripts = Arc::new(Mutex::default());
        let lane = |slot: &Arc<ReplicaSlot>| {
            let (honest, slot, scripts) = (
                slot_sink(Arc::clone(slot)),
                Arc::clone(slot),
                Arc::clone(&scripts),
            );
            Box::new(Lane {
                honest,
                slot,
                scripts,
                replay: Mutex::new(None),
            }) as Box<dyn ReplicaSink>
        };
        let lanes = (0..cluster.shard_count())
            .map(|shard| cluster.shard_replicas(shard).iter().map(lane).collect())
            .collect();
        let (keys, stats) = (cluster.keys().clone(), cluster.stats().clone());
        let mut client = ClusterLogClient::from_sinks_with_stats(shape.clone(), keys, lanes, stats);
        if let Some(ledger) = cluster.attestations() {
            client = client.with_attestations(ledger.clone());
        }
        let client = Arc::new(client);

        let gossips = mentions(|f| {
            matches!(
                f,
                ForkLog(_) | SeverWitness(_) | HealWitness(_) | KillWitness(_) | RestartWitness(_)
            ) || matches!(f, InjectForgedHead(_))
        });
        let witnesses = gossips
            .then(|| Witnesses::build(plan, &cluster))
            .transpose()?;
        // The detector hides its receipts unless its conviction is wrongful.
        let hiding = !mentions(|f| matches!(f, Litigate(ClaimScript::Wrongful)));
        // Recorded traffic is what a Lemma 2 claim is fought over.
        let litigates = mentions(|f| matches!(f, Litigate(s) if *s != ClaimScript::Equivocation));
        let nodes = litigates
            .then(|| Nodes::build(plan.seed, &client, hiding))
            .transpose()?;
        let run = Run {
            deposits: plan.events.iter().map(|(step, _)| *step).max().unwrap_or(0),
            node_traffic: nodes.is_some(),
            acked: vec![Vec::new(); cluster.shard_count()],
            ..Run::default()
        };
        let sealing = RsaKeyPair::generate(KEY_BITS, &mut StdRng::seed_from_u64(plan.seed));
        let trail = Trail::of(plan);
        Ok(Rig {
            plan,
            devices,
            cluster,
            client,
            scripts,
            sealing,
            witnesses,
            nodes,
            court: None,
            run,
            trail,
        })
    }

    fn device(&self, shard: usize, replica: usize) -> Result<&Arc<Device>, Stop> {
        let device = self.devices.get(shard).and_then(|row| row.get(replica));
        device.ok_or_else(|| bad(format!("no replica ({shard}, {replica})")))
    }

    fn witnesses(&mut self) -> Result<&mut Witnesses, Stop> {
        self.witnesses
            .as_mut()
            .ok_or_else(|| bad("the plan built no federation"))
    }

    /// Every counter the system reports, read now.
    fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let stats = self.cluster.stats().snapshot();
        count!(snap, "cluster", stats => submitted, acked, entries_lost, failovers, attestations_verified,
            attestations_rejected, equivocations_detected, fsync_failures, wal_append_failures, records_truncated);
        if let Some(w) = &self.witnesses {
            let (link, gossip) = (w.fed.link_counters(), w.fed.totals());
            count!(snap, "link", link => frames_sent, frames_received, send_failures, reconnects, injected_faults);
            count!(snap, "gossip", gossip => rejected, undecodable, convictions_sent, convictions_ingested,
                convictions_rejected);
            let mut light =
                |name: &str, value| snap.counters.insert(format!("light.{name}"), value);
            light("audits", w.audits);
            light("verified_acks", w.light.verified_acks());
            light("sth_verify_failures", w.light.sth_verify_failures());
            light(
                "cosign_quorum_unavailable",
                w.light.cosign_quorum_unavailable(),
            );
            light("quorum_recoveries", w.light.quorum_recoveries());
            for (i, anchors) in w.fed.anchors() {
                snap.counters
                    .insert(format!("witness{i}.restarts"), w.fed.restarts(i));
                for (log, anchor) in anchors {
                    let high = w
                        .fed
                        .witness(i)
                        .map_or(0, |witness| witness.cosign_high_water(&log));
                    snap.counters
                        .insert(format!("witness{i}.cosign_high_water/{log}"), high);
                    snap.anchors
                        .insert(format!("witness{i}/{log}"), anchor.encode());
                }
            }
        }
        if let Some(dispute) = self.court.as_ref().map(Court::counters) {
            count!(snap, "dispute", dispute => opened, evidence_accepted, evidence_rejected, votes_accepted,
                votes_rejected, escalations, finalized);
        }
        snap
    }

    fn apply(&mut self, fault: Fault) -> Result<(), Stop> {
        match fault {
            Fault::Kill(s, 0) | Fault::PowerCut(s, 0) | Fault::Restart(s, 0)
                if self.witnesses.is_some() =>
            {
                return Err(bad(format!(
                    "replica ({s}, 0) serves shard {s}'s tree heads and must stay up"
                )));
            }
            Fault::Kill(s, r) => {
                self.device(s, r)?;
                self.cluster.kill_replica(s, r);
            }
            Fault::PowerCut(s, r) => {
                let device = Arc::clone(self.device(s, r)?);
                self.cluster.kill_replica(s, r);
                device.mem.crash();
            }
            Fault::Restart(s, r) => self.restart(s, r)?,
            Fault::StorageFaults { torn, fsync } => {
                for (s, row) in self.devices.iter().enumerate() {
                    for (r, device) in row.iter().enumerate() {
                        device.install(device_faults(self.plan.seed, s, r, torn, fsync));
                    }
                }
            }
            Fault::DeviceDie(s, r) => {
                let dead = StorageFaultConfig {
                    die_after_ops: Some(0),
                    ..StorageFaultConfig::none(0)
                };
                self.device(s, r)?.install(dead);
            }
            Fault::DeviceHeal(s, r) => self.device(s, r)?.current().heal(),
            Fault::Traitor(s, r, script) => {
                self.device(s, r)?;
                self.scripts.lock().insert((s, r), script);
            }
            Fault::Seal => {
                let seal = self
                    .cluster
                    .seal_epoch(self.sealing.private_key())
                    .map_err(harness("seal"))?;
                self.run.seals.push(seal);
            }
            Fault::ConflictingSeal(s, r) => {
                if self.run.seals.is_empty() {
                    return Err(bad("ConflictingSeal before any Seal"));
                }
                let attestor = self.cluster.replica(s, r).and_then(|slot| slot.attestor());
                let (Some(attestor), Some(ledger)) = (attestor, self.cluster.attestations()) else {
                    return Err(bad("ConflictingSeal needs a replica of a BFT cluster"));
                };
                // Feeding the second statement back through the shared
                // ledger models its audience forwarding the evidence.
                let forged = attestor
                    .attest(
                        attestor.state().signed_len,
                        sha256(b"split-brain epoch root"),
                    )
                    .map_err(harness("conflicting seal"))?;
                self.cluster
                    .stats()
                    .note_observation(&ledger.observe(forged));
            }
            Fault::ForkLog(s) => {
                let head = self
                    .witnesses()?
                    .heads
                    .get_mut(s)
                    .ok_or_else(|| bad("no such shard to fork"))?;
                head.fork()?;
            }
            Fault::SeverWitness(w) => self.witnesses()?.known(w)?.sever(w),
            Fault::HealWitness(w) => self.witnesses()?.known(w)?.heal(w),
            Fault::KillWitness(w) => self.witnesses()?.known(w)?.kill(w),
            Fault::RestartWitness(w) => {
                self.witnesses()?
                    .known(w)?
                    .restart(w)
                    .map_err(harness("restart witness"))?;
            }
            Fault::InjectForgedHead(w) => {
                // An imposter key, NOT the log's: the forged head must die
                // at every receiver's signature check, and its mangled
                // copy at the framing check.
                let mut rng = StdRng::seed_from_u64(self.plan.seed ^ 0x7124);
                let imposter = RsaKeyPair::generate(KEY_BITS, &mut rng).into_private_key();
                let witnesses = self.witnesses()?;
                witnesses.known(w)?;
                let head = witnesses.heads.first().ok_or_else(|| bad("no shard 0"))?;
                let forged = TreeHeadSigner::new(head.honest.log().clone(), imposter)
                    .sign(
                        1,
                        head.store.len() as u64,
                        sha256(b"history the logger never had"),
                    )
                    .map_err(harness("forge head"))?
                    .encode();
                let mut mangled = forged.clone();
                if let Some(byte) = mangled.last_mut() {
                    *byte ^= 0x55;
                }
                witnesses.fed.inject(w, &forged);
                witnesses.fed.inject(w, &mangled);
            }
            Fault::Litigate(script) => self.litigate(script)?,
            Fault::CrashLedger => {
                let court = self
                    .court
                    .as_mut()
                    .ok_or_else(|| bad("CrashLedger before Litigate"))?;
                // An acknowledged ledger mutation that does not survive
                // recovery is clause (2), not a harness problem.
                if !court.crash().map_err(bad)? {
                    return Err(Breach::new(
                        2,
                        "the dispute ledger resumed a state it never acknowledged".into(),
                    )
                    .into());
                }
            }
        }
        Ok(())
    }

    fn restart(&mut self, shard: usize, replica: usize) -> Result<(), Stop> {
        self.device(shard, replica)?;
        self.cluster.kill_replica(shard, replica);
        let recovery = self
            .cluster
            .restart_replica(shard, replica)
            .map_err(harness("restart"))?;
        self.run.recoveries.extend(recovery);
        // How the replica rejoined, and clause (2) on what recovery gave
        // back (the stream is synchronous: no deposit is in flight).
        let view = self.cluster.view();
        let rejoined = view
            .shards
            .get(shard)
            .and_then(|s| Some((s, s.statuses.get(replica)?.clone())));
        let (shard_view, status) =
            rejoined.ok_or_else(|| bad("restarted replica missing from the view"))?;
        self.run.rejoined.push((shard, replica, status));
        acked_in_order(shard, &self.run.acked[shard], &shard_view.records)?;

        let len = |rig: &Self| {
            rig.cluster
                .replica(shard, replica)
                .map_or(0, |slot| slot.handle().store().len())
        };
        let before = len(self);
        let mut caught_up = Err(LogError::ServerClosed);
        for _ in 0..CATCH_UP_RETRIES {
            caught_up = self.cluster.catch_up_replica(shard, replica);
            if !matches!(caught_up, Err(LogError::Io(_))) {
                break;
            }
        }
        caught_up.map_err(harness("catch-up"))?;
        self.run.adopted += len(self) - before;
        Ok(())
    }

    fn litigate(&mut self, script: ClaimScript) -> Result<(), Stop> {
        let replica_keys = self
            .cluster
            .attestations()
            .map_or_else(Keyring::new, |ledger| ledger.keyring().clone());
        let sth_keys = self
            .witnesses
            .as_ref()
            .map_or_else(Keyring::new, |w| w.sth_keys.clone());
        let (party, claim, evidence, supported, replay) = match script {
            ClaimScript::Equivocation => {
                let (keys, view) = (self.cluster.keys().clone(), self.cluster.view());
                let (signer, claim, evidence) = equivocation_brief(&view).map_err(bad)?;
                let full = ClusterAuditor::new(keys.clone())
                    .with_attestation_keys(replica_keys.clone())
                    .audit_view(&view);
                let supported = full.convicted_replicas().contains(&signer);
                let replay = ReplayContext::new(keys);
                (claim.convicted(), claim, evidence, supported, replay)
            }
            _ => self.traffic_brief(script)?,
        };
        let ctx = ResolverContext::new(replay)
            .with_replica_keys(replica_keys)
            .with_sth_keys(sth_keys);
        let court = self
            .court
            .insert(Court::new(self.plan.seed, party, ctx).map_err(bad)?);
        court
            .open(claim, supported, evidence, script == ClaimScript::Bribed)
            .map_err(bad)
    }

    /// A Lemma 2 claim over the detector's recorded traffic: the
    /// conviction `script` contests, its evidence, whether the full view
    /// supports it, and the replay context its recordings need.
    fn traffic_brief(
        &self,
        script: ClaimScript,
    ) -> Result<(NodeId, ContestedVerdict, Vec<Evidence>, bool, ReplayContext), Stop> {
        let nodes = self
            .nodes
            .as_ref()
            .ok_or_else(|| bad("Litigate without node traffic"))?;
        nodes.quiesce()?;
        let (keys, topology) = (self.cluster.keys().clone(), nodes.master.topology());
        let party = NodeId::new("detector");
        let view = self.cluster.view();
        let full = ClusterAuditor::new(keys.clone())
            .with_topology(topology.clone())
            .audit_view(&view)
            .report;
        // The accuser's incomplete snapshot: all but the party's receipts.
        let entries = view.entries().into_iter().filter_map(Result::ok);
        let seen: Vec<LogEntry> = entries
            .filter(|e| !(e.component == party && e.direction == Direction::In))
            .collect();
        let partial = Auditor::new(keys.clone())
            .with_topology(topology.clone())
            .audit(&seen);
        let truth = self
            .cluster
            .extract_recording(0, 0, u64::MAX)
            .map_err(harness("extract recording"))?;
        let (claim, evidence) = brief(script, &party, &full, &partial, truth).map_err(bad)?;
        let supported = claim.supported_by(&full);
        let replay = ReplayContext::new(keys).with_topology(topology);
        Ok((party, claim, evidence, supported, replay))
    }

    /// Fires the events due at `step`, snapshotting after each one, then
    /// makes deposit `step` and lets the witnesses gossip.
    fn step(&mut self, step: Step) -> Result<(), Stop> {
        let plan = self.plan;
        for &(at, fault) in plan.events.iter().filter(|(at, _)| *at == step) {
            let before = self.snapshot();
            if let Some(last) = self.trail.fired.last() {
                monotone(&last.after, &before)?;
            }
            self.apply(fault)?;
            let after = self.snapshot();
            let forwards = monotone(&before, &after);
            self.trail.fired.push(Fired {
                step: at,
                fault,
                before,
                after,
            });
            forwards?;
        }
        if step < self.run.deposits {
            match &self.nodes {
                Some(nodes) => nodes.publish(step)?,
                None => {
                    let entry = chaos_entry(step);
                    let shard = self.client.shard_for(&entry.component, &entry.topic);
                    let encoded = entry.encode();
                    match self.client.submit_durable(entry) {
                        Ok(()) => self.run.acked[shard].push(encoded),
                        Err(_) => self.run.refused += 1,
                    }
                }
            }
            if let Some(w) = &mut self.witnesses {
                w.round(step);
            }
        }
        Ok(())
    }

    /// Ends the run: the stream drains, the federation settles, the court
    /// rules.
    fn settle(&mut self) -> Result<Option<Verdict>, Stop> {
        if let Some(nodes) = &self.nodes {
            nodes.quiesce()?;
        }
        // A refused tail sync is the injector's doing (content already
        // reached the stores); only a malformed flush is the rig's.
        if let Err(e @ LogError::Malformed(_)) = self.client.flush() {
            return Err(harness("flush")(e));
        }
        if let Some(w) = &mut self.witnesses {
            w.settle(self.run.deposits);
        }
        self.court
            .as_mut()
            .map(Court::settle)
            .transpose()
            .map_err(bad)
    }

    /// The auditor re-verifies everything anyone assembled.
    fn outcome(mut self, verdict: Option<Verdict>) -> ChaosOutcome {
        let topology = match &self.nodes {
            Some(nodes) => nodes.master.topology(),
            None => stream_topology(),
        };
        let view = self.cluster.view();
        let mut auditor = ClusterAuditor::new(self.cluster.keys().clone()).with_topology(topology);
        if let Some(ledger) = self.cluster.attestations() {
            auditor = auditor.with_attestation_keys(ledger.keyring().clone());
        }
        let (mut proofs, mut sth_keys) = (Vec::new(), Keyring::new());
        if let Some(w) = &self.witnesses {
            (proofs, sth_keys) = (w.proofs(), w.sth_keys.clone());
            self.run.last_converged = w.last_converged;
        }
        let report = auditor
            .with_sth_keys(sth_keys.clone())
            .audit_view_with_evidence(&view, &proofs);
        ChaosOutcome {
            convicted: Expect::convicted_by(&report, verdict.as_ref()),
            view,
            report,
            verdict,
            settled: self.snapshot(),
            run: self.run,
            trail: self.trail,
            sealing_key: self.sealing.public_key().clone(),
            sth_keys,
            cluster: self.cluster,
            fed: self.witnesses.map(|w| w.fed),
        }
    }
}

/// What the rig recorded while the plan ran.
#[derive(Debug, Default)]
pub struct Run {
    /// Deposits (or publications) the stream made.
    pub deposits: usize,
    /// Whether nodes published instead of the rig depositing directly.
    pub node_traffic: bool,
    /// Per shard: encoded entries acked durable, in submission order (empty
    /// under node traffic, whose acks the rig does not observe).
    pub acked: Vec<Vec<Vec<u8>>>,
    /// Stream deposits the quorum refused.
    pub refused: u64,
    /// Each restarted replica's status right after recovery, before catch-up.
    pub rejoined: Vec<(usize, usize, ReplicaStatus)>,
    /// What each replica recovery found, in order.
    pub recoveries: Vec<Recovery>,
    /// Records adopted across all catch-ups.
    pub adopted: usize,
    /// Every epoch seal cut, in order.
    pub seals: Vec<EpochSeal>,
    /// The last step after whose gossip round every live witness agreed
    /// (`deposits` = while settling).
    pub last_converged: Option<Step>,
}

/// What a run left behind: the data the oracle judges (public, so a test
/// can break it by hand) and the live system for plan-specific facts.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// What the rig recorded along the way.
    pub run: Run,
    /// The final cross-replica view: quorum logs, statuses, convictions.
    pub view: ClusterView,
    /// The auditor's verdict with every assembled proof folded in.
    pub report: ClusterAuditReport,
    /// Who that verdict (and the court) convicted.
    pub convicted: Expect,
    /// The settled dispute, if the plan litigated.
    pub verdict: Option<Verdict>,
    /// The events fired, each with the counters around it.
    pub trail: Trail,
    /// The counters at the end of the run.
    pub settled: Snapshot,
    /// The key the run's seals verify under.
    pub sealing_key: RsaPublicKey,
    /// The tree-head keys split-view proofs verify under.
    pub sth_keys: Keyring<NodeId>,
    /// The cluster, alive.
    pub cluster: LoggerCluster,
    /// The federation, alive, if the plan built one.
    pub fed: Option<Federation>,
}

impl ChaosOutcome {
    /// A counter of the final snapshot (0 when the layer was never built).
    pub fn counter(&self, name: &str) -> u64 {
        self.settled.counters.get(name).copied().unwrap_or(0)
    }
}

/// Runs `plan` and judges the outcome.
///
/// # Errors
///
/// [`ChaosFailure::Harness`] when the rig could not run the plan,
/// [`ChaosFailure::Oracle`] when it ran into a state [`judge`] rejects.
pub fn run_chaos(plan: &ChaosPlan) -> Result<ChaosOutcome, ChaosFailure> {
    let mut rig = Rig::build(plan).map_err(|stop| stop.at(Trail::of(plan)))?;
    let ran = (0..=rig.run.deposits)
        .try_for_each(|step| rig.step(step))
        .and_then(|()| rig.settle());
    let outcome = match ran {
        Ok(verdict) => rig.outcome(verdict),
        Err(stop) => return Err(stop.at(rig.trail)),
    };
    match judge(&plan.expect, &outcome) {
        Ok(()) => Ok(outcome),
        Err(breach) => Err(Stop::Oracle(breach).at(outcome.trail)),
    }
}

/// Clause (1): every submission is acked or counted lost — or the
/// [`Breach`] names the unaccounted difference.
pub fn accounted(what: &str, submitted: u64, acked: u64, lost: u64) -> Result<(), Breach> {
    match submitted == acked + lost {
        true => Ok(()),
        false => Err(Breach::new(
            1,
            format!("{what}: {submitted} submitted ≠ {acked} acked + {lost} counted lost"),
        )),
    }
}

/// Clause (2): `acked` is an in-order subsequence of the shard's quorum
/// `log` (unacked entries may interleave: an entry whose sync failed may
/// still have survived) — or the [`Breach`] names the first acked entry
/// missing or out of order.
pub fn acked_in_order(shard: usize, acked: &[Vec<u8>], log: &[Vec<u8>]) -> Result<(), Breach> {
    let mut rest = log.iter();
    let Some(lost) = acked.iter().find(|a| !rest.any(|r| r == *a)) else {
        return Ok(());
    };
    let entry = match LogEntry::decode(lost) {
        Ok(e) => format!("({}, {}, seq {})", e.component, e.topic, e.seq),
        Err(_) => "(undecodable)".to_owned(),
    };
    let how = if log.contains(lost) {
        "out of submission order in"
    } else {
        "missing from"
    };
    Err(Breach::new(
        2,
        format!("acked entry {entry} is {how} shard {shard}'s quorum log"),
    ))
}

/// Clause (3): the convicted culprits are exactly the expected ones — or
/// the [`Breach`] prints both sets.
pub fn convictions_match(expect: &Expect, convicted: &Expect) -> Result<(), Breach> {
    match expect.sorted() == convicted.sorted() {
        true => Ok(()),
        false => Err(Breach::new(
            3,
            format!("expected {expect} but convicted {convicted}"),
        )),
    }
}

/// Clause (4): between two snapshots no counter decreased or vanished and
/// no anchor changed or was forgotten — or the [`Breach`] names which, with
/// both snapshots.
pub fn monotone(before: &Snapshot, after: &Snapshot) -> Result<(), Breach> {
    let counter = before
        .counters
        .iter()
        .find(|(k, v)| after.counters.get(*k).is_none_or(|now| now < v));
    let anchor = before
        .anchors
        .iter()
        .find(|(k, v)| after.anchors.get(*k) != Some(v));
    let what = match (counter, anchor) {
        (Some((name, was)), _) => format!("counter {name} went down (or vanished) from {was}"),
        (None, Some((name, _))) => format!("anchor {name} changed (or was forgotten)"),
        (None, None) => return Ok(()),
    };
    Err(Breach::new(
        4,
        format!("{what}\n    before: {before}\n    after:  {after}"),
    ))
}

/// The outcome oracle: the five clauses of DESIGN.md §3.15 over one run.
///
/// # Errors
///
/// The first [`Breach`], naming its clause.
pub fn judge(expect: &Expect, out: &ChaosOutcome) -> Result<(), Breach> {
    // (1) Liveness or counted loss — Lemma 2, for the logging path itself.
    let (run, count) = (&out.run, |name| out.counter(name));
    let lost = count("cluster.entries_lost");
    accounted(
        "cluster",
        count("cluster.submitted"),
        count("cluster.acked"),
        lost,
    )?;
    if !run.node_traffic {
        let acked = run.acked.iter().map(Vec::len).sum::<usize>() as u64;
        accounted("stream", run.deposits as u64, acked, run.refused)?;
        accounted("stream vs cluster", count("cluster.submitted"), acked, lost)?;
    }
    accounted(
        "light audits",
        count("light.audits"),
        count("light.verified_acks"),
        count("light.sth_verify_failures"),
    )?;

    // (2) Acked means kept, in order, in stores whose records match their
    // committed digests — Lemmas 2 and 4.
    for (shard, acked) in run.acked.iter().enumerate() {
        let log = out.view.shards.get(shard).map_or(&[][..], |s| &s.records);
        acked_in_order(shard, acked, log)?;
        for slot in out.cluster.shard_replicas(shard) {
            if slot.handle().store().verify_chain().is_err() {
                return Err(Breach::new(
                    2,
                    format!(
                        "replica ({shard}, {}) holds a record that does not match its commitment",
                        slot.index()
                    ),
                ));
            }
        }
    }

    // (3) Exactly the culprits — Theorems 1–2, and Lemma 3 in court.
    convictions_match(expect, &out.convicted)?;
    for (s, r, status) in &run.rejoined {
        let innocent = !expect.replicas.contains(&(*s, *r));
        if innocent
            && matches!(
                status,
                ReplicaStatus::Diverged { .. } | ReplicaStatus::Equivocated { .. }
            )
        {
            return Err(Breach::new(
                3,
                format!("honest replica ({s}, {r}) rejoined as {status:?}"),
            ));
        }
    }
    if let Some(v) = &out.verdict {
        if (v.proof.outcome == Outcome::Upheld) != v.supported {
            let view = if v.supported {
                "supports"
            } else {
                "does not support"
            };
            return Err(Breach::new(
                3,
                format!(
                    "the court {:?} a conviction the full view {view}",
                    v.proof.outcome
                ),
            ));
        }
    }

    // (4) Nothing durable goes backwards — Lemma 1's freshness.
    let snapshots: Vec<&Snapshot> = out
        .trail
        .fired
        .iter()
        .flat_map(|fired| [&fired.before, &fired.after])
        .collect();
    for pair in [snapshots.as_slice(), &[&out.settled]].concat().windows(2) {
        monotone(pair[0], pair[1])?;
    }

    // (5) Proofs stand alone — Lemma 1's unforgeability.
    let unproven = |what: String| Err(Breach::new(5, format!("{what} does not verify offline")));
    let keyring = out.cluster.attestations().map(|ledger| ledger.keyring());
    if let Some(p) = out
        .view
        .convictions
        .iter()
        .find(|p| !keyring.is_some_and(|k| p.verify(k)))
    {
        return unproven(format!("the equivocation proof against {:?}", p.signer()));
    }
    if let Some(p) = out
        .report
        .split_views
        .iter()
        .find(|p| !p.verify(&out.sth_keys))
    {
        return unproven(format!("the split-view proof against {}", p.signer()));
    }
    if let Some(seal) = run.seals.iter().find(|seal| !seal.verify(&out.sealing_key)) {
        return unproven(format!("the seal of epoch {}", seal.epoch));
    }
    let mut windows = Vec::new();
    for shard in 0..out.cluster.shard_count() {
        windows.extend(out.cluster.extract_recording(shard, 0, u64::MAX).ok());
    }
    let mut replay =
        ReplayContext::new(out.cluster.keys().clone()).with_topology(stream_topology());
    if let Some(v) = &out.verdict {
        if !v.proof.verify(&v.resolvers) {
            return unproven(format!(
                "the resolution proof of dispute {}",
                v.proof.dispute
            ));
        }
        windows.extend(v.windows.iter().cloned());
        replay = v.replay.clone();
    }
    for window in windows.iter().filter(|w| w.verify()) {
        let bytes = |w| replay_window(w, &replay).map(|r| r.canonical_bytes());
        if !matches!((bytes(window), bytes(window)), (Ok(a), Ok(b)) if a == b) {
            return Err(Breach::new(
                5,
                "a recording replayed twice differs from itself".to_owned(),
            ));
        }
    }
    Ok(())
}
