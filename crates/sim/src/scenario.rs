//! The scenario runner: builds an [`AppSpec`] under a scheme/behavior
//! assignment, runs it for a wall-clock window, and collects every metric
//! the paper's evaluation reports.

use crate::app::{AppSpec, DriveSpec};
use crate::chaos::{self, Breach, Expect, Fault};
use crate::metrics::{CpuProbe, ThreadCpuProbe};
use adlp_audit::{AuditReport, Auditor, ClusterAuditReport, ClusterAuditor};
use adlp_cluster::{
    ClusterConfig, ClusterLogClient, ClusterStatsSnapshot, ClusterView, EpochSeal, LoggerCluster,
};
use adlp_core::{
    AdlpNode, AdlpNodeBuilder, BehaviorProfile, DepositTarget, FaultConfig, LinkEvent,
    OverloadConfig, QueuePressure, ResilienceConfig, Scheme,
};
use adlp_crypto::{RsaKeyPair, RsaPublicKey};
use adlp_logger::{KeyRegistry, LogServer, LoggerHandle};
use adlp_pubsub::stats::StatsSnapshot;
use adlp_pubsub::{Master, Publisher, SubscribeOptions, TransportKind};
use adlp_logger::stats::VolumeSnapshot;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether `audit`'s only convictions are evidence-loss ones. Faults may
/// legitimately split a publication/receipt pair across a logger cut or a
/// crash point (losing one side's deposit), which the auditor reports as a
/// hidden record — but deposited entries are all genuine, so none may be
/// rejected or classified as falsified, fabricated, or replayed.
pub fn audit_convicts_evidence_loss_only(audit: &AuditReport) -> bool {
    use adlp_audit::ViolationKind::{HidPublication, HidReceipt};
    let violations = audit.verdicts.values().flat_map(|v| v.violations.iter());
    audit.rejected_entries.is_empty()
        && violations
            .map(|v| &v.kind)
            .all(|k| matches!(k, HidPublication | HidReceipt))
}

/// A configured experiment.
#[derive(Debug)]
pub struct Scenario {
    app: AppSpec,
    default_scheme: Scheme,
    schemes: BTreeMap<String, Scheme>,
    behaviors: BTreeMap<String, BehaviorProfile>,
    duration: Duration,
    warmup: Duration,
    key_bits: usize,
    transport: TransportKind,
    seed: u64,
    /// Node whose thread-attributed CPU should be measured.
    cpu_node: Option<String>,
    base_stores_hash: bool,
    /// Fault-tolerance knobs applied to every node.
    resilience: ResilienceConfig,
    /// Per-publisher injected link faults.
    faults: BTreeMap<String, FaultConfig>,
    /// Per-subscriber bounded queue depths (ROS `queue_size`).
    queue_sizes: BTreeMap<String, usize>,
    /// Per-subscriber artificial callback latency (a "slow subscriber").
    callback_delays: BTreeMap<String, Duration>,
    /// Deposit into a sharded, replicated cluster instead of one server.
    cluster: Option<ClusterConfig>,
    /// Mid-window disruptions, each at its offset into the window.
    timeline: Vec<(Duration, Fault)>,
    /// Overload policy installed on every node's deposit pipeline.
    overload: Option<OverloadConfig>,
    /// Minimum spacing between consecutive deposits at the logger — a
    /// slow-consumer logger shared by all nodes.
    logger_pace: Option<Duration>,
}

/// Everything measured during a run.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Wall-clock measurement window (after warmup).
    pub elapsed: Duration,
    /// Log volume accounting (per topic/component byte counts).
    pub volume: VolumeSnapshot,
    /// Per-node middleware statistics.
    pub node_stats: BTreeMap<String, StatsSnapshot>,
    /// Number of stored log records.
    pub store_len: usize,
    /// Process CPU utilization over the window, percent of one core.
    pub process_cpu_percent: f64,
    /// Thread-attributed CPU of the `cpu_node`, if one was named.
    pub node_cpu_percent: Option<f64>,
    /// Handle to the logger (store, keys, stats) for further analysis.
    pub logger: LoggerHandle,
    /// Topic → publisher topology of the run.
    pub topology: Vec<(adlp_pubsub::Topic, adlp_pubsub::NodeId)>,
    /// Per-subscription mean latency (topic, subscriber) → mean ns, from
    /// header stamps.
    pub mean_latency_ns: BTreeMap<(String, String), f64>,
    /// Raw per-subscription latency samples (ns), capped at 100k per link;
    /// source data for percentile reporting.
    pub latency_samples_ns: BTreeMap<(String, String), Vec<u64>>,
    /// Link-health events (ack timeouts, degradations, teardowns) drained
    /// from each node at the end of the run.
    pub link_events: BTreeMap<String, Vec<LinkEvent>>,
    /// Publish calls that returned an error during the run (e.g. a link
    /// torn down mid-measurement). Counted so dropped traffic is visible
    /// in the report instead of silently vanishing.
    pub publish_failures: u64,
    /// Driver ticks skipped because the publishing node's deposit queue
    /// was above its high watermark (the pressure-aware send loop slowed
    /// down instead of buffering unboundedly). Counted, never silent.
    pub publishes_throttled: u64,
    /// Per-node deposit-pipeline overload views (depth, sheds, receipts,
    /// breaker transitions), cumulative over the whole run.
    pub pressure: BTreeMap<String, QueuePressure>,
    /// Cluster-mode artifacts (`None` for single-logger runs).
    pub cluster: Option<ClusterRun>,
}

/// What a cluster-mode run leaves behind for analysis.
#[derive(Debug)]
pub struct ClusterRun {
    /// Quorum/failover/loss accounting over the whole run.
    pub stats: ClusterStatsSnapshot,
    /// The gathered, cross-checked cluster state at teardown.
    pub view: ClusterView,
    /// The epoch seal cut at teardown.
    pub seal: EpochSeal,
    /// Public half of the sealing key (for seal verification).
    pub sealing_key: RsaPublicKey,
    /// The cluster-wide key registry.
    pub keys: KeyRegistry,
}

impl ScenarioReport {
    /// Runs the auditor over everything this scenario logged. In cluster
    /// mode this is the entry-level audit over the merged quorum logs; use
    /// [`ScenarioReport::cluster_audit`] for the full replica/seal layer.
    pub fn audit(&self) -> AuditReport {
        if let Some(c) = &self.cluster {
            return ClusterAuditor::new(c.keys.clone())
                .with_topology(self.topology.iter().cloned())
                .audit_view(&c.view)
                .report;
        }
        Auditor::new(self.logger.keys().clone())
            .with_topology(self.topology.iter().cloned())
            .audit_store(self.logger.store())
    }

    /// The full cluster audit: replica divergence, epoch-seal verification
    /// against the run's seal, and the entry-level report. `None` for
    /// single-logger runs.
    pub fn cluster_audit(&self) -> Option<ClusterAuditReport> {
        let c = self.cluster.as_ref()?;
        Some(
            ClusterAuditor::new(c.keys.clone())
                .with_topology(self.topology.iter().cloned())
                .audit_sealed_view(&c.view, &c.seal, &c.sealing_key),
        )
    }

    /// Clauses (1)–(3) of the chaos oracle ([`chaos::judge`]) on what a
    /// wall-clock run can observe: (1) every submission is acked or counted
    /// lost, and the nodes' pipelines deposited what the loggers acked;
    /// (2) every shard's quorum log holds at least the entries acked to it
    /// (a count: the ack *stream* is not observable here), and a single
    /// logger's records match their committed digests; (3) the entry-level audit convicts no
    /// node of anything but evidence loss (see
    /// [`audit_convicts_evidence_loss_only`]) and the cluster audit convicts
    /// exactly `expect` — a single-logger run has no replica or witnessed
    /// log to convict, so there `expect` must be empty. A run that killed
    /// its single logger deposited, by design, into the void: judge those
    /// by hand.
    ///
    /// # Errors
    ///
    /// The first [`Breach`], naming its clause.
    pub fn judge(&self, expect: &Expect) -> Result<(), Breach> {
        let deposited: u64 = self.pressure.values().map(|p| p.deposited()).sum();
        let nodes_cleared = |audit: &AuditReport| match audit_convicts_evidence_loss_only(audit) {
            true => Ok(()),
            false => {
                let detail = format!(
                    "convicted {:?}, rejected {:?}",
                    audit.verdicts, audit.rejected_entries
                );
                Err(Breach {
                    clause: 3,
                    detail: format!("the audit blames a node beyond evidence loss: {detail}"),
                })
            }
        };
        let (Some(run), Some(audit)) = (&self.cluster, self.cluster_audit()) else {
            chaos::accounted("single logger", deposited, self.store_len as u64, 0)?;
            if self.logger.store().verify_chain().is_err() {
                return Err(Breach {
                    clause: 2,
                    detail: "the logger holds a record that does not match its commitment".into(),
                });
            }
            nodes_cleared(&self.audit())?;
            return chaos::convictions_match(expect, &Expect::default());
        };
        chaos::accounted(
            "cluster",
            run.stats.submitted,
            run.stats.acked,
            run.stats.entries_lost,
        )?;
        chaos::accounted("node pipelines vs cluster", deposited, run.stats.acked, 0)?;
        for (shard, acked) in run.view.shards.iter().zip(&run.stats.shard_depth) {
            let (n, held) = (shard.shard, shard.records.len());
            if (held as u64) < *acked {
                let detail =
                    format!("shard {n}'s quorum log holds {held} of {acked} acked entries");
                return Err(Breach { clause: 2, detail });
            }
        }
        nodes_cleared(&audit.report)?;
        chaos::convictions_match(expect, &Expect::convicted_by(&audit, None))
    }

    /// System-wide log generation rate in Mb/s (Table IV's quantity).
    pub fn log_rate_mbps(&self) -> f64 {
        self.volume.rate_mbps(self.elapsed)
    }

    /// The q-th latency percentile (0.0–1.0) for a link, in milliseconds.
    pub fn latency_percentile_ms(&self, topic: &str, subscriber: &str, q: f64) -> Option<f64> {
        let samples = self
            .latency_samples_ns
            .get(&(topic.to_string(), subscriber.to_string()))?;
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(sorted[idx] as f64 / 1e6)
    }
}

impl Scenario {
    /// Creates a scenario over an application graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph fails validation.
    pub fn new(app: AppSpec) -> Self {
        app.validate().expect("invalid application graph");
        Scenario {
            app,
            default_scheme: Scheme::adlp(),
            schemes: BTreeMap::new(),
            behaviors: BTreeMap::new(),
            duration: Duration::from_secs(2),
            warmup: Duration::from_millis(200),
            key_bits: 1024,
            transport: TransportKind::InProc,
            seed: 42,
            cpu_node: None,
            base_stores_hash: false,
            resilience: ResilienceConfig::default(),
            faults: BTreeMap::new(),
            queue_sizes: BTreeMap::new(),
            callback_delays: BTreeMap::new(),
            cluster: None,
            timeline: Vec::new(),
            overload: None,
            logger_pace: None,
        }
    }

    /// Installs an overload policy (bounded deposit queue, shed policy,
    /// watermarks, optional circuit breaker) on every node. Periodic
    /// drivers become pressure-aware: while a publisher's queue sits above
    /// its high watermark they skip ticks (counted in
    /// [`ScenarioReport::publishes_throttled`]) instead of pushing more
    /// load into the pipeline.
    pub fn overload(mut self, config: OverloadConfig) -> Self {
        self.overload = Some(config);
        self
    }

    /// Makes the logger a slow consumer: all deposits (from every node)
    /// share one rate gate admitting at most one entry per `min_interval`.
    /// With the arrival rate known, the overload factor is set by
    /// construction.
    pub fn paced_logger(mut self, min_interval: Duration) -> Self {
        self.logger_pace = Some(min_interval);
        self
    }

    /// Deposits into a sharded, quorum-replicated logger cluster instead of
    /// a single trusted server. The report then carries a [`ClusterRun`].
    pub fn cluster(mut self, config: ClusterConfig) -> Self {
        self.cluster = Some(config);
        self
    }

    /// Injects `fault` this far into the measurement window. A wall-clock
    /// scenario takes the two faults that make sense with deposits in
    /// flight: [`Fault::Kill`] — fail-stop of a cluster replica, or, on a
    /// single-logger run and named as replica `(0, 0)`, of the trusted
    /// logger, past which the data plane must keep flowing (§V-B) — and
    /// [`Fault::Restart`], which brings a replica back fresh and empty, a
    /// lagging follower. Kill then restart scripts a rolling restart.
    /// [`Scenario::run`] rejects every other fault, and a replica the run
    /// does not have.
    pub fn fault_at(mut self, after: Duration, fault: Fault) -> Self {
        self.timeline.push((after, fault));
        self
    }

    /// The one place a timeline fault is checked against the system this
    /// run builds.
    fn admit(&self, fault: Fault) -> Result<(), String> {
        let has = |s, r| {
            self.cluster
                .as_ref()
                .is_some_and(|c| s < c.shards && r < c.replicas)
        };
        match fault {
            Fault::Kill(s, r) | Fault::Restart(s, r) if has(s, r) => Ok(()),
            // The trusted logger, named as the one replica of a cluster of one.
            Fault::Kill(0, 0) if self.cluster.is_none() => Ok(()),
            Fault::Kill(..) | Fault::Restart(..) => {
                Err(format!("{fault:?} names no replica of this run"))
            }
            _ => Err(format!(
                "{fault:?} needs the chaos rig (`chaos::run_chaos`)"
            )),
        }
    }

    /// Installs fault-tolerance knobs (ack deadlines, retries, socket
    /// timeouts) on every node.
    pub fn resilience(mut self, config: ResilienceConfig) -> Self {
        self.resilience = config;
        self
    }

    /// Injects deterministic link faults on one publisher's outgoing links
    /// (a "flapping link" when drops and delays are enabled).
    pub fn faults_for(mut self, node: &str, config: FaultConfig) -> Self {
        self.faults.insert(node.into(), config);
        self
    }

    /// Bounds one subscriber's per-link queue; a full queue drops new
    /// frames at the publisher (counted, never silent).
    pub fn subscriber_queue(mut self, node: &str, depth: usize) -> Self {
        self.queue_sizes.insert(node.into(), depth);
        self
    }

    /// Adds artificial latency to one subscriber's callback — a slow
    /// consumer that backs up its delivery queue.
    pub fn subscriber_delay(mut self, node: &str, delay: Duration) -> Self {
        self.callback_delays.insert(node.into(), delay);
        self
    }

    /// Sets the scheme for every node.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.default_scheme = scheme;
        self
    }

    /// Overrides the scheme for one node.
    pub fn scheme_for(mut self, node: &str, scheme: Scheme) -> Self {
        self.schemes.insert(node.into(), scheme);
        self
    }

    /// Installs a behavior profile for one node.
    pub fn behavior(mut self, node: &str, profile: BehaviorProfile) -> Self {
        self.behaviors.insert(node.into(), profile);
        self
    }

    /// Measurement window (excluding warmup).
    pub fn duration(mut self, d: Duration) -> Self {
        self.duration = d;
        self
    }

    /// Warmup before measurement starts.
    pub fn warmup(mut self, d: Duration) -> Self {
        self.warmup = d;
        self
    }

    /// RSA key width (1024 = paper; tests use 512).
    pub fn key_bits(mut self, bits: usize) -> Self {
        self.key_bits = bits;
        self
    }

    /// Transport selection.
    pub fn transport(mut self, t: TransportKind) -> Self {
        self.transport = t;
        self
    }

    /// RNG seed for key generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Names the node whose thread-attributed CPU is measured (Figure 14's
    /// "publisher CPU utilization").
    pub fn measure_cpu_of(mut self, node: &str) -> Self {
        self.cpu_node = Some(node.into());
        self
    }

    /// Base-scheme subscribers store `h(D)` instead of the data (Table IV's
    /// configuration).
    pub fn base_stores_hash(mut self, yes: bool) -> Self {
        self.base_stores_hash = yes;
        self
    }

    /// Builds the graph, runs it, and collects the report.
    ///
    /// # Panics
    ///
    /// Panics, before anything is built, when a [`Scenario::fault_at`] fault
    /// is not one this run's system can take; and on setup failures.
    pub fn run(&self) -> ScenarioReport {
        if let Some(why) = self
            .timeline
            .iter()
            .find_map(|&(_, fault)| self.admit(fault).err())
        {
            panic!("Scenario::fault_at: {why}");
        }
        let master = Master::new();
        let server = LogServer::spawn();
        let handle = server.handle();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);

        // Deposit destination: the single server, or a replicated cluster
        // (with a deterministic, seed-derived sealing key).
        let cluster_rt = self.cluster.as_ref().map(|config| {
            let cluster = LoggerCluster::spawn(config.clone()).expect("spawn cluster");
            let client = Arc::new(ClusterLogClient::in_proc(&cluster));
            let sealing = RsaKeyPair::generate(self.key_bits, &mut rng);
            (cluster, client, sealing)
        });
        let target = match &cluster_rt {
            Some((_, client, _)) => DepositTarget::Cluster(Arc::clone(client)),
            None => DepositTarget::Single(handle.clone()),
        };
        // The pace gate is created once and cloned into every node, so all
        // deposits contend for the same slow logger.
        let target = match self.logger_pace {
            Some(interval) => DepositTarget::paced(target, interval),
            None => target,
        };

        // Build nodes.
        let mut nodes: BTreeMap<String, Arc<AdlpNode>> = BTreeMap::new();
        for spec in &self.app.nodes {
            let scheme = self
                .schemes
                .get(&spec.id)
                .unwrap_or(&self.default_scheme)
                .clone();
            let behavior = self
                .behaviors
                .get(&spec.id)
                .cloned()
                .unwrap_or_else(BehaviorProfile::faithful);
            let mut builder = AdlpNodeBuilder::new(spec.id.as_str())
                .scheme(scheme)
                .behavior(behavior)
                .key_bits(self.key_bits)
                .transport(self.transport)
                .base_subscriber_stores_hash(self.base_stores_hash)
                .resilience(self.resilience.clone());
            if let Some(faults) = self.faults.get(&spec.id) {
                builder = builder.faults(faults.clone());
            }
            if let Some(overload) = &self.overload {
                builder = builder.overload(overload.clone());
            }
            let node = builder
                .build_with_target(&master, target.clone(), &mut rng)
                .expect("node construction");
            nodes.insert(spec.id.clone(), Arc::new(node));
        }

        // Advertise every topic.
        let mut publishers: BTreeMap<String, Arc<Publisher>> = BTreeMap::new();
        for spec in &self.app.nodes {
            let node = &nodes[&spec.id];
            for p in &spec.publishes {
                publishers.insert(
                    p.topic.clone(),
                    Arc::new(node.advertise(p.topic.as_str()).expect("advertise")),
                );
            }
        }

        // Latency accounting per (topic, subscriber): raw samples, capped.
        type LatCell = Arc<parking_lot::Mutex<Vec<u64>>>;
        const MAX_SAMPLES: usize = 100_000;
        let mut latencies: BTreeMap<(String, String), LatCell> = BTreeMap::new();
        let publish_failures = Arc::new(AtomicU64::new(0));

        // Wire subscriptions; trigger-driven publications publish from the
        // subscriber callback (the node's `sr-` thread).
        let mut subscriptions = Vec::new();
        for spec in &self.app.nodes {
            let node = &nodes[&spec.id];
            for input in spec.all_inputs() {
                // Outputs triggered by this input.
                let outs: Vec<_> = spec
                    .publishes
                    .iter()
                    .filter(|p| matches!(&p.drive, DriveSpec::OnInput { topic } if *topic == input))
                    .map(|p| {
                        (
                            Arc::clone(&publishers[&p.topic]),
                            p.payload,
                            Arc::new(AtomicU64::new(0)),
                        )
                    })
                    .collect();
                let cell: LatCell = Arc::new(parking_lot::Mutex::new(Vec::new()));
                latencies.insert((input.clone(), spec.id.clone()), Arc::clone(&cell));
                let clock = adlp_pubsub::SystemClock;
                let mut options = SubscribeOptions::new();
                if let Some(&depth) = self.queue_sizes.get(&spec.id) {
                    options = options.with_queue_size(depth);
                }
                let callback_delay = self.callback_delays.get(&spec.id).copied();
                let relay_failures = Arc::clone(&publish_failures);
                let sub = node
                    .subscribe_with(input.as_str(), options, move |msg| {
                        use adlp_pubsub::Clock;
                        if let Some(delay) = callback_delay {
                            std::thread::sleep(delay);
                        }
                        let now = clock.now_ns();
                        if now > msg.header.stamp_ns {
                            let mut samples = cell.lock();
                            if samples.len() < MAX_SAMPLES {
                                samples.push(now - msg.header.stamp_ns);
                            }
                        }
                        for (publisher, payload, tick) in &outs {
                            let t = tick.fetch_add(1, Ordering::Relaxed);
                            if publisher.publish(&payload.generate(t)).is_err() {
                                relay_failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                    .expect("subscribe");
                subscriptions.push(sub);
            }
        }

        // Periodic drivers (pressure-aware: they watch their node's
        // deposit-queue pressure and skip ticks while it is high).
        let stop = Arc::new(AtomicBool::new(false));
        let publishes_throttled = Arc::new(AtomicU64::new(0));
        let mut drivers = Vec::new();
        for spec in &self.app.nodes {
            for p in &spec.publishes {
                let DriveSpec::Periodic { hz } = p.drive else {
                    continue;
                };
                let publisher = Arc::clone(&publishers[&p.topic]);
                let payload = p.payload;
                let stop2 = Arc::clone(&stop);
                let driver_failures = Arc::clone(&publish_failures);
                let throttled = Arc::clone(&publishes_throttled);
                let node_pressure = nodes[&spec.id].queue_pressure();
                let period = Duration::from_secs_f64(1.0 / hz);
                drivers.push(
                    std::thread::Builder::new()
                        .name(format!("dr-{}", spec.id))
                        .spawn(move || {
                            let mut tick = 0u64;
                            // adlp-lint: allow(sim-determinism) — publish pacing is physical time by design; logical state (ticks, payloads) is seed-driven
                            let mut next = Instant::now();
                            while !stop2.load(Ordering::SeqCst) {
                                if node_pressure.is_high() {
                                    // The deposit pipeline is drowning: hold
                                    // this tick back instead of feeding it.
                                    throttled.fetch_add(1, Ordering::Relaxed);
                                } else if publisher.publish(&payload.generate(tick)).is_err() {
                                    driver_failures.fetch_add(1, Ordering::Relaxed);
                                }
                                tick += 1;
                                next += period;
                                // adlp-lint: allow(sim-determinism) — drift correction for the pacing loop; measurement, not decision
                                let now = Instant::now();
                                if next > now {
                                    std::thread::sleep(next - now);
                                } else {
                                    next = now; // cannot keep up; don't spiral
                                }
                            }
                        })
                        .expect("spawn driver"),
                );
            }
        }

        // Warmup, then measure.
        std::thread::sleep(self.warmup);
        handle.stats().reset();
        if let Some((_, client, _)) = &cluster_rt {
            client.volume().reset();
        }
        let cpu = CpuProbe::start();
        let node_cpu = self
            .cpu_node
            .as_deref()
            .map(ThreadCpuProbe::for_node);
        // adlp-lint: allow(sim-determinism) — the measurement window is wall-clock by definition (Table IV reports real rates); protocol state stays seed-driven
        let t0 = Instant::now();
        let mut timeline = self.timeline.clone();
        timeline.sort_by_key(|&(at, _)| at);
        let mut waited = Duration::ZERO;
        for (at, fault) in timeline {
            if at >= self.duration {
                break;
            }
            std::thread::sleep(at.saturating_sub(waited));
            waited = at;
            match (fault, &cluster_rt) {
                (Fault::Kill(shard, replica), Some((cluster, _, _))) => {
                    cluster.kill_replica(shard, replica);
                }
                // A restart that fails mid-scenario shows up as a
                // still-dead replica in the report.
                (Fault::Restart(shard, replica), Some((cluster, _, _))) => {
                    cluster.restart_replica(shard, replica).ok();
                }
                (Fault::Kill(..), None) => server.kill(),
                _ => unreachable!("`admit` let {fault:?} through"),
            }
        }
        std::thread::sleep(self.duration.saturating_sub(waited));
        let elapsed = t0.elapsed();
        let process_cpu_percent = cpu.utilization_percent();
        let node_cpu_percent = node_cpu.map(|p| p.utilization_percent());

        // Tear down: stop drivers, close publishers, flush logging.
        stop.store(true, Ordering::SeqCst);
        for d in drivers {
            let _ = d.join();
        }
        let topology = master.topology();
        for (_, p) in publishers.iter() {
            p.close();
        }
        for sub in &mut subscriptions {
            sub.close();
        }
        for node in nodes.values() {
            // adlp-lint: allow(discarded-fallible) — after a deliberate `Fault::Kill` of the logger, flush reports ServerClosed by design
            let _ = node.flush();
        }

        let mut node_stats = BTreeMap::new();
        let mut link_events = BTreeMap::new();
        let mut pressure = BTreeMap::new();
        for (id, node) in &nodes {
            node_stats.insert(id.clone(), node.stats().snapshot());
            link_events.insert(id.clone(), node.take_link_events());
            pressure.insert(id.clone(), node.queue_pressure());
        }
        let mut mean_latency_ns = BTreeMap::new();
        let mut latency_samples_ns = BTreeMap::new();
        for (k, cell) in latencies {
            let samples = std::mem::take(&mut *cell.lock());
            if !samples.is_empty() {
                let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
                mean_latency_ns.insert(k.clone(), mean);
            }
            latency_samples_ns.insert(k, samples);
        }

        // Cluster teardown: gather the replicas and cut the epoch seal.
        let cluster_volume = cluster_rt
            .as_ref()
            .map(|(_, client, _)| client.volume().snapshot());
        let cluster_run = cluster_rt.map(|(cluster, client, sealing)| {
            let view = cluster.view();
            let seal = cluster
                .seal_epoch(sealing.private_key())
                .expect("seal epoch");
            ClusterRun {
                stats: client.stats().snapshot(),
                view,
                seal,
                sealing_key: sealing.public_key().clone(),
                keys: cluster.keys().clone(),
            }
        });
        // In cluster mode the single server idles; volume and depth come
        // from the cluster's quorum-acked accounting.
        let (volume, store_len) = match (&cluster_run, cluster_volume) {
            (Some(c), Some(v)) => (v, c.view.total_records()),
            _ => (handle.stats().snapshot(), handle.store().len()),
        };

        ScenarioReport {
            elapsed,
            volume,
            node_stats,
            store_len,
            process_cpu_percent,
            node_cpu_percent,
            logger: handle,
            topology,
            mean_latency_ns,
            latency_samples_ns,
            link_events,
            publish_failures: publish_failures.load(Ordering::Relaxed),
            publishes_throttled: publishes_throttled.load(Ordering::Relaxed),
            pressure,
            cluster: cluster_run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{fanout_app, self_driving_app};
    use crate::data::PayloadKind;

    #[test]
    fn fanout_scenario_runs_and_logs() {
        let report = Scenario::new(fanout_app(PayloadKind::Custom(100), 2, 50.0))
            .key_bits(512)
            .duration(Duration::from_millis(500))
            .run();
        // The feeder published, both sinks received, entries were logged.
        assert!(report.node_stats["feeder"].published > 5);
        assert!(report.node_stats["sink0"].received > 5);
        assert!(report.store_len > 10);
        assert!(report.volume.bytes > 0);
        let audit = report.audit();
        assert!(audit.all_clear(), "faithful run must audit clean");
    }

    #[test]
    fn self_driving_app_flows_end_to_end() {
        let report = Scenario::new(self_driving_app())
            .key_bits(512)
            .duration(Duration::from_millis(800))
            .run();
        // Data flowed all the way to the actuator.
        assert!(
            report.node_stats["actuator"].received > 0,
            "stats: {:?}",
            report.node_stats
        );
        // Latencies were recorded for the image link.
        assert!(report
            .mean_latency_ns
            .keys()
            .any(|(t, s)| t == "image" && s == "lanedet"));
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let report = Scenario::new(fanout_app(PayloadKind::Custom(128), 1, 100.0))
            .key_bits(512)
            .duration(Duration::from_millis(500))
            .run();
        let p50 = report.latency_percentile_ms("data", "sink0", 0.5).unwrap();
        let p99 = report.latency_percentile_ms("data", "sink0", 0.99).unwrap();
        assert!(p50 > 0.0);
        assert!(p99 >= p50, "p99 {p99} must dominate p50 {p50}");
        assert!(report.latency_percentile_ms("ghost", "sink0", 0.5).is_none());
        // Mean sits within the sample range.
        let mean = report.mean_latency_ns[&("data".into(), "sink0".into())] / 1e6;
        let p0 = report.latency_percentile_ms("data", "sink0", 0.0).unwrap();
        let p100 = report.latency_percentile_ms("data", "sink0", 1.0).unwrap();
        assert!(mean >= p0 && mean <= p100);
    }

    #[test]
    fn no_logging_scheme_produces_empty_store() {
        let report = Scenario::new(fanout_app(PayloadKind::Custom(64), 1, 50.0))
            .scheme(Scheme::NoLogging)
            .duration(Duration::from_millis(300))
            .run();
        assert_eq!(report.store_len, 0);
        assert!(report.node_stats["sink0"].received > 0);
    }

    #[test]
    fn base_scheme_logs_but_without_signatures() {
        let report = Scenario::new(fanout_app(PayloadKind::Custom(64), 1, 50.0))
            .scheme(Scheme::Base)
            .duration(Duration::from_millis(300))
            .run();
        assert!(report.store_len > 0);
        for e in report.logger.store().entries() {
            assert!(!e.unwrap().is_adlp());
        }
    }

    #[test]
    fn logger_outage_mid_run_keeps_data_plane_flowing() {
        // The trusted logger crashes halfway through the window; messages
        // keep flowing (§V-B failure isolation) and the surviving log
        // prefix still audits without bogus convictions.
        let report = Scenario::new(fanout_app(PayloadKind::Custom(64), 2, 100.0))
            .key_bits(512)
            .duration(Duration::from_millis(600))
            .fault_at(Duration::from_millis(200), Fault::Kill(0, 0))
            .run();
        // Traffic continued for the full window, far beyond what the
        // pre-outage window alone could produce.
        assert!(
            report.node_stats["sink0"].received > 20,
            "stats: {:?}",
            report.node_stats
        );
        // A log prefix was deposited before the crash.
        assert!(report.store_len > 0);
        let audit = report.audit();
        assert!(
            audit_convicts_evidence_loss_only(&audit),
            "outage must not manufacture falsification evidence: {:?}",
            audit.verdicts
        );
    }

    #[test]
    fn slow_subscriber_degrades_link_but_audits_clean() {
        // One sink acknowledges slowly (its callback sleeps past the ack
        // deadline): the link degrades and recovers, retries stay invisible
        // to the auditor (replay defense drops the duplicates un-logged),
        // and the audit is indistinguishable from a fault-free run.
        let report = Scenario::new(fanout_app(PayloadKind::Custom(64), 2, 50.0))
            .key_bits(512)
            .duration(Duration::from_millis(600))
            .resilience(
                ResilienceConfig::new()
                    .with_ack_timeout(Duration::from_millis(10))
                    .with_max_retries(1000)
                    .with_retry_backoff(Duration::from_millis(5)),
            )
            .subscriber_delay("sink0", Duration::from_millis(40))
            .run();
        assert!(report.node_stats["sink0"].received > 0);
        assert!(report.node_stats["sink1"].received > 0);
        let feeder_events = &report.link_events["feeder"];
        assert!(
            feeder_events
                .iter()
                .any(|e| matches!(e, LinkEvent::AckTimeout { subscriber, .. } if subscriber.as_str() == "sink0")),
            "slow link must trip the ack deadline: {feeder_events:?}"
        );
        let audit = report.audit();
        assert!(
            audit.all_clear(),
            "slow-but-honest subscriber must audit clean: {:?}",
            audit.verdicts
        );
    }

    #[test]
    fn flapping_link_recovers_via_retries_and_audits_clean() {
        // Injected drops and delays on the publisher's links; the ack
        // deadline re-sends lost frames, the replay defense absorbs
        // duplicates, and every deposited entry still classifies correctly.
        let report = Scenario::new(fanout_app(PayloadKind::Custom(64), 1, 100.0))
            .key_bits(512)
            .duration(Duration::from_millis(600))
            .resilience(
                ResilienceConfig::new()
                    .with_ack_timeout(Duration::from_millis(15))
                    .with_max_retries(1000)
                    .with_retry_backoff(Duration::from_millis(5)),
            )
            .faults_for(
                "feeder",
                FaultConfig::seeded(7)
                    .with_drop_rate(0.3)
                    .with_delay(0.2, Duration::from_millis(10)),
            )
            .run();
        assert!(
            report.node_stats["sink0"].received > 5,
            "retries must push data through the flapping link: {:?}",
            report.node_stats
        );
        let audit = report.audit();
        assert!(
            audit.all_clear(),
            "transport faults must not implicate honest nodes: {:?}",
            audit.verdicts
        );
    }

    #[test]
    fn unfaithful_node_detected_in_scenario() {
        use adlp_core::{LinkRole, LogBehavior};
        // Hiding is evidence loss, which a fault can cause too: `judge` lets
        // it pass. Falsifying takes a culprit: clause (3), single logger too.
        for (lie, clause) in [(LogBehavior::Hide, None), (LogBehavior::Falsify, Some(3))] {
            let report = Scenario::new(fanout_app(PayloadKind::Custom(64), 1, 50.0))
                .key_bits(512)
                .behavior(
                    "sink0",
                    BehaviorProfile::faithful().with_link(
                        LinkRole::Subscriber,
                        adlp_pubsub::Topic::new("data"),
                        lie,
                    ),
                )
                .duration(Duration::from_millis(400))
                .run();
            let audit = report.audit();
            assert!(!audit.all_clear());
            let unfaithful = audit.unfaithful_components();
            assert_eq!(unfaithful.len(), 1);
            assert_eq!(unfaithful[0].0.as_str(), "sink0");
            assert_eq!(
                report
                    .judge(&Expect::default())
                    .err()
                    .map(|breach| breach.clause),
                clause
            );
        }
    }

    #[test]
    #[should_panic(expected = "needs the chaos rig")]
    fn a_fault_the_run_cannot_take_is_rejected_before_anything_is_built() {
        Scenario::new(fanout_app(PayloadKind::Custom(64), 1, 50.0))
            .fault_at(Duration::ZERO, Fault::Seal)
            .run();
    }
}
