//! Fault-injection scenarios for the sharded, replicated logger cluster.
//!
//! These are the acceptance proofs for the cluster subsystem:
//!
//! * **quorum liveness** — R=3/W=2 with one replica killed mid-run loses
//!   nothing, and the auditor verifies every shard root against the epoch
//!   super-root;
//! * **counted loss** — with two replicas of a shard down, sub-quorum
//!   deposits are counted in `ClusterStats`, never silently dropped;
//! * **divergence detection** — a replica whose history is rewritten via
//!   the existing tamper path is identified by shard and replica;
//! * **shard partition** — an unreachable shard degrades only its own
//!   keyspace slice;
//! * **rolling restart** — replicas cycled one at a time under transport
//!   fault injection lose nothing and audit clean.

use adlp_audit::{ClusterAuditor, SealCheck};
use adlp_cluster::{ClusterConfig, ClusterLogClient, LoggerCluster, ReplicaStatus};
use adlp_core::{AdlpNodeBuilder, DepositTarget, FaultConfig, ResilienceConfig, Scheme};
use adlp_pubsub::{Master, NodeId, Topic};
use adlp_sim::{fanout_app, Expect, Fault, PayloadKind, Scenario};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn one_replica_down_keeps_quorum_and_seals_clean() {
    let report = Scenario::new(fanout_app(PayloadKind::Custom(64), 2, 100.0))
        .key_bits(512)
        .seed(101)
        .duration(Duration::from_millis(600))
        .cluster(ClusterConfig::replicated(2))
        .fault_at(Duration::from_millis(200), Fault::Kill(0, 1))
        .run();

    // The oracle's clauses (1)–(3): balanced accounting, every acked
    // entry in its quorum log, nobody convicted.
    report
        .judge(&Expect::default())
        .unwrap_or_else(|breach| panic!("{breach}"));
    let cluster = report.cluster.as_ref().expect("cluster run");
    assert!(cluster.stats.submitted > 0, "traffic must have flowed");
    assert_eq!(
        cluster.stats.entries_lost, 0,
        "2 of 3 replicas satisfy W=2: zero loss, stats {:?}",
        cluster.stats
    );
    assert!(
        cluster.stats.failovers > 0,
        "deposits after the kill must record the dead replica as a failover"
    );

    // Every shard's live root verifies against the signed super-root.
    let audit = report.cluster_audit().expect("cluster audit");
    assert_eq!(audit.seal, SealCheck::Verified);
    for shard in &cluster.view.shards {
        assert!(
            cluster
                .seal
                .verify_shard(shard.shard, &shard.root, shard.records.len()),
            "shard {} root must verify against the epoch seal",
            shard.shard
        );
    }
    assert!(
        audit.report.all_clear(),
        "faithful cluster run must audit clean: {:?}",
        audit.report.verdicts
    );
}

#[test]
fn quorum_loss_is_counted_never_silent() {
    let report = Scenario::new(fanout_app(PayloadKind::Custom(64), 1, 100.0))
        .key_bits(512)
        .seed(102)
        .duration(Duration::from_millis(600))
        .cluster(ClusterConfig::replicated(1))
        .fault_at(Duration::from_millis(150), Fault::Kill(0, 0))
        .fault_at(Duration::from_millis(150), Fault::Kill(0, 1))
        .run();

    let cluster = report.cluster.as_ref().expect("cluster run");
    assert!(
        cluster.stats.entries_lost > 0,
        "1 of 3 replicas cannot satisfy W=2: loss must be counted, stats {:?}",
        cluster.stats
    );
    // Every submission is acked or counted lost (clause 1); the survivor
    // kept the full history, so the quorum log is intact (2) and the loss
    // shows up only where it belongs, the stats — nobody is blamed (3).
    report
        .judge(&Expect::default())
        .unwrap_or_else(|breach| panic!("{breach}"));
}

#[test]
fn tampered_replica_is_identified_by_shard_and_replica() {
    // Direct wiring (no Scenario): two ADLP nodes deposit into a cluster,
    // then one replica's history is rewritten via the store's tamper path.
    let master = Master::new();
    let cluster = LoggerCluster::spawn(ClusterConfig::replicated(1)).unwrap();
    let client = Arc::new(ClusterLogClient::in_proc(&cluster));
    let mut rng = rand::rngs::StdRng::seed_from_u64(103);
    use rand::SeedableRng;

    let cam = AdlpNodeBuilder::new("cam")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .build_with_target(
            &master,
            DepositTarget::Cluster(Arc::clone(&client)),
            &mut rng,
        )
        .unwrap();
    let det = AdlpNodeBuilder::new("det")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .build_with_target(
            &master,
            DepositTarget::Cluster(Arc::clone(&client)),
            &mut rng,
        )
        .unwrap();
    let publisher = cam.advertise("image").unwrap();
    let _sub = det.subscribe("image", |_| {}).unwrap();
    for i in 0..5u8 {
        publisher.publish(&[i; 32]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(100));
    cam.flush().unwrap();
    det.flush().unwrap();

    // Rewrite record 1 on replica 2 of shard 0.
    let victim = cluster.replica(0, 2).unwrap().handle();
    let store = victim.store();
    let original = store.entries().remove(1).unwrap();
    let mut forged = original.clone();
    forged.timestamp_ns ^= 0xdead_beef;
    store.tamper_with_record(1, forged.encode()).unwrap();

    let auditor = ClusterAuditor::new(cluster.keys().clone())
        .with_topology([(Topic::new("image"), NodeId::new("cam"))]);
    let audit = auditor.audit_view(&cluster.view());
    assert!(!audit.all_clear());
    assert_eq!(audit.divergences.len(), 1, "exactly one diverged replica");
    let d = &audit.divergences[0];
    assert_eq!((d.shard, d.replica), (0, 2), "divergence names the culprit");
    assert_eq!(d.first_divergent_index, 1);
    // The honest majority outvotes the tampered replica, so the merged
    // quorum log still audits clean at the entry level.
    assert!(audit.report.all_clear());
}

#[test]
fn shard_partition_degrades_only_its_own_slice() {
    // Three unreplicated shards; shard death severs one slice of the
    // keyspace. Eight publishers spread links across the ring.
    let report = Scenario::new(fanout_app(PayloadKind::Custom(64), 8, 60.0))
        .key_bits(512)
        .seed(104)
        .duration(Duration::from_millis(600))
        .cluster(ClusterConfig::new(3))
        .fault_at(Duration::from_millis(200), Fault::Kill(0, 0))
        .fault_at(Duration::from_millis(200), Fault::Kill(1, 0))
        .run();

    let cluster = report.cluster.as_ref().expect("cluster run");
    assert!(
        cluster.stats.entries_lost > 0,
        "deposits routed to the dead shards must be counted lost: {:?}",
        cluster.stats
    );
    report
        .judge(&Expect::default())
        .unwrap_or_else(|breach| panic!("{breach}"));
    // The surviving shard kept taking deposits after the partition: its
    // quorum log exceeds what the dead shards froze at.
    let lens: Vec<usize> = cluster
        .view
        .shards
        .iter()
        .map(|s| s.records.len())
        .collect();
    assert!(
        lens[2] > 0,
        "surviving shard must hold records, got depths {lens:?}"
    );
}

#[test]
fn rolling_restart_under_faults_loses_nothing() {
    // One shard, R=3/W=2; replicas are cycled one at a time while the
    // publisher's links run under the PR-1 fault injector. At most one
    // replica is down at any instant, so the quorum never breaks.
    let report = Scenario::new(fanout_app(PayloadKind::Custom(64), 1, 100.0))
        .key_bits(512)
        .seed(105)
        .duration(Duration::from_millis(800))
        .resilience(
            ResilienceConfig::new()
                .with_ack_timeout(Duration::from_millis(20))
                .with_max_retries(1000)
                .with_retry_backoff(Duration::from_millis(5)),
        )
        .faults_for(
            "feeder",
            FaultConfig::seeded(9)
                .with_drop_rate(0.2)
                .with_delay(0.1, Duration::from_millis(5)),
        )
        .cluster(ClusterConfig::replicated(1))
        .fault_at(Duration::from_millis(150), Fault::Kill(0, 0))
        .fault_at(Duration::from_millis(300), Fault::Restart(0, 0))
        .fault_at(Duration::from_millis(450), Fault::Kill(0, 1))
        .fault_at(Duration::from_millis(600), Fault::Restart(0, 1))
        .run();

    let cluster = report.cluster.as_ref().expect("cluster run");
    assert!(cluster.stats.submitted > 0);
    assert_eq!(
        cluster.stats.entries_lost, 0,
        "rolling restart must never break the quorum: {:?}",
        cluster.stats
    );
    // Restarted replicas re-enter as lagging followers — never diverged:
    // restarts are fail-stop, not tamper evidence (clause 3).
    report
        .judge(&Expect::default())
        .unwrap_or_else(|breach| panic!("{breach}"));
    let audit = report.cluster_audit().expect("cluster audit");
    assert!(!audit.lagging.is_empty(), "cycled replicas lag the quorum");
    let statuses = &cluster.view.shards[0].statuses;
    assert!(statuses
        .iter()
        .any(|s| matches!(s, ReplicaStatus::Lagging { .. })));
    assert_eq!(audit.seal, SealCheck::Verified);
    assert!(
        audit.report.all_clear(),
        "honest nodes must audit clean through a rolling restart: {:?}",
        audit.report.verdicts
    );
}
