//! A replica's signed head is one instant of its log. Two depositors and a
//! view loop interrogate the same replicas concurrently; a head read in two
//! steps could pair `Head { length: n }` with the root of `n + 1` records —
//! a false statement that convicts the honest replica that signed it.

use adlp_cluster::{
    empty_shard_root, AttestationScope, ClusterConfig, ClusterLogClient, LoggerCluster, Observation,
};
use adlp_logger::{Direction, LogEntry};
use adlp_pubsub::{NodeId, Topic};
use std::sync::atomic::{AtomicBool, Ordering};

const PER_DEPOSITOR: u64 = 60;

#[test]
fn concurrent_deposits_and_views_attest_only_checkable_heads() {
    let cluster = LoggerCluster::spawn(ClusterConfig::byzantine(1, 1)).unwrap();
    let client = ClusterLogClient::in_proc(&cluster);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let viewer = s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                cluster.view();
            }
        });
        let depositors: Vec<_> = (0..2u8)
            .map(|d| {
                let client = &client;
                s.spawn(move || {
                    let (publisher, topic) = (NodeId::new(format!("dep{d}")), Topic::new("t"));
                    for seq in 0..PER_DEPOSITOR {
                        let (node, topic) = (publisher.clone(), topic.clone());
                        let e = LogEntry::naive(node, topic, Direction::Out, seq, seq, vec![d]);
                        assert!(client.submit(e).is_accepted());
                    }
                })
            })
            .collect();
        depositors.into_iter().for_each(|d| d.join().unwrap());
        stop.store(true, Ordering::SeqCst);
        viewer.join().unwrap();
    });

    // PKCS#1 v1.5 signatures are deterministic: re-signing the honest head
    // at every length is a `Duplicate` exactly when the ledger holds that
    // statement and no other, i.e. every recorded `att.root ==
    // root_at(length)`. Every replica acked every deposit, so every length
    // is on record.
    let ledger = cluster.attestations().unwrap();
    for slot in cluster.shard_replicas(0) {
        let store = slot.handle().store().clone();
        for length in 0..=2 * PER_DEPOSITOR {
            let root = store
                .root_at(length as usize)
                .unwrap_or_else(empty_shard_root);
            let scope = AttestationScope::Head { length };
            let honest = slot.attestor().unwrap().attest(scope, root).unwrap();
            let observation = ledger.observe(honest);
            let expected = match length {
                0 => matches!(
                    observation,
                    Observation::Duplicate | Observation::Consistent
                ),
                _ => observation == Observation::Duplicate,
            };
            assert!(
                expected,
                "replica {} at head@{length}: {observation:?}",
                slot.index()
            );
        }
    }
    assert!(
        ledger.proofs().is_empty(),
        "an honest replica was convicted"
    );
}
