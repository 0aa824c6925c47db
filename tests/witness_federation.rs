//! The witness federation engine, in tier-1: the same `Federation` the
//! chaos suites drive over sockets, here over a transparent in-process
//! link — no sleeps, no ports, 512-bit keys.

use adlp::audit::ClusterAuditor;
use adlp::crypto::{sha256, RsaKeyPair, RsaPrivateKey};
use adlp::logger::sth::{SthPublisher, TreeHeadSigner};
use adlp::logger::{Keyring, LogStore};
use adlp::pubsub::{FaultConfig, NodeId, Topic};
use adlp::witness::{Federation, FederationConfig, InprocLink, SthObservation, TreeHeadSource};
use adlp_cluster::{ClusterConfig, LoggerCluster};
use rand::SeedableRng;
use std::sync::Arc;

fn logger_id() -> NodeId {
    NodeId::new("logger")
}

/// The logger's STH keyring and two signers over the same key (one per
/// view a split-view logger serves).
fn logger_keys(seed: u64) -> (Keyring<NodeId>, TreeHeadSigner, TreeHeadSigner) {
    let kp = RsaKeyPair::generate(512, &mut rand::rngs::StdRng::seed_from_u64(seed));
    let keys = Keyring::new().with(logger_id(), kp.public_key().clone());
    let copy = RsaPrivateKey::from_bytes(&kp.private_key().to_bytes()).expect("own key");
    let signer = |key| TreeHeadSigner::new(logger_id(), key);
    (keys, signer(copy), signer(kp.into_private_key()))
}

fn store_of(records: &[&[u8]]) -> LogStore {
    let store = LogStore::new();
    for record in records {
        store.append_encoded(record.to_vec());
    }
    store
}

/// A three-witness federation over a fault-free in-process mesh, witness
/// `w` polling `views[w]`.
fn federation(seed: u64, keys: Keyring<NodeId>, views: [&Arc<SthPublisher>; 3]) -> Federation {
    let config = FederationConfig::new(1).with_seed(seed);
    let link = InprocLink::new(config.witnesses(), FaultConfig::default());
    let sources = views
        .iter()
        .map(|view| vec![Arc::clone(view) as Arc<dyn TreeHeadSource>])
        .collect();
    Federation::new(config, Box::new(link), keys, sources).expect("federation boots")
}

#[test]
fn honest_federation_converges_and_cosigns_a_quorum() {
    let (keys, signer, _) = logger_keys(5);
    let store = store_of(&[b"a", b"b", b"c"]);
    let logger = Arc::new(SthPublisher::new(signer, store.clone()));
    let fed = federation(5, keys.clone(), [&logger; 3]);

    assert_eq!(fed.run_until_converged(4), Some(1));
    let witnessed = fed.witnessed(&logger_id()).expect("quorum-cosigned head");
    assert_eq!(witnessed.sth.size, 3);
    assert!(witnessed.witnessed_by(&keys, fed.keyring(), fed.config().witness_quorum()));

    store.append_encoded(b"d".to_vec());
    assert!(fed.run_until_converged(4).is_some());
    assert_eq!(fed.witnessed(&logger_id()).expect("grown head").sth.size, 4);
    assert!(fed.proofs().is_empty());
    assert_eq!(
        fed.totals(),
        Default::default(),
        "nothing rejected, nothing undecodable"
    );
}

#[test]
fn split_view_logger_is_convicted_and_the_auditor_re_verifies_it() {
    let (keys, honest_signer, forked_signer) = logger_keys(6);
    let honest = Arc::new(SthPublisher::new(
        honest_signer,
        store_of(&[b"a", b"b", b"c"]),
    ));
    let forked = Arc::new(SthPublisher::new(
        forked_signer,
        store_of(&[b"a", b"X", b"c"]),
    ));
    // The last witness is shown the fork; gossip must expose the lie.
    let fed = federation(6, keys.clone(), [&honest, &honest, &forked]);
    for _ in 0..3 {
        fed.round();
    }
    for w in 0..3 {
        let held = fed.witness(w).expect("witness").proofs();
        assert_eq!(held.len(), 1, "witness {w} holds the conviction");
    }
    // The honest majority still cosigns the honest head.
    let witnessed = fed.witnessed(&logger_id()).expect("honest quorum");
    assert_eq!(Some(witnessed.sth.root), honest.latest().map(|h| h.root));

    let cluster = LoggerCluster::spawn(ClusterConfig::new(1)).expect("cluster");
    let report = ClusterAuditor::new(cluster.keys().clone())
        .with_topology([(Topic::new("image"), logger_id())])
        .with_sth_keys(keys)
        .audit_view_with_evidence(&cluster.view(), &fed.proofs());
    assert_eq!(report.convicted_logs(), vec![logger_id()]);
    assert_eq!(report.invalid_split_views, 0);
}

#[test]
fn killed_witness_restarts_with_its_anchor_and_convicts_a_later_fork() {
    let (keys, signer, tempter) = logger_keys(7);
    let store = store_of(&[b"a", b"b"]);
    let logger = Arc::new(SthPublisher::new(signer, store.clone()));
    let mut fed = federation(7, keys, [&logger; 3]);
    assert!(fed.run_until_converged(4).is_some());
    let log = logger_id();
    let anchor = fed
        .witness(2)
        .expect("witness")
        .anchor(&log)
        .expect("anchored");

    fed.kill(2);
    assert_eq!(fed.live(), vec![0, 1]);
    store.append_encoded(b"c".to_vec());
    assert!(
        fed.run_until_converged(4).is_some(),
        "survivors keep the quorum"
    );
    assert_eq!(fed.witnessed(&log).expect("f + 1 survivors").sth.size, 3);

    fed.restart(2).expect("restart from key + storage");
    let restored = fed.witness(2).expect("witness");
    assert_eq!(
        restored.anchor(&log),
        Some(anchor),
        "no re-TOFU after a restart"
    );
    assert!(restored.cosign_high_water(&log) >= 2);
    assert!(fed.run_until_converged(4).is_some());
    assert_eq!(fed.live(), vec![0, 1, 2]);

    // A fork at the size the witness anchored on before the crash, signed
    // by the logger's real key: remembered, therefore convicted.
    let fork = tempter.sign(9, 2, sha256(b"another past")).expect("sign");
    assert!(matches!(
        fed.witness(2).expect("witness").adopt_head(fork, None),
        SthObservation::SplitView(_)
    ));
}
