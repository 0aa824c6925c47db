//! A self-healing witness federation over real TCP: three witnesses
//! gossip a logger's signed tree heads across localhost sockets (each
//! link fronted by a seeded chaos proxy), a light client verifies acks
//! against the f+1 cosign quorum, and one witness is power-cut and
//! restarted mid-run — resuming from its durable state without
//! re-anchoring or contradicting anything it cosigned before the crash.
//!
//! ```text
//! cargo run --release --example witness_federation
//! ```

use adlp::crypto::rsa::RsaKeyPair;
use adlp::logger::sth::{SthPublisher, TreeHeadSigner};
use adlp::logger::{Keyring, LogStore};
use adlp::pubsub::transport::chaos::ChaosConfig;
use adlp::pubsub::NodeId;
use adlp::witness::{
    Federation, FederationConfig, LightClient, TcpGossipConfig, TcpLink,
    TreeHeadSource,
};
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A logger with a signed-tree-head publisher over a growing log.
    let log_id = NodeId::new("logger");
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let kp = RsaKeyPair::generate(512, &mut rng);
    let sth_keys = Keyring::new().with(log_id.clone(), kp.public_key().clone());
    let store = LogStore::new();
    for i in 0u8..8 {
        store.append_encoded(vec![i; 16]);
    }
    let sth_key =
        adlp::crypto::rsa::RsaPrivateKey::from_bytes(&kp.private_key().to_bytes())?;
    let publisher = Arc::new(SthPublisher::new(
        TreeHeadSigner::new(log_id.clone(), sth_key),
        store.clone(),
    ));

    // Three witnesses (f = 1, quorum 2) over real localhost TCP. Every
    // ordered link crosses a chaos proxy that resets connections and
    // splits frames at arbitrary byte boundaries — the reconnect/backoff
    // and frame-reassembly machinery is doing real work here.
    let config = FederationConfig::new(1).with_seed(0xFED);
    let quorum = config.witness_quorum();
    let sources: Vec<Vec<Arc<dyn TreeHeadSource>>> = (0..config.witnesses())
        .map(|_| vec![Arc::clone(&publisher) as Arc<dyn TreeHeadSource>])
        .collect();
    let chaos = ChaosConfig::seeded(0xFED)
        .with_reset_rate(0.02)
        .with_split_rate(0.3);
    let link = TcpLink::spawn(config.witnesses(), TcpGossipConfig::default(), chaos)?;
    let mut fed = Federation::new(config, Box::new(link), sth_keys.clone(), sources)?;

    let rounds = fed
        .run_until_converged(32)
        .ok_or("federation failed to converge")?;
    println!("--- three witnesses converged over chaotic TCP in {rounds} round(s) ---");

    // A light client audits the newest ack against the witnessed head:
    // quorum cosignatures first, then its own inclusion + consistency
    // verification — trust is never outsourced, only cross-checked.
    let light = LightClient::new(sth_keys.clone());
    let witnessed = fed.witnessed(&log_id);
    let head = witnessed.as_ref().ok_or("no witnessed head")?;
    println!(
        "witnessed head: size {} with {} cosignatures (quorum {quorum})",
        head.sth.size,
        head.cosignatures.len()
    );
    light.audit_ack_witnessed(
        publisher.as_ref(),
        store.len() as u64 - 1,
        witnessed.as_ref(),
        fed.keyring(),
        quorum,
    )?;
    println!("light client verified the ack against the witnessed head");

    // Power-cut witness 2: sockets reset, process state gone; only what
    // its storage device had synced survives. The log keeps growing and
    // the survivors keep witnessing while it is down.
    let victim = 2;
    let anchor_before = fed
        .witness(victim)
        .and_then(|w| w.anchor(&log_id))
        .ok_or("victim never anchored")?;
    let high_water_before = fed
        .witness(victim)
        .map(|w| w.cosign_high_water(&log_id))
        .unwrap_or(0);
    fed.kill(victim);
    println!(
        "--- killed witness {victim} (anchor size {}, cosign high-water {high_water_before}) ---",
        anchor_before.size
    );
    store.append_encoded(vec![0xAA; 16]);
    store.append_encoded(vec![0xBB; 16]);
    fed.run_until_converged(32)
        .ok_or("survivors failed to converge")?;
    println!(
        "survivors {:?} witnessed the log grow to {} while {victim} was down",
        fed.live(),
        fed.witnessed(&log_id).map(|h| h.sth.size).unwrap_or(0)
    );

    // Restart: a fresh process resumes from the durable state. The
    // record-first-speak-second discipline means the restarted witness
    // keeps every promise it ever spoke — same TOFU anchor, monotone
    // cosign high-water — and catches up on what it missed via gossip.
    fed.restart(victim)?;
    let rounds = fed
        .run_until_converged(32)
        .ok_or("federation failed to reconverge after restart")?;
    let anchor_after = fed
        .witness(victim)
        .and_then(|w| w.anchor(&log_id))
        .ok_or("restarted witness lost its anchor")?;
    let high_water_after = fed
        .witness(victim)
        .map(|w| w.cosign_high_water(&log_id))
        .unwrap_or(0);
    assert_eq!(
        (anchor_after.size, anchor_after.root),
        (anchor_before.size, anchor_before.root),
        "a restarted witness must never re-TOFU a different anchor"
    );
    assert!(
        high_water_after >= high_water_before,
        "the cosign high-water mark must survive the crash"
    );
    println!(
        "--- witness {victim} restarted: same anchor, high-water {high_water_before} -> \
         {high_water_after}, reconverged in {rounds} round(s) ---"
    );

    // The full federation agrees again and the light client still
    // verifies with a fresh quorum that includes the restarted witness.
    let witnessed = fed.witnessed(&log_id);
    light.audit_ack_witnessed(
        publisher.as_ref(),
        store.len() as u64 - 1,
        witnessed.as_ref(),
        fed.keyring(),
        quorum,
    )?;
    println!(
        "light client verified against the healed federation (head size {}, {} restarts)",
        witnessed.map(|h| h.sth.size).unwrap_or(0),
        fed.restarts(victim)
    );
    Ok(())
}
