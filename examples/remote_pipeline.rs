//! Everything over real wires and disks: TCP pub/sub transport, a TCP log
//! server, durable identities, a crash-safe checkpoint, and an RFC 6962
//! consistency proof that the on-disk checkpoint is an honest prefix of
//! the final log.
//!
//! ```text
//! cargo run --release --example remote_pipeline
//! ```

use adlp::audit::Auditor;
use adlp::core::{AdlpNodeBuilder, IdentityStore, Scheme};
use adlp::logger::merkle::MerkleTree;
use adlp::logger::{DurabilityConfig, DurableLog, FsStorage, LogServer};
use adlp::pubsub::{Master, TransportKind};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let master = Master::new();
    let server = LogServer::spawn();
    let handle = server.handle();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026);

    // Durable identities: a rebooted component keeps its key.
    let tmp = std::env::temp_dir().join(format!("adlp-remote-{}", std::process::id()));
    let keystore = IdentityStore::open(&tmp)?;
    let cam_ident = keystore.load_or_generate(&"camera".into(), 1024, &mut rng)?;
    let det_ident = keystore.load_or_generate(&"detector".into(), 1024, &mut rng)?;
    println!("identities persisted under {}", tmp.display());

    let camera = AdlpNodeBuilder::new("camera")
        .scheme(Scheme::adlp())
        .identity(cam_ident)
        .transport(TransportKind::Tcp)
        .build(&master, &handle, &mut rng)?;
    let detector = AdlpNodeBuilder::new("detector")
        .scheme(Scheme::adlp())
        .identity(det_ident)
        .build(&master, &handle, &mut rng)?;

    let publisher = camera.advertise("image")?;
    let _sub = detector.subscribe("image", |_| {})?;
    // The TCP link is wired asynchronously; publishing into zero
    // connections is a silent no-op, so wait for the detector to attach.
    while publisher.connection_count() == 0 {
        std::thread::sleep(Duration::from_micros(300));
    }

    // First batch of frames, then a durable checkpoint.
    for i in 0..4u8 {
        while camera.pending_acks() > 0 {
            std::thread::sleep(Duration::from_micros(300));
        }
        publisher.publish(&vec![i; 2048])?;
    }
    while camera.pending_acks() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    camera.flush()?;
    detector.flush()?;

    // The checkpoint is a durable log of its own (fsynced, checksummed,
    // Merkle-rooted snapshot) rotated onto the live store.
    let ckpt = DurabilityConfig::new(Arc::new(FsStorage::open(tmp.join("checkpoint"))?));
    let (mut ckpt_log, _, _) = DurableLog::open(&ckpt)?;
    ckpt_log.rotate(handle.store())?;
    let (ckpt_len, ckpt_root) = handle.store().tree_head();
    let ckpt_root = ckpt_root.unwrap();
    println!("checkpoint: {ckpt_len} entries persisted, merkle root {ckpt_root}");

    // Second batch.
    for i in 4..8u8 {
        while camera.pending_acks() > 0 {
            std::thread::sleep(Duration::from_micros(300));
        }
        publisher.publish(&vec![i; 2048])?;
    }
    while camera.pending_acks() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    camera.flush()?;
    detector.flush()?;

    // Prove the checkpoint is a prefix of the final log (append-only).
    let (final_len, final_root) = handle.store().tree_head();
    let proof = handle
        .store()
        .prove_consistency_at(ckpt_len, final_len)
        .unwrap();
    let consistent = MerkleTree::verify_consistency(&ckpt_root, &final_root.unwrap(), &proof);
    println!(
        "final log: {} entries, consistency with checkpoint: {} ({} proof nodes)",
        final_len,
        consistent,
        proof.nodes.len()
    );
    assert!(consistent);

    // Reload the checkpoint from disk and audit the final log.
    let (_, reloaded, recovery) = DurableLog::open(&ckpt)?;
    assert!(
        recovery.root_verified && recovery.records_truncated == 0,
        "fresh checkpoint must read back whole"
    );
    assert_eq!(reloaded.len(), ckpt_len);
    println!(
        "reloaded checkpoint: {} entries, records verify: {}",
        reloaded.len(),
        reloaded.verify_chain().is_ok()
    );

    let report = Auditor::new(handle.keys().clone())
        .with_topology(master.topology())
        .audit_store(handle.store());
    println!(
        "audit: {} links, all clear = {}",
        report.link_count(),
        report.all_clear()
    );
    let _ = std::fs::remove_dir_all(&tmp);
    Ok(())
}
