//! Tamper-evidence demo: components log over a real TCP connection to the
//! trusted logger; the investigator takes a Merkle commitment, proves one
//! entry's inclusion, and then a storage-level attacker rewrites a record —
//! which no longer matches the store's Merkle commitment, by index.
//!
//! ```text
//! cargo run --release --example tamper_evidence
//! ```

use adlp::logger::merkle::MerkleTree;
use adlp::logger::{Direction, LogEntry, LogServer, RemoteLogClient, RemoteLogEndpoint};
use adlp::pubsub::{NodeId, Topic};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let server = LogServer::spawn();
    let endpoint = RemoteLogEndpoint::bind(server.handle())?;
    println!("log server listening on {}", endpoint.addr());

    // A remote component pushes entries over TCP.
    let mut client = RemoteLogClient::connect(endpoint.addr())?;
    for seq in 1..=10u64 {
        let outcome = client.submit(&LogEntry::naive(
            NodeId::new("camera"),
            Topic::new("image"),
            Direction::Out,
            seq,
            seq * 50_000,
            vec![seq as u8; 128],
        ));
        assert!(outcome.is_accepted());
    }
    let handle = server.handle();
    while handle.store().len() < 10 {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Investigator: take the tree head (size, Merkle root) and an
    // inclusion proof.
    let (size, root) = handle.store().tree_head();
    let root = root.expect("non-empty log");
    println!("stored {size} entries, tree head (size {size}, root {root})");
    let (leaf, proof) = handle.store().prove_at(4, size).expect("leaf exists");
    assert!(MerkleTree::verify(&root, size, &leaf, &proof));
    println!(
        "inclusion of entry 4 under the tree head proven with {} siblings",
        proof.siblings.len()
    );

    // Storage attacker flips a byte in record 4.
    let mut forged = handle.store().entry(4)?.encode();
    let n = forged.len();
    forged[n - 1] ^= 0x01;
    handle.store().tamper_with_record(4, forged.clone())?;
    let forged_leaf = adlp::crypto::sha256(&forged);
    println!(
        "rewritten entry 4 proves included under the root: {}",
        MerkleTree::verify(&root, size, &forged_leaf, &proof)
    );
    match handle.store().verify_chain() {
        Ok(()) => println!("UNEXPECTED: tampering not detected"),
        Err(evidence) => println!("tampering detected: {evidence}"),
    }
    Ok(())
}
