//! Criterion benchmarks for the logging substrate: entry encoding, store
//! appends (hash chain), Merkle tree extension and proofs, and the
//! aggregated-logging ablation (§VI-E) — storage cost per publication for
//! per-ack vs aggregated publisher entries.

use adlp_crypto::sha256::sha256;
use adlp_crypto::Signature;
use adlp_logger::merkle::MerkleTree;
use adlp_logger::{AckRecord, Direction, LogEntry, LogStore, PayloadRecord};
use adlp_pubsub::{NodeId, Topic};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn adlp_entry(payload_len: usize) -> LogEntry {
    LogEntry {
        component: NodeId::new("imgfeed"),
        topic: Topic::new("image"),
        direction: Direction::Out,
        seq: 42,
        timestamp_ns: 1_700_000_000_000_000_000,
        payload: PayloadRecord::Data(vec![7u8; payload_len]),
        own_sig: Some(Signature::from_bytes(vec![1u8; 128])),
        peer_sig: Some(Signature::from_bytes(vec![2u8; 128])),
        peer_hash: Some(sha256(b"ack")),
        peer: Some(NodeId::new("lanedet")),
        acks: Vec::new(),
    }
}

fn bench_entry_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("entry_codec");
    for len in [20usize, 8_705, 921_641] {
        let entry = adlp_entry(len);
        let encoded = entry.encode();
        g.throughput(Throughput::Bytes(encoded.len() as u64));
        g.bench_with_input(BenchmarkId::new("encode", len), &entry, |b, e| {
            b.iter(|| e.encode());
        });
        g.bench_with_input(BenchmarkId::new("decode", len), &encoded, |b, bytes| {
            b.iter(|| LogEntry::decode(bytes).unwrap());
        });
    }
    g.finish();
}

fn bench_store_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    let entry = adlp_entry(350);
    g.bench_function("append_hash_chained", |b| {
        let store = LogStore::new();
        b.iter(|| store.append(&entry));
    });
    // Chain verification cost over a 10k-entry log.
    let store = LogStore::new();
    for _ in 0..10_000 {
        store.append(&entry);
    }
    g.sample_size(10);
    g.bench_function("verify_chain_10k", |b| {
        b.iter(|| store.verify_chain().unwrap());
    });
    // What a seal costs once the records are hashed: extend the tree by
    // one leaf and fold its ragged right edge into a root.
    let leaves = store.record_hashes();
    let mut tree = MerkleTree::build(&leaves);
    g.bench_function("merkle_push_root_at_10k", |b| {
        let mut next = leaves.iter().cycle();
        b.iter(|| {
            tree.push(next.next().expect("non-empty cycle"));
            tree.root_at(tree.leaf_count())
        });
    });
    g.bench_function("merkle_prove_at_10k", |b| {
        let mut index = 0;
        b.iter(|| {
            index = (index + 7_919) % 10_000;
            tree.prove_at(index, 10_000)
        });
    });
    g.finish();
}

fn bench_aggregated_ablation(c: &mut Criterion) {
    // Storage bytes per publication with 4 subscribers: per-ack entries vs
    // one aggregated entry (the paper's proposed optimization).
    let per_ack: usize = (0..4).map(|_| adlp_entry(921_625).encoded_len()).sum();
    let mut agg = adlp_entry(921_625);
    agg.peer = None;
    agg.peer_sig = None;
    agg.peer_hash = None;
    agg.acks = (0..4)
        .map(|i| AckRecord {
            subscriber: NodeId::new(format!("sink{i}")),
            hash: sha256(&[i as u8]),
            sig: Signature::from_bytes(vec![i as u8; 128]),
        })
        .collect();
    let aggregated = agg.encoded_len();
    assert!(aggregated < per_ack, "aggregation must reduce storage");

    let mut g = c.benchmark_group("aggregated_logging");
    g.bench_function("encode_per_ack_x4", |b| {
        let e = adlp_entry(921_625);
        b.iter(|| {
            for _ in 0..4 {
                std::hint::black_box(e.encode());
            }
        });
    });
    g.bench_function("encode_aggregated_1x4acks", |b| {
        b.iter(|| std::hint::black_box(agg.encode()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_entry_codec,
    bench_store_append,
    bench_aggregated_ablation
);
criterion_main!(benches);
