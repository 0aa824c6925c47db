//! Golden byte vectors captured at the commit *before* the framing code
//! moved into `adlp_logger::frame` (PR 12). Every durable artifact and
//! transferable evidence blob below must keep encoding to exactly these
//! bytes: a WAL written, a recording taken, a snapshot rotated or a head
//! gossiped by an older build has to read back unchanged.

use adlp_crypto::hex;
use adlp_crypto::pkcs1::Signature;
use adlp_dispute::{replay_window, ReplayContext};
use adlp_logger::durable::{DurabilityConfig, DurableLog, SNAPSHOT_FILE};
use adlp_logger::frame::encode_frame;
use adlp_logger::wal;
use adlp_logger::{
    ConflictProof, Direction, KeyRegistry, LogEntry, LogStore, MemStorage, Recorder,
    SignedTreeHead, Storage, Wire,
};
use adlp_pubsub::{NodeId, Topic};
use adlp_witness::{LogWitnessRecord, WitnessState};
use std::collections::BTreeMap;
use std::sync::Arc;

fn entry(seq: u64) -> Vec<u8> {
    LogEntry::naive(
        NodeId::new("camera"),
        Topic::new("image"),
        Direction::Out,
        seq,
        1_000 + seq,
        vec![seq as u8; 12],
    )
    .encode()
}

fn sth(epoch: u64, size: u64, root: &[u8], sig: u8) -> SignedTreeHead {
    SignedTreeHead {
        log: NodeId::new("logger"),
        epoch,
        size,
        root: adlp_crypto::sha256(root),
        signature: Signature::from_bytes(vec![sig; 24]),
    }
}

fn mem() -> (Arc<MemStorage>, Arc<dyn Storage>) {
    let mem = Arc::new(MemStorage::new());
    (Arc::clone(&mem), mem as Arc<dyn Storage>)
}

fn check(name: &str, actual: &[u8], golden: &str) {
    assert_eq!(hex::encode(actual), golden, "{name}: encoding moved");
}

const ENTRY_1: &str = "01000663616d65726105696d61676501e9070c010101010101010101010101";

#[test]
fn wal_record_and_file_bytes() {
    assert_eq!(hex::encode(&entry(1)), ENTRY_1);
    check(
        "wal record",
        &encode_frame(7, &entry(1)),
        "27000000a9835468070000000000000001000663616d65726105696d61676501e9070c010101010101010101010101",
    );
    let (mem, storage) = mem();
    let log = wal::open(storage, "wal");
    log.append(0, &entry(1)).unwrap();
    log.append(1, &entry(2)).unwrap();
    check(
        "wal file",
        &mem.read("wal").unwrap().unwrap(),
        "41444c5057414c312700000003a9709c000000000000000001000663616d65726105696d61676501e9070c01010101010101010101010127000000b37b6302010000000000000001000663616d65726105696d61676502ea070c020202020202020202020202",
    );
}

#[test]
fn recording_frame_file_and_window_bytes() {
    check(
        "recording frame",
        &encode_frame(5, &entry(1)),
        "27000000993b00ee050000000000000001000663616d65726105696d61676501e9070c010101010101010101010101",
    );
    let (mem, storage) = mem();
    let recorder = Recorder::new(storage, "rec");
    recorder.record(&entry(1));
    recorder.set_epoch(2);
    recorder.record(&entry(2));
    const TWO_FRAMES: &str = "41444c50524543312700000003a9709c000000000000000001000663616d65726105696d61676501e9070c010101010101010101010101270000005d63c594020000000000000001000663616d65726105696d61676502ea070c020202020202020202020202";
    check(
        "recording file",
        &mem.read("rec").unwrap().unwrap(),
        TWO_FRAMES,
    );

    // The transferable window is itself a complete recording, and its
    // deterministic re-audit is byte-stable.
    let window = recorder.extract_window(0, 2).unwrap();
    check("recording window", &window.bytes, TWO_FRAMES);
    let ctx = ReplayContext::new(KeyRegistry::new())
        .with_topology([(Topic::new("image"), NodeId::new("camera"))]);
    let report = replay_window(&window, &ctx).unwrap();
    assert!(report.sound());
    check(
        "replay_window canonical bytes (sha256)",
        adlp_crypto::sha256(&report.canonical_bytes()).as_bytes(),
        "3ccc536360cc85e67a07bb9b2804b490cbf1e618fbbc33cc5489d4719b500831",
    );
}

#[test]
fn snapshot_bytes() {
    let (mem, storage) = mem();
    let (mut log, store, _): (DurableLog, LogStore, _) =
        DurableLog::open(&DurabilityConfig::new(storage)).unwrap();
    for seq in 1..=2u64 {
        log.append(seq - 1, &entry(seq)).unwrap();
        store.append_encoded(entry(seq));
    }
    log.rotate(&store).unwrap();
    check(
        "ADLPSNP1 snapshot",
        &mem.read(SNAPSHOT_FILE).unwrap().unwrap(),
        "41444c50534e50310200000000000000a991c2ba7b4e6cf8caf39e19ae3562c750471c076bcc5ac468f8cb803a573b501f00000001000663616d65726105696d61676501e9070c0101010101010101010101011f00000001000663616d65726105696d61676502ea070c020202020202020202020202",
    );
}

#[test]
fn signed_tree_head_and_witness_state_bytes() {
    let head = sth(3, 7, b"root", 0xAB);
    check("signed tree head", &head.encode(), "41444c5053544831da9b51fa066c6f6767657203074813494d137e1631bba301d5acab6e7bb7aa74ce1185d456565ef51d737677b218abababababababababababababababababababababababab");

    let mut logs = BTreeMap::new();
    logs.insert(
        NodeId::new("logger"),
        LogWitnessRecord {
            anchor: sth(0, 3, b"a", 0x01),
            latest: sth(1, 8, b"b", 0x02),
            cosign_high_water: 8,
        },
    );
    let state = WitnessState {
        logs,
        proofs: vec![ConflictProof {
            first: sth(2, 5, b"x", 0x03),
            second: sth(3, 5, b"y", 0x04),
        }],
    };
    check("witness state", &state.encode(), "41444c505753543164d3aab7014e41444c5053544831366baba5066c6f676765720003ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb180101010101010101010101010101010101010101010101014e41444c50535448316e618a03066c6f6767657201083e23e8160039594a33894f6564e1b1348bbd7a0088d42c4acb73eeaed59c009d1802020202020202020202020202020202020202020202020208019e014e41444c505354483190aa5568066c6f6767657202052d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881180303030303030303030303030303030303030303030303034e41444c5053544831d544d4da066c6f676765720305a1fce4363854ff888cff4b8e7875d600c2682390412a8cf79b37d0b11148b0fa18040404040404040404040404040404040404040404040404");
}
