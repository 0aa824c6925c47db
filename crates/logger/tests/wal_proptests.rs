//! Property test for WAL crash recovery end to end: whatever suffix of the
//! WAL file a crash destroys, `DurableLog::open` recovers exactly the
//! records wholly before the cut, counts the loss, and leaves a log that
//! keeps accepting (and keeping) appends. The format-level corruption
//! cases — every-byte flips, truncation at every prefix, padding — live in
//! the suite shared by every format, `frame_props.rs`.

use adlp_logger::durable::{DurabilityConfig, DurableLog, WAL_FILE};
use adlp_logger::{Direction, LogEntry, MemStorage, Storage};
use adlp_pubsub::{NodeId, Topic};
use proptest::prelude::*;
use std::sync::Arc;

fn entry(seq: u64, payload: Vec<u8>) -> Vec<u8> {
    LogEntry::naive(
        NodeId::new("cam"),
        Topic::new("image"),
        Direction::Out,
        seq,
        seq,
        payload,
    )
    .encode()
}

proptest! {
    #[test]
    fn any_cut_recovers_the_longest_valid_prefix_and_appends_on(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 1..12),
        cut_seed in any::<usize>(),
    ) {
        let entries: Vec<Vec<u8>> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, p)| entry(i as u64, p))
            .collect();
        let mem = Arc::new(MemStorage::new());
        let config = DurabilityConfig::new(mem.clone() as Arc<dyn Storage>).rotate_every(0);
        let (mut log, _, _) = DurableLog::open(&config).unwrap();
        for (i, e) in entries.iter().enumerate() {
            log.append(i as u64, e).unwrap();
        }
        drop(log);

        // Opening wrote the magic; the records follow it.
        let bytes = mem.read(WAL_FILE).unwrap().unwrap();
        let cut = 8 + cut_seed % (bytes.len() - 8 + 1);
        mem.write_replace(WAL_FILE, &bytes[..cut]).unwrap();
        let mut end = 8;
        let mut whole = 0;
        for e in &entries {
            if end + 16 + e.len() > cut {
                break;
            }
            end += 16 + e.len();
            whole += 1;
        }

        let (mut log, store, recovery) = DurableLog::open(&config).unwrap();
        prop_assert_eq!(store.encoded_records(), entries[..whole].to_vec());
        prop_assert_eq!(recovery.wal_replayed, whole);
        prop_assert_eq!(recovery.records_truncated, u64::from(cut > end));
        prop_assert_eq!(recovery.bytes_truncated, (cut - end) as u64);

        // The recovered log appends at the repaired boundary, and the new
        // record survives the next restart.
        let next = entry(whole as u64, vec![0xAB; 9]);
        log.append(whole as u64, &next).unwrap();
        drop(log);
        let (_, store, recovery) = DurableLog::open(&config).unwrap();
        prop_assert_eq!(store.len(), whole + 1);
        prop_assert_eq!(store.encoded_records().pop(), Some(next));
        prop_assert_eq!(recovery.records_truncated, 0);
    }
}
