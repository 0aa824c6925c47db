//! The write-ahead log.
//!
//! The deposit path's durability contract — "no acknowledged entry is ever
//! lost" — is anchored here: the server appends an entry to the WAL (and,
//! under [`crate::durable::SyncPolicy::EveryAppend`], syncs it) *before*
//! acknowledging the deposit. Recovery replays the WAL on startup.
//!
//! The file is a framed append log ([`crate::frame`], which owns the
//! layout, the torn-tail rule and the repair rule) under the magic
//! `ADLPWAL1`; a frame's tag is the store index the entry was destined for
//! and its body is the encoded log entry.

use crate::frame::FrameLog;
use crate::storage::Storage;
use std::sync::Arc;

/// Identifies a WAL file on any [`Storage`] backend.
pub const WAL_MAGIC: &[u8; 8] = b"ADLPWAL1";

/// Binds the WAL `name` on `storage`; nothing is touched until the first
/// append/replay. Replay reports a wrong magic (the file is not a WAL) as
/// `LogError::Malformed("wal file (magic)")`.
pub fn open(storage: Arc<dyn Storage>, name: impl Into<String>) -> FrameLog {
    FrameLog::new(storage, name, WAL_MAGIC, "wal file (magic)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::LogReplay;
    use crate::storage::MemStorage;
    use crate::LogError;

    fn mem_wal() -> (Arc<MemStorage>, FrameLog) {
        let mem = Arc::new(MemStorage::new());
        let wal = open(mem.clone() as Arc<dyn Storage>, "wal");
        (mem, wal)
    }

    #[test]
    fn missing_file_is_empty() {
        let (_, wal) = mem_wal();
        assert_eq!(wal.replay().unwrap(), LogReplay::default());
    }

    #[test]
    fn wrong_magic_is_a_hard_error() {
        let (mem, wal) = mem_wal();
        mem.write_replace("wal", b"NOTAWAL1rest").unwrap();
        assert!(matches!(
            wal.replay(),
            Err(LogError::Malformed("wal file (magic)"))
        ));
        assert!(wal.append(0, b"never behind a foreign file").is_err());
    }

    #[test]
    fn reset_leaves_only_magic() {
        let (mem, wal) = mem_wal();
        wal.append(0, b"payload").unwrap();
        wal.reset().unwrap();
        assert_eq!(mem.read("wal").unwrap().unwrap(), WAL_MAGIC);
        assert!(wal.replay().unwrap().frames.is_empty());
        wal.append(1, b"next").unwrap();
        assert_eq!(wal.replay().unwrap().frames, [(1, b"next".to_vec())]);
    }
}
