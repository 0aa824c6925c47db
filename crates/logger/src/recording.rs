//! Recording of full signed message streams for replay forensics.
//!
//! A dispute over an audit verdict needs the *exact traffic the verdict
//! concerns*, not whatever happens to still be in a store: the recording
//! pipeline taps the deposit path and persists every encoded entry —
//! signatures and all — through the §3.9 [`Storage`] layer, tagged with
//! the epoch in force when it was deposited. Any `[epoch_from, epoch_to]`
//! window can later be extracted as a self-contained, transferable byte
//! blob and deterministically re-audited (see `adlp-dispute`).
//!
//! The file is a framed append log ([`crate::frame`], which owns the
//! layout, the torn-tail rule and the repair rule) under the magic
//! `ADLPREC1`; a frame's tag is the epoch and its body the encoded log
//! entry. A torn or truncated tail is **detected and counted, never
//! silently accepted** — a replayed recording always says whether it is
//! complete, so a truncated recording can never masquerade as a full
//! window (it is refused as dispute evidence instead of being mis-audited).
//!
//! Recording is an observability tap, not a durability gate: a failed
//! append is counted on the [`Recorder`] and never fails the deposit it
//! shadows.

use crate::frame::{self, FrameLog, LogReplay};
use crate::storage::Storage;
use crate::LogError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies a recording file on any [`Storage`] backend.
pub const RECORDING_MAGIC: &[u8; 8] = b"ADLPREC1";

const NOT_A_RECORDING: &str = "recording (magic)";

/// Frames between automatic syncs of a [`Recorder`]'s file.
const SYNC_EVERY: u64 = 32;

/// Replays recording bytes directly (the transferable-window path: a
/// dispute resolver receives bytes, not a storage device) into (epoch,
/// encoded entry) frames — signatures included, each entry exactly what
/// the logger was given. Accepts the longest valid prefix; a tail is
/// counted, never fatal, but a torn replay is **not** probative of
/// absence: frames behind the tear are unknowable.
///
/// # Errors
///
/// Returns [`LogError::Malformed`] only when the magic is wrong or absent
/// (including empty or shorter-than-magic input) — the bytes are not a
/// recording at all, as opposed to a recording that lost its tail.
pub fn replay_bytes(bytes: &[u8]) -> Result<LogReplay, LogError> {
    frame::decode_log(RECORDING_MAGIC, bytes, NOT_A_RECORDING)
}

/// A transferable slice of a recording: every frame whose epoch falls in
/// `[epoch_from, epoch_to]`, re-framed under the recording magic so the
/// window is itself a complete, checksummed recording. This is the byte
/// blob a dispute party posts as evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordingWindow {
    /// First epoch the window claims to cover (inclusive).
    pub epoch_from: u64,
    /// Last epoch the window claims to cover (inclusive).
    pub epoch_to: u64,
    /// A complete recording (magic ‖ frames) holding exactly the window's
    /// frames.
    pub bytes: Vec<u8>,
}

impl RecordingWindow {
    /// Builds a window from already-replayed (epoch, entry) frames.
    pub fn from_frames<'a>(
        epoch_from: u64,
        epoch_to: u64,
        frames: impl IntoIterator<Item = &'a (u64, Vec<u8>)>,
    ) -> Self {
        let mut bytes = RECORDING_MAGIC.to_vec();
        for (epoch, entry) in frames {
            bytes.extend_from_slice(&frame::encode_frame(*epoch, entry));
        }
        RecordingWindow {
            epoch_from,
            epoch_to,
            bytes,
        }
    }

    /// Replays the window's own bytes. A window whose replay is torn, or
    /// whose frames stray outside the claimed `[epoch_from, epoch_to]`, is
    /// corrupt or dishonestly assembled; `verify` distinguishes that.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when the bytes are not a recording.
    pub fn replay(&self) -> Result<LogReplay, LogError> {
        replay_bytes(&self.bytes)
    }

    /// Whether the window is internally sound: replays without a torn
    /// tail, and every frame's epoch lies inside the claimed range. This
    /// is the *integrity* check — it cannot prove the window is complete
    /// (only a counterpart recording could contradict it), but a window
    /// failing it must never be treated as probative.
    pub fn verify(&self) -> bool {
        let claimed = self.epoch_from..=self.epoch_to;
        self.replay()
            .is_ok_and(|r| !r.torn() && r.frames.iter().all(|(epoch, _)| claimed.contains(epoch)))
    }
}

/// Records encoded entries (with the epoch in force) into one file of a
/// [`Storage`] backend, syncing every 32 frames. Cloneable-by-`Arc`; safe
/// to share across the server thread and epoch-sealing callers.
#[derive(Debug)]
pub struct Recorder {
    log: FrameLog,
    epoch: AtomicU64,
    since_sync: AtomicU64,
    /// Failures are visible, never fatal.
    frames: AtomicU64,
    failed: AtomicU64,
}

impl Recorder {
    /// Binds a recorder to `name` on `storage`, starting at epoch 0.
    /// Nothing is touched until the first record.
    pub fn new(storage: Arc<dyn Storage>, name: impl Into<String>) -> Self {
        Recorder {
            log: FrameLog::new(storage, name, RECORDING_MAGIC, NOT_A_RECORDING),
            epoch: AtomicU64::new(0),
            since_sync: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    /// Sets the epoch subsequently recorded frames are tagged with (driven
    /// by epoch sealing).
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
    }

    /// The epoch currently in force.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Frames successfully recorded.
    pub fn frames_recorded(&self) -> u64 {
        self.frames.load(Ordering::SeqCst)
    }

    /// Append/sync failures (counted; the deposit they shadowed was not
    /// affected).
    pub fn failures(&self) -> u64 {
        self.failed.load(Ordering::SeqCst)
    }

    /// Records one encoded entry under the current epoch. Device failures
    /// are counted, never propagated: recording must not take down the
    /// deposit path it observes. A torn append is truncated away before the
    /// next one ([`FrameLog::append`]), so one failure costs one frame.
    pub fn record(&self, encoded: &[u8]) {
        let write = self.log.append(self.epoch(), encoded).and_then(|()| {
            let due = self.since_sync.fetch_add(1, Ordering::SeqCst) + 1;
            if due >= SYNC_EVERY {
                self.since_sync.store(0, Ordering::SeqCst);
                self.log.sync()?;
            }
            Ok(())
        });
        let outcome = if write.is_ok() {
            &self.frames
        } else {
            &self.failed
        };
        outcome.fetch_add(1, Ordering::SeqCst);
    }

    /// Makes every recorded frame durable.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the device refuses the sync.
    pub fn sync(&self) -> Result<(), LogError> {
        self.log.sync()
    }

    /// Replays the whole recording from storage (longest valid prefix;
    /// tails counted, never fatal; a missing file is an empty recording,
    /// and a file cut short inside its magic is a counted torn first
    /// append).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when the file is not a recording,
    /// or [`LogError::Io`] when the device fails.
    pub fn replay(&self) -> Result<LogReplay, LogError> {
        self.log.replay()
    }

    /// Extracts the transferable `[epoch_from, epoch_to]` window from this
    /// recording.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] for a malformed range or a file
    /// that is not a recording, and [`LogError::Io`] on device failure.
    pub fn extract_window(
        &self,
        epoch_from: u64,
        epoch_to: u64,
    ) -> Result<RecordingWindow, LogError> {
        if epoch_from > epoch_to {
            return Err(LogError::Malformed("recording window (range)"));
        }
        let replay = self.replay()?;
        let frames = replay
            .frames
            .iter()
            .filter(|(epoch, _)| (epoch_from..=epoch_to).contains(epoch));
        Ok(RecordingWindow::from_frames(epoch_from, epoch_to, frames))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn mem_recorder() -> (Arc<MemStorage>, Recorder) {
        let mem = Arc::new(MemStorage::new());
        let rec = Recorder::new(mem.clone() as Arc<dyn Storage>, "rec");
        (mem, rec)
    }

    #[test]
    fn record_replay_roundtrip_with_epochs() {
        let (_, rec) = mem_recorder();
        rec.record(b"entry-a");
        rec.set_epoch(3);
        rec.record(b"entry-b");
        rec.record(b"entry-c");
        let replay = rec.replay().unwrap();
        assert_eq!(replay.frames.len(), 3);
        assert!(!replay.torn());
        assert_eq!(replay.frames[0].0, 0);
        assert_eq!(replay.frames[1].0, 3);
        assert_eq!(replay.frames[2], (3, b"entry-c".to_vec()));
        assert_eq!(rec.frames_recorded(), 3);
        assert_eq!(rec.failures(), 0);
    }

    #[test]
    fn a_window_without_a_magic_is_not_an_empty_recording() {
        let window = RecordingWindow {
            epoch_from: 0,
            epoch_to: 0,
            bytes: Vec::new(),
        };
        assert!(!window.verify());
        // The magic alone is a valid (empty) recording — a real window
        // with no frames in range.
        let empty = RecordingWindow::from_frames(0, 0, []);
        assert!(empty.verify());
    }

    #[test]
    fn concurrent_first_records_write_exactly_one_magic() {
        use std::sync::Barrier;
        for _ in 0..16 {
            let mem = Arc::new(MemStorage::new());
            let rec = Arc::new(Recorder::new(mem.clone() as Arc<dyn Storage>, "rec"));
            let threads = 4;
            let barrier = Arc::new(Barrier::new(threads));
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let rec = Arc::clone(&rec);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        rec.record(&[i as u8; 16]);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let replay = rec.replay().unwrap();
            assert!(!replay.torn(), "a doubled magic tears the replay");
            assert_eq!(replay.frames.len(), threads);
        }
    }

    #[test]
    fn window_extraction_is_a_complete_recording() {
        let (_, rec) = mem_recorder();
        for epoch in 0..4u64 {
            rec.set_epoch(epoch);
            rec.record(format!("entry-{epoch}").as_bytes());
        }
        let window = rec.extract_window(1, 2).unwrap();
        assert!(window.verify());
        let replay = window.replay().unwrap();
        assert_eq!(replay.frames.len(), 2);
        assert!(replay
            .frames
            .iter()
            .all(|(epoch, _)| (1..=2).contains(epoch)));
    }

    #[test]
    fn truncated_window_fails_verification() {
        let (_, rec) = mem_recorder();
        rec.set_epoch(1);
        rec.record(b"only-frame-here");
        let mut window = rec.extract_window(1, 1).unwrap();
        window.bytes.truncate(window.bytes.len() - 3);
        assert!(!window.verify());
    }

    #[test]
    fn window_with_out_of_range_epoch_fails_verification() {
        let window = RecordingWindow::from_frames(1, 2, [&(9, b"smuggled".to_vec())]);
        assert!(!window.verify());
    }

    #[test]
    fn inverted_range_is_malformed() {
        let (_, rec) = mem_recorder();
        assert!(matches!(
            rec.extract_window(2, 1),
            Err(LogError::Malformed(_))
        ));
    }

    #[test]
    fn recording_failures_are_counted_not_fatal() {
        use crate::storage::{FaultyStorage, StorageFaultConfig};
        let mut plan = StorageFaultConfig::none(7);
        // First touch (read, size probe) + append for the first record,
        // then die.
        plan.die_after_ops = Some(3);
        let dev = Arc::new(FaultyStorage::new(Arc::new(MemStorage::new()), plan));
        let rec = Recorder::new(dev as Arc<dyn Storage>, "rec");
        rec.record(b"ok");
        rec.record(b"lost");
        assert_eq!(rec.frames_recorded(), 1);
        assert_eq!(rec.failures(), 1);
    }

    #[test]
    fn a_torn_frame_costs_one_frame_not_everything_behind_it() {
        use crate::storage::{FaultyStorage, StorageFaultConfig};
        for seed in 0..4 {
            let mut plan = StorageFaultConfig::none(seed);
            plan.torn_write_rate = 0.2;
            let dev = Arc::new(FaultyStorage::new(Arc::new(MemStorage::new()), plan));
            let rec = Recorder::new(dev.clone() as Arc<dyn Storage>, "rec");
            let mut kept = Vec::new();
            for i in 0..32u8 {
                let failures = rec.failures();
                rec.record(&[i; 16]);
                if rec.failures() == failures {
                    kept.push(i);
                }
            }
            let torn = dev.injected().torn_writes;
            assert!(torn > 0, "seed {seed} tore nothing");
            assert_eq!(rec.failures(), torn);
            // Every tear was truncated away before the next append, so each
            // cost exactly its own frame and nothing landed behind debris.
            let replay = rec.replay().unwrap();
            assert!(!replay.torn(), "seed {seed}: a tear was left in place");
            let replayed: Vec<u8> = replay.frames.iter().map(|(_, entry)| entry[0]).collect();
            assert_eq!(replayed, kept, "seed {seed}: frames hidden behind a tear");
        }
    }

    #[test]
    fn power_cut_mid_first_append_is_a_counted_empty_torn_recording() {
        // Only a prefix of the magic reached the device. From storage this
        // is a recording that lost its first append — counted, like the
        // WAL — while the same bytes offered as *evidence* stay refused.
        let (mem, rec) = mem_recorder();
        mem.append("rec", &RECORDING_MAGIC[..5]).unwrap();
        let replay = rec.replay().unwrap();
        assert!(replay.frames.is_empty());
        assert!(replay.torn());
        assert_eq!((replay.frames_truncated, replay.bytes_truncated), (1, 5));
        assert!(matches!(
            replay_bytes(&RECORDING_MAGIC[..5]),
            Err(LogError::Malformed("recording (magic)"))
        ));
        // And the next record repairs the file instead of landing behind it.
        rec.record(b"first real frame");
        let replay = rec.replay().unwrap();
        assert!(!replay.torn());
        assert_eq!(replay.frames.len(), 1);
    }
}
