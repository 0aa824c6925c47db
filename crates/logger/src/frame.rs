//! The two on-disk shapes every durable artifact in the workspace uses
//! (DESIGN.md §3.9, "Framing and durable state").
//!
//! ```text
//! framed append log := magic ‖ frame*
//! frame             := u32 LE payload_len ‖ checksum4(payload) ‖ payload
//! payload           := u64 LE tag ‖ body
//!
//! sealed blob       := magic ‖ checksum4(payload) ‖ payload   (whole buffer)
//! ```
//!
//! `checksum4` is the first four bytes of SHA-256 over the payload: a torn
//! or bit-flipped tail is detected without trusting a length prefix alone.
//!
//! **Framed append log** ([`FrameLog`]; the WAL and the forensic recording).
//! Each frame is appended as one buffer, so a torn write tears one frame,
//! never interleaves two. Replay accepts the longest valid frame prefix and
//! *counts* everything behind the first bad frame — it never panics, and
//! only a wrong magic is a hard error (that file is something else, not a
//! log that lost its tail). One rule keeps later appends reachable:
//! **repair before the next append** — after a failed append, and the first
//! time a handle touches an existing file, the file is truncated back to
//! the last good frame boundary; if that cannot be done the handle refuses
//! every further append rather than land one behind debris replay would
//! never reach.
//!
//! **Sealed blob** ([`seal`] / [`decode_sealed`]; signed tree heads and every
//! write-replace state file through [`DurableCell`]). The checksum covers
//! everything after the header, so truncation and padding both fail it; the
//! payload's own decoder must consume the payload exactly. A type whose
//! whole-buffer form is a sealed blob names its magic on its
//! [`Wire`] impl, so sealing and unsealing happen in `Wire::encode` /
//! `Wire::decode` and nowhere else.

use crate::encoding::Wire;
use crate::storage::Storage;
use crate::LogError;
use adlp_crypto::sha256::Sha256;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::Arc;

/// Upper bound on one frame's payload, so a corrupted length prefix cannot
/// trigger a huge allocation (the snapshot format caps its records at the
/// same value).
pub const MAX_PAYLOAD_LEN: usize = 128 * 1024 * 1024;

const MAGIC_LEN: usize = 8;
const TAG_LEN: usize = 8;
/// Length prefix plus checksum.
const FRAME_HEADER_LEN: usize = 8;

/// First four bytes of SHA-256 over the concatenation of `parts`. A cheap
/// corruption tripwire, not a signature: whatever needs authenticity
/// carries its own.
pub fn checksum4(parts: &[&[u8]]) -> [u8; 4] {
    let mut hasher = Sha256::new();
    for part in parts {
        hasher.update(part);
    }
    let digest = hasher.finalize();
    let mut out = [0u8; 4];
    for (dst, src) in out.iter_mut().zip(digest.as_bytes()) {
        *dst = *src;
    }
    out
}

/// Encodes one frame (length ‖ checksum ‖ tag ‖ body) into a single buffer.
/// A body too large for [`MAX_PAYLOAD_LEN`] yields a frame no decoder
/// accepts; [`FrameLog::append`] refuses such a body up front.
pub fn encode_frame(tag: u64, body: &[u8]) -> Vec<u8> {
    let tag = tag.to_le_bytes();
    let len = u32::try_from(TAG_LEN + body.len()).unwrap_or(u32::MAX);
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + TAG_LEN + body.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&checksum4(&[&tag, body]));
    out.extend_from_slice(&tag);
    out.extend_from_slice(body);
    out
}

/// Decodes the frame starting at `bytes`: its tag, its body and how many
/// bytes it occupied, or `None` when the bytes do not form a complete,
/// checksum-valid frame (a torn tail, from the caller's viewpoint).
pub fn decode_frame(bytes: &[u8]) -> Option<(u64, &[u8], usize)> {
    let (len_bytes, rest) = bytes.split_at_checked(4)?;
    let (check, rest) = rest.split_at_checked(4)?;
    let len = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
    if !(TAG_LEN..=MAX_PAYLOAD_LEN).contains(&len) {
        return None;
    }
    let payload = rest.get(..len)?;
    if checksum4(&[payload]) != check {
        return None;
    }
    let (tag, body) = payload.split_at_checked(TAG_LEN)?;
    Some((
        u64::from_le_bytes(tag.try_into().ok()?),
        body,
        FRAME_HEADER_LEN + len,
    ))
}

/// Outcome of replaying a framed log: the longest valid frame prefix plus
/// an account of what the torn tail (if any) cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogReplay {
    /// Valid frames as (tag, body), in file order.
    pub frames: Vec<(u64, Vec<u8>)>,
    /// Frames discarded from the tail (a tear can hide further frames
    /// behind it, so this counts *at least* the first unreadable one).
    pub frames_truncated: u64,
    /// Bytes discarded from the tail.
    pub bytes_truncated: u64,
    /// Offset where the valid prefix ends (magic included) — the boundary
    /// the repair rule truncates back to.
    pub good_bytes: u64,
}

impl LogReplay {
    /// Whether the log carried a torn/corrupt tail.
    pub fn torn(&self) -> bool {
        self.bytes_truncated > 0
    }
}

/// Replays a framed log held as plain bytes (transferable evidence, not a
/// device file). Accepts the longest valid prefix; tails are counted,
/// never fatal.
///
/// # Errors
///
/// Returns [`LogError::Malformed`]`(what)` when the magic is wrong or
/// absent — including empty and shorter-than-magic input. Every real log
/// starts with its magic, so bytes without one must never "verify" as an
/// (empty) log. Only a *device file* that short is a torn first append:
/// see [`FrameLog::replay`].
pub fn decode_log(
    magic: &[u8; MAGIC_LEN],
    bytes: &[u8],
    what: &'static str,
) -> Result<LogReplay, LogError> {
    let Some(mut rest) = bytes.strip_prefix(magic.as_slice()) else {
        return Err(LogError::Malformed(what));
    };
    let mut replay = LogReplay {
        good_bytes: MAGIC_LEN as u64,
        ..LogReplay::default()
    };
    while !rest.is_empty() {
        let Some((tag, body, consumed)) = decode_frame(rest) else {
            replay.frames_truncated = 1;
            replay.bytes_truncated = rest.len() as u64;
            break;
        };
        replay.frames.push((tag, body.to_vec()));
        replay.good_bytes += consumed as u64;
        rest = rest.get(consumed..).unwrap_or(&[]);
    }
    Ok(replay)
}

/// What a [`FrameLog`] handle knows about the end of its file.
#[derive(Debug, Clone, Copy)]
enum Tail {
    /// Not looked at yet: the next append replays first.
    Unknown,
    /// The valid prefix ends at this offset but the file may run past it:
    /// the next append repairs first.
    Dirty(u64),
    /// The file ends on a frame boundary at this offset (0: no file yet,
    /// the next append writes the magic too).
    At(u64),
    /// A torn tail could not be truncated away; appends are refused.
    Broken,
}

/// A framed append log in one file of a [`Storage`] backend. The handle
/// owns the file's tail: it must be the file's only appender.
#[derive(Debug)]
pub struct FrameLog {
    storage: Arc<dyn Storage>,
    name: String,
    magic: &'static [u8; MAGIC_LEN],
    /// Label of the [`LogError::Malformed`] a wrong magic raises.
    what: &'static str,
    /// Also serializes appends: two concurrent first appends must not both
    /// write the magic.
    tail: Mutex<Tail>,
}

impl FrameLog {
    /// Binds a log to `name` on `storage`; nothing is touched until the
    /// first append/replay.
    pub fn new(
        storage: Arc<dyn Storage>,
        name: impl Into<String>,
        magic: &'static [u8; MAGIC_LEN],
        what: &'static str,
    ) -> Self {
        FrameLog {
            storage,
            name: name.into(),
            magic,
            what,
            tail: Mutex::new(Tail::Unknown),
        }
    }

    /// Appends one frame as a single write (the very first carries the
    /// magic in the same buffer, so a tear cannot split magic from frame).
    /// A failed append is repaired before this returns.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the device fails — the frame is *not*
    /// in the log — or when an earlier tear could not be repaired, and
    /// [`LogError::Malformed`] for a body over [`MAX_PAYLOAD_LEN`] or a
    /// file that is not this kind of log.
    pub fn append(&self, tag: u64, body: &[u8]) -> Result<(), LogError> {
        if body.len() > MAX_PAYLOAD_LEN - TAG_LEN {
            return Err(LogError::Malformed("frame (oversized)"));
        }
        let mut tail = self.tail.lock();
        if matches!(*tail, Tail::Unknown) {
            *tail = Tail::Dirty(self.read_log()?.good_bytes);
        }
        if let Tail::Dirty(good) = *tail {
            *tail = self.repaired(good);
        }
        let Tail::At(good) = *tail else {
            return Err(LogError::Io(format!(
                "{}: appends disabled, unrepairable torn tail",
                self.name
            )));
        };
        let mut buf = encode_frame(tag, body);
        if good == 0 {
            buf.splice(0..0, self.magic.iter().copied());
        }
        let written = self.storage.append(&self.name, &buf);
        *tail = match written {
            Ok(()) => Tail::At(good + buf.len() as u64),
            Err(_) => self.repaired(good),
        };
        written
    }

    /// The repair rule: truncate the file back to the frame boundary at
    /// `good`. The size probe comes first because truncating a file that a
    /// wholly failed first append never created is itself an error — and
    /// when the tail's length cannot be learned at all the log is broken,
    /// since appending blind could land a frame behind an unrepaired tear.
    fn repaired(&self, good: u64) -> Tail {
        match self.storage.size_of(&self.name) {
            Ok(len) if len.unwrap_or(0) <= good => Tail::At(good),
            Ok(_) if self.storage.truncate(&self.name, good).is_ok() => Tail::At(good),
            _ => Tail::Broken,
        }
    }

    /// Whether an unrepairable tear has disabled appends.
    pub fn is_broken(&self) -> bool {
        matches!(*self.tail.lock(), Tail::Broken)
    }

    /// Makes all appended frames durable.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the device refuses the sync.
    pub fn sync(&self) -> Result<(), LogError> {
        self.storage.sync(&self.name)
    }

    /// Reads the whole file, accepting the longest valid frame prefix. A
    /// missing file is an empty log, and a file shorter than the magic is
    /// a counted torn *first* append (a power cut mid-write), not a foreign
    /// file. The file itself is not modified; the next append repairs it,
    /// from the boundary found here rather than by reading the file again.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] only when the magic is wrong, or
    /// [`LogError::Io`] when the device fails.
    pub fn replay(&self) -> Result<LogReplay, LogError> {
        let mut tail = self.tail.lock();
        let replay = self.read_log()?;
        if matches!(*tail, Tail::Unknown) {
            *tail = Tail::Dirty(replay.good_bytes);
        }
        Ok(replay)
    }

    fn read_log(&self) -> Result<LogReplay, LogError> {
        match self.storage.read(&self.name)? {
            None => Ok(LogReplay::default()),
            Some(bytes) if bytes.len() < MAGIC_LEN => Ok(LogReplay {
                frames_truncated: u64::from(!bytes.is_empty()),
                bytes_truncated: bytes.len() as u64,
                ..LogReplay::default()
            }),
            Some(bytes) => decode_log(self.magic, &bytes, self.what),
        }
    }

    /// Atomically resets the file to just its magic.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the device fails; the old frames are
    /// then still in place.
    pub fn reset(&self) -> Result<(), LogError> {
        let mut tail = self.tail.lock();
        self.storage.write_replace(&self.name, self.magic)?;
        *tail = Tail::At(MAGIC_LEN as u64);
        Ok(())
    }
}

/// Seals `payload` as a whole-buffer blob: `magic ‖ checksum4 ‖ payload`.
pub fn seal(magic: &[u8; MAGIC_LEN], payload: &[u8]) -> Vec<u8> {
    [magic.as_slice(), &checksum4(&[payload]), payload].concat()
}

/// Opens a sealed blob, returning its payload.
///
/// # Errors
///
/// Returns [`LogError::Malformed`] for a wrong magic, a checksum mismatch
/// (padding included), or a buffer too short to hold either.
pub fn decode_sealed<'a>(magic: &[u8; MAGIC_LEN], bytes: &'a [u8]) -> Result<&'a [u8], LogError> {
    bytes
        .split_at_checked(MAGIC_LEN)
        .filter(|(head, _)| head == magic)
        .and_then(|(_, rest)| rest.split_at_checked(4))
        .filter(|(check, payload)| checksum4(&[payload]) == *check)
        .map(|(_, payload)| payload)
        .ok_or(LogError::Malformed("sealed blob"))
}

/// A small piece of restart-critical state kept as one sealed blob in one
/// file, replaced atomically on every change — the "record first, speak
/// second" cell the attestor, the witness and the dispute ledger share. The
/// file is the value's [`Wire::encode`], sealed under the magic its type
/// declares.
#[derive(Debug, Clone)]
pub struct DurableCell<T> {
    storage: Arc<dyn Storage>,
    name: String,
    value: PhantomData<fn() -> T>,
}

impl<T: Wire> DurableCell<T> {
    /// Binds a cell to `name` on `storage`; nothing is touched yet.
    pub fn new(storage: Arc<dyn Storage>, name: impl Into<String>) -> Self {
        const { assert!(T::MAGIC.is_some(), "a durable cell holds a sealed blob") };
        DurableCell {
            storage,
            name: name.into(),
            value: PhantomData,
        }
    }

    /// Loads the stored value. The one load rule: an absent file is a
    /// fresh start (`None`); a present file must unseal and decode — an
    /// empty or damaged file is never "no state yet", because resuming
    /// blank over lost state is the failure the cell exists to prevent.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the device refuses the read and
    /// [`LogError::Malformed`] when the file does not unseal and decode.
    pub fn load(&self) -> Result<Option<T>, LogError> {
        self.storage
            .read(&self.name)?
            .map(|bytes| T::decode(&bytes))
            .transpose()
    }

    /// Atomically replaces the file with `value`; durable once this
    /// returns `Ok`.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the device fails; the previous
    /// contents are then intact.
    pub fn store(&self, value: &T) -> Result<(), LogError> {
        self.storage.write_replace(&self.name, &value.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sth::SignedTreeHead;
    use crate::storage::{FaultyStorage, MemStorage, StorageFaultConfig};

    const MAGIC: &[u8; 8] = b"ADLPTST1";

    /// A log file holding one good frame, on a device that dies after
    /// `ops` operations (every append before that tearing, if `torn`).
    fn one_frame_log(ops: u64, torn: bool) -> (Arc<MemStorage>, Arc<FaultyStorage>, FrameLog) {
        let mem = Arc::new(MemStorage::new());
        mem.write_replace("log", &[&MAGIC[..], &encode_frame(0, b"kept")].concat())
            .unwrap();
        let plan = StorageFaultConfig {
            torn_write_rate: if torn { 1.0 } else { 0.0 },
            die_after_ops: Some(ops),
            ..StorageFaultConfig::none(3)
        };
        let dev = Arc::new(FaultyStorage::new(mem.clone(), plan));
        let log = FrameLog::new(
            dev.clone() as Arc<dyn Storage>,
            "log",
            MAGIC,
            "test log (magic)",
        );
        (mem, dev, log)
    }

    #[test]
    fn replay_seeds_the_tail_so_the_first_append_does_not_read_again() {
        // Exactly three operations: replay's read, then the append's size
        // probe and write. A second whole-file read would find a dead device.
        let (mem, _, log) = one_frame_log(3, false);
        assert_eq!(log.replay().unwrap().frames.len(), 1);
        log.append(1, b"lands on the replayed boundary").unwrap();
        let file = mem.read("log").unwrap().unwrap();
        assert_eq!(decode_log(MAGIC, &file, "").unwrap().frames.len(), 2);
    }

    #[test]
    fn unrepairable_tear_refuses_further_appends_even_once_the_device_heals() {
        // Three operations — first touch (read, size probe), then a torn
        // append — and the device is dead when the repair probes the tail.
        let (mem, dev, log) = one_frame_log(3, true);
        assert!(log.append(1, b"torn, and the repair fails too").is_err());
        assert!(log.is_broken());
        // The device heals, but this handle never learned where the tear
        // starts: it must not land a frame behind the debris.
        dev.heal();
        let debris = mem.read("log").unwrap();
        assert!(log
            .append(2, b"refused without touching the device")
            .is_err());
        assert_eq!(mem.read("log").unwrap(), debris);
        assert!(log.replay().unwrap().torn());
        // A restarted handle repairs on first touch and carries on.
        let reopened = FrameLog::new(dev as Arc<dyn Storage>, "log", MAGIC, "test log (magic)");
        reopened.append(2, b"after the repair").unwrap();
        let replay = reopened.replay().unwrap();
        let tags: Vec<u64> = replay.frames.iter().map(|(tag, _)| *tag).collect();
        assert_eq!((tags, replay.torn()), (vec![0, 2], false));
    }

    #[test]
    fn cell_load_is_absent_fresh_present_must_unseal() {
        let head = SignedTreeHead {
            log: adlp_pubsub::NodeId::new("logger"),
            epoch: 1,
            size: 2,
            root: adlp_crypto::sha256(b"root"),
            signature: adlp_crypto::Signature::from_bytes(vec![7; 8]),
        };
        let mem = Arc::new(MemStorage::new());
        let cell = DurableCell::<SignedTreeHead>::new(mem.clone() as Arc<dyn Storage>, "cell");
        assert_eq!(cell.load().unwrap(), None);
        cell.store(&head).unwrap();
        assert_eq!(mem.read("cell").unwrap(), Some(head.encode()));
        assert_eq!(cell.load().unwrap().as_ref(), Some(&head));
        mem.crash();
        assert_eq!(cell.load().unwrap().as_ref(), Some(&head));
        // Present but empty is lost state, not a fresh start.
        mem.write_replace("cell", b"").unwrap();
        assert!(matches!(cell.load(), Err(LogError::Malformed(_))));
    }
}
