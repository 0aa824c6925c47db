//! Deterministic re-audit of recorded traffic windows.
//!
//! A resolver never trusts a report handed to it — it re-derives one from
//! the recorded bytes. [`replay_window`] turns a [`RecordingWindow`] into a
//! [`ReplayReport`] by a pipeline that is deterministic in the *multiset of
//! frames*, not their order or duplication:
//!
//! 1. replay the window's checksummed framing (torn tails detected, never
//!    mis-audited);
//! 2. drop byte-identical duplicate frames (cluster fan-out records one
//!    deposit once per replica — duplication is expected, and counted);
//! 3. decode entries, counting undecodable ones instead of guessing;
//! 4. sort entries by a total order over their content;
//! 5. run the real auditor over the result.
//!
//! Two replays of the same window — on different machines, by different
//! resolvers — produce byte-identical [`ReplayReport::canonical_bytes`].

use std::collections::BTreeSet;

use adlp_audit::{canonical_report_bytes, AuditReport, Auditor};
use adlp_logger::encoding::write_uvarint;
use adlp_logger::{Direction, KeyRegistry, LogEntry, LogError, RecordingWindow};
use adlp_pubsub::{NodeId, Topic};

/// Everything a replay needs besides the recording itself: the key
/// registry entries were signed under, and the topic→publisher topology
/// the auditor checks impersonation against.
#[derive(Debug, Clone)]
pub struct ReplayContext {
    keys: KeyRegistry,
    topology: Vec<(Topic, NodeId)>,
}

impl ReplayContext {
    /// A context with the given registry and no topology.
    pub fn new(keys: KeyRegistry) -> Self {
        ReplayContext {
            keys,
            topology: Vec::new(),
        }
    }

    /// Adds the topic→publisher topology.
    pub fn with_topology(mut self, topology: impl IntoIterator<Item = (Topic, NodeId)>) -> Self {
        self.topology = topology.into_iter().collect();
        self
    }

    fn auditor(&self) -> Auditor {
        Auditor::new(self.keys.clone()).with_topology(self.topology.iter().cloned())
    }
}

/// The outcome of deterministically re-auditing one recording window.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Frames recovered from the recording framing.
    pub frames: usize,
    /// Distinct entries actually audited (after dedup, minus undecodable).
    pub entries: usize,
    /// Byte-identical duplicate frames dropped.
    pub duplicates: u64,
    /// Frames whose payload did not decode as a log entry.
    pub undecodable: u64,
    /// Whether the recording ended in a torn (checksum-failing) tail.
    pub torn: bool,
    /// The re-derived audit report.
    pub report: AuditReport,
}

impl ReplayReport {
    /// Whether the replay is *sound* enough to be probative: nothing torn,
    /// nothing undecodable. An unsound replay still reports what it could
    /// recover, but a resolver must not let it overturn anything.
    pub fn sound(&self) -> bool {
        !self.torn && self.undecodable == 0
    }

    /// Byte-deterministic serialization: counters plus the canonical audit
    /// report. Two sound replays of the same window compare equal with
    /// `==` on these bytes.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(b"ADLPRPL1");
        write_uvarint(&mut out, self.frames as u64);
        write_uvarint(&mut out, self.entries as u64);
        write_uvarint(&mut out, self.duplicates);
        write_uvarint(&mut out, self.undecodable);
        out.push(u8::from(self.torn));
        out.extend_from_slice(&canonical_report_bytes(&self.report));
        out
    }
}

fn direction_byte(d: Direction) -> u8 {
    match d {
        Direction::Out => 0,
        Direction::In => 1,
    }
}

/// Re-audits a recording window. Deterministic in the frame multiset: any
/// permutation or duplication of the same frames yields byte-identical
/// [`ReplayReport::canonical_bytes`].
///
/// # Errors
///
/// Returns [`LogError::Malformed`] when the window's bytes are not a
/// recording at all (wrong magic). Torn tails and undecodable frames are
/// *not* errors — they are counted and reflected in [`ReplayReport::sound`].
pub fn replay_window(
    window: &RecordingWindow,
    ctx: &ReplayContext,
) -> Result<ReplayReport, LogError> {
    let replay = window.replay()?;
    let frames = replay.frames.len();
    let torn = replay.torn();

    // Dedup byte-identical (epoch, entry) frames: the cluster records one
    // logical deposit once per replica that accepted it.
    let mut seen: BTreeSet<(u64, &[u8])> = BTreeSet::new();
    let mut duplicates = 0u64;
    let mut undecodable = 0u64;
    let mut entries: Vec<(Vec<u8>, LogEntry)> = Vec::new();
    for (epoch, bytes) in &replay.frames {
        if !seen.insert((*epoch, bytes.as_slice())) {
            duplicates += 1;
            continue;
        }
        match LogEntry::decode(bytes) {
            Ok(entry) => entries.push((bytes.clone(), entry)),
            Err(_) => undecodable += 1,
        }
    }

    // Total order over entry content so audit input order is canonical.
    entries.sort_by(|(abytes, a), (bbytes, b)| {
        (
            a.component.as_str(),
            a.topic.as_str(),
            direction_byte(a.direction),
            a.seq,
        )
            .cmp(&(
                b.component.as_str(),
                b.topic.as_str(),
                direction_byte(b.direction),
                b.seq,
            ))
            .then_with(|| abytes.cmp(bbytes))
    });
    let ordered: Vec<LogEntry> = entries.iter().map(|(_, e)| e.clone()).collect();

    let report = ctx.auditor().audit(&ordered);
    Ok(ReplayReport {
        frames,
        entries: ordered.len(),
        duplicates,
        undecodable,
        torn,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(component: &str, topic: &str, dir: Direction, seq: u64) -> LogEntry {
        LogEntry::naive(
            NodeId::new(component),
            Topic::new(topic),
            dir,
            seq,
            seq,
            vec![seq as u8; 8],
        )
    }

    fn window_of(frames: &[(u64, Vec<u8>)]) -> RecordingWindow {
        let lo = frames.iter().map(|(e, _)| *e).min().unwrap_or(0);
        let hi = frames.iter().map(|(e, _)| *e).max().unwrap_or(0);
        RecordingWindow::from_frames(lo, hi, frames)
    }

    fn ctx() -> ReplayContext {
        ReplayContext::new(KeyRegistry::new())
            .with_topology([(Topic::new("image"), NodeId::new("cam"))])
    }

    #[test]
    fn replay_is_order_and_duplication_independent() {
        let a = (1, naive("cam", "image", Direction::Out, 1).encode());
        let b = (1, naive("det", "image", Direction::In, 1).encode());
        let c = (2, naive("cam", "image", Direction::Out, 2).encode());

        let forward =
            replay_window(&window_of(&[a.clone(), b.clone(), c.clone()]), &ctx()).unwrap();
        // Reversed order plus replicated frames: same logical multiset.
        let shuffled = replay_window(
            &window_of(&[c.clone(), c.clone(), b.clone(), a.clone(), b.clone()]),
            &ctx(),
        )
        .unwrap();
        assert_eq!(shuffled.duplicates, 2);
        assert_eq!(forward.duplicates, 0);
        assert_eq!(forward.entries, shuffled.entries);
        assert_eq!(
            canonical_report_bytes(&forward.report),
            canonical_report_bytes(&shuffled.report)
        );
        assert!(forward.sound() && shuffled.sound());
    }

    #[test]
    fn replaying_twice_is_byte_identical() {
        let frames = [
            (1, naive("cam", "image", Direction::Out, 1).encode()),
            (1, naive("det", "image", Direction::In, 1).encode()),
        ];
        let w = window_of(&frames);
        let once = replay_window(&w, &ctx()).unwrap();
        let twice = replay_window(&w, &ctx()).unwrap();
        assert_eq!(once.canonical_bytes(), twice.canonical_bytes());
    }

    #[test]
    fn undecodable_frames_are_counted_not_fatal() {
        let good = (1, naive("cam", "image", Direction::Out, 1).encode());
        let junk = (1, b"not an entry".to_vec());
        let rep = replay_window(&window_of(&[good, junk]), &ctx()).unwrap();
        assert_eq!(rep.undecodable, 1);
        assert_eq!(rep.entries, 1);
        assert!(!rep.sound());
    }

    #[test]
    fn torn_window_is_unsound_but_replays() {
        let entry = naive("cam", "image", Direction::Out, 1).encode();
        let mut w = window_of(&[(1, entry.clone()), (2, entry)]);
        w.bytes.truncate(w.bytes.len() - 3);
        let rep = replay_window(&w, &ctx()).unwrap();
        assert!(rep.torn);
        assert!(!rep.sound());
        assert_eq!(rep.frames, 1);
    }

    #[test]
    fn non_recording_bytes_are_malformed() {
        let w = RecordingWindow {
            epoch_from: 0,
            epoch_to: 0,
            bytes: b"XXXXXXXX".to_vec(),
        };
        assert!(replay_window(&w, &ctx()).is_err());
        let good = window_of(&[(1, naive("cam", "image", Direction::Out, 1).encode())]);
        assert!(good.verify());
        assert!(replay_window(&good, &ctx()).is_ok());
    }
}
