//! Signed gap receipts: accountable load-shedding.
//!
//! ADLP's completeness lemma turns a *missing* entry into a **hidden**
//! verdict — correct against a liar, but a false accusation when the entry
//! was shed by an overloaded deposit pipeline. A component that must drop
//! entries therefore emits a *gap receipt*: a tiny, self-describing log
//! entry covering the contiguous sequence range it shed, signed with the
//! component's own key exactly like any other entry
//! (`sign_x(h(first_seq ‖ last_seq ‖ count ‖ reason))`, carried through the
//! standard binding-digest signature over the receipt payload). The receipt
//! rides the normal deposit path — same encoding, same store, same tree —
//! but is **never itself shed**.
//!
//! The auditor recognizes receipts by the payload magic, verifies their
//! signatures and range discipline, and classifies the covered absences as
//! `Shed(range)` instead of `Hidden` — a signed *admission* of bounded
//! loss, not an unprovable accusation.

use crate::encoding::{read_str, read_uvarint, write_str, write_uvarint};
use crate::entry::{Direction, LogEntry, PayloadRecord};
use adlp_pubsub::{NodeId, Topic};

/// Payload magic identifying a gap-receipt entry.
pub const GAP_RECEIPT_MAGIC: &[u8; 8] = b"ADLPGAP1";

/// Why a range of entries was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The bounded deposit queue was full (admission control).
    QueueFull,
    /// The target's circuit breaker was open (fast-fail).
    BreakerOpen,
    /// The pipeline was shutting down with entries still queued.
    Shutdown,
}

impl ShedReason {
    fn to_byte(self) -> u8 {
        match self {
            ShedReason::QueueFull => 1,
            ShedReason::BreakerOpen => 2,
            ShedReason::Shutdown => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(ShedReason::QueueFull),
            2 => Some(ShedReason::BreakerOpen),
            3 => Some(ShedReason::Shutdown),
            _ => None,
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::BreakerOpen => "breaker-open",
            ShedReason::Shutdown => "shutdown",
        })
    }
}

/// A signed admission that `count` contiguous entries were shed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapReceipt {
    /// The component whose entries were shed (and whose key signs the
    /// receipt).
    pub component: NodeId,
    /// Topic of the shed entries.
    pub topic: Topic,
    /// Side of the shed entries (publications or receipts).
    pub direction: Direction,
    /// First shed sequence number (inclusive).
    pub first_seq: u64,
    /// Last shed sequence number (inclusive).
    pub last_seq: u64,
    /// Number of shed entries; a well-formed receipt over a contiguous
    /// range has `count == last_seq - first_seq + 1`.
    pub count: u64,
    /// Why the range was shed.
    pub reason: ShedReason,
}

impl GapReceipt {
    /// Whether `seq` falls inside this receipt's range.
    pub fn covers(&self, seq: u64) -> bool {
        self.first_seq <= seq && seq <= self.last_seq
    }

    /// Whether the receipt's arithmetic is internally consistent.
    pub fn well_formed(&self) -> bool {
        self.first_seq <= self.last_seq
            && self.count.checked_sub(1) == Some(self.last_seq - self.first_seq)
    }

    /// Whether two receipts for the same (component, topic, direction)
    /// claim overlapping ranges.
    pub fn overlaps(&self, other: &GapReceipt) -> bool {
        self.component == other.component
            && self.topic == other.topic
            && self.direction == other.direction
            && self.first_seq <= other.last_seq
            && other.first_seq <= self.last_seq
    }

    /// Serializes the receipt fields into an entry payload. The component's
    /// ordinary binding-digest signature over this payload *is* the
    /// paper-style `sign_x(h(first_seq ‖ last_seq ‖ count ‖ reason))`.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(GAP_RECEIPT_MAGIC);
        out.push(self.reason.to_byte());
        out.push(match self.direction {
            Direction::Out => 0,
            Direction::In => 1,
        });
        write_str(&mut out, self.topic.as_str());
        write_uvarint(&mut out, self.first_seq);
        write_uvarint(&mut out, self.last_seq);
        write_uvarint(&mut out, self.count);
        out
    }

    /// Builds the (unsigned) log entry carrying this receipt. The caller
    /// signs it like any other entry; the entry's `seq` is the receipt's
    /// `first_seq` so the store keeps receipts near the gap they explain.
    pub fn to_entry(&self, timestamp_ns: u64) -> LogEntry {
        LogEntry {
            component: self.component.clone(),
            topic: self.topic.clone(),
            direction: self.direction,
            seq: self.first_seq,
            timestamp_ns,
            payload: PayloadRecord::Data(self.to_payload()),
            own_sig: None,
            peer_sig: None,
            peer_hash: None,
            peer: None,
            acks: Vec::new(),
        }
    }

    /// Recognizes and decodes a gap-receipt entry. Returns `None` both for
    /// ordinary entries (no magic) and for entries that carry the magic but
    /// have malformed fields; [`Self::claims_receipt`] lets the auditor
    /// tell the two apart and reject the latter as invalid receipts.
    pub fn from_entry(entry: &LogEntry) -> Option<GapReceipt> {
        let PayloadRecord::Data(data) = &entry.payload else {
            return None;
        };
        let mut s: &[u8] = data.as_slice();
        let (magic, rest) = s.split_at_checked(GAP_RECEIPT_MAGIC.len())?;
        if magic != GAP_RECEIPT_MAGIC {
            return None;
        }
        s = rest;
        let (&reason_b, rest) = s.split_first()?;
        s = rest;
        let (&dir_b, rest) = s.split_first()?;
        s = rest;
        let reason = ShedReason::from_byte(reason_b)?;
        let direction = match dir_b {
            0 => Direction::Out,
            1 => Direction::In,
            _ => return None,
        };
        let topic = Topic::new(read_str(&mut s).ok()?);
        let first_seq = read_uvarint(&mut s).ok()?;
        let last_seq = read_uvarint(&mut s).ok()?;
        let count = read_uvarint(&mut s).ok()?;
        if !s.is_empty() {
            return None;
        }
        // The receipt's embedded topic/direction/first_seq must agree with
        // the carrying entry's envelope — the signature covers the payload
        // via the binding digest over (entry.topic, entry.seq, h(payload)),
        // so a mismatched envelope would let a signer re-point a receipt.
        if topic != entry.topic || direction != entry.direction || first_seq != entry.seq {
            return None;
        }
        Some(GapReceipt {
            component: entry.component.clone(),
            topic,
            direction,
            first_seq,
            last_seq,
            count,
            reason,
        })
    }

    /// Whether an entry *claims* to be a gap receipt (carries the magic),
    /// regardless of whether it decodes cleanly.
    pub fn claims_receipt(entry: &LogEntry) -> bool {
        matches!(&entry.payload, PayloadRecord::Data(d) if d.starts_with(GAP_RECEIPT_MAGIC))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn receipt() -> GapReceipt {
        GapReceipt {
            component: NodeId::new("detector"),
            topic: Topic::new("image"),
            direction: Direction::In,
            first_seq: 10,
            last_seq: 17,
            count: 8,
            reason: ShedReason::QueueFull,
        }
    }

    #[test]
    fn roundtrips_through_an_entry() {
        let r = receipt();
        assert!(r.well_formed());
        let entry = r.to_entry(123);
        assert_eq!(entry.seq, 10);
        assert!(GapReceipt::claims_receipt(&entry));
        assert_eq!(GapReceipt::from_entry(&entry), Some(r));
    }

    #[test]
    fn ordinary_entries_are_not_receipts() {
        let e = LogEntry::naive(
            NodeId::new("cam"),
            Topic::new("image"),
            Direction::Out,
            1,
            1,
            b"plain data".to_vec(),
        );
        assert!(!GapReceipt::claims_receipt(&e));
        assert_eq!(GapReceipt::from_entry(&e), None);
    }

    #[test]
    fn envelope_mismatch_rejected() {
        let r = receipt();
        let mut entry = r.to_entry(123);
        entry.seq = 11; // re-pointed envelope
        assert!(GapReceipt::claims_receipt(&entry));
        assert_eq!(GapReceipt::from_entry(&entry), None);
    }

    #[test]
    fn malformed_fields_rejected() {
        let r = receipt();
        let mut entry = r.to_entry(123);
        if let PayloadRecord::Data(d) = &mut entry.payload {
            d.truncate(d.len() - 1);
        }
        assert!(GapReceipt::claims_receipt(&entry));
        assert_eq!(GapReceipt::from_entry(&entry), None);
    }

    #[test]
    fn range_discipline_helpers() {
        let a = receipt();
        assert!(a.covers(10) && a.covers(17) && !a.covers(18) && !a.covers(9));
        let mut b = a.clone();
        b.first_seq = 17;
        b.last_seq = 20;
        b.count = 4;
        assert!(a.overlaps(&b));
        b.first_seq = 18;
        b.count = 3;
        assert!(!a.overlaps(&b));
        let mut c = a.clone();
        c.count = 7;
        assert!(!c.well_formed());
    }
}
