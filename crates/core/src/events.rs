//! Events flowing from the transport layer to a node's logging thread.
//!
//! The prototype runs one logging thread per ROS node (§V-B); transport
//! hooks construct these events and the thread turns them into log entries,
//! applying the component's (mis)behavior on the way.

use adlp_crypto::sha256::Digest;
use adlp_crypto::Signature;
use adlp_logger::AckRecord;
use adlp_pubsub::{NodeId, Topic};
use std::sync::Arc;

/// A unit of logging work.
#[derive(Debug, Clone)]
pub enum LogEvent {
    /// ADLP publisher record: subscriber `subscriber` acknowledged the
    /// `seq`-th publication (§V-B step 6). One per acknowledgement.
    AckedPublication {
        /// Published topic.
        topic: Topic,
        /// Sequence number of the publication.
        seq: u64,
        /// Honest event time at the publisher.
        stamp_ns: u64,
        /// The transmitted body `D` (shared across subscribers).
        body: Arc<Vec<u8>>,
        /// The publisher's signature `s_x` over `h(D)`.
        own_sig: Signature,
        /// The acknowledging subscriber.
        subscriber: NodeId,
        /// The hash `h(D_y)` the subscriber returned.
        peer_hash: Digest,
        /// The subscriber's signature `s_y`.
        peer_sig: Signature,
    },
    /// ADLP publisher record for a publication whose acknowledgement never
    /// arrived (flushed at shutdown). Carries no peer fields; the auditor
    /// treats it as *unproven* (Lemma 1: the publisher's entry alone cannot
    /// prove publication).
    UnackedPublication {
        /// Published topic.
        topic: Topic,
        /// Sequence number.
        seq: u64,
        /// Honest event time.
        stamp_ns: u64,
        /// The transmitted body.
        body: Arc<Vec<u8>>,
        /// The publisher's signature.
        own_sig: Signature,
        /// The subscriber that never acknowledged.
        subscriber: NodeId,
    },
    /// Aggregated publisher record (§VI-E): one entry per publication with
    /// every received acknowledgement.
    AggregatedPublication {
        /// Published topic.
        topic: Topic,
        /// Sequence number.
        seq: u64,
        /// Honest event time.
        stamp_ns: u64,
        /// The transmitted body.
        body: Arc<Vec<u8>>,
        /// The publisher's signature.
        own_sig: Signature,
        /// All acknowledgements collected for this publication.
        acks: Vec<AckRecord>,
    },
    /// ADLP subscriber record (§V-B step 5).
    Receipt {
        /// Subscribed topic.
        topic: Topic,
        /// Sequence number of the received message.
        seq: u64,
        /// Honest event time at the subscriber.
        stamp_ns: u64,
        /// The publisher (from the connection).
        publisher: NodeId,
        /// The received body `I_y`.
        body: Vec<u8>,
        /// `h(I_y)`.
        body_digest: Digest,
        /// The publisher's signature `s_x` from the message.
        peer_sig: Signature,
        /// The subscriber's own signature `s_y`.
        own_sig: Signature,
    },
    /// Naive-scheme publisher record (Definition 2). One per publication.
    BasePublication {
        /// Published topic.
        topic: Topic,
        /// Sequence number.
        seq: u64,
        /// Honest event time.
        stamp_ns: u64,
        /// The transmitted body.
        body: Arc<Vec<u8>>,
    },
    /// Naive-scheme subscriber record.
    BaseReceipt {
        /// Subscribed topic.
        topic: Topic,
        /// Sequence number.
        seq: u64,
        /// Honest event time.
        stamp_ns: u64,
        /// The publisher.
        publisher: NodeId,
        /// The received body.
        body: Vec<u8>,
    },
}

impl LogEvent {
    /// The topic this event concerns.
    pub fn topic(&self) -> &Topic {
        match self {
            LogEvent::AckedPublication { topic, .. }
            | LogEvent::UnackedPublication { topic, .. }
            | LogEvent::AggregatedPublication { topic, .. }
            | LogEvent::Receipt { topic, .. }
            | LogEvent::BasePublication { topic, .. }
            | LogEvent::BaseReceipt { topic, .. } => topic,
        }
    }

    /// Whether this is a publication-side event.
    pub fn is_publication(&self) -> bool {
        !matches!(
            self,
            LogEvent::Receipt { .. } | LogEvent::BaseReceipt { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_and_side_accessors() {
        let e = LogEvent::BasePublication {
            topic: Topic::new("image"),
            seq: 1,
            stamp_ns: 2,
            body: Arc::new(vec![]),
        };
        assert_eq!(e.topic().as_str(), "image");
        assert!(e.is_publication());

        let r = LogEvent::BaseReceipt {
            topic: Topic::new("scan"),
            seq: 1,
            stamp_ns: 2,
            publisher: NodeId::new("lidar"),
            body: vec![],
        };
        assert_eq!(r.topic().as_str(), "scan");
        assert!(!r.is_publication());
    }
}
