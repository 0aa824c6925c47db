//! A ROS-like publish-subscribe middleware, built from scratch as the
//! substrate the ADLP protocol runs on.
//!
//! The design mirrors the parts of ROS 1 that the ADLP paper relies on:
//!
//! * a **master** ([`Master`]) that maps each topic to its unique publisher
//!   (the paper's "no two components publish the same data type");
//! * **point-to-point connections** — one connection per subscriber, set up
//!   through a key-value handshake (like TCPROS connection headers), carried
//!   either over in-process channels or real TCP sockets;
//! * **framed messages** with a 4-byte length preamble; each body carries a
//!   sequence number and timestamp header followed by the payload
//!   (`|D| = 16 + |payload|` bytes, so the paper's `|D| + 4` message-size
//!   arithmetic holds exactly);
//! * a **reverse channel** per connection, used by ADLP for signed
//!   acknowledgements;
//! * a **transport-layer interceptor** ([`LinkInterceptor`]) — the hook ADLP
//!   uses to sign outgoing bodies, verify/acknowledge incoming ones, and gate
//!   sends on unacknowledged messages, all transparently to the application.
//!
//! # Example
//!
//! ```
//! use adlp_pubsub::{Master, NodeBuilder};
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let master = Master::new();
//! let publisher_node = NodeBuilder::new("camera").build(&master)?;
//! let subscriber_node = NodeBuilder::new("detector").build(&master)?;
//!
//! let publisher = publisher_node.advertise("image")?;
//! let seen = Arc::new(AtomicUsize::new(0));
//! let seen2 = Arc::clone(&seen);
//! let _sub = subscriber_node.subscribe("image", move |msg| {
//!     seen2.fetch_add(msg.payload.len(), Ordering::SeqCst);
//! })?;
//! publisher.publish(&[0u8; 64])?;
//! # std::thread::sleep(std::time::Duration::from_millis(100));
//! assert_eq!(seen.load(Ordering::SeqCst), 64);
//! # Ok::<(), adlp_pubsub::PubSubError>(())
//! ```

// Protocol crate: no panic paths outside tests (paper Lemma 2 — a
// panicking component is indistinguishable from a hiding one). The shims
// the protocol crates call (`bytes`, `crossbeam`, `parking_lot`, `rand`)
// deny the same set, so the property holds through every call they make.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod breaker;
pub mod clock;
pub mod interceptor;
pub mod master;
pub mod message;
pub mod node;
pub mod resilience;
pub mod stats;
pub mod transport;
pub mod types;
pub mod wire;

pub use breaker::{
    Admission, BreakerConfig, BreakerSnapshot, BreakerState, CircuitBreaker, Transition,
};
pub use clock::{Clock, ManualClock, OffsetClock, SystemClock};
pub use interceptor::{ConnectionInfo, LinkInterceptor, NoopInterceptor, RecvOutcome};
pub use master::Master;
pub use message::{Header, Message, HEADER_LEN};
pub use node::{
    Node, NodeBuilder, PublishReport, Publisher, SubscribeOptions, Subscription, TransportKind,
};
pub use resilience::{LinkEvent, LinkHealth, ResilienceConfig};
pub use stats::{LinkStats, LinkStatsSnapshot, NodeStats};
pub use transport::faults::{FaultConfig, FaultStats};
pub use types::{NodeId, Topic};

use std::error::Error;
use std::fmt;

/// Errors from the pub/sub layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PubSubError {
    /// A second publisher tried to advertise an already-owned topic.
    TopicAlreadyPublished(Topic),
    /// Subscription to a topic nobody publishes.
    NoSuchTopic(Topic),
    /// A node id was registered twice.
    DuplicateNode(NodeId),
    /// The peer or transport went away.
    Disconnected,
    /// A frame or handshake could not be decoded.
    Malformed(&'static str),
    /// Underlying I/O failure (TCP transport).
    Io(String),
}

impl fmt::Display for PubSubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PubSubError::TopicAlreadyPublished(t) => {
                write!(f, "topic {t} already has a publisher")
            }
            PubSubError::NoSuchTopic(t) => write!(f, "no publisher for topic {t}"),
            PubSubError::DuplicateNode(n) => write!(f, "node id {n} already registered"),
            PubSubError::Disconnected => write!(f, "connection closed"),
            PubSubError::Malformed(what) => write!(f, "malformed {what}"),
            PubSubError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl Error for PubSubError {}

impl From<std::io::Error> for PubSubError {
    fn from(e: std::io::Error) -> Self {
        PubSubError::Io(e.to_string())
    }
}
