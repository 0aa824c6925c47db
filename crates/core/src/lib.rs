//! The Accountable Data Logging Protocol (ADLP).
//!
//! This crate implements the paper's protocol on top of the
//! [`adlp_pubsub`] middleware and the [`adlp_logger`] trusted logger:
//!
//! * every publication `M_x = (D, s_x)` carries the publisher's signature
//!   `s_x = sign_x(h(type ‖ seq ‖ h(D)))` — the *binding digest*, which
//!   keeps the paper's freshness binding (§IV-A) while staying
//!   recomputable from logged fields (see DESIGN.md §3.4) — computed
//!   **once per publication** regardless of subscriber count;
//! * every subscriber returns a signed acknowledgement `M_y = (h(I_y), s_y)`
//!   — a fixed 32 + |sig| bytes (160 bytes with RSA-1024, §V-B step 4);
//! * the publisher withholds further messages on a connection until the
//!   previous one is acknowledged (the non-cooperation penalty);
//! * both sides deposit log entries at the trusted logger through a
//!   per-node **logging thread**, the publisher's entry carrying the
//!   subscriber's acknowledgement and vice versa (Figure 9).
//!
//! All of this is transparent to application code: an [`AdlpNode`] exposes
//! the same advertise/subscribe API as a plain node, and a [`Scheme`] value
//! switches between **NoLogging**, **Base** (the naive scheme of
//! Definition 2) and **ADLP** without touching the application.
//!
//! Unfaithful components — the paper's whole reason to exist — are modeled
//! by [`BehaviorProfile`]: hiding, falsification, fabrication,
//! impersonation, timestamp disruption, and collusion (forging the peer's
//! signature with a shared private key).
//!
//! # Example
//!
//! ```
//! use adlp_core::{AdlpNodeBuilder, Scheme, AdlpConfig};
//! use adlp_logger::LogServer;
//! use adlp_pubsub::Master;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), adlp_core::AdlpError> {
//! let master = Master::new();
//! let server = LogServer::spawn();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! let cam = AdlpNodeBuilder::new("camera")
//!     .scheme(Scheme::Adlp(AdlpConfig::default()))
//!     .key_bits(512)
//!     .build(&master, &server.handle(), &mut rng)?;
//! let det = AdlpNodeBuilder::new("detector")
//!     .scheme(Scheme::Adlp(AdlpConfig::default()))
//!     .key_bits(512)
//!     .build(&master, &server.handle(), &mut rng)?;
//!
//! let publisher = cam.advertise("image")?;
//! let _sub = det.subscribe("image", |_msg| {})?;
//! publisher.publish(&[7u8; 64])?;
//! # std::thread::sleep(std::time::Duration::from_millis(200));
//! cam.flush()?;
//! det.flush()?;
//! // Publisher + subscriber entries were deposited at the logger.
//! assert!(server.handle().store().len() >= 2);
//! # Ok(())
//! # }
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

pub mod behavior;
pub mod config;
pub mod events;
pub mod identity;
pub mod interceptor;
pub mod keystore;
pub mod logging;
pub mod node;
pub mod overload;
pub mod protocol;
pub mod target;

pub use adlp_pubsub::{FaultStats, LinkEvent, LinkHealth};
pub use behavior::{BehaviorProfile, LinkRole, LogBehavior};
pub use config::{AdlpConfig, FaultConfig, ReconnectConfig, ResilienceConfig, Scheme};
pub use identity::ComponentIdentity;
pub use keystore::IdentityStore;
pub use node::{AdlpNode, AdlpNodeBuilder};
pub use overload::{OverloadConfig, PressureLevel, QueuePressure, ShedPolicy};
pub use target::{AckMode, DepositTarget};

use std::error::Error;
use std::fmt;

/// Errors from the protocol layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum AdlpError {
    /// Underlying pub/sub failure.
    PubSub(adlp_pubsub::PubSubError),
    /// Underlying logger failure.
    Logger(adlp_logger::LogError),
    /// Underlying cryptographic failure.
    Crypto(adlp_crypto::CryptoError),
}

impl fmt::Display for AdlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdlpError::PubSub(e) => write!(f, "pub/sub error: {e}"),
            AdlpError::Logger(e) => write!(f, "logger error: {e}"),
            AdlpError::Crypto(e) => write!(f, "crypto error: {e}"),
        }
    }
}

impl Error for AdlpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AdlpError::PubSub(e) => Some(e),
            AdlpError::Logger(e) => Some(e),
            AdlpError::Crypto(e) => Some(e),
        }
    }
}

impl From<adlp_pubsub::PubSubError> for AdlpError {
    fn from(e: adlp_pubsub::PubSubError) -> Self {
        AdlpError::PubSub(e)
    }
}

impl From<adlp_logger::LogError> for AdlpError {
    fn from(e: adlp_logger::LogError) -> Self {
        AdlpError::Logger(e)
    }
}

impl From<adlp_crypto::CryptoError> for AdlpError {
    fn from(e: adlp_crypto::CryptoError) -> Self {
        AdlpError::Crypto(e)
    }
}
