//! The trusted logger substrate for ADLP.
//!
//! The paper assumes "a trusted logger that is not necessarily part of the
//! underlying data distribution system ... \[with\] a tamper-resistant or
//! tamper-evident logging mechanism in place" (§II-A). This crate provides
//! that whole substrate:
//!
//! * [`encoding`] — varint primitives and [`Wire`], the one codec every
//!   evidence and state encoding above the pub/sub layer implements
//!   (standing in for the prototype's protocol buffers);
//! * [`entry`] — the log-entry model: the naive scheme of Definition 2 and
//!   the ADLP-extended entries of Figure 9, with a compact binary encoding;
//! * [`keyreg`] — public keys: the live component registry the logger
//!   verifies entry authenticity against, and the fixed [`Keyring`] every
//!   other signing role is verified against;
//! * [`conflict`] — one signer, one slot, two roots: the [`Head`] trait,
//!   the transferable [`ConflictProof`] and the [`FirstSeen`] detector
//!   shared by the cluster's attestation ledger and the witness layer;
//! * [`store`] — an append-only store whose one tamper-evident commitment
//!   is the Merkle tree over its records' digests;
//! * [`merkle`] — Merkle-tree commitments over the store with inclusion
//!   proofs, for handing third-party investigators a succinct commitment;
//! * [`server`] — the log server: a push-only sink ("log entries are simply
//!   pushed into the server", §V-B) so that a logger failure can never stall
//!   the data-distribution side;
//! * [`stats`] — byte/rate accounting used to reproduce the paper's log
//!   generation-rate experiments (Figure 15, Table IV);
//! * [`receipt`] — signed gap receipts: when an overloaded pipeline must
//!   shed entries, it deposits a signed admission of the exact range lost,
//!   so the auditor can distinguish accountable shedding from hiding;
//! * [`storage`] — the byte-level device abstraction (real files,
//!   in-memory power-failure model, deterministic fault injection);
//! * [`sth`] — signed tree heads: the logger's periodic signed Merkle
//!   commitment, with inclusion/consistency proof serving for the witness
//!   and light-client layers (`adlp-witness`);
//! * [`frame`] — the only two on-disk shapes (framed append log, sealed
//!   blob) with their one torn-tail rule, one repair rule and one
//!   fail-closed durable state cell;
//! * [`wal`] — the write-ahead log entries reach before they are
//!   acknowledged;
//! * [`recording`] — the forensic tap recording every deposited entry for
//!   later replay (`adlp-dispute`);
//! * [`durable`] — snapshot+WAL rotation and crash recovery tying the
//!   store, the WAL, and the Merkle commitments together.

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

pub mod conflict;
pub mod durable;
pub mod encoding;
pub mod entry;
pub mod frame;
pub mod keyreg;
pub mod merkle;
pub mod receipt;
pub mod recording;
pub mod remote;
pub mod server;
pub mod stats;
pub mod sth;
pub mod storage;
pub mod store;
pub mod wal;

pub use conflict::{ConflictProof, FirstSeen, Head, Sighting};
pub use durable::{
    Appended, DurabilityConfig, DurableLog, Recovery, SyncPolicy, QUARANTINE_SNAPSHOT_FILE,
    QUARANTINE_WAL_FILE,
};
pub use encoding::Wire;
pub use entry::{AckRecord, Binding, Direction, EncodedEntry, LogEntry, PayloadRecord};
pub use keyreg::{KeyRegistry, Keyring};
pub use receipt::{GapReceipt, ShedReason, GAP_RECEIPT_MAGIC};
pub use recording::{Recorder, RecordingWindow, RECORDING_MAGIC};
pub use remote::{ReconnectConfig, RemoteLogClient, RemoteLogEndpoint};
pub use server::{LogServer, LoggerHandle, SubmitOutcome, DEFAULT_QUEUE_BOUND};
pub use stats::{ClientStats, ClientStatsSnapshot, DurabilityStats, LogStats, VolumeSnapshot};
pub use sth::{SignedTreeHead, SthPublisher, TreeHeadSigner, STH_MAGIC};
pub use storage::{FaultyStorage, FsStorage, MemStorage, Storage, StorageFaultConfig};
pub use store::{LogStore, TamperEvidence};

use std::error::Error;
use std::fmt;

/// Errors from the logging substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LogError {
    /// An encoded entry could not be decoded.
    Malformed(&'static str),
    /// A component tried to register a key conflicting with an existing one.
    KeyConflict(String),
    /// No key registered for a component.
    UnknownComponent(String),
    /// The server was shut down.
    ServerClosed,
    /// Index out of range.
    NoSuchEntry(usize),
    /// Underlying I/O failure (TCP endpoint or client).
    Io(String),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Malformed(what) => write!(f, "malformed {what}"),
            LogError::KeyConflict(c) => write!(f, "conflicting key registration for {c}"),
            LogError::UnknownComponent(c) => write!(f, "no key registered for {c}"),
            LogError::ServerClosed => write!(f, "log server closed"),
            LogError::NoSuchEntry(i) => write!(f, "no log entry at index {i}"),
            LogError::Io(e) => write!(f, "log transport i/o error: {e}"),
        }
    }
}

impl Error for LogError {}
