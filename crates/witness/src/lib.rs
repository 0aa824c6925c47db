//! The witness subsystem: continuous, decentralized auditing for ADLP.
//!
//! The paper's accountability story funnels through one offline,
//! fully-trusted auditor — the exact centralization its own threat model
//! warns against at pub/sub scale. This crate retires that single point of
//! trust (DESIGN.md §3.12), after Meiklejohn et al.'s "Think Global, Act
//! Local" gossip design for transparency logs:
//!
//! * loggers periodically emit **signed tree heads**
//!   ([`adlp_logger::sth::SignedTreeHead`]) — size, root, epoch, logger
//!   signature;
//! * a `2f + 1` **witness federation** ([`Federation`]) cogossips those
//!   heads over a [`Link`] — fault-injected in-process channels
//!   ([`InprocLink`]) or real sockets behind chaos proxies ([`TcpLink`]);
//!   one engine, two transports — each witness cosigning ([`Cosignature`])
//!   heads it has verified RFC 6962 consistency for, and assembling a
//!   transferable [`SplitViewProof`] the moment two validly-signed heads at
//!   the same size disagree;
//! * publishers and subscribers become **light clients** ([`LightClient`]):
//!   on acknowledgement they fetch an inclusion proof against the latest
//!   witnessed head and verify consistency between successive heads
//!   locally, so a logger showing different histories to different clients
//!   is detected by gossip rather than by post-hoc full audit.
//!
//! The security argument is the same self-incrimination discipline as
//! `adlp-cluster`'s `EquivocationProof`: an append-only log has exactly one
//! root per size, so a split view requires the logger's own key to sign two
//! conflicting heads — a [`SplitViewProof`] anyone can re-verify with the
//! public key alone. Honest behavior can never be convicted (the proof
//! demands two *valid* signatures that actually conflict), and with a
//! cosign quorum of `f + 1` out of `≥ 2f + 1` witnesses, heads keep getting
//! witnessed while `f` witnesses are unreachable, and every witnessed head
//! was vouched for by at least one honest witness.

pub mod federation;
pub mod light;
pub mod proof;
pub mod state;
pub mod tcp;
pub mod witness;

pub use federation::{
    Federation, FederationConfig, GossipCounters, InprocLink, Link, LinkCounters,
};
pub use light::{AckProbe, LightClient, WitnessedHeadSource};
pub use proof::{
    decode_conviction_frame, encode_conviction_frame, Cosignature, CosignedHead, SplitViewProof,
    SthKeyring, SPLIT_VIEW_FRAME_MAGIC,
};
pub use state::{LogWitnessRecord, WitnessState};
pub use tcp::{TcpGossipConfig, TcpLink};
pub use witness::{SthObservation, TreeHeadSource, Witness};
