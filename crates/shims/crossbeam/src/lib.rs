//! Offline stand-in for the `crossbeam` crate.
//!
//! This workspace only uses `crossbeam::channel` (MPMC channels with
//! bounded/unbounded flavors, `try_send`, and `recv_timeout`). The build
//! environment has no crates.io access, so this crate implements that API
//! subset over `std::sync` primitives: a `Mutex<VecDeque>` plus two
//! condvars. It favors correctness and API fidelity over raw throughput;
//! the message rates exercised here (tens of thousands of frames per
//! second) are far below what this implementation sustains.

// Called from the protocol crates, so held to their panic lints (paper
// Lemma 2 — a panicking component is indistinguishable from a hiding one).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod channel;
