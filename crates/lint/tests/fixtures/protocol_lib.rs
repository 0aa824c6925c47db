// A crate root denying clippy's panic lints: placed at some crate's
// `src/lib.rs`, it makes that crate a protocol crate for the transitive
// no-panic rule.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod fixture;
