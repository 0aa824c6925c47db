//! Witness gossip overhead: what retiring the single trusted auditor
//! costs — gossip convergence time as the witness set grows, and the
//! per-ack price a light client pays to verify inclusion and consistency
//! itself. One federation engine, both links: in-process fault-injected
//! channels (f ∈ {1, 2, 3}) and real TCP sockets behind chaos proxies
//! (f ∈ {1, 2}); every row also times how long the federation takes to
//! reconverge after a partitioned witness heals.
//!
//! ```text
//! cargo run --release -p adlp-bench --bin expt_gossip
//! ```
//!
//! Prints the table and writes `BENCH_gossip.json` to the working
//! directory (override with `ADLP_GOSSIP_JSON`). Environment knobs:
//! `ADLP_GOSSIP_ENTRIES` (log size, default 64), `ADLP_GOSSIP_AUDITS`
//! (light-client acks timed, default 50), `ADLP_KEY_BITS` (default 1024).

use adlp_bench::experiments::{gossip_overhead, KEY_BITS};
use adlp_bench::report::{gossip_json, print_gossip};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let entries = env_usize("ADLP_GOSSIP_ENTRIES", 64);
    let audits = env_usize("ADLP_GOSSIP_AUDITS", 50);
    let key_bits = env_usize("ADLP_KEY_BITS", KEY_BITS);
    let rows = gossip_overhead(entries, audits, key_bits);
    print_gossip(&rows);
    let path = std::env::var("ADLP_GOSSIP_JSON").unwrap_or_else(|_| "BENCH_gossip.json".into());
    match std::fs::write(&path, gossip_json(&rows)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}
