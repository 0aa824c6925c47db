//! Property-based tests for the consistent-hash ring.
//!
//! The routing layer carries two load-bearing promises: a (publisher,
//! topic) link's shard depends only on the ring *configuration* (so every
//! process routes identically), and resizing the cluster moves only the
//! keys the new topology forces to move. Because every shard's ring
//! points are derived independently of the shard count, growing from `n`
//! to `n+1` shards leaves shards `0..n`'s points untouched — a key either
//! keeps its shard or lands on the new one, never hops between survivors.

use adlp_cluster::HashRing;
use adlp_pubsub::{NodeId, Topic};
use proptest::prelude::*;

const VNODES: usize = 32;

fn arb_key() -> impl Strategy<Value = (NodeId, Topic)> {
    ("[a-z0-9_]{1,24}", "[a-z0-9_]{1,24}").prop_map(|(n, t)| (NodeId::new(n), Topic::new(t)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Growing the ring by one shard may only move a key *to* the new
    /// shard — never between surviving shards. This is the bounded-key-
    /// movement guarantee: the set of moved keys is exactly the new
    /// shard's keyspace share.
    #[test]
    fn adding_a_shard_only_moves_keys_to_it(
        keys in proptest::collection::vec(arb_key(), 1..64),
        shards in 1usize..16,
    ) {
        let before = HashRing::new(shards, VNODES);
        let after = HashRing::new(shards + 1, VNODES);
        for (node, topic) in &keys {
            let old = before.shard_for(node, topic);
            let new = after.shard_for(node, topic);
            prop_assert!(
                new == old || new == shards,
                "key hopped between surviving shards: {} -> {} (added shard {})",
                old, new, shards
            );
        }
    }

    /// Shrinking the ring by one shard strands only the removed shard's
    /// keys; every key owned by a surviving shard keeps its assignment.
    #[test]
    fn removing_a_shard_strands_only_its_keys(
        keys in proptest::collection::vec(arb_key(), 1..64),
        shards in 1usize..16,
    ) {
        let before = HashRing::new(shards + 1, VNODES);
        let after = HashRing::new(shards, VNODES);
        for (node, topic) in &keys {
            let old = before.shard_for(node, topic);
            let new = after.shard_for(node, topic);
            if old < shards {
                prop_assert_eq!(new, old);
            } else {
                prop_assert!(new < shards, "orphaned key must land on a survivor");
            }
        }
    }

    /// Routing is a pure function of the configuration: two independently
    /// built rings with the same (shards, vnodes) agree on every key.
    #[test]
    fn routing_is_configuration_determined(
        key in arb_key(),
        shards in 1usize..17,
        vnodes in 1usize..48,
    ) {
        let a = HashRing::new(shards, vnodes);
        let b = HashRing::new(shards, vnodes);
        prop_assert_eq!(a.shard_for(&key.0, &key.1), b.shard_for(&key.0, &key.1));
        // And the answer is always a real shard.
        prop_assert!(a.shard_for(&key.0, &key.1) < shards);
    }
}

/// Deterministic balance sweep: at every cluster size from 1 to 16 shards
/// no shard is starved or a hotspot, and resizing moves no more than a
/// small multiple of the fair share (the structural proptests above prove
/// *which* keys move; this bounds *how many*).
#[test]
fn keyspace_balances_across_one_to_sixteen_shards() {
    const KEYS: usize = 4000;
    let population: Vec<(NodeId, Topic)> = (0..KEYS)
        .map(|i| {
            (
                NodeId::new(format!("pub{i}")),
                Topic::new(format!("topic{}", i % 11)),
            )
        })
        .collect();

    let mut prev: Option<(HashRing, usize)> = None;
    for shards in 1..=16usize {
        let ring = HashRing::new(shards, 64);
        let mut counts = vec![0usize; shards];
        for (node, topic) in &population {
            counts[ring.shard_for(node, topic)] += 1;
        }
        let fair = KEYS / shards;
        for (shard, &n) in counts.iter().enumerate() {
            assert!(
                n * 4 >= fair,
                "{shards} shards: shard {shard} starved ({n} of fair {fair}): {counts:?}"
            );
            assert!(
                n <= fair * 3,
                "{shards} shards: shard {shard} is a hotspot ({n} of fair {fair}): {counts:?}"
            );
        }

        if let Some((old_ring, old_shards)) = prev {
            let moved = population
                .iter()
                .filter(|(n, t)| old_ring.shard_for(n, t) != ring.shard_for(n, t))
                .count();
            let new_fair = KEYS / shards;
            assert!(
                moved <= new_fair * 3,
                "growing {old_shards}->{shards} shards moved {moved} keys (fair {new_fair})"
            );
        }
        prev = Some((ring, shards));
    }
}
