//! Property test for deterministic replay forensics: for *arbitrary*
//! frame multisets, replaying a recording window is byte-deterministic
//! and independent of frame order and duplication. That truncating the
//! raw bytes anywhere is always detected (torn tail, lost frames, or an
//! outright refusal) and never silently mis-audited is checked with the
//! other framed formats in `crates/logger/tests/frame_props.rs`.

use adlp_dispute::{replay_window, ReplayContext};
use adlp_logger::{Direction, KeyRegistry, LogEntry, RecordingWindow};
use adlp_pubsub::{NodeId, Topic};
use proptest::prelude::*;

const COMPONENTS: [&str; 3] = ["camera", "detector", "planner"];
const TOPICS: [&str; 2] = ["image", "scan"];

/// One abstract frame: which component/topic/direction/seq, under which
/// epoch, and whether the payload even decodes as a log entry.
fn arb_frame() -> impl Strategy<Value = (u64, Vec<u8>)> {
    (
        0u8..3,
        0u8..2,
        any::<bool>(),
        0u64..6,
        0u64..4,
        any::<bool>(),
    )
        .prop_map(|(c, t, dir, seq, epoch, junk)| {
            let entry = if junk {
                b"not a log entry".to_vec()
            } else {
                LogEntry::naive(
                    NodeId::new(COMPONENTS[c as usize]),
                    Topic::new(TOPICS[t as usize]),
                    if dir { Direction::Out } else { Direction::In },
                    seq,
                    seq,
                    vec![seq as u8; 8],
                )
                .encode()
            };
            (epoch, entry)
        })
}

fn window_of(frames: &[(u64, Vec<u8>)]) -> RecordingWindow {
    RecordingWindow::from_frames(0, u64::MAX, frames)
}

fn ctx() -> ReplayContext {
    ReplayContext::new(KeyRegistry::new())
        .with_topology([(Topic::new("image"), NodeId::new("camera"))])
}

/// Seeded SplitMix64, for deterministic permutation/duplication choices
/// inside a test case.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #[test]
    fn replay_is_deterministic_and_order_free(
        frames in proptest::collection::vec(arb_frame(), 0..24),
        seed in any::<u64>(),
    ) {
        let base = window_of(&frames);
        let once = replay_window(&base, &ctx()).expect("well-framed window replays");
        let twice = replay_window(&base, &ctx()).expect("well-framed window replays");
        prop_assert_eq!(once.canonical_bytes(), twice.canonical_bytes());

        // A seeded permutation with duplicated frames is the same logical
        // multiset: the canonical report must not move.
        let mut state = seed;
        let mut shuffled = frames.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        if !frames.is_empty() {
            let pick = (splitmix(&mut state) % frames.len() as u64) as usize;
            shuffled.push(frames[pick].clone());
        }
        let again = replay_window(&window_of(&shuffled), &ctx())
            .expect("shuffled window replays");
        prop_assert_eq!(
            adlp_audit::canonical_report_bytes(&once.report),
            adlp_audit::canonical_report_bytes(&again.report)
        );
        prop_assert_eq!(once.entries, again.entries);
    }
}
