//! Temporal-causality checking (paper §IV-B2, Lemma 4).
//!
//! For a declared data flow `D_{x→y}` then `D_{y→z}`, the timestamps in the
//! four log entries must satisfy
//! `t_{x,out} ≤ t_{y,in} ≤ t_{y,out} ≤ t_{z,in}`. A single unfaithful
//! component cannot break the *precedence* between the two transmissions
//! without producing a locally visible inversion; only a full-chain
//! collusion can (Lemma 4). The checker reports every violated constraint
//! together with the components that could explain it.

use adlp_logger::{Direction, LogEntry};
use adlp_pubsub::{NodeId, Topic};
use std::collections::HashMap;

/// One hop of a declared flow: data of `topic` carried from its publisher
/// to `subscriber`, at sequence `seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowStep {
    /// The topic of this hop.
    pub topic: Topic,
    /// The sequence number of the transmission.
    pub seq: u64,
    /// The consuming component.
    pub subscriber: NodeId,
}

/// A violated timestamp constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalityViolation {
    /// Human-readable constraint, e.g. `t(cam out image#3) ≤ t(det in image#3)`.
    pub constraint: String,
    /// The earlier event's claimed timestamp.
    pub earlier_ns: u64,
    /// The later event's claimed timestamp.
    pub later_ns: u64,
    /// Components whose dishonest timestamps could explain the inversion.
    pub suspects: Vec<NodeId>,
}

/// Timestamp-ordering checker over a set of (already classified) entries.
#[derive(Debug, Default)]
pub struct CausalityChecker {
    /// (topic, seq, component, direction) → claimed timestamp.
    stamps: HashMap<(Topic, u64, NodeId, DirKey), u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum DirKey {
    Out,
    In,
}

impl From<Direction> for DirKey {
    fn from(d: Direction) -> Self {
        match d {
            Direction::Out => DirKey::Out,
            Direction::In => DirKey::In,
        }
    }
}

impl CausalityChecker {
    /// Builds the checker from log entries (use the valid subset from an
    /// audit to avoid reasoning over rejected records).
    pub fn from_entries<'a>(entries: impl IntoIterator<Item = &'a LogEntry>) -> Self {
        let mut stamps = HashMap::new();
        for e in entries {
            stamps.insert(
                (
                    e.topic.clone(),
                    e.seq,
                    e.component.clone(),
                    DirKey::from(e.direction),
                ),
                e.timestamp_ns,
            );
        }
        CausalityChecker { stamps }
    }

    fn stamp(&self, topic: &Topic, seq: u64, who: &NodeId, dir: DirKey) -> Option<u64> {
        self.stamps
            .get(&(topic.clone(), seq, who.clone(), dir))
            .copied()
    }

    /// Checks the per-hop constraint `t_out ≤ t_in` for one transmission.
    pub fn check_hop(
        &self,
        topic: &Topic,
        seq: u64,
        publisher: &NodeId,
        subscriber: &NodeId,
    ) -> Option<CausalityViolation> {
        let t_out = self.stamp(topic, seq, publisher, DirKey::Out)?;
        let t_in = self.stamp(topic, seq, subscriber, DirKey::In)?;
        (t_out > t_in).then(|| CausalityViolation {
            constraint: format!(
                "t({publisher} out {topic}#{seq}) ≤ t({subscriber} in {topic}#{seq})"
            ),
            earlier_ns: t_out,
            later_ns: t_in,
            suspects: vec![publisher.clone(), subscriber.clone()],
        })
    }

    /// Checks the intra-component constraint `t_in ≤ t_out` for a component
    /// that consumed hop `k` and produced hop `k+1`.
    pub fn check_processing(
        &self,
        in_topic: &Topic,
        in_seq: u64,
        component: &NodeId,
        out_topic: &Topic,
        out_seq: u64,
    ) -> Option<CausalityViolation> {
        let t_in = self.stamp(in_topic, in_seq, component, DirKey::In)?;
        let t_out = self.stamp(out_topic, out_seq, component, DirKey::Out)?;
        (t_in > t_out).then(|| CausalityViolation {
            constraint: format!(
                "t({component} in {in_topic}#{in_seq}) ≤ t({component} out {out_topic}#{out_seq})"
            ),
            earlier_ns: t_in,
            later_ns: t_out,
            suspects: vec![component.clone()],
        })
    }

    /// Checks a whole declared chain: publishers are supplied per hop (from
    /// the topology); returns every violated constraint.
    ///
    /// `chain` is the sequence of hops the flow took, e.g. for
    /// Figure 10's `D_{x→y}` then `D_{y→z}`:
    /// `[(image hop to y), (feature hop to z)]` with publishers `[x, y]`.
    pub fn check_chain(&self, hops: &[(FlowStep, NodeId)]) -> Vec<CausalityViolation> {
        let mut violations = Vec::new();
        for (step, publisher) in hops {
            if let Some(v) = self.check_hop(&step.topic, step.seq, publisher, &step.subscriber) {
                violations.push(v);
            }
        }
        for window in hops.windows(2) {
            let [(in_step, _), (out_step, out_publisher)] = window else {
                continue;
            };
            // The middle component: subscriber of hop k and publisher of
            // hop k+1 (must match for a well-formed chain).
            if &in_step.subscriber != out_publisher {
                continue;
            }
            if let Some(v) = self.check_processing(
                &in_step.topic,
                in_step.seq,
                out_publisher,
                &out_step.topic,
                out_step.seq,
            ) {
                violations.push(v);
            }
        }
        violations
    }
}

/// Timestamps of a component's entries for one topic/direction, ordered by
/// sequence number.
type SeqStamps = Vec<(u64, u64)>;

impl CausalityChecker {
    fn stamps_for(&self, topic: &Topic, who: &NodeId, dir: DirKey) -> SeqStamps {
        let mut v: SeqStamps = self
            .stamps
            .iter()
            .filter(|((t, _, c, d), _)| t == topic && c == who && *d == dir)
            .map(|((_, seq, _, _), &ts)| (*seq, ts))
            .collect();
        v.sort_unstable();
        v
    }

    /// Checks a *trigger* dependency (`component` publishes one `out_topic`
    /// message per `in_topic` message, in order): pairing the k-th receipt
    /// with the k-th production, each receipt must not postdate its
    /// production. This automates Lemma 4's intra-component constraint for
    /// pipeline nodes without naming individual sequence numbers.
    pub fn check_trigger_dependency(
        &self,
        in_topic: &Topic,
        component: &NodeId,
        out_topic: &Topic,
    ) -> Vec<CausalityViolation> {
        let ins = self.stamps_for(in_topic, component, DirKey::In);
        let outs = self.stamps_for(out_topic, component, DirKey::Out);
        ins.iter()
            .zip(outs.iter())
            .filter(|((_, t_in), (_, t_out))| t_in > t_out)
            .map(|((in_seq, t_in), (out_seq, t_out))| CausalityViolation {
                constraint: format!(
                    "t({component} in {in_topic}#{in_seq}) ≤ t({component} out {out_topic}#{out_seq})"
                ),
                earlier_ns: *t_in,
                later_ns: *t_out,
                suspects: vec![component.clone()],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_logger::LogEntry;

    fn entry(topic: &str, seq: u64, who: &str, dir: Direction, t: u64) -> LogEntry {
        let mut e = LogEntry::naive(
            NodeId::new(who),
            Topic::new(topic),
            dir,
            seq,
            t,
            vec![0u8; 4],
        );
        e.peer = None;
        e
    }

    /// The faithful chain of Figure 10(b): x → y → z.
    fn faithful_entries() -> Vec<LogEntry> {
        vec![
            entry("image", 3, "x", Direction::Out, 100),
            entry("image", 3, "y", Direction::In, 110),
            entry("feature", 7, "y", Direction::Out, 120),
            entry("feature", 7, "z", Direction::In, 130),
        ]
    }

    fn chain() -> Vec<(FlowStep, NodeId)> {
        vec![
            (
                FlowStep {
                    topic: Topic::new("image"),
                    seq: 3,
                    subscriber: NodeId::new("y"),
                },
                NodeId::new("x"),
            ),
            (
                FlowStep {
                    topic: Topic::new("feature"),
                    seq: 7,
                    subscriber: NodeId::new("z"),
                },
                NodeId::new("y"),
            ),
        ]
    }

    #[test]
    fn faithful_chain_has_no_violations() {
        let entries = faithful_entries();
        let c = CausalityChecker::from_entries(&entries);
        assert!(c.check_chain(&chain()).is_empty());
    }

    #[test]
    fn middle_component_inversion_detected() {
        // Figure 10(c): y alone skews so that t_{y,out} < t_{y,in} — the
        // inversion is visible at y itself.
        let mut entries = faithful_entries();
        entries[1].timestamp_ns = 125; // y in
        entries[2].timestamp_ns = 105; // y out
        let c = CausalityChecker::from_entries(&entries);
        let v = c.check_chain(&chain());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].suspects, vec![NodeId::new("y")]);
    }

    #[test]
    fn hop_inversion_blames_the_pair() {
        let mut entries = faithful_entries();
        entries[0].timestamp_ns = 115; // x out after y in
        let c = CausalityChecker::from_entries(&entries);
        let v = c.check_chain(&chain());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].suspects.len(), 2);
    }

    #[test]
    fn full_collusion_reorder_is_internally_consistent() {
        // Figure 10(d): when ALL of x, y, z collude they can present
        // t_{y,out} < t_{z,in} < t_{x,out} < t_{y,in} with every *pairwise*
        // constraint of the declared chain still... violated? No: the
        // re-ordering swaps the two transmissions entirely. The point of
        // Lemma 4 is that the colluders present a log in which the
        // constraints hold for the *swapped* precedence — i.e. validity of
        // each hop is preserved, precedence is not provable wrong.
        let entries = vec![
            entry("image", 3, "x", Direction::Out, 300),
            entry("image", 3, "y", Direction::In, 310),
            entry("feature", 7, "y", Direction::Out, 100),
            entry("feature", 7, "z", Direction::In, 110),
        ];
        let c = CausalityChecker::from_entries(&entries);
        // Each hop is locally consistent...
        assert!(c
            .check_hop(
                &Topic::new("image"),
                3,
                &NodeId::new("x"),
                &NodeId::new("y")
            )
            .is_none());
        assert!(c
            .check_hop(
                &Topic::new("feature"),
                7,
                &NodeId::new("y"),
                &NodeId::new("z")
            )
            .is_none());
        // ...but the declared chain (image before feature) is caught only
        // through y's processing constraint — which requires y's entries,
        // i.e. it is detectable unless all three collude on the story.
        let v = c.check_chain(&chain());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].suspects, vec![NodeId::new("y")]);
    }

    #[test]
    fn missing_entries_yield_no_verdict() {
        let entries = vec![entry("image", 3, "x", Direction::Out, 100)];
        let c = CausalityChecker::from_entries(&entries);
        assert!(c
            .check_hop(
                &Topic::new("image"),
                3,
                &NodeId::new("x"),
                &NodeId::new("y")
            )
            .is_none());
        assert!(c.check_chain(&chain()).is_empty());
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        let mut entries = faithful_entries();
        entries[1].timestamp_ns = 100; // equal to x out
        let c = CausalityChecker::from_entries(&entries);
        assert!(c.check_chain(&chain()).is_empty());
    }

    #[test]
    fn trigger_dependency_pairs_by_order() {
        // y consumes image #3, #4 and produces feature #7, #8; the second
        // pair is inverted.
        let entries = vec![
            entry("image", 3, "y", Direction::In, 100),
            entry("feature", 7, "y", Direction::Out, 110),
            entry("image", 4, "y", Direction::In, 220),
            entry("feature", 8, "y", Direction::Out, 200),
        ];
        let c = CausalityChecker::from_entries(&entries);
        let v = c.check_trigger_dependency(
            &Topic::new("image"),
            &NodeId::new("y"),
            &Topic::new("feature"),
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].constraint.contains("image#4"));
        assert_eq!(v[0].suspects, vec![NodeId::new("y")]);
    }

    #[test]
    fn trigger_dependency_tolerates_unequal_counts() {
        // More receipts than productions (pipeline still warming up).
        let entries = vec![
            entry("image", 1, "y", Direction::In, 100),
            entry("image", 2, "y", Direction::In, 150),
            entry("feature", 1, "y", Direction::Out, 120),
        ];
        let c = CausalityChecker::from_entries(&entries);
        assert!(c
            .check_trigger_dependency(
                &Topic::new("image"),
                &NodeId::new("y"),
                &Topic::new("feature")
            )
            .is_empty());
    }
}
