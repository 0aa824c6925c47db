//! Collusion groups (paper Definition 1).
//!
//! A collusion group is the transitive closure of pairwise collusion
//! edges; maximal groups partition the components. The auditor cannot
//! *observe* collusion directly (a colluding pair is unobservable), but it
//! can derive **candidate** edges from unresolvable conflicts and sequence
//! gaps, and scenario code can state ground-truth edges to verify the
//! partition logic itself.

use crate::classify::Anomaly;
use adlp_pubsub::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// A union-find over components, yielding maximal collusion groups.
#[derive(Debug, Clone, Default)]
pub struct CollusionGroups {
    parent: BTreeMap<NodeId, NodeId>,
}

impl CollusionGroups {
    /// Creates an empty structure (every component a singleton).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from explicit pairwise collusion edges.
    pub fn from_edges(edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut g = Self::new();
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Derives *candidate* edges from audit anomalies: conflicting evidence
    /// implicates the pair; (other anomaly kinds carry no pair information).
    pub fn candidates_from_anomalies<'a>(anomalies: impl IntoIterator<Item = &'a Anomaly>) -> Self {
        let mut g = Self::new();
        for a in anomalies {
            if let Anomaly::ConflictingEvidence { parties, .. } = a {
                g.add_edge(parties.0.clone(), parties.1.clone());
            }
        }
        g
    }

    /// Registers a component (as a singleton if unseen).
    pub fn add_component(&mut self, c: NodeId) {
        self.parent.entry(c.clone()).or_insert(c);
    }

    /// Records that `a` and `b` collude.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        self.add_component(a.clone());
        self.add_component(b.clone());
        let ra = self.find(&a);
        let rb = self.find(&b);
        if ra != rb {
            self.parent.insert(rb, ra);
        }
    }

    fn find(&mut self, c: &NodeId) -> NodeId {
        let p = self.parent.get(c).cloned().unwrap_or_else(|| c.clone());
        if &p == c {
            return p;
        }
        let root = self.find(&p);
        self.parent.insert(c.clone(), root.clone());
        root
    }

    /// Whether `a` and `b` are in the same maximal group.
    pub fn same_group(&mut self, a: &NodeId, b: &NodeId) -> bool {
        self.add_component(a.clone());
        self.add_component(b.clone());
        self.find(a) == self.find(b)
    }

    /// The maximal collusion groups (sorted members, sorted groups).
    pub fn maximal_groups(&mut self) -> Vec<Vec<NodeId>> {
        let members: Vec<NodeId> = self.parent.keys().cloned().collect();
        let mut groups: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
        for m in members {
            let root = self.find(&m);
            groups.entry(root).or_default().insert(m);
        }
        groups
            .into_values()
            .map(|s| s.into_iter().collect())
            .collect()
    }

    /// A system is collusion-free iff every maximal group is a singleton.
    pub fn is_collusion_free(&mut self) -> bool {
        self.maximal_groups().iter().all(|g| g.len() == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_pubsub::Topic;

    fn n(s: &str) -> NodeId {
        NodeId::new(s)
    }

    #[test]
    fn singletons_are_collusion_free() {
        let mut g = CollusionGroups::new();
        g.add_component(n("a"));
        g.add_component(n("b"));
        assert!(g.is_collusion_free());
        assert_eq!(g.maximal_groups(), vec![vec![n("a")], vec![n("b")]]);
    }

    #[test]
    fn transitive_closure_forms_maximal_group() {
        // The paper's Figure 2: {B, C} collude, A and D are singletons.
        let mut g = CollusionGroups::from_edges([(n("b"), n("c"))]);
        g.add_component(n("a"));
        g.add_component(n("d"));
        assert!(!g.is_collusion_free());
        assert!(g.same_group(&n("b"), &n("c")));
        assert!(!g.same_group(&n("a"), &n("b")));
        let groups = g.maximal_groups();
        assert_eq!(groups.len(), 3);
        assert!(groups.contains(&vec![n("b"), n("c")]));
    }

    #[test]
    fn chains_merge() {
        let mut g =
            CollusionGroups::from_edges([(n("a"), n("b")), (n("b"), n("c")), (n("d"), n("e"))]);
        assert!(g.same_group(&n("a"), &n("c")));
        assert!(!g.same_group(&n("a"), &n("d")));
        assert_eq!(g.maximal_groups().len(), 2);
    }

    #[test]
    fn candidates_from_conflicting_evidence() {
        let anomalies = vec![
            Anomaly::ConflictingEvidence {
                topic: Topic::new("t"),
                seq: 1,
                parties: (n("p"), n("s")),
            },
            Anomaly::SequenceGap {
                topic: Topic::new("t"),
                subscriber: n("x"),
                missing: vec![2],
            },
        ];
        let mut g = CollusionGroups::candidates_from_anomalies(&anomalies);
        assert!(g.same_group(&n("p"), &n("s")));
        assert!(!g.parent.contains_key(&n("x")), "gaps carry no pair info");
    }
}
