//! Provenance reconstruction: the proven data-flow graph and backward
//! tracing.
//!
//! "A well-constructed log of data flow among software components can help
//! detect the origin of a faulty operation by keeping track of dependencies
//! between data production (output) and consumption (input)" (§I). This
//! module rebuilds that graph from audited log entries: each proven
//! transmission is an edge; tracing a faulty output walks backwards through
//! the consuming component's most recent inputs.

use adlp_logger::{Direction, LogEntry};
use adlp_pubsub::{NodeId, Topic};
use std::collections::{BTreeMap, HashMap};

/// One proven transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEdge {
    /// The data type.
    pub topic: Topic,
    /// The sequence number.
    pub seq: u64,
    /// Producer.
    pub publisher: NodeId,
    /// Consumer.
    pub subscriber: NodeId,
    /// The publisher's claimed timestamp (`None` if only the subscriber
    /// reported).
    pub t_out_ns: Option<u64>,
    /// The subscriber's claimed timestamp (`None` if only the publisher
    /// reported).
    pub t_in_ns: Option<u64>,
}

/// A node in a backward provenance trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceNode {
    /// The component that produced the datum.
    pub component: NodeId,
    /// The produced datum.
    pub topic: Topic,
    /// Its sequence number.
    pub seq: u64,
    /// Production timestamp (best available claim).
    pub timestamp_ns: u64,
    /// The inputs this production most plausibly consumed (the latest
    /// receipt of each subscribed type before the production instant).
    pub inputs: Vec<ProvenanceNode>,
}

impl ProvenanceNode {
    /// Flattens the trace into (component, topic, seq) triples,
    /// depth-first.
    pub fn flatten(&self) -> Vec<(NodeId, Topic, u64)> {
        let mut out = vec![(self.component.clone(), self.topic.clone(), self.seq)];
        for i in &self.inputs {
            out.extend(i.flatten());
        }
        out
    }

    /// Depth of the trace (1 for a leaf).
    pub fn depth(&self) -> usize {
        1 + self
            .inputs
            .iter()
            .map(ProvenanceNode::depth)
            .max()
            .unwrap_or(0)
    }
}

/// One hop of a *forward* (impact) trace: a component that consumed the
/// datum, and what it went on to produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImpactNode {
    /// The consuming component.
    pub subscriber: NodeId,
    /// Its claimed receipt time.
    pub t_in_ns: u64,
    /// Productions plausibly derived from this input: for each output
    /// topic, the first production after the receipt, with its own
    /// downstream impact.
    pub outputs: Vec<(Topic, u64, Vec<ImpactNode>)>,
}

impl ImpactNode {
    /// All (topic, seq) data items in this impact subtree.
    pub fn affected(&self) -> Vec<(Topic, u64)> {
        let mut out = Vec::new();
        for (t, s, downstream) in &self.outputs {
            out.push((t.clone(), *s));
            for d in downstream {
                out.extend(d.affected());
            }
        }
        out
    }
}

/// The reconstructed data-flow graph.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceGraph {
    edges: Vec<FlowEdge>,
    /// (topic, seq) → publication timestamp + publisher.
    productions: BTreeMap<(Topic, u64), (NodeId, u64)>,
    /// component → receipts (topic, seq, t_in).
    receipts: HashMap<NodeId, Vec<(Topic, u64, u64)>>,
    /// component → productions (topic, seq, t_out).
    produced_by: HashMap<NodeId, Vec<(Topic, u64, u64)>>,
}

impl ProvenanceGraph {
    /// Builds the graph from (preferably audited-valid) entries.
    pub fn from_entries<'a>(entries: impl IntoIterator<Item = &'a LogEntry>) -> Self {
        let mut g = ProvenanceGraph::default();
        let mut outs: BTreeMap<(Topic, u64, NodeId), (NodeId, u64)> = BTreeMap::new();
        let mut ins: BTreeMap<(Topic, u64, NodeId), (u64, Option<NodeId>)> = BTreeMap::new();

        for e in entries {
            match e.direction {
                Direction::Out => {
                    g.productions
                        .entry((e.topic.clone(), e.seq))
                        .or_insert((e.component.clone(), e.timestamp_ns));
                    let produced = g.produced_by.entry(e.component.clone()).or_default();
                    if !produced
                        .iter()
                        .any(|(t, s, _)| t == &e.topic && *s == e.seq)
                    {
                        produced.push((e.topic.clone(), e.seq, e.timestamp_ns));
                    }
                    if let Some(peer) = &e.peer {
                        outs.insert(
                            (e.topic.clone(), e.seq, peer.clone()),
                            (e.component.clone(), e.timestamp_ns),
                        );
                    }
                    for ack in &e.acks {
                        outs.insert(
                            (e.topic.clone(), e.seq, ack.subscriber.clone()),
                            (e.component.clone(), e.timestamp_ns),
                        );
                    }
                }
                Direction::In => {
                    ins.insert(
                        (e.topic.clone(), e.seq, e.component.clone()),
                        (e.timestamp_ns, e.peer.clone()),
                    );
                    g.receipts.entry(e.component.clone()).or_default().push((
                        e.topic.clone(),
                        e.seq,
                        e.timestamp_ns,
                    ));
                }
            }
        }

        // Merge the two sides into edges.
        let mut keys: Vec<(Topic, u64, NodeId)> = outs.keys().cloned().collect();
        for k in ins.keys() {
            if !outs.contains_key(k) {
                keys.push(k.clone());
            }
        }
        for key in keys {
            let (topic, seq, subscriber) = key.clone();
            let out = outs.get(&key);
            let in_side = ins.get(&key);
            let publisher = out
                .map(|(p, _)| p.clone())
                .or_else(|| {
                    g.productions
                        .get(&(topic.clone(), seq))
                        .map(|(p, _)| p.clone())
                })
                .or_else(|| in_side.and_then(|(_, claimed)| claimed.clone()))
                .unwrap_or_else(|| NodeId::new("?"));
            g.edges.push(FlowEdge {
                topic,
                seq,
                publisher,
                subscriber,
                t_out_ns: out.map(|&(_, t)| t),
                t_in_ns: in_side.map(|&(t, _)| t),
            });
        }
        g
    }

    /// All proven edges.
    pub fn edges(&self) -> &[FlowEdge] {
        &self.edges
    }

    /// Traces the *impact* of `(topic, seq)` forwards up to `max_depth`
    /// hops: which components consumed it, and the first thing each
    /// produced on every output topic afterwards (the plausible derived
    /// data). The incident-analysis question "which actuations did this
    /// corrupt frame influence?".
    pub fn trace_forward(&self, topic: &Topic, seq: u64, max_depth: usize) -> Vec<ImpactNode> {
        let consumers: Vec<(NodeId, u64)> = self
            .edges
            .iter()
            .filter(|e| &e.topic == topic && e.seq == seq)
            .filter_map(|e| e.t_in_ns.map(|t| (e.subscriber.clone(), t)))
            .collect();
        consumers
            .into_iter()
            .map(|(subscriber, t_in)| self.impact_of(subscriber, t_in, max_depth))
            .collect()
    }

    fn impact_of(&self, subscriber: NodeId, t_in: u64, depth_left: usize) -> ImpactNode {
        let mut outputs = Vec::new();
        if depth_left > 0 {
            if let Some(prods) = self.produced_by.get(&subscriber) {
                // First production per output topic at or after the receipt.
                let mut first: BTreeMap<Topic, (u64, u64)> = BTreeMap::new();
                for (t, s, t_out) in prods {
                    if *t_out >= t_in {
                        let slot = first.entry(t.clone()).or_insert((*s, *t_out));
                        if *t_out < slot.1 {
                            *slot = (*s, *t_out);
                        }
                    }
                }
                for (t, (s, _)) in first {
                    let downstream = self.trace_forward(&t, s, depth_left - 1);
                    outputs.push((t, s, downstream));
                }
            }
        }
        ImpactNode {
            subscriber,
            t_in_ns: t_in,
            outputs,
        }
    }

    /// Traces the provenance of `(topic, seq)` backwards up to `max_depth`
    /// hops. Returns `None` if no production record exists.
    pub fn trace(&self, topic: &Topic, seq: u64, max_depth: usize) -> Option<ProvenanceNode> {
        let (producer, t_prod) = self.productions.get(&(topic.clone(), seq))?.clone();
        Some(self.trace_inner(producer, topic.clone(), seq, t_prod, max_depth))
    }

    fn trace_inner(
        &self,
        component: NodeId,
        topic: Topic,
        seq: u64,
        t_prod: u64,
        depth_left: usize,
    ) -> ProvenanceNode {
        let mut inputs = Vec::new();
        if depth_left > 0 {
            // Latest receipt per input topic strictly before production.
            let mut latest: BTreeMap<Topic, (u64, u64)> = BTreeMap::new();
            if let Some(rs) = self.receipts.get(&component) {
                for (t, s, t_in) in rs {
                    if *t_in <= t_prod {
                        let slot = latest.entry(t.clone()).or_insert((*s, *t_in));
                        if *t_in >= slot.1 {
                            *slot = (*s, *t_in);
                        }
                    }
                }
            }
            for (in_topic, (in_seq, _)) in latest {
                if let Some((producer, t)) = self.productions.get(&(in_topic.clone(), in_seq)) {
                    inputs.push(self.trace_inner(
                        producer.clone(),
                        in_topic,
                        in_seq,
                        *t,
                        depth_left - 1,
                    ));
                } else {
                    // Input with no production record (hidden publisher):
                    // still surface it as a leaf.
                    inputs.push(ProvenanceNode {
                        component: NodeId::new("?"),
                        topic: in_topic,
                        seq: in_seq,
                        timestamp_ns: 0,
                        inputs: Vec::new(),
                    });
                }
            }
        }
        ProvenanceNode {
            component,
            topic,
            seq,
            timestamp_ns: t_prod,
            inputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(
        topic: &str,
        seq: u64,
        who: &str,
        dir: Direction,
        t: u64,
        peer: Option<&str>,
    ) -> LogEntry {
        let mut e = LogEntry::naive(
            NodeId::new(who),
            Topic::new(topic),
            dir,
            seq,
            t,
            vec![0u8; 4],
        );
        e.peer = peer.map(NodeId::new);
        e
    }

    /// camera →(image#3)→ detector →(steer#9)→ actuator
    fn pipeline_entries() -> Vec<LogEntry> {
        vec![
            entry("image", 3, "camera", Direction::Out, 100, Some("detector")),
            entry("image", 3, "detector", Direction::In, 110, Some("camera")),
            entry(
                "steer",
                9,
                "detector",
                Direction::Out,
                120,
                Some("actuator"),
            ),
            entry("steer", 9, "actuator", Direction::In, 130, Some("detector")),
        ]
    }

    #[test]
    fn edges_are_reconstructed() {
        let entries = pipeline_entries();
        let g = ProvenanceGraph::from_entries(&entries);
        assert_eq!(g.edges().len(), 2);
        let image = g
            .edges()
            .iter()
            .find(|e| e.topic == Topic::new("image"))
            .unwrap();
        assert_eq!(image.publisher, NodeId::new("camera"));
        assert_eq!(image.subscriber, NodeId::new("detector"));
        assert_eq!(image.t_out_ns, Some(100));
        assert_eq!(image.t_in_ns, Some(110));
    }

    #[test]
    fn backward_trace_finds_the_camera_frame() {
        let entries = pipeline_entries();
        let g = ProvenanceGraph::from_entries(&entries);
        let trace = g.trace(&Topic::new("steer"), 9, 5).unwrap();
        assert_eq!(trace.component, NodeId::new("detector"));
        assert_eq!(trace.depth(), 2);
        let flat = trace.flatten();
        assert!(flat.contains(&(NodeId::new("camera"), Topic::new("image"), 3)));
    }

    #[test]
    fn trace_uses_latest_input_before_production() {
        let mut entries = pipeline_entries();
        // An older image receipt that must NOT be selected.
        entries.push(entry(
            "image",
            2,
            "detector",
            Direction::In,
            90,
            Some("camera"),
        ));
        entries.push(entry(
            "image",
            2,
            "camera",
            Direction::Out,
            85,
            Some("detector"),
        ));
        let g = ProvenanceGraph::from_entries(&entries);
        let trace = g.trace(&Topic::new("steer"), 9, 5).unwrap();
        let flat = trace.flatten();
        assert!(flat.contains(&(NodeId::new("camera"), Topic::new("image"), 3)));
        assert!(!flat.contains(&(NodeId::new("camera"), Topic::new("image"), 2)));
    }

    #[test]
    fn depth_limit_truncates() {
        let entries = pipeline_entries();
        let g = ProvenanceGraph::from_entries(&entries);
        let trace = g.trace(&Topic::new("steer"), 9, 0).unwrap();
        assert!(trace.inputs.is_empty());
    }

    #[test]
    fn unknown_datum_yields_none() {
        let g = ProvenanceGraph::from_entries(&pipeline_entries());
        assert!(g.trace(&Topic::new("steer"), 999, 3).is_none());
    }

    #[test]
    fn forward_trace_finds_downstream_actuation() {
        let entries = pipeline_entries();
        let g = ProvenanceGraph::from_entries(&entries);
        let impact = g.trace_forward(&Topic::new("image"), 3, 5);
        assert_eq!(impact.len(), 1);
        assert_eq!(impact[0].subscriber, NodeId::new("detector"));
        let affected = impact[0].affected();
        assert!(affected.contains(&(Topic::new("steer"), 9)));
    }

    #[test]
    fn forward_trace_ignores_productions_before_receipt() {
        let mut entries = pipeline_entries();
        // A steering command produced BEFORE the image arrived cannot have
        // been derived from it.
        entries.push(entry(
            "steer",
            8,
            "detector",
            Direction::Out,
            50,
            Some("actuator"),
        ));
        let g = ProvenanceGraph::from_entries(&entries);
        let impact = g.trace_forward(&Topic::new("image"), 3, 5);
        let affected = impact[0].affected();
        assert!(affected.contains(&(Topic::new("steer"), 9)));
        assert!(!affected.contains(&(Topic::new("steer"), 8)));
    }

    #[test]
    fn forward_trace_depth_limit() {
        let entries = pipeline_entries();
        let g = ProvenanceGraph::from_entries(&entries);
        let impact = g.trace_forward(&Topic::new("image"), 3, 0);
        assert_eq!(impact.len(), 1);
        assert!(impact[0].outputs.is_empty());
    }

    #[test]
    fn subscriber_only_edge_surfaces_with_unknown_timestamps() {
        // Publisher hid: only the receipt exists.
        let entries = vec![entry(
            "image",
            1,
            "detector",
            Direction::In,
            50,
            Some("camera"),
        )];
        let g = ProvenanceGraph::from_entries(&entries);
        assert_eq!(g.edges().len(), 1);
        assert_eq!(g.edges()[0].t_out_ns, None);
        assert_eq!(g.edges()[0].publisher, NodeId::new("camera"));
    }
}
