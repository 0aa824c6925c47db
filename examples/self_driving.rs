//! Runs the paper's self-driving application graph (Figure 11(b)) under
//! ADLP for a few seconds, then prints traffic, log volume, an audit, and a
//! provenance trace from a steering command back to the camera frame that
//! caused it.
//!
//! ```text
//! cargo run --release --example self_driving
//! ```

use adlp::audit::ProvenanceGraph;
use adlp::pubsub::Topic;
use adlp::sim::{self_driving_app, Scenario};
use std::time::Duration;

fn main() {
    println!("Spinning up the Figure 11(b) component graph under ADLP...");
    let report = Scenario::new(self_driving_app())
        .duration(Duration::from_secs(3))
        .run();

    println!("\n-- middleware traffic --");
    for (node, stats) in &report.node_stats {
        println!(
            "  {node:<10} published {:>4}  received {:>4}  acks sent {:>4}",
            stats.published, stats.received, stats.replies_sent
        );
    }

    println!("\n-- trusted logger --");
    println!(
        "  {} entries, {:.2} Mb/s log generation rate",
        report.store_len,
        report.log_rate_mbps()
    );
    report
        .logger
        .store()
        .verify_chain()
        .expect("records match their commitment");

    println!("\n-- audit --");
    let audit = report.audit();
    println!(
        "  {} links audited, all clear = {}",
        audit.link_count(),
        audit.all_clear()
    );

    println!("\n-- provenance: latest steering command --");
    let entries: Vec<_> = report
        .logger
        .store()
        .entries()
        .into_iter()
        .filter_map(Result::ok)
        .collect();
    let graph = ProvenanceGraph::from_entries(&entries);
    let last_steer = entries
        .iter()
        .filter(|e| e.topic == Topic::new("steering"))
        .map(|e| e.seq)
        .max();
    if let Some(seq) = last_steer {
        if let Some(trace) = graph.trace(&Topic::new("steering"), seq, 4) {
            print_trace(&trace, 1);
        }
    }
}

fn print_trace(node: &adlp::audit::ProvenanceNode, depth: usize) {
    println!(
        "  {:indent$}{} produced {}#{}",
        "",
        node.component,
        node.topic,
        node.seq,
        indent = (depth - 1) * 4
    );
    for input in &node.inputs {
        print_trace(input, depth + 1);
    }
}
