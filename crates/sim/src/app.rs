//! Application graphs, including the paper's self-driving car (Fig. 11(b)).

use crate::data::PayloadKind;

/// How a published topic is driven.
#[derive(Debug, Clone, PartialEq)]
pub enum DriveSpec {
    /// Published from a dedicated driver thread at a fixed rate (sensors).
    Periodic {
        /// Publications per second.
        hz: f64,
    },
    /// Published once per message received on another topic (processing
    /// nodes: perception, planning, control).
    OnInput {
        /// The triggering input topic.
        topic: String,
    },
}

/// One published topic of a node.
#[derive(Debug, Clone, PartialEq)]
pub struct PubSpec {
    /// Topic name (also the unique data type).
    pub topic: String,
    /// Payload kind/size.
    pub payload: PayloadKind,
    /// Publication driver.
    pub drive: DriveSpec,
}

/// One component of the application.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeSpec {
    /// Component id.
    pub id: String,
    /// Published topics.
    pub publishes: Vec<PubSpec>,
    /// Topics consumed without driving an output (pure sinks). Topics named
    /// by `OnInput` drivers are subscribed automatically.
    pub subscribes: Vec<String>,
}

impl NodeSpec {
    /// Creates an empty component.
    pub fn new(id: impl Into<String>) -> Self {
        NodeSpec {
            id: id.into(),
            ..Default::default()
        }
    }

    /// Adds a periodic (sensor) publication.
    pub fn publishes_periodic(mut self, topic: &str, payload: PayloadKind, hz: f64) -> Self {
        self.publishes.push(PubSpec {
            topic: topic.into(),
            payload,
            drive: DriveSpec::Periodic { hz },
        });
        self
    }

    /// Adds a publication triggered by an input topic.
    pub fn publishes_on(mut self, topic: &str, payload: PayloadKind, input: &str) -> Self {
        self.publishes.push(PubSpec {
            topic: topic.into(),
            payload,
            drive: DriveSpec::OnInput {
                topic: input.into(),
            },
        });
        self
    }

    /// Adds a sink subscription.
    pub fn subscribes_to(mut self, topic: &str) -> Self {
        self.subscribes.push(topic.into());
        self
    }

    /// All topics this node consumes (sinks + trigger inputs), deduplicated.
    pub fn all_inputs(&self) -> Vec<String> {
        let mut v = self.subscribes.clone();
        for p in &self.publishes {
            if let DriveSpec::OnInput { topic } = &p.drive {
                if !v.contains(topic) {
                    v.push(topic.clone());
                }
            }
        }
        v
    }
}

/// A complete application graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AppSpec {
    /// The components.
    pub nodes: Vec<NodeSpec>,
}

impl AppSpec {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a component.
    pub fn with_node(mut self, node: NodeSpec) -> Self {
        self.nodes.push(node);
        self
    }

    /// All (topic, publisher) pairs.
    pub fn topics(&self) -> Vec<(String, String)> {
        self.nodes
            .iter()
            .flat_map(|n| {
                n.publishes
                    .iter()
                    .map(move |p| (p.topic.clone(), n.id.clone()))
            })
            .collect()
    }

    /// Validates the graph: unique node ids, unique publisher per topic,
    /// every consumed topic published by someone.
    pub fn validate(&self) -> Result<(), String> {
        let mut ids = std::collections::HashSet::new();
        for n in &self.nodes {
            if !ids.insert(&n.id) {
                return Err(format!("duplicate node id {}", n.id));
            }
        }
        let mut owners = std::collections::HashMap::new();
        for (topic, publisher) in self.topics() {
            if let Some(prev) = owners.insert(topic.clone(), publisher.clone()) {
                return Err(format!(
                    "topic {topic} published by both {prev} and {publisher}"
                ));
            }
        }
        for n in &self.nodes {
            for t in n.all_inputs() {
                if !owners.contains_key(&t) {
                    return Err(format!("node {} consumes unpublished topic {t}", n.id));
                }
            }
        }
        Ok(())
    }
}

/// The autonomous-navigation application of Figure 11(b): camera and LIDAR
/// feeders, lane detection, traffic-sign recognition, obstacle detection, a
/// planner producing steering/throttle, a controller, and the actuation
/// endpoint. Rates follow the paper where stated (camera at 20 Hz).
pub fn self_driving_app() -> AppSpec {
    AppSpec::new()
        .with_node(NodeSpec::new("imgfeed").publishes_periodic("image", PayloadKind::Image, 20.0))
        .with_node(NodeSpec::new("scanfeed").publishes_periodic("scan", PayloadKind::Scan, 10.0))
        .with_node(NodeSpec::new("lanedet").publishes_on(
            "lane_pos",
            PayloadKind::Custom(24),
            "image",
        ))
        .with_node(NodeSpec::new("signrec").publishes_on(
            "sign_class",
            PayloadKind::Custom(20),
            "image",
        ))
        .with_node(NodeSpec::new("obsdet").publishes_on(
            "obstacle",
            PayloadKind::Custom(32),
            "scan",
        ))
        .with_node(
            NodeSpec::new("planner")
                .publishes_on("steering", PayloadKind::Steering, "lane_pos")
                .publishes_on("throttle", PayloadKind::Custom(20), "obstacle")
                .subscribes_to("sign_class"),
        )
        .with_node(
            NodeSpec::new("ctrl")
                .publishes_on("actuation", PayloadKind::Custom(24), "steering")
                .subscribes_to("throttle"),
        )
        .with_node(NodeSpec::new("actuator").subscribes_to("actuation"))
}

/// A single publisher fanning `payload` out to `n_subs` sink subscribers at
/// `hz` — the workload of Figure 14 (Image publisher, 1–4 subscribers).
pub fn fanout_app(payload: PayloadKind, n_subs: usize, hz: f64) -> AppSpec {
    let mut app =
        AppSpec::new().with_node(NodeSpec::new("feeder").publishes_periodic("data", payload, hz));
    for i in 0..n_subs {
        app = app.with_node(NodeSpec::new(format!("sink{i}")).subscribes_to("data"));
    }
    app
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_driving_app_is_valid() {
        let app = self_driving_app();
        assert!(app.validate().is_ok(), "{:?}", app.validate());
        assert_eq!(app.nodes.len(), 8);
        // The paper's end-to-end flow camera → steering exists.
        let topics = app.topics();
        assert!(topics.iter().any(|(t, p)| t == "image" && p == "imgfeed"));
        assert!(topics
            .iter()
            .any(|(t, p)| t == "steering" && p == "planner"));
    }

    #[test]
    fn fanout_app_shape() {
        let app = fanout_app(PayloadKind::Image, 4, 20.0);
        assert!(app.validate().is_ok());
        assert_eq!(app.nodes.len(), 5);
    }

    #[test]
    fn validation_catches_duplicate_publisher() {
        let app = AppSpec::new()
            .with_node(NodeSpec::new("a").publishes_periodic("t", PayloadKind::Steering, 1.0))
            .with_node(NodeSpec::new("b").publishes_periodic("t", PayloadKind::Steering, 1.0));
        assert!(app.validate().is_err());
    }

    #[test]
    fn validation_catches_unpublished_input() {
        let app = AppSpec::new().with_node(NodeSpec::new("a").subscribes_to("ghost"));
        assert!(app.validate().is_err());
    }

    #[test]
    fn validation_catches_duplicate_ids() {
        let app = AppSpec::new()
            .with_node(NodeSpec::new("a"))
            .with_node(NodeSpec::new("a"));
        assert!(app.validate().is_err());
    }

    #[test]
    fn all_inputs_includes_triggers_and_sinks() {
        let n = NodeSpec::new("planner")
            .publishes_on("steering", PayloadKind::Steering, "lane_pos")
            .subscribes_to("sign_class");
        let inputs = n.all_inputs();
        assert!(inputs.contains(&"lane_pos".to_string()));
        assert!(inputs.contains(&"sign_class".to_string()));
        assert_eq!(inputs.len(), 2);
    }
}
