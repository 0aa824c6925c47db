//! Unfaithful-component behavior models (§III-B of the paper).
//!
//! A [`BehaviorProfile`] describes how a component treats its *logging*
//! duties. The transport always behaves correctly — exchanged signatures are
//! valid with respect to the transmitted data (the paper's requirement (4),
//! enforced by making signing transparent at the transport layer) — but a
//! component is free to lie to the *logger*: hide entries, falsify payloads,
//! impersonate others, skew timestamps, or (with a colluder's private key)
//! forge the counterpart's signature so the lie looks internally consistent.

use adlp_crypto::rsa::RsaPrivateKey;
use adlp_pubsub::{NodeId, Topic};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The role a component plays on a link (a directed topic edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkRole {
    /// Producing the topic.
    Publisher,
    /// Consuming the topic.
    Subscriber,
}

/// How a component logs its activity on one link.
#[derive(Clone, Default)]
pub enum LogBehavior {
    /// Reports exactly what happened.
    #[default]
    Faithful,
    /// Enters no log entry at all (the paper's *hiding*).
    Hide,
    /// Logs a payload different from the real one, re-signed with its own
    /// key so the entry passes the authenticity check (3). Against a
    /// faithful counterpart this is detectable (*falsification*, Lemma 3).
    Falsify,
    /// Falsifies the payload **and** forges the counterpart's signature
    /// over the false payload using the counterpart's private key — only
    /// possible under collusion. Produces an internally consistent lie
    /// (`L_{V,c}` in the paper's classification).
    FalsifyWithPeerKey(Arc<RsaPrivateKey>),
    /// Logs the entry as if it were written by another component
    /// (*impersonation*). The forged entry fails authenticity under the
    /// victim's public key.
    ImpersonateAs(NodeId),
}

impl fmt::Debug for LogBehavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogBehavior::Faithful => write!(f, "Faithful"),
            LogBehavior::Hide => write!(f, "Hide"),
            LogBehavior::Falsify => write!(f, "Falsify"),
            LogBehavior::FalsifyWithPeerKey(_) => write!(f, "FalsifyWithPeerKey(<key>)"),
            LogBehavior::ImpersonateAs(id) => write!(f, "ImpersonateAs({id})"),
        }
    }
}

impl LogBehavior {
    /// Whether this behavior is [`LogBehavior::Faithful`].
    pub fn is_faithful(&self) -> bool {
        matches!(self, LogBehavior::Faithful)
    }
}

/// A component's complete (mis)behavior specification.
///
/// # Example
///
/// ```
/// use adlp_core::{BehaviorProfile, LinkRole, LogBehavior};
/// use adlp_pubsub::Topic;
///
/// // A sign recognizer that hides every record of the images it consumed.
/// let profile = BehaviorProfile::faithful()
///     .with_link(LinkRole::Subscriber, Topic::new("image"), LogBehavior::Hide);
/// assert!(!profile.is_faithful());
/// ```
#[derive(Debug, Clone, Default)]
pub struct BehaviorProfile {
    links: HashMap<(LinkRole, Topic), LogBehavior>,
    /// Topics on which this component, as a subscriber, refuses to send the
    /// acknowledgement `M_y` (fully non-cooperative; the publisher's ack
    /// gating then withholds further data — the protocol's penalty).
    withhold_acks: std::collections::HashSet<Topic>,
    /// Signed offset applied to every log-entry timestamp (*timing
    /// disruption*, §IV-B2). Zero for faithful components.
    pub timestamp_skew_ns: i64,
    /// Violates the paper's requirement (4): every `n`-th outgoing message
    /// carries a corrupted signature (Figure 8's invalid `(O_x, s_r)`
    /// pair). `None` for compliant transports. Exists to demonstrate *why*
    /// the protocol must enforce signature validity at the transport layer:
    /// without (4), an invalid pair is misattributed to the receiver.
    pub corrupt_signature_every: Option<u64>,
}

impl BehaviorProfile {
    /// A fully faithful profile.
    pub fn faithful() -> Self {
        Self::default()
    }

    /// Overrides the behavior on one link, returning `self` for chaining.
    pub fn with_link(mut self, role: LinkRole, topic: Topic, behavior: LogBehavior) -> Self {
        self.links.insert((role, topic), behavior);
        self
    }

    /// Sets a timestamp skew.
    pub fn with_timestamp_skew_ns(mut self, skew: i64) -> Self {
        self.timestamp_skew_ns = skew;
        self
    }

    /// Violates requirement (4) on every `n`-th publication.
    pub fn corrupting_signatures_every(mut self, n: u64) -> Self {
        self.corrupt_signature_every = Some(n.max(1));
        self
    }

    /// Marks a subscribed topic as never acknowledged.
    pub fn withholding_acks(mut self, topic: Topic) -> Self {
        self.withhold_acks.insert(topic);
        self
    }

    /// Whether acknowledgements are withheld on `topic`.
    pub fn withholds_ack(&self, topic: &Topic) -> bool {
        self.withhold_acks.contains(topic)
    }

    /// The behavior on a link (faithful unless overridden).
    pub fn link(&self, role: LinkRole, topic: &Topic) -> &LogBehavior {
        self.links
            .get(&(role, topic.clone()))
            .unwrap_or(&LogBehavior::Faithful)
    }

    /// Whether the whole profile is faithful (no overrides, no skew, no
    /// withheld acknowledgements).
    pub fn is_faithful(&self) -> bool {
        self.timestamp_skew_ns == 0
            && self.withhold_acks.is_empty()
            && self.corrupt_signature_every.is_none()
            && self.links.values().all(LogBehavior::is_faithful)
    }

    /// Applies the timestamp skew to an honest timestamp.
    pub fn skewed_timestamp(&self, honest_ns: u64) -> u64 {
        honest_ns.saturating_add_signed(self.timestamp_skew_ns)
    }
}

/// Deterministically falsifies a body: flips every payload byte past the
/// 16-byte header, keeping length (so falsified data remains plausible) and
/// the header (seq must stay consistent for the lie to target the right
/// transmission).
pub fn falsify_body(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    for b in out.iter_mut().skip(adlp_pubsub::HEADER_LEN) {
        *b = !*b;
    }
    // Degenerate case: header-only body; flip the timestamp half so the
    // falsified claim still differs.
    if body.len() <= adlp_pubsub::HEADER_LEN {
        for b in out.iter_mut().skip(8) {
            *b = !*b;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_faithful() {
        let p = BehaviorProfile::faithful();
        assert!(p.is_faithful());
        assert!(p.link(LinkRole::Publisher, &Topic::new("x")).is_faithful());
        assert_eq!(p.skewed_timestamp(100), 100);
    }

    #[test]
    fn link_overrides_are_scoped() {
        let p = BehaviorProfile::faithful().with_link(
            LinkRole::Subscriber,
            Topic::new("image"),
            LogBehavior::Hide,
        );
        assert!(matches!(
            p.link(LinkRole::Subscriber, &Topic::new("image")),
            LogBehavior::Hide
        ));
        // Same topic, other role: still faithful (the paper's example of B
        // forging logs for D_{C→B} while correctly logging D_{B→A}).
        assert!(p
            .link(LinkRole::Publisher, &Topic::new("image"))
            .is_faithful());
        assert!(p
            .link(LinkRole::Subscriber, &Topic::new("scan"))
            .is_faithful());
        assert!(!p.is_faithful());
    }

    #[test]
    fn skew_applies_and_saturates() {
        let p = BehaviorProfile::faithful().with_timestamp_skew_ns(-50);
        assert!(!p.is_faithful());
        assert_eq!(p.skewed_timestamp(100), 50);
        assert_eq!(p.skewed_timestamp(10), 0);
        let p = BehaviorProfile::faithful().with_timestamp_skew_ns(50);
        assert_eq!(p.skewed_timestamp(100), 150);
    }

    #[test]
    fn falsified_body_differs_but_keeps_header_and_len() {
        let body: Vec<u8> = (0..40).collect();
        let f = falsify_body(&body);
        assert_eq!(f.len(), body.len());
        assert_eq!(&f[..16], &body[..16]);
        assert_ne!(&f[16..], &body[16..]);
    }

    #[test]
    fn header_only_body_still_changes() {
        let body = vec![0u8; 16];
        let f = falsify_body(&body);
        assert_eq!(f.len(), 16);
        assert_ne!(f, body);
        assert_eq!(&f[..8], &body[..8]); // seq preserved
    }
}
