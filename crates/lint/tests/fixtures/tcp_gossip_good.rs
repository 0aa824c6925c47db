// Known-good twin of tcp_gossip_bad.rs: every frame popped from the
// gossip inbox passes `SignedTreeHead::decode` (magic + checksum
// validated, fails closed) before the decoded head reaches the adoption
// sink — the pattern `Federation::drain` uses for real.

use std::collections::VecDeque;

pub struct SignedTreeHead {
    pub size: u64,
}

impl SignedTreeHead {
    pub fn decode(frame: &[u8]) -> Result<SignedTreeHead, ()> {
        let size = frame.first().copied().ok_or(())?;
        Ok(SignedTreeHead { size: u64::from(size) })
    }
}

pub struct Witness {
    heads: Vec<u64>,
}

impl Witness {
    pub fn adopt_head(&mut self, head: SignedTreeHead) -> Result<(), ()> {
        self.heads.push(head.size);
        Ok(())
    }
}

pub struct GossipNode {
    inbox: VecDeque<Vec<u8>>,
    witness: Witness,
}

impl GossipNode {
    pub fn recv_gossip_frame(&mut self) -> Option<Vec<u8>> {
        self.inbox.pop_front()
    }

    pub fn drain_round(&mut self) -> usize {
        let mut adopted = 0;
        while let Some(frame) = self.recv_gossip_frame() {
            let Ok(head) = SignedTreeHead::decode(&frame) else {
                continue;
            };
            if self.witness.adopt_head(head).is_ok() {
                adopted += 1;
            }
        }
        adopted
    }
}
