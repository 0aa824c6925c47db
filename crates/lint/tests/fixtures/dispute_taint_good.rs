// Known-good twin of dispute_taint_bad.rs: every wire frame passes a
// structural decode (`SignedEvidence::decode`, `decode_conviction_frame`
// — magic + checksum validated, fails closed) before anything reaches
// the ledger or witness admission sinks — the pattern the real
// `DisputeLedger` callers and `Federation::drain` use.

use std::collections::VecDeque;

pub struct SignedEvidence {
    pub dispute: u64,
}

impl SignedEvidence {
    pub fn decode(frame: &[u8]) -> Result<SignedEvidence, ()> {
        let dispute = frame.first().copied().ok_or(())?;
        Ok(SignedEvidence { dispute: u64::from(dispute) })
    }
}

pub struct SplitViewProof {
    pub size: u64,
}

pub fn decode_conviction_frame(frame: &[u8]) -> Option<SplitViewProof> {
    let size = frame.first().copied()?;
    Some(SplitViewProof { size: u64::from(size) })
}

pub struct DisputeLedger {
    evidence: Vec<u64>,
}

impl DisputeLedger {
    pub fn submit_evidence(&mut self, id: u64, ev: SignedEvidence) -> Result<(), ()> {
        let _ = id;
        self.evidence.push(ev.dispute);
        Ok(())
    }
}

pub struct Witness {
    proofs: Vec<u64>,
}

impl Witness {
    pub fn adopt_proof(&mut self, proof: SplitViewProof) -> Option<bool> {
        self.proofs.push(proof.size);
        Some(true)
    }
}

pub struct CourtNode {
    inbox: VecDeque<Vec<u8>>,
    ledger: DisputeLedger,
    witness: Witness,
}

impl CourtNode {
    pub fn recv_gossip_frame(&mut self) -> Option<Vec<u8>> {
        self.inbox.pop_front()
    }

    pub fn drain_evidence(&mut self) -> usize {
        let mut admitted = 0;
        while let Some(frame) = self.recv_gossip_frame() {
            let Ok(ev) = SignedEvidence::decode(&frame) else {
                continue;
            };
            if self.ledger.submit_evidence(0, ev).is_ok() {
                admitted += 1;
            }
        }
        admitted
    }

    pub fn admit_streamed(&mut self) -> bool { self.recv_gossip_frame().and_then(|f| SignedEvidence::decode_from(&mut f.as_slice()).ok()).is_some_and(|ev| self.ledger.submit_evidence(0, ev).is_ok()) }

    pub fn drain_convictions(&mut self) -> usize {
        let mut adopted = 0;
        while let Some(frame) = self.recv_gossip_frame() {
            let Some(proof) = decode_conviction_frame(&frame) else {
                continue;
            };
            if self.witness.adopt_proof(proof) == Some(true) {
                adopted += 1;
            }
        }
        adopted
    }
}
