// Known-good twin of sth_taint_bad.rs: the gossip frame goes through
// `SignedTreeHead::decode` (magic + checksum validated, fails closed)
// before the decoded head reaches the adoption sink — the pattern
// `Federation::drain` uses for real.

use std::io::Read;

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

pub fn read_frame<R: Read>(sock: &mut R) -> Result<Vec<u8>, ()> {
    let mut body = vec![0u8; 64];
    sock.read_exact(&mut body).map_err(|_| ())?;
    Ok(body)
}

pub fn gossip_in<R: Read>(witness: &mut Witness, sock: &mut R) -> Result<(), ()> {
    let frame = read_frame(sock)?;
    let head = SignedTreeHead::decode(&frame)?;
    witness.adopt_head(head)
}
