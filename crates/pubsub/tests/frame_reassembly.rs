//! TCP frame-reassembly properties: the length-prefixed wire discipline
//! must survive any byte-level mistreatment a real socket can inflict.
//!
//! The witness federation (and every other TCP path here) trusts
//! `read_frame` to reassemble frames that arrive split at arbitrary byte
//! boundaries, and to fail *cleanly* — an error or a clean `None`, never
//! a panic, and never a frame that differs from what the sender wrote.
//! These tests pin that contract three ways: an exhaustive split at every
//! byte boundary, property-driven random chunking/truncation/corruption/
//! concatenation, and an end-to-end pass through a [`ChaosProxy`] forced
//! to split every chunk it relays.

use adlp_pubsub::transport::chaos::{ChaosConfig, ChaosProxy};
use adlp_pubsub::wire::{encode_frame, read_frame, write_frame};
use proptest::prelude::*;
use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};

/// A reader that hands out the underlying bytes in caller-chosen chunk
/// sizes — the adversarial `Read` impl a fragmented socket presents.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    next: usize,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, sizes: Vec<usize>) -> Self {
        ChunkedReader {
            data,
            pos: 0,
            sizes,
            next: 0,
        }
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        // Cycle through the scripted chunk sizes; never return 0 before
        // true EOF (a zero-length read would be a spurious EOF).
        let scripted = self.sizes.get(self.next).copied().unwrap_or(1).max(1);
        self.next = (self.next + 1) % self.sizes.len().max(1);
        let n = scripted.min(buf.len()).min(self.data.len() - self.pos);
        let Some(src) = self.data.get(self.pos..self.pos + n) else {
            return Ok(0);
        };
        let Some(dst) = buf.get_mut(..n) else {
            return Ok(0);
        };
        dst.copy_from_slice(src);
        self.pos += n;
        Ok(n)
    }
}

fn encode_all(bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut buf = Vec::new();
    for b in bodies {
        write_frame(&mut buf, b).expect("vec write");
    }
    buf
}

fn read_all(reader: &mut impl Read) -> Result<Vec<Vec<u8>>, adlp_pubsub::PubSubError> {
    let mut out = Vec::new();
    while let Some(frame) = read_frame(reader)? {
        out.push(frame);
    }
    Ok(out)
}

/// Exhaustive: a two-chunk split at EVERY byte boundary of a multi-frame
/// stream reassembles byte-exactly.
#[test]
fn split_at_every_byte_boundary_reassembles_exactly() {
    let bodies = vec![vec![7u8; 5], Vec::new(), (0u8..17).collect::<Vec<u8>>()];
    let buf = encode_all(&bodies);
    for cut in 0..=buf.len() {
        let mut reader = ChunkedReader::new(buf.clone(), vec![cut.max(1), buf.len()]);
        let frames = read_all(&mut reader).expect("reassembly");
        assert_eq!(frames, bodies, "split at byte {cut} must be invisible");
    }
    // The pathological peer: one byte per read.
    let mut dribble = ChunkedReader::new(buf, vec![1]);
    assert_eq!(read_all(&mut dribble).expect("dribble"), bodies);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random frames through random chunkings: never a panic, never a
    /// frame differing from what was sent.
    #[test]
    fn random_chunking_is_invisible(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..256), 1..8),
        sizes in proptest::collection::vec(1usize..64, 1..16),
    ) {
        let buf = encode_all(&bodies);
        let mut reader = ChunkedReader::new(buf, sizes);
        prop_assert_eq!(read_all(&mut reader).expect("reassembly"), bodies);
    }

    /// Truncation at any byte: complete frames come back intact, the cut
    /// frame surfaces as an error or a clean end — never a panic, never
    /// an invented frame.
    #[test]
    fn truncation_never_panics_and_never_invents_frames(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 1..6),
        frac in 0.0f64..1.0,
    ) {
        let buf = encode_all(&bodies);
        let cut = (buf.len() as f64 * frac) as usize;
        let mut cur = Cursor::new(buf.get(..cut).unwrap_or(&buf).to_vec());
        let mut seen = Vec::new();
        let outcome = loop {
            match read_frame(&mut cur) {
                Ok(Some(frame)) => seen.push(frame),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        // Every frame that came back is a prefix of the sent sequence.
        prop_assert!(seen.len() <= bodies.len());
        for (got, sent) in seen.iter().zip(&bodies) {
            prop_assert!(got == sent, "a truncated stream must never corrupt a completed frame");
        }
        // A cut through a frame body is an I/O error; a cut at a frame
        // boundary (or inside a length prefix read as EOF) ends cleanly.
        if outcome.is_ok() {
            prop_assert!(seen.len() <= bodies.len());
        }
    }

    /// Arbitrary corruption: flipping any byte never panics the reader
    /// (it may misread lengths — the layers above carry checksums).
    #[test]
    fn corruption_never_panics(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..4),
        at in any::<usize>(),
        mask in any::<u8>(),
    ) {
        let mut buf = encode_all(&bodies);
        if !buf.is_empty() {
            let at = at % buf.len();
            if let Some(byte) = buf.get_mut(at) {
                *byte ^= mask | 1;
            }
        }
        let mut cur = Cursor::new(buf);
        while let Ok(Some(_)) = read_frame(&mut cur) {}
    }

    /// Concatenated streams parse as the concatenation of their frames —
    /// no frame bleeds into its neighbor.
    #[test]
    fn concatenated_streams_do_not_bleed(
        first in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..4),
        second in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..4),
    ) {
        let mut buf = encode_all(&first);
        buf.extend_from_slice(&encode_all(&second));
        let mut cur = Cursor::new(buf);
        let mut expect: Vec<Vec<u8>> = first;
        expect.extend(second);
        prop_assert_eq!(read_all(&mut cur).expect("concat"), expect);
    }

    /// Frame overhead stays the fixed 4-byte preamble.
    #[test]
    fn preamble_is_exactly_four_bytes(body in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(encode_frame(&body).len(), body.len() + 4);
    }
}

/// End-to-end: a chaos proxy forced to split EVERY chunk it relays (and
/// stall some) still delivers byte-exact frames to a real socket reader.
#[test]
fn chaos_proxy_full_split_preserves_frames_exactly() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let target = listener.local_addr().expect("addr");
    // Split rate 1.0 and nothing else: every relayed chunk is cut at a
    // seeded byte boundary, so reassembly is exercised on every read.
    let config = ChaosConfig {
        seed: 0xF2A6,
        ..ChaosConfig::default()
    }
    .with_split_rate(1.0);
    let proxy = ChaosProxy::spawn(target, config).expect("proxy");

    let bodies: Vec<Vec<u8>> = (0..24)
        .map(|i| (0..(i * 37) % 300).map(|b| (b % 251) as u8).collect())
        .collect();
    let expected = bodies.clone();

    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = std::io::BufReader::new(stream);
        let mut frames = Vec::new();
        while let Ok(Some(frame)) = read_frame(&mut reader) {
            frames.push(frame);
        }
        frames
    });

    let mut client = TcpStream::connect(proxy.addr()).expect("dial proxy");
    for body in &bodies {
        write_frame(&mut client, body).expect("send");
    }
    client.flush().expect("flush");
    drop(client);

    let frames = server.join().expect("server thread");
    assert_eq!(
        frames, expected,
        "a fully split relay must be invisible to frame reassembly"
    );
    assert!(
        proxy
            .stats()
            .splits
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the proxy must actually have split chunks: {:?}",
        proxy.stats()
    );
}
