//! One corruption suite for every on-disk and evidence format.
//!
//! Each row of [`formats`] is (name, sample bytes, shape, decoder); each
//! test below is one defect class — every-byte flip, every-prefix
//! truncation, concatenation / padding / oversized length prefix, byte
//! soup — run against *every* row (the one property test at the end covers
//! what fixed samples cannot: arbitrary tags and bodies). The expectations come from the two shapes of
//! `adlp_logger::frame` (DESIGN.md §3.9), not from the format at hand:
//!
//! * a **framed append log** replays the longest valid frame prefix and
//!   counts the rest as a torn tail; only a wrong magic is refused — and,
//!   for transferable bytes (as opposed to a device file), a missing one;
//! * a **whole-buffer** encoding is refused unless byte-exact, and whatever
//!   a `Wire` decoder accepts re-encodes to exactly the bytes it came from.
//!   When it is a sealed blob every byte is checksum-covered, so every flip is refused
//!   too; the plain encodings are protected by signatures (or by the seal of
//!   the file they sit in) instead, so a flip there only has to never panic.
//!
//! The samples nest every kind of `Wire` slot — proofs in evidence,
//! evidence in envelopes, claims and votes in disputes and resolutions — so
//! flips, cuts and soup reach the nested slots too. State files are
//! exercised through the `bind_storage` that loads them, so the rows also
//! pin the durable cell's load rule: a present file must unseal, and an
//! empty one is not a fresh start.

use adlp_audit::ContestedVerdict;
use adlp_cluster::{HeadAttestation, ReplicaAttestor};
use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::RsaKeyPair;
use adlp_dispute::{
    replay_window, Dispute, DisputeConfig, DisputeLedger, Evidence, Outcome, Phase, ReplayContext,
    ResolutionProof, Resolver, SignedEvidence, SignedVote, Vote, DISPUTE_STATE_FILE,
};
use adlp_logger::frame::{decode_frame, decode_log, encode_frame};
use adlp_logger::recording::replay_bytes;
use adlp_logger::sth::TreeHeadSigner;
use adlp_logger::wal;
use adlp_logger::{
    ConflictProof, Direction, KeyRegistry, Keyring, MemStorage, Recorder, RecordingWindow,
    SignedTreeHead, Storage, Wire,
};
use adlp_pubsub::{NodeId, Topic};
use adlp_witness::{
    decode_conviction_frame, encode_conviction_frame, Cosignature, SthObservation, Witness,
    WitnessState,
};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// What a decoder made of some bytes: (frames replayed, torn tail
/// reported), or `None` when it refused them outright. Whole-buffer
/// decoders report [`WHOLE`].
type Decoded = Option<(usize, bool)>;

const WHOLE: Decoded = Some((0, false));

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Framed append log read from a device file: shorter than the magic
    /// is a counted torn first append.
    LogFile,
    /// Framed append log held as transferable bytes: shorter than the
    /// magic is refused.
    LogBytes,
    /// Whole-buffer sealed blob: every byte is checksum-covered.
    Sealed,
    /// Whole-buffer plain encoding: byte-exact, but only signatures or an
    /// enclosing seal (not a checksum of its own) protect the content.
    Plain,
}

struct Format {
    name: &'static str,
    sample: Vec<u8>,
    shape: Shape,
    decode: Box<dyn Fn(&[u8]) -> Decoded>,
}

fn row(
    name: &'static str,
    sample: Vec<u8>,
    shape: Shape,
    decode: impl Fn(&[u8]) -> Decoded + 'static,
) -> Format {
    Format {
        name,
        sample,
        shape,
        decode: Box::new(decode),
    }
}

/// Bodies of the frames in every log sample: empty, short, and long enough
/// to make the length prefix more than one significant byte.
fn bodies() -> Vec<Vec<u8>> {
    vec![vec![], vec![0x5A; 17], vec![7; 300], b"tail".to_vec()]
}

/// Offsets at which each frame of a log sample ends (magic ‖ frames).
fn frame_ends() -> Vec<usize> {
    let mut at = 8;
    bodies()
        .iter()
        .map(|body| {
            at += 4 + 4 + 8 + body.len();
            at
        })
        .collect()
}

fn device_with(name: &str, bytes: &[u8]) -> Arc<dyn Storage> {
    let mem = MemStorage::new();
    mem.write_replace(name, bytes).unwrap();
    Arc::new(mem)
}

fn file_of(mem: &MemStorage, name: &str) -> Vec<u8> {
    mem.read(name).unwrap().unwrap()
}

fn private(pair: &RsaKeyPair) -> RsaPrivateKey {
    RsaPrivateKey::from_bytes(&pair.private_key().to_bytes()).unwrap()
}

fn accepted<T, E>(result: Result<T, E>) -> Decoded {
    result.ok().and(WHOLE)
}

/// A `Wire` row's decoder. Whatever it accepts — the sample, a flipped or
/// soupy variant — must re-encode to exactly the bytes it came from: one
/// value, one encoding.
fn wire<T: Wire>(bytes: &[u8]) -> Decoded {
    let value = T::decode(bytes).ok()?;
    assert_eq!(
        value.encode(),
        bytes,
        "accepted bytes that are not the value's encoding"
    );
    WHOLE
}

fn formats() -> Vec<Format> {
    use Shape::{LogBytes, LogFile, Plain, Sealed};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF4A3);
    let mut rows = Vec::new();

    // Framed append logs.
    let mem = Arc::new(MemStorage::new());
    let wal_log = wal::open(mem.clone() as Arc<dyn Storage>, "wal");
    let recorder = Recorder::new(mem.clone() as Arc<dyn Storage>, "rec");
    for (i, body) in bodies().iter().enumerate() {
        wal_log.append(i as u64, body).unwrap();
        recorder.set_epoch(i as u64 / 2);
        recorder.record(body);
    }
    let recording = file_of(&mem, "rec");
    rows.push(row("wal file", file_of(&mem, "wal"), LogFile, |bytes| {
        let replay = wal::open(device_with("f", bytes), "f").replay().ok()?;
        Some((replay.frames.len(), replay.torn()))
    }));
    rows.push(row("recording file", recording.clone(), LogFile, |bytes| {
        let replay = Recorder::new(device_with("f", bytes), "f").replay().ok()?;
        Some((replay.frames.len(), replay.torn()))
    }));
    rows.push(row(
        "recording evidence bytes",
        recording.clone(),
        LogBytes,
        |bytes| {
            let replay = replay_bytes(bytes).ok()?;
            Some((replay.frames.len(), replay.torn()))
        },
    ));
    rows.push(row(
        "recording window re-audit",
        recording,
        LogBytes,
        |bytes| {
            let window = RecordingWindow {
                epoch_from: 0,
                epoch_to: u64::MAX,
                bytes: bytes.to_vec(),
            };
            let ctx = ReplayContext::new(KeyRegistry::new());
            let report = replay_window(&window, &ctx).ok()?;
            // A torn replay is never probative, and detection is itself
            // deterministic.
            assert!(!(report.torn && report.sound()));
            let again = replay_window(&window, &ctx).unwrap();
            assert_eq!(report.canonical_bytes(), again.canonical_bytes());
            Some((report.frames, report.torn))
        },
    ));

    // Signed tree heads, and the witness state built from them.
    let log_pair = RsaKeyPair::generate(512, &mut rng);
    let log = NodeId::new("logger");
    let signer = TreeHeadSigner::new(log.clone(), private(&log_pair));
    let head_a = signer.sign(0, 3, adlp_crypto::sha256(b"a")).unwrap();
    let head_b = signer.sign(1, 3, adlp_crypto::sha256(b"b")).unwrap();
    rows.push(row(
        "signed tree head",
        head_a.encode(),
        Sealed,
        wire::<SignedTreeHead>,
    ));

    let witness_pair = RsaKeyPair::generate(512, &mut rng);
    let mut loggers = Keyring::new();
    loggers.insert(log.clone(), log_pair.public_key().clone());
    let mem = Arc::new(MemStorage::new());
    let witness = Witness::new(0, private(&witness_pair), loggers.clone());
    witness
        .bind_storage(mem.clone() as Arc<dyn Storage>, "w")
        .unwrap();
    assert_eq!(
        witness.adopt_head(head_a.clone(), None),
        SthObservation::Adopted
    );
    assert!(matches!(
        witness.adopt_head(head_b.clone(), None),
        SthObservation::SplitView(_)
    ));
    let witness_file = file_of(&mem, "w");
    assert_eq!(witness_file, witness.state().encode());
    rows.push(row(
        "witness state",
        witness_file.clone(),
        Sealed,
        wire::<WitnessState>,
    ));
    let empty = WitnessState::default().encode();
    rows.push(row(
        "witness state (empty)",
        empty,
        Sealed,
        wire::<WitnessState>,
    ));
    rows.push(row(
        "witness state file (bind_storage)",
        witness_file,
        Sealed,
        move |bytes| {
            let reborn = Witness::new(0, private(&witness_pair), loggers.clone());
            accepted(reborn.bind_storage(device_with("w", bytes), "w"))
        },
    ));

    // Attestor state, and the attestation evidence encodings.
    let replica_pair = RsaKeyPair::generate(512, &mut rng);
    let mem = Arc::new(MemStorage::new());
    let attestor = ReplicaAttestor::new(0, 1, private(&replica_pair));
    attestor
        .bind_storage(mem.clone() as Arc<dyn Storage>, "att")
        .unwrap();
    let first = attestor.attest(300, adlp_crypto::sha256(b"one")).unwrap();
    let second = attestor.attest(300, adlp_crypto::sha256(b"two")).unwrap();
    attestor.set_incarnation(2).unwrap();
    rows.push(row(
        "attestor state file (bind_storage)",
        file_of(&mem, "att"),
        Sealed,
        move |bytes| {
            let reborn = ReplicaAttestor::new(0, 1, private(&replica_pair));
            accepted(reborn.bind_storage(device_with("att", bytes), "att"))
        },
    ));
    rows.push(row(
        "head attestation",
        first.encode(),
        Plain,
        wire::<HeadAttestation>,
    ));
    let equivocation = ConflictProof { first, second };
    rows.push(row(
        "equivocation proof",
        equivocation.encode(),
        Plain,
        wire::<ConflictProof<HeadAttestation>>,
    ));

    // Split-view evidence.
    let split = ConflictProof {
        first: head_a.clone(),
        second: head_b,
    };
    rows.push(row(
        "split-view proof",
        split.encode(),
        Plain,
        wire::<ConflictProof<SignedTreeHead>>,
    ));
    rows.push(row(
        "conviction frame",
        encode_conviction_frame(&split),
        Plain,
        |bytes| decode_conviction_frame(bytes).and_then(accepted),
    ));
    let cosig = Cosignature::sign(0, &private(&log_pair), log, head_a.size, head_a.root).unwrap();
    rows.push(row(
        "cosignature",
        cosig.encode(),
        Plain,
        wire::<Cosignature>,
    ));

    // Contested verdicts, the evidence fought over them, and the votes.
    let claims = [
        ContestedVerdict::Hidden {
            component: NodeId::new("camera"),
            direction: Direction::In,
            topic: Topic::new("image"),
            seq: 300,
        },
        ContestedVerdict::SplitView {
            log: NodeId::new("logger"),
            size: 3,
        },
        ContestedVerdict::Equivocation {
            shard: 0,
            replica: 1,
        },
    ];
    let [hidden, split_view, equivocating] = claims.each_ref().map(Wire::encode);
    rows.push(row(
        "contested verdict (hidden)",
        hidden,
        Plain,
        wire::<ContestedVerdict>,
    ));
    rows.push(row(
        "contested verdict (split view)",
        split_view,
        Plain,
        wire::<ContestedVerdict>,
    ));
    rows.push(row(
        "contested verdict (equivocation)",
        equivocating,
        Plain,
        wire::<ContestedVerdict>,
    ));
    let claim = claims[1].clone();
    let party_pair = RsaKeyPair::generate(512, &mut rng);
    let evidence: Vec<SignedEvidence> = [
        Evidence::SplitView(split),
        Evidence::Equivocation(equivocation),
        Evidence::Recording(RecordingWindow {
            epoch_from: 0,
            epoch_to: 1,
            bytes: vec![0x5A; 140],
        }),
    ]
    .into_iter()
    .map(|ev| SignedEvidence::sign(NodeId::new("camera"), 0, 0, ev, party_pair.private_key()))
    .collect::<Result<_, _>>()
    .unwrap();
    rows.push(row(
        "signed evidence",
        evidence[0].encode(),
        Plain,
        wire::<SignedEvidence>,
    ));
    let resolver_pair = RsaKeyPair::generate(512, &mut rng);
    let vote = Resolver::new(NodeId::new("resolver-0"), private(&resolver_pair))
        .cast(1, 0, 0, Vote::Uphold, &claim, &evidence)
        .unwrap();
    rows.push(row("signed vote", vote.encode(), Plain, wire::<SignedVote>));
    let dispute = Dispute {
        id: 0,
        claim: claim.clone(),
        claimant: NodeId::new("camera"),
        phase: Phase::Evaluating,
        round: 0,
        panel: vec![(0, NodeId::new("resolver-0"))],
        evidence,
        votes: vec![vote.clone()],
        stakes: vec![(NodeId::new("camera"), 16)],
        outcome: None,
    };
    rows.push(row("dispute", dispute.encode(), Plain, wire::<Dispute>));

    // Dispute ledger state and its transferable resolution.
    let mem = Arc::new(MemStorage::new());
    let mut ledger = DisputeLedger::new(DisputeConfig::default());
    ledger
        .bind_storage(mem.clone() as Arc<dyn Storage>)
        .unwrap();
    ledger.open(NodeId::new("camera"), claim.clone()).unwrap();
    let ledger_file = file_of(&mem, DISPUTE_STATE_FILE);
    rows.push(row(
        "dispute ledger state file (bind_storage)",
        ledger_file,
        Sealed,
        |bytes| {
            let mut reborn = DisputeLedger::new(DisputeConfig::default());
            let resumed = reborn
                .bind_storage(device_with(DISPUTE_STATE_FILE, bytes))
                .ok()?;
            // A present file is resumed from, never started blank over.
            assert!(resumed);
            WHOLE
        },
    ));
    let resolution = ResolutionProof {
        instance: 1,
        dispute: 0,
        claim,
        outcome: Outcome::Upheld,
        rounds: 1,
        votes: vec![vote],
    };
    rows.push(row(
        "resolution proof",
        resolution.encode(),
        Plain,
        wire::<ResolutionProof>,
    ));
    rows
}

fn is_log(shape: Shape) -> bool {
    matches!(shape, Shape::LogFile | Shape::LogBytes)
}

/// What a log must replay when only `len` leading bytes of the sample are
/// intact and anything (or nothing) follows them.
fn log_prefix(intact: usize, followed_by_debris: bool) -> Decoded {
    let whole = frame_ends().iter().filter(|end| **end <= intact).count();
    Some((whole, followed_by_debris))
}

#[test]
fn every_sample_decodes_whole() {
    for f in formats() {
        let expected = if is_log(f.shape) {
            assert_eq!(*frame_ends().last().unwrap(), f.sample.len(), "{}", f.name);
            log_prefix(f.sample.len(), false)
        } else {
            WHOLE
        };
        assert_eq!((f.decode)(&f.sample), expected, "{}", f.name);
    }
}

#[test]
fn every_byte_flip() {
    for f in formats() {
        for offset in 0..f.sample.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut bad = f.sample.clone();
                bad[offset] ^= mask;
                let got = (f.decode)(&bad);
                let at = format!("{}: flip {mask:#04x} at {offset}", f.name);
                match f.shape {
                    // A flipped magic is "not this kind of log"; any other
                    // flip costs the damaged frame and all behind it, with
                    // the loss reported.
                    Shape::LogFile | Shape::LogBytes if offset < 8 => assert_eq!(got, None, "{at}"),
                    Shape::LogFile | Shape::LogBytes => {
                        let damaged_from = frame_ends()
                            .into_iter()
                            .filter(|end| *end <= offset)
                            .max()
                            .unwrap_or(8);
                        assert_eq!(got, log_prefix(damaged_from, true), "{at}");
                    }
                    Shape::Sealed => assert_eq!(got, None, "{at}"),
                    // Content flips are the signatures' business; decoding
                    // only has to stay panic-free.
                    Shape::Plain => {}
                }
            }
        }
    }
}

#[test]
fn every_prefix_truncation() {
    for f in formats() {
        for cut in 0..f.sample.len() {
            let got = (f.decode)(&f.sample[..cut]);
            let at = format!("{}: cut to {cut}/{}", f.name, f.sample.len());
            match f.shape {
                // A device file cut inside its magic is a torn first
                // append; as evidence the same bytes are not a log at all.
                Shape::LogFile if cut < 8 => assert_eq!(got, Some((0, cut > 0)), "{at}"),
                Shape::LogBytes if cut < 8 => assert_eq!(got, None, "{at}"),
                Shape::LogFile | Shape::LogBytes => {
                    let on_boundary = cut == 8 || frame_ends().contains(&cut);
                    assert_eq!(got, log_prefix(cut, !on_boundary), "{at}");
                }
                Shape::Sealed | Shape::Plain => assert_eq!(got, None, "{at}"),
            }
        }
    }
}

#[test]
fn concatenation_padding_and_oversized_length_prefix() {
    // Whatever follows a complete sample — the sample again (two logs or
    // two gossip frames glued together), padding, or a frame header whose
    // length prefix lies beyond the payload cap or the buffer — a log
    // counts it as a torn tail (without allocating for the claimed length)
    // and a whole-buffer decoder refuses the lot.
    for f in formats() {
        let mut suffixes = vec![f.sample.clone(), vec![0], vec![0xFF; 3], vec![0; 16]];
        for len in [u32::MAX, 128 * 1024 * 1024 + 1, 1 << 20] {
            suffixes.push([&len.to_le_bytes()[..], &[0; 12]].concat());
        }
        for suffix in suffixes {
            let expected = if is_log(f.shape) {
                log_prefix(f.sample.len(), true)
            } else {
                None
            };
            let got = (f.decode)(&[&f.sample[..], &suffix].concat());
            assert_eq!(
                got,
                expected,
                "{}: followed by {:02x?}",
                f.name,
                &suffix[..suffix.len().min(8)]
            );
        }
    }
}

#[test]
fn byte_soup_never_panics() {
    // Whatever arrives off a wire or a dying disk, every decoder returns —
    // including soup that opens with the format's own first bytes.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
    for f in formats() {
        for round in 0..200 {
            let mut soup = vec![0u8; (rng.next_u64() % 96) as usize];
            rng.fill_bytes(&mut soup);
            if round % 2 == 0 {
                soup.splice(0..0, f.sample.iter().take(12).copied());
            }
            let _ = (f.decode)(&soup);
        }
    }
}

proptest! {
    /// The table's samples are fixed; the frame codec itself must carry any
    /// tag and any body, alone and replayed as a whole log.
    #[test]
    fn frames_round_trip(
        records in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..2048)),
            1..8,
        ),
    ) {
        let mut log = b"ADLPTST1".to_vec();
        for (tag, body) in &records {
            let frame = encode_frame(*tag, body);
            prop_assert_eq!(frame.len(), 4 + 4 + 8 + body.len());
            prop_assert_eq!(decode_frame(&frame), Some((*tag, &body[..], frame.len())));
            log.extend_from_slice(&frame);
        }
        let replay = decode_log(b"ADLPTST1", &log, "test log (magic)").unwrap();
        prop_assert!(!replay.torn());
        prop_assert_eq!(replay.good_bytes, log.len() as u64);
        prop_assert_eq!(replay.frames, records);
    }
}
