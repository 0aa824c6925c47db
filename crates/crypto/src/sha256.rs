//! SHA-256 (FIPS 180-4), with one-shot and incremental interfaces.
//!
//! ADLP hashes every published payload (`h(seq ‖ D)`) and every received
//! payload, so this is the hot primitive for large messages (Table I of the
//! paper shows hashing dominating signing beyond ~1 MB payloads). The same
//! function also computes every logger leaf digest and frame checksum,
//! Merkle node, signed tree head, attestation and evidence digest, and HMAC.
//!
//! All of it runs through one compression function, `compress_blocks`,
//! which absorbs a run of whole 64-byte blocks: [`Sha256::update`] hands it
//! every whole block of its input in one call and [`Sha256::finalize`] its
//! one or two padding blocks. It runs one of two kernels, chosen by the CPU
//! and by nothing else (no feature, option or environment variable):
//!
//! * on x86-64 CPUs with the SHA extensions, a kernel built on
//!   `sha256rnds2` / `sha256msg1` / `sha256msg2`. It is a safe
//!   `#[target_feature]` function over value intrinsics only, and the one
//!   `unsafe` block in the workspace is its call behind the run-time
//!   feature check;
//! * everywhere else, the portable scalar kernel, which is also the oracle
//!   the hardware kernel is tested against (see [`sha256_portable`]).
//!
//! Both compute FIPS 180-4's compression function, so every digest is the
//! same byte for byte whichever kernel ran; [`kernel`] names the one this
//! process uses.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
///
/// ```
/// use adlp_crypto::sha256::{sha256, Digest};
///
/// let d: Digest = sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
///
/// `==` is constant-time ([`crate::ct::constant_time_eq`]): a digest may
/// stand in for a secret (a MAC tag, an expected signature encoding), so
/// no comparison of two digests leaks how many leading bytes matched.
#[derive(Clone, Copy, Eq, PartialOrd, Ord)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.0)
    }

    /// Parses a 64-character hex string.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CryptoError::Malformed`] for bad length or non-hex
    /// characters.
    pub fn from_hex(s: &str) -> Result<Self, crate::CryptoError> {
        let bytes = crate::hex::decode(s)?;
        let arr: [u8; DIGEST_LEN] = bytes
            .try_into()
            .map_err(|_| crate::CryptoError::Malformed("digest length"))?;
        Ok(Digest(arr))
    }

    /// Checked construction from a byte slice; `None` unless exactly
    /// [`DIGEST_LEN`] bytes. The panic-free counterpart of
    /// `From<[u8; DIGEST_LEN]>` for wire-format decoding.
    pub fn from_slice(bytes: &[u8]) -> Option<Self> {
        let arr: [u8; DIGEST_LEN] = bytes.try_into().ok()?;
        Some(Digest(arr))
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }
}

impl PartialEq for Digest {
    #[inline]
    fn eq(&self, other: &Digest) -> bool {
        crate::ct::constant_time_eq(&self.0, &other.0)
    }
}

impl Hash for Digest {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(b: [u8; DIGEST_LEN]) -> Self {
        Digest(b)
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use adlp_crypto::sha256::{sha256, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), sha256(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Completes the hash and returns the digest, consuming the hasher.
    pub fn finalize(self) -> Digest {
        self.finish(compress_blocks)
    }

    /// [`Sha256::update`] with the kernel named: one `compress` call for a
    /// completed buffer, then one for every whole block of `data`.
    fn absorb(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[[u8; 64]])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            let (head, tail) = input.split_at_checked(take).unwrap_or((input, &[]));
            if let Some(dst) = self.buffer.get_mut(self.buffer_len..self.buffer_len + take) {
                dst.copy_from_slice(head);
            }
            self.buffer_len += take;
            input = tail;
            if self.buffer_len == 64 {
                compress(&mut self.state, std::slice::from_ref(&self.buffer));
                self.buffer_len = 0;
            } else {
                // The buffer absorbed all input without filling; nothing
                // more to do (and the remainder logic below must not run,
                // or it would clobber buffer_len).
                debug_assert!(input.is_empty());
                return;
            }
        }
        let (blocks, rest) = input.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        if let Some(dst) = self.buffer.get_mut(..rest.len()) {
            dst.copy_from_slice(rest);
        }
        self.buffer_len = rest.len();
    }

    /// [`Sha256::finalize`] with the kernel named: one `compress` call for
    /// the padding blocks.
    fn finish(mut self, compress: impl Fn(&mut [u32; 8], &[[u8; 64]])) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length. The buffer
        // never holds a full block, so the 0x80 always fits; when the length
        // does not fit behind it, the padding spills into a second block.
        let mut pad = [self.buffer, [0u8; 64]];
        let blocks = if self.buffer_len >= 56 { 2 } else { 1 };
        let padded = pad.as_flattened_mut();
        if let Some((marker, zeros)) = padded
            .get_mut(self.buffer_len..)
            .and_then(<[u8]>::split_first_mut)
        {
            *marker = 0x80;
            zeros.fill(0);
        }
        if let Some(len) = padded.get_mut(blocks * 64 - 8..blocks * 64) {
            len.copy_from_slice(&bit_len.to_be_bytes());
        }
        compress(&mut self.state, pad.get(..blocks).unwrap_or_default());

        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// Absorbs `blocks` into `state` with the kernel the CPU supports: the
/// SHA-extensions kernel when [`x86::ShaNi::detect`] finds it, else the
/// portable one. Both give the same state.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(sha_ni) = x86::ShaNi::detect() {
        sha_ni.compress_blocks(state, blocks);
        return;
    }
    portable::compress_blocks(state, blocks);
}

/// Names the kernel this process hashes with: `"x86-sha"` when the CPU has
/// the x86 SHA extensions, otherwise `"portable"`.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if x86::ShaNi::detect().is_some() {
        return "x86-sha";
    }
    "portable"
}

/// One-shot SHA-256 through the portable kernel alone, whatever the CPU.
///
/// This is the oracle the hardware kernel is tested against; production
/// code calls [`sha256`], which returns the same digest.
pub fn sha256_portable(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.absorb(data, portable::compress_blocks);
    h.finish(portable::compress_blocks)
}

/// The portable scalar kernel: FIPS 180-4's compression function, one block
/// at a time, on any CPU.
mod portable {
    use super::K;

    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        for block in blocks {
            compress(state, block);
        }
    }

    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            if let Ok(bytes) = chunk.try_into() {
                *wi = u32::from_be_bytes(bytes);
            }
        }
        // Message schedule: every read offset is statically in range for
        // i in 16..64, so the checked accesses never take their fallback.
        for i in 16..64 {
            let w15 = w.get(i - 15).copied().unwrap_or(0);
            let w2 = w.get(i - 2).copied().unwrap_or(0);
            let w16 = w.get(i - 16).copied().unwrap_or(0);
            let w7 = w.get(i - 7).copied().unwrap_or(0);
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            if let Some(slot) = w.get_mut(i) {
                *slot = w16.wrapping_add(s0).wrapping_add(w7).wrapping_add(s1);
            }
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for (&ki, &wi) in K.iter().zip(w.iter()) {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(ki)
                .wrapping_add(wi);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA-extensions kernel (`sha256rnds2` / `sha256msg1` /
/// `sha256msg2`).
///
/// The state lives in two vectors in the instruction set's lane order,
/// `abef = (f, e, b, a)` and `cdgh = (h, g, d, c)` from lane 0 up, for the
/// whole run of blocks; it enters and leaves through `_mm_set_epi32` /
/// `_mm_extract_epi32` once per call. Each `sha256rnds2` performs two
/// rounds with `W[t] + K[t]` from the low two lanes of its third operand.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32,
    };

    /// Proof that the running CPU has the instructions [`compress_blocks_sha`]
    /// is compiled for. Its field is private, so [`ShaNi::detect`] is the
    /// only way to obtain one.
    #[derive(Clone, Copy)]
    pub(super) struct ShaNi(());

    impl ShaNi {
        /// `Some` exactly when the CPU reports SHA, SSE2, SSSE3 and SSE4.1.
        /// The standard library caches the CPUID answer, so this is a load
        /// and a test after the first call.
        pub(super) fn detect() -> Option<ShaNi> {
            let present = is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1");
            present.then_some(ShaNi(()))
        }

        /// Absorbs `blocks` into `state` with the SHA instructions.
        #[allow(unsafe_code)]
        pub(super) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
            // SAFETY: `compress_blocks_sha` is safe apart from its target
            // features, and `self` exists only because `ShaNi::detect` saw
            // `is_x86_feature_detected!` report every one of them (sha,
            // sse2, ssse3, sse4.1) on this CPU.
            unsafe { compress_blocks_sha(state, blocks) }
        }
    }

    /// Four big-endian message words as one vector, the first in lane 0.
    #[target_feature(enable = "sse2")]
    fn load_words(bytes: &[u8; 16]) -> __m128i {
        let mut w = [0i32; 4];
        for (lane, word) in w.iter_mut().zip(bytes.as_chunks::<4>().0) {
            *lane = u32::from_be_bytes(*word).cast_signed();
        }
        let [w0, w1, w2, w3] = w;
        _mm_set_epi32(w3, w2, w1, w0)
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks_sha(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let [a, b, c, d, e, f, g, h] = state.map(u32::cast_signed);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        let (k4, _) = K.as_chunks::<4>();
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut m = [_mm_setzero_si128(); 4];
            for (mi, quad) in m.iter_mut().zip(block.as_chunks::<16>().0) {
                *mi = load_words(quad);
            }
            // (w0, w1, w2, w3) hold W[4i .. 4i + 16] at quad-round i.
            let [mut w0, mut w1, mut w2, mut w3] = m;
            for (i, &[k0, k1, k2, k3]) in k4.iter().enumerate() {
                let k = _mm_set_epi32(
                    k3.cast_signed(),
                    k2.cast_signed(),
                    k1.cast_signed(),
                    k0.cast_signed(),
                );
                let wk = _mm_add_epi32(w0, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
                // W[4i + 16 .. 4i + 20]; the last four quads need none.
                let next = if i < 12 {
                    let s0 = _mm_sha256msg1_epu32(w0, w1);
                    let w9 = _mm_alignr_epi8::<4>(w3, w2);
                    _mm_sha256msg2_epu32(_mm_add_epi32(s0, w9), w3)
                } else {
                    w0
                };
                (w0, w1, w2, w3) = (w1, w2, w3, next);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(i32::cast_unsigned);
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hashes the concatenation `seq ‖ data`, the digest form the ADLP paper
/// signs (`s = sign(h(seq ‖ D))`, §IV-A "freshness").
pub fn sha256_seq(seq: u64, data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&seq.to_be_bytes());
    h.update(data);
    h.finalize()
}

/// The ADLP *binding digest*: `h(len(type) ‖ type ‖ seq ‖ h(D))`.
///
/// Signing this (rather than `h(seq ‖ D)` directly) keeps the paper's
/// freshness binding while letting an auditor who only holds `h(D)` (a
/// subscriber entry storing the hash) recompute the signed digest from the
/// entry's own fields — so a relabeled sequence number *or data type*
/// fails signature verification instead of framing the counterpart. The
/// type label is length-prefixed so distinct (type, seq) pairs can never
/// collide byte-wise.
pub fn binding_digest(topic: &str, seq: u64, payload_digest: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&(topic.len() as u32).to_be_bytes());
    h.update(topic.as_bytes());
    h.update(&seq.to_be_bytes());
    h.update(payload_digest.as_bytes());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::{RngCore, SeedableRng};

    /// A kernel as `absorb`/`finish` take it.
    type Kernel<'a> = &'a dyn Fn(&mut [u32; 8], &[[u8; 64]]);

    /// Hashes `parts` as consecutive updates, every block through `kernel`.
    fn digest_with(kernel: Kernel<'_>, parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for part in parts {
            h.absorb(part, kernel);
        }
        h.finish(kernel)
    }

    /// Runs `check` on the hardware kernel when this CPU has one, and says
    /// so when it does not.
    fn with_hardware(check: impl FnOnce(Kernel<'_>)) {
        #[cfg(target_arch = "x86_64")]
        if let Some(sha_ni) = x86::ShaNi::detect() {
            return check(&move |state, blocks| sha_ni.compress_blocks(state, blocks));
        }
        eprintln!("no SHA extensions on this CPU: the hardware kernel was not run");
    }

    /// Every kernel this CPU can run, by name.
    fn each_kernel(check: impl Fn(&str, Kernel<'_>)) {
        check("portable", &portable::compress_blocks);
        with_hardware(|hw| check("x86-sha", hw));
    }

    #[test]
    fn reports_the_kernel_this_cpu_runs() {
        let name = kernel();
        println!("sha256 kernel on this CPU: {name}");
        assert!(["x86-sha", "portable"].contains(&name));
        #[cfg(target_arch = "x86_64")]
        assert_eq!(name == "x86-sha", x86::ShaNi::detect().is_some());
    }

    // NIST FIPS 180-4 / Examples vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(sha256(input).to_hex(), *expected);
            assert_eq!(sha256_portable(input).to_hex(), *expected);
            each_kernel(|name, kernel| {
                assert_eq!(digest_with(kernel, &[input]).to_hex(), *expected, "{name}");
            });
        }
    }

    #[test]
    fn million_a() {
        let chunk = [b'a'; 1000];
        each_kernel(|name, kernel| {
            let mut h = Sha256::new();
            for _ in 0..1000 {
                h.absorb(&chunk, kernel);
            }
            assert_eq!(
                h.finish(kernel).to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        });
    }

    /// Every length 0..=1,100 B, whole and split at seeded points into
    /// 1–4 updates: the hardware kernel, the dispatched [`sha256`] and
    /// [`Sha256::update`] all equal the portable one-shot.
    #[test]
    fn both_kernels_agree_on_every_length_and_split() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5a_256);
        let mut data = vec![0u8; 1100];
        rng.fill_bytes(&mut data);
        let mut hardware_runs = 0;
        for len in 0..=data.len() {
            let input = data.get(..len).unwrap_or_default();
            let oracle = sha256_portable(input);
            assert_eq!(sha256(input), oracle, "dispatched, len {len}");
            let mut cuts: Vec<usize> = (0..rng.next_u64() % 4)
                .map(|_| (rng.next_u64() % (len as u64 + 1)) as usize)
                .collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                parts.push(input.get(from..cut).unwrap_or_default());
                from = cut;
            }
            let mut h = Sha256::new();
            for part in &parts {
                h.update(part);
            }
            assert_eq!(h.finalize(), oracle, "dispatched, len {len}, split");
            assert_eq!(
                digest_with(&portable::compress_blocks, &parts),
                oracle,
                "portable, len {len}"
            );
            with_hardware(|hw| {
                assert_eq!(digest_with(hw, &[input]), oracle, "x86-sha, len {len}");
                assert_eq!(digest_with(hw, &parts), oracle, "x86-sha, len {len}, split");
                hardware_runs += 1;
            });
        }
        println!("hardware kernel checked on {hardware_runs} lengths");
    }

    #[test]
    fn incremental_equals_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()).unwrap(), d);
        assert!(Digest::from_hex("abcd").is_err());
        assert!(Digest::from_hex(&"zz".repeat(32)).is_err());
    }

    #[test]
    fn seq_binding_changes_digest() {
        assert_ne!(sha256_seq(1, b"data"), sha256_seq(2, b"data"));
        assert_ne!(sha256_seq(1, b"data"), sha256(b"data"));
    }

    #[test]
    fn padding_boundary_lengths() {
        // 55, 56, 57 bytes straddle the single- vs two-block padding cases.
        for len in [55usize, 56, 57, 119, 120, 121] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }
}
