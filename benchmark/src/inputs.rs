//! Seeded inputs and the scratch directories durable workloads write to.

use adlp_crypto::sha256::Sha256;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The generator every input of a run derives from. `lane` separates
/// independent streams (keys, payloads, indices) of one seed.
pub fn rng(seed: u64, lane: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Identities are part of the system's configuration, not of a run's
/// inputs: every run uses the same keys, so RSA time does not move with the
/// luck of a seed's primes. The seed drives payloads, audited indices and
/// which links misbehave.
pub const KEY_SEED: u64 = 0xAD1F;

pub fn key_rng(lane: u64) -> StdRng {
    rng(KEY_SEED, lane)
}

/// `count` payloads of `len` seeded bytes.
pub fn payloads(seed: u64, count: usize, len: usize) -> Vec<Vec<u8>> {
    let mut rng = rng(seed, 1);
    (0..count)
        .map(|_| {
            let mut p = vec![0u8; len];
            rng.fill_bytes(&mut p);
            p
        })
        .collect()
}

/// Running digest of everything a workload feeds the system; two runs of
/// one seed must agree on it.
#[derive(Default)]
pub struct InputDigest(Sha256);

impl InputDigest {
    pub fn feed(&mut self, bytes: &[u8]) {
        self.0.update(&(bytes.len() as u64).to_le_bytes());
        self.0.update(bytes);
    }

    /// The digest's leading 48 bits, exactly representable as a JSON number.
    pub fn finish(self) -> f64 {
        let d = self.0.finalize();
        let b = d.as_bytes();
        u64::from_be_bytes([0, 0, b[0], b[1], b[2], b[3], b[4], b[5]]) as f64
    }
}

/// The benchmark's own directory: results and scratch go under `out/` there
/// and nowhere else.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// A fresh scratch directory under `out/tmp`, removed on drop — on success,
/// on a failed gate and on unwind alike.
#[derive(Debug)]
pub struct TempRoot(PathBuf);

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl TempRoot {
    pub fn new(label: &str) -> std::io::Result<Self> {
        let n = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempRoot(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Total size of the regular files below the root.
    pub fn disk_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            std::fs::read_dir(dir).map_or(0, |rd| {
                rd.flatten()
                    .map(|e| match e.metadata() {
                        Ok(m) if m.is_dir() => walk(&e.path()),
                        Ok(m) => m.len(),
                        Err(_) => 0,
                    })
                    .sum()
            })
        }
        walk(&self.0)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
