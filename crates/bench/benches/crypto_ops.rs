//! Criterion micro-benchmarks for the cryptographic substrate — the
//! measured side of Table I, plus the design-choice ablations called out in
//! DESIGN.md (Montgomery vs plain modular exponentiation, CRT vs plain
//! signing, RSA-1024 vs RSA-2048).

use adlp_crypto::bignum::Montgomery;
use adlp_crypto::{pkcs1, sha256::sha256, BigUint, RsaKeyPair};
use adlp_sim::PayloadKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    for kind in [PayloadKind::Steering, PayloadKind::Scan, PayloadKind::Image] {
        let mut body = vec![0u8; 16];
        body.extend_from_slice(&kind.generate(1));
        g.throughput(Throughput::Bytes(body.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(kind.label()), &body, |b, d| {
            b.iter(|| sha256(d));
        });
    }
    g.finish();
}

fn bench_pkcs1(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let digest = sha256(b"bench digest");
    let mut g = c.benchmark_group("pkcs1");
    for bits in [1024usize, 2048] {
        let keys = RsaKeyPair::generate(bits, &mut rng);
        let sig = pkcs1::sign_digest(keys.private_key(), &digest).unwrap();
        g.bench_function(BenchmarkId::new("sign_crt", bits), |b| {
            b.iter(|| pkcs1::sign_digest(keys.private_key(), &digest).unwrap());
        });
        g.bench_function(BenchmarkId::new("verify", bits), |b| {
            b.iter(|| pkcs1::verify_digest(keys.public_key(), &digest, &sig));
        });
        // CRT vs plain private-key operation ablation.
        let m = BigUint::from_u64(0x1234_5678);
        g.bench_function(BenchmarkId::new("raw_sign_crt", bits), |b| {
            b.iter(|| keys.private_key().raw_sign(&m).unwrap());
        });
        g.bench_function(BenchmarkId::new("raw_sign_no_crt", bits), |b| {
            b.iter(|| keys.private_key().raw_sign_no_crt(&m).unwrap());
        });
    }
    g.finish();
}

fn bench_modpow(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let mut g = c.benchmark_group("modpow_1024");
    let mut modulus = BigUint::random_bits(1024, &mut rng);
    modulus.set_bit(0);
    let base = BigUint::random_below(&modulus, &mut rng);
    let exp = BigUint::random_bits(1024, &mut rng);
    let mont = Montgomery::new(&modulus).unwrap();
    g.bench_function("montgomery", |b| {
        b.iter(|| mont.mod_pow(&base, &exp));
    });
    g.bench_function("plain_knuth_d", |b| {
        b.iter(|| base.mod_pow_plain(&exp, &modulus));
    });
    g.finish();
}

fn bench_lightweight_mac(c: &mut Criterion) {
    // The §VI-E "lightweight crypto" direction: HMAC-SHA256 tags vs
    // RSA-1024 signatures over the same payloads. The speedup is the
    // upside; losing third-party arbitration between the pair is the cost.
    use adlp_crypto::hmac::HmacSha256;
    let mac = HmacSha256::new(b"pairwise shared key");
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let keys = RsaKeyPair::generate(1024, &mut rng);
    let mut g = c.benchmark_group("lightweight_mac_ablation");
    for kind in [PayloadKind::Steering, PayloadKind::Image] {
        let mut body = vec![0u8; 16];
        body.extend_from_slice(&kind.generate(1));
        g.throughput(Throughput::Bytes(body.len() as u64));
        g.bench_with_input(BenchmarkId::new("hmac_tag", kind.label()), &body, |b, d| {
            b.iter(|| mac.tag(d))
        });
        g.bench_with_input(
            BenchmarkId::new("rsa1024_sign", kind.label()),
            &body,
            |b, d| {
                b.iter(|| {
                    let digest = sha256(d);
                    pkcs1::sign_digest(keys.private_key(), &digest).unwrap()
                })
            },
        );
    }
    g.finish();
}

fn bench_keygen(c: &mut Criterion) {
    let mut g = c.benchmark_group("rsa_keygen");
    g.sample_size(10);
    for bits in [512usize, 1024] {
        g.bench_function(BenchmarkId::from_parameter(bits), |b| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            b.iter(|| RsaKeyPair::generate(bits, &mut rng));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_pkcs1,
    bench_modpow,
    bench_lightweight_mac,
    bench_keygen
);
criterion_main!(benches);
