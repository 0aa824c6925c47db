//! Tier-1 known-answer vectors for the cryptographic substrate: an
//! RSA-1024 key and three PKCS#1 v1.5 signatures it makes, the modulus of a
//! seeded 512-bit key generation (the Miller–Rabin path), and SHA-256 at
//! the padding edges. PKCS#1 v1.5 and key generation from a seeded RNG are
//! deterministic, so any change to the bignum kernel, the prime search or
//! the hash that moves a single output byte fails here.

use adlp::crypto::rsa::RsaPrivateKey;
use adlp::crypto::{hex, pkcs1, sha256, RsaKeyPair, Signature};
use rand::SeedableRng;

/// `RsaPrivateKey::to_bytes` of `RsaKeyPair::generate(1024, StdRng(0x4144_4c50))`.
const KEY_1024: &str = "\
0000000301000100000080176c2e9fc022e082c0f7461c5b422a9f3e2e332b0aa4488530a09a62d44f9e63fc7e8800\
ffef9f91a26ee208dbe2e7383c0da4df24dc61a3fb42b62f5e825e10f530009457f062145f3cb56126c9af7f65a6a8\
93a7bd56d6d28f54ab6348c6b9ee643fd7c50aa8fcb24075271e18c40e04863b8da8abe45e61b1fd83894efee10000\
0040cb3e184de56b7a55431483063b86ef5dc8a24e5bac49a390339fb076557ed3aaca07f5b37bcfb950ed8932f00b\
27d390ee89a3060abe05fc53c098087de1a79b00000040f354d6c9119ee3cf32f073b93011dcf5468ef66699ab869b\
03f218147fff3a6a1bc346671ab889ee2f1931008e891dbdfe0a88a47584b11d43bc34f9d71583b9";

/// `(message, pkcs1::sign(KEY_1024, message))`.
const SIGNATURES: [(&[u8], &str); 3] = [
    (
        b"",
        "000c08642eb174802fa2953f6e7ac205df931663deb7559227b5bcd48ef7fecd0c3631cd8dcf7b8cc298256ccbb8553e\
         b88bbc9807ebb09238eccc608374d10a40ba90d52ae842efc6b96c261026dcd98d93c5359e7732f684cee2ba555a6c81\
         e2e56219b4f3b7dc1811eea4f205755d8b8727d6c457e8a2cebcab70519ab4b9",
    ),
    (
        b"steering 0.10",
        "bea5a03b51b4d3efdca0bc86c0d3ef73cf36bbd67ea424570a77123a87eafe1a8723d53a62987feebd23bc17e0597af4\
         916732fd85ab7b80bb5b02e7e12be22319a639ce42fea66c2e96e561ddf4933cb16b8bb546180a34a4dfdaa7594ffcfe\
         bc97330210b30303d99ce74a26bbbf5a669f377a24719149bdc20a30006a7a1a",
    ),
    (
        &[0x5a; 300],
        "7e7e297f68b46746cd053c27f37625f2e80758d134730b3974f33fefcf3d4e19b6e018555cadb3f3d9285345214bb474\
         5666343636facbd15bb7078ca8af8f1b157cdc23181410338eb4a57e2e56e945e132daa9f6fb7884619cc48adaafcd04\
         fc2ba125c439253103426f1b0db677b1e71ca3b230f9ba885409249f6337e09a",
    ),
];

/// Modulus of `RsaKeyPair::generate(512, StdRng(512))`, as hex.
const MODULUS_512: &str = "\
b475d3f0f6b6f0f65d803dd2e825f5a189072fc6a8aa18bee430e26dab2b7618c80d8dd33e400599999d0a3113709bdb\
1703b4ae0a24a41cc9911d1dea3ac7cb";

/// `(len, sha256([0, 1, …, len − 1]))` around the one- and two-block
/// padding boundaries.
const SHA256_EDGES: [(usize, &str); 6] = [
    (
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        55,
        "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
    ),
    (
        56,
        "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
    ),
    (
        63,
        "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
    ),
    (
        64,
        "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
    ),
    (
        65,
        "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781",
    ),
];

#[test]
fn rsa_1024_signatures_are_byte_identical() {
    let key = RsaPrivateKey::from_bytes(&hex::decode(KEY_1024).unwrap()).unwrap();
    assert_eq!(key.public_key().modulus_len(), 128);
    for (message, expected) in SIGNATURES {
        let sig = pkcs1::sign(&key, message).unwrap();
        assert_eq!(hex::encode(sig.as_bytes()), expected, "message {message:?}");
        assert!(pkcs1::verify(key.public_key(), message, &sig));
        let mut flipped = sig.into_bytes();
        flipped[64] ^= 0x01;
        assert!(!pkcs1::verify(
            key.public_key(),
            message,
            &Signature::from_bytes(flipped)
        ));
    }
}

#[test]
fn seeded_key_generation_is_byte_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(512);
    let keys = RsaKeyPair::generate(512, &mut rng);
    assert_eq!(keys.public_key().modulus().to_hex(), MODULUS_512);
}

#[test]
fn sha256_padding_edges() {
    for (len, expected) in SHA256_EDGES {
        let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
        assert_eq!(sha256(&data).to_hex(), expected, "length {len}");
    }
}
