//! SHA-256, HMAC-SHA256, and the party key directory.
//!
//! Implemented from FIPS 180-4 and RFC 2104 so the workspace carries no
//! external cryptography dependency. HMAC tags serve as the prototype's
//! signature scheme: every party registers a secret with the directory and
//! verifiers look the key up by party id. This models the *authenticated
//! message* requirement of the protocol; a production deployment would
//! substitute asymmetric signatures without touching any message flow.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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

/// One application of the FIPS 180-4 §6.2.2 compression function.
fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, add) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *word = word.wrapping_add(add);
    }
}

/// SHA-256 of the concatenation of `parts`, which is never built: full
/// blocks are compressed straight from each part, and one stack block
/// carries the bytes left over between parts and then the padding
/// (`0x80`, zeros, the 64-bit big-endian bit length of *all* parts — a
/// second block when fewer than 8 bytes are free after the `0x80`).
fn sha256_parts(parts: &[&[u8]]) -> [u8; 32] {
    let mut h = H0;
    let mut tail = [0u8; 64];
    let mut filled = 0;
    let mut len = 0u64;
    for part in parts {
        len = len.wrapping_add(part.len() as u64);
        let mut data = *part;
        if filled > 0 {
            let take = data.len().min(64 - filled);
            tail[filled..filled + take].copy_from_slice(&data[..take]);
            filled += take;
            data = &data[take..];
            if filled < 64 {
                continue;
            }
            compress(&mut h, &tail);
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut h, block.try_into().expect("chunks_exact(64) yields 64 bytes"));
        }
        filled = blocks.remainder().len();
        tail[..filled].copy_from_slice(blocks.remainder());
    }
    tail[filled] = 0x80;
    tail[filled + 1..].fill(0);
    if filled + 1 > 56 {
        compress(&mut h, &tail);
        tail = [0u8; 64];
    }
    tail[56..].copy_from_slice(&len.wrapping_mul(8).to_be_bytes());
    compress(&mut h, &tail);

    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(h) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Compute the SHA-256 digest of a byte slice.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    sha256_parts(&[data])
}

/// Compute HMAC-SHA256(key, message) per RFC 2104.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    const BLOCK: usize = 64;
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        k[..32].copy_from_slice(&sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let inner = sha256_parts(&[&k.map(|b| b ^ 0x36), message]);
    sha256_parts(&[&k.map(|b| b ^ 0x5c), &inner])
}

/// Hex-encode bytes (lowercase).
pub fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(2 * bytes.len());
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0x0f)] as char);
    }
    out
}

/// A signature tag carried in messages (hex-encoded HMAC-SHA256).
pub type Signature = String;

/// Constant-time-ish comparison of two hex signatures (length leak only).
pub fn verify_tag(expected: &str, actual: &str) -> bool {
    if expected.len() != actual.len() {
        return false;
    }
    expected
        .bytes()
        .zip(actual.bytes())
        .fold(0u8, |acc, (a, b)| acc | (a ^ b))
        == 0
}

/// The shared key directory: party id -> signing secret.
///
/// In the prototype every node holds the full directory (symmetric trust);
/// the protocol only calls [`KeyDirectory::sign`] and
/// [`KeyDirectory::verify`], the swap-points for real signatures.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KeyDirectory {
    keys: HashMap<String, Vec<u8>>,
}

impl KeyDirectory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a party's secret.
    pub fn register(&mut self, party: impl Into<String>, secret: impl Into<Vec<u8>>) {
        self.keys.insert(party.into(), secret.into());
    }

    /// Derive a deterministic per-party secret from a network seed (used by
    /// tests and simulations to avoid shipping random key material around).
    pub fn register_derived(&mut self, party: impl Into<String>, network_seed: &[u8]) {
        let party = party.into();
        let mut material = network_seed.to_vec();
        material.extend_from_slice(party.as_bytes());
        let secret = sha256(&material).to_vec();
        self.keys.insert(party, secret);
    }

    /// Whether a party is known.
    pub fn knows(&self, party: &str) -> bool {
        self.keys.contains_key(party)
    }

    /// Sign a message on behalf of a party. Returns `None` for unknown
    /// parties.
    pub fn sign(&self, party: &str, message: &[u8]) -> Option<Signature> {
        self.keys.get(party).map(|k| hex(&hmac_sha256(k, message)))
    }

    /// Verify a party's tag over a message.
    pub fn verify(&self, party: &str, message: &[u8], tag: &str) -> bool {
        match self.sign(party, message) {
            Some(expected) => verify_tag(&expected, tag),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The implementation this module shipped before the block-streaming
    /// one: pad the whole message into a `Vec`, then compress it.
    fn sha256_reference(data: &[u8]) -> [u8; 32] {
        // Pad: message || 0x80 || zeros || 64-bit big-endian bit length.
        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_be_bytes());

        let mut h = H0;
        let mut w = [0u32; 64];
        for block in msg.chunks_exact(64) {
            for (i, word) in w.iter_mut().take(16).enumerate() {
                *word = u32::from_be_bytes([block[4 * i], block[4 * i + 1], block[4 * i + 2], block[4 * i + 3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ ((!e) & g);
                let t1 = hh
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                hh = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            h[0] = h[0].wrapping_add(a);
            h[1] = h[1].wrapping_add(b);
            h[2] = h[2].wrapping_add(c);
            h[3] = h[3].wrapping_add(d);
            h[4] = h[4].wrapping_add(e);
            h[5] = h[5].wrapping_add(f);
            h[6] = h[6].wrapping_add(g);
            h[7] = h[7].wrapping_add(hh);
        }
        let mut out = [0u8; 32];
        for (i, word) in h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// RFC 2104 by concatenation, over the reference hash.
    fn hmac_reference(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut k = if key.len() > 64 { sha256_reference(key).to_vec() } else { key.to_vec() };
        k.resize(64, 0);
        let mut inner: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
        inner.extend_from_slice(message);
        let mut outer: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
        outer.extend_from_slice(&sha256_reference(&inner));
        sha256_reference(&outer)
    }

    /// Bytes with no period a block boundary could hide behind.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + i / 251) as u8).collect()
    }

    #[test]
    fn sha256_matches_reference_at_every_tail_length() {
        // 0..=300 crosses every `len % 64`, the one- and two-block padding
        // cases included, with zero to four full blocks in front.
        let data = pattern(300);
        for len in 0..=data.len() {
            assert_eq!(sha256(&data[..len]), sha256_reference(&data[..len]), "len {len}");
        }
        let big = pattern((1 << 20) + 1);
        for len in [(1 << 20) - 1, 1 << 20, (1 << 20) + 1] {
            assert_eq!(sha256(&big[..len]), sha256_reference(&big[..len]), "len {len}");
        }
    }

    #[test]
    fn sha256_parts_is_sha256_of_the_concatenation() {
        let data = pattern(200);
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(sha256_parts(&[a, b]), sha256_reference(&data), "cut {cut}");
        }
        assert_eq!(sha256_parts(&[]), sha256_reference(b""));
        assert_eq!(
            sha256_parts(&[&data[..3], &[], &data[3..70], &data[70..]]),
            sha256_reference(&data)
        );
    }

    #[test]
    fn hmac_matches_reference_composition() {
        let message = pattern(130);
        for key_len in [0usize, 32, 64, 65, 200] {
            let key: Vec<u8> = pattern(key_len).iter().map(|b| b ^ 0xC3).collect();
            for len in 0..=message.len() {
                assert_eq!(
                    hmac_sha256(&key, &message[..len]),
                    hmac_reference(&key, &message[..len]),
                    "key {key_len} message {len}"
                );
            }
        }
    }

    #[test]
    fn hex_matches_format_spelling() {
        let all: Vec<u8> = (0..=255).collect();
        let spelled: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex(&all), spelled);
        assert_eq!(hex(&[]), "");
    }

    #[test]
    fn sha256_empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_block_vector() {
        // FIPS 180-4 test: 448-bit message crossing padding boundary.
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_length_boundaries() {
        // 55, 56, 63, 64, 65 bytes exercise every padding branch. Just
        // check determinism and distinctness.
        let digests: Vec<String> = [55usize, 56, 63, 64, 65]
            .iter()
            .map(|&n| hex(&sha256(&vec![0x41u8; n])))
            .collect();
        for (i, a) in digests.iter().enumerate() {
            for b in digests.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn hmac_rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_long_key_hashed() {
        // RFC 4231 case 6: 131-byte key (> block size).
        let key = [0xaau8; 131];
        let tag = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn directory_sign_verify() {
        let mut dir = KeyDirectory::new();
        dir.register("taiwan", b"secret-1".to_vec());
        dir.register_derived("korea", b"network-seed");
        assert!(dir.knows("taiwan") && dir.knows("korea"));
        assert!(!dir.knows("mallory"));
        let tag = dir.sign("taiwan", b"receipt-1").unwrap();
        assert!(dir.verify("taiwan", b"receipt-1", &tag));
        assert!(!dir.verify("taiwan", b"receipt-2", &tag));
        assert!(!dir.verify("korea", b"receipt-1", &tag));
        assert!(dir.sign("mallory", b"x").is_none());
        assert!(!dir.verify("mallory", b"x", "00"));
    }

    #[test]
    fn derived_keys_deterministic_and_distinct() {
        let mut a = KeyDirectory::new();
        a.register_derived("p1", b"seed");
        a.register_derived("p2", b"seed");
        let mut b = KeyDirectory::new();
        b.register_derived("p1", b"seed");
        assert_eq!(a.sign("p1", b"m"), b.sign("p1", b"m"));
        assert_ne!(a.sign("p1", b"m"), a.sign("p2", b"m"));
    }

    #[test]
    fn tag_tamper_detected() {
        let mut dir = KeyDirectory::new();
        dir.register("p", b"k".to_vec());
        let tag = dir.sign("p", b"msg").unwrap();
        let mut bad = tag.clone().into_bytes();
        bad[0] = if bad[0] == b'0' { b'1' } else { b'0' };
        assert!(!dir.verify("p", b"msg", &String::from_utf8(bad).unwrap()));
        assert!(!verify_tag(&tag, &tag[1..]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn digest_deterministic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(sha256(&data), sha256(&data));
        }

        #[test]
        fn distinct_inputs_distinct_digests(
            a in proptest::collection::vec(any::<u8>(), 0..128),
            b in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            prop_assume!(a != b);
            prop_assert_ne!(sha256(&a), sha256(&b));
        }

        #[test]
        fn hmac_key_separation(
            k1 in proptest::collection::vec(any::<u8>(), 1..64),
            k2 in proptest::collection::vec(any::<u8>(), 1..64),
            msg in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            prop_assume!(k1 != k2);
            prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
        }
    }
}
