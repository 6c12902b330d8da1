//! Vendored SHA-256 (FIPS 180-4), in the spirit of the repo's other
//! offline stand-ins: the container has no registry access, and the hash
//! chain must not depend on one. One-shot over small inputs (event lines
//! are a few hundred bytes), checked against the standard test vectors.
//!
//! Two block functions compute the same digest. On x86-64 CPUs with the
//! SHA extensions, [`sha256`] runs the blocks through `sha256rnds2` /
//! `sha256msg1` / `sha256msg2`; everywhere else (and as the reference
//! the tests compare against) it runs the portable scalar rounds. The
//! choice is made per call from `is_x86_feature_detected!` (a cached
//! flag), so it follows the CPU and nothing else: there is no option to
//! set. On perfbench's traced `paper-fig7` run (seed 96620224, 2-vCPU
//! Intel Xeon with SHA extensions, rustc 1.95.0) the hardware path,
//! together with the one-buffer seal loop of [`crate::finalize`], took
//! `telemetry.seal_s` from 1.14–1.35 s to 0.33–0.41 s per pass over the
//! seven schemes (three runs each).

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

/// The portable scalar rounds over a whole number of 64-byte blocks: the
/// block function on CPUs without SHA extensions, and the reference the
/// hardware path is tested against.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
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

/// SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    match hardware_compress() {
        Some(compress) => digest_with(data, compress),
        None => digest_with(data, compress_scalar),
    }
}

/// A block function: runs the rounds over a whole number of 64-byte
/// blocks.
type Compress = fn(&mut [u32; 8], &[u8]);

/// The SHA-extension block function, where this CPU has one.
fn hardware_compress() -> Option<Compress> {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        return Some(|state, blocks| {
            // SAFETY: `x86::available` has just confirmed that this CPU
            // has every feature `x86::compress` is compiled for.
            unsafe { x86::compress(state, blocks) }
        });
    }
    None
}

/// Digest `data` with the block function `compress`: every full block of
/// `data`, then the padded tail.
fn digest_with(data: &[u8], compress: Compress) -> [u8; 32] {
    let mut state = H0;
    let full = data.len() - data.len() % 64;
    compress(&mut state, &data[..full]);

    // Padding: 0x80, zeros, 64-bit big-endian bit length.
    let rem = &data[full..];
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64) * 8;
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut state, &tail[..tail_len]);

    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Append the lowercase hex form of `digest` to `out`.
pub(crate) fn push_hex(out: &mut String, digest: &[u8; 32]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for b in digest {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
}

/// Lowercase hex digest of `data` — the form event lines embed.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut s = String::with_capacity(64);
    push_hex(&mut s, &sha256(data));
    s
}

/// The SHA-extension block function (`sha256rnds2` runs two rounds,
/// `sha256msg1` / `sha256msg2` extend the message schedule four words at
/// a time). The instructions keep the state as two vectors, ABEF and
/// CDGH, so it is shuffled into that layout once per call.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has every feature [`compress`] is compiled for.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(bytes: &[u8]) -> __m128i {
        assert_eq!(bytes.len(), 16);
        // SAFETY: `bytes` is 16 readable bytes (asserted), and `loadu`
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// Rounds `4i .. 4i + 4` on message words `w`.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = &K[4 * i..4 * i + 4];
        let wk = _mm_add_epi32(
            w,
            _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
        );
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The next four message words from the previous sixteen.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// The SHA-extension twin of [`super::compress_scalar`].
    ///
    /// # Safety
    ///
    /// Calling it from code not compiled for these features is `unsafe`:
    /// the caller must have seen [`available`] return `true`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // Message words are big-endian: reverse the bytes of each lane.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let s = state.map(|v| v as i32);
        let dcba = _mm_set_epi32(s[3], s[2], s[1], s[0]);
        let hgfe = _mm_set_epi32(s[7], s[6], s[5], s[4]);
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

        for block in blocks.chunks_exact(64) {
            let (abef0, cdgh0) = (abef, cdgh);
            let mut w = [
                _mm_shuffle_epi8(load(&block[0..16]), bswap),
                _mm_shuffle_epi8(load(&block[16..32]), bswap),
                _mm_shuffle_epi8(load(&block[32..48]), bswap),
                _mm_shuffle_epi8(load(&block[48..64]), bswap),
            ];
            for (i, wi) in w.into_iter().enumerate() {
                rounds4(&mut abef, &mut cdgh, wi, i);
            }
            for i in 4..16 {
                let next = schedule(w[0], w[1], w[2], w[3]);
                w = [w[1], w[2], w[3], next];
                rounds4(&mut abef, &mut cdgh, next, i);
            }
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgef = _mm_alignr_epi8::<8>(dchg, feba);
        *state = [
            _mm_extract_epi32::<0>(dcba),
            _mm_extract_epi32::<1>(dcba),
            _mm_extract_epi32::<2>(dcba),
            _mm_extract_epi32::<3>(dcba),
            _mm_extract_epi32::<0>(hgef),
            _mm_extract_epi32::<1>(hgef),
            _mm_extract_epi32::<2>(hgef),
            _mm_extract_epi32::<3>(hgef),
        ]
        .map(|v| v as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: [u8; 32]) -> String {
        let mut s = String::new();
        push_hex(&mut s, &digest);
        s
    }

    /// Every block function this CPU can run: the scalar reference, and
    /// the SHA-extension path where the CPU has it.
    fn paths() -> Vec<(&'static str, Compress)> {
        let mut paths: Vec<(&'static str, Compress)> = vec![("scalar", compress_scalar)];
        match hardware_compress() {
            Some(compress) => paths.push(("hardware", compress)),
            None => eprintln!("no SHA extensions on this CPU: checking the scalar path only"),
        }
        paths
    }

    #[test]
    fn fips_vectors() {
        let vectors: [(&[u8], &str); 3] = [
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
        ];
        for (name, compress) in paths() {
            for (data, expected) in vectors {
                assert_eq!(hex(digest_with(data, compress)), expected, "{name} path");
            }
        }
        for (data, expected) in vectors {
            assert_eq!(sha256_hex(data), expected);
        }
    }

    #[test]
    fn hardware_and_scalar_paths_agree_at_every_length() {
        // 0..=1024 bytes covers the 55/56/63/64-byte padding cutovers
        // and inputs of up to sixteen full blocks. The bytes vary with
        // position so a misordered word or lane changes the digest.
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 31 + i / 7) as u8).collect();
        let Some(hardware) = hardware_compress() else {
            eprintln!("no SHA extensions on this CPU: the hardware path is not exercised");
            return;
        };
        for len in 0..=data.len() {
            let input = &data[..len];
            assert_eq!(
                digest_with(input, hardware),
                digest_with(input, compress_scalar),
                "paths disagree at {len} bytes"
            );
        }
    }

    #[test]
    fn multi_block_input() {
        // 200 bytes crosses the one-block padding boundary twice over.
        let data = vec![0x61u8; 200];
        // Reference: hashing in one shot must equal the known digest of
        // 'a' * 200 (computed with a independent implementation).
        assert_eq!(
            sha256_hex(&data),
            "c2a908d98f5df987ade41b5fce213067efbcc21ef2240212a41e54b5e7c28ae5"
        );
    }

    #[test]
    fn length_boundaries_are_padded_correctly() {
        // 55/56/63/64 bytes straddle the "length fits in this block"
        // cutover; each must produce a distinct, stable digest.
        let digests: Vec<String> = [55usize, 56, 63, 64, 65]
            .iter()
            .map(|&n| sha256_hex(&vec![0u8; n]))
            .collect();
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(
            sha256_hex(&[0u8; 64]),
            "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b"
        );
    }
}
