//! SHA-256 (FIPS 180-4), hand-rolled because the build environment
//! vendors no crypto crate. Every digest of the workspace — request and
//! prep keys, the artifact store's body hash, `hetero-plan`'s stage
//! keys — goes through [`sha256`], so one function decides every key and
//! artifact byte.
//!
//! [`sha256`] streams: whole 64-byte blocks are compressed straight from
//! the input, only the tail — the last partial block, the `0x80` marker
//! and the bit length — is padded, in one or two blocks on the stack.
//!
//! Two compression kernels sit behind it and give identical digests:
//!
//! * the portable [`compress`], plain `u32` arithmetic, on every target;
//! * on x86_64, a kernel on the CPU's SHA extensions (SHA-NI), five to
//!   six times faster. Each call to [`sha256`] asks the CPU (through the
//!   standard library's cached feature detection) whether it runs the
//!   `sha`, `ssse3` and `sse4.1` instructions, and uses the kernel if it
//!   does. Nothing else selects it: there is no option, variable or cfg.
//!
//! The SHA-NI kernel needs `unsafe` twice, and nowhere else in this crate:
//! a function compiled for instructions the build's baseline lacks may
//! only be called once the CPU is known to have them, and its block and
//! state loads and stores are raw 16-byte (unaligned) memory accesses.
//! Both sit in the private `ni` module, the crate's one `unsafe` island.
//! This module's tests check both kernels against the standard vectors
//! and against each other.

/// The initial hash value `H(0)`.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The 64 round constants `K`.
#[rustfmt::skip]
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

/// The SHA-256 state after `data`, on the fastest kernel this CPU runs.
pub(crate) fn sha256(data: &[u8]) -> [u32; 8] {
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = ni::ShaNi::detect() {
        return digest(data, |h, blocks| ni.compress_blocks(h, blocks));
    }
    digest(data, compress_blocks)
}

/// The SHA-256 state after `data`, compressing with `compress_blocks`
/// (which is handed whole 64-byte blocks only).
fn digest(data: &[u8], mut compress_blocks: impl FnMut(&mut [u32; 8], &[u8])) -> [u32; 8] {
    let mut h = H0;
    let whole = data.len() - data.len() % 64;
    compress_blocks(&mut h, &data[..whole]);
    let rest = &data[whole..];
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64) * 8;
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    compress_blocks(&mut h, &tail[..tail_len]);
    h
}

/// The portable kernel over every whole 64-byte block of `blocks`.
fn compress_blocks(h: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress(h, block);
    }
}

/// The SHA-256 compression function over one 64-byte block.
fn compress(h: &mut [u32; 8], chunk: &[u8]) {
    let mut w = [0u32; 64];
    for (wi, word) in w.iter_mut().zip(chunk.chunks_exact(4)) {
        *wi = u32::from_be_bytes(word.try_into().expect("4-byte chunk"));
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
    for (ki, wi) in K.iter().zip(w.iter()) {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(*ki)
            .wrapping_add(*wi);
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
    for (hi, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *hi = hi.wrapping_add(v);
    }
}

/// The SHA-NI kernel (x86_64 only).
#[cfg(target_arch = "x86_64")]
mod ni {
    #![allow(unsafe_code)]

    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Proof that this CPU runs the kernel's instructions: only
    /// [`ShaNi::detect`] makes one.
    #[derive(Clone, Copy)]
    pub(super) struct ShaNi(());

    impl ShaNi {
        /// `Some` when the CPU reports every feature the kernel is
        /// compiled for (`sse2` is part of the x86_64 baseline).
        pub(super) fn detect() -> Option<ShaNi> {
            (is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1"))
            .then_some(ShaNi(()))
        }

        /// The kernel over every whole 64-byte block of `blocks`.
        pub(super) fn compress_blocks(self, h: &mut [u32; 8], blocks: &[u8]) {
            // SAFETY: a `ShaNi` exists only once `detect` has seen the CPU
            // report every feature `compress_blocks` is compiled for.
            unsafe { compress_blocks(h, blocks) }
        }
    }

    /// Two rounds per `sha256rnds2`, four per message vector: the state
    /// lives in two registers as `ABEF` and `CDGH`, and the schedule keeps
    /// the last four 4-word groups of `W`.
    ///
    /// # Safety
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`. The only
    /// memory accesses are 16-byte unaligned loads and stores inside `h`
    /// and inside one 64-byte `chunks_exact` block.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_blocks(h: &mut [u32; 8], blocks: &[u8]) {
        // Reverses the bytes of each 32-bit lane: the message is big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // `h` is 32 bytes: the two 16-byte state lanes below stay inside it.
        let state = h.as_mut_ptr().cast::<__m128i>();
        // Lanes named high to low: `h` holds `a..h` as DCBA and HGFE.
        let cdab = _mm_shuffle_epi32::<0xb1>(_mm_loadu_si128(state));
        let efgh = _mm_shuffle_epi32::<0x1b>(_mm_loadu_si128(state.add(1)));
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // `block` is 64 bytes: the four 16-byte loads stay inside it.
            let at = block.as_ptr().cast::<__m128i>();
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(at), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(at.add(1)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(at.add(2)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(at.add(3)), bswap),
            ];
            for i in 0..16 {
                if i >= 4 {
                    // W[t..t+4] from W[t-16..t]: msg1 adds σ0 to
                    // W[t-16..t-12], the alignment brings W[t-7..t-3],
                    // msg2 adds σ1 (end-exclusive ranges).
                    let [w16, w12, w8, w4] =
                        [w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]];
                    let t =
                        _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8::<4>(w4, w8));
                    w[i % 4] = _mm_sha256msg2_epu32(t, w4);
                }
                let k = &K[4 * i..4 * i + 4];
                let wk = _mm_add_epi32(
                    w[i % 4],
                    _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
                );
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32::<0x1b>(abef);
        let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
        _mm_storeu_si128(state, _mm_blend_epi16::<0xf0>(feba, dchg));
        _mm_storeu_si128(state.add(1), _mm_alignr_epi8::<8>(dchg, feba));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Digest = fn(&[u8]) -> [u32; 8];

    /// Every kernel this CPU runs, by name; the portable one first.
    fn kernels() -> Vec<(&'static str, Digest)> {
        let mut kernels: Vec<(&'static str, Digest)> =
            vec![("portable", |data| digest(data, compress_blocks))];
        #[cfg(target_arch = "x86_64")]
        if ni::ShaNi::detect().is_some() {
            kernels.push(("sha-ni", |data| {
                let ni = ni::ShaNi::detect().expect("detected above");
                digest(data, |h, blocks| ni.compress_blocks(h, blocks))
            }));
        }
        let names: Vec<_> = kernels.iter().map(|(name, _)| *name).collect();
        println!("SHA-256 kernels checked: {names:?}");
        kernels
    }

    fn hex(h: [u32; 8]) -> String {
        h.iter().map(|v| format!("{v:08x}")).collect()
    }

    /// Seeded bytes (SplitMix64).
    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn sha256_standard_vectors() {
        // FIPS 180-4 / NIST CSHA examples: one block, the two-block
        // 448-bit message, the 896-bit message and a million `a`s.
        #[rustfmt::skip]
        let vectors: [(&[u8], &str); 4] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        let million = vec![b'a'; 1_000_000];
        for (name, kernel) in kernels() {
            for (data, expect) in vectors {
                assert_eq!(hex(kernel(data)), expect, "{name}: {} bytes", data.len());
            }
            assert_eq!(
                hex(kernel(&million)),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}: 10^6 × a"
            );
        }
    }

    #[test]
    fn sha256_padding_boundaries() {
        // `n` times `a`: the tail needs one padding block up to 55 bytes
        // and two from 56, and whole blocks start at 64.
        #[rustfmt::skip]
        let vectors = [
            (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"),
            (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"),
            (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"),
            (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"),
            (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"),
            (119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"),
            (120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"),
        ];
        for (name, kernel) in kernels() {
            for (n, expect) in vectors {
                assert_eq!(hex(kernel(&vec![b'a'; n])), expect, "{name}: {n} bytes");
            }
        }
    }

    #[test]
    fn kernels_agree_on_every_length_and_a_mebibyte() {
        let data = seeded_bytes(1 << 20, 2012);
        let kernels = kernels();
        let (_, portable) = kernels[0];
        for &(name, kernel) in &kernels[1..] {
            for len in 0..=1024 {
                assert_eq!(
                    kernel(&data[..len]),
                    portable(&data[..len]),
                    "{name}: {len} bytes"
                );
            }
            assert_eq!(kernel(&data), portable(&data), "{name}: 1 MiB");
        }
        // The entry point runs one of them.
        assert_eq!(sha256(&data), portable(&data));
    }

    /// SHA-256 as it was written before the stream: copy the message, pad
    /// the copy, compress every block of it.
    fn sha256_copy_and_pad(data: &[u8]) -> [u32; 8] {
        let mut h = H0;
        let mut msg = data.to_vec();
        let bit_len = (data.len() as u64) * 8;
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_be_bytes());
        for chunk in msg.chunks_exact(64) {
            compress(&mut h, chunk);
        }
        h
    }

    proptest::proptest! {
        #[test]
        fn streamed_sha256_matches_copy_and_pad(
            len in 0usize..301,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let data: Vec<u8> = (0..len as u64)
                .map(|i| (seed.wrapping_mul(i + 1) >> 13) as u8)
                .collect();
            proptest::prop_assert_eq!(sha256(&data), sha256_copy_and_pad(&data));
        }
    }
}
