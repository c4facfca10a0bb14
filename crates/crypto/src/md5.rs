//! The MD5 message-digest algorithm (RFC 1321), implemented from scratch.
//!
//! BFT uses MD5 to compute the digests carried in pre-prepare messages, the
//! digests of replies used by the *digest replies* optimization, and the
//! digests that identify checkpoints. MD5 is broken for collision resistance
//! today; it is implemented here because it is what the paper used and
//! because the *cost structure* (fixed setup plus a per-64-byte-block
//! compression) is what the simulation's CPU model reproduces.
//!
//! Both one-shot ([`digest`]) and incremental ([`Md5`]) interfaces are
//! provided; the incremental interface is used to hash large state
//! partitions during checkpointing without materializing them.

/// A 16-byte MD5 digest.
///
/// Digests identify requests, replies and checkpoints throughout the
/// protocol. They are compared in constant time where authentication
/// matters (see [`Digest::ct_eq`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// The all-zero digest, used as a placeholder for "no digest".
    pub const ZERO: Digest = Digest([0; 16]);

    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Constant-time equality comparison.
    ///
    /// Ordinary `==` is fine for table lookups; use this when comparing a
    /// received digest against a locally computed one.
    pub fn ct_eq(&self, other: &Digest) -> bool {
        let mut acc = 0u8;
        for i in 0..16 {
            acc |= self.0[i] ^ other.0[i];
        }
        acc == 0
    }

    /// Truncates the digest to a `u64`, used for cheap fingerprints in
    /// internal tables (never for authentication).
    pub fn short(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("slice of 8 bytes"))
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest(")?;
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Per-round shift amounts (RFC 1321).
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived additive constants: `K[i] = floor(2^32 * |sin(i + 1)|)`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Incremental MD5 context.
///
/// # Example
///
/// ```
/// use bft_crypto::md5::{digest, Md5};
///
/// let mut ctx = Md5::new();
/// ctx.update(b"hello ");
/// ctx.update(b"world");
/// assert_eq!(ctx.finish(), digest(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a fresh context.
    pub fn new() -> Md5 {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the digest.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks are compressed where they lie in `data`.
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            let block = block.try_into().expect("chunks_exact yields 64 bytes");
            compress(&mut self.state, block);
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finalizes the digest, consuming the context.
    pub fn finish(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80 then zeros (`pad_len` bytes in all) until the message
        // is 56 bytes into a block, then the 64-bit little-endian bit length
        // of the message proper.
        let pad_len = if self.buf_len < 56 { 56 } else { 120 } - self.buf_len;
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_le_bytes());
        self.update(&pad[..pad_len + 8]);
        debug_assert_eq!(self.buf_len, 0, "padding ends on a block boundary");
        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }
}

/// The MD5 compression function: folds one 64-byte block into `state`.
///
/// All 64 steps are written out, so the message-word index, shift and
/// additive constant of each step are compile-time constants and the four
/// state words never rotate through a temporary.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (word, chunk) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    let f = |b: u32, c: u32, d: u32| d ^ (b & (c ^ d));
    // `(b & d) | (c & !d)`: the terms share no set bit, so the OR is an
    // add, and the term without `b` — the word the previous step has just
    // produced — folds into the sum off the critical path.
    let g = |b: u32, c: u32, d: u32| (b & d).wrapping_add(c & !d);
    let h = |b: u32, c: u32, d: u32| b ^ c ^ d;
    let i = |b: u32, c: u32, d: u32| c ^ (b | !d);
    // The constants are read through an opaque reference, once per block.
    // As immediates, LLVM's reassociation adds `K[n]` last, after `mix`, so
    // every step would carry two dependent adds before the rotate
    // (`add mix; add K; rol; add b`). As loads, `a + m[w] + K[n]` is summed
    // while the previous step is still running, and the chain is
    // `add mix; rol; add b`.
    let k = std::hint::black_box(&K);
    // Step `$n` of RFC 1321, reading message word `$w`:
    // `a = b + ((a + mix(b, c, d) + m[w] + K[n]) <<< S[n])`.
    macro_rules! step {
        ($mix:ident, $a:ident, $b:ident, $c:ident, $d:ident, $n:literal, $w:literal) => {
            $a = $a
                .wrapping_add(m[$w])
                .wrapping_add(k[$n])
                .wrapping_add($mix($b, $c, $d))
                .rotate_left(S[$n])
                .wrapping_add($b);
        };
    }
    let [mut a, mut b, mut c, mut d] = *state;

    step!(f, a, b, c, d, 0, 0);
    step!(f, d, a, b, c, 1, 1);
    step!(f, c, d, a, b, 2, 2);
    step!(f, b, c, d, a, 3, 3);
    step!(f, a, b, c, d, 4, 4);
    step!(f, d, a, b, c, 5, 5);
    step!(f, c, d, a, b, 6, 6);
    step!(f, b, c, d, a, 7, 7);
    step!(f, a, b, c, d, 8, 8);
    step!(f, d, a, b, c, 9, 9);
    step!(f, c, d, a, b, 10, 10);
    step!(f, b, c, d, a, 11, 11);
    step!(f, a, b, c, d, 12, 12);
    step!(f, d, a, b, c, 13, 13);
    step!(f, c, d, a, b, 14, 14);
    step!(f, b, c, d, a, 15, 15);

    step!(g, a, b, c, d, 16, 1);
    step!(g, d, a, b, c, 17, 6);
    step!(g, c, d, a, b, 18, 11);
    step!(g, b, c, d, a, 19, 0);
    step!(g, a, b, c, d, 20, 5);
    step!(g, d, a, b, c, 21, 10);
    step!(g, c, d, a, b, 22, 15);
    step!(g, b, c, d, a, 23, 4);
    step!(g, a, b, c, d, 24, 9);
    step!(g, d, a, b, c, 25, 14);
    step!(g, c, d, a, b, 26, 3);
    step!(g, b, c, d, a, 27, 8);
    step!(g, a, b, c, d, 28, 13);
    step!(g, d, a, b, c, 29, 2);
    step!(g, c, d, a, b, 30, 7);
    step!(g, b, c, d, a, 31, 12);

    step!(h, a, b, c, d, 32, 5);
    step!(h, d, a, b, c, 33, 8);
    step!(h, c, d, a, b, 34, 11);
    step!(h, b, c, d, a, 35, 14);
    step!(h, a, b, c, d, 36, 1);
    step!(h, d, a, b, c, 37, 4);
    step!(h, c, d, a, b, 38, 7);
    step!(h, b, c, d, a, 39, 10);
    step!(h, a, b, c, d, 40, 13);
    step!(h, d, a, b, c, 41, 0);
    step!(h, c, d, a, b, 42, 3);
    step!(h, b, c, d, a, 43, 6);
    step!(h, a, b, c, d, 44, 9);
    step!(h, d, a, b, c, 45, 12);
    step!(h, c, d, a, b, 46, 15);
    step!(h, b, c, d, a, 47, 2);

    step!(i, a, b, c, d, 48, 0);
    step!(i, d, a, b, c, 49, 7);
    step!(i, c, d, a, b, 50, 14);
    step!(i, b, c, d, a, 51, 5);
    step!(i, a, b, c, d, 52, 12);
    step!(i, d, a, b, c, 53, 3);
    step!(i, c, d, a, b, 54, 10);
    step!(i, b, c, d, a, 55, 1);
    step!(i, a, b, c, d, 56, 8);
    step!(i, d, a, b, c, 57, 15);
    step!(i, c, d, a, b, 58, 6);
    step!(i, b, c, d, a, 59, 13);
    step!(i, a, b, c, d, 60, 4);
    step!(i, d, a, b, c, 61, 11);
    step!(i, c, d, a, b, 62, 2);
    step!(i, b, c, d, a, 63, 9);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// Computes the MD5 digest of `data` in one shot.
///
/// ```
/// use bft_crypto::md5::digest;
/// assert_eq!(digest(b"abc").to_string(), "900150983cd24fb0d6963f7d28e17f72");
/// ```
pub fn digest(data: &[u8]) -> Digest {
    let mut ctx = Md5::new();
    ctx.update(data);
    ctx.finish()
}

/// Computes the digest of the concatenation of several byte slices without
/// copying them into one buffer.
pub fn digest_parts(parts: &[&[u8]]) -> Digest {
    let mut ctx = Md5::new();
    for p in parts {
        ctx.update(p);
    }
    ctx.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

    /// The compression function as RFC 1321 states it — one loop, the
    /// round selected per step — kept as the reference for [`compress`].
    fn compress_looped(state: &mut [u32; 4], block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            m[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let [mut a, mut b, mut c, mut d] = *state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            b = b.wrapping_add(
                a.wrapping_add(f)
                    .wrapping_add(K[i])
                    .wrapping_add(m[g])
                    .rotate_left(S[i]),
            );
            a = tmp;
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
    }

    #[test]
    fn unrolled_compress_matches_looped_reference() {
        let mut rng = StdRng::seed_from_u64(0x0d5);
        for case in 0..1000 {
            let mut block = [0u8; 64];
            rng.fill_bytes(&mut block);
            let state: [u32; 4] = std::array::from_fn(|_| rng.gen());
            let (mut unrolled, mut looped) = (state, state);
            compress(&mut unrolled, &block);
            compress_looped(&mut looped, &block);
            assert_eq!(
                unrolled, looped,
                "case {case}: state {state:x?} block {block:x?}"
            );
        }
    }

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(digest(input).to_string(), want, "input {input:?}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 17, 63, 64, 65, 128, 500, 999, 1000] {
            let mut ctx = Md5::new();
            ctx.update(&data[..split]);
            ctx.update(&data[split..]);
            assert_eq!(ctx.finish(), digest(&data), "split {split}");
        }
    }

    #[test]
    fn digest_parts_matches_concat() {
        let a = b"pre-prepare".as_slice();
        let b = b"payload bytes".as_slice();
        let mut concat = a.to_vec();
        concat.extend_from_slice(b);
        assert_eq!(digest_parts(&[a, b]), digest(&concat));
    }

    /// MD5 the slow, obvious way: materialize the padded message, then
    /// run the reference compression over it.
    fn digest_reference(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_le_bytes());
        let mut state = Md5::new().state;
        for block in padded.chunks_exact(64) {
            compress_looped(&mut state, block.try_into().expect("64-byte block"));
        }
        let mut out = [0u8; 16];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }

    #[test]
    fn boundary_lengths() {
        // Every padding shape: around the 56-byte length slot and the
        // block boundary, in the first block and the second, and a 4 KiB
        // body; fed whole and a byte at a time.
        for len in (0..=130usize).chain([4095, 4096, 4097]) {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let want = digest_reference(&data);
            assert_eq!(digest(&data), want, "len {len}");
            let mut ctx = Md5::new();
            for b in &data {
                ctx.update(std::slice::from_ref(b));
            }
            assert_eq!(ctx.finish(), want, "len {len}, bytewise");
        }
    }

    #[test]
    fn ct_eq_agrees_with_eq() {
        let d1 = digest(b"x");
        let d2 = digest(b"x");
        let d3 = digest(b"y");
        assert!(d1.ct_eq(&d2));
        assert!(!d1.ct_eq(&d3));
    }

    #[test]
    fn display_and_debug_nonempty() {
        let d = digest(b"z");
        assert_eq!(d.to_string().len(), 32);
        assert!(!format!("{d:?}").is_empty());
    }

    #[test]
    fn short_fingerprint_is_le_prefix() {
        let d = Digest([1, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9]);
        assert_eq!(d.short(), 1);
    }
}
