//! MD5 (RFC 1321), implemented from scratch.
//!
//! The paper's proxy attaches digital signatures so that injected checks
//! are "inseparable from applications" between the server and clients,
//! citing RFC 1321. MD5 is badly broken as a cryptographic hash today; it
//! is reproduced here because it is what the paper's infrastructure used,
//! and the reproduction needs only tamper-evidence between cooperating
//! components, not collision resistance against adversaries.

const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

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

/// Computes the MD5 digest of `data`.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// Streaming MD5: full blocks are hashed straight from the input slice,
/// only a trailing partial block is buffered, and the padding block is
/// built on the stack — the input is never copied as a whole.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    block: [u8; 64],
    /// Bytes buffered in `block` (always < 64 between calls).
    buffered: usize,
    /// Total bytes fed so far.
    len: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Md5::new()
    }
}

impl Md5 {
    /// A fresh digest state.
    pub fn new() -> Md5 {
        Md5 {
            state: [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476],
            block: [0; 64],
            buffered: 0,
            len: 0,
        }
    }

    /// Feeds `data`; any split of the input gives the same digest.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.block[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.block);
            self.buffered = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let rest = blocks.remainder();
        self.block[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Pads (0x80, zeros, 64-bit little-endian bit length) and returns
    /// the digest.
    pub fn finalize(mut self) -> [u8; 16] {
        let bit_len = self.len.wrapping_mul(8);
        let mut last = self.block;
        last[self.buffered] = 0x80;
        last[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            compress(&mut self.state, &last);
            last = [0; 64];
        }
        last[56..].copy_from_slice(&bit_len.to_le_bytes());
        compress(&mut self.state, &last);
        let mut out = [0u8; 16];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

/// One 64-step MD5 compression of `block` into `state`, unrolled.
#[inline(always)]
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (w, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes(bytes.try_into().expect("4-byte word"));
    }
    let [mut a, mut b, mut c, mut d] = *state;
    let f = |b: u32, c: u32, d: u32| (b & c) | (!b & d);
    let g = |b: u32, c: u32, d: u32| (d & b) | (!d & c);
    let h = |b: u32, c: u32, d: u32| b ^ c ^ d;
    let i = |b: u32, c: u32, d: u32| c ^ (b | !d);
    // Step `t` with message word `w`: the register roles rotate one
    // position per step, so four steps name a, b, c, d in turn.
    macro_rules! step {
        ($fun:ident, $a:ident, $b:ident, $c:ident, $d:ident, $t:expr, $w:expr) => {
            $a = $b.wrapping_add(
                $a.wrapping_add($fun($b, $c, $d))
                    .wrapping_add(K[$t])
                    .wrapping_add(m[$w])
                    .rotate_left(S[$t]),
            )
        };
    }
    macro_rules! four {
        ($fun:ident, $t:expr, $w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            step!($fun, a, b, c, d, $t, $w0);
            step!($fun, d, a, b, c, $t + 1, $w1);
            step!($fun, c, d, a, b, $t + 2, $w2);
            step!($fun, b, c, d, a, $t + 3, $w3);
        };
    }
    four!(f, 0, 0, 1, 2, 3);
    four!(f, 4, 4, 5, 6, 7);
    four!(f, 8, 8, 9, 10, 11);
    four!(f, 12, 12, 13, 14, 15);
    four!(g, 16, 1, 6, 11, 0);
    four!(g, 20, 5, 10, 15, 4);
    four!(g, 24, 9, 14, 3, 8);
    four!(g, 28, 13, 2, 7, 12);
    four!(h, 32, 5, 8, 11, 14);
    four!(h, 36, 1, 4, 7, 10);
    four!(h, 40, 13, 0, 3, 6);
    four!(h, 44, 9, 12, 15, 2);
    four!(i, 48, 0, 7, 14, 5);
    four!(i, 52, 12, 3, 10, 1);
    four!(i, 56, 8, 15, 6, 13);
    four!(i, 60, 4, 11, 2, 9);
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// Renders a digest as lowercase hex.
pub fn hex(digest: &[u8; 16]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(32);
    for &b in digest {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_test_vectors() {
        let cases: [(&str, &str); 7] = [
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(hex(&md5(input.as_bytes())), expected, "md5({input:?})");
        }
    }

    #[test]
    fn multi_block_inputs() {
        // Exactly one padding block boundary (55/56/64 byte edges).
        for len in [55usize, 56, 63, 64, 65, 128] {
            let data = vec![0xAB; len];
            let d1 = md5(&data);
            let d2 = md5(&data);
            assert_eq!(d1, d2);
            let mut tweaked = data.clone();
            tweaked[len / 2] ^= 1;
            assert_ne!(md5(&tweaked), d1, "len {len}");
        }
    }

    /// The copying, table-driven implementation `md5` replaced, kept as
    /// the oracle the streaming one must match byte for byte.
    fn reference_md5(data: &[u8]) -> [u8; 16] {
        let (mut a0, mut b0, mut c0, mut d0) = (
            0x6745_2301u32,
            0xefcd_ab89u32,
            0x98ba_dcfeu32,
            0x1032_5476u32,
        );
        let mut msg = data.to_vec();
        let bit_len = (data.len() as u64).wrapping_mul(8);
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_le_bytes());
        for chunk in msg.chunks_exact(64) {
            let mut m = [0u32; 16];
            for (i, w) in m.iter_mut().enumerate() {
                *w = u32::from_le_bytes(chunk[4 * i..4 * i + 4].try_into().unwrap());
            }
            let (mut a, mut b, mut c, mut d) = (a0, b0, c0, d0);
            for i in 0..64 {
                let (f, g) = match i {
                    0..=15 => ((b & c) | (!b & d), i),
                    16..=31 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    32..=47 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                let f2 = f.wrapping_add(a).wrapping_add(K[i]).wrapping_add(m[g]);
                a = d;
                d = c;
                c = b;
                b = b.wrapping_add(f2.rotate_left(S[i]));
            }
            a0 = a0.wrapping_add(a);
            b0 = b0.wrapping_add(b);
            c0 = c0.wrapping_add(c);
            d0 = d0.wrapping_add(d);
        }
        let mut out = [0u8; 16];
        for (chunk, word) in out.chunks_exact_mut(4).zip([a0, b0, c0, d0]) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Feeds `data` to a streaming digest in pieces cut at `cuts`
    /// (reduced modulo the length, in any order).
    fn streamed(data: &[u8], cuts: &[usize]) -> [u8; 16] {
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        points.sort_unstable();
        let mut h = Md5::new();
        let mut at = 0;
        for p in points {
            h.update(&data[at..p]);
            at = p;
        }
        h.update(&data[at..]);
        h.finalize()
    }

    fn pattern(len: usize, seed: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9).wrapping_add(seed) >> 7) as u8)
            .collect()
    }

    #[test]
    fn every_length_to_300_matches_the_reference() {
        // Covers the 55/56/64/119/120 padding edges and every remainder.
        for len in 0..=300 {
            let data = pattern(len, len as u64);
            assert_eq!(md5(&data), reference_md5(&data), "len {len}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn streaming_at_random_splits_equals_one_shot(
            data in proptest::collection::vec(any::<u8>(), 0..=300),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
        ) {
            let one_shot = md5(&data);
            prop_assert_eq!(streamed(&data, &cuts), one_shot);
            prop_assert_eq!(one_shot, reference_md5(&data));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn streaming_64k_at_random_splits_equals_one_shot(
            seed in any::<u64>(),
            cuts in proptest::collection::vec(any::<usize>(), 0..12),
        ) {
            let data = pattern(64 << 10, seed);
            let one_shot = md5(&data);
            prop_assert_eq!(streamed(&data, &cuts), one_shot);
            prop_assert_eq!(one_shot, reference_md5(&data));
        }
    }
}
