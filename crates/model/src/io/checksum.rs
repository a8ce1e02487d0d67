//! The weight file's integrity check: CRC32C (Castagnoli), one function
//! with two engines behind it.
//!
//! The polynomial is the one x86-64 computes in hardware: the SSE4.2
//! `crc32` instruction takes eight bytes per step. A tier fetch verifies
//! every panel it hands out, so its speed is the fetch's. On one
//! 3.16 MB `bench-256` layer panel (2-vCPU Sapphire Rapids VM), one chain
//! of the instruction, waiting on each step's three-cycle latency, read
//! 6.9–7.0 GB/s (0.45 ms), more than the 0.28 ms copy it checks; three
//! interleaved chains over the run's thirds, joined by a scalar combine,
//! read 18–19 GB/s (0.17 ms). CPUs without SSE4.2, and every other
//! architecture, run a slice-by-8 table of the same polynomial, so a file
//! verifies identically everywhere. The engine is detected once at
//! runtime, the way `dsi_kernels` detects AVX2; nothing selects it.

/// CRC32C, reflected.
const POLY: u32 = 0x82f6_3b78;

/// Slice-by-8 tables: `T[0]` is the classic byte table, `T[s][b]` is the
/// CRC of byte `b` followed by `s` zero bytes.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        s += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = crc_tables();

/// Two adjacent floats as the eight bytes their little-endian encoding
/// occupies in the file.
#[inline]
fn pair_word(lo: f32, hi: f32) -> u64 {
    lo.to_bits() as u64 | (hi.to_bits() as u64) << 32
}

/// The portable engine. Also the differential oracle for the hardware one.
mod table {
    use super::{pair_word, TABLES as T};

    #[inline]
    fn byte(crc: u32, b: u8) -> u32 {
        T[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8)
    }

    /// Eight bytes (little-endian in `word`) per step.
    #[inline]
    fn word(crc: u32, word: u64) -> u32 {
        let w = word ^ crc as u64;
        T[7][(w & 0xff) as usize]
            ^ T[6][(w >> 8 & 0xff) as usize]
            ^ T[5][(w >> 16 & 0xff) as usize]
            ^ T[4][(w >> 24 & 0xff) as usize]
            ^ T[3][(w >> 32 & 0xff) as usize]
            ^ T[2][(w >> 40 & 0xff) as usize]
            ^ T[1][(w >> 48 & 0xff) as usize]
            ^ T[0][(w >> 56) as usize]
    }

    pub fn bytes(mut crc: u32, bytes: &[u8]) -> u32 {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            crc = word(crc, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        chunks.remainder().iter().fold(crc, |c, &b| byte(c, b))
    }

    pub fn f32s(mut crc: u32, vals: &[f32]) -> u32 {
        let mut pairs = vals.chunks_exact(2);
        for p in &mut pairs {
            crc = word(crc, pair_word(p[0], p[1]));
        }
        pairs.remainder().iter().flat_map(|v| v.to_le_bytes()).fold(crc, byte)
    }
}

/// Joining chains: the CRC register is linear in its start state and its
/// data, so a run hashed on separate chains is the chains' registers, each
/// carried over the bytes after it as if they were zeros — a multiply by a
/// power of x mod P, in safe scalar code.
#[cfg(any(target_arch = "x86_64", test))]
mod join {
    use super::POLY;

    /// `a(x)·b(x) mod P` with both operands in the register's reflected
    /// order (bit 31 is x⁰): zlib's `multmodp`, branch-free.
    pub const fn multmodp(a: u32, mut b: u32) -> u32 {
        let mut p = 0;
        let mut i = 0;
        while i < 32 {
            p ^= b & 0u32.wrapping_sub(a >> (31 - i) & 1);
            b = (b >> 1) ^ (POLY & 0u32.wrapping_sub(b & 1));
            i += 1;
        }
        p
    }

    /// `X8N[i]` is x^(8·2^i) mod P: one zero byte squared `i` times, for every
    /// bit a byte count can have.
    const fn x8n_table() -> [u32; 64] {
        let mut t = [0u32; 64];
        t[0] = 1 << (31 - 8);
        let mut i = 1;
        while i < 64 {
            t[i] = multmodp(t[i - 1], t[i - 1]);
            i += 1;
        }
        t
    }

    static X8N: [u32; 64] = x8n_table();

    /// x^(8n) mod P, what `n` zero bytes multiply the register by: one
    /// [`multmodp`] per set bit of `n`.
    pub fn x8n(mut n: usize) -> u32 {
        let (mut x, mut i) = (1u32 << 31, 0);
        while n != 0 {
            if n & 1 != 0 {
                x = multmodp(X8N[i], x);
            }
            n >>= 1;
            i += 1;
        }
        x
    }

    /// Runs at least this long are hashed on three chains. Below it the
    /// combine — a few hundred scalar operations — costs about what the two
    /// extra chains save.
    pub const CHAINS_FROM: usize = 4096;

    /// The register after three consecutive `len`-byte runs hashed on
    /// separate chains, the first from the running state and the other two
    /// from 0: `shift(shift(a, len) ^ b, len) ^ c`, where `shift(s, len)`
    /// is `s·x^(8·len) mod P`, with x^(8·len) found once.
    pub fn combine([a, b, c]: [u32; 3], len: usize) -> u32 {
        let x = x8n(len);
        multmodp(x, multmodp(x, a) ^ b) ^ c
    }
}

/// The SSE4.2 engine: the `crc32` instruction, eight bytes per step. One
/// chain waits on each step's three-cycle latency; a long run is cut into
/// three equal thirds hashed on three interleaved chains and joined by
/// `join::combine`, and whatever is left over finishes on one chain.
#[cfg(target_arch = "x86_64")]
mod hw {
    use super::join::{combine, CHAINS_FROM};
    use super::pair_word;
    use std::arch::x86_64::{_mm_crc32_u32, _mm_crc32_u64, _mm_crc32_u8};

    /// Whether this CPU has the `crc32` instruction (checked once).
    pub fn available() -> bool {
        static AVAIL: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAIL.get_or_init(|| std::arch::is_x86_feature_detected!("sse4.2"))
    }

    /// # Safety
    /// The CPU must support SSE4.2 ([`available`] returned `true`).
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn bytes(crc: u32, bytes: &[u8]) -> u32 {
        let (mut words, tail) = bytes.as_chunks::<8>();
        let mut c = crc as u64;
        if bytes.len() >= CHAINS_FROM {
            let third = words.len() / 3;
            let (a, rest) = words.split_at(third);
            let (b, rest) = rest.split_at(third);
            let (d, rest) = rest.split_at(third);
            let mut s = [c, 0, 0];
            for ((a, b), d) in a.iter().zip(b).zip(d) {
                s[0] = _mm_crc32_u64(s[0], u64::from_le_bytes(*a));
                s[1] = _mm_crc32_u64(s[1], u64::from_le_bytes(*b));
                s[2] = _mm_crc32_u64(s[2], u64::from_le_bytes(*d));
            }
            c = combine(s.map(|s| s as u32), 8 * third) as u64;
            words = rest;
        }
        for w in words {
            c = _mm_crc32_u64(c, u64::from_le_bytes(*w));
        }
        tail.iter().fold(c as u32, |c, &b| _mm_crc32_u8(c, b))
    }

    /// # Safety
    /// The CPU must support SSE4.2 ([`available`] returned `true`).
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn f32s(crc: u32, vals: &[f32]) -> u32 {
        let (mut pairs, tail) = vals.as_chunks::<2>();
        let mut c = crc as u64;
        if 4 * vals.len() >= CHAINS_FROM {
            let third = pairs.len() / 3;
            let (a, rest) = pairs.split_at(third);
            let (b, rest) = rest.split_at(third);
            let (d, rest) = rest.split_at(third);
            let mut s = [c, 0, 0];
            for ((a, b), d) in a.iter().zip(b).zip(d) {
                s[0] = _mm_crc32_u64(s[0], pair_word(a[0], a[1]));
                s[1] = _mm_crc32_u64(s[1], pair_word(b[0], b[1]));
                s[2] = _mm_crc32_u64(s[2], pair_word(d[0], d[1]));
            }
            c = combine(s.map(|s| s as u32), 8 * third) as u64;
            pairs = rest;
        }
        for p in pairs {
            c = _mm_crc32_u64(c, pair_word(p[0], p[1]));
        }
        tail.iter().fold(c as u32, |c, v| _mm_crc32_u32(c, v.to_bits()))
    }
}

/// A running CRC32C: feed it pieces in file order, in any split, and
/// [`Checksum::finish`] equals [`checksum`] over their concatenation. The
/// writer chains it over each piece it emits; a tier reader chains it over
/// each piece *after* the piece has landed in memory it owns, so the value
/// vouches for the bytes the kernels will read, not for the mapping they
/// were copied from.
#[derive(Debug, Clone, Copy)]
pub struct Checksum(u32);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(!0)
    }
}

impl Checksum {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if hw::available() {
            // SAFETY: `hw::available` verified SSE4.2 on this CPU.
            self.0 = unsafe { hw::bytes(self.0, bytes) };
            return;
        }
        self.0 = table::bytes(self.0, bytes);
    }

    /// Feed the little-endian encoding of `vals` — the bytes those floats
    /// occupy in a weight file — without materializing it.
    pub fn update_f32s(&mut self, vals: &[f32]) {
        #[cfg(target_arch = "x86_64")]
        if hw::available() {
            // SAFETY: `hw::available` verified SSE4.2 on this CPU.
            self.0 = unsafe { hw::f32s(self.0, vals) };
            return;
        }
        self.0 = table::f32s(self.0, vals);
    }

    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// CRC32C of `bytes` — the per-panel integrity check of a weight file.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut c = Checksum::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition: one bit at a time, no tables, no instructions —
    /// the register `c` advanced over `bytes`.
    fn register(mut c: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c
    }

    fn bitwise(bytes: &[u8]) -> u32 {
        !register(!0, bytes)
    }

    /// The register `s` advanced over `n` zero bytes without reading them:
    /// the multiply `join::combine` carries each chain over with.
    fn shift(s: u32, n: usize) -> u32 {
        join::multmodp(join::x8n(n), s)
    }

    fn table_only(bytes: &[u8]) -> u32 {
        !table::bytes(!0, bytes)
    }

    fn seeded(len: usize, mut s: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vector() {
        // CRC32C("123456789"), the check value every catalogue lists.
        assert_eq!(checksum(b"123456789"), 0xe306_9283);
        assert_eq!(table_only(b"123456789"), 0xe306_9283);
        assert_eq!(checksum(b""), 0);
    }

    #[test]
    fn hardware_table_and_definition_agree_on_every_short_shape() {
        // Every length through two 8-byte steps' worth of tails, at every
        // alignment of the first byte. `checksum` is the hardware path
        // where the CPU has one; `table_only` calls the fallback directly,
        // so it is exercised on SSE4.2 machines too.
        let buf = seeded(67 + 8, 1);
        for start in 0..8 {
            for len in 0..=67 {
                let s = &buf[start..start + len];
                let want = bitwise(s);
                assert_eq!(checksum(s), want, "dispatch: start {start} len {len}");
                assert_eq!(table_only(s), want, "table: start {start} len {len}");
            }
        }
    }

    #[test]
    fn engines_agree_on_a_panel_sized_buffer() {
        let buf = seeded(3 << 20, 2);
        let want = bitwise(&buf);
        assert_eq!(checksum(&buf), want);
        assert_eq!(table_only(&buf), want);
    }

    #[test]
    fn incremental_over_arbitrary_splits_equals_one_shot() {
        let buf = seeded(1000, 3);
        let want = checksum(&buf);
        let mut cuts = seeded(40, 4).into_iter().map(|b| b as usize % 61);
        let mut c = Checksum::new();
        let mut at = 0;
        while at < buf.len() {
            let take = cuts.next().unwrap_or(17).min(buf.len() - at);
            c.update(&buf[at..at + take]);
            at += take;
        }
        assert_eq!(c.finish(), want);
    }

    #[test]
    fn floats_hash_as_their_little_endian_bytes() {
        // Odd and even counts (the pair loop's tail), both engines, and a
        // float run chained after a byte run that leaves it unaligned.
        for n in [0usize, 1, 2, 3, 8, 31, 1024] {
            let vals: Vec<f32> =
                seeded(4 * n, 5).chunks_exact(4).map(|b| f32::from_le_bytes(b.try_into().unwrap())).collect();
            let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            let mut c = Checksum::new();
            c.update(b"hdr");
            c.update_f32s(&vals);
            let mut whole = b"hdr".to_vec();
            whole.extend_from_slice(&bytes);
            assert_eq!(c.finish(), bitwise(&whole), "dispatch, {n} floats");
            assert_eq!(!table::f32s(!0, &vals), bitwise(&bytes), "table, {n} floats");
        }
    }

    /// Byte counts around `CHAINS_FROM`: just below, at and above it, and
    /// 1..7 past twice and three times it (thirds that are not whole words,
    /// leftover words, leftover bytes).
    fn lengths_around_the_threshold() -> Vec<usize> {
        let t = join::CHAINS_FROM;
        let mut lens = vec![t - 1, t, t + 1];
        for k in [2, 3] {
            lens.extend((1..=7).map(|d| k * t + d));
        }
        lens
    }

    #[test]
    fn three_chains_equal_the_definition_at_every_offset_around_the_threshold() {
        let buf = seeded(3 * join::CHAINS_FROM + 7 + 8, 6);
        for len in lengths_around_the_threshold() {
            for start in 0..8 {
                let s = &buf[start..start + len];
                let want = bitwise(s);
                assert_eq!(checksum(s), want, "dispatch: start {start} len {len}");
                assert_eq!(table_only(s), want, "table: start {start} len {len}");
            }
        }
    }

    #[test]
    fn splits_inside_and_across_the_thirds_equal_one_shot() {
        // One-shot, this run is cut at thirds of `l` bytes. Fed in pieces,
        // each piece above the threshold is cut at thirds of its own, so
        // the cuts below land inside every third, on and beside each
        // boundary, and make pieces on both sides of the threshold.
        let len = 3 * join::CHAINS_FROM + 5;
        let buf = seeded(len, 7);
        let want = bitwise(&buf);
        let l = len / 24 * 8;
        let cuts: [&[usize]; 8] = [
            &[l / 2],
            &[l],
            &[l - 1, l + 1],
            &[l + l / 2],
            &[2 * l - 3, 2 * l + 3],
            &[l / 3, l + l / 3, 2 * l + l / 3],
            &[3 * l],
            &[5, 3 * l + 1, len - 1],
        ];
        for cut in cuts {
            let mut c = Checksum::new();
            let mut at = 0;
            for &to in cut.iter().chain([&len]) {
                c.update(&buf[at..to]);
                at = to;
            }
            assert_eq!(c.finish(), want, "cuts {cut:?}");
        }
    }

    #[test]
    fn odd_float_runs_after_an_unaligned_byte_run_equal_the_definition() {
        let n0 = join::CHAINS_FROM / 4;
        for n in [n0 - 1, n0 + 1, n0 + 3, 2 * n0 + 1, 3 * n0 + 5, 3 * n0 + 7] {
            let vals: Vec<f32> =
                seeded(4 * n, 8).chunks_exact(4).map(|b| f32::from_le_bytes(b.try_into().unwrap())).collect();
            let mut whole = b"hdr".to_vec();
            whole.extend(vals.iter().flat_map(|v| v.to_le_bytes()));
            let mut c = Checksum::new();
            c.update(b"hdr");
            c.update_f32s(&vals);
            assert_eq!(c.finish(), bitwise(&whole), "dispatch, {n} floats");
            assert_eq!(!table::f32s(table::bytes(!0, b"hdr"), &vals), bitwise(&whole), "table, {n} floats");
        }
    }

    #[test]
    fn shift_is_appending_zero_bytes() {
        let zeros = vec![0u8; 3 * join::CHAINS_FROM + 7];
        let states = [0, !0, 1 << 31, 1, 0x1234_5678, 0xdead_beef];
        let mut ns: Vec<usize> = (0..=40).collect();
        ns.extend([255, 256, 1000, join::CHAINS_FROM, zeros.len()]);
        for s in states {
            for &n in &ns {
                assert_eq!(shift(s, n), register(s, &zeros[..n]), "state {s:#x}, {n} zero bytes");
            }
            // Counts too long to feed: the high table entries compose.
            let long = [(usize::MAX >> 1, 12345), (usize::MAX / 3, usize::MAX / 5), (1 << 20, usize::MAX >> 2)];
            for (a, b) in long {
                let (a_then_b, both) = (shift(shift(s, a), b), shift(s, a + b));
                assert_eq!(a_then_b, both, "state {s:#x}, {a} + {b}");
            }
        }
    }
}
