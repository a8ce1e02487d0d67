//! The weight file's integrity check: CRC32C (Castagnoli), one function
//! with two engines behind it.
//!
//! The polynomial is the one x86-64 computes in hardware: the SSE4.2
//! `crc32` instruction retires eight bytes per step, so verifying a panel
//! costs about what copying it does — a tier fetch verifies every panel it
//! hands out, and a table loop there costs several times the copy. CPUs
//! without SSE4.2, and every other architecture, run a slice-by-8 table of
//! the same polynomial, so a file verifies identically everywhere. The
//! engine is detected once at runtime, the way `dsi_kernels` detects AVX2;
//! nothing selects it.

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

/// The SSE4.2 engine: the `crc32` instruction, eight bytes per step.
#[cfg(target_arch = "x86_64")]
mod hw {
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
        let mut c = crc as u64;
        let mut chunks = bytes.chunks_exact(8);
        for ch in &mut chunks {
            c = _mm_crc32_u64(c, u64::from_le_bytes(ch.try_into().expect("8-byte chunk")));
        }
        chunks.remainder().iter().fold(c as u32, |c, &b| _mm_crc32_u8(c, b))
    }

    /// # Safety
    /// The CPU must support SSE4.2 ([`available`] returned `true`).
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn f32s(crc: u32, vals: &[f32]) -> u32 {
        let mut c = crc as u64;
        let mut pairs = vals.chunks_exact(2);
        for p in &mut pairs {
            c = _mm_crc32_u64(c, pair_word(p[0], p[1]));
        }
        pairs.remainder().iter().fold(c as u32, |c, v| _mm_crc32_u32(c, v.to_bits()))
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

    /// The definition: one bit at a time, no tables, no instructions.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
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
}
