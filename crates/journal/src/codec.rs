//! Byte-level encoding primitives shared by the WAL frame format and the
//! typed record payloads: a little-endian writer/reader pair and the IEEE
//! CRC-32 used to checksum every frame.
//!
//! The CRC runs one of two kernels, chosen per call from a run-time CPU
//! check, with identical results. On x86_64 CPUs with `pclmulqdq` and
//! `sse4.1`, inputs of 64 bytes or more are folded 64 bytes at a time by
//! carry-less multiplication (four 128-bit lanes, then a Barrett
//! reduction; the reflected IEEE constants of Linux's `crc32-pclmul` and
//! zlib). Everything else — shorter inputs, the under-16-byte remainder
//! after folding, and CPUs without those features — runs slicing-by-8
//! tables, which the tests also use as the reference.

use std::sync::OnceLock;

/// Errors raised while decoding journal bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A tag byte did not name a known variant.
    BadTag(u8),
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated payload"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A sink for little-endian encoded values: a [`ByteWriter`] in memory,
/// or a checkpoint streaming its delta into a new log. Only `put_raw` is
/// required; every other value is written through it.
pub trait Put {
    /// Raw bytes, without a length prefix.
    fn put_raw(&mut self, v: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_raw(&[v]);
    }

    fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    fn put_i64(&mut self, v: i64) {
        self.put_raw(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Length-prefixed (u32) raw bytes.
    fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.put_raw(v);
    }

    /// Length-prefixed (u32) UTF-8 string.
    fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing buffer, appending after its current contents.
    /// The WAL's pipelined writer uses this to frame a whole batch into
    /// one reusable scratch allocation.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Overwrites `n` previously written bytes at `offset` (used to
    /// backpatch frame `len`/`crc` fields once the payload is encoded).
    pub fn patch(&mut self, offset: usize, bytes: &[u8]) {
        self.buf[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

impl Put for ByteWriter {
    fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
}

/// Cursor-based little-endian reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Length-prefixed (u32) raw bytes, borrowed from the buffer.
    pub fn get_slice(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    /// Length-prefixed (u32) UTF-8 string, borrowed from the buffer.
    pub fn get_str_ref(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.get_slice()?).map_err(|_| CodecError::BadUtf8)
    }

    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        Ok(self.get_slice()?.to_vec())
    }

    pub fn get_str(&mut self) -> Result<String, CodecError> {
        Ok(self.get_str_ref()?.to_owned())
    }
}

/// Eight CRC-32 lookup tables for the slicing-by-8 kernel. Table 0 is the
/// classic byte-at-a-time table; table `k` advances a byte's contribution
/// by `k` further positions, letting the hot loop fold 8 input bytes per
/// iteration instead of 1 — the difference between the checksum dominating
/// a 4KB journaled write and it costing well under the write itself.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// The CRC register after `data`, from register `crc` (pre- and
/// post-inversion are the callers'), on whichever kernel this CPU runs.
/// Fed piece by piece from `!0` and inverted at the end, it gives
/// [`crc32`] of the pieces' concatenation.
pub(crate) fn crc_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN {
        if let Some(crc) = clmul::crc_update(crc, data) {
            return crc;
        }
    }
    crc_update_tables(crc, data)
}

/// [`crc_update`] on the slicing-by-8 tables: the portable kernel and the
/// reference the folding kernel is tested against.
fn crc_update_tables(mut crc: u32, mut data: &[u8]) -> u32 {
    let t = crc_tables();
    while data.len() >= 8 {
        let lo = u32::from_le_bytes(data[0..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(data[4..8].try_into().unwrap());
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
        data = &data[8..];
    }
    for &b in data {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The PCLMULQDQ folding kernel (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with
/// the bit-reflected constants for the IEEE polynomial.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input the kernel folds: one 64-byte block, four lanes.
    pub(super) const MIN_LEN: usize = 64;

    // Bit-reflected and shifted left one bit, as the paper derives them:
    // K1, K2 = x^(4*128 ± 32) mod P fold a lane 512 bits; K3, K4 =
    // x^(128 ± 32) mod P fold it 128 bits; K5 = x^64 mod P folds 64 bits
    // into 32; POLY is P itself and MU the Barrett constant x^64 / P.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// [`super::crc_update`] on the folding kernel, or `None` when this
    /// CPU lacks `pclmulqdq` or `sse4.1`.
    pub(super) fn crc_update(crc: u32, data: &[u8]) -> Option<u32> {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return None;
        }
        // SAFETY: the run-time check above found both features `fold`
        // is compiled for, so this CPU can execute it.
        Some(unsafe { fold(crc, data) })
    }

    /// Folds `data` in 64- then 16-byte blocks and hands the remainder
    /// (and any input under 64 bytes) to the tables.
    ///
    /// # Safety
    ///
    /// Calling this from code not compiled for `pclmulqdq` and `sse4.1`
    /// is only sound once the running CPU is known to support both.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, data: &[u8]) -> u32 {
        let (blocks, _) = data.as_chunks::<64>();
        let Some((first, blocks)) = blocks.split_first() else {
            return super::crc_update_tables(crc, data);
        };
        let [mut x1, mut x2, mut x3, mut x4] = load4(first);
        x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in blocks {
            let [y1, y2, y3, y4] = load4(block);
            x1 = fold_into(x1, k1k2, y1);
            x2 = fold_into(x2, k1k2, y2);
            x3 = fold_into(x3, k1k2, y3);
            x4 = fold_into(x4, k1k2, y4);
        }
        // Four lanes into one, then the 16-byte blocks after the last 64.
        let k3k4 = _mm_set_epi64x(K4, K3);
        x1 = fold_into(x1, k3k4, x2);
        x1 = fold_into(x1, k3k4, x3);
        x1 = fold_into(x1, k3k4, x4);
        let rest = &data[64 * (blocks.len() + 1)..];
        let (lanes, tail) = rest.as_chunks::<16>();
        for lane in lanes {
            x1 = fold_into(x1, k3k4, load(lane));
        }
        // 128 bits to 64, 64 to 32, then the Barrett reduction.
        let mask32 = _mm_setr_epi32(-1, 0, -1, 0);
        x1 = _mm_xor_si128(_mm_srli_si128::<8>(x1), _mm_clmulepi64_si128::<0x10>(x1, k3k4));
        let k5 = _mm_set_epi64x(0, K5);
        x1 = _mm_xor_si128(
            _mm_srli_si128::<4>(x1),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x1, mask32), k5),
        );
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let mut q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x1, mask32), poly_mu);
        q = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, mask32), poly_mu);
        let folded = _mm_extract_epi32::<1>(_mm_xor_si128(x1, q)) as u32;
        super::crc_update_tables(folded, tail)
    }

    /// Advances lane `x` by the distance `k` encodes and adds `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    #[inline]
    fn load4(block: &[u8; 64]) -> [__m128i; 4] {
        let (lanes, _) = block.as_chunks::<16>();
        [load(&lanes[0]), load(&lanes[1]), load(&lanes[2]), load(&lanes[3])]
    }

    #[inline]
    fn load(lane: &[u8; 16]) -> __m128i {
        // SAFETY: `lane` is 16 readable bytes, exactly what the load
        // reads; `loadu` needs no alignment, and SSE2 is part of x86_64.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }
}

/// IEEE CRC-32 (the polynomial used by zlib/ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_parts(&[data])
}

/// CRC-32 over the concatenation of `parts` without materialising it —
/// used by the WAL to checksum header fields together with the payload.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut crc = !0u32;
    for part in parts {
        crc = crc_update(crc, part);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_scalars_and_strings() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f64(3.5);
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 3.5);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_error() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.get_u32(), Err(CodecError::Truncated));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Bit-at-a-time CRC-32: the definition both kernels must match.
    fn crc_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        !crc
    }

    /// `len` pseudo-random bytes drawn from `seed` (splitmix64).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn crc32_slicing_matches_bitwise_reference() {
        // Every length across the 64-byte switch-over and two whole fold
        // blocks plus remainders, at every start offset of a 16-byte load.
        let buf = noise(1, 300 + 16);
        for offset in 0..16 {
            for len in 0..=300 {
                let data = &buf[offset..offset + len];
                let want = crc_bitwise(data);
                assert_eq!(crc32(data), want, "dispatched, len {len} offset {offset}");
                assert_eq!(!crc_update_tables(!0, data), want, "tables, len {len}");
            }
        }
    }

    #[test]
    fn crc32_parts_agree_at_every_split_of_a_fold() {
        // Splits inside the first and second 64-byte fold blocks move the
        // folding kernel's start into the middle of a lane.
        let data = noise(2, 200);
        let want = crc_bitwise(&data);
        for a in 0..=data.len() {
            assert_eq!(crc32_parts(&[&data[..a], &data[a..]]), want, "split at {a}");
            let b = (a + 67).min(data.len());
            assert_eq!(crc32_parts(&[&data[..a], &data[a..b], &data[b..]]), want);
        }
    }

    /// The folding kernel itself, called whenever this host has it, so a
    /// dispatch bug cannot hide behind the table fallback.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_folding_kernel_matches_the_tables_when_the_host_has_it() {
        let has = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        let buf = noise(3, 5000 + 16);
        for len in [0, 1, 15, 63, 64, 65, 79, 80, 127, 128, 129, 191, 192, 1000, 5000] {
            for offset in 0..16 {
                let data = &buf[offset..offset + len];
                for start in [!0u32, 0, 0x1234_5678] {
                    let got = clmul::crc_update(start, data);
                    assert_eq!(got.is_some(), has, "the kernel runs iff the CPU has it");
                    if let Some(crc) = got {
                        assert_eq!(crc, crc_update_tables(start, data), "len {len} off {offset}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_crc32_kernels_agree(
            len in prop_oneof![0usize..512, 0usize..70_001],
            offset in 0usize..16,
            seed in any::<u64>(),
            cuts in (any::<usize>(), any::<usize>()),
        ) {
            let buf = noise(seed, offset + len);
            let data = &buf[offset..];
            let want = crc_bitwise(data);
            prop_assert_eq!(crc32(data), want);
            prop_assert_eq!(!crc_update_tables(!0, data), want);
            #[cfg(target_arch = "x86_64")]
            if let Some(crc) = clmul::crc_update(!0, data) {
                prop_assert_eq!(!crc, want);
            }
            let n = data.len();
            let (a, b) = (cuts.0 % (n + 1), cuts.1 % (n + 1));
            let (a, b) = (a.min(b), a.max(b));
            prop_assert_eq!(crc32_parts(&[&data[..a], &data[a..b], &data[b..]]), want);
        }
    }

    #[test]
    fn crc32_parts_matches_concatenation() {
        assert_eq!(crc32_parts(&[b"1234", b"56789"]), crc32(b"123456789"));
        assert_eq!(crc32_parts(&[b"", b"abc", b""]), crc32(b"abc"));
        assert_eq!(crc32_parts(&[]), 0);
    }
}
