//! Byte-level encoding primitives shared by the WAL frame format and the
//! typed record payloads: a little-endian writer/reader pair and the IEEE
//! CRC-32 used to checksum every frame.

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
    /// A path field referenced a dictionary id with no `PathDef`.
    UnknownPathId(u32),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated payload"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            CodecError::UnknownPathId(id) => write!(f, "undefined path dictionary id {id}"),
        }
    }
}

impl std::error::Error for CodecError {}

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

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed (u32) raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed (u32) UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
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

    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.get_u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let raw = self.get_bytes()?;
        String::from_utf8(raw).map_err(|_| CodecError::BadUtf8)
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
        for i in 0..256usize {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            t[0][i] = c;
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

fn crc_update(mut crc: u32, mut data: &[u8]) -> u32 {
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

/// IEEE CRC-32 (the polynomial used by zlib/ethernet), slicing-by-8.
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

    #[test]
    fn crc32_slicing_matches_bitwise_reference() {
        // Data long enough to cover the 8-byte kernel plus an unaligned
        // tail, checked against a bit-at-a-time reference implementation.
        let data: Vec<u8> = (0..1021u32).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
        let mut crc = !0u32;
        for &b in &data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        assert_eq!(crc32(&data), !crc);
    }

    #[test]
    fn crc32_parts_matches_concatenation() {
        assert_eq!(crc32_parts(&[b"1234", b"56789"]), crc32(b"123456789"));
        assert_eq!(crc32_parts(&[b"", b"abc", b""]), crc32(b"abc"));
        assert_eq!(crc32_parts(&[]), 0);
    }
}
