//! A small, explicit wire format for replica log records.
//!
//! Records flowing from primary to backup are encoded with a hand-rolled
//! length-delimited format. Two codecs share this module's primitives,
//! selected by [`WireCodec`]:
//!
//! * **Fixed** — fixed-width little-endian integers plus length-prefixed
//!   byte strings. Deliberately simple so that the per-record byte counts
//!   reported by the benchmark harness are easy to audit against the
//!   paper's "lock acquisition messages are very small (36 bytes)"
//!   observation.
//! * **Compact** — LEB128 varints ([`WireWriter::put_uvarint`]) plus
//!   zig-zag signed varints ([`WireWriter::put_ivarint`]), used by the
//!   replication layer's delta/batch codec to shrink bytes on the wire.
//!
//! Both readers fail with [`WireError`] — never panic — on truncated or
//! malformed input.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::error::Error;
use std::fmt;

/// Which record encoding a replica pair uses on the wire.
///
/// The codec only changes the *representation* of the log; record contents
/// and ordering are identical under both, so a backup produces the same
/// state either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// Fixed-width fields, one channel message per record (paper-faithful,
    /// auditable byte counts).
    #[default]
    Fixed,
    /// Delta/varint-compressed record bodies, batched into one channel
    /// message per flush.
    Compact,
}

impl fmt::Display for WireCodec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireCodec::Fixed => write!(f, "fixed"),
            WireCodec::Compact => write!(f, "compact"),
        }
    }
}

/// CRC32C (Castagnoli) slice-by-8 lookup tables, built at compile time.
///
/// `CRC32C_TABLES[0]` is the classic bytewise table. `CRC32C_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so one step can fold
/// eight input bytes with eight independent lookups.
const CRC32C_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut b = 0;
        while b < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0x82f6_3b78 } else { crc >> 1 };
            b += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32C (Castagnoli polynomial, reflected) over `data` — the checksum
/// shared by sealed log frames and VM state snapshots.
///
/// Slice-by-8 in safe Rust: eight bytes per step through eight
/// compile-time tables, then a bytewise tail.
pub fn crc32c(data: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let (words, tail) = data.as_chunks::<8>();
    let mut crc = !0u32;
    for word in words {
        let v = u64::from_le_bytes(*word) ^ crc as u64;
        crc = t[7][(v & 0xff) as usize]
            ^ t[6][((v >> 8) & 0xff) as usize]
            ^ t[5][((v >> 16) & 0xff) as usize]
            ^ t[4][((v >> 24) & 0xff) as usize]
            ^ t[3][((v >> 32) & 0xff) as usize]
            ^ t[2][((v >> 40) & 0xff) as usize]
            ^ t[1][((v >> 48) & 0xff) as usize]
            ^ t[0][(v >> 56) as usize];
    }
    for &byte in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xff) as usize];
    }
    !crc
}

/// Maps a signed value onto an unsigned one so that small magnitudes of
/// either sign get short varints (protobuf's zig-zag transform).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Error returned when decoding malformed wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    what: &'static str,
}

impl WireError {
    /// Creates an error describing the field that failed to decode.
    pub fn new(what: &'static str) -> Self {
        WireError { what }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "truncated or malformed wire data: {}", self.what)
    }
}

impl Error for WireError {}

/// Append-only encoder for one record.
///
/// ```
/// use ftjvm_netsim::{WireReader, WireWriter};
/// let mut w = WireWriter::new();
/// w.put_u8(7);
/// w.put_u64(42);
/// w.put_bytes(b"abc");
/// let frame = w.finish();
/// let mut r = WireReader::new(frame);
/// assert_eq!(r.get_u8().unwrap(), 7);
/// assert_eq!(r.get_u64().unwrap(), 42);
/// assert_eq!(&r.get_bytes().unwrap()[..], b"abc");
/// assert!(r.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    #[inline]
    pub fn new() -> Self {
        WireWriter { buf: BytesMut::new() }
    }

    /// Creates an empty writer with room for `cap` bytes, avoiding
    /// reallocation for records whose encoded size is known or bounded.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter { buf: BytesMut::with_capacity(cap) }
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends a little-endian `i64`.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64_le(v);
    }

    /// Appends a little-endian `f64` bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_u64_le(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.put_u32_le(v.len() as u32);
        self.buf.put_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a length-prefixed sequence of `u32`s.
    #[inline]
    pub fn put_u32_seq(&mut self, v: &[u32]) {
        self.buf.put_u32_le(v.len() as u32);
        for x in v {
            self.buf.put_u32_le(*x);
        }
    }

    /// Appends an unsigned LEB128 varint: 7 value bits per byte, high bit
    /// set on every byte but the last. 1 byte for values < 128, at most 10.
    #[inline]
    pub fn put_uvarint(&mut self, mut v: u64) {
        // Built on the stack and appended once: one length check and copy
        // per varint instead of one per byte.
        let mut enc = [0u8; 10];
        let mut n = 0;
        while v >= 0x80 {
            enc[n] = (v as u8 & 0x7F) | 0x80;
            v >>= 7;
            n += 1;
        }
        enc[n] = v as u8;
        self.buf.put_slice(&enc[..=n]);
    }

    /// Appends a signed value as a zig-zag LEB128 varint, so small deltas
    /// of either sign stay short.
    #[inline]
    pub fn put_ivarint(&mut self, v: i64) {
        self.put_uvarint(zigzag(v));
    }

    /// Appends bytes verbatim, with no length prefix — for framing layers
    /// that concatenate already-encoded bodies.
    #[inline]
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Appends a varint-length-prefixed byte string (compact counterpart
    /// of [`WireWriter::put_bytes`]).
    #[inline]
    pub fn put_vbytes(&mut self, v: &[u8]) {
        self.put_uvarint(v.len() as u64);
        self.buf.put_slice(v);
    }

    /// Appends a varint-length-prefixed UTF-8 string.
    #[inline]
    pub fn put_vstr(&mut self, v: &str) {
        self.put_vbytes(v.as_bytes());
    }

    /// Overwrites the four bytes at `at` with little-endian `v`: fills in
    /// a placeholder whose value depends on what was written after it.
    ///
    /// # Panics
    /// Panics if fewer than four bytes were written at `at`.
    #[inline]
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// The bytes written so far.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finalizes the record into an immutable frame.
    #[inline]
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Decoder over one record frame.
#[derive(Debug)]
pub struct WireReader {
    buf: Bytes,
}

impl WireReader {
    /// Wraps a frame for decoding.
    #[inline]
    pub fn new(buf: Bytes) -> Self {
        WireReader { buf }
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// Returns [`WireError`] if the frame is exhausted.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        if self.buf.remaining() < 1 {
            return Err(WireError::new("u8"));
        }
        Ok(self.buf.get_u8())
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// Returns [`WireError`] if fewer than 4 bytes remain.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        if self.buf.remaining() < 4 {
            return Err(WireError::new("u32"));
        }
        Ok(self.buf.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// Returns [`WireError`] if fewer than 8 bytes remain.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        if self.buf.remaining() < 8 {
            return Err(WireError::new("u64"));
        }
        Ok(self.buf.get_u64_le())
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    /// Returns [`WireError`] if fewer than 8 bytes remain.
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        if self.buf.remaining() < 8 {
            return Err(WireError::new("i64"));
        }
        Ok(self.buf.get_i64_le())
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    /// Returns [`WireError`] if fewer than 8 bytes remain.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    /// Returns [`WireError`] if the prefix or payload is truncated.
    #[inline]
    pub fn get_bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.get_u32()? as usize;
        if self.buf.remaining() < len {
            return Err(WireError::new("bytes payload"));
        }
        Ok(self.buf.split_to(len))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// Returns [`WireError`] if truncated or not valid UTF-8.
    #[inline]
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::new("utf-8 string"))
    }

    /// Reads a length-prefixed sequence of `u32`s.
    ///
    /// # Errors
    /// Returns [`WireError`] if truncated.
    #[inline]
    pub fn get_u32_seq(&mut self) -> Result<Vec<u32>, WireError> {
        let len = self.get_u32()? as usize;
        if self.buf.remaining() < len.saturating_mul(4) {
            return Err(WireError::new("u32 sequence"));
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(self.buf.get_u32_le());
        }
        Ok(v)
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    /// Returns [`WireError`] if the frame ends mid-varint or the encoding
    /// exceeds 10 bytes / overflows 64 bits.
    #[inline]
    pub fn get_uvarint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            if self.buf.remaining() < 1 {
                return Err(WireError::new("uvarint"));
            }
            let b = self.buf.get_u8();
            let low = (b & 0x7F) as u64;
            // The 10th byte (shift 63) may only contribute the final bit.
            if shift >= 64 || (shift == 63 && low > 1) {
                return Err(WireError::new("uvarint overflow"));
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a zig-zag LEB128 varint.
    ///
    /// # Errors
    /// Returns [`WireError`] on truncation or overlong encoding.
    #[inline]
    pub fn get_ivarint(&mut self) -> Result<i64, WireError> {
        Ok(unzigzag(self.get_uvarint()?))
    }

    /// Reads a varint-length-prefixed byte string.
    ///
    /// # Errors
    /// Returns [`WireError`] if the prefix or payload is truncated.
    #[inline]
    pub fn get_vbytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.get_uvarint()? as usize;
        if self.buf.remaining() < len {
            return Err(WireError::new("vbytes payload"));
        }
        Ok(self.buf.split_to(len))
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// Returns [`WireError`] if truncated or not valid UTF-8.
    #[inline]
    pub fn get_vstr(&mut self) -> Result<String, WireError> {
        let b = self.get_vbytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::new("utf-8 string"))
    }

    /// True when every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        !self.buf.has_remaining()
    }

    /// Bytes left to decode.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference CRC32C: one table lookup per byte.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ CRC32C_TABLES[0][((crc ^ byte as u32) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn crc32c_check_value() {
        // RFC 3720 (iSCSI), appendix B.4: the CRC32C check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_bytewise(b"123456789"), 0xE306_9283);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Slice-by-8 equals the bytewise reference on every length and
        /// start offset: unaligned heads and all eight tail lengths.
        #[test]
        fn crc32c_slice_by_8_matches_bytewise(
            buf in prop::collection::vec(any::<u8>(), 0..=4096),
            start in 0usize..8,
        ) {
            let data = &buf[start.min(buf.len())..];
            prop_assert_eq!(crc32c(data), crc32c_bytewise(data));
        }
    }

    #[test]
    fn roundtrip_all_types() {
        let mut w = WireWriter::new();
        w.put_u8(255);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-7);
        w.put_f64(3.5);
        w.put_str("hello");
        w.put_u32_seq(&[1, 2, 3]);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_u8().unwrap(), 255);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -7);
        assert_eq!(r.get_f64().unwrap(), 3.5);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.get_u32_seq().unwrap(), vec![1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn patch_fills_a_placeholder() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u32(0);
        w.put_uvarint(300);
        w.patch_u32(1, 0xDEAD_BEEF);
        assert_eq!(w.as_bytes(), &[7, 0xEF, 0xBE, 0xAD, 0xDE, 0xAC, 0x02]);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_uvarint().unwrap(), 300);
    }

    #[test]
    fn truncated_reads_error() {
        let mut w = WireWriter::new();
        w.put_u32(9);
        let mut r = WireReader::new(w.finish());
        assert!(r.get_u64().is_err());
        let _ = r.get_u32().unwrap();
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn bogus_length_prefix_errors() {
        let mut w = WireWriter::new();
        w.put_u32(1_000_000); // claims a megabyte follows
        let mut r = WireReader::new(w.finish());
        assert!(r.get_bytes().is_err());
        let mut w = WireWriter::new();
        w.put_u32(0xFFFF_FFFF);
        let mut r = WireReader::new(w.finish());
        assert!(r.get_u32_seq().is_err());
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut w = WireWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let mut r = WireReader::new(w.finish());
        assert!(r.get_str().is_err());
    }

    #[test]
    fn uvarint_roundtrip_and_sizes() {
        let cases: &[(u64, usize)] = &[
            (0, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u32::MAX as u64, 5),
            (u64::MAX, 10),
        ];
        for &(v, size) in cases {
            let mut w = WireWriter::new();
            w.put_uvarint(v);
            assert_eq!(w.len(), size, "encoded size of {v}");
            let mut r = WireReader::new(w.finish());
            assert_eq!(r.get_uvarint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn ivarint_zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN] {
            let mut w = WireWriter::new();
            w.put_ivarint(v);
            let mut r = WireReader::new(w.finish());
            assert_eq!(r.get_ivarint().unwrap(), v);
        }
        // Small magnitudes of either sign stay one byte.
        for v in [-64i64, -1, 0, 1, 63] {
            let mut w = WireWriter::new();
            w.put_ivarint(v);
            assert_eq!(w.len(), 1, "zig-zag size of {v}");
        }
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
    }

    #[test]
    fn uvarint_truncation_and_overflow_error() {
        // Continuation bit set on the final byte: truncated.
        let mut r = WireReader::new(Bytes::from(vec![0x80]));
        assert!(r.get_uvarint().is_err());
        // 11 continuation bytes: longer than any 64-bit value.
        let mut r = WireReader::new(Bytes::from(vec![0x80; 11]));
        assert!(r.get_uvarint().is_err());
        // 10th byte carrying more than the final bit: overflows u64.
        let mut overflowing = vec![0xFF; 9];
        overflowing.push(0x02);
        let mut r = WireReader::new(Bytes::from(overflowing));
        assert!(r.get_uvarint().is_err());
        // But u64::MAX itself (10th byte == 0x01) is fine.
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        let mut r = WireReader::new(Bytes::from(max));
        assert_eq!(r.get_uvarint().unwrap(), u64::MAX);
    }

    #[test]
    fn vbytes_roundtrip_and_bogus_length() {
        let mut w = WireWriter::with_capacity(16);
        w.put_vbytes(b"abc");
        w.put_vstr("déjà");
        let mut r = WireReader::new(w.finish());
        assert_eq!(&r.get_vbytes().unwrap()[..], b"abc");
        assert_eq!(r.get_vstr().unwrap(), "déjà");
        assert!(r.is_empty());
        let mut w = WireWriter::new();
        w.put_uvarint(1 << 40); // claims a terabyte follows
        let mut r = WireReader::new(w.finish());
        assert!(r.get_vbytes().is_err());
    }

    #[test]
    fn codec_is_fixed_by_default_and_displays() {
        assert_eq!(WireCodec::default(), WireCodec::Fixed);
        assert_eq!(WireCodec::Fixed.to_string(), "fixed");
        assert_eq!(WireCodec::Compact.to_string(), "compact");
    }
}
