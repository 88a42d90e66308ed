//! Vendored minimal stand-in for the `bytes` crate so the workspace builds
//! without network access to a registry. Implements exactly the subset the
//! workspace uses: cheaply-cloneable immutable `Bytes`, growable `BytesMut`,
//! and the little-endian `Buf`/`BufMut` accessors.
//!
//! Semantics match the real crate for this subset (panics on out-of-range
//! reads/slices, `split_to` advances the cursor). One cost differs:
//! `freeze` and `Bytes::from(Vec<u8>)` move the bytes into a fresh
//! `Arc<[u8]>`, which allocates and copies once, where the real crate
//! reuses the vector's allocation.

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// Immutable, reference-counted byte buffer (view into a shared allocation).
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer.
    #[inline]
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Buffer over a static slice (copied; the real crate borrows, but the
    /// observable behavior is identical for this workspace).
    #[inline]
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Sub-view sharing the same allocation. Panics if out of range.
    #[inline]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice out of range");
        Bytes { data: self.data.clone(), start: self.start + begin, end: self.start + end }
    }

    /// Splits off and returns the first `at` bytes, advancing `self`.
    #[inline]
    pub fn split_to(&mut self, at: usize) -> Self {
        assert!(at <= self.len(), "split_to out of range");
        let head = Bytes { data: self.data.clone(), start: self.start, end: self.start + at };
        self.start += at;
        head
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = v.into();
        let end = data.len();
        Bytes { data, start: 0, end }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::from(v.as_bytes().to_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().to_vec().into_iter()
    }
}

/// Growable byte buffer; `freeze` converts to `Bytes` by copying the
/// contents once into a new shared allocation.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    #[inline]
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { data: Vec::with_capacity(cap) }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Read cursor over a byte source (little-endian accessors; the subset the
/// workspace uses).
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    #[inline]
    fn get_u8(&mut self) -> u8 {
        assert!(self.remaining() >= 1, "buffer underflow");
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        assert!(self.remaining() >= 4, "buffer underflow");
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(b)
    }

    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        assert!(self.remaining() >= 8, "buffer underflow");
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(b)
    }

    #[inline]
    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of range");
        self.start += cnt;
    }
}

/// Write cursor appending to a byte sink (little-endian writers; the subset
/// the workspace uses).
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_views() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(u64::MAX);
        w.put_i64_le(-9);
        let mut b = w.freeze();
        assert_eq!(b.len(), 1 + 4 + 8 + 8);
        let head = b.split_to(1);
        assert_eq!(&head[..], &[7]);
        assert_eq!(b.clone().get_u32_le(), 0xDEAD_BEEF);
        let tail = b.slice(4..);
        assert_eq!(tail.len(), 16);
        let mut t = tail;
        assert_eq!(t.get_u64_le(), u64::MAX);
        assert_eq!(t.get_i64_le(), -9);
        assert!(t.is_empty());
    }
}
