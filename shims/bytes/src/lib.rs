//! Offline stand-in for `bytes`: a reference-counted immutable byte buffer
//! ([`Bytes`]) and the [`Buf`] trait's `advance`, with which the wire's
//! frame reader drops a length prefix.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, sliceable, immutable byte buffer.
///
/// Clones and slices share one allocation; only construction copies.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a buffer from a static byte slice (copies; the shim does not
    /// special-case static storage).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::copy_from_slice(bytes)
    }

    /// Creates a buffer by copying a slice.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        let data: Arc<[u8]> = Arc::from(bytes);
        Bytes { start: 0, end: data.len(), data }
    }

    /// The buffer length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-slice sharing this buffer's allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of bounds");
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }

    /// Splits off and returns the first `at` bytes, advancing `self` past
    /// them. Both halves share the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to({at}) out of bounds");
        let head = Bytes { data: Arc::clone(&self.data), start: self.start, end: self.start + at };
        self.start += at;
        head
    }

    /// Copies the buffer into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = Arc::from(v.into_boxed_slice());
        Bytes { start: 0, end: data.len(), data }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Self::copy_from_slice(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Self::copy_from_slice(s.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// Read access to a byte buffer: the methods a `Buf` implementation must
/// provide.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Consumes `n` bytes.
    fn advance(&mut self, n: usize);
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance({n}) out of bounds");
        self.start += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_consumes_from_the_front() {
        let mut b = Bytes::from(vec![1, 2, 3]);
        b.advance(2);
        assert_eq!((b.remaining(), b.chunk()), (1, &[3][..]));
    }

    #[test]
    fn slice_and_split_share_storage() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let tail = b.slice(2..);
        assert_eq!(tail.as_ref(), &[3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head.as_ref(), &[1, 2]);
        assert_eq!(b.as_ref(), &[3, 4, 5]);
        assert_eq!(b, tail);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn split_past_end_panics() {
        Bytes::from(vec![1]).split_to(2);
    }

    #[test]
    fn equality_and_debug() {
        let b = Bytes::from_static(b"ab\n");
        assert_eq!(b, b"ab\n"[..]);
        assert_eq!(format!("{b:?}"), "b\"ab\\n\"");
    }
}
