//! Offline shim of `bytes`.
//!
//! [`Bytes`] is an immutable, cheaply cloneable byte buffer. The real crate
//! uses a custom vtable to avoid atomics for static data; this shim gets the
//! same O(1)-clone semantics from a two-variant representation: static
//! borrows stay pointers, owned data lives behind an `Arc<[u8]>`.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. Cloning is O(1).
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Owned(Arc<[u8]>),
}

impl Bytes {
    /// An empty buffer. Does not allocate.
    pub const fn new() -> Self {
        Bytes(Repr::Static(&[]))
    }

    /// Wraps a static slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes(Repr::Static(bytes))
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes(Repr::Owned(Arc::from(data)))
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// True if this is the only handle to the data (as in `bytes` ≥ 1.8:
    /// always false for a static slice).
    pub fn is_unique(&self) -> bool {
        matches!(&self.0, Repr::Owned(data) if Arc::strong_count(data) == 1)
    }

    /// Copies the contents out into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Owned(a) => a,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

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

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print like a byte-string literal, as the real crate does.
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Repr::Owned(Arc::from(v)))
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Bytes(Repr::Owned(Arc::from(v)))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl serde::Serialize for Bytes {
    fn serialize_json(&self) -> serde::Json {
        serde::Json::Array(self.as_slice().iter().map(|b| serde::Json::Uint(*b as u128)).collect())
    }
}

impl serde::Deserialize for Bytes {
    fn deserialize_json(j: &serde::Json) -> Result<Self, serde::JsonError> {
        let v: Vec<u8> = serde::Deserialize::deserialize_json(j)?;
        Ok(Bytes::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = Bytes::from_static(b"abc");
        let b = Bytes::copy_from_slice(b"abc");
        let c = Bytes::from(b"abc".to_vec());
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.len(), 3);
        assert!(Bytes::new().is_empty());
        assert_eq!(&a[..], b"abc");
    }

    #[test]
    fn clone_is_shallow_for_owned() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }

    #[test]
    fn debug_prints_byte_literal() {
        assert_eq!(format!("{:?}", Bytes::from_static(b"a\"\n")), r#"b"a\"\n""#);
    }
}
