//! [`Payload`]: Arc-backed shared bytes with copy-on-write.
//!
//! A multicast to N peers used to deep-clone the payload N times (once
//! per outbound envelope) plus once more into the retransmit buffer.
//! With `Payload` those clones are refcount bumps on one shared
//! allocation; the bytes are copied only when someone actually writes
//! through [`Payload::to_mut`] while the buffer is shared. The count and
//! the bytes share that one allocation (an `Arc<[u8]>`), so a payload
//! decoded off the wire costs one allocation, not an `Arc` plus a `Vec`.

use std::fmt;
use std::sync::Arc;

/// Cheaply-cloneable immutable-by-default byte buffer.
///
/// Equality, ordering and hashing are by *content*, so a `Payload` can
/// key maps and be compared across independently-encoded copies;
/// [`Payload::ptr_eq`] separately answers whether two handles share one
/// allocation (what the zero-copy tests and the fan-out bench assert).
///
/// ```
/// use odp_fabric::Payload;
///
/// let p = Payload::from_slice(b"tile bytes");
/// let q = p.clone(); // refcount bump, no copy
/// assert!(p.ptr_eq(&q));
///
/// let mut r = q.clone();
/// r.to_mut()[0] = b'T'; // copy-on-write: p and q are untouched
/// assert!(!p.ptr_eq(&r));
/// assert_eq!(p.as_slice(), b"tile bytes");
/// assert_eq!(r.as_slice(), b"Tile bytes");
/// ```
#[derive(Clone, Default)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// The empty payload.
    pub fn new() -> Self {
        Payload::default()
    }

    /// Moves an owned buffer's bytes into a fresh payload (one copy:
    /// the count and the bytes live in one allocation).
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Payload(Arc::from(bytes))
    }

    /// Copies a slice into a fresh payload.
    pub fn from_slice(bytes: &[u8]) -> Self {
        Payload(Arc::from(bytes))
    }

    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Byte length.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Mutable access with copy-on-write: if this handle shares its
    /// allocation with others, the bytes are copied first and only this
    /// handle sees the copy. The length is fixed: build a new payload
    /// to grow or shrink one.
    pub fn to_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.0)
    }

    /// Whether two handles share one allocation (clone lineage), as
    /// opposed to merely holding equal bytes.
    pub fn ptr_eq(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// How many handles share this allocation (diagnostics/tests).
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }

    /// Copies the bytes out into an owned buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.0.to_vec()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload::from_vec(bytes)
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload::from_slice(bytes)
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        // Same allocation short-circuits the byte compare.
        self.ptr_eq(other) || self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialOrd for Payload {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Payload {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // First bytes only: payloads can be megabytes.
        let preview: Vec<u8> = self.0.iter().copied().take(8).collect();
        write!(
            f,
            "Payload({} bytes, {:02x?}{})",
            self.len(),
            preview,
            if self.len() > 8 { "…" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_and_cow_copies() {
        let a = Payload::from_slice(b"hello");
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        assert_eq!(a.handle_count(), 2);

        let mut c = b.clone();
        c.to_mut()[0] = b'H';
        assert!(!a.ptr_eq(&c), "write detached the shared buffer");
        assert_eq!(a.as_slice(), b"hello");
        assert_eq!(c.as_slice(), b"Hello");
    }

    #[test]
    fn unshared_to_mut_does_not_copy() {
        let mut a = Payload::from_slice(b"xx");
        let before = a.as_slice().as_ptr();
        a.to_mut()[1] = b'y';
        // Sole owner: the write lands in place, in the same allocation.
        assert_eq!(a.as_slice(), b"xy");
        assert_eq!(a.as_slice().as_ptr(), before);
        assert_eq!(a.handle_count(), 1);
    }

    #[test]
    fn content_equality_ignores_lineage() {
        let a = Payload::from_slice(b"same");
        let b = Payload::from_slice(b"same");
        assert_eq!(a, b);
        assert!(!a.ptr_eq(&b));
        assert!(Payload::from_slice(b"a") < Payload::from_slice(b"b"));
    }

    #[test]
    fn into_vec_copies_the_bytes_out() {
        let a = Payload::from_vec(vec![1, 2, 3]);
        assert_eq!(a.into_vec(), vec![1, 2, 3]);
        let b = Payload::from_vec(vec![4]);
        let c = b.clone();
        assert_eq!(b.into_vec(), vec![4]);
        assert_eq!(c.as_slice(), &[4]);
    }
}
