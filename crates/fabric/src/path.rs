//! [`ObjectPath`]: a shared, normalised hierarchical name.
//!
//! Artefact names cross the whole stack — decoded off the wire, checked
//! against the access policy once per observer, copied into every
//! awareness delivery and into the workspace history. `ObjectPath` is to
//! those names what [`Payload`](crate::Payload) is to bytes: the text is
//! parsed once, where the name enters (a constructor or a decoder), and
//! every later copy is a refcount bump on that one allocation.
//!
//! Normal form: components joined by single `/`, no leading or trailing
//! slash; the empty path is the root. Because every `ObjectPath` is in
//! normal form, the prefix test [`ObjectPath::covers`] is a byte
//! comparison and equality is string equality.

use std::fmt;
use std::sync::Arc;

/// A hierarchical object path, e.g. `report/sec2/para3/line14`.
///
/// ```
/// use odp_fabric::ObjectPath;
///
/// let p = ObjectPath::new("/report//sec2/");
/// assert_eq!(p, "report/sec2");
/// let q = p.clone(); // refcount bump, no copy
/// assert!(ObjectPath::new("report").covers(&q));
/// assert!(!ObjectPath::new("report/sec").covers(&q));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectPath(Arc<str>);

impl ObjectPath {
    /// Creates a path, trimming redundant slashes.
    pub fn new(path: impl AsRef<str>) -> Self {
        let raw = path.as_ref();
        // Already in normal form, the usual case: no slash first, last,
        // or after another.
        let bytes = raw.as_bytes();
        let normal = bytes.first() != Some(&b'/')
            && bytes.last() != Some(&b'/')
            && !bytes.windows(2).any(|pair| pair == b"//");
        if normal {
            return ObjectPath(Arc::from(raw));
        }
        let mut cleaned = String::with_capacity(raw.len());
        for part in raw.split('/').filter(|s| !s.is_empty()) {
            if !cleaned.is_empty() {
                cleaned.push('/');
            }
            cleaned.push_str(part);
        }
        ObjectPath(Arc::from(cleaned))
    }

    /// The path as a string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Number of components.
    pub fn depth(&self) -> usize {
        if self.0.is_empty() {
            0
        } else {
            self.0.split('/').count()
        }
    }

    /// True if `self` is `other` or an ancestor of it.
    pub fn covers(&self, other: &ObjectPath) -> bool {
        let (prefix, path) = (self.0.as_bytes(), other.0.as_bytes());
        // The root covers everything; otherwise the prefix must end on
        // a component boundary of `other`.
        prefix.is_empty()
            || (path.starts_with(prefix)
                && (path.len() == prefix.len() || path[prefix.len()] == b'/'))
    }

    /// The parent path (`None` at the root).
    pub fn parent(&self) -> Option<ObjectPath> {
        let idx = self.0.rfind('/')?;
        Some(ObjectPath(Arc::from(&self.0[..idx])))
    }
}

impl fmt::Display for ObjectPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ObjectPath {
    fn from(s: &str) -> Self {
        ObjectPath::new(s)
    }
}

impl From<String> for ObjectPath {
    fn from(s: String) -> Self {
        ObjectPath::new(s)
    }
}

impl PartialEq<&str> for ObjectPath {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_ends_on_component_boundaries() {
        let p = ObjectPath::new("a/b/c");
        assert!(p.covers(&p));
        assert!(ObjectPath::new("a/b").covers(&p));
        assert!(!ObjectPath::new("a").covers(&ObjectPath::new("ab")));
        assert!(
            !p.covers(&ObjectPath::new("a/b")),
            "a child covers no parent"
        );
        assert_eq!(
            ObjectPath::new("///").depth(),
            0,
            "only slashes is the root"
        );
        assert!(ObjectPath::new("///").covers(&p), "and the root covers all");
    }

    #[test]
    fn clones_share_one_allocation() {
        let p = ObjectPath::new("shared/1");
        let q = p.clone();
        assert!(std::ptr::eq(p.as_str(), q.as_str()));
        assert_eq!(p, q);
        assert_eq!(p, "shared/1");
        assert_eq!(p.to_string(), "shared/1");
    }
}
