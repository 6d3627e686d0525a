//! A versioned shared-object store: the "shared information space" of
//! Figure 2 in the paper.

use std::collections::BTreeMap;
use std::fmt;

/// Identifies a shared object (e.g. one document).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// A value plus its monotonically increasing version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Versioned {
    /// Current content.
    pub value: String,
    /// Bumped on every write; version 0 is the initial value.
    pub version: u64,
}

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The object does not exist.
    UnknownObject(ObjectId),
    /// An edit referenced a position beyond the end of the value.
    OutOfBounds {
        /// The object being edited.
        object: ObjectId,
        /// The offending position.
        pos: usize,
        /// The value's length.
        len: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownObject(o) => write!(f, "unknown object {o}"),
            StoreError::OutOfBounds { object, pos, len } => {
                write!(
                    f,
                    "edit position {pos} out of bounds for {object} (len {len})"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// An in-memory object store.
///
/// # Examples
///
/// ```
/// use odp_concurrency::store::{ObjectId, ObjectStore};
///
/// let mut s = ObjectStore::new();
/// s.create(ObjectId(1), "hello");
/// s.write(ObjectId(1), "hello world")?;
/// assert_eq!(s.read(ObjectId(1))?.value, "hello world");
/// assert_eq!(s.read(ObjectId(1))?.version, 1);
/// # Ok::<(), odp_concurrency::store::StoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    objects: BTreeMap<ObjectId, Versioned>,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Creates (or resets) an object with an initial value at version 0.
    pub fn create(&mut self, id: ObjectId, value: impl Into<String>) {
        self.objects.insert(
            id,
            Versioned {
                value: value.into(),
                version: 0,
            },
        );
    }

    /// Reads an object.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownObject`] if it was never created.
    pub fn read(&self, id: ObjectId) -> Result<&Versioned, StoreError> {
        self.objects.get(&id).ok_or(StoreError::UnknownObject(id))
    }

    /// Replaces an object's value, bumping its version.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownObject`] if it was never created.
    pub fn write(&mut self, id: ObjectId, value: impl Into<String>) -> Result<u64, StoreError> {
        let obj = self
            .objects
            .get_mut(&id)
            .ok_or(StoreError::UnknownObject(id))?;
        obj.value = value.into();
        obj.version += 1;
        Ok(obj.version)
    }

    /// Inserts `text` at char position `pos`, bumping the version.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfBounds`] if `pos` exceeds the value length.
    pub fn insert(&mut self, id: ObjectId, pos: usize, text: &str) -> Result<u64, StoreError> {
        let obj = self
            .objects
            .get_mut(&id)
            .ok_or(StoreError::UnknownObject(id))?;
        let chars: Vec<char> = obj.value.chars().collect();
        if pos > chars.len() {
            return Err(StoreError::OutOfBounds {
                object: id,
                pos,
                len: chars.len(),
            });
        }
        let mut out: String = chars[..pos].iter().collect();
        out.push_str(text);
        out.extend(&chars[pos..]);
        obj.value = out;
        obj.version += 1;
        Ok(obj.version)
    }

    /// Deletes `len` chars at position `pos` (clamped to the value end),
    /// bumping the version.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfBounds`] if `pos` exceeds the value length.
    pub(crate) fn delete(
        &mut self,
        id: ObjectId,
        pos: usize,
        len: usize,
    ) -> Result<u64, StoreError> {
        let obj = self
            .objects
            .get_mut(&id)
            .ok_or(StoreError::UnknownObject(id))?;
        let chars: Vec<char> = obj.value.chars().collect();
        if pos > chars.len() {
            return Err(StoreError::OutOfBounds {
                object: id,
                pos,
                len: chars.len(),
            });
        }
        let end = (pos + len).min(chars.len());
        let mut out: String = chars[..pos].iter().collect();
        out.extend(&chars[end..]);
        obj.value = out;
        obj.version += 1;
        Ok(obj.version)
    }

    /// True if the object exists.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.objects.contains_key(&id)
    }

    /// All object ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.keys().copied()
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_read_write() {
        let mut s = ObjectStore::new();
        s.create(ObjectId(1), "abc");
        assert_eq!(s.read(ObjectId(1)).unwrap().version, 0);
        assert_eq!(s.write(ObjectId(1), "xyz").unwrap(), 1);
        assert_eq!(s.read(ObjectId(1)).unwrap().value, "xyz");
    }

    #[test]
    fn unknown_object_errors() {
        let mut s = ObjectStore::new();
        assert!(matches!(
            s.read(ObjectId(9)),
            Err(StoreError::UnknownObject(_))
        ));
        assert!(s.write(ObjectId(9), "x").is_err());
        assert!(s.insert(ObjectId(9), 0, "x").is_err());
    }

    #[test]
    fn insert_and_delete_edit_text() {
        let mut s = ObjectStore::new();
        s.create(ObjectId(1), "hello world");
        s.insert(ObjectId(1), 5, ",").unwrap();
        assert_eq!(s.read(ObjectId(1)).unwrap().value, "hello, world");
        s.delete(ObjectId(1), 5, 1).unwrap();
        assert_eq!(s.read(ObjectId(1)).unwrap().value, "hello world");
        assert_eq!(s.read(ObjectId(1)).unwrap().version, 2);
    }

    #[test]
    fn insert_at_end_is_ok_but_past_end_errors() {
        let mut s = ObjectStore::new();
        s.create(ObjectId(1), "ab");
        assert!(s.insert(ObjectId(1), 2, "c").is_ok());
        assert!(matches!(
            s.insert(ObjectId(1), 9, "x"),
            Err(StoreError::OutOfBounds { pos: 9, .. })
        ));
    }

    #[test]
    fn delete_clamps_to_end() {
        let mut s = ObjectStore::new();
        s.create(ObjectId(1), "abcdef");
        s.delete(ObjectId(1), 4, 100).unwrap();
        assert_eq!(s.read(ObjectId(1)).unwrap().value, "abcd");
    }

    #[test]
    fn unicode_positions_are_char_based() {
        let mut s = ObjectStore::new();
        s.create(ObjectId(1), "héllo");
        s.insert(ObjectId(1), 2, "X").unwrap();
        assert_eq!(s.read(ObjectId(1)).unwrap().value, "héXllo");
        s.delete(ObjectId(1), 1, 2).unwrap();
        assert_eq!(s.read(ObjectId(1)).unwrap().value, "hllo");
    }
}
