//! Access rights as a small bit-set.
//!
//! Implemented by hand (rather than pulling in `bitflags`) to keep the
//! workspace's dependency set to the approved list; the API mirrors the
//! conventional flag-set shape.

use std::fmt;
use std::ops::{BitAnd, BitOr, Not, Sub};

/// A set of access rights.
///
/// # Examples
///
/// ```
/// use odp_access::rights::Rights;
///
/// let rw = Rights::READ | Rights::WRITE;
/// assert!(rw.contains(Rights::READ));
/// assert!(!rw.contains(Rights::GRANT));
/// assert_eq!(rw - Rights::WRITE, Rights::READ);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rights(u8);

impl Rights {
    /// The empty set.
    pub const NONE: Rights = Rights(0);
    /// Permission to read.
    pub const READ: Rights = Rights(1 << 0);
    /// Permission to modify.
    pub const WRITE: Rights = Rights(1 << 1);
    /// Permission to append/annotate without modifying existing content.
    pub const ANNOTATE: Rights = Rights(1 << 2);
    /// Permission to delete.
    pub const DELETE: Rights = Rights(1 << 3);
    /// Permission to grant one's rights onward.
    pub const GRANT: Rights = Rights(1 << 4);
    /// Every right.
    pub const ALL: Rights = Rights(0b1_1111);

    /// True if every right in `other` is present in `self`.
    pub fn contains(self, other: Rights) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if no rights are present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The union of both sets.
    pub fn union(self, other: Rights) -> Rights {
        self | other
    }

    /// The intersection of both sets.
    pub fn intersection(self, other: Rights) -> Rights {
        self & other
    }

    /// Number of individual rights present.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }
}

impl BitOr for Rights {
    type Output = Rights;
    fn bitor(self, rhs: Rights) -> Rights {
        Rights(self.0 | rhs.0)
    }
}

impl BitAnd for Rights {
    type Output = Rights;
    fn bitand(self, rhs: Rights) -> Rights {
        Rights(self.0 & rhs.0)
    }
}

impl Sub for Rights {
    type Output = Rights;
    fn sub(self, rhs: Rights) -> Rights {
        Rights(self.0 & !rhs.0)
    }
}

impl Not for Rights {
    type Output = Rights;
    fn not(self) -> Rights {
        Rights(!self.0 & Rights::ALL.0)
    }
}

impl fmt::Display for Rights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        let mut first = true;
        for (bit, name) in [
            (Rights::READ, "read"),
            (Rights::WRITE, "write"),
            (Rights::ANNOTATE, "annotate"),
            (Rights::DELETE, "delete"),
            (Rights::GRANT, "grant"),
        ] {
            if self.contains(bit) {
                if !first {
                    write!(f, "+")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_operations() {
        let rw = Rights::READ | Rights::WRITE;
        assert!(rw.contains(Rights::READ));
        assert!(rw.contains(Rights::WRITE));
        assert!(!rw.contains(Rights::DELETE));
        assert_eq!(rw & Rights::READ, Rights::READ);
        assert_eq!(rw - Rights::READ, Rights::WRITE);
        assert_eq!(rw.count(), 2);
    }

    #[test]
    fn complement_stays_within_all() {
        let c = !Rights::READ;
        assert!(!c.contains(Rights::READ));
        assert!(c.contains(Rights::GRANT));
        assert_eq!(!Rights::ALL, Rights::NONE);
        assert_eq!(!Rights::NONE, Rights::ALL);
    }

    #[test]
    fn contains_on_empty() {
        assert!(Rights::ALL.contains(Rights::NONE));
        assert!(Rights::NONE.contains(Rights::NONE));
        assert!(!Rights::NONE.contains(Rights::READ));
        assert!(Rights::NONE.is_empty());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!((Rights::READ | Rights::GRANT).to_string(), "read+grant");
        assert_eq!(Rights::NONE.to_string(), "-");
    }
}
