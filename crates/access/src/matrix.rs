//! The classic access matrix and its two standard realisations, ACLs and
//! capabilities — the baselines the paper says CSCW has outgrown
//! (§4.2.1: "most existing approaches to access control in distributed
//! systems are based on the classic Access Matrix. Specific mechanisms
//! derived from this matrix include access control lists and
//! capabilities").
//!
//! These mechanisms are *static*: they identify individuals, not roles,
//! and assume "access is set up and only occasionally altered by a single
//! administrator". Experiment E5 quantifies the cost of that assumption
//! against [`crate::rbac`].

use std::collections::BTreeMap;
use std::fmt;

use crate::rights::Rights;

/// A principal (an individual user — the matrix knows nothing of roles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Subject(pub u32);

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A protected object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Protected(pub u64);

impl fmt::Display for Protected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// The access matrix: `(subject, object) -> rights`.
///
/// # Examples
///
/// ```
/// use odp_access::matrix::{AccessMatrix, Protected, Subject};
/// use odp_access::rights::Rights;
///
/// let mut m = AccessMatrix::new();
/// m.grant(Subject(1), Protected(7), Rights::READ | Rights::WRITE);
/// assert!(m.check(Subject(1), Protected(7), Rights::READ));
/// assert!(!m.check(Subject(2), Protected(7), Rights::READ));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AccessMatrix {
    cells: BTreeMap<(Subject, Protected), Rights>,
}

impl AccessMatrix {
    /// Creates an empty (deny-everything) matrix.
    pub fn new() -> Self {
        AccessMatrix::default()
    }

    /// Adds `rights` to a cell.
    pub fn grant(&mut self, subject: Subject, object: Protected, rights: Rights) {
        let cell = self.cells.entry((subject, object)).or_insert(Rights::NONE);
        *cell = *cell | rights;
    }

    /// Removes `rights` from a cell.
    pub fn revoke(&mut self, subject: Subject, object: Protected, rights: Rights) {
        if let Some(cell) = self.cells.get_mut(&(subject, object)) {
            *cell = *cell - rights;
            if cell.is_empty() {
                self.cells.remove(&(subject, object));
            }
        }
    }

    /// The rights in a cell.
    pub fn rights(&self, subject: Subject, object: Protected) -> Rights {
        self.cells
            .get(&(subject, object))
            .copied()
            .unwrap_or(Rights::NONE)
    }

    /// True if the cell contains every right in `needed`.
    pub fn check(&self, subject: Subject, object: Protected, needed: Rights) -> bool {
        self.rights(subject, object).contains(needed)
    }

    /// Column view: the ACL of `object`.
    pub fn acl_of(&self, object: Protected) -> Vec<(Subject, Rights)> {
        self.cells
            .iter()
            .filter(|((_, o), _)| *o == object)
            .map(|((s, _), &r)| (*s, r))
            .collect()
    }

    /// Row view: the capability list of `subject`.
    pub fn capabilities_of(&self, subject: Subject) -> Vec<Capability> {
        self.cells
            .iter()
            .filter(|((s, _), _)| *s == subject)
            .map(|((_, o), &r)| Capability {
                object: *o,
                rights: r,
            })
            .collect()
    }

    /// Number of non-empty cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no rights are granted at all.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// An unforgeable token naming an object and the holder's rights on it
/// (the row realisation of the matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capability {
    /// The object this capability names.
    pub object: Protected,
    /// The rights it conveys.
    pub rights: Rights,
}

impl Capability {
    /// True if the capability authorises `needed` on `object`.
    pub fn authorises(&self, object: Protected, needed: Rights) -> bool {
        self.object == object && self.rights.contains(needed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_check_revoke() {
        let mut m = AccessMatrix::new();
        m.grant(Subject(1), Protected(1), Rights::READ);
        m.grant(Subject(1), Protected(1), Rights::WRITE);
        assert!(m.check(Subject(1), Protected(1), Rights::READ | Rights::WRITE));
        m.revoke(Subject(1), Protected(1), Rights::WRITE);
        assert!(m.check(Subject(1), Protected(1), Rights::READ));
        assert!(!m.check(Subject(1), Protected(1), Rights::WRITE));
        m.revoke(Subject(1), Protected(1), Rights::READ);
        assert!(m.is_empty(), "empty cells are pruned");
    }

    #[test]
    fn default_is_deny() {
        let m = AccessMatrix::new();
        assert!(!m.check(Subject(0), Protected(0), Rights::READ));
        assert!(
            m.check(Subject(0), Protected(0), Rights::NONE),
            "vacuous check passes"
        );
    }

    #[test]
    fn acl_is_the_column_view() {
        let mut m = AccessMatrix::new();
        m.grant(Subject(1), Protected(7), Rights::READ);
        m.grant(Subject(2), Protected(7), Rights::ALL);
        m.grant(Subject(1), Protected(8), Rights::WRITE);
        let acl = m.acl_of(Protected(7));
        assert_eq!(acl.len(), 2);
        assert_eq!(acl[0], (Subject(1), Rights::READ));
        assert_eq!(acl[1], (Subject(2), Rights::ALL));
    }

    #[test]
    fn capabilities_are_the_row_view() {
        let mut m = AccessMatrix::new();
        m.grant(Subject(1), Protected(7), Rights::READ);
        m.grant(Subject(1), Protected(8), Rights::WRITE);
        let caps = m.capabilities_of(Subject(1));
        assert_eq!(caps.len(), 2);
        assert!(caps[0].authorises(Protected(7), Rights::READ));
        assert!(!caps[0].authorises(Protected(8), Rights::READ));
    }

    #[test]
    fn views_agree_with_the_matrix() {
        let mut m = AccessMatrix::new();
        for s in 0..4 {
            for o in 0..4 {
                if (s + o) % 2 == 0 {
                    m.grant(Subject(s), Protected(o as u64), Rights::READ);
                }
            }
        }
        for s in 0..4 {
            let caps = m.capabilities_of(Subject(s));
            for o in 0..4u64 {
                let via_matrix = m.check(Subject(s), Protected(o), Rights::READ);
                let via_caps = caps
                    .iter()
                    .any(|c| c.authorises(Protected(o), Rights::READ));
                let via_acl = m
                    .acl_of(Protected(o))
                    .iter()
                    .any(|&(subj, r)| subj == Subject(s) && r.contains(Rights::READ));
                assert_eq!(via_matrix, via_caps);
                assert_eq!(via_matrix, via_acl);
            }
        }
    }
}
