//! Capability delegation with attenuation.
//!
//! The classic capability model lets holders pass rights onward; in a
//! CSCW setting this is how ad-hoc task handover works ("the process of
//! allocating tasks amongst individuals can be very flexible", §2.2)
//! without a central administrator. Two invariants make it safe:
//!
//! 1. **Grant gating** — only a holder whose capability carries
//!    [`Rights::GRANT`] may delegate;
//! 2. **Attenuation** — a delegate never receives more rights than the
//!    delegator holds (minus `GRANT` itself unless explicitly passed).
//!
//! The chain of [`Delegation`] hops records how a capability was derived
//! so a verifier can audit it, and revocation of any hop severs
//! everything derived from it.

use std::collections::BTreeMap;
use std::fmt;

use crate::matrix::{Capability, Protected, Subject};
use crate::rights::Rights;

/// One hop in a delegation chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delegation {
    /// Who delegated.
    pub from: Subject,
    /// Who received.
    pub to: Subject,
    /// The rights passed on.
    pub rights: Rights,
}

/// Identifies an issued (possibly derived) capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GrantId(pub u64);

/// Errors from delegation operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DelegationError {
    /// The delegator holds no live capability for the object.
    NotAHolder(Subject, Protected),
    /// The delegator's capability lacks [`Rights::GRANT`].
    NoGrantRight(Subject),
    /// The delegation asks for rights the delegator does not hold.
    Amplification {
        /// What was asked.
        asked: Rights,
        /// What the delegator holds.
        held: Rights,
    },
    /// Unknown grant id.
    UnknownGrant(GrantId),
}

impl fmt::Display for DelegationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DelegationError::NotAHolder(s, o) => write!(f, "{s} holds no capability for {o}"),
            DelegationError::NoGrantRight(s) => write!(f, "{s} may not delegate (no grant right)"),
            DelegationError::Amplification { asked, held } => {
                write!(
                    f,
                    "delegation would amplify rights: asked {asked}, held {held}"
                )
            }
            DelegationError::UnknownGrant(g) => write!(f, "unknown grant {}", g.0),
        }
    }
}

impl std::error::Error for DelegationError {}

#[derive(Debug, Clone)]
struct Grant {
    holder: Subject,
    capability: Capability,
    /// The grant this one was derived from (None for root grants).
    parent: Option<GrantId>,
    revoked: bool,
}

/// The delegation registry: issues root capabilities, validates and
/// records delegations, answers authorisation queries, and revokes
/// subtrees.
///
/// # Examples
///
/// ```
/// use odp_access::delegation::DelegationRegistry;
/// use odp_access::matrix::{Protected, Subject};
/// use odp_access::rights::Rights;
///
/// let mut reg = DelegationRegistry::new();
/// let root = reg.issue_root(Subject(0), Protected(1), Rights::ALL);
/// let derived = reg.delegate(root, Subject(1), Rights::READ | Rights::WRITE)?;
/// assert!(reg.authorised(Subject(1), Protected(1), Rights::WRITE));
/// reg.revoke(root)?;
/// assert!(!reg.authorised(Subject(1), Protected(1), Rights::WRITE));
/// # let _ = derived;
/// # Ok::<(), odp_access::delegation::DelegationError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DelegationRegistry {
    grants: BTreeMap<GrantId, Grant>,
    next: u64,
}

impl DelegationRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        DelegationRegistry::default()
    }

    /// Issues a root capability (e.g. to an object's creator).
    pub fn issue_root(&mut self, holder: Subject, object: Protected, rights: Rights) -> GrantId {
        let id = GrantId(self.next);
        self.next += 1;
        self.grants.insert(
            id,
            Grant {
                holder,
                capability: Capability { object, rights },
                parent: None,
                revoked: false,
            },
        );
        id
    }

    /// Delegates from an existing grant: checks grant gating and
    /// attenuation, then issues the derived grant.
    ///
    /// # Errors
    ///
    /// See [`DelegationError`].
    pub fn delegate(
        &mut self,
        from: GrantId,
        to: Subject,
        rights: Rights,
    ) -> Result<GrantId, DelegationError> {
        let parent = self
            .grants
            .get(&from)
            .ok_or(DelegationError::UnknownGrant(from))?
            .clone();
        if self.effectively_revoked(from) {
            return Err(DelegationError::NotAHolder(
                parent.holder,
                parent.capability.object,
            ));
        }
        if !parent.capability.rights.contains(Rights::GRANT) {
            return Err(DelegationError::NoGrantRight(parent.holder));
        }
        if !parent.capability.rights.contains(rights) {
            return Err(DelegationError::Amplification {
                asked: rights,
                held: parent.capability.rights,
            });
        }
        let id = GrantId(self.next);
        self.next += 1;
        self.grants.insert(
            id,
            Grant {
                holder: to,
                capability: Capability {
                    object: parent.capability.object,
                    rights,
                },
                parent: Some(from),
                revoked: false,
            },
        );
        Ok(id)
    }

    /// True if the grant, or any ancestor, was revoked.
    fn effectively_revoked(&self, id: GrantId) -> bool {
        let mut cursor = Some(id);
        while let Some(g) = cursor {
            match self.grants.get(&g) {
                Some(grant) if grant.revoked => return true,
                Some(grant) => cursor = grant.parent,
                None => return true,
            }
        }
        false
    }

    /// Revokes a grant; everything derived from it dies with it.
    ///
    /// # Errors
    ///
    /// [`DelegationError::UnknownGrant`] if absent.
    pub fn revoke(&mut self, id: GrantId) -> Result<(), DelegationError> {
        self.grants
            .get_mut(&id)
            .map(|g| g.revoked = true)
            .ok_or(DelegationError::UnknownGrant(id))
    }

    /// True if `who` holds a live grant authorising `needed` on `object`.
    pub fn authorised(&self, who: Subject, object: Protected, needed: Rights) -> bool {
        self.grants.iter().any(|(&id, g)| {
            g.holder == who
                && g.capability.authorises(object, needed)
                && !self.effectively_revoked(id)
        })
    }

    /// The delegation chain from the root down to `id`, for audit.
    ///
    /// # Errors
    ///
    /// [`DelegationError::UnknownGrant`] if absent.
    pub fn chain(&self, id: GrantId) -> Result<Vec<Delegation>, DelegationError> {
        let mut hops = Vec::new();
        let mut cursor = Some(id);
        while let Some(g) = cursor {
            let grant = self
                .grants
                .get(&g)
                .ok_or(DelegationError::UnknownGrant(g))?;
            if let Some(parent_id) = grant.parent {
                let parent = self
                    .grants
                    .get(&parent_id)
                    .ok_or(DelegationError::UnknownGrant(parent_id))?;
                hops.push(Delegation {
                    from: parent.holder,
                    to: grant.holder,
                    rights: grant.capability.rights,
                });
            }
            cursor = grant.parent;
        }
        hops.reverse();
        Ok(hops)
    }

    /// Live grants held by a subject.
    pub fn grants_of(&self, who: Subject) -> Vec<(GrantId, Capability)> {
        self.grants
            .iter()
            .filter(|(&id, g)| g.holder == who && !self.effectively_revoked(id))
            .map(|(&id, g)| (id, g.capability))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: Protected = Protected(7);

    #[test]
    fn root_and_derived_grants_authorise() {
        let mut reg = DelegationRegistry::new();
        let root = reg.issue_root(Subject(0), DOC, Rights::ALL);
        let child = reg
            .delegate(root, Subject(1), Rights::READ | Rights::WRITE)
            .unwrap();
        assert!(reg.authorised(Subject(0), DOC, Rights::DELETE));
        assert!(reg.authorised(Subject(1), DOC, Rights::WRITE));
        assert!(
            !reg.authorised(Subject(1), DOC, Rights::DELETE),
            "attenuated"
        );
        let chain = reg.chain(child).unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].from, Subject(0));
    }

    #[test]
    fn delegation_requires_the_grant_right() {
        let mut reg = DelegationRegistry::new();
        let root = reg.issue_root(Subject(0), DOC, Rights::ALL);
        // Child receives no GRANT right: it cannot re-delegate.
        let child = reg.delegate(root, Subject(1), Rights::READ).unwrap();
        assert_eq!(
            reg.delegate(child, Subject(2), Rights::READ).unwrap_err(),
            DelegationError::NoGrantRight(Subject(1))
        );
        // With GRANT passed explicitly, re-delegation works.
        let child2 = reg
            .delegate(root, Subject(1), Rights::READ | Rights::GRANT)
            .unwrap();
        assert!(reg.delegate(child2, Subject(2), Rights::READ).is_ok());
    }

    #[test]
    fn amplification_is_rejected() {
        let mut reg = DelegationRegistry::new();
        let root = reg.issue_root(Subject(0), DOC, Rights::READ | Rights::GRANT);
        assert!(matches!(
            reg.delegate(root, Subject(1), Rights::WRITE),
            Err(DelegationError::Amplification { .. })
        ));
    }

    #[test]
    fn revocation_severs_the_subtree() {
        let mut reg = DelegationRegistry::new();
        let root = reg.issue_root(Subject(0), DOC, Rights::ALL);
        let a = reg
            .delegate(root, Subject(1), Rights::READ | Rights::GRANT)
            .unwrap();
        let b = reg.delegate(a, Subject(2), Rights::READ).unwrap();
        assert!(reg.authorised(Subject(2), DOC, Rights::READ));
        reg.revoke(a).unwrap();
        assert!(!reg.authorised(Subject(1), DOC, Rights::READ));
        assert!(
            !reg.authorised(Subject(2), DOC, Rights::READ),
            "derived grant dies"
        );
        // The root is untouched.
        assert!(reg.authorised(Subject(0), DOC, Rights::ALL));
        // Delegating from a revoked grant fails.
        assert!(reg.delegate(b, Subject(3), Rights::READ).is_err());
    }

    #[test]
    fn chains_audit_multi_hop_handover() {
        let mut reg = DelegationRegistry::new();
        let root = reg.issue_root(Subject(0), DOC, Rights::ALL);
        let a = reg
            .delegate(
                root,
                Subject(1),
                Rights::READ | Rights::WRITE | Rights::GRANT,
            )
            .unwrap();
        let b = reg
            .delegate(a, Subject(2), Rights::READ | Rights::GRANT)
            .unwrap();
        let c = reg.delegate(b, Subject(3), Rights::READ).unwrap();
        let chain = reg.chain(c).unwrap();
        let parties: Vec<(u32, u32)> = chain.iter().map(|d| (d.from.0, d.to.0)).collect();
        assert_eq!(parties, vec![(0, 1), (1, 2), (2, 3)]);
        // Rights attenuate monotonically along the chain.
        for pair in chain.windows(2) {
            assert!(pair[0].rights.contains(pair[1].rights - Rights::GRANT));
        }
    }

    #[test]
    fn unknown_grants_error() {
        let mut reg = DelegationRegistry::new();
        assert!(reg.revoke(GrantId(9)).is_err());
        assert!(reg.chain(GrantId(9)).is_err());
        assert!(reg.delegate(GrantId(9), Subject(1), Rights::READ).is_err());
    }

    #[test]
    fn grants_of_lists_only_live_grants() {
        let mut reg = DelegationRegistry::new();
        let root = reg.issue_root(Subject(0), DOC, Rights::ALL);
        let a = reg.delegate(root, Subject(1), Rights::READ).unwrap();
        assert_eq!(reg.grants_of(Subject(1)).len(), 1);
        reg.revoke(a).unwrap();
        assert!(reg.grants_of(Subject(1)).is_empty());
    }
}
