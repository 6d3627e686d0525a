#![warn(missing_docs)]

//! # odp-access — access control for collaborative environments
//!
//! The paper's security critique (§4.2.1): classic access-matrix
//! mechanisms identify *individuals*, assume identities and rights are
//! *static*, and are administered centrally — all wrong for CSCW, where
//! policies should be based on **dynamic roles**, changed **during**
//! collaboration, at a **fine granularity**, often by **negotiation**.
//!
//! - [`rights`] — the right set (read/write/annotate/delete/grant);
//! - [`matrix`] — the classic access matrix with ACL (column) and
//!   capability (row) views: the static baseline;
//! - [`rbac`] — Shen & Dewan role-based dynamic fine-grained control with
//!   path-inherited rules, deny conflicts and explanations;
//! - [`negotiation`] — request/counter/accept rights negotiation.
//!
//! ```
//! use odp_access::prelude::*;
//!
//! let mut policy = RbacPolicy::new();
//! policy.add_rule(RoleId(1), "doc".into(), Rights::READ, Effect::Allow);
//! policy.assign(Subject(7), RoleId(1));
//! assert!(policy.check(Subject(7), &"doc/para1".into(), Rights::READ).allowed);
//! ```

pub mod matrix;
pub mod negotiation;
pub mod rbac;
pub mod rights;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::matrix::{AccessMatrix, Capability, Protected, Subject};
    pub use crate::negotiation::{
        AgreedChange, NegotiationError, NegotiationId, NegotiationState, Negotiator,
    };
    pub use crate::rbac::{Decision, Effect, ObjectPath, RbacPolicy, RoleId, Rule};
    pub use crate::rights::Rights;
}

pub use prelude::*;
