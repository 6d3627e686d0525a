//! Media spaces (RAVE / Cruiser, paper §3.3.2): point-to-point audio/video
//! connections embedded in the workplace, with privacy-graded connection
//! types and per-user acceptance policies.
//!
//! RAVE distinguished connection types by how intrusive they are: a
//! *background* connection (shared coffee-room wall), a one-way *glance*,
//! a full two-way *vphone* call, and a persistent *office-share*. Each
//! user configures which types connect automatically, which ask first, and
//! which are refused — privacy management by social protocol, not locks.

use std::collections::BTreeMap;
use std::fmt;

use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

/// RAVE's connection types, least to most intrusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConnectionType {
    /// Ambient, many-to-many background view.
    Background,
    /// One-way, few-second look into an office.
    Glance,
    /// Two-way audio/video call.
    VPhone,
    /// Persistent two-way office link.
    OfficeShare,
}

impl fmt::Display for ConnectionType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConnectionType::Background => "background",
            ConnectionType::Glance => "glance",
            ConnectionType::VPhone => "vphone",
            ConnectionType::OfficeShare => "office-share",
        };
        f.write_str(s)
    }
}

/// What a callee's policy says about an incoming connection type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Acceptance {
    /// Connect without asking.
    Auto,
    /// Ask the callee first.
    #[default]
    Ask,
    /// Always refuse.
    Refuse,
}

/// The outcome of a connection attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectOutcome {
    /// Connected immediately.
    Connected(ConnectionId),
    /// The callee must confirm; resolve with [`MediaSpace::answer`].
    Pending(ConnectionId),
    /// Refused by policy.
    Refused,
}

/// Identifies an (attempted) connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnectionId(pub u64);

/// Errors from media-space operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaSpaceError {
    /// The connection id is unknown or already resolved.
    UnknownConnection(ConnectionId),
    /// Only the callee may answer a pending connection.
    NotCallee(NodeId),
}

impl fmt::Display for MediaSpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediaSpaceError::UnknownConnection(c) => write!(f, "unknown connection {}", c.0),
            MediaSpaceError::NotCallee(n) => write!(f, "{n} is not the callee"),
        }
    }
}

impl std::error::Error for MediaSpaceError {}

#[derive(Debug, Clone)]
struct Connection {
    from: NodeId,
    to: NodeId,
    kind: ConnectionType,
    established: Option<SimTime>,
}

/// The media-space switchboard.
///
/// # Examples
///
/// ```
/// use odp_awareness::mediaspace::{Acceptance, ConnectOutcome, ConnectionType, MediaSpace};
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let mut ms = MediaSpace::new();
/// ms.set_policy(NodeId(1), ConnectionType::Glance, Acceptance::Auto);
/// let outcome = ms.connect(NodeId(0), NodeId(1), ConnectionType::Glance, SimTime::ZERO);
/// assert!(matches!(outcome, ConnectOutcome::Connected(_)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MediaSpace {
    policies: BTreeMap<(NodeId, ConnectionType), Acceptance>,
    connections: BTreeMap<ConnectionId, Connection>,
    next: u64,
}

impl MediaSpace {
    /// Creates an empty switchboard (default policy: ask for everything).
    pub fn new() -> Self {
        MediaSpace::default()
    }

    /// Sets `who`'s acceptance policy for one connection type.
    pub fn set_policy(&mut self, who: NodeId, kind: ConnectionType, acceptance: Acceptance) {
        self.policies.insert((who, kind), acceptance);
    }

    /// The policy in force for `who` / `kind`.
    pub fn policy(&self, who: NodeId, kind: ConnectionType) -> Acceptance {
        self.policies.get(&(who, kind)).copied().unwrap_or_default()
    }

    /// Attempts a connection from `from` to `to`.
    pub fn connect(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: ConnectionType,
        now: SimTime,
    ) -> ConnectOutcome {
        match self.policy(to, kind) {
            Acceptance::Refuse => ConnectOutcome::Refused,
            Acceptance::Auto => {
                let id = self.insert(from, to, kind, Some(now));
                ConnectOutcome::Connected(id)
            }
            Acceptance::Ask => {
                let id = self.insert(from, to, kind, None);
                ConnectOutcome::Pending(id)
            }
        }
    }

    fn insert(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: ConnectionType,
        established: Option<SimTime>,
    ) -> ConnectionId {
        let id = ConnectionId(self.next);
        self.next += 1;
        self.connections.insert(
            id,
            Connection {
                from,
                to,
                kind,
                established,
            },
        );
        id
    }

    /// The callee answers a pending connection.
    ///
    /// # Errors
    ///
    /// Fails on unknown/settled connections or if `who` is not the callee.
    pub fn answer(
        &mut self,
        who: NodeId,
        id: ConnectionId,
        accept: bool,
        now: SimTime,
    ) -> Result<ConnectOutcome, MediaSpaceError> {
        let conn = self
            .connections
            .get_mut(&id)
            .ok_or(MediaSpaceError::UnknownConnection(id))?;
        if conn.to != who {
            return Err(MediaSpaceError::NotCallee(who));
        }
        if conn.established.is_some() {
            return Err(MediaSpaceError::UnknownConnection(id));
        }
        if accept {
            conn.established = Some(now);
            Ok(ConnectOutcome::Connected(id))
        } else {
            self.connections.remove(&id);
            Ok(ConnectOutcome::Refused)
        }
    }

    /// Tears down a connection (either party).
    pub fn disconnect(&mut self, id: ConnectionId) -> Result<(), MediaSpaceError> {
        self.connections
            .remove(&id)
            .map(|_| ())
            .ok_or(MediaSpaceError::UnknownConnection(id))
    }

    /// Active (established) connections involving `who`.
    pub fn active_for(&self, who: NodeId) -> Vec<(ConnectionId, NodeId, ConnectionType)> {
        self.connections
            .iter()
            .filter(|(_, c)| c.established.is_some() && (c.from == who || c.to == who))
            .map(|(&id, c)| {
                let peer = if c.from == who { c.to } else { c.from };
                (id, peer, c.kind)
            })
            .collect()
    }

    /// Reciprocity check: a glance shows the caller to the callee too —
    /// returns the peers who can currently see `who`.
    pub fn who_sees(&self, who: NodeId) -> Vec<NodeId> {
        self.connections
            .values()
            .filter(|c| c.established.is_some())
            .filter_map(|c| {
                if c.to == who {
                    Some(c.from)
                } else if c.from == who && c.kind >= ConnectionType::VPhone {
                    // Two-way types expose the caller symmetrically.
                    Some(c.to)
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_policy_connects_immediately() {
        let mut ms = MediaSpace::new();
        ms.set_policy(NodeId(1), ConnectionType::Background, Acceptance::Auto);
        let out = ms.connect(
            NodeId(0),
            NodeId(1),
            ConnectionType::Background,
            SimTime::ZERO,
        );
        let ConnectOutcome::Connected(id) = out else {
            panic!("expected immediate connection, got {out:?}");
        };
        assert_eq!(
            ms.active_for(NodeId(1)),
            vec![(id, NodeId(0), ConnectionType::Background)]
        );
    }

    #[test]
    fn default_policy_asks_first() {
        let mut ms = MediaSpace::new();
        let out = ms.connect(NodeId(0), NodeId(1), ConnectionType::VPhone, SimTime::ZERO);
        let ConnectOutcome::Pending(id) = out else {
            panic!("expected pending, got {out:?}");
        };
        assert!(ms.active_for(NodeId(1)).is_empty(), "not yet established");
        let answered = ms
            .answer(NodeId(1), id, true, SimTime::from_secs(2))
            .unwrap();
        assert!(matches!(answered, ConnectOutcome::Connected(_)));
        assert_eq!(ms.active_for(NodeId(0)).len(), 1);
    }

    #[test]
    fn refuse_policy_blocks() {
        let mut ms = MediaSpace::new();
        ms.set_policy(NodeId(1), ConnectionType::OfficeShare, Acceptance::Refuse);
        let out = ms.connect(
            NodeId(0),
            NodeId(1),
            ConnectionType::OfficeShare,
            SimTime::ZERO,
        );
        assert_eq!(out, ConnectOutcome::Refused);
    }

    #[test]
    fn declining_a_pending_connection_removes_it() {
        let mut ms = MediaSpace::new();
        let ConnectOutcome::Pending(id) =
            ms.connect(NodeId(0), NodeId(1), ConnectionType::Glance, SimTime::ZERO)
        else {
            panic!("expected pending");
        };
        let out = ms.answer(NodeId(1), id, false, SimTime::ZERO).unwrap();
        assert_eq!(out, ConnectOutcome::Refused);
        assert!(ms.disconnect(id).is_err(), "connection is gone");
    }

    #[test]
    fn only_the_callee_may_answer() {
        let mut ms = MediaSpace::new();
        let ConnectOutcome::Pending(id) =
            ms.connect(NodeId(0), NodeId(1), ConnectionType::Glance, SimTime::ZERO)
        else {
            panic!("expected pending");
        };
        assert_eq!(
            ms.answer(NodeId(2), id, true, SimTime::ZERO).unwrap_err(),
            MediaSpaceError::NotCallee(NodeId(2))
        );
    }

    #[test]
    fn glance_is_one_way_vphone_is_two_way() {
        let mut ms = MediaSpace::new();
        ms.set_policy(NodeId(1), ConnectionType::Glance, Acceptance::Auto);
        ms.set_policy(NodeId(2), ConnectionType::VPhone, Acceptance::Auto);
        ms.connect(NodeId(0), NodeId(1), ConnectionType::Glance, SimTime::ZERO);
        ms.connect(NodeId(0), NodeId(2), ConnectionType::VPhone, SimTime::ZERO);
        // Node 1 is seen by 0 (glance), and node 0 is seen by 2 (two-way)
        // but NOT by 1 (glance is one-way).
        assert_eq!(ms.who_sees(NodeId(1)), vec![NodeId(0)]);
        let sees_0 = ms.who_sees(NodeId(0));
        assert!(sees_0.contains(&NodeId(2)));
        assert!(!sees_0.contains(&NodeId(1)));
    }

    #[test]
    fn disconnect_ends_the_connection() {
        let mut ms = MediaSpace::new();
        ms.set_policy(NodeId(1), ConnectionType::VPhone, Acceptance::Auto);
        let ConnectOutcome::Connected(id) =
            ms.connect(NodeId(0), NodeId(1), ConnectionType::VPhone, SimTime::ZERO)
        else {
            panic!("expected connected");
        };
        ms.disconnect(id).unwrap();
        assert!(ms.active_for(NodeId(0)).is_empty());
    }
}
