//! Addressing for mobile hosts: a home-agent scheme after the mobile-IP
//! work the paper cites (Bhagwat & Perkins, "A Mobile Networking System
//! based on Internet Protocol").
//!
//! Each mobile has a **home agent** (a fixed node). Correspondents send
//! to the mobile's home address; the home agent forwards ("tunnels") to
//! the mobile's current **care-of** node, updated on every handoff.

use std::collections::BTreeMap;
use std::fmt;

use odp_sim::net::NodeId;

/// A mobile host's permanent identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MobileId(pub u32);

impl fmt::Display for MobileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Errors from the home agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressingError {
    /// The mobile was never registered.
    UnknownMobile(MobileId),
    /// The mobile is registered but currently has no care-of address.
    NoCareOf(MobileId),
}

impl fmt::Display for AddressingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressingError::UnknownMobile(m) => write!(f, "unknown mobile {m}"),
            AddressingError::NoCareOf(m) => write!(f, "{m} has no care-of address"),
        }
    }
}

impl std::error::Error for AddressingError {}

/// The home agent's binding table.
///
/// # Examples
///
/// ```
/// use odp_mobility::addressing::{HomeAgent, MobileId};
/// use odp_sim::net::NodeId;
///
/// let mut agent = HomeAgent::new(NodeId(0));
/// agent.register(MobileId(1));
/// agent.handoff(MobileId(1), NodeId(7))?;
/// assert_eq!(agent.route(MobileId(1))?, NodeId(7));
/// # Ok::<(), odp_mobility::addressing::AddressingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HomeAgent {
    home: NodeId,
    bindings: BTreeMap<MobileId, Option<NodeId>>,
    handoffs: u64,
    forwards: u64,
}

impl HomeAgent {
    /// Creates a home agent at the fixed node `home`.
    pub fn new(home: NodeId) -> Self {
        HomeAgent {
            home,
            bindings: BTreeMap::new(),
            handoffs: 0,
            forwards: 0,
        }
    }

    /// The agent's own node.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// Registers a mobile (initially with no care-of address).
    pub fn register(&mut self, mobile: MobileId) {
        self.bindings.entry(mobile).or_insert(None);
    }

    /// Updates a mobile's care-of address (it moved into a new cell).
    ///
    /// # Errors
    ///
    /// [`AddressingError::UnknownMobile`] if never registered.
    // odp-check: allow(dead-pub) — PAPER.md requirement 7: a mobile host changes care-of node.
    pub fn handoff(&mut self, mobile: MobileId, care_of: NodeId) -> Result<(), AddressingError> {
        let slot = self
            .bindings
            .get_mut(&mobile)
            .ok_or(AddressingError::UnknownMobile(mobile))?;
        *slot = Some(care_of);
        self.handoffs += 1;
        Ok(())
    }

    /// Marks a mobile unreachable (left all coverage).
    ///
    /// # Errors
    ///
    /// [`AddressingError::UnknownMobile`] if never registered.
    // odp-check: allow(dead-pub) — PAPER.md requirement 7: a mobile host disconnects.
    pub fn detach(&mut self, mobile: MobileId) -> Result<(), AddressingError> {
        let slot = self
            .bindings
            .get_mut(&mobile)
            .ok_or(AddressingError::UnknownMobile(mobile))?;
        *slot = None;
        Ok(())
    }

    /// Resolves the current care-of node for a mobile (counts a
    /// forwarded packet).
    ///
    /// # Errors
    ///
    /// Unknown or detached mobiles fail.
    pub fn route(&mut self, mobile: MobileId) -> Result<NodeId, AddressingError> {
        let slot = self
            .bindings
            .get(&mobile)
            .ok_or(AddressingError::UnknownMobile(mobile))?;
        match slot {
            Some(node) => {
                self.forwards += 1;
                Ok(*node)
            }
            None => Err(AddressingError::NoCareOf(mobile)),
        }
    }

    /// Total handoffs processed.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Total packets forwarded.
    pub fn forwards(&self) -> u64 {
        self.forwards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_handoff_route() {
        let mut agent = HomeAgent::new(NodeId(0));
        agent.register(MobileId(1));
        assert_eq!(
            agent.route(MobileId(1)).unwrap_err(),
            AddressingError::NoCareOf(MobileId(1))
        );
        agent.handoff(MobileId(1), NodeId(5)).unwrap();
        assert_eq!(agent.route(MobileId(1)).unwrap(), NodeId(5));
        agent.handoff(MobileId(1), NodeId(6)).unwrap();
        assert_eq!(agent.route(MobileId(1)).unwrap(), NodeId(6));
        assert_eq!(agent.handoffs(), 2);
        assert_eq!(agent.forwards(), 2);
    }

    #[test]
    fn unknown_mobiles_error() {
        let mut agent = HomeAgent::new(NodeId(0));
        assert_eq!(
            agent.handoff(MobileId(9), NodeId(1)).unwrap_err(),
            AddressingError::UnknownMobile(MobileId(9))
        );
        assert_eq!(
            agent.route(MobileId(9)).unwrap_err(),
            AddressingError::UnknownMobile(MobileId(9))
        );
    }

    #[test]
    fn detach_makes_a_mobile_unreachable() {
        let mut agent = HomeAgent::new(NodeId(0));
        agent.register(MobileId(1));
        agent.handoff(MobileId(1), NodeId(5)).unwrap();
        agent.detach(MobileId(1)).unwrap();
        assert_eq!(
            agent.route(MobileId(1)).unwrap_err(),
            AddressingError::NoCareOf(MobileId(1))
        );
    }

    #[test]
    fn reregistration_keeps_existing_binding() {
        let mut agent = HomeAgent::new(NodeId(0));
        agent.register(MobileId(1));
        agent.handoff(MobileId(1), NodeId(5)).unwrap();
        agent.register(MobileId(1)); // idempotent
        assert_eq!(agent.route(MobileId(1)).unwrap(), NodeId(5));
    }
}
