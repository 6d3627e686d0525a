//! Negotiation of access rights.
//!
//! The paper (§4.2.1): *"access models within CSCW systems should also
//! support dynamic changes to access control information. It is also
//! likely that such changes will be made as a result of **negotiation**
//! between parties involved."*
//!
//! A [`Negotiator`] runs request → (counter-offer)* → accept
//! conversations between a requester and an object owner. A successful
//! negotiation yields an [`AgreedChange`] that the caller applies to its
//! [`crate::rbac::RbacPolicy`] (the negotiator is policy-agnostic).

use std::collections::HashMap;
use std::fmt;

use odp_sim::time::SimTime;

use crate::matrix::Subject;
use crate::rbac::ObjectPath;
use crate::rights::Rights;

/// Identifies a negotiation session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NegotiationId(pub u64);

/// The state of a negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegotiationState {
    /// Waiting for the owner's first response.
    Requested,
    /// The owner countered; waiting for the requester.
    Countered,
    /// Concluded successfully.
    Agreed,
}

/// A concluded agreement, ready to apply to a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgreedChange {
    /// Who receives the rights.
    pub subject: Subject,
    /// On what.
    pub path: ObjectPath,
    /// The rights agreed (possibly fewer than requested).
    pub rights: Rights,
    /// How many message exchanges it took (for E5 accounting).
    pub round_trips: u32,
}

/// Errors from negotiation operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegotiationError {
    /// Unknown or concluded session.
    UnknownSession(NegotiationId),
    /// The actor is not the party whose turn it is.
    NotYourTurn(Subject),
    /// A counter-offer must be a subset of the previous ask.
    CounterNotNarrower,
}

impl fmt::Display for NegotiationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NegotiationError::UnknownSession(id) => write!(f, "unknown negotiation {}", id.0),
            NegotiationError::NotYourTurn(s) => write!(f, "it is not {s}'s turn"),
            NegotiationError::CounterNotNarrower => {
                write!(f, "counter-offer must narrow the request")
            }
        }
    }
}

impl std::error::Error for NegotiationError {}

#[derive(Debug)]
struct Session {
    requester: Subject,
    owner: Subject,
    path: ObjectPath,
    on_table: Rights,
    state: NegotiationState,
    round_trips: u32,
    opened: SimTime,
}

/// Runs access-rights negotiations.
///
/// # Examples
///
/// ```
/// use odp_access::matrix::Subject;
/// use odp_access::negotiation::Negotiator;
/// use odp_access::rights::Rights;
/// use odp_sim::time::SimTime;
///
/// let mut n = Negotiator::new();
/// let id = n.request(Subject(1), Subject(0), "doc/sec2".into(),
///                    Rights::READ | Rights::WRITE, SimTime::ZERO);
/// let agreed = n.accept(Subject(0), id, SimTime::ZERO)?;
/// assert_eq!(agreed.rights, Rights::READ | Rights::WRITE);
/// # Ok::<(), odp_access::negotiation::NegotiationError>(())
/// ```
#[derive(Debug, Default)]
pub struct Negotiator {
    sessions: HashMap<NegotiationId, Session>,
    next: u64,
}

impl Negotiator {
    /// Creates an empty negotiator.
    pub fn new() -> Self {
        Negotiator::default()
    }

    /// Opens a negotiation: `requester` asks `owner` for `rights` on
    /// `path`.
    pub fn request(
        &mut self,
        requester: Subject,
        owner: Subject,
        path: ObjectPath,
        rights: Rights,
        now: SimTime,
    ) -> NegotiationId {
        let id = NegotiationId(self.next);
        self.next += 1;
        self.sessions.insert(
            id,
            Session {
                requester,
                owner,
                path,
                on_table: rights,
                state: NegotiationState::Requested,
                round_trips: 1,
                opened: now,
            },
        );
        id
    }

    /// The state of a session, if it exists.
    pub fn state(&self, id: NegotiationId) -> Option<NegotiationState> {
        self.sessions.get(&id).map(|s| s.state)
    }

    /// The owner counter-offers a narrower set of rights.
    ///
    /// # Errors
    ///
    /// Fails for unknown sessions, wrong party, or a counter that is not
    /// a strict subset of the current ask.
    pub fn counter(
        &mut self,
        who: Subject,
        id: NegotiationId,
        offer: Rights,
    ) -> Result<(), NegotiationError> {
        let s = self
            .sessions
            .get_mut(&id)
            .filter(|s| matches!(s.state, NegotiationState::Requested))
            .ok_or(NegotiationError::UnknownSession(id))?;
        if who != s.owner {
            return Err(NegotiationError::NotYourTurn(who));
        }
        if !s.on_table.contains(offer) || offer == s.on_table || offer.is_empty() {
            // An empty offer is a rejection, not a counter.
            return Err(NegotiationError::CounterNotNarrower);
        }
        s.on_table = offer;
        s.state = NegotiationState::Countered;
        s.round_trips += 1;
        Ok(())
    }

    /// The party whose turn it is accepts what is on the table, yielding
    /// the agreed change.
    ///
    /// # Errors
    ///
    /// Fails for unknown/concluded sessions or the wrong party.
    pub fn accept(
        &mut self,
        who: Subject,
        id: NegotiationId,
        now: SimTime,
    ) -> Result<AgreedChange, NegotiationError> {
        let s = self
            .sessions
            .get_mut(&id)
            .ok_or(NegotiationError::UnknownSession(id))?;
        let expected = match s.state {
            NegotiationState::Requested => s.owner,
            NegotiationState::Countered => s.requester,
            _ => return Err(NegotiationError::UnknownSession(id)),
        };
        if who != expected {
            return Err(NegotiationError::NotYourTurn(who));
        }
        s.state = NegotiationState::Agreed;
        s.round_trips += 1;
        let _ = now.saturating_since(s.opened);
        Ok(AgreedChange {
            subject: s.requester,
            path: s.path.clone(),
            rights: s.on_table,
            round_trips: s.round_trips,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOW: SimTime = SimTime::ZERO;

    #[test]
    fn direct_acceptance() {
        let mut n = Negotiator::new();
        let id = n.request(Subject(1), Subject(0), "doc".into(), Rights::WRITE, NOW);
        assert_eq!(n.state(id), Some(NegotiationState::Requested));
        let agreed = n.accept(Subject(0), id, NOW).unwrap();
        assert_eq!(agreed.subject, Subject(1));
        assert_eq!(agreed.rights, Rights::WRITE);
        assert_eq!(agreed.round_trips, 2);
        assert_eq!(n.state(id), Some(NegotiationState::Agreed));
    }

    #[test]
    fn counter_offer_narrows_then_requester_accepts() {
        let mut n = Negotiator::new();
        let id = n.request(
            Subject(1),
            Subject(0),
            "doc".into(),
            Rights::READ | Rights::WRITE,
            NOW,
        );
        n.counter(Subject(0), id, Rights::READ).unwrap();
        assert_eq!(n.state(id), Some(NegotiationState::Countered));
        let agreed = n.accept(Subject(1), id, NOW).unwrap();
        assert_eq!(agreed.rights, Rights::READ);
        assert_eq!(agreed.round_trips, 3);
    }

    #[test]
    fn counter_must_narrow() {
        let mut n = Negotiator::new();
        let id = n.request(Subject(1), Subject(0), "doc".into(), Rights::READ, NOW);
        assert_eq!(
            n.counter(Subject(0), id, Rights::READ).unwrap_err(),
            NegotiationError::CounterNotNarrower
        );
        assert_eq!(
            n.counter(Subject(0), id, Rights::WRITE).unwrap_err(),
            NegotiationError::CounterNotNarrower
        );
    }

    #[test]
    fn turn_taking_is_enforced() {
        let mut n = Negotiator::new();
        let id = n.request(Subject(1), Subject(0), "doc".into(), Rights::READ, NOW);
        assert_eq!(
            n.accept(Subject(1), id, NOW).unwrap_err(),
            NegotiationError::NotYourTurn(Subject(1))
        );
        // An empty counter is not a valid narrowing either.
        assert_eq!(
            n.counter(Subject(0), id, Rights::NONE).unwrap_err(),
            NegotiationError::CounterNotNarrower
        );
    }

    #[test]
    fn unknown_sessions_error() {
        let mut n = Negotiator::new();
        assert!(n.accept(Subject(0), NegotiationId(9), NOW).is_err());
        assert_eq!(n.state(NegotiationId(9)), None);
    }
}
