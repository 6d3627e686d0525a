//! The rooms metaphor (§3.3.2): "the concept of rooms is used extensively
//! in user interfaces as a means of partitioning and organising work ...
//! providing facilities such as personal spaces (offices), shared spaces
//! (meeting rooms) and doors to move between such spaces."
//!
//! Doors carry a state (open / ajar / closed) that regulates entry — a
//! social-protocol privacy mechanism, like the media-space acceptance
//! policies.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use odp_sim::net::NodeId;

/// Names a room.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoomId(pub u32);

/// Personal office or shared meeting room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoomKind {
    /// A personal space with an owner.
    Office(u32),
    /// A shared space.
    MeetingRoom,
}

/// Door states, most to least welcoming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DoorState {
    /// Anyone may enter.
    #[default]
    Open,
    /// Entry requires a knock accepted by an occupant (modelled as: entry
    /// allowed only if the room is occupied).
    Ajar,
    /// Nobody enters (except an office's owner).
    Closed,
}

/// Errors from room operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoomError {
    /// Unknown room.
    UnknownRoom(RoomId),
    /// The door refused entry.
    DoorRefused(RoomId),
    /// The person is not in the room.
    NotPresent(NodeId),
}

impl fmt::Display for RoomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoomError::UnknownRoom(r) => write!(f, "unknown room {}", r.0),
            RoomError::DoorRefused(r) => write!(f, "the door of room {} refused entry", r.0),
            RoomError::NotPresent(n) => write!(f, "{n} is not in that room"),
        }
    }
}

impl std::error::Error for RoomError {}

struct Room {
    kind: RoomKind,
    door: DoorState,
    occupants: BTreeSet<NodeId>,
    artefacts: BTreeSet<String>,
}

/// A building of rooms.
///
/// # Examples
///
/// ```
/// use cscw_core::rooms::{Building, DoorState, RoomId, RoomKind};
/// use odp_sim::net::NodeId;
///
/// let mut b = Building::new();
/// b.create(RoomId(1), RoomKind::MeetingRoom);
/// b.enter(NodeId(0), RoomId(1))?;
/// assert_eq!(b.occupants(RoomId(1))?, vec![NodeId(0)]);
/// # Ok::<(), cscw_core::rooms::RoomError>(())
/// ```
#[derive(Default)]
pub struct Building {
    rooms: BTreeMap<RoomId, Room>,
    whereabouts: BTreeMap<NodeId, RoomId>,
}

impl Building {
    /// Creates an empty building.
    pub fn new() -> Self {
        Building::default()
    }

    /// Creates a room (door open).
    pub fn create(&mut self, id: RoomId, kind: RoomKind) {
        self.rooms.insert(
            id,
            Room {
                kind,
                door: DoorState::Open,
                occupants: BTreeSet::new(),
                artefacts: BTreeSet::new(),
            },
        );
    }

    /// Sets a room's door state.
    ///
    /// # Errors
    ///
    /// [`RoomError::UnknownRoom`] if absent.
    pub fn set_door(&mut self, id: RoomId, state: DoorState) -> Result<(), RoomError> {
        self.rooms
            .get_mut(&id)
            .map(|r| r.door = state)
            .ok_or(RoomError::UnknownRoom(id))
    }

    /// Enters a room (leaving the previous one), subject to the door.
    ///
    /// # Errors
    ///
    /// Unknown rooms or refusing doors fail.
    pub fn enter(&mut self, who: NodeId, id: RoomId) -> Result<(), RoomError> {
        let room = self.rooms.get_mut(&id).ok_or(RoomError::UnknownRoom(id))?;
        let owner_entering = matches!(room.kind, RoomKind::Office(owner) if owner == who.0);
        let admitted = owner_entering
            || match room.door {
                DoorState::Open => true,
                DoorState::Ajar => !room.occupants.is_empty(),
                DoorState::Closed => false,
            };
        if !admitted {
            return Err(RoomError::DoorRefused(id));
        }
        room.occupants.insert(who);
        if let Some(prev) = self.whereabouts.insert(who, id).filter(|&prev| prev != id) {
            if let Some(prev_room) = self.rooms.get_mut(&prev) {
                prev_room.occupants.remove(&who);
            }
        }
        Ok(())
    }

    /// Leaves whatever room one is in.
    pub fn leave(&mut self, who: NodeId) {
        if let Some(room_id) = self.whereabouts.remove(&who) {
            if let Some(room) = self.rooms.get_mut(&room_id) {
                room.occupants.remove(&who);
            }
        }
    }

    /// Where someone is.
    pub fn location_of(&self, who: NodeId) -> Option<RoomId> {
        self.whereabouts.get(&who).copied()
    }

    /// Who is in a room.
    ///
    /// # Errors
    ///
    /// [`RoomError::UnknownRoom`] if absent.
    pub fn occupants(&self, id: RoomId) -> Result<Vec<NodeId>, RoomError> {
        Ok(self
            .rooms
            .get(&id)
            .ok_or(RoomError::UnknownRoom(id))?
            .occupants
            .iter()
            .copied()
            .collect())
    }

    /// Brings an artefact into a room (shared work materials).
    ///
    /// # Errors
    ///
    /// [`RoomError::UnknownRoom`] if absent.
    pub fn place_artefact(
        &mut self,
        id: RoomId,
        artefact: impl Into<String>,
    ) -> Result<(), RoomError> {
        self.rooms
            .get_mut(&id)
            .map(|r| {
                r.artefacts.insert(artefact.into());
            })
            .ok_or(RoomError::UnknownRoom(id))
    }

    /// The artefacts visible to `who` — those in their current room.
    pub fn visible_artefacts(&self, who: NodeId) -> Vec<&str> {
        match self.whereabouts.get(&who).and_then(|r| self.rooms.get(r)) {
            Some(room) => room.artefacts.iter().map(|s| s.as_str()).collect(),
            None => Vec::new(),
        }
    }
}

impl fmt::Debug for Building {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Building")
            .field("rooms", &self.rooms.len())
            .field("people", &self.whereabouts.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_between_rooms_updates_occupancy() {
        let mut b = Building::new();
        b.create(RoomId(1), RoomKind::MeetingRoom);
        b.create(RoomId(2), RoomKind::MeetingRoom);
        b.enter(NodeId(0), RoomId(1)).unwrap();
        b.enter(NodeId(0), RoomId(2)).unwrap();
        assert_eq!(b.occupants(RoomId(1)).unwrap(), vec![]);
        assert_eq!(b.occupants(RoomId(2)).unwrap(), vec![NodeId(0)]);
        assert_eq!(b.location_of(NodeId(0)), Some(RoomId(2)));
        b.leave(NodeId(0));
        assert_eq!(b.location_of(NodeId(0)), None);
    }

    #[test]
    fn closed_doors_refuse_everyone_but_the_owner() {
        let mut b = Building::new();
        b.create(RoomId(1), RoomKind::Office(7));
        b.set_door(RoomId(1), DoorState::Closed).unwrap();
        assert_eq!(
            b.enter(NodeId(0), RoomId(1)).unwrap_err(),
            RoomError::DoorRefused(RoomId(1))
        );
        b.enter(NodeId(7), RoomId(1)).unwrap();
        assert_eq!(b.occupants(RoomId(1)).unwrap(), vec![NodeId(7)]);
    }

    #[test]
    fn ajar_doors_admit_only_when_occupied() {
        let mut b = Building::new();
        b.create(RoomId(1), RoomKind::Office(0));
        b.set_door(RoomId(1), DoorState::Ajar).unwrap();
        assert!(
            b.enter(NodeId(5), RoomId(1)).is_err(),
            "empty room, nobody to admit you"
        );
        b.enter(NodeId(0), RoomId(1)).unwrap(); // owner walks in
        b.enter(NodeId(5), RoomId(1)).unwrap(); // now the knock is answered
        assert_eq!(b.occupants(RoomId(1)).unwrap().len(), 2);
    }

    #[test]
    fn artefacts_are_visible_only_inside() {
        let mut b = Building::new();
        b.create(RoomId(1), RoomKind::MeetingRoom);
        b.place_artefact(RoomId(1), "whiteboard").unwrap();
        assert!(b.visible_artefacts(NodeId(0)).is_empty());
        b.enter(NodeId(0), RoomId(1)).unwrap();
        assert_eq!(b.visible_artefacts(NodeId(0)), vec!["whiteboard"]);
    }

    #[test]
    fn unknown_rooms_error() {
        let mut b = Building::new();
        assert!(b.enter(NodeId(0), RoomId(9)).is_err());
        assert!(b.set_door(RoomId(9), DoorState::Open).is_err());
        assert!(b.occupants(RoomId(9)).is_err());
        assert!(b.place_artefact(RoomId(9), "x").is_err());
    }
}
