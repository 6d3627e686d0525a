//! The Lancaster air-traffic-control flight-strip board (§2.3) — the
//! paper's motivating field study. Strips are "organised in a rack
//! according to the reporting points over which a flight will pass";
//! controllers derive "the anticipated future loading on the system or
//! emerging problems" at a glance; and, crucially, strips are positioned
//! **manually** — "manual positioning draws the attention of controllers
//! to the new arrival and helps to identify potential problems at an
//! early stage."
//!
//! The board therefore supports both placement modes so experiments and
//! examples can contrast them: automatic placement files a strip silently
//! in ETA order; manual placement requires an explicit position and
//! raises an attention (awareness) event.

use std::collections::BTreeMap;
use std::fmt;

use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};

/// An aircraft callsign.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Callsign(pub String);

impl fmt::Display for Callsign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A reporting point (beacon) with a rack on the board.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Beacon(pub String);

impl fmt::Display for Beacon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// One flight progress strip.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightStrip {
    /// The flight.
    pub callsign: Callsign,
    /// Estimated time over the beacon.
    pub eta: SimTime,
    /// Flight level (hundreds of feet).
    pub level: u32,
    /// Controller instructions, amended as they are issued and confirmed.
    pub instructions: Vec<String>,
}

/// How a strip was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementMode {
    /// Filed silently in ETA order by the system.
    Automatic,
    /// Positioned by a controller's hand (raises attention).
    Manual,
}

/// An attention event: who placed/moved what, seen by the whole team.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionEvent {
    /// The controller acting.
    pub by: NodeId,
    /// The flight concerned.
    pub callsign: Callsign,
    /// The rack concerned.
    pub beacon: Beacon,
    /// When.
    pub at: SimTime,
}

/// Errors from board operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoardError {
    /// No rack for that beacon.
    UnknownBeacon(Beacon),
    /// No strip for that callsign in that rack.
    UnknownStrip(Callsign),
    /// Manual placement needs a position inside the rack.
    BadPosition {
        /// Requested index.
        index: usize,
        /// Rack size.
        len: usize,
    },
}

impl fmt::Display for BoardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoardError::UnknownBeacon(b) => write!(f, "no rack for beacon {b}"),
            BoardError::UnknownStrip(c) => write!(f, "no strip for {c}"),
            BoardError::BadPosition { index, len } => {
                write!(f, "position {index} outside rack of {len}")
            }
        }
    }
}

impl std::error::Error for BoardError {}

/// The flight progress board: one ordered rack of strips per beacon.
///
/// # Examples
///
/// ```
/// use cscw_core::flightstrips::{Beacon, Callsign, FlightProgressBoard, FlightStrip, PlacementMode};
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let mut board = FlightProgressBoard::new();
/// board.add_rack(Beacon("POL".into()));
/// let strip = FlightStrip {
///     callsign: Callsign("BA123".into()),
///     eta: SimTime::from_secs(600),
///     level: 330,
///     instructions: vec![],
/// };
/// board.place(NodeId(0), Beacon("POL".into()), strip, PlacementMode::Automatic, None, SimTime::ZERO)?;
/// assert_eq!(board.rack(&Beacon("POL".into()))?.len(), 1);
/// # Ok::<(), cscw_core::flightstrips::BoardError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlightProgressBoard {
    racks: BTreeMap<Beacon, Vec<FlightStrip>>,
    attention: Vec<AttentionEvent>,
}

impl FlightProgressBoard {
    /// Creates an empty board.
    pub fn new() -> Self {
        FlightProgressBoard::default()
    }

    /// Adds a rack for a beacon.
    pub fn add_rack(&mut self, beacon: Beacon) {
        self.racks.entry(beacon).or_default();
    }

    /// Places a strip. Automatic placement ignores `position` and files
    /// by ETA silently; manual placement requires `position` and raises
    /// an [`AttentionEvent`].
    ///
    /// # Errors
    ///
    /// Unknown beacons and out-of-range manual positions fail.
    pub fn place(
        &mut self,
        by: NodeId,
        beacon: Beacon,
        strip: FlightStrip,
        mode: PlacementMode,
        position: Option<usize>,
        at: SimTime,
    ) -> Result<(), BoardError> {
        let rack = self
            .racks
            .get_mut(&beacon)
            .ok_or_else(|| BoardError::UnknownBeacon(beacon.clone()))?;
        match mode {
            PlacementMode::Automatic => {
                let idx = rack
                    .iter()
                    .position(|s| s.eta > strip.eta)
                    .unwrap_or(rack.len());
                rack.insert(idx, strip);
            }
            PlacementMode::Manual => {
                let index = position.unwrap_or(rack.len());
                if index > rack.len() {
                    return Err(BoardError::BadPosition {
                        index,
                        len: rack.len(),
                    });
                }
                let callsign = strip.callsign.clone();
                rack.insert(index, strip);
                self.attention.push(AttentionEvent {
                    by,
                    callsign,
                    beacon,
                    at,
                });
            }
        }
        Ok(())
    }

    /// Manually moves ("cocks out") a strip to a new index in its rack —
    /// the re-ordering controllers use to flag problems. Raises
    /// attention.
    ///
    /// # Errors
    ///
    /// Unknown beacons/strips and bad positions fail.
    pub fn reorder(
        &mut self,
        by: NodeId,
        beacon: &Beacon,
        callsign: &Callsign,
        to_index: usize,
        at: SimTime,
    ) -> Result<(), BoardError> {
        let rack = self
            .racks
            .get_mut(beacon)
            .ok_or_else(|| BoardError::UnknownBeacon(beacon.clone()))?;
        let from = rack
            .iter()
            .position(|s| &s.callsign == callsign)
            .ok_or_else(|| BoardError::UnknownStrip(callsign.clone()))?;
        if to_index >= rack.len() {
            return Err(BoardError::BadPosition {
                index: to_index,
                len: rack.len(),
            });
        }
        let strip = rack.remove(from);
        rack.insert(to_index, strip);
        self.attention.push(AttentionEvent {
            by,
            callsign: callsign.clone(),
            beacon: beacon.clone(),
            at,
        });
        Ok(())
    }

    /// Amends a strip with a confirmed instruction.
    ///
    /// # Errors
    ///
    /// Unknown beacons/strips fail.
    pub fn amend(
        &mut self,
        beacon: &Beacon,
        callsign: &Callsign,
        instruction: impl Into<String>,
    ) -> Result<(), BoardError> {
        let rack = self
            .racks
            .get_mut(beacon)
            .ok_or_else(|| BoardError::UnknownBeacon(beacon.clone()))?;
        let strip = rack
            .iter_mut()
            .find(|s| &s.callsign == callsign)
            .ok_or_else(|| BoardError::UnknownStrip(callsign.clone()))?;
        strip.instructions.push(instruction.into());
        Ok(())
    }

    /// The rack for a beacon, in board order.
    ///
    /// # Errors
    ///
    /// [`BoardError::UnknownBeacon`] if absent.
    pub fn rack(&self, beacon: &Beacon) -> Result<&[FlightStrip], BoardError> {
        self.racks
            .get(beacon)
            .map(|r| r.as_slice())
            .ok_or_else(|| BoardError::UnknownBeacon(beacon.clone()))
    }

    /// "At a glance" loading: strips per rack.
    pub fn loading(&self) -> Vec<(&Beacon, usize)> {
        self.racks.iter().map(|(b, r)| (b, r.len())).collect()
    }

    /// Emerging problems at a glance: pairs of strips over one beacon at
    /// the same flight level whose ETAs are within `separation`.
    pub fn conflicts(&self, separation: SimDuration) -> Vec<(&Beacon, &Callsign, &Callsign)> {
        let mut out = Vec::new();
        for (beacon, rack) in &self.racks {
            for i in 0..rack.len() {
                for j in i + 1..rack.len() {
                    let (a, b) = (&rack[i], &rack[j]);
                    if a.level == b.level {
                        let gap = if a.eta >= b.eta {
                            a.eta.saturating_since(b.eta)
                        } else {
                            b.eta.saturating_since(a.eta)
                        };
                        if gap < separation {
                            out.push((beacon, &a.callsign, &b.callsign));
                        }
                    }
                }
            }
        }
        out
    }

    /// Attention events raised by manual actions.
    pub fn attention(&self) -> &[AttentionEvent] {
        &self.attention
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip(cs: &str, eta_s: u64, level: u32) -> FlightStrip {
        FlightStrip {
            callsign: Callsign(cs.into()),
            eta: SimTime::from_secs(eta_s),
            level,
            instructions: vec![],
        }
    }

    fn pol() -> Beacon {
        Beacon("POL".into())
    }

    #[test]
    fn automatic_placement_files_by_eta_silently() {
        let mut b = FlightProgressBoard::new();
        b.add_rack(pol());
        for (cs, eta) in [("A1", 300), ("B2", 100), ("C3", 200)] {
            b.place(
                NodeId(0),
                pol(),
                strip(cs, eta, 330),
                PlacementMode::Automatic,
                None,
                SimTime::ZERO,
            )
            .unwrap();
        }
        let order: Vec<&str> = b
            .rack(&pol())
            .unwrap()
            .iter()
            .map(|s| s.callsign.0.as_str())
            .collect();
        assert_eq!(order, vec!["B2", "C3", "A1"]);
        assert!(
            b.attention().is_empty(),
            "automation is silent — the design risk"
        );
    }

    #[test]
    fn manual_placement_draws_attention() {
        let mut b = FlightProgressBoard::new();
        b.add_rack(pol());
        b.place(
            NodeId(3),
            pol(),
            strip("A1", 300, 330),
            PlacementMode::Manual,
            Some(0),
            SimTime::from_secs(5),
        )
        .unwrap();
        assert_eq!(b.attention().len(), 1);
        assert_eq!(b.attention()[0].by, NodeId(3));
    }

    #[test]
    fn manual_reorder_flags_problems() {
        let mut b = FlightProgressBoard::new();
        b.add_rack(pol());
        for (cs, eta) in [("A1", 100), ("B2", 200)] {
            b.place(
                NodeId(0),
                pol(),
                strip(cs, eta, 330),
                PlacementMode::Automatic,
                None,
                SimTime::ZERO,
            )
            .unwrap();
        }
        b.reorder(
            NodeId(1),
            &pol(),
            &Callsign("B2".into()),
            0,
            SimTime::from_secs(9),
        )
        .unwrap();
        let order: Vec<&str> = b
            .rack(&pol())
            .unwrap()
            .iter()
            .map(|s| s.callsign.0.as_str())
            .collect();
        assert_eq!(order, vec!["B2", "A1"], "out of ETA order on purpose");
        assert_eq!(b.attention().len(), 1);
    }

    #[test]
    fn conflicts_detect_same_level_close_etas() {
        let mut b = FlightProgressBoard::new();
        b.add_rack(pol());
        b.place(
            NodeId(0),
            pol(),
            strip("A1", 100, 330),
            PlacementMode::Automatic,
            None,
            SimTime::ZERO,
        )
        .unwrap();
        b.place(
            NodeId(0),
            pol(),
            strip("B2", 130, 330),
            PlacementMode::Automatic,
            None,
            SimTime::ZERO,
        )
        .unwrap();
        b.place(
            NodeId(0),
            pol(),
            strip("C3", 135, 350),
            PlacementMode::Automatic,
            None,
            SimTime::ZERO,
        )
        .unwrap();
        let conflicts = b.conflicts(SimDuration::from_secs(60));
        assert_eq!(conflicts.len(), 1, "only the same-level pair conflicts");
        assert_eq!(conflicts[0].1 .0, "A1");
        assert_eq!(conflicts[0].2 .0, "B2");
    }

    #[test]
    fn amendments_accumulate_on_the_strip() {
        let mut b = FlightProgressBoard::new();
        b.add_rack(pol());
        b.place(
            NodeId(0),
            pol(),
            strip("A1", 100, 330),
            PlacementMode::Automatic,
            None,
            SimTime::ZERO,
        )
        .unwrap();
        b.amend(&pol(), &Callsign("A1".into()), "descend FL280")
            .unwrap();
        b.amend(&pol(), &Callsign("A1".into()), "speed 250")
            .unwrap();
        assert_eq!(b.rack(&pol()).unwrap()[0].instructions.len(), 2);
    }

    #[test]
    fn errors_for_unknown_and_bad_positions() {
        let mut b = FlightProgressBoard::new();
        assert!(b.rack(&pol()).is_err());
        b.add_rack(pol());
        assert!(b.amend(&pol(), &Callsign("ZZ".into()), "x").is_err());
        assert!(matches!(
            b.place(
                NodeId(0),
                pol(),
                strip("A1", 1, 1),
                PlacementMode::Manual,
                Some(5),
                SimTime::ZERO
            ),
            Err(BoardError::BadPosition { .. })
        ));
        b.place(
            NodeId(0),
            pol(),
            strip("A1", 1, 1),
            PlacementMode::Automatic,
            None,
            SimTime::ZERO,
        )
        .unwrap();
        assert!(b
            .reorder(NodeId(0), &pol(), &Callsign("A1".into()), 5, SimTime::ZERO)
            .is_err());
    }
}
