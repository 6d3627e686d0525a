//! Wire declarations for the cooperation-event bus envelope:
//! [`BusWire`] and every [`CoopKind`] variant round-trip through
//! `odp-net` framing, so bus replicas can disseminate over real
//! transports.
//!
//! The generated decoders are total — corrupt bytes yield a typed
//! [`odp_net::error::NetError`], never a panic. The declarations live
//! here per the orphan rule.

use crate::bus::{Audience, CoopEvent, CoopKind, CoopMode};
use crate::dist::BusWire;
use crate::events::ActivityKind;

odp_net::wire_enum!(ActivityKind {
    0 => Edit,
    1 => View,
    2 => Enter,
    3 => Leave,
    4 => Gesture,
    5 => Move,
});
odp_net::wire_enum!(CoopMode { 0 => Shared, 1 => Exclusive });
odp_net::wire_enum!(Audience { 0 => Everyone, 1 => Direct(node) });
odp_net::wire_enum!(CoopKind {
    0 => Activity(kind),
    1 => LockGranted { mode },
    2 => LockTickled { by },
    3 => LockRevoked { to },
    4 => LockConflict { with },
    5 => LockAccess { by, mode },
    6 => GroupAccess { mode },
    7 => FloorGranted,
    8 => FloorPreempted,
    9 => FloorIdle,
    10 => RemoteOp { site, seq },
    11 => AccessChanged { granted, rights },
    12 => ReintegrationConflict { applied },
    13 => SessionSwitched { from, to },
    14 => ServiceInvalidated { reason },
    15 => ClusterMigrated { from, to },
});
odp_net::wire_struct!(CoopEvent {
    actor,
    artefact,
    at,
    audience,
    kind
});
odp_net::wire_struct!(BusWire { event, grants });

#[cfg(test)]
mod tests {
    use odp_net::error::NetError;
    use odp_net::wire::{laws, WireReader};
    use odp_sim::net::NodeId;
    use odp_sim::time::SimTime;

    use super::*;

    #[test]
    fn every_coop_kind_roundtrips() {
        let kinds = vec![
            CoopKind::Activity(ActivityKind::Gesture),
            CoopKind::LockGranted {
                mode: CoopMode::Exclusive,
            },
            CoopKind::LockTickled { by: NodeId(4) },
            CoopKind::LockRevoked { to: NodeId(5) },
            CoopKind::LockConflict { with: NodeId(6) },
            CoopKind::LockAccess {
                by: NodeId(7),
                mode: CoopMode::Shared,
            },
            CoopKind::GroupAccess {
                mode: CoopMode::Shared,
            },
            CoopKind::FloorGranted,
            CoopKind::FloorPreempted,
            CoopKind::FloorIdle,
            CoopKind::RemoteOp {
                site: NodeId(2),
                seq: 41,
            },
            CoopKind::AccessChanged {
                granted: true,
                rights: "rw".to_owned(),
            },
            CoopKind::ReintegrationConflict { applied: false },
            CoopKind::SessionSwitched {
                from: "meeting".to_owned(),
                to: "async".to_owned(),
            },
            CoopKind::ServiceInvalidated {
                reason: "withdrawn".to_owned(),
            },
            CoopKind::ClusterMigrated {
                from: NodeId(0),
                to: NodeId(9),
            },
        ];
        for kind in kinds {
            let wire = BusWire {
                event: CoopEvent {
                    actor: NodeId(1),
                    artefact: "doc/a".into(),
                    at: SimTime::from_millis(9),
                    audience: Audience::Direct(NodeId(3)),
                    kind,
                },
                grants: vec![(NodeId(3), 1.0), (NodeId(4), 0.25)],
            };
            assert_eq!(laws::roundtrips(&wire), Ok(()));
        }
    }

    #[test]
    fn unknown_kind_tag_is_a_typed_error() {
        assert_eq!(
            WireReader::new(&[200]).finish::<CoopKind>(),
            Err(NetError::BadTag {
                what: "CoopKind",
                tag: 200
            })
        );
    }
}
