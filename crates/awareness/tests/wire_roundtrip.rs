//! Property tests: every [`BusWire`] envelope — all sixteen
//! [`CoopKind`] variants, both audiences, arbitrary grant lists —
//! survives the `odp-net` framing bit-exactly, and corrupt bytes
//! always yield a typed error instead of a panic.

use odp_awareness::bus::{Audience, CoopEvent, CoopKind, CoopMode};
use odp_awareness::dist::BusWire;
use odp_awareness::events::ActivityKind;
use odp_net::wire::{laws, WireCodec, WireReader, MAX_FRAME};
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = CoopKind> {
    (
        0u8..16,
        any::<u32>(),
        any::<bool>(),
        any::<u64>(),
        "[a-z /:-]{0,24}",
        "[a-z ]{0,16}",
    )
        .prop_map(|(tag, node, flag, seq, text, text2)| {
            let mode = if flag {
                CoopMode::Exclusive
            } else {
                CoopMode::Shared
            };
            let activity = match node % 6 {
                0 => ActivityKind::Edit,
                1 => ActivityKind::View,
                2 => ActivityKind::Enter,
                3 => ActivityKind::Leave,
                4 => ActivityKind::Gesture,
                _ => ActivityKind::Move,
            };
            match tag {
                0 => CoopKind::Activity(activity),
                1 => CoopKind::LockGranted { mode },
                2 => CoopKind::LockTickled { by: NodeId(node) },
                3 => CoopKind::LockRevoked { to: NodeId(node) },
                4 => CoopKind::LockConflict { with: NodeId(node) },
                5 => CoopKind::LockAccess {
                    by: NodeId(node),
                    mode,
                },
                6 => CoopKind::GroupAccess { mode },
                7 => CoopKind::FloorGranted,
                8 => CoopKind::FloorPreempted,
                9 => CoopKind::FloorIdle,
                10 => CoopKind::RemoteOp {
                    site: NodeId(node),
                    seq,
                },
                11 => CoopKind::AccessChanged {
                    granted: flag,
                    rights: text2,
                },
                12 => CoopKind::ReintegrationConflict { applied: flag },
                13 => CoopKind::SessionSwitched {
                    from: text,
                    to: text2,
                },
                14 => CoopKind::ServiceInvalidated { reason: text },
                _ => CoopKind::ClusterMigrated {
                    from: NodeId(node),
                    to: NodeId(node ^ 1),
                },
            }
        })
}

fn arb_wire() -> impl Strategy<Value = BusWire> {
    (
        arb_kind(),
        (any::<u32>(), any::<u64>(), any::<bool>(), any::<u32>()),
        "[a-z0-9/]{0,24}",
        prop::collection::vec((any::<u32>(), 0.0f64..1.0), 0..8),
    )
        .prop_map(
            |(kind, (actor, at, everyone, direct), artefact, grants)| BusWire {
                event: CoopEvent {
                    actor: NodeId(actor),
                    artefact,
                    at: SimTime::from_micros(at),
                    audience: if everyone {
                        Audience::Everyone
                    } else {
                        Audience::Direct(NodeId(direct))
                    },
                    kind,
                },
                grants: grants.into_iter().map(|(n, w)| (NodeId(n), w)).collect(),
            },
        )
}

proptest! {
    /// Every bus envelope — any kind, audience and grant list —
    /// round-trips bit-exactly, bare and through the live transport's
    /// framing.
    #[test]
    fn every_envelope_roundtrips(wire in arb_wire()) {
        prop_assert_eq!(laws::roundtrips(&wire.event.kind), Ok(()));
        prop_assert_eq!(laws::roundtrips(&wire), Ok(()));
    }

    /// Grant weights survive by bit pattern, not by approximate value.
    #[test]
    fn grant_weights_are_bit_exact(bits in prop::collection::vec(any::<u64>(), 0..6)) {
        let grants: Vec<(NodeId, f64)> = bits
            .iter()
            .enumerate()
            .map(|(i, &b)| (NodeId(i as u32), f64::from_bits(b)))
            .collect();
        let mut buf = Vec::new();
        grants.encode(&mut buf);
        let back = WireReader::new(&buf)
            .finish::<Vec<(NodeId, f64)>>()
            .expect("decodes");
        prop_assert_eq!(back.len(), grants.len());
        for (got, want) in back.iter().zip(&grants) {
            prop_assert_eq!(got.0, want.0);
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
        }
    }

    /// Truncating a valid envelope anywhere is a typed error.
    #[test]
    fn truncation_never_panics(wire in arb_wire()) {
        prop_assert_eq!(laws::prefixes_err(&wire.event.kind), Ok(()));
        prop_assert_eq!(laws::prefixes_err(&wire), Ok(()));
    }

    /// Arbitrary bytes never panic the envelope decoder.
    #[test]
    fn hostile_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..160)) {
        prop_assert_eq!(laws::total::<BusWire>(&bytes, MAX_FRAME), Ok(()));
        prop_assert_eq!(laws::total::<CoopKind>(&bytes, MAX_FRAME), Ok(()));
    }
}
