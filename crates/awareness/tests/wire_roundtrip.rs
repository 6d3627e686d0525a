//! Property tests: every [`BusWire`] envelope — all sixteen
//! [`CoopKind`] variants, both audiences, arbitrary grant lists —
//! survives the `odp-net` framing bit-exactly, corrupt bytes always
//! yield a typed error instead of a panic, and an artefact name
//! spelled with redundant slashes is normalised by the decoder and
//! gated as its normal form.

use odp_access::matrix::Subject;
use odp_access::rbac::{Effect, RbacPolicy, RoleId};
use odp_access::rights::Rights;
use odp_awareness::bus::{Audience, CoopEvent, CoopKind, CoopMode, EventBus};
use odp_awareness::dist::BusWire;
use odp_awareness::events::ActivityKind;
use odp_net::wire::{decode_frame, laws, WireCodec, WireReader, MAX_FRAME};
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
                    artefact: artefact.into(),
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

/// A frame from a peer that never normalised: the artefact travels as
/// `"doc//a/"`. The decoder is where that name enters this node, so it
/// reads `"doc/a"` from there on and the rights gate treats it exactly
/// as `"doc/a"`.
#[test]
fn an_unnormalised_artefact_decodes_to_its_normal_form_and_is_gated_as_it() {
    let edit = CoopKind::Activity(ActivityKind::Edit);
    let mut body = Vec::new();
    NodeId(0).encode(&mut body);
    "doc//a/".to_owned().encode(&mut body);
    SimTime::ZERO.encode(&mut body);
    Audience::Everyone.encode(&mut body);
    edit.encode(&mut body);
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&body);

    assert_eq!(laws::total::<CoopEvent>(&body, MAX_FRAME), Ok(()));
    let (decoded, used): (CoopEvent, usize) = decode_frame(&frame, MAX_FRAME).expect("decodes");
    assert_eq!(used, frame.len());
    assert_eq!(decoded.artefact, "doc/a");
    let normal = CoopEvent::broadcast(NodeId(0), "doc/a", SimTime::ZERO, edit);
    assert_eq!(decoded, normal);

    // Observer 1 may read `doc/a` and nothing else under `doc`;
    // observer 2 may read nothing.
    let gated = |event: CoopEvent| {
        let mut policy = RbacPolicy::new();
        policy.add_rule(RoleId(1), "doc/a".into(), Rights::READ, Effect::Allow);
        policy.assign(Subject(1), RoleId(1));
        let mut bus = EventBus::new();
        bus.set_policy(policy);
        bus.register(NodeId(1), 0.0);
        bus.register(NodeId(2), 0.0);
        let observers: Vec<NodeId> = bus.publish(event).iter().map(|d| d.observer).collect();
        (observers, bus.suppressed_by_rights())
    };
    assert_eq!(gated(decoded), (vec![NodeId(1)], 1));
    assert_eq!(gated(normal), (vec![NodeId(1)], 1));
}
