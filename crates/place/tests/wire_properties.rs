//! Property tests: every [`PlaceWire`] envelope — both planes, all
//! twenty variants — survives the `odp-net` framing bit-exactly, and
//! truncated or hostile bytes always yield a typed error, never a
//! panic.

use odp_awareness::bus::{CoopEvent, CoopKind};
use odp_fabric::SpanCarrier;
use odp_mgmt::model::ClusterId;
use odp_net::wire::{laws, MAX_FRAME};
use odp_place::wire::{PlaceWire, SpanObs};
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;
use proptest::prelude::*;

fn arb_span() -> impl Strategy<Value = Option<SpanCarrier>> {
    (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
        |(flags, trace_id, span_id, parent)| {
            (flags & 1 != 0).then_some(SpanCarrier {
                trace_id,
                span_id,
                parent: (flags & 2 != 0).then_some(parent),
            })
        },
    )
}

fn arb_obs() -> impl Strategy<Value = SpanObs> {
    (
        arb_span(),
        "[a-z.0-9]{0,20}",
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(span, kind, node, opened, closed)| SpanObs {
            ctx: span.unwrap_or(SpanCarrier {
                trace_id: 1,
                span_id: 2,
                parent: None,
            }),
            kind,
            node: NodeId(node),
            opened: SimTime::from_micros(opened),
            closed: SimTime::from_micros(closed),
        })
}

fn arb_wire() -> impl Strategy<Value = PlaceWire> {
    (
        (0u8..20, any::<u32>(), any::<u64>()),
        (any::<u32>(), any::<u32>(), any::<u64>()),
        arb_span(),
        "[a-z /:-]{0,24}",
        prop::collection::vec(any::<u8>(), 0..64),
        (
            prop::collection::vec(arb_obs(), 0..4),
            prop::collection::vec((any::<u32>(), any::<u64>()), 0..6),
        ),
    )
        .prop_map(
            |((tag, node, epoch), (index, total, hash), span, text, data, (spans, accesses))| {
                let cluster = ClusterId(node ^ 5);
                let to = NodeId(node);
                match tag {
                    0 => PlaceWire::Read { cluster, span },
                    1 => PlaceWire::ReadOk { cluster },
                    2 => PlaceWire::Write {
                        cluster,
                        byte: (epoch & 0xff) as u8,
                        span,
                    },
                    3 => PlaceWire::WriteOk { cluster },
                    4 => PlaceWire::WriteRefused { cluster },
                    5 => PlaceWire::Moved { cluster, to },
                    6 => PlaceWire::Stats { spans, accesses },
                    7 => PlaceWire::HomeUpdate { cluster, node: to },
                    8 => PlaceWire::ViewChange {
                        view_id: epoch,
                        members: accesses.iter().map(|&(n, _)| NodeId(n)).collect(),
                    },
                    9 => PlaceWire::Notice(CoopEvent::broadcast(
                        to,
                        text,
                        SimTime::from_micros(epoch),
                        CoopKind::ClusterMigrated {
                            from: NodeId(node),
                            to: NodeId(node ^ 1),
                        },
                    )),
                    10 => PlaceWire::Freeze { cluster, epoch, to },
                    11 => PlaceWire::Chunk {
                        cluster,
                        epoch,
                        index,
                        total,
                        data,
                    },
                    12 => PlaceWire::ChunkAck {
                        cluster,
                        epoch,
                        index,
                    },
                    13 => PlaceWire::TransferDone {
                        cluster,
                        epoch,
                        hash,
                    },
                    14 => PlaceWire::TransferFailed {
                        cluster,
                        epoch,
                        reason: text,
                    },
                    15 => PlaceWire::Commit {
                        cluster,
                        epoch,
                        hash,
                    },
                    16 => PlaceWire::Installed { cluster, epoch },
                    17 => PlaceWire::InstallFailed {
                        cluster,
                        epoch,
                        reason: text,
                    },
                    18 => PlaceWire::Release { cluster, epoch, to },
                    _ => PlaceWire::Abort { cluster, epoch },
                }
            },
        )
}

proptest! {
    /// Every envelope of both planes round-trips bit-exactly, bare and
    /// through the live transport's framing.
    #[test]
    fn every_envelope_roundtrips(wire in arb_wire(), obs in arb_obs()) {
        prop_assert_eq!(laws::roundtrips(&wire), Ok(()));
        prop_assert_eq!(laws::roundtrips(&obs), Ok(()));
    }

    /// Truncating a valid envelope anywhere is a typed error.
    #[test]
    fn truncation_never_panics(wire in arb_wire(), obs in arb_obs()) {
        prop_assert_eq!(laws::prefixes_err(&wire), Ok(()));
        prop_assert_eq!(laws::prefixes_err(&obs), Ok(()));
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn hostile_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(laws::total::<PlaceWire>(&bytes, MAX_FRAME), Ok(()));
        prop_assert_eq!(laws::total::<SpanObs>(&bytes, MAX_FRAME), Ok(()));
    }
}
