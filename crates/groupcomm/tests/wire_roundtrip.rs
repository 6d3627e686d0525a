//! Property tests: every [`GcMsg`] envelope — with arbitrary vector
//! clocks, spans, views and payloads — survives a trip through the
//! `odp-net` framing, and corrupt bytes always come back as a typed
//! error rather than a panic.

use std::sync::Arc;

use odp_fabric::SpanCarrier;
use odp_groupcomm::membership::{GroupId, View, ViewId};
use odp_groupcomm::multicast::{DataMsg, GcMsg, MsgId};
use odp_groupcomm::rpc::{ReplyBody, RequestBody};
use odp_groupcomm::vclock::VectorClock;
use odp_net::wire::{laws, WireCodec, WireReader, MAX_FRAME};
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;
use proptest::prelude::*;

fn arb_vclock() -> impl Strategy<Value = VectorClock> {
    prop::collection::vec((any::<u32>(), 1u64..1000), 0..8).prop_map(|entries| {
        VectorClock::from_entries(entries.into_iter().map(|(n, c)| (NodeId(n), c)))
    })
}

fn arb_span() -> impl Strategy<Value = Option<SpanCarrier>> {
    (
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(present, trace_id, span_id, parent, has_parent)| {
            present.then_some(SpanCarrier {
                trace_id,
                span_id,
                parent: has_parent.then_some(parent),
            })
        })
}

fn arb_view() -> impl Strategy<Value = View> {
    (
        any::<u32>(),
        any::<u64>(),
        prop::collection::btree_set(any::<u32>(), 0..10),
    )
        .prop_map(|(group, id, members)| {
            let mut view = View::initial(GroupId(group), members.into_iter().map(NodeId));
            view.id = ViewId(id);
            view
        })
}

fn arb_msg_id() -> impl Strategy<Value = MsgId> {
    (any::<u32>(), any::<u64>()).prop_map(|(origin, seq)| MsgId {
        origin: NodeId(origin),
        seq,
    })
}

/// One arbitrary envelope per call, cycling through all eight `GcMsg`
/// variants so every shape is exercised in every run.
fn arb_gcmsg() -> impl Strategy<Value = GcMsg<String>> {
    (
        0u8..8,
        (arb_msg_id(), arb_msg_id(), arb_vclock(), arb_view()),
        arb_span(),
        (any::<u64>(), any::<bool>(), any::<u64>()),
        "[a-zA-Z0-9 /.:-]{0,48}",
    )
        .prop_map(
            |(tag, (id, id2, vclock, view), span, (call, some_at, at), payload)| match tag {
                0 => GcMsg::Data(Arc::new(DataMsg {
                    id,
                    group: view.group,
                    vclock: Some(vclock),
                    span,
                    payload,
                })),
                1 => GcMsg::Data(Arc::new(DataMsg {
                    id,
                    group: view.group,
                    vclock: None,
                    span: None,
                    payload,
                })),
                2 => GcMsg::Ack { id },
                3 => GcMsg::SeqRequest { id },
                4 => GcMsg::SeqAssign {
                    assign_id: id2,
                    id,
                    total: call,
                },
                5 => GcMsg::RpcRequest {
                    call,
                    body: Arc::new(RequestBody {
                        execute_at: some_at.then_some(SimTime::from_micros(at)),
                        span,
                        payload,
                    }),
                },
                6 => GcMsg::RpcReply {
                    call,
                    body: Box::new(ReplyBody { span, payload }),
                },
                _ => {
                    if some_at {
                        GcMsg::AppCmd(payload)
                    } else {
                        GcMsg::InstallView(view)
                    }
                }
            },
        )
}

proptest! {
    /// Every `GcMsg` envelope round-trips bit-exactly, bare and through
    /// the length-prefixed framing used by the live transport.
    #[test]
    fn every_envelope_roundtrips(msg in arb_gcmsg()) {
        prop_assert_eq!(laws::roundtrips(&msg), Ok(()));
    }

    /// Vector clocks stay canonical across the wire: entries decode to
    /// the same counters, zero entries never reappear.
    #[test]
    fn vclock_stays_canonical(vc in arb_vclock()) {
        let mut buf = Vec::new();
        vc.encode(&mut buf);
        let back = WireReader::new(&buf).finish::<VectorClock>().expect("decodes");
        prop_assert_eq!(&back, &vc);
        prop_assert!(back.iter().all(|(_, c)| c > 0));
    }

    /// Truncating a valid envelope at any byte boundary is a typed
    /// error, never a panic and never a silent partial decode.
    #[test]
    fn truncation_never_panics(msg in arb_gcmsg()) {
        prop_assert_eq!(laws::prefixes_err(&msg), Ok(()));
    }

    /// Arbitrary bytes fed to the envelope decoder always produce a
    /// value or a typed error.
    #[test]
    fn hostile_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..160)) {
        prop_assert_eq!(laws::total::<GcMsg<String>>(&bytes, MAX_FRAME), Ok(()));
    }
}
