//! Wire declarations for the group-communication envelope: every
//! [`GcMsg`] variant (and the types it carries) round-trips through
//! `odp-net`'s length-prefixed framing, so group actors run over real
//! transports.
//!
//! All decoders are total: corrupt input yields a typed
//! [`NetError`], never a panic. The declarations live here (not in
//! `odp-net`) per the orphan rule.

use std::convert::Infallible;

use odp_fabric::Payload;
use odp_net::error::NetError;
use odp_net::wire::{payload_as, payload_of, WireCodec, WireReader};
use odp_sim::net::NodeId;

use crate::membership::{GroupId, View, ViewId};
use crate::multicast::{DataMsg, GcMsg, MsgId};
use crate::rpc::{ReplyBody, RequestBody};
use crate::vclock::VectorClock;

odp_net::wire_newtype!(GroupId);
odp_net::wire_newtype!(ViewId);
odp_net::wire_struct!(View { group, id, members });
odp_net::wire_struct!(MsgId { origin, seq });
odp_net::wire_struct!(<P> DataMsg<P> { id, group, vclock, span, payload });
odp_net::wire_struct!(<P> RequestBody<P> { execute_at, span, payload });
odp_net::wire_struct!(<P> ReplyBody<P> { span, payload });
// A body behind a pointer encodes as the body, so each variant's bytes
// are its fields' in the order the bodies list them.
odp_net::wire_enum!(<P> GcMsg<P> {
    0 => Data(d),
    1 => Ack { id },
    2 => SeqRequest { id },
    3 => SeqAssign { assign_id, id, total },
    4 => RpcRequest { call, body },
    5 => RpcReply { call, body },
    6 => AppCmd(p),
    7 => InstallView(v),
});

/// Hand-written because it is a conversion, not a field list: the
/// clock travels as its `(node, counter)` entries behind a `u32` count
/// (a `Vec`'s encoding), and decoding re-canonicalises through
/// [`VectorClock::from_entries`].
impl WireCodec for VectorClock {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for entry in self.iter() {
            entry.encode(out);
        }
    }

    fn encoded_len(&self) -> usize {
        4 + self.iter().map(|entry| entry.encoded_len()).sum::<usize>()
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let entries: Vec<(NodeId, u64)> = WireCodec::decode(r)?;
        Ok(VectorClock::from_entries(entries))
    }
}

/// Re-envelopes a typed message onto the byte fabric: each payload is
/// replaced by its own wire encoding wrapped in a cheaply-cloneable
/// [`Payload`]. Because the payload is the *trailing* field of every
/// payload-carrying variant (`Data`, `RpcRequest`, `RpcReply`,
/// `AppCmd`) and [`Payload`] encodes verbatim,
/// `encode(to_fabric(&m))` is byte-identical to `encode(&m)` — group
/// engines can run on `GcMsg<Payload>` (fan-out clones become
/// reference-count bumps) without changing a single wire frame.
pub fn to_fabric<P: WireCodec>(msg: &GcMsg<P>) -> GcMsg<Payload> {
    let Ok(fabric) = msg.try_map_payload(|p| Ok::<_, Infallible>(payload_of(p)));
    fabric
}

/// Inverse of [`to_fabric`]: decodes each byte payload back into `P`.
///
/// # Errors
///
/// Any [`NetError`] from decoding a payload that is not a valid `P`
/// encoding (including trailing garbage).
pub fn from_fabric<P: WireCodec>(msg: &GcMsg<Payload>) -> Result<GcMsg<P>, NetError> {
    msg.try_map_payload(payload_as)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use odp_fabric::SpanCarrier;
    use odp_net::wire::laws;
    use odp_sim::time::SimTime;

    use super::*;

    #[test]
    fn vector_clock_roundtrips_and_stays_canonical() {
        let mut vc = VectorClock::new();
        vc.tick(NodeId(3));
        vc.tick(NodeId(3));
        vc.tick(NodeId(7));
        assert_eq!(laws::roundtrips(&vc), Ok(()));
        // Zero entries are dropped on decode, keeping equality exact.
        let rebuilt = VectorClock::from_entries([(NodeId(1), 0), (NodeId(2), 5)]);
        assert_eq!(rebuilt.get(NodeId(1)), 0);
        assert_eq!(rebuilt.len(), 1);
    }

    fn sample_msgs() -> Vec<GcMsg<String>> {
        let id = MsgId {
            origin: NodeId(2),
            seq: 9,
        };
        let mut vc = VectorClock::new();
        vc.tick(NodeId(0));
        let span = SpanCarrier::root(0xaa, 0xbb);
        vec![
            GcMsg::Data(Arc::new(DataMsg {
                id,
                group: GroupId(1),
                vclock: Some(vc),
                span: Some(span),
                payload: "hello".to_owned(),
            })),
            GcMsg::Ack { id },
            GcMsg::SeqRequest { id },
            GcMsg::SeqAssign {
                assign_id: MsgId {
                    origin: NodeId(0),
                    seq: 1,
                },
                id,
                total: 17,
            },
            GcMsg::RpcRequest {
                call: 4,
                body: Arc::new(RequestBody {
                    execute_at: Some(SimTime::from_millis(250)),
                    span: None,
                    payload: "req".to_owned(),
                }),
            },
            GcMsg::RpcReply {
                call: 4,
                body: Box::new(ReplyBody {
                    span: Some(SpanCarrier::child_of(span.trace_id, 0xcc, span.span_id)),
                    payload: "rep".to_owned(),
                }),
            },
            GcMsg::AppCmd("cmd".to_owned()),
            GcMsg::InstallView(View::initial(GroupId(3), [NodeId(0), NodeId(4)])),
        ]
    }

    #[test]
    fn every_gcmsg_variant_roundtrips() {
        for msg in &sample_msgs() {
            assert_eq!(laws::roundtrips(msg), Ok(()));
        }
    }

    #[test]
    fn fabric_reenveloping_is_byte_identical() {
        for msg in &sample_msgs() {
            let fabric = to_fabric(msg);
            let mut typed_bytes = Vec::new();
            msg.encode(&mut typed_bytes);
            let mut fabric_bytes = Vec::new();
            fabric.encode(&mut fabric_bytes);
            assert_eq!(typed_bytes, fabric_bytes, "frames diverge for {msg:?}");
            let back: GcMsg<String> = from_fabric(&fabric).expect("payloads decode");
            assert_eq!(&back, msg);
        }
    }

    #[test]
    fn from_fabric_rejects_garbage_payloads() {
        let msg: GcMsg<Payload> = GcMsg::AppCmd(Payload::from_slice(&[0xff])); // not a String encoding
        assert!(from_fabric::<String>(&msg).is_err());
    }

    #[test]
    fn unknown_tag_is_a_typed_error() {
        assert_eq!(
            WireReader::new(&[99]).finish::<GcMsg<String>>(),
            Err(NetError::BadTag {
                what: "GcMsg",
                tag: 99
            })
        );
    }
}
