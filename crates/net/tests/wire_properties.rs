//! Property tests for the wire codec and framing layer: every
//! primitive round-trips bit-exactly, every link-layer [`Frame`]
//! variant round-trips, and the decoders are *total* — arbitrary or
//! truncated bytes always yield a typed [`NetError`], never a panic
//! and never an unbounded allocation.

use std::collections::{BTreeMap, BTreeSet};

use odp_fabric::{ObjectPath, Payload, SpanCarrier};
use odp_net::error::NetError;
use odp_net::session::Frame;
use odp_net::wire::{
    encode_frame, encode_frame_into, laws, FrameStream, WireCodec, WireReader, MAX_FRAME,
};
use odp_net::{payload_as, payload_of};
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// An arbitrary link-layer frame over `String` payloads, covering all
/// five variants.
fn arb_frame() -> impl Strategy<Value = Frame<String>> {
    (
        0u8..5,
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        "[a-zA-Z0-9 .!?\n]{0,40}",
    )
        .prop_map(|(tag, node, seq, bseq, msg)| match tag {
            0 => Frame::Hello {
                from: NodeId(node),
                expected: seq,
            },
            1 => Frame::Heartbeat,
            2 => Frame::Data { seq, msg },
            3 => Frame::Bcast {
                seq,
                origin: NodeId(node),
                bseq,
                msg,
            },
            _ => Frame::Fwd {
                seq,
                origin: NodeId(node),
                bseq,
                msg,
            },
        })
}

proptest! {
    /// Unsigned/signed integers, bools, strings, times and ids all
    /// round-trip exactly, alone and inside nested containers.
    #[test]
    fn primitives_and_containers_roundtrip(
        a in any::<u64>(),
        b in any::<u32>(),
        s in "[a-zA-Z0-9 .!?\n]{0,60}",
        flag in any::<bool>(),
        pairs in prop::collection::vec((any::<u32>(), any::<u64>()), 0..12),
        set in prop::collection::btree_set(any::<u32>(), 0..12),
    ) {
        prop_assert_eq!(laws::roundtrips(&a), Ok(()));
        prop_assert_eq!(laws::roundtrips(&b), Ok(()));
        prop_assert_eq!(laws::roundtrips(&(a as i64)), Ok(()));
        prop_assert_eq!(laws::roundtrips(&s), Ok(()));
        prop_assert_eq!(laws::roundtrips(&flag), Ok(()));
        prop_assert_eq!(laws::roundtrips(&NodeId(b)), Ok(()));
        prop_assert_eq!(laws::roundtrips(&SimTime::from_micros(a)), Ok(()));
        prop_assert_eq!(laws::roundtrips(&SimDuration::from_micros(a)), Ok(()));
        prop_assert_eq!(laws::roundtrips(&Some(s.clone())), Ok(()));
        prop_assert_eq!(laws::roundtrips(&Option::<String>::None), Ok(()));
        let map: BTreeMap<NodeId, u64> =
            pairs.iter().map(|&(k, v)| (NodeId(k), v)).collect();
        prop_assert_eq!(laws::roundtrips(&map), Ok(()));
        let ids: BTreeSet<NodeId> = set.iter().map(|&n| NodeId(n)).collect();
        prop_assert_eq!(laws::roundtrips(&ids), Ok(()));
        let nested: Vec<(NodeId, Vec<String>)> =
            vec![(NodeId(b), vec![s.clone(), String::new()])];
        prop_assert_eq!(laws::roundtrips(&nested), Ok(()));
    }

    /// Floats round-trip by bit pattern — NaN payloads and signed
    /// zeroes included.
    #[test]
    fn floats_roundtrip_by_bits(bits in any::<u64>()) {
        let value = f64::from_bits(bits);
        let mut buf = Vec::new();
        value.encode(&mut buf);
        let back = WireReader::new(&buf).finish::<f64>().expect("f64 decodes");
        prop_assert_eq!(back.to_bits(), bits);
    }

    /// Every `Frame` variant survives the full encode → frame →
    /// decode_frame pipeline, consuming exactly the bytes produced.
    #[test]
    fn frames_roundtrip_through_framing(frame in arb_frame()) {
        prop_assert_eq!(laws::roundtrips(&frame), Ok(()));
    }

    /// Every strict prefix of a valid encoding is an error — the
    /// decoder never silently accepts a cut-off value.
    #[test]
    fn truncated_frames_error_at_every_prefix(frame in arb_frame()) {
        prop_assert_eq!(laws::prefixes_err(&frame), Ok(()));
    }

    /// Arbitrary hostile bytes never panic the frame decoder: the
    /// outcome is a value or a typed error, and a header announcing
    /// more than the cap is rejected before any allocation.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        cap in 8usize..64,
    ) {
        prop_assert_eq!(laws::total::<Frame<String>>(&bytes, cap), Ok(()));
        prop_assert_eq!(laws::total::<Vec<(NodeId, f64)>>(&bytes, cap), Ok(()));
        prop_assert_eq!(laws::total::<BTreeMap<NodeId, String>>(&bytes, cap), Ok(()));
        prop_assert_eq!(laws::total::<(NodeId, ObjectPath)>(&bytes, cap), Ok(()));
    }

    /// An `ObjectPath` obeys the codec laws and is, on the wire, the
    /// string it holds: a field may change between the two types
    /// without moving a frame. A name spelled with redundant slashes
    /// decodes to its normal form, whose encoding is the canonical one.
    #[test]
    fn object_paths_travel_as_their_strings(raw in "[a-z0-9/]{0,40}") {
        let path = ObjectPath::new(&raw);
        prop_assert_eq!(laws::roundtrips(&path), Ok(()));
        prop_assert_eq!(laws::prefixes_err(&path), Ok(()));
        let mut as_path = Vec::new();
        path.encode(&mut as_path);
        let mut as_string = Vec::new();
        path.as_str().to_owned().encode(&mut as_string);
        prop_assert_eq!(&as_path, &as_string);

        let mut unnormalised = Vec::new();
        raw.encode(&mut unnormalised);
        prop_assert_eq!(laws::total::<ObjectPath>(&unnormalised, MAX_FRAME), Ok(()));
        let back = WireReader::new(&unnormalised).finish::<ObjectPath>().expect("total");
        prop_assert_eq!(back, path);
    }

    /// A `SpanCarrier` — root or child — obeys the codec laws, hostile
    /// bytes never panic its decoder, and the wire codec *is* the
    /// fabric's: `WireCodec::encode` and `SpanCarrier::encode_into`
    /// emit the same 17 or 25 bytes, which `encoded_len` reports.
    #[test]
    fn span_carriers_travel_through_the_fabric_codec(
        ids in (any::<u64>(), any::<u64>(), any::<u64>()),
        has_parent in any::<bool>(),
        bytes in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        let span = SpanCarrier {
            trace_id: ids.0,
            span_id: ids.1,
            parent: has_parent.then_some(ids.2),
        };
        prop_assert_eq!(laws::roundtrips(&span), Ok(()));
        prop_assert_eq!(laws::prefixes_err(&span), Ok(()));
        prop_assert_eq!(laws::total::<SpanCarrier>(&bytes, MAX_FRAME), Ok(()));

        let mut on_the_wire = Vec::new();
        span.encode(&mut on_the_wire);
        let mut by_the_fabric = Vec::new();
        span.encode_into(&mut by_the_fabric);
        prop_assert_eq!(&on_the_wire, &by_the_fabric);
        prop_assert_eq!(span.encoded_len(), on_the_wire.len());
        prop_assert_eq!(on_the_wire.len(), if has_parent { 25 } else { 17 });
    }

    /// `Payload` is wire-transparent: it encodes as its raw bytes with
    /// no header, and decoding consumes everything that remains — so a
    /// fabric envelope's frame is byte-identical to the typed one.
    #[test]
    fn payload_is_wire_transparent(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let payload = Payload::from_vec(bytes.clone());
        let mut buf = Vec::new();
        payload.encode(&mut buf);
        prop_assert_eq!(buf.as_slice(), bytes.as_slice());
        let back = WireReader::new(&buf).finish::<Payload>().expect("total");
        prop_assert_eq!(back.as_slice(), bytes.as_slice());
    }

    /// `payload_of` / `payload_as` invert each other for typed values,
    /// and `payload_as` over arbitrary bytes is total — hostile
    /// payloads surface as typed errors, never panics.
    #[test]
    fn payload_of_as_roundtrip_and_hostile_bytes(
        s in "[a-zA-Z0-9 .!?\n]{0,40}",
        n in any::<u64>(),
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let typed = (s.clone(), n);
        let payload = payload_of(&typed);
        prop_assert_eq!(payload_as::<(String, u64)>(&payload).expect("roundtrips"), typed);
        // Trailing garbage after a valid encoding must be rejected:
        // payload decoding is consume-all by construction.
        if !junk.is_empty() {
            let mut extended = payload.as_slice().to_vec();
            extended.extend_from_slice(&junk);
            prop_assert!(payload_as::<(String, u64)>(&Payload::from_vec(extended)).is_err());
        }
        let _ = payload_as::<(String, u64)>(&Payload::from_vec(junk.clone()));
        let _ = payload_as::<Frame<String>>(&Payload::from_vec(junk));
    }

    /// However a byte stream of frames is cut into reads — inside a
    /// header, inside a body, between frames, into empty reads — the
    /// stream decoder hands out the frames that were sent, in order.
    #[test]
    fn any_chunking_of_a_stream_yields_the_same_frames(
        frames in prop::collection::vec(arb_frame(), 1..10),
        cuts in prop::collection::vec(any::<u32>(), 0..24),
    ) {
        let mut bytes = Vec::new();
        for frame in &frames {
            bytes.extend(encode_frame(frame, MAX_FRAME).expect("encodes"));
        }
        let mut at: Vec<usize> = cuts.iter().map(|&c| c as usize % (bytes.len() + 1)).collect();
        at.extend([0, bytes.len()]);
        at.sort_unstable();
        let mut stream = FrameStream::new();
        let mut got = Vec::new();
        for read in at.windows(2) {
            stream.push(&bytes[read[0]..read[1]]);
            loop {
                match stream.next::<Frame<String>>(MAX_FRAME) {
                    Ok(Some(frame)) => got.push(frame),
                    Ok(None) => break,
                    Err(err) => prop_assert!(false, "a well-formed stream failed: {}", err),
                }
            }
        }
        prop_assert_eq!(got, frames);
    }

    /// `encode_frame_into` appends exactly the bytes `encode_frame`
    /// returns and reports their length; what the buffer already held
    /// is untouched, and a refused frame leaves the buffer as it was,
    /// with the same error `encode_frame` gives.
    #[test]
    fn encode_frame_into_appends_what_encode_frame_returns(
        frame in arb_frame(),
        held in prop::collection::vec(any::<u8>(), 0..16),
        cap in 0usize..64,
    ) {
        let mut buf = held.clone();
        match (encode_frame(&frame, cap), encode_frame_into(&frame, cap, &mut buf)) {
            (Ok(bytes), Ok(appended)) => {
                prop_assert_eq!(appended, bytes.len());
                prop_assert_eq!(&buf[..held.len()], held.as_slice());
                prop_assert_eq!(&buf[held.len()..], bytes.as_slice());
            }
            (Err(refused), Err(err)) => {
                prop_assert!(matches!(err, NetError::FrameTooLarge { .. }), "{}", err);
                prop_assert_eq!(err, refused);
                prop_assert_eq!(&buf, &held);
            }
            (framed, into) => prop_assert!(
                false,
                "encode_frame {:?} disagrees with encode_frame_into {:?}",
                framed.map(|bytes| bytes.len()),
                into
            ),
        }
    }

    /// The encoder refuses to produce frames above the cap, with the
    /// true body length in the error.
    #[test]
    fn oversized_bodies_are_refused(len in 0usize..128, cap in 0usize..64) {
        let s = "x".repeat(len);
        let body_len = 4 + len; // u32 length prefix + bytes
        match encode_frame(&s, cap) {
            Ok(frame) => {
                prop_assert!(body_len <= cap);
                prop_assert_eq!(frame.len(), 4 + body_len);
            }
            Err(NetError::FrameTooLarge { len: got, max }) => {
                prop_assert_eq!(got, body_len);
                prop_assert_eq!(max, cap);
                prop_assert!(body_len > cap);
            }
            Err(other) => prop_assert!(false, "unexpected error {}", other),
        }
    }
}
