//! The binary wire codec, its declarative envelope layer, and
//! length-prefixed framing.
//!
//! The workspace builds offline with no serializer crate, so the wire
//! format is a small explicit binary encoding: fixed-width big-endian
//! integers, IEEE-754 bit-pattern floats, length-prefixed strings and
//! collections, and a `u8` tag per enum variant. Every decoder is total
//! — any input, however truncated or hostile, yields a typed
//! [`NetError`], never a panic — which [`laws`] states
//! once and each owning crate's proptest suite feeds per envelope.
//!
//! Only the primitives, containers, [`Payload`], [`ObjectPath`] and
//! [`SpanCarrier`] below are written by hand. An envelope is
//! *declared*, once, in the crate that owns the type, and the macro
//! derives both directions from that one field list (fields travel in
//! the order listed; their types are inferred):
//!
//! ```
//! # use odp_net::wire::laws;
//! # #[derive(Debug, PartialEq)]
//! struct Id(u32);
//! # #[derive(Debug, PartialEq)]
//! struct Stamp<P> { id: Id, seq: u64, body: P }
//! # #[derive(Debug, PartialEq)]
//! enum Msg<P> { Ping, Ack(Id, u64), Data { stamp: Stamp<P> } }
//!
//! odp_net::wire_newtype!(Id);
//! odp_net::wire_struct!(<P> Stamp<P> { id, seq, body });
//! odp_net::wire_enum!(<P> Msg<P> { 0 => Ping, 1 => Ack(id, seq), 2 => Data { stamp } });
//! # let stamp = Stamp { id: Id(7), seq: 1, body: "hi".to_owned() };
//! # assert_eq!(laws::roundtrips(&Msg::Data { stamp }), Ok(()));
//! # assert_eq!(laws::roundtrips(&Msg::<String>::Ack(Id(7), 2)), Ok(()));
//! # assert_eq!(laws::roundtrips(&Msg::<String>::Ping), Ok(()));
//! ```
//!
//! Grammar: `wire_newtype!(Name)`; `wire_struct!([<G, ..>] Name[<G, ..>]
//! { field, .. })`; `wire_enum!([<G, ..>] Name[<G, ..>] { tag => Variant,
//! tag => Variant(binding, ..), tag => Variant { field, .. }, .. })`
//! with `u8` literal tags. Every generic parameter is bound by
//! [`WireCodec`]. An unknown tag decodes to `NetError::BadTag { what:
//! "Name", .. }`. A [`Payload`] field is legal **only as the trailing
//! field** of its envelope (see its impl below).
//!
//! Framing is `[len: u32 BE][body: len bytes]` with a hard cap checked
//! on *both* sides: encoders refuse to produce an oversized frame and
//! decoders refuse to believe an oversized header (so a corrupt length
//! can neither allocate unbounded memory nor stall the stream).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use odp_fabric::{FabricError, ObjectPath, Payload, SpanCarrier};
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};

use crate::error::NetError;

/// Default frame-body cap: 1 MiB, far above any protocol envelope in
/// the workspace but small enough that a corrupted length prefix cannot
/// provoke a multi-gigabyte allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// A bounds-checked cursor over a received byte buffer.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes or reports truncation.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.remaining() < n {
            return Err(NetError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Decodes a `T`, then requires the buffer to be fully consumed.
    pub fn finish<T: WireCodec>(mut self) -> Result<T, NetError> {
        let value = T::decode(&mut self)?;
        if self.remaining() > 0 {
            return Err(NetError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(value)
    }
}

/// A value with a self-describing binary encoding.
///
/// Implementations live in the crate that owns the type (the trait is
/// public precisely so `odp-groupcomm` can encode `GcMsg` and
/// `odp-awareness` can encode `BusWire` without this crate knowing
/// either). Encoding is infallible (it writes to a growable buffer;
/// size limits are enforced at the framing layer); decoding is total.
pub trait WireCodec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Exactly how many bytes [`encode`](WireCodec::encode) appends:
    /// what lets the framing layer refuse an oversized value before
    /// writing a byte and allocate a frame once, at its final size.
    /// Derived by the declaration macros from the same field list;
    /// [`laws::roundtrips`] holds every envelope to it.
    fn encoded_len(&self) -> usize;

    /// Reads one value from the cursor.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError>;
}

/// Encodes `value` as one length-prefixed frame, enforcing `max_body`.
///
/// The body may never exceed `u32::MAX` bytes whatever `max_body` says:
/// the header is a `u32`, and a longer body would travel behind a
/// truncated — lying — length. An inadmissible value is refused before
/// anything is allocated; an admissible one is written into a buffer of
/// exactly its final size.
pub fn encode_frame<T: WireCodec>(value: &T, max_body: usize) -> Result<Vec<u8>, NetError> {
    let len = admissible_len(value, max_body)?;
    let mut frame = Vec::with_capacity(4 + len);
    put_frame(value, len, &mut frame);
    Ok(frame)
}

/// Appends `value` as one length-prefixed frame to `out` and returns
/// how many bytes it appended — what a writer batching frames into one
/// reusable buffer calls.
///
/// The same bytes and the same refusal as [`encode_frame`]: bytes
/// already in `out` are left as they are, and on `FrameTooLarge`
/// nothing is appended. `out` grows amortised, not to an exact size.
pub fn encode_frame_into<T: WireCodec>(
    value: &T,
    max_body: usize,
    out: &mut Vec<u8>,
) -> Result<usize, NetError> {
    let len = admissible_len(value, max_body)?;
    out.reserve(4 + len);
    put_frame(value, len, out);
    Ok(4 + len)
}

/// `value`'s body length, or `FrameTooLarge` if no frame may carry it.
fn admissible_len<T: WireCodec>(value: &T, max_body: usize) -> Result<usize, NetError> {
    let len = value.encoded_len();
    let max = max_body.min(u32::MAX as usize);
    if len > max {
        return Err(NetError::FrameTooLarge { len, max });
    }
    Ok(len)
}

/// Appends the header and body of a value whose body is `len` bytes.
fn put_frame<T: WireCodec>(value: &T, len: usize, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&(len as u32).to_be_bytes());
    value.encode(out);
    assert_eq!(out.len() - start, 4 + len, "encoded_len must be exact");
}

/// Decodes one frame from the front of `buf`.
///
/// Returns the value and the total bytes consumed (header + body), or
/// `Truncated` when the buffer does not hold a whole frame, or
/// `FrameTooLarge` when the header itself is inadmissible. To take
/// frames off a byte stream as it arrives use [`FrameStream`], which
/// tells "not all here yet" from "all here and malformed".
pub fn decode_frame<T: WireCodec>(buf: &[u8], max_body: usize) -> Result<(T, usize), NetError> {
    let body = frame_body(buf, max_body)?;
    let value = WireReader::new(body).finish()?;
    Ok((value, 4 + body.len()))
}

/// The body of the frame at the front of `buf`: `Truncated` until the
/// whole frame is there, `FrameTooLarge` for an inadmissible header.
fn frame_body(buf: &[u8], max_body: usize) -> Result<&[u8], NetError> {
    let Some((header, rest)) = buf.split_first_chunk::<4>() else {
        return Err(NetError::Truncated {
            needed: 4,
            have: buf.len(),
        });
    };
    let len = u32::from_be_bytes(*header) as usize;
    if len > max_body {
        return Err(NetError::FrameTooLarge { len, max: max_body });
    }
    rest.get(..len).ok_or(NetError::Truncated {
        needed: 4 + len,
        have: buf.len(),
    })
}

/// The receiving end of a byte stream of frames, without the stream:
/// feed it what each read returned, take the frames out.
///
/// Consumed frames are skipped by a read cursor and dropped from the
/// buffer once per [`push`](FrameStream::push), so draining a read that
/// held hundreds of small frames moves the unconsumed tail once, not
/// once per frame.
#[derive(Debug, Default)]
pub struct FrameStream {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as frames.
    read: usize,
}

impl FrameStream {
    /// An empty stream.
    pub fn new() -> Self {
        FrameStream::default()
    }

    /// Appends bytes as they arrived, in whatever chunks.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.read);
        self.read = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// The next whole frame, decoded; `Ok(None)` when the bytes so far
    /// end inside one (they are kept: push more and ask again).
    ///
    /// # Errors
    ///
    /// `FrameTooLarge` for a header over `max_body`, or whatever `T`'s
    /// decoder says of a frame that is all there and still not a `T`
    /// (`Truncated` included: the body ended before the value did).
    /// Either way the stream cannot be framed from here on and the
    /// caller must drop it.
    pub fn next<T: WireCodec>(&mut self, max_body: usize) -> Result<Option<T>, NetError> {
        let body = match frame_body(&self.buf[self.read..], max_body) {
            Ok(body) => body,
            Err(NetError::Truncated { .. }) => return Ok(None),
            Err(err) => return Err(err),
        };
        self.read += 4 + body.len();
        WireReader::new(body).finish().map(Some)
    }
}

/// Declares the [`WireCodec`] of a one-field tuple struct as that of
/// its field (see the [module docs](self) for the grammar).
#[macro_export]
macro_rules! wire_newtype {
    ($name:ident) => {
        impl $crate::wire::WireCodec for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                $crate::wire::WireCodec::encode(&self.0, out);
            }
            fn encoded_len(&self) -> usize {
                $crate::wire::WireCodec::encoded_len(&self.0)
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::error::NetError> {
                Ok(Self($crate::wire::WireCodec::decode(r)?))
            }
        }
    };
}

/// Declares the [`WireCodec`] of a struct: its fields, in wire order
/// (see the [module docs](self) for the grammar). A field left out of
/// the declaration does not build:
///
/// ```compile_fail
/// struct Stamp { id: u32, seq: u64 }
/// odp_net::wire_struct!(Stamp { id });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($(<$($g:ident),+>)? $name:ident $(<$($a:ident),+>)? { $($field:ident),+ $(,)? }) => {
        impl $(<$($g: $crate::wire::WireCodec),+>)? $crate::wire::WireCodec
            for $name $(<$($a),+>)?
        {
            fn encode(&self, out: &mut Vec<u8>) {
                let Self { $($field),+ } = self;
                $($crate::wire::WireCodec::encode($field, out);)+
            }
            fn encoded_len(&self) -> usize {
                let Self { $($field),+ } = self;
                0 $(+ $crate::wire::WireCodec::encoded_len($field))+
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::error::NetError> {
                $(let $field = $crate::wire::WireCodec::decode(r)?;)+
                Ok(Self { $($field),+ })
            }
        }
    };
}

/// Declares the [`WireCodec`] of an enum: a `u8` tag per variant, then
/// the variant's fields in wire order (see the [module docs](self) for
/// the grammar). A variant left out of the declaration does not build,
/// and neither does a tag used twice:
///
/// ```compile_fail
/// enum Msg { Ping, Pong }
/// odp_net::wire_enum!(Msg { 0 => Ping });
/// ```
///
/// ```compile_fail
/// enum Msg { Ping, Pong }
/// odp_net::wire_enum!(Msg { 0 => Ping, 0 => Pong });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($(<$($g:ident),+>)? $name:ident $(<$($a:ident),+>)? {
        $($tag:literal => $variant:ident $(($($tf:ident),+))? $({ $($sf:ident),+ })?),+ $(,)?
    }) => {
        impl $(<$($g: $crate::wire::WireCodec),+>)? $crate::wire::WireCodec
            for $name $(<$($a),+>)?
        {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {$(
                    Self::$variant $(($($tf),+))? $({ $($sf),+ })? => {
                        out.push($tag);
                        $($($crate::wire::WireCodec::encode($tf, out);)+)?
                        $($($crate::wire::WireCodec::encode($sf, out);)+)?
                    }
                )+}
            }
            fn encoded_len(&self) -> usize {
                match self {$(
                    Self::$variant $(($($tf),+))? $({ $($sf),+ })? => {
                        1 $($(+ $crate::wire::WireCodec::encoded_len($tf))+)?
                            $($(+ $crate::wire::WireCodec::encoded_len($sf))+)?
                    }
                )+}
            }
            #[deny(unreachable_patterns)]
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::error::NetError> {
                match <u8 as $crate::wire::WireCodec>::decode(r)? {
                    $($tag => {
                        $($(let $tf = $crate::wire::WireCodec::decode(r)?;)+)?
                        $($(let $sf = $crate::wire::WireCodec::decode(r)?;)+)?
                        Ok(Self::$variant $(($($tf),+))? $({ $($sf),+ })?)
                    })+
                    tag => Err($crate::error::NetError::BadTag {
                        what: stringify!($name),
                        tag: u32::from(tag),
                    }),
                }
            }
        }
    };
}

macro_rules! impl_wire_uint {
    ($($ty:ty),*) => {$(
        impl WireCodec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$ty>()
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                let mut fixed = [0u8; std::mem::size_of::<$ty>()];
                fixed.copy_from_slice(bytes);
                Ok(<$ty>::from_be_bytes(fixed))
            }
        }
    )*};
}

impl_wire_uint!(u8, u16, u32, u64, i64);

impl WireCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(NetError::BadTag {
                what: "bool",
                tag: u32::from(tag),
            }),
        }
    }
}

impl WireCodec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_be_bytes());
    }
    fn encoded_len(&self) -> usize {
        8
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

fn encode_str(text: &str, out: &mut Vec<u8>) {
    (text.len() as u32).encode(out);
    out.extend_from_slice(text.as_bytes());
}

fn decode_str<'a>(r: &mut WireReader<'a>) -> Result<&'a str, NetError> {
    let len = u32::decode(r)? as usize;
    std::str::from_utf8(r.take(len)?).map_err(|_| NetError::BadUtf8)
}

impl WireCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self, out);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        decode_str(r).map(str::to_owned)
    }
}

/// An [`ObjectPath`] travels as the string it is — byte for byte what
/// `String` writes, so a field changing between the two types moves no
/// frame. The decoder normalises: a name enters the system here, and
/// `"doc//a/"` off the wire reads `"doc/a"` from then on.
impl WireCodec for ObjectPath {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self.as_str(), out);
    }
    fn encoded_len(&self) -> usize {
        4 + self.as_str().len()
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        decode_str(r).map(ObjectPath::new)
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, T::encoded_len)
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(NetError::BadTag {
                what: "Option",
                tag: u32::from(tag),
            }),
        }
    }
}

/// A shared body travels as the value it points to: the pointer is a
/// layout choice (one body behind many envelopes), not a wire field, so
/// `Arc<T>` and `T` encode to the same bytes.
impl<T: WireCodec> WireCodec for Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        T::encode(self, out);
    }
    fn encoded_len(&self) -> usize {
        T::encoded_len(self)
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        T::decode(r).map(Arc::new)
    }
}

/// As for [`Arc`]: a boxed body encodes to exactly `T`'s bytes.
impl<T: WireCodec> WireCodec for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        T::encode(self, out);
    }
    fn encoded_len(&self) -> usize {
        T::encoded_len(self)
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        T::decode(r).map(Box::new)
    }
}

/// Guards a decoded collection length against the bytes actually
/// present: every element costs at least one byte on the wire, so a
/// length prefix exceeding `remaining` is lying and must not reach an
/// allocator.
fn check_len(len: usize, r: &WireReader<'_>) -> Result<(), NetError> {
    if len > r.remaining() {
        return Err(NetError::Truncated {
            needed: len,
            have: r.remaining(),
        });
    }
    Ok(())
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(T::encoded_len).sum::<usize>()
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let len = u32::decode(r)? as usize;
        check_len(len, r)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<K: WireCodec + Ord, V: WireCodec> WireCodec for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for (key, value) in self {
            key.encode(out);
            value.encode(out);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self
            .iter()
            .map(|(key, value)| key.encoded_len() + value.encoded_len())
            .sum::<usize>()
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let len = u32::decode(r)? as usize;
        check_len(len, r)?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let key = K::decode(r)?;
            let value = V::decode(r)?;
            map.insert(key, value);
        }
        Ok(map)
    }
}

impl<T: WireCodec + Ord> WireCodec for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(T::encoded_len).sum::<usize>()
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let len = u32::decode(r)? as usize;
        check_len(len, r)?;
        let mut set = BTreeSet::new();
        for _ in 0..len {
            set.insert(T::decode(r)?);
        }
        Ok(set)
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

crate::wire_newtype!(NodeId);

impl WireCodec for SimTime {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_micros().encode(out);
    }
    fn encoded_len(&self) -> usize {
        8
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(SimTime::from_micros(u64::decode(r)?))
    }
}

impl WireCodec for SimDuration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_micros().encode(out);
    }
    fn encoded_len(&self) -> usize {
        8
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(SimDuration::from_micros(u64::decode(r)?))
    }
}

/// [`Payload`] is *transparent* on the wire: its bytes are appended
/// verbatim (no length prefix) and decoding consumes every remaining
/// byte. That makes `encode(payload_of(&v))` byte-identical to
/// `encode(&v)` — the zero-copy fabric path produces the same frames
/// as the typed path, which the differential suite proves per envelope.
///
/// The transparency is sound **only when the payload is the trailing
/// field** of its envelope (it is, in every payload-carrying `GcMsg`
/// variant); a mid-envelope `Payload` would swallow its successors.
/// Envelopes needing an interior byte field should keep `Vec<u8>`
/// (length-prefixed) instead.
impl WireCodec for Payload {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_slice());
    }
    fn encoded_len(&self) -> usize {
        self.len()
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let rest = r.take(r.remaining())?;
        Ok(Payload::from_slice(rest))
    }
}

/// A [`SpanCarrier`] travels through the fabric's own codec —
/// [`SpanCarrier::encode_into`] / [`SpanCarrier::decode_from`], 17 bytes
/// for a root and 25 for a child, the layout `(u64, u64, Option<u64>)`
/// would derive — so the span bytes a frame pays for are the ones the
/// fabric's micro-benchmarks time.
impl WireCodec for SpanCarrier {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_into(out);
    }
    fn encoded_len(&self) -> usize {
        17 + self.parent.map_or(0, |_| 8)
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        match SpanCarrier::decode_from(&r.buf[r.pos..]) {
            Ok((span, used)) => {
                r.pos += used;
                Ok(span)
            }
            Err(FabricError::Truncated { needed, have }) => {
                Err(NetError::Truncated { needed, have })
            }
            // The one tag in a span is its parent's option tag.
            Err(FabricError::BadTag { tag }) => Err(NetError::BadTag {
                what: "Option",
                tag: u32::from(tag),
            }),
        }
    }
}

/// Encodes `value` into a fresh [`Payload`] — the bridge from a typed
/// envelope onto the byte fabric. The resulting payload's bytes *are*
/// `value`'s wire encoding, so re-encoding the payload reproduces the
/// typed frame bit-for-bit.
pub fn payload_of<T: WireCodec>(value: &T) -> Payload {
    Payload::from_vec(encoding(value))
}

fn encoding<T: WireCodec>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(value.encoded_len());
    value.encode(&mut buf);
    buf
}

/// Decodes a typed value back out of a fabric [`Payload`], requiring
/// the payload to hold exactly one `T` encoding.
pub fn payload_as<T: WireCodec>(payload: &Payload) -> Result<T, NetError> {
    WireReader::new(payload.as_slice()).finish()
}

/// The codec laws every envelope must obey, as plain checks a test
/// feeds with values (or bytes) from its own generator.
pub mod laws {
    use std::fmt::Debug;

    use super::{decode_frame, encode_frame, encoding, NetError, WireCodec, WireReader, MAX_FRAME};

    /// `decode ∘ encode = id`, bare and through the framing (which
    /// consumes exactly the frame), the decoded value re-encodes to
    /// the same bytes, and `encoded_len` is the length of the encoding.
    pub fn roundtrips<T: WireCodec + PartialEq + Debug>(value: &T) -> Result<(), String> {
        let body = encoding(value);
        if value.encoded_len() != body.len() {
            return Err(format!(
                "{value:?} reports encoded_len {} and encodes to {} bytes",
                value.encoded_len(),
                body.len()
            ));
        }
        match WireReader::new(&body).finish::<T>() {
            Ok(back) if &back == value && encoding(&back) == body => {}
            other => return Err(format!("{value:?} came back as {other:?}")),
        }
        let frame = encode_frame(value, MAX_FRAME).map_err(|e| e.to_string())?;
        match decode_frame::<T>(&frame, MAX_FRAME) {
            Ok((back, used)) if &back == value && used == frame.len() => Ok(()),
            other => Err(format!("framing {value:?} returned {other:?}")),
        }
    }

    /// Every strict prefix of a valid encoding is a typed error — never
    /// a panic, never a silently accepted cut-off value.
    pub fn prefixes_err<T: WireCodec + Debug>(value: &T) -> Result<(), String> {
        let body = encoding(value);
        for cut in 0..body.len() {
            if let Ok(got) = WireReader::new(&body[..cut]).finish::<T>() {
                return Err(format!("{cut}-byte prefix of {value:?} decoded as {got:?}"));
            }
        }
        Ok(())
    }

    /// Arbitrary bytes never panic the decoder, bare or framed under
    /// `max_body`: the outcome is a typed error or a value, and an
    /// accepted value's encoding is canonical (decoding it and encoding
    /// again reproduces it).
    pub fn total<T: WireCodec>(bytes: &[u8], max_body: usize) -> Result<(), String> {
        if let Ok(value) = WireReader::new(bytes).finish::<T>() {
            let canonical = encoding(&value);
            let again = WireReader::new(&canonical).finish::<T>();
            if again.as_ref().map(encoding) != Ok(canonical) {
                return Err(format!(
                    "accepted {bytes:?} but its re-encoding is not canonical"
                ));
            }
        }
        match decode_frame::<T>(bytes, max_body) {
            Ok((_, used)) if used > bytes.len() => Err(format!("consumed {used} bytes")),
            Err(NetError::FrameTooLarge { len, max }) if len <= max => Err(format!(
                "refused an admissible {len}-byte header under {max}"
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Toy(u16);
    #[derive(Debug, Clone, PartialEq)]
    struct ToyPair<P> {
        id: Toy,
        body: P,
    }
    #[derive(Debug, Clone, PartialEq)]
    enum ToyMsg<P> {
        Unit,
        Tuple(Toy, bool),
        Named { pair: ToyPair<P>, at: SimTime },
    }
    crate::wire_newtype!(Toy);
    crate::wire_struct!(<P> ToyPair<P> { id, body });
    crate::wire_enum!(<P> ToyMsg<P> { 1 => Unit, 4 => Tuple(toy, flag), 9 => Named { pair, at } });

    #[test]
    fn wire_newtype_is_its_field() {
        assert_eq!(encoding(&Toy(0x0102)), [1, 2]);
        assert_eq!(laws::roundtrips(&Toy(7)), Ok(()));
        assert_eq!(laws::prefixes_err(&Toy(7)), Ok(()));
    }

    #[test]
    fn wire_struct_writes_fields_in_declared_order() {
        let pair = ToyPair {
            id: Toy(3),
            body: "ab".to_owned(),
        };
        assert_eq!(encoding(&pair), [0, 3, 0, 0, 0, 2, b'a', b'b']);
        assert_eq!(laws::roundtrips(&pair), Ok(()));
        assert_eq!(laws::prefixes_err(&pair), Ok(()));
    }

    #[test]
    fn wire_enum_tags_every_variant_shape_and_rejects_unknown_tags() {
        let named = ToyMsg::Named {
            pair: ToyPair {
                id: Toy(3),
                body: 5u8,
            },
            at: SimTime::from_micros(1),
        };
        assert_eq!(encoding(&ToyMsg::<u8>::Unit), [1]);
        assert_eq!(encoding(&ToyMsg::<u8>::Tuple(Toy(2), true)), [4, 0, 2, 1]);
        assert_eq!(encoding(&named), [9, 0, 3, 5, 0, 0, 0, 0, 0, 0, 0, 1]);
        for msg in [ToyMsg::Unit, ToyMsg::Tuple(Toy(2), true), named] {
            assert_eq!(laws::roundtrips(&msg), Ok(()));
            assert_eq!(laws::prefixes_err(&msg), Ok(()));
        }
        assert_eq!(
            WireReader::new(&[0]).finish::<ToyMsg<u8>>(),
            Err(NetError::BadTag {
                what: "ToyMsg",
                tag: 0
            })
        );
        for junk in [&[4, 0, 2, 7][..], &[9, 0], &[1, 1]] {
            assert_eq!(laws::total::<ToyMsg<u8>>(junk, MAX_FRAME), Ok(()));
            assert!(WireReader::new(junk).finish::<ToyMsg<u8>>().is_err());
        }
    }

    #[test]
    fn a_shared_or_boxed_body_encodes_as_its_value() {
        let body = (7u64, "x".to_string());
        assert_eq!(encoding(&Arc::new(body.clone())), encoding(&body));
        assert_eq!(encoding(&Box::new(body.clone())), encoding(&body));
        assert_eq!(laws::roundtrips(&Arc::new(body.clone())), Ok(()));
        assert_eq!(laws::roundtrips(&Box::new(body)), Ok(()));
    }

    #[test]
    fn frame_roundtrip_and_consumed_length() {
        let frame = encode_frame(&"hello".to_string(), MAX_FRAME).expect("encode");
        let (back, used): (String, usize) = decode_frame(&frame, MAX_FRAME).expect("decode");
        assert_eq!(back, "hello");
        assert_eq!(used, frame.len());
    }

    #[test]
    fn oversized_header_is_rejected_not_allocated() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        frame.extend_from_slice(&[0u8; 16]);
        let err = decode_frame::<String>(&frame, MAX_FRAME).unwrap_err();
        assert!(matches!(err, NetError::FrameTooLarge { .. }), "{err}");
    }

    #[test]
    fn encoder_refuses_oversized_bodies() {
        let big = "x".repeat(64);
        let err = encode_frame(&big, 16).unwrap_err();
        assert!(
            matches!(err, NetError::FrameTooLarge { len: 68, max: 16 }),
            "{err}"
        );
    }

    /// Reports a body past what a `u32` header can say; reaching its
    /// `encode` means the refusal came too late.
    #[cfg(target_pointer_width = "64")]
    #[derive(Debug)]
    struct Huge;

    #[cfg(target_pointer_width = "64")]
    impl WireCodec for Huge {
        fn encode(&self, _out: &mut Vec<u8>) {
            unreachable!("an inadmissible value is refused before a byte is written");
        }
        fn encoded_len(&self) -> usize {
            u32::MAX as usize + 1
        }
        fn decode(_r: &mut WireReader<'_>) -> Result<Self, NetError> {
            Ok(Huge)
        }
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn no_cap_admits_a_body_the_header_cannot_describe() {
        // `len as u32` used to truncate here and write a prefix of 0.
        let err = encode_frame(&Huge, usize::MAX).unwrap_err();
        assert_eq!(
            err,
            NetError::FrameTooLarge {
                len: u32::MAX as usize + 1,
                max: u32::MAX as usize
            }
        );
    }

    #[test]
    fn a_frame_is_allocated_once_at_its_final_size() {
        let frame = encode_frame(&vec!["some".to_string(), "strings".to_string()], MAX_FRAME)
            .expect("encode");
        assert_eq!(frame.capacity(), frame.len());
        let payload = payload_of(&(7u64, "x".to_string())).into_vec();
        assert_eq!(payload.capacity(), payload.len());
    }

    fn stream_of(values: &[String]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for v in values {
            bytes.extend(encode_frame(v, MAX_FRAME).expect("encode"));
        }
        bytes
    }

    #[test]
    fn frame_stream_fed_byte_by_byte_yields_every_frame() {
        let sent = ["", "a", "hello world"].map(str::to_owned);
        let mut stream = FrameStream::new();
        let mut got = Vec::new();
        // Every split point there is, those inside the headers included.
        for byte in stream_of(&sent) {
            stream.push(&[byte]);
            while let Some(v) = stream.next::<String>(MAX_FRAME).expect("well-formed") {
                got.push(v);
            }
        }
        assert_eq!(got, sent);
    }

    #[test]
    fn frame_stream_keeps_the_bytes_of_an_unfinished_frame() {
        let sent = ["first".to_owned(), "second".to_owned()];
        let bytes = stream_of(&sent);
        let cut = bytes.len() - 3;
        let mut stream = FrameStream::new();
        stream.push(&bytes[..cut]);
        assert_eq!(stream.next::<String>(MAX_FRAME), Ok(Some(sent[0].clone())));
        // Asking again changes nothing: the tail waits for its end.
        assert_eq!(stream.next::<String>(MAX_FRAME), Ok(None));
        assert_eq!(stream.next::<String>(MAX_FRAME), Ok(None));
        stream.push(&bytes[cut..]);
        assert_eq!(stream.next::<String>(MAX_FRAME), Ok(Some(sent[1].clone())));
        assert_eq!(stream.next::<String>(MAX_FRAME), Ok(None));
    }

    #[test]
    fn frame_stream_ends_on_a_lying_length_or_a_malformed_body() {
        let mut stream = FrameStream::new();
        stream.push(&stream_of(&["ok".to_owned()]));
        stream.push(&u32::MAX.to_be_bytes());
        assert_eq!(stream.next::<String>(MAX_FRAME), Ok(Some("ok".to_owned())));
        let err = stream.next::<String>(MAX_FRAME).unwrap_err();
        assert!(matches!(err, NetError::FrameTooLarge { .. }), "{err}");

        // A whole frame whose body stops short of the value it starts:
        // an error, not a wait for bytes that belong to the next frame.
        let mut stream = FrameStream::new();
        stream.push(&[0, 0, 0, 2, 0, 0]);
        let err = stream.next::<String>(MAX_FRAME).unwrap_err();
        assert!(matches!(err, NetError::Truncated { .. }), "{err}");
    }

    #[test]
    fn truncation_is_an_error_at_every_prefix() {
        let value: Vec<(NodeId, f64)> = vec![(NodeId(1), 0.5), (NodeId(9), 1.0)];
        let mut body = Vec::new();
        value.encode(&mut body);
        for cut in 0..body.len() {
            let err = WireReader::new(&body[..cut]).finish::<Vec<(NodeId, f64)>>();
            assert!(err.is_err(), "prefix of {cut} bytes decoded");
        }
        let ok = WireReader::new(&body)
            .finish::<Vec<(NodeId, f64)>>()
            .expect("full");
        assert_eq!(ok, value);
    }

    #[test]
    fn lying_collection_length_is_truncation_not_oom() {
        let mut body = Vec::new();
        (u32::MAX).encode(&mut body);
        let err = WireReader::new(&body).finish::<Vec<u64>>().unwrap_err();
        assert!(matches!(err, NetError::Truncated { .. }), "{err}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Vec::new();
        42u64.encode(&mut body);
        body.push(0xFF);
        let err = WireReader::new(&body).finish::<u64>().unwrap_err();
        assert_eq!(err, NetError::TrailingBytes { extra: 1 });
    }
}
