//! The hand-rolled binary wire codec and length-prefixed framing.
//!
//! The workspace builds offline with no serializer crate, so the wire
//! format is a small explicit binary encoding: fixed-width big-endian
//! integers, IEEE-754 bit-pattern floats, length-prefixed strings and collections, and a
//! `u32` discriminant per enum variant. Every decoder is total — any
//! input, however truncated or hostile, yields a typed
//! [`NetError`](crate::NetError), never a panic — which the proptest
//! suites in the owning crates pin down per envelope type.
//!
//! Framing is `[len: u32 BE][body: len bytes]` with a hard cap checked
//! on *both* sides: encoders refuse to produce an oversized frame and
//! decoders refuse to believe an oversized header (so a corrupt length
//! can neither allocate unbounded memory nor stall the stream).

use std::collections::{BTreeMap, BTreeSet};

use odp_fabric::Payload;
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

    /// Reads one value from the cursor.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError>;
}

/// Encodes `value` as one length-prefixed frame, enforcing `max_body`.
pub fn encode_frame<T: WireCodec>(value: &T, max_body: usize) -> Result<Vec<u8>, NetError> {
    let mut body = Vec::new();
    value.encode(&mut body);
    if body.len() > max_body {
        return Err(NetError::FrameTooLarge {
            len: body.len(),
            max: max_body,
        });
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(&body);
    Ok(frame)
}

/// Decodes one frame from the front of `buf`.
///
/// Returns the value and the total bytes consumed (header + body), or
/// `Truncated` when the buffer does not yet hold a whole frame (the
/// stream reader's signal to keep reading), or `FrameTooLarge` when the
/// header itself is inadmissible (the stream reader's signal to drop
/// the connection).
pub fn decode_frame<T: WireCodec>(buf: &[u8], max_body: usize) -> Result<(T, usize), NetError> {
    if buf.len() < 4 {
        return Err(NetError::Truncated {
            needed: 4,
            have: buf.len(),
        });
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > max_body {
        return Err(NetError::FrameTooLarge { len, max: max_body });
    }
    if buf.len() < 4 + len {
        return Err(NetError::Truncated {
            needed: 4 + len,
            have: buf.len(),
        });
    }
    let value = WireReader::new(&buf[4..4 + len]).finish()?;
    Ok((value, 4 + len))
}

macro_rules! impl_wire_uint {
    ($($ty:ty),*) => {$(
        impl WireCodec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
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
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl WireCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let len = u32::decode(r)? as usize;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| NetError::BadUtf8)
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
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl WireCodec for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(NodeId(u32::decode(r)?))
    }
}

impl WireCodec for SimTime {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_micros().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(SimTime::from_micros(u64::decode(r)?))
    }
}

impl WireCodec for SimDuration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_micros().encode(out);
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
    fn decode(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        let rest = r.take(r.remaining())?;
        Ok(Payload::from_slice(rest))
    }
}

/// Encodes `value` into a fresh [`Payload`] — the bridge from a typed
/// envelope onto the byte fabric. The resulting payload's bytes *are*
/// `value`'s wire encoding, so re-encoding the payload reproduces the
/// typed frame bit-for-bit.
pub fn payload_of<T: WireCodec>(value: &T) -> Payload {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    Payload::from_vec(buf)
}

/// Decodes a typed value back out of a fabric [`Payload`], requiring
/// the payload to hold exactly one `T` encoding.
pub fn payload_as<T: WireCodec>(payload: &Payload) -> Result<T, NetError> {
    WireReader::new(payload.as_slice()).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

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
