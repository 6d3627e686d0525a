//! Typed transport errors.
//!
//! Every failure a codec or backend can hit surfaces as a [`NetError`]
//! value — a malformed or hostile frame must never panic a node.

use std::fmt;

/// A transport-layer failure: wire decoding, framing or socket I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// A frame header announced a body longer than the configured cap.
    FrameTooLarge {
        /// Announced body length.
        len: usize,
        /// The cap it violated.
        max: usize,
    },
    /// A value decoded cleanly but left unconsumed bytes in its frame.
    TrailingBytes {
        /// Leftover byte count.
        extra: usize,
    },
    /// An enum discriminant outside the known range.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending discriminant.
        tag: u32,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A decoded value violated a domain constraint (e.g. a
    /// non-finite float where a weight was expected).
    BadValue {
        /// What was being decoded.
        what: &'static str,
    },
    /// Socket-level failure, stringified (`std::io::Error` is neither
    /// `Clone` nor `PartialEq`, and callers only branch on the kind of
    /// *protocol* error, never on errno).
    Io(String),
    /// The driver thread exited (panicked or was already stopped) while
    /// a handle operation waited on it.
    DriverGone,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated frame: needed {needed} more bytes, have {have}"
                )
            }
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            NetError::TrailingBytes { extra } => {
                write!(f, "frame decoded with {extra} trailing bytes")
            }
            NetError::BadTag { what, tag } => write!(f, "unknown {what} discriminant {tag}"),
            NetError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            NetError::BadValue { what } => write!(f, "malformed {what} value"),
            NetError::Io(err) => write!(f, "transport I/O: {err}"),
            NetError::DriverGone => write!(f, "transport driver thread is gone"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(err: std::io::Error) -> Self {
        NetError::Io(err.to_string())
    }
}
