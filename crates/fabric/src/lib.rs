#![warn(missing_docs)]

//! # odp-fabric — the zero-copy message fabric
//!
//! The delivery hot path moves five kinds of data millions of times
//! per run: envelope payloads (multicast fan-out clones one payload per
//! peer), telemetry span records (one per instrumented hop), small
//! ordered maps that exist only so iteration order is deterministic,
//! sequence numbers checked against everything seen before (one
//! duplicate test per received message), and artefact names (one
//! rights check and one event copy per observer).
//! This crate provides the byte-oriented primitives every
//! envelope-carrying crate shares, and *nothing else* — it sits below
//! `odp-sim` in the dependency graph and deliberately depends on no
//! other workspace crate, which is why times are raw microsecond `u64`s
//! and nodes raw `u32`s here (the sim layer re-exports them with its
//! `SimTime`/`NodeId` vocabulary).
//!
//! Five pieces:
//!
//! - [`Payload`]: cheaply-cloneable Arc-backed shared
//!   bytes with copy-on-write. Fan-out to N peers bumps a refcount N
//!   times instead of copying the body N times; the first writer to a
//!   shared buffer pays one copy.
//! - [`SpanCarrier`] + [`SpanLog`]: the one identity of a telemetry
//!   span — what is minted, carried on envelopes, encoded on the wire
//!   and collected after the run — and the binary log of span events.
//!   Kinds are interned to a small [`KindId`]; one span record is a
//!   fixed-size push, and a span that opens and closes at one instant
//!   is one record.
//! - [`SortedVecMap`]: a binary-searched sorted
//!   vector with the `BTreeMap` API subset the hot sites use. Sound
//!   wherever the map is small-to-medium and iteration order (not
//!   asymptotic insert/remove) is what the BTreeMap was buying —
//!   retransmit buffers, observer registries, lookup caches.
//! - [`SeqSet`]: a set of sequence numbers kept as
//!   merged ranges — the duplicate filter of every layer that numbers
//!   its messages per origin. Its size is the number of gaps, not of
//!   messages, and inserting the next number in line is O(1).
//! - [`ObjectPath`]: a shared, normalised hierarchical
//!   name. What `Payload` is to bytes it is to artefact names: parsed
//!   once where the name enters, a refcount bump per copy, and a prefix
//!   test ("does this rule's subtree cover that artefact?") that
//!   compares bytes instead of building strings.

pub mod bytes;
pub mod map;
pub mod path;
pub mod seqset;
pub mod span;

pub use bytes::Payload;
pub use map::SortedVecMap;
pub use path::ObjectPath;
pub use seqset::SeqSet;
pub use span::{FabricError, KindId, SpanCarrier, SpanEvent, SpanLog, SpanOp};
