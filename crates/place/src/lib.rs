#![warn(missing_docs)]

//! # odp-place — closed-loop telemetry-driven placement
//!
//! The paper's requirement 6 asks for *group-aware* object placement:
//! management that watches how a group actually uses shared objects and
//! re-locates them accordingly. `odp-mgmt` supplies the offline policy
//! pieces ([`odp_mgmt::placement::place`], `MigrationManager`) and
//! `odp-telemetry` the observation pieces (causal span DAGs, critical
//! paths, latency histograms); this crate closes the loop **live**:
//!
//! - [`host::TileHostActor`] stores cluster state (raster tiles),
//!   serves reads/writes, enforces the migration write-freeze, and
//!   streams state in bounded chunks planned by
//!   [`odp_streams::transfer::ChunkPlan`];
//! - [`controller::PlacementActor`] ingests [`wire::PlaceWire`]
//!   telemetry reports — per-trace critical paths feed a latency-
//!   weighted usage pattern (observed microseconds, not raw counts) —
//!   plans migrations with `MigrationManager::plan`, drives the
//!   freeze → chunk → install → release protocol, re-registers the
//!   moved offer in an [`odp_trader::store::OfferStore`] and announces
//!   [`odp_awareness::bus::CoopKind::ClusterMigrated`] notices;
//! - [`scenario`] builds the COLiER-style `collab_raster` workload
//!   (N editors, tiled canvas, panning access waves, session churn)
//!   that proves the loop end-to-end.
//!
//! Every actor is a plain [`odp_sim::actor::Actor`], so the same
//! protocol runs on the simulator and over the TCP backend
//! ([`odp_net::tcp::TcpNode`]), where it degrades gracefully: if the
//! destination dies mid-transfer the migration aborts cleanly and the
//! cluster stays readable at its old home.

pub mod controller;
pub mod host;
pub mod latency;
pub mod scenario;
pub mod wire;

pub use controller::{DecisionRecord, EpochOutcome, EpochRecord, PlaceConfig, PlacementActor};
pub use host::TileHostActor;
pub use latency::LatencyMap;
pub use scenario::{collab_raster, EditorActor, RasterConfig, RasterScenario};
pub use wire::{PlaceWire, SpanObs};

/// Deterministic 64-bit FNV-1a over cluster content. Both ends of a
/// transfer hash independently; a committed install must match the
/// freeze-time snapshot hash exactly (the "state transferred
/// exactly-once" obligation checked by the `placement-soundness`
/// invariant).
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        let a = content_hash(b"tile");
        assert_eq!(a, content_hash(b"tile"), "deterministic");
        assert_ne!(a, content_hash(b"tilf"), "content sensitive");
        assert_ne!(content_hash(b""), 0);
    }
}
