//! Bounded-chunk bulk transfer planning.
//!
//! Migrating a cluster (odp-place) or shipping rejoin state moves
//! megabytes through links sized for frames: the transfer must be cut
//! into chunks small enough to interleave with interactive traffic. A
//! [`ChunkPlan`] is the deterministic, side-effect-free description of
//! that cut — which byte ranges travel in which chunk — so senders on
//! any backend (sim or TCP) walk the identical sequence.

/// A deterministic slicing of `total_bytes` into chunks of at most
/// `chunk_bytes` bytes, the last chunk carrying the remainder.
///
/// # Examples
///
/// ```
/// use odp_streams::transfer::ChunkPlan;
///
/// let plan = ChunkPlan::bounded(10_000, 4_096);
/// assert_eq!(plan.count(), 3);
/// assert_eq!(plan.range_of(2), 8_192..10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    total_bytes: usize,
    chunk_bytes: usize,
}

impl ChunkPlan {
    /// Plans a transfer of `total_bytes` in chunks of at most
    /// `chunk_bytes` (clamped to at least 1 so the plan always makes
    /// progress).
    pub fn bounded(total_bytes: usize, chunk_bytes: usize) -> Self {
        ChunkPlan {
            total_bytes,
            chunk_bytes: chunk_bytes.max(1),
        }
    }

    /// Number of chunks (zero for an empty transfer).
    pub fn count(&self) -> u32 {
        self.total_bytes.div_ceil(self.chunk_bytes) as u32
    }

    /// The byte range chunk `index` carries. Empty for out-of-range
    /// indices, so a paranoid receiver can range-check with it.
    pub fn range_of(&self, index: u32) -> std::ops::Range<usize> {
        let start = (index as usize).saturating_mul(self.chunk_bytes);
        let start = start.min(self.total_bytes);
        let end = start.saturating_add(self.chunk_bytes).min(self.total_bytes);
        start..end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiple_has_equal_chunks() {
        let plan = ChunkPlan::bounded(8_192, 4_096);
        assert_eq!(plan.count(), 2);
        assert_eq!(plan.range_of(0), 0..4_096);
        assert_eq!(plan.range_of(1), 4_096..8_192);
        assert!(plan.range_of(2).is_empty());
    }

    #[test]
    fn remainder_rides_the_last_chunk() {
        let plan = ChunkPlan::bounded(10, 4);
        assert_eq!(plan.count(), 3);
        assert_eq!(plan.range_of(2), 8..10);
    }

    #[test]
    fn empty_transfer_has_no_chunks() {
        let plan = ChunkPlan::bounded(0, 4_096);
        assert_eq!(plan.count(), 0);
        assert!(plan.range_of(0).is_empty());
    }

    #[test]
    fn zero_chunk_bound_is_clamped() {
        let plan = ChunkPlan::bounded(3, 0);
        assert_eq!(plan.count(), 3);
        assert_eq!(plan.range_of(1), 1..2);
    }

    #[test]
    fn ranges_tile_the_payload_exactly_once() {
        let plan = ChunkPlan::bounded(65_536 + 17, 4_096);
        let mut covered = 0usize;
        for i in 0..plan.count() {
            let r = plan.range_of(i);
            assert_eq!(r.start, covered, "chunks are contiguous");
            covered = r.end;
        }
        assert_eq!(covered, 65_536 + 17);
    }
}
