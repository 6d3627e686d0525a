//! Wire declarations for the trader's cache-coherence envelope: the
//! [`Invalidation`] notes disseminated over the reliable multicast
//! group round-trip through `odp-net` framing, so the coherence group
//! (traders + importers) can run over a real transport as
//! `GcMsg<Invalidation>`.
//!
//! The full [`crate::actors::TraderMsg`] surface (lookups carrying
//! [`crate::offer::ServiceOffer`] and QoS specs) is deliberately not on
//! the wire yet — see the backend-support matrix in the README.

use crate::actors::{Invalidation, InvalidationReason};
use crate::offer::ServiceType;

odp_net::wire_newtype!(ServiceType);
odp_net::wire_enum!(InvalidationReason { 0 => Withdrawn, 1 => Modified, 2 => Rebalanced });
odp_net::wire_struct!(Invalidation {
    service_type,
    reason
});

#[cfg(test)]
mod tests {
    use odp_net::wire::{laws, MAX_FRAME};
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Every invalidation obeys the codec laws, and hostile bytes
        /// never panic its decoder.
        #[test]
        fn invalidations_roundtrip(
            name in "[a-z/]{0,24}",
            reason in 0usize..3,
            bytes in prop::collection::vec(any::<u8>(), 0..48),
        ) {
            let note = Invalidation {
                service_type: ServiceType(name),
                reason: [
                    InvalidationReason::Withdrawn,
                    InvalidationReason::Modified,
                    InvalidationReason::Rebalanced,
                ][reason],
            };
            prop_assert_eq!(laws::roundtrips(&note), Ok(()));
            prop_assert_eq!(laws::prefixes_err(&note), Ok(()));
            prop_assert_eq!(laws::total::<Invalidation>(&bytes, MAX_FRAME), Ok(()));
        }
    }
}
