//! The wire declaration for [`SpanContext`], so spans piggybacked on
//! protocol messages survive a trip through a real transport.
//!
//! Lives here (not in `odp-net`) because the orphan rule requires the
//! impl in the crate owning either the trait or the type.

use crate::span::SpanContext;

odp_net::wire_struct!(SpanContext {
    trace_id,
    span_id,
    parent
});

#[cfg(test)]
mod tests {
    use odp_net::wire::{laws, MAX_FRAME};
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Roots and children alike obey the codec laws, and hostile
        /// bytes never panic the decoder.
        #[test]
        fn span_context_roundtrips(
            ids in (any::<u64>(), any::<u64>(), any::<u64>()),
            has_parent in any::<bool>(),
            bytes in prop::collection::vec(any::<u8>(), 0..40),
        ) {
            let ctx = SpanContext {
                trace_id: ids.0,
                span_id: ids.1,
                parent: has_parent.then_some(ids.2),
            };
            prop_assert_eq!(laws::roundtrips(&ctx), Ok(()));
            prop_assert_eq!(laws::prefixes_err(&ctx), Ok(()));
            prop_assert_eq!(laws::total::<SpanContext>(&bytes, MAX_FRAME), Ok(()));
        }
    }
}
